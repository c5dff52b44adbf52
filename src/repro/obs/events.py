"""Durable structured event log: append-only JSONL with rotation.

Schema ``repro.events/1`` — one JSON object per line::

    {"ts": <unix seconds>, "kind": "request.finish",
     "trace_id": "...", ...kind-specific fields...}

The first record of every file is ``{"kind": "log.open", "schema":
"repro.events/1", ...}`` so a reader can verify what it is holding.
Rotation is size-based and happens *after* a record is fully written:
the record that crosses the threshold always lands intact in the file
being rotated out — rotation can never drop an in-flight record.
Rotated files are ``<path>.1`` (newest) .. ``<path>.N`` (oldest);
:func:`iter_events` replays them oldest-first followed by the live
file, skipping a torn trailing line (a crashed writer) without
failing.

Emitting is process-global: :func:`configure` opens the log,
:func:`emit` appends (a no-op while unconfigured, so instrumented code
needs no guards).  ``emit`` stamps the current thread's
:class:`~repro.obs.context.TraceContext` onto the record unless the
caller passed an explicit ``trace_id``.

Event taxonomy (producers; see DESIGN.md §5h):

* serve daemon — ``daemon.start``, ``request.admit``,
  ``request.finish``, ``request.error`` (exactly one of the two per
  admit), ``coalesce.leader``/``coalesce.loser``, ``worker.death``,
  ``worker.restart``, ``worker.degraded``, ``drain.begin``,
  ``drain.finish``;
* fuzz campaigns — ``campaign.begin``, ``fuzz.seed`` (per-seed
  classification with stage timings), ``campaign.end``.
"""

import collections
import json
import os
import threading
import time

from repro.env import env_int
from repro.obs import context as _context

SCHEMA = "repro.events/1"

DEFAULT_MAX_BYTES = 4 << 20
DEFAULT_MAX_FILES = 4


class EventLog:
    """One append-only JSONL file with size-based rotation."""

    def __init__(self, path, max_bytes=None, max_files=None):
        self.path = path
        self.max_bytes = max_bytes if max_bytes is not None else \
            env_int("REPRO_EVENTS_MAX_BYTES", DEFAULT_MAX_BYTES, minimum=1024)
        self.max_files = max_files if max_files is not None else \
            env_int("REPRO_EVENTS_FILES", DEFAULT_MAX_FILES, minimum=1)
        self._lock = threading.Lock()
        self._handle = None
        self._size = 0

    # ------------------------------------------------------------------
    def emit(self, kind, **fields):
        """Append one event; thread-safe, never raises into callers."""
        record = {"ts": time.time(), "kind": kind}
        if "trace_id" not in fields:
            ctx = _context.current()
            if ctx is not None:
                record["trace_id"] = ctx.trace_id
        record.update(fields)
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        data = line.encode("utf-8")
        with self._lock:
            try:
                if self._handle is None:
                    self._open()
                self._handle.write(data)
                self._handle.flush()
                self._size += len(data)
                # Rotate only after the record is durably in the old
                # file: the in-flight record is never the one dropped.
                if self._size >= self.max_bytes:
                    self._rotate()
            except OSError:
                pass  # a full disk must not take the daemon down
        return record

    def close(self):
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None

    # ------------------------------------------------------------------
    def _open(self):
        directory = os.path.dirname(os.path.abspath(self.path))
        if directory and not os.path.isdir(directory):
            os.makedirs(directory, exist_ok=True)
        self._handle = open(self.path, "ab")
        self._size = self._handle.tell()
        if self._size == 0:
            header = json.dumps({"ts": time.time(), "kind": "log.open",
                                 "schema": SCHEMA, "pid": os.getpid()},
                                sort_keys=True) + "\n"
            data = header.encode("utf-8")
            self._handle.write(data)
            self._handle.flush()
            self._size = len(data)

    def _rotate(self):
        self._handle.close()
        self._handle = None
        for index in range(self.max_files - 1, 0, -1):
            older = "%s.%d" % (self.path, index)
            newer = "%s.%d" % (self.path, index + 1)
            if os.path.exists(older):
                if index + 1 >= self.max_files:
                    os.unlink(older)
                else:
                    os.replace(older, newer)
        os.replace(self.path, "%s.1" % self.path)
        self._open()


# ----------------------------------------------------------------------
# Process-global log (the daemon and fuzz campaigns write here)
# ----------------------------------------------------------------------

LOG = None

# Fields stamped onto every record emitted through the global log
# (e.g. ``shard=2`` on a fleet member); explicit per-emit fields win.
_BOUND = {}


def configure(path, max_bytes=None, max_files=None):
    """Open the process-global event log at *path*; returns it."""
    global LOG
    if LOG is not None:
        LOG.close()
    LOG = EventLog(path, max_bytes=max_bytes, max_files=max_files)
    return LOG


def unconfigure():
    """Close and drop the process-global log (tests, daemon shutdown)."""
    global LOG
    if LOG is not None:
        LOG.close()
        LOG = None
    _BOUND.clear()


def bind(**fields):
    """Stamp *fields* onto every future :func:`emit` record.

    A fleet shard binds ``shard=N`` once at startup instead of
    threading the id through every emit site; ``None`` values are
    ignored so ``bind(shard=config.shard_id)`` is safe standalone.
    """
    for key, value in fields.items():
        if value is not None:
            _BOUND[key] = value


def emit(kind, **fields):
    """Append to the global log; silently a no-op while unconfigured."""
    if LOG is None:
        return None
    if _BOUND:
        merged = dict(_BOUND)
        merged.update(fields)
        fields = merged
    return LOG.emit(kind, **fields)


def is_configured():
    return LOG is not None


# ----------------------------------------------------------------------
# Reading and trace reconstruction (`repro trace`)
# ----------------------------------------------------------------------

def iter_events(path):
    """Yield every event across the rotated set, oldest first.

    A torn trailing line (the writer died mid-record) is skipped, not
    fatal; any other undecodable line raises ValueError with the file
    and line number.
    """
    files = []
    for index in range(DEFAULT_MAX_FILES * 4, 0, -1):
        rotated = "%s.%d" % (path, index)
        if os.path.exists(rotated):
            files.append(rotated)
    files.append(path)
    for name in files:
        if not os.path.exists(name):
            continue
        with open(name, "rb") as handle:
            data = handle.read()
        lines = data.split(b"\n")
        torn = bool(lines and lines[-1].strip())
        for number, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                yield json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                if torn and number == len(lines):
                    continue  # crashed writer's half-record
                raise ValueError("%s:%d: undecodable event line"
                                 % (name, number))


def load_events(path):
    return list(iter_events(path))


class TraceRecord:
    """Everything the log knows about one trace_id."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.admit = None       # request.admit event
        self.finish = None      # request.finish / request.error event
        self.events = []        # every event carrying this trace_id

    @property
    def op(self):
        for event in (self.finish, self.admit):
            if event and "op" in event:
                return event["op"]
        return None

    @property
    def status(self):
        if self.finish is None:
            return "in-flight"
        if self.finish["kind"] == "request.error":
            return "error:%s" % self.finish.get("code", "unknown")
        return "ok"

    @property
    def queue_wait_s(self):
        return self.finish.get("queue_wait_s") if self.finish else None

    @property
    def handler_s(self):
        return self.finish.get("handler_s") if self.finish else None

    @property
    def attempts(self):
        """Retries: the extra ``request.admit`` events of one op that
        one process logged for this trace (each admit names its
        ``pid``).  A merged gateway+shard log holds one admit per
        process per attempt, so the hop between processes never reads
        as a retry, and neither do the different ops a trace can span
        (a hot restart's ``ping`` and ``warm`` of its replacement)."""
        admits = collections.Counter(
            (event.get("pid"), event.get("op")) for event in self.events
            if event.get("kind") == "request.admit")
        return max(admits.values(), default=1) - 1

    @property
    def spans(self):
        return self.finish.get("spans") if self.finish else None

    @property
    def span_union(self):
        """Every span forest any event of this trace carried, merged.

        Under a fleet one trace_id produces finish events in *two*
        logs — the gateway's (``fleet.request`` spans) and the serving
        shard's (``serve.request`` spans whose root points at the
        gateway's forward span).  Merging the forests lets
        :func:`connected_spans` validate the cross-process hop.
        """
        forests = []
        for event in self.events:
            spans = event.get("spans")
            if spans:
                forests.extend(spans)
        return forests


def build_traces(events):
    """Ordered ``{trace_id: TraceRecord}`` for every traced request."""
    traces = {}
    for event in events:
        trace_id = event.get("trace_id")
        if not trace_id:
            continue
        record = traces.get(trace_id)
        if record is None:
            record = traces[trace_id] = TraceRecord(trace_id)
        record.events.append(event)
        kind = event.get("kind")
        if kind == "request.admit":
            record.admit = event
        elif kind in ("request.finish", "request.error"):
            record.finish = event
    return traces


def _span_lines(node, depth, lines):
    duration = node.get("duration_s")
    label = "%s%s" % ("  " * depth, node.get("name", "?"))
    timing = "%10.3fms" % (duration * 1e3) if duration is not None \
        else "        ? "
    attrs = "".join(
        " %s=%s" % (key, value)
        for key, value in sorted(node.get("attrs", {}).items()))
    lines.append("  %-48s %s%s" % (label, timing, attrs))
    for child in node.get("children", ()):
        _span_lines(child, depth + 1, lines)


def render_trace(record):
    """Pretty-printed span tree for one :class:`TraceRecord`."""
    lines = ["trace %s  op=%s  status=%s" % (record.trace_id, record.op,
                                             record.status)]
    if record.admit is not None:
        lines.append("  admitted (queue_depth=%s)"
                     % record.admit.get("queue_depth", "?"))
    if record.queue_wait_s is not None:
        lines.append("  %-48s %10.3fms" % ("queue.wait",
                                           record.queue_wait_s * 1e3))
    if record.spans:
        for root in record.spans:
            _span_lines(root, 1, lines)
    elif record.handler_s is not None:
        lines.append("  %-48s %10.3fms"
                     % ("handler (no spans; run the daemon with "
                        "--stats-json or --trace)",
                        record.handler_s * 1e3))
    if record.attempts:
        lines.append("  retried %d time(s)" % record.attempts)
    for event in record.events:
        if event.get("kind") in ("coalesce.loser", "coalesce.leader"):
            lines.append("  %s %s" % (event["kind"],
                                      event.get("key", "")))
    return "\n".join(lines)


def span_tree_ids(spans):
    """Flatten a span forest to ``{span_id: parent_span_id}``."""
    table = {}

    def walk(node):
        span_id = node.get("span_id")
        if span_id is not None:
            table[span_id] = node.get("parent_span_id")
        for child in node.get("children", ()):
            walk(child)

    for node in spans or ():
        walk(node)
    return table


def connected_spans(spans, root_parent=None):
    """True when every span links to another span or *root_parent* —
    i.e. the tree has no orphan spans."""
    table = span_tree_ids(spans)
    if not table:
        return False
    for span_id, parent in table.items():
        if parent is None or parent == root_parent:
            continue
        if parent not in table:
            return False
    return True


# ----------------------------------------------------------------------
# Anomaly flagging (`repro trace` trailer)
# ----------------------------------------------------------------------

def find_anomalies(events, outlier_min_count=10):
    """Human-readable anomaly lines: latency outliers, retried
    requests, degraded-mode windows, worker deaths."""
    anomalies = []
    traces = build_traces(events)

    by_op = {}
    for record in traces.values():
        if record.handler_s is not None:
            by_op.setdefault(record.op, []).append(record)
    for op, records in sorted(by_op.items(), key=lambda kv: str(kv[0])):
        if len(records) < outlier_min_count:
            continue
        latencies = sorted(r.handler_s for r in records)
        median = latencies[len(latencies) // 2]
        position = 0.99 * (len(latencies) - 1)
        p99 = latencies[int(position)]
        threshold = max(p99, 2.0 * median)
        for record in records:
            if record.handler_s > threshold:
                anomalies.append(
                    "p99-outlier: trace %s op=%s took %.3fms "
                    "(op p99 %.3fms, median %.3fms)"
                    % (record.trace_id, op, record.handler_s * 1e3,
                       p99 * 1e3, median * 1e3))

    for record in traces.values():
        if record.attempts:
            anomalies.append("retries: trace %s op=%s retried %d time(s)"
                             % (record.trace_id, record.op,
                                record.attempts))

    degraded_since = None
    degraded_requests = 0
    for event in events:
        kind = event.get("kind")
        if kind == "worker.degraded" and degraded_since is None:
            degraded_since = event.get("ts")
            degraded_requests = 0
        elif kind in ("request.finish", "request.error") \
                and degraded_since is not None:
            degraded_requests += 1
        elif kind == "drain.finish" and degraded_since is not None:
            anomalies.append(
                "degraded-window: %.1fs in serial fallback "
                "(%d request(s) served degraded)"
                % ((event.get("ts", degraded_since) - degraded_since),
                   degraded_requests))
            degraded_since = None
    if degraded_since is not None:
        anomalies.append("degraded-window: daemon entered serial fallback "
                         "and never recovered (%d request(s) served "
                         "degraded)" % degraded_requests)

    deaths = sum(1 for event in events
                 if event.get("kind") == "worker.death")
    if deaths:
        anomalies.append("worker-deaths: %d worker death(s) in the log"
                         % deaths)
    return anomalies
