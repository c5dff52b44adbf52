"""The front door shared by the edit daemon and the fleet gateway.

:class:`~repro.serve.daemon.EditServer` and
:class:`~repro.fleet.gateway.FleetGateway` differ only in what executes
an admitted request: a daemon worker runs
:func:`repro.serve.ops.dispatch` in process, a gateway forwarder relays
the request to a shard.  Everything in front of that lives here, once:

* binding — a Unix socket path (probed before it is unlinked, so a
  live server's path is never stolen) or ``tcp://host:port``;
* one thread per accepted connection, one request per line;
* intake — the string-``op`` check, ``shutdown``, the server's local
  ops, ``draining`` rejections, admission through a bounded
  :class:`~repro.serve.admission.AdmissionQueue` (full means
  ``overloaded``) and the requester's wait, which ends in ``timeout``;
* the job and in-flight accounting: a job counts as in flight before
  any executor can see it, so drain never misses a fast job;
* execution under the job's trace context with one root span, and
  exactly one ``request.finish``/``request.error`` event per
  ``request.admit``;
* drain: stop accepting, finish in-flight work, dismiss and join the
  executors, release the address;
* the ``stats`` report and the ``top`` snapshot, with a gateway's shard
  table when it has one;
* :meth:`FrontDoor.run`, the foreground runner behind ``repro serve``
  and ``repro fleet``: signals, event log, stats flush, summary line.

Every refusal the server makes on its own account (``draining``,
``overloaded``, ``timeout``) and every failure of an executor itself
carries ``retry_after``.  :class:`~repro.serve.client.ServeClient`
retries exactly the answers that carry it; the servers never retry.
"""

import errno
import os
import socket
import sys
import threading
import time
from time import perf_counter

from repro.obs import context as _context
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.serve import protocol
from repro.serve.client import parse_address

STOP = object()  # control item: the executor that takes it exits


def socket_in_use(path):
    """True when a live server still answers connections at *path*.

    Distinguishes a *stale* socket file (the previous server was
    killed; connecting is refused) from a *live* one (another server is
    using it right now).  Unlinking a live server's socket would
    silently steal its rendezvous point — two servers would both
    believe they own the path while only the thief receives
    connections.
    """
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.5)
    try:
        probe.connect(path)
    except OSError:
        return False  # refused / gone / not a socket: safe to clobber
    finally:
        try:
            probe.close()
        except OSError:
            pass
    return True


class Job:
    """One admitted request travelling from its connection to an executor.

    Exactly one side answers it: the executor, after :meth:`claim`, or
    the requester, after :meth:`abandon` on timeout.
    """

    __slots__ = ("id", "op", "params", "context", "admitted", "done",
                 "response", "abandoned", "_claimed", "_lock")

    def __init__(self, request_id, op, params, context):
        self.id = request_id
        self.op = op
        self.params = params
        self.context = context  # TraceContext the request travels under
        self.admitted = perf_counter()
        self.done = threading.Event()
        self.response = None
        self.abandoned = False  # the requester timed out; drop the result
        self._claimed = False
        self._lock = threading.Lock()

    def claim(self):
        """The executor's right to answer; False once the requester
        gave up."""
        with self._lock:
            self._claimed = not self.abandoned
            return self._claimed

    def abandon(self):
        """The requester gives up; False when an answer is already on
        its way."""
        with self._lock:
            self.abandoned = not self._claimed
            return self.abandoned


class FrontDoor:
    """Listener, intake, admission, in-flight accounting, and drain.

    A server sets the class attributes and implements :meth:`_open`
    (start its backend and executors), :meth:`_execute` (one job to one
    response), :meth:`banner` and :meth:`summary`; it may override
    :meth:`_close_backend` and :meth:`shard_table`, and answer
    :attr:`local_ops` inline through ``_local_op``.

    Lifecycle: :meth:`start` binds and spawns threads;
    :meth:`request_drain` (SIGTERM, the ``shutdown`` op, or a test)
    begins graceful shutdown; :meth:`wait_drained` blocks until
    in-flight work finished and every executor exited.
    """

    name = None          # "serve" | "fleet": metric, span, thread prefix
    drain_event = None   # event-kind prefix of the drain records
    counters = {}        # intake outcome -> counter the server keeps
    local_ops = frozenset()
    shutdown_result = {"draining": True}
    shard_id = None      # stamped on responses and spans when set

    def __init__(self, config, address, queue, wait_s):
        self.config = config
        self.address = address
        self.queue = queue
        self.wait_s = wait_s  # how long a requester waits for its answer
        self.started_at = None
        self._listener = None
        self._unix_path = None
        self._queue_wait = _metrics.histogram(self.name + ".queue_wait")
        self._lock = threading.Lock()
        self._executors = set()  # threads serving the queue
        self._in_flight = 0
        self._inflight_zero = threading.Condition(self._lock)
        self._drain_requested = threading.Event()
        self.drained = threading.Event()
        self._top_lock = threading.Lock()
        self._top_cursor = 0
        self._top_snapshots = {}  # cursor -> counter snapshot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Bind the address, start the backend and executors, serve."""
        self._bind()
        self.started_at = time.monotonic()
        try:
            self._open()
        except BaseException:
            self._release()
            raise
        for target, role in ((self._accept_loop, "accept"),
                             (self._drain_loop, "drain")):
            threading.Thread(target=target, name="%s-%s" % (self.name, role),
                             daemon=True).start()
        return self

    def request_drain(self):
        """Begin graceful shutdown (idempotent, signal-safe)."""
        self._drain_requested.set()

    def wait_drained(self, timeout=None):
        return self.drained.wait(timeout)

    def shard_table(self):
        """Per-shard state behind this server (a gateway's), or None."""
        return None

    def build_report(self):
        """The ``repro.obs`` report this server flushes and serves."""
        from repro.obs import report as obs_report

        report = obs_report.build_report()
        shards = self.shard_table()
        if shards is not None:
            report["shards"] = shards
        return report

    def top_snapshot(self, cursor=None):
        """Incremental metrics snapshot for the ``top`` op.

        Returns live server state plus *counter deltas* since the
        snapshot named by *cursor* (absolute values when the cursor is
        unknown or absent), gauges, per-op latency percentiles and the
        shard table, if any.  The response carries a fresh cursor the
        caller hands back on its next call; a handful of recent
        snapshots are kept so one slow watcher cannot grow server
        memory.
        """
        registry = _metrics.REGISTRY
        counters = {name: instrument.value
                    for name, instrument in registry.counters.items()}
        with self._top_lock:
            baseline = self._top_snapshots.get(cursor, {})
            self._top_cursor += 1
            fresh = self._top_cursor
            self._top_snapshots[fresh] = counters
            while len(self._top_snapshots) > 8:
                self._top_snapshots.pop(min(self._top_snapshots))
        deltas = {name: value - baseline.get(name, 0)
                  for name, value in sorted(counters.items())
                  if value - baseline.get(name, 0)}
        gauges = {name: instrument.value
                  for name, instrument in sorted(registry.gauges.items())
                  if instrument.value is not None}
        prefix = self.name + ".latency."
        latency = {name[len(prefix):]: instrument.snapshot()
                   for name, instrument in sorted(registry.histograms.items())
                   if name.startswith(prefix) and instrument.count}
        snapshot = {
            "cursor": fresh,
            "incremental": bool(baseline),
            "server": self.describe(),
            "counters": deltas,
            "gauges": gauges,
            "latency": latency,
            "queue_wait": self._queue_wait.snapshot()
            if self._queue_wait.count else None,
        }
        shards = self.shard_table()
        if shards is not None:
            snapshot["shards"] = shards
        return snapshot

    def _bind(self):
        family, target = parse_address(self.address)
        if family == "unix":
            if os.path.exists(target):
                # Probe before unlink: a stale socket (its server was
                # killed) is clobbered; a live one is refused.
                if socket_in_use(target):
                    raise OSError(errno.EADDRINUSE,
                                  "socket %s is served by a live process; "
                                  "refusing to steal it" % target)
                os.unlink(target)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind(target)
        except OSError:
            listener.close()
            raise
        if family == "unix":
            self._unix_path = target
        # Backlog sized for a whole client fleet connecting at once;
        # the kernel clamps to net.core.somaxconn.
        listener.listen(min(socket.SOMAXCONN, 512))
        listener.settimeout(0.2)
        self._listener = listener

    def _release(self):
        """Close the listener and remove the socket file."""
        try:
            self._listener.close()
        except OSError:
            pass
        if self._unix_path:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass

    def _close_backend(self):
        """Stop what :meth:`_open` started; returns extra fields for the
        drain-finish event."""
        return {}

    # ------------------------------------------------------------------
    # Connections and intake
    # ------------------------------------------------------------------

    def _accept_loop(self):
        while not self._drain_requested.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed underneath us
            threading.Thread(target=self._serve_connection, args=(conn,),
                             daemon=True).start()

    def _serve_connection(self, conn):
        reader = protocol.LineReader(conn)
        try:
            while True:
                try:
                    message = reader.next_message()
                except protocol.ProtocolError as error:
                    conn.sendall(protocol.encode(protocol.error_response(
                        None, protocol.E_BAD_REQUEST, str(error))))
                    return
                if message is None:
                    return
                conn.sendall(protocol.encode(self._handle_request(message)))
        except OSError:
            pass  # peer went away; nothing to tell it
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _count(self, outcome):
        counter = self.counters.get(outcome)
        if counter is not None:
            counter.inc()

    def _handle_request(self, message):
        request_id = message.get("id")
        op = message.get("op")
        # Adopt the client's trace context, or mint one: every request
        # is attributable in the event log either way.
        ctx = _context.TraceContext.from_wire(message.get("trace")) \
            or _context.TraceContext()
        self._count("requests")

        def _tagged(response):
            response.setdefault("trace_id", ctx.trace_id)
            if self.shard_id is not None:
                response.setdefault("shard", self.shard_id)
            return response

        if not isinstance(op, str):
            self._count("errors")
            return _tagged(protocol.error_response(
                request_id, protocol.E_BAD_REQUEST,
                "request needs a string 'op'"))
        if op == "shutdown":
            self.request_drain()
            self._count("ok")
            return _tagged(protocol.ok_response(request_id,
                                                dict(self.shutdown_result)))
        params = {key: value for key, value in message.items()
                  if key not in ("id", "op", "trace")}
        draining = self._drain_requested.is_set()
        if op in self.local_ops and not draining:
            with _context.attached(ctx):
                return _tagged(self._local_op(request_id, op, params))
        job = Job(request_id, op, params, ctx)
        _events.emit("request.admit", trace_id=ctx.trace_id, id=request_id,
                     op=op, pid=os.getpid(), queue_depth=len(self.queue))
        if draining:
            self._count("draining")
            return _tagged(self._refuse(job, protocol.E_DRAINING,
                                        "server is draining"))
        # Count the job in flight *before* it is visible to executors:
        # one finishing it instantly must never see the count at 0.
        with self._lock:
            self._in_flight += 1
        if not self.queue.put(job, op=op):
            self._job_finished()
            self._count("overloaded")
            return _tagged(self._refuse(
                job, protocol.E_OVERLOADED,
                "admission queue is full (%d waiting)"
                % self.config.queue_size,
                queue_depth=self.config.queue_size))
        self._note_depths()
        if not job.done.wait(self.wait_s) and job.abandon():
            self._count("timeouts")
            return _tagged(self._refuse(
                job, protocol.E_TIMEOUT,
                "request exceeded %.1fs" % self.wait_s,
                timeout_s=self.wait_s))
        job.done.wait()  # claimed by an executor: its answer is imminent
        return _tagged(job.response)

    def _refuse(self, job, code, message, **fields):
        """The server's own refusal of *job*: its terminal event, and an
        answer worth retrying."""
        _events.emit("request.error", trace_id=job.context.trace_id,
                     id=job.id, op=job.op, code=code, **fields)
        return protocol.error_response(job.id, code, message,
                                       retry_after=self.config.retry_after_s)

    def _note_depths(self):
        """Publish queue depths (the gateway keeps gauges)."""

    def _job_finished(self):
        with self._lock:
            self._in_flight -= 1
            if self._in_flight <= 0:
                self._inflight_zero.notify_all()

    # ------------------------------------------------------------------
    # Executors
    # ------------------------------------------------------------------

    def _spawn_executor(self, target, name):
        thread = threading.Thread(target=target, name=name, daemon=True)
        with self._lock:
            self._executors.add(thread)
        thread.start()

    def _executor_exit(self):
        with self._lock:
            self._executors.discard(threading.current_thread())

    def _executor_loop(self):
        while True:
            job = self.queue.get()
            if job is STOP:
                self._executor_exit()
                return
            self._run_job(job)

    def _run_job(self, job):
        """Execute one job under its trace context and root span.

        The whole per-request span tree is serialized into the job's
        terminal event rather than the process-global forest, keeping
        server memory flat.  If :meth:`_execute` raises (a daemon
        worker's death), the job is still answered — ``internal`` with
        ``retry_after``, since the request never completed — before the
        exception reaches the executor loop.
        """
        if job.abandoned:  # the requester already has its timeout
            self._job_finished()
            return
        started = perf_counter()
        queue_wait = started - job.admitted
        self._queue_wait.observe(queue_wait)
        token = _context.attach(job.context)
        attrs = {"op": job.op, "request_id": job.id,
                 "worker": threading.current_thread().name}
        if self.shard_id is not None:
            attrs["shard"] = self.shard_id
        root = _trace.TRACER.request_span(self.name + ".request", **attrs)
        root.__enter__()
        response = None
        try:
            response = self._execute(job)
        finally:
            root.__exit__(None, None, None)
            _context.detach(token)
            if response is None:
                response = protocol.error_response(
                    job.id, protocol.E_INTERNAL,
                    "%s died mid-request: %s"
                    % (threading.current_thread().name, sys.exc_info()[1]),
                    retry_after=self.config.retry_after_s)
            handler_s = perf_counter() - started
            _metrics.histogram("%s.latency.%s" % (self.name, job.op)) \
                .observe(handler_s)
            self._answer(job, response, queue_wait, handler_s, root)
            self._job_finished()

    def _answer(self, job, response, queue_wait, handler_s, root):
        """Log *job*'s terminal event, then hand its requester
        *response* — unless the requester already timed out."""
        if not job.claim():
            return
        ok = response.get("ok")
        self._count("ok" if ok else "errors")
        if _events.is_configured():
            fields = {"trace_id": job.context.trace_id, "id": job.id,
                      "op": job.op, "queue_wait_s": queue_wait,
                      "handler_s": handler_s}
            if response.get("shard") is not None:
                fields["shard"] = response["shard"]
            if isinstance(root, _trace.Span):
                fields["spans"] = [root.to_dict()]
            if ok:
                _events.emit("request.finish", **fields)
            else:
                _events.emit("request.error",
                             code=(response.get("error") or {}).get(
                                 "code", protocol.E_INTERNAL), **fields)
        job.response = response
        job.done.set()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    def _drain_loop(self):
        self._drain_requested.wait()
        _events.emit(self.drain_event + ".begin", queue_depth=len(self.queue),
                     in_flight=self._in_flight)
        deadline = time.monotonic() + self.config.drain_timeout_s
        # 1. Stop accepting: the accept loop exits on the drain flag;
        #    closing the listener unblocks it immediately.
        try:
            self._listener.close()
        except OSError:
            pass
        # 2. Finish in-flight work (open connections already get
        #    'draining' for anything new).
        with self._lock:
            while self._in_flight > 0 and time.monotonic() < deadline:
                self._inflight_zero.wait(timeout=0.1)
            executors = list(self._executors)
        # 3. Dismiss the executors past the queue bound, then join them:
        #    no orphans.
        for _ in executors:
            self.queue.put_control(STOP)
        for thread in executors:
            thread.join(max(0.1, deadline - time.monotonic()))
        summary = self._close_backend()
        self._release()
        _events.emit(self.drain_event + ".finish",
                     clean=self._in_flight <= 0, **summary)
        self.drained.set()

    # ------------------------------------------------------------------
    # Foreground runner
    # ------------------------------------------------------------------

    def run(self, stats_json=None, trace=False):
        """Serve in the foreground until SIGTERM, SIGINT or ``shutdown``.

        An event log (``config.events_path``), *stats_json* or *trace*
        turns span recording on.  On drain the full ``repro.obs``
        report is flushed to *stats_json* (and rendered to stderr with
        *trace*), and a one-line summary goes to stderr.  Returns the
        process exit code.
        """
        import json
        import signal

        from repro import obs
        from repro.obs import report as obs_report

        prog = "repro-" + self.name
        events_path = self.config.events_path
        if stats_json or trace or events_path:
            obs.enable()
        if events_path:
            _events.configure(events_path)
            # Every record a fleet shard writes names its shard.
            _events.bind(shard=self.shard_id)
        try:
            self.start()
        except (OSError, RuntimeError) as error:
            print("%s: %s" % (prog, error), file=sys.stderr, flush=True)
            if events_path:
                _events.unconfigure()
            return 1
        print("%s: %s" % (prog, self.banner()), file=sys.stderr, flush=True)

        def _request_drain(_signum=None, _frame=None):
            self.request_drain()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                signal.signal(signum, _request_drain)
            except ValueError:
                pass  # not the main thread (embedded use)
        # Chunked waits keep the main thread responsive to signals.
        while not self.wait_drained(timeout=0.2):
            pass
        obs.disable()
        if events_path:
            _events.unconfigure()
        report = self.build_report()
        if stats_json:
            with open(stats_json, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        if trace:
            obs_report.render(report)
        print("%s: %s" % (prog, self.summary(report)), file=sys.stderr,
              flush=True)
        return 0
