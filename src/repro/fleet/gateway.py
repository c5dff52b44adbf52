"""The fleet gateway: one front door, N warm shard daemons behind it.

The gateway speaks the same ``repro.serve/1`` protocol as a single
daemon — a client cannot tell the difference except that answers carry
a ``shard`` field — and listens on a Unix socket or ``tcp://host:port``.
Per connection, a thread parses requests; admitted requests enter the
two-class :class:`~repro.fleet.admission.AdmissionQueue` (interactive
ahead of bulk, starvation-bounded); forwarder threads route each
request by content key over the rendezvous ring to the shard that
holds that executable's warm analysis state, and relay the shard's
response verbatim.

The gateway owns retries, not its shard clients: a transport failure
marks the shard dead (respawn path) and re-routes to the key's
next-choice live shard; a ``draining`` or ``overloaded`` answer backs
off by the shard's own ``retry_after`` hint and re-resolves — which is
how a hot-restart looks like nothing at all from the outside.

A few ops never reach a shard: ``ping``, ``stats``, ``top``, and
``shutdown`` describe or control the fleet itself, and ``hot_restart``
triggers a rolling replacement.  ``stats`` grafts the live shard table
into the report's ``fleet`` section, which is what gives ``repro
export`` its per-shard labels and ``repro top`` its shard rows.
"""

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
from repro.serve.client import ServeError, parse_address
from repro.fleet import ring
from repro.fleet.admission import AdmissionQueue, priority_class
from repro.fleet.config import FleetConfig
from repro.fleet.shards import ShardManager

_C_REQUESTS = _metrics.counter("fleet.requests")
_C_FORWARDED = _metrics.counter("fleet.forwarded")
_C_REROUTED = _metrics.counter("fleet.rerouted")
_C_RETRIES = _metrics.counter("fleet.retries")
_C_REJECTED = _metrics.counter("fleet.rejected")
_G_Q_INTERACTIVE = _metrics.gauge("fleet.queue.interactive")
_G_Q_BULK = _metrics.gauge("fleet.queue.bulk")
_H_QUEUE_WAIT = _metrics.histogram("fleet.queue_wait")

_STOP = object()

# Ops answered by the gateway itself (fleet state and control).
LOCAL_OPS = frozenset({"ping", "stats", "top", "hot_restart"})


class _GatewayJob:
    """One admitted request travelling from connection to forwarder."""

    __slots__ = ("id", "op", "params", "context", "done", "response",
                 "admitted")

    def __init__(self, request_id, op, params, context):
        self.id = request_id
        self.op = op
        self.params = params
        self.context = context
        self.done = threading.Event()
        self.response = None
        self.admitted = perf_counter()

    def finish(self, response):
        self.response = response
        self.done.set()


class FleetGateway:
    """Front process: admission, routing, forwarding, fleet control."""

    def __init__(self, config=None):
        self.config = config or FleetConfig()
        self.manager = ShardManager(self.config)
        self.queue = AdmissionQueue(self.config.queue_size,
                                    self.config.starvation_limit)
        self.started_at = None
        self._listener = None
        self._family = None
        self._threads = []
        self._forwarders = []
        self._lock = threading.Lock()
        self._in_flight = 0
        self._inflight_zero = threading.Condition(self._lock)
        self._drain_requested = threading.Event()
        self.drained = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        self.manager.start()
        family, target = parse_address(self.config.address)
        self._family = family
        if family == "unix":
            if os.path.exists(target):
                from repro.serve.daemon import socket_in_use

                if socket_in_use(target):
                    raise OSError("gateway socket %s is served by a live "
                                  "process; refusing to steal it" % target)
                os.unlink(target)
            self._listener = socket.socket(socket.AF_UNIX,
                                           socket.SOCK_STREAM)
            self._listener.bind(target)
        else:
            self._listener = socket.socket(socket.AF_INET,
                                           socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET,
                                      socket.SO_REUSEADDR, 1)
            self._listener.bind(target)
        self._listener.listen(min(socket.SOMAXCONN, 512))
        self._listener.settimeout(0.2)
        self.started_at = time.monotonic()
        for index in range(self.config.forwarders):
            thread = threading.Thread(target=self._forward_loop,
                                      name="fleet-forward-%d" % index,
                                      daemon=True)
            thread.start()
            self._forwarders.append(thread)
        for target_fn, name in ((self._accept_loop, "fleet-accept"),
                                (self._drain_loop, "fleet-drain")):
            thread = threading.Thread(target=target_fn, name=name,
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        _events.emit("fleet.start", pid=os.getpid(),
                     address=self.config.address,
                     shards=self.config.shards,
                     forwarders=self.config.forwarders)
        return self

    def request_drain(self):
        self._drain_requested.set()

    def wait_drained(self, timeout=None):
        return self.drained.wait(timeout)

    def describe(self):
        interactive, bulk = self.queue.depths()
        return {
            "pid": os.getpid(),
            "fleet": True,
            "address": self.config.address,
            "shards": self.config.shards,
            "live": sorted(self.manager.live_slots()),
            "forwarders": self.config.forwarders,
            "queue_depth": interactive + bulk,
            "queues": {"interactive": interactive, "bulk": bulk},
            "draining": self._drain_requested.is_set(),
            "uptime_s": time.monotonic() - self.started_at
            if self.started_at is not None else 0.0,
        }

    # ------------------------------------------------------------------
    # Accept / connection handling (mirrors EditServer's shape)
    # ------------------------------------------------------------------

    def _accept_loop(self):
        while not self._drain_requested.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True)
            thread.start()

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
                response = self._handle_request(message)
                if response is not None:
                    conn.sendall(protocol.encode(response))
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle_request(self, message):
        request_id = message.get("id")
        op = message.get("op")
        ctx = _context.TraceContext.from_wire(message.get("trace")) \
            or _context.TraceContext()
        _C_REQUESTS.inc()

        def _tagged(response):
            if isinstance(response, dict):
                response.setdefault("trace_id", ctx.trace_id)
            return response

        if not isinstance(op, str):
            return _tagged(protocol.error_response(
                request_id, protocol.E_BAD_REQUEST,
                "request needs a string 'op'"))
        params = {key: value for key, value in message.items()
                  if key not in ("id", "op", "trace")}
        if op == "shutdown":
            self.request_drain()
            return _tagged(protocol.ok_response(request_id,
                                                {"draining": True,
                                                 "fleet": True}))
        if self._drain_requested.is_set():
            _C_REJECTED.inc()
            return _tagged(protocol.error_response(
                request_id, protocol.E_DRAINING, "gateway is draining",
                retry_after=self.config.retry_after_s))
        if op in LOCAL_OPS:
            with _context.attached(ctx):
                return _tagged(self._local_op(request_id, op, params))
        job = _GatewayJob(request_id, op, params, ctx)
        _events.emit("request.admit", trace_id=ctx.trace_id,
                     id=request_id, op=op,
                     priority=priority_class(op),
                     queue_depth=len(self.queue))
        with self._lock:
            self._in_flight += 1
        if not self.queue.put(job, op=op):
            self._job_finished(job)
            _C_REJECTED.inc()
            _events.emit("request.error", trace_id=ctx.trace_id,
                         id=request_id, op=op,
                         code=protocol.E_OVERLOADED,
                         queue_depth=self.config.queue_size)
            return _tagged(protocol.error_response(
                request_id, protocol.E_OVERLOADED,
                "gateway admission queue is full (%d waiting)"
                % self.config.queue_size,
                retry_after=self.config.retry_after_s))
        self._note_depths()
        # Worst case one forward waits through a full shard timeout per
        # retry; bound the client wait above that so the gateway, not
        # the client's io_timeout, reports the failure.
        deadline = self.config.shard_timeout_s \
            * (1 + min(1, self.config.retries)) + 10.0
        if not job.done.wait(deadline):
            _events.emit("request.error", trace_id=ctx.trace_id,
                         id=request_id, op=op, code=protocol.E_TIMEOUT)
            return _tagged(protocol.error_response(
                request_id, protocol.E_TIMEOUT,
                "fleet request exceeded %.1fs" % deadline,
                retry_after=self.config.retry_after_s))
        return _tagged(job.response)

    def _note_depths(self):
        interactive, bulk = self.queue.depths()
        _G_Q_INTERACTIVE.set(interactive)
        _G_Q_BULK.set(bulk)

    def _job_finished(self, job):
        if not job.done.is_set():
            job.finish(None)
        with self._lock:
            self._in_flight -= 1
            if self._in_flight <= 0:
                self._inflight_zero.notify_all()

    # ------------------------------------------------------------------
    # Local ops (fleet state and control)
    # ------------------------------------------------------------------

    def _local_op(self, request_id, op, params):
        try:
            if op == "ping":
                live = self.manager.live_slots()
                return protocol.ok_response(request_id, {
                    "pong": True, "protocol": protocol.PROTOCOL,
                    "pid": os.getpid(),
                    "fleet": {"shards": self.config.shards,
                              "live": len(live)},
                })
            if op == "stats":
                return protocol.ok_response(request_id, self._stats(params))
            if op == "top":
                return protocol.ok_response(request_id, self._top(params))
            if op == "hot_restart":
                return protocol.ok_response(request_id,
                                            self._hot_restart(params))
        except Exception as error:
            return protocol.error_response(
                request_id, protocol.E_INTERNAL,
                "%s: %s" % (type(error).__name__, error))
        raise AssertionError("unhandled local op %r" % op)

    def _stats(self, params):
        from repro.obs import report as obs_report

        report = obs_report.build_report()
        report["fleet"]["shards"] = self.manager.shard_table()
        sections = params.get("sections")
        if sections is not None:
            if not isinstance(sections, list) \
                    or not all(isinstance(s, str) for s in sections):
                return {"report": {}, "server": self.describe()}
            known = [s for s in sections if s in report]
            report = {key: report[key] for key in ("schema", *known)}
        return {"report": report, "server": self.describe()}

    def _top(self, params):
        """Fleet shape of the ``top`` op: gateway counters plus the
        shard table (``repro top`` renders the table when present)."""
        counters = {name: instrument.value for name, instrument
                    in sorted(_metrics.REGISTRY.counters.items())
                    if instrument.value and name.startswith("fleet.")}
        gauges = {name: instrument.value for name, instrument
                  in sorted(_metrics.REGISTRY.gauges.items())
                  if instrument.value is not None}
        queue_wait = _H_QUEUE_WAIT.snapshot() if _H_QUEUE_WAIT.count \
            else None
        return {
            "cursor": 0,
            "incremental": False,
            "server": self.describe(),
            "counters": counters,
            "gauges": gauges,
            "latency": {},
            "queue_wait": queue_wait,
            "shards": self.manager.shard_table(),
        }

    def _hot_restart(self, params):
        shard = params.get("shard")
        if shard is None:
            return {"restarted": self.manager.rolling_restart()}
        if not isinstance(shard, int) \
                or not 0 <= shard < self.config.shards:
            raise ValueError("no such shard %r" % (shard,))
        return {"restarted": [self.manager.hot_restart(
            self.manager.slots[shard])]}

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _forward_loop(self):
        while True:
            job = self.queue.get(timeout=0.2)
            if job is _STOP:
                return
            if job is None:
                continue
            self._note_depths()
            try:
                self._forward(job)
            finally:
                self._job_finished(job)

    def _forward(self, job):
        _H_QUEUE_WAIT.observe(perf_counter() - job.admitted)
        token = _context.attach(job.context)
        root = _trace.TRACER.request_span("fleet.request", op=job.op,
                                          request_id=job.id)
        root.__enter__()
        status, code, shard_used = "ok", None, None
        try:
            response, shard_used = self._forward_routed(job, root)
            if isinstance(response, dict):
                code = (response.get("error") or {}).get("code")
                status = "ok" if response.get("ok") else "error"
            job.finish(response)
        finally:
            root.__exit__(None, None, None)
            _context.detach(token)
            self._emit_forward_event(job, status, code, shard_used, root)

    def _forward_routed(self, job, root):
        """Route and relay one request; returns (response, shard_index).

        Transport failures re-route to the key's next-choice live
        shard (the failing shard is reported for respawn); ``draining``
        and ``overloaded`` answers back off and re-resolve, so a
        mid-hot-restart shard costs one retry, never a failure.
        """
        key = ring.content_key(job.op, job.params) \
            or "req:%s:%s" % (job.op, job.id)
        attempts = 0
        while True:
            slot_index = ring.route(key, self.config.shards,
                                    live=self.manager.live_slots())
            if slot_index is None:
                return protocol.error_response(
                    job.id, protocol.E_UNAVAILABLE,
                    "no live shards (fleet of %d)" % self.config.shards,
                    retry_after=self.config.retry_after_s), None
            slot = self.manager.slots[slot_index]
            with slot.lock:
                slot.requests += 1
            with _trace.TRACER.span("fleet.forward", shard=slot_index,
                                    attempt=attempts) as forward_span:
                if isinstance(forward_span, _trace.Span) \
                        and forward_span.span_id:
                    wire = job.context.child(forward_span.span_id)
                else:
                    wire = job.context
                params = dict(job.params)
                params["trace"] = wire.to_wire()
                generation, client = slot.checkout(
                    self.config.shard_timeout_s)
                try:
                    response = client.roundtrip(job.op, **params)
                except (OSError, ServeError, protocol.ProtocolError):
                    client.close()
                    with slot.lock:
                        slot.rerouted_away += 1
                    _C_REROUTED.inc()
                    _events.emit("fleet.reroute", shard=slot_index,
                                 op=job.op, key=key)
                    # Report in a helper thread? No: report_failure is
                    # idempotent and bounded; inline keeps ordering.
                    self.manager.report_failure(slot, generation)
                    attempts += 1
                    if attempts > self.config.retries \
                            + self.config.shards:
                        return protocol.error_response(
                            job.id, protocol.E_UNAVAILABLE,
                            "shard %d unreachable and rerouting "
                            "exhausted" % slot_index), slot_index
                    continue
                slot.checkin(generation, client)
            code = (response.get("error") or {}).get("code") \
                if isinstance(response, dict) else None
            if code in (protocol.E_DRAINING, protocol.E_OVERLOADED) \
                    and attempts < self.config.retries:
                attempts += 1
                _C_RETRIES.inc()
                retry_after = response.get("retry_after")
                time.sleep(min(retry_after if retry_after is not None
                               else self.config.retry_after_s, 2.0))
                continue
            # Relay: the response is the shard's, the identity is ours.
            if isinstance(response, dict):
                response["id"] = job.id
                response["shard"] = slot_index
                if response.get("ok"):
                    with slot.lock:
                        slot.ok += 1
                    slot.note_recent(job.params.get("workload"))
                else:
                    with slot.lock:
                        slot.errors += 1
            _C_FORWARDED.inc()
            return response, slot_index

    def _emit_forward_event(self, job, status, code, shard, root):
        if not _events.is_configured():
            return
        fields = {
            "trace_id": job.context.trace_id if job.context else None,
            "id": job.id,
            "op": job.op,
            "shard": shard,
        }
        if isinstance(root, _trace.Span):
            fields["spans"] = [root.to_dict()]
        if status == "ok":
            _events.emit("request.finish", **fields)
        else:
            fields["code"] = code or protocol.E_INTERNAL
            _events.emit("request.error", **fields)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    def _drain_loop(self):
        self._drain_requested.wait()
        _events.emit("fleet.drain.begin", queue_depth=len(self.queue),
                     in_flight=self._in_flight)
        try:
            self._listener.close()
        except OSError:
            pass
        deadline = time.monotonic() + self.config.drain_timeout_s
        with self._lock:
            while self._in_flight > 0 and time.monotonic() < deadline:
                self._inflight_zero.wait(timeout=0.1)
        for _ in self._forwarders:
            self.queue.put_control(_STOP)
        for thread in self._forwarders:
            thread.join(max(0.1, deadline - time.monotonic()))
        self.manager.stop()
        if self._family == "unix":
            try:
                os.unlink(self.config.address)
            except OSError:
                pass
        _events.emit("fleet.drain.finish", clean=self._in_flight <= 0)
        self.drained.set()


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------

def fleet_main(config, stats_json=None, trace=False):
    """Run a gateway (and its shard fleet) until SIGTERM/shutdown."""
    import json
    import signal

    from repro import obs
    from repro.obs import report as obs_report

    if stats_json or trace or config.events_path:
        obs.enable()
    if config.events_path:
        _events.configure(config.events_path)
    try:
        gateway = FleetGateway(config).start()
    except (OSError, RuntimeError) as error:
        print("repro-fleet: %s" % error, file=sys.stderr, flush=True)
        if config.events_path:
            _events.unconfigure()
        return 1
    print("repro-fleet: gateway on %s (%d shards, %d forwarders, pid %d)"
          % (config.address, config.shards, config.forwarders,
             os.getpid()), file=sys.stderr, flush=True)

    def _request_drain(_signum=None, _frame=None):
        gateway.request_drain()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _request_drain)
        except ValueError:
            pass
    while not gateway.wait_drained(timeout=0.2):
        pass
    obs.disable()
    if config.events_path:
        _events.unconfigure()
    report = obs_report.build_report()
    report["fleet"]["shards"] = gateway.manager.shard_table()
    if stats_json:
        with open(stats_json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    fleet = report["fleet"]
    print("repro-fleet: drained (%d requests, %d forwarded, "
          "%d rerouted, %d retries, %d hot restarts)"
          % (fleet["requests"], fleet["forwarded"], fleet["rerouted"],
             fleet["retries"], fleet["hot_restarts"]),
          file=sys.stderr, flush=True)
    return 0
