"""The edit server: admission, workers, drain, and degradation.

Concurrency model — one thread per accepted connection parses requests
and waits for their results; a bounded :class:`queue.Queue` is the
admission queue (its bound *is* the backpressure: a full queue turns
into an ``overloaded`` response with ``retry_after``, never into
unbounded growth); ``jobs`` worker threads execute requests with
bounded retry-with-backoff for transient failures.  A worker killed by
:class:`~repro.serve.ops.WorkerDeath` is replaced from a finite
restart budget; once the budget is spent and no normal worker
survives, a single immortal fallback worker serves the queue serially
— degraded, but never dark.

The daemon process itself stays single-address-space: analysis fan-out
pools are suppressed (forking from a threaded parent can deadlock the
children) and the cache's in-memory warm layer is enabled, so all
requests share one warm analysis state under one lock discipline.
"""

import errno
import os
import queue
import socket
import sys
import threading
import time
from collections import OrderedDict
from time import perf_counter

from repro.obs import context as _context
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.serve import ops, protocol
from repro.serve.config import ServeConfig

_C_REQUESTS = _metrics.counter("serve.requests")
_C_OK = _metrics.counter("serve.responses.ok")
_C_ERRORS = _metrics.counter("serve.responses.error")
_C_QUEUE_FULL = _metrics.counter("serve.rejected.queue_full")
_C_DRAINING = _metrics.counter("serve.rejected.draining")
_C_TIMEOUTS = _metrics.counter("serve.timeouts")
_C_RETRIES = _metrics.counter("serve.retries")
_C_DEGRADED = _metrics.counter("serve.degraded")
_C_DEATHS = _metrics.counter("serve.worker_deaths")

# Latency accounting is unconditional (histograms are cheap and `repro
# top` must work against a daemon running without --trace).
_H_QUEUE_WAIT = _metrics.histogram("serve.queue_wait")

_STOP = object()  # queue sentinel: worker exits cleanly

_WARM_KEYS_CAP = 64  # recent workloads remembered for hot-restart handoff


def socket_in_use(path):
    """True when a live daemon still answers connections at *path*.

    Distinguishes a *stale* socket file (the previous daemon was
    killed; connecting is refused) from a *live* one (another daemon is
    serving it right now).  Unlinking a live daemon's socket would
    silently steal its rendezvous point — two daemons would both
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


class _Job:
    """One admitted request travelling from connection to worker."""

    __slots__ = ("id", "op", "params", "attempts", "done", "response",
                 "abandoned", "context", "admitted")

    def __init__(self, request_id, op, params, context=None):
        self.id = request_id
        self.op = op
        self.params = params
        self.attempts = 0
        self.done = threading.Event()
        self.response = None
        self.abandoned = False  # requester gave up (timeout); drop result
        self.context = context  # TraceContext the request travels under
        self.admitted = perf_counter()

    def finish(self, response):
        self.response = response
        self.done.set()


class EditServer:
    """Long-lived server over a Unix stream socket.

    Lifecycle: ``start()`` binds and spawns threads; ``request_drain()``
    (SIGTERM, the ``shutdown`` op, or a test) begins graceful shutdown;
    ``wait_drained()`` blocks until in-flight work finished and every
    worker exited.
    """

    def __init__(self, config=None):
        self.config = config or ServeConfig()
        self.started_at = None
        self._listener = None
        self._queue = queue.Queue(maxsize=self.config.queue_size)
        self._lock = threading.Lock()
        self._threads = []            # acceptor + drainer (joinable)
        self._workers = {}            # thread -> True while alive
        self._restarts_used = 0
        self._fallback_started = False
        self._in_flight = 0
        self._inflight_zero = threading.Condition(self._lock)
        self._coalesce_lock = threading.Lock()
        self._coalescing = {}         # key -> Event of the leading request
        self._chaos_lock = threading.Lock()
        self._chaos_counts = {}
        self._drain_requested = threading.Event()
        self.drained = threading.Event()
        self._worker_states = {}      # thread name -> "idle" | op name
        self._top_lock = threading.Lock()
        self._top_cursor = 0
        self._top_snapshots = {}      # cursor -> counter snapshot
        self._warm_lock = threading.Lock()
        self._warm_keys = OrderedDict()  # workload name -> True (LRU)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Bind the socket, warm the caches, spawn the thread pool."""
        from repro.cache import enable_memory_layer

        enable_memory_layer(self.config.warm_cap)
        path = self.config.socket_path
        if os.path.exists(path):
            # Probe before unlink: a *stale* socket (previous daemon
            # was killed) is clobbered; a *live* one is refused, so two
            # daemons can never silently steal each other's path.
            if socket_in_use(path):
                raise OSError(errno.EADDRINUSE,
                              "socket %s is served by a live daemon; "
                              "refusing to steal it" % path)
            os.unlink(path)
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(path)
        # Backlog sized for a whole client fleet connecting at once;
        # the kernel clamps to net.core.somaxconn.
        self._listener.listen(min(socket.SOMAXCONN, 512))
        self._listener.settimeout(0.2)
        self.started_at = time.monotonic()
        for _ in range(self.config.jobs):
            self._spawn_worker()
        for target, name in ((self._accept_loop, "serve-accept"),
                             (self._drain_loop, "serve-drain")):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def request_drain(self):
        """Begin graceful shutdown (idempotent, signal-safe)."""
        self._drain_requested.set()

    def wait_drained(self, timeout=None):
        return self.drained.wait(timeout)

    def describe(self):
        with self._lock:
            alive = len(self._workers)
            degraded = self._fallback_started
            states = dict(self._worker_states)
        return {
            "pid": os.getpid(),
            "shard": self.config.shard_id,
            "socket": self.config.socket_path,
            "jobs": self.config.jobs,
            "workers_alive": alive,
            "worker_states": states,
            "degraded": degraded,
            "draining": self._drain_requested.is_set(),
            "queue_depth": self._queue.qsize(),
            "uptime_s": time.monotonic() - self.started_at
            if self.started_at is not None else 0.0,
        }

    def top_snapshot(self, cursor=None):
        """Incremental metrics snapshot for the ``top`` op.

        Returns live daemon state plus *counter deltas* since the
        snapshot named by *cursor* (absolute values when the cursor is
        unknown or absent), gauges, and per-op latency percentiles.
        The response carries a fresh cursor the caller hands back on
        its next call; a handful of recent snapshots are kept so one
        slow watcher cannot grow daemon memory.
        """
        counters = {name: instrument.value for name, instrument
                    in _metrics.REGISTRY.counters.items()}
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
        gauges = {name: instrument.value for name, instrument
                  in sorted(_metrics.REGISTRY.gauges.items())
                  if instrument.value is not None}
        latency = {}
        for name, instrument in sorted(_metrics.REGISTRY.histograms.items()):
            if name.startswith("serve.latency.") and instrument.count:
                latency[name[len("serve.latency."):]] = instrument.snapshot()
        queue_wait = _H_QUEUE_WAIT.snapshot() if _H_QUEUE_WAIT.count \
            else None
        return {
            "cursor": fresh,
            "incremental": bool(baseline),
            "server": self.describe(),
            "counters": deltas,
            "gauges": gauges,
            "latency": latency,
            "queue_wait": queue_wait,
        }

    # ------------------------------------------------------------------
    # Shared warm-state helpers (used by ops)
    # ------------------------------------------------------------------

    def coalesce(self, key, fn):
        """Run *fn* once per concurrent burst of *key*.

        The first requester becomes the leader and computes; everyone
        arriving while the leader runs waits, then recomputes against
        the warm state the leader left (memoized verdicts, in-memory
        summaries), which is the cheap path.  Leader failure just
        releases the waiters to try themselves.
        """
        with self._coalesce_lock:
            event = self._coalescing.get(key)
            if event is None:
                self._coalescing[key] = event = threading.Event()
                leader = True
            else:
                leader = False
        if leader:
            _events.emit("coalesce.leader", key=key)
            try:
                return fn()
            finally:
                with self._coalesce_lock:
                    self._coalescing.pop(key, None)
                event.set()
        ops._C_COALESCED.inc()
        _events.emit("coalesce.loser", key=key)
        event.wait(self.config.timeout_s)
        return fn()

    def chaos_attempts(self, key):
        with self._chaos_lock:
            self._chaos_counts[key] = self._chaos_counts.get(key, 0) + 1
            return self._chaos_counts[key]

    def note_warm(self, workload):
        """Remember that *workload* is warm here (handoff snapshot)."""
        with self._warm_lock:
            self._warm_keys.pop(workload, None)
            self._warm_keys[workload] = True
            while len(self._warm_keys) > _WARM_KEYS_CAP:
                self._warm_keys.popitem(last=False)

    def warm_workloads(self):
        """Recently served workloads, oldest first — what a hot-restart
        replacement should pre-analyze before taking this daemon's
        traffic."""
        with self._warm_lock:
            return list(self._warm_keys)

    # ------------------------------------------------------------------
    # Accept / connection handling
    # ------------------------------------------------------------------

    def _accept_loop(self):
        while not self._drain_requested.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed underneath us
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
            pass  # peer went away; nothing to tell it
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle_request(self, message):
        request_id = message.get("id")
        op = message.get("op")
        # Adopt the client's trace context, or mint one: every request
        # is attributable in the event log either way.
        ctx = _context.TraceContext.from_wire(message.get("trace")) \
            or _context.TraceContext()
        _C_REQUESTS.inc()

        def _tagged(response):
            if isinstance(response, dict):
                response.setdefault("trace_id", ctx.trace_id)
                if self.config.shard_id is not None:
                    response.setdefault("shard", self.config.shard_id)
            return response

        if not isinstance(op, str):
            _C_ERRORS.inc()
            return _tagged(protocol.error_response(
                request_id, protocol.E_BAD_REQUEST,
                "request needs a string 'op'"))
        if op == "shutdown":
            self.request_drain()
            _C_OK.inc()
            return _tagged(protocol.ok_response(request_id,
                                                {"draining": True}))
        if self._drain_requested.is_set():
            _C_DRAINING.inc()
            _events.emit("request.error", trace_id=ctx.trace_id,
                         id=request_id, op=op, code=protocol.E_DRAINING)
            # retry_after: under a fleet, a draining shard is being
            # replaced — a brief client backoff usually lands on the
            # warm successor instead of failing.
            return _tagged(protocol.error_response(
                request_id, protocol.E_DRAINING, "daemon is draining",
                retry_after=self.config.retry_after_s))
        params = {key: value for key, value in message.items()
                  if key not in ("id", "op", "trace")}
        job = _Job(request_id, op, params, context=ctx)
        _events.emit("request.admit", trace_id=ctx.trace_id,
                     id=request_id, op=op,
                     queue_depth=self._queue.qsize())
        # Count the job in flight *before* it is visible to workers: a
        # worker finishing it instantly must never see the count at 0.
        with self._lock:
            self._in_flight += 1
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self._job_finished(job)
            _C_QUEUE_FULL.inc()
            _events.emit("request.error", trace_id=ctx.trace_id,
                         id=request_id, op=op,
                         code=protocol.E_OVERLOADED,
                         queue_depth=self.config.queue_size)
            return _tagged(protocol.error_response(
                request_id, protocol.E_OVERLOADED,
                "admission queue is full (%d waiting)"
                % self.config.queue_size,
                retry_after=self.config.retry_after_s))
        if not job.done.wait(self.config.timeout_s):
            job.abandoned = True
            _C_TIMEOUTS.inc()
            _events.emit("request.error", trace_id=ctx.trace_id,
                         id=request_id, op=op, code=protocol.E_TIMEOUT,
                         timeout_s=self.config.timeout_s)
            return _tagged(protocol.error_response(
                request_id, protocol.E_TIMEOUT,
                "request exceeded %.1fs" % self.config.timeout_s,
                retry_after=self.config.retry_after_s))
        return _tagged(job.response)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _spawn_worker(self, fallback=False):
        name = "serve-fallback" if fallback else \
            "serve-worker-%d" % len(self._workers)
        thread = threading.Thread(
            target=self._fallback_loop if fallback else self._worker_loop,
            name=name, daemon=True)
        with self._lock:
            self._workers[thread] = True
        thread.start()
        return thread

    def _set_worker_state(self, state):
        with self._lock:
            self._worker_states[threading.current_thread().name] = state

    def _worker_loop(self):
        self._set_worker_state("idle")
        while True:
            job = self._queue.get()
            if job is _STOP:
                self._remove_worker()
                return
            try:
                self._set_worker_state(job.op)
                self._execute(job)
                self._job_finished(job)
                self._set_worker_state("idle")
            except ops.WorkerDeath as death:
                _C_DEATHS.inc()
                _events.emit("worker.death",
                             worker=threading.current_thread().name,
                             op=job.op, reason=str(death))
                self._reschedule_after_death(job, death)
                self._remove_worker()
                self._replace_worker()
                return

    def _fallback_loop(self):
        """Serial in-process execution once the pool is unhealthy.

        Catches WorkerDeath instead of dying: with the restart budget
        spent, staying alive serially beats going dark.
        """
        self._set_worker_state("idle")
        while True:
            job = self._queue.get()
            if job is _STOP:
                self._remove_worker()
                return
            _C_DEGRADED.inc()
            try:
                self._set_worker_state(job.op)
                self._execute(job)
            except ops.WorkerDeath as death:
                _C_DEATHS.inc()
                _events.emit("worker.death",
                             worker=threading.current_thread().name,
                             op=job.op, degraded=True, reason=str(death))
                job.finish(protocol.error_response(
                    job.id, protocol.E_INTERNAL,
                    "worker death in degraded mode: %s" % death))
                _C_ERRORS.inc()
            self._job_finished(job)
            self._set_worker_state("idle")

    def _execute(self, job):
        """Run one job to a response, retrying transient failures.

        The job's trace context is attached for the duration, so every
        span the handler opens (cache, analysis, verify, simulation)
        joins the request's trace; the whole per-request span tree is
        serialized into the ``request.finish`` event rather than the
        process-global forest, keeping daemon memory flat.
        """
        if job.abandoned:
            job.finish(None)
            return
        started = perf_counter()
        queue_wait = started - job.admitted
        _H_QUEUE_WAIT.observe(queue_wait)
        token = _context.attach(job.context)
        span_attrs = {"op": job.op, "request_id": job.id,
                      "worker": threading.current_thread().name}
        if self.config.shard_id is not None:
            span_attrs["shard"] = self.config.shard_id
        root_span = _trace.TRACER.request_span("serve.request",
                                               **span_attrs)
        root_span.__enter__()
        status, code = "ok", None
        try:
            while True:
                try:
                    result = ops.dispatch(self, job.op, job.params)
                except ops.OpError as error:
                    _C_ERRORS.inc()
                    status, code = "error", error.code
                    job.finish(protocol.error_response(
                        job.id, error.code, error.message))
                    return
                except ops.TransientOpError as error:
                    if job.attempts < self.config.retries:
                        job.attempts += 1
                        _C_RETRIES.inc()
                        time.sleep(self.config.backoff_for(job.attempts))
                        continue
                    _C_ERRORS.inc()
                    status, code = "error", protocol.E_INTERNAL
                    job.finish(protocol.error_response(
                        job.id, protocol.E_INTERNAL,
                        "retries exhausted: %s" % error))
                    return
                _C_OK.inc()
                job.finish(protocol.ok_response(job.id, result))
                return
        finally:
            # Runs on every exit — return paths and WorkerDeath alike —
            # so the span stack and context never leak across jobs.
            root_span.__exit__(None, None, None)
            _context.detach(token)
            handler_s = perf_counter() - started
            _metrics.histogram("serve.latency.%s" % job.op) \
                .observe(handler_s)
            self._emit_request_event(job, status, code, queue_wait,
                                     handler_s, root_span)

    def _emit_request_event(self, job, status, code, queue_wait,
                            handler_s, root_span):
        if not _events.is_configured():
            return
        fields = {
            "trace_id": job.context.trace_id if job.context else None,
            "id": job.id,
            "op": job.op,
            "queue_wait_s": queue_wait,
            "handler_s": handler_s,
            "attempts": job.attempts,
        }
        if job.abandoned:
            fields["abandoned"] = True
        if not job.done.is_set() and status == "ok":
            # WorkerDeath unwound dispatch before a response landed.
            status, code = "error", protocol.E_INTERNAL
        if status == "ok":
            if isinstance(root_span, _trace.Span):
                fields["spans"] = [root_span.to_dict()]
            _events.emit("request.finish", **fields)
        else:
            fields["code"] = code or protocol.E_INTERNAL
            if isinstance(root_span, _trace.Span):
                fields["spans"] = [root_span.to_dict()]
            _events.emit("request.error", **fields)

    def _reschedule_after_death(self, job, death):
        """Worker death mid-job is transient: requeue within budget."""
        if job.attempts < self.config.retries:
            job.attempts += 1
            _C_RETRIES.inc()
            try:
                self._queue.put_nowait(job)
                _events.emit("request.requeued",
                             trace_id=job.context.trace_id
                             if job.context else None,
                             id=job.id, op=job.op, attempts=job.attempts)
                return  # stays in flight; a surviving worker picks it up
            except queue.Full:
                pass
        _C_ERRORS.inc()
        job.finish(protocol.error_response(
            job.id, protocol.E_INTERNAL, "worker died: %s" % death))
        self._job_finished(job)

    def _job_finished(self, job):
        if not job.done.is_set():
            job.finish(None)
        with self._lock:
            self._in_flight -= 1
            if self._in_flight <= 0:
                self._inflight_zero.notify_all()

    def _remove_worker(self):
        with self._lock:
            self._workers.pop(threading.current_thread(), None)

    def _replace_worker(self):
        with self._lock:
            if self._restarts_used < self.config.restarts:
                self._restarts_used += 1
                fallback = False
            elif not self._workers and not self._fallback_started:
                self._fallback_started = True
                fallback = True
            else:
                return  # budget spent; surviving workers carry the load
        if fallback:
            _events.emit("worker.degraded",
                         restarts_used=self._restarts_used)
        else:
            _events.emit("worker.restart",
                         restarts_used=self._restarts_used,
                         restarts_budget=self.config.restarts)
        self._spawn_worker(fallback=fallback)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------

    def _drain_loop(self):
        self._drain_requested.wait()
        _events.emit("drain.begin", queue_depth=self._queue.qsize(),
                     in_flight=self._in_flight)
        deadline = time.monotonic() + self.config.drain_timeout_s
        # 1. Stop accepting: the accept loop exits on the drain flag;
        #    closing the listener unblocks it immediately.
        try:
            self._listener.close()
        except OSError:
            pass
        # 2. Finish in-flight work (admitted jobs; open connections are
        #    already getting 'draining' rejections for anything new).
        with self._lock:
            while self._in_flight > 0 and time.monotonic() < deadline:
                self._inflight_zero.wait(timeout=0.1)
        # 3. Dismiss workers and join them: no orphans.
        with self._lock:
            workers = list(self._workers)
        for _ in workers:
            try:
                self._queue.put(_STOP, timeout=1.0)
            except queue.Full:
                break
        for thread in workers:
            thread.join(max(0.1, deadline - time.monotonic()))
        try:
            os.unlink(self.config.socket_path)
        except OSError:
            pass
        _events.emit("drain.finish",
                     clean=self._in_flight <= 0,
                     degraded=self._fallback_started,
                     worker_deaths=_C_DEATHS.value)
        self.drained.set()


# ----------------------------------------------------------------------
# CLI entry point
# ----------------------------------------------------------------------

def serve_main(config, stats_json=None, trace=False):
    """Run a daemon in the foreground until SIGTERM/SIGINT/shutdown.

    On drain the full ``repro.obs`` report — ``serve.*`` counters and,
    when tracing, the span forest — is flushed to *stats_json* and a
    one-line summary goes to stderr.  Returns the process exit code.
    """
    import json
    import signal

    from repro import obs
    from repro.obs import report as obs_report

    if stats_json or trace:
        obs.enable()
    if config.events_path:
        _events.configure(config.events_path)
        if config.shard_id is not None:
            # Every record this process writes names its shard.
            _events.bind(shard=config.shard_id)
    try:
        server = EditServer(config).start()
    except OSError as error:
        print("repro-serve: %s" % error, file=sys.stderr, flush=True)
        if config.events_path:
            _events.unconfigure()
        return 1
    _events.emit("daemon.start", pid=os.getpid(),
                 socket=config.socket_path, jobs=config.jobs,
                 queue_size=config.queue_size,
                 tracing=bool(stats_json or trace))
    shard_tag = "" if config.shard_id is None \
        else ", shard %d" % config.shard_id
    print("repro-serve: listening on %s (%d workers, queue %d, pid %d%s)"
          % (config.socket_path, config.jobs, config.queue_size,
             os.getpid(), shard_tag), file=sys.stderr, flush=True)

    def _request_drain(_signum=None, _frame=None):
        server.request_drain()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, _request_drain)
        except ValueError:
            pass  # not the main thread (embedded use)
    # Chunked waits keep the main thread responsive to signals.
    while not server.wait_drained(timeout=0.2):
        pass
    obs.disable()
    if config.events_path:
        _events.unconfigure()
    report = obs_report.build_report()
    if stats_json:
        with open(stats_json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if trace:
        obs_report.render(report)
    serve = report["serve"]
    print("repro-serve: drained cleanly (%d requests: %d ok, %d errors, "
          "%d rejected, %d timeouts)"
          % (serve["requests"], serve["ok"], serve["errors"],
             serve["rejected"], serve["timeouts"]),
          file=sys.stderr, flush=True)
    return 0
