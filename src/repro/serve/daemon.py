"""The edit server: workers, degradation, and warm shared state.

Its front door — listener, admission, timeouts, drain, foreground
runner — is :class:`~repro.serve.frontdoor.FrontDoor`, shared with the
fleet gateway.  Behind it, ``jobs`` worker threads take admitted
requests in FIFO order and run :func:`repro.serve.ops.dispatch`.  The
daemon fails fast: a handler's ``OSError`` and a worker's death both
answer ``internal`` with ``retry_after``, and the client decides
whether to retry.  A worker killed by
:class:`~repro.serve.ops.WorkerDeath` is replaced from a finite
restart budget; once the budget is spent and no normal worker
survives, a single immortal fallback worker serves the queue serially
— degraded, but never dark.

The daemon process itself stays single-address-space: analysis fan-out
pools are suppressed (forking from a threaded parent can deadlock the
children) and the cache's in-memory warm layer is enabled, so all
requests share one warm analysis state under one lock discipline.
"""

import os
import threading
import time

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.serve import ops, protocol
from repro.serve.admission import AdmissionQueue
from repro.serve.config import ServeConfig
from repro.serve.frontdoor import STOP, FrontDoor

_C_REQUESTS = _metrics.counter("serve.requests")
_C_OK = _metrics.counter("serve.responses.ok")
_C_ERRORS = _metrics.counter("serve.responses.error")
_C_QUEUE_FULL = _metrics.counter("serve.rejected.queue_full")
_C_DRAINING = _metrics.counter("serve.rejected.draining")
_C_TIMEOUTS = _metrics.counter("serve.timeouts")
_C_DEGRADED = _metrics.counter("serve.degraded")
_C_DEATHS = _metrics.counter("serve.worker_deaths")
_metrics.ratio("serve.ok_rate", (_C_OK,), (_C_REQUESTS,))

RESTARTS = 3  # dead workers replaced before the serial fallback
WARM_CAP = 64  # analysis summaries the in-memory warm layer keeps


class EditServer(FrontDoor):
    """Long-lived edit daemon over a Unix stream socket."""

    name = "serve"
    drain_event = "drain"
    counters = {"requests": _C_REQUESTS, "ok": _C_OK, "errors": _C_ERRORS,
                "overloaded": _C_QUEUE_FULL, "draining": _C_DRAINING,
                "timeouts": _C_TIMEOUTS}

    def __init__(self, config=None):
        config = config or ServeConfig()
        # One priority class: a daemon's queue is FIFO, so a shard never
        # reorders what its gateway already ordered.
        super().__init__(config, config.socket_path,
                         AdmissionQueue(config.queue_size, bulk_ops=()),
                         config.timeout_s)
        self.shard_id = config.shard_id
        self._restarts_used = 0
        self._fallback_started = False
        self._coalesce_lock = threading.Lock()
        self._coalescing = {}         # key -> Event of the leading request
        self._worker_states = {}      # thread name -> "idle" | op name

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _open(self):
        """Warm the caches and spawn the worker pool."""
        from repro.cache import enable_memory_layer

        enable_memory_layer(WARM_CAP)
        for _ in range(self.config.jobs):
            self._spawn_worker()
        _events.emit("daemon.start", pid=os.getpid(), socket=self.address,
                     jobs=self.config.jobs,
                     queue_size=self.config.queue_size,
                     tracing=_trace.is_enabled())

    def _close_backend(self):
        return {"degraded": self._fallback_started,
                "worker_deaths": _C_DEATHS.value}

    def banner(self):
        shard_tag = "" if self.shard_id is None \
            else ", shard %d" % self.shard_id
        return "listening on %s (%d workers, queue %d, pid %d%s)" % (
            self.address, self.config.jobs, self.config.queue_size,
            os.getpid(), shard_tag)

    def summary(self, report):
        counters = report["counters"]
        return ("drained cleanly (%d requests: %d ok, %d errors, "
                "%d rejected, %d timeouts)"
                % (counters["serve.requests"],
                   counters["serve.responses.ok"],
                   counters["serve.responses.error"],
                   counters["serve.rejected.queue_full"]
                   + counters["serve.rejected.draining"],
                   counters["serve.timeouts"]))

    def describe(self):
        with self._lock:
            alive = len(self._executors)
            degraded = self._fallback_started
            states = dict(self._worker_states)
        return {
            "pid": os.getpid(),
            "shard": self.shard_id,
            "socket": self.address,
            "jobs": self.config.jobs,
            "workers_alive": alive,
            "worker_states": states,
            "degraded": degraded,
            "draining": self._drain_requested.is_set(),
            "queue_depth": len(self.queue),
            "uptime_s": time.monotonic() - self.started_at
            if self.started_at is not None else 0.0,
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

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _spawn_worker(self, fallback=False):
        name = "serve-fallback" if fallback else \
            "serve-worker-%d" % len(self._executors)
        self._spawn_executor(lambda: self._worker_loop(fallback), name)

    def _set_worker_state(self, state):
        with self._lock:
            self._worker_states[threading.current_thread().name] = state

    def _worker_loop(self, fallback):
        """Serve the queue until dismissed.

        A death ends a pool worker (a replacement comes from the
        restart budget) but never the fallback worker: with the budget
        spent, staying alive serially beats going dark.
        """
        self._set_worker_state("idle")
        while True:
            job = self.queue.get()
            if job is STOP:
                self._executor_exit()
                return
            if fallback:
                _C_DEGRADED.inc()
            self._set_worker_state(job.op)
            try:
                self._run_job(job)
            except ops.WorkerDeath as death:
                _C_DEATHS.inc()
                _events.emit("worker.death",
                             worker=threading.current_thread().name,
                             op=job.op, degraded=fallback, reason=str(death))
                if not fallback:
                    self._executor_exit()
                    self._replace_worker()
                    return
            self._set_worker_state("idle")

    def _execute(self, job):
        try:
            return protocol.ok_response(
                job.id, ops.dispatch(self, job.op, job.params))
        except ops.OpError as error:
            return protocol.error_response(job.id, error.code, error.message,
                                           retry_after=error.retry_after)

    def _replace_worker(self):
        with self._lock:
            if self._restarts_used < RESTARTS:
                self._restarts_used += 1
                fallback = False
            elif not self._executors and not self._fallback_started:
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
                         restarts_budget=RESTARTS)
        self._spawn_worker(fallback=fallback)


def serve_main(config, stats_json=None, trace=False):
    """Run a daemon in the foreground; see :meth:`FrontDoor.run`."""
    return EditServer(config).run(stats_json=stats_json, trace=trace)
