"""Process-pool fan-out that keeps the counters whole.

``repro verify --jobs`` and the fuzz campaigns both run one worker per
payload across processes.  A pool child counts into its own copy of the
metrics registry, so each task returns every counter delta it caused
and the parent folds them in: ``--stats-json`` reports the same
counters at any ``--jobs``.  Results come back in submission order.  A
pool that cannot start (no fork, no ``/dev/shm``) or breaks mid-run is
not fatal: the payloads without a result run serially in the parent,
and the fallback is counted once in ``pool.fallbacks``.
"""

import concurrent.futures
import multiprocessing

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

_C_FALLBACKS = _metrics.counter("pool.fallbacks")


def _counters():
    return {name: counter.value
            for name, counter in _metrics.REGISTRY.counters.items()}


def _start_child(tracing):
    # Some counters (per-category simulation counts) are kept only while
    # tracing, so a child traces when its parent does.
    if tracing:
        _trace.enable()


def _counted(worker, payload):
    """``(worker(payload), deltas)``; the deltas also name counters the
    task registered without counting, so the parent's report carries
    the same key set as a serial run."""
    before = _counters()
    result = worker(payload)
    deltas = {name: value - before.get(name, 0)
              for name, value in _counters().items()
              if name not in before or value != before[name]}
    return result, deltas


def fan_out(worker, payloads, jobs=1, out_of_time=None):
    """Yield ``worker(payload)`` for each of *payloads*, in order.

    *worker* must be a module-level function (pool children import it).
    With ``jobs > 1`` the payloads run in a pool of that many processes,
    spawned rather than forked: the caller may be running threads.
    Iteration stops early once ``out_of_time()`` is true; payloads not
    yet started are cancelled.
    """
    payloads = list(payloads)
    out_of_time = out_of_time or (lambda: False)
    finished = 0
    if jobs > 1 and len(payloads) > 1:
        try:
            with concurrent.futures.ProcessPoolExecutor(
                    jobs, mp_context=multiprocessing.get_context("spawn"),
                    initializer=_start_child,
                    initargs=(_trace.is_enabled(),)) as pool:
                futures = [pool.submit(_counted, worker, payload)
                           for payload in payloads]
                for future in futures:
                    if out_of_time():
                        for pending in futures:
                            pending.cancel()
                        return
                    result, deltas = future.result()
                    for name, delta in deltas.items():
                        _metrics.counter(name).inc(delta)
                    finished += 1
                    yield result
            return
        except (OSError, NotImplementedError,
                concurrent.futures.BrokenExecutor):
            _C_FALLBACKS.inc()
    for payload in payloads[finished:]:
        if out_of_time():
            return
        yield worker(payload)
