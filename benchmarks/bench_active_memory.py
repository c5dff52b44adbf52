"""E7 — section 5: Active Memory cache simulation slowdown.

Paper: inserting cache-state tests before memory references lowers the
cost of cache simulation to a 2-7x slowdown, far cheaper than
post-processing an address trace.  Reproduced: per-workload slowdown of
the edited binary (in simulated instructions) plus exact-match
validation against the trace-driven model.
"""

import pytest

from conftest import record, report
from repro.sim import run_image
from repro.tools.active_memory import ActiveMemory, trace_driven_misses
from repro.workloads import build_image

WORKLOADS = ("fib", "sieve", "qsort", "matmul", "interp", "tree")


def _measure(name):
    image = build_image(name)
    baseline = run_image(image)
    _, trace_cache = trace_driven_misses(image)
    tool = ActiveMemory(image).instrument()
    simulator, cache = tool.run()
    assert simulator.output == baseline.output
    assert cache.misses == trace_cache.misses
    slowdown = simulator.instructions_executed \
        / baseline.instructions_executed
    return slowdown, cache, trace_cache


def test_active_memory_slowdowns(benchmark):
    results = {}
    for name in WORKLOADS[1:]:
        results[name] = _measure(name)
    results[WORKLOADS[0]] = benchmark(_measure, WORKLOADS[0])
    rows = [("workload", "slowdown", "misses (edited)", "misses (trace)",
             "accesses")]
    for name in WORKLOADS:
        slowdown, cache, trace_cache = results[name]
        rows.append((name, "%.2fx" % slowdown, cache.misses,
                     trace_cache.misses, trace_cache.accesses))
    report("E7: Active Memory cache simulation by editing", rows,
           "2-7x slowdown; miss counts identical to trace-driven model")
    for name in WORKLOADS:
        record("e7.%s.slowdown" % name, results[name][0], "x", "lower")
    for name, (slowdown, cache, trace_cache) in results.items():
        assert 1.5 < slowdown < 7.0, name
        assert cache.misses == trace_cache.misses, name
