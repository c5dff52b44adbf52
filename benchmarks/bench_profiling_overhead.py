"""E12 — profiling correctness and overhead (sections 1, 3.3, 5).

qpt's reason for CFG-based instrumentation: placing counters on a
spanning tree's complement is cheaper than counting every block, and
reconstruction still recovers exact counts.  Reproduced per workload:
block-mode vs edge-mode slowdown, and exact agreement of reconstructed
block counts with simulator ground truth.
"""

from conftest import record, report
from repro.core import Executable
from repro.sim import run_image
from repro.tools.qpt import profile
from repro.workloads import build_image, program_names

WORKLOADS = ("fib", "interp", "qsort", "hanoi", "sieve")

# The exact E12 figures per workload: instructions the original runs,
# then counters placed and instructions run in block mode and in edge
# mode.  Counter placement, layout and the simulator are deterministic,
# so any change here is a change in what qpt places or layout emits.
EXPECTED = {
    "fib": (93045, 55, 175769, 17, 121469),
    "interp": (9984, 106, 15040, 46, 11972),
    "qsort": (94580, 75, 132228, 24, 114155),
    "hanoi": (258059, 55, 389167, 17, 303115),
    "sieve": (153519, 58, 229163, 19, 196554),
}


def _ground_truth(image):
    base = run_image(image, count_pcs=True)
    exe = Executable(image).read_contents()
    truth = {}
    for routine in exe.all_routines():
        cfg = routine.control_flow_graph()
        for block in cfg.normal_blocks():
            truth[(routine.name, block.start)] = base.pc_counts.get(
                block.start, 0)
    return base, truth


def _measure(name):
    image = build_image(name)
    base, truth = _ground_truth(image)
    out = {}
    for mode in ("block", "edge"):
        tool, simulator = profile(image, mode=mode)
        assert simulator.output == base.output
        counts = tool.block_counts(simulator)
        exact = all(truth.get(key, 0) == value
                    for key, value in counts.items())
        out[mode] = (simulator.instructions_executed
                     / base.instructions_executed,
                     tool.counters.used, exact,
                     simulator.instructions_executed)
    out["original"] = base.instructions_executed
    return out


def test_profiling_overhead(benchmark):
    results = {name: _measure(name) for name in WORKLOADS[1:]}
    results[WORKLOADS[0]] = benchmark(_measure, WORKLOADS[0])
    rows = [("workload", "block slowdown", "block counters",
             "edge slowdown", "edge counters", "counts exact")]
    for name in WORKLOADS:
        block = results[name]["block"]
        edge = results[name]["edge"]
        rows.append((name, "%.2fx" % block[0], block[1],
                     "%.2fx" % edge[0], edge[1],
                     block[2] and edge[2]))
    report("E12: qpt2 profiling overhead and correctness", rows,
           "edge profiling (Ball-Larus placement) beats block counting; "
           "reconstructed counts are exact")
    for name in WORKLOADS:
        for mode in ("block", "edge"):
            slowdown, counters = results[name][mode][:2]
            record("e12.%s.%s_slowdown" % (name, mode), slowdown, "x",
                   "lower")
            record("e12.%s.%s_counters" % (name, mode), counters,
                   "counters", "lower")
    for name, modes in results.items():
        assert modes["block"][2] and modes["edge"][2], name
        assert modes["edge"][0] < modes["block"][0], name
        assert modes["edge"][1] < modes["block"][1], name
    # And exactly the measured figures.
    assert {name: (modes["original"], modes["block"][1], modes["block"][3],
                   modes["edge"][1], modes["edge"][3])
            for name, modes in results.items()} == EXPECTED
