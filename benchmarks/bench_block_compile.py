"""Block-compiling engine vs. the per-instruction interpreter.

The paper's generated execute layer (§4) amortizes decode over many
executions; the block engine takes the same idea further by compiling
whole basic blocks to specialized Python.  This benchmark pins the
payoff: warm simulation of a loop-heavy workload must be at least
``MIN_SPEEDUP`` faster under ``engine="block"`` than under the
handwritten per-instruction model, with identical observables.
"""

import time

from conftest import record, report
from repro.sim.machine import Simulator
from repro.workloads import builder

WORKLOAD = "interp"
# The block compiler folds decode, operand selection, and pc/npc
# bookkeeping out of the hot loop; anything below this factor means
# block dispatch overhead is eating the win.
MIN_SPEEDUP = 3.0


def _run(image, engine, **kwargs):
    simulator = Simulator(image, engine=engine, **kwargs)
    started = time.perf_counter()
    simulator.run()
    elapsed = time.perf_counter() - started
    return elapsed, simulator


def _best_of(image, engine, repeats=3):
    """Fastest of *repeats* runs: per-pc counting is excluded from the
    timed runs (the profile dict increment costs the same under both
    engines and would just compress the measured ratio)."""
    best = None
    simulator = None
    for _ in range(repeats):
        elapsed, simulator = _run(image, engine)
        best = elapsed if best is None else min(best, elapsed)
    return best, simulator


def test_block_compile_speedup():
    image = builder.build_image(WORKLOAD)

    # Warm both engines once (first run pays source generation and
    # Python compile; steady-state is what users see across edits).
    _run(image, "handwritten")
    _run(image, "block")

    hand, base = _best_of(image, "handwritten")
    blk, compiled = _best_of(image, "block")

    # The speedup only counts if the engines are observably identical,
    # including the exact per-pc profile in counting mode.
    _, base_counted = _run(image, "handwritten", count_pcs=True)
    _, blk_counted = _run(image, "block", count_pcs=True)
    assert compiled.output == base.output
    assert compiled.exit_code == base.exit_code
    assert compiled.instructions_executed == base.instructions_executed
    assert blk_counted.pc_counts == base_counted.pc_counts

    speedup = hand / blk if blk else float("inf")
    cpu = compiled.cpu
    lookups = cpu.block_hits + cpu.block_misses
    insts_per_dispatch = (compiled.instructions_executed / lookups
                          if lookups else 0.0)

    rows = [
        ("engine", "seconds", "vs handwritten"),
        ("handwritten", "%.4f" % hand, "1.0x"),
        ("block", "%.4f" % blk, "%.1fx" % speedup),
    ]
    report("block compile: warm %s run, best of 3" % WORKLOAD, rows,
           paper_note="generated execute layer amortizes decode (sec. 4)")
    # The speedup is gated below but not recorded: on a 2-vCPU VM it read
    # 8.2-12.1x across runs of one commit, even timed interleaved.  The
    # work the block engine saves is recorded as deterministic counts.
    record("block_compile.%s.insts_per_dispatch" % WORKLOAD,
           insts_per_dispatch, "insns", "higher")
    record("block_compile.%s.compiles" % WORKLOAD, cpu.block_compiles,
           "blocks", "lower")

    assert speedup >= MIN_SPEEDUP, (
        "block engine only %.2fx faster than handwritten on %s "
        "(need >= %.1fx)" % (speedup, WORKLOAD, MIN_SPEEDUP))
