"""E6 — section 5 footnote 1: CFG block composition.

Paper: qpt2's CFGs contain 26,912 blocks vs 15,441 for the old tool's
definition — the extra blocks are 12,774 delay-slot blocks, 920
entry/exit blocks, and 1,942 call surrogate blocks.  Reproduced: EEL's
normalized block count vs a leader-scan block count, broken down by
block kind.
"""

from conftest import record, report
from repro.core import Executable
from repro.tools.qpt_classic import ClassicProfiler
from repro.workloads import build_image, program_names


def _eel_census():
    census = {}
    for name in program_names():
        exe = Executable(build_image(name)).read_contents()
        for routine in exe.all_routines():
            cfg = routine.control_flow_graph()
            for kind, count in cfg.block_census().items():
                census[kind] = census.get(kind, 0) + count
    return census


def _classic_blocks():
    total = 0
    for name in program_names():
        tool = ClassicProfiler(build_image(name))
        total += len(tool._leaders())
    return total


def test_cfg_block_composition(benchmark):
    census = benchmark(_eel_census)
    classic = _classic_blocks()
    eel_total = sum(census.values())
    rows = [
        ("population", "blocks"),
        ("ad-hoc leader scan (old qpt definition)", classic),
        ("EEL normalized CFGs (total)", eel_total),
        ("  normal blocks", census.get("normal", 0)),
        ("  delay-slot blocks", census.get("delay", 0)),
        ("  entry/exit blocks",
         census.get("entry", 0) + census.get("exit", 0)),
        ("  call surrogate blocks", census.get("surrogate", 0)),
        ("ratio (EEL/ad-hoc)", "%.2f" % (eel_total / classic)),
    ]
    report("E6: CFG block composition across the corpus", rows,
           "26,912 EEL blocks vs 15,441 (12,774 delay, 920 entry/exit, "
           "1,942 surrogates)")
    record("e6.corpus.leader_blocks", classic, "blocks", "lower")
    record("e6.corpus.eel_blocks", eel_total, "blocks", "lower")
    # Shape: normalization roughly doubles the block count, and delay
    # blocks are the largest added category.
    assert eel_total > classic
    assert census["delay"] > census["surrogate"]
    assert census["delay"] + census["entry"] + census["exit"] \
        + census["surrogate"] > 0.3 * eel_total
