"""E3 — section 3.3: fraction of uneditable blocks and edges.

Paper: 15-20% of edges and blocks are uneditable (they transfer control
out of the routine: call/return delay slots, surrogates, entry/exit).
Our routines are far smaller than SPEC92's, which inflates per-routine
pseudo-block overhead; the bench reports both the raw fraction and the
fraction among routines with at least 5 blocks (closer to the paper's
population).
"""

from conftest import record, report
from repro.core import Executable
from repro.workloads import build_image, program_names


def _census():
    raw = [0, 0, 0, 0]  # editable blocks, blocks, editable edges, edges
    big = [0, 0, 0, 0]  # same, restricted to routines with >= 8 blocks
    for name in program_names():
        exe = Executable(build_image(name)).read_contents()
        for routine in exe.all_routines():
            cfg = routine.control_flow_graph()
            blocks_editable, blocks_total, edges_editable, edges_total = \
                cfg.editable_stats()
            for accumulator in ((raw, True),
                                (big, blocks_total >= 8)):
                target, wanted = accumulator
                if wanted:
                    target[0] += blocks_editable
                    target[1] += blocks_total
                    target[2] += edges_editable
                    target[3] += edges_total
    return raw, big


def test_uneditable_fraction(benchmark):
    raw, big = benchmark(_census)
    rows = [
        ("population", "uneditable blocks", "uneditable edges"),
        ("all routines", "%.1f%%" % (100 * (1 - raw[0] / raw[1])),
         "%.1f%%" % (100 * (1 - raw[2] / raw[3]))),
        ("routines with >= 8 blocks",
         "%.1f%%" % (100 * (1 - big[0] / big[1])),
         "%.1f%%" % (100 * (1 - big[2] / big[3]))),
    ]
    report("E3: uneditable blocks and edges", rows,
           "15-20% uneditable on SPEC92 (much larger routines)")
    for population, census in (("all", raw), ("large", big)):
        record("e3.%s.uneditable_block_rate" % population,
               1 - census[0] / census[1], "ratio", "lower")
        record("e3.%s.uneditable_edge_rate" % population,
               1 - census[2] / census[3], "ratio", "lower")
    # Shape: a substantial minority, and larger routines approach the
    # paper's range from above.
    assert 0.10 < 1 - raw[0] / raw[1] < 0.60
    assert (1 - big[0] / big[1]) <= (1 - raw[0] / raw[1])
