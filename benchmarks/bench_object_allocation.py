"""E9 — section 5: object allocation census.

Paper: instrumenting spim, EEL allocates 317,494 objects vs 84,655 for
the ad-hoc tool (explicit program representations cost space), and
EEL's CFGs have more blocks, which disproportionately slows non-linear
algorithms.  Reproduced: EEL instruction/block/edge objects vs the
ad-hoc tool's decode count for the same workload.
"""

from conftest import record, report
from repro.core import Executable
from repro.core import instruction as eel_instruction
from repro.tools.qpt import QptProfiler
from repro.tools.qpt_classic import ClassicProfiler
from repro.workloads import build_image

WORKLOAD = "qsort"


def _eel_census(image):
    eel_instruction.clear_caches()
    eel_instruction.reset_allocation_stats()
    exe = Executable(image).read_contents()
    blocks = edges = 0
    snippets = 0
    for routine in exe.all_routines():
        cfg = routine.control_flow_graph()
        blocks += len(cfg.blocks)
        edges += len(cfg.all_edges())
    _, instructions = eel_instruction.allocation_stats()
    return {"instructions": instructions, "blocks": blocks,
            "edges": edges, "total": instructions + blocks + edges}


def test_object_allocation(benchmark):
    image = build_image(WORKLOAD)
    eel = benchmark(_eel_census, image)
    classic = ClassicProfiler(image)
    classic.instrument()
    rows = [
        ("tool", "objects"),
        ("ad-hoc qpt (interned decodes)", classic.objects_allocated),
        ("EEL instructions", eel["instructions"]),
        ("EEL blocks", eel["blocks"]),
        ("EEL edges", eel["edges"]),
        ("EEL total", eel["total"]),
    ]
    report("E9: object allocation census (workload: %s)" % WORKLOAD, rows,
           "EEL allocates 317,494 objects vs 84,655 (explicit "
           "representations cost space)")
    record("e9.%s.qpt_objects" % WORKLOAD, classic.objects_allocated,
           "objects", "lower")
    record("e9.%s.eel_objects" % WORKLOAD, eel["total"], "objects", "lower")
    # Shape: EEL's explicit representations allocate more objects than a
    # single linear scan keeps.
    assert eel["total"] > eel["instructions"]
    assert eel["blocks"] > 0 and eel["edges"] > 0
