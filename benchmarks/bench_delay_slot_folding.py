"""E10 — Figure 3 / section 3.3: delay-slot normalization and re-folding.

Paper: duplicated delay-slot instructions would grow the program, so
EEL folds instructions back into unedited delay slots.  Reproduced: an
identity transform emits exactly the original instruction count thanks
to re-folding, and an everything-edited transform pays the duplication.
"""

from conftest import report
from repro.core import Executable
from repro.sim import run_image
from repro.tools.common import CounterArray, counter_snippet
from repro.workloads import build_image, expected_output

WORKLOAD = "hanoi"

# The exact E10 figures for hanoi: (text bytes, run instructions) of the
# original, of an identity relayout, and of an edit with a counter on
# every branch edge.  Layout and the simulator are deterministic, so any
# change here is a change in what layout emits.
EXPECTED = {
    "original": (1168, 258059),
    "identity": (1148, 258059),
    "edited": (1548, 303109),
}


def _identity(image):
    exe = Executable(image).read_contents()
    for routine in exe.all_routines():
        routine.produce_edited_routine()
    out = exe.edited_image()
    out.entry = exe.edited_addr(exe.start_address())
    return out


def _edited_everywhere(image):
    exe = Executable(image).read_contents()
    counters = CounterArray(exe, "__fold_counts", 8192)
    for routine in exe.all_routines():
        cfg = routine.control_flow_graph()
        for block in cfg.blocks:
            for edge in block.succ:
                if edge.editable and edge.kind in ("taken", "fall"):
                    index = counters.allocate(None)
                    edge.add_code_along(
                        counter_snippet(exe, counters.address(index)))
        routine.produce_edited_routine()
    out = exe.edited_image()
    out.entry = exe.edited_addr(exe.start_address())
    return out


def _edited_text_size(image):
    return image.get_section(".text.edited").size


def test_delay_slot_refolding(benchmark):
    image = build_image(WORKLOAD)
    baseline = run_image(image)
    identity = benchmark(_identity, image)
    edited = _edited_everywhere(image)
    identity_run = run_image(identity)
    edited_run = run_image(edited)
    assert identity_run.output == expected_output(WORKLOAD)
    assert edited_run.output == expected_output(WORKLOAD)
    original_text = image.get_section(".text").size
    rows = [
        ("version", "text bytes", "run instructions"),
        ("original", original_text, baseline.instructions_executed),
        ("identity relayout (re-folded)", _edited_text_size(identity),
         identity_run.instructions_executed),
        ("every branch edge edited", _edited_text_size(edited),
         edited_run.instructions_executed),
    ]
    report("E10: delay-slot duplication and re-folding (workload: %s)"
           % WORKLOAD, rows,
           "unedited delay slots fold back; edited ones pay duplication")
    # Shape: re-folding keeps the identity transform the same dynamic
    # length as the original, and within a few % static size.
    assert identity_run.instructions_executed \
        == baseline.instructions_executed
    assert _edited_text_size(identity) <= original_text * 1.1
    assert _edited_text_size(edited) > _edited_text_size(identity)
    # And exactly the measured figures.
    assert {
        "original": (original_text, baseline.instructions_executed),
        "identity": (_edited_text_size(identity),
                     identity_run.instructions_executed),
        "edited": (_edited_text_size(edited),
                   edited_run.instructions_executed),
    } == EXPECTED
