"""E8 — section 5: Blizzard-S fine-grain access control.

Paper: the EEL version is ~1,300 lines vs ~2,800 ad-hoc, and exploits
live-register analysis to use a faster access test when condition codes
are dead.  Reproduced: overhead with and without the liveness
optimization, fault behavior, and tool size.
"""

import inspect

from conftest import record, report
from repro.sim import run_image
from repro.tools import blizzard
from repro.tools.blizzard import (
    BlizzardAccessControl,
    STATE_INVALID,
    TABLE_SIZE,
)
from repro.workloads import build_image

WORKLOADS = ("qsort", "sieve", "bubble")


def _overhead(name, always_save_cc):
    image = build_image(name)
    baseline = run_image(image)
    tool = BlizzardAccessControl(image,
                                 always_save_cc=always_save_cc)
    tool.instrument()
    simulator, _ = tool.run()
    assert simulator.output == baseline.output
    return simulator.instructions_executed \
        / baseline.instructions_executed, tool.sites


def test_blizzard_access_control(benchmark):
    rows = [("workload", "sites", "slowdown (liveness)",
             "slowdown (always save cc)")]
    stats = {}
    for name in WORKLOADS:
        if name == WORKLOADS[0]:
            fast, sites = benchmark(_overhead, name, False)
        else:
            fast, sites = _overhead(name, False)
        slow, _ = _overhead(name, True)
        stats[name] = (fast, slow)
        rows.append((name, sites, "%.2fx" % fast, "%.2fx" % slow))
    loc = sum(1 for line in inspect.getsource(blizzard).splitlines()
              if line.strip() and not line.strip().startswith("#"))
    rows.append(("tool size", "%d lines" % loc, "", ""))
    report("E8: Blizzard-S fine-grain access control", rows,
           "EEL version ~1,300 lines (vs 2,800 ad-hoc); faster test "
           "when condition codes are dead")
    for name, (fast, slow) in stats.items():
        record("e8.%s.slowdown" % name, fast, "x", "lower")
        record("e8.%s.slowdown_saving_cc" % name, slow, "x", "lower")
    record("e8.tool_lines", loc, "lines", "lower")
    for name, (fast, slow) in stats.items():
        assert fast <= slow, name  # liveness optimization never loses

    # Coherence behavior: invalid blocks fault exactly once.
    image = build_image("qsort")
    tool = BlizzardAccessControl(
        image, initial_state=bytes([STATE_INVALID]) * TABLE_SIZE)
    tool.instrument()
    _, faults = tool.run()
    assert faults
    blocks = [addr >> 5 for addr in faults]
    assert len(blocks) == len(set(blocks))
