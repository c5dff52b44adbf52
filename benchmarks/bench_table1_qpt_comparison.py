"""E1 — Table 1: qpt (ad-hoc) vs qpt2 (EEL-based) profiler comparison.

The paper instruments `spim` with both tools and reports tool size and
run time across build configurations; unoptimized qpt2 is 4.3x slower,
optimized 2.4x.  Here the axes are: instrumentation wall time (the tool
running), tool code size (lines), instrumented output size, and the
instrumented program's run length.  qpt2 must be slower and bigger but
portable and more precise.
"""

import inspect

from conftest import fastest_interleaved, record, report
from repro.sim import run_image
from repro.tools import qpt, qpt_classic
from repro.tools.qpt import QptProfiler
from repro.tools.qpt_classic import ClassicProfiler
from repro.workloads import build_image

WORKLOAD = "qsort"  # the spim stand-in: mid-size, calls, loops, a switch
ROUNDS = 15  # interleaved runs of each tool; each tool's fastest counts


def _loc(module):
    lines = inspect.getsource(module).splitlines()
    return sum(1 for line in lines
               if line.strip() and not line.strip().startswith("#"))


def _text_size(image):
    return sum(s.size for s in image.sections.values() if s.is_exec)


def test_table1_comparison(benchmark, monkeypatch):
    # Both tools analyze from scratch: a warm analysis cache would let
    # qpt2 skip the work the comparison is about.
    monkeypatch.setenv("REPRO_CACHE", "off")
    image = build_image(WORKLOAD)
    base = run_image(image)

    def run_classic():
        return ClassicProfiler(image).instrument()

    def run_qpt2():
        return QptProfiler(image, mode="edge").run().edited_image()

    qpt2_image = benchmark(run_qpt2)
    classic_image = run_classic()
    classic_time, qpt2_time = fastest_interleaved([run_classic, run_qpt2],
                                                  ROUNDS)

    classic_run = run_image(classic_image)
    qpt2_run = run_image(qpt2_image)
    assert classic_run.output == base.output == qpt2_run.output

    rows = [
        ("tool", "tool LoC", "instrument time", "output text bytes",
         "edited run insts"),
        ("qpt (ad-hoc)", _loc(qpt_classic), "%.3fs" % classic_time,
         _text_size(classic_image), classic_run.instructions_executed),
        ("qpt2 (EEL)", _loc(qpt), "%.3fs" % qpt2_time,
         _text_size(qpt2_image), qpt2_run.instructions_executed),
        ("ratio (qpt2/qpt)", "%.2f" % (_loc(qpt) / _loc(qpt_classic)),
         "%.2fx" % (qpt2_time / classic_time),
         "%.2f" % (_text_size(qpt2_image) / _text_size(classic_image)),
         "%.2f" % (qpt2_run.instructions_executed
                   / classic_run.instructions_executed)),
    ]
    report("E1 / Table 1: ad-hoc qpt vs EEL-based qpt2 (workload: %s)"
           % WORKLOAD, rows,
           "qpt2 runs 2.4-4.3x slower than qpt but is portable; "
           "qpt2's edited program is *cheaper* (optimal edge placement)")
    record("e1.%s.instrument_slowdown" % WORKLOAD, qpt2_time / classic_time,
           "x", "lower")
    for tool, module, edited, run in (
            ("qpt", qpt_classic, classic_image, classic_run),
            ("qpt2", qpt, qpt2_image, qpt2_run)):
        record("e1.%s.%s_loc" % (WORKLOAD, tool), _loc(module), "lines",
               "lower")
        record("e1.%s.%s_text_bytes" % (WORKLOAD, tool), _text_size(edited),
               "bytes", "lower")
        record("e1.%s.%s_edited_insns" % (WORKLOAD, tool),
               run.instructions_executed, "insns", "lower")
    # Shape assertions: the general tool pays at instrumentation time...
    assert qpt2_time > classic_time
    # ...but produces a cheaper instrumented program (Ball-Larus).
    assert qpt2_run.instructions_executed \
        < classic_run.instructions_executed
