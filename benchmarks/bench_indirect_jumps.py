"""E2 — section 3.3's indirect-jump measurement.

Paper: gcc/SunOS — 0 unanalyzable of 1,325 indirect jumps (1,027,148
instructions, 11,975 routines); SunPro/Solaris — 138 unanalyzable of
1,244, every one a frame-pop tail call.  Reproduced over the corpus
compiled with both personalities: the gcc-like build has zero
unanalyzable jumps; every "unanalyzable" jump in the sunpro-like build
is the tail-call idiom.
"""

from conftest import record, report
from repro.core import Executable
from repro.minic import GCC_LIKE, SUNPRO_LIKE
from repro.workloads import build_image, program_names


def _survey(options):
    totals = {"instructions": 0, "routines": 0, "indirect": 0,
              "table": 0, "literal": 0, "tailcall": 0, "unanalyzable": 0}
    for name in program_names():
        exe = Executable(build_image(name, options)).read_contents()
        for routine in exe.all_routines():
            totals["routines"] += 1
            cfg = routine.control_flow_graph()
            totals["instructions"] += cfg.instruction_count()
            for info in cfg.indirect_jumps:
                totals["indirect"] += 1
                totals[info.status] += 1
    return totals


def test_indirect_jump_analysis(benchmark):
    gcc = benchmark(_survey, GCC_LIKE)
    sunpro = _survey(SUNPRO_LIKE)
    rows = [
        ("config", "instructions", "routines", "indirect jumps",
         "dispatch tables", "tail-call jumps", "unanalyzable"),
        ("gcc-like", gcc["instructions"], gcc["routines"],
         gcc["indirect"], gcc["table"], gcc["tailcall"],
         gcc["unanalyzable"]),
        ("sunpro-like", sunpro["instructions"], sunpro["routines"],
         sunpro["indirect"], sunpro["table"], sunpro["tailcall"],
         sunpro["unanalyzable"]),
    ]
    report("E2: indirect-jump analyzability by compiler personality",
           rows,
           "gcc: 0/1,325 unanalyzable; SunPro: 138/1,244, all frame-pop "
           "tail calls (which do not affect EEL's intraprocedural CFGs)")
    for config, survey in (("gcc", gcc), ("sunpro", sunpro)):
        record("e2.%s.unanalyzable" % config, survey["unanalyzable"],
               "jumps", "lower")
    # Shape: the gcc-like build is fully analyzable.
    assert gcc["unanalyzable"] == 0
    assert gcc["table"] > 0
    # Shape: the sunpro-like build's extra jumps are all tail calls.
    assert sunpro["tailcall"] > 0
    assert sunpro["unanalyzable"] == 0
    assert sunpro["indirect"] > gcc["indirect"]
