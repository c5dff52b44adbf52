"""E5 — section 4: machine-description conciseness.

Paper: SPARC description 145 non-comment lines; the handwritten
equivalent 2,268 lines; spawn's generated output 6,178 lines; MIPS
description 128 lines, Alpha 138.  Reproduced with our descriptions,
handwritten codecs, and generated modules.
"""

import inspect

from conftest import record, report
from repro.spawn import generate_source, load_description


def _loc(text):
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.strip().startswith("#"))


def _handwritten_loc(arch):
    if arch == "sparc":
        from repro.isa.sparc import handwritten, machine
    else:
        from repro.isa.mips import handwritten, machine
    return _loc(inspect.getsource(handwritten)) \
        + _loc(inspect.getsource(machine))


def test_spawn_conciseness(benchmark):
    generated_sparc = benchmark(generate_source, "sparc")
    generated_mips = generate_source("mips")
    rows = [("artifact", "sparc lines", "mips lines")]
    desc_sparc = load_description("sparc").source_lines
    desc_mips = load_description("mips").source_lines
    hand_sparc = _handwritten_loc("sparc")
    hand_mips = _handwritten_loc("mips")
    gen_sparc = _loc(generated_sparc)
    gen_mips = _loc(generated_mips)
    rows.append(("spawn description", desc_sparc, desc_mips))
    rows.append(("handwritten machine layer", hand_sparc, hand_mips))
    rows.append(("spawn-generated module", gen_sparc, gen_mips))
    rows.append(("description : handwritten",
                 "1 : %.1f" % (hand_sparc / desc_sparc),
                 "1 : %.1f" % (hand_mips / desc_mips)))
    report("E5: machine description conciseness", rows,
           "SPARC 145 desc / 2,268 handwritten / 6,178 generated; "
           "MIPS 128 desc")
    for arch, desc, hand, gen in (("sparc", desc_sparc, hand_sparc, gen_sparc),
                                  ("mips", desc_mips, hand_mips, gen_mips)):
        record("e5.%s.description_lines" % arch, desc, "lines", "lower")
        record("e5.%s.handwritten_lines" % arch, hand, "lines", "lower")
        record("e5.%s.generated_lines" % arch, gen, "lines", "lower")
    # Shape: description << handwritten < generated.
    assert desc_sparc * 4 < hand_sparc < gen_sparc
    assert desc_mips * 4 < hand_mips < gen_mips
