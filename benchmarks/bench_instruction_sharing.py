"""E4 — section 3.4: flyweight instruction sharing.

Paper: allocating one EEL instruction per distinct machine word reduces
allocated instructions by a factor of about four.
"""

from conftest import record, report
from repro.core import instruction as eel_instruction
from repro.core.instruction import instruction_for
from repro.isa import get_codec
from repro.workloads import build_image, program_names


def _decode_corpus(share):
    codec = get_codec("sparc")
    eel_instruction.clear_caches()
    eel_instruction.reset_allocation_stats()
    for name in program_names():
        image = build_image(name)
        text = image.get_section(".text")
        for word in text.words():
            instruction_for(codec, word, share=share)
    return eel_instruction.allocation_stats()


def test_instruction_sharing(benchmark):
    requests, allocated_shared = benchmark(_decode_corpus, True)
    requests2, allocated_unshared = _decode_corpus(False)
    assert requests == requests2
    factor = allocated_unshared / allocated_shared
    rows = [
        ("mode", "instruction objects", "requests"),
        ("without sharing", allocated_unshared, requests),
        ("with sharing (flyweight)", allocated_shared, requests),
        ("reduction factor", "%.1fx" % factor, ""),
    ]
    report("E4: flyweight instruction allocation", rows,
           "sharing reduces allocated EEL instructions ~4x")
    record("e4.corpus.shared_objects", allocated_shared, "objects", "lower")
    record("e4.corpus.sharing_factor", factor, "x", "higher")
    assert factor > 2.5  # the paper's "typically a factor of four"
