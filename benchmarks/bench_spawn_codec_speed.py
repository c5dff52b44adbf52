"""E11 — section 5: spawn-generated code runs at handwritten speed.

Paper: "the spawn-generated code ran at the same speed" as the
handwritten machine-specific code.  Reproduced: decode throughput of
both codecs over the corpus (caches cleared per round; the codecs take
turns and each one's fastest round counts), plus a functional check
that the block engine, whose instruction code is generated from the
description, runs a program exactly as the handwritten model does.
"""

from conftest import fastest_interleaved, record, report
from repro.isa import get_codec
from repro.sim import Simulator
from repro.spawn import build_codec
from repro.workloads import build_image, program_names

ROUNDS = 15  # interleaved corpus decodes of each codec; the fastest counts


def _corpus_words():
    words = []
    for name in program_names():
        words.extend(build_image(name).get_section(".text").words())
    return words


def _decode_all(codec, words):
    codec.reset_statistics()
    for word in words:
        codec.decode(word)
    return codec.distinct_decoded


def test_spawn_codec_speed(benchmark):
    words = _corpus_words()
    handwritten = get_codec("sparc")
    generated = build_codec("sparc")

    benchmark(_decode_all, generated, words)
    generated_time, handwritten_time = fastest_interleaved(
        [lambda: _decode_all(generated, words),
         lambda: _decode_all(handwritten, words)], ROUNDS)

    image = build_image("fib")
    sim_hand = Simulator(image, engine="handwritten")
    sim_hand.run()
    sim_generated = Simulator(image, engine="block")
    sim_generated.run()
    assert sim_generated.output == sim_hand.output
    assert sim_generated.instructions_executed \
        == sim_hand.instructions_executed

    rows = [
        ("codec", "decode time (corpus)", "distinct words"),
        ("handwritten", "%.4fs" % handwritten_time,
         handwritten.distinct_decoded),
        ("spawn-generated", "%.4fs" % generated_time,
         generated.distinct_decoded),
        ("ratio", "%.2fx" % (generated_time / handwritten_time), ""),
    ]
    report("E11: spawn-generated vs handwritten codec speed", rows,
           "generated code ran at the same speed as handwritten")
    record("e11.sparc.decode_ratio", generated_time / handwritten_time, "x",
           "lower")
    # Shape: same order of magnitude (interning makes both cheap).
    assert generated_time < handwritten_time * 6
