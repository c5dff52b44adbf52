"""spawn: description parsing, codec equivalence, execution, codegen."""

import copy
import glob
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import bits, get_codec
from repro.isa.base import Category, SpanError
from repro.spawn import (
    SpawnParseError,
    build_codec,
    generate_source,
    load_description,
    parse_description,
)

MINI_DESC = """
arch sparc
wordsize 32
fields op 30:31, rd 25:29, rs1 14:18, simm13 0:12 signed, iflag 13:13,
  rs2 0:4, op3 19:24
register R[32] zero 0
implies simm13 iflag 1
pat add2 is op=2 && op3=0
val src2 is iflag = 1 ? simm13 : R[rs2]
sem add2 is R[rd] := R[rs1] + src2
"""


def test_parse_mini_description():
    desc = parse_description(MINI_DESC)
    assert desc.arch == "sparc"
    assert "add2" in desc.instructions
    assert desc.fields["simm13"].signed
    assert desc.banks["R"].zero == 0


def test_parse_errors():
    with pytest.raises(SpawnParseError):
        parse_description("fields x 0:3")  # no arch
    with pytest.raises(SpawnParseError):
        parse_description("arch a\npat p is f=1\n")  # unknown... f
    with pytest.raises(SpawnParseError):
        parse_description(
            "arch a\nfields f 0:3\npat p is f=1\n"
        )  # no semantics


def test_vector_pattern_arity_mismatch():
    with pytest.raises(SpawnParseError):
        parse_description("""
arch a
fields f 0:3
pat [ x y ] is f=[1 2 3]
sem x is R[f] := 0
""")


def test_bundled_descriptions_load():
    for arch in ("sparc", "mips"):
        desc = load_description(arch)
        assert desc.arch == arch
        assert len(desc.instructions) >= 40
        # Conciseness: well under 200 non-blank lines (paper: 145/128).
        assert desc.source_lines < 200


def _random_word_for(desc, name, rng):
    inst_def = desc.instructions[name]
    word = 0
    for field in desc.fields.values():
        word = bits.insert(word, field.lo, field.hi,
                           rng.getrandbits(field.width))
    for field_name, value in inst_def.constraints.items():
        field = desc.fields[field_name]
        word = bits.insert(word, field.lo, field.hi, value)
    return word


@pytest.mark.parametrize("arch", ["sparc", "mips"])
def test_spawn_decode_equivalent_to_handwritten(arch):
    """The paper's premise: generated machine layer == handwritten one."""
    desc = load_description(arch)
    spawn_codec = build_codec(arch)
    hand = get_codec(arch)
    rng = random.Random(7)
    for name in desc.instructions:
        for _ in range(40):
            word = _random_word_for(desc, name, rng)
            s = spawn_codec.decode(word)
            h = hand.decode(word)
            assert s.category == h.category, (name, hex(word))
            assert s.reads == h.reads, (name, hex(word))
            assert s.writes == h.writes, (name, hex(word))
            assert s.is_delayed == h.is_delayed, (name, hex(word))
            assert s.annul_untaken == h.annul_untaken, (name, hex(word))
            assert (s.mem_width, s.mem_signed) == (h.mem_width,
                                                   h.mem_signed)
            assert s.cond == h.cond, (name, hex(word))
            assert spawn_codec.control_target(s, 0x1000) \
                == hand.control_target(h, 0x1000), (name, hex(word))


_DATA = 0x20000


def _one_word_image(arch, word):
    """*word* at the entry, nops behind it, and one data page."""
    from repro.binfmt import layout
    from repro.binfmt.image import SEC_EXEC, SEC_WRITE, Image, Section

    image = Image(arch, entry=layout.TEXT_BASE)
    text = image.add_section(Section(".text", layout.TEXT_BASE, SEC_EXEC))
    for text_word in [word] + [get_codec(arch).nop_word] * 3:
        text.append_word(text_word)
    image.add_section(Section(".data", _DATA, SEC_WRITE, bytearray(64)))
    return image


def _random_state(arch, rng):
    """Registers and special state drawn to hit corner values, the
    data page (aligned or not) and small syscall numbers."""
    pool = (0, 1, 2, 3, 5, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF,
            0xFFFFFFFE, _DATA, _DATA + 4, _DATA + 2, _DATA + 1)
    regs = [0] + [rng.choice(pool) if rng.random() < 0.7
                  else rng.getrandbits(32) for _ in range(31)]
    if arch == "sparc":
        windows = [([rng.getrandbits(32) for _ in range(8)],
                    [rng.getrandbits(32) for _ in range(8)])] \
            if rng.random() < 0.7 else []
        specials = {"icc": tuple(rng.getrandbits(1) for _ in range(4)),
                    "y": rng.getrandbits(32), "windows": windows}
    else:
        specials = {"hi": rng.getrandbits(32), "lo": rng.getrandbits(32)}
    return regs, specials


def _run_word(arch, word, state, engine):
    """Every observable of running *word* and its successor (a delay
    slot, when it has one) from *state*."""
    from repro.sim import Simulator, SimulationTimeout

    simulator = Simulator(_one_word_image(arch, word), engine=engine,
                          max_steps=2, block_max_len=1)
    cpu = simulator.cpu
    regs, specials = state
    cpu.r[:] = regs
    for name, value in specials.items():
        setattr(cpu, name, copy.deepcopy(value))
    try:
        outcome = ("exit", simulator.run())
    except SimulationTimeout:
        outcome = ("ran",)
    except Exception as exc:  # the message names the faulting pc
        return ("raise", type(exc).__name__, str(exc))
    pages = {number: bytes(page)
             for number, page in simulator.memory._pages.items()}
    return (outcome, cpu.pc, cpu.npc, cpu.r,
            [getattr(cpu, name) for name in specials], simulator.output,
            pages)


@pytest.mark.parametrize("arch", ["sparc", "mips"])
def test_generated_semantics_equivalent_to_handwritten(arch, monkeypatch):
    """Every instruction of the description, at random words and
    states, runs as code generated from its RTL (one-instruction
    blocks, compiled on first visit) exactly as the handwritten model
    runs it."""
    from repro.sim import blocks

    monkeypatch.setattr(blocks, "WARM_THRESHOLD", 1)
    desc = load_description(arch)
    rng = random.Random(3)
    for name in desc.instructions:
        for _ in range(30):
            word = _random_word_for(desc, name, rng)
            state = _random_state(arch, rng)
            expected = _run_word(arch, word, state, "handwritten")
            assert _run_word(arch, word, state, "block") == expected, \
                (name, hex(word))


@pytest.mark.parametrize("arch", ["sparc", "mips"])
def test_spawn_encode_equivalent(arch):
    spawn_codec = build_codec(arch)
    hand = get_codec(arch)
    if arch == "sparc":
        cases = [("add", dict(rd=9, rs1=8, simm13=-5)),
                 ("sethi", dict(rd=4, imm22=0x3FF)),
                 ("call", dict(disp30=-100)),
                 ("bne,a", dict(disp22=12)),
                 ("ld", dict(rd=3, rs1=14, simm13=-8)),
                 ("jmpl", dict(rd=15, rs1=9, simm13=0)),
                 ("ta", dict(trap_num=0)),
                 ("save", dict(rd=14, rs1=14, simm13=-96))]
    else:
        cases = [("addu", dict(rd=2, rs=4, rt=5)),
                 ("addiu", dict(rt=2, rs=4, imm16=-3)),
                 ("lw", dict(rt=2, rs=29, imm16=4)),
                 ("beq", dict(rs=4, rt=5, imm16=6)),
                 ("jal", dict(target26=0x1234)),
                 ("syscall", dict())]
    for name, kwargs in cases:
        assert spawn_codec.encode(name, **kwargs) \
            == hand.encode(name, **kwargs), name


def test_spawn_invalid_word():
    spawn_codec = build_codec("sparc")
    assert spawn_codec.decode(0).category is Category.INVALID


def test_spawn_with_control_target():
    spawn_codec = build_codec("sparc")
    hand = get_codec("sparc")
    word = hand.encode("bne", disp22=0)
    assert spawn_codec.with_control_target(word, 0x1000, 0x1404) \
        == hand.with_control_target(word, 0x1000, 0x1404)
    from repro.isa.base import SpanError

    with pytest.raises(SpanError):
        spawn_codec.with_control_target(word, 0, 0x4000000)


_FUZZ_CORPUS = os.path.join(os.path.dirname(__file__), os.pardir,
                            "fuzz-corpus")
_GENERATOR_SEEDS = range(20)


def _differential_cases():
    """(name, source) for every program the description must run: the
    18 workloads, the fuzz reproducers and generated programs of both
    architectures."""
    from repro.verify import corpus_names
    from repro.workloads import builder

    cases = [(name, "mips" if name in builder.mips_program_names()
              else "sparc") for name in corpus_names()]
    for path in sorted(glob.glob(os.path.join(_FUZZ_CORPUS, "*.json"))):
        cases.append((os.path.basename(path)[:-len(".json")], "reproducer"))
    for arch in ("sparc", "mips"):
        cases.extend(("seed%d" % seed, "gen-" + arch)
                     for seed in _GENERATOR_SEEDS)
    return cases


def _differential_image(name, source):
    from repro.fuzz.gen import GenConfig, generate, plan_to_program
    from repro.workloads import build_image, build_mips_image

    if source == "sparc":
        return build_image(name)
    if source == "mips":
        return build_mips_image(name)
    if source == "reproducer":
        with open(os.path.join(_FUZZ_CORPUS, name + ".json")) as handle:
            return plan_to_program(json.load(handle)["plan"]).image
    return generate(int(name[len("seed"):]),
                    GenConfig(arch=source[len("gen-"):])).image


def _observe(image, engine):
    from repro.sim import run_image

    try:
        simulator = run_image(image, count_pcs=True, engine=engine,
                              max_steps=2_000_000)
    except Exception as exc:
        return ("raise", type(exc).__name__, str(exc))
    return ("exit", simulator.output, simulator.exit_code,
            simulator.instructions_executed, simulator.pc_counts)


@pytest.mark.parametrize("name,builder", _differential_cases())
def test_spawn_executor_differential(name, builder, monkeypatch):
    """Programs run identically when every compilable pc executes code
    generated from the description (the block engine, compiling on
    first visit) and under the handwritten model."""
    from repro.sim import blocks

    monkeypatch.setattr(blocks, "WARM_THRESHOLD", 1)
    image = _differential_image(name, builder)
    expected = _observe(image, "handwritten")
    assert _observe(image, "block") == expected


@pytest.mark.parametrize("arch", ["sparc", "mips"])
def test_generated_source_is_importable_and_consistent(arch):
    source = generate_source(arch)
    namespace = {}
    exec(compile(source, "generated_%s.py" % arch, "exec"), namespace)
    spawn_codec = build_codec(arch)
    # The codec runs exactly this module.
    assert spawn_codec.source == source
    desc = load_description(arch)
    rng = random.Random(11)
    for name in desc.instructions:
        # decode() names every instruction at its canonical encoding and
        # at random words of its pattern.
        inst_def = desc.instructions[name]
        word = 0
        for field_name, value in inst_def.constraints.items():
            field = desc.fields[field_name]
            word = bits.insert(word, field.lo, field.hi, value)
        assert namespace["decode"](word) == name
        for _ in range(5):
            word = _random_word_for(desc, name, rng)
            assert spawn_codec.match(word).name == name, (name, hex(word))
    # Every field accessor extracts its bits; every inserter puts them
    # back.
    for field in desc.fields.values():
        extract = namespace["FIELD_EXTRACTORS"][field.name]
        insert = namespace["FIELD_INSERTERS"][field.name]
        for word in [0, 0xFFFFFFFF] + [rng.getrandbits(32)
                                       for _ in range(20)]:
            value = (bits.extract_signed if field.signed
                     else bits.extract)(word, field.lo, field.hi)
            assert extract(word) == value, (field.name, hex(word))
            assert insert(0, value) == bits.insert(0, field.lo, field.hi,
                                                   value)
            assert insert(word, value) == word


@pytest.mark.parametrize("arch", ["sparc", "mips"])
def test_spawn_encode_errors(arch):
    spawn_codec = build_codec(arch)
    name, field = ("add", "simm13") if arch == "sparc" \
        else ("addiu", "imm16")
    width = spawn_codec.description.fields[field].width
    assert spawn_codec.encode(name, **{field: -(1 << (width - 1))})
    with pytest.raises(SpanError):
        spawn_codec.encode(name, **{field: 1 << (width - 1)})
    with pytest.raises(SpanError):
        spawn_codec.encode(name, **{field: -(1 << (width - 1)) - 1})
    with pytest.raises(ValueError):
        spawn_codec.encode(name, no_such_field=1)
    with pytest.raises(ValueError):
        spawn_codec.encode("no_such_instruction")


def test_generated_source_much_longer_than_description():
    """The paper's expansion: 145 description lines -> 6,178 generated."""
    for arch in ("sparc", "mips"):
        desc = load_description(arch)
        generated = generate_source(arch)
        assert len(generated.splitlines()) > 8 * desc.source_lines
