"""Handwritten MIPS codec: decode, encode, classify."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import bits, get_codec, get_conventions
from repro.isa.base import Category, SpanError
from repro.isa.mips.handwritten import (
    I_TYPE,
    OP_J,
    OP_JAL,
    OP_REGIMM,
    R_TYPE,
    REG_RA,
    REGIMM,
)

codec = get_codec("mips")


def test_rtype_roundtrip():
    word = codec.encode("addu", rd=2, rs=4, rt=5)
    inst = codec.decode(word)
    assert inst.name == "addu"
    assert inst.reads == frozenset({4, 5})
    assert inst.writes == frozenset({2})


def test_zero_register_filtered():
    word = codec.encode("addu", rd=0, rs=4, rt=5)
    assert codec.decode(word).writes == frozenset()


def test_shift():
    inst = codec.decode(codec.encode("sll", rd=2, rt=3, shamt=7))
    assert inst.get_field("shamt") == 7
    assert inst.reads == frozenset({3})


def test_nop_decodes_as_sll():
    inst = codec.decode(0)
    assert inst.name == "sll"
    assert inst.writes == frozenset()


def test_immediate_sign():
    inst = codec.decode(codec.encode("addiu", rt=2, rs=3, imm16=-4))
    assert inst.get_field("imm16") == -4


def test_branches():
    beq = codec.decode(codec.encode("beq", rs=4, rt=5, imm16=3))
    assert beq.category is Category.BRANCH
    assert beq.is_delayed and not beq.annul_untaken
    assert codec.control_target(beq, 0x100) == 0x100 + 4 + 12

    likely = codec.decode(codec.encode("bnel", rs=4, rt=5, imm16=3))
    assert likely.annul_untaken  # branch-likely = annulled variant


def test_regimm_branches():
    bltz = codec.decode(codec.encode("bltz", rs=9, imm16=-2))
    assert bltz.category is Category.BRANCH
    assert bltz.cond == "ltz"
    bgezl = codec.decode(codec.encode("bgezl", rs=9, imm16=-2))
    assert bgezl.annul_untaken


def test_jumps():
    j = codec.decode(codec.encode("j", target26=0x400))
    assert j.category is Category.JUMP
    assert codec.control_target(j, 0x1000) == 0x1000


def test_j_region_semantics():
    j = codec.decode(codec.encode("j", target26=0x40))
    assert codec.control_target(j, 0x10000000) == 0x10000100


def test_jal_writes_ra():
    jal = codec.decode(codec.encode("jal", target26=0x400))
    assert jal.category is Category.CALL
    assert jal.writes == frozenset({31})


def test_jr_overloads():
    ret = codec.decode(codec.encode("jr", rs=31))
    assert ret.category is Category.RETURN
    jump = codec.decode(codec.encode("jr", rs=25))
    assert jump.category is Category.JUMP_INDIRECT


def test_jalr():
    inst = codec.decode(codec.encode("jalr", rs=25))
    assert inst.category is Category.CALL_INDIRECT
    assert inst.writes == frozenset({31})


def test_memory():
    lb = codec.decode(codec.encode("lb", rt=8, rs=29, imm16=-4))
    assert lb.category is Category.LOAD
    assert lb.mem_width == 1 and lb.mem_signed
    sw = codec.decode(codec.encode("sw", rt=8, rs=29, imm16=0))
    assert sw.category is Category.STORE
    assert 8 in sw.reads


def test_lui():
    inst = codec.decode(codec.encode("lui", rt=8, uimm16=0x1234))
    assert inst.get_field("uimm16") == 0x1234
    assert inst.reads == frozenset()


def test_multdiv_hi_lo():
    mult = codec.decode(codec.encode("mult", rs=4, rt=5))
    assert codec.regs.number("$hi") in mult.writes
    assert codec.regs.number("$lo") in mult.writes
    mflo = codec.decode(codec.encode("mflo", rd=2))
    assert codec.regs.number("$lo") in mflo.reads


def test_syscall():
    inst = codec.decode(codec.encode("syscall"))
    assert inst.category is Category.SYSTEM
    assert 2 in inst.reads  # $v0


def test_invalid():
    assert codec.decode(0xFC000000).category is Category.INVALID


def test_invert_branch():
    word = codec.encode("beq", rs=1, rt=2, imm16=5)
    assert codec.decode(codec.invert_branch(word)).name == "bne"
    word = codec.encode("bltzl", rs=1, imm16=5)
    assert codec.decode(codec.invert_branch(word)).name == "bgezl"


def test_clear_annul_converts_likely():
    word = codec.encode("beql", rs=1, rt=2, imm16=5)
    cleared = codec.decode(codec.clear_annul(word))
    assert cleared.name == "beq"
    assert not cleared.annul_untaken


def test_with_control_target():
    word = codec.encode("bne", rs=1, rt=2, imm16=0)
    patched = codec.with_control_target(word, 0x1000, 0x1100)
    assert codec.control_target(codec.decode(patched), 0x1000) == 0x1100
    with pytest.raises(SpanError):
        codec.with_control_target(word, 0x1000, 0x1000000)


def test_j_region_violation():
    word = codec.encode("j", target26=0)
    with pytest.raises(SpanError):
        codec.with_control_target(word, 0x1000, 0x20000000)


def test_disassemble_smoke():
    assert codec.disassemble(0) == "nop"
    assert "addu" in codec.disassemble(codec.encode("addu", rd=2, rs=4,
                                                    rt=5))
    assert "lw" in codec.disassemble(codec.encode("lw", rt=2, rs=29,
                                                  imm16=8))


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_decode_total(word):
    assert codec.decode(word).category in Category


# ----------------------------------------------------------------------
# Field-by-field reference: the encoder and register rebinding written
# one bits.insert per field (rebinding decodes and re-encodes).  The
# codec's table encoder and the conventions' mask rebinding must agree
# with it on every input, including out-of-range fields (same word, or
# the same exception).
# ----------------------------------------------------------------------


def _reference_rtype(name, fields):
    funct, kind = R_TYPE[name]
    word = bits.insert(0, 0, 5, funct)
    word = bits.insert(word, 11, 15, fields.get("rd", 0))
    word = bits.insert(word, 21, 25, fields.get("rs", 0))
    word = bits.insert(word, 16, 20, fields.get("rt", 0))
    word = bits.insert(word, 6, 10, fields.get("shamt", 0))
    if kind == "syscall":
        word = bits.insert(word, 6, 25, fields.get("code", 0))
    if kind == "jalr" and "rd" not in fields:
        word = bits.insert(word, 11, 15, REG_RA)
    return word


def _reference_itype(name, fields):
    opcode, _kind = I_TYPE[name]
    word = bits.insert(0, 26, 31, opcode)
    word = bits.insert(word, 21, 25, fields.get("rs", 0))
    word = bits.insert(word, 16, 20, fields.get("rt", 0))
    if "uimm16" in fields:
        if not bits.fits_unsigned(fields["uimm16"], 16):
            raise SpanError("unsigned immediate out of range")
        return bits.insert(word, 0, 15, fields["uimm16"])
    imm16 = fields.get("imm16", 0)
    if not bits.fits_signed(imm16, 16):
        raise SpanError("immediate %d out of range" % imm16)
    return bits.insert(word, 0, 15, imm16)


def reference_encode(name, **fields):
    if name in R_TYPE:
        return _reference_rtype(name, fields)
    if name in REGIMM:
        word = bits.insert(0, 26, 31, OP_REGIMM)
        word = bits.insert(word, 16, 20, REGIMM[name])
        word = bits.insert(word, 21, 25, fields.get("rs", 0))
        imm16 = fields["imm16"]
        if not bits.fits_signed(imm16, 16):
            raise SpanError("branch displacement out of range")
        return bits.insert(word, 0, 15, imm16)
    if name in ("j", "jal"):
        word = bits.insert(0, 26, 31, OP_J if name == "j" else OP_JAL)
        return bits.insert(word, 0, 25, fields["target26"])
    if name in I_TYPE:
        return _reference_itype(name, fields)
    raise ValueError("cannot encode unknown instruction %r" % name)


def reference_rebind(words, mapping):
    if not mapping:
        return list(words)
    out = []
    for word in words:
        inst = codec.decode(word)
        fields = dict(inst.fields)
        changed = False
        for field_name in ("rs", "rt", "rd"):
            if field_name in fields and fields[field_name] in mapping:
                fields[field_name] = mapping[fields[field_name]]
                changed = True
        if changed:
            word = reference_encode(inst.name, **fields)
        out.append(word)
    return out


MNEMONICS = (sorted(R_TYPE) + sorted(REGIMM) + sorted(I_TYPE)
             + ["j", "jal", "frobnicate"])
FIELD_NAMES = ("rd", "rs", "rt", "shamt", "code", "imm16", "uimm16",
               "target26")
# Values inside, at the edges of, and well outside every field's range.
_EDGES = sorted({sign * (1 << width) + delta for width in (5, 15, 16, 20,
                                                           26)
                 for sign in (1, -1) for delta in (-1, 0, 1)})
FIELD_VALUES = st.one_of(st.integers(min_value=-40, max_value=40),
                         st.sampled_from(_EDGES),
                         st.integers(min_value=-(1 << 17),
                                     max_value=1 << 17),
                         st.integers(min_value=-(1 << 34),
                                     max_value=1 << 34))


def _outcome(function, *args, **kwargs):
    try:
        return ("word", function(*args, **kwargs))
    except Exception as error:  # the exception itself is the outcome
        return (type(error), str(error))


@settings(max_examples=300)
@given(st.sampled_from(MNEMONICS),
       st.dictionaries(st.sampled_from(FIELD_NAMES), FIELD_VALUES))
def test_encode_matches_field_by_field_reference(name, fields):
    assert _outcome(codec.encode, name, **fields) \
        == _outcome(reference_encode, name, **fields)


def test_encode_matches_reference_on_every_mnemonic_in_range():
    for name in MNEMONICS[:-1]:
        for fields in ({"rd": 2, "rs": 4, "rt": 5},
                       {"rd": 9, "rt": 3, "shamt": 31}, {"rs": 31},
                       {"rs": 8, "imm16": -4}, {"rt": 8, "uimm16": 0xFFFF},
                       {"code": 0xFFFFF, "rs": 3}, {"target26": 0x3FFFFFF},
                       {"rs": 29, "rt": 8, "imm16": 0x7FFF}, {}):
            assert _outcome(codec.encode, name, **fields) \
                == _outcome(reference_encode, name, **fields), (name, fields)


def test_encode_matches_reference_at_field_edges():
    for name in MNEMONICS:
        for field_name in FIELD_NAMES:
            for value in _EDGES:
                fields = {field_name: value}
                assert _outcome(codec.encode, name, **fields) \
                    == _outcome(reference_encode, name, **fields), \
                    (name, fields)


# Registers mostly from a small pool, so that fields hit the mapping.
_REGS = st.one_of(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=31))
# Words of every opcode and every R-type funct, valid or not, with
# register fields drawn from the pool.
_WORDS = st.one_of(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.builds(lambda opcode, rs, rt, low: (opcode << 26 | rs << 21
                                           | rt << 16 | low),
              st.sampled_from(sorted({0, OP_REGIMM, OP_J, OP_JAL}
                                     | {op for op, _ in I_TYPE.values()}
                                     | {0x3F})),
              _REGS, st.one_of(st.integers(min_value=0, max_value=5), _REGS),
              st.integers(min_value=0, max_value=0xFFFF)),
    st.builds(lambda rs, rt, rd, shamt, funct: (rs << 21 | rt << 16
                                                | rd << 11 | shamt << 6
                                                | funct),
              _REGS, _REGS, _REGS, _REGS,
              st.sampled_from(sorted({funct for funct, _ in R_TYPE.values()}
                                     | {0x3F}))))
_MAPPINGS = st.dictionaries(_REGS, st.integers(min_value=-40, max_value=80),
                            min_size=1)


@settings(max_examples=300)
@given(st.lists(_WORDS, min_size=1, max_size=8), _MAPPINGS)
def test_rebind_matches_field_by_field_reference(words, mapping):
    conventions = get_conventions("mips")
    assert conventions.rebind_registers(words, mapping) \
        == reference_rebind(words, mapping)
