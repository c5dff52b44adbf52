"""Handwritten SPARC codec: decode, encode, classify."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import bits, get_codec, get_conventions
from repro.isa.base import Category, SpanError
from repro.isa.sparc.handwritten import (
    ALU_OP3,
    BRANCH_CONDS,
    COND_NUMBER,
    MEM_OPS,
    OP3_JMPL,
    OP3_RDPSR,
    OP3_RESTORE,
    OP3_SAVE,
    OP3_TRAP,
    OP3_WRPSR,
    TRAP_ALWAYS_COND,
)

codec = get_codec("sparc")


def test_alu_roundtrip_immediate():
    word = codec.encode("add", rd=9, rs1=8, simm13=-42)
    inst = codec.decode(word)
    assert inst.name == "add"
    assert inst.get_field("simm13") == -42
    assert inst.get_field("rd") == 9
    assert inst.category is Category.COMPUTE


def test_alu_roundtrip_register():
    word = codec.encode("xor", rd=2, rs1=3, rs2=4)
    inst = codec.decode(word)
    assert inst.reads == frozenset({3, 4})
    assert inst.writes == frozenset({2})


def test_g0_writes_discarded_from_sets():
    word = codec.encode("subcc", rd=0, rs1=8, simm13=5)  # cmp
    inst = codec.decode(word)
    assert 0 not in inst.writes
    assert 32 in inst.writes  # %icc


def test_cc_ops_write_icc():
    for name in ("addcc", "andcc", "orcc", "xorcc", "subcc"):
        inst = codec.decode(codec.encode(name, rd=1, rs1=2, rs2=3))
        assert 32 in inst.writes, name


def test_sethi():
    word = codec.encode("sethi", rd=4, imm22=0x12345)
    inst = codec.decode(word)
    assert inst.name == "sethi"
    assert inst.get_field("imm22") == 0x12345
    assert inst.writes == frozenset({4})


def test_nop_is_sethi_zero():
    inst = codec.decode(codec.nop_word)
    assert inst.name == "sethi"
    assert inst.writes == frozenset()


def test_call():
    word = codec.encode("call", disp30=0x100)
    inst = codec.decode(word)
    assert inst.category is Category.CALL
    assert inst.is_delayed
    assert inst.writes == frozenset({15})
    assert codec.control_target(inst, 0x1000) == 0x1000 + 0x400


def test_branch_variants():
    plain = codec.decode(codec.encode("bne", disp22=4))
    assert plain.category is Category.BRANCH
    assert plain.cond == "ne"
    assert plain.is_delayed and not plain.annul_untaken
    annulled = codec.decode(codec.encode("bne,a", disp22=4))
    assert annulled.annul_untaken and annulled.is_delayed
    assert annulled.reads == frozenset({32})


def test_ba_annulled_has_no_delay():
    inst = codec.decode(codec.encode("ba,a", disp22=-2))
    assert inst.cond == "a"
    assert not inst.is_delayed
    assert not inst.annul_untaken


def test_branch_always_and_never_read_no_cc():
    for name in ("ba", "bn"):
        inst = codec.decode(codec.encode(name, disp22=1))
        assert inst.reads == frozenset()


def test_branch_target_negative():
    inst = codec.decode(codec.encode("be", disp22=-3))
    assert codec.control_target(inst, 0x2000) == 0x2000 - 12


def test_jmpl_overloads():
    icall = codec.decode(codec.encode("jmpl", rd=15, rs1=9, simm13=0))
    assert icall.category is Category.CALL_INDIRECT
    ret = codec.decode(codec.encode("jmpl", rd=0, rs1=31, simm13=8))
    assert ret.category is Category.RETURN
    retl = codec.decode(codec.encode("jmpl", rd=0, rs1=15, simm13=8))
    assert retl.category is Category.RETURN
    literal = codec.decode(codec.encode("jmpl", rd=0, rs1=0, simm13=64))
    assert literal.category is Category.JUMP
    assert codec.control_target(literal, 0) == 64
    indirect = codec.decode(codec.encode("jmpl", rd=0, rs1=9, simm13=0))
    assert indirect.category is Category.JUMP_INDIRECT


def test_loads_and_stores():
    load = codec.decode(codec.encode("ldsb", rd=3, rs1=14, simm13=-1))
    assert load.category is Category.LOAD
    assert load.mem_width == 1 and load.mem_signed
    store = codec.decode(codec.encode("sth", rd=3, rs1=14, simm13=2))
    assert store.category is Category.STORE
    assert store.mem_width == 2
    assert 3 in store.reads  # stored value is read


def test_trap():
    inst = codec.decode(codec.encode("ta", trap_num=0))
    assert inst.category is Category.SYSTEM
    assert 1 in inst.reads  # %g1 syscall number


def test_save_restore():
    save = codec.decode(codec.encode("save", rd=14, rs1=14, simm13=-96))
    assert save.category is Category.COMPUTE
    assert save.name == "save"


def test_invalid_word():
    inst = codec.decode(0x00000000)
    assert inst.category is Category.INVALID
    assert not inst.is_valid


def test_decode_interning():
    word = codec.encode("add", rd=1, rs1=2, simm13=3)
    assert codec.decode(word) is codec.decode(word)


def test_with_control_target_branch():
    word = codec.encode("bne", disp22=0)
    patched = codec.with_control_target(word, 0x1000, 0x1040)
    assert codec.control_target(codec.decode(patched), 0x1000) == 0x1040


def test_with_control_target_span_error():
    word = codec.encode("bne", disp22=0)
    with pytest.raises(SpanError):
        codec.with_control_target(word, 0, 0x4000000)


def test_with_control_target_misaligned():
    word = codec.encode("call", disp30=0)
    with pytest.raises(SpanError):
        codec.with_control_target(word, 0, 0x1002)


def test_invert_branch():
    word = codec.encode("bne", disp22=7)
    assert codec.decode(codec.invert_branch(word)).cond == "e"
    word = codec.encode("bgu", disp22=7)
    assert codec.decode(codec.invert_branch(word)).cond == "leu"


def test_invert_non_branch_raises():
    with pytest.raises(ValueError):
        codec.invert_branch(codec.encode("add", rd=1, rs1=1, simm13=1))


def test_clear_annul():
    word = codec.encode("bne,a", disp22=7)
    cleared = codec.decode(codec.clear_annul(word))
    assert not cleared.annul_untaken
    assert cleared.cond == "ne"


def test_disassemble_smoke():
    assert codec.disassemble(codec.encode("add", rd=9, rs1=8, simm13=5)) \
        == "add %o0, 5, %o1"
    assert "call" in codec.disassemble(codec.encode("call", disp30=4), 0)
    assert codec.disassemble(codec.nop_word) == "nop"
    assert codec.disassemble(
        codec.encode("jmpl", rd=0, rs1=31, simm13=8)) == "ret"


def test_encode_range_checks():
    with pytest.raises(SpanError):
        codec.encode("add", rd=1, rs1=1, simm13=5000)
    with pytest.raises(SpanError):
        codec.encode("bne", disp22=1 << 22)


def test_encode_unknown_raises():
    with pytest.raises(ValueError):
        codec.encode("frobnicate")


@given(st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_decode_total(word):
    """Decoding never raises: unknown words classify as INVALID."""
    inst = codec.decode(word)
    assert inst.category in Category


@given(st.integers(min_value=-4096, max_value=4095),
       st.integers(min_value=0, max_value=31),
       st.integers(min_value=0, max_value=31))
def test_alu_imm_roundtrip_property(simm13, rd, rs1):
    word = codec.encode("add", rd=rd, rs1=rs1, simm13=simm13)
    inst = codec.decode(word)
    assert inst.get_field("simm13") == simm13
    assert inst.get_field("rd") == rd
    assert inst.get_field("rs1") == rs1


# ----------------------------------------------------------------------
# Field-by-field reference: the encoder and register rebinding written
# one bits.insert per field.  The codec's table encoder and the
# conventions' mask rebinding must agree with it on every input,
# including out-of-range fields (same word, or the same exception).
# ----------------------------------------------------------------------


def _reference_branch_cond(name):
    if not name.startswith("b"):
        return None
    base = name[1:]
    if base.endswith(",a"):
        base = base[:-2]
    return base if base in COND_NUMBER else None


def _reference_format3(op, op3, fields):
    word = bits.insert(0, 30, 31, op)
    word = bits.insert(word, 19, 24, op3)
    word = bits.insert(word, 25, 29, fields.get("rd", 0))
    word = bits.insert(word, 14, 18, fields.get("rs1", 0))
    if "simm13" in fields:
        simm13 = fields["simm13"]
        if not bits.fits_signed(simm13, 13):
            raise SpanError("simm13 value %d out of range" % simm13)
        word = bits.insert(word, 13, 13, 1)
        word = bits.insert(word, 0, 12, simm13)
    else:
        word = bits.insert(word, 13, 13, 0)
        word = bits.insert(word, 0, 4, fields.get("rs2", 0))
    return word


def reference_encode(name, **fields):
    if name == "call":
        disp30 = fields["disp30"]
        if not bits.fits_signed(disp30, 30):
            raise SpanError("call displacement %d out of range" % disp30)
        return bits.to_u32((1 << 30) | (disp30 & bits.mask(30)))
    if name == "sethi":
        word = bits.insert(0, 22, 24, 0b100)
        word = bits.insert(word, 25, 29, fields["rd"])
        return bits.insert(word, 0, 21, fields["imm22"])
    base = _reference_branch_cond(name)
    if base is not None:
        aflag = 1 if name.endswith(",a") else 0
        disp22 = fields["disp22"]
        if not bits.fits_signed(disp22, 22):
            raise SpanError("branch displacement %d out of range" % disp22)
        word = bits.insert(0, 22, 24, 0b010)
        word = bits.insert(word, 25, 28, COND_NUMBER[base])
        word = bits.insert(word, 29, 29, fields.get("aflag", aflag))
        return bits.insert(word, 0, 21, disp22)
    if name in ALU_OP3:
        return _reference_format3(2, ALU_OP3[name], fields)
    if name in ("jmpl", "save", "restore"):
        op3 = {"jmpl": OP3_JMPL, "save": OP3_SAVE,
               "restore": OP3_RESTORE}[name]
        return _reference_format3(2, op3, fields)
    if name == "rdpsr":
        word = bits.insert(0, 30, 31, 2)
        word = bits.insert(word, 19, 24, OP3_RDPSR)
        return bits.insert(word, 25, 29, fields["rd"])
    if name == "wrpsr":
        word = bits.insert(0, 30, 31, 2)
        word = bits.insert(word, 19, 24, OP3_WRPSR)
        return bits.insert(word, 14, 18, fields["rs1"])
    if name == "ta":
        word = bits.insert(0, 30, 31, 2)
        word = bits.insert(word, 19, 24, OP3_TRAP)
        word = bits.insert(word, 25, 28, TRAP_ALWAYS_COND)
        word = bits.insert(word, 13, 13, 1)
        return bits.insert(word, 0, 6, fields.get("trap_num", 0))
    if name in MEM_OPS:
        return _reference_format3(3, MEM_OPS[name][0], fields)
    raise ValueError("cannot encode unknown instruction %r" % name)


def _reference_rebind_format3(word, mapping):
    op = bits.extract(word, 30, 31)
    op3 = bits.extract(word, 19, 24)
    if op == 2 and op3 == OP3_TRAP:
        return word
    rd = bits.extract(word, 25, 29)
    rs1 = bits.extract(word, 14, 18)
    if op == 2 and op3 == OP3_WRPSR:
        if rs1 in mapping:
            word = bits.insert(word, 14, 18, mapping[rs1])
        return word
    if rd in mapping:
        word = bits.insert(word, 25, 29, mapping[rd])
    if rs1 in mapping and not (op == 2 and op3 == OP3_RDPSR):
        word = bits.insert(word, 14, 18, mapping[rs1])
    if not bits.extract(word, 13, 13):
        rs2 = bits.extract(word, 0, 4)
        if rs2 in mapping:
            word = bits.insert(word, 0, 4, mapping[rs2])
    return word


def reference_rebind(words, mapping):
    if not mapping:
        return list(words)
    out = []
    for word in words:
        op = bits.extract(word, 30, 31)
        if op in (2, 3):
            word = _reference_rebind_format3(word, mapping)
        elif op == 0 and bits.extract(word, 22, 24) == 0b100:
            rd = bits.extract(word, 25, 29)
            if rd in mapping:
                word = bits.insert(word, 25, 29, mapping[rd])
        out.append(word)
    return out


MNEMONICS = (sorted(ALU_OP3) + sorted(MEM_OPS)
             + ["b" + cond for cond in BRANCH_CONDS]
             + ["b" + cond + ",a" for cond in BRANCH_CONDS]
             + ["call", "sethi", "jmpl", "save", "restore", "rdpsr",
                "wrpsr", "ta", "frobnicate"])
FIELD_NAMES = ("rd", "rs1", "rs2", "simm13", "imm22", "disp22", "disp30",
               "aflag", "trap_num")
# Values inside, at the edges of, and well outside every field's range.
_EDGES = sorted({sign * (1 << width) + delta for width in (4, 5, 7, 12, 13,
                                                           21, 22, 29, 30)
                 for sign in (1, -1) for delta in (-1, 0, 1)})
FIELD_VALUES = st.one_of(st.integers(min_value=-40, max_value=40),
                         st.sampled_from(_EDGES),
                         st.integers(min_value=-(1 << 23),
                                     max_value=1 << 23),
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
        for fields in ({"rd": 9, "rs1": 14, "simm13": -96},
                       {"rd": 31, "rs1": 1, "rs2": 30},
                       {"rd": 3, "imm22": 0x3FFFFF}, {"disp22": -5},
                       {"disp22": 7, "aflag": 1}, {"disp30": -(1 << 29)},
                       {"rs1": 17, "rd": 16}, {"trap_num": 5}, {}):
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
# Words with every op, and the op3 values whose register fields are
# irregular drawn often enough to be hit.
_WORDS = st.one_of(
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.builds(lambda op, op3, rd, rs1, low: (op << 30 | rd << 25 | op3 << 19
                                              | rs1 << 14 | low),
              st.integers(min_value=2, max_value=3),
              st.sampled_from((OP3_TRAP, OP3_RDPSR, OP3_WRPSR, 0x00, 0x04)),
              _REGS, _REGS,
              st.one_of(_REGS, st.integers(min_value=0, max_value=0x3FFF))),
    st.builds(lambda op, rd, op2, imm: op << 30 | rd << 25 | op2 << 22 | imm,
              st.integers(min_value=0, max_value=1), _REGS,
              st.integers(min_value=0, max_value=7),
              st.integers(min_value=0, max_value=(1 << 22) - 1)))
_MAPPINGS = st.dictionaries(_REGS, st.integers(min_value=-40, max_value=80),
                            min_size=1)


@settings(max_examples=300)
@given(st.lists(_WORDS, min_size=1, max_size=8), _MAPPINGS)
def test_rebind_matches_field_by_field_reference(words, mapping):
    conventions = get_conventions("sparc")
    assert conventions.rebind_registers(words, mapping) \
        == reference_rebind(words, mapping)
