"""Machine conventions: constant synthesis, counters, spills, rebinding."""

import pytest
from hypothesis import given, strategies as st

from repro.isa import get_codec, get_conventions


@pytest.fixture(params=["sparc", "mips"])
def arch(request):
    return request.param


def test_load_const_small(arch):
    conventions = get_conventions(arch)
    words = conventions.load_const(8, 42)
    assert len(words) == 1


def test_load_const_large(arch):
    conventions = get_conventions(arch)
    words = conventions.load_const(8, 0x12345678)
    assert len(words) == 2


def test_load_const_negative(arch):
    conventions = get_conventions(arch)
    assert len(conventions.load_const(8, -1 & 0xFFFFFFFF)) <= 2


def test_counter_increment_shape(arch):
    conventions = get_conventions(arch)
    codec = get_codec(arch)
    words = conventions.counter_increment(0x1000400, *conventions.
                                          placeholder_regs[:2])
    assert len(words) == 4
    categories = [codec.decode(w).category.value for w in words]
    assert "load" in categories and "store" in categories


def _counter_reference(arch, counter_addr, addr_reg, val_reg):
    """The Figure 5 words encoded field by field, as before templates."""
    codec = get_codec(arch)
    if arch == "sparc":
        low = counter_addr & 0x3FF
        return [
            codec.encode("sethi", rd=addr_reg,
                         imm22=counter_addr >> 10 & 0x3FFFFF),
            codec.encode("ld", rd=val_reg, rs1=addr_reg, simm13=low),
            codec.encode("add", rd=val_reg, rs1=val_reg, simm13=1),
            codec.encode("st", rd=val_reg, rs1=addr_reg, simm13=low),
        ]
    low = counter_addr & 0xFFFF
    low -= (low & 0x8000) << 1  # signed
    return [
        codec.encode("lui", rt=addr_reg,
                     uimm16=(counter_addr + 0x8000) >> 16 & 0xFFFF),
        codec.encode("lw", rt=val_reg, rs=addr_reg, imm16=low),
        codec.encode("addiu", rt=val_reg, rs=val_reg, imm16=1),
        codec.encode("sw", rt=val_reg, rs=addr_reg, imm16=low),
    ]


@pytest.mark.parametrize("isa", ["sparc", "mips"])
@given(counter_addr=st.integers(0, 2**32 - 1),
       regs=st.sampled_from([(0, 1), (1, 2)]))
def test_counter_template_matches_field_encoding(isa, counter_addr, regs):
    """The counter snippet instantiated from its template is the word
    sequence the encoder builds for the same address and registers."""
    conventions = get_conventions(isa)
    placeholders = conventions.placeholder_regs
    addr_reg, val_reg = placeholders[regs[0]], placeholders[regs[1]]
    assert conventions.counter_increment(counter_addr, addr_reg, val_reg) \
        == _counter_reference(isa, counter_addr, addr_reg, val_reg)


@pytest.mark.parametrize("counter_addr", [0, 0x3FF, 0x400, 0x7FFF, 0x8000,
                                          0xFFFF, 0x10000, 0x1000400,
                                          0xFFFF8000, 0xFFFFFFFF])
def test_counter_template_field_edges(arch, counter_addr):
    conventions = get_conventions(arch)
    addr_reg, val_reg = conventions.placeholder_regs[:2]
    assert conventions.counter_increment(counter_addr, addr_reg, val_reg) \
        == _counter_reference(arch, counter_addr, addr_reg, val_reg)


_REACH = {
    # target - pc -> whether a one-word jump at pc reaches it
    "sparc": {0: True, 4: True, -4: True, 0x7FFFFC: True,
              0x800000: False, -0x800000: True, -0x800004: False,
              2: False},
    # pc is 0x1ffffffc: its delay slot opens the 256MB region at
    # 0x20000000
    "mips": {0: False, 4: True, 8: True, 0x0FFFFFFC: True,
             0x10000008: False, -4: False},
}


def test_direct_jump_reaches_exactly_the_field_span(arch):
    """direct_jump_reaches is true exactly within the jump's span, and
    there the encoded jump decodes back to its target."""
    from repro.isa.base import SpanError

    conventions = get_conventions(arch)
    codec = get_codec(arch)
    pc = 0x10000000 if arch == "sparc" else 0x1FFFFFFC
    for delta, reaches in _REACH[arch].items():
        target = pc + delta
        assert conventions.direct_jump_reaches(pc, target) == reaches, \
            hex(delta)
        if not reaches:
            with pytest.raises(SpanError):
                conventions.direct_jump(pc, target)
            continue
        word = conventions.direct_jump(pc, target)
        assert codec.control_target(codec.decode(word), pc) == target


def test_spill_unspill_distinct_slots(arch):
    conventions = get_conventions(arch)
    a = conventions.spill(8, 0)[0]
    b = conventions.spill(8, 1)[0]
    assert a != b
    assert conventions.unspill(8, 0) != conventions.unspill(8, 1)


def test_rebind_registers(arch):
    conventions = get_conventions(arch)
    codec = get_codec(arch)
    p0, p1 = conventions.placeholder_regs[:2]
    words = conventions.counter_increment(0x1000400, p0, p1)
    rebound = conventions.rebind_registers(words, {p0: 4, p1: 5})
    for word in rebound:
        inst = codec.decode(word)
        assert p0 not in inst.reads | inst.writes
        assert p1 not in inst.reads | inst.writes


def test_rebind_empty_mapping_is_identity(arch):
    conventions = get_conventions(arch)
    words = conventions.counter_increment(0x1000400, *conventions.
                                          placeholder_regs[:2])
    assert conventions.rebind_registers(words, {}) == words


def test_long_jump_ends_in_indirect(arch):
    conventions = get_conventions(arch)
    codec = get_codec(arch)
    words = conventions.long_jump(conventions.placeholder_regs[0],
                                  0x12345678)
    kinds = [codec.decode(w).category.value for w in words]
    assert "jump_indirect" in kinds or "jump" in kinds


def test_sparc_cc_save_restore():
    conventions = get_conventions("sparc")
    codec = get_codec("sparc")
    save = conventions.save_cc(16)[0]
    restore = conventions.restore_cc(16)[0]
    assert codec.decode(save).name == "rdpsr"
    assert codec.decode(restore).name == "wrpsr"


def test_sparc_direct_jump_annulled():
    conventions = get_conventions("sparc")
    codec = get_codec("sparc")
    word = conventions.direct_jump_annulled(0x1000, 0x2000)
    inst = codec.decode(word)
    assert inst.cond == "a" and not inst.is_delayed
    assert codec.control_target(inst, 0x1000) == 0x2000


def test_mips_direct_jump_region():
    conventions = get_conventions("mips")
    from repro.isa.base import SpanError

    with pytest.raises(SpanError):
        conventions.direct_jump(0x1000, 0x30000000)
