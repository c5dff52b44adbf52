"""MIPS machine conventions (system-dependent fragments)."""

from repro.isa import bits
from repro.isa.base import MachineConventions, SpanError
from repro.isa.mips.handwritten import (
    I_TYPE,
    MipsCodec,
    OP_REGIMM,
    REGIMM_BY_RT,
    REG_AT,
    REG_RA,
    REG_SP,
    REG_V0,
    REG_ZERO,
    R_TYPE,
)

SPILL_BASE_OFFSET = -64


def hi16(value):
    """Upper half for lui, adjusted for the signed low half."""
    return ((value + 0x8000) >> 16) & 0xFFFF


def lo16(value):
    """Signed low half matching :func:`hi16`."""
    return bits.sign_extend(value & 0xFFFF, 16)


class MipsConventions(MachineConventions):
    arch = "mips"

    sp_reg = REG_SP
    retaddr_reg = REG_RA
    retval_reg = REG_V0
    syscall_num_reg = REG_V0
    # $at is reserved for the assembler by the MIPS ABI; the layout
    # engine clobbers it in long-branch stubs (lui/ori/jr).
    assembler_temp = REG_AT
    arg_regs = (4, 5, 6, 7)  # $a0-$a3
    cc_regs = frozenset()  # MIPS has no condition codes

    # Caller-saved temporaries, then $at.
    scavenge_candidates = tuple(range(8, 16)) + (24, 25, REG_AT)
    placeholder_regs = (8, 9, 10, 11)  # $t0-$t3

    @property
    def codec(self):
        return MipsCodec.instance()

    # ------------------------------------------------------------------
    def load_const(self, reg, value):
        value = bits.to_u32(value)
        codec = self.codec
        signed = bits.to_s32(value)
        if bits.fits_signed(signed, 16):
            return [codec.encode("addiu", rt=reg, rs=REG_ZERO, imm16=signed)]
        if value <= 0xFFFF:
            return [codec.encode("ori", rt=reg, rs=REG_ZERO, uimm16=value)]
        words = [codec.encode("lui", rt=reg, uimm16=(value >> 16) & 0xFFFF)]
        if value & 0xFFFF:
            words.append(codec.encode("ori", rt=reg, rs=reg,
                                      uimm16=value & 0xFFFF))
        return words

    def counter_increment(self, counter_addr, tmp_addr_reg, tmp_val_reg):
        codec = self.codec
        return [
            codec.encode("lui", rt=tmp_addr_reg, uimm16=hi16(counter_addr)),
            codec.encode("lw", rt=tmp_val_reg, rs=tmp_addr_reg,
                         imm16=lo16(counter_addr)),
            codec.encode("addiu", rt=tmp_val_reg, rs=tmp_val_reg, imm16=1),
            codec.encode("sw", rt=tmp_val_reg, rs=tmp_addr_reg,
                         imm16=lo16(counter_addr)),
        ]

    def spill(self, reg, slot):
        offset = SPILL_BASE_OFFSET - 4 * slot
        return [self.codec.encode("sw", rt=reg, rs=REG_SP, imm16=offset)]

    def unspill(self, reg, slot):
        offset = SPILL_BASE_OFFSET - 4 * slot
        return [self.codec.encode("lw", rt=reg, rs=REG_SP, imm16=offset)]

    def long_jump(self, scratch_reg, target):
        codec = self.codec
        words = self.load_const(scratch_reg, target)
        words.append(codec.encode("jr", rs=scratch_reg))
        words.append(codec.nop_word)
        return words

    def direct_jump(self, pc, target):
        # j is pseudo-absolute within a 256MB region of the delay slot.
        if (target & 0xF0000000) != ((pc + 4) & 0xF0000000):
            raise SpanError("j target outside 256MB region")
        return self.codec.encode("j", target26=(target & 0x0FFFFFFF) >> 2)

    def direct_jump_annulled(self, pc, target):
        # MIPS has no annulled unconditional jump; callers must lay out a
        # real delay slot after direct_jump instead.
        raise SpanError("mips has no annulled unconditional jump")

    def call_word(self, pc, target):
        if (target & 0xF0000000) != ((pc + 4) & 0xF0000000):
            raise SpanError("jal target outside 256MB region")
        return self.codec.encode("jal", target26=(target & 0x0FFFFFFF) >> 2)

    # ------------------------------------------------------------------
    def rebind_registers(self, words, mapping):
        """Rewrite the rs/rt/rd fields of snippet *words* per *mapping*.

        A rewritten word keeps only the bits its decoded fields cover,
        as if re-encoded from them (see :data:`_REBIND_R`).
        """
        if not mapping:
            return list(words)
        out = []
        for word in words:
            opcode = word >> 26 & 0x3F
            if opcode == 0:
                spec = _REBIND_R.get(word & 0x3F)
            elif opcode == OP_REGIMM:
                spec = _REBIND_REGIMM \
                    if (word >> 16 & 0x1F) in REGIMM_BY_RT else None
            else:
                spec = _REBIND_I.get(opcode)
            if spec is not None:
                shifts, keep = spec
                rebound = word
                changed = False
                for shift in shifts:
                    reg = word >> shift & 0x1F
                    if reg in mapping:
                        rebound = (rebound & ~(0x1F << shift)
                                   | (mapping[reg] & 0x1F) << shift)
                        changed = True
                if changed:
                    word = rebound & keep
            out.append(word)
        return out


# Register-field rebinding: (shifts of the rs/rt/rd fields the decoder
# reports, mask of the bits an encode from the decoded fields keeps).
_RS, _RT, _RD, _SHAMT = 21, 16, 11, 6


def _keep(*dropped):
    mask = 0xFFFFFFFF
    for shift in dropped:
        mask ^= 0x1F << shift
    return mask


_R_KINDS = {
    "shift": ((_RT, _RD), _keep(_RS)),
    "reg3": ((_RS, _RT, _RD), _keep(_SHAMT)),
    "reg3v": ((_RS, _RT, _RD), _keep(_SHAMT)),
    "jr": ((_RS,), _keep(_RT, _RD, _SHAMT)),
    "jalr": ((_RS, _RD), _keep(_RT, _SHAMT)),
    "mfhi": ((_RD,), _keep(_RS, _RT, _SHAMT)),
    "mflo": ((_RD,), _keep(_RS, _RT, _SHAMT)),
    "multdiv": ((_RS, _RT), _keep(_RD, _SHAMT)),
}
_I_KINDS = {
    "branch2": ((_RS, _RT), _keep()),
    "branch1": ((_RS,), _keep(_RT)),
    "imm": ((_RS, _RT), _keep()),
    "immu": ((_RS, _RT), _keep()),
    "lui": ((_RT,), _keep(_RS)),
    "load": ((_RS, _RT), _keep()),
    "store": ((_RS, _RT), _keep()),
}
_REBIND_R = {funct: _R_KINDS[kind] for funct, kind in R_TYPE.values()
             if kind in _R_KINDS}
_REBIND_I = {opcode: _I_KINDS[kind] for opcode, kind in I_TYPE.values()}
_REBIND_REGIMM = ((_RS,), _keep())
