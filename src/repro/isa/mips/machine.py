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
        """The Figure 5 snippet, instantiated from one encoded template
        per register pair: the counter's address goes into the lw/sw
        offsets (its signed low half) and the lui (its upper half,
        adjusted for the sign of the low half)."""
        template = _COUNTER_TEMPLATES.get((tmp_addr_reg, tmp_val_reg))
        if template is None:
            template = _counter_template(self.codec, tmp_addr_reg,
                                         tmp_val_reg)
        upper, load, increment, store = template
        low = counter_addr & 0xFFFF
        return [upper | (counter_addr + 0x8000) >> 16 & 0xFFFF, load | low,
                increment, store | low]

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

    def direct_jump_reaches(self, pc, target):
        """True when j at *pc* reaches *target*: the same 256MB region as
        its delay slot."""
        return (target & 0xF0000000) == ((pc + 4) & 0xF0000000)

    def direct_jump(self, pc, target):
        # j is pseudo-absolute within a 256MB region of the delay slot.
        if not self.direct_jump_reaches(pc, target):
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
        out = list(words)
        if not mapping:
            return out
        for index, word in enumerate(out):
            opcode = word >> 26 & 0x3F
            if opcode == 0:
                spec = word & 0x3F
                spec = _REBIND_R[spec] if spec in _REBIND_R else None
            elif opcode == OP_REGIMM:
                spec = _REBIND_REGIMM \
                    if (word >> 16 & 0x1F) in REGIMM_BY_RT else None
            else:
                spec = _REBIND_I[opcode] if opcode in _REBIND_I else None
            if spec is None:
                continue
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
                out[index] = rebound & keep
        return out


# Counter-increment templates by (address register, value register):
# the four words with a zero counter address.
_COUNTER_TEMPLATES = {}


def _counter_template(codec, addr_reg, val_reg):
    template = _COUNTER_TEMPLATES[addr_reg, val_reg] = (
        codec.encode("lui", rt=addr_reg, uimm16=0),
        codec.encode("lw", rt=val_reg, rs=addr_reg, imm16=0),
        codec.encode("addiu", rt=val_reg, rs=val_reg, imm16=1),
        codec.encode("sw", rt=val_reg, rs=addr_reg, imm16=0),
    )
    return template


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
