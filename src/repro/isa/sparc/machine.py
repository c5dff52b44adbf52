"""SPARC machine conventions: the system-dependent fragments EEL needs.

Register roles, constant synthesis (sethi/or), the Figure-5 counter
snippet, spill code, and long-span jumps all live here so that the
machine-independent core and the portable tools never encode SPARC
knowledge themselves.
"""

from repro.isa import bits
from repro.isa.base import MachineConventions, SpanError
from repro.isa.sparc.handwritten import (
    OP3_RDPSR,
    OP3_TRAP,
    OP3_WRPSR,
    REG_FP,
    REG_G0,
    REG_ICC,
    REG_O7,
    REG_SP,
    SparcCodec,
)

# The unconditional branches with a zero displacement (direct jumps
# OR in theirs).
_BA = SparcCodec.instance().encode("ba", disp22=0)
_BA_A = SparcCodec.instance().encode("ba,a", disp22=0)

# Scratch-spill slots live below the stack pointer; the simulator has no
# asynchronous traps, so the area below %sp is never clobbered.
SPILL_BASE_OFFSET = -64


def hi22(value):
    """Upper 22 bits of a 32-bit constant, as sethi's imm22 field."""
    return (value >> 10) & bits.mask(22)


def lo10(value):
    """Low 10 bits of a 32-bit constant, for the or/ld/st immediate."""
    return value & bits.mask(10)


class SparcConventions(MachineConventions):
    arch = "sparc"

    sp_reg = REG_SP
    fp_reg = REG_FP
    retaddr_reg = REG_O7
    retval_reg = 8  # %o0
    syscall_num_reg = 1  # %g1
    # Scratch register the layout engine may clobber in long-branch
    # stubs (sethi/jmpl needs a base register).  %g1 is the SPARC ABI
    # "assembler temporary": dead across control transfers except in
    # the mov-%g1/ta syscall idiom, where the jump can only land on
    # the mov (block leaders), never between mov and ta.
    assembler_temp = 1  # %g1
    arg_regs = (8, 9, 10, 11, 12, 13)  # %o0-%o5
    cc_regs = frozenset({REG_ICC})

    # Registers a snippet may scavenge when liveness proves them dead.
    # Locals first (they are most often dead), then outs, then the
    # application globals %g2-%g4 (reserved for applications by the
    # SPARC ABI and untouched by our compiler and runtime), then %g1.
    scavenge_candidates = (tuple(range(16, 24)) + tuple(range(8, 14))
                           + (2, 3, 4, 1))

    # Placeholder registers used when writing snippet bodies; the snippet
    # register allocator rebinds them (paper section 3.5).
    placeholder_regs = (16, 17, 18, 19)  # %l0-%l3

    @property
    def codec(self):
        return SparcCodec.instance()

    # ------------------------------------------------------------------
    def load_const(self, reg, value):
        value = bits.to_u32(value)
        codec = self.codec
        if bits.fits_signed(bits.to_s32(value), 13):
            return [codec.encode("or", rd=reg, rs1=REG_G0, simm13=bits.to_s32(value))]
        words = [codec.encode("sethi", rd=reg, imm22=hi22(value))]
        if lo10(value):
            words.append(codec.encode("or", rd=reg, rs1=reg, simm13=lo10(value)))
        return words

    def counter_increment(self, counter_addr, tmp_addr_reg, tmp_val_reg):
        """The Figure 5 snippet: load, increment, and store a counter."""
        codec = self.codec
        return [
            codec.encode("sethi", rd=tmp_addr_reg, imm22=hi22(counter_addr)),
            codec.encode("ld", rd=tmp_val_reg, rs1=tmp_addr_reg,
                         simm13=lo10(counter_addr)),
            codec.encode("add", rd=tmp_val_reg, rs1=tmp_val_reg, simm13=1),
            codec.encode("st", rd=tmp_val_reg, rs1=tmp_addr_reg,
                         simm13=lo10(counter_addr)),
        ]

    def spill(self, reg, slot):
        offset = SPILL_BASE_OFFSET - 4 * slot
        return [self.codec.encode("st", rd=reg, rs1=REG_SP, simm13=offset)]

    def unspill(self, reg, slot):
        offset = SPILL_BASE_OFFSET - 4 * slot
        return [self.codec.encode("ld", rd=reg, rs1=REG_SP, simm13=offset)]

    def save_cc(self, reg):
        """Words that copy the condition codes into *reg*."""
        return [self.codec.encode("rdpsr", rd=reg)]

    def restore_cc(self, reg):
        """Words that restore the condition codes from *reg*."""
        return [self.codec.encode("wrpsr", rs1=reg)]

    def long_jump(self, scratch_reg, target):
        """sethi/jmpl pair reaching any 32-bit target; delay slot is a nop."""
        codec = self.codec
        return [
            codec.encode("sethi", rd=scratch_reg, imm22=hi22(target)),
            codec.encode("jmpl", rd=REG_G0, rs1=scratch_reg, simm13=lo10(target)),
            codec.nop_word,
        ]

    def direct_jump(self, pc, target):
        """An unconditional one-word branch (plus its delay slot is the
        caller's concern); raises SpanError beyond +-8MB."""
        offset = bits.to_s32(target - pc)
        if offset & 3 or not -0x200000 <= offset >> 2 <= 0x1FFFFF:
            raise SpanError("ba target out of span")
        return _BA | (offset >> 2) & 0x3FFFFF

    def direct_jump_annulled(self, pc, target):
        """ba,a: jump whose (absent) delay slot never executes."""
        offset = bits.to_s32(target - pc)
        if offset & 3 or not -0x200000 <= offset >> 2 <= 0x1FFFFF:
            raise SpanError("ba,a target out of span")
        return _BA_A | (offset >> 2) & 0x3FFFFF

    def call_word(self, pc, target):
        offset = bits.to_s32(target - pc)
        if offset & 3:
            raise SpanError("misaligned call target")
        return self.codec.encode("call", disp30=offset >> 2)

    # ------------------------------------------------------------------
    def rebind_registers(self, words, mapping):
        """Rewrite register fields of snippet *words* per *mapping*.

        Format-3 words rebind rd, rs1 and (register form) rs2, except
        that ``ta`` has no register fields, ``rdpsr`` reads no rs1 and
        ``wrpsr`` has only rs1; ``sethi`` rebinds rd.
        """
        if not mapping:
            return list(words)
        out = []
        for word in words:
            op = word >> 30 & 3
            if op >= 2:
                word = _rebind_format3(word, op, mapping)
            elif op == 0 and word & 0x01C00000 == 0x01000000:  # sethi
                rd = word >> 25 & 0x1F
                if rd in mapping:
                    word = word & 0xC1FFFFFF | (mapping[rd] & 0x1F) << 25
            out.append(word)
        return out



def _rebind_format3(word, op, mapping):
    op3 = word >> 19 & 0x3F
    if op == 2 and op3 == OP3_TRAP:
        return word
    rs1 = word >> 14 & 0x1F
    if rs1 in mapping and not (op == 2 and op3 == OP3_RDPSR):
        word = word & 0xFFF83FFF | (mapping[rs1] & 0x1F) << 14
    if op == 2 and op3 == OP3_WRPSR:
        return word
    rd = word >> 25 & 0x1F
    if rd in mapping:
        word = word & 0xC1FFFFFF | (mapping[rd] & 0x1F) << 25
    if not word & 0x2000:  # register form: rewrite rs2
        rs2 = word & 0x1F
        if rs2 in mapping:
            word = word & 0xFFFFFFE0 | mapping[rs2] & 0x1F
    return word
