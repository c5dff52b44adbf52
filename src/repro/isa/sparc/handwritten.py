"""Handwritten SPARC V8 subset codec.

This module is the analog of EEL's handwritten architecture-specific layer
(2,268 lines of C++ in the paper).  It decodes, encodes, classifies, and
disassembles the instruction subset used throughout this reproduction.

Encodings follow the SPARC V8 manual:

* format 1 (op=1):   ``call`` with a 30-bit word displacement.
* format 2 (op=0):   ``sethi`` (op2=0b100) and ``Bicc`` (op2=0b010) with
  annul bit, 4-bit condition, 22-bit word displacement.
* format 3 (op=2):   ALU, ``jmpl``, ``save``/``restore``, ``ta``.
* format 3 (op=3):   loads and stores.

Conventions baked in (paper Figure 6): ``jmpl`` is overloaded as indirect
call (rd = %o7), return (rs1 in {%o7, %i7}, imm 8), direct jump to a
literal (rs1 = %g0, immediate form), or indirect jump.
"""

from repro.isa import bits
from repro.isa.base import Category, DecodedInst, MachineCodec, RegisterSet, SpanError

# Integer registers: globals, outs, locals, ins.
INT_REG_NAMES = tuple(
    "%" + bank + str(n) for bank in ("g", "o", "l", "i") for n in range(8)
)

REG_G0 = 0
REG_O7 = 15  # call return address
REG_SP = 14  # %o6
REG_FP = 30  # %i6
REG_I7 = 31
REG_ICC = 32  # integer condition codes (pseudo register)
REG_Y = 33

SPARC_REGS = RegisterSet(
    "sparc",
    INT_REG_NAMES,
    ["%icc", "%y"],
    zero_regs={REG_G0},
)

# Branch condition mnemonics by cond field value (Bicc).
BRANCH_CONDS = (
    "n", "e", "le", "l", "leu", "cs", "neg", "vs",
    "a", "ne", "g", "ge", "gu", "cc", "pos", "vc",
)
COND_NUMBER = {name: number for number, name in enumerate(BRANCH_CONDS)}
# Condition inversion: cond k inverts to cond k ^ 8 on SPARC.
INVERSE_COND = {name: BRANCH_CONDS[number ^ 8] for number, name in enumerate(BRANCH_CONDS)}

# op3 values for format-3 op=2 (arithmetic) instructions.
ALU_OP3 = {
    "add": 0x00, "and": 0x01, "or": 0x02, "xor": 0x03,
    "sub": 0x04, "andn": 0x05, "orn": 0x06, "xnor": 0x07,
    "umul": 0x0A, "smul": 0x0B, "udiv": 0x0E, "sdiv": 0x0F,
    "addcc": 0x10, "andcc": 0x11, "orcc": 0x12, "xorcc": 0x13,
    "subcc": 0x14,
    "sll": 0x25, "srl": 0x26, "sra": 0x27,
}
ALU_BY_OP3 = {op3: name for name, op3 in ALU_OP3.items()}

OP3_JMPL = 0x38
OP3_TRAP = 0x3A
OP3_SAVE = 0x3C
OP3_RESTORE = 0x3D
# Deviation from SPARC V8: rd/wr %psr are unprivileged here so edited code
# can save and restore condition codes (the simulator has no privilege
# levels).  Documented in DESIGN.md.
OP3_RDPSR = 0x29
OP3_WRPSR = 0x31

# op3 values for format-3 op=3 (memory) instructions: name -> (op3, width, signed, is_store)
MEM_OPS = {
    "ld": (0x00, 4, False, False),
    "ldub": (0x01, 1, False, False),
    "lduh": (0x02, 2, False, False),
    "ldsb": (0x09, 1, True, False),
    "ldsh": (0x0A, 2, True, False),
    "st": (0x04, 4, False, True),
    "stb": (0x05, 1, False, True),
    "sth": (0x06, 2, False, True),
}
MEM_BY_OP3 = {spec[0]: (name,) + spec[1:] for name, spec in MEM_OPS.items()}

TRAP_ALWAYS_COND = 8  # "ta"

NOP_WORD = 0x01000000  # sethi 0, %g0


# ----------------------------------------------------------------------
# Encoding table: mnemonic -> (format encoder, fixed opcode bits).  Each
# format encoder ORs the instruction's fields into the fixed bits with a
# shift and a mask; register fields and unchecked immediates truncate to
# their width, checked displacements and immediates raise SpanError.
# ----------------------------------------------------------------------

def _encode_call(fixed, fields):
    disp30 = fields["disp30"]
    if not -0x20000000 <= disp30 <= 0x1FFFFFFF:
        raise SpanError("call displacement %d out of range" % disp30)
    return fixed | (disp30 & 0x3FFFFFFF)


def _encode_sethi(fixed, fields):
    return (fixed | (fields["rd"] & 0x1F) << 25
            | (fields["imm22"] & 0x3FFFFF))


def _encode_branch(fixed, fields):
    disp22 = fields["disp22"]
    if not -0x200000 <= disp22 <= 0x1FFFFF:
        raise SpanError("branch displacement %d out of range" % disp22)
    # The mnemonic's annul bit is in *fixed*; an explicit aflag wins.
    if "aflag" in fields:
        fixed = fixed & ~0x20000000 | (fields["aflag"] & 1) << 29
    return fixed | (disp22 & 0x3FFFFF)


def _encode_format3(fixed, fields):
    word = (fixed | (fields.get("rd", 0) & 0x1F) << 25
            | (fields.get("rs1", 0) & 0x1F) << 14)
    if "simm13" in fields:
        simm13 = fields["simm13"]
        if not -0x1000 <= simm13 <= 0xFFF:
            raise SpanError("simm13 value %d out of range" % simm13)
        return word | 0x2000 | (simm13 & 0x1FFF)
    return word | (fields.get("rs2", 0) & 0x1F)


def _encode_rdpsr(fixed, fields):
    return fixed | (fields["rd"] & 0x1F) << 25


def _encode_wrpsr(fixed, fields):
    return fixed | (fields["rs1"] & 0x1F) << 14


def _encode_trap(fixed, fields):
    return fixed | (fields.get("trap_num", 0) & 0x7F)


def _format3_fixed(op, op3):
    return op << 30 | op3 << 19


_ENCODINGS = {
    "call": (_encode_call, 1 << 30),
    "sethi": (_encode_sethi, 0b100 << 22),
    "jmpl": (_encode_format3, _format3_fixed(2, OP3_JMPL)),
    "save": (_encode_format3, _format3_fixed(2, OP3_SAVE)),
    "restore": (_encode_format3, _format3_fixed(2, OP3_RESTORE)),
    "rdpsr": (_encode_rdpsr, _format3_fixed(2, OP3_RDPSR)),
    "wrpsr": (_encode_wrpsr, _format3_fixed(2, OP3_WRPSR)),
    "ta": (_encode_trap, _format3_fixed(2, OP3_TRAP)
           | TRAP_ALWAYS_COND << 25 | 1 << 13),
}
for _cond, _number in COND_NUMBER.items():
    _ENCODINGS["b" + _cond] = (_encode_branch, 0b010 << 22 | _number << 25)
    _ENCODINGS["b" + _cond + ",a"] = (_encode_branch,
                                      0b010 << 22 | _number << 25 | 1 << 29)
for _name, _op3 in ALU_OP3.items():
    _ENCODINGS[_name] = (_encode_format3, _format3_fixed(2, _op3))
for _name, _spec in MEM_OPS.items():
    _ENCODINGS[_name] = (_encode_format3, _format3_fixed(3, _spec[0]))
del _cond, _number, _name, _op3, _spec


def _fields_tuple(**kwargs):
    return tuple(sorted(kwargs.items()))


def _live(regs):
    """Register set for liveness: the hardwired zero register never counts."""
    return frozenset(r for r in regs if r != REG_G0)


class SparcCodec(MachineCodec):
    """Decode/encode for the SPARC V8 subset."""

    arch = "sparc"
    regs = SPARC_REGS

    _singleton = None

    @classmethod
    def instance(cls):
        if cls._singleton is None:
            cls._singleton = cls()
        return cls._singleton

    @property
    def nop_word(self):
        return NOP_WORD

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode_uncached(self, word):
        op = bits.extract(word, 30, 31)
        if op == 1:
            return self._decode_call(word)
        if op == 0:
            return self._decode_format2(word)
        if op == 2:
            return self._decode_alu(word)
        return self._decode_memory(word)

    def _decode_call(self, word):
        disp30 = bits.extract_signed(word, 0, 29)
        return DecodedInst(
            word=word,
            name="call",
            category=Category.CALL,
            fields=_fields_tuple(disp30=disp30),
            reads=frozenset(),
            writes=_live({REG_O7}),
            is_delayed=True,
            operands=("disp30",),
        )

    def _decode_format2(self, word):
        op2 = bits.extract(word, 22, 24)
        rd = bits.extract(word, 25, 29)
        if op2 == 0b100:
            imm22 = bits.extract(word, 0, 21)
            return DecodedInst(
                word=word,
                name="sethi",
                category=Category.COMPUTE,
                fields=_fields_tuple(rd=rd, imm22=imm22),
                reads=frozenset(),
                writes=_live({rd}),
                operands=("imm22", "rd"),
            )
        if op2 == 0b010:
            cond = bits.extract(word, 25, 28)
            aflag = bits.extract(word, 29, 29)
            disp22 = bits.extract_signed(word, 0, 21)
            cond_name = BRANCH_CONDS[cond]
            # ba,a annuls its delay slot unconditionally: model as undelayed.
            annulled_always = aflag == 1 and cond_name == "a"
            reads = frozenset() if cond_name in ("a", "n") else frozenset({REG_ICC})
            return DecodedInst(
                word=word,
                name="b" + cond_name + (",a" if aflag else ""),
                category=Category.BRANCH,
                fields=_fields_tuple(cond=cond, aflag=aflag, disp22=disp22),
                reads=reads,
                writes=frozenset(),
                is_delayed=not annulled_always,
                annul_untaken=bool(aflag) and not annulled_always,
                cond=cond_name,
                operands=("disp22",),
            )
        return self._invalid(word)

    def _decode_alu(self, word):
        op3 = bits.extract(word, 19, 24)
        rd = bits.extract(word, 25, 29)
        rs1 = bits.extract(word, 14, 18)
        iflag = bits.extract(word, 13, 13)
        rs2 = bits.extract(word, 0, 4)
        simm13 = bits.extract_signed(word, 0, 12)

        src_reads = {rs1} if iflag else {rs1, rs2}
        if iflag:
            fields = _fields_tuple(rd=rd, rs1=rs1, iflag=1, simm13=simm13)
            operands = ("rs1", "simm13", "rd")
        else:
            fields = _fields_tuple(rd=rd, rs1=rs1, iflag=0, rs2=rs2)
            operands = ("rs1", "rs2", "rd")

        if op3 in ALU_BY_OP3:
            name = ALU_BY_OP3[op3]
            writes = {rd}
            reads = set(src_reads)
            if name.endswith("cc"):
                writes.add(REG_ICC)
            if name in ("umul", "smul"):
                writes.add(REG_Y)
            # Deviation from SPARC V8: udiv/sdiv here divide 32-bit rs1
            # (ignoring Y as the upper dividend half), so they do not
            # read %y.  Documented in DESIGN.md.
            return DecodedInst(
                word=word,
                name=name,
                category=Category.COMPUTE,
                fields=fields,
                reads=_live(reads),
                writes=_live(writes),
                operands=operands,
            )
        if op3 == OP3_JMPL:
            return self._decode_jmpl(word, rd, rs1, iflag, rs2, simm13, fields, src_reads)
        if op3 == OP3_TRAP:
            cond = bits.extract(word, 25, 28)
            if cond != TRAP_ALWAYS_COND:
                return self._invalid(word)
            trap_num = bits.extract(word, 0, 6)
            return DecodedInst(
                word=word,
                name="ta",
                category=Category.SYSTEM,
                fields=_fields_tuple(trap_num=trap_num),
                # System calls read the syscall number and argument registers
                # and write the result register; be conservative.
                reads=_live({1} | set(range(8, 14))),  # %g1, %o0-%o5
                writes=_live({8, REG_ICC}),  # %o0
                operands=("trap_num",),
            )
        if op3 == OP3_RDPSR:
            return DecodedInst(
                word=word,
                name="rdpsr",
                category=Category.COMPUTE,
                fields=_fields_tuple(rd=rd),
                reads=frozenset({REG_ICC}),
                writes=_live({rd}),
                operands=("rd",),
            )
        if op3 == OP3_WRPSR:
            return DecodedInst(
                word=word,
                name="wrpsr",
                category=Category.COMPUTE,
                fields=_fields_tuple(rs1=rs1),
                reads=_live({rs1}),
                writes=frozenset({REG_ICC}),
                operands=("rs1",),
            )
        if op3 == OP3_SAVE or op3 == OP3_RESTORE:
            name = "save" if op3 == OP3_SAVE else "restore"
            return DecodedInst(
                word=word,
                name=name,
                category=Category.COMPUTE,
                fields=fields,
                reads=_live(src_reads),
                writes=_live({rd}),
                operands=operands,
            )
        return self._invalid(word)

    def _decode_jmpl(self, word, rd, rs1, iflag, rs2, simm13, fields, src_reads):
        """Resolve the SPARC jmpl overloads (paper Figure 6)."""
        is_delayed = True
        if rd == REG_O7:
            category = Category.CALL_INDIRECT
        elif rd == REG_G0 and iflag and simm13 == 8 and rs1 in (REG_O7, REG_I7):
            category = Category.RETURN
        elif rd == REG_G0 and iflag and rs1 == REG_G0:
            # Jump to a literal address: statically known target.
            category = Category.JUMP
        else:
            category = Category.JUMP_INDIRECT
        return DecodedInst(
            word=word,
            name="jmpl",
            category=category,
            fields=fields,
            reads=_live(src_reads),
            writes=_live({rd}),
            is_delayed=is_delayed,
            operands=("rs1", "simm13" if iflag else "rs2", "rd"),
        )

    def _decode_memory(self, word):
        op3 = bits.extract(word, 19, 24)
        spec = MEM_BY_OP3.get(op3)
        if spec is None:
            return self._invalid(word)
        name, width, signed, is_store = spec
        rd = bits.extract(word, 25, 29)
        rs1 = bits.extract(word, 14, 18)
        iflag = bits.extract(word, 13, 13)
        rs2 = bits.extract(word, 0, 4)
        simm13 = bits.extract_signed(word, 0, 12)
        addr_reads = {rs1} if iflag else {rs1, rs2}
        if iflag:
            fields = _fields_tuple(rd=rd, rs1=rs1, iflag=1, simm13=simm13)
        else:
            fields = _fields_tuple(rd=rd, rs1=rs1, iflag=0, rs2=rs2)
        if is_store:
            reads = addr_reads | {rd}
            writes = set()
            category = Category.STORE
        else:
            reads = addr_reads
            writes = {rd}
            category = Category.LOAD
        return DecodedInst(
            word=word,
            name=name,
            category=category,
            fields=fields,
            reads=_live(reads),
            writes=_live(writes),
            mem_width=width,
            mem_signed=signed,
            operands=("mem", "rd") if not is_store else ("rd", "mem"),
        )

    def _invalid(self, word):
        return DecodedInst(
            word=word,
            name=".word",
            category=Category.INVALID,
            fields=_fields_tuple(value=word),
            reads=frozenset(),
            writes=frozenset(),
        )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, name, **fields):
        entry = _ENCODINGS.get(name)
        if entry is None:
            raise ValueError("cannot encode unknown instruction %r" % name)
        form, fixed = entry
        return form(fixed, fields)

    # ------------------------------------------------------------------
    # Control-flow helpers
    # ------------------------------------------------------------------
    def control_target(self, inst, pc):
        """Static target of a direct transfer at *pc*, or None."""
        if inst.name == "call":
            return bits.to_u32(pc + (inst.get_field("disp30") << 2))
        if inst.category is Category.BRANCH:
            return bits.to_u32(pc + (inst.get_field("disp22") << 2))
        if inst.name == "jmpl" and inst.category is Category.JUMP:
            return bits.to_u32(inst.get_field("simm13"))
        return None

    def with_control_target(self, word, pc, target):
        inst = self.decode(word)
        offset = bits.to_s32(target - pc)
        if inst.name == "call":
            if offset & 3:
                raise SpanError("misaligned call target")
            return word & 0xC0000000 | (offset >> 2) & 0x3FFFFFFF
        if inst.category is Category.BRANCH:
            if offset & 3:
                raise SpanError("misaligned branch target")
            if not -0x200000 <= offset >> 2 <= 0x1FFFFF:
                raise SpanError("branch displacement out of span")
            return word & 0xFFC00000 | (offset >> 2) & 0x3FFFFF
        if inst.name == "jmpl" and inst.category is Category.JUMP:
            if not -0x1000 <= target <= 0xFFF:
                raise SpanError("literal jump target out of span")
            return word & 0xFFFFE000 | target & 0x1FFF
        raise ValueError("instruction %s has no direct target" % inst.name)

    def invert_branch(self, word):
        """Return *word* with its branch condition inverted."""
        inst = self.decode(word)
        if inst.category is not Category.BRANCH:
            raise ValueError("not a branch: %s" % inst.name)
        return word & 0xE1FFFFFF | (inst.get_field("cond") ^ 8) << 25

    def clear_annul(self, word):
        """Return the non-annulling variant of a branch word."""
        inst = self.decode(word)
        if inst.category is not Category.BRANCH:
            raise ValueError("not a branch: %s" % inst.name)
        return word & 0xDFFFFFFF

    # ------------------------------------------------------------------
    # Disassembly
    # ------------------------------------------------------------------
    def disassemble(self, word, pc=None):
        inst = self.decode(word)
        name = inst.name
        if inst.category is Category.INVALID:
            return ".word 0x%08x" % word
        if name == "call":
            target = self.control_target(inst, pc) if pc is not None else None
            if target is not None:
                return "call 0x%x" % target
            return "call .%+d" % (inst.get_field("disp30") << 2)
        if inst.category is Category.BRANCH:
            target = self.control_target(inst, pc) if pc is not None else None
            where = "0x%x" % target if target is not None else (
                ".%+d" % (inst.get_field("disp22") << 2))
            return "%s %s" % (name, where)
        if name == "sethi":
            if inst.get_field("rd") == 0 and inst.get_field("imm22") == 0:
                return "nop"
            return "sethi %%hi(0x%x), %s" % (
                inst.get_field("imm22") << 10,
                self.regs.name(inst.get_field("rd")),
            )
        if name == "ta":
            return "ta %d" % inst.get_field("trap_num")
        if name in MEM_OPS:
            addr = self._format_address(inst)
            rd = self.regs.name(inst.get_field("rd"))
            if inst.category is Category.STORE:
                return "%s %s, [%s]" % (name, rd, addr)
            return "%s [%s], %s" % (name, addr, rd)
        if name == "jmpl":
            addr = self._format_address(inst)
            rd = inst.get_field("rd")
            if inst.category is Category.RETURN:
                return "ret" if inst.get_field("rs1") == REG_I7 else "retl"
            if rd == REG_O7:
                return "call %s" % addr
            if rd == REG_G0:
                return "jmp %s" % addr
            return "jmpl %s, %s" % (addr, self.regs.name(rd))
        if name == "rdpsr":
            return "rd %%psr, %s" % self.regs.name(inst.get_field("rd"))
        if name == "wrpsr":
            return "wr %s, %%psr" % self.regs.name(inst.get_field("rs1"))
        # ALU / save / restore
        rs1 = self.regs.name(inst.get_field("rs1"))
        rd = self.regs.name(inst.get_field("rd"))
        if inst.has_field("simm13"):
            src2 = str(inst.get_field("simm13"))
        else:
            src2 = self.regs.name(inst.get_field("rs2"))
        return "%s %s, %s, %s" % (name, rs1, src2, rd)

    def _format_address(self, inst):
        rs1 = inst.get_field("rs1")
        if inst.has_field("simm13"):
            simm13 = inst.get_field("simm13")
            if rs1 == REG_G0:
                return "0x%x" % (simm13 & 0xFFFFFFFF)
            if simm13 == 0:
                return self.regs.name(rs1)
            return "%s %+d" % (self.regs.name(rs1), simm13)
        rs2 = inst.get_field("rs2")
        if rs1 == REG_G0:
            return self.regs.name(rs2)
        if rs2 == REG_G0:
            return self.regs.name(rs1)
        return "%s + %s" % (self.regs.name(rs1), self.regs.name(rs2))
