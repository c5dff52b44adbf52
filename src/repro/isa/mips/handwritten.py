"""Handwritten MIPS-I-like subset codec.

The second architecture, used to demonstrate EEL's machine independence
(the paper's earlier qpt ran on MIPS under Ultrix).  Differences from
SPARC that exercise distinct code paths:

* branch displacements are relative to the delay slot (pc + 4);
* ``j``/``jal`` use 26-bit pseudo-absolute region targets;
* branch-likely instructions (``beql`` etc.) are the annulled variants;
* there are no condition codes: compare-and-branch reads registers.
"""

from repro.isa import bits
from repro.isa.base import Category, DecodedInst, MachineCodec, RegisterSet, SpanError

INT_REG_NAMES = (
    "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3",
    "$t0", "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
    "$s0", "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
    "$t8", "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra",
)

REG_ZERO = 0
REG_AT = 1
REG_V0 = 2
REG_SP = 29
REG_RA = 31
REG_HI = 32
REG_LO = 33

MIPS_REGS = RegisterSet("mips", INT_REG_NAMES, ["$hi", "$lo"], zero_regs={REG_ZERO})

# R-type (opcode 0) funct values: name -> (funct, kind)
# kind: "shift" (rd, rt, shamt), "reg3" (rd, rs, rt), "jr", "jalr",
# "syscall", "mfhi"/"mflo", "multdiv"
R_TYPE = {
    "sll": (0x00, "shift"),
    "srl": (0x02, "shift"),
    "sra": (0x03, "shift"),
    "sllv": (0x04, "reg3v"),
    "srlv": (0x06, "reg3v"),
    "srav": (0x07, "reg3v"),
    "jr": (0x08, "jr"),
    "jalr": (0x09, "jalr"),
    "syscall": (0x0C, "syscall"),
    "mfhi": (0x10, "mfhi"),
    "mflo": (0x12, "mflo"),
    "mult": (0x18, "multdiv"),
    "multu": (0x19, "multdiv"),
    "div": (0x1A, "multdiv"),
    "divu": (0x1B, "multdiv"),
    "addu": (0x21, "reg3"),
    "subu": (0x23, "reg3"),
    "and": (0x24, "reg3"),
    "or": (0x25, "reg3"),
    "xor": (0x26, "reg3"),
    "nor": (0x27, "reg3"),
    "slt": (0x2A, "reg3"),
    "sltu": (0x2B, "reg3"),
}
R_BY_FUNCT = {funct: (name, kind) for name, (funct, kind) in R_TYPE.items()}

# I-type opcodes: name -> (opcode, kind)
I_TYPE = {
    "beq": (0x04, "branch2"),
    "bne": (0x05, "branch2"),
    "blez": (0x06, "branch1"),
    "bgtz": (0x07, "branch1"),
    "addiu": (0x09, "imm"),
    "slti": (0x0A, "imm"),
    "sltiu": (0x0B, "imm"),
    "andi": (0x0C, "immu"),
    "ori": (0x0D, "immu"),
    "xori": (0x0E, "immu"),
    "lui": (0x0F, "lui"),
    "beql": (0x14, "branch2"),
    "bnel": (0x15, "branch2"),
    "blezl": (0x16, "branch1"),
    "bgtzl": (0x17, "branch1"),
    "lb": (0x20, "load"),
    "lh": (0x21, "load"),
    "lw": (0x23, "load"),
    "lbu": (0x24, "load"),
    "lhu": (0x25, "load"),
    "sb": (0x28, "store"),
    "sh": (0x29, "store"),
    "sw": (0x2B, "store"),
}
I_BY_OPCODE = {opcode: (name, kind) for name, (opcode, kind) in I_TYPE.items()}

LOAD_WIDTHS = {"lb": (1, True), "lh": (2, True), "lw": (4, False),
               "lbu": (1, False), "lhu": (2, False)}
STORE_WIDTHS = {"sb": 1, "sh": 2, "sw": 4}

# REGIMM (opcode 1) rt-field encodings.
REGIMM = {"bltz": 0, "bgez": 1, "bltzl": 2, "bgezl": 3}
REGIMM_BY_RT = {rt: name for name, rt in REGIMM.items()}

OP_J = 0x02
OP_JAL = 0x03
OP_REGIMM = 0x01

BRANCH_INVERSES = {
    "beq": "bne", "bne": "beq", "blez": "bgtz", "bgtz": "blez",
    "bltz": "bgez", "bgez": "bltz",
    "beql": "bnel", "bnel": "beql", "blezl": "bgtzl", "bgtzl": "blezl",
    "bltzl": "bgezl", "bgezl": "bltzl",
}

NOP_WORD = 0x00000000  # sll $zero, $zero, 0


# ----------------------------------------------------------------------
# Encoding table: mnemonic -> (format encoder, fixed opcode bits).  Each
# format encoder ORs the instruction's fields into the fixed bits with a
# shift and a mask; register fields and unchecked immediates truncate to
# their width, checked immediates raise SpanError.
# ----------------------------------------------------------------------

def _encode_rtype(fixed, fields):
    return (fixed | (fields.get("rd", 0) & 0x1F) << 11
            | (fields.get("rs", 0) & 0x1F) << 21
            | (fields.get("rt", 0) & 0x1F) << 16
            | (fields.get("shamt", 0) & 0x1F) << 6)


def _encode_syscall(fixed, fields):
    # The 20-bit code field covers rs, rt, rd and shamt.
    return fixed | (fields.get("code", 0) & 0xFFFFF) << 6


def _encode_jalr(fixed, fields):
    # rd defaults to the return-address register.
    word = _encode_rtype(fixed, fields)
    return word if "rd" in fields else word | REG_RA << 11


def _encode_regimm(fixed, fields):
    word = fixed | (fields.get("rs", 0) & 0x1F) << 21
    imm16 = fields["imm16"]
    if not -0x8000 <= imm16 <= 0x7FFF:
        raise SpanError("branch displacement out of range")
    return word | (imm16 & 0xFFFF)


def _encode_jtype(fixed, fields):
    return fixed | (fields["target26"] & 0x3FFFFFF)


def _encode_itype(fixed, fields):
    word = (fixed | (fields.get("rs", 0) & 0x1F) << 21
            | (fields.get("rt", 0) & 0x1F) << 16)
    if "uimm16" in fields:
        uimm16 = fields["uimm16"]
        if not 0 <= uimm16 < 0x10000:
            raise SpanError("unsigned immediate out of range")
        return word | uimm16
    imm16 = fields.get("imm16", 0)
    if not -0x8000 <= imm16 <= 0x7FFF:
        raise SpanError("immediate %d out of range" % imm16)
    return word | (imm16 & 0xFFFF)


_R_FORMS = {"syscall": _encode_syscall, "jalr": _encode_jalr}
_ENCODINGS = {"j": (_encode_jtype, OP_J << 26),
              "jal": (_encode_jtype, OP_JAL << 26)}
for _name, (_funct, _kind) in R_TYPE.items():
    _ENCODINGS[_name] = (_R_FORMS.get(_kind, _encode_rtype), _funct)
for _name, _rt in REGIMM.items():
    _ENCODINGS[_name] = (_encode_regimm, OP_REGIMM << 26 | _rt << 16)
for _name, (_opcode, _kind) in I_TYPE.items():
    _ENCODINGS[_name] = (_encode_itype, _opcode << 26)
del _name, _funct, _kind, _rt, _opcode


def _fields_tuple(**kwargs):
    return tuple(sorted(kwargs.items()))


def _live(regs):
    return frozenset(r for r in regs if r != REG_ZERO)


class MipsCodec(MachineCodec):
    arch = "mips"
    regs = MIPS_REGS

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
    def _decode_uncached(self, word):
        opcode = bits.extract(word, 26, 31)
        if opcode == 0:
            return self._decode_rtype(word)
        if opcode == OP_REGIMM:
            return self._decode_regimm(word)
        if opcode in (OP_J, OP_JAL):
            return self._decode_jtype(word, opcode)
        return self._decode_itype(word, opcode)

    def _decode_rtype(self, word):
        funct = bits.extract(word, 0, 5)
        entry = R_BY_FUNCT.get(funct)
        if entry is None:
            return self._invalid(word)
        name, kind = entry
        rs = bits.extract(word, 21, 25)
        rt = bits.extract(word, 16, 20)
        rd = bits.extract(word, 11, 15)
        shamt = bits.extract(word, 6, 10)

        if kind == "shift":
            if bits.extract(word, 16, 31) == 0 and shamt == 0 and rd == 0:
                pass  # canonical nop decodes below as sll
            return DecodedInst(
                word=word, name=name, category=Category.COMPUTE,
                fields=_fields_tuple(rd=rd, rt=rt, shamt=shamt),
                reads=_live({rt}), writes=_live({rd}),
                operands=("rd", "rt", "shamt"),
            )
        if kind in ("reg3", "reg3v"):
            return DecodedInst(
                word=word, name=name, category=Category.COMPUTE,
                fields=_fields_tuple(rd=rd, rs=rs, rt=rt),
                reads=_live({rs, rt}), writes=_live({rd}),
                operands=("rd", "rs", "rt"),
            )
        if kind == "jr":
            category = Category.RETURN if rs == REG_RA else Category.JUMP_INDIRECT
            return DecodedInst(
                word=word, name=name, category=category,
                fields=_fields_tuple(rs=rs),
                reads=_live({rs}), writes=frozenset(),
                is_delayed=True, operands=("rs",),
            )
        if kind == "jalr":
            return DecodedInst(
                word=word, name=name, category=Category.CALL_INDIRECT,
                fields=_fields_tuple(rd=rd, rs=rs),
                reads=_live({rs}), writes=_live({rd}),
                is_delayed=True, operands=("rd", "rs"),
            )
        if kind == "syscall":
            return DecodedInst(
                word=word, name=name, category=Category.SYSTEM,
                fields=_fields_tuple(code=bits.extract(word, 6, 25)),
                reads=_live({REG_V0, 4, 5, 6, 7}),
                writes=_live({REG_V0}),
                operands=(),
            )
        if kind == "mfhi":
            return DecodedInst(
                word=word, name=name, category=Category.COMPUTE,
                fields=_fields_tuple(rd=rd),
                reads=frozenset({REG_HI}), writes=_live({rd}),
                operands=("rd",),
            )
        if kind == "mflo":
            return DecodedInst(
                word=word, name=name, category=Category.COMPUTE,
                fields=_fields_tuple(rd=rd),
                reads=frozenset({REG_LO}), writes=_live({rd}),
                operands=("rd",),
            )
        if kind == "multdiv":
            return DecodedInst(
                word=word, name=name, category=Category.COMPUTE,
                fields=_fields_tuple(rs=rs, rt=rt),
                reads=_live({rs, rt}),
                writes=frozenset({REG_HI, REG_LO}),
                operands=("rs", "rt"),
            )
        return self._invalid(word)

    def _decode_regimm(self, word):
        rt = bits.extract(word, 16, 20)
        name = REGIMM_BY_RT.get(rt)
        if name is None:
            return self._invalid(word)
        rs = bits.extract(word, 21, 25)
        imm16 = bits.extract_signed(word, 0, 15)
        return DecodedInst(
            word=word, name=name, category=Category.BRANCH,
            fields=_fields_tuple(rs=rs, imm16=imm16),
            reads=_live({rs}), writes=frozenset(),
            is_delayed=True, annul_untaken=name.endswith("l"),
            cond=name[1:], operands=("rs", "imm16"),
        )

    def _decode_jtype(self, word, opcode):
        target26 = bits.extract(word, 0, 25)
        if opcode == OP_JAL:
            return DecodedInst(
                word=word, name="jal", category=Category.CALL,
                fields=_fields_tuple(target26=target26),
                reads=frozenset(), writes=frozenset({REG_RA}),
                is_delayed=True, operands=("target26",),
            )
        return DecodedInst(
            word=word, name="j", category=Category.JUMP,
            fields=_fields_tuple(target26=target26),
            reads=frozenset(), writes=frozenset(),
            is_delayed=True, operands=("target26",),
        )

    def _decode_itype(self, word, opcode):
        entry = I_BY_OPCODE.get(opcode)
        if entry is None:
            return self._invalid(word)
        name, kind = entry
        rs = bits.extract(word, 21, 25)
        rt = bits.extract(word, 16, 20)
        imm16 = bits.extract_signed(word, 0, 15)
        uimm16 = bits.extract(word, 0, 15)

        if kind == "branch2":
            return DecodedInst(
                word=word, name=name, category=Category.BRANCH,
                fields=_fields_tuple(rs=rs, rt=rt, imm16=imm16),
                reads=_live({rs, rt}), writes=frozenset(),
                is_delayed=True, annul_untaken=name.endswith("l"),
                cond=name[1:], operands=("rs", "rt", "imm16"),
            )
        if kind == "branch1":
            return DecodedInst(
                word=word, name=name, category=Category.BRANCH,
                fields=_fields_tuple(rs=rs, imm16=imm16),
                reads=_live({rs}), writes=frozenset(),
                is_delayed=True, annul_untaken=name.endswith("l"),
                cond=name[1:], operands=("rs", "imm16"),
            )
        if kind == "imm":
            return DecodedInst(
                word=word, name=name, category=Category.COMPUTE,
                fields=_fields_tuple(rt=rt, rs=rs, imm16=imm16),
                reads=_live({rs}), writes=_live({rt}),
                operands=("rt", "rs", "imm16"),
            )
        if kind == "immu":
            return DecodedInst(
                word=word, name=name, category=Category.COMPUTE,
                fields=_fields_tuple(rt=rt, rs=rs, uimm16=uimm16),
                reads=_live({rs}), writes=_live({rt}),
                operands=("rt", "rs", "uimm16"),
            )
        if kind == "lui":
            return DecodedInst(
                word=word, name=name, category=Category.COMPUTE,
                fields=_fields_tuple(rt=rt, uimm16=uimm16),
                reads=frozenset(), writes=_live({rt}),
                operands=("rt", "uimm16"),
            )
        if kind == "load":
            width, signed = LOAD_WIDTHS[name]
            return DecodedInst(
                word=word, name=name, category=Category.LOAD,
                fields=_fields_tuple(rt=rt, rs=rs, imm16=imm16),
                reads=_live({rs}), writes=_live({rt}),
                mem_width=width, mem_signed=signed,
                operands=("rt", "mem"),
            )
        if kind == "store":
            return DecodedInst(
                word=word, name=name, category=Category.STORE,
                fields=_fields_tuple(rt=rt, rs=rs, imm16=imm16),
                reads=_live({rs, rt}), writes=frozenset(),
                mem_width=STORE_WIDTHS[name],
                operands=("rt", "mem"),
            )
        return self._invalid(word)

    def _invalid(self, word):
        return DecodedInst(
            word=word, name=".word", category=Category.INVALID,
            fields=_fields_tuple(value=word),
            reads=frozenset(), writes=frozenset(),
        )

    # ------------------------------------------------------------------
    def encode(self, name, **fields):
        entry = _ENCODINGS.get(name)
        if entry is None:
            raise ValueError("cannot encode unknown instruction %r" % name)
        form, fixed = entry
        return form(fixed, fields)

    # ------------------------------------------------------------------
    def control_target(self, inst, pc):
        if inst.category is Category.BRANCH:
            return bits.to_u32(pc + 4 + (inst.get_field("imm16") << 2))
        if inst.name in ("j", "jal"):
            return bits.to_u32(((pc + 4) & 0xF0000000)
                               | (inst.get_field("target26") << 2))
        return None

    def with_control_target(self, word, pc, target):
        inst = self.decode(word)
        if inst.category is Category.BRANCH:
            offset = bits.to_s32(target - pc - 4)
            if offset & 3 or not -0x8000 <= offset >> 2 <= 0x7FFF:
                raise SpanError("branch displacement out of span")
            return word & 0xFFFF0000 | (offset >> 2) & 0xFFFF
        if inst.name in ("j", "jal"):
            if (target & 0xF0000000) != ((pc + 4) & 0xF0000000):
                raise SpanError("jump target outside 256MB region")
            return word & 0xFC000000 | (target & 0x0FFFFFFF) >> 2
        raise ValueError("instruction %s has no direct target" % inst.name)

    def invert_branch(self, word):
        inst = self.decode(word)
        inverse = BRANCH_INVERSES.get(inst.name)
        if inverse is None:
            raise ValueError("cannot invert %s" % inst.name)
        fields = dict(inst.fields)
        return self.encode(inverse, **fields)

    def clear_annul(self, word):
        """Convert a branch-likely into its always-execute-slot variant."""
        inst = self.decode(word)
        if inst.category is not Category.BRANCH:
            raise ValueError("not a branch: %s" % inst.name)
        if not inst.annul_untaken:
            return word
        fields = dict(inst.fields)
        return self.encode(inst.name[:-1], **fields)

    # ------------------------------------------------------------------
    def disassemble(self, word, pc=None):
        inst = self.decode(word)
        if word == NOP_WORD:
            return "nop"
        if inst.category is Category.INVALID:
            return ".word 0x%08x" % word
        name = inst.name
        regname = self.regs.name
        if name in ("j", "jal"):
            target = self.control_target(inst, pc if pc is not None else 0)
            return "%s 0x%x" % (name, target)
        if inst.category is Category.BRANCH:
            if pc is not None:
                where = "0x%x" % self.control_target(inst, pc)
            else:
                where = ".%+d" % ((inst.get_field("imm16") << 2) + 4)
            if inst.has_field("rt"):
                return "%s %s, %s, %s" % (
                    name, regname(inst.get_field("rs")),
                    regname(inst.get_field("rt")), where)
            return "%s %s, %s" % (name, regname(inst.get_field("rs")), where)
        if name in ("jr",):
            return "jr %s" % regname(inst.get_field("rs"))
        if name == "jalr":
            return "jalr %s, %s" % (regname(inst.get_field("rd")),
                                    regname(inst.get_field("rs")))
        if name == "syscall":
            return "syscall"
        if name in ("mfhi", "mflo"):
            return "%s %s" % (name, regname(inst.get_field("rd")))
        if name in ("mult", "multu", "div", "divu"):
            return "%s %s, %s" % (name, regname(inst.get_field("rs")),
                                  regname(inst.get_field("rt")))
        if name in ("sll", "srl", "sra"):
            return "%s %s, %s, %d" % (name, regname(inst.get_field("rd")),
                                      regname(inst.get_field("rt")),
                                      inst.get_field("shamt"))
        if name == "lui":
            return "lui %s, 0x%x" % (regname(inst.get_field("rt")),
                                     inst.get_field("uimm16"))
        if inst.category.is_memory:
            return "%s %s, %d(%s)" % (name, regname(inst.get_field("rt")),
                                      inst.get_field("imm16"),
                                      regname(inst.get_field("rs")))
        if inst.has_field("imm16"):
            return "%s %s, %s, %d" % (name, regname(inst.get_field("rt")),
                                      regname(inst.get_field("rs")),
                                      inst.get_field("imm16"))
        if inst.has_field("uimm16"):
            return "%s %s, %s, 0x%x" % (name, regname(inst.get_field("rt")),
                                        regname(inst.get_field("rs")),
                                        inst.get_field("uimm16"))
        return "%s %s, %s, %s" % (name, regname(inst.get_field("rd")),
                                  regname(inst.get_field("rs")),
                                  regname(inst.get_field("rt")))
