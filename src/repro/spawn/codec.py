"""A MachineCodec generated from a spawn description.

Drop-in equivalent of the handwritten codecs.  It runs the module
:mod:`repro.spawn.codegen` generates from the description, which is
its only pattern table, field decoder and encoder set.  Classification
comes from residual evaluation of the instruction's RTL
(:mod:`repro.spawn.analyze`), and direct targets are the RTL's target
expression evaluated by :meth:`~repro.spawn.analyze.Analyzer.const_eval`.
Conventions (jmpl overloads, syscall register effects, branch-name
suffixes) come from :mod:`repro.spawn.refine` — the analog of the
paper's annotated template file (Figure 6).
"""

from repro.isa import bits
from repro.isa.base import (
    Category,
    DecodedInst,
    MachineCodec,
    RegisterSet,
    SpanError,
)
from repro.spawn.analyze import Analyzer
from repro.spawn.codegen import generate_module_source
from repro.spawn.refine import refine_decoded


def _register_set(description):
    int_names = []
    special_names = []
    zero_regs = set()
    base = 0
    for bank in description.banks.values():
        if bank.count > 1:
            prefix = "%r" if description.arch == "sparc" else "$r"
            int_names.extend("%s%d" % (prefix, n) for n in range(bank.count))
            if bank.zero is not None:
                zero_regs.add(base + bank.zero)
        else:
            special_names.append("%" + bank.name.lower())
        base += bank.count
    return RegisterSet(description.arch, int_names, special_names,
                       zero_regs=zero_regs)


class SpawnCodec(MachineCodec):
    """Codec synthesized from a machine description; ``source`` is the
    generated module it runs."""

    def __init__(self, description):
        super().__init__()
        self.description = description
        self.arch = description.arch
        self.source = generate_module_source(description)
        module = {}
        exec(compile(self.source, "generated_%s.py" % self.arch, "exec"),
             module)
        self._decode_name = module["decode"]
        self._encoders = module["ENCODERS"]
        self.analyzer = Analyzer(description, module["FIELD_EXTRACTORS"])
        self.regs = _register_set(description)

    # ------------------------------------------------------------------
    @property
    def nop_word(self):
        if self.arch == "sparc":
            return self.encode("sethi", rd=0, imm22=0)
        return 0

    def match(self, word):
        """The description's instruction *word* encodes, or None."""
        return self.description.instructions.get(self._decode_name(word))

    def _decode_uncached(self, word):
        inst_def = self.match(word)
        if inst_def is None:
            return DecodedInst(
                word=word, name=".word", category=Category.INVALID,
                fields=(("value", word),),
                reads=frozenset(), writes=frozenset(),
            )
        info = self.analyzer.analyze(inst_def, word)

        if info.trap:
            category = Category.SYSTEM
        elif info.npc_exprs:
            conditional = any(flag for _, flag in info.npc_exprs)
            if conditional:
                category = Category.BRANCH
            elif info.indirect:
                category = (Category.CALL_INDIRECT if info.link_write
                            else Category.JUMP_INDIRECT)
            elif info.link_write:
                category = Category.CALL
            else:
                category = Category.JUMP
        elif info.mem_store:
            category = Category.STORE
        elif info.mem_load:
            category = Category.LOAD
        else:
            category = Category.COMPUTE

        decoded = DecodedInst(
            word=word,
            name=inst_def.name,
            category=category,
            fields=tuple(sorted(info.fields_used.items())),
            reads=frozenset(info.reads),
            writes=frozenset(info.writes),
            is_delayed=bool(info.npc_exprs),
            annul_untaken=info.annul_untaken,
            mem_width=info.mem_width,
            mem_signed=info.mem_signed,
            cond=info.cond,
        )
        return refine_decoded(self.arch, decoded, word, self)

    # ------------------------------------------------------------------
    def encode(self, name, **field_args):
        encoder = self._encoders.get(name)
        if encoder is None:
            # Convention aliases like "bne,a" resolve through refine's
            # inverse: strip the suffix and set the annul field.
            if self.arch == "sparc" and name.endswith(",a"):
                field_args["aflag"] = 1
                return self.encode(name[:-2], **field_args)
            raise ValueError("unknown instruction %r" % name)
        return encoder(**field_args)

    # ------------------------------------------------------------------
    def _npc_expr(self, word):
        """The target expression of *word*'s direct transfer, or None."""
        inst_def = self.match(word)
        if inst_def is None:
            return None
        info = self.analyzer.analyze(inst_def, word)
        if not info.npc_exprs or info.indirect:
            return None
        return info.npc_exprs[0][0]

    def _target(self, expr, word, pc):
        value = self.analyzer.const_eval(expr, word, pc)
        return None if value is None else bits.to_u32(value)

    def control_target(self, inst, pc):
        if inst.category not in (Category.BRANCH, Category.JUMP,
                                 Category.CALL):
            return None
        expr = self._npc_expr(inst.word)
        return None if expr is None else self._target(expr, inst.word, pc)

    def with_control_target(self, word, pc, target):
        """Re-encode the displacement field to reach *target*.

        Solved generically: the target expression evaluated at two
        values of a field it reads yields the field's (affine) scale,
        inverting the encoding without architecture-specific code.
        """
        expr = self._npc_expr(word)
        if expr is None:
            raise ValueError("0x%08x has no direct target" % word)
        target = bits.to_u32(target)
        for name in self.analyzer.fields_read(expr, word):
            field = self.description.fields[name]
            t0 = self._target(expr, bits.insert(word, field.lo, field.hi, 0),
                              pc)
            t1 = self._target(expr, bits.insert(word, field.lo, field.hi, 1),
                              pc)
            if t0 is None or t1 is None or t0 == t1:
                continue
            scale = bits.to_s32(t1 - t0)
            delta = bits.to_s32(target - t0)
            value = delta // scale
            fits = bits.fits_signed if field.signed else bits.fits_unsigned
            if delta % scale or not fits(value, field.width):
                continue
            result = bits.insert(word, field.lo, field.hi, value)
            if self._target(expr, result, pc) == target:
                return result
        raise SpanError("no field of 0x%08x reaches 0x%x from 0x%x"
                        % (word, target, pc))

    # ------------------------------------------------------------------
    def disassemble(self, word, pc=None):
        inst = self.decode(word)
        if inst.category is Category.INVALID:
            return ".word 0x%08x" % word
        parts = ["%s=%d" % (k, v) for k, v in inst.fields]
        return "%s %s" % (inst.name, " ".join(parts))
