"""Indirect-jump resolution: dispatch tables and literal targets.

Backward slicing from the jump's registers (paper section 3.3) drives a
small abstract evaluator.  Outcomes:

* ``table`` — the jump reads a dispatch table: ``load(const_base +
  scaled_index)`` guarded by a bounds check.  The table's entries become
  computed CFG edges, its words are marked as data (even when the table
  sits in the text segment), and layout later rewrites the entries to
  point at edited code.
* ``literal`` — the target is a compile-time constant inside the
  routine; the address-forming instructions are recorded for patching.
* ``tailcall`` — a constant target *outside* the routine: the frame-pop
  tail-call idiom the paper traced its 138 "unanalyzable" SunPro jumps
  to.  Intraprocedurally there is nothing to analyze; the jump exits the
  routine like a call.
* ``unanalyzable`` — the slice failed (value through memory, a call, or
  a parameter); the editor falls back to run-time address translation.
"""

from repro.core.cfg import IndirectJumpInfo
from repro.isa import bits
from repro.obs import metrics as _metrics
from repro.obs.trace import phase as _phase
from repro.obs.trace import span as _span

_MAX_TABLE = 4096

# One counter per analysis outcome; "table"/"literal"/"tailcall" are
# resolved statically, "unanalyzable" falls back to run-time address
# translation (the paper's Table 1 uneditable-jump column).
_OUTCOMES = {
    status: _metrics.counter("indirect.%s" % status)
    for status in ("table", "literal", "tailcall", "unanalyzable")
}
_metrics.ratio("indirect.resolved_rate",
               [_OUTCOMES[s] for s in ("table", "literal", "tailcall")],
               _OUTCOMES.values())
_H_TABLE = _metrics.histogram("indirect.table_entries")
_phase("indirect.resolve")


def record_indirect_outcome(info):
    """Count one *final* analysis outcome (called after the CFG's
    indirect-target fixpoint converges, so re-analysis during the
    fixpoint does not inflate the counts)."""
    counter = _OUTCOMES.get(info.status)
    if counter is not None:
        counter.inc()
    if info.status == "table":
        _H_TABLE.observe(len(info.targets))


def table_extent(info):
    """(address, byte size) of a resolved dispatch table.

    The extent every consumer must agree on: data claiming in the
    routine layer, the ``dispatch`` fact rule, and the fuzz manifest
    checks all derive it from here.  *info* may be an
    :class:`IndirectJumpInfo` or its packed-record form.
    """
    return info.table_addr, 4 * len(info.targets)


# -- abstract values ----------------------------------------------------

class _Const:
    def __init__(self, value, sites=()):
        self.value = value & 0xFFFFFFFF
        self.sites = list(sites)


class _Scaled:
    """A scaled index: register *reg* (observed at a program point)
    shifted left by *shift*."""

    def __init__(self, reg, shift, point):
        self.reg = reg
        self.shift = shift
        self.point = point  # (block, index) of the scaling instruction


class _Sum:
    def __init__(self, const, scaled):
        self.const = const
        self.scaled = scaled


class _TableLoad:
    def __init__(self, table, scaled):
        self.table = table
        self.scaled = scaled


class _Unknown:
    def __init__(self, reason):
        self.reason = reason


def analyze_indirect_jump(cfg, block):
    """Analyze the indirect jump terminating *block*."""
    with _span("indirect.resolve", routine=cfg.routine.name):
        return _analyze_indirect_jump(cfg, block)


def _analyze_indirect_jump(cfg, block):
    addr, instruction = block.instructions[-1]
    evaluator = _Evaluator(cfg)
    target = evaluator.jump_target(block, len(block.instructions) - 1,
                                   instruction)

    if isinstance(target, _Const):
        routine = cfg.routine
        status = "literal" if routine.contains(target.value) else "tailcall"
        return IndirectJumpInfo(block, status, literal=target.value,
                                patch_sites=target.sites)

    if isinstance(target, _TableLoad):
        bound = _find_bound(cfg, target.scaled)
        if bound is None or bound > _MAX_TABLE:
            return IndirectJumpInfo(block, "unanalyzable")
        table_addr = target.table.value
        targets = []
        entries = []
        for i in range(bound):
            entry_addr = table_addr + 4 * i
            try:
                word = cfg.executable.word_at(entry_addr)
            except KeyError:
                return IndirectJumpInfo(block, "unanalyzable")
            if not cfg.executable.is_text_address(word):
                return IndirectJumpInfo(block, "unanalyzable")
            targets.append(word)
            entries.append((entry_addr, "word32"))
        return IndirectJumpInfo(block, "table", table_addr=table_addr,
                                targets=targets, patch_sites=entries,
                                index_bound=bound)

    return IndirectJumpInfo(block, "unanalyzable")


class _Evaluator:
    """Abstract evaluation of register values along the backward slice."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.arch = cfg.codec.arch

    # -- entry point -----------------------------------------------------
    def jump_target(self, block, index, instruction):
        if self.arch == "sparc":
            rs1 = instruction.field("rs1")
            base = self.reg_before(block, index, rs1)
            if instruction.has_field("simm13"):
                offset = _Const(instruction.field("simm13") & 0xFFFFFFFF)
            else:
                offset = self.reg_before(block, index, instruction.field("rs2"))
            return self._add(base, offset)
        # MIPS jr.
        return self.reg_before(block, index, instruction.field("rs"))

    # -- register evaluation ------------------------------------------------
    def reg_before(self, block, index, reg, depth=32):
        """Value of *reg* immediately before (block, index)."""
        if reg == 0 and self.arch in ("sparc", "mips"):
            return _Const(0)
        if depth <= 0:
            return _Unknown("depth limit")
        position = index - 1
        while position >= 0:
            addr, instruction = block.instructions[position]
            if instruction.writes_register(reg):
                return self._eval_def(block, position, addr, instruction, reg,
                                      depth)
            position -= 1
        # Continue into predecessors.
        values = []
        for edge in block.pred:
            predecessor = edge.src
            if predecessor.kind in ("surrogate", "entry"):
                return _Unknown("crosses %s" % predecessor.kind)
            values.append(
                self.reg_before(predecessor, len(predecessor.instructions),
                                reg, depth - 1)
            )
        if not values:
            return _Unknown("no predecessor")
        first = values[0]
        if all(isinstance(v, _Const) for v in values) and all(
            v.value == first.value for v in values
        ):
            return first
        if len(values) == 1:
            return first
        return _Unknown("joins differ")

    def _eval_def(self, block, index, addr, instruction, reg, depth):
        name = instruction.name
        point = (block, index)

        if self.arch == "sparc":
            return self._eval_sparc(block, index, addr, instruction, name,
                                    depth, point)
        return self._eval_mips(block, index, addr, instruction, name, depth,
                               point)

    # -- SPARC definitions ---------------------------------------------------
    def _eval_sparc(self, block, index, addr, instruction, name, depth,
                    point):
        field = instruction.field
        has = instruction.has_field

        if name == "sethi":
            return _Const(field("imm22") << 10, [(addr, "hi22")])
        if name in ("or", "add"):
            left = self.reg_before(block, index, field("rs1"), depth - 1)
            if has("simm13"):
                imm = field("simm13")
                if field("rs1") == 0 and name == "or":
                    return _Const(imm & 0xFFFFFFFF, [(addr, "mov13")])
                if isinstance(left, _Const):
                    value = (left.value | imm) if name == "or" \
                        else (left.value + imm)
                    role = "lo10" if name == "or" else "add13"
                    return _Const(value, left.sites + [(addr, role)])
                return _Unknown("%s of non-constant" % name)
            right = self.reg_before(block, index, field("rs2"), depth - 1)
            return self._add(left, right) if name == "add" \
                else self._or(left, right)
        if name == "sll" and has("simm13"):
            return _Scaled(field("rs1"), field("simm13"), point)
        if name == "sub" and has("simm13"):
            left = self.reg_before(block, index, field("rs1"), depth - 1)
            if isinstance(left, _Const):
                return _Const(left.value - field("simm13"))
            return _Unknown("sub of non-constant")
        if instruction.is_load and instruction.mem_width == 4:
            base = self.reg_before(block, index, field("rs1"), depth - 1)
            if has("simm13"):
                offset = _Const(field("simm13") & 0xFFFFFFFF)
            else:
                offset = self.reg_before(block, index, field("rs2"), depth - 1)
            return self._load(self._add(base, offset))
        return _Unknown("opaque def %s" % name)

    # -- MIPS definitions ------------------------------------------------------
    def _eval_mips(self, block, index, addr, instruction, name, depth, point):
        field = instruction.field

        if name == "lui":
            return _Const(field("uimm16") << 16, [(addr, "hi16")])
        if name == "ori":
            left = self.reg_before(block, index, field("rs"), depth - 1)
            if field("rs") == 0:
                return _Const(field("uimm16"), [(addr, "mov16")])
            if isinstance(left, _Const):
                return _Const(left.value | field("uimm16"),
                              left.sites + [(addr, "lo16u")])
            return _Unknown("ori of non-constant")
        if name == "addiu":
            left = self.reg_before(block, index, field("rs"), depth - 1)
            if field("rs") == 0:
                return _Const(field("imm16") & 0xFFFFFFFF, [(addr, "mov16s")])
            if isinstance(left, _Const):
                return _Const(left.value + field("imm16"),
                              left.sites + [(addr, "lo16")])
            return _Unknown("addiu of non-constant")
        if name == "addu":
            left = self.reg_before(block, index, field("rs"), depth - 1)
            right = self.reg_before(block, index, field("rt"), depth - 1)
            return self._add(left, right)
        if name == "sll":
            return _Scaled(field("rt"), field("shamt"), point)
        if name == "lw":
            base = self.reg_before(block, index, field("rs"), depth - 1)
            offset = _Const(field("imm16") & 0xFFFFFFFF)
            return self._load(self._add(base, offset))
        if name in ("or", "addu") or (name == "addu"):
            pass
        return _Unknown("opaque def %s" % name)

    # -- combinators -------------------------------------------------------
    @staticmethod
    def _add(a, b):
        if isinstance(a, _Const) and isinstance(b, _Const):
            return _Const(a.value + b.value, a.sites + b.sites)
        if isinstance(a, _Const) and isinstance(b, _Scaled):
            return _Sum(a, b)
        if isinstance(a, _Scaled) and isinstance(b, _Const):
            return _Sum(b, a)
        if isinstance(a, _Sum) and isinstance(b, _Const):
            return _Sum(_Const(a.const.value + b.value,
                               a.const.sites + b.sites), a.scaled)
        if isinstance(a, _Const) and isinstance(b, _Sum):
            return _Sum(_Const(a.value + b.const.value,
                               a.sites + b.const.sites), b.scaled)
        if isinstance(a, _TableLoad) and isinstance(b, _Const) \
                and b.value == 0:
            return a
        if isinstance(b, _TableLoad) and isinstance(a, _Const) \
                and a.value == 0:
            return b
        return _Unknown("unsupported sum")

    @staticmethod
    def _or(a, b):
        if isinstance(a, _Const) and isinstance(b, _Const):
            return _Const(a.value | b.value, a.sites + b.sites)
        return _Unknown("unsupported or")

    @staticmethod
    def _load(address):
        if isinstance(address, _Sum):
            return _TableLoad(address.const, address.scaled)
        if isinstance(address, _Unknown):
            return address
        return _Unknown("load from non-table address")


def _find_bound(cfg, scaled):
    """Find the bounds check guarding the scaled index register.

    The search starts just before the scaling instruction and walks
    backward through predecessors.  SPARC pattern: ``subcc idx, K, %g0``
    (cmp) with a ``bgu`` terminator; bound is K+1.  MIPS pattern:
    ``sltiu t, idx, K`` followed by ``beq t, $zero``; bound is K.
    """
    index_reg = scaled.reg
    start_block, start_index = scaled.point
    seen = set()
    bound = _bound_in_block(cfg, start_block, index_reg,
                            upto=start_index - 1)
    if bound is not None:
        return bound
    work = [edge.src for edge in start_block.pred]
    for _ in range(16):
        if not work:
            break
        block = work.pop()
        if block.id in seen or block.kind in ("entry", "surrogate"):
            continue
        seen.add(block.id)
        bound = _bound_in_block(cfg, block, index_reg)
        if bound is not None:
            return bound
        for edge in block.pred:
            work.append(edge.src)
    return None


def _bound_in_block(cfg, block, index_reg, upto=None):
    arch = cfg.codec.arch
    instructions = block.instructions
    start = len(instructions) - 1 if upto is None \
        else min(upto, len(instructions) - 1)
    for position in range(start, -1, -1):
        _, instruction = instructions[position]
        if arch == "sparc":
            if (
                instruction.name == "subcc"
                and instruction.has_field("simm13")
                and instruction.field("rd") == 0
                and instruction.field("rs1") == index_reg
            ):
                if _guarded_by(block, "gu"):
                    return instruction.field("simm13") + 1
        else:
            if (
                instruction.name == "sltiu"
                and instruction.field("rs") == index_reg
            ):
                guard_reg = instruction.field("rt")
                if _mips_guarded_by(block, guard_reg):
                    return instruction.field("imm16")
        # A redefinition of the index register between the compare and
        # the jump invalidates the guard.
        if instruction.writes_register(index_reg) and not (
            arch == "sparc" and instruction.name == "sll"
        ):
            return None
    return None


def _guarded_by(block, cond):
    """The compare's block must end with the unsigned guard branch."""
    last = block.last_instruction
    return (last is not None and last.is_branch
            and last.cond in (cond, "leu"))


def _mips_guarded_by(block, guard_reg):
    last = block.last_instruction
    if last is not None and last.is_branch and last.name in ("beq", "beql"):
        return last.field("rs") == guard_reg or last.field("rt") == guard_reg
    return False
