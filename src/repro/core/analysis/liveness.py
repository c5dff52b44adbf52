"""Live-register analysis over the normalized CFG.

Backward dataflow on registers (including condition-code pseudo
registers).  Call surrogate blocks use the calling convention: they are
assumed to read the argument registers and stack pointer and to clobber
every caller-saved register.  The result answers "which registers are
dead here?" — the basis of snippet register scavenging (paper 3.5).

Register sets are solved as int bit masks (bit *r* is register *r*):
each interned ``DecodedInst`` carries its read/write masks, per-block
use/def masks feed one worklist solve, and every query still answers
with a frozenset of register numbers.
"""

from repro.core.cfg import BK_SURROGATE
from repro.isa import get_conventions
from repro.isa.base import register_mask

# arch -> (call-surrogate uses, call-surrogate defs, live at exit) masks.
_ARCH_MASKS = {}


def _arch_masks(codec):
    masks = _ARCH_MASKS.get(codec.arch)
    if masks is not None:
        return masks
    conventions = get_conventions(codec.arch)
    regs = codec.regs
    # Call surrogates read the arguments and the stack pointer.
    uses = set(conventions.arg_regs) | {conventions.sp_reg}
    # Registers assumed live when control leaves the routine.
    live = {conventions.sp_reg, conventions.retaddr_reg}
    if codec.arch == "sparc":
        # Callee may clobber %g1-%g7, all %o registers, and the condition
        # codes; register windows preserve %l and %i.
        defs = set(range(1, 8)) | set(range(8, 16)) | {
            regs.number("%icc"), regs.number("%y")
        }
        live |= {24, 30, 31, 8}  # %i0 (retval), %fp, %i7, %o0
    else:
        # MIPS: $at, $v0/$v1, $a0-$a3, $t0-$t9, $ra, hi/lo are clobberable.
        defs = {1, 2, 3} | set(range(4, 16)) | {24, 25, 31,
                                                regs.number("$hi"),
                                                regs.number("$lo")}
        live |= {2, 29, 30, 31, 16, 17, 18, 19, 20, 21, 22, 23}  # $v0, $sp,
        # $fp, $ra and callee-saved $s registers.
    masks = (register_mask(uses), register_mask(defs),
             register_mask(r for r in live if r < regs.num_total))
    _ARCH_MASKS[codec.arch] = masks
    return masks


# SPARC windowed registers (%o, %l, %i): before a routine's `save`
# executes, these belong to the *caller's* window and must be treated as
# live, or a snippet inserted ahead of the save would clobber caller
# state.  (Spilling below %sp remains safe — it targets the caller's
# scratch area, which is unused by convention.)
_SPARC_WINDOW_MASK = register_mask(range(8, 32))


def _registers(mask):
    """Register numbers set in *mask*, ascending."""
    return [reg for reg, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _has_save(block):
    for _, instruction in block.instructions:
        if instruction.inst.name == "save":
            return True
    return False


def _pre_window_reach(cfg):
    """Per block id: can the block start before any `save` has run?

    One forward reachability pass from the entry that stops at blocks
    containing a `save`.
    """
    reached = [False] * len(cfg.blocks)
    reached[cfg.entry.id] = True
    work = [cfg.entry]
    while work:
        block = work.pop()
        if _has_save(block):
            continue
        for edge in block.succ:
            if not reached[edge.dst.id]:
                reached[edge.dst.id] = True
                work.append(edge.dst)
    return reached


class LivenessAnalysis:
    """Per-block live-in/live-out, with point queries inside blocks.

    ``in_masks``/``out_masks`` hold the solution as one register mask
    per block id, and ``pre_window`` (register-window machines only,
    else None) whether each block can start before the ``save``; the
    ``liveness`` fact packs exactly these (see
    :class:`~repro.core.facts.record.LivenessRecord`).
    """

    def __init__(self, cfg, record=None):
        self.cfg = cfg
        self._sets = {}  # mask -> frozenset, shared by equal answers
        self._live_in = self._live_out = None
        if record is not None:
            # Adopt a cached or fact-store solution: the record's masks
            # are the solver's, so point queries work unchanged.
            self.in_masks = record.live_in
            self.out_masks = record.live_out
            self.pre_window = record.pre_window
        else:
            self._solve()
            # Pre-window state by block id; None where there are no
            # register windows.
            self.pre_window = _pre_window_reach(cfg) \
                if cfg.codec.arch == "sparc" else None

    @property
    def live_in(self):
        """Registers live on entry to each block, by block id."""
        if self._live_in is None:
            self._live_in = {i: self._set(mask)
                             for i, mask in enumerate(self.in_masks)}
        return self._live_in

    @property
    def live_out(self):
        """Registers live on exit from each block, by block id."""
        if self._live_out is None:
            self._live_out = {i: self._set(mask)
                              for i, mask in enumerate(self.out_masks)}
        return self._live_out

    def _solve(self):
        """Worklist solve over per-block use/def masks."""
        cfg = self.cfg
        blocks = cfg.blocks
        call_uses, call_defs, exit_live = _arch_masks(cfg.codec)
        uses = []
        defs = []
        for block in blocks:
            if block.kind == BK_SURROGATE:
                uses.append(call_uses)
                defs.append(call_defs)
                continue
            use = kill = 0
            for _, instruction in block.instructions:
                inst = instruction.inst
                use |= inst.read_mask & ~kill
                kill |= inst.write_mask
            uses.append(use)
            defs.append(kill)
        live_in = [0] * len(blocks)
        live_out = [0] * len(blocks)
        exit_id = cfg.exit.id
        live_in[exit_id] = exit_live
        # Every block but the exit starts on the worklist; popping from
        # the end visits later-created blocks first.  The exit stays
        # marked pending so it is never queued.
        work = [block.id for block in blocks if block.id != exit_id]
        pending = [True] * len(blocks)
        while work:
            index = work.pop()
            pending[index] = False
            block = blocks[index]
            out = 0
            for edge in block.succ:
                out |= live_in[edge.dst.id]
            live_out[index] = out
            new_in = uses[index] | (out & ~defs[index])
            if new_in != live_in[index]:
                live_in[index] = new_in
                for edge in block.pred:
                    source = edge.src.id
                    if not pending[source]:
                        pending[source] = True
                        work.append(source)
        self.in_masks = live_in
        self.out_masks = live_out

    def _set(self, mask):
        regs = self._sets.get(mask)
        if regs is None:
            regs = self._sets[mask] = frozenset(_registers(mask))
        return regs

    def _pre_window_at(self, block, index):
        """True when position *index* may run in the caller's window."""
        if not self.pre_window or not self.pre_window[block.id]:
            return False
        for _, instruction in block.instructions[:index]:
            if instruction.inst.name == "save":
                return False
        return True

    # ------------------------------------------------------------------
    def live_before(self, block, index):
        """Registers live immediately before instruction *index*."""
        live = self.out_masks[block.id]
        instructions = block.instructions
        for position in range(len(instructions) - 1, index - 1, -1):
            inst = instructions[position][1].inst
            live = (live & ~inst.write_mask) | inst.read_mask
        if self._pre_window_at(block, index):
            live |= _SPARC_WINDOW_MASK
        return self._set(live)

    def live_after(self, block, index):
        """Registers live immediately after instruction *index*."""
        if index + 1 < len(block.instructions):
            return self.live_before(block, index + 1)
        live = self.out_masks[block.id]
        if self._pre_window_at(block, len(block.instructions)):
            live |= _SPARC_WINDOW_MASK
        return self._set(live)

    def live_on_edge(self, edge):
        """Registers live while traversing *edge*."""
        live = self.in_masks[edge.dst.id]
        pre_window = self.pre_window
        if pre_window and (
            pre_window[edge.dst.id]
            or (pre_window[edge.src.id] and not _has_save(edge.src))
        ):
            live |= _SPARC_WINDOW_MASK
        return self._set(live)

    def dead_registers(self, live, candidates):
        """Candidates from *candidates* not in *live*, in order."""
        return [reg for reg in candidates if reg not in live]
