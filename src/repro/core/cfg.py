"""Control-flow graphs with explicit delayed-control normalization.

The CFG is EEL's primary program representation (paper section 3.3).
Delay-slot instructions are hoisted into their own basic blocks attached
to the edges along which they execute, so all instructions *appear* to
have no internal control flow (Figure 3):

* non-annulled conditional branch — the delay instruction is duplicated
  into a delay block on *both* outgoing edges;
* annulled conditional branch — delay block on the taken edge only;
* ``ba,a`` — the delay slot never executes and is not part of the block;
* call — delay block, then a distinguished zero-length *call surrogate*
  block standing in for the callee, then the continuation;
* return — delay block, then the exit pseudo-block.

Uneditable blocks and edges (call/return/indirect-jump delay slots,
surrogates, entry/exit) are marked so tools pick an editable spot; the
paper reports 15-20% of blocks/edges are uneditable.
"""

import itertools
import types

from repro.isa.base import Category
from repro.obs import metrics as _metrics
from repro.obs.trace import phase as _phase
from repro.obs.trace import span as _span

_C_BUILDS = _metrics.counter("cfg.builds")
_C_RESTORES = _metrics.counter("cache.restored_cfgs")
_C_BLOCKS = _metrics.counter("cfg.blocks")
_C_EDGES = _metrics.counter("cfg.edges")
_C_DELAY_HOISTS = _metrics.counter("cfg.delay_hoists")
_C_EDITABLE_BLOCKS = _metrics.counter("cfg.editable_blocks")
_C_EDITABLE_EDGES = _metrics.counter("cfg.editable_edges")
_C_INCOMPLETE = _metrics.counter("cfg.incomplete")
_H_BLOCKS = _metrics.histogram("cfg.blocks_per_routine")
# The paper's Table 1 shares: blocks and edges a tool cannot edit.
_metrics.ratio("cfg.uneditable_block_rate", (_C_EDITABLE_BLOCKS,),
               (_C_BLOCKS,), complement=True)
_metrics.ratio("cfg.uneditable_edge_rate", (_C_EDITABLE_EDGES,),
               (_C_EDGES,), complement=True)
_phase("cfg.build")

# Block kinds.
BK_NORMAL = "normal"
BK_DELAY = "delay"
BK_SURROGATE = "surrogate"
BK_ENTRY = "entry"
BK_EXIT = "exit"

# Edge kinds.
EK_FALL = "fall"
EK_TAKEN = "taken"
EK_UNCOND = "uncond"
EK_DELAY = "delay"  # control-transfer block -> its delay block
EK_CALL = "call"  # delay block -> call surrogate
EK_CRETURN = "creturn"  # call surrogate -> continuation
EK_COMPUTED = "computed"  # resolved indirect-jump target
EK_ENTRY = "entry"
EK_EXIT = "exit"
EK_ESCAPE = "escape"  # direct transfer out of the routine


_NO_SNIPPETS = types.MappingProxyType({})
_NO_DELETIONS = frozenset()


class CFGError(Exception):
    pass


class Edge:
    """A control-flow edge; tools may attach snippets along it."""

    __slots__ = ("src", "dst", "kind", "editable", "snippets", "escape_target")

    def __init__(self, src, dst, kind, editable=True, escape_target=None):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.editable = editable
        self.snippets = []
        self.escape_target = escape_target

    def add_code_along(self, snippet):
        """Schedule *snippet* to execute whenever this edge is traversed."""
        if not self.editable:
            raise CFGError("edge %s is not editable" % self)
        self.snippets.append(snippet)

    def __repr__(self):
        return "Edge(%s->%s %s)" % (self.src.id, self.dst.id, self.kind)


class BasicBlock:
    """Single-entry straight-line code; may be a pseudo block."""

    __slots__ = (
        "id", "kind", "start", "instructions", "succ", "pred",
        "editable", "before", "after", "deleted", "cti_addr",
    )

    def __init__(self, block_id, kind, start=None, instructions=None):
        self.id = block_id
        self.kind = kind
        self.start = start
        # list of (addr, Instruction)
        self.instructions = [] if instructions is None else instructions
        self.succ = []
        self.pred = []
        self.editable = kind == BK_NORMAL or kind == BK_DELAY
        # Edits: index -> [snippets]; index len(instructions) means "at end".
        # Shared read-only empties until the block's first edit of each
        # kind: most blocks of most CFGs are never edited.
        self.before = _NO_SNIPPETS
        self.after = _NO_SNIPPETS
        self.deleted = _NO_DELETIONS
        self.cti_addr = None  # address of the control transfer ending this block

    # -- queries -------------------------------------------------------------
    def __len__(self):
        return len(self.instructions)

    def addresses(self):
        return [addr for addr, _ in self.instructions]

    @property
    def last_instruction(self):
        return self.instructions[-1][1] if self.instructions else None

    @property
    def is_pseudo(self):
        return self.kind in (BK_ENTRY, BK_EXIT, BK_SURROGATE)

    def successors(self):
        return [edge.dst for edge in self.succ]

    def predecessors(self):
        return [edge.src for edge in self.pred]

    def taken_edge(self):
        for edge in self.succ:
            if edge.kind in (EK_TAKEN, EK_UNCOND):
                return edge
        return None

    def fall_edge(self):
        for edge in self.succ:
            if edge.kind == EK_FALL:
                return edge
        return None

    # -- editing ---------------------------------------------------------------
    def add_code_before(self, index, snippet):
        """Insert *snippet* before the instruction at *index*."""
        if not self.editable:
            raise CFGError("block %d is not editable" % self.id)
        if self.before is _NO_SNIPPETS:
            self.before = {}
        self.before.setdefault(index, []).append(snippet)

    def add_code_after(self, index, snippet):
        """Insert *snippet* after the instruction at *index*.

        Not allowed after a control transfer; edit the edges instead.
        """
        if not self.editable:
            raise CFGError("block %d is not editable" % self.id)
        _, instruction = self.instructions[index]
        if instruction.is_control and not instruction.is_system:
            raise CFGError("cannot add code after a control transfer; "
                           "use the outgoing edges")
        if self.after is _NO_SNIPPETS:
            self.after = {}
        self.after.setdefault(index, []).append(snippet)

    def delete_instruction(self, index):
        """Remove the instruction at *index* from the edited routine."""
        if not self.editable:
            raise CFGError("block %d is not editable" % self.id)
        _, instruction = self.instructions[index]
        if instruction.is_control:
            raise CFGError("cannot delete a control transfer")
        if self.deleted is _NO_DELETIONS:
            self.deleted = set()
        self.deleted.add(index)

    @property
    def is_edited(self):
        return bool(self.before or self.after or self.deleted)

    def __repr__(self):
        return "BB(%d %s @%s)" % (
            self.id, self.kind,
            "0x%x" % self.start if self.start is not None else "-",
        )


class IndirectJumpInfo:
    """Result of analyzing one indirect jump (paper section 3.3)."""

    def __init__(self, block, status, table_addr=None, targets=(),
                 literal=None, patch_sites=(), index_bound=None):
        self.block = block  # the jump's block
        self.status = status  # "table" | "literal" | "tailcall" | "unanalyzable"
        self.table_addr = table_addr
        self.targets = list(targets)
        self.literal = literal
        self.patch_sites = list(patch_sites)  # (addr, role) for re-pointing
        self.index_bound = index_bound


class CFG:
    """CFG of one routine, with analyses and batch editing."""

    def __init__(self, routine, record=None):
        self.routine = routine
        self.executable = routine.executable
        self.codec = routine.executable.codec
        self.blocks = []
        self.entry = None
        self.exit = None
        self.block_at = {}  # start addr -> normal block
        self.indirect_jumps = []  # IndirectJumpInfo
        self.data_addrs = set()  # addresses proven to be data (tables)
        self.incomplete = False  # some control flow unresolved statically
        # A delayed CTI whose delay slot holds another control transfer
        # (paper §3.1): discovery stops there, and tools must refuse to
        # edit the routine — relaying the pair out-of-place changes the
        # delayed-delayed semantics.
        self.cti_in_slot = False
        self.unreached = set()  # valid, never-reached addresses in extent
        self._edge_count = 0
        # Edges in creation order: succ/pred list order is semantically
        # significant (layout assumes ``succ[0]`` is the delay edge of a
        # call), and the packed record keeps this order.
        self.edge_order = []
        self._liveness = None  # memoized LivenessAnalysis
        if record is None:
            self._build()
        else:
            self._restore(record)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _new_block(self, kind, start=None):
        block = BasicBlock(len(self.blocks), kind, start)
        self.blocks.append(block)
        return block

    def _connect(self, src, dst, kind, editable=True, escape_target=None):
        edge = Edge(src, dst, kind, editable=editable,
                    escape_target=escape_target)
        src.succ.append(edge)
        dst.pred.append(edge)
        self._edge_count += 1
        self.edge_order.append(edge)
        return edge

    def _build(self):
        with _span("cfg.build", routine=self.routine.name) as sp:
            self._build_inner()
            sp.set(blocks=len(self.blocks), edges=self._edge_count)
        editable_blocks, blocks, editable_edges, edges = self.editable_stats()
        _C_BUILDS.inc()
        self._count_shape(
            editable_blocks, editable_edges,
            sum(1 for block in self.blocks if block.kind == BK_DELAY))

    def _count_shape(self, editable_blocks, editable_edges, delay_hoists):
        """Record the graph's shape counters, the same for a build and
        a restore so warm-cache reports stay comparable."""
        _C_BLOCKS.inc(len(self.blocks))
        _C_EDGES.inc(self._edge_count)
        _C_EDITABLE_BLOCKS.inc(editable_blocks)
        _C_EDITABLE_EDGES.inc(editable_edges)
        _C_DELAY_HOISTS.inc(delay_hoists)
        if self.incomplete:
            _C_INCOMPLETE.inc()
        _H_BLOCKS.observe(len(self.blocks))

    def _build_inner(self):
        from repro.core.analysis.indirect import analyze_indirect_jump

        routine = self.routine
        entries = set(routine.entries)
        known_targets = set(entries)

        for _ in range(8):  # indirect-target discovery fixpoint
            discovery = _Discovery(self, known_targets)
            discovery.run()
            self._materialize(discovery)
            new_targets = set()
            self.indirect_jumps = []
            for block in self.blocks:
                last = block.last_instruction
                if (block.kind == BK_NORMAL and last is not None
                        and last.category is Category.JUMP_INDIRECT):
                    info = analyze_indirect_jump(self, block)
                    self.indirect_jumps.append(info)
                    if info.status == "table":
                        for target in info.targets:
                            if (routine.contains(target)
                                    and target not in known_targets):
                                new_targets.add(target)
                    elif info.status == "unanalyzable":
                        self.incomplete = True
            if not new_targets:
                break
            known_targets |= new_targets
        self._finalize_indirect_edges()
        # Tables resolved by this build's own slicing land in data_addrs
        # even when no new targets forced another discovery pass (whose
        # snapshot would have picked them up as claimed data): the
        # summary's data/unreached split is defined by what the finished
        # build has proven to be data, not by claim timing — hydrating
        # claims up front (the metadata trust path) and discovering them
        # mid-build must summarize identically.
        from repro.core.analysis.indirect import table_extent

        for info in self.indirect_jumps:
            if info.status == "table":
                addr, size = table_extent(info)
                for offset in range(0, size, 4):
                    if routine.contains(addr + offset):
                        self.data_addrs.add(addr + offset)
        self._compute_unreached(known_targets)

    def _materialize(self, discovery):
        """Build blocks and edges from a completed discovery pass."""
        self.blocks = []
        self.block_at = {}
        self._edge_count = 0
        self.edge_order = []
        self.data_addrs = set(discovery.table_data)

        self.entry = self._new_block(BK_ENTRY)
        self.exit = self._new_block(BK_EXIT)

        # Normal blocks from the discovered linear runs.
        table = discovery.table
        for start, addrs in discovery.runs():
            block = self._new_block(BK_NORMAL, start)
            block.instructions = [(addr, table[addr]) for addr in addrs]
            self.block_at[start] = block

        for entry_addr in sorted(discovery.entries):
            target = self.block_at.get(entry_addr)
            if target is not None:
                self._connect(self.entry, target, EK_ENTRY, editable=False)

        # Edges and delay/surrogate structure.
        for block in list(self.blocks):
            if block.kind != BK_NORMAL:
                continue
            self._attach_control(block, discovery)

    def _delay_block(self, cti_addr, editable):
        delay_addr = cti_addr + 4
        block = self._new_block(BK_DELAY, delay_addr)
        block.instructions.append(
            (delay_addr, self.executable.instruction_at(delay_addr)))
        block.editable = editable
        return block

    def _attach_control(self, block, discovery):
        last = block.last_instruction
        if last is None:
            return
        addr = block.instructions[-1][0]
        end_addr = addr + 4

        if not last.is_control or last.category is Category.SYSTEM:
            # Fell off into the next leader (system calls fall through).
            self._link_fall(block, end_addr)
            return

        block.cti_addr = addr
        category = last.category

        if category is Category.BRANCH:
            self._attach_branch(block, addr, last)
            return

        if category in (Category.CALL, Category.CALL_INDIRECT):
            delay = self._delay_block(addr, editable=False)
            self._connect(block, delay, EK_DELAY, editable=False)
            surrogate = self._new_block(BK_SURROGATE)
            self._connect(delay, surrogate, EK_CALL, editable=False)
            continuation = self.block_at.get(addr + 8)
            if continuation is not None:
                self._connect(surrogate, continuation, EK_CRETURN,
                              editable=False)
            else:
                self._connect(surrogate, self.exit, EK_EXIT, editable=False)
            return

        if category is Category.RETURN:
            delay = self._delay_block(addr, editable=False)
            self._connect(block, delay, EK_DELAY, editable=False)
            self._connect(delay, self.exit, EK_EXIT, editable=False)
            return

        if category is Category.JUMP:
            target = last.target(addr)
            if last.is_delayed:
                delay = self._delay_block(addr, editable=True)
                self._connect(block, delay, EK_UNCOND)
                self._link_direct(delay, target)
            else:
                self._link_direct(block, target)
            return

        if category is Category.JUMP_INDIRECT:
            delay = self._delay_block(addr, editable=False)
            self._connect(block, delay, EK_DELAY, editable=False)
            # Computed edges attached after slicing (_finalize_indirect_edges).
            return

        raise CFGError("unhandled control category %s" % category)

    def _attach_branch(self, block, addr, last):
        target = last.target(addr)
        cond = last.cond

        if cond == "a" and not last.is_delayed:
            # ba,a: annulled unconditional; no delay slot executes.
            self._link_direct(block, target, kind=EK_UNCOND)
            return
        if cond == "a":
            delay = self._delay_block(addr, editable=True)
            self._connect(block, delay, EK_UNCOND)
            self._link_direct(delay, target)
            return
        if cond == "n":
            # Branch never: pure fall-through (with delay when not annulled).
            if last.annul_untaken:
                self._link_fall(block, addr + 8)
            else:
                delay = self._delay_block(addr, editable=True)
                self._connect(block, delay, EK_FALL)
                self._link_fall(delay, addr + 8)
            return

        # Conditional branch.
        if last.annul_untaken:
            # Delay executes on the taken path only (Figure 3).
            delay = self._delay_block(addr, editable=True)
            self._connect(block, delay, EK_TAKEN)
            self._link_direct(delay, target)
            self._link_fall(block, addr + 8)
        else:
            # Delay duplicated along both edges.
            taken_delay = self._delay_block(addr, editable=True)
            fall_delay = self._delay_block(addr, editable=True)
            self._connect(block, taken_delay, EK_TAKEN)
            self._link_direct(taken_delay, target)
            self._connect(block, fall_delay, EK_FALL)
            self._link_fall(fall_delay, addr + 8)

    def _link_direct(self, src, target, kind=EK_UNCOND):
        if target is not None and self.routine.contains(target):
            dst = self.block_at.get(target)
            if dst is not None:
                self._connect(src, dst, kind)
                return
        self._connect(src, self.exit, EK_ESCAPE, editable=False,
                      escape_target=target)

    def _link_fall(self, src, addr):
        dst = self.block_at.get(addr)
        if dst is not None:
            self._connect(src, dst, EK_FALL)
        else:
            self._connect(src, self.exit, EK_EXIT, editable=False,
                          escape_target=addr)

    def _finalize_indirect_edges(self):
        from repro.core.analysis.indirect import record_indirect_outcome

        for info in self.indirect_jumps:
            record_indirect_outcome(info)
            block = info.block
            delay = None
            for edge in block.succ:
                if edge.kind == EK_DELAY:
                    delay = edge.dst
            source = delay if delay is not None else block
            if info.status == "table":
                seen = set()
                for target in info.targets:
                    if target in seen:
                        continue
                    seen.add(target)
                    dst = self.block_at.get(target)
                    if dst is not None:
                        # Editable: layout redirects the table entry to a
                        # stub holding the edge's snippets (the paper's
                        # "modifies the table to point to edited locations").
                        self._connect(source, dst, EK_COMPUTED)
                    else:
                        self._connect(source, self.exit, EK_ESCAPE,
                                      editable=False, escape_target=target)
            elif info.status in ("literal", "tailcall"):
                self._link_escape_or_local(source, info.literal)
            else:
                self._connect(source, self.exit, EK_EXIT, editable=False)

    def _link_escape_or_local(self, source, target):
        dst = self.block_at.get(target) if target is not None else None
        if dst is not None and self.routine.contains(target):
            self._connect(source, dst, EK_COMPUTED, editable=False)
        else:
            self._connect(source, self.exit, EK_ESCAPE, editable=False,
                          escape_target=target)

    def _compute_unreached(self, known_targets):
        covered = set()
        for block in self.blocks:
            for addr, _ in block.instructions:
                covered.add(addr)
        routine = self.routine
        self.unreached = set()
        addr = routine.start
        while addr < routine.end:
            if addr not in covered and addr not in self.data_addrs:
                self.unreached.add(addr)
            addr += 4

    # ------------------------------------------------------------------
    # Restore: the one materializer of packed CFG records
    # ------------------------------------------------------------------
    def _restore(self, record):
        """Materialize the CFG from its packed ``cfg`` fact record (see
        :mod:`repro.core.facts.record`) instead of re-analyzing.

        One pass builds the blocks, their instruction runs (slices of
        the text table's address-ordered pairs) and the edges in
        creation order, counting the shape counters as it goes.  They
        are recorded as on a fresh build so warm-cache reports stay
        comparable, but ``cfg.builds`` is not incremented and the span
        is ``cfg.restore`` — the analysis itself did not run.
        """
        from repro.core.facts.record import (
            BLOCK_KINDS, CTI, DELAY, EDGE_KINDS, EDITABLE, ESCAPE, NORMAL)

        text = self.executable.text_table()
        pairs = text.pairs()
        base = text.vaddr
        blocks = self.blocks
        block_at = self.block_at
        editable_blocks = editable_edges = 0
        with _span("cfg.restore", routine=self.routine.name) as sp:
            for index, code, flags, start, words in zip(
                    itertools.count(), record.kinds, record.flags,
                    record.starts, record.words):
                if code <= DELAY:
                    first = (start - base) >> 2
                    block = BasicBlock(index, BLOCK_KINDS[code], start,
                                       pairs[first:first + words])
                    if code == NORMAL:
                        block_at[start] = block
                    if flags & CTI:
                        block.cti_addr = start + 4 * words - 4
                else:
                    block = BasicBlock(index, BLOCK_KINDS[code])
                block.editable = flags & EDITABLE == EDITABLE
                editable_blocks += block.editable
                blocks.append(block)
            order = self.edge_order
            for src, dst, code, flags, escape in zip(
                    record.edge_src, record.edge_dst, record.edge_kinds,
                    record.edge_flags, record.escapes):
                source = blocks[src]
                target = blocks[dst]
                edge = Edge(source, target, EDGE_KINDS[code],
                            flags & EDITABLE == EDITABLE,
                            escape if flags & ESCAPE else None)
                source.succ.append(edge)
                target.pred.append(edge)
                order.append(edge)
                editable_edges += edge.editable
            self._edge_count = len(order)
            self.entry = blocks[record.entry]
            self.exit = blocks[record.exit]
            if record.indirect:
                from repro.core.analysis.indirect import \
                    record_indirect_outcome

                for entry in record.indirect:
                    info = IndirectJumpInfo(
                        blocks[entry.block], entry.status,
                        entry.table_addr, entry.targets, entry.literal,
                        entry.patch_sites, entry.index_bound)
                    self.indirect_jumps.append(info)
                    record_indirect_outcome(info)
            self.data_addrs = set(record.data_addrs)
            self.unreached = set(record.unreached)
            self.incomplete = record.incomplete
            self.cti_in_slot = record.cti_in_slot
            sp.set(blocks=len(blocks), edges=self._edge_count)
        _C_RESTORES.inc()
        self._count_shape(editable_blocks, editable_edges,
                          record.kinds.count(DELAY))

    # ------------------------------------------------------------------
    # Queries and statistics
    # ------------------------------------------------------------------
    def normal_blocks(self):
        return [b for b in self.blocks if b.kind == BK_NORMAL]

    def all_edges(self):
        return [edge for block in self.blocks for edge in block.succ]

    def block_census(self):
        """Counts by block kind (reproduces the paper's footnote 1)."""
        census = {}
        for block in self.blocks:
            census[block.kind] = census.get(block.kind, 0) + 1
        return census

    def editable_stats(self):
        """(editable blocks, total, editable edges, total)."""
        blocks_total = len(self.blocks)
        blocks_editable = sum(1 for b in self.blocks if b.editable)
        edges = self.all_edges()
        edges_editable = sum(1 for e in edges if e.editable)
        return blocks_editable, blocks_total, edges_editable, len(edges)

    @property
    def is_edited(self):
        return any(b.is_edited for b in self.blocks) or any(
            edge.snippets for edge in self.all_edges()
        )

    def instruction_count(self):
        return sum(len(b) for b in self.blocks if b.kind == BK_NORMAL)

    # -- analyses (lazy imports keep module load light) ---------------------
    def dominators(self):
        from repro.core.analysis.dominators import dominators

        return dominators(self)

    def natural_loops(self):
        from repro.core.analysis.loops import natural_loops

        return natural_loops(self)

    def live_registers(self):
        """The routine's liveness, solved on first use — or restored
        from a clean ``liveness`` fact for the routine's identity."""
        if self._liveness is None:
            from repro.core.analysis.liveness import LivenessAnalysis
            from repro.core.facts.rules import restorable

            self._liveness = LivenessAnalysis(
                self, restorable(self.executable, "liveness", self.routine))
        return self._liveness

    def backward_slice(self, block, index, reg):
        from repro.core.analysis.slicing import backward_slice

        return backward_slice(self, block, index, reg)


class _Discovery:
    """Reachability pass: finds instructions, leaders, and data.

    A reachable invalid instruction marks the path as data (paper section
    3.1 stage 4); unreachable valid suffixes become hidden-routine
    candidates during symbol refinement.
    """

    def __init__(self, cfg, entries):
        self.cfg = cfg
        self.routine = cfg.routine
        self.entries = set(entries)
        self.visited = set()
        self.delay_addrs = set()
        self.leaders = set(entries)
        self.cti_addrs = set()
        self.escapes = []  # (source addr, target addr) leaving the routine
        self.call_targets = []  # direct call targets (for refinement)
        self.table_data = set(self.routine.executable.claimed_data(
            self.routine))
        self.invalid_hits = set()
        self.table = self.routine.executable.text_table()

    def run(self):
        work = sorted(self.entries)
        while work:
            addr = work.pop()
            self._walk(addr, work)

    def _walk(self, addr, work):
        cfg = self.cfg
        routine = self.routine
        table = self.table
        while True:
            if addr in self.visited and addr not in self.delay_addrs:
                return
            if not routine.contains(addr) or addr in self.table_data:
                return
            instruction = table[addr]
            if not instruction.is_valid:
                # Reachable invalid word: data in text.
                self.invalid_hits.add(addr)
                return
            self.visited.add(addr)
            if not instruction.is_control \
                    or instruction.category is Category.SYSTEM:
                # System calls return sequentially here; they do not end
                # a basic block.
                addr += 4
                continue

            self.cti_addrs.add(addr)
            successors = []
            if instruction.is_delayed:
                delay_addr = addr + 4
                if routine.contains(delay_addr):
                    delay_inst = table[delay_addr]
                    if delay_inst.is_control \
                            and delay_inst.category is not Category.SYSTEM:
                        # Delayed CTI in a delay slot: conservative stop.
                        cfg.incomplete = True
                        cfg.cti_in_slot = True
                        return
                    self.visited.add(delay_addr)
                    self.delay_addrs.add(delay_addr)

            category = instruction.category
            target = instruction.target(addr)
            if category is Category.BRANCH:
                cond = instruction.cond
                if cond != "n" and target is not None:
                    successors.append(target)
                if cond != "a":
                    successors.append(addr + 8 if instruction.is_delayed
                                      or instruction.annul_untaken
                                      else addr + 8)
            elif category is Category.JUMP:
                if target is not None:
                    successors.append(target)
            elif category in (Category.CALL, Category.CALL_INDIRECT):
                if target is not None:
                    self.call_targets.append(target)
                successors.append(addr + 8)
            elif category is Category.RETURN:
                pass
            elif category is Category.JUMP_INDIRECT:
                pass  # resolved by the slicing fixpoint in CFG._build
            for successor in successors:
                if routine.contains(successor):
                    self.leaders.add(successor)
                    if successor not in self.visited:
                        work.append(successor)
                else:
                    self.escapes.append((addr, successor))
            return

    def runs(self):
        """Yield (start, [addrs]) for every normal linear block."""
        body_addrs = sorted(
            addr for addr in self.visited
            if addr not in self.delay_addrs or addr in self.leaders
        )
        runs = []
        current = None
        for addr in body_addrs:
            if current is None or addr in self.leaders or (
                current and addr != current[-1] + 4
            ):
                current = [addr]
                runs.append(current)
            else:
                current.append(addr)
            if addr in self.cti_addrs:
                current = None
        return [(run[0], run) for run in runs]
