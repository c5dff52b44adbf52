"""Edited-routine layout (paper section 3.3.1).

``lay_out_routine`` turns an edited CFG back into machine code in one
pass over its blocks.  It emits the routine into an
:class:`EditedRoutine` holding

* the routine's bytes: each stretch of untouched straight-line words is
  copied from ``.text`` as one run, and every word whose value is
  already known (a snippet's, a rewritten or synthesized instruction's)
  is packed as it is emitted, so the work follows the edits and blocks,
  not the routine's length;
* a short fixup list for the words that need final addresses: branches
  and transfers to re-target, literal-address patches, synthesized
  jumps and snippet call-backs;
* a placement log: the offset of every label, and the offset of every
  original word placed.

Along the way snippets receive registers (scavenged or spilled),
unedited delay slots are re-folded into their control transfer, edited
branch edges are routed through out-of-line stubs, dispatch-table
entries are redirected to edited targets (or to stubs carrying edge
snippets), literal-target jumps (including frame-pop tail calls) have
their address-forming instructions re-pointed, and unanalyzable
indirect jumps fall back to run-time address translation through an
original→edited table.

``finalize_image`` places whole routines one after another and checks
every short synthesized jump's span.  A jump that does not reach grows
to its long form, which re-emits that routine's bytes with everything
after the jump moved down, and placement repeats until nothing grows.
Then it applies the fixups, concatenates the routines (after any
tool-added routines and data) into the new text, builds the address
map, patches dispatch tables, and installs trampolines at original
entry points so unedited callers still reach edited code.
"""

import struct
from bisect import bisect_left
from operator import attrgetter

from repro.binfmt import layout as binlayout
from repro.binfmt.image import Image, SEC_EXEC, SEC_WRITE, Section, Symbol
from repro.core.cfg import (
    BK_DELAY,
    BK_EXIT,
    BK_NORMAL,
    EK_COMPUTED,
    EK_ESCAPE,
    EK_FALL,
    EK_TAKEN,
    EK_UNCOND,
)
from repro.core.regalloc import allocate_snippet
from repro.isa import bits
from repro.isa.base import Category, SpanError
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

_C_ROUTINES = _metrics.counter("layout.routines")
_C_STUBS = _metrics.counter("layout.stubs")
_C_REFOLDS = _metrics.counter("layout.delay_refolds")
_C_BRANCH_FIXUPS = _metrics.counter("layout.branch_stub_fixups")
_C_RUNTIME_XLATE = _metrics.counter("layout.runtime_translations")
_C_TABLE_PATCHES = _metrics.counter("layout.table_patches")
_C_TRAMPOLINES = _metrics.counter("layout.trampolines")
_C_LONG_BRANCHES = _metrics.counter("layout.long_branches")
_C_BYTES = _metrics.counter("layout.edited_bytes")
# Emission work: units emitted -- labels, runs, words, snippets and
# fixups -- and original words emitted inside runs rather than as
# units of their own.
_C_ITEMS = _metrics.counter("layout.items")
_C_RUN_WORDS = _metrics.counter("layout.run_words")

# Long-branch relaxation never needs more passes than there are jumps
# (each pass either converges or grows at least one more jump to its
# long form, and growth is monotone), but cap the fixpoint anyway so a
# placement bug cannot hang finalization.
_MAX_RELAX_PASSES = 64

# Bytes of a synthesized jump, short and long, by architecture: a short
# jump is ba,a on SPARC and j plus its delay-slot nop on MIPS; the long
# form is the long-branch stub (sethi/jmpl on SPARC, lui/ori/jr on
# MIPS), nop-padded to a fixed size so placement stays stable.
_JUMP_BYTES = {"sparc": (4, 12), "mips": (8, 16)}

_WORD = struct.Struct(">I")
_PLACEHOLDER = bytes(16)

_BRANCH = Category.BRANCH
_CALL = Category.CALL
_CALL_INDIRECT = Category.CALL_INDIRECT
_JUMP = Category.JUMP
_JUMP_INDIRECT = Category.JUMP_INDIRECT
_RETURN = Category.RETURN
_SYSTEM = Category.SYSTEM


class LayoutError(Exception):
    pass


class EditedRoutine:
    """One laid-out edited routine, not yet placed.

    *code* holds the routine's bytes.  The words at the offsets of
    *fixups* are placeholders until :func:`finalize_image` writes them;
    each fixup is ``(offset, kind, word, target, extra)``:

    ==========  ====================  ===============  ==================
    kind        word                  target           extra
    ==========  ====================  ===============  ==================
    branch      the branch word       label key        --
    xfer        the transfer word     original addr    --
    patch       the literal's word    original addr    patch role
    jump        --                    label key        bytes (short/long)
    jumpxfer    --                    original addr    bytes (short/long)
    snippet     --                    --               AllocatedSnippet
    ==========  ====================  ===============  ==================

    A ``snippet`` fixup is a snippet with a call-back, which runs with
    the snippet's final address.  Label keys are routine-local: a
    block's label is its start address, a stub's its name.

    The placement log: *labels* maps each label key to its offset;
    *origins* lists ``(original address, offset, bytes)`` for every
    original word placed, in emission order (a run of untouched words
    is one entry); *snippets* lists ``(offset, AllocatedSnippet, label
    key in force)`` for every placed snippet.  *table_patches* are
    ``(dispatch entry address, ("label", key) or ("orig", address))``.
    """

    def __init__(self, routine):
        self.routine = routine
        self.code = bytearray()
        self.fixups = []
        self.labels = {}
        self.origins = []
        self.snippets = []
        self.table_patches = []
        self.base = None

    def grow_jumps(self, positions):
        """Re-emit the routine with the jump fixups at *positions* (of
        :attr:`fixups`, ascending) in their long form: each jump's
        bytes grow to the long size and everything after it moves
        down."""
        arch = self.routine.executable.arch
        short, long = _JUMP_BYTES[arch]
        delta = long - short
        grown = [self.fixups[position][0] for position in positions]

        def moved(offset):
            return offset + delta * bisect_left(grown, offset)

        code = bytearray()
        previous = 0
        for offset in grown:
            code += self.code[previous:offset + short]
            code += bytes(delta)
            previous = offset + short
        code += self.code[previous:]
        self.code = code
        fixups = self.fixups
        for position in positions:
            offset, kind, word, target, _ = fixups[position]
            fixups[position] = (offset, kind, word, target, long)
        self.fixups = [(moved(offset), kind, word, target, extra)
                       for offset, kind, word, target, extra in fixups]
        self.labels = {key: moved(offset)
                       for key, offset in self.labels.items()}
        self.origins = [(orig, moved(offset), size)
                        for orig, offset, size in self.origins]
        self.snippets = [(moved(offset), allocated, label)
                         for offset, allocated, label in self.snippets]


def label_name(key):
    """The name of the label *key*: ``a<hex start>`` for a block's label
    (keyed by its start address), a stub's own name for a stub's."""
    return key if key.__class__ is str else "a%x" % key


def lay_out_routine(cfg):
    return _RoutineLayout(cfg).run()


class _RoutineLayout:
    def __init__(self, cfg):
        self.cfg = cfg
        routine = cfg.routine
        self.routine = routine
        self.codec = cfg.codec
        self.arch = cfg.codec.arch
        executable = routine.executable
        self.conventions = executable.conventions
        text = executable.image.sections[".text"]
        self.text_data = text.data
        self.text_vaddr = text.vaddr
        self.jump_bytes = _JUMP_BYTES[self.arch][0]
        self.result = EditedRoutine(routine)
        self.code = self.result.code
        self.offset = 0  # len(self.code), kept as the bytes are emitted
        self.fixups = self.result.fixups
        self.labels = self.result.labels
        self.origins = self.result.origins
        self.snippet_log = self.result.snippets
        self.label = None  # key of the label in force
        # Stubs are emitted after the last block: (label, chain).
        self.stubs = []
        self.units = 0
        self.run_words = 0
        self.refolds = 0
        self.branch_stubs = 0
        self.liveness = None  # the routine's, from layout's first ask
        self._alloc_cache = {}
        # Literal-jump patch roles: orig site addr -> (role, literal).
        self.patch_roles = {}
        for info in cfg.indirect_jumps:
            if info.status in ("literal", "tailcall"):
                for site_addr, role in info.patch_sites:
                    self.patch_roles[site_addr] = (role, info.literal)

    # ------------------------------------------------------------------
    def _live(self):
        """The routine's liveness (solved or restored on first use)."""
        self.liveness = self.cfg.live_registers()
        return self.liveness

    def _new_stub_label(self):
        return "%s.stub%d" % (label_name(self.routine.start),
                              len(self.stubs) + 1)

    # -- emission ------------------------------------------------------
    def _label(self, key):
        self.labels[key] = self.offset
        self.label = key
        self.units += 1

    def _word(self, word, orig=None):
        if orig is not None:
            self.origins.append((orig, self.offset, 4))
        self.code += _WORD.pack(word & bits.WORD_MASK)
        self.offset += 4
        self.units += 1

    def _fixup(self, kind, word, target, orig=None, extra=None, size=4):
        offset = self.offset
        if orig is not None:
            self.origins.append((orig, offset, 4))
        self.fixups.append((offset, kind, word, target, extra))
        self.code += _PLACEHOLDER[:size]
        self.offset = offset + size
        self.units += 1

    def _snips(self, snippets, live):
        code = self.code
        cache = self._alloc_cache
        for snippet in snippets:
            key = (snippet, live)
            allocated = cache.get(key)
            if allocated is None:
                allocated = cache[key] = allocate_snippet(
                    snippet, live, self.conventions)
            words = allocated.words
            offset = self.offset
            self.snippet_log.append((offset, allocated, self.label))
            if snippet.callback is not None:
                self.fixups.append((offset, "snippet", None, None,
                                    allocated))
            size = 4 * len(words)
            code += struct.pack(">%dI" % (size >> 2),
                                *map(bits.WORD_MASK.__and__, words))
            self.offset = offset + size
        self.units += len(snippets)

    def _goto(self, target, next_start):
        """Unconditional transfer to *target* unless it falls through
        to the block starting at *next_start*."""
        if target is None:
            return
        kind, value = target
        if kind == "label":
            if value != next_start:
                self._fixup("jump", None, value, extra=self.jump_bytes,
                            size=self.jump_bytes)
        else:
            self._fixup("jumpxfer", None, value, extra=self.jump_bytes,
                        size=self.jump_bytes)

    def _run(self, instructions, lo, hi):
        """The untouched words *lo*..*hi*-1 of a block, copied as one
        run (normal blocks are address-contiguous)."""
        if lo >= hi:
            return
        orig = instructions[lo][0]
        start = orig - self.text_vaddr
        size = 4 * (hi - lo)
        self.origins.append((orig, self.offset, size))
        self.code += self.text_data[start:start + size]
        self.offset += size
        self.run_words += hi - lo
        self.units += 1

    def _instruction(self, addr, instruction):
        patch = self.patch_roles.get(addr) if self.patch_roles else None
        if patch is None:
            self.origins.append((addr, self.offset, 4))
            self.code += _WORD.pack(instruction.inst.word)
            self.offset += 4
            self.units += 1
        else:
            role, literal = patch
            self._fixup("patch", instruction.inst.word, literal, orig=addr,
                        extra=role)

    # ------------------------------------------------------------------
    def run(self):
        cfg = self.cfg
        result = self.result
        with _span("layout.routine", routine=self.routine.name) as sp:
            normal = sorted(cfg.normal_blocks(), key=attrgetter("start"))
            last = len(normal) - 1
            for index, block in enumerate(normal):
                self._emit_block(block, normal[index + 1].start
                                 if index < last else None)
            for label, chain_ in self.stubs:
                self._label(label)
                self._emit_chain(chain_)
                self._goto(chain_[3], None)
            sp.set(bytes=self.offset, stubs=len(self.stubs))
        _C_ROUTINES.inc()
        _C_BYTES.inc(self.offset)
        _C_ITEMS.inc(self.units)
        if self.run_words:
            _C_RUN_WORDS.inc(self.run_words)
        if self.stubs:
            _C_STUBS.inc(len(self.stubs))
        if result.table_patches:
            _C_TABLE_PATCHES.inc(len(result.table_patches))
        if self.refolds:
            _C_REFOLDS.inc(self.refolds)
        if self.branch_stubs:
            _C_BRANCH_FIXUPS.inc(self.branch_stubs)
        return result

    def _emit_block(self, block, next_start):
        # The label carries the original address so that the address map
        # points at the start of the block's emission, *including* any
        # snippets placed before its first instruction.
        self.labels[block.start] = self.offset
        self.label = block.start
        self.units += 1
        instructions = block.instructions
        count = len(instructions)
        category = instructions[-1][1].inst.category
        terminator = count - 1 if (category.is_control and category
                                   is not _SYSTEM) else None
        start = 0  # first index of the pending run
        if block.before or block.after or block.deleted or self.patch_roles:
            start = self._emit_edited_words(block, terminator)
        if terminator is not None:
            self._run(instructions, start, terminator)
            addr, instruction = instructions[terminator]
            self._emit_terminator(block, addr, instruction, next_start)
            return
        self._run(instructions, start, count)
        # Block without a terminator: glue to its successor.
        edge = block.succ[0] if block.succ else None
        if edge is not None:
            liveness = self.liveness or self._live()
            if edge.snippets:
                self._snips(edge.snippets, liveness.live_on_edge(edge))
            self._goto(self._edge_target(edge), next_start)

    def _emit_edited_words(self, block, terminator):
        """Emit an edited block's words before its terminator (or end),
        the untouched stretches between edits as runs; returns the index
        of the first word of the pending run."""
        instructions = block.instructions
        count = len(instructions)
        # Untouched words between the indices that need a unit of their
        # own become runs, so the work here follows the edits, not the
        # block's length.
        before, after, deleted = block.before, block.after, block.deleted
        stops = set(deleted)
        if before:
            stops.update(index for index, snips in before.items() if snips)
        if after:
            stops.update(index for index, snips in after.items() if snips)
        if self.patch_roles:
            stops.update((addr - block.start) >> 2
                         for addr in self.patch_roles)
        if terminator is not None:
            stops.add(terminator)
        start = 0
        for index in sorted(stops):
            if not 0 <= index < count:
                continue  # a patch site of another block, or no word
            addr, instruction = instructions[index]
            snips = before.get(index)
            if snips:
                self._run(instructions, start, index)
                start = index
                liveness = self.liveness or self._live()
                self._snips(snips, liveness.live_before(block, index))
            if index == terminator:
                return start
            if index in deleted or addr in self.patch_roles:
                self._run(instructions, start, index)
                start = index + 1
                if index not in deleted:
                    self._instruction(addr, instruction)
            snips = after.get(index)
            if snips:
                self._run(instructions, start, index + 1)
                start = index + 1
                liveness = self.liveness or self._live()
                self._snips(snips, liveness.live_after(block, index))
        return start

    # ------------------------------------------------------------------
    # Chains: the code along one outgoing edge of a control transfer.
    # ------------------------------------------------------------------
    def _chain(self, edge):
        """``(edge, delay block or None, edge out of the delay block or
        None, target ref, clean)``: *clean* when the chain is exactly an
        unedited delay slot (or nothing)."""
        dst = edge.dst
        if dst.kind == BK_DELAY:
            out = dst.succ[0]
            clean = not (edge.snippets or out.snippets or dst.before
                         or dst.after or dst.deleted)
            return edge, dst, out, self._edge_target(out), clean
        return edge, None, None, self._edge_target(edge), not edge.snippets

    def _edge_target(self, edge):
        dst = edge.dst
        if edge.kind == EK_ESCAPE or dst.kind == BK_EXIT:
            if edge.escape_target is None:
                return None
            return ("orig", edge.escape_target)
        if dst.kind == BK_NORMAL:
            return ("label", dst.start)
        raise LayoutError("edge %r has no layout target" % edge)

    def _emit_chain(self, chain_, with_delay=True):
        """The chain's snippets and (*with_delay*) its delay block."""
        edge, delay, out = chain_[0], chain_[1], chain_[2]
        if edge.snippets:
            liveness = self.liveness or self._live()
            self._snips(edge.snippets, liveness.live_on_edge(edge))
        if delay is not None:
            if with_delay:
                self._emit_delay_block(delay)
            if out.snippets:
                liveness = self.liveness or self._live()
                self._snips(out.snippets, liveness.live_on_edge(out))

    def _emit_delay_block(self, block):
        before, after, deleted = block.before, block.after, block.deleted
        if not (before or after or deleted):
            for addr, instruction in block.instructions:
                self._instruction(addr, instruction)
            return
        for index, (addr, instruction) in enumerate(block.instructions):
            snips = before.get(index)
            if snips:
                liveness = self.liveness or self._live()
                self._snips(snips, liveness.live_before(block, index))
            if index not in deleted:
                self._instruction(addr, instruction)
            snips = after.get(index)
            if snips:
                liveness = self.liveness or self._live()
                self._snips(snips, liveness.live_after(block, index))

    # ------------------------------------------------------------------
    # Terminators
    # ------------------------------------------------------------------
    def _emit_terminator(self, block, addr, instruction, next_start):
        category = instruction.inst.category
        if category is _BRANCH:
            self._emit_branch(block, addr, instruction.inst, next_start)
        elif category is _CALL or category is _CALL_INDIRECT:
            self._emit_call(block, addr, instruction, next_start)
        elif category is _RETURN:
            self._instruction(addr, instruction)
            self._emit_delay_block(block.succ[0].dst)
        elif category is _JUMP:
            self._emit_direct_jump(block, addr, instruction, next_start)
        elif category is _JUMP_INDIRECT:
            self._emit_indirect_jump(block, addr, instruction)
        else:
            raise LayoutError("unexpected terminator %s" % instruction.name)

    def _branch_word(self, word, target, orig_addr):
        if target is not None and target[0] == "label":
            self._fixup("branch", word, target[1], orig=orig_addr)
        else:
            self._fixup("xfer", word, target and target[1], orig=orig_addr)

    def _emit_branch(self, block, addr, inst, next_start):
        taken = fall = None
        for edge in block.succ:
            kind = edge.kind
            if kind == EK_TAKEN or kind == EK_UNCOND:
                if taken is None:
                    taken = edge
            elif kind == EK_FALL and fall is None:
                fall = edge
        word = inst.word

        if taken is None:
            # Branch-never: pure fall-through; emit only the chain.
            if fall is not None:
                chain_ = self._chain(fall)
                self._emit_chain(chain_)
                self._goto(chain_[3], next_start)
            return

        t_chain = self._chain(taken)
        t_target, t_clean = t_chain[3], t_chain[4]
        t_delay = t_chain[1]

        if fall is None:
            # Unconditional (ba or ba,a).
            if t_clean:
                self._branch_word(word, t_target, addr)
                if t_delay is not None:
                    self._word(t_delay.instructions[0][1].inst.word,
                               addr + 4)
            else:
                self._emit_chain(t_chain)
                self._goto(t_target, next_start)
            return

        f_chain = self._chain(fall)
        f_delay = f_chain[1]

        if t_clean and t_delay is not None:
            if inst.annul_untaken and f_delay is None:
                # Refold: b,a target with original delay in the slot.
                self.refolds += 1
                self._branch_word(word, t_target, addr)
                self._word(t_delay.instructions[0][1].inst.word, addr + 4)
                self._emit_chain(f_chain)
                self._goto(f_chain[3], next_start)
                return
            if not inst.annul_untaken and f_delay is not None \
                    and not fall.snippets and not (
                        f_delay.before or f_delay.after or f_delay.deleted):
                # Refold: delay executes on both paths from the slot.
                self.refolds += 1
                self._branch_word(word, t_target, addr)
                self._word(t_delay.instructions[0][1].inst.word, addr + 4)
                self._emit_chain(f_chain, with_delay=False)
                self._goto(f_chain[3], next_start)
                return

        # General case: route the taken path through a stub.
        self.branch_stubs += 1
        stub_label = self._new_stub_label()
        self.stubs.append((stub_label, t_chain))
        self._fixup("branch", self.codec.clear_annul(word), stub_label,
                    orig=addr)
        self._word(self.codec.nop_word)
        self._emit_chain(f_chain)
        self._goto(f_chain[3], next_start)

    def _emit_call(self, block, addr, instruction, next_start):
        target = instruction.target(addr)
        if target is not None:
            self._fixup("xfer", instruction.inst.word, target, orig=addr)
        else:
            self._instruction(addr, instruction)
        delay = block.succ[0].dst
        self._emit_delay_block(delay)
        surrogate = delay.succ[0].dst
        if surrogate.succ:
            self._goto(self._edge_target(surrogate.succ[0]), next_start)

    def _emit_direct_jump(self, block, addr, instruction, next_start):
        # jmpl to a literal (SPARC) or j (MIPS): treat like ba with a delay.
        edge = block.succ[0]
        if edge.dst.kind == BK_DELAY:
            chain_ = self._chain(edge)
            target = chain_[3]
            if not chain_[4]:
                self._emit_chain(chain_)
                self._goto(target, next_start)
                return
            delay_word = edge.dst.instructions[0][1].inst.word
            if target is not None and target[0] == "label":
                # Re-synthesize as a plain jump to the label.
                self._fixup("jump", None, target[1], extra=self.jump_bytes,
                            size=self.jump_bytes)
                self._word(delay_word)
            else:
                self._fixup("xfer", instruction.inst.word,
                            target and target[1], orig=addr)
                self._word(delay_word, addr + 4)
        else:
            liveness = self.liveness or self._live()
            if edge.snippets:
                self._snips(edge.snippets, liveness.live_on_edge(edge))
            self._goto(self._edge_target(edge), next_start)

    # -- indirect jumps -----------------------------------------------------
    def _emit_indirect_jump(self, block, addr, instruction):
        info = None
        for candidate in self.cfg.indirect_jumps:
            if candidate.block is block:
                info = candidate
                break
        delay_edge = block.succ[0]
        delay = delay_edge.dst if delay_edge.dst.kind == BK_DELAY else None

        if info is not None and info.status == "unanalyzable":
            self._emit_runtime_translation(block, addr, instruction, delay)
            return

        self._instruction(addr, instruction)
        if delay is not None:
            self._emit_delay_block(delay)

        if info is None or info.status != "table":
            return

        # Dispatch table: redirect entries, materializing stubs for edges
        # that carry snippets.
        source = delay if delay is not None else block
        stub_for = {}
        for edge in source.succ:
            if edge.kind == EK_COMPUTED and edge.snippets:
                label = self._new_stub_label()
                stub_for[edge.dst.start] = label
                self.stubs.append((label, (edge, None, None,
                                           self._edge_target(edge), False)))
        for position, target in enumerate(info.targets):
            entry_addr = info.table_addr + 4 * position
            if target in stub_for:
                ref = ("label", stub_for[target])
            elif self.routine.contains(target) and \
                    target in self.cfg.block_at:
                ref = ("label", target)
            else:
                ref = ("orig", target)
            self.result.table_patches.append((entry_addr, ref))

    def _emit_runtime_translation(self, block, addr, instruction, delay):
        """Replace an unanalyzable jump with a translation-table lookup."""
        _C_RUNTIME_XLATE.inc()
        executable = self.routine.executable
        table_base = executable.ensure_translation_table()
        text_base = executable.image.sections[".text"].vaddr
        liveness = self.liveness or self._live()
        live = liveness.live_before(block, len(block.instructions) - 1)
        words = self._translation_words(instruction, table_base, text_base,
                                        live)
        for word in words:
            self._word(word)
        # The original jump's delay instruction still executes after the
        # translated jump (it sits in the new jump's delay slot).
        if delay is not None:
            self._emit_delay_block(delay)
        else:
            self._word(self.codec.nop_word)

    def _translation_words(self, instruction, table_base, text_base, live):
        conventions = self.conventions
        codec = self.codec
        forbidden = set(instruction.reads())
        dead = [r for r in conventions.scavenge_candidates
                if r not in live and r not in forbidden]
        if len(dead) < 2:
            raise LayoutError(
                "no free registers for run-time translation stub"
            )
        reg_a, reg_b = dead[0], dead[1]
        words = []
        if self.arch == "sparc":
            fields = {"rd": reg_a, "rs1": instruction.field("rs1")}
            if instruction.has_field("simm13"):
                fields["simm13"] = instruction.field("simm13")
            else:
                fields["rs2"] = instruction.field("rs2")
            words.append(codec.encode("add", **fields))
            words.extend(conventions.load_const(reg_b,
                                                table_base - text_base))
            words.append(codec.encode("add", rd=reg_b, rs1=reg_a, rs2=reg_b))
            words.append(codec.encode("ld", rd=reg_b, rs1=reg_b, simm13=0))
            words.append(codec.encode("jmpl", rd=0, rs1=reg_b, simm13=0))
        else:
            rs = instruction.field("rs")
            words.extend(conventions.load_const(reg_b,
                                                table_base - text_base))
            words.append(codec.encode("addu", rd=reg_b, rs=rs, rt=reg_b))
            words.append(codec.encode("lw", rt=reg_b, rs=reg_b, imm16=0))
            words.append(codec.encode("jr", rs=reg_b))
        return words


# ----------------------------------------------------------------------
# Whole-image finalization
# ----------------------------------------------------------------------

class FinalizedImage:
    def __init__(self, image, addr_map):
        self.image = image
        self.addr_map = addr_map


def finalize_image(executable):
    return _ImageFinalizer(executable).run()


class _ImageFinalizer:
    def __init__(self, executable):
        self.executable = executable
        self.arch = executable.arch
        self.codec = executable.codec
        self.conventions = executable.conventions
        self.routines = sorted(executable._edited_routines.values(),
                               key=attrgetter("start"))
        self.addr_map = {}  # original addr -> edited addr

    def run(self):
        executable = self.executable
        with _span("layout.place"):
            # Assign addresses, relaxing out-of-span jumps to long-branch
            # stubs until placement reaches a fixpoint.
            self._place_all(executable)
        with _span("layout.materialize"):
            # The new text: tool-added routines, padding, then every
            # edited routine's bytes with its fixups applied.
            words = []
            for name, base, added_words in executable._added_routines:
                words.extend(added_words)
            pad = (self.routines[0].edited.base
                   - executable._new_text_base) // 4 if self.routines else 0
            words.extend([self.codec.nop_word] * (pad - len(words)))
            text = bytearray(_pack_words(words))
            for routine in self.routines:
                self._apply_fixups(routine.edited)
                text += routine.edited.code
        with _span("layout.build_image", words=len(text) // 4):
            image = self._build_image(text)
        return FinalizedImage(image, self.addr_map)

    # ------------------------------------------------------------------
    def _place_all(self, executable):
        """Fixpoint placement with long-branch relaxation.

        Each pass places the routines one after another, then checks
        every still-short jump at its placed address.  A routine with a
        jump whose target lies outside the direct-jump span is re-emitted
        with that jump in its long form (which moves everything after
        it), so placement repeats until nothing grows.  Growth is
        monotone -- a jump never shrinks back -- so the loop terminates;
        the final pass has checked every remaining short jump in place.
        """
        for _ in range(_MAX_RELAX_PASSES):
            cursor = binlayout.align_up(executable._added_cursor, 4)
            for routine in self.routines:
                routine.edited.base = cursor
                cursor += len(routine.edited.code)
            self._build_addr_map()
            if not self._relax_jumps():
                return
        raise LayoutError("long-branch relaxation did not converge after "
                          "%d passes" % _MAX_RELAX_PASSES)

    def _build_addr_map(self):
        """Original -> edited address of every placed original word.

        A word placed twice (a delay instruction copied onto both paths)
        maps to its first copy, so the map is filled last copy first;
        block labels override both.
        """
        addr_map = {}
        labels = {}
        for routine in reversed(self.routines):
            edited = routine.edited
            base = edited.base
            for orig, offset, size in reversed(edited.origins):
                if size == 4:
                    addr_map[orig] = base + offset
                    continue
                delta = base + offset - orig
                for word in range(orig, orig + size, 4):
                    addr_map[word] = word + delta
            for key, offset in edited.labels.items():
                if key.__class__ is int:
                    labels[key] = base + offset
        # First label wins: later routines' labels were filled first.
        addr_map.update(labels)
        self.addr_map = addr_map

    def _relax_jumps(self):
        """Grow out-of-span short jumps to their long form; returns the
        number grown."""
        addr_map = self.addr_map
        reaches = self.conventions.direct_jump_reaches
        short = _JUMP_BYTES[self.arch][0]
        grown = 0
        for routine in self.routines:
            edited = routine.edited
            base = edited.base
            labels = edited.labels
            far = []
            for position, (offset, kind, _, target, size) in \
                    enumerate(edited.fixups):
                if kind == "jump":
                    if target not in labels:
                        raise _undefined_label(target)
                    target = base + labels[target]
                elif kind == "jumpxfer":
                    if target in addr_map:
                        target = addr_map[target]
                else:
                    continue
                if size == short and not reaches(base + offset, target):
                    far.append(position)
            if far:
                edited.grow_jumps(far)
                grown += len(far)
        if grown:
            _C_LONG_BRANCHES.inc(grown)
        return grown

    def _apply_fixups(self, edited):
        """Write the final word(s) of every fixup of the placed *edited*."""
        code = edited.code
        base = edited.base
        labels = edited.labels
        addr_map = self.addr_map
        codec = self.codec
        conventions = self.conventions
        sparc = self.arch == "sparc"
        short = _JUMP_BYTES[self.arch][0]
        pack_into = _WORD.pack_into
        for offset, kind, word, target, extra in edited.fixups:
            addr = base + offset
            if kind == "branch" or kind == "jump":
                if target not in labels:
                    raise _undefined_label(target)
                target = base + labels[target]
            elif kind != "snippet" and target in addr_map:
                target = addr_map[target]
            if kind == "branch" or kind == "xfer":
                pack_into(code, offset,
                          codec.with_control_target(word, addr, target))
            elif kind == "patch":
                pack_into(code, offset,
                          _apply_patch_role(codec, word, extra, target))
            elif kind == "snippet":
                words = extra.run_callback(addr)
                code[offset:offset + 4 * len(words)] = _pack_words(words)
            elif extra != short:
                code[offset:offset + extra] = _pack_words(
                    self._long_jump_words(addr, target))
            else:
                # Relaxation checked every remaining short jump in
                # place, so a SpanError here means placement and fixups
                # disagree.
                try:
                    if sparc:
                        pack_into(code, offset,
                                  conventions.direct_jump_annulled(addr,
                                                                   target))
                    else:
                        pack_into(code, offset,
                                  conventions.direct_jump(addr, target))
                        pack_into(code, offset + 4, codec.nop_word)
                except SpanError:
                    raise LayoutError("jump span overflow after "
                                      "relaxation: 0x%x -> 0x%x"
                                      % (addr, target))

    def _long_jump_words(self, addr, target):
        """The long-branch stub, nop-padded to the fixed long size."""
        scratch = getattr(self.conventions, "assembler_temp", 1)
        words = list(self.conventions.long_jump(scratch, target))
        slots = _JUMP_BYTES[self.arch][1] // 4
        if len(words) > slots:
            raise LayoutError("long-branch stub at 0x%x needs %d words "
                              "(max %d)" % (addr, len(words), slots))
        while len(words) < slots:
            words.append(self.codec.nop_word)
        return words

    # ------------------------------------------------------------------
    def _build_image(self, new_text):
        executable = self.executable
        source = executable.image
        image = Image(source.arch, kind="exec", entry=source.entry)
        for section in source.sections.values():
            copy = Section(section.name, vaddr=section.vaddr,
                           flags=section.flags,
                           data=bytearray(section.data))
            copy.nobits_size = section.nobits_size
            image.add_section(copy)
        image.symbols = [
            Symbol(s.name, s.value, s.kind, s.binding, s.size, s.section)
            for s in source.symbols
        ]

        if new_text:
            section = Section(".text.edited",
                              vaddr=executable._new_text_base,
                              flags=SEC_EXEC)
            section.data = new_text
            image.add_section(section)

        for name, base, size, initial in executable._data_sections:
            data_section = Section(name, vaddr=base, flags=SEC_WRITE)
            data_section.data = bytearray(initial if initial is not None
                                          else bytes(size))
            if len(data_section.data) < size:
                data_section.data += bytes(size - len(data_section.data))
            image.add_section(data_section)
            image.add_symbol(Symbol(name, base, kind="object",
                                    section=name))

        for name, base, _words in executable._added_routines:
            image.add_symbol(Symbol(name, base, kind="func",
                                    section=".text.edited"))

        self._patch_tables(image)
        self._install_trampolines(image)
        self._fill_translation_table(image)
        self._update_symbols(image)

        image.entry = self._resolve_orig(source.entry)
        return image

    def _resolve_orig(self, orig_addr):
        """Edited address of an original address, or itself if unedited."""
        return self.addr_map.get(orig_addr, orig_addr)

    def _patch_tables(self, image):
        sections = [(section.vaddr, section.end, section)
                    for section in image.sections.values()]
        for routine in self.routines:
            edited = routine.edited
            for entry_addr, (kind, value) in edited.table_patches:
                for lo, hi, section in sections:
                    if lo <= entry_addr < hi:
                        break
                else:
                    raise LayoutError("dispatch table entry at unmapped "
                                      "0x%x" % entry_addr)
                if kind == "label":
                    if value not in edited.labels:
                        raise _undefined_label(value)
                    value = edited.base + edited.labels[value]
                else:
                    value = self._resolve_orig(value)
                section.set_word(entry_addr, value)

    def _install_trampolines(self, image):
        """Original entries of edited routines jump to the edited code."""
        text = image.sections.get(".text")
        if text is None:
            return
        addr_map = self.addr_map
        conventions = self.conventions
        data = text.data
        lo, hi = text.vaddr, text.end
        installed = 0
        for routine in self.routines:
            for entry in routine.entries:
                if entry not in addr_map or not lo <= entry < hi:
                    continue
                new_addr = addr_map[entry]
                if new_addr == entry:
                    continue
                installed += 1
                try:
                    if self.arch == "sparc":
                        _WORD.pack_into(data, entry - lo,
                                        conventions.direct_jump_annulled(
                                            entry, new_addr))
                    else:
                        _WORD.pack_into(data, entry - lo,
                                        conventions.direct_jump(entry,
                                                                new_addr))
                        if entry + 4 < hi:
                            _WORD.pack_into(data, entry + 4 - lo,
                                            self.codec.nop_word)
                except SpanError:
                    self._install_long_trampoline(text, routine, entry,
                                                  new_addr)
        if installed:
            _C_TRAMPOLINES.inc(installed)

    def _install_long_trampoline(self, text, routine, entry, new_addr):
        """Multi-word trampoline when the edited copy is out of direct
        span.  It overwrites the original instructions after *entry* —
        dead code once the routine is edited — so it must fit inside
        both the text section and the routine's own extent."""
        scratch = getattr(self.conventions, "assembler_temp", 1)
        words = list(self.conventions.long_jump(scratch, new_addr))
        limit = entry + 4 * len(words)
        if limit > routine.end or not text.contains(limit - 4):
            raise LayoutError(
                "long-branch trampoline for %s does not fit at 0x%x "
                "(%d words, routine ends at 0x%x)"
                % (routine.name, entry, len(words), routine.end))
        _C_LONG_BRANCHES.inc()
        for index, word in enumerate(words):
            text.set_word(entry + 4 * index, word)

    def _fill_translation_table(self, image):
        executable = self.executable
        if executable._translation_base is None:
            return
        text = executable.image.sections[".text"]
        section = image.get_section("__eel_translation")
        for offset in range(0, text.size, 4):
            orig = text.vaddr + offset
            section.set_word(executable._translation_base + offset,
                             self._resolve_orig(orig))

    def _update_symbols(self, image):
        """Point routine symbols at the edited copies (paper: edited
        programs keep working with standard tools)."""
        edited_names = {routine.name for routine in self.routines}
        addr_map = self.addr_map
        for symbol in image.symbols:
            if symbol.kind == "func" and symbol.name in edited_names:
                if symbol.value in addr_map:
                    symbol.value = addr_map[symbol.value]
                symbol.section = ".text.edited"


def _undefined_label(key):
    return LayoutError("undefined layout label %r" % label_name(key))


def _pack_words(words):
    """Big-endian bytes of 32-bit *words* (truncated to 32 bits)."""
    return struct.pack(">%dI" % len(words),
                       *map(bits.WORD_MASK.__and__, words))


def _apply_patch_role(codec, word, role, target):
    """Re-point a literal-address-forming instruction at *target*."""
    if role == "hi22":
        return bits.insert(word, 0, 21, target >> 10)
    if role == "lo10":
        return bits.insert(word, 0, 12, target & 0x3FF)
    if role == "add13":
        return bits.insert(word, 0, 12, target & 0x3FF)
    if role == "mov13":
        if not bits.fits_signed(bits.to_s32(target), 13):
            raise LayoutError("literal jump target 0x%x too large for "
                              "mov13 patch" % target)
        return bits.insert(word, 0, 12, target)
    if role == "hi16":
        return bits.insert(word, 0, 15, ((target + 0x8000) >> 16) & 0xFFFF)
    if role == "lo16":
        return bits.insert(word, 0, 15, target & 0xFFFF)
    if role == "lo16u":
        return bits.insert(word, 0, 15, target & 0xFFFF)
    if role in ("mov16", "mov16s"):
        return bits.insert(word, 0, 15, target & 0xFFFF)
    raise LayoutError("unknown patch role %r" % role)
