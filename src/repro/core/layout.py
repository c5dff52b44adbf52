"""Edited-routine layout (paper section 3.3.1).

``lay_out_routine`` turns an edited CFG back into machine code:

* each stretch of untouched straight-line words is copied as one byte
  run, so emission work follows the edits, not the routine's length;
* snippets receive registers (scavenged or spilled) and are placed;
* unedited delay slots are re-folded into their control transfer;
* edited branch edges are routed through out-of-line stubs;
* dispatch-table entries are redirected to edited targets (or to stubs
  carrying edge snippets);
* literal-target jumps (including frame-pop tail calls) have their
  address-forming instructions re-pointed;
* unanalyzable indirect jumps fall back to run-time address translation
  through an original→edited table.

``finalize_image`` assembles every edited routine (plus tool-added
routines and data) into the output executable, builds the address map,
patches dispatch tables, and installs trampolines at original entry
points so unedited callers still reach edited code.
"""

import struct

from repro.binfmt import layout as binlayout
from repro.binfmt.image import Image, SEC_EXEC, SEC_WRITE, Section, Symbol
from repro.core.cfg import (
    BK_DELAY,
    BK_EXIT,
    BK_NORMAL,
    EK_COMPUTED,
    EK_ESCAPE,
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
# Emission work: items emitted (labels included), and original words
# emitted inside runs rather than as items of their own.
_C_ITEMS = _metrics.counter("layout.items")
_C_RUN_WORDS = _metrics.counter("layout.run_words")

# Long-branch relaxation never needs more passes than there are jump
# items (each pass either converges or promotes at least one more jump
# to its long form, and promotions are monotone), but cap the fixpoint
# anyway so a placement bug cannot hang finalization.
_MAX_RELAX_PASSES = 64


class LayoutError(Exception):
    pass


class Item:
    """One unit of the edited routine's emission stream.

    A ``run`` item is a maximal stretch of untouched original words:
    *data* holds their bytes as copied from ``.text`` and *orig_addr*
    the address of the first.  Every other kind is at most one
    synthesized or rewritten word (or a snippet, or a jump stub).
    """

    __slots__ = ("kind", "word", "label", "target", "orig_addr", "snippet",
                 "role", "orig_target", "long", "data")

    def __init__(self, kind, word=None, label=None, target=None,
                 orig_addr=None, snippet=None, role=None, orig_target=None,
                 data=None):
        self.kind = kind
        self.word = word
        self.label = label  # for kind "label"
        self.target = target  # ("label", name) or ("orig", addr)
        self.orig_addr = orig_addr
        self.snippet = snippet
        self.role = role
        self.orig_target = orig_target
        self.data = data  # for kind "run"
        # Set by the finalizer's relaxation pass when a jump/jumpxfer
        # target is out of direct-jump span: emit the multi-word
        # long-branch stub instead (sethi/jmpl on SPARC, lui/ori/jr on
        # MIPS), nop-padded to a fixed size so placement stays stable.
        self.long = False

    def size(self, arch):
        kind = self.kind
        if kind == "run":
            return len(self.data)
        if kind == "label":
            return 0
        if kind == "snippet":
            return 4 * len(self.snippet.words)
        if kind in ("jump", "jumpxfer"):
            if self.long:
                return 12 if arch == "sparc" else 16
            return 4 if arch == "sparc" else 8
        return 4


class EditedRoutine:
    """The laid-out (but not yet address-resolved) edited routine."""

    def __init__(self, routine):
        self.routine = routine
        self.items = []
        self.table_patches = []  # (entry addr in original image, target ref)
        self.base = None
        self.size = 0


def _label_for(addr):
    return "a%x" % addr


def lay_out_routine(cfg):
    return _RoutineLayout(cfg).run()


class _RoutineLayout:
    def __init__(self, cfg):
        self.cfg = cfg
        self.routine = cfg.routine
        self.codec = cfg.codec
        self.arch = cfg.codec.arch
        self.conventions = cfg.routine.executable.conventions
        self.text = cfg.routine.executable.image.sections[".text"]
        self.result = EditedRoutine(cfg.routine)
        self.items = self.result.items
        self.stubs = []
        self._stub_counter = 0
        self._run_words = 0
        self._liveness = None
        self._alloc_cache = {}
        # Literal-jump patch roles: orig site addr -> (role, literal).
        self.patch_roles = {}
        for info in cfg.indirect_jumps:
            if info.status in ("literal", "tailcall"):
                for site_addr, role in info.patch_sites:
                    self.patch_roles[site_addr] = (role, info.literal)

    # ------------------------------------------------------------------
    @property
    def liveness(self):
        if self._liveness is None:
            self._liveness = self.cfg.live_registers()
        return self._liveness

    def _new_stub_label(self):
        self._stub_counter += 1
        return "%s.stub%d" % (_label_for(self.routine.start),
                              self._stub_counter)

    def _allocate(self, snippet, live):
        key = (id(snippet), frozenset(live))
        cached = self._alloc_cache.get(key)
        if cached is None:
            cached = allocate_snippet(snippet, live, self.conventions)
            self._alloc_cache[key] = cached
        return cached

    # -- emission helpers ------------------------------------------------
    def emit(self, item, into=None):
        (self.items if into is None else into).append(item)

    def emit_word(self, word, orig_addr=None, into=None):
        self.emit(Item("word", word=word, orig_addr=orig_addr), into)

    def emit_label(self, name, orig_addr=None, into=None):
        self.emit(Item("label", label=name, orig_addr=orig_addr), into)

    def emit_snips(self, snippets, live, into=None):
        for snippet in snippets:
            self.emit(Item("snippet", snippet=self._allocate(snippet, live)),
                      into)

    def emit_goto(self, target, next_start=None, into=None):
        """Unconditional transfer to *target* unless it falls through."""
        if target is None:
            return
        kind, value = target
        if kind == "label" and next_start is not None \
                and value == _label_for(next_start):
            return
        if kind == "label":
            self.emit(Item("jump", target=target), into)
        else:
            self.emit(Item("jumpxfer", orig_target=value), into)

    # ------------------------------------------------------------------
    def run(self):
        cfg = self.cfg
        with _span("layout.routine", routine=self.routine.name) as sp:
            normal = sorted(cfg.normal_blocks(), key=lambda b: b.start)
            for index, block in enumerate(normal):
                next_start = normal[index + 1].start \
                    if index + 1 < len(normal) else None
                self._emit_block(block, next_start)
            self.items.extend(self.stubs)
            self.result.size = sum(item.size(self.arch)
                                   for item in self.items)
            sp.set(bytes=self.result.size, stubs=self._stub_counter)
        _C_ROUTINES.inc()
        _C_STUBS.inc(self._stub_counter)
        _C_BYTES.inc(self.result.size)
        _C_TABLE_PATCHES.inc(len(self.result.table_patches))
        _C_ITEMS.inc(len(self.items))
        _C_RUN_WORDS.inc(self._run_words)
        return self.result

    def _emit_block(self, block, next_start):
        # The label carries the original address so that the address map
        # points at the start of the block's emission, *including* any
        # snippets placed before its first instruction.
        self.emit_label(_label_for(block.start), orig_addr=block.start)
        instructions = block.instructions
        count = len(instructions)
        last = instructions[-1][1]
        terminator = count - 1 if (last.is_control and last.category
                                   is not Category.SYSTEM) else None
        # Untouched words between the indices that need an item of their
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
        start = 0  # first index of the pending run
        for index in sorted(stops):
            if not 0 <= index < count:
                continue  # a patch site of another block, or no word
            addr, instruction = instructions[index]
            snips = before.get(index)
            if snips:
                self._emit_run(instructions, start, index)
                start = index
                self.emit_snips(snips, self.liveness.live_before(block,
                                                                 index))
            if index == terminator:
                self._emit_run(instructions, start, index)
                self._emit_terminator(block, addr, instruction, next_start)
                return
            if index in deleted or addr in self.patch_roles:
                self._emit_run(instructions, start, index)
                start = index + 1
                if index not in deleted:
                    self._emit_instruction(addr, instruction)
            snips = after.get(index)
            if snips:
                self._emit_run(instructions, start, index + 1)
                start = index + 1
                self.emit_snips(snips, self.liveness.live_after(block,
                                                                index))
        self._emit_run(instructions, start, count)
        # Block without a terminator: glue to its successor.
        edge = block.succ[0] if block.succ else None
        if edge is not None:
            self.emit_snips(edge.snippets,
                            self.liveness.live_on_edge(edge))
            self.emit_goto(self._edge_target(edge), next_start)

    def _emit_run(self, instructions, lo, hi):
        """One run item for the untouched words *lo*..*hi*-1 of a block
        (normal blocks are address-contiguous)."""
        if lo >= hi:
            return
        self._run_words += hi - lo
        offset = instructions[lo][0] - self.text.vaddr
        self.emit(Item("run", orig_addr=instructions[lo][0],
                       data=bytes(self.text.data[offset:offset
                                                 + 4 * (hi - lo)])))

    def _emit_instruction(self, addr, instruction, into=None):
        patch = self.patch_roles.get(addr)
        if patch is not None:
            role, literal = patch
            self.emit(Item("patch", word=instruction.word, orig_addr=addr,
                           role=role, orig_target=literal), into)
        else:
            self.emit_word(instruction.word, orig_addr=addr, into=into)

    # ------------------------------------------------------------------
    # Chains: the code along one outgoing edge of a control transfer.
    # ------------------------------------------------------------------
    def _chain(self, edge):
        """Returns (parts, target_ref, clean).

        parts: [("snips", edge, [...])] and [("delay", block)] entries.
        clean: the chain is exactly an unedited delay slot (or nothing).
        """
        parts = []
        clean = True
        if edge.snippets:
            parts.append(("snips", edge, edge.snippets))
            clean = False
        dst = edge.dst
        if dst.kind == BK_DELAY:
            parts.append(("delay", dst))
            if dst.is_edited:
                clean = False
            out = dst.succ[0]
            if out.snippets:
                parts.append(("snips", out, out.snippets))
                clean = False
            return parts, self._edge_target(out), clean
        return parts, self._edge_target(edge), clean and not parts

    def _edge_target(self, edge):
        if edge.kind == EK_ESCAPE or edge.dst.kind == BK_EXIT:
            if edge.escape_target is None:
                return None
            return ("orig", edge.escape_target)
        if edge.dst.kind == BK_NORMAL:
            return ("label", _label_for(edge.dst.start))
        raise LayoutError("edge %r has no layout target" % edge)

    def _emit_parts(self, parts, into=None):
        for part in parts:
            if part[0] == "snips":
                _, edge, snippets = part
                self.emit_snips(snippets, self.liveness.live_on_edge(edge),
                                into)
            else:
                _, delay_block = part
                self._emit_delay_block(delay_block, into)

    def _emit_delay_block(self, block, into=None):
        for index, (addr, instruction) in enumerate(block.instructions):
            before = block.before.get(index)
            if before:
                self.emit_snips(before,
                                self.liveness.live_before(block, index), into)
            if index not in block.deleted:
                self._emit_instruction(addr, instruction, into)
            after = block.after.get(index)
            if after:
                self.emit_snips(after, self.liveness.live_after(block, index),
                                into)

    def _delay_word(self, delay_block):
        return delay_block.instructions[0][1].word

    # ------------------------------------------------------------------
    # Terminators
    # ------------------------------------------------------------------
    def _emit_terminator(self, block, addr, instruction, next_start):
        category = instruction.category
        if category is Category.BRANCH:
            self._emit_branch(block, addr, instruction, next_start)
        elif category in (Category.CALL, Category.CALL_INDIRECT):
            self._emit_call(block, addr, instruction, next_start)
        elif category is Category.RETURN:
            self._emit_simple_exit(block, addr, instruction)
        elif category is Category.JUMP:
            self._emit_direct_jump(block, addr, instruction, next_start)
        elif category is Category.JUMP_INDIRECT:
            self._emit_indirect_jump(block, addr, instruction)
        else:
            raise LayoutError("unexpected terminator %s" % instruction.name)

    def _emit_branch_word(self, word, target, orig_addr, into=None):
        kind, value = target if target else (None, None)
        if kind == "label":
            self.emit(Item("branch", word=word, target=target,
                           orig_addr=orig_addr), into)
        else:
            self.emit(Item("xfer", word=word, orig_target=value,
                           orig_addr=orig_addr), into)

    def _emit_branch(self, block, addr, instruction, next_start):
        taken = block.taken_edge()
        fall = block.fall_edge()
        word = instruction.word

        if taken is None:
            # Branch-never: pure fall-through; emit only the chain.
            if fall is not None:
                parts, target, _ = self._chain(fall)
                self._emit_parts(parts)
                self.emit_goto(target, next_start)
            return

        t_parts, t_target, t_clean = self._chain(taken)
        has_delay_block = taken.dst.kind == BK_DELAY

        if fall is None:
            # Unconditional (ba or ba,a).
            if t_clean and has_delay_block:
                self._emit_branch_word(word, t_target, addr)
                self.emit_word(self._delay_word(taken.dst), orig_addr=addr + 4)
            elif t_clean:
                self._emit_branch_word(word, t_target, addr)
            else:
                self._emit_parts(t_parts)
                self.emit_goto(t_target, next_start)
            return

        f_parts, f_target, f_clean = self._chain(fall)
        annulled = instruction.annul_untaken

        if t_clean and has_delay_block:
            if annulled and not any(p[0] == "delay" for p in f_parts):
                # Refold: b,a target with original delay in the slot.
                _C_REFOLDS.inc()
                self._emit_branch_word(word, t_target, addr)
                self.emit_word(self._delay_word(taken.dst), orig_addr=addr + 4)
                self._emit_parts(f_parts)
                self.emit_goto(f_target, next_start)
                return
            if not annulled and self._refoldable_fall(f_parts):
                # Refold: delay executes on both paths from the slot.
                _C_REFOLDS.inc()
                self._emit_branch_word(word, t_target, addr)
                self.emit_word(self._delay_word(taken.dst), orig_addr=addr + 4)
                self._emit_parts([p for p in f_parts if p[0] != "delay"])
                self.emit_goto(f_target, next_start)
                return

        # General case: route the taken path through a stub.
        _C_BRANCH_FIXUPS.inc()
        stub_label = self._new_stub_label()
        plain = self.codec.clear_annul(word)
        self._emit_branch_word(plain, ("label", stub_label), addr)
        self.emit_word(self.codec.nop_word)
        self._emit_parts(f_parts)
        self.emit_goto(f_target, next_start)
        self.emit_label(stub_label, into=self.stubs)
        self._emit_parts(t_parts, into=self.stubs)
        self.emit_goto(t_target, into=self.stubs)

    def _refoldable_fall(self, f_parts):
        """Fall chain must be [unedited delay] followed only by snips."""
        if not f_parts or f_parts[0][0] != "delay":
            return False
        if f_parts[0][1].is_edited:
            return False
        return all(p[0] == "snips" for p in f_parts[1:])

    def _emit_call(self, block, addr, instruction, next_start):
        target = instruction.target(addr)
        if target is not None:
            self.emit(Item("xfer", word=instruction.word, orig_target=target,
                           orig_addr=addr))
        else:
            self._emit_instruction(addr, instruction)
        delay = block.succ[0].dst
        self._emit_delay_block(delay)
        surrogate = delay.succ[0].dst
        out = surrogate.succ[0] if surrogate.succ else None
        if out is not None:
            self.emit_goto(self._edge_target(out), next_start)

    def _emit_simple_exit(self, block, addr, instruction):
        self._emit_instruction(addr, instruction)
        delay = block.succ[0].dst
        self._emit_delay_block(delay)

    def _emit_direct_jump(self, block, addr, instruction, next_start):
        # jmpl to a literal (SPARC) or j (MIPS): treat like ba with a delay.
        edge = block.succ[0]
        if edge.dst.kind == BK_DELAY:
            parts, target, clean = self._chain(edge)
            if clean:
                kind, value = target if target else (None, None)
                if kind == "label":
                    # Re-synthesize as a plain jump to the label.
                    self.emit(Item("jump", target=target))
                    self.emit_word(self._delay_word(edge.dst))
                else:
                    self.emit(Item("xfer", word=instruction.word,
                                   orig_target=value, orig_addr=addr))
                    self.emit_word(self._delay_word(edge.dst),
                                   orig_addr=addr + 4)
            else:
                self._emit_parts(parts)
                self.emit_goto(target, next_start)
        else:
            target = self._edge_target(edge)
            self.emit_snips(edge.snippets, self.liveness.live_on_edge(edge))
            self.emit_goto(target, next_start)

    # -- indirect jumps -----------------------------------------------------
    def _info_for(self, block):
        for info in self.cfg.indirect_jumps:
            if info.block is block:
                return info
        return None

    def _emit_indirect_jump(self, block, addr, instruction):
        info = self._info_for(block)
        delay_edge = block.succ[0]
        delay = delay_edge.dst if delay_edge.dst.kind == BK_DELAY else None

        if info is not None and info.status == "unanalyzable":
            self._emit_runtime_translation(block, addr, instruction, delay)
            return

        self._emit_instruction(addr, instruction)
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
                self.emit_label(label, into=self.stubs)
                self.emit_snips(edge.snippets,
                                self.liveness.live_on_edge(edge),
                                into=self.stubs)
                self.emit_goto(self._edge_target(edge), into=self.stubs)
        for position, target in enumerate(info.targets):
            entry_addr = info.table_addr + 4 * position
            if target in stub_for:
                ref = ("label", stub_for[target])
            elif self.routine.contains(target) and \
                    target in self.cfg.block_at:
                ref = ("label", _label_for(target))
            else:
                ref = ("orig", target)
            self.result.table_patches.append((entry_addr, ref))

    def _emit_runtime_translation(self, block, addr, instruction, delay):
        """Replace an unanalyzable jump with a translation-table lookup."""
        _C_RUNTIME_XLATE.inc()
        executable = self.routine.executable
        table_base = executable.ensure_translation_table()
        text_base = executable.image.sections[".text"].vaddr
        live = self.liveness.live_before(block, len(block.instructions) - 1)
        words = self._translation_words(instruction, table_base, text_base,
                                        live)
        for word in words:
            self.emit_word(word)
        # The original jump's delay instruction still executes after the
        # translated jump (it sits in the new jump's delay slot).
        if delay is not None:
            self._emit_delay_block(delay)
        else:
            self.emit_word(self.codec.nop_word)

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
        self.edited = [
            routine for routine in sorted(
                executable._edited_routines.values(),
                key=lambda r: r.start,
            )
        ]
        self.labels = {}  # label name -> address
        self.addr_map = {}  # original addr -> edited addr
        self._label_map = {}  # block-start mappings (take priority)
        self._jump_sites = []  # (item, placed addr) for short jumps
        self._placed = []  # (orig addr, placed addr, bytes) per item

    def run(self):
        executable = self.executable
        with _span("layout.place"):
            # Phase A: assign addresses, relaxing out-of-span jumps to
            # long-branch stubs until placement reaches a fixpoint.
            self._place_all(executable)
        with _span("layout.materialize"):
            # Phase B: materialize the new text's bytes.
            words = []
            for name, base, added_words in executable._added_routines:
                words.extend(added_words)
            pad = (self.edited[0].edited.base
                   - executable._new_text_base) // 4 if self.edited else 0
            words.extend([self.codec.nop_word] * (pad - len(words)))
            text = bytearray(_pack_words(words))
            for routine in self.edited:
                self._materialize(routine.edited, text)
        with _span("layout.build_image", words=len(text) // 4):
            image = self._build_image(text)
        return FinalizedImage(image, self.addr_map)

    # ------------------------------------------------------------------
    def _place_all(self, executable):
        """Fixpoint placement with long-branch relaxation.

        Each pass assigns addresses from scratch, then re-checks every
        still-short jump at its placed address.  Any whose target falls
        outside the direct-jump span is promoted to its long form
        (which grows the item and shifts later addresses), so placement
        repeats until no promotion happens.  Promotions are monotone —
        an item never shrinks back — so the loop terminates; the final
        pass has verified every remaining short jump in place.
        """
        for _ in range(_MAX_RELAX_PASSES):
            self.labels = {}
            self._label_map = {}
            self._jump_sites = []
            self._placed = []
            cursor = binlayout.align_up(executable._added_cursor, 4)
            for routine in self.edited:
                routine.edited.base = cursor
                cursor = self._place(routine.edited, cursor)
            self._build_addr_map()
            if not self._relax_jumps():
                return
        raise LayoutError("long-branch relaxation did not converge after "
                          "%d passes" % _MAX_RELAX_PASSES)

    def _place(self, edited, cursor):
        arch = self.arch
        placed = self._placed
        for item in edited.items:
            kind = item.kind
            if kind == "label":
                self.labels[item.label] = cursor
                if item.orig_addr is not None:
                    # Block-start mapping: points before any snippets and
                    # overrides duplicated delay-word item mappings.
                    self._label_map.setdefault(item.orig_addr, cursor)
                continue
            size = item.size(arch)
            if item.orig_addr is not None:
                # A run maps each of its words; any other item its one.
                placed.append((item.orig_addr, cursor,
                               size if kind == "run" else 4))
            if not item.long and kind in ("jump", "jumpxfer"):
                self._jump_sites.append((item, cursor))
            cursor += size
        return cursor

    def _build_addr_map(self):
        """Original -> edited address of every placed original word.

        A word placed twice (a delay instruction copied onto both paths)
        maps to its first copy, so the map is filled last copy first;
        block labels override both.
        """
        addr_map = {}
        for orig, placed, size in reversed(self._placed):
            if size == 4:
                addr_map[orig] = placed
            else:
                addr_map.update(zip(range(orig, orig + size, 4),
                                    range(placed, placed + size, 4)))
        addr_map.update(self._label_map)
        self.addr_map = addr_map

    def _relax_jumps(self):
        """Promote out-of-span short jumps to long form; returns count."""
        grown = 0
        for item, addr in self._jump_sites:
            if item.kind == "jump":
                target = self._resolve_target(item.target)
            else:
                target = self._resolve_orig(item.orig_target)
            if not self._short_jump_fits(addr, target):
                item.long = True
                grown += 1
        if grown:
            _C_LONG_BRANCHES.inc(grown)
        return grown

    def _short_jump_fits(self, addr, target):
        try:
            if self.arch == "sparc":
                self.conventions.direct_jump_annulled(addr, target)
            else:
                self.conventions.direct_jump(addr, target)
        except SpanError:
            return False
        return True

    def _resolve_target(self, target):
        kind, value = target
        if kind == "label":
            addr = self.labels.get(value)
            if addr is None:
                raise LayoutError("undefined layout label %r" % value)
            return addr
        return self._resolve_orig(value)

    def _resolve_orig(self, orig_addr):
        """Edited address of an original address, or itself if unedited."""
        return self.addr_map.get(orig_addr, orig_addr)

    def _materialize(self, edited, text):
        """Append *edited*'s bytes to *text*: each run's as they are,
        the words between runs packed together."""
        arch = self.arch
        words = []
        cursor = edited.base
        for item in edited.items:
            kind = item.kind
            if kind == "run":
                if words:
                    text += _pack_words(words)
                    words = []
                text += item.data
                cursor += len(item.data)
            elif kind == "word":
                words.append(item.word)
                cursor += 4
            elif kind != "label":
                words.extend(self._item_words(item, cursor))
                cursor += item.size(arch)
        if words:
            text += _pack_words(words)

    def _item_words(self, item, addr):
        codec = self.codec
        conventions = self.conventions
        if item.kind == "snippet":
            return item.snippet.run_callback(addr)
        if item.kind == "branch":
            target = self._resolve_target(item.target)
            return [codec.with_control_target(item.word, addr, target)]
        if item.kind == "xfer":
            target = self._resolve_orig(item.orig_target)
            return [codec.with_control_target(item.word, addr, target)]
        if item.kind == "patch":
            target = self._resolve_orig(item.orig_target)
            return [_apply_patch_role(codec, item.word, item.role, target)]
        if item.kind == "jump":
            target = self._resolve_target(item.target)
            return self._jump_words(addr, target, long=item.long)
        if item.kind == "jumpxfer":
            target = self._resolve_orig(item.orig_target)
            return self._jump_words(addr, target, long=item.long)
        raise LayoutError("unknown item kind %r" % item.kind)

    def _jump_words(self, addr, target, long=False):
        conventions = self.conventions
        if long:
            return self._long_jump_words(addr, target)
        # Relaxation verified every remaining short jump in place, so a
        # SpanError here means placement and materialization disagree.
        try:
            if self.arch == "sparc":
                return [conventions.direct_jump_annulled(addr, target)]
            return [conventions.direct_jump(addr, target),
                    self.codec.nop_word]
        except SpanError:
            raise LayoutError("jump span overflow after relaxation: "
                              "0x%x -> 0x%x" % (addr, target))

    def _long_jump_words(self, addr, target):
        """The long-branch stub, nop-padded to the fixed long item size."""
        scratch = getattr(self.conventions, "assembler_temp", 1)
        words = list(self.conventions.long_jump(scratch, target))
        slots = (12 if self.arch == "sparc" else 16) // 4
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
            Symbol(s.name, s.value, kind=s.kind, binding=s.binding,
                   size=s.size, section=s.section)
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

        old_entry = source.entry
        image.entry = self._resolve_orig(old_entry)
        return image

    def _patch_tables(self, image):
        for routine in self.edited:
            for entry_addr, ref in routine.edited.table_patches:
                section = image.section_at(entry_addr)
                if section is None:
                    raise LayoutError("dispatch table entry at unmapped "
                                      "0x%x" % entry_addr)
                section.set_word(entry_addr, self._resolve_target(ref))

    def _install_trampolines(self, image):
        """Original entries of edited routines jump to the edited code."""
        text = image.sections.get(".text")
        if text is None:
            return
        for routine in self.edited:
            for entry in routine.entries:
                new_addr = self._resolve_orig(entry)
                if new_addr == entry or not text.contains(entry):
                    continue
                _C_TRAMPOLINES.inc()
                try:
                    if self.arch == "sparc":
                        word = self.conventions.direct_jump_annulled(
                            entry, new_addr)
                        text.set_word(entry, word)
                    else:
                        text.set_word(entry, self.conventions.direct_jump(
                            entry, new_addr))
                        if text.contains(entry + 4):
                            text.set_word(entry + 4, self.codec.nop_word)
                except SpanError:
                    self._install_long_trampoline(text, routine, entry,
                                                  new_addr)

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
        edited_names = {routine.name for routine in self.edited}
        for symbol in image.symbols:
            if symbol.kind == "func" and symbol.name in edited_names:
                symbol.value = self._resolve_orig(symbol.value)
                symbol.section = ".text.edited"


def _pack_words(words):
    """Big-endian bytes of 32-bit *words* (truncated to 32 bits)."""
    return struct.pack(">%dI" % len(words),
                       *[word & bits.WORD_MASK for word in words])


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
