"""Block-compiling execution engine (``engine="block"``).

The per-instruction engine in :mod:`repro.sim.machine` pays a fetch,
a decode-cache probe, and a closure call for every architectural
instruction.  This engine decodes a *basic block* once — a straight
run of instructions ending at a control-transfer instruction (CTI),
its delay slot, or a configurable maximum length — and compiles it
into one specialized Python function whose instruction code is
compiled from the spawn description's RTL (:mod:`repro.spawn.compiler`):
operands and pc-relative targets are folded to constants, the pc/npc
delay bookkeeping is fused away for the straight-line interior, and
condition codes live in locals between instructions.  The handwritten
CPU underneath supplies register state and the single-step fallback,
and stays the independent oracle.  Compiled blocks are cached per entry
pc within the current text version (a write into an executable
section bumps ``text_version`` and empties the cache, which is the
flyweight eviction story for ``(pc, text-version)`` keys with zero
stale residency) under the same FIFO eviction accounting as the
prepared-op flyweight, reported through the ``sim.blocks.*``
counters.

Two process-wide memo layers sit behind the per-simulator caches:
generated source → code object (``_compile_source``), and per-Image
``(mode, stops, max_len, pc)`` → code entry (``image._block_memo``).
The factory code is simulator-independent — every constant is folded
into the source, state is passed at bind time — so a fresh simulator
over an already-seen image binds ready-made code objects instead of
re-decoding and re-emitting, and skips the single-step warm-up for
memoized pcs.  The memo is only consulted and populated while
``text_version`` is 0 (memory's executable ranges still equal the
image's); once a simulator writes its own text, its compiles go
private.

Observable equivalence with the per-instruction engine is the
contract:

* ``max_steps`` is honored exactly — a block only runs when its
  worst-case length fits the remaining budget, otherwise execution
  falls back to single stepping.
* ``run_until`` blocks are truncated so no interior pc is a stop pc;
  cosim sync points land between instructions exactly as before.
* ``count_pcs`` increments are emitted immediately before each
  instruction's semantics, so profiles match even on crashing runs.
  Category telemetry is aggregated per exit path (a mid-block fault
  may under-count categories by the tail of one block; pc counts,
  registers, and memory never drift).
* ``mem_hook`` fires once per access, before the access, as in the
  interpreter.
* Stores into an executable section invalidate the block caches and
  abort the current block at the store, so self-modifying (or
  runtime-edited) text re-decodes before the next instruction runs.

Known, documented divergence: inside a compiled block ``cpu.pc`` and
``cpu.icc`` are only synchronized at block exits (and before every
syscall dispatch and memory hook that can observe them mid-block they
are *not* repaired) — exception messages fold the faulting pc at
compile time instead of reading ``cpu.pc``, so user-visible errors
still name the right instruction.
"""

import struct

from repro.isa import bits
from repro.isa.base import Category
from repro.obs.trace import TRACER as _TRACER
from repro.sim.machine import (
    MipsCPU,
    SimulationError,
    SimulationTimeout,
    SparcCPU,
)
from repro.spawn import build_codec
from repro.spawn.compiler import RTLCompiler

# A block compiles only once its entry pc has been looked up this many
# times: one-shot straight-line code stays on the interpreter (no
# compile latency), loops compile on their second iteration.
WARM_THRESHOLD = 2

# Source -> code object memo shared by every simulator in the process.
# Generated source embeds every constant (pcs, operands, text ranges),
# so equal source means equal code; repeated runs over the same image —
# cosim pairs, benchmark reruns, daemon request streams — skip
# bytecode compilation entirely.  FIFO-bounded like the other caches.
_CODE_CACHE = {}
_CODE_CACHE_CAP = 4096


def _compile_source(source, filename):
    code = _CODE_CACHE.get(source)
    if code is None:
        code = compile(source, filename, "exec")
        if len(_CODE_CACHE) >= _CODE_CACHE_CAP:
            _CODE_CACHE.pop(next(iter(_CODE_CACHE)))
        _CODE_CACHE[source] = code
    return code

# Globals shared by every generated block function: rarely-executed
# names resolve here, hot names are bound as factory locals.
_EXEC_GLOBALS = {
    "to_s32": bits.to_s32,
    "SimulationError": SimulationError,
    "_WORD": struct.Struct(">I"),
    "_HALF": struct.Struct(">H"),
    "_Z16": (0,) * 16,
}
for _category in Category:
    _EXEC_GLOBALS["_CAT_%s" % _category.name] = _category
del _category


# A compiled cache entry is a plain ``(max_len, func)`` tuple — one
# UNPACK in the dispatch loop instead of two attribute loads.  ``func``
# executes the block and returns its instruction count; ``max_len``
# bounds any path for the budget check.  ``func is None`` marks a pc
# the compiler cannot handle (the dispatch loop single-steps it
# forever).
#
# The emitter itself produces *code entries* ``(max_len, code object)``:
# the factory code is simulator-independent (every constant — pcs,
# operands, text bounds — is folded into the source), so it is memoized
# on the Image and shared by every simulator running unmodified text.
# Binding a code entry to one simulator's state (registers, memory,
# syscalls, profile dicts) turns it into the ``(max_len, func)`` form
# the dispatch loop executes.
_UNCOMPILABLE = (1, None)

# Per-image memo cap: code entries for every (mode, stop set, pc) seen
# across all simulators of one image.  FIFO like the other caches.
BLOCK_MEMO_CAP = 4096


# The block compiler's only per-ISA data: where a system trap finds its
# number and arguments and where it leaves its result (the simulated
# system-call convention of the handwritten CPUs).
_TRAP_REGS = {"sparc": (1, 8, 14, 8), "mips": (2, 4, 8, 2)}


# ----------------------------------------------------------------------
# Source emission
# ----------------------------------------------------------------------

class _Emitter(RTLCompiler):
    """Builds the Python source of one block.  Each instruction's
    statements come from its description RTL, found with the spawn
    codec (:class:`~repro.spawn.compiler.RTLCompiler`); this
    class adds the block around them: the scan, delay slots and fused
    transfers, exits, inlined memory access, and per-path state
    (condition-code locals, category tallies) so each exit path writes
    back exactly what it dirtied."""

    BASE = "        "  # statement indent inside ``def _block():``

    def __init__(self, cpu, mode, stops):
        arch = cpu.simulator.image.arch
        RTLCompiler.__init__(self, build_codec(arch))
        self.trap_regs = _TRAP_REGS[arch]
        self.cpu = cpu
        self.count_pcs, self.counting, self.hooked = mode
        self.stops = stops
        self.path_cats = []
        self.max_count = 0
        self.needs = set()  # which factory-local helpers to bind

    # -- shared helpers ------------------------------------------------
    def count(self, ind, pc, inst):
        if self.count_pcs:
            self.lines.append("%spc_counts[%d] = _pg(%d, 0) + 1"
                              % (ind, pc, pc))
        if self.counting:
            self.path_cats.append(inst.category)

    def snapshot(self):
        return (len(self.path_cats), self.flags_loaded, self.flags_dirty)

    def restore(self, snap):
        ncats, self.flags_loaded, self.flags_dirty = snap
        del self.path_cats[ncats:]

    def flush_exit_prologue(self, ind):
        self.flags_writeback(ind)
        if self.counting and self.path_cats:
            tally = {}
            for category in self.path_cats:
                tally[category] = tally.get(category, 0) + 1
            for category in sorted(tally, key=lambda c: c.name):
                name = "_CAT_%s" % category.name
                self.lines.append("%scat[%s] = _cg(%s, 0) + %d"
                                  % (ind, name, name, tally[category]))

    def exit_const(self, ind, count, target):
        self.flush_exit_prologue(ind)
        out = self.lines
        out.append("%scpu.pc = %d" % (ind, target))
        out.append("%scpu.npc = %d" % (ind, target + 4))
        out.append("%ssim.instructions_executed += %d" % (ind, count))
        out.append("%sreturn %d" % (ind, count))
        if count > self.max_count:
            self.max_count = count

    def exit_var(self, ind, count, var):
        self.flush_exit_prologue(ind)
        out = self.lines
        out.append("%scpu.pc = %s" % (ind, var))
        out.append("%scpu.npc = %s + 4" % (ind, var))
        out.append("%ssim.instructions_executed += %d" % (ind, count))
        out.append("%sreturn %d" % (ind, count))
        if count > self.max_count:
            self.max_count = count

    def emit_trap(self, ind, pc, count):
        """A system trap ends the block: architectural state (flags,
        counts, pc/npc) is written back *before* dispatch so a syscall
        — or the ExitProgram unwind — observes exactly what the
        interpreter would show."""
        number, first, last, result = self.trap_regs
        out = self.lines
        self.flush_exit_prologue(ind)
        out.append("%scpu.pc = %d" % (ind, pc))
        out.append("%scpu.npc = %d" % (ind, pc + 4))
        out.append("%ssim.instructions_executed += %d" % (ind, count))
        t = self.tmp()
        out.append("%s%s = syscalls.dispatch(r[%d], r[%d:%d])"
                   % (ind, t, number, first, last))
        out.append("%sr[%d] = %s & 4294967295" % (ind, result, t))
        out.append("%scpu.pc = %d" % (ind, pc + 4))
        out.append("%scpu.npc = %d" % (ind, pc + 8))
        out.append("%sreturn %d" % (ind, count))
        if count > self.max_count:
            self.max_count = count

    def _emit_store(self, ind, a, width, value_expr):
        """The store proper, with the aligned common case inlined as a
        direct page write (a width-aligned access never crosses a page
        boundary).  The misaligned path falls back to ``mem_store``,
        which carries the strict-mode fault and byte-wise semantics."""
        out = self.lines
        if width == 4:
            self.needs.update(("mem", "page", "word"))
            out.append("%sif %s & 3:" % (ind, a))
            out.append("%s    mem_store(%s, 4, %s)" % (ind, a, value_expr))
            out.append("%selse:" % ind)
            p = self.tmp()
            out.append("%s    %s = _pget(%s >> 12) or _mkpage(%s)"
                       % (ind, p, a, a))
            out.append("%s    _wp(%s, %s & 4095, (%s) & 4294967295)"
                       % (ind, p, a, value_expr))
        elif width == 1:
            self.needs.add("page")
            p = self.tmp()
            out.append("%s%s = _pget(%s >> 12) or _mkpage(%s)"
                       % (ind, p, a, a))
            out.append("%s%s[%s & 4095] = (%s) & 255"
                       % (ind, p, a, value_expr))
        elif width == 2:
            self.needs.update(("mem", "page", "half"))
            out.append("%sif %s & 1:" % (ind, a))
            out.append("%s    mem_store(%s, 2, %s)" % (ind, a, value_expr))
            out.append("%selse:" % ind)
            p = self.tmp()
            out.append("%s    %s = _pget(%s >> 12) or _mkpage(%s)"
                       % (ind, p, a, a))
            out.append("%s    _hp(%s, %s & 4095, (%s) & 65535)"
                       % (ind, p, a, value_expr))
        else:
            self.needs.add("mem")
            out.append("%smem_store(%s, %d, %s)" % (ind, a, width,
                                                    value_expr))

    def _emit_load(self, ind, a, width, signed, dest_reg):
        """Register load with the aligned hit inlined (an unmapped page
        reads as zero, as in :meth:`Memory.load`); a sign-extended
        value is re-masked to 32 bits exactly as the interpreter's
        prepared ops do."""
        out = self.lines
        fallback = "mem_load(%s, %d, %s)" % (a, width, signed)
        if signed:
            fallback += " & 4294967295"
        if width == 4:
            self.needs.update(("mem", "page", "word"))
            p = self.tmp()
            out.append("%sif %s & 3:" % (ind, a))
            out.append("%s    r[%d] = %s" % (ind, dest_reg, fallback))
            out.append("%selse:" % ind)
            out.append("%s    %s = _pget(%s >> 12)" % (ind, p, a))
            out.append("%s    r[%d] = _wu(%s, %s & 4095)[0] "
                       "if %s is not None else 0"
                       % (ind, dest_reg, p, a, p))
        elif width == 1:
            self.needs.add("page")
            p = self.tmp()
            b = self.tmp()
            out.append("%s%s = _pget(%s >> 12)" % (ind, p, a))
            out.append("%s%s = %s[%s & 4095] if %s is not None else 0"
                       % (ind, b, p, a, p))
            if signed:
                # (b - 256) & M32 == b + 4294967040 for the negative
                # half; the positive half passes through unchanged.
                out.append("%sr[%d] = %s + 4294967040 if %s > 127 else %s"
                           % (ind, dest_reg, b, b, b))
            else:
                out.append("%sr[%d] = %s" % (ind, dest_reg, b))
        elif width == 2:
            self.needs.update(("mem", "page", "half"))
            p = self.tmp()
            h = self.tmp()
            out.append("%sif %s & 1:" % (ind, a))
            out.append("%s    r[%d] = %s" % (ind, dest_reg, fallback))
            out.append("%selse:" % ind)
            out.append("%s    %s = _pget(%s >> 12)" % (ind, p, a))
            out.append("%s    %s = _hu(%s, %s & 4095)[0] "
                       "if %s is not None else 0" % (ind, h, p, a, p))
            if signed:
                out.append("%s    r[%d] = %s + 4294901760 "
                           "if %s > 32767 else %s"
                           % (ind, dest_reg, h, h, h))
            else:
                out.append("%s    r[%d] = %s" % (ind, dest_reg, h))
        else:
            self.needs.add("mem")
            out.append("%sr[%d] = %s" % (ind, dest_reg, fallback))

    def emit_memory(self, ind, pc, inst, idx, in_slot, addr_expr,
                    value_expr, dest_reg):
        out = self.lines
        width = inst.mem_width
        cpu = self.cpu
        if inst.category is Category.STORE:
            a = self.tmp()
            out.append("%s%s = %s" % (ind, a, addr_expr))
            if self.hooked:
                out.append("%shook(True, %s, %d)" % (ind, a, width))
            self._emit_store(ind, a, width, value_expr)
            if cpu._text_ranges:
                out.append("%sif %d <= %s < %d:"
                           % (ind, cpu._text_lo, a, cpu._text_hi))
                if in_slot:
                    # The block ends right after the slot: invalidate,
                    # but no compiled tail remains to abort.
                    out.append("%s    cpu._text_write(%s)" % (ind, a))
                else:
                    out.append("%s    if cpu._text_write(%s):" % (ind, a))
                    # Self-modifying text: the rest of this block may
                    # be stale, so exit at the next pc and re-decode.
                    self.exit_const(ind + "        ", idx + 1, pc + 4)
            return
        signed = inst.mem_signed
        a = self.tmp()
        out.append("%s%s = %s" % (ind, a, addr_expr))
        if self.hooked:
            out.append("%shook(False, %s, %d)" % (ind, a, width))
        if dest_reg:
            self._emit_load(ind, a, width, signed, dest_reg)
        elif width in (2, 4):
            # Zero destination: an *aligned* access can neither fault
            # nor store, so only the misaligned path (strict-mode
            # fault parity) still has to run.
            self.needs.add("mem")
            out.append("%sif %s & %d:" % (ind, a, width - 1))
            out.append("%s    mem_load(%s, %d, %s)" % (ind, a, width,
                                                       signed))
        elif width not in (1, 2, 4):
            self.needs.add("mem")
            out.append("%smem_load(%s, %d, %s)" % (ind, a, width, signed))

    # -- driver --------------------------------------------------------
    def decode(self, pc):
        """The instruction at *pc*, or None when the description has no
        semantics for it (it is left to the dispatch loop)."""
        inst = self.cpu.codec.decode(self.cpu.memory.load(pc, 4))
        if inst.category is Category.INVALID \
                or self.described(inst.word) is None:
            return None
        return inst

    def compile(self, pc0):
        stops = self.stops
        max_len = self.cpu._block_max_len
        ind = self.BASE
        pc = pc0
        count = 0
        complete = False
        while count < max_len:
            # `count` (not `pc != pc0`) guards the entry pc: a fused
            # loop may revisit pc0 mid-block, and if pc0 is a stop the
            # interpreter would halt there.
            if stops is not None and count and pc in stops:
                break
            inst = self.decode(pc)
            if inst is None:
                break
            if not inst.category.is_control:
                self.count(ind, pc, inst)
                self.semantics(ind, pc, inst, count, False)
                count += 1
                pc += 4
                continue
            step = self.emit_cti(ind, pc, inst, count)
            if not isinstance(step, tuple):
                complete = step
                break
            count, pc = step
        if not complete:
            if count == 0:
                return _UNCOMPILABLE
            # Ended before an instruction left to the dispatch loop, at
            # a stop pc, or at the length cap: fall through to it.
            self.exit_const(ind, count, pc)
        return self.finish(pc0)

    def emit_cti(self, ind, pc, inst, count):
        """Emit a control transfer or trap at *pc* with its delay slot.
        Returns a ``(count, pc)`` continuation when the transfer fuses
        into the block, True when it ends the block, and False when it
        is left to the dispatch loop (its slot cannot be compiled).

        Fusing transfers whose target and direction fold to constants
        (calls, unconditional branches, statically decided ones) is
        what lets blocks span whole call chains instead of stopping
        every handful of instructions."""
        mark = len(self.lines), self.snapshot()
        self.count(ind, pc, inst)
        ctl = self.semantics(ind, pc, inst, count, False)
        if ctl.trap:
            self.emit_trap(ind, pc, count + 1)
            return True
        target = ctl.target
        if ctl.cond is None:
            if target is None:
                # Never taken: a nop, or an annulled skip of the slot.
                return count + 1, pc + (8 if ctl.annul else 4)
            if isinstance(target, int):
                if not inst.is_delayed:  # taken, and the slot is annulled
                    return count + 1, target
                slot = self.fusable_slot(pc)
                if slot is not None:
                    self.emit_slot(ind, pc + 4, slot, count + 1)
                    return count + 2, target
        slot = self.fetch_slot(pc)
        if slot is None or not inst.is_delayed:
            del self.lines[mark[0]:]
            self.restore(mark[1])
            return False
        if ctl.cond is None:
            self.transfer(ind, pc, slot, count, target)
            return True
        self.lines.append("%sif %s:" % (ind, ctl.cond))
        snap = self.snapshot()
        self.transfer(ind + "    ", pc, slot, count, target)
        self.restore(snap)
        if ctl.annul:
            self.exit_const(ind, count + 1, pc + 8)
        else:
            self.emit_slot(ind, pc + 4, slot, count + 1)
            self.exit_const(ind, count + 2, pc + 8)
        return True

    def transfer(self, ind, pc, slot, count, target):
        """The taken path of the transfer at *pc*: a computed target's
        alignment check, the delay *slot*, and the exit."""
        if isinstance(target, int):
            self.emit_slot(ind, pc + 4, slot, count + 1)
            self.exit_const(ind, count + 2, target)
            return
        self.lines.append("%sif %s & 3:" % (ind, target))
        self.lines.append("%s    raise SimulationError("
                          "'misaligned jump to 0x%%x' %% %s)" % (ind, target))
        self.emit_slot(ind, pc + 4, slot, count + 1)
        self.exit_var(ind, count + 2, target)

    def fetch_slot(self, pc):
        """The delay-slot instruction at ``pc + 4``, when it can be
        fused into this block (straight-line, and not a run_until
        stop — a mid-delay stop must come from the single-step path so
        pc/npc land exactly as the interpreter leaves them)."""
        slot_pc = pc + 4
        if self.stops is not None and slot_pc in self.stops:
            return None
        inst = self.decode(slot_pc)
        if inst is None or inst.category.is_control:
            return None
        return inst

    def fusable_slot(self, pc):
        """``fetch_slot`` for fusion sites: additionally refuses a
        store when text invalidation is armed — the store's early-exit
        path assumes the block ends right after the slot, which is no
        longer true once a continuation is fused behind it."""
        slot = self.fetch_slot(pc)
        if (slot is not None and slot.category is Category.STORE
                and self.cpu._text_ranges):
            return None
        return slot

    def emit_slot(self, ind, slot_pc, slot, idx):
        self.count(ind, slot_pc, slot)
        self.semantics(ind, slot_pc, slot, idx, True)

    def finish(self, pc0):
        header = [
            "def _factory(cpu, sim, r, memory, syscalls, pc_counts, cat):",
        ]
        if "mem" in self.needs:
            header.append("    mem_load = memory.load")
            header.append("    mem_store = memory.store")
        if "page" in self.needs:
            header.append("    _pget = memory._pages.get")
            header.append("    _mkpage = memory._page")
        if "word" in self.needs:
            header.append("    _wu = _WORD.unpack_from")
            header.append("    _wp = _WORD.pack_into")
        if "half" in self.needs:
            header.append("    _hu = _HALF.unpack_from")
            header.append("    _hp = _HALF.pack_into")
        if self.count_pcs:
            header.append("    _pg = pc_counts.get")
        if self.counting:
            header.append("    _cg = cat.get")
        header.append("    def _block():")
        body = list(self.lines)
        if self.hooked:
            # Re-read per execution: cosim and tools may rebind the
            # hook between runs without reconstructing the simulator.
            body.insert(0, "        hook = sim.mem_hook")
        source = "\n".join(header + body + ["    return _block"])
        code = _compile_source(source, "<block 0x%x>" % pc0)
        return (self.max_count, code)


class _StoreAddress(RTLCompiler):
    """Compiles a store's RTL down to the statement that returns the
    address it writes, for the single-step path's text-write check."""

    def emit_memory(self, ind, pc, inst, idx, in_slot, addr_expr,
                    value_expr, dest_reg):
        self.emit(ind, "return %s" % addr_expr)


# ----------------------------------------------------------------------
# Dispatch loops
# ----------------------------------------------------------------------

class _BlockMixin(object):
    """Block-compiling dispatch shared by both architectures.

    Sits in front of the per-instruction CPU in the MRO: the parent
    supplies register state and prepared-op semantics (the single-step
    fallback), this mixin supplies the block cache and its run loops.
    """

    def __init__(self, simulator):
        super(_BlockMixin, self).__init__(simulator)
        self._block_caches = {}  # mode -> {entry pc: (max_len, func)}
        self._until_caches = {}  # same, truncated at the active stops
        self._until_stops = None
        self._block_cap = simulator.block_cache_cap
        self._block_max_len = simulator.block_max_len
        self._visits = {}
        # Code entries shared across every simulator of this image:
        # valid only while this CPU's text is untouched (text_version
        # 0 means memory's executable ranges still equal the image's).
        memo = getattr(simulator.image, "_block_memo", None)
        if memo is None:
            memo = simulator.image._block_memo = {}
        self._memo = memo
        self.text_version = 0
        self.block_compiles = 0
        self.block_hits = 0
        self.block_misses = 0
        self.block_evictions = 0
        self.block_invalidations = 0
        self.fly_hits = 0  # exact single-step prepared-cache hits
        ranges = []
        for section in simulator.image.sections.values():
            if section.is_exec:
                ranges.append((section.vaddr, section.vaddr + section.size))
        self._text_ranges = ranges
        if ranges:
            # 3-byte slack below each range start so a misaligned store
            # spilling into text from below still invalidates.
            self._text_lo = min(lo for lo, _ in ranges) - 3
            self._text_hi = max(hi for _, hi in ranges)
        else:
            self._text_lo, self._text_hi = 1, 0

    # -- cache plumbing ------------------------------------------------
    def _mode(self, counting):
        simulator = self.simulator
        if counting and self.category_counts is None:
            self.category_counts = {}
        return (simulator.count_pcs, counting,
                simulator.mem_hook is not None)

    def _compile(self, pc, mode, stops):
        if self.text_version:
            # Text diverged from the image: compile privately, never
            # touch the shared memo.
            return self._bind(_Emitter(self, mode, stops).compile(pc))
        memo = self._memo
        # Callers may pass stop pcs as any set type; freeze for the key.
        key = (mode, None if stops is None else frozenset(stops),
               self._block_max_len, pc)
        code_entry = memo.get(key)
        if code_entry is None:
            code_entry = _Emitter(self, mode, stops).compile(pc)
            memo[key] = code_entry
            if len(memo) > BLOCK_MEMO_CAP:
                memo.pop(next(iter(memo)))
        return self._bind(code_entry)

    def _memo_warm(self, pc, mode, stops):
        """True when another simulator already compiled this block —
        skip the single-step warm-up and bind it immediately."""
        return (not self.text_version
                and (mode, None if stops is None else frozenset(stops),
                     self._block_max_len, pc) in self._memo)

    def _bind(self, code_entry):
        """Turn a shareable ``(max_len, code)`` entry into this
        simulator's executable ``(max_len, func)`` entry."""
        max_count, code = code_entry
        if code is None:
            return _UNCOMPILABLE
        namespace = {}
        exec(code, _EXEC_GLOBALS, namespace)
        simulator = self.simulator
        func = namespace["_factory"](self, simulator, self.r, self.memory,
                                     simulator.syscalls,
                                     simulator.pc_counts,
                                     self.category_counts)
        return (max_count, func)

    def _insert(self, cache, pc, block):
        self.block_compiles += 1
        cache[pc] = block
        if len(cache) > self._block_cap:
            cache.pop(next(iter(cache)))
            self.block_evictions += 1

    def _text_write(self, addr):
        """A store landed in (or within 3 bytes below) an executable
        section: bump the text version and drop every compiled block.
        Returns True when the caches were invalidated."""
        for lo, hi in self._text_ranges:
            if lo - 3 <= addr < hi:
                break
        else:
            return False
        self.text_version += 1
        self.block_invalidations += 1
        for cache in self._block_caches.values():
            cache.clear()
        for cache in self._until_caches.values():
            cache.clear()
        self._visits.clear()
        return True

    def _store_addr_reader(self, inst):
        """A function of no arguments that returns the address the
        store *inst* writes, from the registers before it runs: the
        address expression of the store's RTL, compiled as a block
        compiles it.  Like the prepared op it guards, it is the same
        at every pc."""
        compiler = _StoreAddress(build_codec(self.simulator.image.arch))
        compiler.semantics("        ", None, inst, 0, False)
        source = "\n".join(["def _factory(r):", "    def _address():"]
                           + compiler.lines + ["    return _address", ""])
        namespace = {}
        exec(_compile_source(source, "<store address>"), _EXEC_GLOBALS,
             namespace)
        return namespace["_factory"](self.r)

    def _prepare(self, inst):
        op = super(_BlockMixin, self)._prepare(inst)
        if inst.category is Category.STORE and self._text_ranges:
            reader = self._store_addr_reader(inst)
            lo, hi = self._text_lo, self._text_hi
            text_write = self._text_write
            def checked_store():
                addr = reader()
                op()
                if lo <= addr < hi:
                    text_write(addr)
            return checked_store
        return op

    def _step_one(self, count_pcs, counting):
        """Single-step fallback: byte-for-byte the interpreter's loop
        body, plus exact flyweight-hit accounting (the cheap path here
        is cold by construction)."""
        simulator = self.simulator
        pc = self.pc
        if count_pcs:
            counts = simulator.pc_counts
            counts[pc] = counts.get(pc, 0) + 1
        word = self.memory.load(pc, 4)
        inst = self.codec.decode(word)
        prepared = self._prepared
        op = prepared.get(inst)
        if op is None:
            op = self._prepare(inst)
            prepared[inst] = op
            self.compiles += 1
            if len(prepared) > self._prepared_cap:
                prepared.pop(next(iter(prepared)))
                self.evictions += 1
        else:
            self.fly_hits += 1
        if counting:
            categories = self.category_counts
            categories[inst.category] = categories.get(inst.category, 0) + 1
        simulator.instructions_executed += 1
        op()

    # -- run loops -----------------------------------------------------
    def run(self):
        simulator = self.simulator
        counting = _TRACER.enabled
        count_pcs = simulator.count_pcs
        mode = self._mode(counting)
        cache = self._block_caches.get(mode)
        if cache is None:
            cache = self._block_caches[mode] = {}
        get = cache.get
        visits = self._visits
        budget = simulator.max_steps - simulator.instructions_executed
        steps = 0
        hits = 0
        misses = 0
        try:
            while steps < budget:
                pc = self.pc
                if self.npc != pc + 4:
                    # Resumed mid-delay-slot: restore the straight-line
                    # pc/npc invariant blocks are compiled against.
                    self._step_one(count_pcs, counting)
                    steps += 1
                    continue
                entry = get(pc)
                if entry is None:
                    misses += 1
                    seen = visits.get(pc, 0) + 1
                    if seen < WARM_THRESHOLD \
                            and not self._memo_warm(pc, mode, None):
                        visits[pc] = seen
                        self._step_one(count_pcs, counting)
                        steps += 1
                        continue
                    visits.pop(pc, None)
                    entry = self._compile(pc, mode, None)
                    self._insert(cache, pc, entry)
                    max_len, func = entry
                    if func is None or max_len > budget - steps:
                        self._step_one(count_pcs, counting)
                        steps += 1
                    else:
                        steps += func()
                    continue
                # Hot chain: every block exit re-establishes the
                # npc == pc + 4 invariant, so consecutive cached blocks
                # dispatch without re-checking it.
                while True:
                    max_len, func = entry
                    if func is None or max_len > budget - steps:
                        self._step_one(count_pcs, counting)
                        steps += 1
                        break
                    hits += 1
                    steps += func()
                    if steps >= budget:
                        break
                    entry = get(self.pc)
                    if entry is None:
                        break
        finally:
            self.block_hits += hits
            self.block_misses += misses

    def run_until(self, stop_pcs, budget):
        """Stop-aware twin of :meth:`run` (see ``_BaseCPU.run_until``
        for the contract).  Blocks compiled here are truncated so no
        interior pc is a stop: a sync point can only land between
        instructions, never inside a fused block."""
        simulator = self.simulator
        counting = _TRACER.enabled
        count_pcs = simulator.count_pcs
        mode = self._mode(counting)
        if stop_pcs is not self._until_stops:
            # The truncation points moved with the stop set; recompile
            # lazily against the new one.
            self._until_caches.clear()
            self._until_stops = stop_pcs
        cache = self._until_caches.get(mode)
        if cache is None:
            cache = self._until_caches[mode] = {}
        get = cache.get
        steps = 0
        hits = 0
        misses = 0
        try:
            while steps < budget:
                pc = self.pc
                if self.npc != pc + 4:
                    self._step_one(count_pcs, counting)
                    steps += 1
                else:
                    entry = get(pc)
                    if entry is None:
                        misses += 1
                        entry = self._compile(pc, mode, stop_pcs)
                        self._insert(cache, pc, entry)
                        cached = False
                    else:
                        cached = True
                    max_len, func = entry
                    if func is None or max_len > budget - steps:
                        self._step_one(count_pcs, counting)
                        steps += 1
                    else:
                        if cached:
                            hits += 1
                        steps += func()
                if self.pc in stop_pcs:
                    return steps
        finally:
            self.block_hits += hits
            self.block_misses += misses
        raise SimulationTimeout(self.pc, steps)


class BlockSparcCPU(_BlockMixin, SparcCPU):
    """SPARC with block compilation over the handwritten model."""


class BlockMipsCPU(_BlockMixin, MipsCPU):
    """MIPS with block compilation over the handwritten model."""
