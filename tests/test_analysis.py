"""CFG analyses: dominators, loops, liveness, slicing, indirect jumps."""

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.core import Executable
from repro.core.analysis.dominators import dominates, dominators
from repro.core.analysis.liveness import LivenessAnalysis
from repro.core.analysis.loops import natural_loops
from repro.core.cfg import BK_SURROGATE
from repro.fuzz.gen import GenConfig, generate
from repro.isa import get_conventions
from repro.minic import GCC_LIKE, SUNPRO_LIKE, compile_to_image
from repro.workloads import build_image
from repro.workloads.builder import (
    build_mips_image,
    mips_program_names,
    program_names,
)

LOOPY = """
int f(int n) {
    int i; int j; int s;
    s = 0;
    for (i = 0; i < n; i = i + 1) {
        for (j = 0; j < i; j = j + 1) {
            s = s + j;
        }
    }
    return s;
}
int main(void) { print_int(f(6)); return 0; }
"""


def _cfg(name, source, options=GCC_LIKE):
    exe = Executable(compile_to_image(source, options)).read_contents()
    return exe.routine(name).control_flow_graph()


def test_dominators_entry_dominates_all():
    cfg = _cfg("f", LOOPY)
    idom = dominators(cfg)
    for block in cfg.blocks:
        if block in idom:
            assert dominates(idom, cfg.entry, block)


def test_dominators_linear_chain():
    cfg = _cfg("main", "int main(void) { return 0; }")
    idom = dominators(cfg)
    first = cfg.entry.succ[0].dst
    assert idom[first] is cfg.entry


def test_natural_loops_nesting():
    cfg = _cfg("f", LOOPY)
    loops = natural_loops(cfg)
    assert len(loops) == 2
    inner, outer = loops[0], loops[1]
    assert len(inner.body) < len(outer.body)
    # Inner loop is nested inside the outer loop body.
    assert inner.header.id in outer.body


def test_loop_free_routine_has_no_loops():
    cfg = _cfg("main", "int main(void) { return 0; }")
    assert natural_loops(cfg) == []


def test_liveness_dead_after_last_use():
    source = """
    int f(int a) {
        return a + 1;
    }
    int main(void) { print_int(f(1)); return 0; }
    """
    cfg = _cfg("f", source)
    liveness = cfg.live_registers()
    # At routine entry (before the save) all windowed registers are
    # caller state and must be treated as live.
    entry_block = cfg.entry.succ[0].dst
    live = liveness.live_before(entry_block, 0)
    assert 16 in live and 24 in live  # %l0, %i0
    # %g2-%g4 (application globals untouched here) stay dead.
    assert 2 not in live and 3 not in live


def test_liveness_call_clobbers():
    cfg = _cfg("main", "int main(void) { print_int(1); return 0; }")
    liveness = cfg.live_registers()
    surrogate = next(b for b in cfg.blocks if b.kind == "surrogate")
    # Argument registers are live into the call.
    assert 8 in liveness.live_in[surrogate.id]


def test_liveness_scavenging_inside_body():
    """Past the save, most locals are genuinely dead at block heads."""
    cfg = _cfg("f", LOOPY)
    liveness = cfg.live_registers()
    blocks = cfg.normal_blocks()
    inner = max(blocks, key=lambda b: b.start)
    live = liveness.live_before(inner, 0)
    dead = [r for r in range(16, 24) if r not in live]
    assert dead, "some %l registers are scavengeable"


# ----------------------------------------------------------------------
# Liveness differential: the bitmask worklist solver against a plain
# set-based round-robin reference, over every routine of the corpus and
# of generated programs on both architectures.
# ----------------------------------------------------------------------

_WINDOW = frozenset(range(8, 32))  # SPARC %o, %l, %i


def _reference_effects(cfg):
    """(call-surrogate uses, call-surrogate defs, live at exit)."""
    arch = cfg.codec.arch
    regs = cfg.codec.regs
    conventions = get_conventions(arch)
    uses = set(conventions.arg_regs) | {conventions.sp_reg}
    exit_live = {conventions.sp_reg, conventions.retaddr_reg}
    if arch == "sparc":
        defs = set(range(1, 16)) | {regs.number("%icc"), regs.number("%y")}
        exit_live |= {8, 24, 30, 31}
    else:
        defs = set(range(1, 16)) | {24, 25, 31, regs.number("$hi"),
                                    regs.number("$lo")}
        exit_live |= {2, 16, 17, 18, 19, 20, 21, 22, 23, 29, 30, 31}
    return uses, defs, {r for r in exit_live if r < regs.num_total}


def _reference_liveness(cfg):
    """Round-robin set dataflow to a global fixpoint, plus the SPARC
    pre-window flags as a round-robin forward fixpoint."""
    call_uses, call_defs, exit_live = _reference_effects(cfg)
    effects = {}
    for block in cfg.blocks:
        if block.kind == BK_SURROGATE:
            effects[block.id] = (call_uses, call_defs)
            continue
        uses, defs = set(), set()
        for _, inst in block.instructions:
            uses |= inst.reads() - defs
            defs |= inst.writes()
        effects[block.id] = (uses, defs)
    live_in = {block.id: set() for block in cfg.blocks}
    live_out = {block.id: set() for block in cfg.blocks}
    live_in[cfg.exit.id] = exit_live
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            if block is cfg.exit:
                continue
            out = set()
            for edge in block.succ:
                out |= live_in[edge.dst.id]
            uses, defs = effects[block.id]
            new_in = uses | (out - defs)
            if out != live_out[block.id] or new_in != live_in[block.id]:
                live_out[block.id] = out
                live_in[block.id] = new_in
                changed = True
    has_save = {block.id: any(inst.name == "save"
                              for _, inst in block.instructions)
                for block in cfg.blocks}
    pre = {block.id: False for block in cfg.blocks}
    if cfg.codec.arch == "sparc":
        pre[cfg.entry.id] = True
        changed = True
        while changed:
            changed = False
            for block in cfg.blocks:
                if not pre[block.id] and any(
                        pre[edge.src.id] and not has_save[edge.src.id]
                        for edge in block.pred):
                    pre[block.id] = True
                    changed = True
    return live_in, live_out, pre, has_save


def _check_against_reference(cfg, liveness):
    live_in, live_out, pre, has_save = _reference_liveness(cfg)
    where = cfg.routine.name
    for block in cfg.blocks:
        assert liveness.live_in[block.id] == live_in[block.id], \
            (where, block, "live_in")
        assert liveness.live_out[block.id] == live_out[block.id], \
            (where, block, "live_out")
    pre_window = liveness.to_summary().get("pre_window")
    if cfg.codec.arch == "sparc":
        assert pre_window == [int(pre[block.id]) for block in cfg.blocks], \
            where
    else:
        assert pre_window is None, where

    def before(block, index):
        live = set(live_out[block.id])
        for _, inst in reversed(block.instructions[index:]):
            live = (live - inst.writes()) | inst.reads()
        if pre[block.id] and not any(
                inst.name == "save" for _, inst in block.instructions[:index]):
            live |= _WINDOW
        return live

    for block in cfg.blocks:
        count = len(block.instructions)
        for index in range(count + 1):
            assert liveness.live_before(block, index) == before(block, index), \
                (where, block, index, "before")
        for index in range(count):
            expected = before(block, index + 1)
            if index + 1 == count:
                expected = set(live_out[block.id])
                if pre[block.id] and not has_save[block.id]:
                    expected |= _WINDOW
            assert liveness.live_after(block, index) == expected, \
                (where, block, index, "after")
        for edge in block.succ:
            expected = set(live_in[edge.dst.id])
            if pre[edge.dst.id] or (pre[block.id] and not has_save[block.id]):
                expected |= _WINDOW
            assert liveness.live_on_edge(edge) == expected, (where, edge)


_GENERATED = ["gen-%s-%d" % (arch, seed)
              for arch in ("sparc", "mips") for seed in range(12)]


def _liveness_image(name):
    if name.startswith("gen-"):
        _, arch, seed = name.split("-")
        return generate(int(seed), GenConfig(arch=arch)).image
    if name in mips_program_names():
        return build_mips_image(name)
    return build_image(name)


@pytest.mark.parametrize(
    "name", program_names() + mips_program_names() + _GENERATED)
def test_liveness_matches_set_reference(name):
    """Every routine: live_in/live_out, pre-window flags, live_before
    and live_after at every instruction, and live_on_edge on every edge
    equal the set-based reference — for a fresh solve and for an
    analysis restored from its own summary."""
    executable = Executable(_liveness_image(name)).read_contents()
    routines = executable.all_routines()
    assert routines
    for routine in routines:
        cfg = routine.control_flow_graph()
        solved = LivenessAnalysis(cfg)
        _check_against_reference(cfg, solved)
        restored = LivenessAnalysis.from_summary(cfg, solved.to_summary())
        _check_against_reference(cfg, restored)


def test_backward_slice_finds_address_computation():
    image = build_image("interp")
    exe = Executable(image).read_contents()
    step = exe.routine("step")
    cfg = step.control_flow_graph()
    jumps = [b for b in cfg.normal_blocks()
             if b.last_instruction is not None
             and b.last_instruction.category.value == "jump_indirect"]
    assert jumps
    block = jumps[0]
    inst = block.last_instruction
    slice_ = cfg.backward_slice(block, len(block.instructions) - 1,
                                inst.field("rs1"))
    # The slice reaches the sethi/or pair and the table load.
    names = {block.instructions[i][1].name
             for (block, i) in slice_.instructions()}
    assert "ld" in names
    assert "sethi" in names or "sll" in names


def test_indirect_jump_dispatch_table():
    exe = Executable(build_image("interp")).read_contents()
    cfg = exe.routine("step").control_flow_graph()
    tables = [i for i in cfg.indirect_jumps if i.status == "table"]
    assert len(tables) == 1
    info = tables[0]
    assert info.index_bound == 12  # cases 0..11 in the interpreter switch
    assert len(info.targets) == info.index_bound
    for target in info.targets:
        assert exe.is_text_address(target)
    # Computed edges connect to the case blocks.
    computed = [e for e in cfg.all_edges() if e.kind == "computed"]
    assert len(computed) >= 10


def test_tail_call_jumps_classified():
    exe = Executable(build_image("tailcalls", SUNPRO_LIKE)).read_contents()
    statuses = []
    for routine in exe.all_routines():
        cfg = routine.control_flow_graph()
        statuses.extend(i.status for i in cfg.indirect_jumps)
    assert "tailcall" in statuses
    assert "unanalyzable" not in statuses


def test_gcc_like_corpus_has_no_unanalyzable_jumps():
    """The paper's gcc measurement: 0 of 1,325 indirect jumps
    unanalyzable."""
    for name in ("interp", "qsort", "fib"):
        exe = Executable(build_image(name)).read_contents()
        for routine in exe.all_routines():
            cfg = routine.control_flow_graph()
            for info in cfg.indirect_jumps:
                assert info.status != "unanalyzable"


OPAQUE_JUMP = """
    .text
    .global _start
_start:
    set slot, %l0
    set target, %l1
    st %l1, [%l0]
    ld [%l0], %l2      ! target flows through memory: slice fails
    jmp %l2
    nop
target:
    mov 7, %o0
    mov 2, %g1
    ta 0
    clr %o0
    mov 1, %g1
    ta 0
    .data
slot: .word 0
"""


def test_unanalyzable_jump_through_memory():
    image = link([assemble(OPAQUE_JUMP, "sparc")])
    exe = Executable(image).read_contents()
    cfg = exe.routine("_start").control_flow_graph()
    assert any(i.status == "unanalyzable" for i in cfg.indirect_jumps)
    assert cfg.incomplete
