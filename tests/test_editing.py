"""Editing and layout: identity transforms, snippets, deletion, the
address map, trampolines, dispatch-table rewriting, runtime translation."""

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.core import Executable
from repro.minic import GCC_LIKE, SUNPRO_LIKE, compile_to_image
from repro.sim import run_image
from repro.tools.common import CounterArray, counter_snippet
from repro.workloads import build_image, build_mips_image, expected_output


def identity_edit(image):
    exe = Executable(image).read_contents()
    for routine in exe.all_routines():
        routine.produce_edited_routine()
    out = exe.edited_image()
    out.entry = exe.edited_addr(exe.start_address())
    return exe, out


@pytest.mark.parametrize("name", ["fib", "interp", "qsort", "tailcalls"])
def test_identity_transform_gcc(name):
    image = build_image(name)
    _, out = identity_edit(image)
    simulator = run_image(out)
    assert simulator.output == expected_output(name)
    assert simulator.exit_code == 0


@pytest.mark.parametrize("name", ["interp", "tailcalls", "tree"])
def test_identity_transform_sunpro(name):
    image = build_image(name, SUNPRO_LIKE)
    _, out = identity_edit(image)
    assert run_image(out).output == expected_output(name)


@pytest.mark.parametrize("name", ["mips_fib", "mips_switch"])
def test_identity_transform_mips(name):
    from repro.workloads.mips_programs import MIPS_PROGRAMS

    image = build_mips_image(name)
    _, out = identity_edit(image)
    assert run_image(out).output == MIPS_PROGRAMS[name][1]


def test_identity_same_instruction_count():
    """Re-folding keeps unedited code from growing (section 3.3)."""
    image = build_image("fib")
    baseline = run_image(image)
    _, out = identity_edit(image)
    edited_run = run_image(out)
    assert edited_run.instructions_executed == baseline.instructions_executed


def test_edited_addr_maps_entry():
    image = build_image("fib")
    exe, out = identity_edit(image)
    new_entry = exe.edited_addr(exe.start_address())
    assert new_entry != exe.start_address()
    assert out.section_at(new_entry).name == ".text.edited"


def test_unedited_address_maps_to_itself():
    image = build_image("fib")
    exe = Executable(image).read_contents()
    exe.routine("main").produce_edited_routine()
    # fib was not edited: its address is unchanged.
    fib = exe.routine("fib")
    assert exe.edited_addr(fib.start) == fib.start


def test_trampoline_installed_at_original_entry():
    image = build_image("fib")
    exe, out = identity_edit(image)
    fib = exe.routine("fib")
    from repro.isa import get_codec

    codec = get_codec("sparc")
    word = out.get_section(".text").word_at(fib.start)
    inst = codec.decode(word)
    assert inst.category.value == "branch" and inst.cond == "a"
    assert codec.control_target(inst, fib.start) == exe.edited_addr(fib.start)


def test_edit_after_finalize_rejected():
    from repro.core.executable import ExecutableError

    image = build_image("fib")
    exe = Executable(image).read_contents()
    exe.routine("fib").produce_edited_routine()
    exe.edited_addr(exe.start_address())
    with pytest.raises(ExecutableError):
        exe.routine("main").produce_edited_routine()


def test_write_and_reload_edited_executable(tmp_path):
    image = build_image("fib")
    exe = Executable(image).read_contents()
    for routine in exe.all_routines():
        routine.produce_edited_routine()
    path = str(tmp_path / "fib.edited")
    entry = exe.edited_addr(exe.start_address())
    exe.write_edited_executable(path, entry)
    from repro.binfmt import read_image

    reloaded = read_image(path)
    assert run_image(reloaded).output == expected_output("fib")


def test_block_snippet_executes():
    image = build_image("fib")
    exe = Executable(image).read_contents()
    counters = CounterArray(exe, "__test_counts")
    index = counters.allocate("fib head")
    fib = exe.routine("fib")
    cfg = fib.control_flow_graph()
    head = cfg.block_at[fib.start]
    head.add_code_before(0, counter_snippet(exe,
                                            counters.address(index)))
    for routine in exe.all_routines():
        routine.produce_edited_routine()
    out = exe.edited_image()
    out.entry = exe.edited_addr(exe.start_address())
    simulator = run_image(out)
    assert simulator.output == expected_output("fib")
    counts = counters.read(simulator)
    assert counts[0] == 5167  # fib(17) makes 5167 calls


def test_delete_instruction():
    source = """
    int main(void) {
        print_int(1);
        print_int(2);
        return 0;
    }
    """
    image = compile_to_image(source)
    exe = Executable(image).read_contents()
    cfg = exe.routine("main").control_flow_graph()
    # Delete the `mov 2, ...` that feeds the second print: find it.
    deleted = False
    for block in cfg.normal_blocks():
        for index, (addr, inst) in enumerate(block.instructions):
            if inst.name == "or" and inst.has_field("simm13") \
                    and inst.field("simm13") == 2 \
                    and inst.field("rs1") == 0:
                block.delete_instruction(index)
                deleted = True
                break
        if deleted:
            break
    assert deleted
    for routine in exe.all_routines():
        routine.produce_edited_routine()
    out = exe.edited_image()
    out.entry = exe.edited_addr(exe.start_address())
    output = run_image(out).output
    # The register keeps its previous value (print_int's return, 0),
    # so the second call prints 0 instead of 2.
    assert output == "10"


def test_edge_snippet_on_taken_edge_only():
    source = """
    int main(void) {
        int i;
        for (i = 0; i < 5; i = i + 1) { }
        return 0;
    }
    """
    image = compile_to_image(source)
    exe = Executable(image).read_contents()
    counters = CounterArray(exe, "__test_counts")
    cfg = exe.routine("main").control_flow_graph()
    edges = []
    for block in cfg.normal_blocks():
        last = block.last_instruction
        if last is not None and last.is_branch and last.is_conditional:
            taken = block.taken_edge()
            fall = block.fall_edge()
            t = counters.allocate("taken")
            f = counters.allocate("fall")
            taken.add_code_along(counter_snippet(exe, counters.address(t)))
            fall.add_code_along(counter_snippet(exe, counters.address(f)))
            edges.append((t, f))
    assert edges
    for routine in exe.all_routines():
        routine.produce_edited_routine()
    out = exe.edited_image()
    out.entry = exe.edited_addr(exe.start_address())
    simulator = run_image(out)
    values = counters.read(simulator)
    total_taken = sum(values[t] for t, _ in edges)
    total_fall = sum(values[f] for _, f in edges)
    # The loop condition is tested 6 times: 5 iterations one way, 1 exit.
    assert total_taken + total_fall == 6


def test_dispatch_table_edges_with_snippets():
    image = build_image("interp")
    exe = Executable(image).read_contents()
    counters = CounterArray(exe, "__test_counts")
    cfg = exe.routine("step").control_flow_graph()
    computed = [e for e in cfg.all_edges() if e.kind == "computed"]
    assert computed
    indices = []
    for edge in computed:
        index = counters.allocate(("case", edge.dst.start))
        indices.append(index)
        edge.add_code_along(counter_snippet(exe, counters.address(index)))
    for routine in exe.all_routines():
        routine.produce_edited_routine()
    out = exe.edited_image()
    out.entry = exe.edited_addr(exe.start_address())
    simulator = run_image(out)
    assert simulator.output == expected_output("interp")
    values = counters.read(simulator)
    # The interpreter executes 62 bytecodes in total through the table.
    assert sum(values[i] for i in indices) > 0


def test_tail_call_literal_patched():
    image = build_image("tailcalls", SUNPRO_LIKE)
    exe, out = identity_edit(image)
    assert run_image(out).output == expected_output("tailcalls")


OPAQUE_JUMP = """
    .text
    .global _start
_start:
    set slot, %l0
    set target, %l1
    st %l1, [%l0]
    ld [%l0], %l2
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


def test_runtime_translation_fallback():
    """An unanalyzable indirect jump still works in the edited program,
    through the original->edited translation table (section 3.3)."""
    image = link([assemble(OPAQUE_JUMP, "sparc")])
    assert run_image(image).output == "7"
    exe, out = identity_edit(image)
    assert out.has_section("__eel_translation")
    assert run_image(out).output == "7"


# ----------------------------------------------------------------------
# Long-branch relaxation (jump-span overflow becomes a stub, not an error)
# ----------------------------------------------------------------------

def _far_edit(image, routine_name, base=0x2000_0000):
    """Edit one routine with the new-text region far from the original
    text, so short direct jumps back and forth are out of span."""
    from repro.core import Executable as _Executable

    exe = _Executable(image).read_contents()
    exe._new_text_base = base
    exe._added_cursor = base
    exe.routine(routine_name).produce_edited_routine()
    return exe, exe.edited_image()


def test_long_trampoline_sparc_far_text():
    from repro.isa import get_codec
    from repro.obs import metrics

    before = metrics.counter("layout.long_branches").value
    image = build_image("fib")
    exe, out = _far_edit(image, "fib")
    # The edited program still runs correctly through the stub.
    simulator = run_image(out)
    assert simulator.output == expected_output("fib")
    assert simulator.exit_code == 0
    assert metrics.counter("layout.long_branches").value > before
    # The trampoline at fib's original entry is the multi-word
    # sethi/jmpl long form (a disp22 branch cannot reach 0x20000000).
    codec = get_codec("sparc")
    fib = exe.routine("fib")
    text = out.get_section(".text")
    assert codec.decode(text.word_at(fib.start)).name == "sethi"
    assert codec.decode(text.word_at(fib.start + 4)).name == "jmpl"


def test_long_trampoline_mips_far_region():
    from repro.isa import get_codec
    from repro.workloads.mips_programs import MIPS_PROGRAMS

    image = build_mips_image("mips_fib")
    # 0x20000000 is outside the j instruction's 256MB region.
    exe, out = _far_edit(image, "fib")
    simulator = run_image(out)
    assert simulator.output == MIPS_PROGRAMS["mips_fib"][1]
    codec = get_codec("mips")
    fib = exe.routine("fib")
    text = out.get_section(".text")
    assert codec.decode(text.word_at(fib.start)).name == "lui"
    names = {codec.decode(text.word_at(fib.start + 4 * i)).name
             for i in range(3)}
    assert "jr" in names


def test_jump_item_relaxed_to_long_form():
    """A synthesized jump (a jump/jumpxfer fixup) whose target is out of
    direct span grows to the long stub during placement instead of
    raising LayoutError."""
    from repro.core import Executable as _Executable
    from repro.obs import metrics

    image = build_image("fib")
    exe = _Executable(image).read_contents()
    exe._new_text_base = 0x2000_0000
    exe._added_cursor = exe._new_text_base
    fib = exe.routine("fib")
    fib.produce_edited_routine()
    # Synthetic escape back to unedited main: from 0x20000000 this is
    # far outside the ±8MB disp22 span.
    main_start = exe.routine("main").start
    edited = fib.edited
    site = len(edited.code)
    edited.fixups.append((site, "jumpxfer", None, main_start, 4))
    edited.code += bytes(4)
    before = metrics.counter("layout.long_branches").value
    out = exe.edited_image()
    assert metrics.counter("layout.long_branches").value >= before + 2
    # The jump stays where it was emitted and grows in place to the
    # three-word sethi/jmpl/nop stub.
    assert edited.fixups[-1] == (site, "jumpxfer", None, main_start, 12)
    assert len(edited.code) == site + 12
    codec = exe.codec
    stub = [out.get_section(".text.edited").word_at(edited.base + site + 4 * i)
            for i in range(3)]
    assert [codec.decode(word).name for word in stub[:2]] == ["sethi",
                                                              "jmpl"]
    assert stub[2] == codec.nop_word
    # The appended item is dead code; the program still runs.
    simulator = run_image(out)
    assert simulator.output == expected_output("fib")


def test_grow_jumps_moves_everything_after_the_jump():
    """Growing a jump re-emits its routine: the jump's bytes grow in
    place to the long size and every offset after the jump moves down
    by the growth; what sits at or before the jump stays put."""
    from repro.core import Executable as _Executable

    exe = _Executable(build_image("fib")).read_contents()
    edited = exe.routine("fib").produce_edited_routine()
    code = bytes(range(24))
    edited.code = bytearray(code)
    edited.fixups = [(4, "jump", None, 0, 4), (8, "branch", 7, 0, None),
                     (16, "jumpxfer", None, 0x1000, 4)]
    edited.labels = {0: 0, 1: 4, 2: 8, "a0.stub1": 20}
    edited.origins = [(0x100, 0, 4), (0x200, 12, 4), (0x300, 20, 4)]
    edited.snippets = [(8, None, 1), (20, None, 2)]
    edited.grow_jumps([0, 2])
    assert edited.code == (code[:8] + bytes(8) + code[8:20] + bytes(8)
                           + code[20:])
    assert edited.fixups == [(4, "jump", None, 0, 12),
                             (16, "branch", 7, 0, None),
                             (24, "jumpxfer", None, 0x1000, 12)]
    assert edited.labels == {0: 0, 1: 4, 2: 16, "a0.stub1": 36}
    assert edited.origins == [(0x100, 0, 4), (0x200, 20, 4),
                              (0x300, 36, 4)]
    assert edited.snippets == [(16, None, 1), (36, None, 2)]
