"""Run layout invariants (paper section 3.3: unedited code keeps its
bits).

Layout emits each maximal stretch of untouched original words as one
run of bytes copied from ``.text``, logs every placed original word's
offset, and leaves placeholders only where a fixup writes a final
address.  For every corpus workload with every tool its architecture
supports, and for generated programs, the laid-out edit must satisfy:

* every placed original word that no fixup rewrites keeps the original
  ``.text`` bytes over its range;
* the address map sends each original word to its first placed copy
  (a block's first word to its block label, which precedes any
  snippets), run words included;
* the verifier's placement tiles the edited routines' part of
  ``.text.edited`` with no gap or overlap, one ``word`` entry per run
  word, and every ``word`` entry equals the edited image's word and,
  when it has one, the original word at its original address;
* runs are maximal: two untouched placements next to each other in the
  output, with no label between them, continue each other's original
  addresses only where the second is a control transfer or a delay
  slot, which layout emits on their own.
"""

import pytest

from repro import tools
from repro.fuzz.gen import GenConfig, generate
from repro.verify.context import NEW_TEXT_SECTION, EditPlacement
from repro.workloads.builder import (
    build_image,
    build_mips_image,
    mips_program_names,
    program_names,
)


def _emitted_alone(executable, addr):
    """Whether layout emits the original word at *addr* on its own: a
    control transfer, or the delay slot of one."""
    text = executable.text_table()
    instruction = text[addr]
    previous = text.get(addr - 4)
    return instruction.is_control or (previous is not None
                                      and previous.inst.is_delayed)


_CASES = ([(name, tool) for name in program_names()
           for tool in tools.tool_names("sparc")]
          + [(name, tool) for name in mips_program_names()
             for tool in tools.tool_names("mips")]
          + [("gen-%s-%d" % (arch, seed), tool)
             for arch in ("sparc", "mips") for seed in range(20)
             for tool in tools.tool_names(arch)])


def _image(name):
    if name.startswith("gen-"):
        _, arch, seed = name.split("-")
        return generate(int(seed), GenConfig(arch=arch)).image
    if name in mips_program_names():
        return build_mips_image(name)
    return build_image(name)


@pytest.mark.parametrize("name,tool", _CASES,
                         ids=["%s-%s" % case for case in _CASES])
def test_run_layout_invariants(name, tool):
    session = tools.instrument_image(_image(name), tool)
    executable = session.executable
    original = executable.image.sections[".text"]
    new_text = session.edited_image.sections[NEW_TEXT_SECTION]
    addr_map = executable._finalize().addr_map
    arch = executable.arch

    routines = sorted(executable._edited_routines.values(),
                      key=lambda routine: routine.start)
    runs = 0
    label_at = {}  # block start -> its label's placed address
    first_copy = {}  # original word address -> its first placed copy
    for routine in routines:
        edited = routine.edited
        base = edited.base
        for key, offset in edited.labels.items():
            if isinstance(key, int):
                label_at.setdefault(key, base + offset)
        rewritten = {fixup[0] for fixup in edited.fixups}
        labelled = set(edited.labels.values())
        previous = None
        for orig, offset, size in edited.origins:
            for step in range(0, size, 4):
                first_copy.setdefault(orig + step, base + offset + step)
            if offset in rewritten:
                previous = None
                continue
            runs += 1
            lo = orig - original.vaddr
            assert edited.code[offset:offset + size] \
                == original.data[lo:lo + size]
            if previous is not None and offset not in labelled \
                    and previous[1] + previous[2] == offset \
                    and previous[0] + previous[2] == orig:
                assert _emitted_alone(executable, orig), "runs not maximal"
            previous = (orig, offset, size)
    assert runs, "no runs laid out"
    for orig, placed in first_copy.items():
        assert addr_map[orig] == label_at.get(orig, placed), hex(orig)

    placement = EditPlacement(executable)
    entries = placement.entries
    assert entries[0].start == routines[0].edited.base
    for first, second in zip(entries, entries[1:]):
        assert first.end == second.start, "gap or overlap at 0x%x" \
            % first.end
    assert entries[-1].end == new_text.end
    # Provenance: the first unit placed at a block's label carries that
    # block, and no unit is attributed to a block whose label lies
    # after it.
    first_at = {}
    for entry in entries:
        first_at.setdefault(entry.start, entry)
    for start, placed in label_at.items():
        if placed in first_at:
            assert first_at[placed].block == start, hex(start)
            assert first_at[placed].region == "a%x" % start
    for entry in entries:
        if entry.block is not None:
            assert label_at[entry.block] <= entry.start
    for entry in entries:
        item = entry.item
        assert item.kind != "run"
        if item.kind == "word":
            assert new_text.word_at(entry.start) == item.word
            if item.orig_addr is not None:
                assert original.word_at(item.orig_addr) == item.word
