"""Run-item layout invariants (paper section 3.3: unedited code keeps
its bits).

Layout emits each maximal stretch of untouched original words as one
``run`` item holding the words' bytes.  For every corpus workload with
every tool its architecture supports, and for generated programs, the
laid-out edit must satisfy:

* a run's bytes are the original ``.text`` bytes over its range;
* the address map sends each original word to its first placed copy
  (a block's first word to its block label, which precedes any
  snippets), run words included;
* the verifier's placement tiles the edited routines' part of
  ``.text.edited`` with no gap or overlap, one ``word`` entry per run
  word, and every ``word`` entry equals the edited image's word and,
  when it has one, the original word at its original address;
* runs are maximal: two runs next to each other in the item stream
  never cover contiguous original addresses.
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
        cursor = routine.edited.base
        previous = None
        for item in routine.edited.items:
            if item.kind == "label":
                if item.orig_addr is not None:
                    label_at.setdefault(item.orig_addr, cursor)
            elif item.kind == "run":
                runs += 1
                lo = item.orig_addr - original.vaddr
                assert item.data == original.data[lo:lo + len(item.data)]
                for offset in range(0, len(item.data), 4):
                    first_copy.setdefault(item.orig_addr + offset,
                                          cursor + offset)
                if previous is not None and previous.kind == "run":
                    assert previous.orig_addr + len(previous.data) \
                        != item.orig_addr, "runs not maximal"
            elif item.orig_addr is not None:
                first_copy.setdefault(item.orig_addr, cursor)
            previous = item
            cursor += item.size(arch)
    assert runs, "no run items laid out"
    for orig, placed in first_copy.items():
        assert addr_map[orig] == label_at.get(orig, placed), hex(orig)

    placement = EditPlacement(executable)
    entries = placement.entries
    assert entries[0].start == routines[0].edited.base
    for first, second in zip(entries, entries[1:]):
        assert first.end == second.start, "gap or overlap at 0x%x" \
            % first.end
    assert entries[-1].end == new_text.end
    for entry in entries:
        item = entry.item
        assert item.kind != "run"
        if item.kind == "word":
            assert new_text.word_at(entry.start) == item.word
            if item.orig_addr is not None:
                assert original.word_at(item.orig_addr) == item.word
