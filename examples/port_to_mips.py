"""Machine independence: the same tool code edits a MIPS binary.

The paper's core claim — EEL tools don't know the architecture.  This
example runs the untouched branch-counting tool over a MIPS executable,
then shows the spawn machine description that makes it possible, and
finally runs the binary on the block engine, whose instruction code is
generated from that description, against the handwritten MIPS model.

Run:  python examples/port_to_mips.py
"""

from repro.sim import Simulator, run_image
from repro.spawn import load_description
from repro.tools.branch_count import BranchCounter
from repro.workloads import build_mips_image
from repro.workloads.mips_programs import MIPS_PROGRAMS


def main():
    name = "mips_switch"
    image = build_mips_image(name)
    expected = MIPS_PROGRAMS[name][1]

    print("editing a MIPS binary with the unchanged branch counter:")
    tool = BranchCounter(image).run()
    edited = tool.edited_image()
    simulator = run_image(edited)
    assert simulator.output == expected
    print("  output preserved:", repr(simulator.output))
    for descriptor, count in tool.counts(simulator):
        if count:
            routine, block, kind = descriptor
            print("  %-14s block 0x%04x %-5s: %d" % (routine, block,
                                                     kind, count))

    description = load_description("mips")
    print("\nthe whole MIPS machine layer derives from a %d-line "
          "description (%d instructions)" % (
              description.source_lines, len(description.instructions)))

    print("\nrunning the binary on code generated from the description "
          "(block engine) and on the handwritten model:")
    generated = Simulator(image, engine="block")
    generated.run()
    handwritten = Simulator(image, engine="handwritten")
    handwritten.run()
    assert generated.output == handwritten.output == expected
    assert generated.instructions_executed \
        == handwritten.instructions_executed
    print("  identical output after %d instructions"
          % generated.instructions_executed)


if __name__ == "__main__":
    main()
