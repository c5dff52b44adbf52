"""Branch-counting tool: the paper's Figures 1-2 example.

Adds a counter along every outgoing edge of every block with more than
one successor, processes hidden routines from the worklist, and writes
the edited executable — a direct transcription of Figure 1 against this
library's API.
"""

from repro.tools.common import CounterArray, RoutineEditor, counter_snippet


class BranchCounter(RoutineEditor):
    """Instrument an executable to count branch-edge executions."""

    def __init__(self, image_or_path, only_routines=None):
        super().__init__(image_or_path, only_routines)
        self.counters = CounterArray(self.exec, "__branch_counts")

    def edit_cfg(self, routine, cfg):
        for block in cfg.blocks:
            if len(block.succ) <= 1:
                continue
            for edge in block.succ:
                if not edge.editable:
                    continue
                index = self.counters.allocate(
                    (routine.name, block.start, edge.kind)
                )
                edge.add_code_along(
                    counter_snippet(self.exec, self.counters.address(index))
                )

    def run(self):
        """Instrument every routine (including discovered hidden ones)."""
        for routine in self.exec.routines():
            self.edit_routine(routine)
        hidden = self.exec.hidden_routines()
        while not hidden.is_empty():
            routine = hidden.first()
            hidden.remove(routine)
            self.edit_routine(routine)
            self.exec.routines().add(routine)
        return self

    def counts(self, simulator):
        """(descriptor, count) pairs after running the edited program."""
        return list(zip(self.counters.meaning,
                        self.counters.read(simulator)))


def count_branches(image, run=True, stdin_text=""):
    """Convenience: instrument, run, and return (output, counts)."""
    from repro.sim import run_image

    tool = BranchCounter(image).run()
    edited = tool.edited_image()
    simulator = run_image(edited, stdin_text=stdin_text)
    return simulator, tool.counts(simulator)
