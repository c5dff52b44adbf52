"""Routines: named extents of the text segment (paper section 3.2)."""


class Routine:
    """A routine in an executable's text segment.

    Holds identity (name, extent, entry points) and provides the
    interface to control-flow analysis and editing: a routine's CFG is
    built on demand and edits against it are turned into an edited
    routine by :meth:`produce_edited_routine`.
    """

    def __init__(self, executable, name, start, end, entries=None,
                 hidden=False):
        self.executable = executable
        self.name = name
        self.start = start
        self.end = end
        self.entries = sorted(set(entries) if entries else {start})
        self.hidden = hidden
        self._cfg = None
        self.edited = None  # EditedRoutine after produce_edited_routine

    @property
    def entry(self):
        return self.entries[0]

    @property
    def size(self):
        return self.end - self.start

    def contains(self, addr):
        return self.start <= addr < self.end

    def add_entry(self, addr):
        """Record an additional entry point (from refinement stage 3)."""
        if not self.contains(addr):
            raise ValueError(
                "entry 0x%x outside routine %s" % (addr, self.name)
            )
        if addr not in self.entries:
            self.entries.append(addr)
            self.entries.sort()
            self.delete_control_flow_graph()

    # ------------------------------------------------------------------
    def control_flow_graph(self):
        """The routine's CFG, built on first use — or restored from the
        executable's fact store when that holds a clean ``cfg`` fact
        for this routine's identity."""
        if self._cfg is None:
            from repro.core.analysis.indirect import table_extent
            from repro.core.cfg import CFG
            from repro.core.facts.rules import restorable

            self._cfg = CFG(self, summary=restorable(self.executable, "cfg",
                                                     self))
            for info in self._cfg.indirect_jumps:
                if info.status == "table":
                    addr, size = table_extent(info)
                    self.executable.claim_data(addr, size)
        return self._cfg

    def delete_control_flow_graph(self):
        """Free the CFG (paper Figure 1 frees them explicitly)."""
        self._cfg = None

    def produce_edited_routine(self):
        """Lay out the edited version of this routine (section 3.3.1).

        Routines containing a control transfer in a delay slot are
        refused (paper §3.1): re-laying the pair out-of-place changes
        the delayed-delayed semantics, so the original code must stay
        in place.  Returns None in that case and the routine keeps
        running from the original text.
        """
        from repro.core.layout import lay_out_routine

        cfg = self.control_flow_graph()
        if cfg.cti_in_slot:
            return None
        self.edited = lay_out_routine(cfg)
        self.executable.register_edited(self)
        return self.edited

    def instructions(self):
        """(addr, Instruction) pairs over the whole extent, linear order."""
        table = self.executable.text_table()
        return [(addr, table[addr])
                for addr in range(self.start, self.end, 4)]

    def __repr__(self):
        return "Routine(%s [0x%x,0x%x)%s)" % (
            self.name, self.start, self.end,
            " hidden" if self.hidden else "",
        )
