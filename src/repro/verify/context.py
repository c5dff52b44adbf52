"""Shared state for the verify subsystem.

Everything in ``repro.verify`` works from the same three artifacts:

* the *original* image (untouched by editing — the finalizer copies
  sections, so a fresh analysis of it is valid after edits);
* the *edited* image plus the finalizer's address map;
* an *edit placement* — a walk of every edited routine's laid-out items
  giving, for each address in ``.text.edited``, the item that was
  placed there and the basic block it came from.

The placement is what turns a bare divergent address into provenance:
"the counter snippet qpt added before block 0x2094 of fib".
"""

import bisect

from repro.core.executable import Executable

NEW_TEXT_SECTION = ".text.edited"


class Finding:
    """One structural-lint result with routine/block/address provenance."""

    __slots__ = ("code", "message", "routine", "block", "addr", "severity")

    def __init__(self, code, message, routine=None, block=None, addr=None,
                 severity="error"):
        self.code = code
        self.message = message
        self.routine = routine  # routine name, if attributable
        self.block = block  # original block-start address, if attributable
        self.addr = addr  # address in the edited image
        self.severity = severity

    def __str__(self):
        where = []
        if self.routine is not None:
            where.append("routine %s" % self.routine)
        if self.block is not None:
            where.append("block 0x%x" % self.block)
        if self.addr is not None:
            where.append("at 0x%x" % self.addr)
        prefix = " ".join(where)
        return "[%s] %s%s%s" % (self.code, prefix, ": " if prefix else "",
                                self.message)

    def __repr__(self):
        return "Finding(%s)" % self


class PlacedItem:
    """One layout item with its resolved address range and provenance."""

    __slots__ = ("start", "end", "item", "routine", "block", "region")

    def __init__(self, start, end, item, routine, block, region):
        self.start = start
        self.end = end
        self.item = item  # repro.core.layout.Item
        self.routine = routine  # routine name
        self.block = block  # original block-start address (None in stubs)
        self.region = region  # label name of the enclosing region

    def describe(self):
        item = self.item
        parts = ["%s item" % item.kind]
        if item.kind == "snippet" and item.snippet is not None:
            tag = getattr(item.snippet.snippet, "tag", None)
            if tag is not None:
                parts.append("tag=%r" % (tag,))
        if item.orig_addr is not None:
            parts.append("from 0x%x" % item.orig_addr)
        parts.append("in routine %s" % self.routine)
        if self.block is not None:
            parts.append("(block 0x%x)" % self.block)
        parts.append("placed at [0x%x,0x%x)" % (self.start, self.end))
        return " ".join(parts)


class EditPlacement:
    """Address-ordered walk of every edited routine's placed items.

    Reconstructs where each :class:`~repro.core.layout.Item` landed from
    the routine's ``edited.base`` and the items' sizes — the same
    arithmetic the finalizer used, so it is exact even after tools like
    qpt delete their CFGs.
    """

    def __init__(self, executable):
        arch = executable.arch
        entries = []
        for routine in sorted(executable._edited_routines.values(),
                              key=lambda r: r.start):
            edited = routine.edited
            if edited is None or edited.base is None:
                continue
            cursor = edited.base
            block = None
            region = None
            for item in edited.items:
                if item.kind == "label":
                    region = item.label
                    # Stub labels carry no original address; attribution
                    # stops at the routine level inside them.
                    block = item.orig_addr
                    continue
                size = item.size(arch)
                entries.append(PlacedItem(cursor, cursor + size, item,
                                          routine.name, block, region))
                cursor += size
        entries.sort(key=lambda entry: entry.start)
        self.entries = entries
        self._starts = [entry.start for entry in entries]

    def covering(self, addr):
        """The placed item covering *addr*, or None."""
        index = bisect.bisect_right(self._starts, addr) - 1
        if index < 0:
            return None
        entry = self.entries[index]
        return entry if entry.start <= addr < entry.end else None

    def in_range(self, lo, hi):
        """Placed items overlapping [lo, hi)."""
        index = bisect.bisect_right(self._starts, lo) - 1
        if index < 0:
            index = 0
        out = []
        for entry in self.entries[index:]:
            if entry.start >= hi:
                break
            if entry.end > lo:
                out.append(entry)
        return out

    def snippets(self):
        """Placed snippet items, address order."""
        return [entry for entry in self.entries
                if entry.item.kind == "snippet"]


class VerifyContext:
    """Everything the lints, oracle, and injector share for one session.

    *executable* is the post-edit editing session; *edited_image* lets
    the fault injector substitute a deliberately corrupted image while
    keeping the session's placement and address map (the corruption is
    exactly the disagreement between plan and image that the checks
    must surface).
    """

    def __init__(self, executable, edited_image=None):
        self.executable = executable
        self.arch = executable.arch
        self.codec = executable.codec
        self.conventions = executable.conventions
        self.original_image = executable.image
        finalized = executable._finalize()
        self.edited_image = (edited_image if edited_image is not None
                             else finalized.image)
        self.addr_map = finalized.addr_map
        self.placement = EditPlacement(executable)
        self._analysis = None
        self._cfgs = None

    # ------------------------------------------------------------------
    @property
    def analysis(self):
        """A fresh analysis session over the *original* image.

        Independent of the editing session's (possibly tool-mangled)
        state: tools may delete CFGs after instrumenting, and the
        verifier must not trust the producer's own bookkeeping anyway.
        """
        if self._analysis is None:
            executable = Executable(self.original_image)
            executable.read_contents()
            self._analysis = executable
        return self._analysis

    def cfgs(self):
        """(routine, cfg) for every routine of the fresh analysis."""
        if self._cfgs is None:
            routines = sorted(self.analysis.all_routines(),
                              key=lambda r: r.start)
            self._cfgs = [(routine, routine.control_flow_graph())
                          for routine in routines]
        return self._cfgs

    def edited_addr(self, addr):
        return self.addr_map.get(addr, addr)

    def new_text(self):
        """The ``.text.edited`` section of the edited image, or None."""
        return self.edited_image.sections.get(NEW_TEXT_SECTION)

    def in_new_text(self, addr):
        section = self.new_text()
        return section is not None and section.contains(addr)

    def edited_routine_names(self):
        return sorted(self.executable._edited_routines)
