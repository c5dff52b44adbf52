"""Snippet register allocation: scavenging and spilling (paper 3.5).

EEL finds the registers live at the insertion point and assigns dead
ones to the snippet's placeholders.  When not enough registers are dead,
the snippet is wrapped with code that spills victims to scratch slots
below the stack pointer.  If the snippet clobbers condition codes while
they are live, a save/restore pair is wrapped around it as well.

The decision -- which register each placeholder gets, which victims
spill, whether the condition codes are saved, and the wrapper words --
depends only on the conventions, the snippet's placeholder and
forbidden registers, whether it clobbers the condition codes, and the
live set.  It is made once per such combination and remembered; only
the rebinding of each snippet's own words runs per snippet.
"""

import types

from repro.obs import metrics as _metrics

_C_ALLOCATIONS = _metrics.counter("regalloc.allocations")
_C_SCAVENGED = _metrics.counter("regalloc.scavenged")
_C_SPILLED = _metrics.counter("regalloc.spilled")
_C_CC_SAVES = _metrics.counter("regalloc.cc_saves")
_metrics.ratio("regalloc.spill_rate", (_C_SPILLED,),
               (_C_SCAVENGED, _C_SPILLED))

# Remembered decisions; cleared when full, so a long-lived process that
# sees ever new live sets stays bounded.
_DECISIONS = {}
_DECISIONS_MAX = 4096


class RegallocError(Exception):
    pass


class AllocatedSnippet:
    """A snippet after register allocation, ready for placement.

    *mapping* (placeholder -> register) and *spilled* (``(register,
    slot)`` pairs) are shared, read-only, by every snippet allocated
    under the same decision.
    """

    def __init__(self, snippet, words, mapping, spilled):
        self.snippet = snippet
        self.words = words
        self.mapping = mapping
        self.spilled = spilled

    def run_callback(self, address):
        if self.snippet.callback is not None:
            replacement = self.snippet.callback(list(self.words), address,
                                                dict(self.mapping))
            if replacement is not None:
                if len(replacement) != len(self.words):
                    raise RegallocError(
                        "snippet call-back changed the instruction count"
                    )
                self.words = list(replacement)
        return self.words


class _Decision:
    """How to allocate one combination of snippet shape and live set."""

    __slots__ = ("mapping", "spilled", "scavenged", "cc_save", "prologue",
                 "epilogue")

    def __init__(self, alloc_regs, forbidden, clobbers_cc, live,
                 conventions):
        needed = list(alloc_regs)
        want_cc_save = clobbers_cc and bool(conventions.cc_regs & live)
        if want_cc_save:
            needed.append("__cc__")
        dead = [reg for reg in conventions.scavenge_candidates
                if reg not in live and reg not in forbidden]
        # Victims for spilling, preferred in scavenge order.
        victims = [reg for reg in conventions.scavenge_candidates
                   if reg in live and reg not in forbidden]

        mapping = {}
        spilled = []
        cc_reg = None
        for placeholder in needed:
            if dead:
                reg = dead.pop(0)
            elif victims:
                reg = victims.pop(0)
                spilled.append((reg, len(spilled)))
            else:
                raise RegallocError("no registers available for snippet")
            if placeholder == "__cc__":
                cc_reg = reg
            else:
                mapping[placeholder] = reg

        prologue = []
        epilogue = []
        for reg, slot in spilled:
            prologue.extend(conventions.spill(reg, slot))
            epilogue.extend(conventions.unspill(reg, slot))
        if cc_reg is not None:
            prologue.extend(conventions.save_cc(cc_reg))
            epilogue = list(conventions.restore_cc(cc_reg)) + epilogue
        self.mapping = types.MappingProxyType(mapping)
        self.spilled = tuple(spilled)
        self.scavenged = len(needed) - len(spilled)
        self.cc_save = cc_reg is not None
        self.prologue = prologue
        self.epilogue = epilogue


def allocate_snippet(snippet, live, conventions):
    """Bind *snippet*'s placeholder registers given the *live* set."""
    if live.__class__ is not frozenset:
        live = frozenset(live)
    key = (conventions, snippet.alloc_regs, snippet.forbidden_regs,
           snippet.clobbers_cc, live)
    decision = _DECISIONS.get(key)
    if decision is None:
        decision = _Decision(snippet.alloc_regs, snippet.forbidden_regs,
                             snippet.clobbers_cc, live, conventions)
        if len(_DECISIONS) >= _DECISIONS_MAX:
            _DECISIONS.clear()
        _DECISIONS[key] = decision

    _C_ALLOCATIONS.inc()
    _C_SCAVENGED.inc(decision.scavenged)
    if decision.spilled:
        _C_SPILLED.inc(len(decision.spilled))
    if decision.cc_save:
        _C_CC_SAVES.inc()

    words = (decision.prologue
             + conventions.rebind_registers(snippet.words, decision.mapping)
             + decision.epilogue)
    return AllocatedSnippet(snippet, words, decision.mapping,
                            decision.spilled)
