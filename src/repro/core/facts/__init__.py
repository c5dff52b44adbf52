"""Per-routine analysis facts with incremental invalidation.

EEL's refinement pipeline (paper section 3.1) is a batch pass: every
edit re-pays symbol-table refinement, CFG feedback, and indirect-jump
resolution in full.  Datalog Disassembly shows the same heuristics
compose as declarative rules over per-routine facts; this package
recasts the analyses that way so an interactive edit session only
re-derives what an edit actually touched:

* :mod:`repro.core.facts.store` — the :class:`FactStore`: facts keyed
  by ``(kind, routine start)`` with a dependency graph and a dirty set;
* :mod:`repro.core.facts.rules` — the rules that derive each fact kind
  and the fixpoint solver that drains the dirty set;
* :mod:`repro.core.facts.record` — the packed records of the ``cfg``
  and ``liveness`` kinds, the one place that knows their layout.

Fact kinds (all keyed by routine start address; ``cfg`` and
``liveness`` are packed records, the others JSON-ready):

=========== ===========================================================
``routine`` identity: name, extent, entry points, hidden flag
``cfg``     the CFG record (blocks, edges, indirect resolutions)
``liveness`` the per-block live-register masks
``cti``     delay-slot CTI flag (routines tools must refuse to edit)
``dispatch`` dispatch-table extents claimed by indirect-jump slicing
``islands`` data-island addresses (claimed data inside the extent)
``callsites`` outgoing calls/tailcalls with resolved target routines
=========== ===========================================================

Dependencies encode the paper's stage structure: ``cfg`` reads
``routine`` (stage 4 reads stages 1-3), everything else reads ``cfg``,
and ``callsites`` additionally reads the ``routine`` fact of every
resolved target — which is exactly the edge that makes a callee edit
invalidate its callers' call-graph facts.  They are derived from the
rule table and the payloads (``rules.deps_of``), never stored.
"""

from repro.core.facts.store import FactStore

__all__ = ["FactStore"]
