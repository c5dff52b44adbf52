"""Declarative rules over the fact store, and the incremental solver.

Each rule derives one fact kind for one routine, and the rule table
declares what it reads; :func:`deps_of` turns that into the dependency
edges the store uses for invalidation.  The table is the paper's stage
structure made explicit:

* ``routine`` — stages 1-3 output (identity, extents, entry points);
* ``cfg`` — stage 4 (CFG build with delay normalization and
  indirect-jump slicing baked in);
* ``liveness``/``cti``/``dispatch``/``islands``/``callsites`` — the
  per-routine analyses tools consume, all derived from the CFG fact.

:func:`solve` drains the store's dirty set as a fixpoint: dirty ``cfg``
facts force a fresh CFG build (``cfg.builds`` counts them, and
``facts.rederived`` counts exactly these); every other dirty fact is
refreshed from the surviving CFG records without building anything
(``facts.refreshed``).  When a rebuilt CFG changes its *interprocedural
signature* — escape targets, dispatch-table extents, unreached-suffix
shape — the edit may have moved routine boundaries, so the solver
escalates to a full re-refinement (``facts.escalations``); a
byte-identical or intra-routine edit never escalates.
"""

import hashlib

from repro.core.facts.record import CFGRecord, LivenessRecord
from repro.core.facts.store import FactStore
from repro.core.symtab_refine import routine_identity
from repro.isa.base import Category
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

_C_REDERIVED = _metrics.counter("facts.rederived")
_C_REFRESHED = _metrics.counter("facts.refreshed")
_C_ESCALATIONS = _metrics.counter("facts.escalations")

# Derivation order: a fact kind only reads kinds to its left.
KIND_ORDER = ("routine", "cfg", "liveness", "cti", "dispatch", "islands",
              "callsites")
DERIVED_KINDS = KIND_ORDER[1:]
# What a seeded store keeps of a donor routine: its identity and the two
# facts the CFG and liveness views restore from.
SEEDED_KINDS = KIND_ORDER[:3]


# ----------------------------------------------------------------------
# Rules: one payload for one routine each
# ----------------------------------------------------------------------

def _derive_routine(executable, routine, store):
    return routine_identity(routine)


def _derive_cfg(executable, routine, store):
    return CFGRecord.of(routine.control_flow_graph())


def _derive_liveness(executable, routine, store):
    return LivenessRecord.of(routine.control_flow_graph().live_registers())


def _derive_cti(executable, routine, store):
    record = ensure(executable, store, "cfg", routine)
    return {"cti_in_slot": int(record.cti_in_slot),
            "incomplete": int(record.incomplete)}


def _derive_dispatch(executable, routine, store):
    from repro.core.analysis.indirect import table_extent

    record = ensure(executable, store, "cfg", routine)
    return sorted(list(table_extent(info)) for info in record.indirect
                  if info.status == "table")


def _derive_islands(executable, routine, store):
    record = ensure(executable, store, "cfg", routine)
    islands = set(record.data_addrs)
    for addr, size in ensure(executable, store, "dispatch", routine):
        for offset in range(0, size, 4):
            islands.add(addr + offset)
    return sorted(islands)


def _derive_callsites(executable, routine, store):
    """Outgoing call sites, from the CFG *record* (no CFG object).

    Re-deriving a caller's call-graph fact after a callee edit must not
    rebuild the caller's CFG, so this rule decodes block tails straight
    from the record.  A resolved target names its routine, which makes
    the site read that routine's identity fact (see :func:`deps_of`) —
    the transitive-invalidation edge.
    """
    record = ensure(executable, store, "cfg", routine)
    sites = []
    for addr in record.normal_tails():
        inst = executable.instruction_at(addr)
        if inst.category is Category.CALL:
            sites.append({"addr": addr, "kind": "call",
                          "target": inst.target(addr)})
        elif inst.category is Category.CALL_INDIRECT:
            sites.append({"addr": addr, "kind": "indirect", "target": None})
    for info in record.indirect:
        if info.status == "tailcall":
            sites.append({"addr": record.last_word(info.block),
                          "kind": "tailcall", "target": info.literal})
    for site in sites:
        target = site["target"]
        if target is not None:
            container = executable.routine_at(target)
            if container is not None:
                site["routine"] = container.start
    return sites


# kind -> (rule, the kinds of the same routine the rule reads).
RULES = {
    "routine": (_derive_routine, ()),
    "cfg": (_derive_cfg, ("routine",)),
    "liveness": (_derive_liveness, ("cfg",)),
    "cti": (_derive_cti, ("cfg",)),
    "dispatch": (_derive_dispatch, ("cfg",)),
    "islands": (_derive_islands, ("cfg", "dispatch")),
    "callsites": (_derive_callsites, ("cfg",)),
}


def deps_of(kind, start, payload):
    """The facts a *kind* fact of the routine at *start* with *payload*
    reads: what its rule declares, of the same routine, and for
    ``callsites`` the ``routine`` fact of every resolved target.

    Dependencies are derived, never stored: derivation, hydration and
    seeding all wire the store's edges from here.
    """
    deps = [(read, start) for read in RULES[kind][1]]
    if kind == "callsites":
        for site in payload:
            if "routine" in site:
                deps.append(("routine", site["routine"]))
    return deps


def _derive(executable, store, kind, routine):
    """Run *kind*'s rule for *routine* and assert the result."""
    payload = RULES[kind][0](executable, routine, store)
    store.put(kind, routine.start, payload,
              deps_of(kind, routine.start, payload))
    return payload


def ensure(executable, store, kind, routine):
    """The fact's payload, deriving (and recording) it when absent or
    dirty.  The lazy entry point analyses use (e.g. the call graph)."""
    payload = store.get(kind, routine.start)
    if payload is not None and not store.is_dirty(kind, routine.start):
        return payload
    return _derive(executable, store, kind, routine)


def restorable(executable, kind, routine):
    """The payload *routine*'s CFG or liveness view restores from: a
    clean *kind* fact whose ``routine`` fact equals the routine's
    identity.  None means build."""
    store = executable.facts
    start = routine.start
    if store is None or store.is_dirty(kind, start):
        return None
    payload = store.get(kind, start)
    if payload is None \
            or store.get("routine", start) != routine_identity(routine):
        return None
    return payload


# ----------------------------------------------------------------------
# Population (cold path), seeding and donors
# ----------------------------------------------------------------------

def assert_routines(executable, store):
    """Assert the identity fact of every refined routine.

    Facts of a start address whose identity changed or vanished — a
    store seeded before refinement moved it — are dropped, after
    dirtying the facts of other routines that read them.
    """
    identities = {routine.start: routine_identity(routine)
                  for routine in executable.all_routines()}
    for start, identity in store.facts_of_kind("routine").items():
        if identities.get(start) != identity:
            store.invalidate("routine", start)
            for kind in KIND_ORDER:
                store.drop(kind, start)
    for start, identity in identities.items():
        store.put("routine", start, identity)


def populate(executable, store, kinds=DERIVED_KINDS):
    """Derive *kinds* for every routine (the batch fixpoint).

    Runs the stages in rule order so each derivation finds its inputs
    already asserted; used on the cold path and after an escalation.
    """
    with _span("facts.populate", routines=len(executable.all_routines())):
        assert_routines(executable, store)
        for kind in kinds:
            for routine in executable.all_routines():
                ensure(executable, store, kind, routine)


def text_hash(executable, start, end):
    """Short content hash of the text bytes in [start, end)."""
    text = executable.image.sections[".text"]
    lo = start - text.vaddr
    return hashlib.sha256(bytes(text.data[lo:lo + (end - start)])) \
        .hexdigest()[:16]


def donor(executable):
    """What a closely related executable seeds its store from (see
    :func:`seed`): this one's fact table with every routine's CFG and
    liveness derived, and the text hash of every routine."""
    store = executable.fact_store()
    populate(executable, store, kinds=SEEDED_KINDS[1:])
    return store.to_summary(), {
        routine.start: text_hash(executable, routine.start, routine.end)
        for routine in executable.all_routines()}


def seed(executable, adopt=None):
    """A fact store for *executable*, seeded from a :func:`donor`.

    A donor routine's :data:`SEEDED_KINDS` facts are kept when the
    executable's text bytes over the routine's extent hash as the
    donor's did.  Refinement then restores the CFG of any routine whose
    identity equals a kept one (see :func:`restorable`), and
    :func:`assert_routines` drops the rest; an empty store without
    *adopt*.
    """
    if adopt is None:
        return FactStore()
    table, hashes = adopt
    store = FactStore.from_summary(table, deps_of)
    for start, identity in store.facts_of_kind("routine").items():
        kept = hashes.get(start) == text_hash(executable, start,
                                              identity["end"])
        for kind in KIND_ORDER:
            if not kept or kind not in SEEDED_KINDS:
                store.drop(kind, start)
    return store


# ----------------------------------------------------------------------
# The incremental solver
# ----------------------------------------------------------------------

def _interproc_signature(record):
    """What other routines can observe of this CFG.

    Escape targets (where control leaves the extent), dispatch-table
    extents (claimed data other extents must avoid), and the
    unreached-suffix shape (stage 4's hidden-routine source).  An edit
    that preserves this signature cannot perturb refinement's routine
    set, so its effects stay local to the routine's own facts.
    """
    tables = sorted((info.table_addr, len(info.targets))
                    for info in record.indirect if info.status == "table")
    return (tuple(sorted(record.escape_targets())), tuple(tables),
            bool(record.unreached), record.incomplete)


def _escalate(executable, store):
    """Full re-refinement: the edit moved interprocedural structure.

    Re-runs symbol-table refinement from scratch (clearing claimed data
    — stale dispatch claims would poison discovery) and re-derives
    every fact kind that had been derived before.
    """
    from repro.core.executable import RoutineList
    from repro.core.symtab_refine import refine_symbol_table

    _C_ESCALATIONS.inc()
    derived = {kind for kind, _ in store.dirty_facts()} \
        | {fact[0] for fact in store._facts}
    kinds = tuple(kind for kind in DERIVED_KINDS if kind in derived)
    store.clear()
    executable._claimed = set()
    for routine in executable.all_routines():
        routine.delete_control_flow_graph()
    routines, hidden = refine_symbol_table(executable)
    executable._routines = RoutineList(routines)
    executable._hidden = RoutineList(hidden)
    populate(executable, store, kinds=kinds)


def solve(executable, store, max_rounds=8):
    """Drain the dirty set; returns (rederived, refreshed) counts.

    Processes dirty facts in rule order so a re-derived CFG is in place
    before its dependents refresh.  Escalates (and restarts as a full
    populate) when a rebuilt CFG's interprocedural signature changed.
    """
    rederived = refreshed = 0
    with _span("facts.solve") as sp:
        for _ in range(max_rounds):
            dirty = store.dirty_facts()
            if not dirty:
                break
            by_start = {r.start: r for r in executable.all_routines()}
            for kind in KIND_ORDER:
                for key in sorted(key for k, key in dirty if k == kind):
                    if not store.is_dirty(kind, key):
                        continue
                    routine = by_start.get(key)
                    if routine is None:
                        store.drop(kind, key)
                        continue
                    if kind == "cfg":
                        old = store.get("cfg", key)
                        routine.delete_control_flow_graph()
                        payload = _derive(executable, store, "cfg", routine)
                        rederived += 1
                        _C_REDERIVED.inc()
                        if old is not None and _interproc_signature(old) \
                                != _interproc_signature(payload):
                            _escalate(executable, store)
                            sp.set(escalated=True, rederived=rederived)
                            return rederived, refreshed
                    else:
                        _derive(executable, store, kind, routine)
                        refreshed += 1
                        _C_REFRESHED.inc()
        sp.set(rederived=rederived, refreshed=refreshed)
    return rederived, refreshed
