"""Build and restore whole-executable analysis summaries.

A summary is the executable's fact table (see :mod:`repro.core.facts`)
— what EEL computes once per executable (paper section 3): the refined
routine identities and, per routine, the CFG shape (with delay-slot
hoists and indirect-jump resolutions baked in), the liveness solution
and the facts derived from them — plus a record of how the facts were
produced.  A warm restore hydrates the executable's fact store straight
from it, so the image can invalidate and re-derive single routines
without a cold re-analysis.
"""

from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

_C_HYDRATED = _metrics.counter("facts.hydrated")
_C_HYDRATE_REJECTS = _metrics.counter("facts.hydrate_rejects")

# What restore and the views restored from it read of each fact kind:
# the keys of a dict payload and the type of each (as JSON decodes
# them), or None for a list payload.
_SHAPES = {
    "routine": {"name": str, "start": int, "end": int, "entries": list,
                "hidden": int},
    "cfg": {"blocks": list, "edges": list, "entry": int, "exit": int,
            "indirect": list, "data_addrs": list, "unreached": list,
            "incomplete": int, "cti_in_slot": int},
    "liveness": {"live_in": list, "live_out": list},
    "cti": {"cti_in_slot": int, "incomplete": int},
    "dispatch": None,
    "islands": None,
    "callsites": None,
}


def executable_to_summary(executable):
    """Summarize *executable*'s analyzed state: every fact kind derived
    for every routine, and how the routine set was found."""
    from repro.core.facts import rules as _fact_rules

    store = executable.fact_store()
    _fact_rules.populate(executable, store)
    return {
        "provenance": executable.analysis_provenance,
        "meta_status": list(executable.meta_status),
        "facts": store.to_summary(),
    }


def _hydrate(summary):
    """The fact store *summary* holds and its facts by kind, or None
    unless it has the shape its readers expect: every routine has every
    fact kind, each in its shape, with one ``live_in``/``live_out``
    entry per CFG block."""
    from repro.core.facts import FactStore

    if type(summary) is not dict \
            or type(summary.get("provenance")) is not str:
        return None
    status = summary.get("meta_status")
    if type(status) is not list or len(status) != 2 \
            or type(status[0]) is not str:
        return None
    store = FactStore.from_summary(summary.get("facts"))
    if store is None:
        return None
    facts = {kind: {} for kind in _SHAPES}
    for kind, key, payload in summary["facts"]["facts"]:
        if kind not in facts:
            return None
        facts[kind][key] = payload
    starts = facts["routine"].keys()
    if not starts:
        return None
    for kind, shape in _SHAPES.items():
        payloads = facts[kind]
        if payloads.keys() != starts:
            return None
        if shape is None:
            if any(type(payload) is not list
                   for payload in payloads.values()):
                return None
            continue
        keys, types = tuple(shape), tuple(shape.values())
        for payload in payloads.values():
            if type(payload) is not dict \
                    or tuple(map(type, map(payload.get, keys))) != types:
                return None
    for start, identity in facts["routine"].items():
        blocks = len(facts["cfg"][start]["blocks"])
        liveness = facts["liveness"][start]
        if identity["start"] != start \
                or len(liveness["live_in"]) != blocks \
                or len(liveness["live_out"]) != blocks:
            return None
        for table in facts["dispatch"][start]:
            if type(table) is not list or len(table) != 2 \
                    or type(table[0]) is not int \
                    or type(table[1]) is not int:
                return None
    return store, facts


def restore_executable(executable, summary):
    """Recreate the refined routine sets and fact store from *summary*.

    Returns (routines, hidden) lists of Routine objects — the ``routine``
    facts sorted by start, split on the hidden flag; CFGs and liveness
    restore from the store on first use — and leaves the hydrated
    :class:`FactStore` on ``executable.facts``, the dispatch tables its
    ``dispatch`` facts name claimed as data.  Returns None — a clean
    miss, never a partial hydrate — when the summary is not shaped as
    :func:`executable_to_summary` writes it (``facts.hydrate_rejects``).
    """
    from repro.core.symtab_refine import routine_from_identity

    hydrated = _hydrate(summary)
    if hydrated is None:
        _C_HYDRATE_REJECTS.inc()
        return None
    store, facts = hydrated
    identities = sorted(facts["routine"].items())
    with _span("cache.restore", routines=len(identities)):
        everyone = [routine_from_identity(executable, identity)
                    for _start, identity in identities]
        for tables in facts["dispatch"].values():
            for addr, size in tables:
                executable.claim_data(addr, size)
        executable.facts = store
        executable.analysis_provenance = summary["provenance"]
        executable.meta_status = tuple(summary["meta_status"])
    _C_HYDRATED.inc(len(store))
    return ([routine for routine in everyone if not routine.hidden],
            [routine for routine in everyone if routine.hidden])
