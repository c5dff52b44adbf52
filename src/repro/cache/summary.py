"""Build and restore whole-executable analysis summaries.

A summary is the executable's fact table (see :mod:`repro.core.facts`)
— what EEL computes once per executable (paper section 3): the refined
routine identities and, per routine, the packed CFG record (with
delay-slot hoists and indirect-jump resolutions baked in), the packed
liveness record and the facts derived from them — plus a record of how
the facts were produced.  A warm restore hydrates the executable's fact
store straight from it, so the image can invalidate and re-derive
single routines without a cold re-analysis.
"""

from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

_C_HYDRATED = _metrics.counter("facts.hydrated")
_C_HYDRATE_REJECTS = _metrics.counter("facts.hydrate_rejects")

# What restore and the views restored from it read of each JSON fact
# kind: the keys of a dict payload and the type of each (as JSON
# decodes them), or the type of the payload.  The record kinds arrive
# as bytes, and their own decoders check them.
_SHAPES = {
    "routine": {"name": str, "start": int, "end": int, "entries": list,
                "hidden": int},
    "cti": {"cti_in_slot": int, "incomplete": int},
    "dispatch": list,
    "islands": list,
    "callsites": list,
}
_RECORD_KINDS = ("cfg", "liveness")


def executable_to_summary(executable):
    """Summarize *executable*'s analyzed state: every fact kind derived
    for every routine, the ``cfg`` and ``liveness`` records as their
    packed bytes, and how the routine set was found."""
    from repro.core.facts import rules as _fact_rules

    store = executable.fact_store()
    _fact_rules.populate(executable, store)
    return {
        "provenance": executable.analysis_provenance,
        "meta_status": list(executable.meta_status),
        "facts": [[kind, key,
                   payload.raw if kind in _RECORD_KINDS else payload]
                  for kind, key, payload in store.to_summary()],
    }


def _hydrate(executable, summary):
    """The fact store *summary* holds and its facts by kind, or None
    unless every reference it makes checks out: every routine has every
    fact kind, each JSON payload in its shape, each record well formed
    (:meth:`CFGRecord.unpack`), inside its routine's extent and
    ``.text`` (:meth:`CFGRecord.check`), with one liveness mask pair
    per CFG block, and every call-site target naming a routine."""
    from repro.core.facts import FactStore
    from repro.core.facts import rules as _fact_rules
    from repro.core.facts.record import (
        CFGRecord, LivenessRecord, RecordError)

    if type(summary) is not dict \
            or type(summary.get("provenance")) is not str:
        return None
    status = summary.get("meta_status")
    if type(status) is not list or len(status) != 2 \
            or type(status[0]) is not str:
        return None
    rows = summary.get("facts")
    if type(rows) is not list:
        return None
    facts = {kind: {} for kind in _fact_rules.KIND_ORDER}
    try:
        for kind, key, payload in rows:
            facts[kind][key] = payload
    except (KeyError, TypeError, ValueError):
        return None
    starts = facts["routine"].keys()
    if not starts:
        return None
    for kind, payloads in facts.items():
        if payloads.keys() != starts:
            return None
        shape = _SHAPES.get(kind, bytes)
        if type(shape) is not dict:
            if any(type(payload) is not shape
                   for payload in payloads.values()):
                return None
            continue
        keys, types = tuple(shape), tuple(shape.values())
        for payload in payloads.values():
            if type(payload) is not dict \
                    or tuple(map(type, map(payload.get, keys))) != types:
                return None
    text = executable.image.sections.get(".text")
    text_start, text_end = (text.vaddr, text.end) if text else (0, 0)
    windows = executable.arch == "sparc"
    cfgs, livenesses = facts["cfg"], facts["liveness"]
    try:
        for start, identity in facts["routine"].items():
            if identity["start"] != start:
                return None
            cfg = cfgs[start] = CFGRecord.unpack(cfgs[start])
            cfg.check(start, identity["end"], text_start, text_end)
            livenesses[start] = LivenessRecord.unpack(
                livenesses[start], len(cfg.kinds), windows)
    except RecordError:
        return None
    for tables in facts["dispatch"].values():
        for table in tables:
            if type(table) is not list or len(table) != 2 \
                    or type(table[0]) is not int \
                    or type(table[1]) is not int:
                return None
    for sites in facts["callsites"].values():
        for site in sites:
            if type(site) is not dict:
                return None
            # A resolved target's routine fact is a derived edge: it
            # must name a routine fact, or invalidation would skip it.
            target = site.get("routine")
            if target is not None \
                    and (type(target) is not int or target not in starts):
                return None
    store = FactStore.from_summary(
        ((kind, key, payload) for kind, payloads in facts.items()
         for key, payload in payloads.items()),
        _fact_rules.deps_of)
    if store is None:
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

    hydrated = _hydrate(executable, summary)
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
