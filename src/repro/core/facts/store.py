"""The fact store: facts, dependencies, dirty-set propagation.

A fact is ``(kind, key) -> payload`` where *key* is a routine start
address and *payload* is JSON-ready or, for ``cfg`` and ``liveness``,
a packed record (:mod:`repro.core.facts.record`).  Facts carry
explicit dependency edges; invalidating a fact walks the reverse edges
and marks every transitively dependent fact dirty.  The store never recomputes
anything itself — :mod:`repro.core.facts.rules` drains the dirty set.

Versions count payload *changes* (not re-derivations): a fact that is
re-derived to an identical payload keeps its version, so cache-warm
consumers can cheaply ask "did anything I read actually change?".
"""

from repro.obs import metrics as _metrics

_C_DERIVED = _metrics.counter("facts.derived")
_C_INVALIDATED = _metrics.counter("facts.invalidated")


class FactStore:
    """Facts keyed by ``(kind, key)`` with deps, rdeps, and a dirty set."""

    def __init__(self):
        self._facts = {}  # (kind, key) -> payload
        self._versions = {}  # (kind, key) -> int (payload changes)
        self._deps = {}  # fact -> frozenset of facts it reads
        self._rdeps = {}  # fact -> set of facts that read it
        self._dirty = set()
        # Set by from_summary: derives the edges of the facts it loaded,
        # wired on the first write or invalidation (see _wire).
        self._deps_of = None

    def __len__(self):
        return len(self._facts)

    def __contains__(self, fact_id):
        return tuple(fact_id) in self._facts

    # ------------------------------------------------------------------
    # Assertion and retrieval
    # ------------------------------------------------------------------
    def put(self, kind, key, payload, deps=()):
        """Assert a fact; returns True when the payload changed.

        Re-asserting marks the fact clean and rewires its dependency
        edges; the version bumps only on a real payload change.
        """
        self._wire()
        fact = (kind, key)
        changed = self._facts.get(fact) != payload or fact not in self._facts
        self._facts[fact] = payload
        if changed:
            self._versions[fact] = self._versions.get(fact, 0) + 1
        self._link(fact, deps)
        self._dirty.discard(fact)
        _C_DERIVED.inc()
        return changed

    def _link(self, fact, deps):
        """Make *deps* the facts *fact* reads."""
        new_deps = frozenset(tuple(dep) for dep in deps)
        for dep in self._deps.get(fact, frozenset()) - new_deps:
            self._rdeps.get(dep, set()).discard(fact)
        for dep in new_deps:
            self._rdeps.setdefault(dep, set()).add(fact)
        self._deps[fact] = new_deps

    def _wire(self):
        """Give the facts :meth:`from_summary` loaded their edges.

        Deferred to the first write or invalidation: a warm read that
        only reads facts never needs the edges.
        """
        deps_of, self._deps_of = self._deps_of, None
        if deps_of is not None:
            for fact, payload in self._facts.items():
                self._link(fact, deps_of(fact[0], fact[1], payload))

    def get(self, kind, key):
        return self._facts.get((kind, key))

    def version(self, kind, key):
        """Payload-change count for a fact (0 = never asserted)."""
        return self._versions.get((kind, key), 0)

    def is_dirty(self, kind, key):
        return (kind, key) in self._dirty

    def dirty_facts(self):
        """Snapshot of the dirty fact-id set."""
        return set(self._dirty)

    def facts_of_kind(self, kind):
        return {key: payload for (k, key), payload in self._facts.items()
                if k == kind}

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, kind, key):
        """Mark a fact and everything reachable from it dirty.

        Returns the set of fact ids newly marked; counts each in
        ``facts.invalidated``.
        """
        self._wire()
        marked = set()
        work = [(kind, key)]
        while work:
            fact = work.pop()
            if fact in marked:
                continue
            if fact not in self._facts and fact != (kind, key):
                continue
            marked.add(fact)
            work.extend(self._rdeps.get(fact, ()))
        marked = {f for f in marked if f in self._facts}
        fresh = marked - self._dirty
        self._dirty |= marked
        _C_INVALIDATED.inc(len(fresh))
        return fresh

    def drop(self, kind, key):
        """Forget a fact entirely (a routine that no longer exists)."""
        self._wire()
        fact = (kind, key)
        self._facts.pop(fact, None)
        self._versions.pop(fact, None)
        self._dirty.discard(fact)
        for dep in self._deps.pop(fact, frozenset()):
            self._rdeps.get(dep, set()).discard(fact)
        self._rdeps.pop(fact, None)

    def clear(self):
        self._deps_of = None
        self._facts.clear()
        self._versions.clear()
        self._deps.clear()
        self._rdeps.clear()
        self._dirty.clear()

    # ------------------------------------------------------------------
    # Persistence (the cache blob's "facts" table)
    # ------------------------------------------------------------------
    def to_summary(self):
        """The fact table: ``[kind, key, payload]`` rows sorted by fact.

        Neither the dirty set nor the dependency edges are part of it —
        a summary is only taken of a fully solved store, hydration
        starts clean by construction, and the edges are derived again
        from the payloads (see :meth:`from_summary`).
        """
        facts = self._facts
        return [[kind, key, facts[(kind, key)]]
                for kind, key in sorted(facts)]

    @classmethod
    def from_summary(cls, rows, deps_of):
        """Rebuild a store from ``[kind, key, payload]`` *rows*; each
        fact reads ``deps_of(kind, key, payload)``, wired when first
        needed.

        Returns None when *rows* are structurally malformed — the
        caller treats that as a cache miss, never a partial hydrate.
        The caller also makes sure every edge will resolve: hydration
        checks that every routine has every fact kind and that every
        call-site target names a routine fact.
        """
        store = cls()
        facts = store._facts
        try:
            for kind, key, payload in rows:
                if type(kind) is not str or type(key) is not int:
                    return None
                facts[(kind, key)] = payload
        except (TypeError, ValueError):
            return None
        store._versions = dict.fromkeys(facts, 1)
        store._deps_of = deps_of
        return store
