"""The fact store: facts, dependencies, dirty-set propagation.

A fact is ``(kind, key) -> payload`` where *key* is a routine start
address and *payload* is JSON-ready.  Facts carry explicit dependency
edges; invalidating a fact walks the reverse edges and marks every
transitively dependent fact dirty.  The store never recomputes
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
        fact = (kind, key)
        changed = self._facts.get(fact) != payload or fact not in self._facts
        self._facts[fact] = payload
        if changed:
            self._versions[fact] = self._versions.get(fact, 0) + 1
        new_deps = frozenset(tuple(dep) for dep in deps)
        for dep in self._deps.get(fact, frozenset()) - new_deps:
            self._rdeps.get(dep, set()).discard(fact)
        for dep in new_deps:
            self._rdeps.setdefault(dep, set()).add(fact)
        self._deps[fact] = new_deps
        self._dirty.discard(fact)
        _C_DERIVED.inc()
        return changed

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
        fact = (kind, key)
        self._facts.pop(fact, None)
        self._versions.pop(fact, None)
        self._dirty.discard(fact)
        for dep in self._deps.pop(fact, frozenset()):
            self._rdeps.get(dep, set()).discard(fact)
        self._rdeps.pop(fact, None)

    def clear(self):
        self._facts.clear()
        self._versions.clear()
        self._deps.clear()
        self._rdeps.clear()
        self._dirty.clear()

    # ------------------------------------------------------------------
    # Persistence (the cache blob's "facts" table)
    # ------------------------------------------------------------------
    def to_summary(self):
        """JSON-ready fact table: facts plus dependency edges.

        The dirty set is not persisted — a summary is only taken of a
        fully solved store, and hydration starts clean by construction.
        """
        facts = [[kind, key, self._facts[(kind, key)]]
                 for kind, key in sorted(self._facts)]
        deps = []
        for fact in sorted(self._facts):
            dep_set = self._deps.get(fact)
            if dep_set:
                deps.append([list(fact),
                             sorted(list(dep) for dep in dep_set)])
        return {"facts": facts, "deps": deps}

    @classmethod
    def from_summary(cls, data):
        """Rebuild a store from :meth:`to_summary` output.

        Returns None when *data* is structurally malformed — the caller
        treats that as a cache miss, never a partial hydrate.
        """
        if not isinstance(data, dict):
            return None
        store = cls()
        facts = store._facts
        try:
            for kind, key, payload in data["facts"]:
                if not isinstance(kind, str) or not isinstance(key, int):
                    return None
                facts[(kind, key)] = payload
            for fact_entry, deps in data.get("deps", ()):
                fact = tuple(fact_entry)
                dep_set = frozenset(map(tuple, deps))
                if fact not in facts or not dep_set <= facts.keys():
                    return None  # dangling edge: invalidation would skip it
                store._deps[fact] = dep_set
                for dep in dep_set:
                    store._rdeps.setdefault(dep, set()).add(fact)
        except (KeyError, TypeError, ValueError):
            return None
        store._versions = dict.fromkeys(facts, 1)
        return store
