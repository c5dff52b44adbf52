"""Shard routing: rendezvous (highest-random-weight) hashing.

The gateway routes every request by a *content key* — the workload
name or the image's content hash — so the same executable always
lands on the same shard and finds that shard's warm analysis state.
Rendezvous hashing gives each (slot, key) pair a deterministic score
and routes the key to the highest-scoring slot; unlike modulo hashing,
removing one slot only moves the keys that lived there (every other
key keeps its warm shard), which is exactly the property a shard
death or rolling restart needs.

:func:`preference` returns the *full* ranking, best first: the
gateway takes the first live slot, so a key whose home shard is down
deterministically fails over to its second choice — and snaps back
home once the respawn lands, again without disturbing other keys.
"""

import hashlib


def content_key(op, params):
    """The routing key of a request, or None when it has no affinity.

    Requests naming a ``workload`` route by name (cheap, stable);
    inline images route by content digest, so two clients shipping
    the same bytes coalesce on one shard's warm analysis.  Ops that
    reference no executable (ping, stats, ...) have no affinity
    and are routed by load instead.
    """
    name = params.get("workload")
    if isinstance(name, str) and name:
        return "workload:" + name
    blob = params.get("image")
    if isinstance(blob, str) and blob:
        digest = hashlib.sha256(blob.encode("ascii", "replace"))
        return "image:" + digest.hexdigest()[:24]
    return None


def _score(slot, key):
    data = ("%d|%s" % (slot, key)).encode("utf-8")
    return hashlib.sha256(data).digest()


def preference(key, slots):
    """All slot indices ``0..slots-1`` ranked for *key*, best first."""
    return sorted(range(slots), key=lambda s: _score(s, key), reverse=True)


def route(key, slots, live=None):
    """The best slot for *key*, restricted to *live* slots.

    *live* is an optional set of currently healthy slot indices; when
    given, the highest-ranked live slot wins (rendezvous failover).
    Returns None when no slot is live.
    """
    for slot in preference(key, slots):
        if live is None or slot in live:
            return slot
    return None
