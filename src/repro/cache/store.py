"""Content-addressed on-disk store for analysis summaries.

The cache key is a SHA-256 over everything routine analysis consumes:
the architecture, the entry point, every section's identity and bytes,
and the symbol table (symbol-table refinement stage 1 reads it), plus
the ``ANALYSIS_VERSION`` tag from :mod:`repro.binfmt.serialize`.  Two
executables with the same key are analysis-equivalent by construction;
any change to the analyses bumps the version and old entries simply
stop matching.

Invalidation rules:

* version or magic mismatch, truncated or corrupt blob -> the entry is
  deleted and counted in ``cache.invalidations``; the caller sees a miss;
* the directory is pruned oldest-first past ``REPRO_CACHE_MAX`` entries
  (default 512), counted in ``cache.evictions``.

The store must never break the pipeline: every filesystem error turns
into a miss (or a dropped store) plus a counter, not an exception.
"""

import hashlib
import json
import os
import struct
import threading
import zlib

from repro.binfmt.image import SEC_NOBITS
from repro.env import env_int
from repro.binfmt.serialize import (
    ANALYSIS_VERSION,
    FormatError,
    analysis_from_bytes,
    analysis_to_bytes,
)
from repro.obs import metrics as _metrics
from repro.obs.trace import phase as _phase
from repro.obs.trace import span as _span

_C_HITS = _metrics.counter("cache.hits")
_C_MISSES = _metrics.counter("cache.misses")
_C_STORES = _metrics.counter("cache.stores")
_C_INVALIDATIONS = _metrics.counter("cache.invalidations")
_C_EVICTIONS = _metrics.counter("cache.evictions")
_C_ERRORS = _metrics.counter("cache.store_errors")
_C_PRUNE_RACES = _metrics.counter("cache.prune_races")
_C_MEMORY_HITS = _metrics.counter("cache.memory_hits")
_metrics.ratio("cache.hit_rate", (_C_HITS,), (_C_HITS, _C_MISSES))
_phase("cache.load")
_phase("cache.store")

_SUFFIX = ".eela"
_VERDICT_SUFFIX = ".eelv"
_VERDICT_MAGIC = b"EELV"
_OFF_VALUES = ("off", "0", "false", "no")


def enabled():
    """The cache is on unless REPRO_CACHE says otherwise."""
    return os.environ.get("REPRO_CACHE", "on").lower() not in _OFF_VALUES


def cache_dir():
    """Directory holding cached analyses (REPRO_CACHE_DIR overrides)."""
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-eel")


def max_entries():
    """Entry cap per suffix; malformed values warn once and default."""
    return env_int("REPRO_CACHE_MAX", 512, minimum=0)


def image_cache_key(image):
    """Hex digest addressing *image*'s analysis results."""
    digest = hashlib.sha256()
    digest.update(b"EELK")
    digest.update(struct.pack(">H", ANALYSIS_VERSION))
    digest.update(image.arch.encode("utf-8"))
    digest.update(struct.pack(">I", image.entry & 0xFFFFFFFF))
    for name in sorted(image.sections):
        section = image.sections[name]
        digest.update(name.encode("utf-8"))
        digest.update(struct.pack(">IIB", section.vaddr, section.size,
                                  section.flags))
        if not section.flags & SEC_NOBITS:
            digest.update(bytes(section.data))
    for symbol in image.symbols:
        record = "%s|%d|%s|%s|%d|%s" % (
            symbol.name, symbol.value, symbol.kind, symbol.binding,
            symbol.size, symbol.section,
        )
        digest.update(record.encode("utf-8"))
    return digest.hexdigest()


def _entry_path(key):
    return os.path.join(cache_dir(), key + _SUFFIX)


# ----------------------------------------------------------------------
# In-process warm layer (the serve daemon's shared state)
#
# A long-lived process serving many requests against the same few
# binaries should not pay a file read + prune pass per request.  When
# enabled (``repro serve`` turns it on at startup), validated entry
# blobs are also kept in a bounded in-memory dict keyed by entry
# filename; hits skip the filesystem entirely.  Blobs — not decoded
# summaries — are cached, so a memory hit decodes fresh objects exactly
# like a disk hit and requests can never share mutable analysis state.
# ----------------------------------------------------------------------

_MEMORY_LOCK = threading.Lock()
_MEMORY = None  # None = disabled; {filename: blob} when enabled
_MEMORY_CAP = 0


def enable_memory_layer(cap=64):
    """Keep up to *cap* validated blobs warm in this process."""
    global _MEMORY, _MEMORY_CAP
    with _MEMORY_LOCK:
        _MEMORY = {}
        _MEMORY_CAP = max(1, cap)


def disable_memory_layer():
    global _MEMORY, _MEMORY_CAP
    with _MEMORY_LOCK:
        _MEMORY = None
        _MEMORY_CAP = 0


def _memory_get(name):
    with _MEMORY_LOCK:
        if _MEMORY is None:
            return None
        return _MEMORY.get(name)


def _memory_put(name, blob):
    with _MEMORY_LOCK:
        if _MEMORY is None:
            return
        _MEMORY.pop(name, None)
        _MEMORY[name] = blob
        while len(_MEMORY) > _MEMORY_CAP:
            _MEMORY.pop(next(iter(_MEMORY)))


def _memory_drop(name):
    with _MEMORY_LOCK:
        if _MEMORY is not None:
            _MEMORY.pop(name, None)


def load(key):
    """Summary dict for *key*, or None on miss/invalidation."""
    path = _entry_path(key)
    name = key + _SUFFIX
    blob = _memory_get(name)
    if blob is not None:
        with _span("cache.load", key=key[:12], bytes=len(blob),
                   memory=True):
            summary = analysis_from_bytes(blob)  # validated at insert
        _C_MEMORY_HITS.inc()
        _C_HITS.inc()
        return summary
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        _C_MISSES.inc()
        return None
    with _span("cache.load", key=key[:12], bytes=len(blob)):
        try:
            summary = analysis_from_bytes(blob)
        except FormatError:
            _invalidate(path)
            _C_MISSES.inc()
            return None
    _memory_put(name, blob)
    _C_HITS.inc()
    return summary


def store(key, summary):
    """Persist *summary* under *key* (atomic write; errors are dropped)."""
    directory = cache_dir()
    path = _entry_path(key)
    with _span("cache.store", key=key[:12]):
        try:
            blob = analysis_to_bytes(summary)
            _memory_put(key + _SUFFIX, blob)
            os.makedirs(directory, exist_ok=True)
            tmp = "%s.tmp.%d" % (path, os.getpid())
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            _C_ERRORS.inc()
            return
    _C_STORES.inc()
    _prune(directory)


def _verdict_path(key):
    return os.path.join(cache_dir(), key + _VERDICT_SUFFIX)


def load_verdict(key):
    """Verified-image verdict dict for *key*, or None.

    Verdicts memoize ``repro.verify`` results: the key covers both the
    original and the edited image, so any byte change in either side
    misses.  Like analysis entries, corrupt verdicts are deleted and
    read as misses — the verifier then simply re-verifies.
    """
    path = _verdict_path(key)
    name = key + _VERDICT_SUFFIX
    blob = _memory_get(name)
    if blob is not None:
        _C_MEMORY_HITS.inc()
        return json.loads(zlib.decompress(blob[4:]).decode("utf-8"))
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    try:
        if blob[:4] != _VERDICT_MAGIC:
            raise ValueError("bad verdict magic")
        verdict = json.loads(zlib.decompress(blob[4:]).decode("utf-8"))
        if not isinstance(verdict, dict):
            raise ValueError("verdict is not a dict")
    except (ValueError, zlib.error, UnicodeDecodeError):
        _invalidate(path)
        return None
    _memory_put(name, blob)
    return verdict


def store_verdict(key, verdict):
    """Persist a verify verdict (atomic write; errors are dropped)."""
    directory = cache_dir()
    path = _verdict_path(key)
    try:
        blob = _VERDICT_MAGIC + zlib.compress(
            json.dumps(verdict, sort_keys=True).encode("utf-8"))
        _memory_put(key + _VERDICT_SUFFIX, blob)
        os.makedirs(directory, exist_ok=True)
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except OSError:
        _C_ERRORS.inc()
        return
    _prune(directory, _VERDICT_SUFFIX)


def _invalidate(path):
    _C_INVALIDATIONS.inc()
    _memory_drop(os.path.basename(path))
    try:
        os.unlink(path)
    except OSError:
        pass


def _prune(directory, suffix=_SUFFIX):
    """Drop the oldest entries once the directory exceeds the cap.

    Several writers (``--jobs`` workers, daemon threads, independent
    CLI runs) can prune one directory at once, so every per-entry stat
    or unlink can lose a race with another pruner deleting the same
    oldest file.  A vanished entry is treated as already evicted —
    counted in ``cache.prune_races``, never an error, and never a
    reason to stop pruning the remaining entries.
    """
    cap = max_entries()
    try:
        names = [n for n in os.listdir(directory) if n.endswith(suffix)]
    except OSError:
        _C_ERRORS.inc()
        return
    if len(names) <= cap:
        return
    entries = []
    for name in names:
        path = os.path.join(directory, name)
        try:
            entries.append((os.path.getmtime(path), path))
        except OSError:
            _C_PRUNE_RACES.inc()  # another pruner beat us to it
    entries.sort()
    excess = len(entries) - cap
    if excess <= 0:
        return
    for _, path in entries[:excess]:
        try:
            os.unlink(path)
        except FileNotFoundError:
            _C_PRUNE_RACES.inc()
            continue
        except OSError:
            _C_ERRORS.inc()
            continue
        _C_EVICTIONS.inc()
