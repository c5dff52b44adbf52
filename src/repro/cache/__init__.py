"""Content-addressed analysis cache (the compile-once/run-many win).

EEL's analyses — symbol-table refinement, per-routine CFGs with
delay-slot normalization, liveness, indirect-jump slicing — depend only
on the executable's bytes.  This package keys their results by a hash
of those bytes plus an analysis-version tag and persists them on disk,
so a second edit/instrument/run of the same binary skips straight to
layout.

Environment knobs:

* ``REPRO_CACHE=off`` disables the cache entirely (cold path always);
* ``REPRO_CACHE_DIR`` relocates the store (default ``~/.cache/repro-eel``);
* ``REPRO_CACHE_MAX`` caps the entry count (default 512, oldest pruned).

Counters (``cache.*``) surface in the ``repro.obs`` report: hits,
misses, stores, invalidations, evictions, and restored CFGs.
"""

from repro.cache.store import (
    cache_dir,
    disable_memory_layer,
    enable_memory_layer,
    enabled,
    image_cache_key,
    load,
    load_verdict,
    max_entries,
    store,
    store_verdict,
)
from repro.cache.summary import executable_to_summary, restore_executable

__all__ = [
    "cache_dir",
    "disable_memory_layer",
    "enable_memory_layer",
    "enabled",
    "executable_to_summary",
    "image_cache_key",
    "load",
    "load_analysis",
    "load_verdict",
    "max_entries",
    "restore_executable",
    "store",
    "store_analysis",
    "store_verdict",
]


def load_analysis(executable):
    """Restore cached analysis for *executable*.

    Returns (routines, hidden) lists on a hit, None on a miss or when
    the cache is disabled.
    """
    if not enabled():
        return None
    summary = load(image_cache_key(executable.image))
    if summary is None:
        return None
    return restore_executable(executable, summary)


def store_analysis(executable):
    """Derive every fact of every routine and persist the fact table.
    No-op when the cache is disabled."""
    if not enabled():
        return
    summary = executable_to_summary(executable)
    store(image_cache_key(executable.image), summary)
