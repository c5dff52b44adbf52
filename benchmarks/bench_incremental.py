"""Incremental re-analysis: one edited routine vs the whole image.

The fact store's reason to exist: after an edit to one routine, the
fixpoint solver re-derives that routine's facts and refreshes its
dependents, instead of re-paying symbol-table refinement and CFG
construction for every routine in the image.  The gate compares a
warm re-analysis of one mid-sized routine (``main``) against
invalidating and re-deriving everything, on ``interp`` (20 routines,
dispatch table) — the shape an interactive edit-compile-measure loop
actually sees.
"""

import time

from conftest import record, report
from repro.core import Executable
from repro.obs import metrics
from repro.workloads import build_image

WORKLOAD = "interp"
ROUTINE = "main"
TARGET_SPEEDUP = 5.0
ROUNDS = 7


def test_incremental_single_routine_vs_full(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE", "on")

    Executable(build_image(WORKLOAD)).read_contents()  # seed the cache
    exe = Executable(build_image(WORKLOAD)).read_contents()
    routines = [routine.name for routine in exe.all_routines()]

    # Full re-analysis (every routine's facts dirty) and incremental
    # re-analysis (one routine dirty, dependents refreshed from facts)
    # take turns, so that the host's load falls on both alike; each
    # one's fastest round counts.
    derived = metrics.counter("facts.derived")
    best = {"full": float("inf"), "single": float("inf")}
    facts = {}
    for _ in range(ROUNDS):
        for kind, dirty in (("full", routines), ("single", [ROUTINE])):
            for name in dirty:
                exe.invalidate_routine(name)
            before = derived.value
            started = time.perf_counter()
            exe.reanalyze()
            best[kind] = min(best[kind], time.perf_counter() - started)
            facts[kind] = derived.value - before
    full, single = best["full"], best["single"]

    speedup = full / single if single else float("inf")
    rows = [
        ("re-analysis", "seconds", "speedup"),
        ("full image (%d routines)" % len(routines),
         "%.4f" % full, "1.0x"),
        ("single routine (%s)" % ROUTINE,
         "%.4f" % single, "%.1fx" % speedup),
    ]
    report("Incremental re-analysis: %s" % WORKLOAD, rows,
           paper_note="EEL section 3.1 refinement is batch; the fact "
                      "store re-derives only what an edit touched")
    # Seconds move with the host's load from run to run; the facts each
    # re-analysis derives do not.
    record("incremental.%s.full_facts_derived" % WORKLOAD, facts["full"],
           "facts", "lower")
    record("incremental.%s.single_facts_derived" % WORKLOAD,
           facts["single"], "facts", "lower")
    record("incremental.%s.interleaved_speedup" % WORKLOAD, speedup, "x",
           "higher")
    assert speedup >= TARGET_SPEEDUP, (
        "single-routine re-analysis only %.2fx faster than full" % speedup
    )
