"""Analysis-cache warm-vs-cold speedup (tentpole acceptance check).

Cold: empty cache — full symbol-table refinement, per-routine CFG
construction, liveness, indirect-jump slicing, plus the summary store.
Warm: the same binary again — one content hash, one EELA blob read and
hydration, and every routine's CFG and liveness materialized from its
packed records; no refinement or analysis work at all.  Each warm run
must show exactly that in its counters: one cache hit, no CFG build,
one restored CFG per routine.

The workload is ``interp`` (the largest: 20 routines and a dispatch
table), so the measured ratio is the one a tool like qpt2 would see
re-instrumenting a real program.
"""

import glob
import os
import time

from conftest import record, report
from repro.core import Executable
from repro.obs import metrics
from repro.workloads import build_image

WORKLOAD = "interp"
TARGET_SPEEDUP = 2.0
ROUNDS = 7


def _analyze(image):
    """The full front half of the edit pipeline: refined routines with
    CFGs and liveness ready for instrumentation."""
    exe = Executable(image).read_contents()
    for routine in exe.all_routines():
        routine.control_flow_graph().live_registers()
    return exe


def test_analysis_cache_warm_vs_cold(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "on")
    warm_dir = str(tmp_path / "warm")
    monkeypatch.setenv("REPRO_CACHE_DIR", warm_dir)
    _analyze(build_image(WORKLOAD))  # fill the cache the warm runs read
    (blob,) = glob.glob(os.path.join(warm_dir, "*.eela"))
    blob_bytes = os.path.getsize(blob)

    # Images are built outside the timed region (compilation is not the
    # pipeline under test); each run gets a fresh Image object so no
    # in-memory state carries over — only the on-disk cache does.  Cold
    # runs (an empty cache directory each) and warm runs take turns, so
    # that the host's load falls on both alike; each one's fastest
    # round counts.
    best = {"cold": float("inf"), "warm": float("inf")}
    facts = {}
    for index in range(ROUNDS):
        for path, directory in (("cold", str(tmp_path / ("cold-%d" % index))),
                                ("warm", warm_dir)):
            image = build_image(WORKLOAD)
            monkeypatch.setenv("REPRO_CACHE_DIR", directory)
            metrics.reset()
            started = time.perf_counter()
            exe = _analyze(image)
            best[path] = min(best[path], time.perf_counter() - started)
            counters = metrics.snapshot()["counters"]
            facts[path] = counters.get("facts.derived", 0)
            if path == "warm":
                assert counters.get("cache.hits") == 1, counters
                assert counters.get("cfg.builds", 0) == 0, counters
                assert counters.get("cache.restored_cfgs") \
                    == len(exe.all_routines()), counters
    cold, warm = best["cold"], best["warm"]

    speedup = cold / warm if warm else float("inf")
    rows = [
        ("path", "seconds", "speedup"),
        ("cold (analyze + store)", "%.4f" % cold, "1.0x"),
        ("warm (restore)", "%.4f" % warm, "%.1fx" % speedup),
    ]
    report("Analysis cache: warm vs cold on %s" % WORKLOAD, rows,
           paper_note="EEL reads an executable once; edits are the "
                      "common operation (section 3)")
    # Seconds move with the host's load from run to run; the facts each
    # path derives do not.
    record("analysis_cache.%s.cold_facts_derived" % WORKLOAD, facts["cold"],
           "facts", "lower")
    record("analysis_cache.%s.warm_facts_derived" % WORKLOAD, facts["warm"],
           "facts", "lower")
    record("analysis_cache.%s.interleaved_speedup" % WORKLOAD, speedup,
           "x", "higher")
    record("analysis_cache.%s.blob_bytes" % WORKLOAD, blob_bytes, "bytes",
           "lower")
    assert speedup >= TARGET_SPEEDUP, (
        "warm restore only %.2fx faster than cold analysis" % speedup
    )
