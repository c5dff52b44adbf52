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


def _analyze(image):
    """The full front half of the edit pipeline: refined routines with
    CFGs and liveness ready for instrumentation."""
    exe = Executable(image).read_contents()
    for routine in exe.all_routines():
        routine.control_flow_graph().live_registers()
    return exe


def test_analysis_cache_warm_vs_cold(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE", "on")

    # Images are built outside the timed region (compilation is not the
    # pipeline under test); each run gets a fresh Image object so no
    # in-memory state carries over — only the on-disk cache does.
    images = [build_image(WORKLOAD) for _ in range(5)]

    started = time.perf_counter()
    _analyze(images[0])
    cold = time.perf_counter() - started

    (blob,) = glob.glob(os.path.join(str(tmp_path), "*.eela"))
    blob_bytes = os.path.getsize(blob)

    warm_times = []
    for image in images[1:4]:
        metrics.reset()
        started = time.perf_counter()
        exe = _analyze(image)
        warm_times.append(time.perf_counter() - started)
        counters = metrics.snapshot()["counters"]
        assert counters.get("cache.hits") == 1, counters
        assert counters.get("cfg.builds", 0) == 0, counters
        assert counters.get("cache.restored_cfgs") \
            == len(exe.all_routines()), counters
    warm = min(warm_times)

    speedup = cold / warm if warm else float("inf")
    rows = [
        ("path", "seconds", "speedup"),
        ("cold (analyze + store)", "%.4f" % cold, "1.0x"),
        ("warm (restore)", "%.4f" % warm, "%.1fx" % speedup),
    ]
    report("Analysis cache: warm vs cold on %s" % WORKLOAD, rows,
           paper_note="EEL reads an executable once; edits are the "
                      "common operation (section 3)")
    record("analysis_cache.%s.cold" % WORKLOAD, cold, "s")
    record("analysis_cache.%s.warm" % WORKLOAD, warm, "s")
    record("analysis_cache.%s.speedup" % WORKLOAD, speedup, "x")
    record("analysis_cache.%s.blob_bytes" % WORKLOAD, blob_bytes, "bytes")
    assert speedup >= TARGET_SPEEDUP, (
        "warm restore only %.2fx faster than cold analysis" % speedup
    )
