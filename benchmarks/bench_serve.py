"""Serving economics: warm daemon requests vs. cold CLI invocations.

The daemon exists because EEL's expensive step — reading and analyzing
an executable — is paid once and then amortized across every
subsequent edit/instrument/query (the paper's tool/library split,
recast as a resident service).  A cold CLI call pays interpreter
startup plus a full analysis every time; a warm daemon request pays a
socket round-trip against an already-analyzed image.  This benchmark
measures both and gates on the warm path being at least
``MIN_SPEEDUP`` times faster.
"""

import os
import subprocess
import sys
import time

from conftest import record, report
from repro.serve import EditServer, ServeConfig
from repro.serve.client import ServeClient

WORKLOAD = "interp"  # the analysis-heaviest SPARC workload
COLD_RUNS = 3
WARM_RUNS = 10
MIN_SPEEDUP = 5.0

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src")


def _median(samples):
    ordered = sorted(samples)
    return ordered[len(ordered) // 2]


def _cold_cli_seconds(image_path, tmp_path):
    """One full CLI invocation: process start + cold analysis."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
               REPRO_CACHE="on")
    samples = []
    for index in range(COLD_RUNS):
        env["REPRO_CACHE_DIR"] = str(tmp_path / ("cold-%d" % index))
        started = time.perf_counter()
        subprocess.run([sys.executable, "-m", "repro.cli", "routines",
                        image_path], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - started)
    return samples


def test_warm_daemon_beats_cold_cli(tmp_path, monkeypatch):
    from repro import cli
    from repro.cache import disable_memory_layer

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "daemon-cache"))
    image_path = str(tmp_path / ("%s.eelf" % WORKLOAD))
    assert cli.main(["build", WORKLOAD, image_path]) == 0

    cold = _cold_cli_seconds(image_path, tmp_path)

    config = ServeConfig(socket_path=str(tmp_path / "bench.sock"), jobs=2)
    server = EditServer(config).start()
    try:
        with ServeClient(config.socket_path) as client:
            client.request("routines", workload=WORKLOAD)  # pay cold once
            warm = []
            for _ in range(WARM_RUNS):
                started = time.perf_counter()
                client.request("routines", workload=WORKLOAD)
                warm.append(time.perf_counter() - started)
    finally:
        server.request_drain()
        assert server.wait_drained(15.0)
        disable_memory_layer()

    cold_median = _median(cold)
    warm_median = _median(warm)
    speedup = cold_median / warm_median if warm_median else float("inf")
    rows = [
        ("path", "median s", "speedup"),
        ("cold CLI (start + analyze)", "%.4f" % cold_median, "1.0x"),
        ("warm daemon request", "%.5f" % warm_median, "%.1fx" % speedup),
    ]
    report("Edit serving: warm daemon vs cold CLI on %s" % WORKLOAD, rows,
           paper_note="analysis is the expensive step; the tool/library "
                      "split lets tools reuse it (sections 2, 6)")
    record("serve.%s.cold_cli" % WORKLOAD, cold_median, "s")
    record("serve.%s.warm_request" % WORKLOAD, warm_median, "s")
    record("serve.%s.speedup" % WORKLOAD, speedup, "x")
    assert speedup >= MIN_SPEEDUP, (
        "warm daemon requests are only %.1fx faster than cold CLI "
        "invocations (floor: %.1fx) — the warm layer or coalescing "
        "has regressed" % (speedup, MIN_SPEEDUP))
