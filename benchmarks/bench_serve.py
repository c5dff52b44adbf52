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

import itertools
import os
import subprocess
import sys

from conftest import fastest_interleaved, record, report
from repro.obs import metrics
from repro.serve import EditServer, ServeConfig
from repro.serve.client import ServeClient

WORKLOAD = "interp"  # the analysis-heaviest SPARC workload
ROUNDS = 6  # interleaved cold CLI runs and warm requests; the fastest count
MIN_SPEEDUP = 5.0

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src")


def test_warm_daemon_beats_cold_cli(tmp_path, monkeypatch):
    from repro import cli
    from repro.cache import disable_memory_layer

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "daemon-cache"))
    image_path = str(tmp_path / ("%s.eelf" % WORKLOAD))
    assert cli.main(["build", WORKLOAD, image_path]) == 0

    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [_SRC, os.environ.get("PYTHONPATH")])),
               REPRO_CACHE="on")
    cold_dirs = (str(tmp_path / ("cold-%d" % index))
                 for index in itertools.count())

    def cold_cli():
        """One full CLI invocation: process start + cold analysis."""
        env["REPRO_CACHE_DIR"] = next(cold_dirs)
        subprocess.run([sys.executable, "-m", "repro.cli", "routines",
                        image_path], env=env, check=True,
                       stdout=subprocess.DEVNULL)

    config = ServeConfig(socket_path=str(tmp_path / "bench.sock"), jobs=2)
    server = EditServer(config).start()
    derived = metrics.counter("facts.derived")
    try:
        with ServeClient(config.socket_path) as client:
            def warm_request():
                client.request("routines", workload=WORKLOAD)

            before = derived.value
            warm_request()  # pay cold once
            cold_facts = derived.value - before
            cold, warm = fastest_interleaved([cold_cli, warm_request],
                                             ROUNDS)
            warm_facts = derived.value - before - cold_facts
    finally:
        server.request_drain()
        assert server.wait_drained(15.0)
        disable_memory_layer()

    speedup = cold / warm if warm else float("inf")
    rows = [
        ("path", "fastest s", "speedup"),
        ("cold CLI (start + analyze)", "%.4f" % cold, "1.0x"),
        ("warm daemon request", "%.5f" % warm, "%.1fx" % speedup),
    ]
    report("Edit serving: warm daemon vs cold CLI on %s" % WORKLOAD, rows,
           paper_note="analysis is the expensive step; the tool/library "
                      "split lets tools reuse it (sections 2, 6)")
    # Seconds move with the host's load from run to run; their ratio,
    # timed in turns, moves little, and the analysis work counted in
    # the daemon not at all.
    record("serve.%s.interleaved_speedup" % WORKLOAD, speedup, "x",
           "higher")
    record("serve.%s.cold_facts_derived" % WORKLOAD, cold_facts, "facts",
           "lower")
    record("serve.%s.warm_facts_derived" % WORKLOAD, warm_facts, "facts",
           "lower")
    assert speedup >= MIN_SPEEDUP, (
        "warm daemon requests are only %.1fx faster than cold CLI "
        "invocations (floor: %.1fx) — the warm layer or coalescing "
        "has regressed" % (speedup, MIN_SPEEDUP))
