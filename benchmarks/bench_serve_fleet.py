"""Fleet economics: 4 sharded daemons vs. one, under mixed priority.

The single daemon is one Python process: CPU-bound analysis and
simulation serialize on the GIL no matter how many worker threads it
runs.  The fleet escapes that ceiling with real processes — N shard
daemons behind one gateway, requests routed by content so every image
keeps hitting its warm shard.  This benchmark drives ~100 concurrent
mixed-priority clients (interactive ``run`` plus bulk ``verify``)
first at a standalone daemon, then at a 4-shard fleet, and gates on
the fleet sustaining at least ``MIN_SPEEDUP`` times the requests/sec.

The speedup gate is CPU-aware: with fewer than 4 usable cores the
shards time-slice one another and the ratio measures the scheduler,
not the architecture — there the benchmark still runs both topologies
(zero failed requests, metrics recorded) but only enforces the fleet
completing sanely; CI runners provide the >= 4 cores the full gate
assumes.
"""

import os
import subprocess
import sys
import threading
import time

from conftest import record, report
from repro.serve.client import ServeClient, wait_for_daemon

CLIENTS = 100
REQUESTS_EACH = 3
SHARDS = 4
MIN_SPEEDUP = 2.5
# Every 4th client issues bulk verify traffic; the rest are interactive.
WORKLOADS = ["fib", "qsort", "bubble", "sieve", "crc", "strings"]

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src")


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))


def _burst(address, failures):
    """All clients through one address; returns (elapsed_s, completed)."""
    completed = []

    def session(index):
        workload = WORKLOADS[index % len(WORKLOADS)]
        bulk = index % 4 == 3
        try:
            with ServeClient(address, retries=10,
                             io_timeout=300.0) as client:
                for _ in range(REQUESTS_EACH):
                    if bulk:
                        result = client.request("verify", workload=workload,
                                                tool="qpt")
                        assert result["ok"], result.get("text")
                    else:
                        result = client.run_workload(workload)
                        assert result["exit_code"] == 0
                    completed.append(index)
        except Exception as error:  # noqa: BLE001 - any failure gates
            failures.append("client %d (%s): %s" % (index, workload, error))

    threads = [threading.Thread(target=session, args=(i,))
               for i in range(CLIENTS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(900)
    return time.perf_counter() - started, len(completed)


def _shutdown(proc, address):
    try:
        with ServeClient(address, retries=0, io_timeout=10.0) as client:
            client.shutdown()
    except Exception:  # noqa: BLE001 - fall through to SIGTERM
        proc.terminate()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(30)


def test_fleet_scales_past_single_daemon(tmp_path):
    failures = []

    # --- Baseline: one daemon process, 4 worker threads, one GIL.
    single_sock = str(tmp_path / "single.sock")
    single = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket",
         single_sock, "--jobs", "4", "--queue", "256", "--timeout", "300"],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        assert wait_for_daemon(single_sock, timeout=60.0), \
            "single daemon never came up"
        single_s, single_done = _burst(single_sock, failures)
    finally:
        _shutdown(single, single_sock)
    assert not failures, failures
    assert single_done == CLIENTS * REQUESTS_EACH

    # --- Fleet: gateway + 4 shard processes, same client burst.
    fleet_sock = str(tmp_path / "fleet.sock")
    fleet = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "fleet", "--address",
         fleet_sock, "--shards", str(SHARDS), "--shard-jobs", "2",
         "--dir", str(tmp_path / "fleet-dir"), "--queue", "512"],
        env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        assert wait_for_daemon(fleet_sock, timeout=120.0), \
            "fleet gateway never came up"
        fleet_s, fleet_done = _burst(fleet_sock, failures)
    finally:
        _shutdown(fleet, fleet_sock)
    assert not failures, failures
    assert fleet_done == CLIENTS * REQUESTS_EACH

    total = CLIENTS * REQUESTS_EACH
    single_rps = total / single_s if single_s else float("inf")
    fleet_rps = total / fleet_s if fleet_s else float("inf")
    speedup = fleet_rps / single_rps if single_rps else float("inf")
    cpus = _cpus()
    rows = [
        ("topology", "wall s", "req/s", "speedup"),
        ("single daemon (4 threads)", "%.2f" % single_s,
         "%.1f" % single_rps, "1.0x"),
        ("fleet (%d shards)" % SHARDS, "%.2f" % fleet_s,
         "%.1f" % fleet_rps, "%.2fx" % speedup),
    ]
    report("Fleet serving: %d shards vs one daemon, %d mixed-priority "
           "clients (%d cpus)" % (SHARDS, CLIENTS, cpus),
           rows,
           paper_note="one analysis library, many concurrent tools "
                      "(section 2) — scaled past one address space")
    record("fleet.single_rps", single_rps, "req/s", "higher")
    record("fleet.fleet_rps", fleet_rps, "req/s", "higher")
    record("fleet.speedup", speedup, "x", "higher")
    if cpus >= SHARDS:
        assert speedup >= MIN_SPEEDUP, (
            "a %d-shard fleet sustains only %.2fx the single-daemon "
            "request rate under %d mixed-priority clients (floor: "
            "%.1fx on %d cpus) — sharding or the gateway has regressed"
            % (SHARDS, speedup, CLIENTS, MIN_SPEEDUP, cpus))
