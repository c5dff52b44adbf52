#!/usr/bin/env python
"""CI smoke test for the sharded serving fleet.

Starts a real ``repro fleet`` gateway with 2 shard daemons, points 10
concurrent mixed-priority clients at it (interactive run/routines plus
bulk verify, across a SPARC and a MIPS workload), SIGKILLs shard 1
while uncached verifies are running on it, hot-restarts shard 0
mid-traffic, then SIGTERMs the gateway and checks the contract the
README promises:

* zero dropped requests — every request gets a well-formed answer, and
  every fleet answer names its serving shard;
* a killed shard costs its in-flight requests one client retry, never a
  failure: the gateway answers ``unavailable`` with ``retry_after``,
  respawns the shard (``fleet.shard_deaths`` and ``fleet.respawns``
  both count it), and ``repro trace``'s anomaly pass over the merged
  logs reports the retried requests;
* a hot restart completes while traffic flows, bumping the shard's
  generation with zero client-visible failures;
* clean drain — exit code 0, ``repro-fleet: drained`` on stderr, the
  gateway socket removed, no orphaned shard processes;
* a well-formed ``--stats-json`` report carrying ``fleet.*`` counters
  and a per-shard table that agrees with what the clients observed;
* merged event logs (gateway + per-shard) from which every forwarded
  request reconstructs into ONE connected span tree spanning both
  processes: the shard's ``serve.request`` root hangs off the
  gateway's ``fleet.forward`` span.

Exits non-zero (with a diagnostic) on any violation; CI runs it as a
dedicated step.  The stats JSON, gateway events JSONL, and the fleet
run dir (shard event logs) are left behind on purpose — CI uploads
them as artifacts and replays the logs through ``repro trace`` — but
under ``.smoke-artifacts/`` (override with ``$SMOKE_ARTIFACTS_DIR``),
never the repo root.
"""

import glob
import json
import os
import signal
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ARTIFACTS = os.environ.get("SMOKE_ARTIFACTS_DIR") \
    or os.path.join(ROOT, ".smoke-artifacts")
sys.path.insert(0, SRC)

from repro.fleet.ring import route  # noqa: E402
from repro.serve.client import ServeClient, wait_for_daemon  # noqa: E402

CLIENTS = 10
SHARDS = 2
VICTIM = 1  # shard SIGKILLed mid-burst; shard 0 is hot-restarted
WORKLOADS = ["fib", "mips_sum"]  # one per architecture
EXPECTED = {"fib": "fib 1597\n", "mips_sum": "5050\n"}


def fail(message):
    print("ci-fleet-smoke: FAIL: %s" % message, file=sys.stderr)
    sys.exit(1)


def client_session(address, index, outcomes, errors):
    workload = WORKLOADS[index % len(WORKLOADS)]
    try:
        with ServeClient(address, retries=10) as client:
            run = client.run_workload(workload)
            if run["output"] != EXPECTED[workload]:
                raise AssertionError("wrong output for %s: %r"
                                     % (workload, run["output"]))
            shard = client.last_meta.get("shard")
            if shard not in range(SHARDS):
                raise AssertionError("answer named no shard: %r" % shard)
            routines = client.request("routines", workload=workload)
            if not routines["routines"]:
                raise AssertionError("no routines for %s" % workload)
            if client.last_meta.get("shard") != shard:
                raise AssertionError(
                    "affinity broke: %s moved %r -> %r"
                    % (workload, shard, client.last_meta.get("shard")))
            verify = client.request("verify", workload=workload, tool="qpt")
            if not verify["ok"]:
                raise AssertionError("verify failed for %s:\n%s"
                                     % (workload, verify["text"]))
            outcomes.append((index, shard))
    except Exception as error:  # noqa: BLE001 - reported, then fatal
        errors.append("client %d (%s): %s" % (index, workload, error))


def victim_verify(address, workload, errors):
    """One uncached verify keyed to the victim shard, so a request is
    in flight there when it is killed."""
    try:
        with ServeClient(address, retries=10) as client:
            verify = client.request("verify", workload=workload, tool="qpt",
                                    use_memo=False)
            if not verify["ok"]:
                raise AssertionError("verify failed for %s:\n%s"
                                     % (workload, verify["text"]))
    except Exception as error:  # noqa: BLE001 - reported, then fatal
        errors.append("victim request (%s): %s" % (workload, error))


def _span_names(forest):
    names = []
    stack = list(forest)
    while stack:
        node = stack.pop()
        names.append(node.get("name"))
        stack.extend(node.get("children") or [])
    return names


def check_events(events_path, run_dir):
    """Every forwarded request merges into one cross-process span tree."""
    from repro.obs import events as obs_events

    if not os.path.exists(events_path):
        fail("gateway wrote no events log at %s" % events_path)
    merged = obs_events.load_events(events_path)
    shard_logs = sorted(glob.glob(os.path.join(run_dir,
                                               "events-shard*.jsonl")))
    if len(shard_logs) < SHARDS:
        fail("expected %d shard event logs under %s, found %r"
             % (SHARDS, run_dir, shard_logs))
    for shard_log in shard_logs:
        merged.extend(obs_events.load_events(shard_log))

    kinds = {record["kind"] for record in merged}
    for wanted in ("fleet.start", "fleet.shard_spawn", "request.admit",
                   "request.finish", "fleet.hot_restart.begin",
                   "fleet.hot_restart.finish", "fleet.drain.begin",
                   "fleet.drain.finish", "daemon.start"):
        if wanted not in kinds:
            fail("merged events are missing %r records" % wanted)

    traces = obs_events.build_traces(merged)
    crossed = 0
    for record in traces.values():
        union = record.span_union
        # Only forwarded client requests grow a gateway-side
        # ``fleet.request`` root; local ops and the fleet's own
        # shard-maintenance traffic (health pings, warm) don't.
        gateway_trees = [root for root in union
                         if root.get("name") == "fleet.request"]
        if not gateway_trees:
            continue
        names = _span_names(union)
        if "fleet.forward" not in names:
            fail("trace %s lacks a forward span: %r"
                 % (record.trace_id, names))
        if "serve.request" not in names:
            fail("trace %s never reached a shard span tree"
                 % (record.trace_id,))
        if not obs_events.connected_spans(union):
            fail("trace %s has orphaned spans across the "
                 "gateway->shard hop" % record.trace_id)
        # The hop is real: every shard-side root must point INTO the
        # gateway's forest, not float as its own root.
        gateway_ids = set()
        stack = list(gateway_trees)
        while stack:
            node = stack.pop()
            gateway_ids.add(node.get("span_id"))
            stack.extend(node.get("children") or [])
        shard_parents = [root.get("parent_span_id") for root in union
                         if root.get("name") == "serve.request"]
        if not shard_parents:
            fail("trace %s has no shard-side root" % record.trace_id)
        if not all(parent in gateway_ids for parent in shard_parents):
            fail("trace %s shard root is detached from the gateway "
                 "forest" % record.trace_id)
        crossed += 1
    if crossed < CLIENTS * 3:
        fail("only %d connected cross-process traces, expected >= %d"
             % (crossed, CLIENTS * 3))
    retried = [line for line in obs_events.find_anomalies(merged)
               if line.startswith("retries:")]
    if not retried:
        fail("no retried request in the merged logs after a shard kill")
    return crossed, len(retried)


def main():
    os.makedirs(ARTIFACTS, exist_ok=True)
    sock = os.path.join(ARTIFACTS, "fleet-smoke.sock")
    stats = os.path.join(ARTIFACTS, "fleet-smoke-stats.json")
    events_path = os.path.join(ARTIFACTS, "fleet-smoke-events.jsonl")
    run_dir = os.path.join(ARTIFACTS, "fleet-smoke-dir")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    gateway = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "fleet", "--address", sock,
         "--shards", str(SHARDS), "--shard-jobs", "2", "--dir", run_dir,
         "--stats-json", stats, "--events", events_path],
        env=env, stderr=subprocess.PIPE)
    try:
        if not wait_for_daemon(sock, timeout=120.0):
            fail("fleet gateway did not come up within 120s")

        from repro.verify import corpus_names

        outcomes, errors = [], []
        threads = [threading.Thread(target=client_session,
                                    args=(sock, index, outcomes, errors))
                   for index in range(CLIENTS)]
        threads += [threading.Thread(target=victim_verify,
                                     args=(sock, name, errors))
                    for name in corpus_names()
                    if route("workload:" + name, SHARDS) == VICTIM][:6]
        with ServeClient(sock, retries=10) as control:
            victim_pid = control.stats(["shards"])["report"]["shards"][
                str(VICTIM)]["pid"]
        for thread in threads:
            thread.start()
        # SIGKILL the victim while its verifies run: the requests it
        # held must reach their clients as one retry each, not a failure.
        time.sleep(0.3)
        os.kill(victim_pid, signal.SIGKILL)
        # Hot-restart shard 0 while the burst is in flight: the rolling
        # replacement must be invisible to every client above.
        with ServeClient(sock, retries=10) as control:
            restarted = control.request("hot_restart", shard=0)
        for thread in threads:
            thread.join(600)
        if errors:
            fail("dropped/failed requests:\n  " + "\n  ".join(errors))
        if len(outcomes) != CLIENTS:
            fail("only %d/%d clients completed" % (len(outcomes), CLIENTS))
        summaries = restarted.get("restarted")
        if not summaries or summaries[0].get("shard") != 0 \
                or summaries[0].get("generation", 0) < 2:
            fail("hot restart returned no usable summary: %r" % restarted)

        gateway.send_signal(signal.SIGTERM)
        _out, err = gateway.communicate(timeout=120)
        err = err.decode()
        if gateway.returncode != 0:
            fail("gateway exited %d:\n%s" % (gateway.returncode, err))
        if "repro-fleet: drained" not in err:
            fail("no clean-drain confirmation in gateway stderr:\n%s" % err)
        if os.path.exists(sock):
            fail("gateway left a stale socket behind")
        leftovers = glob.glob(os.path.join(run_dir, "shard-*.sock"))
        if leftovers:
            fail("shards left stale sockets behind: %r" % leftovers)

        with open(stats) as handle:
            report = json.load(handle)
        if report.get("schema") != "repro.obs/2":
            fail("stats JSON has wrong schema: %r" % report.get("schema"))
        counters = report.get("counters", {})
        for name in ("fleet.requests", "fleet.forwarded", "fleet.rerouted",
                     "fleet.hot_restarts", "fleet.shard_deaths",
                     "fleet.respawns"):
            if name not in counters:
                fail("stats JSON counters are missing %r" % name)
        # 3 forwarded requests per client, plus pings and the restart.
        if counters["fleet.requests"] < CLIENTS * 3:
            fail("fleet.requests=%d, expected >= %d"
                 % (counters["fleet.requests"], CLIENTS * 3))
        if counters["fleet.forwarded"] < CLIENTS * 3:
            fail("fleet.forwarded=%d, expected >= %d"
                 % (counters["fleet.forwarded"], CLIENTS * 3))
        if counters["fleet.hot_restarts"] < 1:
            fail("fleet.hot_restarts=%d after an explicit restart"
                 % counters["fleet.hot_restarts"])
        if counters["fleet.shard_deaths"] < 1 \
                or counters["fleet.respawns"] < 1:
            fail("shard %d was killed but fleet.shard_deaths=%d, "
                 "fleet.respawns=%d" % (VICTIM, counters["fleet.shard_deaths"],
                                        counters["fleet.respawns"]))
        shards = report.get("shards") or {}
        if sorted(shards) != [str(i) for i in range(SHARDS)]:
            fail("per-shard table is incomplete: %r" % sorted(shards))
        if shards["0"]["generation"] < 2:
            fail("shard 0 generation=%d, expected >= 2 after hot "
                 "restart" % shards["0"]["generation"])
        served = sum(entry["ok"] for entry in shards.values())
        if served < CLIENTS * 3:
            fail("shards answered only %d requests, expected >= %d"
                 % (served, CLIENTS * 3))
        crossed, retried = check_events(events_path, run_dir)
        print("ci-fleet-smoke: OK — %d clients over %d shards, "
              "%d forwarded (%d rerouted), shard %d killed and respawned "
              "(%d retried traces), hot restart to generation %d, %d "
              "connected cross-process span trees, clean drain"
              % (CLIENTS, SHARDS, counters["fleet.forwarded"],
                 counters["fleet.rerouted"], VICTIM, retried,
                 shards["0"]["generation"], crossed))
        return 0
    finally:
        if gateway.poll() is None:
            gateway.kill()
            gateway.wait(30)
        # Stats, events, and the shard run dir stay for CI upload.
        if os.path.exists(sock):
            os.unlink(sock)


if __name__ == "__main__":
    sys.exit(main())
