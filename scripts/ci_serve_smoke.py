#!/usr/bin/env python
"""CI smoke test for the edit-serving daemon.

Starts a real ``repro serve`` daemon, points 8 concurrent clients at it
across two workloads (one SPARC, one MIPS) mixing run/routines/verify
requests, then SIGTERMs it and checks the contract the README promises:

* zero dropped requests — every request gets a well-formed answer;
* clean drain — exit code 0, ``drained cleanly`` on stderr, socket
  removed, no orphaned daemon process;
* a well-formed ``--stats-json`` report carrying ``serve.*`` counters
  that agree with what the clients observed;
* a ``repro.events/1`` log (``--events``) from which every finished
  request reconstructs into one connected span tree with queue-wait
  and handler latency split out.

Exits non-zero (with a diagnostic) on any violation; CI runs it as a
dedicated step.  The stats JSON and events JSONL are left behind on
purpose — CI uploads them as artifacts and replays the log through
``repro trace`` — but under ``.smoke-artifacts/`` (override with
``$SMOKE_ARTIFACTS_DIR``), never the repo root.
"""

import json
import os
import signal
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ARTIFACTS = os.environ.get("SMOKE_ARTIFACTS_DIR") \
    or os.path.join(ROOT, ".smoke-artifacts")
sys.path.insert(0, SRC)

from repro.serve.client import ServeClient, wait_for_daemon  # noqa: E402

CLIENTS = 8
WORKLOADS = ["fib", "mips_sum"]  # one per architecture
EXPECTED = {"fib": "fib 1597\n", "mips_sum": "5050\n"}


def fail(message):
    print("ci-serve-smoke: FAIL: %s" % message, file=sys.stderr)
    sys.exit(1)


def client_session(socket_path, index, outcomes, errors):
    workload = WORKLOADS[index % len(WORKLOADS)]
    try:
        with ServeClient(socket_path, retries=8) as client:
            run = client.run_workload(workload)
            if run["output"] != EXPECTED[workload]:
                raise AssertionError("wrong output for %s: %r"
                                     % (workload, run["output"]))
            routines = client.request("routines", workload=workload)
            if not routines["routines"]:
                raise AssertionError("no routines for %s" % workload)
            verify = client.request("verify", workload=workload, tool="qpt")
            if not verify["ok"]:
                raise AssertionError("verify failed for %s:\n%s"
                                     % (workload, verify["text"]))
            outcomes.append(index)
    except Exception as error:  # noqa: BLE001 - reported, then fatal
        errors.append("client %d (%s): %s" % (index, workload, error))


def check_events(events_path):
    """Every finished request in the log is one connected span tree."""
    from repro.obs import events as obs_events

    if not os.path.exists(events_path):
        fail("daemon wrote no events log at %s" % events_path)
    stream = obs_events.load_events(events_path)
    kinds = {record["kind"] for record in stream}
    for wanted in ("log.open", "daemon.start", "request.admit",
                   "request.finish", "drain.begin", "drain.finish"):
        if wanted not in kinds:
            fail("events log is missing %r records" % wanted)
    traces = obs_events.build_traces(stream)
    finished = [r for r in traces.values() if r.finish is not None]
    if len(finished) < CLIENTS * 3:
        fail("only %d finished request traces in the events log, "
             "expected >= %d" % (len(finished), CLIENTS * 3))
    for record in finished:
        if record.admit is None:
            fail("trace %s finished without an admit event"
                 % record.trace_id)
        if record.queue_wait_s is None or record.handler_s is None:
            fail("trace %s lacks queue-wait/handler latency"
                 % record.trace_id)
        spans = record.spans
        if not spans:
            fail("trace %s carries no span tree" % record.trace_id)
        root = spans[0]
        if not obs_events.connected_spans(
                spans, root_parent=root.get("parent_span_id")):
            fail("trace %s has orphaned spans" % record.trace_id)
    return len(finished)


def main():
    os.makedirs(ARTIFACTS, exist_ok=True)
    sock = os.path.join(ARTIFACTS, "serve-smoke.sock")
    stats = os.path.join(ARTIFACTS, "serve-smoke-stats.json")
    events_path = os.path.join(ARTIFACTS, "serve-smoke-events.jsonl")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", sock,
         "--jobs", "4", "--stats-json", stats, "--events", events_path],
        env=env, stderr=subprocess.PIPE)
    try:
        if not wait_for_daemon(sock, timeout=60.0):
            fail("daemon did not come up within 60s")

        outcomes, errors = [], []
        threads = [threading.Thread(target=client_session,
                                    args=(sock, index, outcomes, errors))
                   for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300)
        if errors:
            fail("dropped/failed requests:\n  " + "\n  ".join(errors))
        if len(outcomes) != CLIENTS:
            fail("only %d/%d clients completed" % (len(outcomes), CLIENTS))

        daemon.send_signal(signal.SIGTERM)
        _out, err = daemon.communicate(timeout=60)
        err = err.decode()
        if daemon.returncode != 0:
            fail("daemon exited %d:\n%s" % (daemon.returncode, err))
        if "drained cleanly" not in err:
            fail("no clean-drain confirmation in daemon stderr:\n%s" % err)
        if os.path.exists(sock):
            fail("daemon left a stale socket behind")

        with open(stats) as handle:
            report = json.load(handle)
        if report.get("schema") != "repro.obs/2":
            fail("stats JSON has wrong schema: %r" % report.get("schema"))
        counters = report.get("counters", {})
        for name in ("serve.requests", "serve.responses.ok",
                     "serve.responses.error", "serve.rejected.queue_full",
                     "serve.rejected.draining", "serve.coalesced",
                     "serve.timeouts"):
            if name not in counters:
                fail("stats JSON counters are missing %r" % name)
        # 3 requests per client, plus the wait_for_daemon pings.
        if counters["serve.requests"] < CLIENTS * 3:
            fail("serve.requests=%d, expected >= %d"
                 % (counters["serve.requests"], CLIENTS * 3))
        if counters["serve.responses.ok"] < CLIENTS * 3:
            fail("serve.responses.ok=%d, expected >= %d"
                 % (counters["serve.responses.ok"], CLIENTS * 3))
        if not any(name.startswith("serve.latency.")
                   for name in report.get("histograms", {})):
            fail("stats JSON has no per-op serve latency histogram")
        traced = check_events(events_path)
        print("ci-serve-smoke: OK — %d clients, %d requests "
              "(%d ok, %d errors, %d rejected, %d coalesced), "
              "%d connected span trees, clean drain"
              % (CLIENTS, counters["serve.requests"],
                 counters["serve.responses.ok"],
                 counters["serve.responses.error"],
                 counters["serve.rejected.queue_full"]
                 + counters["serve.rejected.draining"],
                 counters["serve.coalesced"], traced))
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(30)
        # The stats/events artifacts stay for CI upload + trace replay.
        if os.path.exists(sock):
            os.unlink(sock)


if __name__ == "__main__":
    sys.exit(main())
