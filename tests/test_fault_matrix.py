"""The fault matrix: every injected fault ends in one typed answer.

Each fault runs against both serving topologies — an in-process
:class:`EditServer`, and an in-process :class:`FleetGateway` over two
shard daemon processes — except where it names a part only one of
them has (a shard process).  Shards start through the fault-ops
launcher (``tests/faults.py``), so both topologies serve the same
injected ops.

Per request the matrix asserts exactly one final answer: a result, or
one :class:`ServeError` whose code is in the protocol vocabulary.  A
raw ``OSError`` (a hang included: clients carry an I/O timeout)
escapes :func:`_answer` and fails the test.  A transient fault must
end in an ``ok`` result when the client retries.  After the server
drains, its event log holds exactly one ``request.finish`` or
``request.error`` per ``request.admit``, and every trace that finished
``ok`` merges (server log plus shard logs) into one connected span
forest.
"""

import errno
import glob
import os
import socket
import sys
import threading
import time

import pytest

from repro import obs
from repro.fleet import FleetConfig, FleetGateway, route
from repro.obs import events as obs_events
from repro.obs import metrics
from repro.serve import EditServer, ServeConfig, protocol
from repro.serve.client import ServeClient, ServeError

from tests import faults

VOCABULARY = {protocol.E_BAD_REQUEST, protocol.E_UNKNOWN_OP,
              protocol.E_OVERLOADED, protocol.E_DRAINING,
              protocol.E_TIMEOUT, protocol.E_UNAVAILABLE,
              protocol.E_INTERNAL}
TERMINAL = ("request.finish", "request.error")


def _answer(client, op, **params):
    """``("ok", result)`` or ``("error", ServeError)`` for one request."""
    try:
        return "ok", client.request(op, **params)
    except ServeError as error:
        assert error.code in VOCABULARY, "untyped answer: %r" % error
        return "error", error


def _counter(name):
    return metrics.counter(name).value


class _Stack:
    """One topology under test, with its event logs."""

    def __init__(self, kind, tmp_path):
        self.kind = kind
        self.tmp_path = tmp_path
        self.address = str(tmp_path / "front.sock")
        self.server_log = str(tmp_path / "server-events.jsonl")
        self.run_dir = str(tmp_path / "fleet")
        self.server = None

    def make(self, **overrides):
        """A server of this topology on its address, not yet started."""
        overrides.setdefault("drain_timeout_s", 10.0)
        if self.kind == "daemon":
            overrides.setdefault("jobs", 2)
            overrides.setdefault("timeout_s", 20.0)
            return EditServer(ServeConfig(socket_path=self.address,
                                          **overrides))
        overrides.setdefault("run_dir", self.run_dir)
        overrides.setdefault("shards", 2)
        overrides.setdefault("shard_jobs", 1)
        overrides.setdefault("forwarders", 4)
        overrides.setdefault("shard_timeout_s", 20.0)
        return FleetGateway(FleetConfig(
            address=self.address, shard_events=True,
            python=faults.shard_launcher(self.tmp_path), **overrides))

    def start(self, **overrides):
        obs_events.configure(self.server_log)
        obs.enable()
        self.server = self.make(**overrides).start()
        return self.server

    def client(self, **kwargs):
        kwargs.setdefault("retries", 0)
        kwargs.setdefault("io_timeout", 60.0)
        return ServeClient(self.address, **kwargs)

    def drain_and_check_logs(self):
        """Drain the server, then hold its event log to the matrix's
        invariants."""
        self.server.request_drain()
        assert self.server.wait_drained(30.0), "server failed to drain"
        obs_events.unconfigure()
        events = obs_events.load_events(self.server_log)
        admitted = {}
        for event in events:
            if event["kind"] == "request.admit":
                admitted.setdefault(event["trace_id"], []).append("admit")
            elif event["kind"] in TERMINAL:
                admitted.setdefault(event["trace_id"], []).append("end")
        assert admitted, "the server logged no requests"
        for trace_id, sequence in admitted.items():
            assert sequence == ["admit", "end"] * (len(sequence) // 2), \
                "trace %s: %r" % (trace_id, sequence)
        for path in glob.glob(os.path.join(self.run_dir,
                                           "events-shard*.jsonl")):
            events += obs_events.load_events(path)
        root_name = "serve.request" if self.kind == "daemon" \
            else "fleet.request"
        finished = 0
        for trace_id, record in obs_events.build_traces(events).items():
            if trace_id not in admitted or record.status != "ok":
                continue
            union = record.span_union
            roots = [span for span in union if span["name"] == root_name]
            assert roots, "trace %s has no %s span" % (trace_id, root_name)
            assert obs_events.connected_spans(
                union, root_parent=roots[0].get("parent_span_id")), \
                "trace %s has orphaned spans" % trace_id
            finished += 1
        return finished


@pytest.fixture(params=["daemon", "fleet"])
def stack(request, tmp_path, fault_ops):
    from repro.cache import disable_memory_layer

    stack = _Stack(request.param, tmp_path)
    try:
        yield stack
    finally:
        if stack.server is not None:
            stack.server.request_drain()
            stack.server.wait_drained(30.0)
        obs.disable()
        obs.reset()
        obs_events.unconfigure()
        disable_memory_layer()


# ----------------------------------------------------------------------
# Faults
# ----------------------------------------------------------------------

def test_killed_worker_answers_internal_and_the_retry_lands(stack):
    """A worker dies on the request it runs: the request is answered
    ``internal`` with ``retry_after``, the worker is replaced, and the
    retrying client gets its result."""
    stack.start()
    deaths = _counter("serve.worker_deaths")
    with stack.client() as client:
        kind, error = _answer(client, "die", times=1, key="once")
        assert kind == "error" and error.code == protocol.E_INTERNAL
        assert error.retry_after is not None
    with stack.client(retries=4) as client:
        kind, result = _answer(client, "die", times=1, key="retried")
        assert kind == "ok" and result["survived"] is True
        assert client.last_meta["attempts"] >= 2
        assert _answer(client, "run", workload="fib")[0] == "ok"
    if stack.kind == "daemon":
        assert _counter("serve.worker_deaths") - deaths == 2
    assert stack.drain_and_check_logs() >= 2


@pytest.mark.parametrize("stack", ["fleet"], indirect=True)
def test_shard_killed_mid_request_is_retried_elsewhere(stack):
    """SIGKILL the shard serving a slow request: the gateway answers
    ``unavailable`` with ``retry_after`` and respawns the shard, and the
    client's retry lands on a live shard."""
    gateway = stack.start()
    victim = gateway.manager.slots[route("workload:fib", 2)]
    deaths = _counter("fleet.shard_deaths")
    outcome = {}

    def slow():
        with stack.client(retries=4) as client:
            outcome["answer"] = _answer(client, "sleep", seconds=1.5,
                                        workload="fib")
            outcome["meta"] = client.last_meta

    thread = threading.Thread(target=slow)
    thread.start()
    time.sleep(0.5)  # the request is sleeping on the victim shard
    victim.process.kill()
    thread.join(60)
    assert not thread.is_alive(), "request hung after the shard died"
    kind, result = outcome["answer"]
    assert kind == "ok" and result["slept"] == 1.5
    assert outcome["meta"]["attempts"] >= 2
    assert _counter("fleet.shard_deaths") - deaths >= 1
    assert stack.drain_and_check_logs() >= 1


def test_full_queue_answers_overloaded_with_retry_after(stack):
    """A full admission queue turns the next request away with
    ``overloaded`` and a ``retry_after`` hint — no unbounded growth —
    while admitted work completes, and a retrying client lands."""
    if stack.kind == "daemon":
        stack.start(jobs=1, queue_size=1, retry_after_s=0.05)
        rejected = "serve.rejected.queue_full"
    else:
        stack.start(queue_size=1, forwarders=1, retry_after_s=0.05)
        rejected = "fleet.rejected"
    before = _counter(rejected)
    blockers = []

    def blocker():
        with stack.client() as client:
            blockers.append(_answer(client, "sleep", seconds=1.0))

    threads = [threading.Thread(target=blocker) for _ in range(2)]
    for thread in threads:
        thread.start()
        time.sleep(0.2)  # one executing, one occupying the queue slot
    with stack.client() as client:
        kind, error = _answer(client, "sleep", seconds=0.1)
    assert kind == "error" and error.code == protocol.E_OVERLOADED
    assert error.retry_after == pytest.approx(0.05)
    with stack.client(retries=100) as client:
        kind, result = _answer(client, "sleep", seconds=0.1)
        assert kind == "ok" and result["slept"] == 0.1
    for thread in threads:
        thread.join(30)
    assert blockers == [("ok", {"slept": 1.0})] * 2
    assert _counter(rejected) - before >= 1
    assert stack.drain_and_check_logs() >= 3


def test_drain_mid_burst_finishes_admitted_work(stack):
    """Drain while clients hammer the server: each request is either
    served or answered ``draining``; nothing is dropped or hangs."""
    server = stack.start()
    outcomes = []

    def burst():
        with stack.client(retries=1) as client:
            while True:
                kind, value = _answer(client, "sleep", seconds=0.1)
                outcomes.append((kind, value))
                if kind == "error":
                    return

    threads = [threading.Thread(target=burst) for _ in range(4)]
    for thread in threads:
        thread.start()
    time.sleep(0.6)
    server.request_drain()
    for thread in threads:
        thread.join(30)
        assert not thread.is_alive(), "a client hung across the drain"
    errors = [value for kind, value in outcomes if kind == "error"]
    assert len(errors) == 4  # each client's last answer
    assert all(error.code == protocol.E_DRAINING for error in errors)
    assert len(outcomes) > 4
    assert stack.drain_and_check_logs() >= len(outcomes) - 4
    assert not os.path.exists(stack.address)


@pytest.mark.parametrize("stack", ["daemon"], indirect=True)
def test_timeout_racing_the_answer_leaves_one_terminal_event(stack):
    """Stress the requester/worker handoff: handlers take about as long
    as the request timeout, so a requester's timeout races the worker's
    answer.  Each request still gets exactly one answer, and the log
    exactly one terminal event per admit."""
    stack.start(jobs=8, timeout_s=0.05, queue_size=64)
    answers = []

    def burst():
        with stack.client() as client:
            for n in range(10):
                answers.append(_answer(client, "sleep",
                                       seconds=0.04 + 0.002 * n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=burst) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive(), "a client hung"
    finally:
        sys.setswitchinterval(interval)
    assert len(answers) == 80
    assert all(kind == "ok" or value.code == protocol.E_TIMEOUT
               for kind, value in answers)
    stack.drain_and_check_logs()


def test_corrupt_cache_blob_is_reanalyzed(stack, monkeypatch, tmp_path):
    """A corrupt analysis blob on disk is invalidated and the request
    analyzes afresh, instead of failing or trusting garbage."""
    from repro.core import Executable
    from repro.workloads import build_image

    cache = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    Executable(build_image("fib")).read_contents()
    blobs = list(cache.iterdir())
    assert blobs, "analysis left no cache blob to corrupt"
    for blob in blobs:
        blob.write_bytes(b"EELA but not really")
    gateway_or_daemon = stack.start()
    with stack.client(retries=2) as client:
        kind, result = _answer(client, "routines", workload="fib")
        assert kind == "ok"
        assert "fib" in {row["name"] for row in result["routines"]}
    if stack.kind == "daemon":
        invalidations = _counter("cache.invalidations")
    else:
        slot = gateway_or_daemon.manager.slots[route("workload:fib", 2)]
        with ServeClient(slot.socket_path, retries=0) as shard:
            invalidations = shard.stats(["counters"])["report"][
                "counters"]["cache.invalidations"]
    assert invalidations >= 1
    assert stack.drain_and_check_logs() >= 1


def test_stale_socket_is_reclaimed(stack):
    """A socket file whose server is gone (nothing accepts) is stale:
    startup unlinks it and binds normally."""
    dead = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    dead.bind(stack.address)
    dead.close()  # the file remains; connections are refused
    assert os.path.exists(stack.address)
    stack.start()
    with stack.client() as client:
        assert _answer(client, "sleep", seconds=0.0) == \
            ("ok", {"slept": 0.0})
    assert stack.drain_and_check_logs() >= 1


def test_live_socket_is_refused(stack):
    """Two servers pointed at one path: the second refuses before it
    starts anything, and the first keeps its connections."""
    stack.start()
    rival = stack.make()
    with pytest.raises(OSError) as err:
        rival.start()
    assert err.value.errno == errno.EADDRINUSE
    if stack.kind == "fleet":
        assert all(slot.process is None for slot in rival.manager.slots)
    with stack.client() as client:
        assert _answer(client, "sleep", seconds=0.0) == \
            ("ok", {"slept": 0.0})
    assert stack.drain_and_check_logs() >= 1


def test_malformed_stats_request_is_bad_request(stack):
    """Daemon and gateway validate ``stats`` sections with one check,
    so a client cannot tell them apart by a malformed request."""
    stack.start()
    with stack.client() as client:
        kind, error = _answer(client, "stats", sections="counters")
        assert kind == "error" and error.code == protocol.E_BAD_REQUEST
        assert error.message == "'sections' must be a list of section names"
        kind, error = _answer(client, "stats", sections=["counters", "nope"])
        assert kind == "error" and error.code == protocol.E_BAD_REQUEST
        assert error.message.startswith("unknown report sections: nope ")
        kind, result = _answer(client, "stats", sections=["counters"])
        assert kind == "ok" and sorted(result["report"]) == \
            ["counters", "schema"]
