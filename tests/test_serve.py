"""Edit-serving daemon: protocol, lifecycle, backpressure, resilience.

The in-process tests run a real :class:`EditServer` (real socket, real
worker threads) against temp-dir sockets; the SIGTERM drain test runs
the actual ``repro serve`` CLI in a subprocess, because signal-driven
drain is exactly the part that cannot be faked in-process.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.obs import metrics
from repro.serve import EditServer, ServeConfig
from repro.serve.client import ServeClient, ServeError, wait_for_daemon
from repro.serve import protocol

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
FAULTS = os.path.join(os.path.dirname(__file__), "faults.py")


def _counter(name):
    return metrics.counter(name).value


@pytest.fixture
def make_server(tmp_path):
    """Start real in-process servers; drain them all at teardown."""
    from repro.cache import disable_memory_layer

    started = []

    def _make(**overrides):
        overrides.setdefault("socket_path",
                             str(tmp_path / ("s%d.sock" % len(started))))
        overrides.setdefault("jobs", 2)
        overrides.setdefault("timeout_s", 20.0)
        overrides.setdefault("drain_timeout_s", 10.0)
        server = EditServer(ServeConfig(**overrides)).start()
        started.append(server)
        return server

    try:
        yield _make
    finally:
        for server in started:
            server.request_drain()
        for server in started:
            assert server.wait_drained(15.0), "server failed to drain"
        # The daemon turns on the process-global warm layer; turn it
        # off for the rest of the suite.
        disable_memory_layer()


def _client(server, **kwargs):
    kwargs.setdefault("retries", 0)
    return ServeClient(server.config.socket_path, **kwargs)


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------

def test_line_reader_reassembles_split_messages():
    left, right = socket.socketpair()
    reader = protocol.LineReader(right)
    payload = protocol.encode({"id": 1, "op": "ping"})
    left.sendall(payload[:5])
    left.sendall(payload[5:] + b'{"id": 2, "op"')
    left.sendall(b': "stats"}\n')
    left.close()
    assert reader.next_message() == {"id": 1, "op": "ping"}
    assert reader.next_message() == {"id": 2, "op": "stats"}
    assert reader.next_message() is None


def test_line_reader_rejects_garbage_and_non_objects():
    for line in (b"not json\n", b"[1, 2]\n"):
        left, right = socket.socketpair()
        left.sendall(line)
        left.close()
        with pytest.raises(protocol.ProtocolError):
            protocol.LineReader(right).next_message()


def test_line_reader_caps_line_length():
    left, right = socket.socketpair()
    reader = protocol.LineReader(right, max_line=64)
    threading.Thread(target=left.sendall,
                     args=(b"x" * 4096,), daemon=True).start()
    with pytest.raises(protocol.ProtocolError):
        reader.next_message()


# ----------------------------------------------------------------------
# Defensive REPRO_SERVE_* parsing
# ----------------------------------------------------------------------

def test_malformed_serve_env_falls_back_with_warning(monkeypatch, capsys):
    from repro import env as repro_env

    monkeypatch.setenv("REPRO_SERVE_QUEUE", "1e3")
    monkeypatch.setenv("REPRO_SERVE_TIMEOUT", "lots")
    monkeypatch.setenv("REPRO_SERVE_JOBS", "-4")
    for name in ("REPRO_SERVE_QUEUE", "REPRO_SERVE_TIMEOUT",
                 "REPRO_SERVE_JOBS"):
        repro_env._WARNED.discard(name)
    config = ServeConfig()
    assert config.queue_size == 32
    assert config.timeout_s == 60.0
    assert config.jobs == 2
    warnings = capsys.readouterr().err
    for name in ("REPRO_SERVE_QUEUE", "REPRO_SERVE_TIMEOUT",
                 "REPRO_SERVE_JOBS"):
        assert name in warnings


# ----------------------------------------------------------------------
# Basic service and concurrency
# ----------------------------------------------------------------------

def test_ping_run_and_stats_roundtrip(make_server):
    server = make_server()
    with _client(server) as client:
        assert client.ping()["pong"] is True
        result = client.run_workload("fib")
        assert result["exit_code"] == 0
        assert result["output"] == "fib 1597\n"
        stats = client.stats()
        assert stats["report"]["serve"]["requests"] >= 2
        assert stats["server"]["degraded"] is False


def test_unknown_op_and_unknown_workload_are_clean_errors(make_server):
    server = make_server()
    with _client(server) as client:
        with pytest.raises(ServeError) as err:
            client.request("frobnicate")
        assert err.value.code == protocol.E_UNKNOWN_OP
        with pytest.raises(ServeError) as err:
            client.request("run", workload="no_such_program")
        assert err.value.code == protocol.E_BAD_REQUEST


def test_eight_concurrent_clients_zero_dropped(make_server):
    """The acceptance scenario: 8 clients mixing SPARC and MIPS
    workloads with qpt-instrument and verify requests; every request
    answers, none are dropped."""
    server = make_server(jobs=4, queue_size=16)
    workloads = ["fib", "mips_sum"]
    failures = []
    results = []

    def one_client(index):
        name = workloads[index % len(workloads)]
        try:
            with _client(server, retries=8) as client:
                run = client.run_workload(name)
                verify = client.request("verify", workload=name,
                                        tool="qpt")
                results.append((run["exit_code"], verify["ok"]))
        except Exception as error:  # noqa: BLE001 - recorded for assert
            failures.append((index, error))

    threads = [threading.Thread(target=one_client, args=(i,))
               for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert not failures, failures
    assert len(results) == 8
    assert all(code == 0 and ok for code, ok in results)


def test_concurrent_same_image_requests_coalesce(make_server, monkeypatch,
                                                 tmp_path):
    """Concurrent requests against one content hash share a single cold
    analysis; the rest restore from the warm summary it left behind.

    The leader's analysis is held until the three other requests have
    counted themselves as coalesced, so the overlap does not hang on
    scheduling; the hold is bounded (well inside the requests' own
    wait), so a regression fails the count instead of hanging.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fresh-cache"))
    server = make_server(jobs=4)
    before = _counter("serve.coalesced")
    errors = []
    leaders = []
    coalesce = server.coalesce

    def held_coalesce(key, fn):
        def held():
            if key.startswith("analysis:") and not leaders:
                leaders.append(key)
                deadline = time.monotonic() + server.config.timeout_s / 2
                while _counter("serve.coalesced") < before + 3 \
                        and time.monotonic() < deadline:
                    time.sleep(0.005)
            return fn()
        return coalesce(key, held)

    monkeypatch.setattr(server, "coalesce", held_coalesce)

    def ask_routines():
        try:
            with _client(server) as client:
                result = client.request("routines", workload="interp")
                assert len(result["routines"]) > 10
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=ask_routines) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not errors, errors
    assert len(leaders) == 1
    assert _counter("serve.coalesced") == before + 3


# ----------------------------------------------------------------------
# Backpressure, timeout, retry (a full queue and stale or live sockets
# are cells of tests/test_fault_matrix.py)
# ----------------------------------------------------------------------

def test_client_retries_through_backpressure(make_server, fault_ops):
    """Bounded queue + client retry-after loop: every request lands
    eventually even when the queue is 1 deep."""
    server = make_server(jobs=1, queue_size=1, retry_after_s=0.05)
    outcomes = []
    errors = []

    def one(index):
        try:
            with _client(server, retries=40) as client:
                outcomes.append(client.request("sleep", seconds=0.1))
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    threads = [threading.Thread(target=one, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not errors, errors
    assert len(outcomes) == 4


def test_request_timeout_reported_and_worker_result_dropped(make_server,
                                                           fault_ops):
    server = make_server(jobs=1, timeout_s=0.2)
    with _client(server) as client:
        with pytest.raises(ServeError) as err:
            client.request("sleep", seconds=0.8)
        assert err.value.code == protocol.E_TIMEOUT
        # The daemon recovers: the slot frees once the sleeper finishes.
        time.sleep(0.8)
        assert client.ping()["pong"] is True
    assert _counter("serve.timeouts") >= 1


def test_transient_failures_retry_with_backoff(make_server, fault_ops):
    """The daemon fails fast: a handler's OSError answers ``internal``
    with ``retry_after``, and the client — the only retrier — backs off
    by the hint and lands."""
    server = make_server(jobs=1, retry_after_s=0.01)
    errors_before = _counter("serve.responses.error")
    with _client(server, retries=2) as client:
        result = client.request("oserror", times=2, key="retry-me")
        assert result["recovered"] is True
        assert result["_meta"]["attempts"] == 3  # failed twice, then ok
        assert result["_meta"]["backoff_s"] == pytest.approx(0.02)
    assert _counter("serve.responses.error") - errors_before == 2
    # Exhausted retries surface as a clean internal error, not a hang.
    with _client(server, retries=2) as client:
        with pytest.raises(ServeError) as err:
            client.request("oserror", key="never-lands")
        assert err.value.code == protocol.E_INTERNAL
        assert err.value.retry_after == pytest.approx(0.01)
        assert client.last_meta["attempts"] == 3


# ----------------------------------------------------------------------
# Worker death, restart budget, degraded serial fallback
# ----------------------------------------------------------------------

def test_worker_death_restarts_then_degrades_to_serial(make_server,
                                                       fault_ops):
    server = make_server(jobs=1, restarts=1)
    # Each death kills the worker: the first is replaced from the
    # restart budget, the second exhausts it and flips the daemon into
    # serial fallback mode.  The request a worker died on is answered
    # ``internal`` with ``retry_after``: it never completed.
    for _ in range(2):
        with _client(server) as client:
            with pytest.raises(ServeError) as err:
                client.request("die")
            assert err.value.code == protocol.E_INTERNAL
            assert err.value.retry_after is not None
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if server.describe()["degraded"]:
            break
        time.sleep(0.05)
    assert server.describe()["degraded"] is True
    # Degraded is degraded, not dark: requests still serve, serially.
    with _client(server) as client:
        assert client.ping()["pong"] is True
        assert client.run_workload("fib")["exit_code"] == 0
        # Even another death cannot kill the fallback worker.
        with pytest.raises(ServeError) as err:
            client.request("die")
        assert err.value.retry_after is not None
        assert client.ping()["pong"] is True
    assert _counter("serve.worker_deaths") >= 3
    assert _counter("serve.degraded") >= 3


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------

def test_drain_rejects_new_requests_on_open_connections(make_server):
    server = make_server()
    with _client(server) as client:
        assert client.ping()["pong"] is True
        server.request_drain()
        with pytest.raises(ServeError) as err:
            client.ping()
        assert err.value.code == protocol.E_DRAINING
    assert server.wait_drained(10.0)
    assert not os.path.exists(server.config.socket_path)


def test_shutdown_op_drains(make_server):
    server = make_server()
    with _client(server) as client:
        assert client.shutdown() == {"draining": True}
    assert server.wait_drained(10.0)
    assert server.describe()["workers_alive"] == 0


def test_sigterm_drains_cleanly_with_stats_flush(tmp_path):
    """The real CLI daemon: SIGTERM finishes in-flight work, flushes
    serve.* counters to --stats-json, exits 0, and leaves no orphaned
    processes or stale socket.  It starts through the fault-ops
    launcher, which serves the ``sleep`` op on top of ``repro serve``."""
    sock = str(tmp_path / "d.sock")
    stats = str(tmp_path / "stats.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, FAULTS, "serve", "--socket", sock,
         "--jobs", "2", "--stats-json", stats],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert wait_for_daemon(sock, timeout=30.0), "daemon never came up"
        with ServeClient(sock) as client:
            assert client.run_workload("fib")["exit_code"] == 0
        # Put one request in flight, then SIGTERM while it runs.
        slow_result = {}

        def slow():
            with ServeClient(sock) as client:
                slow_result["result"] = client.request("sleep",
                                                       seconds=1.0)

        thread = threading.Thread(target=slow)
        thread.start()
        time.sleep(0.3)
        proc.send_signal(signal.SIGTERM)
        thread.join(30)
        assert slow_result.get("result") == {"slept": 1.0}, \
            "in-flight request was not finished during drain"
        _out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err.decode()
        assert "drained cleanly" in err.decode()
        assert not os.path.exists(sock)
        with open(stats) as handle:
            report = json.load(handle)
        assert report["schema"] == "repro.obs/1"
        assert report["serve"]["requests"] >= 3
        assert report["serve"]["ok"] >= 3
        assert report["counters"]["serve.requests"] == \
            report["serve"]["requests"]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(10)


# ----------------------------------------------------------------------
# CLI client subcommand
# ----------------------------------------------------------------------

def test_cli_client_roundtrip(make_server, capsys):
    from repro import cli

    server = make_server()
    rc = cli.main(["client", "ping", "--socket",
                   server.config.socket_path])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["pong"] is True
    rc = cli.main(["client", "run", "--workload", "fib", "--socket",
                   server.config.socket_path])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["output"] == "fib 1597\n"


def test_cli_client_without_daemon_fails_cleanly(tmp_path, capsys):
    from repro import cli

    rc = cli.main(["client", "ping", "--socket",
                   str(tmp_path / "nobody-home.sock")])
    assert rc == 1
    assert "cannot reach daemon" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Client backoff metadata (retry_after honoring)
# ----------------------------------------------------------------------

def _scripted_peer(responses):
    """A ServeClient wired to a fake daemon that answers request N with
    ``responses[N](request)`` (the multi-request _misbehaving_peer)."""
    left, right = socket.socketpair()
    client = ServeClient("unused.sock")
    client._sock = left
    client._reader = protocol.LineReader(left)

    def responder():
        reader = protocol.LineReader(right)
        try:
            for factory in responses:
                request = reader.next_message()
                if request is None:
                    return
                right.sendall(protocol.encode(factory(request)))
        except (OSError, protocol.ProtocolError):
            pass

    threading.Thread(target=responder, daemon=True).start()
    return client


def test_client_retry_surfaces_attempt_metadata():
    """overloaded-with-retry_after then ok: the client backs off, wins,
    and reports how hard it worked in last_meta and result['_meta']."""
    client = _scripted_peer([
        lambda req: protocol.error_response(
            req["id"], protocol.E_OVERLOADED, "busy", retry_after=0.01),
        lambda req: protocol.ok_response(req["id"], {"pong": True}),
    ])
    result = client.request("ping")
    assert result["pong"] is True
    assert result["_meta"]["attempts"] == 2
    assert result["_meta"]["backoff_s"] == pytest.approx(0.01)
    assert client.last_meta["attempts"] == 2


def test_client_retries_draining_responses():
    """draining is client-retryable (a fleet shard mid-hot-restart is
    seconds from a warm replacement)."""
    client = _scripted_peer([
        lambda req: protocol.error_response(
            req["id"], protocol.E_DRAINING, "draining", retry_after=0.01),
        lambda req: protocol.ok_response(req["id"], {"pong": True}),
    ])
    result = client.request("ping")
    assert result["pong"] is True
    assert result["_meta"]["attempts"] == 2


def test_client_retries_exactly_the_answers_with_retry_after():
    """The hint decides, not the code: ``unavailable`` with a hint (a
    fleet with no live shard yet) is retried, ``overloaded`` without
    one is not."""
    client = _scripted_peer([
        lambda req: protocol.error_response(
            req["id"], protocol.E_UNAVAILABLE, "no live shards",
            retry_after=0.01),
        lambda req: protocol.ok_response(req["id"], {"pong": True}),
    ])
    assert client.request("ping")["_meta"]["attempts"] == 2
    client = _scripted_peer([
        lambda req: protocol.error_response(
            req["id"], protocol.E_OVERLOADED, "busy"),
    ])
    with pytest.raises(ServeError) as err:
        client.request("ping")
    assert err.value.code == protocol.E_OVERLOADED
    assert client.last_meta["attempts"] == 1


def test_client_first_attempt_results_carry_no_meta(make_server):
    """No-retry responses stay byte-identical to what the daemon sent:
    _meta appears only when the client actually backed off."""
    with _client(make_server()) as client:
        result = client.ping()
        assert "_meta" not in result
        assert client.last_meta == {"attempts": 1, "backoff_s": 0.0}


# ----------------------------------------------------------------------
# Response correlation: exact id match only
# ----------------------------------------------------------------------

def _misbehaving_peer(response_factory):
    """A ServeClient wired to a fake daemon that answers each request
    with ``response_factory(request)``."""
    left, right = socket.socketpair()
    client = ServeClient("unused.sock")
    client._sock = left
    client._reader = protocol.LineReader(left)

    def responder():
        reader = protocol.LineReader(right)
        try:
            request = reader.next_message()
            right.sendall(protocol.encode(response_factory(request)))
        except (OSError, protocol.ProtocolError):
            pass

    threading.Thread(target=responder, daemon=True).start()
    return client


def test_client_rejects_mismatched_response_id():
    client = _misbehaving_peer(
        lambda req: protocol.ok_response(999_999, {"pong": True}))
    with pytest.raises(ServeError) as err:
        client.request("ping")
    assert err.value.code == "protocol_error"
    assert "999999" in err.value.message


def test_client_surfaces_id_none_as_protocol_error():
    """A daemon-side framing error answers with id null; the client
    must not silently adopt it as this request's response."""
    client = _misbehaving_peer(
        lambda req: protocol.error_response(
            None, protocol.E_BAD_REQUEST, "undecodable line"))
    with pytest.raises(ServeError) as err:
        client.request("ping")
    assert err.value.code == "protocol_error"
    assert "undecodable line" in err.value.message


def test_client_accepts_exact_id_match(make_server):
    with _client(make_server()) as client:
        assert client.ping()["pong"] is True


# ----------------------------------------------------------------------
# Tracing: one request -> one connected span tree in the event log
# ----------------------------------------------------------------------

def test_chaos_request_yields_single_connected_span_tree(make_server,
                                                         tmp_path,
                                                         fault_ops):
    """Under a multi-worker daemon, a request the client retried through
    injected faults still finishes as one span tree with no orphans,
    with queue-wait and handler latency split out; the log shows one
    admit per attempt, so `repro trace` counts the retries."""
    from repro import obs
    from repro.obs import events as obs_events

    events_path = str(tmp_path / "events.jsonl")
    obs_events.configure(events_path)
    obs.enable()
    try:
        server = make_server(jobs=2, retry_after_s=0.01)
        with _client(server, retries=2) as client:
            result = client.request("oserror", times=2, key="traced-flake")
            assert result["_meta"]["attempts"] == 3
            run = client.run_workload("fib")
            assert run["exit_code"] == 0
        server.request_drain()
        assert server.wait_drained(15.0)
    finally:
        obs.disable()
        obs.reset()
        obs_events.unconfigure()

    traces = obs_events.build_traces(obs_events.load_events(events_path))
    finished = [r for r in traces.values() if r.finish is not None]
    assert len(finished) == 2
    by_op = {record.op: record for record in finished}
    flaky = by_op["oserror"]
    assert flaky.status == "ok"
    assert flaky.attempts == 2  # two transient failures, then success
    kinds = [event["kind"] for event in flaky.events
             if event["kind"].startswith("request.")]
    assert kinds == ["request.admit", "request.error"] * 2 \
        + ["request.admit", "request.finish"]
    assert flaky.queue_wait_s is not None and flaky.queue_wait_s >= 0
    assert flaky.handler_s is not None and flaky.handler_s > 0
    for record in finished:
        assert record.admit is not None, "admit event missing"
        spans = record.spans
        assert spans and len(spans) == 1
        root = spans[0]
        assert root["name"] == "serve.request"
        assert root["trace_id"] == record.trace_id
        # Every span links to its parent inside the tree: no orphans.
        assert obs_events.connected_spans(
            spans, root_parent=root.get("parent_span_id"))
    run_record = by_op["run"]
    names = set()

    def walk(node):
        names.add(node["name"])
        for child in node.get("children", ()):
            walk(child)

    walk(run_record.spans[0])
    assert "serve.op" in names
    assert "sim.run" in names


def test_client_span_parents_daemon_tree(make_server, tmp_path):
    """With tracing on in the client process, the daemon's root span
    hangs off the client's serve.client.request span id."""
    from repro import obs
    from repro.obs import events as obs_events
    from repro.obs import trace as obs_trace

    events_path = str(tmp_path / "events.jsonl")
    obs_events.configure(events_path)
    obs.enable()
    try:
        server = make_server()
        with _client(server) as client:
            client.ping()
        client_roots = obs_trace.TRACER.tree()
        server.request_drain()
        assert server.wait_drained(15.0)
    finally:
        obs.disable()
        obs.reset()
        obs_events.unconfigure()

    client_spans = [node for node in client_roots
                    if node["name"] == "serve.client.request"]
    assert len(client_spans) == 1
    client_span = client_spans[0]
    traces = obs_events.build_traces(obs_events.load_events(events_path))
    record = next(r for r in traces.values() if r.op == "ping")
    assert record.trace_id == client_span["trace_id"]
    root = record.spans[0]
    assert root["parent_span_id"] == client_span["span_id"]


# ----------------------------------------------------------------------
# Live introspection: the top op
# ----------------------------------------------------------------------

def test_top_op_reports_latency_and_counter_deltas(make_server):
    server = make_server()
    with _client(server) as client:
        for _ in range(3):
            assert client.ping()["pong"] is True
        first = client.top()
        assert first["incremental"] is False
        assert first["counters"]["serve.requests"] >= 3
        ping_latency = first["latency"]["ping"]
        for key in ("count", "p50", "p95", "p99", "min", "max", "mean"):
            assert key in ping_latency
        assert ping_latency["count"] >= 3
        assert first["queue_wait"]["count"] >= 3
        server_state = first["server"]
        assert server_state["workers_alive"] == 2
        assert set(server_state["worker_states"].values()) <= \
            {"idle", "top", "ping"}
        assert server_state["uptime_s"] > 0
        # Second snapshot with the cursor: deltas, not absolutes.
        assert client.ping()["pong"] is True
        second = client.top(first["cursor"])
        assert second["incremental"] is True
        assert second["counters"]["serve.requests"] == 2  # ping + top
        assert second["cursor"] > first["cursor"]


def test_top_cursor_history_is_bounded(make_server):
    server = make_server()
    with _client(server) as client:
        for _ in range(12):
            client.top()
    assert len(server._top_snapshots) <= 8


def test_cli_top_renders_snapshot(make_server, capsys):
    from repro import cli

    server = make_server()
    with _client(server) as client:
        client.ping()
    rc = cli.main(["top", "--socket", server.config.socket_path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "repro-serve pid" in out
    assert "serve.requests" in out
    assert "latency:" in out


# ----------------------------------------------------------------------
# Routine-scoped instrumentation (incremental fact reuse)
# ----------------------------------------------------------------------

def test_instrument_routines_subset_reuses_warm_facts(make_server,
                                                      monkeypatch,
                                                      tmp_path):
    """A warm image plus a single-routine instrument request must not
    rebuild unrelated routines' CFGs: every analysis the edit touches
    comes out of the hydrated fact store."""
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    server = make_server(jobs=2)
    with _client(server) as client:
        client.request("routines", workload="fib")  # warm the analysis
        builds_before = _counter("cfg.builds")
        restores_before = _counter("cache.restored_cfgs")
        result = client.request("instrument", workload="fib", tool="qpt",
                                routines=["fib"], return_image=False,
                                run=True)
        assert result["run"]["exit_code"] == 0
        assert _counter("cfg.builds") == builds_before
        # Only the requested routine's CFG (plus none of the others)
        # was materialized from facts for instrumentation.
        assert _counter("cache.restored_cfgs") - restores_before <= 2


def test_instrument_rejects_unknown_routine_names(make_server):
    server = make_server(jobs=1)
    with _client(server) as client:
        with pytest.raises(ServeError) as err:
            client.request("instrument", workload="fib", tool="qpt",
                           routines=["no_such_routine"])
        assert err.value.code == protocol.E_BAD_REQUEST
        assert "no_such_routine" in str(err.value)
        with pytest.raises(ServeError) as err:
            client.request("instrument", workload="fib", tool="qpt",
                           routines="fib")
        assert err.value.code == protocol.E_BAD_REQUEST


@pytest.mark.parametrize("tool", ["blizzard", "branch_count"])
def test_instrument_routines_subset_for_registered_tools(make_server, tool):
    server = make_server(jobs=1)
    with _client(server) as client:
        subset = client.request("instrument", workload="fib", tool=tool,
                                routines=["fib"], run=True)
        full = client.request("instrument", workload="fib", tool=tool,
                              run=True)
        assert subset["run"]["exit_code"] == 0
        assert subset["run"]["output"] == full["run"]["output"]
        assert subset["edited_image"] != full["edited_image"]
        with pytest.raises(ServeError) as err:
            client.request("instrument", workload="fib", tool=tool,
                           routines=["no_such_routine"])
        assert err.value.code == protocol.E_BAD_REQUEST


def test_instrument_and_verify_reject_client_mistakes_alike(make_server):
    """Both ops run the tool registry's one check before any work, so
    a wrong tool, architecture or mode gets the same answer from
    either; ``verify`` takes every registered tool."""
    server = make_server(jobs=1)
    mistakes = [{"workload": "mips_fib", "tool": "sfi"},
                {"workload": "fib", "tool": "qpt", "mode": "bogus"},
                {"workload": "fib", "tool": "nonesuch"}]
    with _client(server) as client:
        for params in mistakes:
            answers = []
            for op in ("instrument", "verify"):
                with pytest.raises(ServeError) as err:
                    client.request(op, **params)
                answers.append((err.value.code, err.value.message))
            assert answers[0] == answers[1], params
            assert answers[0][0] == protocol.E_BAD_REQUEST
        verdict = client.request("verify", workload="fib",
                                 tool="active_memory", use_memo=False)
        assert verdict["ok"], verdict["text"]
