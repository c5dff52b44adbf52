"""repro.fleet: routing, priority admission, gateway, hot-restart.

Unit tests cover the rendezvous ring and the two-class admission queue
(including the starvation bound) with no processes at all.  The
integration tests run a real in-process :class:`FleetGateway` whose
shards are real ``repro serve`` subprocesses — the same topology
``repro fleet`` runs — kept to two shards and short drains so the
suite stays fast on small machines.
"""

import os
import threading
import time

import pytest

from repro.fleet import (
    AdmissionQueue,
    FleetConfig,
    FleetGateway,
    content_key,
    preference,
    priority_class,
    route,
)
from repro.serve.client import ServeClient, ServeError
from tests.test_obs import check_v2_report


# ----------------------------------------------------------------------
# Rendezvous ring
# ----------------------------------------------------------------------

def test_preference_is_deterministic_and_complete():
    first = preference("workload:fib", 8)
    assert first == preference("workload:fib", 8)
    assert sorted(first) == list(range(8))


def test_route_failover_moves_only_the_dead_shards_keys():
    """Rendezvous property: removing one slot re-routes only the keys
    that lived there; every other key keeps its warm shard."""
    keys = ["workload:w%d" % i for i in range(64)]
    before = {key: route(key, 4) for key in keys}
    dead = 2
    live = {0, 1, 3}
    for key in keys:
        after = route(key, 4, live=live)
        if before[key] == dead:
            assert after != dead  # failed over
            assert after == preference(key, 4)[1]  # to its second choice
        else:
            assert after == before[key]  # undisturbed
    # And the keys snap back home once the shard returns.
    for key in keys:
        assert route(key, 4, live={0, 1, 2, 3}) == before[key]


def test_route_with_no_live_slots_is_none():
    assert route("workload:fib", 4, live=set()) is None


def test_content_key_affinity_forms():
    assert content_key("run", {"workload": "fib"}) == "workload:fib"
    key = content_key("disasm", {"image": "QUJD"})
    assert key is not None and key.startswith("image:")
    assert key == content_key("routines", {"image": "QUJD"})  # by content
    assert content_key("ping", {}) is None


# ----------------------------------------------------------------------
# Priority admission
# ----------------------------------------------------------------------

def test_priority_classes():
    assert priority_class("verify") == "bulk"
    for op in ("run", "disasm", "instrument", "routines", "ping"):
        assert priority_class(op) == "interactive"


def test_interactive_dispatches_ahead_of_bulk():
    q = AdmissionQueue(16)
    q.put("bulk-1", op="verify")
    q.put("fast-1", op="run")
    q.put("fast-2", op="disasm")
    assert q.get(0.1) == "fast-1"
    assert q.get(0.1) == "fast-2"
    assert q.get(0.1) == "bulk-1"


def test_starvation_bound_limits_priority_inversion():
    """While bulk work waits, at most ``starvation_limit`` interactive
    requests may dispatch before one bulk request must."""
    limit = 3
    q = AdmissionQueue(64, starvation_limit=limit)
    q.put("bulk", op="verify")
    for i in range(10):
        q.put("fast-%d" % i, op="run")
    order = [q.get(0.1) for _ in range(11)]
    assert order.index("bulk") == limit  # exactly the bound, not more
    # The streak only counts while bulk actually waits: with no bulk
    # queued, interactive work never yields a slot.
    q2 = AdmissionQueue(64, starvation_limit=1)
    for i in range(4):
        q2.put("fast-%d" % i, op="run")
    assert [q2.get(0.1) for _ in range(4)] == \
        ["fast-%d" % i for i in range(4)]


def test_admission_queue_is_bounded_and_control_bypasses():
    q = AdmissionQueue(2)
    assert q.put("a", op="run")
    assert q.put("b", op="verify")
    assert not q.put("c", op="run")  # full: the overloaded signal
    q.put_control("STOP")  # shutdown must never block on a full queue
    assert q.get(0.1) == "STOP"


def test_get_times_out_empty():
    q = AdmissionQueue(4)
    started = time.monotonic()
    assert q.get(0.05) is None
    assert time.monotonic() - started < 1.0


# ----------------------------------------------------------------------
# Gateway integration (real shard subprocesses)
# ----------------------------------------------------------------------

@pytest.fixture
def make_fleet(tmp_path):
    started = []

    def _make(**overrides):
        overrides.setdefault("address", str(tmp_path / "gw.sock"))
        overrides.setdefault("run_dir", str(tmp_path / "fleet"))
        overrides.setdefault("shards", 2)
        overrides.setdefault("shard_jobs", 1)
        overrides.setdefault("forwarders", 4)
        overrides.setdefault("health_interval_s", 0.2)
        overrides.setdefault("shard_timeout_s", 30.0)
        overrides.setdefault("drain_timeout_s", 10.0)
        gateway = FleetGateway(FleetConfig(**overrides)).start()
        started.append(gateway)
        return gateway

    try:
        yield _make
    finally:
        for gateway in started:
            gateway.request_drain()
        for gateway in started:
            assert gateway.wait_drained(30.0), "gateway failed to drain"


def _client(gateway, **kwargs):
    kwargs.setdefault("retries", 8)
    return ServeClient(gateway.config.address, **kwargs)


def test_gateway_roundtrip_affinity_and_telemetry(make_fleet, capsys):
    """One fleet, many assertions (spawning daemons is the slow part):
    protocol compatibility, shard affinity, stats/top shard tables,
    per-shard export labels, and `repro top` rendering."""
    gateway = make_fleet()
    with _client(gateway) as client:
        pong = client.ping()
        assert pong["pong"] is True
        assert pong["fleet"] == {"shards": 2, "live": 2}
        # Same content -> same shard, both times, reported in metadata.
        client.run_workload("fib")
        first = client.last_meta["shard"]
        client.run_workload("fib")
        assert client.last_meta["shard"] == first
        # A fleet answer always names its serving shard.
        assert client.last_meta["shard"] in (0, 1)
        stats = client.stats()
        report = stats["report"]
        check_v2_report(report, extra=["shards"])
        shards = report["shards"]
        assert sorted(shards) == ["0", "1"]
        assert report["counters"]["fleet.requests"] >= 3
        served = shards[str(first)]
        assert served["alive"] is True
        assert served["ok"] >= 2
        # Per-shard Prometheus labels from the same report.
        from repro.obs.export import prometheus_text

        text = prometheus_text(report)
        assert 'repro_fleet_shard_ok{shard="%d"}' % first in text
        assert 'repro_fleet_shard_alive{shard="0"} 1' in text
        assert 'repro_fleet_shard_alive{shard="1"} 1' in text
    # `repro top` renders the fleet header and the shard table.
    from repro import cli

    rc = cli.main(["top", "--socket", gateway.config.address])
    out = capsys.readouterr().out
    assert rc == 0
    assert "repro-fleet" in out
    assert "shards:" in out


def test_shard_death_reroutes_and_respawns(make_fleet):
    """Kill a shard process outright: requests keyed to it fail over to
    the surviving shard, and the manager respawns a new generation."""
    gateway = make_fleet()
    with _client(gateway) as client:
        client.run_workload("fib")
        victim_index = client.last_meta["shard"]
        victim = gateway.manager.slots[victim_index]
        generation = victim.generation
        victim.process.kill()
        victim.process.wait(10)
        # The same key keeps answering throughout: transport failure
        # reroutes to the live shard and/or lands on the respawn.
        for _ in range(3):
            assert client.run_workload("fib")["exit_code"] == 0
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if victim.alive and victim.generation > generation:
                break
            time.sleep(0.1)
        assert victim.generation > generation, "victim never respawned"
        # Warm keys survived the death gateway-side: the respawn was
        # pre-warmed from the slot's recent set.
        assert client.run_workload("fib")["exit_code"] == 0
    from repro.obs import metrics

    assert metrics.counter("fleet.shard_deaths").value >= 1
    assert metrics.counter("fleet.respawns").value >= 1


def test_hot_restart_zero_failed_requests(make_fleet):
    """The acceptance gate: a rolling replacement of every shard while
    clients hammer the fleet completes with zero failed requests."""
    gateway = make_fleet()
    stop = threading.Event()
    failures = []
    completed = []

    def hammer(index):
        try:
            with _client(gateway, retries=20) as client:
                while not stop.is_set():
                    result = client.run_workload("fib")
                    assert result["exit_code"] == 0
                    completed.append(client.last_meta["shard"])
        except Exception as error:  # noqa: BLE001 - any failure fails it
            failures.append((index, error))

    threads = [threading.Thread(target=hammer, args=(i,))
               for i in range(4)]
    for thread in threads:
        thread.start()
    time.sleep(0.5)  # traffic flowing before the restart begins
    generations = [slot.generation for slot in gateway.manager.slots]
    summaries = gateway.manager.rolling_restart()
    time.sleep(0.5)  # traffic flowing after it finishes
    stop.set()
    for thread in threads:
        thread.join(60)
    assert not failures, failures
    assert len(summaries) == 2
    for slot, old_generation in zip(gateway.manager.slots, generations):
        assert slot.generation == old_generation + 1
        assert slot.alive
    assert len(completed) >= 8, "hammer threads barely ran"
    from repro.obs import metrics

    assert metrics.counter("fleet.hot_restarts").value >= 2


def test_failure_report_for_superseded_generation_is_ignored(make_fleet):
    """A transport error seen on the draining old process, or a health
    ping that raced the swap, names the old generation: it must not
    mark the fresh replacement dead or respawn it."""
    from repro.obs import metrics

    gateway = make_fleet()
    manager = gateway.manager
    slot = manager.slots[0]
    old_generation = slot.generation
    manager.hot_restart(slot)
    generation = slot.generation
    assert generation == old_generation + 1
    assert slot.alive
    respawns = metrics.counter("fleet.respawns").value
    deaths = metrics.counter("fleet.shard_deaths").value

    manager.report_failure(slot, old_generation)
    manager.report_failure(slot, old_generation, reason="health-ping")

    assert slot.generation == generation
    assert slot.alive
    assert metrics.counter("fleet.respawns").value == respawns
    assert metrics.counter("fleet.shard_deaths").value == deaths
    with _client(gateway) as client:
        assert client.ping()["pong"] is True


def test_gateway_rejects_while_draining(make_fleet):
    gateway = make_fleet()
    with _client(gateway, retries=0) as client:
        assert client.ping()["pong"] is True
        gateway.request_drain()
        with pytest.raises(ServeError) as err:
            client.ping()
        assert err.value.code == "draining"
        assert err.value.retry_after is not None
    assert gateway.wait_drained(30.0)
    assert not os.path.exists(gateway.config.address)


def test_gateway_wait_ends_before_the_client_io_timeout():
    """The gateway forwards once, so a requester waits one shard
    timeout plus a margin: a hung shard reaches the client as the
    gateway's typed ``timeout``, not as the client's socket timeout."""
    gateway = FleetGateway(FleetConfig(shard_timeout_s=60.0))
    assert 60.0 < gateway.wait_s < ServeClient().io_timeout
