"""Durable event log, trace reconstruction, anomalies, and export."""

import json
import os
import threading

import pytest

from repro import obs
from repro.obs import context, events
from repro.obs.export import metric_name, prometheus_text


@pytest.fixture(autouse=True)
def _clean_telemetry():
    obs.disable()
    obs.reset()
    events.unconfigure()
    yield
    obs.disable()
    obs.reset()
    events.unconfigure()


# ----------------------------------------------------------------------
# EventLog writing and rotation
# ----------------------------------------------------------------------

def test_emit_stamps_schema_header_and_timestamp(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = events.EventLog(path)
    log.emit("request.admit", op="ping", id=1)
    log.close()
    records = events.load_events(path)
    assert records[0]["kind"] == "log.open"
    assert records[0]["schema"] == events.SCHEMA
    assert records[1]["kind"] == "request.admit"
    assert records[1]["op"] == "ping"
    assert records[1]["ts"] > 0


def test_emit_stamps_attached_trace_context(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = events.EventLog(path)
    ctx = context.TraceContext("aabbccddeeff0011")
    with context.attached(ctx):
        log.emit("request.admit", op="ping")
    log.emit("request.admit", op="ping", trace_id="explicit-wins")
    log.close()
    _header, implicit, explicit = events.load_events(path)
    assert implicit["trace_id"] == "aabbccddeeff0011"
    assert explicit["trace_id"] == "explicit-wins"


def test_rotation_never_drops_the_in_flight_record(tmp_path):
    """Every emitted record must survive rotation: the record that
    crosses the size threshold lands in the rotated-out file, and the
    next record opens the fresh one."""
    path = str(tmp_path / "events.jsonl")
    log = events.EventLog(path, max_bytes=4096, max_files=16)
    total = 200
    for index in range(total):
        log.emit("fuzz.seed", seed=index, payload="x" * 64)
    log.close()
    assert os.path.exists(path + ".1"), "rotation never happened"
    records = [r for r in events.load_events(path)
               if r["kind"] == "fuzz.seed"]
    assert [r["seed"] for r in records] == list(range(total))


def test_rotation_caps_file_count(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = events.EventLog(path, max_bytes=512, max_files=3)
    for index in range(400):
        log.emit("fuzz.seed", seed=index, payload="y" * 64)
    log.close()
    assert os.path.exists(path)
    assert os.path.exists(path + ".1")
    assert os.path.exists(path + ".2")
    assert not os.path.exists(path + ".3")
    # The survivors are the *newest* records, still in order.
    seeds = [r["seed"] for r in events.load_events(path)
             if r["kind"] == "fuzz.seed"]
    assert seeds == sorted(seeds)
    assert seeds[-1] == 399


def test_concurrent_emitters_never_tear_lines(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = events.EventLog(path, max_bytes=1 << 20)
    per_thread = 100

    def emitter(tag):
        for index in range(per_thread):
            log.emit("fuzz.seed", seed=index, tag=tag)

    threads = [threading.Thread(target=emitter, args=(t,))
               for t in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    log.close()
    records = [r for r in events.load_events(path)
               if r["kind"] == "fuzz.seed"]
    assert len(records) == 4 * per_thread


def test_iter_events_skips_torn_trailing_line(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = events.EventLog(path)
    log.emit("request.admit", op="ping")
    log.close()
    with open(path, "ab") as handle:
        handle.write(b'{"ts": 1.0, "kind": "request.fin')  # crashed writer
    records = events.load_events(path)
    assert [r["kind"] for r in records] == ["log.open", "request.admit"]


def test_iter_events_raises_on_mid_file_corruption(tmp_path):
    path = str(tmp_path / "events.jsonl")
    with open(path, "w") as handle:
        handle.write('{"ts": 1.0, "kind": "log.open"}\n')
        handle.write("garbage line\n")
        handle.write('{"ts": 2.0, "kind": "request.admit"}\n')
    with pytest.raises(ValueError):
        events.load_events(path)


def test_global_emit_is_noop_until_configured(tmp_path):
    assert not events.is_configured()
    assert events.emit("request.admit", op="ping") is None
    path = str(tmp_path / "events.jsonl")
    events.configure(path)
    assert events.is_configured()
    events.emit("request.admit", op="ping")
    events.unconfigure()
    assert [r["kind"] for r in events.load_events(path)] == \
        ["log.open", "request.admit"]


# ----------------------------------------------------------------------
# Trace reconstruction
# ----------------------------------------------------------------------

def _request_events(trace_id, op="run", status="ok", handler_s=0.01,
                    attempts=0, spans=None):
    """One request's events; each of *attempts* retries is an earlier
    admit the same process turned away as ``overloaded``."""
    def admit(ts):
        return {"ts": ts, "kind": "request.admit", "trace_id": trace_id,
                "op": op, "id": 1, "pid": 100, "queue_depth": 0}

    stream = []
    for attempt in range(attempts):
        stream += [admit(0.1 * attempt),
                   {"ts": 0.1 * attempt, "kind": "request.error",
                    "trace_id": trace_id, "op": op, "id": 1,
                    "code": "overloaded"}]
    kind = "request.finish" if status == "ok" else "request.error"
    finish = {"ts": 2.0, "kind": kind, "trace_id": trace_id, "op": op,
              "id": 1, "queue_wait_s": 0.001, "handler_s": handler_s}
    if status != "ok":
        finish["code"] = status
    if spans is not None:
        finish["spans"] = spans
    return stream + [admit(1.0), finish]


def test_build_traces_pairs_admit_with_finish():
    stream = _request_events("t1") + _request_events("t2", status="timeout")
    traces = events.build_traces(stream)
    assert set(traces) == {"t1", "t2"}
    assert traces["t1"].status == "ok"
    assert traces["t1"].queue_wait_s == 0.001
    assert traces["t2"].status == "error:timeout"
    orphan = events.build_traces(
        [{"ts": 1.0, "kind": "request.admit", "trace_id": "t3",
          "op": "run"}])["t3"]
    assert orphan.status == "in-flight"


def test_connected_spans_detects_orphans():
    good = [{"name": "serve.request", "span_id": "a", "trace_id": "t",
             "children": [{"name": "serve.op", "span_id": "b",
                           "parent_span_id": "a", "children": []}]}]
    assert events.connected_spans(good)
    orphaned = [{"name": "serve.request", "span_id": "a", "trace_id": "t",
                 "children": [{"name": "serve.op", "span_id": "b",
                               "parent_span_id": "missing",
                               "children": []}]}]
    assert not events.connected_spans(orphaned)
    assert not events.connected_spans([])


def test_render_trace_shows_tree_and_latency_split():
    spans = [{"name": "serve.request", "span_id": "a", "trace_id": "t9",
              "duration_s": 0.01, "attrs": {"op": "run"},
              "children": [{"name": "sim.run", "span_id": "b",
                            "parent_span_id": "a", "duration_s": 0.008,
                            "attrs": {}, "children": []}]}]
    stream = _request_events("t9", spans=spans, attempts=1)
    record = events.build_traces(stream)["t9"]
    text = events.render_trace(record)
    assert "trace t9" in text
    assert "queue.wait" in text
    assert "serve.request" in text
    assert "sim.run" in text
    assert "retried 1 time(s)" in text


def test_admits_from_two_processes_are_not_a_retry():
    """A merged gateway+shard log holds one admit per process for one
    attempt; only one process admitting one op again is a retry."""
    gateway = _request_events("hop")
    shard = [dict(event, pid=200) for event in _request_events("hop")]
    assert events.build_traces(gateway + shard)["hop"].attempts == 0
    assert events.find_anomalies(gateway + shard) == []
    retried = [dict(event, pid=200)
               for event in _request_events("hop", attempts=2)]
    assert events.build_traces(gateway + retried)["hop"].attempts == 2
    warmed = _request_events("hop") + _request_events("hop", op="warm")
    assert events.build_traces(warmed)["hop"].attempts == 0


# ----------------------------------------------------------------------
# Anomaly flagging
# ----------------------------------------------------------------------

def test_find_anomalies_flags_outliers_retries_and_degradation():
    stream = []
    for index in range(20):
        stream += _request_events("fast%d" % index, handler_s=0.010)
    stream += _request_events("slow", handler_s=0.500)
    stream += _request_events("againful", attempts=2)
    stream.append({"ts": 50.0, "kind": "worker.death", "op": "run"})
    stream.append({"ts": 51.0, "kind": "worker.degraded"})
    stream.append({"ts": 60.0, "kind": "drain.finish", "clean": True})
    anomalies = events.find_anomalies(stream)
    text = "\n".join(anomalies)
    assert "p99-outlier: trace slow" in text
    assert "retries: trace againful" in text
    assert "degraded-window: 9.0s" in text
    assert "worker-deaths: 1" in text


def test_find_anomalies_quiet_log_is_empty():
    stream = []
    for index in range(20):
        stream += _request_events("t%d" % index, handler_s=0.010)
    assert events.find_anomalies(stream) == []


# ----------------------------------------------------------------------
# repro trace CLI
# ----------------------------------------------------------------------

def test_cli_trace_summary_and_single_trace(tmp_path, capsys):
    from repro import cli

    path = str(tmp_path / "events.jsonl")
    log = events.EventLog(path)
    for event in _request_events("deadbeef00000001", attempts=1):
        fields = {k: v for k, v in event.items()
                  if k not in ("ts", "kind")}
        log.emit(event["kind"], **fields)
    log.close()

    rc = cli.main(["trace", path])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 traced request(s)" in out
    assert "deadbeef00000001" in out
    assert "retries: trace deadbeef00000001" in out

    rc = cli.main(["trace", path, "--id", "deadbeef"])
    assert rc == 0
    assert "trace deadbeef00000001" in capsys.readouterr().out

    rc = cli.main(["trace", path, "--id", "nope"])
    assert rc == 1
    assert "no trace" in capsys.readouterr().err


def test_cli_trace_missing_file(tmp_path, capsys):
    from repro import cli

    rc = cli.main(["trace", str(tmp_path / "absent.jsonl")])
    assert rc == 1
    assert "no event log" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Prometheus export
# ----------------------------------------------------------------------

def test_metric_name_sanitization():
    assert metric_name("serve.latency.run") == "repro_serve_latency_run"
    assert metric_name("phase.cfg.build") == "repro_phase_cfg_build"
    assert metric_name("weird-name!") == "repro_weird_name_"


def test_prometheus_text_exports_counters_and_summaries():
    obs.counter("serve.requests").inc(5)
    histogram = obs.histogram("serve.latency.run")
    for value in (0.01, 0.02, 0.03):
        histogram.observe(value)
    text = prometheus_text()
    lines = text.splitlines()
    assert "# TYPE repro_serve_requests counter" in lines
    assert "repro_serve_requests 5" in lines
    assert "# TYPE repro_serve_latency_run summary" in lines
    assert 'repro_serve_latency_run{quantile="0.5"} 0.02' in lines
    assert "repro_serve_latency_run_count 3" in lines
    assert any(line.startswith("repro_serve_latency_run_sum")
               for line in lines)
    assert text.endswith("\n")


def test_prometheus_text_from_report_dict():
    report = {"counters": {"fuzz.seeds": 7},
              "gauges": {"serve.queue_depth": 3},
              "histograms": {}, "derived": {"sim.flyweight.hit_rate": 0.9}}
    text = prometheus_text(report)
    assert "repro_fuzz_seeds 7" in text
    assert "repro_serve_queue_depth 3" in text
    assert "repro_derived_sim_flyweight_hit_rate 0.9" in text


def test_cli_export_from_stats_json(tmp_path, capsys):
    from repro import cli
    from repro.obs import report as obs_report

    obs.counter("serve.requests").inc(2)
    path = str(tmp_path / "stats.json")
    with open(path, "w") as handle:
        json.dump(obs_report.build_report(), handle)
    rc = cli.main(["export", "--stats-json", path])
    assert rc == 0
    assert "repro_serve_requests 2" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Fuzz campaigns write per-seed events with stage timings
# ----------------------------------------------------------------------

def test_fuzz_campaign_emits_seed_events_with_timings(tmp_path):
    from repro.fuzz import campaign

    path = str(tmp_path / "events.jsonl")
    events.configure(path)
    try:
        result = campaign.run_campaign(2, base_seed=0, jobs=1,
                                       corpus_dir=None)
    finally:
        events.unconfigure()
    stream = events.load_events(path)
    kinds = [record["kind"] for record in stream]
    assert kinds[1] == "campaign.begin"
    assert kinds.count("fuzz.seed") == len(result.outcomes) == 2
    assert kinds[-1] == "campaign.end"
    seed_records = [r for r in stream if r["kind"] == "fuzz.seed"]
    for record in seed_records:
        assert "status" in record
        timings = record["timings"]
        assert "gen" in timings
        assert "analyze" in timings
        assert all(value >= 0 for value in timings.values())
    end = stream[-1]
    assert end["seeds"] == 2
    assert "elapsed_s" in end
