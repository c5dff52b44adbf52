"""Telemetry subsystem: spans, metrics, report schema, and overhead."""

import importlib
import json
import time

import pytest

from repro import obs
from repro.obs import metrics, report, trace

# The top-level keys of a repro.obs/2 report (a gateway adds "shards").
V2_KEYS = ["counters", "derived", "gauges", "histograms", "schema", "spans"]

# The modules that declare ratios, loaded so that a report from another
# process is checked against the same declarations.
RATIO_OWNERS = ("repro.cache.store", "repro.sim.machine",
                "repro.core.analysis.indirect", "repro.core.cfg",
                "repro.core.regalloc", "repro.core.facts.rules",
                "repro.core.trust", "repro.serve.daemon",
                "repro.fleet.gateway")
for _module in RATIO_OWNERS:
    importlib.import_module(_module)


def check_v2_report(built, extra=()):
    """The repro.obs/2 contract: exactly the v2 keys, and every derived
    value is a declared ratio over a non-zero denominator."""
    assert built["schema"] == "repro.obs/2"
    assert sorted(built) == sorted(V2_KEYS + list(extra))
    for name, value in built["derived"].items():
        ratio = metrics.REGISTRY.ratios[name]
        assert ratio.denominator(built["counters"]) > 0, name
        assert value == ratio.value(built["counters"])


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Each test starts and ends with telemetry off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

def test_span_nesting_records_hierarchy():
    obs.enable()
    with obs.span("outer", tool="test"):
        with obs.span("inner.a"):
            pass
        with obs.span("inner.b") as sp:
            sp.set(extra=1)
    forest = trace.TRACER.tree()
    assert len(forest) == 1
    outer = forest[0]
    assert outer["name"] == "outer"
    assert outer["attrs"] == {"tool": "test"}
    assert [child["name"] for child in outer["children"]] == \
        ["inner.a", "inner.b"]
    assert outer["children"][1]["attrs"] == {"extra": 1}
    assert outer["duration_s"] >= 0
    assert all(child["duration_s"] >= 0 for child in outer["children"])


def test_span_duration_measures_wall_time():
    obs.enable()
    with obs.span("sleepy"):
        time.sleep(0.01)
    node = trace.TRACER.tree()[0]
    assert node["duration_s"] >= 0.009


def test_disabled_spans_record_nothing():
    assert not obs.is_enabled()
    with obs.span("ghost", attr=1) as sp:
        # The disabled path hands back the shared no-op span.
        assert sp is trace._NULL_SPAN
        sp.set(more=2)
    assert trace.TRACER.tree() == []


def test_span_exit_pops_even_on_exception():
    obs.enable()
    with pytest.raises(RuntimeError):
        with obs.span("boom"):
            raise RuntimeError("x")
    assert trace.TRACER._stack == []
    assert trace.TRACER.tree()[0]["duration_s"] is not None


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

def test_counter_aggregation_and_interning():
    first = obs.counter("test.hits")
    first.inc()
    first.inc(4)
    # Same name -> same object; values aggregate.
    assert obs.counter("test.hits") is first
    assert metrics.snapshot()["counters"]["test.hits"] == 5


def test_registry_reset_keeps_references_valid():
    counter = obs.counter("test.reset")
    counter.inc(7)
    metrics.reset()
    assert counter.value == 0
    counter.inc()  # interned reference still feeds the registry
    assert metrics.snapshot()["counters"]["test.reset"] == 1


def test_gauge_and_histogram():
    obs.gauge("test.gauge").set(42)
    histogram = obs.histogram("test.hist")
    for value in (1, 2, 9):
        histogram.observe(value)
    snap = metrics.snapshot()
    assert snap["gauges"]["test.gauge"] == 42
    summary = snap["histograms"]["test.hist"]
    assert sorted(summary) == [
        "count", "max", "mean", "min", "p50", "p95", "p99", "sum",
    ]
    assert summary["count"] == 3
    assert summary["sum"] == 12
    assert summary["min"] == 1
    assert summary["max"] == 9
    assert summary["mean"] == 4.0
    assert summary["p50"] == 2


def test_histogram_percentiles_exact_when_under_capacity():
    histogram = obs.histogram("test.pct")
    for value in range(1, 101):  # 1..100, well under the reservoir cap
        histogram.observe(value)
    assert histogram.percentile(0.50) == pytest.approx(50.5)
    assert histogram.percentile(0.95) == pytest.approx(95.05)
    assert histogram.percentile(0.99) == pytest.approx(99.01)
    assert histogram.percentile(0.0) == 1
    assert histogram.percentile(1.0) == 100


def test_histogram_reservoir_stays_bounded_and_representative():
    histogram = obs.histogram("test.reservoir")
    for value in range(10_000):
        histogram.observe(float(value))
    assert histogram.count == 10_000
    assert len(histogram._reservoir) == histogram.capacity
    # Sampling is uniform (seeded per-name RNG -> deterministic), so
    # the median estimate lands near the true median.
    assert abs(histogram.percentile(0.5) - 5000.0) < 1500
    # Exact aggregates are unaffected by sampling.
    assert histogram.minimum == 0.0
    assert histogram.maximum == 9999.0


def test_histogram_percentile_empty_is_none():
    assert obs.histogram("test.empty").percentile(0.5) is None


# ----------------------------------------------------------------------
# Phase latency histograms (gated on tracing: disabled stays free)
# ----------------------------------------------------------------------

def test_phase_spans_feed_latency_histograms():
    obs.enable()
    with obs.span("cfg.build"):
        pass
    with obs.span("sim.run"):
        pass
    snap = metrics.snapshot()
    assert snap["histograms"]["phase.cfg.build"]["count"] == 1
    assert snap["histograms"]["phase.sim.run"]["count"] == 1
    built = report.build_report()
    assert built["histograms"]["phase.cfg.build"]["p50"] is not None
    assert not any(name.startswith("phase.") for name in built["derived"])


def test_disabled_spans_do_not_feed_phase_histograms():
    assert not obs.is_enabled()
    with obs.span("cfg.build"):
        pass
    assert "phase.cfg.build" not in metrics.snapshot()["histograms"]


# ----------------------------------------------------------------------
# Trace contexts: span identity and cross-thread propagation
# ----------------------------------------------------------------------

def test_spans_adopt_attached_context():
    from repro.obs import context

    obs.enable()
    ctx = context.TraceContext("feedc0ffee000001", "aaaa0001")
    with context.attached(ctx):
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                pass
    assert outer.trace_id == "feedc0ffee000001"
    assert outer.parent_span_id == "aaaa0001"  # the remote parent
    assert inner.trace_id == "feedc0ffee000001"
    assert inner.parent_span_id == outer.span_id
    node = trace.TRACER.tree()[0]
    assert node["trace_id"] == "feedc0ffee000001"
    assert node["children"][0]["parent_span_id"] == node["span_id"]


def test_spans_without_context_carry_no_trace_ids():
    obs.enable()
    with obs.span("plain"):
        pass
    node = trace.TRACER.tree()[0]
    assert sorted(node) == ["attrs", "children", "duration_s", "name"]


def test_context_crosses_threads_via_attach():
    import threading

    from repro.obs import context

    obs.enable()
    ctx = context.TraceContext()
    recorded = {}

    def worker():
        token = context.attach(ctx)
        try:
            with trace.TRACER.request_span("serve.request") as sp:
                with obs.span("child"):
                    pass
            recorded["span"] = sp
        finally:
            context.detach(token)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    sp = recorded["span"]
    assert sp.trace_id == ctx.trace_id
    assert sp.children[0].trace_id == ctx.trace_id
    # Detached request spans never land in the global forest.
    assert trace.TRACER.tree() == []


def test_request_span_disabled_is_null():
    assert trace.TRACER.request_span("serve.request") is trace._NULL_SPAN


# ----------------------------------------------------------------------
# Report schema
# ----------------------------------------------------------------------

def test_report_schema_stability(tmp_path):
    obs.enable()
    with obs.span("stage"):
        obs.counter("sim.flyweight.hits").inc(90)
        obs.counter("sim.flyweight.misses").inc(10)
        obs.counter("indirect.table").inc(3)
        obs.counter("indirect.unanalyzable").inc(1)
    built = report.build_report()
    # Top-level key set is the schema contract: widen deliberately only.
    check_v2_report(built)
    assert built["derived"]["sim.flyweight.hit_rate"] == 0.9
    assert built["derived"]["indirect.resolved_rate"] == 0.75
    # A ratio over an all-zero denominator is absent, not None.
    assert "sim.blocks.hit_rate" not in built["derived"]
    assert built["counters"]["indirect.table"] == 3
    span_node = built["spans"][0]
    assert sorted(span_node) == ["attrs", "children", "duration_s", "name"]
    # dump() writes valid, key-sorted JSON that round-trips.
    path = tmp_path / "stats.json"
    report.dump(str(path))
    on_disk = json.loads(path.read_text())
    assert on_disk["schema"] == built["schema"]
    assert on_disk["counters"] == built["counters"]


def test_ratio_declarations_compute_derived():
    part = obs.counter("test.ratio.part")
    rest = obs.counter("test.ratio.rest")
    metrics.ratio("test.ratio.share", (part,), (part, rest))
    metrics.ratio("test.ratio.complement", (part,), (part, rest),
                  complement=True)
    try:
        assert "test.ratio.share" not in report.build_report()["derived"]
        part.inc(1)
        rest.inc(3)
        derived = report.build_report()["derived"]
        assert derived["test.ratio.share"] == 0.25
        assert derived["test.ratio.complement"] == 0.75
    finally:
        metrics.REGISTRY.ratios.pop("test.ratio.share")
        metrics.REGISTRY.ratios.pop("test.ratio.complement")


def test_bench_results_schema(tmp_path):
    path = tmp_path / "BENCH_RESULTS.json"
    payload = report.write_bench_results(
        str(path), [report.bench_record("e12.fib.slowdown", 1.31, "x",
                                        "lower")]
    )
    assert payload["schema"] == "repro.obs.bench/2"
    on_disk = json.loads(path.read_text())
    assert on_disk["results"] == [
        {"name": "e12.fib.slowdown", "value": 1.31, "unit": "x",
         "better": "lower"}
    ]
    with pytest.raises(ValueError):
        report.bench_record("e12.fib.slowdown", 1.31, "x", "neither")


# ----------------------------------------------------------------------
# End-to-end: the pipeline populates the report
# ----------------------------------------------------------------------

def test_stats_pipeline_populates_required_counters(monkeypatch):
    from repro.core import Executable
    from repro.sim import run_image
    from repro.workloads import build_image

    # Force a fresh analysis: a cache hit would replace the refinement
    # stage spans this test asserts on with a single cache.restore span.
    monkeypatch.setenv("REPRO_CACHE", "off")
    image = build_image("interp")  # has a switch -> dispatch table
    obs.enable()
    exe = Executable(image).read_contents()
    for routine in exe.all_routines():
        routine.control_flow_graph()
    # One run per engine: the per-instruction engine feeds the
    # flyweight counters, the block engine feeds the block cache.
    run_image(image, engine="handwritten")
    run_image(image, engine="block")
    built = report.build_report()
    counters = built["counters"]
    assert counters["cfg.blocks"] > 0
    assert counters["cfg.edges"] > 0
    assert counters["cfg.delay_hoists"] > 0
    assert counters["indirect.table"] >= 1
    assert counters["sim.instructions"] > 0
    assert 0 < built["derived"]["sim.flyweight.hit_rate"] < 1
    assert 0 < built["derived"]["sim.blocks.hit_rate"] <= 1
    assert counters["sim.blocks.compiles"] > 0
    # Refinement stage timings appear as spans under exe.read_contents.
    names = _all_span_names(built["spans"])
    assert "refine.stage1_symtab" in names
    assert "refine.stage3_interproc" in names
    assert "refine.stage4_cfg" in names
    assert "sim.run" in names


def _all_span_names(nodes):
    names = set()
    for node in nodes:
        names.add(node["name"])
        names |= _all_span_names(node["children"])
    return names


# ----------------------------------------------------------------------
# Disabled-mode overhead
# ----------------------------------------------------------------------

def _busy_image(iterations):
    from repro.minic import compile_to_image

    return compile_to_image(
        "int main(void) { int i; i = 0; while (i < %d) { i = i + 1; } "
        "print_int(i); return 0; }" % iterations
    )


def test_disabled_simulation_is_untelemetered():
    """With telemetry off, the simulator takes the seed fast path: no
    spans, no per-category accounting."""
    from repro.sim import Simulator

    simulator = Simulator(_busy_image(1000))
    simulator.run()
    assert simulator.cpu.category_counts is None
    assert trace.TRACER.tree() == []


def test_disabled_overhead_bound():
    """Disabled telemetry must stay within 5% of a 1M-instruction run.

    The per-instruction fast path is identical to the seed loop, so the
    only possible regression is the per-*call-site* guard.  Measure the
    guard directly: 1M disabled span() calls must cost well under 5% of
    what a 1M-instruction simulation costs (~1s on this substrate).
    """
    from repro.sim import Simulator

    image = _busy_image(250_000)  # 4-instruction loop body -> ~1M steps
    # The 5% bound is calibrated against the per-instruction engine;
    # the block engine executes the same work several times faster and
    # would turn this into a test of block-compilation throughput.
    simulator = Simulator(image, engine="handwritten")
    started = time.perf_counter()
    simulator.run()
    sim_elapsed = time.perf_counter() - started
    assert simulator.instructions_executed >= 1_000_000

    span = trace.span
    started = time.perf_counter()
    for _ in range(1_000_000):
        span("overhead.probe")
    guard_elapsed = time.perf_counter() - started

    assert guard_elapsed < 0.05 * sim_elapsed, (
        "disabled span() guard cost %.3fs vs %.3fs simulation"
        % (guard_elapsed, sim_elapsed)
    )
