"""JSON export of telemetry with a stable, versioned schema.

The report is the machine-readable surface the benchmarks and the CLI
share: ``python -m repro.cli stats`` and ``run --stats-json`` both call
:func:`dump`, and ``benchmarks/conftest.py`` writes its
``BENCH_RESULTS.json`` through :func:`write_bench_results`.

Schema ``repro.obs/2``::

    {
      "schema": "repro.obs/2",
      "spans": [ {name, duration_s, attrs, children: [...],
                  trace_id?, span_id?, parent_span_id?} ],
      "counters": { name: int },
      "gauges": { name: value },
      "histograms": { name: {count, sum, min, max, mean,
                             p50, p95, p99} },
      "derived": { name: value },     # declared ratios, whole > 0
      "shards": { id: {...} }         # a fleet gateway's shard table
    }

Every number appears once, under the name of the metric that holds
it.  The module that counts a metric declares it, and each ratio over
it (``metrics.ratio``); ``derived`` holds every declared ratio whose
denominator is non-zero.  Only a fleet gateway adds ``shards``.

Benchmark results use schema ``repro.obs.bench/2``::

    { "schema": "repro.obs.bench/2",
      "results": [ {name, value, unit, better} ] }

where ``better`` is ``"higher"`` or ``"lower"``.

New keys may be added; existing keys keep their meaning (tests pin the
key set, so widening the schema is an explicit act).
"""

import json

from repro.obs import metrics, trace

SCHEMA = "repro.obs/2"
BENCH_SCHEMA = "repro.obs.bench/2"
DIRECTIONS = ("higher", "lower")


def build_report():
    """Snapshot the tracer and metrics registry as one JSON-ready dict."""
    snap = metrics.snapshot()
    return {
        "schema": SCHEMA,
        "spans": trace.TRACER.tree(),
        "counters": snap["counters"],
        "gauges": snap["gauges"],
        "histograms": snap["histograms"],
        "derived": metrics.REGISTRY.derived(snap["counters"]),
    }


def dump(path=None):
    """Build the report; write it to *path* when given.  Returns the dict."""
    report = build_report()
    if path is not None:
        with open(path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def render(report=None, stream=None):
    """Span-tree + top-counter text summary (for ``--trace`` on stderr)."""
    import sys

    if report is None:
        report = build_report()
    if stream is None:
        stream = sys.stderr
    lines = ["-- spans " + "-" * 48]
    lines.append(trace.TRACER.render() or "(tracing disabled or no spans)")
    lines.append("-- counters " + "-" * 45)
    for name, value in sorted(report["counters"].items()):
        lines.append("%-44s %12d" % (name, value))
    for name, value in sorted(report["derived"].items()):
        lines.append("%-44s %12.4f" % (name, value))
    print("\n".join(lines), file=stream)


# ----------------------------------------------------------------------
# Benchmark results
# ----------------------------------------------------------------------

def bench_record(name, value, unit, better):
    """One benchmark measurement; *better* is ``"higher"`` or ``"lower"``."""
    if better not in DIRECTIONS:
        raise ValueError("bench record %r: better must be one of %s, not %r"
                         % (name, DIRECTIONS, better))
    return {"name": str(name), "value": value, "unit": str(unit),
            "better": better}


def write_bench_results(path, records):
    """Write ``BENCH_RESULTS.json``; returns the payload dict."""
    payload = {"schema": BENCH_SCHEMA, "results": list(records)}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload
