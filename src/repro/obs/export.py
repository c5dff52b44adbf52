"""Prometheus text-format export of the ``repro.obs/2`` report.

Turns a report dict (from :func:`repro.obs.report.build_report`, a
``--stats-json`` file, or a daemon's ``stats`` op) into the Prometheus
exposition format (text/plain; version=0.0.4), so any scraper can
ingest the same counters, gauges, ratios and latency percentiles the
CLI prints:

    repro_serve_requests 42
    repro_serve_latency_run{quantile="0.99"} 0.0137
    repro_serve_latency_run_count 18
    repro_serve_latency_run_sum 0.1922

Metric names are sanitized (dots and dashes become underscores) and
histograms are exported as Prometheus *summaries*: ``{quantile=...}``
samples plus ``_count`` and ``_sum`` series.  Ratios in ``derived``
become ``repro_derived_*`` gauges, and a gateway's ``shards`` table
becomes ``repro_fleet_shard_<field>{shard="N"}`` gauges.  ``repro
export`` drives this from the command line against either a stats JSON
file or a live daemon.
"""

import re

_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")

QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))

# The metric family of each numeric field of a shard-table entry.
SHARD_FAMILY = "repro_fleet_shard_"


def metric_name(name):
    """A legal Prometheus metric name for a repro metric name."""
    return _SANITIZE.sub("_", "repro_" + name)


def _format_value(value):
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def prometheus_text(report=None):
    """The full report as Prometheus exposition text."""
    if report is None:
        from repro.obs.report import build_report

        report = build_report()
    lines = []
    for name, value in sorted(report.get("counters", {}).items()):
        metric = metric_name(name)
        lines.append("# TYPE %s counter" % metric)
        lines.append("%s %s" % (metric, _format_value(value)))
    for name, value in sorted(report.get("gauges", {}).items()):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        metric = metric_name(name)
        lines.append("# TYPE %s gauge" % metric)
        lines.append("%s %s" % (metric, _format_value(value)))
    for name, summary in sorted(report.get("histograms", {}).items()):
        metric = metric_name(name)
        lines.append("# TYPE %s summary" % metric)
        for quantile, key in QUANTILES:
            value = summary.get(key)
            if value is not None:
                lines.append('%s{quantile="%s"} %s'
                             % (metric, quantile, _format_value(value)))
        lines.append("%s_count %s"
                     % (metric, _format_value(summary.get("count", 0))))
        lines.append("%s_sum %s"
                     % (metric, _format_value(summary.get("sum", 0))))
    for name, value in sorted(report.get("derived", {}).items()):
        metric = metric_name("derived." + name)
        lines.append("# TYPE %s gauge" % metric)
        lines.append("%s %s" % (metric, _format_value(value)))
    lines.extend(_shard_lines(report))
    return "\n".join(lines) + "\n"


def _shard_lines(report):
    """Per-shard samples, labeled ``{shard="N"}``, from a gateway report.

    A report taken from a fleet gateway carries a ``shards`` table;
    each numeric field of each shard becomes a
    ``repro_fleet_shard_<field>{shard="N"}`` sample so one scrape of
    the gateway covers the whole fleet.  Other reports have no table
    and contribute nothing.
    """
    shards = report.get("shards") or {}
    lines = []
    typed = set()
    for shard_id in sorted(shards, key=str):
        entry = shards[shard_id] or {}
        for field in sorted(entry):
            value = entry[field]
            if not isinstance(value, (int, float, bool)):
                continue
            metric = _SANITIZE.sub("_", SHARD_FAMILY + field)
            if metric not in typed:
                typed.add(metric)
                lines.append("# TYPE %s gauge" % metric)
            lines.append('%s{shard="%s"} %s'
                         % (metric, shard_id, _format_value(value)))
    return lines
