"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures/measured
claims and prints it in a paper-vs-measured format.  Absolute numbers
differ (the substrate is a simulator, not a 1995 SPARCstation); the
*shape* — who wins, rough factors, crossovers — is the reproduction
target (see EXPERIMENTS.md).

Besides the human-readable tables (:func:`report`), each benchmark
records the numbers it publishes through :func:`record`, once each,
with the direction that is better.  The whole batch is written to
``BENCH_RESULTS.json`` at session end in the ``repro.obs.bench/2``
schema (see ``repro.obs.report``), which ``scripts/bench_diff.py``
compares with the parent commit's results.
"""

import os
import sys
import time

import pytest

from repro.obs import report as obs_report


@pytest.fixture(scope="session", autouse=True)
def _hermetic_analysis_cache(tmp_path_factory):
    """Keep benchmark runs off the developer's real analysis cache (an
    exported REPRO_CACHE_DIR is respected for deliberate warm runs)."""
    if os.environ.get("REPRO_CACHE_DIR"):
        yield
        return
    directory = tmp_path_factory.mktemp("analysis-cache")
    os.environ["REPRO_CACHE_DIR"] = str(directory)
    try:
        yield
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)

# Session-wide accumulator for machine-readable benchmark records.
_RECORDS = []


def record(name, value, unit, better):
    """Append one benchmark measurement; *better* is "higher" or "lower"."""
    _RECORDS.append(obs_report.bench_record(name, value, unit, better))


def fastest_interleaved(funcs, rounds):
    """Fastest of *rounds* timed calls of each of *funcs*, the calls
    taking turns so that the host's load falls on all of them alike."""
    best = [float("inf")] * len(funcs)
    for _ in range(rounds):
        for index, func in enumerate(funcs):
            start = time.perf_counter()
            func()
            best[index] = min(best[index], time.perf_counter() - start)
    return best


def report(title, rows, paper_note=""):
    """Print a small aligned table to the benchmark log."""
    out = ["", "=" * 72, title]
    if paper_note:
        out.append("paper: %s" % paper_note)
    out.append("-" * 72)
    widths = [max(len(str(row[i])) for row in rows)
              for i in range(len(rows[0]))]
    for row in rows:
        out.append("  ".join(str(cell).ljust(width)
                             for cell, width in zip(row, widths)))
    out.append("=" * 72)
    print("\n".join(out), file=sys.stderr)


def pytest_sessionfinish(session, exitstatus):
    """Write BENCH_RESULTS.json next to the benchmarks at session end."""
    if not _RECORDS:
        return
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "BENCH_RESULTS.json")
    obs_report.write_bench_results(path, _RECORDS)
    print("\nwrote %d benchmark records to %s" % (len(_RECORDS), path),
          file=sys.stderr)
