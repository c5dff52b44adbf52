"""``scripts/bench_diff.py`` judges each record by the direction it states.

The fresh results are ``repro.obs.bench/2``; the parent's may still be
``repro.obs.bench/1``, whose records state no direction.
"""

import importlib.util
import json
import os

import pytest

from repro.obs import report

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                      "bench_diff.py")
_spec = importlib.util.spec_from_file_location("bench_diff", SCRIPT)
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)


def _write(path, records, schema=report.BENCH_SCHEMA):
    path.write_text(json.dumps({"schema": schema, "results": records}))
    return str(path)


def _diff(tmp_path, fresh, baseline, baseline_schema=report.BENCH_SCHEMA):
    return bench_diff.main([
        "--fresh", _write(tmp_path / "fresh.json", fresh),
        "--baseline", _write(tmp_path / "base.json", baseline,
                             baseline_schema)])


@pytest.mark.parametrize("better, new, verdict", [
    ("higher", 7.0, 1), ("higher", 13.0, 0),
    ("lower", 7.0, 0), ("lower", 13.0, 1),
    ("lower", 12.0, 0),  # within the 25% threshold
])
def test_direction_comes_from_the_record(tmp_path, better, new, verdict):
    fresh = [report.bench_record("x.speed", new, "x", better)]
    parent = [{"name": "x.speed", "value": 10.0, "unit": "x"}]
    assert _diff(tmp_path, fresh, parent, "repro.obs.bench/1") == verdict


def test_a_count_leaving_zero_is_compared(tmp_path):
    parent = [report.bench_record("x.cfg_builds", 0, "cfgs", "lower")]
    worse = [report.bench_record("x.cfg_builds", 3, "cfgs", "lower")]
    assert _diff(tmp_path, worse, parent) == 1
    assert _diff(tmp_path, parent, parent) == 0


def test_fresh_results_must_state_directions(tmp_path):
    records = [{"name": "x.speed", "value": 1.0, "unit": "x"}]
    with pytest.raises(ValueError):
        bench_diff.main([
            "--fresh", _write(tmp_path / "fresh.json", records,
                              "repro.obs.bench/1"),
            "--baseline", _write(tmp_path / "base.json", records)])
