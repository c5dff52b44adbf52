"""Command-line interface."""

import pytest

from repro.cli import main
from tests.test_obs import check_v2_report


def test_build_and_run(tmp_path, capsys):
    out = str(tmp_path / "fib.eelf")
    assert main(["build", "fib", out]) == 0
    assert main(["run", out]) == 0
    captured = capsys.readouterr()
    assert "fib 1597" in captured.out


def test_build_unknown_workload(tmp_path):
    assert main(["build", "nonesuch", str(tmp_path / "x")]) == 1


def test_routines_listing(tmp_path, capsys):
    out = str(tmp_path / "fib.eelf")
    main(["build", "fib", out])
    assert main(["routines", out]) == 0
    captured = capsys.readouterr()
    assert "fib" in captured.out and "main" in captured.out


def test_disasm(tmp_path, capsys):
    out = str(tmp_path / "fib.eelf")
    main(["build", "fib", out])
    assert main(["disasm", out]) == 0
    captured = capsys.readouterr()
    assert "save" in captured.out and "call" in captured.out


def test_profile_roundtrip(tmp_path, capsys):
    src = str(tmp_path / "fib.eelf")
    dst = str(tmp_path / "fib.prof.eelf")
    main(["build", "fib", src])
    assert main(["profile", src, dst, "--mode", "edge"]) == 0
    captured = capsys.readouterr()
    assert "fib 1597" in captured.out
    assert main(["run", dst]) == 0
    captured = capsys.readouterr()
    assert "fib 1597" in captured.out


def test_run_output_ends_with_newline(tmp_path, capsys):
    out = str(tmp_path / "fib.eelf")
    main(["build", "fib", out])
    main(["run", out])
    captured = capsys.readouterr()
    # Program stdout is newline-terminated so the stderr trailer can
    # never interleave mid-line, and the trailer is its own line.
    assert captured.out.endswith("\n")
    assert captured.err.startswith("[exit ")


def test_stats_reports_pipeline_counters(tmp_path, capsys):
    import json

    out = str(tmp_path / "interp.eelf")
    main(["build", "interp", out])
    capsys.readouterr()
    assert main(["stats", out]) == 0
    report = json.loads(capsys.readouterr().out)
    check_v2_report(report)
    counters = report["counters"]
    assert counters["cfg.blocks"] > 0
    assert counters["cfg.delay_hoists"] > 0
    assert counters["indirect.table"] >= 1
    assert counters["sim.instructions"] > 0
    # The paper's measured shares are all there.
    for name in ("cfg.uneditable_block_rate", "cfg.uneditable_edge_rate",
                 "indirect.resolved_rate", "sim.flyweight.hit_rate"):
        assert name in report["derived"]
    span_names = {node["name"] for node in report["spans"]}
    assert "stats" in span_names


def test_stats_warm_run_skips_routine_analysis(tmp_path, capsys, monkeypatch):
    """Second stats run of the same binary restores from the analysis
    cache: cache.hits > 0 and zero cfg.build work (acceptance check)."""
    import json

    monkeypatch.setenv("REPRO_CACHE", "on")
    out = str(tmp_path / "interp.eelf")
    main(["build", "interp", out])
    capsys.readouterr()
    assert main(["stats", out, "--no-run"]) == 0  # populates the cache
    first = json.loads(capsys.readouterr().out)
    assert main(["stats", out, "--no-run"]) == 0
    warm = json.loads(capsys.readouterr().out)

    counters = warm["counters"]
    assert counters["cache.hits"] == 1
    assert counters["cache.misses"] == 0
    assert counters["cfg.builds"] == 0
    assert counters["cache.restored_cfgs"] > 0
    assert warm["derived"]["cache.hit_rate"] == 1.0
    # Restored counters match what the first run reported.
    assert counters["cfg.blocks"] == first["counters"]["cfg.blocks"]
    assert counters["cfg.edges"] == first["counters"]["cfg.edges"]

    def span_names(nodes):
        names = set()
        for node in nodes:
            names.add(node["name"])
            names |= span_names(node["children"])
        return names

    names = span_names(warm["spans"])
    assert "cfg.build" not in names
    assert "cache.restore" in names


def test_run_stats_json_and_trace(tmp_path, capsys):
    import json

    exe = str(tmp_path / "fib.eelf")
    stats = str(tmp_path / "stats.json")
    main(["build", "fib", exe])
    capsys.readouterr()
    assert main(["run", exe, "--trace", "--stats-json", stats]) == 0
    captured = capsys.readouterr()
    assert "fib 1597" in captured.out
    assert "sim.run" in captured.err  # span tree on stderr
    with open(stats) as handle:
        report = json.load(handle)
    assert report["counters"]["sim.runs"] == 1
    assert report["derived"]["sim.flyweight.hit_rate"] > 0


def test_cachesim(tmp_path, capsys):
    src = str(tmp_path / "sieve.eelf")
    main(["build", "sieve", src])
    assert main(["cachesim", src]) == 0
    captured = capsys.readouterr()
    assert "sieve 303" in captured.out
    assert "misses" in captured.err


def test_run_max_steps_reports_timeout(tmp_path, capsys):
    exe = str(tmp_path / "fib.eelf")
    main(["build", "fib", exe])
    capsys.readouterr()
    assert main(["run", exe, "--max-steps", "100"]) == 1
    captured = capsys.readouterr()
    assert "simulation error" in captured.err
    assert "100 steps" in captured.err


def test_disasm_annotates_routines(tmp_path, capsys):
    exe = str(tmp_path / "fib.eelf")
    main(["build", "fib", exe])
    capsys.readouterr()
    assert main(["disasm", exe]) == 0
    captured = capsys.readouterr()
    assert "; routine fib" in captured.out


def test_verify_subcommand(capsys):
    assert main(["verify", "mips_sum", "--no-memo"]) == 0
    captured = capsys.readouterr()
    assert "mips_sum[qpt]: PASS" in captured.out
    assert "verified 1/1" in captured.err


def test_verify_rejects_bad_usage(capsys):
    assert main(["verify"]) == 1
    assert main(["verify", "nonesuch"]) == 1
    assert main(["verify", "mips_sum", "--tool", "sfi"]) == 1
    captured = capsys.readouterr()
    assert "available" in captured.err


def test_fuzz_rejects_bad_usage(tmp_path, capsys):
    assert main(["fuzz", "--seeds", "0"]) == 1
    assert main(["fuzz", "--seeds", "-5"]) == 1
    assert main(["fuzz", "--time-budget", "0"]) == 1
    assert main(["fuzz", "--jobs", "0"]) == 1
    assert main(["fuzz", "--corpus-only",
                 "--corpus", str(tmp_path / "absent")]) == 1
    captured = capsys.readouterr()
    assert "must be positive" in captured.err
    assert "does not exist" in captured.err


def test_fuzz_tiny_campaign(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    assert main(["fuzz", "--seeds", "2", "--corpus", corpus]) == 0
    captured = capsys.readouterr()
    assert "2 seeds" in captured.out
    assert "PASS" in captured.out


def test_fuzz_corpus_only_happy_path(tmp_path, capsys):
    import json

    from repro.fuzz.corpus import make_entry, save_entry
    from repro.fuzz.gen import build_plan

    corpus = str(tmp_path / "corpus")
    # A clean plan stored as "fixed" must replay clean.
    entry = make_entry("verify:qpt", "regression guard", 0,
                       build_plan(0), status="fixed")
    save_entry(corpus, entry)
    assert main(["fuzz", "--corpus-only", "--corpus", corpus]) == 0
    captured = capsys.readouterr()
    assert "0 failed" in captured.out
    # Corrupt the stored entry: replay must now flag it.
    path = tmp_path / "corpus" / (entry["id"] + ".json")
    data = json.loads(path.read_text())
    del data["plan"]
    path.write_text(json.dumps(data))
    assert main(["fuzz", "--corpus-only", "--corpus", corpus]) == 1
    captured = capsys.readouterr()
    assert "missing field" in captured.err


@pytest.mark.parametrize("argv", [["verify", "--all", "--no-memo"],
                                  ["fuzz", "--seeds", "6"]],
                         ids=["verify", "fuzz"])
def test_jobs_reports_every_counter_of_a_serial_run(tmp_path, argv):
    """Pool children's counters all reach ``--stats-json``: counters
    are deterministic, so every one of them equals the serial run's,
    except the pool-fallback count.  Each run is a fresh process with
    the analysis cache off."""
    import json
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, REPRO_CACHE="off", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    reports = []
    for jobs in (1, 2):
        stats = tmp_path / ("stats-%d.json" % jobs)
        subprocess.run([sys.executable, "-m", "repro.cli", *argv,
                        "--jobs", str(jobs), "--stats-json", str(stats)],
                       env=env, cwd=str(tmp_path), check=True,
                       capture_output=True)
        counters = json.loads(stats.read_text())["counters"]
        counters.pop("pool.fallbacks", None)
        reports.append(counters)
    assert reports[0]["cfg.builds"] > 0
    assert reports[0]["sim.instructions"] > 0
    assert reports[0] == reports[1]
