"""Content-addressed analysis cache: keys, round-trips, warm restores,
invalidation, pruning, and fact-table hydration."""

import contextlib
import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cache, obs
from repro.binfmt.serialize import (
    FormatError,
    analysis_from_bytes,
    analysis_to_bytes,
)
from repro.core import Executable
from repro.obs import metrics
from repro.workloads import build_image, build_mips_image, expected_output
from repro.workloads.builder import mips_program_names, program_names

CORPUS = sorted(program_names()) + sorted(mips_program_names())


def _image_for(name):
    if name.startswith("mips_"):
        return build_mips_image(name)
    return build_image(name)


@contextlib.contextmanager
def _env(**values):
    saved = {key: os.environ.get(key) for key in values}
    for key, value in values.items():
        if value is None:
            os.environ.pop(key, None)
        else:
            os.environ[key] = value
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def _analysis_of(executable):
    """{routine name: (cfg summary, liveness summary)} — the comparison
    surface for fresh-vs-restored equality (CFG edges, liveness sets,
    and jump-table targets all live in these dicts)."""
    out = {}
    for routine in executable.all_routines():
        cfg = routine.control_flow_graph()
        out[routine.name] = (cfg.to_summary(),
                             cfg.live_registers().to_summary())
    return out


@pytest.fixture(autouse=True)
def _clean_metrics():
    metrics.reset()
    yield
    obs.disable()
    metrics.reset()


# ----------------------------------------------------------------------
# Keys and the EELA blob format
# ----------------------------------------------------------------------

def test_cache_key_stable_across_identical_builds():
    assert cache.image_cache_key(build_image("fib")) == \
        cache.image_cache_key(build_image("fib"))


def test_cache_key_sensitive_to_content():
    image = build_image("fib")
    key = cache.image_cache_key(image)
    text = image.sections[".text"]
    text.data[0] ^= 0xFF
    assert cache.image_cache_key(image) != key
    text.data[0] ^= 0xFF
    assert cache.image_cache_key(image) == key


def test_cache_key_changes_with_analysis_version(monkeypatch):
    import importlib

    image = build_image("fib")
    key = cache.image_cache_key(image)
    # The package re-exports a store() *function*, which shadows the
    # submodule attribute; import the module itself.
    store_mod = importlib.import_module("repro.cache.store")

    monkeypatch.setattr(store_mod, "ANALYSIS_VERSION",
                        store_mod.ANALYSIS_VERSION + 1)
    assert cache.image_cache_key(image) != key


def test_analysis_blob_round_trip():
    summary = {"arch": "sparc", "routines": [{"name": "f", "start": 4096}],
               "hidden": [], "claimed": [1, 2, 3]}
    assert analysis_from_bytes(analysis_to_bytes(summary)) == summary


def test_analysis_blob_rejects_corruption():
    blob = analysis_to_bytes({"a": 1})
    with pytest.raises(FormatError):
        analysis_from_bytes(blob[:4])
    with pytest.raises(FormatError):
        analysis_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        analysis_from_bytes(blob[:-3] + b"\x00\x00\x00")


# ----------------------------------------------------------------------
# Round-trip property: restored analysis == fresh analysis
# ----------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(CORPUS))
def test_cached_analysis_equals_fresh(name):
    with _env(REPRO_CACHE="off"):
        fresh = _analysis_of(Executable(_image_for(name)).read_contents())
    # Cold run stores; second run restores from disk through the EELA
    # blob, exercising serialization for every routine shape the
    # workload corpus can produce, on both architectures.
    with _env(REPRO_CACHE="on"):
        Executable(_image_for(name)).read_contents()
        warm_exe = Executable(_image_for(name)).read_contents()
    assert warm_exe._read
    assert _analysis_of(warm_exe) == fresh


# ----------------------------------------------------------------------
# Warm runs skip analysis
# ----------------------------------------------------------------------

def test_warm_run_restores_instead_of_building():
    with _env(REPRO_CACHE="on"):
        image = build_image("interp")
        Executable(build_image("interp")).read_contents()  # populate

        metrics.reset()
        obs.enable()
        warm = Executable(image).read_contents()
        for routine in warm.all_routines():
            routine.control_flow_graph()
        obs.disable()
    counters = metrics.snapshot()["counters"]
    assert counters["cache.hits"] == 1
    assert counters["cache.misses"] == 0
    assert counters["cache.restored_cfgs"] > 0
    assert counters.get("cfg.builds", 0) == 0
    # No cfg.build span anywhere: routine analysis was skipped entirely.
    from repro.obs import trace

    def names(nodes):
        out = set()
        for node in nodes:
            out.add(node["name"])
            out |= names(node["children"])
        return out

    seen = names(trace.TRACER.tree())
    assert "cfg.build" not in seen
    assert "cache.restore" in seen


def test_warm_edit_produces_identical_image():
    from repro.binfmt.serialize import image_to_bytes

    def identity(image):
        exe = Executable(image).read_contents()
        for routine in exe.all_routines():
            routine.produce_edited_routine()
        out = exe.edited_image()
        out.entry = exe.edited_addr(exe.start_address())
        return out

    with _env(REPRO_CACHE="off"):
        cold = identity(build_image("interp"))
    with _env(REPRO_CACHE="on"):
        Executable(build_image("interp")).read_contents()  # populate
        warm = identity(build_image("interp"))
    assert image_to_bytes(warm) == image_to_bytes(cold)
    from repro.sim import run_image

    assert run_image(warm).output == expected_output("interp")


# ----------------------------------------------------------------------
# Disable, invalidation, pruning
# ----------------------------------------------------------------------

def test_disabled_cache_writes_nothing(tmp_path):
    with _env(REPRO_CACHE="off", REPRO_CACHE_DIR=str(tmp_path / "c")):
        Executable(build_image("fib")).read_contents()
        assert not os.path.exists(str(tmp_path / "c"))


def test_corrupt_entry_invalidated_and_reanalyzed(tmp_path):
    with _env(REPRO_CACHE="on", REPRO_CACHE_DIR=str(tmp_path)):
        exe = Executable(build_image("fib")).read_contents()
        entries = glob.glob(str(tmp_path / "*.eela"))
        assert len(entries) == 1
        with open(entries[0], "wb") as handle:
            handle.write(b"EELAgarbage")

        metrics.reset()
        warm = Executable(build_image("fib")).read_contents()
        counters = metrics.snapshot()["counters"]
        assert counters["cache.invalidations"] == 1
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 0
        # Reanalysis succeeded and re-stored a valid entry.
        assert counters["cache.stores"] == 1
        assert _analysis_of(warm) == _analysis_of(exe)


def test_prune_caps_entry_count(tmp_path):
    with _env(REPRO_CACHE_DIR=str(tmp_path), REPRO_CACHE_MAX="2"):
        for index in range(4):
            cache.store("k%d" % index, {"index": index})
        remaining = sorted(os.path.basename(p)
                           for p in glob.glob(str(tmp_path / "*.eela")))
        assert len(remaining) == 2
        counters = metrics.snapshot()["counters"]
        assert counters["cache.evictions"] == 2


# ----------------------------------------------------------------------
# Concurrent pruning, defensive env parsing, and the in-memory layer
# ----------------------------------------------------------------------

_PRUNE_HAMMER = r"""
import os, sys
import repro.cache.store
store = sys.modules["repro.cache.store"]

directory = os.environ["REPRO_CACHE_DIR"]
os.makedirs(directory, exist_ok=True)
for index in range(150):
    path = os.path.join(directory, "k_%d_%d.eela" % (os.getpid(), index))
    with open(path, "wb") as handle:
        handle.write(b"x")
    store._prune(directory)
sys.stdout.write("%d %d" % (store._C_ERRORS.value,
                            store._C_PRUNE_RACES.value))
"""


def test_prune_survives_concurrent_writers(tmp_path):
    """Two processes creating and pruning in one REPRO_CACHE_DIR race on
    the same oldest entries; a lost race must read as 'already evicted',
    never as a store error (regression: concurrent --jobs workers)."""
    import subprocess
    import sys

    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
               REPRO_CACHE_MAX="2",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [os.path.join(os.path.dirname(__file__),
                                              os.pardir, "src"),
                                 os.environ.get("PYTHONPATH")])))
    procs = [subprocess.Popen([sys.executable, "-c", _PRUNE_HAMMER],
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
             for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
        errors, _races = (int(field) for field in out.split())
        assert errors == 0, "prune counted a lost race as a store error"
    remaining = glob.glob(str(tmp_path / "*.eela"))
    assert len(remaining) <= 2


def test_malformed_cache_max_falls_back_with_warning(capsys):
    from repro import env as repro_env

    for bad in ("1e3", "", "banana", "-5"):
        with _env(REPRO_CACHE_MAX=bad):
            repro_env._WARNED.discard("REPRO_CACHE_MAX")
            assert cache.max_entries() == 512
    warning = capsys.readouterr().err
    assert "REPRO_CACHE_MAX" in warning
    assert "default" in warning


def test_malformed_cache_max_does_not_crash_cli(tmp_path, capsys):
    from repro import cli

    image_path = str(tmp_path / "fib.eelf")
    assert cli.main(["build", "fib", image_path]) == 0
    with _env(REPRO_CACHE_MAX="1e3", REPRO_CACHE_DIR=str(tmp_path / "c")):
        assert cli.main(["routines", image_path]) == 0
    capsys.readouterr()


def test_memory_layer_serves_hits_without_disk(tmp_path):
    """With the warm layer on (the serve daemon's mode), a second load
    hits memory even after the on-disk entry disappears."""
    with _env(REPRO_CACHE="on", REPRO_CACHE_DIR=str(tmp_path)):
        cache.enable_memory_layer(cap=8)
        try:
            exe = Executable(build_image("fib")).read_contents()
            for path in glob.glob(str(tmp_path / "*.eela")):
                os.unlink(path)
            metrics.reset()
            warm = Executable(build_image("fib")).read_contents()
            counters = metrics.snapshot()["counters"]
            assert counters["cache.memory_hits"] == 1
            assert counters["cache.hits"] == 1
            assert counters["cache.misses"] == 0
            assert _analysis_of(warm) == _analysis_of(exe)
        finally:
            cache.disable_memory_layer()


# ----------------------------------------------------------------------
# Versioned blobs and fact-table hydration
# ----------------------------------------------------------------------

def _rewrite_blob(path, mutate):
    """Round-trip the on-disk EELA blob through *mutate*(summary)."""
    import struct
    import zlib

    with open(path, "rb") as handle:
        blob = handle.read()
    summary = analysis_from_bytes(blob)
    mutated = mutate(summary)
    with open(path, "wb") as handle:
        handle.write(analysis_to_bytes(mutated if mutated is not None
                                       else summary))


def test_old_version_blob_misses_cleanly(tmp_path):
    """A blob written by an older ANALYSIS_VERSION must be a clean miss
    (invalidate + reanalyze), never a partial fact-table hydrate."""
    import struct

    from repro.binfmt.serialize import ANALYSIS_VERSION

    with _env(REPRO_CACHE="on", REPRO_CACHE_DIR=str(tmp_path)):
        exe = Executable(build_image("fib")).read_contents()
        entries = glob.glob(str(tmp_path / "*.eela"))
        assert len(entries) == 1
        with open(entries[0], "rb") as handle:
            blob = handle.read()
        downgraded = (blob[:4] + struct.pack(">H", ANALYSIS_VERSION - 1)
                      + blob[6:])
        with open(entries[0], "wb") as handle:
            handle.write(downgraded)

        metrics.reset()
        warm = Executable(build_image("fib")).read_contents()
        counters = metrics.snapshot()["counters"]
        assert counters["cache.invalidations"] == 1
        assert counters["cache.misses"] == 1
        assert counters["cache.hits"] == 0
        assert counters.get("facts.hydrated", 0) == 0
        assert counters["cache.stores"] == 1
        assert _analysis_of(warm) == _analysis_of(exe)


def _first_payload(summary, kind):
    """The first *kind* fact's row in the blob's fact table."""
    return next(row for row in summary["facts"]["facts"] if row[0] == kind)


def _set_payload(kind, payload):
    def mutate(summary):
        _first_payload(summary, kind)[2] = payload
        return summary
    return mutate


def _drop_identity_end(summary):
    del _first_payload(summary, "routine")[2]["end"]
    return summary


def _drop_facts(summary):
    del summary["facts"]
    return summary


def _shorten_live_in(summary):
    liveness = _first_payload(summary, "liveness")[2]
    liveness["live_in"] = liveness["live_in"][:-1]
    return summary


def _add_unknown_kind(summary):
    start = _first_payload(summary, "routine")[1]
    summary["facts"]["facts"].append(["no-such-kind", start, {}])
    return summary


# Blobs with the right magic, version and encoding but the wrong shape:
# each must read as a miss, not crash a later view.
_MALFORMED = {
    "fact-list-not-a-list": lambda summary: dict(
        summary, facts={"facts": "not-a-fact-list", "deps": []}),
    "payload-is-a-list": lambda summary: [summary],
    "no-fact-table": _drop_facts,
    "identity-without-end": _drop_identity_end,
    "cfg-payload-empty": _set_payload("cfg", {}),
    "liveness-live-in-string": _set_payload("liveness", {"live_in": "x"}),
    "liveness-one-block-short": _shorten_live_in,
    "unknown-fact-kind": _add_unknown_kind,
}


@pytest.mark.parametrize("mutation", sorted(_MALFORMED))
def test_missing_fact_table_rejected_not_partially_hydrated(tmp_path,
                                                            mutation):
    """A structurally valid blob whose fact table is garbage must fall
    back to cold analysis with a clean executable (no partial store)."""
    with _env(REPRO_CACHE="on", REPRO_CACHE_DIR=str(tmp_path)):
        exe = Executable(build_image("fib")).read_contents()
        entries = glob.glob(str(tmp_path / "*.eela"))
        _rewrite_blob(entries[0], _MALFORMED[mutation])
        metrics.reset()
        warm = Executable(build_image("fib")).read_contents()
        counters = metrics.snapshot()["counters"]
        assert counters["facts.hydrate_rejects"] == 1
        assert counters.get("facts.hydrated", 0) == 0
        assert counters["cache.stores"] == 1  # cold path re-stored
        assert warm.fact_store() is not None
        assert _analysis_of(warm) == _analysis_of(exe)


def test_partial_fact_table_rejected_not_partially_hydrated(tmp_path):
    """A fact table missing one routine's derived facts (e.g. truncated
    by a concurrent writer) rejects as a whole — never half a store."""
    with _env(REPRO_CACHE="on", REPRO_CACHE_DIR=str(tmp_path)):
        exe = Executable(build_image("fib")).read_contents()
        entries = glob.glob(str(tmp_path / "*.eela"))

        def _drop_liveness(summary):
            table = summary["facts"]
            victim = next(key for kind, key, _p in table["facts"]
                          if kind == "liveness")
            table["facts"] = [row for row in table["facts"]
                              if not (row[0] == "liveness"
                                      and row[1] == victim)]
            table["deps"] = [row for row in table["deps"]
                             if row[0] != ["liveness", victim]]
            return summary

        _rewrite_blob(entries[0], _drop_liveness)
        metrics.reset()
        warm = Executable(build_image("fib")).read_contents()
        counters = metrics.snapshot()["counters"]
        assert counters["facts.hydrate_rejects"] == 1
        assert counters["cache.stores"] == 1
        assert _analysis_of(warm) == _analysis_of(exe)


@pytest.mark.parametrize("stale", [False, True],
                         ids=["trusted", "rejected"])
def test_restore_reports_the_stored_metadata_status(tmp_path, stale):
    """A warm restore reports the metadata status and provenance the
    read that filled the cache found, and bumps no meta.* counter."""
    import dataclasses

    from repro.binfmt.meta import attach_meta
    from repro.binfmt.serialize import image_from_bytes, image_to_bytes
    from repro.core import trust

    image = image_from_bytes(image_to_bytes(build_image("interp")))
    with _env(REPRO_CACHE="off"):
        meta = trust.meta_from_executable(
            Executable(image).read_contents(trust_meta=False))
    if stale:
        digest = bytearray(meta.text_sha256)
        digest[0] ^= 1
        meta = dataclasses.replace(meta, text_sha256=bytes(digest))
    attach_meta(image, meta)
    blob = image_to_bytes(image)
    expected = ((("rejected", "text-hash"), "discovery") if stale
                else (("trusted", None), "metadata"))
    with _env(REPRO_CACHE="on", REPRO_CACHE_DIR=str(tmp_path),
              REPRO_TRUST_META="on"):
        first = Executable(image_from_bytes(blob)).read_contents()
        metrics.reset()
        second = Executable(image_from_bytes(blob)).read_contents()
    counters = metrics.snapshot()["counters"]
    assert (first.meta_status, first.analysis_provenance) == expected
    assert (second.meta_status, second.analysis_provenance) == expected
    assert counters["cache.hits"] == 1
    assert not any(value for name, value in counters.items()
                   if name.startswith("meta."))


def test_hydrated_store_supports_incremental_invalidation(tmp_path):
    """The point of persisting the dependency edges: a restored store
    propagates dirtiness exactly like the one that was saved."""
    with _env(REPRO_CACHE="on", REPRO_CACHE_DIR=str(tmp_path)):
        Executable(build_image("fib")).read_contents()
        warm = Executable(build_image("fib")).read_contents()
        store = warm.fact_store()
        fib = warm.routine("fib")
        main = warm.routine("main")
        warm.invalidate_routine("fib")
        dirty = store.dirty_facts()
        assert ("cfg", fib.start) in dirty
        assert ("callsites", main.start) in dirty
        assert ("cfg", main.start) not in dirty
