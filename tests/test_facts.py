"""Incremental fact store: dirty-set propagation, warm single-routine
re-analysis, adoption, and escalation (the fixpoint recast of paper
section 3.1's refinement stages)."""

import contextlib
import os

import pytest

from repro import obs
from repro.binfmt.serialize import image_from_bytes, image_to_bytes
from repro.core import Executable
from repro.core.executable import ExecutableError
from repro.core.facts import FactStore
from repro.core.facts import rules as fact_rules
from repro.obs import metrics
from repro.workloads import build_image


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


@pytest.fixture(autouse=True)
def _clean_metrics():
    metrics.reset()
    yield
    obs.disable()
    metrics.reset()


def _counter(name):
    return metrics.counter(name).value


def _routine(executable, name):
    for routine in executable.all_routines():
        if routine.name == name:
            return routine
    raise AssertionError("no routine named %r" % (name,))


def _populated(name="fib"):
    executable = Executable(build_image(name)).read_contents()
    store = executable.fact_store()
    fact_rules.populate(executable, store)
    return executable, store


# ----------------------------------------------------------------------
# FactStore mechanics
# ----------------------------------------------------------------------

def test_put_bumps_version_only_on_payload_change():
    store = FactStore()
    store.put("routine", 100, {"name": "a"})
    first = store.version("routine", 100)
    store.put("routine", 100, {"name": "a"})
    assert store.version("routine", 100) == first
    store.put("routine", 100, {"name": "b"})
    assert store.version("routine", 100) == first + 1


def test_invalidate_walks_dependents_transitively():
    store = FactStore()
    store.put("routine", 100, {})
    store.put("cfg", 100, {}, (("routine", 100),))
    store.put("liveness", 100, {}, (("cfg", 100),))
    store.put("cfg", 200, {})  # unrelated
    dirtied = store.invalidate("routine", 100)
    assert dirtied == {("routine", 100), ("cfg", 100), ("liveness", 100)}
    assert store.dirty_facts() == dirtied
    assert not store.is_dirty("cfg", 200)


def test_put_clears_dirty_and_rewires_deps():
    store = FactStore()
    store.put("routine", 100, {})
    store.put("cfg", 100, {}, (("routine", 100),))
    store.invalidate("routine", 100)
    store.put("routine", 100, {"v": 2})
    assert not store.is_dirty("routine", 100)
    assert store.is_dirty("cfg", 100)  # still awaiting re-derivation
    # Re-pointing cfg's deps elsewhere detaches it from routine 100.
    store.put("routine", 300, {})
    store.put("cfg", 100, {}, (("routine", 300),))
    assert store.invalidate("routine", 100) == {("routine", 100)}


def test_drop_removes_fact_and_edges():
    store = FactStore()
    store.put("routine", 100, {})
    store.put("cfg", 100, {}, (("routine", 100),))
    store.drop("cfg", 100)
    assert store.get("cfg", 100) is None
    assert store.invalidate("routine", 100) == {("routine", 100)}


def test_summary_round_trip_preserves_dependency_graph():
    store = FactStore()
    store.put("routine", 100, {"name": "a"})
    store.put("cfg", 100, {"blocks": []}, (("routine", 100),))
    store.put("callsites", 100, {"sites": []}, (("cfg", 100),))
    restored = FactStore.from_summary(store.to_summary())
    assert restored is not None
    assert len(restored) == len(store)
    assert restored.get("cfg", 100) == {"blocks": []}
    assert restored.invalidate("routine", 100) == {
        ("routine", 100), ("cfg", 100), ("callsites", 100)}


@pytest.mark.parametrize("mangle", [
    lambda s: "nope",
    lambda s: {"facts": "nope", "deps": []},
    lambda s: {"facts": [["cfg", "notanint", {}]], "deps": []},
    lambda s: {"facts": [[123, 4, {}]], "deps": []},
    # dangling dependency edge: references a fact that is not present
    lambda s: {"facts": [["cfg", 4, {}]],
               "deps": [[["cfg", 4], [["routine", 4]]]]},
])
def test_from_summary_rejects_malformed_tables(mangle):
    store = FactStore()
    store.put("routine", 100, {})
    assert FactStore.from_summary(mangle(store.to_summary())) is None


# ----------------------------------------------------------------------
# Rule derivation and dirty-set propagation on real executables
# ----------------------------------------------------------------------

def test_populate_covers_every_kind_for_every_routine():
    executable, store = _populated("interp")
    routines = executable.all_routines()
    for kind in fact_rules.KIND_ORDER:
        assert len(store.facts_of_kind(kind)) == len(routines)
    assert not store.dirty_facts()


def test_callee_edit_dirties_callers_callsites_fact():
    """The transitivity the dependency graph exists for: editing a
    callee invalidates the *caller's* call-graph fact, but not the
    caller's CFG."""
    executable, store = _populated("fib")
    fib = _routine(executable, "fib")
    main = _routine(executable, "main")
    sites = store.get("callsites", main.start)
    assert any(site.get("routine") == fib.start for site in sites)

    executable.invalidate_routine("fib")
    dirty = store.dirty_facts()
    assert ("callsites", main.start) in dirty
    assert ("cfg", main.start) not in dirty
    assert ("liveness", main.start) not in dirty
    assert _counter("facts.invalidated") == len(dirty)


def test_solve_rederives_only_the_edited_routine():
    executable, store = _populated("interp")
    metrics.reset()
    executable.invalidate_routine("step")
    rederived, refreshed = fact_rules.solve(executable, store)
    assert rederived == 1
    assert refreshed >= 1  # step's own dependents + callers' callsites
    assert _counter("facts.rederived") == 1
    assert _counter("cfg.builds") == 1  # only step's CFG was rebuilt
    assert _counter("facts.escalations") == 0
    assert not store.dirty_facts()


def test_solve_is_idempotent_when_nothing_is_dirty():
    executable, store = _populated("fib")
    before = {key: store.version("cfg", key)
              for key in store.facts_of_kind("cfg")}
    assert fact_rules.solve(executable, store) == (0, 0)
    for key, version in before.items():
        assert store.version("cfg", key) == version


def test_identical_rederivation_keeps_fact_versions_stable():
    executable, store = _populated("fib")
    fib = _routine(executable, "fib")
    version = store.version("cfg", fib.start)
    executable.invalidate_routine("fib")
    fact_rules.solve(executable, store)
    assert store.version("cfg", fib.start) == version


def test_invalidate_routine_rejects_unknown_names():
    executable, _ = _populated("fib")
    with pytest.raises(ExecutableError):
        executable.invalidate_routine("no_such_routine")


def test_signature_change_escalates_to_full_refinement():
    """A re-derived CFG whose interprocedural signature changed (new
    escape target, different dispatch table...) cannot be patched
    locally — the solver must re-run whole-image refinement."""
    executable, store = _populated("fib")
    main = _routine(executable, "main")
    doctored = dict(store.get("cfg", main.start))
    doctored["unreached"] = sorted(set(doctored.get("unreached", []))
                                   | {main.end - 4})
    store.put("cfg", main.start, doctored, (("routine", main.start),))
    metrics.reset()
    executable.invalidate_routine("main")
    fact_rules.solve(executable, store)
    assert _counter("facts.escalations") == 1
    # Escalation leaves a complete, clean store behind, which every
    # routine's CFG restores from.
    assert not store.dirty_facts()
    metrics.reset()
    for routine in executable.all_routines():
        assert store.get("cfg", routine.start) is not None
        restored = _counter("cache.restored_cfgs")
        routine.delete_control_flow_graph()
        routine.control_flow_graph()
        assert _counter("cache.restored_cfgs") == restored + 1
    assert _counter("cfg.builds") == 0


# ----------------------------------------------------------------------
# The decoded text table: a snapshot of .text until invalidate_routine
# ----------------------------------------------------------------------

def _private_image(name):
    """A copy of workload *name* that a test may overwrite (build_image
    shares one cached Image per workload)."""
    return image_from_bytes(image_to_bytes(build_image(name)))


def test_invalidate_routine_redecodes_overwritten_text_word():
    with _env(REPRO_CACHE="off"):
        executable = Executable(_private_image("fib")).read_contents()
        fact_rules.populate(executable, executable.fact_store())
        fib = _routine(executable, "fib")
        addr, old = next(
            (addr, inst)
            for block in fib.control_flow_graph().normal_blocks()
            for addr, inst in block.instructions
            if not inst.is_control and inst.name != "save")
        nop = executable.codec.nop_word
        assert old.word != nop
        executable.image.sections[".text"].set_word(addr, nop)
        # Until the change is declared, analysis reads the decoded table.
        assert executable.instruction_at(addr) is old

        metrics.reset()
        executable.invalidate_routine("fib")
        executable.reanalyze()
        assert _counter("cfg.builds") == 1
        assert executable.instruction_at(addr).word == nop
        assert executable.text_table()[addr].word == nop
        rebuilt = fib.control_flow_graph()
        words = {a: inst.word for block in rebuilt.blocks
                 for a, inst in block.instructions}
        assert words[addr] == nop


def test_instruction_at_outside_text_falls_back_to_image_words():
    executable = Executable(build_image("interp")).read_contents()
    image = executable.image
    rodata = image.sections[".rodata"]
    assert rodata.vaddr not in executable.text_table()
    assert executable.instruction_at(rodata.vaddr).word \
        == image.word_at(rodata.vaddr)
    with pytest.raises(KeyError):
        executable.instruction_at(image.sections[".bss"].vaddr)
    with pytest.raises(KeyError):
        executable.instruction_at(image.address_limit() + 0x100)


# ----------------------------------------------------------------------
# Warm-image single-routine edit (the tentpole acceptance scenario)
# ----------------------------------------------------------------------

def test_warm_image_single_routine_edit_rebuilds_one_cfg(tmp_path):
    with _env(REPRO_CACHE="on", REPRO_CACHE_DIR=str(tmp_path)):
        Executable(build_image("interp")).read_contents()  # seed the cache

        warm = Executable(build_image("interp")).read_contents()
        store = warm.fact_store()
        assert len(store.facts_of_kind("cfg")) == len(warm.all_routines())

        metrics.reset()
        warm.invalidate_routine("step")
        warm.reanalyze()
        assert _counter("facts.rederived") == 1
        assert _counter("cfg.builds") == 1
        # The re-derived view is usable immediately, without touching
        # any other routine's analysis.
        cfg = _routine(warm, "step").control_flow_graph()
        assert cfg.blocks
        assert _counter("cfg.builds") == 1


def test_warm_image_untouched_routines_stay_restored(tmp_path):
    with _env(REPRO_CACHE="on", REPRO_CACHE_DIR=str(tmp_path)):
        Executable(build_image("interp")).read_contents()
        warm = Executable(build_image("interp")).read_contents()
        warm.invalidate_routine("step")
        warm.reanalyze()
        metrics.reset()
        for routine in warm.all_routines():
            routine.control_flow_graph().live_registers()
        assert _counter("cfg.builds") == 0  # everything came from facts


# ----------------------------------------------------------------------
# Adoption: the fuzz shrinker's parent-plan reuse
# ----------------------------------------------------------------------

def test_read_contents_adopts_byte_identical_routines():
    with _env(REPRO_CACHE="off"):
        donor = Executable(build_image("fib")).read_contents()
        adoptable = fact_rules.donor(donor)
        metrics.reset()
        child = Executable(build_image("fib")).read_contents(adopt=adoptable)
        assert _counter("facts.adopted") == len(donor.all_routines())
        assert _counter("cfg.builds") == 0
        names = {routine.name for routine in donor.all_routines()}
        assert {r.name for r in child.all_routines()} == names


def test_adoption_rebuilds_routines_whose_identity_moved():
    """A donor routine with the same bytes but another identity (here
    one more entry point) donates nothing: the child builds that CFG,
    and its store ends as cold analysis leaves it."""
    with _env(REPRO_CACHE="off"):
        cold = _populated("fib")[1].to_summary()
        parent = Executable(build_image("fib")).read_contents()
        fib = _routine(parent, "fib")
        fib.add_entry(fib.control_flow_graph().normal_blocks()[1].start)
        adoptable = fact_rules.donor(parent)
        metrics.reset()
        child = Executable(build_image("fib")).read_contents(adopt=adoptable)
        assert _counter("cfg.builds") == 1
        assert _counter("facts.adopted") == len(child.all_routines()) - 1
        store = child.fact_store()
        fact_rules.populate(child, store)
        assert store.to_summary() == cold


def test_adoption_ignores_stale_text_hashes():
    with _env(REPRO_CACHE="off"):
        donor = Executable(build_image("fib")).read_contents()
        table, hashes = fact_rules.donor(donor)
        # Pretend the bytes changed.
        adoptable = (table, {start: "0" * 16 for start in hashes})
        metrics.reset()
        child = Executable(build_image("fib")).read_contents(adopt=adoptable)
        assert _counter("facts.adopted") == 0
        assert _counter("cfg.builds") > 0
        assert {r.name for r in child.all_routines()} \
            == {r.name for r in donor.all_routines()}
