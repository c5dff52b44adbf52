"""Differential verification engine: lints, cosim, fault injection."""

import pytest

from repro.sim.machine import (SimulationError, SimulationTimeout, Simulator,
                               run_image)
from repro.tools import tool_names
from repro.verify import (VerifyResult, corpus_names, instrument_workload,
                          verify_session, verify_workload)
from repro.verify.context import EditPlacement, Finding, VerifyContext
from repro.verify.inject import inject_stale_dispatch_entry, run_fault_suite
from repro.verify.lints import run_lints
from repro.workloads import builder


@pytest.fixture(scope="module")
def fib_session():
    return instrument_workload("fib")


@pytest.fixture(scope="module")
def fib_suite(fib_session):
    executable, _, _ = fib_session
    return run_fault_suite(executable)


# ----------------------------------------------------------------------
# Clean edits pass
# ----------------------------------------------------------------------

def test_qpt_fib_verifies_clean(fib_session):
    executable, edited_image, configure = fib_session
    result = verify_session(executable, edited_image, use_memo=False,
                            configure_edited=configure, label="fib[qpt]")
    assert result.ok
    assert result.findings == []
    assert result.syncs > 1000
    assert "PASS" in result.render()


def test_qpt_dispatch_table_workload_verifies_clean():
    # interp's bytecode loop dispatches through a rewritten jump table.
    result = verify_workload("interp", use_memo=False)
    assert result.ok, result.render()
    assert result.syncs > 0


def test_qpt_retained_text_workload_verifies_clean():
    # mips_switch dispatches through a rewritten MIPS jump table
    # (lw off(base+scaled) now folds to a table in the evaluator).
    result = verify_workload("mips_switch", use_memo=False)
    assert result.ok, result.render()


def test_sfi_verifies_clean():
    result = verify_workload("fib", tool="sfi", use_memo=False)
    assert result.ok, result.render()


def test_elsie_verifies_clean():
    result = verify_workload("fib", tool="elsie", use_memo=False)
    assert result.ok, result.render()


def test_corpus_names_cover_both_architectures():
    names = corpus_names()
    assert "fib" in names and "mips_fib" in names
    with pytest.raises(ValueError):
        verify_workload("nonesuch")
    with pytest.raises(ValueError):
        instrument_workload("mips_fib", tool="sfi")  # sparc-only tool


# ----------------------------------------------------------------------
# Structural lints and placement provenance
# ----------------------------------------------------------------------

def test_lints_clean_on_instrumented_image(fib_session):
    executable, edited_image, _ = fib_session
    context = VerifyContext(executable, edited_image)
    assert run_lints(context) == []


def test_placement_reconstructs_edit_provenance(fib_session):
    executable, edited_image, _ = fib_session
    context = VerifyContext(executable, edited_image)
    placement = context.placement
    assert placement.entries, "instrumented image has placed items"
    snippets = list(placement.snippets())
    assert snippets, "qpt placed counter snippets"
    placed = snippets[0]
    assert placed.routine
    covering = placement.covering(placed.start)
    assert covering is placed
    assert "snippet" in placed.describe()


_TOOL_CASES = [(name, tool) for name, arch in (("fib", "sparc"),
                                              ("interp", "sparc"),
                                              ("mips_sum", "mips"))
               for tool in tool_names(arch)]


@pytest.mark.parametrize("name,tool", _TOOL_CASES,
                         ids=["%s-%s" % case for case in _TOOL_CASES])
def test_every_tool_tags_its_snippets_and_verifies(name, tool):
    """Every snippet names the edit that placed it (tool and site), so
    a divergence inside one can name its covering edit."""
    executable, edited_image, configure = instrument_workload(name, tool)
    snippets = EditPlacement(executable).snippets()
    assert snippets
    untagged = [entry.describe() for entry in snippets
                if entry.item.snippet.snippet.tag is None]
    assert not untagged, untagged[:3]
    result = verify_session(executable, edited_image, use_memo=False,
                            configure_edited=configure)
    assert result.ok, result.render()


def test_finding_renders_provenance():
    finding = Finding("stale-dispatch-entry", "points at 0x10f0",
                      routine="interp", block=0x1040, addr=0x2040)
    text = str(finding)
    assert "stale-dispatch-entry" in text
    assert "interp" in text and "0x1040" in text and "0x2040" in text


# ----------------------------------------------------------------------
# Fault injection: every corruption class is detected with provenance
# ----------------------------------------------------------------------

def _detects_every_class(suite):
    assert len(suite) >= 4
    for cls, outcome in suite.items():
        assert outcome["detected"], "%s went undetected" % cls
        assert outcome["by"] in ("lints", "cosim")


def test_fault_suite_detects_all_classes(fib_suite):
    _detects_every_class(fib_suite)


_FAULT_CASES = [("fib", "elsie"), ("interp", "elsie"),
                ("fib", "active_memory"), ("interp", "active_memory"),
                ("fib", "blizzard"), ("interp", "blizzard"),
                ("fib", "branch_count"), ("interp", "branch_count"),
                ("mips_sum", "branch_count")]


@pytest.mark.parametrize("name,tool", _FAULT_CASES,
                         ids=["%s-%s" % case for case in _FAULT_CASES])
def test_fault_suite_detects_all_classes_in_tool_edits(name, tool):
    """With the edit's host hook installed, a fault is caught by what
    it breaks, not by the edited side dying on an unhandled trap."""
    executable, _, configure = instrument_workload(name, tool)
    suite = run_fault_suite(executable, configure_edited=configure)
    _detects_every_class(suite)
    for outcome in suite.values():
        assert "unknown syscall" not in outcome["report"]


def test_fault_suite_reports_carry_provenance(fib_suite):
    details = fib_suite["corrupt-word"]["details"]
    assert details["routine"]
    assert isinstance(details["addr"], int)
    assert "invalid-word" in fib_suite["corrupt-word"]["report"]


def test_cosim_divergence_report_is_minimized(fib_suite):
    outcome = fib_suite["clobber-live-register"]
    assert outcome["by"] == "cosim"
    assert "first divergent pc pair" in outcome["report"]
    assert outcome["details"]["register"]


def test_stale_dispatch_entry_detected_on_table_workload():
    executable, _, _ = instrument_workload("interp")
    context = VerifyContext(executable)
    image, info = inject_stale_dispatch_entry(context)
    findings = run_lints(VerifyContext(executable, image))
    assert any(f.code == "stale-dispatch-entry" for f in findings)
    assert info["routine"]


def test_mips_fault_suite():
    executable, _, _ = instrument_workload("mips_sum")
    suite = run_fault_suite(executable)
    detected = [cls for cls, outcome in suite.items() if outcome["detected"]]
    assert "corrupt-word" in detected
    assert "clobber-live-register" in detected


# ----------------------------------------------------------------------
# Simulator support: distinct timeout, run_until
# ----------------------------------------------------------------------

def test_simulation_timeout_carries_pc_and_steps():
    image = builder.build_image("fib")
    with pytest.raises(SimulationTimeout) as info:
        run_image(image, max_steps=10)
    assert info.value.steps == 10
    assert isinstance(info.value.pc, int)
    assert "10 steps" in str(info.value)
    assert isinstance(info.value, SimulationError)


def test_run_until_stops_at_sync_point():
    image = builder.build_image("fib")
    simulator = Simulator(image)
    target = image.entry + 4  # the first instruction's delay slot
    steps = simulator.cpu.run_until({target}, 1000)
    assert simulator.cpu.pc == target
    assert steps == 1
    with pytest.raises(SimulationTimeout):
        simulator.cpu.run_until({0xDEAD0000}, 50)


# ----------------------------------------------------------------------
# Memoized verdicts
# ----------------------------------------------------------------------

def test_clean_verdict_is_memoized(fib_session, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    executable, edited_image, _ = fib_session
    first = verify_session(executable, edited_image, label="memo")
    assert first.ok
    second = verify_session(executable, edited_image, label="memo")
    assert second.ok and second.memoized
    assert "memoized" in second.render()
    third = verify_session(executable, edited_image, label="memo",
                           use_memo=False)
    assert third.ok and not third.memoized


def test_memoized_result_shape():
    result = VerifyResult("x", memoized=True)
    assert result.ok and result.syncs == 0 and result.errors == []
