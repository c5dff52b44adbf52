"""Adversarial tests of the verify-and-trust boundary (DESIGN.md §5l).

The contract: for every field of a ``repro.meta/1`` table there is a
lie, and every lie must either be *rejected* by the spot checks with
the right typed reason (falling back to full refinement) or — when it
is crafted to survive verification — be *caught downstream* by
manifest checking / differential co-simulation.  A lie that produces a
``clean`` classification is a silent wrong answer and a test failure.
"""

import dataclasses
import random

import pytest

from repro.binfmt.meta import attach_meta, extract_meta
from repro.binfmt.serialize import image_from_bytes, image_to_bytes
from repro.core import trust
from repro.core.executable import Executable
from repro.minic import GCC_LIKE, SUNPRO_LIKE
from repro.workloads import build_image

# interp with sunpro idioms: tail calls plus in-text dispatch tables —
# the richest structure the minic corpus produces.
_META_OPTIONS = SUNPRO_LIKE.named(emit_meta=True)


@pytest.fixture(scope="module")
def meta_image():
    return build_image("interp", _META_OPTIONS)


@pytest.fixture()
def meta(meta_image):
    return extract_meta(meta_image)


def _reason(meta_image, meta):
    """Run the verifier against a (possibly mutated) table; returns the
    typed reject reason, or None when the table is trusted."""
    rejection = trust.verify_meta(Executable(meta_image), meta)
    return rejection if rejection is None else rejection[0]


def _with_routine(meta, index, **changes):
    routines = list(meta.routines)
    routines[index] = dataclasses.replace(routines[index], **changes)
    return dataclasses.replace(meta, routines=tuple(routines))


def _with_table(meta, index, **changes):
    tables = list(meta.tables)
    tables[index] = dataclasses.replace(tables[index], **changes)
    return dataclasses.replace(meta, tables=tuple(tables))


# ----------------------------------------------------------------------
# The honest table
# ----------------------------------------------------------------------

def test_honest_table_is_trusted(meta_image, meta):
    assert meta.tables, "fixture must exercise dispatch claims"
    assert _reason(meta_image, meta) is None


def test_trusted_hydration_matches_discovery(meta_image, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    trusted = Executable(meta_image).read_contents(trust_meta=True)
    assert trusted.meta_status == ("trusted", None)
    assert trusted.analysis_provenance == "metadata"
    discovered = Executable(meta_image).read_contents(trust_meta=False)
    assert discovered.meta_status == ("disabled", None)
    assert discovered.analysis_provenance == "discovery"

    def identities(executable):
        return sorted((r.name, r.start, r.end, tuple(r.entries), r.hidden)
                      for r in executable.all_routines())

    assert identities(trusted) == identities(discovered)


# ----------------------------------------------------------------------
# Lies the spot checks must reject, each with its typed reason
# ----------------------------------------------------------------------

def test_stale_text_hash(meta_image, meta):
    digest = bytearray(meta.text_sha256)
    digest[7] ^= 0xFF
    lied = dataclasses.replace(meta, text_sha256=bytes(digest))
    assert _reason(meta_image, lied) == "text-hash"


def test_wrong_text_binding(meta_image, meta):
    lied = dataclasses.replace(meta, text_size=meta.text_size + 4)
    assert _reason(meta_image, lied) == "text-hash"


def test_shifted_extent(meta_image, meta):
    # Growing an extent one word overlaps the next routine (or leaves
    # .text at the end) — an extent lie either way.
    for index in range(len(meta.routines)):
        lied = _with_routine(meta, index,
                             end=meta.routines[index].end + 4)
        assert _reason(meta_image, lied) == "extent", \
            "extent lie on %s not rejected" % meta.routines[index].name


def test_duplicate_routine_name(meta_image, meta):
    lied = _with_routine(meta, 1, name=meta.routines[0].name)
    assert _reason(meta_image, lied) == "extent"


def test_misaligned_extent(meta_image, meta):
    lied = _with_routine(meta, 0, start=meta.routines[0].start + 2)
    assert _reason(meta_image, lied) == "extent"


def test_unsorted_entries(meta_image, meta):
    victim = meta.routines[0]
    lied = _with_routine(meta, 0,
                         entries=victim.entries + (victim.start,))
    assert _reason(meta_image, lied) == "entry"


def test_entry_outside_extent(meta_image, meta):
    victim = meta.routines[0]
    lied = _with_routine(meta, 0, entries=victim.entries + (victim.end,))
    assert _reason(meta_image, lied) == "entry"


def test_entry_inside_dispatch_table(meta_image, meta):
    # A claimed entry sitting inside a claimed in-text table: both
    # claims pass their local checks; the cross-check rejects.
    table = next(t for t in meta.tables if t.in_text)
    index, owner = next(
        (i, r) for i, r in enumerate(meta.routines)
        if r.start <= table.addr and table.end <= r.end)
    lied = _with_routine(meta, index,
                         entries=owner.entries + (table.addr,))
    assert _reason(meta_image, lied) == "dispatch"


def test_dispatch_outside_any_routine(meta_image, meta):
    # Move an in-text table so it straddles a routine boundary.
    boundary = meta.routines[1].start
    lied = _with_table(meta, 0, addr=boundary - 4, count=2, in_text=True)
    assert _reason(meta_image, lied) == "dispatch"


def test_dispatch_in_text_flag_lie(meta_image, meta):
    index = next(i for i, t in enumerate(meta.tables) if t.in_text)
    lied = _with_table(meta, index, in_text=False)
    assert _reason(meta_image, lied) == "dispatch"


def test_dispatch_overlapping_island(meta_image, meta):
    # Claim an island over non-entry text, then a table on top of it.
    table = next(t for t in meta.tables if t.in_text)
    lied = dataclasses.replace(
        meta, islands=meta.islands + ((table.addr, table.end),))
    assert _reason(meta_image, lied) == "dispatch"


def test_inflated_table_count(meta_image, meta):
    # Stretch a table to its containing routine's end and one word
    # past: no longer inside exactly one routine extent.
    table = next(t for t in meta.tables if t.in_text)
    index = meta.tables.index(table)
    owner = next(r for r in meta.routines
                 if r.start <= table.addr and table.end <= r.end)
    lied = _with_table(meta, index,
                       count=(owner.end - table.addr) // 4 + 1)
    assert _reason(meta_image, lied) == "dispatch"


def test_island_covering_entry(meta_image, meta):
    victim = meta.routines[2]
    lied = dataclasses.replace(
        meta, islands=meta.islands + ((victim.start, victim.start + 4),))
    assert _reason(meta_image, lied) == "island"


def test_misaligned_island(meta_image, meta):
    victim = meta.routines[2]
    lied = dataclasses.replace(
        meta, islands=meta.islands + ((victim.start + 6,
                                       victim.start + 10),))
    assert _reason(meta_image, lied) == "island"


def test_probe_rejects_table_over_instructions(meta_image, meta):
    # Point a table at instruction words (not slot addresses): sampled
    # slots fail to hold aligned in-text targets.
    table = next(t for t in meta.tables if t.in_text)
    index = meta.tables.index(table)
    owner = next(r for r in meta.routines
                 if r.start <= table.addr and table.end <= r.end)
    lied = _with_table(meta, index, addr=owner.start + 4,
                       count=min(table.count, 2))
    assert _reason(meta_image, lied) in ("probe", "dispatch")


def test_invented_delay_cti(meta_image, meta):
    # A routine's first word is never a delay slot within its extent.
    lied = dataclasses.replace(
        meta, delay_ctis=tuple(sorted(
            meta.delay_ctis + (meta.routines[0].start,))))
    assert _reason(meta_image, lied) == "cti"


# ----------------------------------------------------------------------
# The fallback path: rejection must degrade, not break
# ----------------------------------------------------------------------

def test_rejected_table_falls_back_to_refinement(meta_image, meta,
                                                 monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    digest = bytearray(meta.text_sha256)
    digest[0] ^= 1
    lied = dataclasses.replace(meta, text_sha256=bytes(digest))
    # build_image memoizes; mutate a deep copy, not the shared fixture.
    image = image_from_bytes(image_to_bytes(meta_image))
    attach_meta(image, lied)
    executable = Executable(image).read_contents(trust_meta=True)
    assert executable.meta_status == ("rejected", "text-hash")
    assert executable.analysis_provenance == "discovery"
    honest = Executable(meta_image).read_contents(trust_meta=False)
    assert sorted(r.name for r in executable.all_routines()) \
        == sorted(r.name for r in honest.all_routines())


def test_garbage_section_is_format_reject(meta_image, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    image = image_from_bytes(image_to_bytes(meta_image))
    image.get_section(".eel.meta").data = bytearray(b"EELMgarbage")
    executable = Executable(image).read_contents(trust_meta=True)
    assert executable.meta_status == ("rejected", "format")
    assert executable.analysis_provenance == "discovery"


# ----------------------------------------------------------------------
# Lies against fuzz ground truth: reject-or-caught, never silent
# ----------------------------------------------------------------------

def _program_with(predicate, limit=40):
    from repro.fuzz.gen import GenConfig, generate

    for seed in range(limit):
        program = generate(seed, GenConfig(arch="sparc"))
        if predicate(program):
            return program
    raise AssertionError("no generated program matched within %d seeds"
                         % limit)


def _classify_with_lie(program, mutate, monkeypatch):
    from repro.fuzz.campaign import classify_plan
    from repro.fuzz.meta import meta_from_manifest

    monkeypatch.setenv("REPRO_CACHE", "off")
    meta = mutate(meta_from_manifest(program.manifest, program.image))
    attach_meta(program.image, meta)
    executable = Executable(program.image).read_contents(trust_meta=True)
    if executable.meta_status[0] == "rejected":
        return "meta-reject:%s" % executable.meta_status[1]
    # The lie survived verification: the classification pipeline
    # (manifest check + differential verify) must flag it instead.
    status, _detail = classify_plan(program.plan, meta_mode="corrupt")
    return status


def test_dropped_delay_cti_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    from repro.fuzz.meta import meta_from_manifest

    program = _program_with(
        lambda p: any(t["kind"] == "cti-slot"
                      for r in p.manifest["routines"]
                      for t in r["transfers"]))
    meta = meta_from_manifest(program.manifest, program.image)
    assert meta.delay_ctis
    lied = dataclasses.replace(meta, delay_ctis=meta.delay_ctis[1:])
    attach_meta(program.image, lied)
    executable = Executable(program.image).read_contents(trust_meta=True)
    assert executable.meta_status == ("rejected", "cti")
    assert "missing" in executable.meta_reject_detail


def test_delay_cti_sweep_honours_extents_and_data(monkeypatch):
    """A CTI in a delay slot counts only when the transfer and its slot
    both lie in one claimed extent and neither is claimed data."""
    monkeypatch.setenv("REPRO_CACHE", "off")
    program = _program_with(
        lambda p: any(t["kind"] == "cti-slot"
                      for r in p.manifest["routines"]
                      for t in r["transfers"]))
    executable = Executable(program.image).read_contents(trust_meta=False)
    extents = [(r.start, r.end) for r in executable.all_routines()]
    found = trust.scan_delay_ctis(executable, extents)
    assert found
    slot = min(found)
    assert slot in trust.scan_delay_ctis(executable, extents, {slot + 4})
    for data in ({slot}, {slot - 4}):
        assert slot not in trust.scan_delay_ctis(executable, extents, data)
    cut = [(start, min(end, slot)) for start, end in extents
           if start < slot]
    assert slot not in trust.scan_delay_ctis(executable, cut)


def test_dropped_routine_never_silent(monkeypatch):
    from repro.fuzz.meta import _mut_drop_routine

    program = _program_with(lambda p: len(p.manifest["routines"]) >= 2)
    status = _classify_with_lie(
        program, lambda m: _mut_drop_routine(m, random.Random(0)),
        monkeypatch)
    assert status != "clean"


def test_flipped_hidden_never_silent(monkeypatch):
    from repro.fuzz.meta import _mut_flip_hidden

    program = _program_with(lambda p: p.manifest["routines"])
    status = _classify_with_lie(
        program, lambda m: _mut_flip_hidden(m, random.Random(0)),
        monkeypatch)
    assert status != "clean"


def test_corruption_campaign_reject_or_caught(monkeypatch):
    """The seeded adversary over a dozen seeds: every corrupted table
    is rejected or caught downstream; zero silent lies."""
    monkeypatch.setenv("REPRO_CACHE", "off")
    from repro.fuzz.campaign import run_meta_corruption_campaign

    result = run_meta_corruption_campaign(12, base_seed=0, jobs=2)
    assert result.ok, result.render()
    assert not result.silent
    assert result.rejected, "adversary never tripped the verifier"
