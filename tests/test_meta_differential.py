"""Differential corpus gate: every entry path into analysis state.

Analysis state reaches an Executable through full refinement, verified
``.eel.meta`` hydration, a cache restore, adoption seeded from a donor's
fact table, and the incremental solver.  The fact store is the one
holder of that state, so every path must leave the same store behind.
For every input — the 18 workloads (15 SPARC minic programs plus the 3
handwritten MIPS ones) and fuzz-generator programs on both
architectures, each also as a metadata-carrying copy — every path runs,
then ``rules.populate``, and the canonical fact table, the routine and
hidden identity lists and every routine's claimed data must equal cold
refinement's.  The trust paths must also agree on qpt-instrumented
output bytes and cosim verdicts.
"""

import json

import pytest

from repro.binfmt.meta import attach_meta, has_meta
from repro.binfmt.serialize import image_from_bytes, image_to_bytes
from repro.core import trust
from repro.core.executable import Executable
from repro.core.facts import rules as fact_rules
from repro.core.symtab_refine import routine_identity
from repro.fuzz.gen import GenConfig, generate
from repro.obs import metrics
from repro.verify import corpus_names
from repro.workloads import builder

_CORPUS = corpus_names()
_GENERATED = ["gen-%s-%d" % (arch, seed)
              for arch in ("sparc", "mips") for seed in range(12)]


@pytest.fixture(autouse=True)
def _cache_off(monkeypatch):
    # Paths that want the cache turn it on themselves; with it on
    # everywhere, a second run would restore the first run's facts and
    # the differential would compare a path against itself.
    monkeypatch.setenv("REPRO_CACHE", "off")


_IMAGES = {}


def _images(name):
    """(plain, metadata-carrying) image bytes of input *name*."""
    if name not in _IMAGES:
        if name.startswith("gen-"):
            _, arch, seed = name.split("-")
            base = generate(int(seed), GenConfig(arch=arch)).image
        elif name in builder.mips_program_names():
            base = builder.build_mips_image(name)
        else:
            base = builder.build_image(name)
        plain = image_to_bytes(base)
        image = image_from_bytes(plain)
        executable = Executable(image).read_contents(trust_meta=False)
        attach_meta(image, trust.meta_from_executable(executable))
        _IMAGES[name] = plain, image_to_bytes(image)
    return _IMAGES[name]


def _meta_image(name):
    """A metadata-carrying copy of input *name*."""
    return image_from_bytes(_images(name)[1])


_DONORS = {}


def _donor(name):
    """The donor table of input *name*'s plain image."""
    if name not in _DONORS:
        executable = Executable(image_from_bytes(_images(name)[0])) \
            .read_contents(trust_meta=False)
        _DONORS[name] = fact_rules.donor(executable)
    return _DONORS[name]


def _arch(name):
    if name.startswith("gen-"):
        return name.split("-")[1]
    return "mips" if name in builder.mips_program_names() else "sparc"


def _unrelated(name):
    """Another input of the same architecture."""
    inputs = [other for other in _CORPUS + _GENERATED
              if _arch(other) == _arch(name)]
    return inputs[(inputs.index(name) + 1) % len(inputs)]


def _state(executable):
    """What every entry path must agree on, after ``rules.populate``."""
    store = executable.fact_store()
    fact_rules.populate(executable, store)
    return (json.dumps(store.to_summary(), sort_keys=True),
            [routine_identity(r) for r in executable.routines()],
            [routine_identity(r) for r in executable.hidden_routines()],
            {r.start: sorted(executable.claimed_data(r))
             for r in executable.all_routines()})


# ----------------------------------------------------------------------
# The entry paths: (image bytes, input name, monkeypatch) -> Executable
# ----------------------------------------------------------------------

def _cold(blob, name, monkeypatch):
    executable = Executable(image_from_bytes(blob)) \
        .read_contents(trust_meta=False)
    assert executable.analysis_provenance == "discovery"
    return executable


def _metadata(blob, name, monkeypatch):
    image = image_from_bytes(blob)
    executable = Executable(image).read_contents(trust_meta=True)
    if has_meta(image):
        assert executable.meta_status == ("trusted", None)
        assert executable.analysis_provenance == "metadata"
    return executable


def _restored(blob, name, monkeypatch):
    """The second read of the image (the test's cache directory is
    fresh, and no other path fills it)."""
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_CACHE", "on")
        first = Executable(image_from_bytes(blob)).read_contents()
        hits = metrics.counter("cache.hits").value
        executable = Executable(image_from_bytes(blob)).read_contents()
    assert metrics.counter("cache.hits").value == hits + 1
    assert (executable.meta_status, executable.analysis_provenance) \
        == (first.meta_status, first.analysis_provenance)
    return executable


def _adopted_from_self(blob, name, monkeypatch):
    adopted = metrics.counter("facts.adopted").value
    executable = Executable(image_from_bytes(blob)) \
        .read_contents(adopt=_donor(name), trust_meta=False)
    assert metrics.counter("facts.adopted").value - adopted \
        == len(executable.all_routines())
    return executable


def _adopted_from_unrelated(blob, name, monkeypatch):
    return Executable(image_from_bytes(blob)) \
        .read_contents(adopt=_donor(_unrelated(name)), trust_meta=False)


def _solved(blob, name, monkeypatch):
    executable = _cold(blob, name, monkeypatch)
    fact_rules.populate(executable, executable.fact_store())
    for routine in executable.all_routines():
        executable.invalidate_routine(routine)
    executable.reanalyze()
    assert not executable.fact_store().dirty_facts()
    return executable


_PATHS = {
    "cold": _cold,
    "metadata": _metadata,
    "restored": _restored,
    "adopted-from-self": _adopted_from_self,
    "adopted-from-unrelated": _adopted_from_unrelated,
    "solved": _solved,
}


def test_corpus_is_the_expected_size():
    assert len(_CORPUS) == 18


@pytest.mark.parametrize("name", _CORPUS + _GENERATED)
def test_fact_stores_identical(name, monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reference = None
    for copy, blob in zip(("plain", "meta"), _images(name)):
        for path, enter in _PATHS.items():
            state = _state(enter(blob, name, monkeypatch))
            if reference is None:
                reference = state
            assert state[0] == reference[0], (copy, path, "fact table")
            assert state[1:3] == reference[1:3], (copy, path, "identities")
            assert state[3] == reference[3], (copy, path, "claimed data")


@pytest.mark.parametrize("name", _CORPUS)
def test_qpt_output_and_cosim_verdicts_identical(name, monkeypatch):
    from repro.tools import instrument_image
    from repro.verify import verify_session

    sessions = {}
    for trusted in (True, False):
        monkeypatch.setenv("REPRO_TRUST_META", "on" if trusted else "off")
        sessions[trusted] = instrument_image(_meta_image(name), "qpt",
                                             mode="edge")
    monkeypatch.delenv("REPRO_TRUST_META")
    on_bytes = image_to_bytes(sessions[True].edited_image)
    off_bytes = image_to_bytes(sessions[False].edited_image)
    assert on_bytes == off_bytes, \
        "qpt output differs between trust paths on %s" % name

    verdicts = {}
    for trusted, session in sessions.items():
        result = verify_session(session.executable, session.edited_image,
                                configure_edited=session.configure_edited,
                                use_memo=False,
                                label="%s[meta=%s]" % (name, trusted))
        verdicts[trusted] = (result.ok, result.syncs,
                            sorted(f.code for f in result.findings))
    assert verdicts[True] == verdicts[False]
    assert verdicts[True][0], "cosim failed on %s" % name
