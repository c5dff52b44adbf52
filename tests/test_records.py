"""Packed analysis records: canonical bytes, faithful round trips, and
restored views that answer exactly as built ones."""

import os
import subprocess
import sys

import pytest

from repro.core import Executable
from repro.core.analysis.liveness import LivenessAnalysis
from repro.core.cfg import CFG
from repro.core.facts import rules as fact_rules
from repro.core.facts.record import CFGRecord, LivenessRecord
from repro.fuzz.gen import GenConfig, generate
from repro.obs import metrics
from repro.verify import corpus_names, workload_image

_CORPUS = corpus_names()
_GENERATED = ["gen-%s-%d" % (arch, seed)
              for arch in ("sparc", "mips") for seed in range(40)]


@pytest.fixture(autouse=True)
def _cache_off(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")


def _image(name):
    if name.startswith("gen-"):
        _, arch, seed = name.split("-")
        return generate(int(seed), GenConfig(arch=arch)).image
    return workload_image(name)


# ----------------------------------------------------------------------
# Canonical bytes
# ----------------------------------------------------------------------

_BLOB_DIGESTS = r"""
import hashlib
from repro.binfmt.serialize import analysis_to_bytes
from repro.cache.summary import executable_to_summary
from repro.core import Executable
from repro.verify import corpus_names, workload_image

for name in corpus_names():
    executable = Executable(workload_image(name)).read_contents()
    blob = analysis_to_bytes(executable_to_summary(executable))
    print(name, len(blob), hashlib.sha256(blob).hexdigest())
"""


def test_blobs_are_identical_across_hash_seeds():
    """Every set a record or the fact table holds is emitted sorted, so
    two processes hashing strings differently write the same blobs."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, REPRO_CACHE="off",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        outputs.append(subprocess.run(
            [sys.executable, "-c", _BLOB_DIGESTS], env=env, check=True,
            capture_output=True, text=True, timeout=600).stdout)
    assert len(outputs[0].splitlines()) == len(_CORPUS)
    assert outputs[0] == outputs[1]


# ----------------------------------------------------------------------
# Round trips: record -> materialize -> record
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", _CORPUS + _GENERATED)
def test_record_materialize_record_round_trips(name):
    executable = Executable(_image(name)).read_contents()
    text = executable.image.sections[".text"]
    for routine in executable.all_routines():
        built = CFG(routine)
        record = CFGRecord.of(built)
        decoded = CFGRecord.unpack(record.raw)
        decoded.check(routine.start, routine.end, text.vaddr, text.end)
        assert decoded == record
        restored = CFG(routine, decoded)
        assert CFGRecord.of(restored).raw == record.raw, routine.name
        liveness = LivenessRecord.of(LivenessAnalysis(built))
        decoded = LivenessRecord.unpack(liveness.raw, len(built.blocks),
                                        executable.arch == "sparc")
        adopted = LivenessAnalysis(restored, decoded)
        assert LivenessRecord.of(adopted).raw == liveness.raw, routine.name


# ----------------------------------------------------------------------
# Restored views answer as built ones
# ----------------------------------------------------------------------

def _edge(edge):
    return (edge.src.id, edge.dst.id, edge.kind, edge.editable,
            edge.escape_target)


def _shape(cfg):
    """Everything a tool can read of a CFG, in creation order."""
    blocks = [(block.id, block.kind, block.start, block.instructions,
               block.editable, block.cti_addr,
               [_edge(edge) for edge in block.succ],
               [_edge(edge) for edge in block.pred])
              for block in cfg.blocks]
    indirect = [(info.block.id, info.status, info.table_addr,
                 list(info.targets), info.literal,
                 [tuple(site) for site in info.patch_sites],
                 info.index_bound)
                for info in cfg.indirect_jumps]
    return (blocks, [_edge(edge) for edge in cfg.edge_order], indirect,
            cfg.entry.id, cfg.exit.id, cfg.block_at.keys(), cfg.data_addrs,
            cfg.unreached, cfg.incomplete, cfg.cti_in_slot)


def _answers(cfg, liveness):
    """Every point query a snippet allocator can ask."""
    out = []
    for block in cfg.blocks:
        count = len(block.instructions)
        out.append([liveness.live_before(block, index)
                    for index in range(count + 1)])
        out.append([liveness.live_after(block, index)
                    for index in range(count)])
        out.append([liveness.live_on_edge(edge) for edge in block.succ])
    return out, liveness.live_in, liveness.live_out


@pytest.mark.parametrize("name", _CORPUS)
def test_restored_cfg_and_liveness_equal_built(name):
    executable = Executable(_image(name)).read_contents()
    for routine in executable.all_routines():
        built = CFG(routine)
        restored = CFG(routine, CFGRecord.of(built))
        assert _shape(restored) == _shape(built), routine.name
        solved = LivenessAnalysis(built)
        adopted = LivenessAnalysis(restored, LivenessRecord.of(solved))
        assert _answers(restored, adopted) == _answers(built, solved), \
            routine.name


# ----------------------------------------------------------------------
# Dependencies are derived, not stored
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", _CORPUS)
def test_hydrated_store_derives_the_cold_solvers_deps(name, tmp_path,
                                                     monkeypatch):
    cold = Executable(_image(name)).read_contents()
    fact_rules.populate(cold, cold.fact_store())
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    Executable(_image(name)).read_contents()
    hits = metrics.counter("cache.hits").value
    warm = Executable(_image(name)).read_contents()
    assert metrics.counter("cache.hits").value == hits + 1
    store = warm.fact_store()
    store._wire()
    assert store._deps == cold.fact_store()._deps
    assert store._rdeps == cold.fact_store()._rdeps
