"""Memory-system tools: Active Memory, Blizzard, SFI, Elsie."""

import pytest

from repro.asm import assemble
from repro.binfmt import link
from repro.sim import run_image
from repro.tools.active_memory import (
    ActiveMemory,
    DirectMappedCache,
    trace_driven_misses,
)
from repro.tools.blizzard import (
    BlizzardAccessControl,
    STATE_INVALID,
    TABLE_SIZE,
)
from repro.tools.elsie import ElsieSimulatorBuilder
from repro.tools.sfi import Sandboxer
from repro.workloads import build_image, expected_output


def test_cache_model_direct_mapped():
    cache = DirectMappedCache(size_bytes=64, block_shift=5)  # 2 lines
    assert cache.access(0x00) is None  # cold miss, nothing evicted
    assert cache.access(0x04) is False  # same block: hit
    assert cache.access(0x20) is None  # second line
    evicted = cache.access(0x40)  # maps to line 0: evicts block 0
    assert evicted == 0
    assert cache.misses == 3 and cache.accesses == 4


@pytest.mark.parametrize("name", ["fib", "qsort", "tree"])
def test_active_memory_matches_trace_baseline(name):
    image = build_image(name)
    _, trace_cache = trace_driven_misses(image)
    tool = ActiveMemory(image).instrument()
    simulator, cache = tool.run()
    assert simulator.output == expected_output(name)
    assert cache.misses == trace_cache.misses


def test_active_memory_slowdown_in_paper_band():
    """Paper: 2-7x slowdown for cache simulation by editing."""
    image = build_image("sieve")
    baseline = run_image(image)
    tool = ActiveMemory(image).instrument()
    simulator, _ = tool.run()
    slowdown = simulator.instructions_executed / \
        baseline.instructions_executed
    assert 1.5 < slowdown < 7.0


def test_active_memory_different_cache_sizes():
    image = build_image("matmul")
    small = ActiveMemory(image, cache_size=1024).instrument().run()[1]
    large = ActiveMemory(image, cache_size=65536).instrument().run()[1]
    assert small.misses >= large.misses


def test_blizzard_no_faults_when_readwrite():
    image = build_image("fib")
    tool = BlizzardAccessControl(image).instrument()
    simulator, faults = tool.run()
    assert simulator.output == expected_output("fib")
    assert faults == []


def test_blizzard_warmup_faults_when_invalid():
    image = build_image("qsort")
    table = bytes([STATE_INVALID]) * TABLE_SIZE
    tool = BlizzardAccessControl(image, initial_state=table).instrument()
    simulator, faults = tool.run()
    assert simulator.output == expected_output("qsort")
    assert faults  # cold-start coherence faults
    # Each faulted block faults exactly once (the handler upgrades it).
    blocks = [addr >> 5 for addr in faults]
    assert len(blocks) == len(set(blocks))


@pytest.mark.parametrize("name", ["qsort", "sieve", "tree"])
def test_blizzard_fault_path_verifies_under_cosim(name):
    """An all-Invalid table sends the first touch of every shared block
    through the protocol stand-in, which the verify oracle installs
    as the tool's host hook."""
    from repro.verify import verify_session

    table = bytes([STATE_INVALID]) * TABLE_SIZE
    tool = BlizzardAccessControl(build_image(name),
                                 initial_state=table).instrument()
    hooked = []
    result = verify_session(tool.exec, tool.edited_image(), use_memo=False,
                            configure_edited=lambda simulator: hooked.append(
                                tool.configure_simulator(simulator)))
    assert result.ok, result.render()
    (faults,) = hooked
    assert faults  # the fault path ran


def test_blizzard_cc_liveness_optimization_pays():
    """Paper section 5: the live-register optimization gives a faster
    test when condition codes are dead."""
    image = build_image("qsort")
    fast = BlizzardAccessControl(image).instrument()
    fast_run, _ = fast.run()
    slow = BlizzardAccessControl(image, always_save_cc=True).instrument()
    slow_run, _ = slow.run()
    assert fast_run.output == slow_run.output
    assert fast_run.instructions_executed < slow_run.instructions_executed


def test_blizzard_skips_stack_accesses():
    image = build_image("fib")
    tool = BlizzardAccessControl(image).instrument()
    # fib's locals are all frame-relative: few (if any) shared sites.
    full = ActiveMemory(image).instrument()
    assert tool.sites < full.sites


def test_sfi_clean_program_unaffected():
    image = build_image("strings")
    tool = Sandboxer(image).instrument()
    simulator, violation = tool.run()
    assert violation is None
    assert simulator.output == expected_output("strings")


def test_sfi_catches_wild_store():
    wild = """
        .text
        .global _start
    _start:
        set 0x30000000, %l0
        mov 7, %l1
        st %l1, [%l0]
        clr %o0
        mov 1, %g1
        ta 0
    """
    image = link([assemble(wild, "sparc")])
    tool = Sandboxer(image).instrument()
    simulator, violation = tool.run()
    assert violation == 0x30000000


def test_sfi_fault_hook_can_continue():
    wild = """
        .text
        .global _start
    _start:
        set 0x30000000, %l0
        mov 7, %l1
        st %l1, [%l0]
        mov 5, %o0
        mov 2, %g1
        ta 0
        clr %o0
        mov 1, %g1
        ta 0
    """
    image = link([assemble(wild, "sparc")])
    tool = Sandboxer(image).instrument()
    seen = []
    simulator, violation = tool.run(on_fault=lambda addr:
                                    seen.append(addr) or 0)
    assert violation is None
    assert seen == [0x30000000]
    assert simulator.output == "5"


def test_elsie_replaces_memory_instructions():
    image = build_image("fib")
    tool = ElsieSimulatorBuilder(image).instrument()
    assert tool.replaced > 0
    simulator, stats = tool.run()
    assert simulator.output == expected_output("fib")
    assert stats["loads"] > 0 and stats["stores"] > 0
    assert stats["memory_cycles"] >= stats["loads"] + stats["stores"]


def test_elsie_counts_match_trace():
    image = build_image("bubble")
    # Elsie only simulates accesses in editable blocks; compare against a
    # direct count over the same run for sanity (within a few percent).
    counts = {"n": 0}

    def hook(is_store, addr, width):
        counts["n"] += 1

    from repro.sim import Simulator

    sim = Simulator(image, mem_hook=hook)
    sim.run()
    tool = ElsieSimulatorBuilder(image).instrument()
    _, stats = tool.run()
    simulated = stats["loads"] + stats["stores"]
    assert simulated <= counts["n"]
    assert simulated > counts["n"] * 0.9
