"""Active Memory: cache simulation by editing (paper sections 1 and 5).

Lebeck & Wood's Active Memory lowered cache simulation to a 2-7x
slowdown by inserting a quick state test before each memory reference
instead of post-processing an address trace.  The reproduction:

* a **state table** in the edited program's address space holds one byte
  per cache block: 0 = the block is resident, 1 = not resident;
* before every load/store a snippet computes the effective address,
  checks the state byte, and on a miss traps to the cache handler;
* the handler (host side, standing in for the in-process handler code)
  runs the cache model and updates the state bytes — marking the fetched
  block resident and the evicted block non-resident — so subsequent
  accesses to resident blocks take only the inline fast path.

The trace-driven baseline for the comparison collects the full address
trace (via a simulator hook) and post-processes it through the same
cache model; both must report identical miss counts.
"""

from repro.sim import Simulator
from repro.sim.syscalls import SYS_CACHE_HANDLER
from repro.tools.common import (
    ADDR_BITS,
    BLOCK_SHIFT,
    TABLE_SIZE,
    RoutineEditor,
    memory_sites,
    state_test,
)


class DirectMappedCache:
    """The cache model shared by Active Memory and the trace baseline."""

    def __init__(self, size_bytes=8192, block_shift=BLOCK_SHIFT):
        self.block_shift = block_shift
        self.num_lines = size_bytes >> block_shift
        self.lines = [None] * self.num_lines
        self.misses = 0
        self.accesses = 0

    def block_of(self, addr):
        return (addr & ((1 << ADDR_BITS) - 1)) >> self.block_shift

    def access(self, addr):
        """Returns the evicted block number (or None) on a miss; False on
        a hit."""
        self.accesses += 1
        block = self.block_of(addr)
        line = block % self.num_lines
        resident = self.lines[line]
        if resident == block:
            return False
        self.misses += 1
        self.lines[line] = block
        return resident


class ActiveMemory(RoutineEditor):
    """Instrument a program with inline cache-state tests."""

    def __init__(self, image, cache_size=8192, only_routines=None):
        if image.arch != "sparc":
            raise ValueError("Active Memory tool currently targets SPARC")
        super().__init__(image, only_routines)
        self.cache_size = cache_size
        # All blocks start non-resident (state byte 1).
        self.state_base = self.exec.add_data(
            "__am_state", TABLE_SIZE, initial=b"\x01" * TABLE_SIZE
        )
        self.sites = 0

    def instrument(self):
        from repro.obs import metrics as _metrics
        from repro.obs.trace import span as _span

        with _span("active_memory.instrument",
                   cache_size=self.cache_size) as sp:
            super().instrument()
            sp.set(sites=self.sites)
        _metrics.counter("active_memory.sites").inc(self.sites)
        return self

    def edit_cfg(self, routine, cfg):
        codec = self.exec.codec
        for block, index, addr, instruction in memory_sites(cfg, hoist=True):
            # Resident (state 0) falls through to the access; a miss
            # traps to the cache handler with the address.
            block.add_code_before(index, state_test(
                codec, instruction, addr, "active_memory.test",
                self.state_base, 0, "be", SYS_CACHE_HANDLER))
            self.sites += 1

    # ------------------------------------------------------------------
    def configure_simulator(self, simulator):
        """Attach the host cache handler to *simulator* (the tool's host
        hook); returns the cache model it drives."""
        cache = DirectMappedCache(self.cache_size)
        state_base = self.state_base
        memory = simulator.memory

        def handler(addr, _unused):
            evicted = cache.access(addr)
            if evicted is False:
                return 0  # raced to residence; nothing to do
            memory.store(state_base + cache.block_of(addr), 1, 0)
            if evicted is not None:
                memory.store(state_base + evicted, 1, 1)
            return 0

        simulator.syscalls.cache_hook = handler
        return cache

    def run(self, stdin_text=""):
        """Run the edited program with the host cache handler attached.

        The heap starts at the *original* image's break, so heap
        addresses (and therefore cache behavior) match the baseline run.
        """
        simulator = self.edited_simulator(stdin_text)
        cache = self.configure_simulator(simulator)
        simulator.run()
        return simulator, cache


def trace_driven_misses(image, cache_size=8192, stdin_text=""):
    """Baseline: full address trace through the same cache model."""
    cache = DirectMappedCache(cache_size)

    def hook(is_store, addr, width):
        cache.access(addr)

    simulator = Simulator(image, stdin_text=stdin_text, mem_hook=hook)
    simulator.run()
    return simulator, cache
