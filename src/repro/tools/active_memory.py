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

from repro.core import Executable
from repro.core.snippet import CodeSnippet
from repro.sim import Simulator
from repro.sim.syscalls import SYS_CACHE_HANDLER

BLOCK_SHIFT = 5  # 32-byte cache blocks
ADDR_BITS = 24  # state table covers a 16MB wrapped address space
TABLE_SIZE = 1 << (ADDR_BITS - BLOCK_SHIFT)

# Tool spill slots below the stack pointer, distinct from EEL's own
# spill area (which starts at -64 and grows down a few words).
SPILL_O0 = -120
SPILL_G1 = -124


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


class ActiveMemory:
    """Instrument a program with inline cache-state tests."""

    def __init__(self, image, cache_size=8192, only_routines=None):
        if image.arch != "sparc":
            raise ValueError("Active Memory tool currently targets SPARC")
        from repro.tools.common import routine_filter

        self.exec = Executable(image)
        self.exec.read_contents()
        self.only = routine_filter(self.exec, only_routines)
        self.cache_size = cache_size
        # All blocks start non-resident (state byte 1).
        self.state_base = self.exec.add_data(
            "__am_state", TABLE_SIZE, initial=b"\x01" * TABLE_SIZE
        )
        self.sites = 0

    # ------------------------------------------------------------------
    def _test_snippet(self, instruction):
        """The inline access test for one load/store instruction."""
        conventions = self.exec.conventions
        codec = self.exec.codec
        # Placeholder registers must not collide with the registers the
        # instrumented instruction itself uses (the snippet embeds them in
        # its first word, and register rebinding rewrites placeholders
        # wherever they appear).
        avoid = instruction.reads() | {8, 1, 14}  # %o0, %g1, %sp are fixed
        free = [r for r in range(16, 24) if r not in avoid]
        t_ea, t_idx, t_state = free[0], free[1], free[2]

        fields = {"rd": t_ea, "rs1": instruction.field("rs1")}
        if instruction.has_field("simm13"):
            fields["simm13"] = instruction.field("simm13")
        else:
            fields["rs2"] = instruction.field("rs2")

        words = [
            codec.encode("add", **fields),  # effective address
            codec.encode("sll", rd=t_idx, rs1=t_ea, simm13=32 - ADDR_BITS),
            codec.encode("srl", rd=t_idx, rs1=t_idx,
                         simm13=(32 - ADDR_BITS) + BLOCK_SHIFT),
            codec.encode("sethi", rd=t_state, imm22=self.state_base >> 10),
            codec.encode("ldub", rd=t_state, rs1=t_state, rs2=t_idx),
            codec.encode("subcc", rd=0, rs1=t_state, simm13=0),
            codec.encode("be", disp22=9),  # hit: skip the 7-word miss path
            codec.nop_word,
            # Miss path: trap to the cache handler with the address.
            codec.encode("st", rd=8, rs1=14, simm13=SPILL_O0),
            codec.encode("st", rd=1, rs1=14, simm13=SPILL_G1),
            codec.encode("or", rd=8, rs1=0, rs2=t_ea),
            codec.encode("or", rd=1, rs1=0, simm13=SYS_CACHE_HANDLER),
            codec.encode("ta", trap_num=0),
            codec.encode("ld", rd=8, rs1=14, simm13=SPILL_O0),
            codec.encode("ld", rd=1, rs1=14, simm13=SPILL_G1),
        ]
        return CodeSnippet(words, alloc_regs=(t_ea, t_idx, t_state),
                           clobbers_cc=True)

    def instrument(self):
        from repro.obs import metrics as _metrics
        from repro.obs.trace import span as _span

        with _span("active_memory.instrument",
                   cache_size=self.cache_size) as sp:
            self._instrument_routines()
            sp.set(sites=self.sites)
        _metrics.counter("active_memory.sites").inc(self.sites)
        return self

    def _instrument_routines(self):
        for routine in self.exec.all_routines():
            if self.only is not None and routine.name not in self.only:
                continue
            cfg = routine.control_flow_graph()
            if cfg.cti_in_slot:
                # Paper §3.1: un-editable delayed-delayed flow.
                routine.delete_control_flow_graph()
                continue
            for block in cfg.blocks:
                for index, (addr, instruction) in enumerate(
                    block.instructions
                ):
                    if not instruction.is_memory:
                        continue
                    if block.editable:
                        block.add_code_before(
                            index, self._test_snippet(instruction)
                        )
                        self.sites += 1
                        continue
                    # Memory reference in an uneditable delay slot (after a
                    # call/return): the paper's advice is to "find an
                    # alternative location to edit (e.g., before the call)".
                    # The test goes before the control transfer, which is
                    # sound as long as the transfer does not write the
                    # address registers.
                    parent = self._editable_predecessor(block)
                    if parent is None:
                        continue
                    cti_index = len(parent.instructions) - 1
                    cti = parent.instructions[cti_index][1]
                    if instruction.reads() & cti.writes():
                        continue  # cannot hoist; accept the blind spot
                    parent.add_code_before(cti_index,
                                           self._test_snippet(instruction))
                    self.sites += 1
            routine.produce_edited_routine()
            routine.delete_control_flow_graph()

    @staticmethod
    def _editable_predecessor(block):
        for edge in block.pred:
            if edge.src.editable and edge.src.kind == "normal":
                return edge.src
        return None

    def edited_image(self):
        image = self.exec.edited_image()
        image.entry = self.exec.edited_addr(self.exec.start_address())
        return image

    # ------------------------------------------------------------------
    def run(self, stdin_text=""):
        """Run the edited program with the host cache handler attached.

        The heap base is pinned to the *original* image's break so heap
        addresses (and therefore cache behavior) match the baseline run.
        """
        from repro.binfmt import layout as binlayout

        image = self.edited_image()
        brk = binlayout.align_up(
            self.exec.image.address_limit() + binlayout.HEAP_GAP, 16
        )
        simulator = Simulator(image, stdin_text=stdin_text, brk_base=brk)
        cache = DirectMappedCache(self.cache_size)
        state_base = self.state_base
        memory = simulator.memory

        def handler(addr, _unused):
            evicted = cache.access(addr)
            if evicted is False:
                return 0  # raced to residence; nothing to do
            block = cache.block_of(addr)
            memory.store(state_base + block, 1, 0)  # now resident
            if evicted is not None:
                memory.store(state_base + evicted, 1, 1)
            return 0

        simulator.syscalls.cache_hook = handler
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
