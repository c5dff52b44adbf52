"""Elsie: a direct-execution architectural simulator built with EEL.

Steven Reinhardt's Elsie (paper section 5) replaces loads, stores, and
system calls in a program with simulator calls, then runs the edited
executable inside the simulator.  This reproduction *deletes* each
memory instruction (the editing capability ATOM lacked — section 2) and
replaces it with a snippet that traps to the memory-system model, which
performs the access against simulated memory and charges latency.
"""

from repro.core.snippet import CodeSnippet
from repro.tools.common import (
    SP,
    SPILL_G1,
    SPILL_O0,
    SPILL_O1,
    SPILL_O2,
    RoutineEditor,
    effective_address,
    memory_sites,
    scratch_regs,
)

# Tool syscall numbers (dispatched via SyscallHandler.tool_hooks).
SYS_SIM_LOAD = 16
SYS_SIM_STORE = 17

MISS_LATENCY = 20  # cycles the memory model charges per cache miss


class ElsieSimulatorBuilder(RoutineEditor):
    """Rewrite a program so the memory system is simulated."""

    def __init__(self, image, only_routines=None):
        if image.arch != "sparc":
            raise ValueError("Elsie tool currently targets SPARC")
        super().__init__(image, only_routines)
        self.replaced = 0

    # ------------------------------------------------------------------
    def _load_snippet(self, instruction, addr=None):
        codec = self.exec.codec
        rd = instruction.field("rd")
        t_ea = scratch_regs(instruction, (9, 10, rd))[0]
        width_code = instruction.mem_width | (
            0x100 if instruction.inst.mem_signed else 0
        )

        words = [
            effective_address(codec, instruction, t_ea),
            codec.encode("st", rd=8, rs1=SP, simm13=SPILL_O0),
            codec.encode("st", rd=9, rs1=SP, simm13=SPILL_O1),
            codec.encode("st", rd=1, rs1=SP, simm13=SPILL_G1),
            codec.encode("or", rd=8, rs1=0, rs2=t_ea),
            codec.encode("or", rd=9, rs1=0, simm13=width_code),
            codec.encode("or", rd=1, rs1=0, simm13=SYS_SIM_LOAD),
            codec.encode("ta", trap_num=0),
            codec.encode("or", rd=rd, rs1=0, rs2=8),  # result to rd
        ]
        for reg, slot in ((9, SPILL_O1), (1, SPILL_G1), (8, SPILL_O0)):
            if reg != rd:
                words.append(codec.encode("ld", rd=reg, rs1=SP, simm13=slot))
        return CodeSnippet(words, alloc_regs=(t_ea,), clobbers_cc=True,
                           tag=("elsie.load", addr))

    def _store_snippet(self, instruction, addr=None):
        codec = self.exec.codec
        value_reg = instruction.field("rd")
        t_ea, t_val = scratch_regs(instruction, (9, 10))[:2]

        words = [
            effective_address(codec, instruction, t_ea),
            codec.encode("or", rd=t_val, rs1=0, rs2=value_reg),
            codec.encode("st", rd=8, rs1=SP, simm13=SPILL_O0),
            codec.encode("st", rd=9, rs1=SP, simm13=SPILL_O1),
            codec.encode("st", rd=10, rs1=SP, simm13=SPILL_O2),
            codec.encode("st", rd=1, rs1=SP, simm13=SPILL_G1),
            codec.encode("or", rd=8, rs1=0, rs2=t_ea),
            codec.encode("or", rd=9, rs1=0, rs2=t_val),
            codec.encode("or", rd=10, rs1=0, simm13=instruction.mem_width),
            codec.encode("or", rd=1, rs1=0, simm13=SYS_SIM_STORE),
            codec.encode("ta", trap_num=0),
            codec.encode("ld", rd=8, rs1=SP, simm13=SPILL_O0),
            codec.encode("ld", rd=9, rs1=SP, simm13=SPILL_O1),
            codec.encode("ld", rd=10, rs1=SP, simm13=SPILL_O2),
            codec.encode("ld", rd=1, rs1=SP, simm13=SPILL_G1),
        ]
        return CodeSnippet(words, alloc_regs=(t_ea, t_val),
                           clobbers_cc=True, tag=("elsie.store", addr))

    # ------------------------------------------------------------------
    def edit_cfg(self, routine, cfg):
        for block, index, addr, instruction in memory_sites(cfg):
            if instruction.is_load:
                snippet = self._load_snippet(instruction, addr)
            else:
                snippet = self._store_snippet(instruction, addr)
            block.add_code_before(index, snippet)
            block.delete_instruction(index)
            self.replaced += 1

    # ------------------------------------------------------------------
    def configure_simulator(self, simulator):
        """Install the memory-model traps on *simulator* (the tool's
        host hook, shared with the verify cosimulation oracle).
        Returns the stats dict the hooks accumulate into.
        """
        from repro.tools.active_memory import DirectMappedCache

        cache = DirectMappedCache()
        stats = {"loads": 0, "stores": 0, "memory_cycles": 0}
        memory = simulator.memory

        def sim_load(args):
            addr, width_code = args[0], args[1]
            width = width_code & 0xFF
            signed = bool(width_code & 0x100)
            stats["loads"] += 1
            stats["memory_cycles"] += 1
            if cache.access(addr) is not False:
                stats["memory_cycles"] += MISS_LATENCY
            return memory.load(addr, width, signed) & 0xFFFFFFFF

        def sim_store(args):
            addr, value, width = args[0], args[1], args[2]
            stats["stores"] += 1
            stats["memory_cycles"] += 1
            if cache.access(addr) is not False:
                stats["memory_cycles"] += MISS_LATENCY
            memory.store(addr, width, value)
            return 0

        simulator.syscalls.tool_hooks[SYS_SIM_LOAD] = sim_load
        simulator.syscalls.tool_hooks[SYS_SIM_STORE] = sim_store
        return stats

    def run(self, stdin_text=""):
        """Run inside the memory-system model; returns (simulator, stats)."""
        simulator = self.edited_simulator(stdin_text)
        stats = self.configure_simulator(simulator)
        simulator.run()
        return simulator, stats
