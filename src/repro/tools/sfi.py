"""Software fault isolation (sandboxing), after Wahbe et al. (section 1).

Stores are checked against the allowed segments before executing.  An
access outside the sandbox traps to the fault handler instead of
corrupting foreign state.

Allowed segments (by high address byte): the program's static data /
heap segment (byte 0x00, addresses below 16MB) and the stack segment
(byte 0x7f).  The tool's own spill slots are stack-relative and
therefore always permitted.
"""

from repro.core.snippet import CodeSnippet
from repro.sim.syscalls import ProtectionFault, SYS_FAULT
from repro.tools.common import (
    RoutineEditor,
    effective_address,
    memory_sites,
    scratch_regs,
    trap_to_host,
)

DATA_SEGMENT_BYTE = 0x00
STACK_SEGMENT_BYTE = 0x7F


class Sandboxer(RoutineEditor):
    """Insert store sandboxing checks."""

    def __init__(self, image, only_routines=None):
        if image.arch != "sparc":
            raise ValueError("SFI tool currently targets SPARC")
        super().__init__(image, only_routines)
        self.sites = 0

    def _check_snippet(self, instruction, addr=None):
        codec = self.exec.codec
        t_ea, t_seg = scratch_regs(instruction)[:2]
        words = [
            effective_address(codec, instruction, t_ea),
            codec.encode("srl", rd=t_seg, rs1=t_ea, simm13=24),
            codec.encode("subcc", rd=0, rs1=t_seg,
                         simm13=DATA_SEGMENT_BYTE),
            codec.encode("be", disp22=12),  # data segment: permitted
            codec.nop_word,
            codec.encode("subcc", rd=0, rs1=t_seg,
                         simm13=STACK_SEGMENT_BYTE),
            codec.encode("be", disp22=9),  # stack segment: permitted
            codec.nop_word,
        ] + trap_to_host(codec, t_ea, SYS_FAULT)
        return CodeSnippet(words, alloc_regs=(t_ea, t_seg), clobbers_cc=True,
                           tag=("sfi.store_check", addr))

    def edit_cfg(self, routine, cfg):
        for block, index, addr, instruction in memory_sites(cfg):
            if instruction.is_store:
                block.add_code_before(
                    index, self._check_snippet(instruction, addr))
                self.sites += 1

    def run(self, stdin_text="", on_fault=None):
        """Run sandboxed; violations raise ProtectionFault by default."""
        simulator = self.edited_simulator(stdin_text)
        if on_fault is not None:
            simulator.syscalls.fault_hook = on_fault
        try:
            simulator.run()
            violation = None
        except ProtectionFault as fault:
            violation = fault.addr
        return simulator, violation
