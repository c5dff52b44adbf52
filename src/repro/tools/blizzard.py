"""Blizzard-S: fine-grain access control for shared memory (sections 1, 5).

Blizzard implements cache-block-granularity distributed shared memory by
inserting access-control tests before shared loads and stores.  Each
32-byte block has a state byte: ReadWrite (0), ReadOnly (1), or
Invalid (2).  A load faults when the block is Invalid; a store faults
unless the block is ReadWrite.  Faults trap to a protocol handler that
"fetches" the block (here: a host hook standing in for the coherence
protocol).

Two fidelity points from the paper:

* the EEL version exploits **live-register analysis** to emit a faster
  test when the condition codes are dead (section 5); pass
  ``always_save_cc=True`` to measure the cost of not having liveness —
  the test then saves/restores %psr around every site;
* stack-pointer-relative accesses are filtered statically (private
  data), which the ad-hoc version could not do safely.
"""

from repro.sim.syscalls import SYS_FAULT
from repro.tools.common import (
    ADDR_BITS,
    BLOCK_SHIFT,
    TABLE_SIZE,
    RoutineEditor,
    memory_sites,
    state_test,
)

STATE_READWRITE = 0
STATE_READONLY = 1
STATE_INVALID = 2


class BlizzardAccessControl(RoutineEditor):
    """Insert fine-grain access-control tests before shared accesses."""

    def __init__(self, image, always_save_cc=False, initial_state=None,
                 only_routines=None):
        if image.arch != "sparc":
            raise ValueError("Blizzard tool currently targets SPARC")
        super().__init__(image, only_routines)
        self.always_save_cc = always_save_cc
        table = initial_state if initial_state is not None \
            else bytes(TABLE_SIZE)
        self.state_base = self.exec.add_data("__bz_state", TABLE_SIZE,
                                             initial=table)
        self.sites = 0

    def _is_private(self, instruction):
        """Static filter: stack-relative accesses are private data."""
        conventions = self.exec.conventions
        return instruction.field("rs1") in (conventions.sp_reg,
                                            conventions.fp_reg)

    def edit_cfg(self, routine, cfg):
        codec = self.exec.codec
        for block, index, addr, instruction in memory_sites(cfg, hoist=True):
            if self._is_private(instruction):
                continue
            # Loads tolerate ReadOnly; stores require ReadWrite.
            limit = STATE_READONLY if instruction.is_load \
                else STATE_READWRITE
            block.add_code_before(index, state_test(
                codec, instruction, addr, "blizzard.test", self.state_base,
                limit, "bleu", SYS_FAULT, save_cc=self.always_save_cc))
            self.sites += 1

    # ------------------------------------------------------------------
    def configure_simulator(self, simulator, protocol=None):
        """Attach a coherence-protocol stand-in to *simulator* (the
        tool's host hook); returns the list of faulting addresses.

        The default protocol records the fault and upgrades the block
        to ReadWrite (as if fetched with ownership).
        """
        faults = []
        state_base = self.state_base
        memory = simulator.memory

        def default_protocol(addr):
            faults.append(addr)
            block = (addr & ((1 << ADDR_BITS) - 1)) >> BLOCK_SHIFT
            memory.store(state_base + block, 1, STATE_READWRITE)
            return 0

        simulator.syscalls.fault_hook = protocol or default_protocol
        return faults

    def run(self, stdin_text="", protocol=None):
        """Run with a coherence-protocol stand-in attached."""
        simulator = self.edited_simulator(stdin_text)
        faults = self.configure_simulator(simulator, protocol)
        simulator.run()
        return simulator, faults
