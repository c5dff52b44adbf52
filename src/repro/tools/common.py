"""What EEL-based tools share: the edit loop of the paper's Figure 1,
counter snippets, and the memory-reference helpers of the SPARC
memory-system tools (SFI, Elsie, Active Memory, Blizzard-S)."""

from repro.core import Executable
from repro.core.snippet import CodeSnippet, TaggedCodeSnippet

SP = 14  # %sp; the memory-system tools target SPARC only

# Tool spill slots below the stack pointer, distinct from EEL's own
# spill area (which starts at -64 and grows down a few words).
SPILL_O0 = -120
SPILL_O1 = -116
SPILL_O2 = -112
SPILL_G1 = -124

# Per-block state tables (Active Memory, Blizzard-S): one byte per
# 32-byte block of a wrapped 16MB address space.
BLOCK_SHIFT = 5
ADDR_BITS = 24
TABLE_SIZE = 1 << (ADDR_BITS - BLOCK_SHIFT)


def routine_filter(executable, only_routines):
    """Validated name set for selective instrumentation, or None.

    ``None`` means "instrument everything" (the default).  A routine
    name that does not exist in *executable* is a caller mistake and
    raises ``ValueError`` — a silent no-op would read as success.
    """
    if only_routines is None:
        return None
    names = {str(name) for name in only_routines}
    known = {routine.name for routine in executable.all_routines()}
    unknown = sorted(names - known)
    if unknown:
        raise ValueError("unknown routines: %s" % ", ".join(unknown))
    return names


class RoutineEditor:
    """An editing session over one image, edited routine by routine.

    Subclasses supply :meth:`edit_cfg`, the tool's per-routine body;
    everything around it (routine selection, the delay-slot rule,
    producing the edited routine, the finished image) lives here once.
    """

    def __init__(self, image, only_routines=None):
        self.exec = Executable(image)
        self.exec.read_contents()
        self.only = routine_filter(self.exec, only_routines)

    def edit_cfg(self, routine, cfg):
        raise NotImplementedError

    def edit_routine(self, routine):
        """Edit *routine* unless it is filtered out or uneditable."""
        if self.only is not None and routine.name not in self.only:
            return
        cfg = routine.control_flow_graph()
        if not cfg.cti_in_slot:
            # Paper §3.1: a CTI in a delay slot is un-editable
            # delayed-delayed flow; such a routine stays in place.
            self.edit_cfg(routine, cfg)
            routine.produce_edited_routine()
        routine.delete_control_flow_graph()

    def instrument(self):
        """Edit every selected routine; returns the session."""
        for routine in self.exec.all_routines():
            self.edit_routine(routine)
        return self

    def edited_image(self):
        image = self.exec.edited_image()
        image.entry = self.exec.edited_addr(self.exec.start_address())
        return image

    def write(self, path):
        entry = self.exec.edited_addr(self.exec.start_address())
        return self.exec.write_edited_executable(path, entry)

    def edited_simulator(self, stdin_text=""):
        """A simulator of the edited image whose heap starts at the
        original image's break, as on cosim's edited side, so heap
        addresses match an unedited run."""
        from repro.sim.machine import Simulator, initial_break

        return Simulator(self.edited_image(), stdin_text=stdin_text,
                         brk_base=initial_break(self.exec.image))


class CounterArray:
    """A block of 32-bit counters in fresh data space."""

    def __init__(self, executable, name, count_hint=4096):
        self.executable = executable
        self.name = name
        self.base = executable.add_data(name, 4 * count_hint)
        self.capacity = count_hint
        self.used = 0
        self.meaning = []  # caller-defined descriptor per counter

    def allocate(self, descriptor):
        """Reserve one counter; returns its index."""
        if self.used >= self.capacity:
            raise ValueError("counter array %s exhausted" % self.name)
        index = self.used
        self.used += 1
        self.meaning.append(descriptor)
        return index

    def address(self, index):
        return self.base + 4 * index

    def read(self, simulator):
        """Counter values after a simulated run."""
        return [simulator.memory.load_word(self.address(i))
                for i in range(self.used)]


def counter_snippet(executable, counter_addr, tag=None):
    """The Figure 5 snippet: increment the counter at *counter_addr*.

    Uses the conventions' placeholder registers; EEL's register
    allocator rebinds them to dead registers at the insertion point.
    Every snippet carries a provenance tag (the verify subsystem
    surfaces it when a divergence points into instrumented code);
    callers that don't pass one get the counter address as a fallback.
    """
    conventions = executable.conventions
    p0, p1 = conventions.placeholder_regs[0], conventions.placeholder_regs[1]
    words = conventions.counter_increment(counter_addr, p0, p1)
    if tag is None:
        tag = ("counter", counter_addr)
    return TaggedCodeSnippet(words, alloc_regs=(p0, p1), tag=tag)


# ----------------------------------------------------------------------
# Memory references (SPARC)
# ----------------------------------------------------------------------

def memory_sites(cfg, hoist=False):
    """``(block, index, addr, instruction)``: where to edit before each
    memory reference of *cfg*.

    References in uneditable blocks are skipped, unless *hoist* moves
    one out of an uneditable delay slot (after a call or return): the
    paper's advice is to "find an alternative location to edit (e.g.,
    before the call)", so the site becomes the CTI of an editable
    predecessor — sound as long as the CTI does not write the
    reference's address registers.
    """
    for block in cfg.blocks:
        for index, (addr, instruction) in enumerate(block.instructions):
            if not instruction.is_memory:
                continue
            if block.editable:
                yield block, index, addr, instruction
                continue
            if not hoist:
                continue
            parent = next((edge.src for edge in block.pred
                           if edge.src.editable
                           and edge.src.kind == "normal"), None)
            if parent is None:
                continue
            cti_index = len(parent.instructions) - 1
            cti = parent.instructions[cti_index][1]
            if instruction.reads() & cti.writes():
                continue  # cannot hoist; accept the blind spot
            yield parent, cti_index, addr, instruction


def scratch_regs(instruction, pinned=()):
    """Placeholder registers (``%l0``-``%l7``) for a snippet before
    *instruction*: none that it reads (its first word embeds them and
    rebinding rewrites placeholders wherever they appear), nor
    ``%o0``, ``%g1``, ``%sp`` (the trap path's) or *pinned*."""
    avoid = instruction.reads() | {8, 1, SP} | set(pinned)
    return [reg for reg in range(16, 24) if reg not in avoid]


def effective_address(codec, instruction, rd):
    """The ``add`` computing *instruction*'s effective address into
    *rd*."""
    fields = {"rd": rd, "rs1": instruction.field("rs1")}
    if instruction.has_field("simm13"):
        fields["simm13"] = instruction.field("simm13")
    else:
        fields["rs2"] = instruction.field("rs2")
    return codec.encode("add", **fields)


def trap_to_host(codec, address_reg, syscall):
    """Trap to host syscall *syscall* with *address_reg* in ``%o0``,
    keeping ``%o0`` and ``%g1`` (seven words)."""
    return [
        codec.encode("st", rd=8, rs1=SP, simm13=SPILL_O0),
        codec.encode("st", rd=1, rs1=SP, simm13=SPILL_G1),
        codec.encode("or", rd=8, rs1=0, rs2=address_reg),
        codec.encode("or", rd=1, rs1=0, simm13=syscall),
        codec.encode("ta", trap_num=0),
        codec.encode("ld", rd=8, rs1=SP, simm13=SPILL_O0),
        codec.encode("ld", rd=1, rs1=SP, simm13=SPILL_G1),
    ]


def state_test(codec, instruction, addr, tag, table, limit, permitted,
               syscall, save_cc=False):
    """The inline test Active Memory and Blizzard-S put before a memory
    reference: load the state byte of the referenced block from the
    table at *table*; unless branch *permitted* is taken on
    ``state - limit``, trap to host *syscall* with the address.

    With *save_cc* the test saves and restores ``%psr`` itself (what a
    tool without live-register analysis must do) instead of leaving
    the condition codes to EEL.  The snippet is tagged with the tool's
    *tag* and the reference's address *addr*.
    """
    temps = scratch_regs(instruction)[:4 if save_cc else 3]
    ea, index, state = temps[:3]
    words = [
        effective_address(codec, instruction, ea),
        codec.encode("sll", rd=index, rs1=ea, simm13=32 - ADDR_BITS),
        codec.encode("srl", rd=index, rs1=index,
                     simm13=(32 - ADDR_BITS) + BLOCK_SHIFT),
        codec.encode("sethi", rd=state, imm22=table >> 10),
        codec.encode("ldub", rd=state, rs1=state, rs2=index),
        codec.encode("subcc", rd=0, rs1=state, simm13=limit),
        codec.encode(permitted, disp22=9),  # skip the trap path
        codec.nop_word,
    ] + trap_to_host(codec, ea, syscall)
    if save_cc:
        words = ([codec.encode("rdpsr", rd=temps[3])] + words
                 + [codec.encode("wrpsr", rs1=temps[3])])
    return CodeSnippet(words, alloc_regs=temps, clobbers_cc=not save_cc,
                       tag=(tag, addr))
