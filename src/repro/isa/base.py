"""Architecture-neutral interfaces of the machine layer.

EEL divides instructions into functional categories and asks a small set of
questions about each (paper section 3.4).  :class:`DecodedInst` is the answer
record a codec produces for one machine word; :class:`MachineCodec` is the
decode/encode interface; :class:`MachineConventions` captures the
system-dependent knowledge (stack pointer, spill code, snippet fragments)
that EEL's machine-independent core parameterizes over.
"""

import enum
from dataclasses import dataclass, field

from repro.isa import bits


class Category(enum.Enum):
    """Functional categories of instructions (paper section 3.4, Figure 6)."""

    CALL = "call"  # direct subroutine call
    CALL_INDIRECT = "call_indirect"  # call through a register
    JUMP = "jump"  # direct unconditional jump
    JUMP_INDIRECT = "jump_indirect"  # jump through a register
    BRANCH = "branch"  # conditional direct branch
    RETURN = "return"  # subroutine return
    SYSTEM = "system"  # trap / system call
    LOAD = "load"  # memory read
    STORE = "store"  # memory write
    COMPUTE = "compute"  # everything else that is valid
    INVALID = "invalid"  # not an instruction (data)

    @property
    def is_control(self):
        return self in _CONTROL_CATEGORIES

    @property
    def is_memory(self):
        return self in (Category.LOAD, Category.STORE)


_CONTROL_CATEGORIES = frozenset(
    {
        Category.CALL,
        Category.CALL_INDIRECT,
        Category.JUMP,
        Category.JUMP_INDIRECT,
        Category.BRANCH,
        Category.RETURN,
        Category.SYSTEM,
    }
)


class RegisterSet:
    """Names and roles of an architecture's registers.

    Registers are identified by small ints.  Integer registers come first
    (0 .. num_int - 1); special registers (condition codes, Y/HI/LO, ...)
    follow.  ``zero_regs`` are hardwired-zero registers that are never live
    and whose writes are discarded.
    """

    def __init__(self, arch, int_names, special_names, zero_regs=()):
        self.arch = arch
        self.num_int = len(int_names)
        self._names = tuple(int_names) + tuple(special_names)
        self.num_total = len(self._names)
        self.zero_regs = frozenset(zero_regs)
        self._by_name = {}
        for index, name in enumerate(self._names):
            self._by_name[name] = index

    def name(self, reg):
        return self._names[reg]

    def number(self, name):
        return self._by_name[name]

    def __contains__(self, name):
        return name in self._by_name

    def all_registers(self):
        return range(self.num_total)

    def int_registers(self):
        return range(self.num_int)


def register_mask(regs):
    """Bit mask with bit *r* set for every register number *r* in *regs*."""
    mask = 0
    for reg in regs:
        mask |= 1 << reg
    return mask


@dataclass(frozen=True)
class DecodedInst:
    """Machine-independent description of one decoded machine word.

    Instances are interned by the codec: one object represents every
    occurrence of a given 32-bit word (paper section 3.4's factor-of-four
    space optimization), so no positional state lives here.
    """

    word: int
    name: str
    category: Category
    fields: tuple  # sorted (field_name, value) pairs
    reads: frozenset
    writes: frozenset
    is_delayed: bool = False  # has an architectural delay slot
    annul_untaken: bool = False  # delay slot annulled when branch not taken
    mem_width: int = 0  # bytes accessed, for LOAD/STORE
    mem_signed: bool = False
    cond: str = ""  # condition mnemonic for branches
    operands: tuple = field(default=())  # disassembly operand text

    def __post_init__(self):
        # Field dict for hot paths (simulator dispatch); fields stays a
        # tuple so the dataclass remains hashable.
        object.__setattr__(self, "f", dict(self.fields))
        # Register sets as bit masks for bitset dataflow (liveness),
        # computed once per interned word like the field dict.
        object.__setattr__(self, "read_mask", register_mask(self.reads))
        object.__setattr__(self, "write_mask", register_mask(self.writes))

    def get_field(self, name):
        return self.f[name]

    def has_field(self, name):
        return name in self.f

    @property
    def is_valid(self):
        return self.category is not Category.INVALID

    @property
    def is_control(self):
        return self.category.is_control

    @property
    def is_conditional(self):
        return self.category is Category.BRANCH

    def reads_register(self, reg):
        return reg in self.reads

    def writes_register(self, reg):
        return reg in self.writes


class SpanError(Exception):
    """A control-transfer displacement does not fit in its field.

    Layout catches this and substitutes a longer-span snippet
    (paper section 3.3.1).
    """


class MachineCodec:
    """Decode and encode machine words for one architecture.

    Subclasses (handwritten or spawn-generated) fill in ``_decode_uncached``
    and the encode tables.  ``decode`` interns results so that all instances
    of a machine word share one :class:`DecodedInst`.
    """

    arch = None
    regs = None
    word_size = 4

    def __init__(self):
        self._decode_cache = {}
        self.decode_calls = 0  # statistics for the flyweight experiment

    def decode(self, word):
        """Decode *word*, returning an interned :class:`DecodedInst`."""
        self.decode_calls += 1
        word = bits.to_u32(word)
        inst = self._decode_cache.get(word)
        if inst is None:
            inst = self._decode_uncached(word)
            self._decode_cache[word] = inst
        return inst

    @property
    def distinct_decoded(self):
        """Number of distinct instruction objects allocated so far."""
        return len(self._decode_cache)

    def reset_statistics(self):
        self.decode_calls = 0
        self._decode_cache.clear()

    # -- subclass responsibilities -------------------------------------
    def _decode_uncached(self, word):
        raise NotImplementedError

    def encode(self, name, **fields):
        """Encode instruction *name* with the given field values."""
        raise NotImplementedError

    def control_target(self, inst, pc):
        """Static target address of a direct control transfer, else None."""
        raise NotImplementedError

    def with_control_target(self, word, pc, target):
        """Re-encode *word* (at *pc*) so its displacement reaches *target*.

        Raises :class:`SpanError` when the displacement does not fit.
        """
        raise NotImplementedError

    def disassemble(self, word, pc=None):
        """Human-readable text for one machine word."""
        raise NotImplementedError

    @property
    def nop_word(self):
        raise NotImplementedError


class MachineConventions:
    """System-dependent conventions and code fragments (paper section 4).

    Everything EEL's core or the portable tools need that depends on the
    architecture or OS lives behind this interface: register roles, code
    snippets for counters and spills, and long-span jump sequences.
    All code-producing methods return lists of machine words.
    """

    arch = None

    @classmethod
    def instance(cls):
        if getattr(cls, "_instance", None) is None:
            cls._instance = cls()
        return cls._instance

    @property
    def codec(self):
        raise NotImplementedError

    # -- register roles -------------------------------------------------
    sp_reg = None
    retaddr_reg = None
    retval_reg = None
    syscall_num_reg = None
    arg_regs = ()
    scavenge_candidates = ()  # registers snippets may scavenge when dead
    cc_regs = frozenset()  # condition-code pseudo registers

    # -- code fragments ---------------------------------------------------
    def load_const(self, reg, value):
        """Words that load the 32-bit constant *value* into *reg*."""
        raise NotImplementedError

    def counter_increment(self, counter_addr, tmp_addr_reg, tmp_val_reg):
        """Words that increment the 32-bit counter at *counter_addr*.

        This is the Figure 5 snippet body; the two temporaries are
        placeholders that EEL's register allocator rebinds.
        """
        raise NotImplementedError

    def spill(self, reg, slot):
        """Words that save *reg* to scratch slot *slot* (below the stack)."""
        raise NotImplementedError

    def unspill(self, reg, slot):
        """Words that restore *reg* from scratch slot *slot*."""
        raise NotImplementedError

    def long_jump(self, scratch_reg, target):
        """Words for an unconditional jump of unlimited span via *scratch_reg*."""
        raise NotImplementedError

    def direct_jump(self, pc, target):
        """One-word direct jump from *pc* to *target* (may raise SpanError)."""
        raise NotImplementedError

    def rebind_registers(self, words, mapping):
        """Rewrite register numbers in snippet *words* per *mapping*.

        *mapping* maps placeholder register numbers to allocated ones.
        Used by snippet register allocation (paper section 3.5).
        """
        raise NotImplementedError
