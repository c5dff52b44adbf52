"""EEL instructions: machine-independent views of machine words.

The class hierarchy mirrors the paper's section 3.4 categories (and the
dispatch in Figure 6).  Instances are flyweights: one EEL instruction
object represents every occurrence of a machine word, which is the
paper's factor-of-four space optimization.  Allocation statistics are
kept so the experiment can be reproduced (benchmarks/E4, E9).
"""

from repro.isa.base import Category

# Global allocation statistics for the flyweight experiment.
_STATS = {"requests": 0, "allocated": 0}


def allocation_stats():
    """(requests, allocated): how often sharing avoided an allocation."""
    return _STATS["requests"], _STATS["allocated"]


def reset_allocation_stats():
    _STATS["requests"] = 0
    _STATS["allocated"] = 0


class Instruction:
    """Base EEL instruction.

    Wraps a decoded machine word and answers machine-independent
    inquiries: which registers it reads/writes, whether it transfers
    control, how wide its memory access is, and so on (paper Figure 4
    shows these inquiries in use).
    """

    __slots__ = ("codec", "inst")

    def __init__(self, codec, decoded):
        self.codec = codec
        self.inst = decoded

    # -- identity ---------------------------------------------------------
    @property
    def word(self):
        return self.inst.word

    @property
    def name(self):
        return self.inst.name

    @property
    def category(self):
        return self.inst.category

    # -- register effects ---------------------------------------------------
    def reads(self):
        """Registers this instruction reads."""
        return self.inst.reads

    def writes(self):
        """Registers this instruction writes."""
        return self.inst.writes

    def reads_register(self, reg):
        return reg in self.inst.reads

    def writes_register(self, reg):
        return reg in self.inst.writes

    # -- classification -------------------------------------------------------
    @property
    def is_valid(self):
        return self.inst.category is not Category.INVALID

    @property
    def is_control(self):
        return self.inst.category.is_control

    @property
    def is_call(self):
        return self.inst.category in (Category.CALL, Category.CALL_INDIRECT)

    @property
    def is_branch(self):
        return self.inst.category is Category.BRANCH

    @property
    def is_jump(self):
        return self.inst.category in (Category.JUMP, Category.JUMP_INDIRECT)

    @property
    def is_indirect(self):
        return self.inst.category in (
            Category.JUMP_INDIRECT,
            Category.CALL_INDIRECT,
        )

    @property
    def is_return(self):
        return self.inst.category is Category.RETURN

    @property
    def is_system(self):
        return self.inst.category is Category.SYSTEM

    @property
    def is_load(self):
        return self.inst.category is Category.LOAD

    @property
    def is_store(self):
        return self.inst.category is Category.STORE

    @property
    def is_memory(self):
        return self.inst.category.is_memory

    @property
    def mem_width(self):
        return self.inst.mem_width

    # -- delayed control flow -------------------------------------------------
    @property
    def is_delayed(self):
        return self.inst.is_delayed

    @property
    def annul_untaken(self):
        return self.inst.annul_untaken

    @property
    def cond(self):
        return self.inst.cond

    @property
    def is_conditional(self):
        """A branch that can fall through (bn/ba are not conditional)."""
        return self.is_branch and self.inst.cond not in ("a", "n")

    # -- targets ------------------------------------------------------------
    def target(self, pc):
        """Static target when executed at *pc*, or None if computed."""
        return self.codec.control_target(self.inst, pc)

    def field(self, name):
        return self.inst.get_field(name)

    def has_field(self, name):
        return self.inst.has_field(name)

    def disassemble(self, pc=None):
        return self.codec.disassemble(self.inst.word, pc)

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, self.disassemble())


class CallInstruction(Instruction):
    __slots__ = ()


class IndirectCallInstruction(Instruction):
    __slots__ = ()


class JumpInstruction(Instruction):
    __slots__ = ()


class IndirectJumpInstruction(Instruction):
    __slots__ = ()


class BranchInstruction(Instruction):
    __slots__ = ()


class ReturnInstruction(Instruction):
    __slots__ = ()


class SystemCallInstruction(Instruction):
    __slots__ = ()


class MemoryLoadInstruction(Instruction):
    __slots__ = ()


class MemoryStoreInstruction(Instruction):
    __slots__ = ()


class ComputationInstruction(Instruction):
    __slots__ = ()


class InvalidInstruction(Instruction):
    __slots__ = ()


_CLASS_FOR_CATEGORY = {
    Category.CALL: CallInstruction,
    Category.CALL_INDIRECT: IndirectCallInstruction,
    Category.JUMP: JumpInstruction,
    Category.JUMP_INDIRECT: IndirectJumpInstruction,
    Category.BRANCH: BranchInstruction,
    Category.RETURN: ReturnInstruction,
    Category.SYSTEM: SystemCallInstruction,
    Category.LOAD: MemoryLoadInstruction,
    Category.STORE: MemoryStoreInstruction,
    Category.COMPUTE: ComputationInstruction,
    Category.INVALID: InvalidInstruction,
}

# Flyweight caches, one per codec.
_CACHES = {}


def instruction_for(codec, word, share=True):
    """Make (or reuse) the EEL instruction for machine *word*.

    This is the analog of the spawn-generated ``mach_inst_make_instruction``
    in paper Figure 6.  With ``share=False`` every request allocates (the
    baseline for the sharing experiment).
    """
    _STATS["requests"] += 1
    if share:
        cache = _CACHES.setdefault(id(codec), {})
        cached = cache.get(word)
        if cached is not None:
            return cached
    decoded = codec.decode(word)
    instruction = _CLASS_FOR_CATEGORY[decoded.category](codec, decoded)
    _STATS["allocated"] += 1
    if share:
        cache[word] = instruction
    return instruction


def flyweights_for(codec, words):
    """``{word: instruction}`` for the distinct *words*: what
    :func:`instruction_for` returns for each (and counts as one request
    each), with the shared ones looked up in bulk."""
    cache = _CACHES.setdefault(id(codec), {})
    flyweights = {word: cache.get(word) for word in words}
    missing = [word for word, inst in flyweights.items() if inst is None]
    _STATS["requests"] += len(flyweights) - len(missing)
    for word in missing:
        flyweights[word] = instruction_for(codec, word)
    return flyweights


def clear_caches():
    _CACHES.clear()
