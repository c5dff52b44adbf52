"""Backward slicing on the CFG (paper Figure 4 and section 3.3).

A backward slice from (block, index, register) collects the instructions
that contribute to that register's value.  Instructions are classified
as the paper does:

* **easy** — writes a sliced register and reads nothing (constants);
* **hard** — writes a sliced register and reads registers (slicing
  continues into those);
* **impossible** — the value flows through memory, a call boundary, or
  anything else the slicer cannot follow statically.

Tools reach it through ``CFG.backward_slice``.  The indirect-jump
analyzer does not use it: ``indirect._Evaluator.reg_before`` walks the
CFG backward on its own and evaluates each definition it meets.
"""


class Slice:
    """Result of a backward slice."""

    def __init__(self):
        self.easy = []  # (block, index)
        self.hard = []
        self.impossible = []
        self.members = set()  # (block id, index)
        self.visited_heads = set()  # (block id, register) to cut cycles

    @property
    def complete(self):
        return not self.impossible

    def instructions(self):
        """All slice members, easy then hard."""
        return list(self.easy) + list(self.hard)


def backward_slice(cfg, block, index, reg, slice_=None, max_depth=64):
    """Slice backward from just before (block, index) for *reg*."""
    if slice_ is None:
        slice_ = Slice()
    _slice_in_block(cfg, block, index - 1, reg, slice_, max_depth)
    return slice_


def _slice_in_block(cfg, block, start_index, reg, slice_, depth):
    if depth <= 0:
        slice_.impossible.append((block, max(start_index, 0)))
        return
    index = start_index
    while index >= 0:
        addr, instruction = block.instructions[index]
        if instruction.writes_register(reg):
            key = (block.id, index)
            if key in slice_.members:
                return
            slice_.members.add(key)
            reads = instruction.reads()
            if instruction.is_memory or instruction.is_call \
                    or instruction.is_system:
                # Value came through memory or a call: cannot slice further
                # in general.  (Dispatch-table loads are special-cased by
                # the indirect-jump analyzer, which still records them.)
                if instruction.is_load:
                    slice_.hard.append((block, index))
                    for read_reg in reads:
                        _continue_before(cfg, block, index, read_reg, slice_,
                                         depth)
                else:
                    slice_.impossible.append((block, index))
                return
            if not reads:
                slice_.easy.append((block, index))
            else:
                slice_.hard.append((block, index))
                for read_reg in reads:
                    _continue_before(cfg, block, index, read_reg, slice_,
                                     depth)
            return
        index -= 1
    # Not defined in this block: continue into predecessors.
    head_key = (block.id, reg)
    if head_key in slice_.visited_heads:
        return
    slice_.visited_heads.add(head_key)
    predecessors = [edge.src for edge in block.pred]
    if not predecessors:
        # Reached the routine entry: the register is a parameter or
        # caller state; the slice cannot determine it.
        slice_.impossible.append((block, 0))
        return
    for predecessor in predecessors:
        if predecessor.kind == "surrogate":
            # The value crosses a call: unanalyzable.
            slice_.impossible.append((predecessor, 0))
            continue
        if predecessor.kind == "entry":
            slice_.impossible.append((predecessor, 0))
            continue
        _slice_in_block(cfg, predecessor, len(predecessor.instructions) - 1,
                        reg, slice_, depth - 1)


def _continue_before(cfg, block, index, reg, slice_, depth):
    _slice_in_block(cfg, block, index - 1, reg, slice_, depth - 1)
