"""Symbol-table refinement (paper section 3.1).

Symbol tables are incomplete or misleading: compilers hide routines,
put data tables in the text segment, and record only primary entry
points.  Refinement proceeds in the paper's four stages:

1. prune duplicate/temporary/internal labels from the symbol table to
   form the initial routine set;
2. for stripped executables, seed with the program entry point, the
   first text address, and the targets of direct calls;
3. find calls and jumps that leave their routine: their destinations
   become entry points (or new hidden routines);
4. build CFGs: reachable-but-invalid instructions mark data; dispatch
   tables claimed by indirect-jump analysis are excluded; valid
   unreachable suffixes become hidden-routine candidates.
"""

import bisect
import re

from repro.binfmt.image import BIND_GLOBAL, SYM_FUNC
from repro.isa.base import Category
from repro.obs import metrics as _metrics
from repro.obs.trace import phase as _phase
from repro.obs.trace import span as _span

# Compiler-temporary label pattern (".L12", "L5", ".Lcase3", ...).
# Requires the compiler-temp *shape* — a dot-L prefix, or a bare L
# followed by a digit.  A plain "^\.?L" would also prune genuine
# routines whose names merely start with L (e.g. ``List_append``),
# silently demoting them to hidden routines.
_TEMP_LABEL = re.compile(r"^(\.L|L\d)")

# Control transfers whose static targets refinement follows.
_DIRECT_CATEGORIES = (Category.CALL, Category.JUMP, Category.BRANCH)

_C_ROUTINES = _metrics.counter("refine.routines")
_C_HIDDEN = _metrics.counter("refine.hidden")
_C_STRIPPED = _metrics.counter("refine.stripped_seeds")
_phase("refine.stage1_symtab", "phase.refine.symtab")
_phase("refine.stage2_stripped", "phase.refine.stripped")
_phase("refine.stage3_interproc", "phase.refine.interproc")
_phase("refine.stage4_cfg", "phase.refine.cfg")


def refine_symbol_table(executable):
    """Run all refinement stages; returns (routines, hidden_routines)."""
    transfers = _direct_transfers(executable)
    with _span("refine.stage1_symtab"):
        named = _stage1_initial_set(executable)
    if not named:
        with _span("refine.stage2_stripped"):
            named = _stage2_stripped_seed(executable, transfers)
            _C_STRIPPED.inc(len(named))
    with _span("refine.stage3_interproc"):
        routines = _make_routines(executable, named)
        hidden = _stage3_interprocedural(executable, routines, transfers)
    with _span("refine.stage4_cfg"):
        _stage4_cfg_feedback(executable, routines, hidden, transfers)
    _C_ROUTINES.inc(len(routines))
    _C_HIDDEN.inc(len(hidden))
    return routines, hidden


# ----------------------------------------------------------------------
def _stage1_initial_set(executable):
    """Initial routine set from the (pruned) symbol table."""
    image = executable.image
    text = image.sections.get(".text")
    if text is None:
        return {}
    best = {}  # addr -> (rank, name): lowest rank wins
    for symbol in image.symbols:
        if symbol.section != ".text":
            continue
        addr = symbol.value
        if addr % 4 or not text.contains(addr):
            continue  # not on an instruction boundary
        if symbol.kind == "label" or _TEMP_LABEL.match(symbol.name):
            continue  # temporary/internal label
        if symbol.kind == "object":
            continue  # data-in-text marker, not a routine
        # Aliases at one address: prefer function-kind over other
        # kinds, global binding over local, then the lexically first
        # name — deterministic whatever order the symbol table
        # happens to be in, instead of first-iterated-wins.
        rank = (0 if symbol.kind == SYM_FUNC else 1,
                0 if symbol.binding == BIND_GLOBAL else 1,
                symbol.name)
        if addr not in best or rank < best[addr]:
            best[addr] = rank
    return {addr: rank[2] for addr, rank in best.items()}


def _stage2_stripped_seed(executable, transfers):
    """Stripped executable: entry point, first text address, call targets."""
    image = executable.image
    text = image.sections.get(".text")
    named = {}
    if text is None:
        return named
    named[text.vaddr] = "text_start"
    if text.contains(image.entry):
        named.setdefault(image.entry, "entry")
    for _addr, category, target in transfers:
        if category is Category.CALL and text.contains(target):
            named.setdefault(target, "hidden_0x%x" % target)
    return named


def _make_routines(executable, named):
    from repro.core.routine import Routine

    text = executable.image.sections[".text"]
    starts = sorted(named)
    routines = []
    for index, start in enumerate(starts):
        end = starts[index + 1] if index + 1 < len(starts) else text.end
        routines.append(Routine(executable, named[start], start, end))
    return routines


def _direct_transfers(executable):
    """``(addr, category, target)`` for every call, jump, and branch in
    ``.text`` with a static target, in address order — read once from
    the decoded text table and shared by stages 2-4."""
    transfers = []
    for addr, instruction in executable.text_table().items():
        category = instruction.category
        if category in _DIRECT_CATEGORIES:
            target = instruction.target(addr)
            if target is not None:
                transfers.append((addr, category, target))
    return transfers


# ----------------------------------------------------------------------
def _stage3_interprocedural(executable, routines, transfers):
    """Direct calls/jumps leaving a routine.

    A target inside another routine is resolved in stage 4: it becomes a
    new hidden routine when the containing routine's own code never
    reaches it, or an additional entry point (the Fortran ENTRY case)
    when it does.  Here we only materialize targets that fall outside
    every known routine.
    """
    from repro.core.routine import Routine

    hidden = []
    for _ in range(8):  # until no new routine appears
        new_targets = set()
        containing = _locator(routines + hidden)
        for addr, _category, target in transfers:
            source = containing(addr)
            if source is None or source.contains(target):
                continue
            if containing(target) is None \
                    and executable.is_text_address(target):
                new_targets.add(target)
        if not new_targets:
            break
        for target in sorted(new_targets):
            if containing(target) is not None:
                continue
            hidden.append(
                Routine(executable, "hidden_0x%x" % target, target,
                        _next_boundary(routines + hidden, executable,
                                       target),
                        hidden=True)
            )
            containing = _locator(routines + hidden)
        _fix_extents(routines, hidden, executable)
    return hidden


def _routine_map(routines):
    return {routine.start: routine for routine in routines}


def _locator(routines):
    """``containing(addr)`` over non-overlapping *routines*: the
    routine holding *addr*, or None, by bisecting sorted starts."""
    ordered = sorted(routines, key=lambda r: r.start)
    starts = [routine.start for routine in ordered]

    def containing(addr):
        index = bisect.bisect_right(starts, addr) - 1
        if index >= 0 and ordered[index].contains(addr):
            return ordered[index]
        return None

    return containing


def _adjacent(a, b):
    return a.end == b.start or b.end == a.start


def _next_boundary(routines, executable, addr):
    text = executable.image.sections[".text"]
    candidates = [r.start for r in routines if r.start > addr]
    return min(candidates) if candidates else text.end


def _fix_extents(routines, hidden, executable):
    """Recompute extents so routines end at the next routine start."""
    text = executable.image.sections[".text"]
    everyone = sorted(routines + hidden, key=lambda r: r.start)
    for index, routine in enumerate(everyone):
        end = everyone[index + 1].start if index + 1 < len(everyone) \
            else text.end
        if routine.end != end:
            routine.end = end
            routine.delete_control_flow_graph()


# ----------------------------------------------------------------------
def _stage4_cfg_feedback(executable, routines, hidden, transfers):
    """Build CFGs; their analysis refines the routine set.

    Dispatch tables found by slicing are claimed as data; escaping
    direct transfers add entry points; a routine whose very first
    instruction is invalid is a data table masquerading as a routine.
    """
    from repro.core.routine import Routine

    # Interprocedural targets landing inside other routines, from the
    # text scan: call targets and direct-jump targets.
    inbound = {}  # target addr -> True (call-like)
    for _addr, category, target in transfers:
        if category is not Category.BRANCH:
            inbound.setdefault(target, True)

    for _ in range(256):  # each split makes progress; generous cap
        changed = False
        everyone = sorted(routines + hidden, key=lambda r: r.start)
        containing = _locator(everyone)
        for routine in everyone:
            if not executable.instruction_at(routine.start).is_valid:
                routine.is_data = True
                continue
            cfg = routine.control_flow_graph()
            # Escaping direct transfers (incl. tail-call literal jumps)
            # land in other routines: record as inbound targets.
            for block in cfg.blocks:
                for edge in block.succ:
                    if edge.kind != "escape" or edge.escape_target is None:
                        continue
                    target = edge.escape_target
                    container = containing(target)
                    if container is not None and container is not routine \
                            and target != container.start \
                            and target not in inbound:
                        inbound[target] = True
                        changed = True
            if _split_or_enter(executable, routine, cfg, inbound, hidden):
                changed = True
                break  # re-sort and restart the scan
            # Unreachable instructions at the END of a routine comprise
            # another (hidden) routine — the paper's stage 4 rule.
            suffix = _unreached_suffix(routine, cfg)
            if suffix is not None:
                if executable.instruction_at(suffix).is_valid:
                    hidden.append(Routine(executable,
                                          "hidden_0x%x" % suffix,
                                          suffix, routine.end, hidden=True))
                    routine.end = suffix
                    routine.delete_control_flow_graph()
                    changed = True
                    break
        if not changed:
            break
    # Drop pseudo-routines that turned out to be data.
    for collection in (routines, hidden):
        collection[:] = [r for r in collection
                         if not getattr(r, "is_data", False)]


def _split_or_enter(executable, routine, cfg, inbound, hidden):
    """Resolve interprocedural targets landing inside *routine*.

    Unreached target -> new hidden routine split off at the target;
    reached target -> additional entry point (Fortran ENTRY style).
    Returns True when the routine set changed.
    """
    from repro.core.routine import Routine

    covered = set()
    for block in cfg.blocks:
        for addr, _ in block.instructions:
            covered.add(addr)
    for target in sorted(inbound):
        if not routine.contains(target) or target == routine.start:
            continue
        if target in routine.entries:
            continue
        if target in covered:
            routine.add_entry(target)
            return True
        if not executable.instruction_at(target).is_valid:
            continue
        hidden.append(Routine(executable, "hidden_0x%x" % target,
                              target, routine.end, hidden=True))
        routine.end = target
        routine.delete_control_flow_graph()
        return True
    return False


# ----------------------------------------------------------------------
# Routine identity summaries (for repro.cache)
# ----------------------------------------------------------------------
def routine_identity(routine):
    """JSON-ready identity of a refined routine."""
    return {
        "name": routine.name,
        "start": routine.start,
        "end": routine.end,
        "entries": list(routine.entries),
        "hidden": 1 if routine.hidden else 0,
    }


def routine_from_identity(executable, identity):
    """Recreate a refined routine from its identity summary."""
    from repro.core.routine import Routine

    return Routine(executable, identity["name"], identity["start"],
                   identity["end"], entries=identity["entries"],
                   hidden=bool(identity["hidden"]))


def _unreached_suffix(routine, cfg):
    """Start of the maximal unreached run ending at the routine's end,
    or None.  Claimed data (dispatch tables) does not count."""
    if not cfg.unreached:
        return None
    addr = routine.end - 4
    start = None
    while addr >= routine.start and addr in cfg.unreached:
        start = addr
        addr -= 4
    if start is None or start == routine.start:
        return None
    return start
