"""Edit fault injector: deliberately corrupt edits, assert detection.

The subsystem's own test of detection power (ISSUE 3): each injector
reproduces one class of rewriting bug the paper's machinery exists to
prevent, applied to a *clone* of the edited image so the pristine one
survives.  The driver then checks that the structural lints or the
co-simulation oracle catch every class with a provenance-bearing
report:

==========================  =======================================
class                       expected detector
==========================  =======================================
``corrupt-word``            ``invalid-word`` lint
``stale-dispatch-entry``    ``stale-dispatch-entry`` lint
``skip-delay-hoist``        cosim (state/control divergence)
``branch-off-by-4``         cosim (control divergence)
``clobber-live-register``   cosim (live-register delta)
``unbalanced-spill``        ``unbalanced-spill`` lint (synthetic)
==========================  =======================================

Injectors that rewrite executed code first profile the *original*
image (``count_pcs``) so the corruption lands on a path the workload
actually takes — a fault on dead code proves nothing.
"""

from repro.binfmt.serialize import image_from_bytes, image_to_bytes
from repro.core.regalloc import allocate_snippet
from repro.core.snippet import CodeSnippet
from repro.sim.machine import Simulator
from repro.verify.context import VerifyContext

# Decodes as INVALID on both SPARC and MIPS (0x0 is a valid MIPS nop).
CORRUPT_WORD = 0xFFFFFFFF


class InjectionError(LookupError):
    """No viable injection site in this session (workload-dependent)."""


def clone_image(image):
    """An independent deep copy of *image* (serialize round-trip)."""
    return image_from_bytes(image_to_bytes(image))


def executed_pcs(context, stdin_text=""):
    """Original-image pcs the workload actually executes."""
    simulator = Simulator(context.original_image, stdin_text=stdin_text,
                          count_pcs=True)
    simulator.run()
    return set(simulator.pc_counts)


def _set_new_text_word(image, addr, word):
    section = image.sections[".text.edited"]
    section.set_word(addr, word)


# ----------------------------------------------------------------------
def inject_corrupt_word(context, stdin_text=""):
    """Class ``corrupt-word``: smash one emitted instruction word."""
    for placed in context.placement.entries:
        if placed.item.kind != "word":
            continue
        image = clone_image(context.edited_image)
        _set_new_text_word(image, placed.start, CORRUPT_WORD)
        return image, {
            "class": "corrupt-word",
            "addr": placed.start,
            "routine": placed.routine,
            "block": placed.block,
        }
    raise InjectionError("no placed word items to corrupt")


def inject_stale_dispatch_entry(context, stdin_text=""):
    """Class ``stale-dispatch-entry``: point a rewritten dispatch-table
    entry back at its original (un-edited) target."""
    edited_names = set(context.edited_routine_names())
    for routine, cfg in context.cfgs():
        if routine.name not in edited_names:
            continue
        for info in cfg.indirect_jumps:
            if info.status != "table":
                continue
            for index, target in enumerate(info.targets):
                if context.edited_addr(target) == target:
                    continue  # entry was never rewritten
                entry_addr = info.table_addr + 4 * index
                image = clone_image(context.edited_image)
                image.section_at(entry_addr).set_word(entry_addr, target)
                return image, {
                    "class": "stale-dispatch-entry",
                    "addr": entry_addr,
                    "routine": routine.name,
                    "block": info.block.start,
                    "target": target,
                }
    raise InjectionError("no rewritten dispatch tables in this workload")


def _delay_candidates(context):
    """(branch_item, word_item) pairs where the word is a refolded or
    hoisted delay instruction placed right after its CTI."""
    nop = context.codec.nop_word
    entries = context.placement.entries
    for first, second in zip(entries, entries[1:]):
        if first.item.kind not in ("branch", "xfer"):
            continue
        if second.item.kind != "word" or second.item.word == nop:
            continue
        if first.item.orig_addr is None or second.item.orig_addr is None:
            continue
        if second.item.orig_addr == first.item.orig_addr + 4:
            yield first, second


def inject_skip_delay_hoist(context, stdin_text=""):
    """Class ``skip-delay-hoist``: drop a materialized delay-slot
    instruction, as if layout forgot the hoist (section 3.3)."""
    executed = executed_pcs(context, stdin_text)
    candidates = [(branch, word) for branch, word in
                  _delay_candidates(context)
                  if word.item.orig_addr in executed]

    def weight(pair):
        inst = context.codec.decode(pair[1].item.word)
        # Prefer delay slots whose loss is maximally observable:
        # restore tears a register window, call-delay words set up
        # arguments.
        if inst.name == "restore":
            return 0
        if pair[0].item.kind == "xfer":
            return 1
        return 2

    for branch, word in sorted(candidates, key=weight):
        image = clone_image(context.edited_image)
        _set_new_text_word(image, word.start, context.codec.nop_word)
        return image, {
            "class": "skip-delay-hoist",
            "addr": word.start,
            "routine": word.routine,
            "block": word.block,
            "orig_addr": word.item.orig_addr,
        }
    raise InjectionError("no executed delay-slot materializations")


def inject_branch_off_by_4(context, stdin_text=""):
    """Class ``branch-off-by-4``: retarget an executed branch one word
    past its real destination."""
    codec = context.codec
    executed = executed_pcs(context, stdin_text)
    section = context.edited_image.sections[".text.edited"]
    candidates = []
    for placed in context.placement.entries:
        if placed.item.kind not in ("branch", "jump", "xfer"):
            continue
        if placed.item.orig_addr not in executed:
            continue
        word = section.word_at(placed.start)
        inst = codec.decode(word)
        target = codec.control_target(inst, placed.start)
        if target is None:
            continue
        try:
            corrupted = codec.with_control_target(word, placed.start,
                                                  target + 4)
        except Exception:
            continue
        # An executed conditional branch may never be *taken*, making
        # the retarget unobservable; prefer unconditional transfers.
        if context.arch == "sparc":
            conditional = getattr(inst, "cond", "a") not in ("a", None)
        else:
            conditional = (inst.name.startswith("b")
                           and not (inst.name == "beq"
                                    and inst.f.get("rs") == inst.f.get("rt")))
        candidates.append((1 if conditional else 0, placed, corrupted,
                           target))
    if not candidates:
        raise InjectionError("no executed rewritten branches")
    candidates.sort(key=lambda entry: entry[0])
    _, placed, corrupted, target = candidates[0]
    image = clone_image(context.edited_image)
    _set_new_text_word(image, placed.start, corrupted)
    return image, {
        "class": "branch-off-by-4",
        "addr": placed.start,
        "routine": placed.routine,
        "block": placed.block,
        "target": target,
    }


def _clobber_word(context, reg):
    """One instruction that bumps *reg* (reg += 1) on this arch."""
    codec = context.codec
    if context.arch == "sparc":
        return codec.encode("add", rd=reg, rs1=reg, simm13=1)
    return codec.encode("addiu", rt=reg, rs=reg, imm16=1)


def inject_clobber_live_register(context, stdin_text=""):
    """Class ``clobber-live-register``: make a snippet scribble on a
    register that is live at its insertion point (the bug the paper's
    register scavenging exists to prevent, section 3.5)."""
    executed = executed_pcs(context, stdin_text)
    sp = context.conventions.sp_reg
    zero = getattr(context.codec.regs, "zero_regs", frozenset())
    blocks = {}
    for routine, cfg in context.cfgs():
        liveness = cfg.live_registers()
        for block in cfg.normal_blocks():
            blocks[block.start] = frozenset(liveness.live_before(block, 0))
    for placed in context.placement.snippets():
        live = blocks.get(placed.block)
        if live is None or placed.block not in executed:
            continue
        victims = [reg for reg in live
                   if reg < 32 and reg != sp and reg not in zero]
        if not victims:
            continue
        victim = max(victims)
        image = clone_image(context.edited_image)
        _set_new_text_word(image, placed.start,
                           _clobber_word(context, victim))
        return image, {
            "class": "clobber-live-register",
            "addr": placed.start,
            "routine": placed.routine,
            "block": placed.block,
            "register": context.codec.regs.name(victim),
        }
    raise InjectionError("no executed block-entry snippets to clobber")


def corrupt_spill_wrapper(executable):
    """Class ``unbalanced-spill``: allocate a snippet under full
    register pressure (forcing spills), then drop its restore epilogue.
    Returns the mangled AllocatedSnippet for :func:`spill_findings`."""
    conventions = executable.conventions
    codec = executable.codec
    p0, p1 = conventions.placeholder_regs[0], conventions.placeholder_regs[1]
    snippet = CodeSnippet([codec.nop_word], alloc_regs=(p0, p1))
    live = frozenset(conventions.scavenge_candidates)
    allocated = allocate_snippet(snippet, live, conventions)
    if not allocated.spilled:
        raise InjectionError("full-pressure allocation did not spill")
    dropped = sum(len(conventions.unspill(reg, slot))
                  for reg, slot in allocated.spilled)
    allocated.words = allocated.words[:-dropped]
    return allocated


# ----------------------------------------------------------------------
IMAGE_FAULTS = (
    inject_corrupt_word,
    inject_stale_dispatch_entry,
    inject_skip_delay_hoist,
    inject_branch_off_by_4,
    inject_clobber_live_register,
)


def run_fault_suite(executable, stdin_text="", sync_budget=2_000_000,
                    configure_edited=None):
    """Inject every applicable image-level fault and report detection.

    Returns {class name: {"detected": bool, "by": "lints"/"cosim",
    "report": str, "details": dict}}; classes with no viable site in
    this workload are omitted.  *configure_edited* is the edit's host
    hook (see :func:`repro.verify.verify_session`): without it, an edit
    that traps to its tool's runtime crashes under cosim whatever fault
    was injected.
    """
    from repro.verify.cosim import CosimOracle
    from repro.verify.lints import run_lints, spill_findings

    base = VerifyContext(executable)
    results = {}
    for injector in IMAGE_FAULTS:
        try:
            image, details = injector(base, stdin_text)
        except InjectionError:
            continue
        context = VerifyContext(executable, edited_image=image)
        findings = run_lints(context)
        errors = [finding for finding in findings
                  if finding.severity == "error"]
        if errors:
            results[details["class"]] = {
                "detected": True, "by": "lints",
                "report": "\n".join(str(finding) for finding in errors),
                "details": details,
            }
            continue
        report = CosimOracle(context, stdin_text=stdin_text,
                             configure_edited=configure_edited,
                             sync_budget=sync_budget).run()
        results[details["class"]] = {
            "detected": not report.ok,
            "by": "cosim" if not report.ok else "none",
            "report": report.divergence.render() if not report.ok else "",
            "details": details,
        }

    try:
        mangled = corrupt_spill_wrapper(executable)
    except InjectionError:
        pass
    else:
        findings = spill_findings(mangled, executable.conventions)
        results["unbalanced-spill"] = {
            "detected": bool(findings), "by": "lints" if findings else "none",
            "report": "\n".join(str(finding) for finding in findings),
            "details": {"class": "unbalanced-spill",
                        "spilled": list(mangled.spilled)},
        }
    return results
