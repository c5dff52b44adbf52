"""Verify-and-trust analysis of ``.eel.meta`` producer metadata.

The trust boundary (DESIGN.md §5l): a ``repro.meta/1`` table is a set
of high-confidence *claims* about an executable's structure.  Before
analysis hydrates from it, every claim is spot-checked against the
actual bytes:

* **binding** — the table's SHA-256 must match the ``.text`` bytes it
  describes (reject reason ``text-hash``);
* **extents** — routines sorted, aligned, non-overlapping, inside
  ``.text``; names unique (``extent``);
* **entries** — each routine's entry list starts at its extent, stays
  inside it, strictly increases (``entry``);
* **dispatch** — table extents aligned, word-counted, placed inside a
  mapped section; in-text tables sit inside exactly one routine, clear
  of entry points, other tables, and islands (``dispatch``);
* **islands** — aligned, inside ``.text``, pairwise disjoint, clear of
  entry points (``island``);
* **probes** — every claimed entry point decodes as a valid
  instruction, and sampled dispatch slots hold aligned in-text
  addresses that decode (``probe``);
* **delay-CTI map** — a full linear decode sweep of every claimed
  routine extent (skipping claimed data) must find *exactly* the
  claimed set of control transfers sitting in delay slots (``cti``).
  This is what makes the map load-bearing: a dropped or invented entry
  is caught here, not downstream.

Any failed check rejects the table with a typed reason (counted in
``meta.rejects`` / ``meta.reject.<reason>``) and analysis falls back to
full refinement — the fast path may change speed, never results.
"""

import itertools

from repro.binfmt.image import SEC_NOBITS
from repro.binfmt.meta import (
    MetaDispatch,
    MetaError,
    MetaRoutine,
    MetaTable,
    compute_text_hash,
    extract_meta,
    has_meta,
)
from repro.env import env_choice
from repro.isa.base import Category
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

# Every typed rejection reason (the ``meta.reject.<reason>`` counters).
REJECT_REASONS = ("format", "text-hash", "extent", "entry", "dispatch",
                  "island", "probe", "cti")

_C_PRESENT = _metrics.counter("meta.present")
_C_TRUSTED = _metrics.counter("meta.trusted")
_C_REJECTS = _metrics.counter("meta.rejects")
_C_REASON = {reason: _metrics.counter("meta.reject." + reason)
             for reason in REJECT_REASONS}
_metrics.ratio("meta.trust_rate", (_C_TRUSTED,), (_C_PRESENT,))

# Every control-transfer category (none is INVALID), as a tuple: its
# membership test compares identities instead of hashing enum members.
_CONTROL_CATEGORIES = tuple(c for c in Category if c.is_control)

# How many slots of one dispatch table the probe pass decodes.
_TABLE_PROBES = 16


def trust_enabled(explicit=None):
    """Whether the verify-and-trust path may engage.

    *explicit* (a read_contents/CLI override) wins; otherwise
    ``$REPRO_TRUST_META`` decides, defaulting to on — the verifier
    makes trusting safe, so first-party binaries get the fast path
    without configuration.
    """
    if explicit is not None:
        return bool(explicit)
    return env_choice("REPRO_TRUST_META", "on", ("on", "off")) == "on"


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------

class _Claims:
    """The metadata's claims, indexed for the verifier's sweeps."""

    def __init__(self, executable, meta):
        self.text = executable.image.sections.get(".text")
        self.text_end = self.text.end
        self.meta = meta
        self.extents = [(r.start, r.end) for r in meta.routines]
        self.entries = sorted(e for r in meta.routines for e in r.entries)
        # Data words a decode sweep must skip: islands plus in-text
        # dispatch extents (exactly what discovery treats as data).
        self.data_words = set()
        for start, end in meta.islands:
            self.data_words.update(range(start, end, 4))
        for table in meta.tables:
            if table.in_text:
                self.data_words.update(range(table.addr, table.end, 4))

    def in_text(self, addr):
        return self.text.vaddr <= addr < self.text_end


def verify_meta(executable, meta):
    """Spot-check *meta* against the executable's bytes.

    Returns None when every check passes, else ``(reason, detail)``
    with *reason* one of :data:`REJECT_REASONS`.
    """
    text = executable.image.sections.get(".text")
    if text is None:
        return "extent", "image has no .text section"
    if meta.text_vaddr != text.vaddr or meta.text_size != text.size:
        return ("text-hash",
                "text binding 0x%x+%d does not match section 0x%x+%d"
                % (meta.text_vaddr, meta.text_size, text.vaddr, text.size))
    if meta.text_sha256 != compute_text_hash(executable.image):
        return "text-hash", "stale text hash: .text bytes changed"
    claims = _Claims(executable, meta)
    for check in (_check_extents, _check_entries, _check_dispatch,
                  _check_islands, _check_probes, _check_delay_ctis):
        rejection = check(executable, claims)
        if rejection is not None:
            return rejection
    return None


def _check_extents(executable, claims):
    meta = claims.meta
    if not meta.routines:
        return "extent", "metadata claims no routines"
    names = set()
    previous = None
    for routine in meta.routines:
        if not routine.name:
            return "extent", "routine at 0x%x has no name" % routine.start
        if routine.name in names:
            return "extent", "duplicate routine name %r" % routine.name
        names.add(routine.name)
        if routine.start % 4 or routine.end % 4:
            return ("extent", "%s extent 0x%x-0x%x is misaligned"
                    % (routine.name, routine.start, routine.end))
        if routine.start >= routine.end:
            return ("extent", "%s extent 0x%x-0x%x is empty or inverted"
                    % (routine.name, routine.start, routine.end))
        if not claims.in_text(routine.start) \
                or not claims.in_text(routine.end - 4):
            return ("extent", "%s extent 0x%x-0x%x leaves .text"
                    % (routine.name, routine.start, routine.end))
        if previous is not None and routine.start < previous.end:
            return ("extent", "%s at 0x%x overlaps %s ending 0x%x"
                    % (routine.name, routine.start,
                       previous.name, previous.end))
        previous = routine
    return None


def _check_entries(executable, claims):
    for routine in claims.meta.routines:
        entries = list(routine.entries)
        if not entries or entries[0] != routine.start:
            return ("entry", "%s entries must begin at extent start 0x%x"
                    % (routine.name, routine.start))
        if entries != sorted(set(entries)):
            return ("entry", "%s entries are unsorted or duplicated"
                    % routine.name)
        for entry in entries:
            if entry % 4 or not routine.start <= entry < routine.end:
                return ("entry", "%s entry 0x%x outside extent 0x%x-0x%x"
                        % (routine.name, entry,
                           routine.start, routine.end))
    return None


def _check_dispatch(executable, claims):
    image = executable.image
    entry_set = set(claims.entries)
    seen = []
    for table in claims.meta.tables:
        if table.addr % 4 or table.count < 1:
            return ("dispatch", "table at 0x%x misaligned or empty"
                    % table.addr)
        section = image.section_at(table.addr)
        if section is None or section.flags & SEC_NOBITS \
                or image.section_at(table.end - 4) is not section:
            return ("dispatch", "table 0x%x+%d words is not mapped to "
                    "file bytes" % (table.addr, table.count))
        in_text = claims.in_text(table.addr)
        if in_text != table.in_text:
            return ("dispatch", "table 0x%x in_text flag is wrong"
                    % table.addr)
        for start, end in seen:
            if table.addr < end and start < table.end:
                return ("dispatch", "table 0x%x overlaps table 0x%x"
                        % (table.addr, start))
        seen.append((table.addr, table.end))
        if not in_text:
            continue
        containers = [r for r in claims.meta.routines
                      if r.start <= table.addr and table.end <= r.end]
        if len(containers) != 1:
            return ("dispatch", "in-text table 0x%x not inside exactly "
                    "one routine extent" % table.addr)
        if any(table.addr <= e < table.end for e in entry_set):
            return ("dispatch", "table 0x%x covers a routine entry"
                    % table.addr)
        for start, end in claims.meta.islands:
            if table.addr < end and start < table.end:
                return ("dispatch", "table 0x%x overlaps data island "
                        "0x%x-0x%x" % (table.addr, start, end))
    return None


def _check_islands(executable, claims):
    entry_set = set(claims.entries)
    previous_end = None
    for start, end in sorted(claims.meta.islands):
        if start % 4 or end % 4 or start >= end:
            return ("island", "island 0x%x-0x%x malformed" % (start, end))
        if not claims.in_text(start) or not claims.in_text(end - 4):
            return ("island", "island 0x%x-0x%x leaves .text"
                    % (start, end))
        if previous_end is not None and start < previous_end:
            return ("island", "island 0x%x-0x%x overlaps another island"
                    % (start, end))
        previous_end = end
        if any(start <= e < end for e in entry_set):
            return ("island", "island 0x%x-0x%x covers a routine entry"
                    % (start, end))
    return None


def _probe_addrs(table):
    """Up to ``_TABLE_PROBES`` slot addresses, always including the
    first and last slot (the extent's edges are where a wrong count
    shows first)."""
    if table.count <= _TABLE_PROBES:
        return [table.addr + 4 * i for i in range(table.count)]
    step = max(1, table.count // (_TABLE_PROBES - 1))
    slots = {0, table.count - 1}
    slots.update(range(0, table.count, step))
    return [table.addr + 4 * i for i in sorted(slots)][:_TABLE_PROBES]


def _check_probes(executable, claims):
    for routine in claims.meta.routines:
        for entry in routine.entries:
            if entry in claims.data_words:
                return ("probe", "%s entry 0x%x lies in claimed data"
                        % (routine.name, entry))
            if not executable.instruction_at(entry).is_valid:
                return ("probe", "%s entry 0x%x does not decode"
                        % (routine.name, entry))
    for table in claims.meta.tables:
        for slot in _probe_addrs(table):
            target = executable.image.word_at(slot)
            if target % 4 or not claims.in_text(target):
                return ("probe", "table 0x%x slot 0x%x holds 0x%x, not "
                        "an aligned text address" % (table.addr, slot,
                                                     target))
            if not executable.instruction_at(target).is_valid:
                return ("probe", "table 0x%x target 0x%x does not decode"
                        % (table.addr, target))
    return None


def scan_delay_ctis(executable, extents, data_words=()):
    """Addresses of CTIs occupying delay slots, by exact linear sweep.

    Decodes every word of every ``(start, end)`` extent (skipping
    *data_words*); whenever a valid delayed control transfer's slot —
    still inside the same extent, not data — holds another non-system
    control transfer, the *slot* address is recorded.  This mirrors the
    CFG walker's ``cti_in_slot`` stop condition exactly, which is what
    lets the verifier demand the metadata map be both sound and
    complete rather than merely plausible.

    The sweep is the dominant cost of the whole trust path, so it
    reuses the decoded text table's unpacked words and flyweights: each
    distinct encoding is classified once, one pass over the words finds
    the delayed transfers, and only the rare ones followed by another
    control transfer are checked against the extents and data words.
    """
    table = executable.text_table()
    words = table.words
    delayed = set()  # valid delayed control transfers
    in_slot = set()  # non-system control transfers
    for word, inst in table.flyweights.items():
        category = inst.category
        if category in _CONTROL_CATEGORIES:
            if inst.is_delayed:
                delayed.add(word)
            if category is not Category.SYSTEM:
                in_slot.add(word)
    skip = set(data_words)
    found = set()
    for index in itertools.compress(range(len(words) - 1),
                                    map(delayed.__contains__, words)):
        if words[index + 1] not in in_slot:
            continue
        addr = table.vaddr + 4 * index
        slot = addr + 4
        if addr in skip or slot in skip:
            continue
        if any(start <= addr and slot < end for start, end in extents):
            found.add(slot)
    return found


def _check_delay_ctis(executable, claims):
    claimed = set(claims.meta.delay_ctis)
    actual = scan_delay_ctis(executable, claims.extents, claims.data_words)
    if claimed == actual:
        return None
    missing = sorted(actual - claimed)
    invented = sorted(claimed - actual)
    parts = []
    if missing:
        parts.append("missing %s" % ["0x%x" % a for a in missing])
    if invented:
        parts.append("invented %s" % ["0x%x" % a for a in invented])
    return "cti", "delay-CTI map is wrong: " + "; ".join(parts)


# ----------------------------------------------------------------------
# Hydration (the fast path) and the read_contents hook
# ----------------------------------------------------------------------

def hydrate_from_meta(executable, meta):
    """Build the refined routine sets straight from verified *meta*.

    Returns ``(routines, hidden)`` Routine lists and pre-claims in-text
    dispatch extents, reproducing exactly the end state stage 4 of full
    refinement leaves behind — islands are deliberately *not* claimed,
    because discovery never claims them either, and the differential
    gate holds the two paths to identical fact stores.
    """
    from repro.core.symtab_refine import routine_from_identity

    routines = []
    hidden = []
    for record in meta.routines:
        routine = routine_from_identity(executable, record.identity())
        (hidden if routine.hidden else routines).append(routine)
    for table in meta.tables:
        if table.in_text:
            executable.claim_data(table.addr, table.size)
    return routines, hidden


def attempt(executable, explicit=None):
    """The read_contents hook: verify the image's metadata and, when it
    holds, return the hydrated ``(routines, hidden)``; else None.

    Every outcome lands on ``executable.meta_status`` as a
    ``(state, reason)`` pair — ``absent``, ``disabled``,
    ``rejected:<reason>`` (with detail), or ``trusted`` — and on the
    ``meta.*`` counters.
    """
    image = executable.image
    if not has_meta(image):
        executable.meta_status = ("absent", None)
        return None
    _C_PRESENT.inc()
    if not trust_enabled(explicit):
        executable.meta_status = ("disabled", None)
        return None
    with _span("meta.verify") as sp:
        try:
            meta = extract_meta(image)
            rejection = verify_meta(executable, meta)
        except MetaError as error:
            rejection = ("format", str(error))
            meta = None
        if rejection is not None:
            reason, detail = rejection
            _C_REJECTS.inc()
            _C_REASON[reason].inc()
            executable.meta_status = ("rejected", reason)
            executable.meta_reject_detail = detail
            sp.set(rejected=reason)
            return None
        result = hydrate_from_meta(executable, meta)
        _C_TRUSTED.inc()
        executable.meta_status = ("trusted", None)
        sp.set(routines=len(meta.routines))
    return result


# ----------------------------------------------------------------------
# Producer side: derive a table from a completed analysis
# ----------------------------------------------------------------------

def meta_from_executable(executable):
    """A ``repro.meta/1`` table describing *executable*'s analysis.

    The producer path minic uses: run the real pipeline once at build
    time, then emit what it found.  Dispatch extents come from the
    ``dispatch`` facts; the delay-CTI map comes from the same exact
    sweep the verifier runs, so a table derived here is accepted by
    construction as long as the bytes do not change.
    """
    from repro.core.facts import rules as fact_rules

    image = executable.image
    store = executable.fact_store()
    records = []
    tables = {}
    islands = set()
    for routine in sorted(executable.all_routines(), key=lambda r: r.start):
        records.append(MetaRoutine(routine.name, routine.start, routine.end,
                                   tuple(routine.entries),
                                   hidden=routine.hidden))
        for addr, size in fact_rules.ensure(executable, store, "dispatch",
                                            routine):
            tables[addr] = MetaDispatch(
                addr, size // 4,
                in_text=executable.is_text_address(addr))
        table_words = {addr + offset for addr, size in tables.items()
                       for offset in range(0, 4 * tables[addr].count, 4)}
        for addr in fact_rules.ensure(executable, store, "islands", routine):
            if addr not in table_words:
                islands.add(addr)
    table_list = tuple(tables[addr] for addr in sorted(tables))
    data_words = set(islands)
    for table in table_list:
        if table.in_text:
            data_words.update(range(table.addr, table.end, 4))
    extents = [(r.start, r.end) for r in records]
    delay_ctis = tuple(sorted(scan_delay_ctis(executable, extents,
                                              data_words)))
    text = image.get_section(".text")
    return MetaTable(text.vaddr, text.size, compute_text_hash(image),
                     routines=tuple(records), tables=table_list,
                     delay_ctis=delay_ctis,
                     islands=tuple(_ranges(sorted(islands))))


def _ranges(addrs):
    """Collapse sorted word addresses into maximal (start, end) ranges."""
    out = []
    for addr in addrs:
        if out and out[-1][1] == addr:
            out[-1][1] = addr + 4
        else:
            out.append([addr, addr + 4])
    return [tuple(pair) for pair in out]
