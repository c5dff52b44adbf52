"""The executable abstraction: open, analyze, edit, write (section 3.1).

The paper's Figure 1 drives this API:

    exec = Executable(path)
    exec.read_contents()
    for routine in exec.routines(): ...
    while not exec.hidden_routines().is_empty(): ...
    x = exec.edited_addr(exec.start_address())
    exec.write_edited_executable(out_path, x)
"""

import struct

from repro.binfmt import layout as binlayout
from repro.binfmt.image import Image
from repro.binfmt.serialize import read_image, write_image
from repro.core.instruction import flyweights_for, instruction_for
from repro.isa import get_codec, get_conventions
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

_C_ADOPTED = _metrics.counter("facts.adopted")

# Fresh address space for tool data (counter arrays, state tables).
TOOL_DATA_BASE = 0x0100_0000


class ExecutableError(Exception):
    pass


class RoutineList:
    """Routine collection with the paper's worklist interface."""

    def __init__(self, routines=()):
        self._routines = list(routines)

    def is_empty(self):
        return not self._routines

    def first(self):
        if not self._routines:
            raise ExecutableError("routine list is empty; check is_empty() "
                                  "before calling first()")
        return self._routines[0]

    def remove(self, routine):
        try:
            self._routines.remove(routine)
        except ValueError:
            raise ExecutableError(
                "routine %r is not in this list" %
                getattr(routine, "name", routine)
            ) from None

    def add(self, routine):
        self._routines.append(routine)

    def __iter__(self):
        return iter(list(self._routines))

    def __len__(self):
        return len(self._routines)

    def __getitem__(self, index):
        return self._routines[index]


class DecodedText(dict):
    """``{addr: Instruction}`` for every word of an image's ``.text``.

    The section is unpacked with one ``struct`` call and the flyweight
    instruction of each distinct word is looked up once; both are kept
    (``words``, in address order from ``vaddr``, and ``flyweights``,
    word -> instruction) for sweeps that classify every text word.
    Subscripting any other address decodes :meth:`Image.word_at`
    without caching it, so an address not mapped to file bytes raises
    ``KeyError``.
    """

    __slots__ = ("image", "codec", "vaddr", "words", "flyweights")

    def __init__(self, image, codec):
        super().__init__()
        self.image = image
        self.codec = codec
        self.vaddr = None
        self.words = ()
        self.flyweights = {}
        text = image.sections.get(".text")
        if text is not None:
            self.vaddr = text.vaddr
            self.words = struct.unpack_from(">%dI" % (len(text.data) // 4),
                                            text.data)
            self.flyweights = flyweights_for(codec, set(self.words))
            self.update(zip(range(text.vaddr, text.end, 4),
                            map(self.flyweights.__getitem__, self.words)))

    def __missing__(self, addr):
        return instruction_for(self.codec, self.image.word_at(addr))


class Executable:
    """An open executable: code, data, routines, and an edit session."""

    def __init__(self, source):
        if isinstance(source, Image):
            self.image = source
            self.path = None
        else:
            self.path = source
            self.image = read_image(source)
        if self.image.kind != "exec":
            raise ExecutableError("not an executable image")
        self.arch = self.image.arch
        self.codec = get_codec(self.arch)
        self.conventions = get_conventions(self.arch)
        self._routines = RoutineList()
        self._hidden = RoutineList()
        self._read = False
        # The FactStore, set by read_contents: the one holder of the
        # routine set's analysis state.
        self.facts = None
        # Where the routine set came from: "discovery" (full refinement)
        # or "metadata" (verified .eel.meta hydration); cache blobs
        # round-trip it with meta_status, a (state, reason) pair with
        # state in absent/disabled/rejected/trusted.
        self.analysis_provenance = "discovery"
        self.meta_status = ("absent", None)
        self.meta_reject_detail = None
        self._claimed = set()  # data addresses claimed inside text
        self._text_table = None  # DecodedText, see text_table()
        self._edited_routines = {}  # name -> Routine (with .edited set)
        self._added_routines = []  # (name, base_addr, words)
        self._added_symbols = {}
        self._data_sections = []  # (name, base, size, initial_bytes)
        self._data_cursor = max(
            TOOL_DATA_BASE, binlayout.align_up(self.image.address_limit())
        )
        # Leave 2MB of headroom above the original image so the edited
        # program's heap (sbrk region) can stay at its original address.
        self._new_text_base = binlayout.align_up(
            self.image.address_limit() + 0x1000
        ) + 0x20_0000
        self._added_cursor = self._new_text_base
        self._translation_base = None
        self._finalized = None

    # ------------------------------------------------------------------
    # Reading and analysis
    # ------------------------------------------------------------------
    def read_contents(self, adopt=None, trust_meta=None):
        """Analyze the symbol table and program to find all routines.

        Every path leaves the analysis state in the executable's
        :class:`~repro.core.facts.FactStore` (:meth:`fact_store`).
        With a warm analysis cache (see :mod:`repro.cache`) the store
        restores from disk, and the routine set with it, instead of
        being recomputed.

        When the image carries a verified ``.eel.meta`` section (see
        :mod:`repro.core.trust`) the routine set hydrates straight from
        it instead of running full refinement; any inconsistency falls
        back to refinement with a typed ``meta.reject.*`` reason.
        *trust_meta* overrides the ``$REPRO_TRUST_META`` default
        (None = use the environment, default on).

        *adopt* seeds the store from a closely related executable (the
        fuzz shrinker's parent plan): the fact table and text hashes
        :func:`~repro.core.facts.rules.donor` returns.  Routines whose
        identity and text bytes match restore their CFGs from the
        donor's facts instead of rebuilding — even during refinement's
        stage 4 — and count in ``facts.adopted``.
        """
        from repro import cache
        from repro.core import trust
        from repro.core.facts import rules as _fact_rules
        from repro.core.symtab_refine import refine_symbol_table

        with _span("exe.read_contents", arch=self.arch) as sp:
            restored = cache.load_analysis(self)
            if restored is not None:
                routines, hidden = restored
                self._routines = RoutineList(routines)
                self._hidden = RoutineList(hidden)
                self._read = True
                sp.set(routines=len(routines), hidden=len(hidden),
                       cached=True)
                return self
            self.facts = _fact_rules.seed(self, adopt)
            hydrated = trust.attempt(self, trust_meta)
            if hydrated is not None:
                routines, hidden = hydrated
                self.analysis_provenance = "metadata"
            else:
                routines, hidden = refine_symbol_table(self)
                self.analysis_provenance = "discovery"
            sp.set(routines=len(routines), hidden=len(hidden),
                   provenance=self.analysis_provenance)
            self._routines = RoutineList(routines)
            self._hidden = RoutineList(hidden)
            self._read = True
            _fact_rules.assert_routines(self, self.facts)
            if adopt is not None:
                # The cfg facts left are the seeded ones refinement kept.
                _C_ADOPTED.inc(len(self.facts.facts_of_kind("cfg")))
            cache.store_analysis(self)
        return self

    def fact_store(self):
        """The executable's FactStore, reading the contents first if
        they have not been read."""
        if not self._read:
            self.read_contents()
        return self.facts

    def invalidate_routine(self, routine_or_name):
        """Mark a routine's facts (and everything depending on them)
        dirty after its bytes changed; :meth:`reanalyze` recomputes
        only the dirty set."""
        routine = self.routine(routine_or_name) \
            if isinstance(routine_or_name, str) else routine_or_name
        if routine is None:
            raise ExecutableError("unknown routine %r" % (routine_or_name,))
        self.fact_store().invalidate("routine", routine.start)
        self._text_table = None  # the routine's bytes changed: re-decode
        routine.delete_control_flow_graph()
        return routine

    def reanalyze(self):
        """Re-derive exactly the dirty facts (incremental fixpoint)."""
        from repro.core.facts import rules as _fact_rules

        _fact_rules.solve(self, self.fact_store())
        return self

    def routines(self):
        if not self._read:
            self.read_contents()
        return self._routines

    def hidden_routines(self):
        if not self._read:
            self.read_contents()
        return self._hidden

    def all_routines(self):
        return list(self.routines()) + list(self.hidden_routines())

    def routine(self, name):
        for routine in self.all_routines():
            if routine.name == name:
                return routine
        return None

    def routine_at(self, addr):
        for routine in self.all_routines():
            if routine.contains(addr):
                return routine
        return None

    def start_address(self):
        return self.image.entry

    # ------------------------------------------------------------------
    # Raw access
    # ------------------------------------------------------------------
    def word_at(self, addr):
        return self.image.word_at(addr)

    def text_table(self):
        """The decoded text table: every ``.text`` word decoded once,
        indexed by address (see :class:`DecodedText`).

        Hot loops subscript it directly; everything else asks
        :meth:`instruction_at`.  :meth:`invalidate_routine`, the one
        way to declare text bytes changed, drops the table.
        """
        if self._text_table is None:
            self._text_table = DecodedText(self.image, self.codec)
        return self._text_table

    def instruction_at(self, addr):
        """The flyweight instruction for the word at *addr*; raises
        ``KeyError`` for an address not mapped to file bytes."""
        return self.text_table()[addr]

    def is_text_address(self, addr):
        text = self.image.sections.get(".text")
        return text is not None and text.contains(addr) and addr % 4 == 0

    def claim_data(self, addr, size):
        """Record that [addr, addr+size) in text is data (a jump table)."""
        for offset in range(0, size, 4):
            self._claimed.add(addr + offset)

    def claimed_data(self, routine):
        return {a for a in self._claimed if routine.contains(a)}

    # ------------------------------------------------------------------
    # Additions: foreign routines and data
    # ------------------------------------------------------------------
    def add_data(self, name, size, initial=None):
        """Reserve *size* bytes of fresh data space; returns its address.

        Bases are 1KB-aligned so a single ``sethi``/``lui`` can form them.
        """
        base = binlayout.align_up(self._data_cursor, 1024)
        self._data_cursor = binlayout.align_up(base + size, 1024)
        self._data_sections.append((name, base, size, initial))
        return base

    def ensure_translation_table(self):
        """Reserve the run-time address-translation table (section 3.3).

        One word per original text word, filled at finalize time with the
        edited address of each original instruction.
        """
        if self._translation_base is None:
            text = self.image.sections[".text"]
            self._translation_base = self.add_data("__eel_translation",
                                                   text.size)
        return self._translation_base

    def add_routine(self, name, asm_text):
        """Assemble *asm_text* and add it as a new routine; returns its
        address.  The code may reference the executable's global symbols
        and previously added routines."""
        from repro.asm.assembler import Assembler
        from repro.binfmt.linker import _apply

        base = self._added_cursor
        obj = Assembler(self.arch).assemble(asm_text)
        text = obj.get_section(".text")
        if [s for s in obj.sections.values() if s.size and s.name != ".text"]:
            raise ExecutableError("added routines may only contain .text")
        symbols = dict(self._added_symbols)
        for symbol in self.image.symbols:
            symbols.setdefault(symbol.name, symbol.value)
        for symbol in obj.symbols:
            symbols[symbol.name] = base + symbol.value
        text.vaddr = base
        for reloc in obj.relocations.get(".text", ()):
            target = symbols.get(reloc.symbol)
            if target is None:
                raise ExecutableError("undefined symbol %r in added routine"
                                      % reloc.symbol)
            _apply(text, base + reloc.offset, reloc.kind,
                   target + reloc.addend)
        words = text.words()
        self._added_routines.append((name, base, words))
        self._added_symbols[name] = base
        self._added_cursor = base + 4 * len(words)
        return base

    # ------------------------------------------------------------------
    # Editing session
    # ------------------------------------------------------------------
    def register_edited(self, routine):
        if self._finalized is not None:
            raise ExecutableError(
                "cannot edit after querying edited addresses"
            )
        self._edited_routines[routine.name] = routine

    def _finalize(self):
        if self._finalized is None:
            from repro.core.layout import finalize_image

            with _span("layout.finalize",
                       edited=len(self._edited_routines),
                       added=len(self._added_routines)):
                self._finalized = finalize_image(self)
        return self._finalized

    def edited_addr(self, addr):
        """Address of the edited copy of original instruction *addr*."""
        finalized = self._finalize()
        return finalized.addr_map.get(addr, addr)

    def edited_image(self):
        return self._finalize().image

    def write_edited_executable(self, path, entry=None):
        """Write the edited program; standard tools keep working on it."""
        finalized = self._finalize()
        if entry is not None:
            finalized.image.entry = entry
        with _span("exe.write_edited", path=str(path)):
            write_image(finalized.image, path)
        return finalized.image
