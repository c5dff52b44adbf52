"""Packed per-routine records: the ``cfg`` and ``liveness`` fact payloads.

This module is the one place that knows their byte layout.  A record is
immutable; it compares and hashes by its bytes (``raw``), and the bytes
are canonical — identical analyses pack to identical bytes, every set
emitted sorted — so the cache blob that stores them is too.  Readers
(the fact rules, hydration, the CFG materializer and liveness) use the
decoded columns below, never offsets into ``raw``.

CFG record (integers big-endian)::

    header   nblocks I | nedges I | entry I | exit I | flags B |
             nindirect I | ndata I | nunreached I
    bytes    block kind B * nblocks | block flags B * nblocks |
             edge kind B * nedges | edge flags B * nedges
    words    block start I * nblocks | block words I * nblocks |
             edge src I * nedges | edge dst I * nedges |
             escape target I * nedges |
             data_addrs I * ndata | unreached I * nunreached (sorted)
    indirect nindirect entries of
             block I | status B | present B | table_addr I | literal I |
             index_bound I | ntargets I | nsites I |
             target I * ntargets | site I * nsites | role B * nsites

The header fixes the length of every column, so the byte columns are
slices and all the words decode with one ``unpack_from``.  A block's
instructions are implied: a normal block is the address-contiguous run
of ``words`` words from ``start`` (discovery splits runs on gaps), a
delay block is its one word, and pseudo blocks (entry, exit, call
surrogate) have start 0 and no words.  A CTI flag means the block's
last word is its control transfer (``cti_addr``).  Edges are in
creation order, which keeps ``succ``/``pred`` order (``succ[0]`` of a
call block is its delay edge); an absent escape target packs as 0
without the escape flag.  Absent indirect-jump fields pack as 0 without
their ``present`` bit.

Liveness record::

    nblocks I | windows B | live_in Q * nblocks | live_out Q * nblocks |
    pre_window B * nblocks (only when windows is 1)

the per-block live-in and live-out register masks the solver computes,
plus, on register-window machines, whether each block can start before
the routine's ``save``.
"""

import collections
import struct

from repro.core.cfg import (
    BK_DELAY,
    BK_ENTRY,
    BK_EXIT,
    BK_NORMAL,
    BK_SURROGATE,
    EK_CALL,
    EK_COMPUTED,
    EK_CRETURN,
    EK_DELAY,
    EK_ENTRY,
    EK_ESCAPE,
    EK_EXIT,
    EK_FALL,
    EK_TAKEN,
    EK_UNCOND,
)

# Codes are indices into these tables.  Normal and delay blocks come
# first: a block code up to DELAY names words, the rest are pseudo.
BLOCK_KINDS = (BK_NORMAL, BK_DELAY, BK_SURROGATE, BK_ENTRY, BK_EXIT)
NORMAL, DELAY = 0, 1
EDGE_KINDS = (EK_FALL, EK_TAKEN, EK_UNCOND, EK_DELAY, EK_CALL, EK_CRETURN,
              EK_COMPUTED, EK_ENTRY, EK_EXIT, EK_ESCAPE)
STATUSES = ("table", "literal", "tailcall", "unanalyzable")
ROLES = ("hi22", "lo10", "add13", "mov13", "hi16", "lo16", "lo16u", "mov16",
         "mov16s", "word32")

# Block and edge flag bits.
EDITABLE = 1
CTI = 2  # block: its last word is the control transfer
ESCAPE = 2  # edge: carries an escape target

_BLOCK_CODE = {kind: code for code, kind in enumerate(BLOCK_KINDS)}
_EDGE_CODE = {kind: code for code, kind in enumerate(EDGE_KINDS)}
_STATUS_CODE = {status: code for code, status in enumerate(STATUSES)}
_ROLE_CODE = {role: code for code, role in enumerate(ROLES)}

_CFG_HEADER = struct.Struct(">IIIIBIII")
_INDIRECT = struct.Struct(">IBBIIIII")
_LIVENESS_HEADER = struct.Struct(">IB")
_INCOMPLETE, _CTI_IN_SLOT = 1, 2
_TABLE_ADDR, _LITERAL, _INDEX_BOUND = 1, 2, 4


class RecordError(ValueError):
    """A record's bytes do not describe a well-formed analysis."""


Indirect = collections.namedtuple(
    "Indirect", "block status table_addr targets literal patch_sites "
                "index_bound")
Indirect.__doc__ = """One resolved indirect jump: its block index, status,
and the fields of :class:`~repro.core.cfg.IndirectJumpInfo`."""


def _words(fmt, values):
    return struct.pack(">%d%s" % (len(values), fmt), *values)


def _split(values, sizes):
    """*values* cut into consecutive runs of *sizes*."""
    runs = []
    start = 0
    for size in sizes:
        runs.append(values[start:start + size])
        start += size
    return runs


class _Record:
    """Shared immutable-record plumbing: equality, hashing and copies
    by the canonical bytes."""

    __slots__ = ()
    FIELDS = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.raw == other.raw

    def __hash__(self):
        return hash(self.raw)

    def replace(self, **changes):
        """A copy with *changes* applied to the named fields, repacked."""
        fields = {name: getattr(self, name) for name in self.FIELDS}
        fields.update(changes)
        return type(self)(**fields)

    def __repr__(self):
        return "%s(%d bytes)" % (type(self).__name__, len(self.raw))


class CFGRecord(_Record):
    """One routine's CFG: blocks, edges in creation order, indirect-jump
    resolutions, proven data and unreached words, and two flags.

    Byte columns (``kinds``, ``flags``, ``edge_kinds``, ``edge_flags``)
    are bytes, word columns tuples of ints, ``indirect`` a tuple of
    :class:`Indirect`.
    """

    FIELDS = ("kinds", "flags", "starts", "words", "entry", "exit",
              "edge_src", "edge_dst", "edge_kinds", "edge_flags", "escapes",
              "indirect", "data_addrs", "unreached", "incomplete",
              "cti_in_slot")
    __slots__ = FIELDS + ("raw",)

    def __init__(self, kinds, flags, starts, words, entry, exit, edge_src,
                 edge_dst, edge_kinds, edge_flags, escapes, indirect,
                 data_addrs, unreached, incomplete, cti_in_slot, raw=None):
        self.kinds = kinds
        self.flags = flags
        self.starts = starts
        self.words = words
        self.entry = entry
        self.exit = exit
        self.edge_src = edge_src
        self.edge_dst = edge_dst
        self.edge_kinds = edge_kinds
        self.edge_flags = edge_flags
        self.escapes = escapes
        self.indirect = indirect
        self.data_addrs = data_addrs
        self.unreached = unreached
        self.incomplete = incomplete
        self.cti_in_slot = cti_in_slot
        self.raw = self._pack() if raw is None else raw

    @classmethod
    def of(cls, cfg):
        """The record of a built or materialized :class:`CFG`."""
        blocks = cfg.blocks
        edges = cfg.edge_order
        return cls(
            kinds=bytes(_BLOCK_CODE[block.kind] for block in blocks),
            flags=bytes((EDITABLE if block.editable else 0)
                        | (CTI if block.cti_addr is not None else 0)
                        for block in blocks),
            starts=tuple(block.start or 0 for block in blocks),
            words=tuple(len(block.instructions) for block in blocks),
            entry=cfg.entry.id, exit=cfg.exit.id,
            edge_src=tuple(edge.src.id for edge in edges),
            edge_dst=tuple(edge.dst.id for edge in edges),
            edge_kinds=bytes(_EDGE_CODE[edge.kind] for edge in edges),
            edge_flags=bytes((EDITABLE if edge.editable else 0)
                             | (ESCAPE if edge.escape_target is not None
                                else 0)
                             for edge in edges),
            escapes=tuple(edge.escape_target or 0 for edge in edges),
            indirect=tuple(
                Indirect(info.block.id, info.status, info.table_addr,
                         tuple(info.targets), info.literal,
                         tuple(map(tuple, info.patch_sites)),
                         info.index_bound)
                for info in cfg.indirect_jumps),
            data_addrs=tuple(sorted(cfg.data_addrs)),
            unreached=tuple(sorted(cfg.unreached)),
            incomplete=cfg.incomplete, cti_in_slot=cfg.cti_in_slot)

    def _pack(self):
        words = (tuple(self.starts) + tuple(self.words)
                 + tuple(self.edge_src) + tuple(self.edge_dst)
                 + tuple(self.escapes) + tuple(self.data_addrs)
                 + tuple(self.unreached))
        parts = [
            _CFG_HEADER.pack(
                len(self.kinds), len(self.edge_kinds), self.entry,
                self.exit,
                (_INCOMPLETE if self.incomplete else 0)
                | (_CTI_IN_SLOT if self.cti_in_slot else 0),
                len(self.indirect), len(self.data_addrs),
                len(self.unreached)),
            bytes(self.kinds), bytes(self.flags), bytes(self.edge_kinds),
            bytes(self.edge_flags), _words("I", words),
        ]
        for info in self.indirect:
            present = ((_TABLE_ADDR if info.table_addr is not None else 0)
                       | (_LITERAL if info.literal is not None else 0)
                       | (_INDEX_BOUND if info.index_bound is not None
                          else 0))
            parts.append(_INDIRECT.pack(
                info.block, _STATUS_CODE[info.status], present,
                info.table_addr or 0, info.literal or 0,
                info.index_bound or 0, len(info.targets),
                len(info.patch_sites)))
            parts.append(_words("I", tuple(info.targets) + tuple(
                addr for addr, _ in info.patch_sites)))
            parts.append(bytes(_ROLE_CODE[role]
                               for _, role in info.patch_sites))
        return b"".join(parts)

    @classmethod
    def unpack(cls, raw):
        """Decode *raw*; raises :class:`RecordError` unless every chunk
        has the length its header implies, nothing trails the record,
        every kind, status and role code is known and every block index
        (edge endpoints, entry, exit, indirect-jump blocks) is in range.
        Addresses are checked against a routine by :meth:`check`."""
        try:
            return cls._unpack(raw)
        except struct.error as exc:
            raise RecordError("truncated CFG record: %s" % exc) from None

    @classmethod
    def _unpack(cls, raw):
        (blocks, edges, entry, exit_, flags, nindirect, ndata,
         nunreached) = _CFG_HEADER.unpack_from(raw)
        count = 2 * blocks + 3 * edges + ndata + nunreached
        offset = _CFG_HEADER.size + 2 * (blocks + edges)
        if len(raw) < offset + 4 * count + _INDIRECT.size * nindirect:
            raise RecordError("CFG record chunks overrun its %d bytes"
                              % len(raw))
        kinds = raw[_CFG_HEADER.size:_CFG_HEADER.size + blocks]
        block_flags = raw[_CFG_HEADER.size + blocks:
                          _CFG_HEADER.size + 2 * blocks]
        edge_kinds = raw[offset - 2 * edges:offset - edges]
        edge_flags = raw[offset - edges:offset]
        (starts, words, edge_src, edge_dst, escapes, data_addrs,
         unreached) = _split(
            struct.unpack_from(">%dI" % count, raw, offset),
            (blocks, blocks, edges, edges, edges, ndata, nunreached))
        offset += 4 * count
        indirect = []
        for _ in range(nindirect):
            (block, status, present, table_addr, literal, index_bound,
             ntargets, nsites) = _INDIRECT.unpack_from(raw, offset)
            offset += _INDIRECT.size
            targets, sites = _split(
                struct.unpack_from(">%dI" % (ntargets + nsites), raw,
                                   offset), (ntargets, nsites))
            offset += 4 * (ntargets + nsites)
            roles = raw[offset:offset + nsites]
            offset += nsites
            if block >= blocks or status >= len(STATUSES) \
                    or (roles and max(roles) >= len(ROLES)):
                raise RecordError("bad indirect-jump entry")
            indirect.append(Indirect(
                block, STATUSES[status],
                table_addr if present & _TABLE_ADDR else None, targets,
                literal if present & _LITERAL else None,
                tuple(zip(sites, (ROLES[code] for code in roles))),
                index_bound if present & _INDEX_BOUND else None))
        if offset != len(raw):
            raise RecordError("CFG record has %d trailing bytes"
                              % (len(raw) - offset))
        if entry >= blocks or exit_ >= blocks \
                or max(kinds) >= len(BLOCK_KINDS) \
                or (edges and (max(edge_kinds) >= len(EDGE_KINDS)
                               or max(edge_src) >= blocks
                               or max(edge_dst) >= blocks)):
            raise RecordError("CFG record names an unknown code or block")
        return cls(kinds, block_flags, starts, words, entry, exit_, edge_src,
                   edge_dst, edge_kinds, edge_flags, escapes, tuple(indirect),
                   data_addrs, unreached, bool(flags & _INCOMPLETE),
                   bool(flags & _CTI_IN_SLOT), raw=raw)

    def check(self, start, end, text_start, text_end):
        """Raise :class:`RecordError` unless every normal block lies in
        the routine's extent [start, end), every delay block is one
        word, every named word is an aligned word of ``.text`` (mapped
        over [text_start, text_end)) and pseudo blocks name none."""
        for code, first, count in zip(self.kinds, self.starts, self.words):
            if code == NORMAL:
                if count < 1 or first < start or first + 4 * count > end:
                    raise RecordError("block 0x%x+%d words outside the "
                                      "routine" % (first, count))
            elif code == DELAY:
                if count != 1:
                    raise RecordError("delay block of %d words" % count)
            else:
                if first or count:
                    raise RecordError("pseudo block names words")
                continue
            if first & 3 or first < text_start \
                    or first + 4 * count > text_end:
                raise RecordError("address 0x%x not mapped in .text"
                                  % first)

    # -- readers of the fact rules -------------------------------------------
    def normal_tails(self):
        """The address of every normal block's last word, in block order."""
        return [first + 4 * count - 4
                for code, first, count in zip(self.kinds, self.starts,
                                              self.words)
                if code == NORMAL and count]

    def last_word(self, block):
        """The address of block *block*'s last word."""
        return self.starts[block] + 4 * self.words[block] - 4

    def escape_targets(self):
        """Every escape target an edge carries, as a set."""
        return {target for target, flags in zip(self.escapes,
                                                self.edge_flags)
                if flags & ESCAPE}


class LivenessRecord(_Record):
    """One routine's liveness: live-in and live-out masks per block,
    and on register-window machines the pre-window flag per block
    (``pre_window`` is None elsewhere)."""

    FIELDS = ("live_in", "live_out", "pre_window")
    __slots__ = FIELDS + ("raw",)

    def __init__(self, live_in, live_out, pre_window, raw=None):
        self.live_in = live_in
        self.live_out = live_out
        self.pre_window = pre_window
        self.raw = self._pack() if raw is None else raw

    @classmethod
    def of(cls, liveness):
        """The record of a solved or restored :class:`LivenessAnalysis`."""
        pre_window = liveness.pre_window
        return cls(tuple(liveness.in_masks), tuple(liveness.out_masks),
                   None if pre_window is None else bytes(pre_window))

    def _pack(self):
        windows = self.pre_window is not None
        return b"".join((
            _LIVENESS_HEADER.pack(len(self.live_in), int(windows)),
            _words("Q", tuple(self.live_in) + tuple(self.live_out)),
            bytes(self.pre_window) if windows else b""))

    @classmethod
    def unpack(cls, raw, blocks, windows):
        """Decode *raw*, the liveness of a CFG of *blocks* blocks on a
        machine with (*windows* true) or without register windows;
        raises :class:`RecordError` unless it holds exactly one mask
        pair per block and a pre-window flag per block just when the
        machine has windows."""
        try:
            count, flag = _LIVENESS_HEADER.unpack_from(raw)
        except struct.error:
            raise RecordError("truncated liveness record") from None
        offset = _LIVENESS_HEADER.size + 16 * count
        if count != blocks or bool(flag) != windows \
                or len(raw) != offset + (count if flag else 0):
            raise RecordError("liveness record does not fit %d blocks"
                              % blocks)
        masks = struct.unpack_from(">%dQ" % (2 * count), raw,
                                   _LIVENESS_HEADER.size)
        return cls(masks[:count], masks[count:],
                   raw[offset:] if flag else None, raw=raw)
