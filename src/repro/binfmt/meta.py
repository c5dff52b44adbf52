"""The ``.eel.meta`` section: trusted-producer structural metadata.

Schema ``repro.meta/1``.  A producer that already knows an executable's
structure (the minic driver, the fuzz generator's ground-truth
manifests) can emit a compact binary table of it — routine extents and
entry points, dispatch-table extents with entry counts, the delay-slot
CTI map, data-island ranges — bound to the exact ``.text`` bytes it
describes by a SHA-256 content hash.  The consumer side
(:mod:`repro.core.trust`) *verifies and trusts*: spot-checks the table
against the bytes and, when everything is consistent, hydrates analysis
straight from it instead of running full symbol-table refinement.

Binary layout (all integers big-endian, strings u16 length + UTF-8):

    magic "EELM" | u16 version | u32 text_vaddr | u32 text_size |
    32B sha256(text bytes) |
    u16 nroutines | { str name | u32 start | u32 end | u8 flags |
                      u8 nentries | u32 entry... } |
    u16 ntables   | { u32 addr | u16 count | u8 flags } |
    u16 nctis     | { u32 slot_addr } |
    u16 nislands  | { u32 start | u32 end }

Routine flags: bit0 = hidden.  Table flags: bit0 = extent lies inside
``.text`` (and must be skipped by linear decode sweeps).  The decoder
is strict: bad magic, an unknown version, truncation, undecodable
strings, or trailing bytes all raise :class:`MetaError` — never
anything else — so a corrupted section degrades to the full-refinement
path instead of crashing analysis.
"""

import hashlib
import struct
from dataclasses import dataclass

from repro.binfmt.image import Section

SCHEMA = "repro.meta/1"
SECTION_NAME = ".eel.meta"
MAGIC = b"EELM"
META_VERSION = 1

_ROUTINE_HIDDEN = 1
_TABLE_IN_TEXT = 1


class MetaError(Exception):
    """Malformed or unencodable ``.eel.meta`` payload."""


@dataclass(frozen=True)
class MetaRoutine:
    """One routine's identity: extent, entry points, visibility."""

    name: str
    start: int
    end: int
    entries: tuple = ()
    hidden: bool = False

    def identity(self):
        """The ``routine_identity`` dict shape the cache layer uses."""
        return {"name": self.name, "start": self.start, "end": self.end,
                "entries": list(self.entries),
                "hidden": 1 if self.hidden else 0}


@dataclass(frozen=True)
class MetaDispatch:
    """One dispatch table: base address and entry (word) count."""

    addr: int
    count: int
    in_text: bool = False

    @property
    def size(self):
        return 4 * self.count

    @property
    def end(self):
        return self.addr + 4 * self.count


@dataclass(frozen=True)
class MetaTable:
    """The whole ``repro.meta/1`` table for one executable."""

    text_vaddr: int
    text_size: int
    text_sha256: bytes
    routines: tuple = ()
    tables: tuple = ()
    delay_ctis: tuple = ()  # addresses of CTIs sitting in delay slots
    islands: tuple = ()  # (start, end) data ranges inside .text


def compute_text_hash(image):
    """SHA-256 of the image's ``.text`` bytes (the trust binding)."""
    text = image.sections.get(".text")
    if text is None:
        raise MetaError("image has no .text section to bind metadata to")
    return hashlib.sha256(bytes(text.data)).digest()


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def _pack_str(text):
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise MetaError("string too long to encode: %d bytes" % len(raw))
    return struct.pack(">H", len(raw)) + raw


def _u32(value, what):
    if not isinstance(value, int) or not 0 <= value <= 0xFFFF_FFFF:
        raise MetaError("%s out of u32 range: %r" % (what, value))
    return struct.pack(">I", value)


def _u16(value, what):
    if not isinstance(value, int) or not 0 <= value <= 0xFFFF:
        raise MetaError("%s out of u16 range: %r" % (what, value))
    return struct.pack(">H", value)


def encode_meta(meta):
    """Serialize a :class:`MetaTable` to section bytes."""
    if len(meta.text_sha256) != 32:
        raise MetaError("text_sha256 must be 32 bytes")
    out = bytearray()
    out += MAGIC
    out += struct.pack(">H", META_VERSION)
    out += _u32(meta.text_vaddr, "text_vaddr")
    out += _u32(meta.text_size, "text_size")
    out += bytes(meta.text_sha256)
    out += _u16(len(meta.routines), "routine count")
    for routine in meta.routines:
        out += _pack_str(routine.name)
        out += _u32(routine.start, "routine start")
        out += _u32(routine.end, "routine end")
        out += struct.pack(">B", _ROUTINE_HIDDEN if routine.hidden else 0)
        if not 1 <= len(routine.entries) <= 0xFF:
            raise MetaError("routine %s needs 1..255 entries, has %d"
                            % (routine.name, len(routine.entries)))
        out += struct.pack(">B", len(routine.entries))
        for entry in routine.entries:
            out += _u32(entry, "routine entry")
    out += _u16(len(meta.tables), "table count")
    for table in meta.tables:
        out += _u32(table.addr, "table addr")
        out += _u16(table.count, "table entry count")
        out += struct.pack(">B", _TABLE_IN_TEXT if table.in_text else 0)
    out += _u16(len(meta.delay_ctis), "delay-CTI count")
    for addr in meta.delay_ctis:
        out += _u32(addr, "delay-CTI addr")
    out += _u16(len(meta.islands), "island count")
    for start, end in meta.islands:
        out += _u32(start, "island start")
        out += _u32(end, "island end")
    return bytes(out)


# ----------------------------------------------------------------------
# Decoding (strict: any structural problem raises MetaError)
# ----------------------------------------------------------------------

# Fixed-width runs of the layout, after the magic.
_U16 = struct.Struct(">H")  # the version, a string length or a count
_HEADER = struct.Struct(">II32sH")  # text vaddr, size, hash; nroutines
_ROUTINE = struct.Struct(">IIBB")  # start, end, flags, nentries
_TRUNCATED = "truncated .eel.meta payload"


def decode_meta(blob):
    """Parse section bytes back into a :class:`MetaTable`.

    Raises :class:`MetaError` — and only MetaError — on any malformed
    input: bad magic, unknown version, truncation, trailing garbage.
    Fields are read in layout order with ``struct.unpack_from`` at
    running offsets; a read past the end is a truncation.
    """
    blob = bytes(blob)
    try:
        return _decode(blob)
    except struct.error:
        raise MetaError(_TRUNCATED) from None


def _decode(blob):
    if len(blob) < len(MAGIC):
        raise MetaError(_TRUNCATED)
    if blob[:len(MAGIC)] != MAGIC:
        raise MetaError("bad magic; not a repro.meta section")
    (version,) = _U16.unpack_from(blob, 4)
    if version != META_VERSION:
        raise MetaError("unsupported repro.meta version %d" % version)
    text_vaddr, text_size, text_sha256, count = _HEADER.unpack_from(blob, 6)
    pos = 6 + _HEADER.size
    routines = []
    for _ in range(count):
        (length,) = _U16.unpack_from(blob, pos)
        pos += 2
        raw = blob[pos:pos + length]
        if len(raw) != length:
            raise MetaError(_TRUNCATED)
        pos += length
        try:
            name = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise MetaError("undecodable string in .eel.meta: %s" % error)
        start, end, flags, nentries = _ROUTINE.unpack_from(blob, pos)
        pos += _ROUTINE.size
        entries = struct.unpack_from(">%dI" % nentries, blob, pos)
        pos += 4 * nentries
        routines.append(MetaRoutine(name, start, end, entries,
                                    hidden=bool(flags & _ROUTINE_HIDDEN)))
    (count,) = _U16.unpack_from(blob, pos)
    fields = struct.unpack_from(">" + "IHB" * count, blob, pos + 2)
    pos += 2 + 7 * count
    tables = tuple(MetaDispatch(addr, slots,
                                in_text=bool(flags & _TABLE_IN_TEXT))
                   for addr, slots, flags
                   in zip(fields[0::3], fields[1::3], fields[2::3]))
    (count,) = _U16.unpack_from(blob, pos)
    delay_ctis = struct.unpack_from(">%dI" % count, blob, pos + 2)
    pos += 2 + 4 * count
    (count,) = _U16.unpack_from(blob, pos)
    bounds = struct.unpack_from(">%dI" % (2 * count), blob, pos + 2)
    pos += 2 + 8 * count
    if pos != len(blob):
        raise MetaError("%d trailing byte(s) after .eel.meta payload"
                        % (len(blob) - pos))
    return MetaTable(text_vaddr, text_size, text_sha256,
                     routines=tuple(routines), tables=tables,
                     delay_ctis=delay_ctis,
                     islands=tuple(zip(bounds[0::2], bounds[1::2])))


# ----------------------------------------------------------------------
# Section plumbing
# ----------------------------------------------------------------------

def attach_meta(image, meta):
    """Attach (or replace) the ``.eel.meta`` section carrying *meta*.

    The section lives at vaddr 0 with no flags: it is a carrier for the
    table bytes, not program-visible data, and must never perturb the
    address limit that tool-data and edited-text placement derive from.
    """
    image.sections.pop(SECTION_NAME, None)
    section = Section(SECTION_NAME, vaddr=0, flags=0)
    section.data = bytearray(encode_meta(meta))
    image.add_section(section)
    return image


def has_meta(image):
    return image.has_section(SECTION_NAME)


def extract_meta(image):
    """The image's decoded :class:`MetaTable`, or None when absent.

    Raises :class:`MetaError` when the section exists but is malformed
    — the caller records that as a typed ``format`` rejection.
    """
    section = image.sections.get(SECTION_NAME)
    if section is None:
        return None
    return decode_meta(section.data)
