"""Binary serialization of EELF images.

File layout (all integers big-endian):

    magic "EELF" | version u16 | kind u8 (0=exec 1=obj) | arch string |
    entry u32 | nsections u16 | nsymbols u32 | nreloc u32 |
    section headers | symbol records | relocation records |
    section data blobs

Strings are encoded as u16 length + UTF-8 bytes.
"""

import json
import struct
import zlib

from repro.binfmt.image import Image, Relocation, SEC_NOBITS, Section, Symbol

MAGIC = b"EELF"
VERSION = 1

# Analysis-result blobs ("EELA"): persisted per-executable analysis
# summaries for repro.cache.  Bump ANALYSIS_VERSION whenever the summary
# contents *or* the semantics of any cached analysis change; the version
# participates in the cache key, so old entries simply stop matching.
ANALYSIS_MAGIC = b"EELA"
# 2: indirect-jump evaluator folds (sum + const), resolving the MIPS
#    rodata dispatch idiom (lw off(base_plus_scaled)) as a table.
# 3: CFG summaries carry the cti_in_slot flag (control transfer in a
#    delay slot — routines tools must refuse to edit).
# 4: blobs carry the per-routine fact table (repro.core.facts): routine
#    entries shrink to identities, and the "facts" section holds every
#    derived fact plus its dependency edges so warm restores hydrate
#    the incremental fact store directly.
# 5: summaries record analysis provenance ("discovery" vs "metadata" —
#    the verified .eel.meta trust path of repro.core.trust), so warm
#    restores report where the routine set originally came from.
# 6: a blob is the fact table alone plus how it was produced (provenance
#    and the metadata status): routine and hidden lists rebuild from the
#    routine facts, claimed data from the dispatch facts.
# 7: the cfg and liveness facts are packed per-routine records
#    (repro.core.facts.record) stored after the JSON as binary chunks,
#    and the dependency edges are no longer stored: the rule table
#    derives them again from the payloads.
# 8: no "cti" fact kind; the cfg record carries the same two flags.
ANALYSIS_VERSION = 8


class FormatError(Exception):
    """Malformed EELF file."""


_TRUNCATED = "truncated EELF file"


def _pack_str(text):
    raw = text.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


# A symbol record: name, value, kind, binding, size, section, each
# string a u16 byte length and its UTF-8 bytes.
_SYMBOL_RECORD = ">H%dsIH%dsH%dsIH%ds"


def _pack_symbols(symbols):
    """The symbol records, each packed in one step.  Symbols mostly
    share their kind, binding and section, so those strings are encoded
    once per distinct triple."""
    out = bytearray()
    encoded = {}  # (kind, binding, section) -> their lengths and bytes
    for symbol in symbols:
        shared = (symbol.kind, symbol.binding, symbol.section)
        if shared not in encoded:
            kind, binding, section = [text.encode("utf-8")
                                      for text in shared]
            encoded[shared] = (len(kind), kind, len(binding), binding,
                               len(section), section)
        kind_len, kind, binding_len, binding, section_len, section = \
            encoded[shared]
        name = symbol.name.encode("utf-8")
        name_len = len(name)
        out += struct.pack(
            _SYMBOL_RECORD % (name_len, kind_len, binding_len, section_len),
            name_len, name, symbol.value, kind_len, kind, binding_len,
            binding, symbol.size, section_len, section)
    return out


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, count):
        if self.pos + count > len(self.blob):
            raise FormatError(_TRUNCATED)
        chunk = self.blob[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def u8(self):
        return self.take(1)[0]

    def u16(self):
        return struct.unpack(">H", self.take(2))[0]

    def u32(self):
        return struct.unpack(">I", self.take(4))[0]

    def s32(self):
        return struct.unpack(">i", self.take(4))[0]

    def string(self):
        return self.take(self.u16()).decode("utf-8")


def image_to_bytes(image):
    """Serialize *image* to EELF bytes."""
    out = bytearray()
    out += MAGIC
    out += struct.pack(">H", VERSION)
    out += struct.pack(">B", 0 if image.kind == "exec" else 1)
    out += _pack_str(image.arch)
    out += struct.pack(">I", image.entry)

    sections = list(image.sections.values())
    reloc_items = [
        (name, reloc)
        for name, relocs in sorted(image.relocations.items())
        for reloc in relocs
    ]
    out += struct.pack(">H", len(sections))
    out += struct.pack(">I", len(image.symbols))
    out += struct.pack(">I", len(reloc_items))

    for section in sections:
        out += _pack_str(section.name)
        out += struct.pack(">IIB", section.vaddr, section.size, section.flags)
    out += _pack_symbols(image.symbols)
    for section_name, reloc in reloc_items:
        out += _pack_str(section_name)
        out += struct.pack(">I", reloc.offset)
        out += _pack_str(reloc.kind)
        out += _pack_str(reloc.symbol)
        out += struct.pack(">i", reloc.addend)
    for section in sections:
        if not section.flags & SEC_NOBITS:
            out += bytes(section.data)
    return bytes(out)


_U16 = struct.Struct(">H")
_U32_U16 = struct.Struct(">IH")


def _read_symbols(blob, pos, count, image):
    """Add the *count* symbol records at *pos* to *image*; returns the
    offset past them.  Each record is four length-prefixed strings and
    two u32s, read with one ``unpack_from`` per fixed run of fields;
    a string is decoded only once it is known to be whole."""
    end = len(blob)
    try:
        for _ in range(count):
            (length,) = _U16.unpack_from(blob, pos)
            pos += 2 + length
            if pos > end:
                raise FormatError(_TRUNCATED)
            name = blob[pos - length:pos].decode("utf-8")
            value, length = _U32_U16.unpack_from(blob, pos)
            pos += 6 + length
            if pos > end:
                raise FormatError(_TRUNCATED)
            sym_kind = blob[pos - length:pos].decode("utf-8")
            (length,) = _U16.unpack_from(blob, pos)
            pos += 2 + length
            if pos > end:
                raise FormatError(_TRUNCATED)
            binding = blob[pos - length:pos].decode("utf-8")
            size, length = _U32_U16.unpack_from(blob, pos)
            pos += 6 + length
            if pos > end:
                raise FormatError(_TRUNCATED)
            image.add_symbol(Symbol(
                name, value, kind=sym_kind, binding=binding, size=size,
                section=blob[pos - length:pos].decode("utf-8")))
    except struct.error:
        raise FormatError(_TRUNCATED) from None
    return pos


def image_from_bytes(blob):
    """Parse EELF bytes into an :class:`Image`."""
    reader = _Reader(blob)
    if reader.take(4) != MAGIC:
        raise FormatError("bad magic; not an EELF file")
    version = reader.u16()
    if version != VERSION:
        raise FormatError("unsupported EELF version %d" % version)
    kind = "exec" if reader.u8() == 0 else "obj"
    arch = reader.string()
    entry = reader.u32()
    nsections = reader.u16()
    nsymbols = reader.u32()
    nrelocs = reader.u32()

    image = Image(arch, kind=kind, entry=entry)
    headers = []
    for _ in range(nsections):
        name = reader.string()
        vaddr, size, flags = struct.unpack(">IIB", reader.take(9))
        headers.append((name, vaddr, size, flags))
    reader.pos = _read_symbols(blob, reader.pos, nsymbols, image)
    for _ in range(nrelocs):
        section_name = reader.string()
        offset = reader.u32()
        reloc_kind = reader.string()
        symbol = reader.string()
        addend = reader.s32()
        image.add_relocation(
            section_name, Relocation(offset, reloc_kind, symbol, addend)
        )
    for name, vaddr, size, flags in headers:
        section = Section(name, vaddr=vaddr, flags=flags)
        if flags & SEC_NOBITS:
            section.nobits_size = size
        else:
            section.data = bytearray(reader.take(size))
        image.add_section(section)
    return image


def _fact_rows(summary):
    """The rows of *summary*'s fact table, or () when it has none."""
    rows = summary.get("facts") if type(summary) is dict else None
    return rows if type(rows) is list else ()


def analysis_to_bytes(summary):
    """Serialize an analysis *summary* dict to EELA bytes.

    Under zlib: a u32 length and the canonical JSON of the summary
    (sorted keys, no whitespace), then, in row order, every packed
    record — a fact-table row whose payload is bytes — as a u32 length
    and its bytes, with null in its place in the JSON.  Identical
    analyses always produce identical blobs.
    """
    records = []
    rows = _fact_rows(summary)
    if rows:
        table = []
        for row in rows:
            if type(row) is list and len(row) == 3 \
                    and isinstance(row[2], bytes):
                records += (struct.pack(">I", len(row[2])), row[2])
                row = [row[0], row[1], None]
            table.append(row)
        summary = dict(summary, facts=table)
    header = json.dumps(summary, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    payload = b"".join([struct.pack(">I", len(header)), header] + records)
    return (ANALYSIS_MAGIC + struct.pack(">H", ANALYSIS_VERSION)
            + zlib.compress(payload))


def analysis_from_bytes(blob):
    """Parse EELA bytes back into the analysis summary dict, each
    packed record back in its fact-table row as bytes."""
    if blob[:4] != ANALYSIS_MAGIC:
        raise FormatError("bad magic; not an EELA analysis blob")
    if len(blob) < 6:
        raise FormatError("truncated EELA analysis blob")
    (version,) = struct.unpack(">H", blob[4:6])
    if version != ANALYSIS_VERSION:
        raise FormatError("unsupported EELA version %d" % version)
    try:
        payload = zlib.decompress(blob[6:])
        (size,) = struct.unpack_from(">I", payload)
        offset = 4 + size
        summary = json.loads(payload[4:offset].decode("utf-8"))
        for row in _fact_rows(summary):
            if type(row) is list and len(row) == 3 and row[2] is None:
                (size,) = struct.unpack_from(">I", payload, offset)
                offset += 4
                row[2] = payload[offset:offset + size]
                offset += size
    except (zlib.error, ValueError, struct.error) as exc:
        raise FormatError("corrupt EELA analysis blob: %s" % exc)
    if offset != len(payload):
        raise FormatError("corrupt EELA analysis blob: %d bytes past its "
                          "records" % (len(payload) - offset))
    return summary


def write_image(image, path):
    """Write *image* to *path* as an EELF file."""
    from repro.obs.trace import span

    with span("binfmt.write_image", path=str(path)) as sp:
        blob = image_to_bytes(image)
        sp.set(bytes=len(blob))
        with open(path, "wb") as handle:
            handle.write(blob)


def read_image(path):
    """Read an EELF file from *path*."""
    from repro.obs.trace import span

    with open(path, "rb") as handle:
        blob = handle.read()
    with span("binfmt.read_image", path=str(path), bytes=len(blob)):
        return image_from_bytes(blob)
