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
ANALYSIS_VERSION = 6


class FormatError(Exception):
    """Malformed EELF file."""


def _pack_str(text):
    raw = text.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, count):
        if self.pos + count > len(self.blob):
            raise FormatError("truncated EELF file")
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
    for symbol in image.symbols:
        out += _pack_str(symbol.name)
        out += struct.pack(">I", symbol.value)
        out += _pack_str(symbol.kind)
        out += _pack_str(symbol.binding)
        out += struct.pack(">I", symbol.size)
        out += _pack_str(symbol.section)
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
    for _ in range(nsymbols):
        name = reader.string()
        value = reader.u32()
        sym_kind = reader.string()
        binding = reader.string()
        size = reader.u32()
        section = reader.string()
        image.add_symbol(
            Symbol(name, value, kind=sym_kind, binding=binding, size=size,
                   section=section)
        )
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


def analysis_to_bytes(summary):
    """Serialize an analysis *summary* dict to EELA bytes.

    The payload is canonical JSON (sorted keys, no whitespace) under
    zlib, so identical analyses always produce identical blobs.
    """
    payload = json.dumps(summary, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return (ANALYSIS_MAGIC + struct.pack(">H", ANALYSIS_VERSION)
            + zlib.compress(payload))


def analysis_from_bytes(blob):
    """Parse EELA bytes back into the analysis summary dict."""
    if blob[:4] != ANALYSIS_MAGIC:
        raise FormatError("bad magic; not an EELA analysis blob")
    if len(blob) < 6:
        raise FormatError("truncated EELA analysis blob")
    (version,) = struct.unpack(">H", blob[4:6])
    if version != ANALYSIS_VERSION:
        raise FormatError("unsupported EELA version %d" % version)
    try:
        payload = zlib.decompress(blob[6:])
        return json.loads(payload.decode("utf-8"))
    except (zlib.error, ValueError) as exc:
        raise FormatError("corrupt EELA analysis blob: %s" % exc)


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
