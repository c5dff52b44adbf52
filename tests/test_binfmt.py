"""EELF images: serialization round-trips and the linker."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.asm import assemble
from repro.binfmt import (
    Image,
    LinkError,
    Relocation,
    Section,
    Symbol,
    link,
    read_image,
    write_image,
)
from repro.binfmt.image import SEC_EXEC, SEC_NOBITS, SEC_WRITE
from repro.binfmt.serialize import MAGIC, VERSION, FormatError, \
    image_from_bytes, image_to_bytes


def _sample_image():
    image = Image("sparc", kind="exec", entry=0x1000)
    text = Section(".text", vaddr=0x1000, flags=SEC_EXEC)
    text.append_word(0x01000000)
    text.append_word(0xDEADBEEF)
    image.add_section(text)
    data = Section(".data", vaddr=0x2000, flags=SEC_WRITE,
                   data=bytearray(b"hello world\x00"))
    image.add_section(data)
    bss = Section(".bss", vaddr=0x3000, flags=SEC_WRITE | SEC_NOBITS)
    bss.nobits_size = 64
    image.add_section(bss)
    image.add_symbol(Symbol("main", 0x1000, kind="func"))
    image.add_symbol(Symbol("buffer", 0x3000, kind="object",
                            binding="local", section=".bss"))
    return image


def test_roundtrip_bytes():
    image = _sample_image()
    back = image_from_bytes(image_to_bytes(image))
    assert back.arch == "sparc"
    assert back.entry == 0x1000
    assert back.get_section(".text").word_at(0x1004) == 0xDEADBEEF
    assert back.get_section(".data").data == image.get_section(".data").data
    assert back.get_section(".bss").size == 64
    assert back.find_symbol("main").value == 0x1000
    assert back.find_symbol("buffer").binding == "local"


def test_roundtrip_file(tmp_path):
    path = str(tmp_path / "a.out")
    write_image(_sample_image(), path)
    back = read_image(path)
    assert back.find_symbol("main") is not None


def test_bad_magic():
    with pytest.raises(FormatError):
        image_from_bytes(b"NOPE" + b"\x00" * 64)


def test_truncated():
    blob = image_to_bytes(_sample_image())
    with pytest.raises(FormatError):
        image_from_bytes(blob[: len(blob) // 2])


def test_symbol_table_cut_anywhere_is_truncated():
    """Cut a corpus image at every offset of its symbol table: each
    prefix is a typed truncation, never a struct or decode error."""
    from repro.workloads import build_image

    image = build_image("fib")
    blob = image_to_bytes(image)

    def string(text):
        return 2 + len(text.encode("utf-8"))

    start = (4 + 2 + 1 + string(image.arch) + 4 + 2 + 4 + 4
             + sum(string(section.name) + 9
                   for section in image.sections.values()))
    end = start + sum(string(symbol.name) + 4 + string(symbol.kind)
                      + string(symbol.binding) + 4 + string(symbol.section)
                      for symbol in image.symbols)
    assert image.symbols and end < len(blob)
    for cut in range(start, end + 1):
        with pytest.raises(FormatError, match="truncated EELF file"):
            image_from_bytes(blob[:cut])
    back = image_from_bytes(blob)
    assert [(s.name, s.value, s.kind, s.binding, s.size, s.section)
            for s in back.symbols] == \
        [(s.name, s.value, s.kind, s.binding, s.size, s.section)
         for s in image.symbols]


def _pack_str_reference(text):
    raw = text.encode("utf-8")
    return struct.pack(">H", len(raw)) + raw


def _image_to_bytes_reference(image):
    """The field-by-field encoder ``image_to_bytes`` replaced: every
    string through its own length-prefixed pack, every integer field
    packed on its own."""
    out = bytearray()
    out += MAGIC
    out += struct.pack(">H", VERSION)
    out += struct.pack(">B", 0 if image.kind == "exec" else 1)
    out += _pack_str_reference(image.arch)
    out += struct.pack(">I", image.entry)
    sections = list(image.sections.values())
    reloc_items = [(name, reloc)
                   for name, relocs in sorted(image.relocations.items())
                   for reloc in relocs]
    out += struct.pack(">H", len(sections))
    out += struct.pack(">I", len(image.symbols))
    out += struct.pack(">I", len(reloc_items))
    for section in sections:
        out += _pack_str_reference(section.name)
        out += struct.pack(">IIB", section.vaddr, section.size,
                           section.flags)
    for symbol in image.symbols:
        out += _pack_str_reference(symbol.name)
        out += struct.pack(">I", symbol.value)
        out += _pack_str_reference(symbol.kind)
        out += _pack_str_reference(symbol.binding)
        out += struct.pack(">I", symbol.size)
        out += _pack_str_reference(symbol.section)
    for section_name, reloc in reloc_items:
        out += _pack_str_reference(section_name)
        out += struct.pack(">I", reloc.offset)
        out += _pack_str_reference(reloc.kind)
        out += _pack_str_reference(reloc.symbol)
        out += struct.pack(">i", reloc.addend)
    for section in sections:
        if not section.flags & SEC_NOBITS:
            out += bytes(section.data)
    return bytes(out)


_SYMBOL_STRINGS = st.text(max_size=12) | st.sampled_from(
    ["", "main", "func", "object", "label", "global", "local", ".text",
     "\u00e9t\u00e9", "\u6f22\u5b57", "\U0001f600"])
_SYMBOLS = st.builds(
    Symbol, name=_SYMBOL_STRINGS, value=st.integers(0, 2**32 - 1),
    kind=_SYMBOL_STRINGS, binding=_SYMBOL_STRINGS,
    size=st.integers(0, 2**32 - 1), section=_SYMBOL_STRINGS)


@given(st.lists(_SYMBOLS, max_size=8))
def test_symbol_records_match_field_by_field_encoder(symbols):
    image = _sample_image()
    image.symbols.extend(symbols)
    blob = image_to_bytes(image)
    assert blob == _image_to_bytes_reference(image)
    back = image_from_bytes(blob)
    assert [(s.name, s.value, s.kind, s.binding, s.size, s.section)
            for s in back.symbols] \
        == [(s.name, s.value, s.kind, s.binding, s.size, s.section)
            for s in image.symbols]


@pytest.mark.parametrize("field", ["name", "kind", "binding", "section"])
@pytest.mark.parametrize("text", ["x" * 65536, "\u00e9" * 32768])
def test_overlong_symbol_string_raises_reference_error(field, text):
    image = _sample_image()
    symbol = Symbol("ok", 0)
    setattr(symbol, field, text)
    image.add_symbol(symbol)
    with pytest.raises(struct.error) as reference:
        _image_to_bytes_reference(image)
    with pytest.raises(struct.error) as packed:
        image_to_bytes(image)
    assert str(packed.value) == str(reference.value)


def test_longest_symbol_string_packs():
    image = _sample_image()
    image.add_symbol(Symbol("\u00e9" * 32767 + "x", 0))  # 65,535 bytes
    blob = image_to_bytes(image)
    assert blob == _image_to_bytes_reference(image)
    assert image_from_bytes(blob).symbols[-1].name == image.symbols[-1].name


def test_section_queries():
    image = _sample_image()
    assert image.section_at(0x1004).name == ".text"
    assert image.section_at(0x2003).name == ".data"
    assert image.section_at(0x9999) is None
    assert image.word_at(0x1000) == 0x01000000
    with pytest.raises(KeyError):
        image.word_at(0x3000)  # .bss has no file bytes


def test_strip_and_hide():
    image = _sample_image()
    image.hide_symbols(["main"])
    assert image.find_symbol("main") is None
    assert image.find_symbol("buffer") is not None
    image.strip()
    assert not image.symbols


def test_relocation_roundtrip():
    image = Image("sparc", kind="obj")
    text = Section(".text", flags=SEC_EXEC)
    text.append_word(0)
    image.add_section(text)
    image.add_relocation(".text", Relocation(0, "HI22", "foo", 4))
    back = image_from_bytes(image_to_bytes(image))
    reloc = back.relocations[".text"][0]
    assert (reloc.kind, reloc.symbol, reloc.addend) == ("HI22", "foo", 4)


@given(st.binary(min_size=0, max_size=64),
       st.integers(min_value=0, max_value=0xFFFFFFF0))
def test_roundtrip_arbitrary_data(data, entry):
    image = Image("mips", kind="exec", entry=entry)
    section = Section(".data", vaddr=0x2000, flags=SEC_WRITE,
                      data=bytearray(data))
    image.add_section(section)
    back = image_from_bytes(image_to_bytes(image))
    assert bytes(back.get_section(".data").data) == data
    assert back.entry == entry


# ----------------------------------------------------------------------
# Linker
# ----------------------------------------------------------------------

def test_link_two_objects():
    a = assemble("""
        .text
        .global _start
    _start:
        call helper
        nop
        mov 1, %g1
        ta 0
    """, "sparc")
    b = assemble("""
        .text
        .global helper
    helper:
        retl
        nop
    """, "sparc")
    image = link([a, b])
    assert image.entry == image.find_symbol("_start").value
    helper = image.find_symbol("helper")
    # The call displacement must reach helper.
    from repro.isa import get_codec

    codec = get_codec("sparc")
    start = image.find_symbol("_start").value
    call = codec.decode(image.word_at(start))
    assert codec.control_target(call, start) == helper.value


def test_link_data_and_bss_layout():
    obj = assemble("""
        .text
        .global _start
    _start:
        nop
        .data
    d:  .word 7
        .bss
    b:  .space 16
    """, "sparc")
    image = link([obj])
    text = image.get_section(".text")
    data = image.get_section(".data")
    bss = image.get_section(".bss")
    assert text.vaddr < data.vaddr < bss.vaddr
    assert data.word_at(image.find_symbol("d").value) == 7
    assert bss.size >= 16


def test_link_word_relocation():
    obj = assemble("""
        .text
        .global _start
    _start:
        nop
    target:
        nop
        .data
    tbl: .word target, target+4
    """, "sparc")
    image = link([obj])
    target = image.find_symbol("target").value
    table = image.find_symbol("tbl").value
    assert image.word_at(table) == target
    assert image.word_at(table + 4) == target + 4


def test_link_undefined_symbol():
    obj = assemble("""
        .text
        .global _start
    _start:
        call nowhere
        nop
    """, "sparc")
    with pytest.raises(LinkError):
        link([obj])


def test_link_duplicate_global():
    a = assemble(".text\n.global _start\n_start: nop\n", "sparc")
    b = assemble(".text\n.global _start\n_start: nop\n", "sparc")
    with pytest.raises(LinkError):
        link([a, b])


def test_link_missing_entry():
    obj = assemble(".text\n.global foo\nfoo: nop\n", "sparc")
    with pytest.raises(LinkError):
        link([obj])


def test_link_mixed_arch():
    a = assemble(".text\n.global _start\n_start: nop\n", "sparc")
    b = assemble(".text\n.global x\nx: nop\n", "mips")
    with pytest.raises(LinkError):
        link([a, b])


def test_local_symbol_wins_over_global():
    # Each object's local label resolves within the object.
    a = assemble("""
        .text
        .global _start
    _start:
        b near
        nop
    near:
        nop
    """, "sparc")
    b = assemble("""
        .text
        .global near
    near:
        nop
    """, "sparc")
    image = link([a, b])
    from repro.isa import get_codec

    codec = get_codec("sparc")
    start = image.find_symbol("_start").value
    branch = codec.decode(image.word_at(start))
    # Branch goes to the local 'near' (start + 8), not the global one.
    assert codec.control_target(branch, start) == start + 8
