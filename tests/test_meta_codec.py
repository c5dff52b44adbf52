"""Property tests for the ``repro.meta/1`` codec (DESIGN.md §5l).

Three guarantees the trust boundary leans on:

* encode→decode is the identity over arbitrary well-formed tables;
* malformed input — truncation, bit flips, outright garbage — raises
  :class:`MetaError` and *only* MetaError (a corrupted section must
  degrade to full refinement, never crash analysis);
* the EELF serialize layer carries the section faithfully regardless
  of where it sits in the section list.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.binfmt.serialize import image_from_bytes, image_to_bytes
from repro.binfmt.meta import (
    MetaDispatch,
    MetaError,
    MetaRoutine,
    MetaTable,
    attach_meta,
    decode_meta,
    encode_meta,
    extract_meta,
)

_u32 = st.integers(min_value=0, max_value=0xFFFF_FFFF)
_u16 = st.integers(min_value=0, max_value=0xFFFF)

_names = st.text(min_size=1, max_size=12)

_routines = st.builds(
    MetaRoutine,
    name=_names,
    start=_u32,
    end=_u32,
    entries=st.lists(_u32, min_size=1, max_size=6).map(tuple),
    hidden=st.booleans(),
)

_tables = st.builds(
    MetaDispatch,
    addr=_u32,
    count=st.integers(min_value=1, max_value=0xFFFF),
    in_text=st.booleans(),
)

_metas = st.builds(
    MetaTable,
    text_vaddr=_u32,
    text_size=_u32,
    text_sha256=st.binary(min_size=32, max_size=32),
    routines=st.lists(_routines, max_size=5).map(tuple),
    tables=st.lists(_tables, max_size=4).map(tuple),
    delay_ctis=st.lists(_u32, max_size=6).map(tuple),
    islands=st.lists(st.tuples(_u32, _u32), max_size=4).map(tuple),
)


@given(_metas)
def test_roundtrip(meta):
    """decode(encode(m)) == m for arbitrary structurally valid tables
    (the codec carries claims; it does not judge them — that is the
    verifier's job)."""
    assert decode_meta(encode_meta(meta)) == meta


@given(_metas, st.data())
def test_truncation_rejected(meta, data):
    """Any strict prefix of a valid encoding is a typed MetaError: the
    embedded counts promise more bytes than remain."""
    blob = encode_meta(meta)
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    with pytest.raises(MetaError):
        decode_meta(blob[:cut])


@given(st.binary(max_size=256))
def test_garbage_never_raises_anything_else(blob):
    """Arbitrary bytes either decode or raise MetaError — no other
    exception ever escapes the decoder."""
    try:
        decode_meta(blob)
    except MetaError:
        pass


@given(_metas, st.data())
@settings(max_examples=50)
def test_bitflips_never_raise_anything_else(meta, data):
    """A single flipped byte in a real encoding is still handled with
    MetaError at worst (it may also decode to some other table; the
    text hash and spot checks exist for exactly that case)."""
    blob = bytearray(encode_meta(meta))
    index = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    blob[index] ^= data.draw(st.integers(min_value=1, max_value=255))
    try:
        decode_meta(bytes(blob))
    except MetaError:
        pass


def test_entry_count_bounds():
    bad = MetaTable(0, 0, b"\0" * 32,
                    routines=(MetaRoutine("f", 0, 8, entries=()),))
    with pytest.raises(MetaError):
        encode_meta(bad)


def test_serialize_layer_stability_across_section_reordering():
    """EELF write/read preserves the section whatever its position in
    the section list, and attach_meta replaces an existing section
    in place."""
    from repro.workloads import build_image

    # A private copy: build_image shares one Image per workload.
    image = image_from_bytes(image_to_bytes(build_image("fib")))
    meta = MetaTable(image.get_section(".text").vaddr,
                     image.get_section(".text").size,
                     b"\x5a" * 32,
                     routines=(MetaRoutine("f", 0x1000, 0x1008,
                                           entries=(0x1000,)),),
                     delay_ctis=(0x1004,))
    attach_meta(image, meta)
    orders = [list(image.sections.items()),
              list(reversed(image.sections.items()))]
    for order in orders:
        image.sections = dict(order)
        recovered = image_from_bytes(image_to_bytes(image))
        assert extract_meta(recovered) == meta
    # Re-attaching replaces, never duplicates.
    attach_meta(image, meta)
    assert list(image.sections).count(".eel.meta") == 1
