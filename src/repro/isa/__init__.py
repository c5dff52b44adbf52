"""Machine (ISA) substrate: instruction encodings, codecs, and conventions.

This package is EEL's "system-dependent" layer (paper section 4).  Each
architecture provides a :class:`~repro.isa.base.MachineCodec` (decode/encode
machine words) and a :class:`~repro.isa.base.MachineConventions` object
(calling conventions, snippet synthesis, spill code).  Two implementations
exist per architecture: a handwritten codec (``isa/<arch>/handwritten.py``)
and one generated by spawn from a machine description
(``repro.spawn.build_codec``).
"""

from repro.isa.base import (
    Category,
    DecodedInst,
    MachineCodec,
    MachineConventions,
    RegisterSet,
)

__all__ = [
    "Category",
    "DecodedInst",
    "MachineCodec",
    "MachineConventions",
    "RegisterSet",
    "get_codec",
    "get_conventions",
]


def get_codec(arch):
    """Return the handwritten codec for *arch* ("sparc" or "mips")."""
    if arch == "sparc":
        from repro.isa.sparc.handwritten import SparcCodec

        return SparcCodec.instance()
    if arch == "mips":
        from repro.isa.mips.handwritten import MipsCodec

        return MipsCodec.instance()
    raise ValueError("unknown architecture: %r" % (arch,))


def get_conventions(arch):
    """Return the calling/editing conventions for *arch*."""
    if arch == "sparc":
        from repro.isa.sparc.machine import SparcConventions

        return SparcConventions.instance()
    if arch == "mips":
        from repro.isa.mips.machine import MipsConventions

        return MipsConventions.instance()
    raise ValueError("unknown architecture: %r" % (arch,))
