"""spawn: derive the machine-specific layer from a machine description.

The paper's section 4: a concise description of instruction fields,
encodings (pattern matrices), and register-transfer semantics, from
which spawn derives the decode/encode/classify layer and even executable
semantics ("C++ code to replicate the computation" — here, the Python
of the block engine's compiled blocks).

Entry points:

* :func:`load_description` — parse a ``.spawn`` file into a
  :class:`~repro.spawn.parser.Description`;
* :func:`build_codec` — a :class:`~repro.isa.base.MachineCodec` built
  from the description (drop-in equivalent of the handwritten codec);
  it runs the module :func:`generate_source` emits;
* :func:`generate_source` — the generated Python module: field
  accessors and inserters, decode, and one encoder per instruction
  (the artifact whose size the conciseness experiment measures);
* :class:`~repro.spawn.compiler.RTLCompiler` — the one compiler from
  description semantics to Python statements; the block engine
  (:mod:`repro.sim.blocks`) runs every compiled instruction through it.
"""

import os

from repro.spawn.parser import Description, SpawnParseError, parse_description

_DESCRIPTION_DIR = os.path.join(os.path.dirname(__file__), "descriptions")
_CODEC_CACHE = {}


def description_path(arch):
    return os.path.join(_DESCRIPTION_DIR, arch + ".spawn")


def load_description(arch):
    """Parse the bundled machine description for *arch*."""
    with open(description_path(arch)) as handle:
        return parse_description(handle.read(), name=arch)


def build_codec(arch):
    """Build (and cache) the spawn-generated codec for *arch*."""
    codec = _CODEC_CACHE.get(arch)
    if codec is None:
        from repro.spawn.codec import SpawnCodec

        codec = SpawnCodec(load_description(arch))
        _CODEC_CACHE[arch] = codec
    return codec


def generate_source(arch):
    """Generate the machine-layer module source for *arch*, the module
    :func:`build_codec`'s codec runs."""
    from repro.spawn.codegen import generate_module_source

    return generate_module_source(load_description(arch))


__all__ = [
    "Description",
    "SpawnParseError",
    "parse_description",
    "load_description",
    "build_codec",
    "generate_source",
    "description_path",
]
