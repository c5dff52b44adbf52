"""Generate the Python module that is spawn's machine layer.

The paper reports spawn expanding a 145-line SPARC description into a
6,178-line generated file.  This generator emits the module the spawn
codec (:class:`~repro.spawn.codec.SpawnCodec`) executes: field
accessors and inserters, a decode dispatch chain, and one encoder per
instruction.  Executable semantics are not in it: the block engine
compiles them per block at run time from the same RTL
(:mod:`repro.spawn.compiler`).  The conciseness experiment (E5)
compares description, generated, and handwritten line counts.
"""

_HEADER = '''\
"""GENERATED by repro.spawn.codegen from the %(arch)s machine description.

Do not edit: regenerate with `python -m repro.spawn.codegen %(arch)s`.
The spawn codec runs this module: field accessors and inserters,
decode, and one encoder per instruction.
"""

from repro.isa.base import SpanError
'''


def _pattern_mask_value(description, inst_def):
    """(mask, value) of the bits *inst_def*'s encoding pattern fixes."""
    mask = 0
    value = 0
    for field_name, field_value in inst_def.constraints.items():
        field = description.fields[field_name]
        field_mask = (1 << field.width) - 1
        mask |= field_mask << field.lo
        value |= (field_value & field_mask) << field.lo
    return mask, value


def _shifted(source, lo):
    return "(%s) << %d" % (source, lo) if lo else source


def _field_source(field):
    """Accessor and inserter of one field, with its bits as constants."""
    mask = (1 << field.width) - 1
    sign = 1 << (field.width - 1)
    bits = "%d:%d" % (field.lo, field.hi)
    value = "(word >> %d)" % field.lo if field.lo else "word"
    out = ["", "def field_%s(word):" % field.name,
           '    """Bits %s%s."""' % (bits, ", signed" if field.signed else "")]
    if field.signed:
        out.append("    return (%s & 0x%X ^ 0x%X) - 0x%X"
                   % (value, mask, sign, sign))
    else:
        out.append("    return %s & 0x%X" % (value, mask))
    out += ["", "def put_%s(word, value):" % field.name,
            '    """*word* with bits %s set to *value*."""' % bits]
    if field.signed:
        out += ["    if not -0x%X <= value <= 0x%X:" % (sign, sign - 1),
                "        raise SpanError('field %s value %%d out of range'"
                " %% value)" % field.name]
    out.append("    return word & 0x%08X | %s" % (
        ~(mask << field.lo) & 0xFFFFFFFF,
        _shifted("value & 0x%X" % mask, field.lo)))
    return out


def _encoder_source(description, name):
    """One instruction's encoder: its pattern's bits, the description's
    implied fields, then the given fields."""
    inst_def = description.instructions[name]
    _, value = _pattern_mask_value(description, inst_def)
    pattern = " ".join("%s=%d" % item for item in inst_def.constraints.items())
    out = ["", "def encode_%s(**fields):" % name,
           '    """%s: %s."""' % (name, pattern),
           "    word = 0x%08X" % value]
    for trigger, (other, implied) in description.implies.items():
        if other in description.fields:
            out += ["    if %r in fields and %r not in fields:"
                    % (trigger, other),
                    "        fields[%r] = %d" % (other, implied)]
    out += ["    for name, value in fields.items():",
            "        if name not in FIELD_INSERTERS:",
            "            raise ValueError('unknown field %r' % name)",
            "        word = FIELD_INSERTERS[name](word, value)",
            "    return word"]
    return out


def _table(name, entries):
    return ["", "", "%s = {" % name] \
        + ["    %r: %s," % entry for entry in entries] + ["}"]


def generate_module_source(description):
    """Emit the generated machine-layer module for *description*."""
    fields = description.fields
    out = [_HEADER % {"arch": description.arch}, ""]

    out.append("# --- instruction field accessors and inserters ---")
    for field in fields.values():
        out.extend(_field_source(field))
    out.extend(_table("FIELD_EXTRACTORS",
                      [(name, "field_" + name) for name in fields]))
    out.extend(_table("FIELD_INSERTERS",
                      [(name, "put_" + name) for name in fields]))

    out += ["", "", "# --- decode dispatch (mask/match per instruction) ---",
            "", "def decode(word):",
            '    """Name of the instruction encoded by *word*, or None."""']
    for name in description.order:
        mask, value = _pattern_mask_value(description,
                                         description.instructions[name])
        out += ["    if word & 0x%08X == 0x%08X:" % (mask, value),
                "        return %r" % name]
    out.append("    return None")

    out += ["", "", "# --- encode functions ---"]
    for name in description.order:
        out.extend(_encoder_source(description, name))
    out.extend(_table("ENCODERS",
                      [(name, "encode_" + name)
                       for name in description.order]))
    out.append("")
    return "\n".join(out)


def main(argv=None):
    import sys

    from repro.spawn import load_description

    args = argv if argv is not None else sys.argv[1:]
    for arch in args or ("sparc", "mips"):
        source = generate_module_source(load_description(arch))
        path = "generated_%s.py" % arch
        with open(path, "w") as handle:
            handle.write(source)
        print("wrote %s (%d lines)" % (path, len(source.splitlines())))


if __name__ == "__main__":
    main()
