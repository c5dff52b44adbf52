"""Compile spawn RTL semantics into the block engine's Python source.

Paper section 4: spawn "even generates C++ code to replicate the
computation in most instructions".  :class:`RTLCompiler` does that for
the block engine (:mod:`repro.sim.blocks`): it residualizes one
instruction's ``sem`` RTL against its word and pc and appends the
resulting Python statements to a block.  The engine owns everything
around those statements (the scan loop, exits, memory access, step
budgets, text invalidation), so the execute layer of a new ISA comes
from its description.  Nothing here knows an instruction by name.

* **Folding.**  Fields are constants.  A zero register reads as 0 and
  a write to it is dropped (the value still runs for its effects, such
  as a divide's zero check).  Constant operators fold through
  :func:`repro.spawn.analyze._binop`, a builtin over constants folds by
  evaluating its own template, and ``x + 0``, ``x - 0``, ``x | 0``,
  ``x ^ 0``, shifts by 0 and ``x = x`` (for a register or a constant)
  simplify.  A condition that folds decides its transfer at compile
  time.
* **Order.**  ``;`` runs in order.  ``,`` reads every source before any
  write: its transfers are emitted in an order where no write clobbers
  a source still to be read, later ones first, so that a builtin that
  shares a result (a flag computation's sum, a product, a quotient)
  runs before the plain register write that reuses it.
* **Values** are taken modulo 2**32: generated expressions may leave
  the 32-bit range, and are masked where they land in a register or
  memory, form an address or meet a comparison.
* **Condition codes** (``icc``) live in ``n, z, v, c`` locals, loaded
  from ``cpu.icc`` on first use and written back at block exits.
* **Control** is recorded, not emitted: ``npc :=``, ``annul`` and
  ``trap`` fill a :class:`Control` that the engine turns into exits.
"""

from repro.isa import bits
from repro.spawn import rtl
from repro.spawn.analyze import _binop

M32 = 0xFFFFFFFF
_MEM = -1  # memory, as a location in a transfer's read and write sets
_COMPARE = frozenset(("==", "!=", "<", "<=", ">", ">="))
_ZERO_RIGHT = frozenset(("+", "-", "|", "^", "<<", ">>"))  # x op 0 is x
_ZERO_LEFT = frozenset(("+", "|", "^"))  # 0 op x is x
_FOLD_GLOBALS = {"to_s32": bits.to_s32}

# Per-word memos, process-wide like the codecs' decode caches.
_DESCRIBED = {}  # (codec, word) -> (RTL statement, {field: value}) or None
# (codec, word, pc or None, flags loaded) -> (lines, flags loaded after,
# flags dirtied, Control); FIFO-bounded like the engine's code cache.
_EMITTED = {}
_EMITTED_CAP = 1 << 16

# cctest conditions over the n, z, v, c flag locals.
_CC_TESTS = {
    "a": "1", "n": "0",
    "e": "z", "ne": "not z",
    "l": "n ^ v", "le": "z or (n ^ v)",
    "ge": "not (n ^ v)", "g": "not (z or (n ^ v))",
    "cs": "c", "cc": "not c", "leu": "c or z", "gu": "not (c or z)",
    "neg": "n", "pos": "not n", "vs": "v", "vc": "not v",
}


class CompileError(Exception):
    """The RTL uses a construct the block compiler does not support."""


class _Val(object):
    """A compiled RTL value: Python source ``src``; ``const``, the
    folded value, or None; ``exact`` when ``src`` already lies in
    [0, 2**32); ``atom`` when it is cheap to repeat (a constant, a
    register, a local); ``test``, an equivalent Python condition when
    the value is a 0/1 predicate."""

    __slots__ = ("src", "exact", "atom", "test", "const")

    def __init__(self, src, exact=False, atom=False, test=None, const=None):
        self.src = src
        self.exact = exact
        self.atom = atom
        self.test = test
        self.const = const


def _const(value):
    return _Val(str(value & M32), True, True, const=value)


def _predicate(test):
    return _Val("(1 if %s else 0)" % test, True, test=test)


class Control(object):
    """How one instruction leaves the straight line.  ``target`` is an
    int, or the name of a local holding a computed target, when the
    instruction transfers; ``cond`` is the Python condition of a
    conditional transfer; ``annul`` means an untaken transfer skips its
    delay slot; ``trap`` marks a system trap."""

    __slots__ = ("target", "cond", "annul", "trap")

    def __init__(self):
        self.target = self.cond = None
        self.annul = self.trap = False


class RTLCompiler(object):
    """Appends generated instruction semantics to ``self.lines``.

    The host supplies ``emit_memory(ind, pc, inst, idx, in_slot, addr,
    value, dest_reg)``, which emits one load or store, and reads
    ``flags_loaded``/``flags_dirty`` to write condition codes back at
    its exits."""

    def __init__(self, codec):
        self.codec = codec
        self.analyzer = codec.analyzer
        self.lines = []
        self.ntmp = 0
        self.flags_loaded = False
        self.flags_dirty = False

    def tmp(self):
        """A fresh local, live only within the current instruction."""
        self.ntmp += 1
        return "_t%d" % self.ntmp

    def emit(self, ind, line):
        self.lines.append(ind + line)

    def ensure_flags(self, ind):
        if not self.flags_loaded:
            self.emit(ind, "n, z, v, c = cpu.icc")
            self.flags_loaded = True

    def flags_writeback(self, ind):
        if self.flags_dirty:
            self.emit(ind, "cpu.icc = (n, z, v, c)")

    def semantics(self, ind, pc, inst, idx, in_slot):
        """Emit the data transfers of *inst* at *pc*, the block's
        ``idx``-th instruction (``in_slot`` when it fills a delay slot),
        and return its :class:`Control`.

        Apart from loads and stores, whose code depends on the block
        around them, the result depends only on the word, the pc when
        the RTL reads it, and whether the flags are loaded, so it is
        memoized on those."""
        self.pc, self.inst, self.idx, self.in_slot = pc, inst, idx, in_slot
        if inst.category.is_memory:
            return self._compile_instruction(ind)
        loaded = self.flags_loaded
        entry = _EMITTED.get((self.codec, inst.word, None, loaded)) \
            or _EMITTED.get((self.codec, inst.word, pc, loaded))
        if entry is None:
            outer, dirty = self.lines, self.flags_dirty
            self.lines, self.flags_dirty, self.pc_read = [], False, False
            ctl = self._compile_instruction("")
            entry = (self.lines, self.flags_loaded, self.flags_dirty, ctl)
            self.lines, self.flags_dirty = outer, dirty
            if len(_EMITTED) >= _EMITTED_CAP:
                _EMITTED.pop(next(iter(_EMITTED)))
            _EMITTED[(self.codec, inst.word, pc if self.pc_read else None,
                      loaded)] = entry
        lines, self.flags_loaded, dirtied, ctl = entry
        self.lines.extend([ind + line for line in lines])
        self.flags_dirty = self.flags_dirty or dirtied
        return ctl

    def _compile_instruction(self, ind):
        self.ntmp = 0
        self.cse = {}  # shared results of this instruction
        self.branch = None  # True/False inside a runtime condition's arms
        self.ctl = Control()
        semantics, self.fields = self.described(self.inst.word)
        self._stmt(ind, semantics)
        return self.ctl

    def described(self, word):
        """(RTL, field values) of the description's instruction that
        *word* matches, or None when no pattern matches it."""
        key = (self.codec, word)
        try:
            return _DESCRIBED[key]
        except KeyError:
            pass
        inst_def = self.codec.match(word)
        described = _DESCRIBED[key] = None if inst_def is None else (
            inst_def.semantics,
            {name: extract(word)
             for name, extract in self.analyzer.fields.items()})
        return described

    # -- value helpers -------------------------------------------------
    def u32(self, val):
        """Source of *val* within [0, 2**32)."""
        return val.src if val.exact else "(%s & 4294967295)" % val.src

    def s32(self, val):
        if val.const is not None:
            return str(bits.to_s32(val.const & M32))
        return "to_s32(%s)" % self.u32(val)

    def test(self, val):
        return val.test or self.u32(val)

    def bind(self, ind, val, always=False):
        """*val* (masked) as an atom: itself when it is a constant or,
        unless *always*, already an atom; else a fresh local."""
        if val.const is not None or (val.atom and not always):
            return self.u32(val)
        name = self.tmp()
        self.emit(ind, "%s = %s" % (name, self.u32(val)))
        return name

    def masked(self, val):
        return val if val.exact else _Val(self.u32(val), True)

    def share(self, ind, val):
        """*val* as an atom computed once per instruction."""
        if val.atom:
            return val
        name = self.cse.get(val.src)
        if name is None:
            name = self.cse[val.src] = self.tmp()
            self.emit(ind, "%s = %s" % (name, val.src))
        return _Val(name, val.exact, True)

    def _stored(self, val):
        """Masked source of a value about to be written; reuses a
        shared result of the same computation."""
        src = self.u32(val)
        return self.cse.get(src, src)

    # -- expressions ---------------------------------------------------
    def _expr(self, ind, node):
        compile_node = _EXPRESSIONS.get(type(node))
        if compile_node is None:
            raise CompileError("cannot compile %r" % node)
        return compile_node(self, ind, node)

    def _field(self, ind, node):
        return _const(self.fields[node.name])

    def _register(self, ind, node):
        reg = self._reg(ind, node)
        return _const(0) if reg is None else _Val("r[%d]" % reg, True, True)

    def _special(self, ind, node):
        if node.name == "pc":
            self.pc_read = True
            return _const(self.pc)
        if node.name in ("npc", "icc"):
            raise CompileError("cannot read %s as a value" % node.name)
        return _Val("cpu.%s" % node.name, True, True)

    def _binary(self, ind, node):
        return self.binop(node.op, self._expr(ind, node.left),
                          self._expr(ind, node.right))

    def _unary(self, ind, node):
        val = self._expr(ind, node.operand)
        if val.const is not None:
            return _const(-val.const if node.op == "-" else ~val.const)
        if node.op == "-":
            return _Val("(-%s)" % val.src)
        return _Val("(%s ^ 4294967295)" % val.src, val.exact)

    def _choice(self, ind, node):
        cond = self._expr(ind, node.cond)
        if cond.const is not None:
            return self._expr(ind, node.then if cond.const & M32
                              else node.other)
        then = self._expr(ind, node.then)
        other = self._expr(ind, node.other)
        return _Val("(%s if %s else %s)"
                    % (then.src, self.test(cond), other.src),
                    then.exact and other.exact)

    def _cctest(self, ind, node):
        test = _CC_TESTS[node.cond]
        if test.isdigit():
            return _const(int(test))
        self.ensure_flags(ind)
        return _predicate(test)

    def _builtin(self, ind, node):
        template = _VALUE_BUILTINS.get(node.name)
        if template is None:
            raise CompileError("no value template for %s" % node.name)
        args = [self._expr(ind, arg) for arg in node.args]
        val = template(self, ind, *args)
        if template in _PURE_BUILTINS \
                and all(arg.const is not None for arg in args):
            return _const(eval(self.u32(val), _FOLD_GLOBALS))
        return val

    def _reg(self, ind, node):
        """Number of the integer register *node* names, None for a
        zero register."""
        index = self._expr(ind, node.index)
        if index.const is None or self.analyzer.bank_base[node.bank]:
            raise CompileError("%s[...] is not a decoded integer register"
                               % node.bank)
        reg = index.const & M32
        return None if reg in self.analyzer.zero_regs else reg

    def binop(self, op, a, b):
        if a.const is not None and b.const is not None:
            if op in _COMPARE:
                return _const(_binop(op, a.const & M32, b.const & M32))
            return _const(_binop(op, a.const, b.const))
        if b.const is not None and not b.const & M32 and op in _ZERO_RIGHT:
            return a if a.exact or op != ">>" else _Val(self.u32(a), True)
        if a.const is not None and not a.const & M32 and op in _ZERO_LEFT:
            return b
        if op in _COMPARE:
            return self._compare(op, a, b)
        if op == ">>":
            return _Val("(%s >> %s)" % (self.u32(a), self.u32(b)), True)
        if op == "<<":
            return _Val("(%s << %s)" % (a.src, self.u32(b)))
        if op == "&":
            exact = a.exact or b.exact
        else:
            exact = op in ("|", "^") and a.exact and b.exact
        return _Val("(%s %s %s)" % (a.src, op, b.src), exact)

    def _compare(self, op, a, b):
        if op in ("==", "!="):
            if a.atom and b.atom and a.src == b.src:
                return _const(1 if op == "==" else 0)
            pred, other = (a, b) if a.test else (b, a)
            if pred.test and other.const in (0, 1):
                holds = (other.const == 1) == (op == "==")
                return _predicate(pred.test if holds
                                  else "not (%s)" % pred.test)
        return _predicate("%s %s %s" % (self.u32(a), op, self.u32(b)))

    # -- statements ----------------------------------------------------
    def _stmt(self, ind, stmt):
        if isinstance(stmt, rtl.Seq):
            for child in stmt.statements:
                self.cse.clear()  # the previous transfer may have written
                self._stmt(ind, child)
        elif isinstance(stmt, rtl.Par):
            self._par(ind, stmt.statements)
        elif isinstance(stmt, rtl.Assign):
            self._assign(ind, stmt.target, stmt.value)
        elif isinstance(stmt, rtl.IfStmt):
            self._if(ind, stmt)
        elif isinstance(stmt, rtl.Annul) and self.branch is not True:
            self.ctl.annul = True
        elif isinstance(stmt, rtl.Trap) and self.branch is None:
            self.ctl.trap = True
        else:
            raise CompileError("cannot compile %r" % stmt)

    def _par(self, ind, statements):
        """Emit *statements* in an order where no write clobbers a
        location a statement still to come reads."""
        pending = []
        for stmt in statements:
            info = self.analyzer.effects(stmt, self.inst.word)
            reads, writes = set(info.reads), set(info.writes)
            if info.mem_load:
                reads.add(_MEM)
            if info.mem_store:
                writes.add(_MEM)
            pending.append((stmt, reads, writes))
        while pending:
            for index in range(len(pending) - 1, -1, -1):
                writes = pending[index][2]
                if not any(writes & reads for other, (_, reads, _)
                           in enumerate(pending) if other != index):
                    break
            else:
                raise CompileError("cyclic parallel transfer")
            self._stmt(ind, pending.pop(index)[0])

    def _if(self, ind, stmt):
        cond = self._expr(ind, stmt.cond)
        if cond.const is not None:
            chosen = stmt.then if cond.const & M32 else stmt.other
            if chosen is not None:
                self._stmt(ind, chosen)
            return
        if self.branch is not None:
            raise CompileError("nested runtime condition")
        self.ctl.cond = self.test(cond)
        self.branch = True
        self._stmt(ind, stmt.then)
        self.branch = False
        if stmt.other is not None:
            self._stmt(ind, stmt.other)
        self.branch = None
        if self.ctl.target is None:
            raise CompileError("runtime condition without a transfer")

    def _assign(self, ind, target, value):
        special = target.name if isinstance(target, rtl.SpecialRead) \
            else None
        if special == "npc" and self.branch is not False:
            val = self._expr(ind, value)
            if val.const is not None and not val.const & 3:
                self.ctl.target = val.const & M32
            else:  # read before the slot runs; checked by the engine
                self.emit(ind, "_target = %s" % self.u32(val))
                self.ctl.target = "_target"
        elif self.branch is not None or special in ("npc", "pc"):
            raise CompileError("cannot compile assignment to %r" % target)
        elif isinstance(target, rtl.MemRead):
            addr = self.u32(self._expr(ind, target.addr))
            data = self.u32(self._expr(ind, value))
            self.emit_memory(ind, self.pc, self.inst, self.idx,
                             self.in_slot, addr, data, 0)
        elif isinstance(target, rtl.RegRead):
            reg = self._reg(ind, target)
            if isinstance(value, rtl.MemRead):
                addr = self.u32(self._expr(ind, value.addr))
                self.emit_memory(ind, self.pc, self.inst, self.idx,
                                 self.in_slot, addr, None, reg or 0)
                return
            src = self._stored(self._expr(ind, value))
            if reg is not None and src != "r[%d]" % reg:
                self.emit(ind, "r[%d] = %s" % (reg, src))
        elif special == "icc":
            template = _FLAG_BUILTINS.get(getattr(value, "name", None))
            if not isinstance(value, rtl.Builtin) or template is None:
                raise CompileError("icc takes a flag builtin")
            flags = template(self, ind,
                             *[self._expr(ind, arg) for arg in value.args])
            for name, src in zip(("n", "z", "v", "c"), flags):
                self.emit(ind, "%s = %s" % (name, src))
            self.flags_loaded = self.flags_dirty = True
        elif special is not None:
            self.emit(ind, "cpu.%s = %s"
                      % (special, self._stored(self._expr(ind, value))))
        else:
            raise CompileError("cannot assign to %r" % target)


_EXPRESSIONS = {
    rtl.Const: lambda c, ind, node: _const(node.value),
    rtl.FieldRef: RTLCompiler._field,
    rtl.RegRead: RTLCompiler._register,
    rtl.SpecialRead: RTLCompiler._special,
    rtl.BinOp: RTLCompiler._binary,
    rtl.UnOp: RTLCompiler._unary,
    rtl.CondExpr: RTLCompiler._choice,
    rtl.CCTest: RTLCompiler._cctest,
    rtl.Builtin: RTLCompiler._builtin,
}


# ----------------------------------------------------------------------
# Builtin templates, one per builtin, shared by every description.  A
# value template returns a _Val; a flag template returns the n, z, v, c
# sources.  ``c`` is the compiler.
# ----------------------------------------------------------------------

def _sra(c, ind, value, shift):
    return _Val("(%s >> %s)" % (c.s32(value), c.u32(shift)))


def _slt(c, ind, a, b):
    return _predicate("%s < %s" % (c.s32(a), c.s32(b)))


def _sltu(c, ind, a, b):
    return _predicate("%s < %s" % (c.u32(a), c.u32(b)))


def _icc_pack(c, ind):
    c.ensure_flags(ind)
    return _Val("((n << 23) | (z << 22) | (v << 21) | (c << 20))", True)


def _product(signed, high):
    def template(c, ind, a, b):
        cast = c.s32 if signed else c.u32
        product = c.share(ind, _Val("%s * %s" % (cast(a), cast(b))))
        if high:
            return _Val("(%s >> 32)" % product.src, not signed)
        return product
    return template


def _divide(signed, remainder):
    def template(c, ind, a, b):
        key = (signed, a.src, b.src)
        parts = c.cse.get(key)
        if parts is None:
            divisor = c.bind(ind, b)
            c.emit(ind, "if %s == 0:" % divisor)
            c.emit(ind, "    raise SimulationError("
                   "'division by zero at 0x%x')" % c.pc)
            dividend = c.u32(a)
            if signed:
                sa, sb, q = c.tmp(), c.tmp(), c.tmp()
                c.emit(ind, "%s = to_s32(%s)" % (sa, dividend))
                c.emit(ind, "%s = to_s32(%s)" % (sb, divisor))
                c.emit(ind, "%s = abs(%s) // abs(%s)" % (q, sa, sb))
                c.emit(ind, "if (%s < 0) != (%s < 0):" % (sa, sb))
                c.emit(ind, "    %s = -%s" % (q, q))
                parts = (_Val(q, atom=True),
                         _Val("(%s - %s * %s)" % (sa, q, sb)))
            else:
                parts = (_Val("(%s // %s)" % (dividend, divisor), True),
                         _Val("(%s %% %s)" % (dividend, divisor), True))
            c.cse[key] = parts
        return parts[remainder]
    return template


def _window_save(c, ind, value):
    result = c.bind(ind, value, always=True)
    c.emit(ind, "cpu.windows.append((r[16:24], r[24:32]))")
    c.emit(ind, "r[24:32] = r[8:16]")
    c.emit(ind, "r[8:24] = _Z16")
    return _Val(result, True, True)


def _window_restore(c, ind, value):
    c.emit(ind, "if not cpu.windows:")
    c.emit(ind, "    raise SimulationError('register window underflow')")
    result = c.bind(ind, value, always=True)
    c.emit(ind, "r[8:16] = r[24:32]")
    c.emit(ind, "r[16:24], r[24:32] = cpu.windows.pop()")
    return _Val(result, True, True)


def _cc_arith(op):
    def template(c, ind, a, b):
        x, y = c.bind(ind, a), c.bind(ind, b)
        res = c.share(ind, c.masked(c.binop(op, a, b))).src
        if op == "+":
            overflow = "((~(%s ^ %s) & (%s ^ %s)) >> 31) & 1" % (x, y, x, res)
            carry = "1 if %s + %s > 4294967295 else 0" % (x, y)
        else:
            overflow = "(((%s ^ %s) & (%s ^ %s)) >> 31) & 1" % (x, y, x, res)
            carry = "1 if %s > %s else 0" % (y, x)
        return ("%s >> 31" % res, "1 if %s == 0 else 0" % res, overflow,
                carry)
    return template


def _cc_logic(c, ind, value):
    res = c.share(ind, c.masked(value)).src
    return ("%s >> 31" % res, "1 if %s == 0 else 0" % res, "0", "0")


def _icc_unpack(c, ind, value):
    packed = c.bind(ind, value)
    return tuple("(%s >> %d) & 1" % (packed, bit) for bit in (23, 22, 21, 20))


_VALUE_BUILTINS = dict(
    sra=_sra, slt=_slt, sltu=_sltu, icc_pack=_icc_pack,
    umul_lo=_product(False, False), umul_hi=_product(False, True),
    multu_lo=_product(False, False), multu_hi=_product(False, True),
    smul_lo=_product(True, False), smul_hi=_product(True, True),
    mult_lo=_product(True, False), mult_hi=_product(True, True),
    udiv=_divide(False, False), divu_lo=_divide(False, False),
    divu_hi=_divide(False, True), sdiv=_divide(True, False),
    div_lo=_divide(True, False), div_hi=_divide(True, True),
    window_save=_window_save, window_restore=_window_restore,
)

# Expression-only templates: over constant arguments they fold.
_PURE_BUILTINS = (_sra, _slt, _sltu)

_FLAG_BUILTINS = dict(
    cc_add=_cc_arith("+"), cc_sub=_cc_arith("-"), cc_logic=_cc_logic,
    icc_unpack=_icc_unpack,
)
