"""Derive decode metadata from RTL semantics by residual evaluation.

Given a concrete machine word, every instruction field is known, so
field-only conditionals (like SPARC's register-or-immediate ``iflag``)
resolve at decode time.  Walking the chosen branches yields exactly the
registers read and written, the memory width, the branch condition, and
the control behavior — the information the paper says spawn extracts
from a description (section 4).
"""

from repro.spawn import rtl


class AnalysisError(Exception):
    pass


class ResidualInfo:
    """Decode-time facts about one instruction instance."""

    def __init__(self):
        self.fields_used = {}
        self.reads = set()
        self.writes = set()
        self.npc_exprs = []  # (expr, conditional?)
        self.link_write = False  # a register receives a pc-derived value
        self.cond = ""  # branch condition mnemonic (from cctest)
        self.annul_untaken = False
        self.mem_width = 0
        self.mem_signed = False
        self.mem_store = False
        self.mem_load = False
        self.trap = False
        self.indirect = False  # npc target depends on register state


class Analyzer:
    """Residual evaluation of an instruction's RTL for a concrete word."""

    def __init__(self, description, field_extractors):
        # field name -> function of a word: the generated accessors.
        self.fields = field_extractors
        # Special state names -> pseudo register numbers (after bank R).
        base = 0
        self.bank_base = {}
        for bank in description.banks.values():
            self.bank_base[bank.name] = base
            base += bank.count
        self.special_reg = {}
        for name in ("icc", "y", "hi", "lo"):
            if name.upper() in description.banks:
                self.special_reg[name] = \
                    self.bank_base[name.upper()]
        self.zero_regs = frozenset(
            self.bank_base[bank.name] + bank.zero
            for bank in description.banks.values()
            if bank.zero is not None
        )

    # ------------------------------------------------------------------
    def analyze(self, inst_def, word):
        return self.effects(inst_def.semantics, word)

    def effects(self, stmt, word):
        """Residual facts of *stmt*, the whole RTL of an instruction or
        one of its transfers."""
        info = ResidualInfo()
        self._walk_stmt(stmt, word, info, conditional=False,
                        in_untaken=False)
        return info

    # ------------------------------------------------------------------
    def const_eval(self, node, word, pc=None):
        """Evaluate an expression from *word*'s field values and, when
        given, the instruction's *pc*; None if it depends on other
        run-time state."""
        if isinstance(node, rtl.Const):
            return node.value
        if isinstance(node, rtl.FieldRef):
            return self.fields[node.name](word)
        if isinstance(node, rtl.RegRead):
            index = self.const_eval(node.index, word)
            if index is not None:
                reg = self.bank_base[node.bank] + index
                if reg in self.zero_regs:
                    return 0
            return None
        if isinstance(node, rtl.BinOp):
            left = self.const_eval(node.left, word, pc)
            right = self.const_eval(node.right, word, pc)
            if left is None or right is None:
                return None
            return _binop(node.op, left, right)
        if isinstance(node, rtl.UnOp):
            operand = self.const_eval(node.operand, word, pc)
            if operand is None:
                return None
            return -operand if node.op == "-" else ~operand
        if isinstance(node, rtl.CondExpr):
            cond = self.const_eval(node.cond, word, pc)
            if cond is None:
                return None
            return self.const_eval(node.then if cond else node.other, word,
                                   pc)
        if isinstance(node, rtl.SpecialRead) and node.name == "pc":
            return pc
        return None

    def fields_read(self, node, word):
        """The fields expression *node* reads at *word*, with their
        values."""
        info = ResidualInfo()
        self._note_fields(node, word, info)
        return info.fields_used

    # ------------------------------------------------------------------
    def _resolve_reg(self, node, word):
        index = self.const_eval(node.index, word)
        if index is None:
            raise AnalysisError("register index not decodable")
        return self.bank_base[node.bank] + index

    def _note_fields(self, node, word, info):
        """Record the instruction fields an expression mentions."""
        if isinstance(node, rtl.FieldRef):
            info.fields_used[node.name] = self.fields[node.name](word)
        elif isinstance(node, rtl.BinOp):
            self._note_fields(node.left, word, info)
            self._note_fields(node.right, word, info)
        elif isinstance(node, rtl.UnOp):
            self._note_fields(node.operand, word, info)
        elif isinstance(node, rtl.RegRead):
            self._note_fields(node.index, word, info)
        elif isinstance(node, rtl.CondExpr):
            self._note_fields(node.cond, word, info)
            cond = self.const_eval(node.cond, word)
            if cond is None:
                self._note_fields(node.then, word, info)
                self._note_fields(node.other, word, info)
            else:
                self._note_fields(node.then if cond else node.other, word,
                                  info)
        elif isinstance(node, rtl.MemRead):
            self._note_fields(node.addr, word, info)
        elif isinstance(node, rtl.Builtin):
            for argument in node.args:
                self._note_fields(argument, word, info)

    def _walk_expr(self, node, word, info):
        """Collect reads (and memory behavior) of an rvalue expression."""
        self._note_fields(node, word, info)
        self._collect_reads(node, word, info)

    def _collect_reads(self, node, word, info):
        if isinstance(node, (rtl.Const, rtl.FieldRef)):
            return
        if isinstance(node, rtl.RegRead):
            reg = self._resolve_reg(node, word)
            if reg not in self.zero_regs:
                info.reads.add(reg)
            return
        if isinstance(node, rtl.SpecialRead):
            if node.name in self.special_reg:
                info.reads.add(self.special_reg[node.name])
            return
        if isinstance(node, rtl.MemRead):
            info.mem_load = True
            info.mem_width = node.width
            info.mem_signed = node.signed
            self._collect_reads(node.addr, word, info)
            return
        if isinstance(node, rtl.BinOp):
            self._collect_reads(node.left, word, info)
            self._collect_reads(node.right, word, info)
            return
        if isinstance(node, rtl.UnOp):
            self._collect_reads(node.operand, word, info)
            return
        if isinstance(node, rtl.CondExpr):
            cond_value = self.const_eval(node.cond, word)
            self._collect_reads(node.cond, word, info)
            if cond_value is None:
                self._collect_reads(node.then, word, info)
                self._collect_reads(node.other, word, info)
            elif cond_value:
                self._collect_reads(node.then, word, info)
            else:
                self._collect_reads(node.other, word, info)
            return
        if isinstance(node, rtl.CCTest):
            info.cond = node.cond
            if node.cond not in ("a", "n") and "icc" in self.special_reg:
                info.reads.add(self.special_reg["icc"])
            return
        if isinstance(node, rtl.Builtin):
            if node.name == "icc_pack" and "icc" in self.special_reg:
                info.reads.add(self.special_reg["icc"])
            for argument in node.args:
                self._collect_reads(argument, word, info)
            return
        raise AnalysisError("cannot analyze expression %r" % node)

    def _mentions_state(self, node):
        """Does the expression mention register/memory/cc state at all?"""
        if isinstance(node, (rtl.RegRead, rtl.MemRead, rtl.CCTest,
                             rtl.SpecialRead)):
            return True
        if isinstance(node, rtl.BinOp):
            return self._mentions_state(node.left) or \
                self._mentions_state(node.right)
        if isinstance(node, rtl.UnOp):
            return self._mentions_state(node.operand)
        if isinstance(node, rtl.CondExpr):
            return any(self._mentions_state(n)
                       for n in (node.cond, node.then, node.other))
        if isinstance(node, rtl.Builtin):
            return any(self._mentions_state(a) for a in node.args)
        return False

    def _contains_pc(self, node):
        if isinstance(node, rtl.SpecialRead):
            return node.name == "pc"
        if isinstance(node, rtl.BinOp):
            return self._contains_pc(node.left) or \
                self._contains_pc(node.right)
        if isinstance(node, rtl.UnOp):
            return self._contains_pc(node.operand)
        if isinstance(node, rtl.CondExpr):
            return any(self._contains_pc(n)
                       for n in (node.cond, node.then, node.other))
        if isinstance(node, rtl.Builtin):
            return any(self._contains_pc(a) for a in node.args)
        return False

    def _contains_reg(self, node, word):
        """Does the expression's value depend on register/memory state?"""
        if isinstance(node, rtl.RegRead):
            return self._resolve_reg(node, word) not in self.zero_regs
        if isinstance(node, (rtl.MemRead,)):
            return True
        if isinstance(node, rtl.BinOp):
            return self._contains_reg(node.left, word) or \
                self._contains_reg(node.right, word)
        if isinstance(node, rtl.UnOp):
            return self._contains_reg(node.operand, word)
        if isinstance(node, rtl.CondExpr):
            cond_value = self.const_eval(node.cond, word)
            if cond_value is None:
                return True
            chosen = node.then if cond_value else node.other
            return self._contains_reg(node.cond, word) or \
                self._contains_reg(chosen, word)
        if isinstance(node, rtl.Builtin):
            return any(self._contains_reg(a, word) for a in node.args)
        return False

    # ------------------------------------------------------------------
    def _walk_stmt(self, stmt, word, info, conditional, in_untaken):
        if isinstance(stmt, (rtl.Seq, rtl.Par)):
            for child in stmt.statements:
                self._walk_stmt(child, word, info, conditional, in_untaken)
            return
        if isinstance(stmt, rtl.Assign):
            self._walk_expr(stmt.value, word, info)
            target = stmt.target
            if isinstance(target, rtl.RegRead):
                self._note_fields(target.index, word, info)
                reg = self._resolve_reg(target, word)
                if reg not in self.zero_regs:
                    info.writes.add(reg)
                if self._contains_pc(stmt.value):
                    info.link_write = True
                return
            if isinstance(target, rtl.SpecialRead):
                if target.name == "npc":
                    info.npc_exprs.append((stmt.value, conditional))
                    if self._contains_reg(stmt.value, word):
                        info.indirect = True
                    return
                if target.name in self.special_reg:
                    info.writes.add(self.special_reg[target.name])
                    return
                raise AnalysisError("cannot assign %s" % target.name)
            if isinstance(target, rtl.MemRead):
                info.mem_store = True
                info.mem_width = target.width
                self._note_fields(target.addr, word, info)
                self._collect_reads(target.addr, word, info)
                return
            raise AnalysisError("bad assignment target %r" % target)
        if isinstance(stmt, rtl.IfStmt):
            # Conditions over register state stay runtime-conditional even
            # when the registers are hardwired zero (bne $0,$0 is still a
            # branch, as the handwritten layer classifies it).
            if self._mentions_state(stmt.cond):
                cond_value = None
            else:
                cond_value = self.const_eval(stmt.cond, word)
            self._note_fields(stmt.cond, word, info)
            if cond_value is not None:
                chosen = stmt.then if cond_value else stmt.other
                if chosen is not None:
                    self._walk_stmt(chosen, word, info, conditional,
                                    in_untaken)
                return
            self._collect_reads(stmt.cond, word, info)
            self._walk_stmt(stmt.then, word, info, True, in_untaken)
            if stmt.other is not None:
                self._walk_stmt(stmt.other, word, info, True, True)
            return
        if isinstance(stmt, rtl.Annul):
            if in_untaken:
                info.annul_untaken = True
            return
        if isinstance(stmt, rtl.Trap):
            info.trap = True
            self._note_fields(stmt.number, word, info)
            return
        raise AnalysisError("cannot analyze statement %r" % stmt)


_OPERATIONS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << b,
    ">>": lambda a, b: (a & 0xFFFFFFFF) >> b,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
}


def _binop(op, left, right):
    return _OPERATIONS[op](left, right)
