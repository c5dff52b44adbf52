"""Register-transfer-level (RTL) semantics AST for spawn descriptions.

A small expression/statement language in the spirit of the paper's
Figure 7.  Expressions evaluate over an abstract machine state; the
analyzer partially evaluates them against a concrete instruction word
(all field values known) to derive reads/writes/categories, and the
compiler residualizes them into the block engine's Python.
"""


class Expr:
    pass


class Const(Expr):
    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return "Const(%d)" % self.value


class FieldRef(Expr):
    """An instruction field; signedness comes from the field declaration."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "Field(%s)" % self.name


class RegRead(Expr):
    def __init__(self, bank, index):
        self.bank = bank  # register bank name, e.g. "R"
        self.index = index  # Expr

    def __repr__(self):
        return "RegRead(%s[%r])" % (self.bank, self.index)


class SpecialRead(Expr):
    """pc, icc, y, hi, lo — named special state."""

    def __init__(self, name):
        self.name = name


class MemRead(Expr):
    def __init__(self, addr, width, signed=False):
        self.addr = addr
        self.width = width
        self.signed = signed


class BinOp(Expr):
    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def __repr__(self):
        return "(%r %s %r)" % (self.left, self.op, self.right)


class UnOp(Expr):
    def __init__(self, op, operand):
        self.op = op
        self.operand = operand


class CondExpr(Expr):
    def __init__(self, cond, then, other):
        self.cond = cond
        self.then = then
        self.other = other


class Builtin(Expr):
    """Builtin function application: cc_add, sdiv, window_save, ..."""

    def __init__(self, name, args):
        self.name = name
        self.args = args

    def __repr__(self):
        return "%s(%s)" % (self.name, ", ".join(map(repr, self.args)))


class CCTest(Expr):
    """Branch condition test against the condition codes."""

    def __init__(self, cond):
        self.cond = cond  # mnemonic string: "ne", "e", "gu", ...


class Param(Expr):
    """$1, $2 ... substituted by `@` application."""

    def __init__(self, index):
        self.index = index


# -- statements -----------------------------------------------------------

class Stmt:
    pass


class Assign(Stmt):
    def __init__(self, target, value):
        self.target = target  # RegRead / SpecialRead / MemRead as lvalues
        self.value = value

    def __repr__(self):
        return "%r := %r" % (self.target, self.value)


class Seq(Stmt):
    def __init__(self, statements):
        self.statements = statements

    def __repr__(self):
        return "; ".join(map(repr, self.statements))


class Par(Stmt):
    """Parallel statements (comma in the paper's notation)."""

    def __init__(self, statements):
        self.statements = statements


class IfStmt(Stmt):
    def __init__(self, cond, then, other=None):
        self.cond = cond
        self.then = then
        self.other = other


class Annul(Stmt):
    """Annul the delay-slot instruction."""


class Trap(Stmt):
    """Software trap (system call); the argument is the trap number."""

    def __init__(self, number):
        self.number = number


def substitute(node, args):
    """Replace Param nodes with the @-application arguments."""
    if isinstance(node, Param):
        return args[node.index - 1]
    if isinstance(node, Const) or isinstance(node, FieldRef) \
            or isinstance(node, SpecialRead) or isinstance(node, CCTest):
        return node
    if isinstance(node, RegRead):
        return RegRead(node.bank, substitute(node.index, args))
    if isinstance(node, MemRead):
        return MemRead(substitute(node.addr, args), node.width, node.signed)
    if isinstance(node, BinOp):
        return BinOp(node.op, substitute(node.left, args),
                     substitute(node.right, args))
    if isinstance(node, UnOp):
        return UnOp(node.op, substitute(node.operand, args))
    if isinstance(node, CondExpr):
        return CondExpr(substitute(node.cond, args),
                        substitute(node.then, args),
                        substitute(node.other, args))
    if isinstance(node, Builtin):
        if node.name == "cctest" and len(node.args) == 1 \
                and isinstance(node.args[0], Param):
            return CCTest(args[node.args[0].index - 1])
        return Builtin(node.name, [substitute(a, args) for a in node.args])
    if isinstance(node, Assign):
        return Assign(substitute(node.target, args),
                      substitute(node.value, args))
    if isinstance(node, Seq):
        return Seq([substitute(s, args) for s in node.statements])
    if isinstance(node, Par):
        return Par([substitute(s, args) for s in node.statements])
    if isinstance(node, IfStmt):
        other = substitute(node.other, args) if node.other else None
        return IfStmt(substitute(node.cond, args),
                      substitute(node.then, args), other)
    if isinstance(node, (Annul, Trap)):
        return node
    raise TypeError("cannot substitute in %r" % node)
