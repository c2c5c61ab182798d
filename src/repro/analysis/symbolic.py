"""Symbolic integer/boolean expressions.

The symbolic executor marks the value returned by every shared read with a
fresh :class:`Sym`; every other value is either a Python int (concrete) or
an expression tree over those symbols.  Expressions are immutable; the
``mk_*`` smart constructors constant-fold eagerly so purely thread-local
computation stays concrete and cheap.

Booleans are ints (0/1), exactly as in the concrete runtime, so the same
operator tables produce identical results — a property the validating
solver relies on (a candidate schedule is checked by *evaluating* these
expressions concretely).
"""

from dataclasses import dataclass

from repro.runtime.values import eval_binop, eval_unop


class SymExpr:
    """Base class of symbolic expression nodes."""

    __slots__ = ()

    def is_concrete(self):
        return False

    def __reduce__(self):
        # Frozen dataclasses with __slots__ break default unpickling (the
        # slot-state restore goes through the blocked __setattr__), and
        # expression trees are pickled by the analysis cache and with the
        # constraint system sent to solver worker processes — rebuild via
        # __init__, whose field order matches the slots by construction.
        return (type(self), tuple(getattr(self, s) for s in self.__slots__))


@dataclass(frozen=True)
class Sym(SymExpr):
    """A fresh unknown: the value returned by one shared read SAP."""

    __slots__ = ("name",)
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Const(SymExpr):
    __slots__ = ("value",)
    value: int

    def is_concrete(self):
        return True

    def __repr__(self):
        return repr(self.value)


@dataclass(frozen=True)
class BinOp(SymExpr):
    __slots__ = ("op", "left", "right")
    op: str
    left: SymExpr
    right: SymExpr

    def __repr__(self):
        return "(%r %s %r)" % (self.left, self.op, self.right)


@dataclass(frozen=True)
class UnOp(SymExpr):
    __slots__ = ("op", "operand")
    op: str
    operand: SymExpr

    def __repr__(self):
        return "(%s%r)" % (self.op, self.operand)


@dataclass(frozen=True)
class Ite(SymExpr):
    """If-then-else — produced by symbolic-address resolution (paper §5)."""

    __slots__ = ("cond", "then", "els")
    cond: SymExpr
    then: SymExpr
    els: SymExpr

    def __repr__(self):
        return "ite(%r, %r, %r)" % (self.cond, self.then, self.els)


def wrap(value):
    """Lift a Python int to an expression (identity on expressions)."""
    if isinstance(value, SymExpr):
        return value
    return Const(int(value))


def mk_binop(op, left, right):
    left = wrap(left)
    right = wrap(right)
    if isinstance(left, Const) and isinstance(right, Const):
        return Const(eval_binop(op, left.value, right.value))
    # A few identities that keep loop-generated expressions small.
    if op == "+":
        if isinstance(left, Const) and left.value == 0:
            return right
        if isinstance(right, Const) and right.value == 0:
            return left
    elif op == "-":
        if isinstance(right, Const) and right.value == 0:
            return left
    elif op == "*":
        if isinstance(left, Const) and left.value == 1:
            return right
        if isinstance(right, Const) and right.value == 1:
            return left
        if (isinstance(left, Const) and left.value == 0) or (
            isinstance(right, Const) and right.value == 0
        ):
            return Const(0)
    elif op == "&&":
        if isinstance(left, Const):
            return right if left.value else Const(0)
        if isinstance(right, Const):
            return left if right.value else Const(0)
    elif op == "||":
        if isinstance(left, Const):
            return Const(1) if left.value else right
        if isinstance(right, Const):
            return Const(1) if right.value else left
    return BinOp(op, left, right)


def mk_unop(op, operand):
    operand = wrap(operand)
    if isinstance(operand, Const):
        return Const(eval_unop(op, operand.value))
    if op == "!" and isinstance(operand, UnOp) and operand.op == "!":
        # !!x is not x itself (x may be any int), but !!!x == !x.
        return operand.operand if _is_boolean(operand.operand) else UnOp(op, operand)
    return UnOp(op, operand)


def _is_boolean(expr):
    return (
        isinstance(expr, BinOp)
        and expr.op in ("<", "<=", ">", ">=", "==", "!=", "&&", "||")
    ) or (isinstance(expr, UnOp) and expr.op == "!")


def mk_not(expr):
    return mk_unop("!", expr)


def mk_ite(cond, then, els):
    cond = wrap(cond)
    then = wrap(then)
    els = wrap(els)
    if isinstance(cond, Const):
        return then if cond.value else els
    if then == els:
        return then
    return Ite(cond, then, els)


def sym_eval(expr, env):
    """Evaluate ``expr`` with ``env`` mapping Sym names to ints.

    Raises KeyError when a needed symbol is unassigned — validators use
    this to detect not-yet-resolvable conditions.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Sym):
        return env[expr.name]
    if isinstance(expr, BinOp):
        return eval_binop(expr.op, sym_eval(expr.left, env), sym_eval(expr.right, env))
    if isinstance(expr, UnOp):
        return eval_unop(expr.op, sym_eval(expr.operand, env))
    if isinstance(expr, Ite):
        if sym_eval(expr.cond, env):
            return sym_eval(expr.then, env)
        return sym_eval(expr.els, env)
    if isinstance(expr, int):
        return expr
    raise TypeError("cannot evaluate %r" % (expr,))


def free_syms(expr, acc=None):
    """The set of Sym names occurring in ``expr``."""
    if acc is None:
        acc = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            acc.add(node.name)
        elif isinstance(node, BinOp):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, UnOp):
            stack.append(node.operand)
        elif isinstance(node, Ite):
            stack.append(node.cond)
            stack.append(node.then)
            stack.append(node.els)
    return acc


def expr_size(expr):
    """Number of nodes — the unit for the paper's '#Constraints' metric."""
    if isinstance(expr, (Const, Sym)):
        return 1
    if isinstance(expr, BinOp):
        return 1 + expr_size(expr.left) + expr_size(expr.right)
    if isinstance(expr, UnOp):
        return 1 + expr_size(expr.operand)
    if isinstance(expr, Ite):
        return 1 + expr_size(expr.cond) + expr_size(expr.then) + expr_size(expr.els)
    return 1
