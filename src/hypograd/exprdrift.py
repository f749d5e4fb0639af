"""Tiny expression language for drift declarations.

Drift components are written as strings in the state variables ``x1..xk``,
e.g. ``"-x1 - 0.4*x1^3 - x2"``.  Expressions are parsed into small trees that
evaluate vectorized over batches of states and differentiate symbolically, so
user-declared models get exact Jacobians (and Hessians, needed by the
anticipative divergence) without dynamic code loading.

Grammar: Python arithmetic, read by Python's own parser and walked, never
evaluated.  An expression is built from int and float literals, the
variables ``x1..xk``, unary ``-``, ``+ - * /``, powers written ``^`` with an
integer literal exponent (``x1^3``, ``x1^-2``), parentheses and one-argument
calls of sin, cos, exp, tanh, sqrt and log.  Precedence is Python's: ``^``
binds tighter than unary minus, so ``-x1^2`` is -(x1^2).  Anything else is a
ValueError, among it ``**`` (write ``^``), integer literals with a leading
zero such as ``01``, and a literal too large for a float.  Whitespace,
newlines included, is insignificant.

Evaluation runs a compiled tape.  ``DriftExpr`` compiles its components,
their gradient entries and their Hessian entries, once at construction,
into three flat lists of operations.  Nodes are keyed by ``Expr.key()``, so
a subtree shared by several entries of one tape (a state-dependent mass in
several Jacobian entries, the two equal mixed entries of a Hessian) runs
once per call.  Constants are held as Python floats, and each intermediate
array is released after its last use.  Every node keeps its operation and
operand order, so the tape gives the same bits as evaluating each tree on
its own.  States are component-first, (k, ...): a variable is the slab
``x[i]`` and an entry is ``out[a, i]``, each one contiguous (P, N+1) slab
of a contiguous (k, P, N+1) batch.  ``Expr.__call__`` runs a one-output tape.
"""

from __future__ import annotations

import ast
import operator
import re
import sys

import numpy as np

__all__ = ["Expr", "parse_expr", "DriftExpr"]

# name -> (numpy function, derivative at the argument as an Expr)
_FUNCS = {
    "sin": (np.sin, lambda a: Expr.call("cos", a)),
    "cos": (np.cos, lambda a: Expr.neg(Expr.call("sin", a))),
    "exp": (np.exp, lambda a: Expr.call("exp", a)),
    "tanh": (np.tanh, lambda a: Expr.add(Expr.const(1.0),
                                         Expr.neg(Expr.pow(Expr.call("tanh", a), 2)))),
    "sqrt": (np.sqrt, lambda a: Expr.div(Expr.const(0.5), Expr.call("sqrt", a))),
    "log": (np.log, lambda a: Expr.div(Expr.const(1.0), a)),
}

class Expr:
    """Expression tree node. Immutable; hashable by structure string."""

    __slots__ = ("kind", "value", "args")

    def __init__(self, kind, value=None, args=()):
        self.kind = kind          # 'const' | 'var' | '+' | '*' | '/' | 'pow' | 'neg' | 'call'
        self.value = value        # float for const, index for var, name for call, exponent for pow
        self.args = tuple(args)

    # -- constructors with light simplification ---------------------------

    @staticmethod
    def const(v):
        if not np.isfinite(float(v)):
            raise ValueError(f"non-finite constant {float(v)} in drift expression")
        return Expr("const", float(v))

    @staticmethod
    def var(i):
        return Expr("var", int(i))

    @staticmethod
    def add(a, b):
        if a.kind == "const" and b.kind == "const":
            return Expr.const(a.value + b.value)
        if a.kind == "const" and a.value == 0.0:
            return b
        if b.kind == "const" and b.value == 0.0:
            return a
        return Expr("+", None, (a, b))

    @staticmethod
    def mul(a, b):
        if a.kind == "const" and b.kind == "const":
            return Expr.const(a.value * b.value)
        for u, v in ((a, b), (b, a)):
            if u.kind == "const":
                if u.value == 0.0:
                    return Expr.const(0.0)
                if u.value == 1.0:
                    return v
        return Expr("*", None, (a, b))

    @staticmethod
    def div(a, b):
        if b.kind == "const":
            if b.value == 0.0:
                raise ZeroDivisionError("division by constant zero in drift expression")
            return Expr.mul(a, Expr.const(1.0 / b.value))
        if a.kind == "const" and a.value == 0.0:
            return Expr.const(0.0)
        return Expr("/", None, (a, b))

    @staticmethod
    def neg(a):
        if a.kind == "const":
            return Expr.const(-a.value)
        return Expr("neg", None, (a,))

    @staticmethod
    def pow(a, n):
        n = int(n)
        if not -2**63 <= n < 2**63:
            raise ValueError(f"exponent {n} out of the int64 range in drift expression")
        if n == 0:
            return Expr.const(1.0)
        if n == 1:
            return a
        if a.kind == "const":
            return Expr.const(a.value ** n)
        return Expr("pow", n, (a,))

    @staticmethod
    def call(name, a):
        if name not in _FUNCS:
            raise ValueError(f"unknown function {name!r} in drift expression")
        if a.kind == "const":
            with np.errstate(all="ignore"):  # a nan or inf result is Expr.const's error
                return Expr.const(_FUNCS[name][0](a.value))
        return Expr("call", name, (a,))

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Evaluate on states ``x`` of shape (k, ...); returns shape (...)."""
        x = np.asarray(x, dtype=float)
        return _run(_compile([(self, ())]), x, np.empty(x.shape[1:]))

    # -- symbolic derivative ------------------------------------------------

    def diff(self, i):
        """Partial derivative with respect to variable index ``i`` (0-based)."""
        if self.kind == "const":
            return Expr.const(0.0)
        if self.kind == "var":
            return Expr.const(1.0 if self.value == i else 0.0)
        if self.kind == "+":
            return Expr.add(self.args[0].diff(i), self.args[1].diff(i))
        if self.kind == "*":
            a, b = self.args
            return Expr.add(Expr.mul(a.diff(i), b), Expr.mul(a, b.diff(i)))
        if self.kind == "/":
            a, b = self.args
            num = Expr.add(Expr.mul(a.diff(i), b), Expr.neg(Expr.mul(a, b.diff(i))))
            return Expr.div(num, Expr.pow(b, 2))
        if self.kind == "neg":
            return Expr.neg(self.args[0].diff(i))
        if self.kind == "pow":
            a = self.args[0]
            return Expr.mul(Expr.mul(Expr.const(self.value), Expr.pow(a, self.value - 1)),
                            a.diff(i))
        if self.kind == "call":
            a = self.args[0]
            return Expr.mul(_FUNCS[self.value][1](a), a.diff(i))
        raise AssertionError(self.kind)

    def is_zero(self):
        return self.kind == "const" and self.value == 0.0

    def key(self):
        if self.kind == "const":
            return f"c{self.value!r}"
        if self.kind == "var":
            return f"x{self.value}"
        if self.kind == "pow":
            return f"pow{self.value}({self.args[0].key()})"
        if self.kind == "call":
            return f"{self.value}({self.args[0].key()})"
        return f"{self.kind}({','.join(a.key() for a in self.args)})"

    def __repr__(self):
        return f"Expr[{self.key()}]"


_BINARY = {"+": operator.add, "*": operator.mul, "/": operator.truediv}


def _compile(entries):
    """Compile ``(expr, index)`` pairs into a tape that writes each
    expression to ``out[index]``.

    The tape is ``(registers, ops, fills)``: the initial registers (0 takes
    the states; constants and exponents are preloaded), the operations
    ``(fn, a, b, dst, stores, dead)`` in evaluation order, and the
    ``(value, index)`` of constant entries.  An operation puts ``fn(r[a])``,
    or ``fn(r[a], r[b])`` when ``b >= 0``, in register ``dst``, writes it to
    every index in ``stores`` and then drops the registers in ``dead``.
    """
    registers = [None]
    slot = {}                 # node key -> register
    producer = {}             # register -> its operation
    ops = []

    def preload(key, value):
        if key not in slot:
            slot[key] = len(registers)
            registers.append(value)
        return slot[key]

    def emit(key, fn, a, b=-1):
        dst = slot[key] = len(registers)
        registers.append(None)
        producer[dst] = len(ops)
        ops.append((fn, a, b, dst, []))
        return dst

    def visit(e):
        key = e.key()
        if key in slot:
            return slot[key]
        if e.kind == "const":
            return preload(key, e.value)
        if e.kind == "var":
            return emit(key, operator.itemgetter(e.value), 0)
        if e.kind in _BINARY:
            a = visit(e.args[0])
            return emit(key, _BINARY[e.kind], a, visit(e.args[1]))
        a = visit(e.args[0])
        if e.kind == "neg":
            return emit(key, operator.neg, a)
        if e.kind == "pow":
            return emit(key, operator.pow, a, preload(("exponent", e.value), e.value))
        return emit(key, _FUNCS[e.value][0], a)

    fills = []
    for expr, index in entries:
        reg = visit(expr)
        index = tuple(index)
        if reg in producer:
            ops[producer[reg]][4].append(index)
        else:
            fills.append((registers[reg], index))

    # liveness, walking back: a register no later operation reads dies here
    read, tape = set(), []
    for fn, a, b, dst, stores in reversed(ops):
        dead = tuple(r for r in dict.fromkeys((dst, a, b)) if r in producer and r not in read)
        read.update((a, b))
        tape.append((fn, a, b, dst, tuple(stores), dead))
    tape.reverse()
    return registers, tape, fills


def _run(tape, x, out):
    """Run a compiled tape on states ``x`` and return ``out``."""
    registers, ops, fills = tape
    r = list(registers)
    r[0] = x
    for value, index in fills:
        out[index] = value
    for fn, a, b, dst, stores, dead in ops:
        val = fn(r[a]) if b < 0 else fn(r[a], r[b])
        for index in stores:
            out[index] = val
        r[dst] = val
        for i in dead:
            r[i] = None
    return out


# the constructor of each accepted binary operator of Python's syntax tree
_AST_OPS = {ast.Add: Expr.add, ast.Sub: lambda a, b: Expr.add(a, Expr.neg(b)),
            ast.Mult: Expr.mul, ast.Div: Expr.div}


def _walk(node, n_vars):
    """The Expr of one node of a parsed expression and its subtree; a node
    outside the grammar is a ValueError.  Nothing is evaluated."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        if not abs(node.value) <= sys.float_info.max:
            raise ValueError("number literal too large for a float in drift expression")
        return Expr.const(node.value)
    if isinstance(node, ast.Name):
        m = re.fullmatch(r"x(\d+)", node.id)
        if not m:
            raise ValueError(f"unknown symbol {node.id!r}; variables are x1..x{n_vars}")
        if not 1 <= int(m.group(1)) <= n_vars:
            raise ValueError(f"variable {node.id} out of range for {n_vars} state variables")
        return Expr.var(int(m.group(1)) - 1)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return Expr.neg(_walk(node.operand, n_vars))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        n, sign = node.right, 1
        if isinstance(n, ast.UnaryOp) and isinstance(n.op, ast.USub):
            n, sign = n.operand, -1
        if not (isinstance(n, ast.Constant) and type(n.value) is int):
            raise ValueError("exponent must be an integer literal")
        return Expr.pow(_walk(node.left, n_vars), sign * n.value)
    if isinstance(node, ast.BinOp) and type(node.op) in _AST_OPS:
        return _AST_OPS[type(node.op)](_walk(node.left, n_vars), _walk(node.right, n_vars))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords):
        return Expr.call(node.func.id, _walk(node.args[0], n_vars))
    raise ValueError(f"{ast.unparse(node).replace('**', '^')!r} is not allowed "
                     "in a drift expression")


def parse_expr(text, n_vars):
    """Parse one expression string over variables x1..x``n_vars``: Python's
    parser reads it, with ``^`` for ``**``, and ``_walk`` checks its tree."""
    if not isinstance(text, str):
        raise ValueError(f"a drift expression is a string, got {text!r}")
    text = " ".join(text.split())
    if "**" in text:
        raise ValueError("powers are written '^' in drift expressions, not '**'")
    try:
        return _walk(ast.parse(text.replace("^", "**"), mode="eval").body, n_vars)
    except (SyntaxError, RecursionError) as exc:
        raise ValueError(f"malformed drift expression {text[:80]!r}: "
                         f"{getattr(exc, 'msg', exc)}") from None


class DriftExpr:
    """A vector field R^k -> R^n given by expression strings, with exact
    first and second derivatives.

    Evaluation is vectorized and component-first: ``value(x)`` accepts x of
    shape (k, ...).  Each of ``value``, ``jacobian`` and ``hessian`` runs one
    tape compiled at construction.
    """

    def __init__(self, exprs, n_vars):
        if isinstance(exprs, str):
            exprs = [exprs]
        self.n_vars = int(n_vars)
        self.components = [e if isinstance(e, Expr) else parse_expr(e, self.n_vars)
                           for e in exprs]
        self.n_out = len(self.components)
        self._grad = [[c.diff(i) for i in range(self.n_vars)] for c in self.components]
        self._hess = [[[g.diff(j) for j in range(self.n_vars)] for g in row]
                      for row in self._grad]
        self._value_tape = _compile([(c, (a,)) for a, c in enumerate(self.components)])
        self._jac_tape = _compile([(g, (a, i)) for a, row in enumerate(self._grad)
                                   for i, g in enumerate(row)])
        self._hess_tape = _compile([(h, (a, i, j)) for a, mat in enumerate(self._hess)
                                    for i, row in enumerate(mat)
                                    for j, h in enumerate(row)])

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return _run(self._value_tape, x, np.empty((self.n_out,) + x.shape[1:]))

    def jacobian(self, x):
        """Shape (n_out, n_vars, ...)."""
        x = np.asarray(x, dtype=float)
        return _run(self._jac_tape, x,
                    np.empty((self.n_out, self.n_vars) + x.shape[1:]))

    def hessian(self, x):
        """Shape (n_out, n_vars, n_vars, ...)."""
        x = np.asarray(x, dtype=float)
        return _run(self._hess_tape, x,
                    np.empty((self.n_out, self.n_vars, self.n_vars) + x.shape[1:]))

    def is_constant_jacobian(self):
        return all(h.is_zero() for mat in self._hess for row in mat for h in row)

    def __repr__(self):
        return f"DriftExpr({[c.key() for c in self.components]})"
