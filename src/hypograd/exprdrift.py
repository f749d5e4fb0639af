"""Tiny expression language for drift declarations.

Drift components are written as strings in the state variables ``x1..xk``,
e.g. ``"-x1 - 0.4*x1^3 - x2"``.  Expressions are parsed into small trees that
evaluate vectorized over batches of states and differentiate symbolically, so
user-declared models get exact Jacobians (and Hessians, needed by the
anticipative divergence) without dynamic code loading.

Grammar:  expr   := term (('+'|'-') term)*
          term   := factor (('*'|'/') factor)*
          factor := unary ('^' integer)?
          unary  := '-' unary | atom
          atom   := number | variable | function '(' expr ')' | '(' expr ')'

Supported functions: sin, cos, exp, tanh, sqrt, log.

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

import operator
import re

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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


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
            return Expr.const(float(_FUNCS[name][0](a.value)))
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


def _tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].strip()
            if not tail:
                break
            raise ValueError(f"cannot tokenize drift expression at: {tail!r}")
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, n_vars):
        self.tokens = tokens
        self.pos = 0
        self.n_vars = n_vars

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ValueError(f"expected {op!r} in drift expression, got {val!r}")

    def parse(self):
        e = self.expr()
        if self.pos != len(self.tokens):
            raise ValueError(f"trailing input in drift expression: {self.tokens[self.pos:]}")
        return e

    def expr(self):
        e = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            e = Expr.add(e, rhs if op == "+" else Expr.neg(rhs))
        return e

    def term(self):
        e = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.factor()
            e = Expr.mul(e, rhs) if op == "*" else Expr.div(e, rhs)
        return e

    def factor(self):
        e = self.unary()
        if self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind == "op" and val == "-":
                kind, val = self.take()
                val = -val
            if kind != "num" or val != int(val):
                raise ValueError("exponent must be an integer literal")
            e = Expr.pow(e, int(val))
        return e

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return Expr.neg(self.unary())
        return self.atom()

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return Expr.const(val)
        if kind == "name":
            if val in _FUNCS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Expr.call(val, inner)
            m = re.fullmatch(r"x(\d+)", val)
            if not m:
                raise ValueError(f"unknown symbol {val!r}; variables are x1..x{self.n_vars}")
            idx = int(m.group(1)) - 1
            if not 0 <= idx < self.n_vars:
                raise ValueError(f"variable {val} out of range for {self.n_vars} state variables")
            return Expr.var(idx)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ValueError(f"unexpected token {val!r} in drift expression")


def parse_expr(text, n_vars):
    """Parse one expression string over variables x1..x``n_vars``."""
    return _Parser(_tokenize(text), n_vars).parse()


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
        self.components = [parse_expr(e, self.n_vars) if isinstance(e, str) else e
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
