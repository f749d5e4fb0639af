import warnings

import numpy as np
import pytest

from hypograd.exprdrift import _FUNCS, DriftExpr, Expr, parse_expr


def test_parse_and_eval_polynomial():
    e = parse_expr("x1 + 0.4*x1^3 - 2*x2", 2)
    x = np.array([[1.0, 0.5], [2.0, -1.0]])          # component-first: (2 vars, 2 points)
    expect = x[0] + 0.4 * x[0] ** 3 - 2 * x[1]
    assert np.allclose(e(x), expect)


def test_symbolic_derivative_matches_fd():
    e = parse_expr("sin(x1)*exp(x2) + x1^2/(1 + x2^2)", 2)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(2, 50))
    h = 1e-6
    for i in range(2):
        step = np.zeros((2, 1))
        step[i] = h
        fd = (e(x + step) - e(x - step)) / (2 * h)
        assert np.allclose(e.diff(i)(x), fd, atol=1e-7)


def test_second_derivatives():
    field = DriftExpr(["x1^3 * x2"], 2)
    x = np.array([[2.0], [3.0]])
    hess = field.hessian(x)[0, :, :, 0]
    # d2/dx1dx1 = 6 x1 x2, d2/dx1dx2 = 3 x1^2, d2/dx2dx2 = 0
    assert np.allclose(hess, [[36.0, 12.0], [12.0, 0.0]])


def test_constant_jacobian_detection():
    assert DriftExpr(["x2", "-x1 - x2"], 2).is_constant_jacobian()
    assert not DriftExpr(["x1*x2"], 2).is_constant_jacobian()


def test_unknown_symbol_rejected():
    with pytest.raises(ValueError):
        parse_expr("x3 + 1", 2)
    with pytest.raises(ValueError):
        parse_expr("foo(x1)", 2)


def test_integer_exponent_required():
    with pytest.raises(ValueError):
        parse_expr("x1^0.5", 1)


def test_division_and_functions():
    e = parse_expr("tanh(x1) / (2 + cos(x1))", 1)
    x = np.array([[0.3]])
    assert np.isclose(e(x)[0], np.tanh(0.3) / (2 + np.cos(0.3)))


def _recursive(e, x):
    """Reference evaluator: each node visit computes its operands afresh,
    with constants as full arrays."""
    if e.kind == "const":
        return np.full(x.shape[1:], e.value)
    if e.kind == "var":
        return x[e.value]
    if e.kind == "+":
        return _recursive(e.args[0], x) + _recursive(e.args[1], x)
    if e.kind == "*":
        return _recursive(e.args[0], x) * _recursive(e.args[1], x)
    if e.kind == "/":
        return _recursive(e.args[0], x) / _recursive(e.args[1], x)
    if e.kind == "neg":
        return -_recursive(e.args[0], x)
    if e.kind == "pow":
        return _multiplied_power(_recursive(e.args[0], x), e.value)
    return _FUNCS[e.value][0](_recursive(e.args[0], x))


def _multiplied_power(base, n):
    """base^n as the tapes form it: the squares base^(2^k) for the set bits k
    of |n|, multiplied together from the lowest bit, then 1/that if n < 0."""
    squares = [base]
    while 2 ** len(squares) <= abs(n):
        squares.append(squares[-1] * squares[-1])
    used = [sq for k, sq in enumerate(squares) if abs(n) >> k & 1]
    prod = used[0]
    for sq in used[1:]:
        prod = prod * sq
    return 1.0 / prod if n < 0 else prod


def _reference(field, x, method):
    """``field.value/jacobian/hessian`` computed entry by entry with
    ``_recursive``."""
    entries = {"value": [((a,), c) for a, c in enumerate(field.components)],
               "jacobian": [((a, i), g) for a, row in enumerate(field._grad)
                            for i, g in enumerate(row)],
               "hessian": [((a, i, j), h) for a, mat in enumerate(field._hess)
                           for i, row in enumerate(mat) for j, h in enumerate(row)]}
    tail = {"value": (field.n_out,), "jacobian": (field.n_out, field.n_vars),
            "hessian": (field.n_out, field.n_vars, field.n_vars)}[method]
    out = np.empty(tail + x.shape[1:])
    for idx, e in entries[method]:
        out[idx] = _recursive(e, x)
    return out


_TAPE_FIELDS = [
    # every function, division, powers 2/3/4/-1, a subtree shared by both
    # components, and a constant and a variable component
    ["sin(x1)*exp(x2) + cos(x1 + x2)^3 - tanh(x1*x2)",
     "sqrt(1 + x1^2)/(2 + x2^4) + log(1 + x2^2) - x1^-1",
     "(x1^2 + x2)*sin(x1^2 + x2) + 0.5/(x1^2 + x2)",
     "2.5", "x2"],
    # the state-dependent mass hamiltonian of the anticipative workload
    ["(1 + 0.2*x1^2)*x2", "-(x1 + 0.4*x1^3) - 0.5*(0.4*x1)*x2^2"],
]


@pytest.mark.parametrize("exprs", _TAPE_FIELDS)
def test_tape_matches_recursive_evaluation_bitwise(exprs):
    field = DriftExpr(exprs, 2)
    rng = np.random.default_rng(3)
    batch = rng.uniform(0.3, 1.7, size=(2, 7, 9))
    strided = rng.uniform(0.3, 1.7, size=(9, 7, 2)).transpose(2, 1, 0)
    for x in (batch[:, 0, 0], batch[:, 0], batch, strided, strided[:, 3]):
        for method in ("value", "jacobian", "hessian"):
            got = getattr(field, method)(x)
            ref = _reference(field, x, method)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), (method, x.shape)
        for c in field.components:
            assert c(x).tobytes() == np.ascontiguousarray(_recursive(c, x)).tobytes()


def test_tape_runs_shared_subtrees_once(monkeypatch):
    calls = []

    def spy(a):
        calls.append(a.shape)
        return np.sin(a)

    monkeypatch.setitem(_FUNCS, "sin", (spy, _FUNCS["sin"][1]))
    e = Expr.call("sin", parse_expr("x1^2 + x2", 2))
    field = DriftExpr([Expr.add(e, Expr.mul(e, e)), Expr.neg(e)], 2)
    field.value(np.ones((2, 4)))
    assert len(calls) == 1


# parse_expr(text, n).key() of every expression string in configs/,
# perfbench/workloads.py, the README and the test models, as the
# hand-written recursive-descent parser built them
_PINNED_KEYS = {
    "(1 + 0.2*x1^2)*x2": (2, "*(+(c1.0,*(c0.2,pow2(x0))),x1)"),
    "(x1^2 + x2)*sin(x1^2 + x2) + 0.5/(x1^2 + x2)":
        (2, "+(*(+(pow2(x0),x1),sin(+(pow2(x0),x1))),/(c0.5,+(pow2(x0),x1)))"),
    "-(x1 + 0.4*x1^3) - 0.5*(0.4*x1)*x2^2":
        (2, "+(neg(+(x0,*(c0.4,pow3(x0)))),neg(*(*(c0.5,*(c0.4,x0)),pow2(x1))))"),
    "-10*x1^4": (1, "*(c-10.0,pow4(x0))"),
    "-5*x1^4": (1, "*(c-5.0,pow4(x0))"),
    "-x1": (1, "neg(x0)"),
    "-x1 - x2": (2, "+(neg(x0),neg(x1))"),
    "-x1 - x2 - 0.4*x1^3": (2, "+(+(neg(x0),neg(x1)),neg(*(c0.4,pow3(x0))))"),
    "-x1 - x3": (3, "+(neg(x0),neg(x2))"),
    "-x1 - x4": (4, "+(neg(x0),neg(x3))"),
    "-x2 - 0.5*x4 + 0.1*x1^2": (4, "+(+(neg(x1),neg(*(c0.5,x3))),*(c0.1,pow2(x0)))"),
    "-x2 - 0.5*x5 + 0.1*x1^2": (5, "+(+(neg(x1),neg(*(c0.5,x4))),*(c0.1,pow2(x0)))"),
    "-x3": (3, "neg(x2)"),
    "-x3 + 0.2*x1^2": (3, "+(neg(x2),*(c0.2,pow2(x0)))"),
    "-x3 - x6 + 0.1*x2*x3": (6, "+(+(neg(x2),neg(x5)),*(*(c0.1,x1),x2))"),
    "0": (1, "c0.0"),
    "0*x2": (2, "c0.0"),
    "0.25*x1^2": (1, "*(c0.25,pow2(x0))"),
    "0.5*x1^2": (1, "*(c0.5,pow2(x0))"),
    "0.5*x1^2 + 0.1*x1^4": (1, "+(*(c0.5,pow2(x0)),*(c0.1,pow4(x0)))"),
    "0.5*x1^2 + 0.3*x2^2 + 0.1*x1*x2^3":
        (2, "+(+(*(c0.5,pow2(x0)),*(c0.3,pow2(x1))),*(*(c0.1,x0),pow3(x1)))"),
    "1 + 0.1*x1^2": (1, "+(c1.0,*(c0.1,pow2(x0)))"),
    "1 + 0.2*x1^2": (1, "+(c1.0,*(c0.2,pow2(x0)))"),
    "1 + 0.3*x1^2": (1, "+(c1.0,*(c0.3,pow2(x0)))"),
    "1 + x1^2": (1, "+(c1.0,pow2(x0))"),
    "2 - x2": (2, "+(c2.0,neg(x1))"),
    "2.5": (1, "c2.5"),
    "sin(x1)*exp(x2) + cos(x1 + x2)^3 - tanh(x1*x2)":
        (2, "+(+(*(sin(x0),exp(x1)),pow3(cos(+(x0,x1)))),neg(tanh(*(x0,x1))))"),
    "sin(x1)*exp(x2) + x1^2/(1 + x2^2)": (2, "+(*(sin(x0),exp(x1)),/(pow2(x0),+(c1.0,pow2(x1))))"),
    "sqrt(1 + x1^2)/(2 + x2^4) + log(1 + x2^2) - x1^-1":
        (2, "+(+(/(sqrt(+(c1.0,pow2(x0))),+(c2.0,pow4(x1))),log(+(c1.0,pow2(x1)))),"
            "neg(pow-1(x0)))"),
    "tanh(x1) / (2 + cos(x1))": (1, "/(tanh(x0),+(c2.0,cos(x0)))"),
    "x1 + 0.4*x1^3 - 2*x2": (2, "+(+(x0,*(c0.4,pow3(x0))),neg(*(c2.0,x1)))"),
    "x1*x2": (2, "*(x0,x1)"),
    "x1^2 + x2": (2, "+(pow2(x0),x1)"),
    "x1^3 * x2": (2, "*(pow3(x0),x1)"),
    "x2": (2, "x1"),
    "x2 + 0.05*x1^2*x2": (2, "+(x1,*(*(c0.05,pow2(x0)),x1))"),
    "x2 + 0.1*x1^2": (2, "+(x1,*(c0.1,pow2(x0)))"),
    "x2 + 0.1*x1^2*x2": (2, "+(x1,*(*(c0.1,pow2(x0)),x1))"),
    "x2 + 0.4*x3 + 0.1*x1^2*x2": (3, "+(+(x1,*(c0.4,x2)),*(*(c0.1,pow2(x0)),x1))"),
    "x3": (3, "x2"),
    "x3 + 0.3*x1*x4": (4, "+(x2,*(*(c0.3,x0),x3))"),
    "x3 + 0.3*x1*x4 + 0.2*x2*x4": (4, "+(+(x2,*(*(c0.3,x0),x3)),*(*(c0.2,x1),x3))"),
    "x3 + 1": (3, "+(x2,c1.0)"),
    "x4 + 0.2*x1*x5": (5, "+(x3,*(*(c0.2,x0),x4))"),
    "x4 + 0.2*x2^2 + 0.1*x1*x3": (4, "+(+(x3,*(c0.2,pow2(x1))),*(*(c0.1,x0),x2))"),
    "x4 + 0.2*x2^2 + 0.1*x3": (4, "+(+(x3,*(c0.2,pow2(x1))),*(c0.1,x2))"),
    "x5 + 0.1*x2^2 + 0.1*x4": (5, "+(+(x4,*(c0.1,pow2(x1))),*(c0.1,x3))"),
    "x6 + 0.1*x3*x4": (6, "+(x5,*(*(c0.1,x2),x3))"),
}


def test_parse_builds_the_pinned_trees():
    for text, (n_vars, key) in _PINNED_KEYS.items():
        assert parse_expr(text, n_vars).key() == key, text


@pytest.mark.parametrize("text, reference", [
    ("-x1^2", lambda x1, x2: -(x1 ** 2)),
    ("-2^2", lambda x1, x2: np.full_like(x1, -4.0)),
    ("2*-x1^2", lambda x1, x2: 2 * -(x1 ** 2)),
    ("x1^-2", lambda x1, x2: x1 ** -2.0),
    ("-(x1 + x2)^2", lambda x1, x2: -((x1 + x2) ** 2)),
    ("-x1^2 + x1^4", lambda x1, x2: -(x1 ** 2) + x1 ** 4),
    ("x1 +\n  2 *\tx2", lambda x1, x2: x1 + 2 * x2),
])
def test_power_binds_tighter_than_unary_minus(text, reference):
    x = np.array([[3.0, -1.5, 0.5], [0.7, 2.0, -0.2]])
    assert np.array_equal(parse_expr(text, 2)(x), reference(*x))


def test_integer_powers_are_products_of_squares():
    # x^2 and x^-1 keep the bits of numpy's ** (square and reciprocal); other
    # exponents are products of squares, which round the same on every host,
    # where np.power's loop differs from libm's pow in the last bit
    x = np.random.default_rng(5).uniform(-3.0, 3.0, (1, 20000))
    x1, sq = x[0], x[0] * x[0]
    expected = {"x1^2": x1 ** 2, "x1^-1": x1 ** -1, "x1^3": x1 * sq, "x1^4": sq * sq,
                "x1^-2": 1.0 / sq, "x1^5": x1 * (sq * sq), "x1^6": sq * (sq * sq),
                "x1^-3": 1.0 / (x1 * sq)}
    for text, ref in expected.items():
        assert parse_expr(text, 1)(x).tobytes() == ref.tobytes(), text


# inputs outside the grammar; the last was a silent inf constant before
REJECTED = ["x1**2", "x1 if x2 else 1", '__import__("os")', "x1.real", "sin(x1, x2)",
            "sin(x=x1)", "x1^0.5", "x1^(1+1)", "0.5*x1^", "x1 x2", "1" + "0" * 400]


@pytest.mark.parametrize("text", REJECTED + ["01", "True", "1j", "+x1", "x1^True",
                                             "sin(*x1)", "1e400", "x0", "x1 // 2",
                                             "lambda: x1", "[x1]", "-" * 5000 + "x1"],
                         ids=lambda text: text if len(text) < 20 else text[:8] + "...")
def test_inputs_outside_the_grammar_are_value_errors(text):
    with pytest.raises(ValueError):
        parse_expr(text, 2)



def test_folded_constants_and_exponents_must_be_representable():
    # a nan or inf constant, from a literal or a fold, and an exponent beyond
    # int64 once built a tree; sqrt(-1) also printed a numpy warning
    for v in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="non-finite constant"):
            Expr.const(v)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name, arg, named in (("sqrt", -1.0, "nan"), ("log", 0.0, "-inf"),
                                 ("exp", 1e3, "inf")):
            with pytest.raises(ValueError, match=f"constant {named} "):
                Expr.call(name, Expr.const(arg))
    assert caught == []
    assert Expr.pow(Expr.var(0), 2**63 - 1).value == 2**63 - 1
    assert Expr.pow(Expr.var(0), -2**63).value == -2**63
    for n in (2**63, -2**63 - 1):
        with pytest.raises(ValueError, match="int64"):
            Expr.pow(Expr.var(0), n)
