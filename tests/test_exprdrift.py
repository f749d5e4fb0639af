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
        return _recursive(e.args[0], x) ** e.value
    return _FUNCS[e.value][0](_recursive(e.args[0], x))


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
