"""Declaration and validation of the degenerate SDE model.

A model is the pair of drift blocks

    dX1 = Z1(X1, X2) dt
    dX2 = Z2(X1, X2) dt + sigma dB,

with X1 in R^m (noise-free block), X2 in R^d (driven block), together with
the splitting of the cross Jacobian d(Z1)/d(x2) = B0 + B(x) into a constant
part B0 and a remainder B that B0 dominates:

    <B(x) B0^T a, a> >= -epsilon |B0^T a|^2   for all a,  epsilon in [0, 1).

The drift callables are vectorized and component-first, states (m+d, ...);
the Lyapunov data of ``HypothesisData`` takes points (..., m+d).
A model supplies the whole drift Z = (Z1, Z2) and its whole Jacobian DZ;
code that needs a block, such as the cross Jacobian d(Z1)/d(x2), slices it.
Every model the package builds, built-in or custom, is an expression model:
``expression_model`` derives Z, DZ, the second derivatives of Z1, whether
d1Z1 is constant and the matrix of an affine Z from one list of trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError
from .exprdrift import DriftExpr, Expr, parse_expr

__all__ = [
    "ModelSpec",
    "HypothesisData",
    "CheckResult",
    "ValidationReport",
    "validate_model",
    "builtin_model",
    "builtin_schemas",
    "drift_split",
    "expression_model",
]

_SIGMA_COND_CAP = 1e8    # cond(sigma) at or above this counts as singular


@dataclass(frozen=True)
class HypothesisData:
    """Lyapunov data backing the growth hypotheses.

    w(x) >= 1 with w -> infinity; grad2_w is the gradient of w in the driven
    block only.  l1 in [0, 1] bounds the growth of the first drift
    derivatives (||dZ|| <= C w^l1) and l2 >= 0 that of the second.
    """

    w: Callable[[np.ndarray], np.ndarray]
    grad2_w: Callable[[np.ndarray], np.ndarray]
    c_const: float
    l1: float
    l2: float

    def __post_init__(self):
        if not (0.0 <= self.l1 <= 1.0):
            raise ConfigurationError(f"l1 must be in [0,1], got {self.l1}")
        if self.l2 < 0.0:
            raise ConfigurationError(f"l2 must be >= 0, got {self.l2}")
        if self.c_const <= 0.0:
            raise ConfigurationError(f"c_const must be positive, got {self.c_const}")


@dataclass(frozen=True)
class ModelSpec:
    """Immutable model declaration.

    ``z`` is the drift Z, shape (m+d, ...), and ``dz`` its Jacobian DZ,
    shape (m+d, m+d, ...); blocks are slices of these.  ``hess_z1`` returns
    the second-derivative stack of Z1, shape (m, m+d, m+d, ...); the
    anticipative Skorokhod trace needs it.  ``constant_jac_z1`` says d1Z1
    is constant, and ``drift_matrix`` is DZ of an affine Z; the package's
    models get these three from ``expression_model``, a hand-built one sets
    them itself.  All callables must be pure so the model object can be
    shared across concurrent path workers.
    The Euler loop and the flows call Z and DZ through the ``drift`` and
    ``full_jacobian`` methods, which ``perfbench/tracer.py`` times.
    """

    m: int
    d: int
    z: Callable[[np.ndarray], np.ndarray]
    dz: Callable[[np.ndarray], np.ndarray]
    sigma: np.ndarray
    b0: np.ndarray
    epsilon: float
    hypothesis: Optional[HypothesisData] = None
    hess_z1: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constant_jac_z1: bool = False
    drift_matrix: Optional[np.ndarray] = None
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.m < 1 or self.d < 1:
            raise ConfigurationError("dimensions m, d must be positive integers")
        for key, shape in (("sigma", (self.d, self.d)), ("b0", (self.m, self.d))):
            val = np.atleast_2d(np.asarray(getattr(self, key), dtype=float))
            if val.shape != shape:
                raise ConfigurationError(f"{key} must be {shape[0]}x{shape[1]}, got {val.shape}")
            if not np.all(np.isfinite(val)):
                raise ConfigurationError(f"{key} must be finite, got {val.tolist()}")
            object.__setattr__(self, key, val)
        if not (0.0 <= self.epsilon < 1.0):
            raise ConfigurationError(f"epsilon must be in [0,1), got {self.epsilon}")
        if self.drift_matrix is not None:
            g = np.asarray(self.drift_matrix, dtype=float)
            n = self.m + self.d
            if g.shape != (n, n):
                raise ConfigurationError(f"drift_matrix must be {n}x{n}, got {g.shape}")
            object.__setattr__(self, "drift_matrix", g)

    @property
    def dim(self):
        return self.m + self.d

    @property
    def is_linear(self):
        return self.drift_matrix is not None

    def sigma_inv(self):
        return np.linalg.inv(self.sigma)

    def drift(self, x):
        """Full drift Z(x) of shape (m+d, ...)."""
        return self.z(x)

    def full_jacobian(self, x):
        """Full (m+d) x (m+d) Jacobian of Z, shape (m+d, m+d, ...)."""
        return self.dz(x)


def drift_split(spec, x):
    """Remainder B(x) = d(Z1)/d(x2) - B0 of the drift splitting, (m, d, ...)."""
    return spec.dz(x)[:spec.m, spec.m:] - spec.b0.reshape(spec.b0.shape + (1,) * (np.ndim(x) - 1))


@dataclass
class CheckResult:
    name: str
    passed: bool
    margin: float
    witness: Optional[np.ndarray] = None
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def overall(self):
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: margin={c.margin:.3e} {c.detail}")
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines)


def _sobol_points(box_lo, box_hi, n, seed):
    from scipy.stats import qmc  # deferred: slow to import

    dim = box_lo.size
    sampler = qmc.Sobol(d=dim, scramble=True, seed=seed)
    n_draw = 1 << max(0, math.ceil(math.log2(max(n, 1))))
    pts = sampler.random(n_draw)[:n]
    return box_lo + pts * (box_hi - box_lo)


def validate_model(spec, sample_box, n_samples=256, seed=0):
    """Sampled verification of the model's structural hypotheses.

    ``sample_box`` is a pair (lo, hi) of vectors in R^{m+d}.  Checks:
    sigma invertibility, analytic-vs-finite-difference Jacobian agreement,
    the domination inequality at quasi-random points and unit directions,
    and (when hypothesis data is present) the Lyapunov growth bounds.
    """
    lo = np.asarray(sample_box[0], dtype=float).ravel()
    hi = np.asarray(sample_box[1], dtype=float).ravel()
    n = spec.dim
    if lo.shape != (n,) or hi.shape != (n,):
        raise ConfigurationError(f"sample box must be two vectors of length {n}")
    if not np.all(hi > lo):
        raise ConfigurationError("sample box is degenerate (need hi > lo)")
    if n_samples < 1:
        raise ConfigurationError("n_samples must be >= 1")

    checks = []
    x = _sobol_points(lo, hi, n_samples, seed)

    # (i) sigma invertibility -- hard requirement, the bridge needs sigma^{-1}
    svals = np.linalg.svd(spec.sigma, compute_uv=False)
    cond = svals[0] / svals[-1] if svals[-1] > 0 else np.inf
    sigma_ok = np.isfinite(cond) and cond < _SIGMA_COND_CAP
    checks.append(CheckResult("sigma_invertible", bool(sigma_ok), float(_SIGMA_COND_CAP - cond),
                              detail=f"cond(sigma)={cond:.3e}"))
    if not sigma_ok:
        raise ConfigurationError(f"sigma is numerically singular (cond={cond:.3e})")

    # shape sanity at the box center
    center = 0.5 * (lo + hi)
    _check_shapes(spec, center)

    # (ii) Jacobian consistency against central differences
    checks.append(_jacobian_check(spec, x))

    # (iii) domination of B by B0 at sampled states and unit directions
    checks.append(_domination_check(spec, x, seed))

    # (iv) Lyapunov hypothesis checks
    if spec.hypothesis is not None:
        checks.extend(_hypothesis_checks(spec, x))

    return ValidationReport(checks)


def _check_shapes(spec, x0):
    x = np.asarray(x0, dtype=float)[:, None]
    n = spec.dim
    z = np.asarray(spec.z(x))
    if z.shape[0] != n:
        raise ConfigurationError(f"z returns dimension {z.shape[0]}, expected m+d={n}")
    if np.asarray(spec.dz(x)).shape[:2] != (n, n):
        raise ConfigurationError(f"dz must return {n}x{n} Jacobians")


def _jacobian_check(spec, x, rel_tol=1e-5):
    n = spec.dim
    h = 1e-5 * (1.0 + np.linalg.norm(x, axis=-1))
    worst = 0.0
    witness = None
    an = np.moveaxis(spec.dz(x.T), (0, 1), (-2, -1))
    for c, e in enumerate(np.eye(n)):
        xp = x + h[:, None] * e
        xm = x - h[:, None] * e
        fd = (spec.drift(xp.T) - spec.drift(xm.T)).T / (2.0 * h[:, None])
        err = np.abs(fd - an[..., c]) / (1.0 + np.abs(an[..., c]))
        idx = np.argmax(err)
        if err.flat[idx] > worst:
            worst = float(err.flat[idx])
            witness = x[idx // spec.dim]
    return CheckResult("jacobian_consistency", worst <= rel_tol, rel_tol - worst,
                       witness=witness, detail=f"max rel err={worst:.3e}")


def _domination_check(spec, x, seed, slack=1e-12):
    m = spec.m
    rng = np.random.default_rng(seed + 1)
    dirs = [np.eye(m)[i] for i in range(m)]
    extra = rng.standard_normal((m, m))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    dirs.extend(extra)
    b = drift_split(spec, x.T)                     # (m, d, n_pts)
    b0t = spec.b0.T                                # (d, m)
    worst = np.inf
    witness = None
    for a in dirs:
        b0a = b0t @ a                              # (d,)
        lhs = np.einsum("mdp,d,m->p", b, b0a, a)   # <B(x) B0^T a, a>
        margin = lhs + spec.epsilon * float(b0a @ b0a)
        idx = int(np.argmin(margin))
        if margin[idx] < worst:
            worst = float(margin[idx])
            witness = x[idx]
    return CheckResult("domination", worst >= -slack, worst, witness=witness,
                       detail=f"min <B B0^T a, a> + eps|B0^T a|^2 = {worst:.3e}")


def _hypothesis_checks(spec, x):
    hyp = spec.hypothesis
    out = []
    w = np.asarray(hyp.w(x), dtype=float)
    out.append(CheckResult("w_geq_one", bool(np.all(w >= 1.0)), float(np.min(w) - 1.0),
                           witness=x[int(np.argmin(w))]))

    # generator on w by finite differences: L = 0.5 Tr(sigma sigma^T H_yy) + Z . grad
    n = spec.dim
    m = spec.m
    h = 1e-4 * (1.0 + np.linalg.norm(x, axis=-1))
    grad = np.empty_like(x)
    for c, e in enumerate(np.eye(n)):
        grad[:, c] = (hyp.w(x + h[:, None] * e) - hyp.w(x - h[:, None] * e)) / (2 * h)
    a_mat = spec.sigma @ spec.sigma.T
    lw = np.einsum("pc,cp->p", grad, spec.drift(x.T))
    for i in range(spec.d):
        for j in range(spec.d):
            if a_mat[i, j] == 0.0:
                continue
            ei, ej = np.eye(n)[m + i], np.eye(n)[m + j]
            if i == j:
                second = (hyp.w(x + h[:, None] * ei) - 2 * w + hyp.w(x - h[:, None] * ei)) / h**2
            else:
                second = (hyp.w(x + h[:, None] * (ei + ej)) - hyp.w(x + h[:, None] * (ei - ej))
                          - hyp.w(x + h[:, None] * (ej - ei)) + hyp.w(x - h[:, None] * (ei + ej))
                          ) / (4 * h**2)
            lw = lw + 0.5 * a_mat[i, j] * second
    margin_l = np.min(hyp.c_const * w - lw) / max(1.0, hyp.c_const)
    out.append(CheckResult("generator_bound", margin_l >= -1e-6, float(margin_l),
                           witness=x[int(np.argmin(hyp.c_const * w - lw))],
                           detail="LW <= C W (finite-difference generator)"))

    g2 = np.asarray(hyp.grad2_w(x), dtype=float)
    margin_g = np.min(hyp.c_const * w - np.sum(g2 * g2, axis=-1))
    out.append(CheckResult("grad2w_bound", margin_g >= -1e-8, float(margin_g),
                           detail="|grad2 W|^2 <= C W"))

    jac = np.moveaxis(spec.full_jacobian(x.T), (0, 1), (-2, -1))
    opnorm = np.linalg.norm(jac, ord=2, axis=(-2, -1))
    margin_j = np.min(hyp.c_const * w**hyp.l1 - opnorm)
    out.append(CheckResult("jacobian_growth", margin_j >= -1e-8, float(margin_j),
                           witness=x[int(np.argmin(hyp.c_const * w**hyp.l1 - opnorm))],
                           detail="||dZ|| <= C W^l1"))
    return out


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

_BUILTIN_SCHEMAS = {
    "kinetic_ou": {
        "required": ["m"],
        "optional": {"k": 1.0, "gamma": 1.0, "sigma": 1.0},
        "doc": "Z1(x,y)=y, Z2(x,y)=-K x - Gamma y, B0 = I (m = d).",
    },
    "hamiltonian": {
        "required": ["v_expr"],
        "optional": {"m": 1, "mass": 1.0, "mass_expr": None, "friction": 0.0,
                     "sigma": 1.0, "c_mass": None},
        "doc": "Separable Hamiltonian H(x,y)=V(x)+<M(x)y,y>/2 with friction F; "
               "B0 = c_mass I.  mass_expr (state-dependent scalar mass) needs m=1.",
    },
    "integrator_chain": {
        "required": ["a", "b0"],
        "optional": {"z2_lin": None, "z2_off": None, "sigma": 1.0},
        "doc": "Z1(x,y) = A x + B0 y with affine Z2; Kalman-condition test bed.",
    },
}


def builtin_schemas():
    """Stable listing of built-in model names and parameter keys."""
    return {name: {"required": list(sch["required"]), "optional": dict(sch["optional"]),
                   "doc": sch["doc"]} for name, sch in sorted(_BUILTIN_SCHEMAS.items())}


def _as_matrix(val, rows, cols, what):
    arr = np.asarray(val, dtype=float)
    if not np.isfinite(arr).all():      # before a scalar times I turns inf into nan
        got = f"constant {float(arr)}" if arr.ndim == 0 else arr.tolist()
        raise ConfigurationError(f"{what} must be finite, got {got}")
    if arr.ndim == 0:
        if rows != cols:
            raise ConfigurationError(f"{what}: scalar given but a {rows}x{cols} matrix is needed")
        return float(arr) * np.eye(rows)
    arr = np.atleast_2d(arr)
    if arr.shape != (rows, cols):
        raise ConfigurationError(f"{what} must be {rows}x{cols}, got {arr.shape}")
    return arr


def _check_params(name, params):
    sch = _BUILTIN_SCHEMAS[name]
    unknown = set(params) - set(sch["required"]) - set(sch["optional"])
    if unknown:
        raise ConfigurationError(f"unknown parameters for {name}: {sorted(unknown)}")
    missing = [k for k in sch["required"] if k not in params]
    if missing:
        raise ConfigurationError(f"missing parameters for {name}: {missing}")
    full = dict(sch["optional"])
    full.update(params)
    return full


def builtin_model(name, params=None):
    """Construct a built-in ModelSpec by name.

    Names and parameter keys are part of the CLI config schema; see
    ``builtin_schemas`` for the listing.
    """
    params = dict(params or {})
    if name not in _BUILTIN_SCHEMAS:
        raise ConfigurationError(
            f"unknown builtin model {name!r}; available: {sorted(_BUILTIN_SCHEMAS)}")
    build = {"kinetic_ou": _build_kinetic_ou, "hamiltonian": _build_hamiltonian,
             "integrator_chain": _build_integrator_chain}[name]
    return build(_check_params(name, params), params)


def _quadratic_hypothesis(gfull, sigma, m):
    """W = 1 + |x|^2 + |y|^2 for a linear model with drift matrix gfull."""
    g_norm = np.linalg.norm(gfull, 2)
    tr = float(np.trace(sigma @ sigma.T))
    c = max(4.0, tr + 2.0 * (1.0 + g_norm), g_norm + 1.0)

    def w(x):
        x = np.asarray(x, dtype=float)
        return 1.0 + np.sum(x * x, axis=-1)

    def grad2_w(x):
        return 2.0 * np.asarray(x, dtype=float)[..., m:]

    return HypothesisData(w=w, grad2_w=grad2_w, c_const=c, l1=0.0, l2=0.0)


def _block_size(p, name):
    """Parameter ``m`` of a built-in model: a positive integer, which an
    integral float also gives; a bool, a string or a fraction is an error."""
    m = p["m"]
    if not (isinstance(m, (int, float, np.integer)) and not isinstance(m, bool)
            and float(m).is_integer() and m >= 1):
        raise ConfigurationError(f"{name}: m must be a positive integer, got {m!r}")
    return int(m)


def _build_kinetic_ou(p, raw):
    m = d = _block_size(p, "kinetic_ou")
    k_mat = _as_matrix(p["k"], d, m, "kinetic_ou k")
    g_mat = _as_matrix(p["gamma"], d, d, "kinetic_ou gamma")
    sigma = _as_matrix(p["sigma"], d, d, "kinetic_ou sigma")
    eye_md = np.eye(m, d)
    gfull = np.block([[np.zeros((m, m)), eye_md], [-k_mat, -g_mat]])
    return _affine_model(gfull, 0.0, m, sigma, eye_md, "kinetic_ou", raw)


def _affine_rows(gfull, off):
    """Expressions of the rows of x -> gfull x + off: row a is the left fold
    off[a] + gfull[a, 0] x1 + gfull[a, 1] x2 + ..., whose zero terms drop out."""
    rows = []
    for g_row, c in zip(gfull, np.broadcast_to(off, len(gfull))):
        acc = Expr.const(c)
        for b, g in enumerate(g_row):
            acc = Expr.add(acc, Expr.mul(Expr.const(g), Expr.var(b)))
        rows.append(acc)
    return rows


def _affine_model(gfull, off, m, sigma, b0, name, raw):
    """Expression model of the affine drift Z(x) = gfull x + off."""
    rows = _affine_rows(gfull, off)  # before the hypothesis: a non-finite entry is named here
    return expression_model(m, len(gfull) - m, rows[:m], rows[m:], sigma=sigma, b0=b0,
                            epsilon=0.0, hypothesis=_quadratic_hypothesis(gfull, sigma, m),
                            name=name, params=raw)


def expression_model(m, d, z1, z2, **kw):
    """ModelSpec with the drift Z1 = ``z1``, Z2 = ``z2``, lists of expressions
    (strings or ``Expr`` trees) over x1..x(m+d); ``kw`` goes to ModelSpec.
    Z is affine, with its constant Jacobian as ``drift_matrix``, exactly
    when no second derivative of Z is nonzero."""
    n = m + d
    if len(z1) != m or len(z2) != d:
        raise ConfigurationError("drift component counts do not match (m, d)")
    zfull = DriftExpr(list(z1) + list(z2), n)
    z1_field = DriftExpr(zfull.components[:m], n)
    return ModelSpec(m=m, d=d, z=zfull.value, dz=zfull.jacobian, hess_z1=z1_field.hessian,
                     constant_jac_z1=z1_field.is_constant_jacobian(),
                     drift_matrix=(zfull.jacobian(np.zeros(n)) if zfull.is_constant_jacobian()
                                   else None), **kw)


def _build_hamiltonian(p, raw):
    m = d = _block_size(p, "hamiltonian")
    v_field = DriftExpr([p["v_expr"]], m)  # scalar potential in x1..xm
    v_expr = v_field.components[0]
    friction = _as_matrix(p["friction"], d, d, "hamiltonian friction")
    sigma = _as_matrix(p["sigma"], d, d, "hamiltonian sigma")

    grad_v = [v_expr.diff(i) for i in range(m)]

    if p["mass_expr"] is not None:
        if m != 1:
            raise ConfigurationError("hamiltonian: mass_expr requires m = 1")
        mu = parse_expr(p["mass_expr"], 1)  # scalar mass in x1
        y = Expr.var(1)
        z1c = [Expr.mul(mu, y)]
        # Z2 = -V'(x) - mu'(x) y^2 / 2 - F mu(x) y
        z2c = [Expr.add(
            Expr.add(Expr.neg(grad_v[0]),
                     Expr.neg(Expr.mul(Expr.mul(Expr.const(0.5), mu.diff(0)),
                                       Expr.pow(y, 2)))),
            Expr.neg(Expr.mul(Expr.mul(Expr.const(float(friction[0, 0])), mu), y)))]
        c_mass = p["c_mass"]
        if c_mass is None:
            raise ConfigurationError("hamiltonian: c_mass (mass lower bound) is required "
                                     "with a state-dependent mass_expr")
    else:
        mass = _as_matrix(p["mass"], m, m, "hamiltonian mass")
        mass = 0.5 * (mass + mass.T)
        eigs = np.linalg.eigvalsh(mass)
        if eigs[0] <= 0:
            raise ConfigurationError("hamiltonian: mass matrix must be positive definite")
        c_mass = p["c_mass"] if p["c_mass"] is not None else float(eigs[0])
        fm = friction @ mass
        z1c = _affine_rows(np.hstack([np.zeros((m, m)), mass]), 0.0)
        z2c = []
        for a in range(d):
            acc = Expr.neg(grad_v[a])
            for b in range(d):
                acc = Expr.add(acc, Expr.neg(Expr.mul(Expr.const(fm[a, b]), Expr.var(m + b))))
            z2c.append(acc)

    # W = H + 1; Example-style growth exponents for polynomial potentials
    def w(x):
        x = np.asarray(x, dtype=float)
        v = v_field.value(np.moveaxis(x[..., :m], -1, 0))[0]
        if p["mass_expr"] is not None:
            mass_val = mu(np.moveaxis(x[..., :1], -1, 0))
            kin = 0.5 * mass_val * x[..., m] ** 2
        else:
            kin = 0.5 * np.einsum("...a,ab,...b->...", x[..., m:], mass, x[..., m:])
        return v + kin + 1.0

    def grad2_w(x):
        x = np.asarray(x, dtype=float)
        if p["mass_expr"] is not None:
            return (mu(np.moveaxis(x[..., :1], -1, 0)) * x[..., m])[..., None]
        return x[..., m:] @ mass.T

    hyp = HypothesisData(w=w, grad2_w=grad2_w, c_const=64.0, l1=1.0, l2=1.0)
    # V-expressions only reference x1..xm, so the trees are valid in 2m variables
    return expression_model(m, d, z1c, z2c, sigma=sigma, b0=float(c_mass) * np.eye(m, d),
                            epsilon=0.0, hypothesis=hyp, name="hamiltonian", params=raw)


def _build_integrator_chain(p, raw):
    a_mat = np.atleast_2d(np.asarray(p["a"], dtype=float))
    m = a_mat.shape[0]
    if a_mat.shape != (m, m):
        raise ConfigurationError(f"integrator_chain a must be square, got {a_mat.shape}")
    b0 = np.atleast_2d(np.asarray(p["b0"], dtype=float))
    if b0.ndim == 2 and b0.shape[0] != m and b0.shape == (1, m):
        b0 = b0.T
    if b0.shape[0] != m:
        raise ConfigurationError(f"integrator_chain b0 must have {m} rows, got {b0.shape}")
    d = b0.shape[1]
    n = m + d
    z2_lin = p["z2_lin"]
    z2_lin = (np.zeros((d, n)) if z2_lin is None
              else _as_matrix(z2_lin, d, n, "integrator_chain z2_lin"))
    if p["z2_lin"] is None:
        z2_lin[:, m:] = -np.eye(d)
    z2_off = np.zeros(d) if p["z2_off"] is None else np.asarray(p["z2_off"], dtype=float).ravel()
    if z2_off.shape != (d,):
        raise ConfigurationError(f"integrator_chain z2_off must have length {d}")
    sigma = _as_matrix(p["sigma"], d, d, "integrator_chain sigma")
    gfull = np.block([[a_mat, b0], [z2_lin]])
    return _affine_model(gfull, np.concatenate([np.zeros(m), z2_off]), m, sigma, b0,
                         "integrator_chain", raw)
