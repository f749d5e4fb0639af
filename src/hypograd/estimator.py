"""Monte Carlo gradient estimators for the degenerate semigroup.

The headline estimator realizes  grad_v P_T f(x) = E[f(X_T) delta(h)]  with
the bridge control of :mod:`hypograd.control`.  Two divergence evaluations
are provided:

* ``ito_delta`` -- the plain increment sum, valid when the first drift
  Jacobian block is constant so the control is deterministic and hdot is
  adapted;
* ``skorokhod_delta`` -- the general anticipative case.  In the discrete
  Gaussian calculus (D_i F = dF/dW_i with duality weight dt) the divergence
  of hdot is exactly

      delta(h) = sum_i <hdot_i, dW_i> - dt sum_i tr(d hdot_i / d W_i),

  and the trace is evaluated from the forward sensitivities of the entire
  discrete chain (state -> K -> Q -> alpha -> hdot).  Increment i enters
  only through the states after t_i, whose sensitivities factor through the
  state-transition matrices; every pairwise object then contracts against
  cumulative per-node tensors, collapsing the nominal O(N^2 d) sweep to
  O(N d) work.  The result is the exact derivative (checked against
  brute-force increment bumping in the tests), so the discrete
  integration-by-parts identity E[F delta] = E[sum_i <dF/dW_i, hdot_i> dt]
  holds with no discretization bias.

Three independent oracles round out the module: the pathwise estimator
E<grad f(X_T), dX_T/dx0 v>, common-random-number central differences, and
the Gaussian closed form for affine models.

Randomness: each path has its own counter-based stream keyed by
(master_seed, path_index), so results do not depend on chunking or thread
count; reductions run over per-path arrays assembled in path order.  One
Philox bit generator per ``path_increments`` call is reset to a fresh state
(zero counter, empty buffer, the path's key) before each path, which draws
exactly what a newly built generator would.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

from .control import (build_alpha, build_bridge, numerical_rank, phi_parabolic,
                      q_inverse_bound_ratio, xi_case1, xi_case2)
from .errors import (ConfigurationError, MethodMisuseError, NotApplicableError,
                     RunDegenerateError)
from .flow import (directional_jacobian, full_jacobian_flow, simulate_path,
                   terminal_flow, valid_mask)

__all__ = [
    "EstimatorConfig",
    "GradientEstimate",
    "TestFunction",
    "linear_f",
    "quadratic_f",
    "gaussian_bump_f",
    "indicator_f",
    "path_increments",
    "default_weights",
    "ito_delta",
    "skorokhod_delta",
    "bismut_gradient",
    "pathwise_gradient",
    "fd_gradient",
    "closed_form_gradient",
    "duality_gap",
    "expectation",
]

MAX_REJECT_FRACTION = 1e-3


@dataclass(frozen=True)
class EstimatorConfig:
    """Monte Carlo run description."""

    n_paths: int
    master_seed: int = 0
    method: str = "bismut_ito"
    fd_bump: float = 1e-3
    antithetic: bool = False
    moment_p: float = 4.0
    n_threads: int = 1
    chunk_size: Optional[int] = None
    c_bound: Optional[float] = None    # ||d1Z1|| bound for the case-1 profile

    def __post_init__(self):
        if self.n_paths < 2:
            raise ConfigurationError("n_paths must be >= 2")
        if self.fd_bump <= 0:
            raise ConfigurationError("fd_bump must be positive")
        if self.method not in ("bismut_ito", "bismut_skorokhod", "pathwise",
                               "finite_difference", "closed_form"):
            raise ConfigurationError(f"unknown method {self.method!r}")


@dataclass
class GradientEstimate:
    """Estimated directional derivative with its sampling statistics."""

    value: float
    std_error: float
    n_effective: int
    rejected: int
    method: str
    weight_l2: float = 0.0
    value_cv: Optional[float] = None      # control-variate adjusted (E delta = 0)
    std_error_cv: Optional[float] = None
    delta_mean: float = 0.0
    delta_se: float = 0.0
    kurtosis: float = 0.0
    moment_flagged: bool = False
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TestFunction:
    """Observable f with an optional gradient and a structural tag."""

    f: Callable
    grad_f: Optional[Callable] = None
    tag: str = "custom"
    params: dict = field(default_factory=dict)

    def check_gradient(self, points, rel_tol=1e-5):
        """Verify grad_f against central differences at sample points."""
        if self.grad_f is None:
            return True
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        n = pts.shape[-1]
        grad = np.asarray(self.grad_f(pts))
        h = 1e-6 * (1.0 + np.linalg.norm(pts, axis=-1))
        for c in range(n):
            e = np.zeros(n)
            e[c] = 1.0
            fd = (self.f(pts + h[:, None] * e) - self.f(pts - h[:, None] * e)) \
                / (2 * h)
            if np.any(np.abs(fd - grad[:, c]) > rel_tol * (1 + np.abs(grad[:, c]))):
                return False
        return True


def linear_f(a, b=0.0):
    a = np.asarray(a, dtype=float).ravel()

    def f(x):
        return np.asarray(x) @ a + b

    def grad(x):
        return np.broadcast_to(a, np.asarray(x).shape).copy()

    return TestFunction(f=f, grad_f=grad, tag="linear",
                        params={"a": a.tolist(), "b": float(b)})


def quadratic_f(s_mat, b=None, c=0.0):
    s_mat = np.atleast_2d(np.asarray(s_mat, dtype=float))
    n = s_mat.shape[0]
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float).ravel()
    sym = s_mat + s_mat.T

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...a,ab,...b->...", x, s_mat, x) + x @ b + c

    def grad(x):
        return np.asarray(x, dtype=float) @ sym.T + b

    return TestFunction(f=f, grad_f=grad, tag="quadratic",
                        params={"s": s_mat.tolist(), "b": b.tolist(), "c": float(c)})


def gaussian_bump_f(center, width=1.0):
    center = np.asarray(center, dtype=float).ravel()
    w2 = float(width) ** 2

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * np.sum((x - center) ** 2, axis=-1) / w2)

    def grad(x):
        x = np.asarray(x, dtype=float)
        return -(x - center) / w2 * f(x)[..., None]

    return TestFunction(f=f, grad_f=grad, tag="gaussian_bump",
                        params={"center": center.tolist(), "width": float(width)})


def indicator_f(index=0, threshold=0.0):
    def f(x):
        return (np.asarray(x, dtype=float)[..., index] > threshold).astype(float)

    return TestFunction(f=f, grad_f=None, tag="indicator",
                        params={"index": int(index), "threshold": float(threshold)})


# ---------------------------------------------------------------------------
# counter-based per-path noise
# ---------------------------------------------------------------------------

def path_increments(grid, d, master_seed, start, count, antithetic=False):
    """Increments for paths [start, start+count), one Philox stream per path.

    With antithetic pairing, paths 2r and 2r+1 share the stream keyed by
    (master_seed, r) with opposite signs.  One bit generator serves the
    call: it is reset per path to the state a fresh ``Philox(key=...)``
    starts from (building one per path also draws OS entropy), and it is
    local to the call, so threaded chunks stay independent.
    """
    out = np.empty((count, grid.n_steps, d))
    bg = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bg)
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    zero = np.zeros(4, dtype=np.uint64)
    fresh = {"bit_generator": "Philox", "state": {"counter": zero, "key": key},
             "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, idx in enumerate(range(start, start + count)):
        key[1] = idx // 2 if antithetic else idx
        bg.state = fresh                      # the setter copies the values
        gen.standard_normal(out=out[row])
    if antithetic:
        odd = out[1 - start % 2::2]
        np.negative(odd, out=odd)
    out *= np.sqrt(grid.dt)
    return out


def default_weights(spec, grid, c_bound=None, probe_x0=None, probe_seed=0):
    """Gramian-floor profile for a model: case 1 when Rank(B0) = m, else the
    calibrated Kalman-condition profile (which needs constant d1Z1).

    For a state-dependent first Jacobian block the case-1 flow bound needs
    c_bound >= sup ||d1Z1|| along paths; when not supplied it is sampled
    from 32 probe paths started at ``probe_x0`` (fixed seed, so the profile
    does not depend on chunking) with a 25% safety factor.
    """
    phi_pair = phi_parabolic(grid.t_final)
    if numerical_rank(spec.b0)[0] == spec.m:
        if c_bound is None:
            if spec.constant_jac_z1:
                a0 = spec.dz(np.zeros(spec.dim))[:spec.m, :spec.m]
                c_bound = float(np.linalg.norm(a0, 2))
            elif probe_x0 is not None:
                c_bound = _sampled_jac_bound(spec, grid, probe_x0, probe_seed)
            else:
                raise ConfigurationError(
                    "default_weights needs c_bound (a bound on ||d1Z1||) or a "
                    "probe_x0 to sample one for a state-dependent first "
                    "Jacobian block")
        return xi_case1(spec.b0, phi_pair, c_bound, grid.t_final)
    if not spec.constant_jac_z1:
        raise NotApplicableError("rank-deficient B0 with non-constant d1Z1: no profile")
    a0 = spec.dz(np.zeros(spec.dim))[:spec.m, :spec.m]
    return xi_case2(a0, spec.b0, phi_pair, grid.t_final)


def _profile_summary(profile):
    """Scalar calibration constants of a weight profile, for result records."""
    out = {"xi_case": profile.xi_case}
    for key in ("c_prime", "c_bound", "c1", "c2", "k", "haircut", "margin"):
        if key in profile.meta:
            out[key] = float(profile.meta[key])
    return out


def _sampled_jac_bound(spec, grid, x0, seed, n_probe=32):
    inc = path_increments(grid, spec.d, seed ^ 0x9E3779B97F4A7C15, 0, n_probe)
    states = simulate_path(spec, np.asarray(x0, dtype=float).ravel(), grid, inc)
    states = states[valid_mask(states)]
    if states.size == 0:
        raise RunDegenerateError("all probe paths for the Jacobian bound blew up")
    a_nodes = spec.dz(states)[..., :spec.m, :spec.m]
    return 1.25 * float(np.max(np.linalg.norm(a_nodes, ord=2, axis=(-2, -1))))


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def ito_delta(h_dot, inc):
    """Adapted divergence sum_i <hdot_i, dW_i>; hdot shaped (..., N, d)."""
    return np.sum(np.asarray(h_dot) * np.asarray(inc), axis=(-2, -1))


def skorokhod_delta(spec, x0, grid, inc, v, weights, return_parts=False):
    """Anticipative divergence of the bridge control, per path, for
    increments ``inc`` of shape (B, N, d).

    The trace correction vanishes identically when jac_z1 is constant (the
    control is then deterministic), which the implementation exploits.
    """
    inc = np.asarray(inc, dtype=float)
    states = simulate_path(spec, x0, grid, inc)
    _, _, _, h_dot, _, corr = _bridge_chain(spec, states, grid, v, weights)
    delta = np.sum(h_dot * inc, axis=(-2, -1)) - corr
    return (delta, corr) if return_parts else delta


def _bridge_chain(spec, states, grid, v, weights):
    """The control chain of a batch of paths, from one bulk evaluation of
    the node Jacobian.

    Returns ``(jac, alpha_data, g, h_dot, bridge_residuals, trace)``; the
    Skorokhod trace is zero when jac_z1 is constant (the control is then
    deterministic and the trace vanishes).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        jac = spec.full_jacobian(states)
    k = terminal_flow(spec, jac, grid)
    ad = build_alpha(spec, jac, k, grid, v, weights)
    g, h_dot, res = build_bridge(spec, jac, ad, grid, v)
    trace = (np.zeros(len(states)) if spec.constant_jac_z1
             else _skorokhod_trace(spec, states, grid, v, weights, ad, k, jac))
    return jac, ad, g, h_dot, res, trace


def _svd_pinv(mats, rcond):
    """SVD pseudo-inverse of stacked matrices, singular values below
    rcond * s_max dropped.

    Only kept values are inverted; a kept subnormal one gives inf silently,
    as in ``_inv``.
    """
    u, s, vt = np.linalg.svd(mats)
    keep = s > rcond * s[..., :1]
    with np.errstate(over="ignore"):
        sinv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return np.einsum("...ab,...b,...cb->...ac", np.swapaxes(vt, -1, -2), sinv, u)


def _norm1(mats):
    """Matrix 1-norm (largest absolute column sum) of stacked matrices.

    Up to 8 rows, adding the rows in order and comparing the column sums
    with ``np.maximum`` gives the bits of ``np.abs(mats).sum(axis=-2)
    .max(axis=-1)``, NaN included, several times faster; larger matrices
    keep that reduction, whose summation order could differ.
    """
    rows, cols = mats.shape[-2:]
    if rows > 8:
        return np.abs(mats).sum(axis=-2).max(axis=-1)
    a = np.abs(mats)
    col = a[..., 0, :]
    for r in range(1, rows):
        col = col + a[..., r, :]
    out = col[..., 0]
    for c in range(1, cols):
        out = np.maximum(out, col[..., c])
    return out


def _inv(mats):
    """``np.linalg.inv`` of a stack, with 1x1 stacks inverted element-wise.

    LAPACK's LU inverse of a 1x1 matrix is the one correctly rounded
    division 1/a, and it fails exactly when a == 0 (-0.0 included), so the
    division gives the same bits and the same error without LAPACK's
    per-member dispatch.
    """
    if mats.shape[-1] > 1:
        return np.linalg.inv(mats)
    if (mats == 0.0).any():
        raise np.linalg.LinAlgError("Singular matrix")
    with np.errstate(over="ignore"):          # LAPACK overflows silently too
        return 1.0 / mats


def _pinv_stack(mats, rcond=1e-13):
    """Pseudo-inverse of stacked square matrices; never raises on singularity.

    A batched LU inverse serves every member it can be trusted on.  A member
    falls back to the SVD pseudo-inverse (``_svd_pinv``, same ``rcond``) when
    it is exactly singular, or when its 1-norm condition estimate
    n ||A||_1 ||A^-1||_1 reaches 1/rcond.  Since cond_2 <= n cond_1, every
    member kept on the fast path is one the SVD would not have truncated, so
    the result equals the pseudo-inverse up to round-off.  Non-finite members
    give NaN (LAPACK's SVD does not converge on them).  A 1x1 stack is
    inverted element-wise (``_inv``); LAPACK's 1x1 LU inverse is that same
    correctly rounded division 1/a, so every bit and every guard is as it
    would be with LAPACK.
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    finite = np.isfinite(mats).all(axis=(-2, -1))
    bad = ~finite
    safe = np.where(bad[..., None, None], np.eye(n), mats) if bad.any() else mats
    try:
        inv = _inv(safe)
    except np.linalg.LinAlgError:
        # one exactly singular member fails the whole batch; the determinant
        # comes from the same LU factorization and is 0 exactly for those
        det = np.linalg.det(safe)
        bad |= ~np.isfinite(det) | (det == 0.0)
        safe = np.where(bad[..., None, None], np.eye(n), mats)
        inv = _inv(safe)
    bad |= ~(n * _norm1(safe) * _norm1(inv) < 1.0 / rcond)
    if bad.any():
        inv[bad] = np.nan
        redo = bad & finite
        inv[redo] = _svd_pinv(mats[redo], rcond)
    return inv


def _skorokhod_trace(spec, states, grid, v, profile, ad, k, jac):
    """dt * sum_i tr(d hdot_i / d W_i), exact, via factored sensitivities.

    Notation per path: k_i = K(T, t_i), Phi_i the full state-transition
    matrix, Y_i = Phi_{i+1}^{-1} (0, sigma), G_i = (Lambda_{i+1} . Y_i) with
    Lambda the cumulative flow-sensitivity tensor, so that dk_r/dW_i =
    G_i k_r for r <= i+1.  The chain collapses to the single vector

        omega_i = G_i^T p + Dp_i + (DR_i + G_i^T rho_i)/nu,

    through which D alpha_j[i] = -phi_j B0^T k_j^T omega_i for j <= i+1,
    giving the diagonal derivatives of alpha, its divided-difference rate,
    and g.  ``jac`` is the node Jacobian DZ at ``states``.
    """
    if spec.hess_z1 is None:
        raise MethodMisuseError("the Skorokhod trace needs the model's hess_z1 "
                                "(second derivatives of Z1)")
    x = states
    p_paths, n_nodes = x.shape[:2]
    n_steps = grid.n_steps
    m, d, n = spec.m, spec.d, spec.dim
    dt = grid.dt
    v = np.asarray(v, dtype=float).ravel()
    v1, v2 = v[:m], v[m:]
    has_v1 = float(np.linalg.norm(v1)) > 0.0
    has_v2 = float(np.linalg.norm(v2)) > 0.0
    nodes = grid.nodes
    phi_vals = profile.phi(nodes)
    w0 = (grid.t_final - nodes) / grid.t_final
    w0[-1] = 0.0

    e_sigma = np.zeros((n, d))
    e_sigma[m:, :] = spec.sigma

    phi_full = full_jacobian_flow(jac, grid)                 # (p, N+1, n, n)
    y_seed = _pinv_stack(phi_full[:, 1:]) @ e_sigma          # (p, N, n, d)

    hess = spec.hess_z1(x)                                   # (p, N+1, m, n, n)
    t1 = hess[..., :m, :]                                    # dA/dx
    t2 = hess[..., m:, :]                                    # dC/dx
    theta1 = np.einsum("pjabe,pjec->pjabc", t1, phi_full)    # (p, N+1, m, m, n)
    theta2 = np.einsum("pjabe,pjec->pjabc", t2, phi_full)    # (p, N+1, m, d, n)

    kinv = _pinv_stack(k)
    c_nodes = jac[..., :m, m:]
    kc = k @ c_nodes                                         # K C
    kb = k @ spec.b0                                         # K B0
    qcore = np.einsum("pjad,pjbd->pjab", kc, kb)             # K C B0^T K^T

    #   chi_s . Y = dt k_{s+1} (theta1_s . Y) k_s^{-1};  Lambda_i = sum_{s>=i} chi_s
    chi = dt * np.einsum("pjAa,pjabc,pjbB->pjABc",
                         k[:, 1:], theta1[:, :-1], kinv[:, :-1])
    lam = np.zeros((p_paths, n_nodes, m, m, n))
    lam[:, :-1] = np.cumsum(chi[:, ::-1], axis=1)[:, ::-1]

    g_tensor = np.einsum("pjabc,pjct->pjabt", lam[:, 1:], y_seed)   # G_i, (p,N,m,m,d)

    # Psi_r: tangent of the Q integrand at node r as a linear map of Y
    psi1 = np.einsum("pjaxc,pjxb->pjabc", lam, qcore)
    psi2 = np.einsum("pjax,pjxec,pjbe->pjabc", k, theta2, kb)
    psi3 = np.einsum("pjax,pjbxc->pjabc", qcore, lam)
    psi = (phi_vals * dt)[None, :, None, None, None] * (psi1 + psi2 + psi3)
    psicum = np.zeros_like(psi)
    psicum[:, 1:] = np.cumsum(psi[:, :-1], axis=1)

    # eta_r: tangent of the c2 integrand
    kcv2 = np.einsum("pjad,d->pja", kc, v2)
    eta = (w0 * dt)[None, :, None, None] * (
        np.einsum("pjabc,pjb->pjac", lam, kcv2)
        + np.einsum("pjab,pjbec,e->pjac", k, theta2, v2))
    etacum = np.zeros_like(eta)
    etacum[:, 1:] = np.cumsum(eta[:, :-1], axis=1)

    # c2 and kappa_A forward cumulatives
    c2low = np.zeros((p_paths, n_nodes, m))
    c2low[:, 1:] = np.cumsum((w0 * dt)[None, :-1, None] * kcv2[:, :-1], axis=1)
    ka_step = (phi_vals[:-1] * dt)[None, :, None, None] * np.einsum(
        "pjik,pjkl,pjbl->pjib", k[:, 1:], c_nodes[:, :-1], kb[:, :-1])
    kappa = np.zeros((p_paths, n_steps, m, m))
    kappa[:, 1:] = np.cumsum(ka_step[:, :-1], axis=1)

    q_path = ad.q_path
    xi_eff = ad.xi_eff
    u_nodes = ad.u_nodes
    rho = ad.rho
    nu = ad.nu
    p_vec = ad.p_vec

    # Omega_i and the forward-tangent aggregates
    q_next = q_path[:, 1:]                                    # Q_{i+1}
    gq = np.einsum("piact,picb->piabt", g_tensor, q_next)
    qgt = np.einsum("piac,pibct->piabt", q_next, g_tensor)
    psicum_y = np.einsum("piabc,pict->piabt", psicum[:, 1:], y_seed)
    omega_mat = gq + qgt - psicum_y                           # (p, N, m, m, d)
    dq_t = omega_mat + np.einsum("pabc,pict->piabt", psicum[:, -1], y_seed)

    if has_v2:
        dc2 = (np.einsum("piact,pic->piat", g_tensor, c2low[:, 1:])
               + np.einsum("piac,pict->piat", etacum[:, -1][:, None] - etacum[:, 1:],
                           y_seed))
        rhs = dc2 - np.einsum("piabt,pb->piat", dq_t, p_vec)
        dp = np.einsum("pab,pibt->piat", _pinv_stack(q_path[:, -1]), rhs)
    else:
        dp = np.zeros((p_paths, n_steps, m, d))

    if has_v1:
        wgt = (xi_eff[:, :n_steps] ** 2) * dt                 # (p, N)
        qinv = np.zeros_like(q_path)
        base_active = np.nonzero(ad.xi_vals[:n_steps] > 0)[0]
        base_active = base_active[base_active >= 1]
        if base_active.size:
            qinv[:, base_active] = _pinv_stack(q_path[:, base_active])
        w1_step = np.einsum("pj,pjab,pjc->pjabc", wgt, qinv[:, :n_steps],
                            u_nodes[:, :n_steps])
        w2_step = np.einsum("pj,pjab,pjbec,pje->pjac", wgt, qinv[:, :n_steps],
                            psicum[:, :n_steps], u_nodes[:, :n_steps])
        w3_step = np.einsum("pj,pjab->pjab", wgt, qinv[:, :n_steps])
        w1 = np.zeros((p_paths, n_nodes, m, m, m))
        w2 = np.zeros((p_paths, n_nodes, m, n))
        w3 = np.zeros((p_paths, n_nodes, m, m))
        w1[:, :-1] = np.cumsum(w1_step[:, ::-1], axis=1)[:, ::-1]
        w2[:, :-1] = np.cumsum(w2_step[:, ::-1], axis=1)[:, ::-1]
        w3[:, :-1] = np.cumsum(w3_step[:, ::-1], axis=1)[:, ::-1]

        k0v1 = np.einsum("pik,k->pi", k[:, 0], v1)
        gt_u = np.einsum("pibat,pib->piat", g_tensor, u_nodes[:, :n_steps])
        g_k0 = np.einsum("piact,pc->piat", g_tensor, k0v1)
        dr = (-(wgt[..., None, None] * gt_u)
              - np.einsum("piabc,pibct->piat", w1[:, 1:], omega_mat)
              - np.einsum("piac,pict->piat", w2[:, 1:], y_seed)
              + np.einsum("piab,pibt->piat", w3[:, 1:], g_k0))
        gt_rho = np.einsum("pibat,pib->piat", g_tensor, rho[:, :n_steps])
        ratio_part = (dr + gt_rho) / nu[:, None, None, None]
    else:
        ratio_part = 0.0

    gt_p = np.einsum("pibat,pb->piat", g_tensor, p_vec)
    omega = gt_p + dp + ratio_part                            # (p, N, m, d)

    k_omega_i = np.einsum("pira,pirt->piat", k[:, :n_steps], omega)
    k_omega_ip1 = np.einsum("pira,pirt->piat", k[:, 1:], omega)
    d_alpha = -phi_vals[None, :n_steps, None, None] * np.einsum(
        "ae,piat->piet", spec.b0, k_omega_i)
    dd_rate = (phi_vals[None, 1:, None, None] * k_omega_ip1
               - phi_vals[None, :n_steps, None, None] * k_omega_i) / dt
    d_alpha_dot = -np.einsum("ae,piat->piet", spec.b0, dd_rate)

    kappa_omega = np.einsum("piab,pibt->piat", kappa, omega)
    d_g = -np.einsum("piab,pibt->piat", kinv[:, :n_steps], kappa_omega)

    j21, j22 = jac[..., m:, :m], jac[..., m:, m:]
    d_hdot = (np.einsum("pida,piat->pidt", j21[:, :n_steps], d_g)
              + np.einsum("pide,piet->pidt", j22[:, :n_steps], d_alpha)
              - d_alpha_dot)
    d_hdot = np.einsum("df,pift->pidt", spec.sigma_inv(), d_hdot)
    trace = np.trace(d_hdot, axis1=-2, axis2=-1)
    return dt * np.sum(trace, axis=1)


# ---------------------------------------------------------------------------
# estimator drivers
# ---------------------------------------------------------------------------

def _mc_run(spec, grid, cfg, per_chunk, n_cols, chunk=16384, seed_offset=0):
    """The Monte Carlo loop of every driver: chunks, threads, noise, masks.

    Paths [0, n_paths) run in chunks of ``cfg.chunk_size`` (default
    ``chunk``) on ``cfg.n_threads`` threads.  A chunk's increments come
    from ``path_increments`` keyed by (master_seed + seed_offset, path) with
    the configured antithetic pairing, so no result depends on chunking or
    thread count.  ``per_chunk(start, inc)`` returns ``(cols, good,
    payload)``: ``n_cols`` per-path value arrays, the mask of the paths it
    kept and a diagnostics payload.  A path is accepted when it was kept and
    all its values are finite.  Chunks write disjoint slices of the output,
    and the payload list is in path order, so diagnostics are deterministic
    under any thread count.

    Returns the (n_cols, n_paths) values, the accepted mask and the
    payloads; raises ``RunDegenerateError`` past ``MAX_REJECT_FRACTION``
    rejected paths.
    """
    n_paths = cfg.n_paths
    chunk = cfg.chunk_size or chunk
    vals = np.empty((n_cols, n_paths))
    ok = np.zeros(n_paths, dtype=bool)

    def worker(start):
        stop = min(start + chunk, n_paths)
        inc = path_increments(grid, spec.d, cfg.master_seed + seed_offset, start,
                              stop - start, cfg.antithetic)
        cols, good, payload = per_chunk(start, inc)
        vals[:, start:stop] = cols
        ok[start:stop] = good & np.isfinite(vals[:, start:stop]).all(axis=0)
        return payload

    starts = range(0, n_paths, chunk)
    if cfg.n_threads <= 1 or len(starts) == 1:
        payloads = [worker(s) for s in starts]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.n_threads) as pool:
            payloads = list(pool.map(worker, starts))
    rejected = int(np.sum(~ok))
    if rejected > MAX_REJECT_FRACTION * n_paths:
        raise RunDegenerateError(
            f"{rejected}/{n_paths} paths rejected (limit {MAX_REJECT_FRACTION:.1%})")
    return vals, ok, payloads


def _simulate(spec, x0, grid, inc):
    """Euler paths from x0 and the mask of the finite ones; a non-finite
    path is replaced by the constant x0 path (its results are masked)."""
    states = simulate_path(spec, x0, grid, inc)
    ok = valid_mask(states)
    if np.all(ok):
        return states, ok
    states = states.copy()
    states[~ok] = x0
    return states, ok


def _moment_flag(delta, p):
    """Cauchy-convergence heuristic for E|delta|^p over dyadic prefixes."""
    n = delta.size
    if n < 64:
        return False, []
    sizes = [n // 8, n // 4, n // 2, n]
    ests = [float(np.mean(np.abs(delta[:s]) ** p)) for s in sizes]
    rel = [abs(ests[i + 1] - ests[i]) / max(ests[i + 1], 1e-300)
           for i in range(len(ests) - 1)]
    return rel[-1] > 0.25, ests


def _mean_se(got, ok, antithetic):
    """Mean and standard error of accepted per-path values ``got = vals[ok]``.

    With antithetic pairing, paths 2r and 2r+1 share one noise stream, so
    the independent samples are the pair means; a path whose partner is
    missing (odd n_paths or a rejected partner) counts on its own.
    """
    if antithetic:
        pair = np.nonzero(ok)[0] // 2
        size = np.bincount(pair)
        got = np.bincount(pair, weights=got)[size > 0] / size[size > 0]
    return float(np.mean(got)), float(np.std(got, ddof=1) / np.sqrt(got.size))


def _summarize(fvals, delta, ok, method, cfg, diagnostics):
    """Estimate and weight statistics from per-path f(X_T) and delta.

    ``value``/``std_error`` and ``delta_mean``/``delta_se`` reduce over the
    independent samples of ``_mean_se``.  With antithetic pairing and a
    path-independent hdot (affine models) the paired weights cancel
    exactly, so ``delta_se`` is then 0.  ``weight_l2``, ``kurtosis`` and the
    moment flag are per-path moments of delta.
    """
    fv = fvals[ok]
    dl = delta[ok]
    prod = fv * dl
    n_eff = fv.size
    value, se = _mean_se(prod, ok, cfg.antithetic)
    d_mean, d_se = _mean_se(dl, ok, cfg.antithetic)
    m2 = float(np.mean(dl**2))
    kurt = float(np.mean(dl**4) / m2**2) if m2 > 0 else 0.0
    flagged, moment_seq = _moment_flag(dl, cfg.moment_p)
    est = GradientEstimate(value=value, std_error=se, n_effective=n_eff,
                           rejected=ok.size - n_eff, method=method,
                           weight_l2=float(np.sqrt(m2)), delta_mean=d_mean,
                           delta_se=d_se, kurtosis=kurt, moment_flagged=flagged,
                           diagnostics=dict(diagnostics))
    est.diagnostics["moment_sequence"] = moment_seq
    if m2 > 0:
        # delta-method standard error of sqrt(E delta^2)
        est.diagnostics["wl2_se"] = float(
            np.std(dl**2, ddof=1) / np.sqrt(n_eff) / (2.0 * np.sqrt(m2)))
    if not cfg.antithetic and np.var(dl) > 0:
        beta = float(np.cov(prod, dl, ddof=1)[0, 1] / np.var(dl, ddof=1))
        resid = prod - beta * dl
        est.value_cv = float(np.mean(resid))
        est.std_error_cv = float(np.std(resid, ddof=1) / np.sqrt(n_eff))
    return est


def _plain_estimate(vals, ok, cfg, method):
    """GradientEstimate of the mean of accepted per-path values."""
    value, se = _mean_se(vals[ok], ok, cfg.antithetic)
    n_eff = int(np.sum(ok))
    return GradientEstimate(value=value, std_error=se, n_effective=n_eff,
                            rejected=ok.size - n_eff, method=method)


def bismut_gradient(spec, x0, v, f, grid, cfg, weights=None):
    """Gradient estimate via the derivative-formula weight delta(h).

    Selects the adapted (Ito) or anticipative (Skorokhod) divergence per
    ``cfg.method``; ``bismut_ito`` demands a constant first Jacobian block.
    """
    v = np.asarray(v, dtype=float).ravel()
    if not np.linalg.norm(v) > 0:
        raise ConfigurationError("v must be nonzero")
    if cfg.method == "bismut_ito" and not spec.constant_jac_z1:
        raise MethodMisuseError("bismut_ito requires a constant jac_z1 block; "
                                "use bismut_skorokhod")
    if cfg.method not in ("bismut_ito", "bismut_skorokhod"):
        raise ConfigurationError(f"bismut_gradient got method {cfg.method!r}")
    x0 = np.asarray(x0, dtype=float).ravel()
    if weights is None:
        weights = default_weights(spec, grid, c_bound=cfg.c_bound, probe_x0=x0,
                                  probe_seed=cfg.master_seed)

    diagnostics = {"weights": _profile_summary(weights)}
    det_control = None
    if spec.constant_jac_z1:
        det_control = _deterministic_control(spec, x0, grid, v, weights)
        diagnostics["bridge_residuals_max"] = det_control["residuals"].tolist()
        diagnostics["alpha_dot_gap"] = det_control["alpha_dot_gap"]
        diagnostics["q_bound_ratio"] = det_control["q_bound_ratio"]
        diagnostics["dropped_nodes_max"] = int(det_control["dropped"])

    def per_chunk(start, inc):
        states, good = _simulate(spec, x0, grid, inc)
        payload = None
        if det_control is not None:
            # with constant jac_z2 (affine models) every path has the same
            # hdot: assemble it once and let the product broadcast
            h_dot = _assemble_hdot(spec, states[:1] if spec.constant_jac_z2 else states,
                                   det_control)
            dl = np.sum(h_dot * inc, axis=(-2, -1))
        else:
            # the Skorokhod trace runs slower on the path-major view
            states = np.ascontiguousarray(states)
            _, ad, _, h_dot, res, trace = _bridge_chain(spec, states, grid, v, weights)
            dl = np.sum(h_dot * inc, axis=(-2, -1)) - trace
            good = good & ~ad.degenerate
            got = res[good]
            qratio = (q_inverse_bound_ratio(ad.q_path[good][:64], ad.xi_vals,
                                            spec.epsilon) if start == 0 else 0.0)
            payload = (got.max(axis=0) if got.size else np.zeros(3),
                       ad.alpha_dot_gap, int(ad.dropped_nodes.max()), qratio)
        return (f.f(states[:, -1]), dl), good, payload

    (fvals, delta), ok, payloads = _mc_run(
        spec, grid, cfg, per_chunk, 2, chunk=16384 if spec.constant_jac_z1 else 1024)
    if det_control is None:
        diagnostics["bridge_residuals_max"] = np.max(
            np.stack([p[0] for p in payloads]), axis=0).tolist()
        diagnostics["alpha_dot_gap"] = max(p[1] for p in payloads)
        diagnostics["dropped_nodes_max"] = max(p[2] for p in payloads)
        diagnostics["q_bound_ratio"] = payloads[0][3]
    return _summarize(fvals, delta, ok, cfg.method, cfg, diagnostics)


def _deterministic_control(spec, x0, grid, v, weights):
    """Control chain for constant-jac_z1 models: path-independent, built once.

    The carrier path only supplies Jacobian evaluation points, all constant
    here, so a constant-x0 path serves.
    """
    states = np.tile(x0, (1, grid.n_steps + 1, 1))
    _, ad, g, _, res, _ = _bridge_chain(spec, states, grid, v, weights)
    if bool(ad.degenerate[0]):
        raise RunDegenerateError("deterministic control chain is degenerate "
                                 "(singular terminal Gramian)")
    qratio = q_inverse_bound_ratio(ad.q_path, ad.xi_vals, spec.epsilon)
    return {
        "alpha": ad.alpha[0], "alpha_dot": ad.alpha_dot[0], "g": g[0],
        "q_path": ad.q_path[0], "xi_vals": ad.xi_vals,
        "residuals": res[0], "alpha_dot_gap": ad.alpha_dot_gap,
        "q_bound_ratio": qratio, "dropped": int(ad.dropped_nodes[0]),
    }


def _assemble_hdot(spec, states, det):
    """hdot for per-path states with a shared deterministic (alpha, g)."""
    n_steps = det["alpha_dot"].shape[0]
    m = spec.m
    jac = spec.dz(states[:, :n_steps])
    drive = (np.einsum("pjda,ja->pjd", jac[..., m:, :m], det["g"][:n_steps])
             + np.einsum("pjde,je->pjd", jac[..., m:, m:], det["alpha"][:n_steps])
             - det["alpha_dot"][None])
    return drive @ spec.sigma_inv().T


def pathwise_gradient(spec, x0, v, f, grid, cfg):
    """E <grad f(X_T), dX_T/dx0 . v> -- the smooth-f oracle."""
    if f.grad_f is None:
        raise MethodMisuseError("pathwise_gradient needs grad_f")
    v = np.asarray(v, dtype=float).ravel()
    x0 = np.asarray(x0, dtype=float).ravel()
    jac_terminal_const = None
    if spec.is_linear:
        step = np.eye(spec.dim) + grid.dt * spec.drift_matrix
        jac_terminal_const = np.linalg.matrix_power(step, grid.n_steps) @ v

    def per_chunk(start, inc):
        states, good = _simulate(spec, x0, grid, inc)
        grad = f.grad_f(states[:, -1])
        if jac_terminal_const is not None:
            return (grad @ jac_terminal_const,), good, None
        jac = directional_jacobian(spec, states, grid, v)
        return (np.einsum("pa,pa->p", grad, jac),), good, None

    (vals,), ok, _ = _mc_run(spec, grid, cfg, per_chunk, 1)
    return _plain_estimate(vals, ok, cfg, "pathwise")


def fd_gradient(spec, x0, v, f, grid, cfg):
    """Common-random-number central difference along v with bump fd_bump."""
    v = np.asarray(v, dtype=float).ravel()
    x0 = np.asarray(x0, dtype=float).ravel()
    eta = cfg.fd_bump

    def per_chunk(start, inc):
        xp, good_p = _simulate(spec, x0 + eta * v, grid, inc)
        xm, good_m = _simulate(spec, x0 - eta * v, grid, inc)
        diff = (f.f(xp[:, -1]) - f.f(xm[:, -1])) / (2.0 * eta)
        return (diff,), good_p & good_m, None

    (vals,), ok, _ = _mc_run(spec, grid, cfg, per_chunk, 1)
    return _plain_estimate(vals, ok, cfg, "finite_difference")


def expectation(spec, x0, f, grid, cfg, seed_offset=0):
    """Plain Monte Carlo P_T f(x0) with standard error."""
    x0 = np.asarray(x0, dtype=float).ravel()

    def per_chunk(start, inc):
        states, good = _simulate(spec, x0, grid, inc)
        return (f.f(states[:, -1]),), good, None

    (vals,), ok, _ = _mc_run(spec, grid, cfg, per_chunk, 1, seed_offset=seed_offset)
    return _mean_se(vals[ok], ok, cfg.antithetic)


# ---------------------------------------------------------------------------
# Gaussian closed form for affine models
# ---------------------------------------------------------------------------

def closed_form_gradient(spec, x0, v, f, t_final):
    """Exact grad_v E f(X_T) for an affine model and linear/quadratic f.

    X_T ~ N(exp(TG) x0, Sigma_T) with mean flow exp(TG) by scaling and
    squaring.  Both gradients depend on the mean alone: a linear f gives
    a . exp(TG) v, and a quadratic x^T S x + b . x gives
    (exp(TG) v)^T (S + S^T) exp(TG) x0 + b . exp(TG) v, since the
    covariance term tr(S Sigma_T) does not depend on x0.
    """
    if not spec.is_linear:
        raise MethodMisuseError("closed_form_gradient needs an affine model")
    if f.tag not in ("linear", "quadratic"):
        raise MethodMisuseError("closed_form_gradient supports linear/quadratic f")
    g_full = spec.drift_matrix
    x0 = np.asarray(x0, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    etg = expm(t_final * g_full)
    mu = etg @ x0
    ev = etg @ v
    if f.tag == "linear":
        a = np.asarray(f.params["a"], dtype=float)
        return float(a @ ev)
    s_mat = np.asarray(f.params["s"], dtype=float)
    b = np.asarray(f.params["b"], dtype=float)
    return float(ev @ (s_mat + s_mat.T) @ mu + b @ ev)


def covariance_flow(spec, t_final):
    """Sigma_T for an affine model by trapezoid quadrature of the flow, on
    2^14 intervals and checked against 2^13."""
    if not spec.is_linear:
        raise MethodMisuseError("covariance_flow needs an affine model")
    g_full = spec.drift_matrix
    n = spec.dim
    d_mat = np.zeros((n, n))
    d_mat[spec.m:, spec.m:] = spec.sigma @ spec.sigma.T

    def quad(nq):
        s = np.linspace(0.0, t_final, nq + 1)
        ds = s[1] - s[0]
        e_step = expm(ds * g_full)
        acc = np.zeros((n, n))
        flow = np.eye(n)
        for j in range(nq + 1):
            w = 0.5 if j in (0, nq) else 1.0
            term = flow @ d_mat @ flow.T
            acc += w * term * ds
            flow = e_step @ flow
        return acc

    full = quad(2**14)
    half = quad(2**13)
    rel = np.linalg.norm(full - half) / max(np.linalg.norm(full), 1e-300)
    if rel > 1e-6:
        raise RunDegenerateError(f"covariance quadrature not converged (rel={rel:.2e})")
    return full


# ---------------------------------------------------------------------------
# discrete integration-by-parts (duality) check
# ---------------------------------------------------------------------------

def duality_gap(spec, x0, v, f, grid, cfg, weights=None):
    """Per-path gap F delta(h) - sum_i <dF/dW_i, hdot_i> dt and its stats.

    dF/dW_i is the exact derivative of the discrete observable, obtained by
    adjoint back-propagation a_i = F_i^T a_{i+1} from a_N = grad f(X_T).
    Returns (mean_gap, se_gap, lhs_mean, rhs_mean).
    """
    if f.grad_f is None:
        raise MethodMisuseError("duality_gap needs grad_f")
    x0 = np.asarray(x0, dtype=float).ravel()
    if weights is None:
        weights = default_weights(spec, grid, c_bound=cfg.c_bound, probe_x0=x0,
                                  probe_seed=cfg.master_seed)
    v = np.asarray(v, dtype=float).ravel()

    def per_chunk(start, inc):
        states, good = _simulate(spec, x0, grid, inc)
        # the Skorokhod trace runs slower on the path-major view
        states = np.ascontiguousarray(states)
        jac, ad, _, h_dot, _, trace = _bridge_chain(spec, states, grid, v, weights)
        dl = np.sum(h_dot * inc, axis=(-2, -1)) - trace
        good = good & ~ad.degenerate
        lhs = f.f(states[:, -1]) * dl

        # adjoint sweep: a_i = (I + dt dZ(X_i))^T a_{i+1}, a_N = grad f(X_T)
        adj = f.grad_f(states[:, -1])
        rhs = np.zeros(len(inc))
        dt = grid.dt
        for i in range(grid.n_steps - 1, -1, -1):
            dfdw = (adj[:, spec.m:] @ spec.sigma)            # (P, d)
            rhs += np.einsum("pd,pd->p", dfdw, h_dot[:, i]) * dt
            adj = adj + dt * np.einsum("pba,pb->pa", jac[:, i], adj)
        return (lhs - rhs, lhs, rhs), good, None

    (gaps, lhs, rhs), ok, _ = _mc_run(spec, grid, cfg, per_chunk, 3, chunk=1024)
    return (*_mean_se(gaps[ok], ok, cfg.antithetic),
            float(np.mean(lhs[ok])), float(np.mean(rhs[ok])))
