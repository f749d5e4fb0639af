"""Explicit bridge control for the degenerate block.

Given a simulated path and its terminal flow K(T, t_i), this module builds
the time weights (phi, xi; the case-2 floor uses the Kalman index), the Gramians

    M_t = int_0^t phi(s) K(T,s) B0 B0^T K(T,s)^* ds,
    Q_t = int_0^t phi(s) K(T,s) d2Z1(X_s) B0^T K(T,s)^* ds,

the control process alpha with the boundary values alpha_0 = v2, alpha_T = 0,
and the bridge pair (g, hdot) whose divergence yields the gradient weight.

Discretization convention: every time integral is a left-endpoint rectangle
sum on the shared grid, so the discrete cancellation that forces g_T -> 0
mirrors the continuous one term by term.  The per-step alpha rate fed into
hdot is the divided difference of the stored alpha; with that choice the
shifted path derivative matches the directional derivative up to the g_N
defect exactly (see tests).  The analytic rate, which uses
d/dt K(T,t) = -K(T,t) d1Z1(X_t), is also computed and the gap is reported.

All operations take a batch of paths, component-major as in
:mod:`hypograd.flow`: flows K(T, t_i) and Gramians (m, m, B, N+1), alpha
(d, B, N+1), and in place of the states the node Jacobian ``jac`` = DZ(X),
(n, n, B, N+1), which the caller evaluates once for the whole chain.  At
m = d = 1 each small matrix product and inverse is one element-wise operation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, NotApplicableError
from .flow import TimeGrid

__all__ = [
    "KalmanResult",
    "kalman_index",
    "WeightProfile",
    "phi_parabolic",
    "gramian_M",
    "gramian_Q",
    "gramian_integral",
    "xi_case1",
    "xi_case2",
    "build_alpha",
    "build_bridge",
    "q_inverse_bound_ratio",
]

_COND_MAX = 1e13          # an inverse whose n ||A||_1 ||A^-1||_1 reaches it is flagged
_XI_HAIRCUT = 0.05
_XI_N_CALIB = 64


def numerical_rank(mat):
    """Rank of an m-row matrix under the SVD cutoff m * s_max * eps * 2^6,
    with its singular values (descending)."""
    sv = np.linalg.svd(mat, compute_uv=False)
    tau = mat.shape[0] * (sv[0] if sv.size else 0.0) * np.finfo(float).eps * 64
    return int(np.sum(sv > tau)), sv


@dataclass
class KalmanResult:
    """Ranks of the controllability blocks [B0, AB0, ..., A^jB0]."""

    k: Optional[int]
    ranks: list
    singular_values: list


def kalman_index(a_matrix, b0):
    """Minimal k with Rank[B0, AB0, ..., A^kB0] = m, if any.

    Ranks are ``numerical_rank``'s (SVD cutoff m * ||block|| * eps * 2^6);
    k is absent when even the full block falls short of rank m.
    """
    a_mat = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    b0 = np.atleast_2d(np.asarray(b0, dtype=float))
    m = a_mat.shape[0]
    if a_mat.shape != (m, m) or b0.shape[0] != m:
        raise ConfigurationError("kalman_index: incompatible shapes")
    blocks = [b0]
    ranks, smallest = [], []
    k = None
    for j in range(m):
        if j > 0:
            blocks.append(a_mat @ blocks[-1])
        r, sv = numerical_rank(np.concatenate(blocks, axis=1))
        ranks.append(r)
        smallest.append(float(sv[r - 1]) if r > 0 else 0.0)
        if r == m and k is None:
            k = j
    return KalmanResult(k=k, ranks=ranks, singular_values=smallest)


def phi_parabolic(t_final):
    """The proof weight phi(t) = t(T-t)/T^2 with its derivative."""
    T = float(t_final)

    def phi(t):
        t = np.asarray(t, dtype=float)
        return t * (T - t) / T**2

    def phi_dot(t):
        t = np.asarray(t, dtype=float)
        return (T - 2.0 * t) / T**2

    return phi, phi_dot


@dataclass(frozen=True)
class WeightProfile:
    """Time weights for the control construction.

    ``phi`` vanishes at both endpoints; ``xi`` is the nondecreasing Gramian
    floor, positive on (0, T].  ``xi`` is the continuous-limit profile; only
    the case-2 ``xi_grid`` reads it, as the closed form it clips.
    ``xi_grid`` returns the discretization-consistent node values used
    inside the control build and the Q-inverse bound (for case 1 the
    per-step flow-decay product, for case 2 the closed form clipped by the
    deterministic discrete Gramian floor).  ``xi_case`` is "case1" or
    "case2".
    """

    t_final: float
    phi: Callable
    phi_dot: Callable
    xi: Callable
    xi_case: str
    meta: dict = field(default_factory=dict)

    def xi_grid(self, grid):
        if abs(grid.t_final - self.t_final) > 1e-12 * max(1.0, self.t_final):
            raise ConfigurationError("grid horizon does not match the weight profile")
        nodes = grid.nodes
        dt = grid.dt
        if self.xi_case == "case1":
            cb = self.meta["c_bound"]
            cp = self.meta["c_prime"]
            n = grid.n_steps
            decay = np.maximum(0.0, 1.0 - cb * dt) ** (2.0 * (n - np.arange(n + 1)))
            integrand = self.phi(nodes) * decay
            out = np.concatenate([[0.0], np.cumsum(integrand[:-1]) * dt])
            return cp**2 * out
        vals = np.asarray(self.xi(nodes), dtype=float)
        floor = _discrete_gramian_floor(self.meta["a_matrix"], self.meta["b0"],
                                        self.phi, grid)
        return np.minimum(vals, floor)


def _discrete_gramian_floor(a_mat, b0, phi, grid):
    """lambda_min of the left-endpoint Gramian with deterministic flow."""
    n = grid.n_steps
    m = a_mat.shape[0]
    k = np.empty((n + 1, m, m))
    k[-1] = np.eye(m)
    p_step = np.eye(m) + grid.dt * a_mat
    for i in range(n - 1, -1, -1):
        k[i] = k[i + 1] @ p_step
    gram = gramian_M(np.moveaxis(k, 0, -1)[:, :, None], b0, phi, grid)[:, :, 0]
    return np.linalg.eigvalsh(np.moveaxis(gram, -1, 0))[:, 0]


def gramian_M(k_flow, b0, phi, grid):
    """Controllability-style Gramian of the constant part B0.

    Left-endpoint sum M_{t_i} = sum_{j<i} phi(t_j) K(T,t_j) B0 B0^T
    K(T,t_j)^* dt at every node, symmetrized against round-off.  Flows
    (m, m, B, N+1) give (m, m, B, N+1).
    """
    b0 = np.atleast_2d(np.asarray(b0, dtype=float))
    kb = np.einsum("akpj,kd->adpj", k_flow, b0)
    gram = _prefix_sums(phi(grid.nodes) * np.einsum("adpj,bdpj->abpj", kb, kb) * grid.dt)
    return 0.5 * (gram + np.swapaxes(gram, 0, 1))


def gramian_integral(g, d_mat, t):
    """int_0^t exp(sG) D exp(sG)^T ds by Van Loan's block exponential:
    expm(t [[-G, D], [0, G^T]]) has lower-right block exp(tG)^T and
    upper-right block exp(-tG) times the integral."""
    from scipy.linalg import expm  # deferred: slow to import

    n = g.shape[0]
    blocks = np.zeros((2 * n, 2 * n))
    blocks[:n, :n] = -g
    blocks[:n, n:] = d_mat
    blocks[n:, n:] = g.T
    e_blocks = expm(t * blocks)
    gram = e_blocks[n:, n:].T @ e_blocks[:n, n:]
    return 0.5 * (gram + gram.T)


def _prefix_sums(x):
    """out_j = sum_{s<j} x_s along the node axis, out_0 = 0."""
    out = np.empty_like(x)
    out[..., 0] = 0.0
    np.cumsum(x[..., :-1], axis=-1, out=out[..., 1:])
    return out


def _suffix_sums(x):
    """out_j = sum_{s>=j} x_s along the node axis, one node longer, out_N = 0."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., -1] = 0.0
    np.cumsum(x[..., ::-1], axis=-1, out=out[..., -2::-1])
    return out


def gramian_Q(spec, jac, k_flow, phi, grid):
    """Gramian with the full cross Jacobian d2Z1(X_s) in place of B0.

    Not symmetrized: Q_t is not symmetric in general.  Shape (m, m, B, N+1).
    """
    m = spec.m
    kc = np.einsum("akpj,kdpj->adpj", k_flow, jac[:m, m:])     # K C
    kb = np.einsum("akpj,kd->adpj", k_flow, spec.b0)            # K B0
    return _prefix_sums(phi(grid.nodes) * np.einsum("adpj,bdpj->abpj", kc, kb) * grid.dt)


def xi_case1(b0, phi, c_bound, t_final):
    """Gramian floor for the full-rank case Rank(B0) = m.

    xi(t) = c'^2 int_0^t phi(s) exp(-2 c_bound (T-s)) ds with c' the smallest
    singular value of B0, following the flow bound |K(T,s)^* a| >=
    exp(-C(T-s)) |a|.  ``phi`` is the (phi, phi_dot) pair.
    """
    b0 = np.atleast_2d(np.asarray(b0, dtype=float))
    m = b0.shape[0]
    rank, svals = numerical_rank(b0)
    if rank < m:
        raise NotApplicableError("xi_case1 requires Rank(B0) = m; use xi_case2")
    c_prime = float(svals[m - 1])
    cb = float(c_bound)
    if cb < 0:
        raise ConfigurationError("c_bound must be >= 0")
    T = float(t_final)
    phi_fn, phi_dot_fn = phi

    s_dense = np.linspace(0.0, T, 8193)
    integrand = phi_fn(s_dense) * np.exp(-2.0 * cb * (T - s_dense))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1])
                                           * np.diff(s_dense))])

    def xi(t):
        t = np.asarray(t, dtype=float)
        return c_prime**2 * np.interp(t, s_dense, cum)

    return WeightProfile(t_final=T, phi=phi_fn, phi_dot=phi_dot_fn, xi=xi,
                         xi_case="case1", meta={"c_prime": c_prime, "c_bound": cb})


def xi_case2(a_matrix, b0, phi, t_final):
    """Gramian floor under the Kalman condition with constant d1Z1 = A.

    xi(t) = c1 (t ^ 1)^{2(k+1)} / (T exp(c2 T)) with c2 = 2||A|| and c1
    calibrated (with a recorded haircut) as the largest constant keeping
    lambda_min(M_t) >= xi(t) on a deterministic grid of 64 nodes, where M_t
    uses the exact flow exp((T-s)A).  ``phi`` is the (phi, phi_dot) pair.
    """
    a_mat = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    b0 = np.atleast_2d(np.asarray(b0, dtype=float))
    m = a_mat.shape[0]
    from scipy.linalg import expm  # deferred: slow to import

    kal = kalman_index(a_mat, b0)
    if kal.k is None:
        raise NotApplicableError("xi_case2 requires the Kalman rank condition")
    k_idx = kal.k
    T = float(t_final)
    phi_fn, phi_dot_fn = phi
    c2 = 2.0 * float(np.linalg.norm(a_mat, 2))

    # lambda_min(M_t) on the calibration grid: gramian_M on a fine grid, with
    # the exact flow exp((T - s) A) advanced by repeated exp(-ds A)
    fine = TimeGrid(T, 128 * _XI_N_CALIB)
    e_step = expm(-fine.dt * a_mat)
    flow = np.empty((fine.n_steps + 1, m, m))
    flow[0] = expm(T * a_mat)
    for j in range(fine.n_steps):
        flow[j + 1] = flow[j] @ e_step
    gram = gramian_M(np.moveaxis(flow, 0, -1)[:, :, None], b0, phi_fn, fine)[:, :, 0]
    lam_min = np.linalg.eigvalsh(np.moveaxis(gram[..., 128::128], -1, 0))[:, 0]
    calib_t = T * np.arange(1, _XI_N_CALIB + 1) / _XI_N_CALIB
    shape = np.minimum(calib_t, 1.0) ** (2 * (k_idx + 1)) / (T * np.exp(c2 * T))
    c1 = (1.0 - _XI_HAIRCUT) * float(np.min(lam_min / shape))
    if not c1 > 0:
        raise NotApplicableError("xi_case2 calibration produced a nonpositive constant")

    def xi(t):
        t = np.asarray(t, dtype=float)
        return c1 * np.minimum(t, 1.0) ** (2 * (k_idx + 1)) / (T * np.exp(c2 * T))

    meta = {"k": k_idx, "c1": c1, "c2": c2, "haircut": _XI_HAIRCUT,
            "calib_grid": calib_t, "calib_lambda_min": lam_min,
            "margin": float(np.min(lam_min - xi(calib_t))),
            "a_matrix": a_mat, "b0": b0}
    return WeightProfile(t_final=T, phi=phi_fn, phi_dot=phi_dot_fn, xi=xi,
                         xi_case="case2", meta=meta)


@dataclass
class AlphaData:
    """Control process alpha with its rates and inverse by-products."""

    alpha: np.ndarray            # (d, B, N+1)
    alpha_dot: np.ndarray        # (d, B, N) divided difference, feeds hdot
    alpha_dot_gap: float         # max |analytic rate - alpha_dot|
    q_path: np.ndarray           # (m, m, B, N+1)
    xi_vals: np.ndarray          # (N+1,) grid profile before per-path drops
    xi_eff: np.ndarray           # (B, N+1) after drops
    nu: np.ndarray               # (B,) normalizer
    q_inv: np.ndarray            # (m, m, B, N+1) Q^{-1} at node N and the active
                                 #   nodes, 0 at flagged members and elsewhere
    rho: np.ndarray              # (m, B, N+1) backward xi^2-weighted sum of u
    p_vec: np.ndarray            # (m, B) Q_T^{-1} c2
    dropped_nodes: np.ndarray    # (B,) count of dropped quadrature nodes
    degenerate: np.ndarray       # (B,) bool, Q_T^{-1} flagged


def _norm1(mats):
    """Matrix 1-norm (largest absolute column sum) of a component-major
    (rows, cols, ...) stack: rows added in order and column sums compared
    with ``np.maximum``, the bits of ``np.abs(mats).sum(axis=0).max(axis=0)``
    (NaN included) without its reduction set-up, 3x faster on 1x1 stacks."""
    a = np.abs(mats)
    col = sum(a[1:], a[0])
    return functools.reduce(np.maximum, col[1:], col[0])


def _inv(mats):
    """Inverse of a finite (n, n, ...) stack and the mask of members it could
    not invert.

    1x1 and 2x2 stacks: the adjugate over the determinant, element-wise (the
    1x1 case 1/a has LAPACK's bits); a computed determinant of 0 or
    non-finite flags the member.  Larger stacks: LAPACK, retried with the
    members whose LU determinant is 0 replaced by I when one fails the batch.
    """
    n = len(mats)
    if n > 2:
        lapack = np.moveaxis(mats, (0, 1), (-2, -1))
        try:
            inv, sing = np.linalg.inv(lapack), np.zeros(mats.shape[2:], dtype=bool)
        except np.linalg.LinAlgError:
            det = np.linalg.det(lapack)
            sing = ~np.isfinite(det) | (det == 0.0)
            inv = np.linalg.inv(np.where(sing[..., None, None], np.eye(n), lapack))
        return np.moveaxis(inv, (-2, -1), (0, 1)), sing
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if n == 1:
            det, inv = mats[0, 0], 1.0 / mats
        else:
            (a, b), (c, d) = mats
            det = a * d - b * c
            inv = np.empty_like(mats)                 # keeps the stack's layout
            inv[0, 0], inv[0, 1], inv[1, 0], inv[1, 1] = d, -b, -c, a
            inv /= det
        return inv, ~np.isfinite(det) | (det == 0.0)


def _pinv_stack(mats):
    """Inverse of an (n, n, ...) stack and the mask of the members it flags;
    never raises on singularity.

    A member is flagged when it is not finite, when ``_inv`` flags it (its
    determinant is 0 or not finite), or when its 1-norm condition estimate
    n ||A||_1 ||A^-1||_1 reaches ``_COND_MAX``.  A flagged member's inverse
    is NaN, so whatever is built from it is not finite.
    """
    mats = np.asarray(mats, dtype=float)
    n = len(mats)
    flagged = ~np.isfinite(mats).all(axis=(0, 1))
    safe = (np.where(flagged, np.eye(n).reshape((n, n) + (1,) * flagged.ndim), mats)
            if flagged.any() else mats)
    inv, singular = _inv(safe)
    flagged |= singular
    with np.errstate(over="ignore", invalid="ignore"):
        flagged |= ~(n * _norm1(safe) * _norm1(inv) < _COND_MAX)
    if flagged.any():
        inv[..., flagged] = np.nan
    return inv, flagged


def _norm(x):
    """``np.linalg.norm(x, axis=0)``, same bits, without its overhead."""
    return np.sqrt(np.einsum("a...,a...->...", x, x))


def build_alpha(spec, jac, k_flow, grid, v, profile):
    """Assemble the control alpha on the grid (left-endpoint quadrature).

    alpha_t = (T-t)/T v2
              - phi(t) B0^T K(T,t)^* Q_T^{-1} int_0^T (T-s)/T K(T,s) d2Z1 v2 ds
              - phi(t) B0^T K(T,t)^* [int_t^T xi^2 Q_s^{-1} K(T,0) v1 ds] / int_0^T xi^2 ds

    Boundary values alpha_0 = v2 and alpha_N = 0 hold exactly by
    construction.  Q_T and the active Q_l are each inverted once by
    ``_pinv_stack``, and its flags decide: a flagged Q_T makes the path
    degenerate, and a flagged Q_l drops its node from the backward sum (its
    weight is a quadrature artifact of phi(0) = 0); drops are counted.
    """
    k = k_flow
    n_paths = jac.shape[2]
    n = grid.n_steps
    dt = grid.dt
    m = spec.m
    T = grid.t_final
    v = np.asarray(v, dtype=float).ravel()
    v1, v2 = v[:m], v[m:]
    nodes = grid.nodes
    phi_vals = profile.phi(nodes)
    phi_dot_vals = profile.phi_dot(nodes)
    w0 = (T - nodes) / T
    w0[-1] = 0.0

    q_path = gramian_Q(spec, jac, k, profile.phi, grid)

    xi_vals = profile.xi_grid(grid)
    xi_eff = np.broadcast_to(xi_vals, (n_paths, n + 1)).copy()
    degenerate = np.zeros(n_paths, dtype=bool)
    dropped = np.zeros(n_paths, dtype=int)

    a_nodes, c_nodes = jac[:m, :m], jac[:m, m:]

    # second term: p = Q_T^{-1} c2, the node sum over a path-major view
    kc_v2 = np.einsum("ikpj,klpj,l->ipj", k, c_nodes, v2)
    c2_vec = np.einsum("j,pji->pi", w0[:-1] * dt, np.moveaxis(kc_v2, 0, -1)[:, :-1]).T
    q_inv = np.zeros_like(q_path)
    if np.linalg.norm(v2) > 0:
        inv, degenerate = _pinv_stack(q_path[..., n])
        q_inv[..., n] = np.where(degenerate, 0.0, inv)
        p_vec = np.einsum("abp,bp->ap", q_inv[..., n], c2_vec)
    else:
        p_vec = np.zeros((m, n_paths))

    # third term: u_l = Q_l^{-1} K(T,0) v1 on nodes with xi > 0
    has_v1 = np.linalg.norm(v1) > 0
    if has_v1:
        active = (xi_vals > 0) & (np.arange(n + 1) >= 1) & (np.arange(n + 1) <= n - 1)
        idx = np.nonzero(active)[0]
        if idx.size:
            inv, drop = _pinv_stack(q_path[..., idx])
            q_inv[..., idx] = np.where(drop, 0.0, inv)
            xi_eff[:, idx] = np.where(drop, 0.0, xi_eff[:, idx])
            dropped += drop.sum(axis=1)
    u = np.einsum("abpj,bp->apj", q_inv[..., :n], np.einsum("ikp,k->ip", k[..., 0], v1))
    nu = np.sum(xi_eff[:, :-1] ** 2, axis=1) * dt
    rho = _suffix_sums(xi_eff[:, :-1] ** 2 * u * dt)
    if has_v1:
        bad_nu = nu <= 0
        degenerate |= bad_nu
        nu = np.where(bad_nu, 1.0, nu)
        vec = p_vec[..., None] + rho / nu[:, None]
    else:
        vec = np.broadcast_to(p_vec[..., None], (m, n_paths, n + 1))

    kt_vec = np.einsum("rapj,rpj->apj", k, vec)          # K(T,t)^* vec
    corr = np.einsum("ae,apj->epj", spec.b0, kt_vec)     # B0^T K^* vec, (d, p, j)
    alpha = w0 * v2[:, None, None] - phi_vals * corr

    alpha_dot = (alpha[..., 1:] - alpha[..., :-1]) / dt

    # analytic rate: -v2/T - B0^T (phi' I - phi A^T) K^* vec + phi xi^2/nu B0^T K^* u
    at_kt_vec = np.einsum("rapj,rpj->apj", a_nodes[..., :-1], kt_vec[..., :-1])
    z = phi_dot_vals[:-1] * kt_vec[..., :-1] - phi_vals[:-1] * at_kt_vec
    alpha_dot_an = -v2[:, None, None] / T - np.einsum("ae,apj->epj", spec.b0, z)
    if has_v1:
        kt_u = np.einsum("rapj,rpj->apj", k[..., :-1], u)
        alpha_dot_an = alpha_dot_an + np.einsum(
            "ae,apj->epj", spec.b0, (phi_vals[:-1] * xi_eff[:, :-1] ** 2 / nu[:, None]) * kt_u)
    gap = float(np.max(np.abs(alpha_dot_an - alpha_dot))) if alpha.size else 0.0

    return AlphaData(alpha=alpha, alpha_dot=alpha_dot, alpha_dot_gap=gap, q_path=q_path,
                     xi_vals=xi_vals, xi_eff=xi_eff, nu=nu, q_inv=q_inv, rho=rho,
                     p_vec=p_vec, dropped_nodes=dropped, degenerate=degenerate)


def build_bridge(spec, jac, alpha_data, grid, v):
    """Propagate g and assemble hdot from a built alpha.

    g follows the forward linear ODE g' = d1Z1(X) g + d2Z1(X) alpha with
    g_0 = v1 (Euler, shared grid); hdot_t = sigma^{-1}(dZ2(X_t)(g_t, alpha_t)
    - alpha_dot_t) pointwise on steps.  Returns g, hdot (d, B, N) and the
    residuals |alpha_0 - v2|, |alpha_N|, |g_N| (B, 3).
    """
    alpha, alpha_dot = alpha_data.alpha, alpha_data.alpha_dot
    n_paths = jac.shape[2]
    n = grid.n_steps
    dt = grid.dt
    m = spec.m
    v = np.asarray(v, dtype=float).ravel()
    v1, v2 = v[:m], v[m:]

    a_nodes, c_nodes = jac[:m, :m], jac[:m, m:]
    g = np.empty((n + 1, m, n_paths))                  # time-major, as the Euler loop
    g[0] = v1[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        c_alpha = np.einsum("adpj,dpj->apj", c_nodes[..., :-1], alpha[..., :-1])
        for i in range(n):
            g[i + 1] = g[i] + dt * (np.einsum("abp,bp->ap", a_nodes[..., i], g[i])
                                    + c_alpha[..., i])
    g = np.moveaxis(g, 0, -1)
    h_dot = _assemble_hdot(spec, jac[..., :-1], g[..., :-1], alpha[..., :-1], alpha_dot)
    res = np.stack([_norm(alpha[..., 0] - v2[:, None]), _norm(alpha[..., n]),
                    _norm(g[..., n])], axis=-1)
    return g, h_dot, res


def _assemble_hdot(spec, jac, g, alpha, alpha_dot):
    """hdot = sigma^{-1} (dZ2(X)(g, alpha) - alpha_dot), (d, B, N), from the
    node Jacobian and g, alpha on the N step nodes; a batch of one in g,
    alpha and alpha_dot is shared by every path of ``jac``."""
    m = spec.m
    drive = (np.einsum("dapj,apj->dpj", jac[m:, :m], g)
             + np.einsum("depj,epj->dpj", jac[m:, m:], alpha) - alpha_dot)
    return np.einsum("fd,dpj->fpj", spec.sigma_inv(), drive)


def q_inverse_bound_ratio(q_path, xi_grid_vals, epsilon):
    """Worst ratio ||Q_t^{-1}|| * (1 - eps) xi(t) over nodes with xi > 0.

    The bound ||Q_t^{-1}|| <= 1/((1-eps) xi(t)) holds when the ratio is
    <= 1 (up to round-off).  ``q_path``: (m, m, B, N+1); an empty batch
    gives 0.  For m = 1 the smallest singular value is |Q|, LAPACK's bits.
    """
    xi = np.asarray(xi_grid_vals, dtype=float)
    active = xi > 0
    if not np.any(active) or q_path.shape[2] == 0:
        return 0.0
    q = q_path[..., active]
    if len(q) == 1:
        smin = np.abs(q[0, 0])
    else:
        smin = np.linalg.svd(np.moveaxis(q, (0, 1), (-2, -1)), compute_uv=False)[..., -1]
    with np.errstate(divide="ignore"):
        ratio = (1.0 - epsilon) * xi[active] / smin
    return float(np.max(ratio))
