"""Explicit bridge control for the degenerate block.

Given a simulated path and its terminal flow K(T, t_i), this module builds
the time weights (phi, xi), the Gramians

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

All operations take a batch of paths: flows K(T, t_i) are (B, N+1, m, m),
and in place of the states each function takes the node Jacobian
``jac`` = DZ(X) of shape (B, N+1, n, n), which the caller evaluates once
for the whole chain.  One path is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .errors import ConfigurationError, NotApplicableError

__all__ = [
    "WeightProfile",
    "phi_parabolic",
    "gramian_M",
    "gramian_Q",
    "xi_case1",
    "xi_case2",
    "build_alpha",
    "build_bridge",
    "q_inverse_bound_ratio",
]

_SOLVE_RESIDUAL_TOL = 1e-8
_REG_SCALE = 1e-12
_XI_HAIRCUT = 0.05
_XI_N_CALIB = 64


def numerical_rank(mat):
    """Rank of an m-row matrix under the SVD cutoff m * s_max * eps * 2^6,
    with its singular values (descending)."""
    sv = np.linalg.svd(mat, compute_uv=False)
    tau = mat.shape[0] * (sv[0] if sv.size else 0.0) * np.finfo(float).eps * 64
    return int(np.sum(sv > tau)), sv


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
    floor, positive on (0, T].  ``xi`` is the continuous-limit profile used
    by rate analysis; ``xi_grid`` returns the discretization-consistent node
    values used inside the control build and the Q-inverse bound (for case 1
    the per-step flow-decay product, for case 2 the closed form clipped by
    the deterministic discrete Gramian floor).  ``xi_case`` is "case1" or
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
    return np.linalg.eigvalsh(gramian_M(k[None], b0, phi, grid)[0])[:, 0]


def gramian_M(k_flow, b0, phi, grid):
    """Controllability-style Gramian of the constant part B0.

    Left-endpoint sum M_{t_i} = sum_{j<i} phi(t_j) K(T,t_j) B0 B0^T
    K(T,t_j)^* dt at every node, symmetrized against round-off.  Flows
    (B, N+1, m, m) give (B, N+1, m, m).
    """
    b0 = np.atleast_2d(np.asarray(b0, dtype=float))
    kb = k_flow @ b0
    integ = phi(grid.nodes)[:, None, None] * (kb @ np.swapaxes(kb, -1, -2)) * grid.dt
    m = b0.shape[0]
    gram = np.concatenate([np.zeros(k_flow.shape[:1] + (1, m, m)),
                           np.cumsum(integ[:, :-1], axis=1)], axis=1)
    return 0.5 * (gram + np.swapaxes(gram, -1, -2))


def gramian_Q(spec, jac, k_flow, phi, grid):
    """Gramian with the full cross Jacobian d2Z1(X_s) in place of B0.

    Not symmetrized: Q_t is not symmetric in general.  Shape (B, N+1, m, m).
    """
    m = spec.m
    kc = k_flow @ jac[..., :m, m:]                     # K C
    kb = k_flow @ spec.b0                              # K B0
    integ = phi(grid.nodes)[:, None, None] * (kc @ np.swapaxes(kb, -1, -2)) * grid.dt
    return np.concatenate([np.zeros(jac.shape[:1] + (1, m, m)),
                           np.cumsum(integ[:, :-1], axis=1)], axis=1)


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
    from .analysis import kalman_index  # deferred: analysis also uses this module

    kal = kalman_index(a_mat, b0)
    if kal.k is None:
        raise NotApplicableError("xi_case2 requires the Kalman rank condition")
    k_idx = kal.k
    T = float(t_final)
    phi_fn, phi_dot_fn = phi
    c2 = 2.0 * float(np.linalg.norm(a_mat, 2))

    # lambda_min(M_t) on the calibration grid, with M_t accumulated by a
    # high-resolution left sum and the flow advanced by repeated exp(-da A).
    n_fine = 8192
    ds = T / n_fine
    e_step = expm(-ds * a_mat)
    flow = expm(T * a_mat)                      # exp((T - s) A) at s = 0
    s_nodes = np.arange(n_fine) * ds
    calib_t = T * np.arange(1, _XI_N_CALIB + 1) / _XI_N_CALIB
    acc = np.zeros((m, m))
    lam_min = np.empty(_XI_N_CALIB)
    next_idx = 0
    for j in range(n_fine):
        fb = flow @ b0
        acc = acc + phi_fn(s_nodes[j]) * (fb @ fb.T) * ds
        flow = flow @ e_step
        while next_idx < _XI_N_CALIB and (j + 1) * ds >= calib_t[next_idx] - 1e-12:
            lam_min[next_idx] = np.linalg.eigvalsh(0.5 * (acc + acc.T))[0]
            next_idx += 1
    shape = np.minimum(calib_t, 1.0) ** (2 * (k_idx + 1)) / (T * np.exp(c2 * T))
    ratios = lam_min / shape
    c1 = (1.0 - _XI_HAIRCUT) * float(np.min(ratios))
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
    """Control process alpha with its rates and solver by-products."""

    alpha: np.ndarray            # (B, N+1, d)
    alpha_dot: np.ndarray        # (B, N, d) divided difference, feeds hdot
    alpha_dot_analytic: np.ndarray   # (B, N, d)
    alpha_dot_gap: float
    q_path: np.ndarray           # (B, N+1, m, m)
    xi_vals: np.ndarray          # (N+1,) grid profile before per-path drops
    xi_eff: np.ndarray           # (B, N+1) after drops
    nu: np.ndarray               # (B,) normalizer
    u_nodes: np.ndarray          # (B, N+1, m) guarded Q^{-1} K(T,0) v1
    rho: np.ndarray              # (B, N+1, m) backward xi^2-weighted sum of u
    p_vec: np.ndarray            # (B, m) Q_T^{-1} c2
    dropped_nodes: np.ndarray    # (B,) count of dropped quadrature nodes
    degenerate: np.ndarray       # (B,) bool, Q_T solve failed


def _solve(mats, rhs_col):
    """``np.linalg.solve`` of a stack, NaN for exactly singular members.

    LAPACK's solve of a 1x1 system is the one correctly rounded division
    b/a, so 1x1 stacks divide element-wise: same bits, no per-member
    dispatch, and a == 0 gives a non-finite member instead of an error.
    For m > 1 one singular member fails LAPACK's whole batch; the LU sign
    of ``slogdet`` is 0 exactly for the members whose pivot was zero, and
    the others are solved as they would be alone.
    """
    if mats.shape[-1] == 1:
        return rhs_col / mats
    try:
        return np.linalg.solve(mats, rhs_col)
    except np.linalg.LinAlgError:
        sing = (np.linalg.slogdet(mats)[0] == 0.0)[..., None, None]
        sol = np.linalg.solve(np.where(sing, np.eye(mats.shape[-1]), mats), rhs_col)
        return np.where(sing, np.nan, sol)


def _guarded_solve(mats, rhs):
    """Solve stacked systems with the residual-guarded regularized retry.

    Returns (solution, ok_mask).  ``mats``: (..., m, m); ``rhs``: (..., m).
    Each member is judged on its own: an exactly singular member fails
    alone, with a zero solution.  1x1 systems are divided element-wise,
    which is exact: LAPACK's 1x1 solve is the same division (``_solve``).
    """
    m = mats.shape[-1]
    rhs_col = rhs[..., None]
    with np.errstate(all="ignore"):
        sol = _solve(mats, rhs_col)[..., 0]
    scale = np.linalg.norm(rhs, axis=-1) + 1e-300
    resid = np.linalg.norm(np.einsum("...ab,...b->...a", mats, np.nan_to_num(sol))
                           - rhs, axis=-1) / scale
    bad = ~np.isfinite(sol).all(axis=-1) | (resid > _SOLVE_RESIDUAL_TOL)
    if np.any(bad):
        tr = np.einsum("...aa->...", mats)
        reg = mats + (_REG_SCALE * tr / m)[..., None, None] * np.eye(m)
        with np.errstate(all="ignore"):
            sol2 = _solve(reg, rhs_col)[..., 0]
        resid2 = np.linalg.norm(np.einsum("...ab,...b->...a", mats,
                                          np.nan_to_num(sol2)) - rhs,
                                axis=-1) / scale
        ok2 = np.isfinite(sol2).all(axis=-1) & (resid2 <= _SOLVE_RESIDUAL_TOL)
        take = bad & ok2
        sol = np.where(take[..., None], sol2, sol)
        bad = bad & ~ok2
    sol = np.where(bad[..., None], 0.0, np.nan_to_num(sol))
    return sol, ~bad


def build_alpha(spec, jac, k_flow, grid, v, profile):
    """Assemble the control alpha on the grid (left-endpoint quadrature).

    alpha_t = (T-t)/T v2
              - phi(t) B0^T K(T,t)^* Q_T^{-1} int_0^T (T-s)/T K(T,s) d2Z1 v2 ds
              - phi(t) B0^T K(T,t)^* [int_t^T xi^2 Q_s^{-1} K(T,0) v1 ds] / int_0^T xi^2 ds

    Boundary values alpha_0 = v2 and alpha_N = 0 hold exactly by
    construction.  Nodes whose discrete Q is numerically singular are
    dropped from the backward sum (their weight is a quadrature artifact of
    phi(0) = 0); drops are counted.
    """
    k = k_flow
    n_paths = jac.shape[0]
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

    a_nodes, c_nodes = jac[..., :m, :m], jac[..., :m, m:]

    # second term: p = Q_T^{-1} c2
    kc_v2 = np.einsum("pjik,pjkl,l->pji", k, c_nodes, v2)
    c2_vec = np.einsum("j,pji->pi", w0[:-1] * dt, kc_v2[:, :-1])
    if np.linalg.norm(v2) > 0:
        p_vec, ok = _guarded_solve(q_path[:, n], c2_vec)
        degenerate |= ~ok
    else:
        p_vec = np.zeros((n_paths, m))

    # third term: u_l = Q_l^{-1} K(T,0) v1 on nodes with xi > 0
    u_nodes = np.zeros((n_paths, n + 1, m))
    has_v1 = np.linalg.norm(v1) > 0
    if has_v1:
        rhs = np.einsum("pik,k->pi", k[:, 0], v1)
        active = (xi_vals > 0) & (np.arange(n + 1) >= 1) & (np.arange(n + 1) <= n - 1)
        idx = np.nonzero(active)[0]
        if idx.size:
            sol, ok = _guarded_solve(q_path[:, idx], rhs[:, None, :].repeat(len(idx), 1))
            u_nodes[:, idx] = sol
            drop = ~ok
            xi_eff[:, idx] = np.where(drop, 0.0, xi_eff[:, idx])
            dropped += drop.sum(axis=1)
    nu = np.sum(xi_eff[:, :-1] ** 2, axis=1) * dt
    rho = np.zeros((n_paths, n + 1, m))
    if has_v1:
        wgt = (xi_eff[:, :-1, None] ** 2) * u_nodes[:, :-1] * dt
        rho[:, :-1] = np.cumsum(wgt[:, ::-1], axis=1)[:, ::-1]
        bad_nu = nu <= 0
        degenerate |= bad_nu
        nu = np.where(bad_nu, 1.0, nu)
        vec = p_vec[:, None, :] + rho / nu[:, None, None]
    else:
        vec = np.broadcast_to(p_vec[:, None, :], (n_paths, n + 1, m))

    kt_vec = np.einsum("pjra,pjr->pja", k, vec)         # K(T,t)^* vec
    corr = kt_vec @ spec.b0                             # B0^T K^* vec, (p, j, d)
    alpha = w0[None, :, None] * v2[None, None, :] - phi_vals[None, :, None] * corr

    alpha_dot = (alpha[:, 1:] - alpha[:, :-1]) / dt

    # analytic rate: -v2/T - B0^T (phi' I - phi A^T) K^* vec + phi xi^2/nu B0^T K^* u
    at_kt_vec = np.einsum("pjra,pjr->pja", a_nodes[:, :-1],
                          kt_vec[:, :-1])
    z = (phi_dot_vals[None, :-1, None] * kt_vec[:, :-1]
         - phi_vals[None, :-1, None] * at_kt_vec)
    alpha_dot_an = -v2[None, None, :] / T - z @ spec.b0
    if has_v1:
        kt_u = np.einsum("pjra,pjr->pja", k[:, :-1], u_nodes[:, :-1])
        alpha_dot_an = alpha_dot_an + ((phi_vals[None, :-1] * xi_eff[:, :-1] ** 2
                                        / nu[:, None])[..., None] * kt_u) @ spec.b0
    gap = float(np.max(np.abs(alpha_dot_an - alpha_dot))) if alpha.size else 0.0

    return AlphaData(alpha=alpha, alpha_dot=alpha_dot, alpha_dot_analytic=alpha_dot_an,
                     alpha_dot_gap=gap, q_path=q_path, xi_vals=xi_vals, xi_eff=xi_eff,
                     nu=nu, u_nodes=u_nodes, rho=rho, p_vec=p_vec,
                     dropped_nodes=dropped, degenerate=degenerate)


def build_bridge(spec, jac, alpha_data, grid, v):
    """Propagate g and assemble hdot from a built alpha.

    g follows the forward linear ODE g' = d1Z1(X) g + d2Z1(X) alpha with
    g_0 = v1 (Euler, shared grid); hdot_t = sigma^{-1}(dZ2(X_t)(g_t, alpha_t)
    - alpha_dot_t) pointwise on steps.
    """
    alpha, alpha_dot = alpha_data.alpha, alpha_data.alpha_dot
    n_paths = jac.shape[0]
    n = grid.n_steps
    dt = grid.dt
    m = spec.m
    v = np.asarray(v, dtype=float).ravel()
    v1, v2 = v[:m], v[m:]

    a_nodes, c_nodes = jac[..., :m, :m], jac[..., :m, m:]
    g = np.empty((n_paths, n + 1, m))
    g[:, 0] = v1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            g[:, i + 1] = g[:, i] + dt * (
                np.einsum("pab,pb->pa", a_nodes[:, i], g[:, i])
                + np.einsum("pad,pd->pa", c_nodes[:, i], alpha[:, i]))

    j21, j22 = jac[..., m:, :m], jac[..., m:, m:]
    drive = (np.einsum("pjda,pja->pjd", j21[:, :-1], g[:, :-1])
             + np.einsum("pjde,pje->pjd", j22[:, :-1], alpha[:, :-1])
             - alpha_dot)
    h_dot = drive @ spec.sigma_inv().T

    res = np.stack([
        np.linalg.norm(alpha[:, 0] - v2, axis=-1),
        np.linalg.norm(alpha[:, n], axis=-1),
        np.linalg.norm(g[:, n], axis=-1),
    ], axis=-1)
    return g, h_dot, res


def q_inverse_bound_ratio(q_path, xi_grid_vals, epsilon):
    """Worst ratio ||Q_t^{-1}|| * (1 - eps) xi(t) over nodes with xi > 0.

    The bound ||Q_t^{-1}|| <= 1/((1-eps) xi(t)) holds when the ratio is
    <= 1 (up to round-off).  ``q_path``: (B, N+1, m, m).
    """
    xi = np.asarray(xi_grid_vals, dtype=float)
    active = xi > 0
    if not np.any(active):
        return 0.0
    sv = np.linalg.svd(q_path[:, active], compute_uv=False)
    smin = sv[..., -1]
    with np.errstate(divide="ignore"):
        ratio = (1.0 - epsilon) * xi[active][None, :] / smin
    return float(np.max(ratio))
