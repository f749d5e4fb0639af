"""Structural condition checks and consequence verification.

Covers the small-time Gramian scaling lambda_min(U_t) ~ t^{2k+1} under the
Kalman condition (``control.kalman_index``), one-sided empirical checks of the
gradient decay rates carried by the divergence weight, the entropy-gradient
inequality, and the power-Harnack inequality with its fitted cost constant.

All paper constants here are existential, so every verifier is a
fit-then-validate procedure: fit the single free constant on one sample,
check the inequality on a fresh sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .control import KalmanResult, gramian_integral, kalman_index
from .errors import ConfigurationError, MethodMisuseError, NotApplicableError
from .estimator import (TestFunction, affine_mean, bismut_gradient,
                        covariance_flow, default_weights, expectation)
from .flow import TimeGrid

__all__ = [
    "KalmanResult",
    "RateFit",
    "HarnackReport",
    "kalman_index",
    "gramian_scaling",
    "gradient_rate_sweep",
    "entropy_gradient_check",
    "harnack_check",
    "gaussian_expectation",
    "gaussian_terminal_law",
]

# seed offset of the Harnack hold-out sample, apart from the training one
_HOLDOUT_SEED_OFFSET = 10_000


@dataclass
class RateFit:
    """Log-log least-squares fit of a positive quantity against abscissae."""

    grid: np.ndarray
    values: np.ndarray
    slope: float
    slope_ci: float                      # 95% half-width
    theoretical_exponent: Optional[float] = None
    passed: Optional[bool] = None
    excluded: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def _loglog_fit(xs, ys):
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    n = lx.size
    if n < 2:
        raise ConfigurationError("rate fit needs at least two points")
    sxx = np.sum((lx - lx.mean()) ** 2)
    slope = float(np.sum((lx - lx.mean()) * (ly - ly.mean())) / sxx)
    if n == 2:
        return slope, np.inf
    resid = ly - (ly.mean() + slope * (lx - lx.mean()))
    s2 = float(np.sum(resid**2) / (n - 2))
    from scipy.stats import t as student_t  # deferred: slow to import

    half = float(student_t.ppf(0.975, n - 2) * np.sqrt(s2 / sxx))
    return slope, half


def gramian_scaling(a_matrix, b0, t_grid):
    """Small-time scaling of U_t = int_0^t exp(sA) B0 B0^T exp(sA^T) ds.

    U_t is exact (``control.gramian_integral``) at every t of the grid, which
    must be finite and positive; the fit is log lambda_min(U_t) against log t.
    """
    a_mat = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    b0 = np.atleast_2d(np.asarray(b0, dtype=float))
    kal = kalman_index(a_mat, b0)
    if kal.k is None:
        raise NotApplicableError("gramian_scaling needs the Kalman condition")
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid) & (t_grid > 0)):
        raise ConfigurationError("gramian_scaling needs finite t > 0")
    lam = np.array([np.linalg.eigvalsh(gramian_integral(a_mat, b0 @ b0.T, t))[0]
                    for t in t_grid])
    slope, ci = _loglog_fit(t_grid, lam)
    return RateFit(grid=t_grid, values=lam, slope=slope, slope_ci=ci,
                   theoretical_exponent=2 * kal.k + 1,
                   extras={"kalman_k": kal.k})


def _is_constant_f(f, x_probe):
    pts = np.stack([x_probe, x_probe + 1.0, x_probe - 0.7, 2.0 * x_probe + 0.3])
    vals = np.asarray(f.f(pts), dtype=float)
    return bool(np.all(np.abs(vals - vals[0]) <= 1e-14 * (1 + abs(vals[0]))))


def gradient_rate_sweep(spec, x0, v, f, t_grid, cfg, n_steps=512):
    """Fit the horizon decay of the divergence weight L2 norm.

    Runs the derivative-formula estimator per horizon T, its weight profile
    built with ``cfg.c_bound``, fits log ||delta||_L2 against log T, and
    compares one-sidedly against the theoretical exponent: -3/2 when
    Rank(B0) = m, else -((4k-1) v 0 + 3/2) under the Kalman condition.
    Horizons where the weight's own relative standard error exceeds 0.1 are
    excluded from the fit.  For constant f the fit is skipped and the
    estimates are checked to be statistical zeros.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ConfigurationError("rate sweep needs at least one horizon")
    grids = [TimeGrid(float(t_final), n_steps) for t_final in t_grid]
    profiles = [default_weights(spec, grid, c_bound=cfg.c_bound) for grid in grids]
    k_idx = profiles[0].meta.get("k", 0)
    expo = -1.5 if profiles[0].xi_case == "case1" else -(max(4 * k_idx - 1, 0) + 1.5)

    constant_f = _is_constant_f(f, x0)
    method = "bismut_ito" if spec.constant_jac_z1 else "bismut_skorokhod"
    values, ses, used, excluded, zero_ok = [], [], [], [], []
    for grid, weights in zip(grids, profiles):
        est = bismut_gradient(spec, x0, v, f, grid, replace(cfg, method=method),
                              weights=weights)
        if constant_f:
            zero_ok.append(abs(est.value) <= 4.0 * est.std_error + 1e-12)
            continue
        wl2 = est.weight_l2
        # delta-method SE of sqrt(mean delta^2); absent only for a zero weight
        se_wl2 = est.diagnostics.get("wl2_se", np.inf)
        rel = se_wl2 / wl2 if wl2 > 0 else np.inf
        if rel > 0.1:
            excluded.append(grid.t_final)
            continue
        used.append(grid.t_final)
        values.append(wl2)
        ses.append(se_wl2)
    if constant_f:
        return RateFit(grid=t_grid, values=np.zeros_like(t_grid), slope=float("nan"),
                       slope_ci=float("nan"), theoretical_exponent=expo,
                       passed=all(zero_ok), excluded=[],
                       extras={"sanity_branch": True, "kalman_k": k_idx})
    slope, ci = _loglog_fit(used, values)
    passed = slope >= expo - 0.25
    return RateFit(grid=np.asarray(used), values=np.asarray(values), slope=slope,
                   slope_ci=ci, theoretical_exponent=expo, passed=bool(passed),
                   excluded=excluded,
                   extras={"kalman_k": k_idx, "weight_se": ses})


def entropy_gradient_check(spec, x0, v, f_positive, t_final, lambda_grid, cfg, n_steps=256):
    """Residual table for the entropy-gradient inequality.

    gamma_hat(lambda) = (|grad_v P_T f| - lambda * entropy) / P_T f with
    entropy = P_T(f log f) - (P_T f) log P_T f >= 0.  Returns (rows, a_fit)
    where a_fit is the least-squares coefficient of gamma_hat ~ a / lambda.
    Estimates share paths (identical master seed streams).
    """
    if not spec.constant_jac_z1:
        raise MethodMisuseError("entropy_gradient_check needs constant jac_z1")
    lams = np.asarray(lambda_grid, dtype=float)
    if lams.size == 0 or not np.all(np.isfinite(lams) & (lams > 0)):
        raise ConfigurationError("entropy_gradient_check needs a non-empty grid of "
                                 "finite lambda > 0")
    x0 = np.asarray(x0, dtype=float).ravel()
    grid = TimeGrid(float(t_final), n_steps)
    # sampled positivity probe on a box around x0 of radius 2 + |x0| + 2 sqrt(T)
    rad = 2.0 + np.linalg.norm(x0) + 2.0 * np.sqrt(t_final)
    rng = np.random.default_rng(0)
    probe_pts = x0 + rad * rng.uniform(-1.0, 1.0, size=(256, x0.size))
    if np.any(np.asarray(f_positive.f(probe_pts)) <= 0):
        raise MethodMisuseError("entropy_gradient_check needs strictly positive f")

    est = bismut_gradient(spec, x0, v, f_positive, grid, cfg,
                          weights=default_weights(spec, grid, c_bound=cfg.c_bound))
    grad_abs = abs(est.value)
    grad_se = est.std_error

    flogf = TestFunction(
        f=lambda x: f_positive.f(x) * np.log(f_positive.f(x)),
        tag="custom")
    ptf, ptf_se = expectation(spec, x0, f_positive, grid, cfg)
    pt_flogf, pt_flogf_se = expectation(spec, x0, flogf, grid, cfg)
    entropy = pt_flogf - ptf * np.log(ptf)

    rows = []
    for lam in lams:
        gamma = (grad_abs - lam * entropy) / ptf
        rows.append({"lambda": float(lam), "lhs": grad_abs,
                     "entropy_term": float(entropy), "gamma_hat": float(gamma),
                     "p_t_f": float(ptf)})
    gammas = np.array([r["gamma_hat"] for r in rows])
    a_fit = float(np.sum(gammas / lams) / np.sum(1.0 / lams**2))
    stats = {"grad_se": grad_se, "ptf_se": ptf_se, "pt_flogf_se": pt_flogf_se}
    return rows, a_fit, stats


@dataclass
class HarnackReport:
    """Fit-then-validate record for the power-Harnack inequality."""

    points: list                  # dicts with x, v, p, T, lhs, rhs_factor, bracket
    fitted_c: float
    margin: float                 # min slack on held-out points at fitted_c
    holdout_points: list = field(default_factory=list)
    dropped: int = 0
    extras: dict = field(default_factory=dict)


def _harnack_bracket(spec, x, v, p, t_final, k_idx, l1):
    """Cost bracket of the Harnack exponent (free constant factored out)."""
    t_eff = min(t_final, 1.0)
    vnorm = float(np.linalg.norm(v))
    terms = 1.0 / t_eff ** (4 * k_idx + 3)
    if l1 < 0.5:
        expo = (4 * k_idx + 2 - 2 * l1) / (1 - 2 * l1)
        terms += (1 + p * vnorm / (p - 1)) ** (4 * l1 / (1 - 2 * l1)) / t_eff ** expo
        if l1 > 0 and spec.hypothesis is not None:
            s_nodes = np.linspace(0.0, 1.0, 65)
            w_vals = spec.hypothesis.w(x[None, :] + s_nodes[:, None] * v[None, :])
            w_int = float(np.trapezoid(w_vals, s_nodes))
            terms += (p - 1) * l1 * w_int / (p - 1 + vnorm)
    else:
        raise NotApplicableError("harnack bracket implemented for l1 < 1/2")
    return vnorm**2 / (p - 1) * terms


def gaussian_terminal_law(spec, x0, t_final):
    """Terminal law N(mu, Sigma) of an affine model."""
    if not spec.is_linear:
        raise MethodMisuseError("gaussian_terminal_law needs an affine model")
    etg, shift = affine_mean(spec, t_final)
    mu = etg @ np.asarray(x0, dtype=float).ravel() + shift
    cov = covariance_flow(spec, t_final)
    return mu, cov


def gaussian_expectation(mu, cov, center, lam):
    """E[exp(-(z-center)^T lam (z-center)/2)] for z ~ N(mu, cov).

    Gaussian convolution: the value is |I + cov lam|^{-1/2}
    exp(-(mu-center)^T (cov + lam^{-1})^{-1} (mu-center)/2) with
    (cov + lam^{-1})^{-1} = lam (I + cov lam)^{-1}, valid for singular lam.
    """
    mu = np.asarray(mu, dtype=float).ravel()
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    center = np.asarray(center, dtype=float).ravel()
    n = mu.size
    a_mat = np.eye(n) + cov @ lam
    det = np.linalg.det(a_mat)
    diff = mu - center
    quad = diff @ (lam @ np.linalg.solve(a_mat, diff))
    return det**-0.5 * np.exp(-0.5 * quad)


def _bump_lam(f):
    if f.tag != "gaussian_bump":
        raise MethodMisuseError("the Gaussian oracle needs a gaussian_bump f")
    center = np.asarray(f.params["center"], dtype=float)
    lam = np.eye(center.size) / f.params["width"] ** 2
    return center, lam


def harnack_check(spec, f_positive, x, v, p_grid, t_final, cfg, n_steps=256,
                  scales=(0.4, 0.7, 1.0, 1.3),
                  holdout_scales=(0.55, 0.85, 1.15),
                  use_oracle=False):
    """Fit the Harnack cost constant and validate on held-out points.

    Points are (x, s v, p, T) over scale and exponent grids.  The fitted
    constant is the smallest c with  log P_T f(x) <= (1/p) log P_T f^p(x+sv)
    + c * bracket  at every training point; the report's margin is the
    minimal slack on the held-out points.  Hold-out scales should stay
    inside the span of the training scales (the fit does not extrapolate).
    With ``use_oracle`` the expectations are exact Gaussian integrals
    (affine models, bump f).
    """
    if not spec.constant_jac_z1:
        raise MethodMisuseError("harnack_check needs constant jac_z1")
    x = np.asarray(x, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    p_grid = [float(p) for p in np.atleast_1d(p_grid)]
    if min(p_grid) <= 1.0:
        raise ConfigurationError("harnack_check needs p > 1")
    a0 = spec.dz(np.zeros(spec.dim))[:spec.m, :spec.m]
    kal = kalman_index(a0, spec.b0)
    if kal.k is None:
        raise NotApplicableError("harnack_check needs the Kalman condition")
    l1 = spec.hypothesis.l1 if spec.hypothesis is not None else 0.0
    grid = TimeGrid(float(t_final), n_steps)

    if use_oracle:
        center, lam = _bump_lam(f_positive)

        def estimate(point_x, power, offset):
            mu, cov = gaussian_terminal_law(spec, point_x, t_final)
            val = gaussian_expectation(mu, cov, center, power * lam)
            return val, 0.0
    else:
        def estimate(point_x, power, offset):
            if power == 1.0:
                fn = f_positive
            else:
                fn = TestFunction(f=lambda z, q=power: f_positive.f(z) ** q,
                                  tag="custom")
            return expectation(spec, point_x, fn, grid, cfg, seed_offset=offset)

    def eval_points(scale_list, offset0):
        rows = []
        dropped = 0
        lhs, lhs_se = estimate(x, 1.0, offset0)
        for si, s in enumerate(scale_list):
            for pi, p in enumerate(p_grid):
                offset = offset0 + 97 * (si * len(p_grid) + pi) + 1
                rhs_p, rhs_se = estimate(x + s * v, p, offset)
                if lhs <= 0 or rhs_p <= 0:
                    dropped += 1
                    continue
                qterm = rhs_p ** (1.0 / p)
                bracket = _harnack_bracket(spec, x, s * v, p, t_final, kal.k, l1)
                log_gap = np.log(lhs) - np.log(qterm)
                se_log = np.hypot(lhs_se / lhs, rhs_se / (p * rhs_p))
                rows.append({"x": x.tolist(), "v": (s * v).tolist(), "p": p,
                             "T": float(t_final), "lhs": float(lhs),
                             "rhs_factor": float(qterm), "bracket": float(bracket),
                             "log_gap": float(log_gap), "se_log": float(se_log)})
        return rows, dropped

    train, dropped_a = eval_points(scales, 0)
    holdout, dropped_b = eval_points(holdout_scales, _HOLDOUT_SEED_OFFSET)
    if not train or not holdout:
        raise NotApplicableError("harnack_check: all points dropped")
    # a zero bracket (v = 0) carries no free constant; the gap there is
    # pure Jensen and only enters the margin check
    ratios = [r["log_gap"] / r["bracket"] for r in train if r["bracket"] > 0]
    fitted_c = max(0.0, max(ratios)) if ratios else 0.0
    margins = [fitted_c * r["bracket"] - r["log_gap"] for r in holdout]
    margin = float(min(margins))
    return HarnackReport(points=train, fitted_c=float(fitted_c), margin=margin,
                         holdout_points=holdout, dropped=dropped_a + dropped_b,
                         extras={"kalman_k": kal.k, "l1": l1,
                                 "holdout_se_log": [r["se_log"] for r in holdout]})
