import numpy as np
import pytest
from scipy.linalg import expm

from hypograd import estimator
from hypograd.analysis import (entropy_gradient_check, gaussian_expectation,
                               gaussian_terminal_law, gradient_rate_sweep,
                               gramian_scaling, harnack_check, kalman_index)
from hypograd.cli import build_model
from hypograd.control import gramian_integral
from hypograd.errors import ConfigurationError, MethodMisuseError, NotApplicableError
from hypograd.estimator import (EstimatorConfig, gaussian_bump_f, linear_f,
                                quadratic_f)
from hypograd.model import builtin_model

CHAIN_A = np.array([[0.0, 1.0], [0.0, 0.0]])
CHAIN_B0 = np.array([[0.0], [1.0]])


def test_kalman_identity_b0():
    res = kalman_index(np.zeros((3, 3)), np.eye(3))
    assert res.k == 0
    assert res.ranks[0] == 3


def test_kalman_chain():
    res = kalman_index(CHAIN_A, CHAIN_B0)
    assert res.k == 1
    assert res.ranks == [1, 2]


def test_kalman_absent():
    res = kalman_index(np.zeros((2, 2)), np.zeros((2, 1)))
    assert res.k is None
    assert res.ranks == [0, 0]


def test_kalman_similarity_invariance():
    rng = np.random.default_rng(0)
    trials = 0
    while trials < 16:
        s = rng.standard_normal((2, 2))
        if np.linalg.cond(s) > 10:
            continue
        trials += 1
        res = kalman_index(s @ CHAIN_A @ np.linalg.inv(s), s @ CHAIN_B0)
        assert res.k == 1


def test_gramian_scaling_chain_closed_form():
    # U_t = [[t^3/3, t^2/2], [t^2/2, t]] for the k = 1 chain
    t = 0.1
    fit = gramian_scaling(CHAIN_A, CHAIN_B0, np.geomspace(1e-3, 1e-1, 7))
    u_exact = np.array([[t**3 / 3, t**2 / 2], [t**2 / 2, t]])
    lam_exact = np.linalg.eigvalsh(u_exact)[0]
    assert np.isclose(fit.values[-1], lam_exact, rtol=1e-6)
    assert 2.85 <= fit.slope <= 3.15
    assert fit.theoretical_exponent == 3


def test_gramian_scaling_k0_exact_slope():
    fit = gramian_scaling(np.zeros((2, 2)), np.eye(2), np.geomspace(1e-3, 1e-1, 5))
    assert np.isclose(fit.slope, 1.0, atol=1e-9)


def test_gramian_scaling_three_chain():
    a3 = np.diag([1.0, 1.0], 1)
    b3 = np.array([[0.0], [0.0], [1.0]])
    fit = gramian_scaling(a3, b3, np.geomspace(1e-3, 1e-1, 7))
    assert 4.8 <= fit.slope <= 5.2


def test_gramian_scaling_van_loan_cross_check():
    # independent oracle: Van Loan block-exponential for the Gramian integral
    t = 0.07
    n = 2
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -CHAIN_A
    block[:n, n:] = CHAIN_B0 @ CHAIN_B0.T
    block[n:, n:] = CHAIN_A.T
    eb = expm(block * t)
    u_vl = eb[n:, n:].T @ eb[:n, n:]
    fit = gramian_scaling(CHAIN_A, CHAIN_B0, np.array([t, 2 * t]))
    assert np.isclose(fit.values[0], np.linalg.eigvalsh(u_vl)[0], rtol=1e-7)


@pytest.mark.parametrize("n", [2, 3])
def test_gramian_integral_chain_closed_forms(n):
    # U_t = int_0^t e^{sA} B0 B0^T e^{sA^T} ds of the n-chain, entry by entry
    a_mat = np.diag(np.ones(n - 1), 1)
    b0 = np.eye(n)[:, -1:]
    for t in np.geomspace(1e-3, 1e-1, 9):
        if n == 2:
            u = [[t**3 / 3, t**2 / 2], [t**2 / 2, t]]
        else:
            u = [[t**5 / 20, t**4 / 8, t**3 / 6],
                 [t**4 / 8, t**3 / 3, t**2 / 2],
                 [t**3 / 6, t**2 / 2, t]]
        got = gramian_integral(a_mat, b0 @ b0.T, t)
        assert np.all(np.abs(got - u) <= 1e-14 * np.abs(u)), (n, t)


def test_gramian_scaling_rejects_nonpositive_t():
    for bad in ([0.0, 0.01, 0.1], [-0.01, 0.01, 0.1], [np.nan, 0.01], [np.inf, 0.1]):
        with pytest.raises(ConfigurationError):
            gramian_scaling(CHAIN_A, CHAIN_B0, bad)


def test_gramian_scaling_requires_kalman():
    with pytest.raises(NotApplicableError):
        gramian_scaling(np.zeros((2, 2)), np.zeros((2, 1)), [0.01, 0.1])


def test_rate_sweep_kinetic_case1(kinetic_spec):
    cfg = EstimatorConfig(n_paths=5000, master_seed=5, method="bismut_ito")
    fit = gradient_rate_sweep(kinetic_spec, [1.0, 1.0], [1.0, 0.0],
                              linear_f([1.0, 0.0]), np.geomspace(0.05, 0.8, 7),
                              cfg, n_steps=256)
    assert -1.75 <= fit.slope <= -1.25
    assert fit.theoretical_exponent == -1.5
    assert fit.passed


def test_rate_sweep_chain_case2(chain_spec):
    cfg = EstimatorConfig(n_paths=5000, master_seed=6, method="bismut_ito")
    fit = gradient_rate_sweep(chain_spec, [0.5, 0.5, 0.0], [1.0, 0.0, 0.0],
                              linear_f([1.0, 0.0, 0.0]),
                              np.geomspace(0.05, 0.8, 7), cfg, n_steps=256)
    assert fit.theoretical_exponent == -4.5
    assert fit.slope >= -4.5 - 0.25
    assert fit.passed


def test_rate_sweep_constant_f_sanity_branch(kinetic_spec):
    cfg = EstimatorConfig(n_paths=4000, master_seed=7, method="bismut_ito")
    fit = gradient_rate_sweep(kinetic_spec, [1.0, 1.0], [1.0, 0.0],
                              linear_f([0.0, 0.0], b=2.0),
                              np.geomspace(0.1, 0.8, 4), cfg, n_steps=128)
    assert fit.extras["sanity_branch"]
    assert fit.passed
    assert np.isnan(fit.slope)


@pytest.mark.parametrize("params, x0, expo", [
    ({"a": CHAIN_A.tolist(), "b0": CHAIN_B0.tolist()}, [0.5, 0.5, 0.0], -4.5),
    ({"a": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], "b0": [[0.0], [0.0], [1.0]]},
     [0.5, 0.5, 0.5, 0.0], -8.5)], ids=["chain2", "chain3"])
@pytest.mark.parametrize("constant", [True, False], ids=["constant_f", "linear_f"])
def test_rate_sweep_exponent_matches_kalman_index(params, x0, expo, constant):
    # -((4k - 1) v 0 + 3/2) with k read from the horizon profiles
    spec = builtin_model("integrator_chain", params)
    m = spec.m
    k_idx = kalman_index(spec.dz(np.zeros(spec.dim))[:m, :m], spec.b0).k
    a = np.zeros(len(x0)) if constant else np.eye(len(x0))[0]
    cfg = EstimatorConfig(n_paths=2000, master_seed=9, method="bismut_ito")
    fit = gradient_rate_sweep(spec, x0, np.eye(len(x0))[0], linear_f(a, b=1.0),
                              [0.1, 0.2, 0.4], cfg, n_steps=32)
    assert fit.extras["kalman_k"] == k_idx == m - 1
    assert fit.theoretical_exponent == -(max(4 * k_idx - 1, 0) + 1.5) == expo
    assert fit.extras.get("sanity_branch", False) == constant


@pytest.mark.parametrize("which", ["nonconstant_jac", "no_kalman"])
def test_rate_sweep_not_applicable_before_any_noise(monkeypatch, which):
    def no_noise(*args, **kwargs):
        raise AssertionError("noise drawn before the applicability check")

    monkeypatch.setattr(estimator, "path_increments", no_noise)
    if which == "nonconstant_jac":
        # rank-deficient B0, and d1Z1 = [[0.2 x1, 1], [0, 0]] varies
        spec = build_model({"custom": {"m": 2, "d": 1, "z1": ["x2 + 0.1*x1^2", "x3"],
                                       "z2": ["-x3"], "sigma": [[1.0]],
                                       "b0": [[0.0], [1.0]]}})
    else:
        # A = 0 never reaches x1: Rank[B0, A B0] = 1 < 2
        spec = builtin_model("integrator_chain", {"a": [[0.0, 0.0], [0.0, 0.0]],
                                                  "b0": CHAIN_B0.tolist()})
    cfg = EstimatorConfig(n_paths=1000, master_seed=5, method="bismut_ito")
    with pytest.raises(NotApplicableError):
        gradient_rate_sweep(spec, [0.5, 0.5, 0.0], [1.0, 0.0, 0.0],
                            linear_f([1.0, 0.0, 0.0]), [0.1, 0.2], cfg, n_steps=32)


def test_rate_sweep_needs_a_horizon(chain_spec):
    cfg = EstimatorConfig(n_paths=1000, master_seed=5, method="bismut_ito")
    with pytest.raises(ConfigurationError):
        gradient_rate_sweep(chain_spec, [0.5, 0.5, 0.0], [1.0, 0.0, 0.0],
                            linear_f([0.0, 0.0, 0.0], b=1.0), [], cfg)


def test_entropy_constant_f_zero_residual(kinetic_spec):
    cfg = EstimatorConfig(n_paths=20000, master_seed=8, method="bismut_ito")
    f = gaussian_bump_f([0.0, 0.0], width=1e6)  # constant to float precision
    rows, a_fit, stats = entropy_gradient_check(
        kinetic_spec, [1.0, 1.0], [1.0, 0.0], f, 1.0, [1.0, 2.0], cfg,
        n_steps=128)
    for row in rows:
        assert abs(row["entropy_term"]) <= 1e-8
        assert abs(row["gamma_hat"]) <= 4 * stats["grad_se"] / row["p_t_f"] + 1e-8


def test_entropy_gamma_eventually_negative(kinetic_spec):
    # entropy term > 0 for nonconstant positive f (strict Jensen), so the
    # residual turns negative once lambda dominates
    cfg = EstimatorConfig(n_paths=20000, master_seed=9, method="bismut_ito")
    f = gaussian_bump_f([1.0, 0.0], width=0.8)
    lambdas = [0.5, 2.0, 8.0, 64.0, 512.0]
    rows, _, _ = entropy_gradient_check(kinetic_spec, [1.0, 1.0], [1.0, 0.0], f,
                                        1.0, lambdas, cfg, n_steps=128)
    assert rows[0]["entropy_term"] > 0
    assert rows[-1]["gamma_hat"] < 0
    # residual identity: lambda * entropy + gamma_hat * P_T f recovers |grad|
    for r in rows:
        recon = r["lambda"] * r["entropy_term"] + r["gamma_hat"] * r["p_t_f"]
        assert recon == pytest.approx(r["lhs"], rel=1e-12)


def test_entropy_fit_stable_across_seeds(kinetic_spec):
    f = gaussian_bump_f([1.0, 0.0], width=0.9)
    fits = []
    for seed in (10, 11):
        cfg = EstimatorConfig(n_paths=40000, master_seed=seed, method="bismut_ito")
        _, a_fit, _ = entropy_gradient_check(kinetic_spec, [1.0, 1.0],
                                             [1.0, 0.0], f, 1.0,
                                             [0.5, 1.0, 2.0, 4.0], cfg,
                                             n_steps=128)
        fits.append(a_fit)
    assert abs(fits[0] - fits[1]) <= 0.2 * max(abs(f) for f in fits)


def test_entropy_rejects_nonpositive_f(kinetic_spec):
    cfg = EstimatorConfig(n_paths=100, master_seed=0, method="bismut_ito")
    with pytest.raises(MethodMisuseError):
        entropy_gradient_check(kinetic_spec, [1.0, 1.0], [1.0, 0.0],
                               linear_f([1.0, 0.0]), 1.0, [1.0], cfg)


def test_gaussian_expectation_vs_quadrature():
    mu = np.array([0.2, -0.4])
    cov = np.array([[0.6, 0.15], [0.15, 0.4]])
    center = np.array([-0.1, 0.3])
    lam = np.array([[2.0, 0.3], [0.3, 1.0]])
    # dense 2-d midpoint quadrature oracle
    xs = np.linspace(-6, 6, 801)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    diff = pts - mu
    dens = np.exp(-0.5 * np.einsum("pa,ab,pb->p", diff, np.linalg.inv(cov), diff))
    dens /= 2 * np.pi * np.sqrt(np.linalg.det(cov))
    dc = pts - center
    fval = np.exp(-0.5 * np.einsum("pa,ab,pb->p", dc, lam, dc))
    quad = np.sum(dens * fval) * (xs[1] - xs[0]) ** 2
    assert np.isclose(gaussian_expectation(mu, cov, center, lam), quad, rtol=1e-5)


def test_harnack_constant_f_zero_cost(kinetic_spec):
    # f = 1: both sides are 1 exactly in oracle mode, so fitted_c = 0
    f = gaussian_bump_f([0.0, 0.0], width=1e8)
    cfg = EstimatorConfig(n_paths=100, master_seed=0, method="bismut_ito")
    rep = harnack_check(kinetic_spec, f, [0.2, 0.1], [0.5, 0.3], [2.0], 1.0,
                        cfg, use_oracle=True)
    assert rep.fitted_c == 0.0
    assert rep.margin >= 0.0


def test_harnack_v_zero_is_jensen(kinetic_spec):
    # v = 0: lhs <= (P_T f^p)^{1/p}(x) by the power-mean inequality; the
    # bracket vanishes so only feasibility is checked and fitted_c = 0
    f = gaussian_bump_f([0.5, 0.0], width=1.0)
    cfg = EstimatorConfig(n_paths=100, master_seed=0, method="bismut_ito")
    rep = harnack_check(kinetic_spec, f, [0.2, 0.1], [0.0, 0.0], [2.0, 4.0],
                        1.0, cfg, use_oracle=True, scales=(1.0,),
                        holdout_scales=(1.0,))
    assert rep.fitted_c == 0.0
    assert rep.margin >= 0.0


def test_harnack_oracle_nontrivial_and_holdout(kinetic_spec):
    f = gaussian_bump_f([0.5, -0.2], width=0.7)
    cfg = EstimatorConfig(n_paths=100, master_seed=0, method="bismut_ito")
    rep = harnack_check(kinetic_spec, f, [0.4, 0.2], [0.8, 0.5], [2.0, 4.0],
                        0.75, cfg, use_oracle=True)
    assert rep.fitted_c > 0.0
    assert rep.margin >= 0.0  # exact values: fitted inequality holds on holdout


def test_harnack_mc_close_to_oracle(kinetic_spec):
    f = gaussian_bump_f([0.5, -0.2], width=0.7)
    cfg = EstimatorConfig(n_paths=60000, master_seed=21, method="bismut_ito")
    oracle = harnack_check(kinetic_spec, f, [0.4, 0.2], [0.8, 0.5], [2.0],
                           1.0, cfg, n_steps=192, use_oracle=True)
    mc = harnack_check(kinetic_spec, f, [0.4, 0.2], [0.8, 0.5], [2.0],
                       1.0, cfg, n_steps=192, use_oracle=False)
    assert mc.fitted_c == pytest.approx(oracle.fitted_c, rel=0.15)
    se = 4 * max(mc.extras["holdout_se_log"])
    assert mc.margin >= -4 * se


def test_gaussian_terminal_law_requires_linear(anticipative_spec):
    with pytest.raises(MethodMisuseError):
        gaussian_terminal_law(anticipative_spec, [0.0, 0.0], 1.0)


def test_gaussian_terminal_law_mean_keeps_drift_offset():
    # x1' = x2, x2' = 2 - x2 + noise: the mean solves the same ODE with the
    # offset Z(0) = (0, 2), which a bare exp(TG) x0 drops
    spec = builtin_model("integrator_chain", {"a": [[0.0]], "b0": [[1.0]],
                                              "z2_lin": [[0.0, -1.0]], "z2_off": [2.0]})
    mu, _ = gaussian_terminal_law(spec, [0.5, 0.3], 1.0)
    decay = np.exp(-1.0)
    truth = [0.5 + 2.0 + (0.3 - 2.0) * (1.0 - decay), 2.0 + (0.3 - 2.0) * decay]
    assert np.allclose(mu, truth, rtol=1e-12, atol=0.0)
