import hashlib
import pickle
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hypograd import control, estimator, flow
from hypograd.control import build_alpha, phi_parabolic, xi_case1
from hypograd.errors import ConfigurationError, MethodMisuseError, RunDegenerateError
from hypograd.estimator import (EstimatorConfig, bismut_gradient,
                                closed_form_gradient, covariance_flow,
                                default_weights, duality_gap, expectation,
                                fd_gradient, gaussian_bump_f, indicator_f,
                                linear_f, path_increments, pathwise_gradient,
                                quadratic_f, skorokhod_delta)
from hypograd.flow import TimeGrid, simulate_path, terminal_flow
from hypograd.model import ModelSpec, builtin_model
from tests.conftest import (brute_force_divergence, case1_profile, comp_major,
                            directional_jacobian, path_major,
                            pinv_stack_lapack, reference_build_alpha,
                            reference_build_bridge, reference_hypothesis_checks,
                            reference_skorokhod_trace, reference_terminal_flow,
                            same_bytes, states_cm, wide_values)

KOU_TRUE_V1 = 0.6597001533917016   # (exp M)_11 for M = [[0,1],[-1,-1]]
KOU_TRUE_V2 = 0.5335071951146929   # (exp M)_12


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def test_discrete_divergence_convention_single_step():
    # hdot_1 = dW_1 gives delta = dW^2 - dt; the finite-dimensional Gaussian
    # duality then fixes E[delta] = 0, E[dW delta] = 0, E[dW^2 delta] = 2 dt^2
    dt = 0.25
    rng = np.random.default_rng(2)
    w = rng.standard_normal(400_000) * np.sqrt(dt)
    delta = w**2 - dt
    for f_vals, truth in ((np.ones_like(w), 0.0), (w, 0.0), (w**2, 2 * dt**2)):
        prod = f_vals * delta
        se = np.std(prod, ddof=1) / np.sqrt(w.size)
        assert abs(np.mean(prod) - truth) <= 4 * se


def test_skorokhod_equals_ito_for_adapted_chain():
    # constant jac_z1 forced through the anticipative machinery: every
    # sensitivity tensor vanishes, so the trace term is exactly zero
    base = builtin_model("kinetic_ou", {"m": 1})
    forced = ModelSpec(m=1, d=1, z=base.z, dz=base.dz, sigma=base.sigma,
                       b0=base.b0, epsilon=0.0, hess_z1=base.hess_z1,
                       constant_jac_z1=False)
    grid = TimeGrid(1.0, 32)
    inc = path_increments(grid, 1, 7, 0, 16)
    prof = case1_profile(base, 1.0)
    x0, v = np.array([1.0, 1.0]), np.array([0.8, -0.6])
    corr = estimator._bridge_chain(forced, simulate_path(forced, x0, grid, inc),
                                   grid, v, prof)[-1]
    d_forced = skorokhod_delta(forced, x0, grid, inc, v, prof)
    d_fast = skorokhod_delta(base, x0, grid, inc, v, prof)
    assert np.max(np.abs(corr)) <= 1e-8
    assert np.max(np.abs(d_forced - d_fast)) <= 1e-8


@pytest.mark.parametrize("v", [np.array([0.7, -0.4]),
                               np.array([1.0, 0.0]),
                               np.array([0.0, 1.0])])
def test_skorokhod_trace_matches_brute_force(anticipative_spec, v):
    spec = anticipative_spec
    grid = TimeGrid(0.5, 12)
    prof = case1_profile(spec, 0.5, c_bound=3.0)
    rng = np.random.default_rng(3)
    x0 = np.array([0.3, -0.2])
    for _ in range(3):
        w = (rng.standard_normal((12, 1)) * np.sqrt(grid.dt))[None]
        oracle = brute_force_divergence(spec, x0, grid, w, v, prof)
        fast = skorokhod_delta(spec, x0, grid, w, v, prof)[0]
        assert abs(oracle - fast) <= 1e-7 * max(1.0, abs(oracle))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pinv_stack_matches_pinv_when_well_conditioned(n):
    rng = np.random.default_rng(n)
    mats = rng.standard_normal((40, 3, n, n)) + 2.0 * n * np.eye(n)
    inv, flagged = control._pinv_stack(comp_major(mats))
    ref = np.linalg.pinv(mats, rcond=1e-13)
    assert not flagged.any()
    assert np.max(np.abs(path_major(inv) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_pinv_stack_falls_back_per_member():
    # each unusable member is flagged with a NaN inverse on its own; the
    # others keep the closed form
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((8, 2, 2)) + 3.0 * np.eye(2)
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    mats[1] = [[1.0, 2.0], [2.0, 4.0]]                       # exactly singular
    mats[4] = rot @ np.diag([1.0, 3e-14]) @ rot.T            # cond > 1e13
    mats[6, 0, 1] = np.nan
    inv, flagged = control._pinv_stack(comp_major(mats))
    got = path_major(inv, 2)
    assert np.nonzero(flagged)[0].tolist() == [1, 4, 6]
    assert np.all(np.isnan(got[[1, 4, 6]]))
    for i in (0, 2, 3, 5, 7):
        assert_close_to_exact_inverse(mats[i], got[i])


def _exact_inverse_2x2(mat):
    """Inverse of a 2x2 float matrix in exact rational arithmetic."""
    (a, b), (c, d) = [[Fraction(float(x)) for x in row] for row in mat]
    det = a * d - b * c
    return [[d / det, -b / det], [-c / det, a / det]]


def assert_close_to_exact_inverse(mat, got):
    """Every entry of ``got`` within 4 (1 + cond_1) ulp of the exact inverse.

    The adjugate is exact and ad - bc is rounded three times, with error at
    most eps (|ad| + |bc|) + eps |det| <= eps (2 cond_2 + 1) |det|, cond_2 <=
    2 cond_1; the final division adds one more rounding.  So each entry is
    off by at most about (4 cond_1 + 2) eps relative to itself.
    """
    exact = _exact_inverse_2x2(mat)
    cond1 = float(np.abs(mat).sum(axis=0).max()
                  * np.abs(np.array(exact, dtype=float)).sum(axis=0).max())
    tol = Fraction(4.0 * (1.0 + cond1) * np.finfo(float).eps)
    for r in range(2):
        for c in range(2):
            assert abs(Fraction(float(got[r, c])) - exact[r][c]) <= tol * abs(exact[r][c])


def test_pinv_stack_singular_member_does_not_reroute_stack():
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((16, 32, 1, 1))
    mats[3, 7] = 0.0
    inv, flagged = control._pinv_stack(comp_major(mats))
    got, flagged = path_major(inv), path_major(flagged, 0)
    assert np.argwhere(flagged).tolist() == [[3, 7]]
    assert np.isnan(got[3, 7, 0, 0])
    np.testing.assert_array_equal(got[~flagged], 1.0 / mats[~flagged])


@pytest.mark.parametrize("special,kind", [
    ([[1.0, 2.0], [2.0, 4.0]], "zero"),              # exactly singular
    ([[1e-200, 0.0], [0.0, 1e-200]], "zero"),        # det underflows
    ([[1.0 + 2.0**-30, 1.0 + 2.0**-29], [1.0, 1.0 + 2.0**-30]], "zero"),  # cancels
    ([[1e200, 0.0], [0.0, 1e200]], "inf"),           # det overflows
    ([[1e200, 1e200], [1e200, 2e200]], "nan"),       # inf - inf
], ids=["singular", "underflow", "cancels", "overflow", "nan"])
def test_pinv_stack_2x2_unusable_determinant_routed_per_member(special, kind):
    # a member whose computed ad - bc is 0 or non-finite is flagged on its
    # own, well conditioned or not, with a NaN inverse; the others keep the
    # closed form, and nothing raises or warns
    mats = np.random.default_rng(9).standard_normal((6, 2, 2)) + 3.0 * np.eye(2)
    mats[2] = special
    (a, b), (c, d) = mats[2]
    with np.errstate(over="ignore", invalid="ignore"):
        det = a * d - b * c
    assert {"zero": det == 0.0, "inf": np.isinf(det), "nan": np.isnan(det)}[kind]
    inv, flagged = control._pinv_stack(comp_major(mats))
    got = np.ascontiguousarray(path_major(inv))
    assert np.nonzero(flagged)[0].tolist() == [2]
    assert np.all(np.isnan(got[2]))
    rest = [0, 1, 3, 4, 5]
    closed = control._inv(comp_major(mats[rest]))[0]
    assert same_bytes(got[rest], np.ascontiguousarray(path_major(closed)))


def test_pinv_stack_1x1_matches_lapack_bitwise():
    mats = wide_values(200_000, 21).reshape(400, 500, 1, 1)
    inv, flagged = control._pinv_stack(comp_major(mats))
    got, flagged = path_major(inv), path_major(flagged, 0)
    with np.errstate(all="ignore"):
        lapack = np.linalg.inv(mats)
        kept = np.abs(mats * lapack)[..., 0, 0] < 1e13
    assert 0 < np.count_nonzero(flagged)                # reciprocals that overflow
    assert same_bytes(flagged, ~kept)
    assert same_bytes(got[kept], lapack[kept]) and np.isnan(got[~kept]).all()
    ref_inv, ref_flagged = pinv_stack_lapack(mats)
    assert same_bytes(got, ref_inv) and same_bytes(flagged, ref_flagged)


@pytest.mark.parametrize("special", [0.0, -0.0, np.inf, -np.inf, np.nan])
def test_pinv_stack_1x1_special_members_match_lapack_path(special):
    small = np.array([2.0, special, -4.0]).reshape(3, 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # LAPACK meets a zero pivot silently
        inv, flagged = control._pinv_stack(comp_major(small))
        ref_inv, ref_flagged = pinv_stack_lapack(small)
        assert same_bytes(path_major(inv), ref_inv) and same_bytes(flagged, ref_flagged)
    assert flagged.tolist() == [False, True, False]
    mats = wide_values(20_000, 22).reshape(40, 500, 1, 1)
    mats.reshape(-1)[::997] = special
    inv, flagged = control._pinv_stack(comp_major(mats))
    ref_inv, ref_flagged = pinv_stack_lapack(mats)
    assert same_bytes(path_major(inv), ref_inv)
    assert same_bytes(path_major(flagged, 0), ref_flagged)


def test_skorokhod_trace_with_v1_zero_reads_no_nu(anticipative_spec):
    # with v1 = 0 the ratio term is absent and nu, 0 on a 2-step grid, is never divided by
    spec, x0, v = anticipative_spec, np.array([0.3, -0.2]), np.array([0.0, 1.0])
    grid = TimeGrid(0.5, 2)
    prof = case1_profile(spec, 0.5, c_bound=3.0)
    w = (np.random.default_rng(2).standard_normal((2, 1)) * np.sqrt(grid.dt))[None]
    oracle = brute_force_divergence(spec, x0, grid, w, v, prof)
    assert abs(skorokhod_delta(spec, x0, grid, w, v, prof)[0] - oracle) <= 1e-6


def _chain_outputs(spec):
    """skorokhod_delta, bismut_gradient (pairing off/on) and duality_gap."""
    x0, v = [0.3, -0.2], [0.7, -0.4]
    grid = TimeGrid(0.5, 16)
    weights = default_weights(spec, grid, c_bound=3.0)
    inc = path_increments(grid, spec.d, 3, 0, 40)
    out = [skorokhod_delta(spec, x0, grid, inc, v, weights)]
    for antithetic in (False, True):
        cfg = EstimatorConfig(n_paths=120, master_seed=5, method="bismut_skorokhod",
                              chunk_size=50, antithetic=antithetic)
        out.append(bismut_gradient(spec, x0, v, gaussian_bump_f([0.2, 0.0], 0.8),
                                   grid, cfg, weights=weights))
    cfg = EstimatorConfig(n_paths=120, master_seed=6, method="bismut_skorokhod",
                          chunk_size=50)
    out.append(duality_gap(spec, x0, v, quadratic_f(np.eye(2)), grid, cfg,
                           weights=weights))
    return pickle.dumps(out)


@pytest.mark.parametrize("which", ["mass", "custom"])
def test_chain_bitwise_with_lapack_inverses_and_solves(which, anticipative_spec,
                                                       monkeypatch):
    # every inverse of the chain, Q's in build_alpha and K's in the trace,
    # through LAPACK: the same bits at m = 1
    spec = anticipative_spec if which == "mass" else _estimate_custom_spec()
    assert spec.m == 1
    fast = _chain_outputs(spec)
    calls = []

    def pinv(mats):
        calls.append(mats.shape)
        inv, flagged = pinv_stack_lapack(path_major(mats))
        return np.ascontiguousarray(comp_major(inv)), comp_major(flagged, 0)

    monkeypatch.setattr(control, "_pinv_stack", pinv)
    monkeypatch.setattr(estimator, "_pinv_stack", pinv)
    assert _chain_outputs(spec) == fast
    assert len(calls) > 0


def test_skorokhod_trace_singular_k_member_poisons_its_path_alone(anticipative_spec):
    # a flagged K member has a NaN inverse, so its path's trace is NaN (and
    # the driver's finite mask rejects it); the other paths keep their bits
    spec, x0, v = anticipative_spec, [0.3, -0.2], np.array([0.7, -0.4])
    grid = TimeGrid(0.5, 16)
    weights = default_weights(spec, grid, c_bound=3.0)
    states, _, _ = estimator._simulate(spec, np.asarray(x0), grid,
                                       path_increments(grid, spec.d, 3, 0, 8))
    jac, ad, _, _, _, trace = estimator._bridge_chain(spec, states, grid, v, weights)
    k = terminal_flow(spec, jac, grid)
    k[:, :, 5, 3] = 0.0
    bad = estimator._skorokhod_trace(spec, states.T, grid, v, weights, ad, k, jac)
    keep = np.arange(8) != 3
    assert np.isnan(bad[3]) and np.isfinite(trace).all()
    assert same_bytes(bad[keep], trace[keep])


def test_skorokhod_trace_needs_hess_z1(anticipative_spec):
    import dataclasses
    spec = dataclasses.replace(anticipative_spec, hess_z1=None)
    grid = TimeGrid(0.5, 8)
    inc = path_increments(grid, 1, 3, 0, 4)
    with pytest.raises(MethodMisuseError, match="hess_z1"):
        skorokhod_delta(spec, [0.3, -0.2], grid, inc, [0.7, -0.4],
                        case1_profile(spec, 0.5, c_bound=3.0))


def test_chain_tolerates_jacobian_overflow_at_finite_terminal_node(anticipative_spec):
    # a last increment of 1e160 leaves the path finite, but dZ2/dx1 = -V'' -
    # 0.2 y^2 overflows at its terminal node, which no bridge quantity reads:
    # the Jacobian is evaluated silently and the other paths are unaffected
    spec = anticipative_spec
    grid = TimeGrid(0.5, 12)
    inc = path_increments(grid, 1, 3, 0, 4)
    inc[1, -1, 0] = 1e160
    prof = case1_profile(spec, 0.5, c_bound=3.0)
    delta = skorokhod_delta(spec, [0.3, -0.2], grid, inc, [0.7, -0.4], prof)
    assert np.isfinite(delta).all()
    rest = skorokhod_delta(spec, [0.3, -0.2], grid, inc[[0, 2, 3]], [0.7, -0.4], prof)
    assert same_bytes(delta[[0, 2, 3]], rest)


def test_bismut_ito_rejects_anticipative_model(anticipative_spec):
    cfg = EstimatorConfig(n_paths=10, master_seed=0, method="bismut_ito")
    with pytest.raises(MethodMisuseError):
        bismut_gradient(anticipative_spec, [0.3, -0.2], [1.0, 0.0],
                        linear_f([1.0, 0.0]), TimeGrid(0.5, 8), cfg)


# ---------------------------------------------------------------------------
# bismut estimator
# ---------------------------------------------------------------------------

def test_constant_f_gives_statistical_zero(kinetic_spec):
    grid = TimeGrid(1.0, 64)
    cfg = EstimatorConfig(n_paths=20000, master_seed=5, method="bismut_ito")
    est = bismut_gradient(kinetic_spec, [1.0, 1.0], [1.0, 0.0],
                          linear_f([0.0, 0.0], b=3.0), grid, cfg)
    assert abs(est.value) <= 4 * est.std_error + 1e-12
    assert abs(est.delta_mean) <= 4 * est.delta_se


def test_kinetic_gradient_matches_closed_form(kinetic_spec):
    grid = TimeGrid(1.0, 512)
    f = linear_f([1.0, 0.0])
    for v, truth in ((np.array([1.0, 0.0]), KOU_TRUE_V1),
                     (np.array([0.0, 1.0]), KOU_TRUE_V2)):
        cfg = EstimatorConfig(n_paths=20000, master_seed=42, method="bismut_ito")
        est = bismut_gradient(kinetic_spec, [1.0, 1.0], v, f, grid, cfg)
        assert abs(est.value - truth) <= 4 * est.std_error
        assert closed_form_gradient(kinetic_spec, [1.0, 1.0], v, f, 1.0) == \
            pytest.approx(truth, abs=1e-9)


def test_weight_mean_zero_and_statistics(kinetic_spec):
    grid = TimeGrid(1.0, 128)
    cfg = EstimatorConfig(n_paths=30000, master_seed=9, method="bismut_ito")
    est = bismut_gradient(kinetic_spec, [1.0, 1.0], [1.0, 0.0],
                          linear_f([1.0, 0.0]), grid, cfg)
    assert abs(est.delta_mean) <= 4 * est.delta_se
    assert est.weight_l2 > 0
    assert est.kurtosis > 0
    assert isinstance(est.moment_flagged, bool)
    assert est.n_effective + est.rejected == cfg.n_paths
    assert est.value_cv is not None and est.std_error_cv <= est.std_error


def test_antithetic_runs_and_skips_cv(kinetic_spec):
    grid = TimeGrid(1.0, 64)
    cfg = EstimatorConfig(n_paths=4000, master_seed=3, method="bismut_ito",
                          antithetic=True)
    est = bismut_gradient(kinetic_spec, [1.0, 1.0], [1.0, 0.0],
                          linear_f([1.0, 0.0]), grid, cfg)
    assert est.value_cv is None
    truth = 0.66
    assert abs(est.value - truth) <= 6 * est.std_error + 0.05


def test_antithetic_se_matches_seed_spread(kinetic_spec, anticipative_spec):
    # paired paths are not independent: the reported standard error must
    # match the spread of the estimate across seeds with pairing on or off,
    # and std_error_cv the spread of value_cv (reported without pairing);
    # the mass model pins the anticipative weight's standard errors.  A
    # spread over n seeds has a relative sampling error of about
    # 1/sqrt(2(n-1)): 16 % at 20 seeds, too close to the 25 % band
    grid = TimeGrid(1.0, 32)
    bismut_cases = [
        (kinetic_spec, "bismut_ito", [1.0, 1.0], [1.0, 0.0], linear_f([1.0, 0.0]),
         grid, 400, 1000, None),
        (anticipative_spec, "bismut_skorokhod", [0.3, -0.2], [0.7, -0.4],
         gaussian_bump_f([0.2, 0.0], 0.8), TimeGrid(0.5, 16), 40, 500, 3.0)]
    for spec, method, x0, v, f, case_grid, n_seeds, n_paths, c_bound in bismut_cases:
        for antithetic in (False, True):
            ests = [bismut_gradient(spec, x0, v, f, case_grid, EstimatorConfig(
                        n_paths=n_paths, master_seed=seed, method=method,
                        antithetic=antithetic, c_bound=c_bound))
                    for seed in range(n_seeds)]
            pairs = [("value", "std_error")]
            if not antithetic:                     # value_cv is not reported then
                pairs.append(("value_cv", "std_error_cv"))
            for val_key, se_key in pairs:
                spread = np.std([getattr(e, val_key) for e in ests], ddof=1)
                ses = np.mean([getattr(e, se_key) for e in ests])
                assert abs(ses - spread) <= 0.25 * spread, (method, antithetic, val_key)

    # the other drivers, with a smooth nonlinear f: for a linear f on this
    # affine model the antithetic pair means are exact constants.  Treating
    # pairs as independent overstated the standard error 4-8 times here.
    def grad(x):
        g = np.zeros(np.shape(x))
        g[..., 0] = 0.5 * np.cos(0.5 * x[..., 0])
        return g

    g = estimator.TestFunction(f=lambda x: np.sin(0.5 * np.asarray(x)[..., 0]),
                               grad_f=grad)
    drivers = {
        "expectation": lambda cfg: expectation(kinetic_spec, [1.0, 1.0], g, grid, cfg),
        "pathwise": lambda cfg: pathwise_gradient(kinetic_spec, [1.0, 1.0],
                                                  [1.0, 0.0], g, grid, cfg),
        "finite_difference": lambda cfg: fd_gradient(kinetic_spec, [1.0, 1.0],
                                                     [1.0, 0.0], g, grid, cfg),
    }
    for name, run in drivers.items():
        for antithetic in (False, True):
            vals, ses = [], []
            for seed in range(60):
                cfg = EstimatorConfig(n_paths=1000, master_seed=seed,
                                      method="pathwise", antithetic=antithetic)
                out = run(cfg)
                value, se = out if name == "expectation" else (out.value,
                                                               out.std_error)
                vals.append(value)
                ses.append(se)
            spread = np.std(vals, ddof=1)
            assert abs(np.mean(ses) - spread) <= 0.25 * spread, (name, antithetic)


def test_antithetic_delta_stats_over_pairs(kinetic_spec):
    # affine model: hdot is path-independent, so the paired weights cancel
    # exactly and delta_se is 0; per-path moments are unchanged by pairing
    grid = TimeGrid(1.0, 32)
    f = linear_f([1.0, 0.0])
    runs = {}
    for antithetic in (False, True):
        cfg = EstimatorConfig(n_paths=1000, master_seed=4, method="bismut_ito",
                              antithetic=antithetic)
        runs[antithetic] = bismut_gradient(kinetic_spec, [1.0, 1.0], [1.0, 0.0],
                                           f, grid, cfg)
    est = runs[True]
    assert est.delta_mean == 0.0 and est.delta_se == 0.0
    assert est.weight_l2 > 0 and est.kurtosis > 0
    assert runs[False].delta_se > 0


def test_antithetic_summary_groups_pairs():
    n = 2001                                  # odd: the last path has no partner
    rng = np.random.default_rng(6)
    fvals = rng.standard_normal(n)
    delta = rng.standard_normal(n)
    ok = np.ones(n, dtype=bool)
    ok[10] = False                            # path 11 loses its partner
    cfg = EstimatorConfig(n_paths=n, antithetic=True)
    est = estimator._summarize(fvals, delta, ok, "bismut_ito", cfg, {})
    units = []
    for r in range(0, n, 2):
        members = [i for i in (r, r + 1) if i < n and ok[i]]
        units.append(np.mean([fvals[i] * delta[i] for i in members]))
    assert len(units) == 1001
    assert est.value == pytest.approx(np.mean(units), rel=1e-12)
    assert est.std_error == pytest.approx(
        np.std(units, ddof=1) / np.sqrt(len(units)), rel=1e-12)
    assert est.n_effective == n - 1 and est.rejected == 1
    d_units = [np.mean([delta[i] for i in (r, r + 1) if i < n and ok[i]])
               for r in range(0, n, 2)]
    assert est.delta_mean == pytest.approx(np.mean(d_units), rel=1e-12)
    assert est.delta_se == pytest.approx(
        np.std(d_units, ddof=1) / np.sqrt(len(d_units)), rel=1e-12)
    assert est.weight_l2 == pytest.approx(np.sqrt(np.mean(delta[ok] ** 2)),
                                          rel=1e-12)


def test_reproducibility_bitwise(kinetic_spec):
    grid = TimeGrid(1.0, 64)
    f = linear_f([1.0, 0.0])
    runs = []
    for threads in (1, 1, 4):
        cfg = EstimatorConfig(n_paths=8000, master_seed=77, method="bismut_ito",
                              n_threads=threads)
        runs.append(bismut_gradient(kinetic_spec, [1.0, 1.0], [1.0, 0.0], f,
                                    grid, cfg))
    assert runs[0].value == runs[1].value == runs[2].value
    assert runs[0].std_error == runs[2].std_error
    assert runs[0].weight_l2 == runs[2].weight_l2


def test_skorokhod_reproducible_across_chunks_and_threads(anticipative_spec):
    grid = TimeGrid(0.5, 16)
    f = gaussian_bump_f([0.2, 0.0], 0.8)
    runs = []
    for chunk, threads in ((None, 1), (70, 1), (25, 2), (70, 2)):
        cfg = EstimatorConfig(n_paths=200, master_seed=9,
                              method="bismut_skorokhod", c_bound=3.0,
                              chunk_size=chunk, n_threads=threads)
        runs.append(bismut_gradient(anticipative_spec, [0.3, -0.2], [0.7, -0.4],
                                    f, grid, cfg))
    for est in runs[1:]:
        assert est.value == runs[0].value
        assert est.std_error == runs[0].std_error
        assert est.delta_mean == runs[0].delta_mean
        for key in ("q_bound_ratio", "c_bound_realized", "c_bound_exceeded"):
            assert est.diagnostics[key] == runs[0].diagnostics[key], key


def test_hypothesis_diagnostics_cover_every_accepted_path(anticipative_spec):
    spec = anticipative_spec
    grid = TimeGrid(0.5, 16)
    x0, v = np.array([0.3, -0.2]), np.array([0.7, -0.4])
    cfg = EstimatorConfig(n_paths=200, master_seed=9, method="bismut_skorokhod",
                          c_bound=3.0, chunk_size=1)
    est = bismut_gradient(spec, x0, v, gaussian_bump_f([0.2, 0.0], 0.8), grid, cfg)
    weights = default_weights(spec, grid, c_bound=3.0)
    states, _, good = estimator._simulate(spec, x0, grid,
                                          path_increments(grid, 1, 9, 0, 200))
    jac, ad, *_ = estimator._bridge_chain(spec, states, grid, v, weights)
    good &= ~ad.degenerate
    assert good.all()
    active = ad.xi_vals > 0
    q_path, jac = path_major(ad.q_path), path_major(jac)
    smin = np.linalg.svd(q_path[good][:, active], compute_uv=False)[..., -1]
    q_ref = np.max((1.0 - spec.epsilon) * ad.xi_vals[active] / smin)
    c_path = np.max(np.linalg.norm(jac[good][..., :1, :1], ord=2, axis=(-2, -1)), axis=1)
    c_ref = np.max(c_path)
    assert np.argmax(c_path) > 0    # one-path chunks: not all from chunk 0
    assert est.diagnostics["q_bound_ratio"] == q_ref
    assert est.diagnostics["c_bound_realized"] == c_ref
    assert est.diagnostics["c_bound_exceeded"] is False
    low = bismut_gradient(spec, x0, v, gaussian_bump_f([0.2, 0.0], 0.8), grid,
                          EstimatorConfig(n_paths=200, master_seed=9,
                                          method="bismut_skorokhod", c_bound=0.1))
    assert low.diagnostics["c_bound_realized"] == c_ref
    assert low.diagnostics["c_bound_exceeded"] is True


def test_q_inverse_bound_ratio_1x1_matches_svd():
    # LAPACK's 1x1 singular value is |q| bit for bit while |q| lies inside
    # its unscaled range (about 1e-138 to 1e138); beyond it LAPACK rescales
    # and may round by an ulp, while |q| stays exact
    rng = np.random.default_rng(4)
    q = rng.standard_normal((50, 9, 1, 1)) * 10.0 ** rng.uniform(-130, 130, (50, 9, 1, 1))
    xi = np.linspace(0.0, 2.0, 9)
    smin = np.linalg.svd(q[:, 1:], compute_uv=False)[..., -1]
    ref = np.max((1.0 - 0.3) * xi[1:] / smin)
    q = comp_major(q)                                  # (m, m, N+1, P)
    assert control.q_inverse_bound_ratio(q, xi, 0.3) == ref
    assert control.q_inverse_bound_ratio(-np.abs(q), xi, 0.3) == ref
    assert control.q_inverse_bound_ratio(q[..., :0], xi, 0.3) == 0.0


def test_norm2_max_of_blocks():
    rng = np.random.default_rng(5)
    blocks = rng.standard_normal((6, 4, 2, 2))
    cm = comp_major(blocks)                            # (m, m, N+1, P)
    ref = np.max(np.linalg.norm(blocks, ord=2, axis=(-2, -1)))
    assert estimator._norm2_max(cm) == ref
    assert estimator._norm2_max(cm[:1, :1]) == np.max(np.abs(blocks[..., 0, 0]))
    assert estimator._norm2_max(cm[..., :0]) == 0.0
    keep = np.array([True, False, True, False, False, False])
    assert estimator._norm2_max(cm, keep) == np.max(
        np.linalg.norm(blocks[keep], ord=2, axis=(-2, -1)))
    assert estimator._norm2_max(cm, np.zeros(6, dtype=bool)) == 0.0
    for m in (1, 2):
        bad = cm[:m, :m].copy()
        bad[0, 0, 2, 1] = np.nan
        assert estimator._norm2_max(bad) == np.inf


def _path_increments_per_block(grid, d, master_seed, start, count, antithetic):
    # reference: for every 64-path block b the range touches, a freshly built
    # Philox keyer at (master_seed, 0) with counter b gives three seed words,
    # and a freshly built SFC64 is set to (w0, w1, w2, 1) and discards 12
    # outputs, as numpy's own SFC64 seeding does; the blocks are drawn whole,
    # concatenated and sliced
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    blocks = []
    for b in range(start // 64, (start + count - 1) // 64 + 1):
        words = np.random.Philox(key=key, counter=b).random_raw(4)[:3]
        bg = np.random.SFC64()
        bg.state = {"bit_generator": "SFC64", "state": {"state": [*map(int, words), 1]},
                    "has_uint32": 0, "uinteger": 0}
        bg.random_raw(12)
        gen = np.random.Generator(bg)
        if antithetic:
            z = gen.standard_normal((32, grid.n_steps, d))
            blocks.append(np.stack([z, -z], axis=1).reshape(64, grid.n_steps, d))
        else:
            blocks.append(gen.standard_normal((64, grid.n_steps, d)))
    rows = np.concatenate(blocks)[start % 64:start % 64 + count]
    return rows * np.sqrt(grid.dt)


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("d", [1, 2])
# keys at and above 2^63 included: the probe keys by seed ^ 0x9E3779B97F4A7C15
@pytest.mark.parametrize("master_seed", [0, 77, -5, 2**63, 5 ^ 0x9E3779B97F4A7C15])
# the last three cross a block boundary
@pytest.mark.parametrize("start,count", [(0, 6), (3, 5), (7, 1), (10, 2),
                                         (60, 10), (63, 2), (0, 130)])
def test_path_increments_match_per_path_generators(antithetic, d, master_seed,
                                                   start, count):
    grid = TimeGrid(0.7, 9)
    got = path_increments(grid, d, master_seed, start, count, antithetic)
    ref = _path_increments_per_block(grid, d, master_seed, start, count, antithetic)
    assert got.shape == (count, 9, d)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("antithetic", [False, True])
def test_path_increments_split_anywhere(antithetic):
    # a range drawn in pieces split off the block boundaries gives the
    # bytes of one call
    grid = TimeGrid(0.7, 9)
    whole = path_increments(grid, 2, 11, 5, 200, antithetic)
    for cuts in ((70,), (33, 103), (33, 70, 136), (64, 128)):
        edges = (5, *(5 + c for c in cuts), 205)
        parts = [path_increments(grid, 2, 11, lo, hi - lo, antithetic)
                 for lo, hi in zip(edges, edges[1:])]
        assert np.concatenate(parts).tobytes() == whole.tobytes(), cuts


@pytest.mark.parametrize("antithetic,digest", [
    (False, "f22d61e213880e5cb82eb813f9f90cc0e8e6b0926505dc9c4f3cc5eaae5d32c5"),
    (True, "7a6f52919e5d9e2825fcb6bff0271ef44d528d79d40f4998e9e85ba957d44c9f"),
])
def test_path_increments_stream_pinned(antithetic, digest):
    # every Monte Carlo result is drawn from this stream: a change to it is a
    # rebaseline, and must be declared by updating these digests
    inc = path_increments(TimeGrid(1.0, 8), 2, 1, 0, 130, antithetic)
    assert hashlib.sha256(inc.tobytes()).hexdigest() == digest


def test_path_increments_stream_statistics():
    # dt = 1, so the increments are standard normals: 2048 paths x 512 steps
    grid = TimeGrid(512.0, 512)
    z = path_increments(grid, 1, 3, 0, 2048).reshape(32, -1)   # one row per block
    n, per_block = z.size, z.shape[1]
    bound = 4 / np.sqrt(per_block)
    adjacent = [np.corrcoef(z[b], z[b + 1])[0, 1] for b in range(31)]
    assert max(map(abs, adjacent)) < bound
    # block 0 of neighbouring seeds
    first = [path_increments(grid, 1, s, 0, 64).ravel() for s in range(3, 11)]
    assert first[0].tobytes() == z[0].tobytes()
    neighbours = [np.corrcoef(u, w)[0, 1] for u, w in zip(first, first[1:])]
    assert max(map(abs, neighbours)) < bound
    assert abs(z.mean()) < 4 * np.sqrt(1 / n)
    assert abs(np.mean(z**2) - 1) < 4 * np.sqrt(2 / n)      # Var z^2 = 2
    assert abs(np.mean(z**4) - 3) < 4 * np.sqrt(96 / n)     # Var z^4 = 105 - 9


@pytest.mark.parametrize("antithetic", [False, True])
def test_path_increments_draw_only_rows_returned(monkeypatch, antithetic):
    # the first block of a call is drawn from its first row, the last only up
    # to the last row (antithetic: pair) the call returns; no block's bit
    # generator is seeded through a SeedSequence, which reads OS entropy
    drawn = []

    def counting(bg, _generator=np.random.Generator):
        assert type(bg) is np.random.SFC64 and type(bg.seed_seq) is estimator._Words
        gen = _generator(bg)

        def standard_normal(out):
            drawn.append(out.shape[0])
            return gen.standard_normal(out=out)
        return SimpleNamespace(standard_normal=standard_normal)

    grid = TimeGrid(0.7, 9)
    ref = {(s, c): path_increments(grid, 2, 11, s, c, antithetic)
           for s, c in ((70, 70), (0, 32), (5, 1), (64, 64), (3, 126))}
    monkeypatch.setattr(estimator, "Generator", counting)
    # rows drawn per block, plain and paired
    expected = {(70, 70): ([64, 12], [32, 6]), (0, 32): ([32], [16]),
                (5, 1): ([6], [3]), (64, 64): ([64], [32]),
                (3, 126): ([64, 64, 1], [32, 32, 1])}
    for (start, count), rows in expected.items():
        drawn.clear()
        inc = path_increments(grid, 2, 11, start, count, antithetic)
        assert drawn == rows[antithetic]
        assert inc.tobytes() == ref[start, count].tobytes()


def test_seed_changes_estimate_but_not_structure(kinetic_spec):
    grid = TimeGrid(1.0, 64)
    f = linear_f([1.0, 0.0])
    ests = []
    for seed in (1, 2):
        cfg = EstimatorConfig(n_paths=20000, master_seed=seed, method="bismut_ito")
        ests.append(bismut_gradient(kinetic_spec, [1.0, 1.0], [1.0, 0.0], f,
                                    grid, cfg))
    comb = np.hypot(ests[0].std_error, ests[1].std_error)
    assert ests[0].value != ests[1].value
    assert abs(ests[0].value - ests[1].value) <= 8 * comb


# ---------------------------------------------------------------------------
# pathwise / finite differences / closed form
# ---------------------------------------------------------------------------

def test_pathwise_linear_model_zero_variance(chain_spec):
    grid = TimeGrid(1.0, 256)
    a = np.array([1.0, -0.5, 0.25])
    v = np.array([0.3, 0.2, -0.4])
    cfg = EstimatorConfig(n_paths=500, master_seed=0, method="pathwise")
    est = pathwise_gradient(chain_spec, np.zeros(3), v, linear_f(a), grid, cfg)
    step = np.eye(3) + grid.dt * chain_spec.drift_matrix
    truth = a @ (np.linalg.matrix_power(step, 256) @ v)
    assert est.std_error <= 1e-14
    assert est.value == pytest.approx(truth, rel=1e-12)


_GRID8 = TimeGrid(1.0, 8)
_DRIVERS = {
    "bismut_gradient": lambda spec, x0, v, f: bismut_gradient(
        spec, x0, v, f, _GRID8, EstimatorConfig(n_paths=10, method="bismut_ito")),
    "pathwise_gradient": lambda spec, x0, v, f: pathwise_gradient(
        spec, x0, v, f, _GRID8, EstimatorConfig(n_paths=10, method="pathwise")),
    "fd_gradient": lambda spec, x0, v, f: fd_gradient(
        spec, x0, v, f, _GRID8, EstimatorConfig(n_paths=10, method="finite_difference")),
    "expectation": lambda spec, x0, v, f: expectation(
        spec, x0, f, _GRID8, EstimatorConfig(n_paths=10)),
    "closed_form_gradient": lambda spec, x0, v, f: closed_form_gradient(spec, x0, v, f, 1.0),
    "duality_gap": lambda spec, x0, v, f: duality_gap(
        spec, x0, v, f, _GRID8, EstimatorConfig(n_paths=10, method="bismut_skorokhod")),
}


@pytest.mark.parametrize("driver", sorted(_DRIVERS))
def test_every_driver_checks_the_dimension_of_x0_and_v(kinetic_spec, driver):
    # a short v once ran as if broadcast, or gave 0.0 or a raw matmul error
    run = _DRIVERS[driver]
    f = linear_f([1.0, 0.5])
    for bad in ([1.0], [1.0, 0.0, 0.0]):
        with pytest.raises(ConfigurationError,
                           match=f"x0 must have dimension 2, got {len(bad)}"):
            run(kinetic_spec, bad, [1.0, 0.0], f)
        if driver != "expectation":                 # P_T f(x0) takes no direction
            with pytest.raises(ConfigurationError,
                               match=f"v must have dimension 2, got {len(bad)}"):
                run(kinetic_spec, [1.0, 1.0], bad, f)
    run(kinetic_spec, [1.0, 1.0], [1.0, 0.0], f)           # the right sizes run


def test_pathwise_constant_f_exactly_zero(kinetic_spec):
    grid = TimeGrid(1.0, 32)
    cfg = EstimatorConfig(n_paths=100, master_seed=1, method="pathwise")
    est = pathwise_gradient(kinetic_spec, [1.0, 1.0], [1.0, 0.0],
                            linear_f([0.0, 0.0], b=1.0), grid, cfg)
    assert est.value == 0.0 and est.std_error == 0.0


def test_pathwise_needs_gradient(kinetic_spec, hamiltonian_spec):
    cfg = EstimatorConfig(n_paths=10, master_seed=0, method="pathwise")
    with pytest.raises(MethodMisuseError):
        pathwise_gradient(kinetic_spec, [1.0, 1.0], [1.0, 0.0],
                          indicator_f(0, 0.0), TimeGrid(1.0, 8), cfg)
    # a direction of the wrong length is a config error, affine model or not
    for spec in (kinetic_spec, hamiltonian_spec):
        with pytest.raises(ConfigurationError, match="v must have dimension 2"):
            pathwise_gradient(spec, [1.0, 1.0], [1.0, 0.0, 0.0],
                              linear_f([1.0, 0.0]), TimeGrid(1.0, 8), cfg)


def test_fd_exact_for_linear_model_and_f(chain_spec):
    grid = TimeGrid(1.0, 128)
    a = np.array([1.0, 0.0, 0.5])
    v = np.array([1.0, 0.0, 0.0])
    vals = []
    for eta in (1e-2, 1e-4):
        cfg = EstimatorConfig(n_paths=50, master_seed=3,
                              method="finite_difference", fd_bump=eta)
        vals.append(fd_gradient(chain_spec, np.zeros(3), v, linear_f(a), grid,
                                cfg).value)
    assert vals[0] == pytest.approx(vals[1], rel=1e-9)


def test_fd_matches_continuous_closed_form_at_fine_grid(kinetic_spec):
    # linear model, linear f: no bump bias; discretization |exp(M)-(I+M/N)^N|
    # is the whole error and drops below 1e-5 at N = 65536
    grid = TimeGrid(1.0, 65536)
    cfg = EstimatorConfig(n_paths=8, master_seed=4, method="finite_difference",
                          fd_bump=1e-3)
    est = fd_gradient(kinetic_spec, [1.0, 1.0], [1.0, 0.0], linear_f([1.0, 0.0]),
                      grid, cfg)
    assert abs(est.value - KOU_TRUE_V1) <= 1e-5 + 4 * est.std_error


def test_fd_variance_blowup_on_indicator(kinetic_spec):
    # CRN differences of a discontinuous payoff degenerate as eta -> 0 (the
    # per-path difference is 0 or +-1/(2 eta)) while the derivative-formula
    # weight is eta-free; start near the threshold so flips actually occur
    grid = TimeGrid(1.0, 128)
    n = 40000
    x0 = [0.0, 0.5]
    f = indicator_f(0, 0.0)
    fd_cfg = EstimatorConfig(n_paths=n, master_seed=8,
                             method="finite_difference", fd_bump=1e-4)
    fd_est = fd_gradient(kinetic_spec, x0, [1.0, 0.0], f, grid, fd_cfg)
    bi_cfg = EstimatorConfig(n_paths=n, master_seed=8, method="bismut_ito")
    bi_est = bismut_gradient(kinetic_spec, x0, [1.0, 0.0], f, grid, bi_cfg)
    assert fd_est.std_error > 5 * bi_est.std_error


def test_closed_form_short_horizon_identity(kinetic_spec):
    f = quadratic_f([[0.5, 0.1], [0.0, 0.2]], b=[1.0, -2.0])
    x0 = np.array([0.3, 0.7])
    v = np.array([0.6, -0.8])
    got = closed_form_gradient(kinetic_spec, x0, v, f, 1e-8)
    expect = float(f.grad_f(x0) @ v)
    assert got == pytest.approx(expect, rel=1e-6)


def test_closed_form_quadratic_identity(kinetic_spec):
    # f = |z|^2: grad_v E f = 2 <exp(TG) x0, exp(TG) v>; cross-check against a
    # central difference of the closed-form map itself
    from scipy.linalg import expm
    f = quadratic_f(np.eye(2))
    x0 = np.array([1.0, -0.5])
    v = np.array([0.4, 0.9])
    got = closed_form_gradient(kinetic_spec, x0, v, f, 1.0)
    etg = expm(kinetic_spec.drift_matrix)
    assert got == pytest.approx(2 * float((etg @ x0) @ (etg @ v)), abs=1e-12)
    eta = 1e-6
    sig = covariance_flow(kinetic_spec, 1.0)

    def closed_value(x):
        mu = etg @ x
        return float(mu @ mu + np.trace(sig))

    fd = (closed_value(x0 + eta * v) - closed_value(x0 - eta * v)) / (2 * eta)
    assert got == pytest.approx(fd, abs=1e-8 * max(1, abs(got)))


def test_closed_form_rejects_nonlinear(anticipative_spec):
    with pytest.raises(MethodMisuseError):
        closed_form_gradient(anticipative_spec, [0.0, 0.0], [1.0, 0.0],
                             linear_f([1.0, 0.0]), 1.0)
    with pytest.raises(MethodMisuseError):
        closed_form_gradient(builtin_model("kinetic_ou", {"m": 1}),
                             [0.0, 0.0], [1.0, 0.0], gaussian_bump_f([0, 0]), 1.0)


# ---------------------------------------------------------------------------
# cross-estimator agreement and duality
# ---------------------------------------------------------------------------

def test_estimator_equivalence_adapted(kinetic_spec):
    grid = TimeGrid(1.0, 256)
    x0 = [1.0, 1.0]
    v = [1.0, 0.0]
    f = quadratic_f([[0.3, 0.0], [0.1, 0.2]], b=[1.0, 0.5])
    ests = {}
    cfg = lambda m: EstimatorConfig(n_paths=30000, master_seed=17, method=m)
    ests["bismut"] = bismut_gradient(kinetic_spec, x0, v, f, grid, cfg("bismut_ito"))
    ests["pathwise"] = pathwise_gradient(kinetic_spec, x0, v, f, grid,
                                         cfg("pathwise"))
    ests["fd"] = fd_gradient(kinetic_spec, x0, v, f, grid,
                             cfg("finite_difference"))
    closed = closed_form_gradient(kinetic_spec, x0, v, f, 1.0)
    allow = 10.0 * 1.0 / 256
    pairs = [("bismut", "pathwise"), ("bismut", "fd"), ("pathwise", "fd")]
    for a, b in pairs:
        gap = abs(ests[a].value - ests[b].value)
        comb = np.hypot(ests[a].std_error, ests[b].std_error)
        assert gap <= 4 * comb + allow, (a, b, gap, comb)
    for name, est in ests.items():
        assert abs(est.value - closed) <= 4 * est.std_error + allow, name


def test_duality_identity_small_n(anticipative_spec):
    grid = TimeGrid(0.5, 10)
    cfg = EstimatorConfig(n_paths=60000, master_seed=11,
                          method="bismut_skorokhod", chunk_size=4000)
    prof = case1_profile(anticipative_spec, 0.5, c_bound=3.0)
    for f in (linear_f([1.0, 2.0]), quadratic_f(np.eye(2) + 0.1)):
        gap, se, _, _ = duality_gap(anticipative_spec, [0.3, -0.2], [0.7, -0.4],
                                    f, grid, cfg, weights=prof)
        assert abs(gap) <= 4 * se


def test_run_degenerate_on_explosive_model():
    spec = builtin_model("hamiltonian", {"v_expr": "-5*x1^4"})
    grid = TimeGrid(4.0, 32)
    cfg = EstimatorConfig(n_paths=2000, master_seed=0, method="bismut_ito")
    with pytest.raises(RunDegenerateError):
        bismut_gradient(spec, [2.5, 2.5], [1.0, 0.0], linear_f([1.0, 0.0]),
                        grid, cfg)


@pytest.mark.parametrize("v", [[0.0, 1.0], [1.0, 0.0]])
def test_degenerate_constant_control_rejected_by_both_drivers(v):
    # d2Z1 = 0 makes every Gramian Q_t vanish: the (deterministic) control
    # cannot be built, and duality_gap must not report a gap from it
    from hypograd.cli import build_model
    spec = build_model({"custom": {"m": 1, "d": 1, "z1": ["0*x2"], "z2": ["-x1 - x2"],
                                   "sigma": [[1.0]], "b0": [[1.0]]}})
    assert spec.constant_jac_z1
    grid = TimeGrid(0.5, 16)
    cfg = EstimatorConfig(n_paths=200, master_seed=1, method="bismut_ito")
    with pytest.raises(RunDegenerateError):
        bismut_gradient(spec, [0.3, -0.2], v, linear_f([1.0, 0.0]), grid, cfg)
    with pytest.raises(RunDegenerateError):
        duality_gap(spec, [0.3, -0.2], v, quadratic_f(np.eye(2)), grid, cfg)


@pytest.mark.parametrize("driver", ["bismut", "pathwise", "fd", "expectation",
                                    "duality"])
def test_every_driver_enforces_reject_limit(driver, anticipative_spec, monkeypatch):
    # NaN increments make a path non-finite; 1 path in 2000 is within
    # MAX_REJECT_FRACTION, 3 are not.  duality_gap used to drop them silently.
    grid = TimeGrid(0.5, 8)
    x0, v = [0.3, -0.2], [0.7, -0.4]
    f = quadratic_f(np.eye(2))
    runs = {
        "bismut": lambda cfg: bismut_gradient(anticipative_spec, x0, v, f, grid, cfg),
        "pathwise": lambda cfg: pathwise_gradient(anticipative_spec, x0, v, f, grid, cfg),
        "fd": lambda cfg: fd_gradient(anticipative_spec, x0, v, f, grid, cfg),
        "expectation": lambda cfg: expectation(anticipative_spec, x0, f, grid, cfg),
        "duality": lambda cfg: duality_gap(anticipative_spec, x0, v, f, grid, cfg),
    }
    cfg = EstimatorConfig(n_paths=2000, master_seed=1, method="bismut_skorokhod",
                          c_bound=3.0, chunk_size=500)
    clean = runs[driver](cfg)
    for bad_paths, raises in (((7,), False), ((7, 900, 1999), True)):
        def poisoned(*args, _orig=path_increments, _bad=bad_paths, **kwargs):
            out = _orig(*args, **kwargs)
            start = args[3]
            for idx in _bad:
                if start <= idx < start + len(out):
                    out[idx - start, 2, 0] = np.nan
            return out

        monkeypatch.setattr(estimator, "path_increments", poisoned)
        if raises:
            with pytest.raises(RunDegenerateError, match="3/2000 paths rejected"):
                runs[driver](cfg)
        else:
            got = runs[driver](cfg)
            if driver in ("bismut", "pathwise", "fd"):
                assert got.rejected == 1 and got.n_effective == 1999
                assert got.value != clean.value
            else:
                assert got[0] != clean[0]


def test_default_weights_selects_case(kinetic_spec, chain_spec):
    grid = TimeGrid(1.0, 32)
    assert default_weights(kinetic_spec, grid).xi_case == "case1"
    assert default_weights(chain_spec, grid).xi_case == "case2"


def test_test_functions_independent_of_batch_rows():
    # a chunk of one path must see the bits it sees inside a larger chunk; at
    # n = 2 a three-operand einsum reorders its loops for a batch of 1-2 rows
    x = np.random.default_rng(0).normal(size=(300, 2)) * 5
    for f in (linear_f([1.0, 2.0]), quadratic_f([[1.1, 0.7], [0.1, 1.1]], b=[1.0, 1.0], c=0.4),
              gaussian_bump_f([0.3, 0.3], width=4.0)):
        whole, grad = f.f(x), f.grad_f(x)
        for rows in (1, 2, 7):
            parts = [x[i:i + rows] for i in range(0, len(x), rows)]
            assert np.concatenate([f.f(p) for p in parts]).tobytes() == whole.tobytes()
            assert np.concatenate([f.grad_f(p) for p in parts]).tobytes() == grad.tobytes()


def test_builder_gradients_consistent():
    # grad_f against central differences at sample points
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(20, 2))
    h = 1e-6 * (1.0 + np.linalg.norm(pts, axis=-1))

    def gradient_matches(f, rel_tol=1e-5):
        grad = f.grad_f(pts)
        fd = np.stack([(f.f(pts + h[:, None] * e) - f.f(pts - h[:, None] * e)) / (2 * h)
                       for e in np.eye(2)], axis=-1)
        return bool(np.all(np.abs(fd - grad) <= rel_tol * (1 + np.abs(grad))))

    for f in (linear_f([1.0, -0.5], b=0.3),
              quadratic_f([[0.5, 0.1], [0.0, 0.2]], b=[1.0, -2.0], c=0.4),
              gaussian_bump_f([0.3, -0.1], width=0.9)):
        assert gradient_matches(f)
    bad = quadratic_f(np.eye(2))
    broken = type(bad)(f=bad.f, grad_f=lambda x: 0.5 * bad.grad_f(x),
                       tag=bad.tag, params=bad.params)
    assert not gradient_matches(broken)


MULTIDIM_MODELS = [
    # nonlinear first block, square noise: stresses all tensor index orders
    ({"m": 2, "d": 2,
      "z1": ["x3 + 0.3*x1*x4", "x4 + 0.2*x2^2 + 0.1*x3"],
      "z2": ["-x1 - x3", "-x2 - 0.5*x4 + 0.1*x1^2"],
      "sigma": [[1.0, 0.2], [0.0, 0.8]],
      "b0": [[1.0, 0.1], [0.0, 1.0]], "epsilon": 0.5},
     [0.3, -0.2, 0.1, 0.4]),
    # rectangular full-row-rank B0
    ({"m": 1, "d": 2,
      "z1": ["x2 + 0.4*x3 + 0.1*x1^2*x2"],
      "z2": ["-x1 - x2", "-x3 + 0.2*x1^2"],
      "sigma": [[1.0, 0.0], [0.3, 0.9]],
      "b0": [[1.0, 0.4]], "epsilon": 0.6},
     [0.2, -0.1, 0.3]),
]


@pytest.mark.parametrize("model_cfg,x0", MULTIDIM_MODELS)
def test_skorokhod_trace_multidimensional(model_cfg, x0):
    from hypograd.cli import build_model
    spec = build_model({"custom": model_cfg})
    assert not spec.constant_jac_z1
    t_final, n_steps = 0.4, 8
    grid = TimeGrid(t_final, n_steps)
    prof = xi_case1(spec.b0, phi_parabolic(t_final), 2.0, t_final)
    rng = np.random.default_rng(5)
    x0 = np.asarray(x0)
    # v1 = 0 sweeps omega's rows alone, v2 = 0 leaves p and Q_T^{-1} out
    for zero in (slice(0), slice(spec.m), slice(spec.m, None)):
        for _ in range(2):
            v = rng.standard_normal(spec.dim)
            v[zero] = 0.0
            w = (rng.standard_normal((n_steps, spec.d)) * np.sqrt(grid.dt))[None]
            oracle = brute_force_divergence(spec, x0, grid, w, v, prof)
            fast = float(skorokhod_delta(spec, x0, grid, w, v, prof)[0])
            assert abs(oracle - fast) <= 1e-6 * max(1.0, abs(oracle))


def test_norm1_matches_reduction_formula():
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 7, 8, 9):
        mats = rng.standard_normal((60, 3, n, n)) * rng.uniform(1e-3, 1e3, (60, 3, 1, 1))
        mats[0, 0, 0, 0] = np.nan
        mats[1, 1, -1, -1] = np.inf
        mats[2, 2, 0, -1] = -np.inf
        mats[3, 0] = np.nan
        mats[4, 0, 0, 0], mats[4, 0, -1, 0] = np.inf, np.nan
        ref = np.abs(mats).sum(axis=-2).max(axis=-1)
        got = path_major(control._norm1(comp_major(mats)), 0)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes(), n


# ---------------------------------------------------------------------------
# one model evaluation per chunk
# ---------------------------------------------------------------------------

def _estimate_custom_spec():
    from pathlib import Path

    from hypograd.cli import build_model, load_config
    cfg = load_config(Path(__file__).parent.parent / "configs" / "estimate_custom.json")
    return build_model(cfg["model"])


def _spy_drift_expr(monkeypatch):
    """Record the state shape of every DriftExpr evaluation, per method."""
    from hypograd.exprdrift import DriftExpr
    calls = {"value": [], "jacobian": [], "hessian": []}
    for name in calls:
        def spy(self, x, _orig=getattr(DriftExpr, name), _seen=calls[name]):
            _seen.append(np.shape(x))
            return _orig(self, x)
        monkeypatch.setattr(DriftExpr, name, spy)
    return calls


def test_pathwise_chunk_steps_euler_once(monkeypatch):
    # the tangent is stepped with X in the one Euler loop: no path is
    # stored, and each chunk evaluates Z and DZ once per step
    def no_path(*args, **kwargs):
        raise AssertionError("pathwise_gradient simulated a whole path")
    monkeypatch.setattr(estimator, "simulate_path", no_path)
    monkeypatch.setattr(flow, "simulate_path", no_path)
    calls = _spy_drift_expr(monkeypatch)
    spec = builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4",
                                         "mass_expr": "1 + 0.2*x1^2", "c_mass": 1.0})
    grid = TimeGrid(0.5, 12)
    cfg = EstimatorConfig(n_paths=60, master_seed=2, method="pathwise", chunk_size=25)
    est = pathwise_gradient(spec, [0.3, -0.2], [0.7, -0.4],
                            gaussian_bump_f([0.2, 0.0], 0.8), grid, cfg)
    assert est.n_effective == 60
    per_step = [(2, c) for c in (25, 25, 10) for _ in range(grid.n_steps)]
    assert calls["jacobian"] == per_step
    assert calls["value"] == per_step
    assert calls["hessian"] == []


@pytest.mark.parametrize("driver", ["bismut", "duality", "bismut_ito"])
def test_anticipative_chunk_evaluates_model_once(driver, monkeypatch):
    grid = TimeGrid(0.5, 12)
    cfg = EstimatorConfig(n_paths=60, master_seed=2, method="bismut_skorokhod",
                          c_bound=3.0, chunk_size=25)
    x0, v = [0.3, -0.2], [0.7, -0.4]
    calls = _spy_drift_expr(monkeypatch)
    chunks = [(2, 13, 25), (2, 13, 25), (2, 13, 10)]     # node-major states
    if driver == "bismut_ito":
        import dataclasses
        # constant mass: the control chain runs once, on the constant x0
        # carrier path, from one Jacobian; each chunk then evaluates dZ2 on
        # the stepped nodes for hdot
        spec = builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4"})
        bismut_gradient(spec, x0, v, gaussian_bump_f([0.2, 0.0], 0.8), grid,
                        dataclasses.replace(cfg, method="bismut_ito"))
        assert calls["jacobian"] == [(2, 13, 1)] + [(2, 12, c[2]) for c in chunks]
        assert calls["hessian"] == []
        return
    # built after the spy is in place: hess_z1 binds its DriftExpr method
    spec = builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4",
                                         "mass_expr": "1 + 0.2*x1^2", "c_mass": 1.0})
    if driver == "bismut":
        bismut_gradient(spec, x0, v, gaussian_bump_f([0.2, 0.0], 0.8), grid, cfg)
    else:
        duality_gap(spec, x0, v, quadratic_f(np.eye(2)), grid, cfg)
    # one bulk Jacobian per chunk, which the flows and the adjoint sweep
    # index instead of calling per step; the trace's Hessian on the N step
    # nodes, one call per 32-node block (one block here)
    assert calls["jacobian"] == chunks
    assert calls["hessian"] == [(2, grid.n_steps, c[2]) for c in chunks]
    # Euler stepping: one drift evaluation per step
    assert calls["value"] == [(2, c[2]) for c in chunks for _ in range(grid.n_steps)]


@pytest.mark.parametrize("name,params,x0,v,f", [
    ("kinetic_ou", {"m": 2, "k": [[1.0, 0.3], [0.2, 1.5]], "gamma": [[0.7, 0.1], [0.0, 1.2]],
                    "sigma": [[1.0, 0.3], [0.2, 0.8]]},
     [1.0, 0.5, 0.2, -0.1], [1.0, 0.3, 0.5, 0.2], gaussian_bump_f([0.2, 0.0, 0.1, 0.0], 0.8)),
    ("integrator_chain", {"a": [[0.0, 1.0], [0.0, 0.0]], "b0": [[0.0], [1.0]]},
     [0.5, 0.5, 0.0], [1.0, 0.0, 0.0], linear_f([1.0, 0.0, 0.0])),
])
def test_affine_hdot_assembled_once_matches_euler(name, params, x0, v, f):
    # the affine route contracts one shared hdot with the increments; the
    # same model without its drift matrix steps Euler and assembles hdot per
    # path.  Per-path values then differ by round-off only.
    import dataclasses
    spec = builtin_model(name, params)
    stepped = dataclasses.replace(spec, drift_matrix=None)
    grid = TimeGrid(1.0, 48)
    cfg = EstimatorConfig(n_paths=700, master_seed=4, method="bismut_ito", chunk_size=300)
    shared = bismut_gradient(spec, x0, v, f, grid, cfg)
    euler = bismut_gradient(stepped, x0, v, f, grid, cfg)
    assert (shared.n_effective, shared.rejected) == (euler.n_effective, euler.rejected)
    for key in ("value", "std_error", "weight_l2", "delta_mean", "value_cv"):
        assert getattr(shared, key) == pytest.approx(getattr(euler, key),
                                                     rel=1e-12, abs=1e-14), key


# ---------------------------------------------------------------------------
# affine terminal states by one contraction
# ---------------------------------------------------------------------------

AFFINE_CASES = {
    "kinetic_m1": ("kinetic_ou", {"m": 1}, [1.0, 1.0], [1.0, 0.0]),
    "kinetic_m2": ("kinetic_ou", {"m": 2, "k": [[1.0, 0.3], [0.2, 1.5]],
                                  "gamma": [[0.7, 0.1], [0.0, 1.2]],
                                  "sigma": [[1.0, 0.3], [0.2, 0.8]]},
                   [1.0, 0.5, 0.2, -0.1], [1.0, 0.3, 0.5, 0.2]),
    # Z(0) = (0, 2): the drift offset enters every terminal state
    "chain_offset": ("integrator_chain", {"a": [[0.0]], "b0": [[1.0]],
                                          "z2_lin": [[0.0, -1.0]], "z2_off": [2.0]},
                     [0.5, 0.3], [1.0, 0.0]),
}


def _affine_case(name):
    model, params, x0, v = AFFINE_CASES[name]
    return builtin_model(model, params), np.array(x0), np.array(v)


@pytest.mark.parametrize("case", sorted(AFFINE_CASES))
def test_affine_terminal_matches_euler(case):
    spec, x0, v = _affine_case(case)
    grid = TimeGrid(1.0, 64)
    inc = path_increments(grid, spec.d, 3, 0, 50)
    det = estimator._deterministic_control(spec, x0, grid, v, default_weights(spec, grid))
    affine = estimator._AffineTerminal(spec, grid, det["h_dot"])
    noise = affine.contract(inc)
    x_n, ok = affine.terminal(x0, noise)
    euler = simulate_path(spec, x0, grid, inc)[:, -1]
    euler_delta = np.sum(det["h_dot"].T * inc, axis=(-2, -1))       # hdot is (d, N)
    # each side rounds N sums of terms no larger than the result's scale
    tol = 4 * grid.n_steps * np.finfo(float).eps
    assert ok.all()
    assert np.max(np.abs(x_n - euler)) <= tol * np.max(np.abs(euler))
    assert np.max(np.abs(noise[:, -1] - euler_delta)) <= tol * np.max(np.abs(euler_delta))


@pytest.mark.parametrize("with_hdot", [False, True], ids=["x_n", "x_n_delta"])
@pytest.mark.parametrize("case,n_steps", [("kinetic_m1", 1), ("kinetic_m1", 2),
                                          ("kinetic_m2", 1), ("kinetic_m1", 48),
                                          ("kinetic_m2", 24), ("kinetic_m1", 1024),
                                          ("kinetic_m2", 512)])
def test_affine_contract_rows_stand_alone(case, n_steps, with_hdot):
    # N d in {1, 2, 48, 1024} at d = 1 and d = 2
    spec, _, _ = _affine_case(case)
    grid = TimeGrid(1.0, n_steps)
    rng = np.random.default_rng(n_steps)
    h_dot = rng.standard_normal((spec.d, n_steps)) if with_hdot else None
    affine = estimator._AffineTerminal(spec, grid, h_dot)
    width = n_steps * spec.d
    assert affine.weights.shape == (spec.dim + with_hdot, width)
    assert affine.weights.flags.c_contiguous
    assert np.any(affine.weights == 0.0)          # the last step leaves x1 alone
    inc = rng.standard_normal((37, n_steps, spec.d))
    got = affine.contract(inc)
    assert got.shape == (37, spec.dim + with_hdot)
    for i in range(len(inc)):
        assert same_bytes(got[i], affine.contract(inc[i:i + 1])[0]), i
    # the exact negative; an all-zero-weight output may come back as +0 for -0
    assert np.array_equal(affine.contract(-inc), -got)
    # a NaN in any slot, zero-weight ones included, poisons its whole row
    poisoned = rng.standard_normal((width, n_steps, spec.d))
    poisoned.reshape(width, width)[np.arange(width), np.arange(width)] = np.nan
    assert np.isnan(affine.contract(poisoned)).all()


def _affine_driver_outputs(spec, x0, v, grid, chunk_size, n_threads):
    f = quadratic_f(np.eye(spec.dim), b=np.linspace(0.5, -0.5, spec.dim))

    def cfg(method, antithetic=False):
        return EstimatorConfig(n_paths=141, master_seed=2, method=method,
                               chunk_size=chunk_size, n_threads=n_threads,
                               antithetic=antithetic)

    return pickle.dumps([
        bismut_gradient(spec, x0, v, f, grid, cfg("bismut_ito")),
        bismut_gradient(spec, x0, v, f, grid, cfg("bismut_ito", antithetic=True)),
        pathwise_gradient(spec, x0, v, f, grid, cfg("pathwise")),
        fd_gradient(spec, x0, v, f, grid, cfg("finite_difference")),
        expectation(spec, x0, f, grid, cfg("pathwise")),
    ])


@pytest.mark.parametrize("case", sorted(AFFINE_CASES))
def test_affine_drivers_independent_of_chunks_and_threads(case):
    # a BLAS product would round the rows of a small chunk differently
    spec, x0, v = _affine_case(case)
    grid = TimeGrid(1.0, 24)
    outs = {_affine_driver_outputs(spec, x0, v, grid, chunk_size, n_threads)
            for chunk_size in (None, 70, 1) for n_threads in (1, 2)}
    assert len(outs) == 1


@pytest.mark.parametrize("driver", ["bismut", "pathwise", "fd", "expectation"])
def test_affine_drivers_reject_nan_increment(driver, kinetic_spec, monkeypatch):
    # the last increment has weight 0 in x1 of X_N; NaN * 0 is NaN, so even
    # there a NaN increment makes the terminal state non-finite
    grid = TimeGrid(1.0, 16)
    x0, v = np.array([1.0, 1.0]), np.array([1.0, 0.0])
    assert estimator._AffineTerminal(kinetic_spec, grid).weights[0, -1] == 0.0
    f = quadratic_f(np.eye(2))
    runs = {
        "bismut": lambda cfg: bismut_gradient(kinetic_spec, x0, v, f, grid, cfg),
        "pathwise": lambda cfg: pathwise_gradient(kinetic_spec, x0, v, f, grid, cfg),
        "fd": lambda cfg: fd_gradient(kinetic_spec, x0, v, f, grid, cfg),
        "expectation": lambda cfg: expectation(kinetic_spec, x0, f, grid, cfg),
    }
    cfg = EstimatorConfig(n_paths=2000, master_seed=1, method="bismut_ito", chunk_size=500)
    clean = runs[driver](cfg)

    def poisoned(*args, _orig=path_increments, **kwargs):
        out = _orig(*args, **kwargs)
        if args[3] <= 7 < args[3] + len(out):
            out[7 - args[3], -1, 0] = np.nan
        return out

    monkeypatch.setattr(estimator, "path_increments", poisoned)
    got = runs[driver](cfg)
    if driver == "expectation":
        assert np.isfinite(got[0]) and got[0] != clean[0]
    else:
        assert got.rejected == 1 and got.n_effective == 1999
        assert np.isfinite(got.value) and got.value != clean.value


def test_closed_form_keeps_drift_offset():
    # x2' = 2 - x2, x1' = x2: E X1_T = x1 + 2T + (x2 - 2)(1 - e^-T), and
    # grad_v E|X_T|^2 = 2 E X1_T along v = e1; dropping Z(0) gave 1.379
    spec, x0, v = _affine_case("chain_offset")
    f = quadratic_f(np.eye(2))
    mean_x1 = 0.5 + 2.0 + (0.3 - 2.0) * (1.0 - np.exp(-1.0))
    closed = closed_form_gradient(spec, x0, v, f, 1.0)
    assert closed == pytest.approx(2.0 * mean_x1, rel=1e-12)
    grid = TimeGrid(1.0, 512)
    est = pathwise_gradient(spec, x0, v, f, grid,
                            EstimatorConfig(n_paths=20000, master_seed=3, method="pathwise"))
    assert abs(est.value - closed) <= 4 * est.std_error + 10.0 * grid.dt


# ---------------------------------------------------------------------------
# component-major control chain against the frozen path-major reference
# ---------------------------------------------------------------------------

def _chain_case(spec, x0, grid, n_paths, v, weights):
    """One chunk's control chain, node-major, and its path-major
    reference, as pairs of like arrays (the chain's moved to path-major).

    Both start from the same node Jacobian; the reference chains the
    frozen path-major ``terminal_flow``, ``build_alpha``, ``build_bridge``,
    hypothesis checks and trace of tests/conftest.py.
    """
    inc = path_increments(grid, spec.d, 3, 0, n_paths)
    states, _, good = estimator._simulate(spec, np.asarray(x0, dtype=float), grid, inc)
    v = np.asarray(v, dtype=float)
    jac, ad, g, h_dot, res, trace = estimator._bridge_chain(spec, states, grid, v, weights)
    good = good & ~ad.degenerate
    checks = estimator._hypothesis_checks(spec, jac, ad, res, good)

    jac_pm = np.ascontiguousarray(path_major(jac))
    k_ref = reference_terminal_flow(spec, jac_pm, grid)
    ad_ref = reference_build_alpha(spec, jac_pm, k_ref, grid, v, weights)
    g_ref, h_ref, res_ref = reference_build_bridge(spec, jac_pm, ad_ref, grid, v)
    checks_ref = reference_hypothesis_checks(spec, jac_pm, ad_ref, res_ref, good)
    trace_ref = reference_skorokhod_trace(spec, np.ascontiguousarray(states), grid, v,
                                          weights, ad_ref, k_ref, jac_pm)
    pm = lambda a: np.ascontiguousarray(path_major(a, 1))
    pairs = {"alpha": (pm(ad.alpha), ad_ref.alpha),
             "alpha_dot": (pm(ad.alpha_dot), ad_ref.alpha_dot),
             "g": (pm(g), g_ref), "h_dot": (pm(h_dot), h_ref),
             "bridge_residuals": (res, res_ref), "trace": (trace, trace_ref)}
    for key in ("q_bound_ratio", "c_bound_realized"):
        pairs[key] = (np.float64(checks[key]), np.float64(checks_ref[key]))
    return pairs


@pytest.mark.parametrize("v", [[0.7, -0.4], [0.0, -0.4], [0.7, 0.0]],
                         ids=["v", "v1_zero", "v2_zero"])
@pytest.mark.parametrize("n_paths", [1, 7, 1024])
@pytest.mark.parametrize("which", ["mass", "custom"])
def test_skorokhod_trace_matches_path_major_reference_bitwise(which, n_paths, v,
                                                              anticipative_spec):
    # the whole chain, from the node Jacobian to hdot, has the bits of the
    # path-major chain at m = d = 1; the trace, taken by backward sweeps
    # instead of the reference's factored sums, agrees to round-off
    if which == "mass":
        spec, x0, c_bound = anticipative_spec, [0.3, -0.2], 3.0
    else:
        spec, x0, c_bound = _estimate_custom_spec(), [0.5, 0.0], 1.0
    assert spec.m == spec.d == 1
    grid = TimeGrid(0.5, 24)                    # dt = 1/48: scaling by dt rounds
    pairs = _chain_case(spec, x0, grid, n_paths, v,
                        default_weights(spec, grid, c_bound=c_bound))
    ref_trace = pairs["trace"][1]
    assert np.isfinite(ref_trace).all() and np.any(ref_trace != 0.0)
    got, ref = pairs.pop("trace")
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    for key, (got, ref) in pairs.items():
        assert same_bytes(got, ref), key


@pytest.mark.parametrize("n_paths", [1, 7, 256])
@pytest.mark.parametrize("model_cfg,x0", MULTIDIM_MODELS)
def test_skorokhod_trace_multidimensional_matches_reference(model_cfg, x0, n_paths):
    # m or d > 1: contractions and BLAS products sum in another order, so the
    # two layouts agree to round-off (measured up to 4e-15 relative)
    from hypograd.cli import build_model
    spec = build_model({"custom": model_cfg})
    grid = TimeGrid(0.4, 64)
    prof = xi_case1(spec.b0, phi_parabolic(0.4), 2.0, 0.4)
    v = np.random.default_rng(5).standard_normal(spec.dim)
    for key, (got, ref) in _chain_case(spec, x0, grid, n_paths, v, prof).items():
        assert got.shape == ref.shape, key
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), key


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pinv_stack_component_major_view_bitwise(n):
    # a node-major (n, n, N, P) view of path-major (P, N, n, n) memory
    # gives the bits and flags of its contiguous copy
    rng = np.random.default_rng(10 + n)
    mats = rng.standard_normal((12, 9, n, n)) + 2.0 * n * np.eye(n)
    mats[1, 2] = 0.0                                         # exactly singular
    mats[3, 4] = 1e-15 * np.ones((n, n)) + np.diag([1.0] + [0.0] * (n - 1))
    mats[5, 6, 0, -1] = np.nan
    mats[7, 0] = np.diag(np.linspace(1.0, 1e-14, n))          # ill-conditioned
    view = comp_major(mats)                  # node-major view of (P, N, n, n) memory
    assert not view.flags.c_contiguous
    inv, flagged = control._pinv_stack(view)
    ref_inv, ref_flagged = control._pinv_stack(np.ascontiguousarray(view))
    expected = [[1, 2], [5, 6]] if n == 1 else [[1, 2], [3, 4], [5, 6], [7, 0]]
    assert np.argwhere(path_major(flagged, 0)).tolist() == expected
    assert same_bytes(flagged, ref_flagged)
    assert same_bytes(np.ascontiguousarray(inv), ref_inv)


def _anticipative_m2_outputs(spec, x0, grid, weights, chunk_size, n_threads):
    v = np.array([0.7, -0.4, 0.5, 0.2])

    def cfg(antithetic=False):
        return EstimatorConfig(n_paths=141, master_seed=2, method="bismut_skorokhod",
                               chunk_size=chunk_size, n_threads=n_threads,
                               antithetic=antithetic)

    f = gaussian_bump_f([0.2, 0.0, 0.1, 0.0], 0.8)
    ests = [bismut_gradient(spec, x0, v, f, grid, cfg(antithetic), weights=weights)
            for antithetic in (False, True)]
    gap = duality_gap(spec, x0, v, quadratic_f(np.eye(4)), grid, cfg(), weights=weights)
    return pickle.dumps([ests, gap])


def test_anticipative_m2_independent_of_chunks_and_threads():
    from hypograd.cli import build_model
    model_cfg, x0 = MULTIDIM_MODELS[0]
    spec = build_model({"custom": model_cfg})
    assert spec.m == spec.d == 2 and not spec.constant_jac_z1
    grid = TimeGrid(0.4, 8)
    weights = xi_case1(spec.b0, phi_parabolic(0.4), 2.0, 0.4)
    outs = {_anticipative_m2_outputs(spec, np.array(x0), grid, weights, chunk_size,
                                     n_threads)
            for chunk_size in (None, 70, 1) for n_threads in (1, 2)}
    assert len(outs) == 1


# traced peak of the former path-major trace on the chunk below (numpy 2.4):
# 157,651,604 bytes; the backward-sweep trace peaks near 27.3 MB there
PATH_MAJOR_TRACE_PEAK = 157_650_000
# traced peak of the whole ``_bridge_chain`` on the same chunk while the chain
# upstream of the trace was path-major (numpy 2.4): 90,539,188 to 90,543,012
# bytes over three calls; the component-major chain peaks near 54.7 MB there
PATH_MAJOR_CHAIN_PEAK = 90_540_000


def _traced_peak(fn):
    import tracemalloc
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


def test_skorokhod_trace_traced_peak_below_path_major(anticipative_spec):
    spec = anticipative_spec
    grid = TimeGrid(0.5, 256)
    weights = default_weights(spec, grid, c_bound=3.0)
    inc = path_increments(grid, 1, 1, 0, 1024)
    states, _, _ = estimator._simulate(spec, np.array([0.3, -0.2]), grid, inc)
    x = states_cm(states)
    jac = spec.full_jacobian(x)
    k = terminal_flow(spec, jac, grid)
    v = np.array([0.7, -0.4])
    ad = build_alpha(spec, jac, k, grid, v, weights)
    assert _traced_peak(lambda: estimator._skorokhod_trace(
        spec, x, grid, v, weights, ad, k, jac)) <= PATH_MAJOR_TRACE_PEAK
    assert _traced_peak(lambda: estimator._bridge_chain(
        spec, states, grid, v, weights)) <= PATH_MAJOR_CHAIN_PEAK


@pytest.mark.parametrize("model", ["mass", "m2", "m3"])
def test_bridge_chain_inverts_only_m_by_m_stacks(model, monkeypatch):
    # the chain inverts Q_T, the active Q_l and K, all m x m; the trace
    # sweeps the step propagators and inverts no n x n state-transition matrix
    spec, x0 = _chunk_case_model(model)
    grid = TimeGrid(0.5, 8)
    weights = xi_case1(spec.b0, phi_parabolic(0.5), 3.0, 0.5)
    states, _, _ = estimator._simulate(spec, np.array(x0), grid,
                                       path_increments(grid, spec.d, 1, 0, 5))
    shapes, pinv_orig = [], control._pinv_stack

    def pinv(mats):
        shapes.append(mats.shape)
        return pinv_orig(mats)

    monkeypatch.setattr(control, "_pinv_stack", pinv)
    monkeypatch.setattr(estimator, "_pinv_stack", pinv)
    estimator._bridge_chain(spec, states, grid, np.linspace(0.7, -0.4, spec.dim), weights)
    assert len(shapes) == 3
    assert all(shape[:2] == (spec.m, spec.m) for shape in shapes), shapes


def _blow_up_at(index, orig=path_increments):
    """``path_increments`` with one huge increment on path ``index``: its x2
    jumps to 1e120 and the mass model's drift overflows a few steps later."""
    def draw(*args, **kwargs):
        out = orig(*args, **kwargs)
        if args[3] <= index < args[3] + len(out):
            out[index - args[3], 3, 0] = 1e120
        return out
    return draw


@pytest.mark.parametrize("driver", ["fd", "expectation", "pathwise"])
def test_terminal_only_drivers_match_whole_path_euler(driver, anticipative_spec,
                                                      monkeypatch):
    # fd_gradient and expectation step X_N alone, pathwise_gradient X_N and
    # its tangent; their estimates have the bits of the whole-path
    # ``_simulate`` reference (and, for pathwise, a second pass over its
    # states), whose mask rejects the blown-up path as the X_N mask does
    spec, grid = anticipative_spec, TimeGrid(0.5, 16)
    x0, v = np.array([0.3, -0.2]), np.array([0.7, -0.4])
    f = gaussian_bump_f([0.2, 0.0], 0.8)
    draw = _blow_up_at(7)
    monkeypatch.setattr(estimator, "path_increments", draw)
    cfg = EstimatorConfig(n_paths=1500, master_seed=1, method="finite_difference",
                          chunk_size=500)
    inc = draw(grid, 1, 1, 0, 1500)
    if driver == "fd":
        got = fd_gradient(spec, x0, v, f, grid, cfg)
        _, xp, ok_p = estimator._simulate(spec, x0 + cfg.fd_bump * v, grid, inc)
        _, xm, ok_m = estimator._simulate(spec, x0 - cfg.fd_bump * v, grid, inc)
        ok, vals = ok_p & ok_m, (f.f(xp) - f.f(xm)) / (2.0 * cfg.fd_bump)
        assert (got.value, got.std_error) == estimator._mean_se(vals[ok], ok, False)
        assert got.rejected == 1
    elif driver == "pathwise":
        got = pathwise_gradient(spec, x0, v, f, grid, cfg)
        states, x_n, ok = estimator._simulate(spec, x0, grid, inc)
        jac = directional_jacobian(spec, states, grid, v)
        vals = np.einsum("pa,pa->p", f.grad_f(x_n), jac)
        assert (got.value, got.std_error) == estimator._mean_se(vals[ok], ok, False)
        assert got.rejected == 1
    else:
        got = expectation(spec, x0, f, grid, cfg)
        _, x_n, ok = estimator._simulate(spec, x0, grid, inc)
        assert got == estimator._mean_se(f.f(x_n)[ok], ok, False)
    assert np.flatnonzero(~ok).tolist() == [7]


# m = d = 3, nonlinear first block: the chain's largest tensors, m^2 n per node
M3_MODEL = ({"m": 3, "d": 3,
             "z1": ["x4 + 0.2*x1*x5", "x5 + 0.1*x2^2 + 0.1*x4", "x6 + 0.1*x3*x4"],
             "z2": ["-x1 - x4", "-x2 - 0.5*x5 + 0.1*x1^2", "-x3 - x6 + 0.1*x2*x3"],
             "sigma": [[1.0, 0.2, 0.0], [0.0, 0.8, 0.1], [0.0, 0.0, 0.9]],
             "b0": [[1.0, 0.1, 0.0], [0.0, 1.0, 0.1], [0.0, 0.0, 1.0]], "epsilon": 0.5},
            [0.15, -0.1, 0.05, 0.2, 0.0, -0.1])


def _chunk_case_model(name):
    """(spec, x0) of an affine, a constant-jac_z1 Euler, or an anticipative
    model at m = d = 1, 2 or 3."""
    from hypograd.cli import build_model
    if name == "affine":
        return builtin_model("kinetic_ou", {"m": 1}), [1.0, 1.0]
    if name == "euler":
        return builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4"}), [0.3, -0.2]
    if name == "mass":
        return builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4",
                                             "mass_expr": "1 + 0.2*x1^2",
                                             "c_mass": 1.0}), [0.3, -0.2]
    model_cfg, x0 = MULTIDIM_MODELS[0] if name == "m2" else M3_MODEL
    return build_model({"custom": model_cfg}), x0


def _derived_chunks(run):
    """The result of ``run()`` and the chunk sizes ``_mc_run`` resolved in it."""
    log = []
    token = estimator.CHUNK_LOG.set(log)
    try:
        return run(), log
    finally:
        estimator.CHUNK_LOG.reset(token)


@pytest.mark.parametrize("model", ["mass", "m2", "m3"])
def test_default_chunk_memory_within_budget(model, monkeypatch):
    # one default-sized batch through Euler and its first slice through the
    # control chain: the batch takes at most a third of the budget, the slice
    # what the batch leaves, and the footprint the two were sized by is within
    # 15 % of their traced peak, which stays within the budget
    spec, x0 = _chunk_case_model(model)
    budget = 16 << 20                           # small, so Tier-1 stays fast
    monkeypatch.setattr(estimator, "CHUNK_BYTES", budget)
    grid = TimeGrid(0.5, 64)
    x0, v = np.array(x0), np.linspace(0.7, -0.4, spec.dim)
    weights = xi_case1(spec.b0, phi_parabolic(0.5), 3.0, 0.5)
    cfg = EstimatorConfig(n_paths=2, method="bismut_skorokhod")
    _, [(batch, width)] = _derived_chunks(lambda: bismut_gradient(
        spec, x0, v, gaussian_bump_f(np.zeros(spec.dim)), grid, cfg, weights=weights))
    floats = grid.n_steps * spec.d + (grid.n_steps + 1) * spec.dim    # increments, states
    chain = estimator._chain_floats(spec, grid.n_steps)
    assert batch == 64 * max(1, budget // 3 // (8 * 64 * floats))
    assert width == min(batch, 64 * ((budget - 8 * floats * batch) // (8 * chain) // 64))
    assert batch > width >= 64

    def one_slice():
        inc = path_increments(grid, spec.d, 1, 0, batch)
        states, _, _ = estimator._simulate(spec, x0, grid, inc)
        estimator._bridge_chain(spec, states[:width], grid, v, weights)

    peak = _traced_peak(one_slice)
    footprint = 8 * (floats * batch + chain * width)
    assert peak <= 1.05 * budget
    assert abs(footprint - peak) <= 0.15 * peak


_X_N_DRIVERS = {
    "pathwise": pathwise_gradient,
    "finite_difference": fd_gradient,
    "expectation": lambda spec, x0, v, f, grid, cfg: expectation(spec, x0, f, grid, cfg),
}


@pytest.mark.parametrize("driver", sorted(_X_N_DRIVERS))
@pytest.mark.parametrize("model", ["mass", "m3"])
def test_default_euler_batch_memory_within_budget(model, driver, monkeypatch):
    # an X_N-only Euler driver on a non-affine model: one default-sized batch
    # fills the budget at the footprint of _euler_floats (the kick window, the
    # running slab, the tangent), which is within 15 % of the run's traced
    # peak, and that peak stays within the budget
    spec, x0 = _chunk_case_model(model)
    budget = 16 << 20
    monkeypatch.setattr(estimator, "CHUNK_BYTES", budget)
    grid = TimeGrid(0.5, 64)
    x0, v = np.array(x0), np.linspace(0.7, -0.4, spec.dim)
    floats = grid.n_steps * spec.d + estimator._euler_floats(
        spec, grid, tangent=driver == "pathwise")
    batch = 64 * (budget // (8 * 64 * floats))
    cfg = EstimatorConfig(n_paths=batch, master_seed=1, method="pathwise")
    f = quadratic_f(np.eye(spec.dim))
    got = []
    peak = _traced_peak(lambda: got.append(_derived_chunks(
        lambda: _X_N_DRIVERS[driver](spec, x0, v, f, grid, cfg))))
    assert got[0][1] == [(batch, batch)]
    assert peak <= budget
    assert abs(8 * floats * batch - peak) <= 0.15 * peak, (8 * floats * batch, peak)


def _slice_work(spec, states, inc, grid, v, weights):
    """What ``bismut_gradient`` runs on one slice of a batch."""
    jac, ad, _, h_dot, res, trace = estimator._bridge_chain(spec, states, grid, v, weights)
    estimator._hdot_sum(h_dot, inc) - trace
    estimator._hypothesis_checks(spec, jac, ad, res, ~ad.degenerate)


@pytest.mark.parametrize("n_steps", [12, 64, 256])
@pytest.mark.parametrize("model", ["mass", "m2", "m3"])
def test_chain_floats_models_one_slice(model, n_steps):
    # the slices are sized by _chain_floats: the traced peak of one slice's
    # work, past the batch's increments and states, is within 10 % of it
    spec, x0 = _chunk_case_model(model)
    grid = TimeGrid(0.5, n_steps)
    weights = xi_case1(spec.b0, phi_parabolic(0.5), 3.0, 0.5)
    v = np.linspace(0.7, -0.4, spec.dim)
    inc = path_increments(grid, spec.d, 1, 0, 64)
    states, _, _ = estimator._simulate(spec, np.array(x0), grid, inc)
    peak = _traced_peak(lambda: _slice_work(spec, states, inc, grid, v, weights))
    model_bytes = 8 * 64 * estimator._chain_floats(spec, n_steps)
    assert abs(model_bytes - peak) <= 0.10 * peak, (model_bytes, peak)


def test_m3_below_one_block_of_chain_stays_within_budget(monkeypatch):
    # a budget smaller than one 64-path block's chain: the batch stays whole
    # blocks, the chain runs on slices narrower than a block, the run's traced
    # peak stays within 1.25 budgets, and the result has the bits of 64-path chunks
    spec, x0 = _chunk_case_model("m3")
    grid = TimeGrid(0.5, 64)
    x0, v = np.array(x0), np.linspace(0.7, -0.4, spec.dim)
    weights = xi_case1(spec.b0, phi_parabolic(0.5), 3.0, 0.5)
    f = gaussian_bump_f(np.zeros(spec.dim))

    def run(chunk_size):
        cfg = EstimatorConfig(n_paths=160, master_seed=2, method="bismut_skorokhod",
                              chunk_size=chunk_size)
        return bismut_gradient(spec, x0, v, f, grid, cfg, weights=weights)

    blocks64 = run(64)
    budget = 2 << 20
    assert 8 * 64 * estimator._chain_floats(spec, grid.n_steps) > budget
    monkeypatch.setattr(estimator, "CHUNK_BYTES", budget)
    got = []
    peak = _traced_peak(lambda: got.append(_derived_chunks(lambda: run(None))))
    [(est, log)] = got
    assert [(batch % 64, width < 64) for batch, width in log] == [(0, True)]
    assert peak <= 1.25 * budget
    assert pickle.dumps(est) == pickle.dumps(blocks64)


def _derived_chunk_outputs(spec, x0, chunk_size, n_threads=1, n_steps=None):
    x0, v = np.array(x0), np.linspace(0.7, -0.4, spec.dim)
    grid = TimeGrid(0.4, n_steps or (8 if spec.m == 2 else 16))
    f = quadratic_f(np.eye(spec.dim), b=np.linspace(0.5, -0.5, spec.dim))
    weights = xi_case1(spec.b0, phi_parabolic(0.4), 3.0, 0.4)

    def cfg(method, antithetic):
        return EstimatorConfig(n_paths=300, master_seed=4, method=method,
                               chunk_size=chunk_size, antithetic=antithetic,
                               n_threads=n_threads)

    outs = []
    for anti in (False, True):
        if spec.constant_jac_z1:
            outs += [bismut_gradient(spec, x0, v, f, grid, cfg("bismut_ito", anti)),
                     pathwise_gradient(spec, x0, v, f, grid, cfg("pathwise", anti)),
                     fd_gradient(spec, x0, v, f, grid, cfg("finite_difference", anti)),
                     expectation(spec, x0, f, grid, cfg("pathwise", anti))]
        else:
            outs += [bismut_gradient(spec, x0, v, f, grid, cfg("bismut_skorokhod", anti),
                                     weights=weights),
                     duality_gap(spec, x0, v, f, grid, cfg("bismut_skorokhod", anti),
                                 weights=weights)]
    return pickle.dumps(outs)


# one-level drivers: each budget splits 300 paths into batches of 64 or 128;
# anticipative: the slices cut every batch, narrower than a block at the
# smaller budget of each model, where the batches split too
@pytest.mark.parametrize("model,budget", [("affine", 20_000), ("euler", 48_000),
                                          ("mass", 150_000), ("mass", 700_000),
                                          ("m2", 260_000), ("m2", 3 << 19)])
def test_derived_chunks_match_one_chunk(model, budget, monkeypatch):
    # chunk_size null: batches and slices derived from CHUNK_BYTES, the last
    # ones partial, on one thread or two, give the bits of one explicit chunk
    # of every path (one slice at the default budget)
    spec, x0 = _chunk_case_model(model)
    whole = _derived_chunk_outputs(spec, x0, 300)
    monkeypatch.setattr(estimator, "CHUNK_BYTES", budget)
    for n_threads in (1, 2):
        derived, log = _derived_chunks(lambda: _derived_chunk_outputs(spec, x0, None, n_threads))
        assert derived == whole
    batches = [batch for batch, _ in log]
    if spec.constant_jac_z1:
        assert all(b % 64 == 0 and -(-300 // b) >= 3 and 300 % b for b in batches)
        assert max(batches) > 64                 # sized by the budget, not the floor
        assert all(width == batch for batch, width in log)
    else:
        assert all(min(batch, 300) % width for batch, width in log)
        narrow = budget < 500_000
        assert all((batch < 300) == narrow and (width < 64) == narrow for batch, width in log)


def test_affine_batches_are_sized_by_the_cache():
    # an affine model steps no Euler path, so at the default budget its
    # derived batch holds at most CACHE_BYTES of increments: 128 paths at
    # N = 2048, whose batches of 128, 128 and 44 paths, on one thread or two,
    # give the bits of one chunk of every path and of 64-path chunks
    spec, x0 = _chunk_case_model("affine")
    whole = _derived_chunk_outputs(spec, x0, 300, n_steps=2048)
    assert _derived_chunk_outputs(spec, x0, 64, n_steps=2048) == whole
    for n_threads in (1, 2):
        derived, log = _derived_chunks(
            lambda: _derived_chunk_outputs(spec, x0, None, n_threads, n_steps=2048))
        assert derived == whole
        assert set(log) == {(128, 128)}
    assert 8 * 128 * 2048 <= estimator.CACHE_BYTES < 8 * (128 + 64) * 2048


def test_affine_bismut_run_peak_stays_near_the_cache():
    # 8192 paths at N = 512 are 32 MiB of increments, which one batch sized by
    # CHUNK_BYTES would hold at once; cache-sized batches of 512 paths keep the
    # run's traced peak near CACHE_BYTES
    spec, x0 = _chunk_case_model("affine")
    cfg = EstimatorConfig(n_paths=8192, master_seed=1, method="bismut_ito")
    got = []
    peak = _traced_peak(lambda: got.append(_derived_chunks(lambda: bismut_gradient(
        spec, x0, [1.0, 0.0], linear_f([1.0, 0.0]), TimeGrid(1.0, 512), cfg))))
    assert got[0][1] == [(512, 512)]
    assert peak <= 1.25 * estimator.CACHE_BYTES, peak
