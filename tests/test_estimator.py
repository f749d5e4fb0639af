import pickle
import warnings

import numpy as np
import pytest

from hypograd import control, estimator
from hypograd.control import phi_parabolic, xi_case1
from hypograd.errors import MethodMisuseError, RunDegenerateError
from hypograd.estimator import (EstimatorConfig, bismut_gradient,
                                closed_form_gradient, covariance_flow,
                                default_weights, duality_gap, expectation,
                                fd_gradient, gaussian_bump_f, indicator_f,
                                ito_delta, linear_f, path_increments,
                                pathwise_gradient, quadratic_f, skorokhod_delta)
from hypograd.flow import TimeGrid
from hypograd.model import ModelSpec, builtin_model
from tests.conftest import (brute_force_divergence, case1_profile,
                            guarded_solve_lapack, pinv_stack_lapack,
                            same_bytes, wide_values)

KOU_TRUE_V1 = 0.6597001533917016   # (exp M)_11 for M = [[0,1],[-1,-1]]
KOU_TRUE_V2 = 0.5335071951146929   # (exp M)_12


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def test_ito_delta_zero_integrand():
    inc = np.random.default_rng(0).standard_normal((32, 2))
    assert ito_delta(np.zeros((32, 2)), inc) == 0.0


def test_ito_delta_gaussian_moments():
    # deterministic hdot: E delta = 0 and Var delta = sum |hdot|^2 dt
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(1)
    h_dot = rng.standard_normal((64, 1))
    n = 100_000
    inc = rng.standard_normal((n, 64, 1)) * np.sqrt(grid.dt)
    deltas = ito_delta(h_dot, inc)
    var_true = float(np.sum(h_dot**2) * grid.dt)
    se_mean = np.sqrt(var_true / n)
    assert abs(np.mean(deltas)) <= 4 * se_mean
    se_var = np.std(deltas**2, ddof=1) / np.sqrt(n)
    assert abs(np.var(deltas) - var_true) <= 4 * se_var


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
    v = np.array([0.8, -0.6])
    d_forced, corr = skorokhod_delta(forced, np.array([1.0, 1.0]), grid,
                                     inc, v, prof, return_parts=True)
    d_fast = skorokhod_delta(base, np.array([1.0, 1.0]), grid,
                             inc, v, prof)
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
    got = estimator._pinv_stack(mats)
    ref = np.linalg.pinv(mats, rcond=1e-13)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_svd_pinv_drops_subnormal_singular_value_silently():
    # 1/s used to be taken before the cut, so a dropped subnormal s overflowed
    mats = np.diag([1.0, 1e-310])[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = estimator._svd_pinv(mats, 1e-13)
        lone = estimator._svd_pinv(np.full((1, 1, 1), 1e-310), 1e-13)
    assert same_bytes(got, np.diag([1.0, 0.0])[None])
    assert lone[0, 0, 0] == np.inf          # kept: its reciprocal overflows


def _count_svd_members(monkeypatch):
    """Spy on the SVD fallback; returns the list of member counts it got."""
    seen = []
    svd_pinv = estimator._svd_pinv

    def spy(mats, rcond):
        seen.append(len(mats))
        return svd_pinv(mats, rcond)

    monkeypatch.setattr(estimator, "_svd_pinv", spy)
    return seen


def test_pinv_stack_falls_back_per_member(monkeypatch):
    rng = np.random.default_rng(4)
    mats = rng.standard_normal((8, 2, 2)) + 3.0 * np.eye(2)
    rot = np.array([[0.6, -0.8], [0.8, 0.6]])
    mats[1] = [[1.0, 2.0], [2.0, 4.0]]                       # exactly singular
    mats[4] = rot @ np.diag([1.0, 3e-14]) @ rot.T            # cond > 1e13
    mats[6, 0, 1] = np.nan
    seen = _count_svd_members(monkeypatch)
    got = estimator._pinv_stack(mats)
    assert seen == [2]
    for i in (1, 4):
        np.testing.assert_array_equal(got[i], estimator._svd_pinv(mats[i], 1e-13))
    assert np.max(np.abs(got[4])) <= 1.0 + 1e-12             # 3e-14 dropped, not inverted
    assert np.all(np.isnan(got[6]))
    rest = [0, 2, 3, 5, 7]
    np.testing.assert_array_equal(got[rest], np.linalg.inv(mats[rest]))


def test_pinv_stack_singular_member_does_not_reroute_stack(monkeypatch):
    rng = np.random.default_rng(5)
    mats = rng.standard_normal((16, 32, 1, 1))
    mats[3, 7] = 0.0
    seen = _count_svd_members(monkeypatch)
    got = estimator._pinv_stack(mats)
    assert seen == [1]
    assert got[3, 7, 0, 0] == 0.0
    keep = np.ones((16, 32), dtype=bool)
    keep[3, 7] = False
    np.testing.assert_array_equal(got[keep], 1.0 / mats[keep])


def test_pinv_stack_1x1_matches_lapack_bitwise(monkeypatch):
    mats = wide_values(200_000, 21).reshape(400, 500, 1, 1)
    seen = _count_svd_members(monkeypatch)
    got = estimator._pinv_stack(mats)
    n_fallback = sum(seen)
    with np.errstate(all="ignore"):
        lapack = np.linalg.inv(mats)
        kept = np.abs(mats * lapack)[..., 0, 0] < 1e13
    assert 0 < n_fallback == np.count_nonzero(~kept)   # reciprocals that overflow
    assert same_bytes(got[kept], lapack[kept])
    seen.clear()
    assert same_bytes(got, pinv_stack_lapack(mats))
    assert sum(seen) == n_fallback


@pytest.mark.parametrize("special", [0.0, -0.0, np.inf, -np.inf, np.nan])
def test_pinv_stack_1x1_special_members_match_lapack_path(special, monkeypatch):
    small = np.array([2.0, special, -4.0]).reshape(3, 1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # LAPACK meets a zero pivot silently
        assert same_bytes(estimator._pinv_stack(small), pinv_stack_lapack(small))
    mats = wide_values(20_000, 22).reshape(40, 500, 1, 1)
    mats.reshape(-1)[::997] = special
    seen = _count_svd_members(monkeypatch)
    got = estimator._pinv_stack(mats)
    n_fallback = sum(seen)
    seen.clear()
    assert same_bytes(got, pinv_stack_lapack(mats))
    assert sum(seen) == n_fallback


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
    spec = anticipative_spec if which == "mass" else _estimate_custom_spec()
    assert spec.m == 1
    fast = _chain_outputs(spec)
    calls = {"pinv": 0, "solve": 0}

    def pinv(mats, rcond=1e-13):
        calls["pinv"] += 1
        return pinv_stack_lapack(mats, rcond)

    def solve(mats, rhs):
        calls["solve"] += 1
        return guarded_solve_lapack(mats, rhs)

    monkeypatch.setattr(estimator, "_pinv_stack", pinv)
    monkeypatch.setattr(control, "_guarded_solve", solve)
    assert _chain_outputs(spec) == fast
    assert calls["pinv"] > 0 and calls["solve"] > 0


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


def test_antithetic_se_matches_seed_spread(kinetic_spec):
    # paired paths are not independent: the reported standard error must
    # match the spread of the estimate across seeds with pairing on or off
    grid = TimeGrid(1.0, 32)
    f = linear_f([1.0, 0.0])
    for antithetic in (False, True):
        vals, ses = [], []
        for seed in range(20):
            cfg = EstimatorConfig(n_paths=1000, master_seed=seed,
                                  method="bismut_ito", antithetic=antithetic)
            est = bismut_gradient(kinetic_spec, [1.0, 1.0], [1.0, 0.0], f,
                                  grid, cfg)
            vals.append(est.value)
            ses.append(est.std_error)
        spread = np.std(vals, ddof=1)
        assert abs(np.mean(ses) - spread) <= 0.25 * spread, antithetic

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


def _path_increments_per_path(grid, d, master_seed, start, count, antithetic):
    # reference: a freshly constructed Philox generator for every path
    out = np.empty((count, grid.n_steps, d))
    root = np.sqrt(grid.dt)
    seed64 = np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF)
    for row, idx in enumerate(range(start, start + count)):
        base = idx // 2 if antithetic else idx
        bg = np.random.Philox(key=np.array([seed64, np.uint64(base)], dtype=np.uint64))
        z = np.random.Generator(bg).standard_normal((grid.n_steps, d))
        if antithetic and idx % 2 == 1:
            z = -z
        out[row] = z * root
    return out


@pytest.mark.parametrize("antithetic", [False, True])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("master_seed", [0, 77, -5])
@pytest.mark.parametrize("start,count", [(0, 6), (3, 5), (7, 1), (10, 2)])
def test_path_increments_match_per_path_generators(antithetic, d, master_seed,
                                                   start, count):
    grid = TimeGrid(0.7, 9)
    got = path_increments(grid, d, master_seed, start, count, antithetic)
    ref = _path_increments_per_path(grid, d, master_seed, start, count, antithetic)
    assert got.shape == (count, 9, d)
    assert got.tobytes() == ref.tobytes()


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


def test_pathwise_constant_f_exactly_zero(kinetic_spec):
    grid = TimeGrid(1.0, 32)
    cfg = EstimatorConfig(n_paths=100, master_seed=1, method="pathwise")
    est = pathwise_gradient(kinetic_spec, [1.0, 1.0], [1.0, 0.0],
                            linear_f([0.0, 0.0], b=1.0), grid, cfg)
    assert est.value == 0.0 and est.std_error == 0.0


def test_pathwise_needs_gradient(kinetic_spec):
    cfg = EstimatorConfig(n_paths=10, master_seed=0, method="pathwise")
    with pytest.raises(MethodMisuseError):
        pathwise_gradient(kinetic_spec, [1.0, 1.0], [1.0, 0.0],
                          indicator_f(0, 0.0), TimeGrid(1.0, 8), cfg)


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


def test_builder_gradients_consistent():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(20, 2))
    for f in (linear_f([1.0, -0.5], b=0.3),
              quadratic_f([[0.5, 0.1], [0.0, 0.2]], b=[1.0, -2.0], c=0.4),
              gaussian_bump_f([0.3, -0.1], width=0.9)):
        assert f.check_gradient(pts)
    bad = quadratic_f(np.eye(2))
    broken = type(bad)(f=bad.f, grad_f=lambda x: 0.5 * bad.grad_f(x),
                       tag=bad.tag, params=bad.params)
    assert not broken.check_gradient(pts)


@pytest.mark.parametrize("model_cfg,x0", [
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
])
def test_skorokhod_trace_multidimensional(model_cfg, x0):
    from hypograd.cli import build_model
    spec = build_model({"custom": model_cfg})
    assert not spec.constant_jac_z1
    t_final, n_steps = 0.4, 8
    grid = TimeGrid(t_final, n_steps)
    prof = xi_case1(spec.b0, phi_parabolic(t_final), 2.0, t_final)
    rng = np.random.default_rng(5)
    x0 = np.asarray(x0)
    for _ in range(2):
        v = rng.standard_normal(spec.dim)
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
        got = estimator._norm1(mats)
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


@pytest.mark.parametrize("driver", ["bismut", "duality", "bismut_ito"])
def test_anticipative_chunk_evaluates_model_once(driver, monkeypatch):
    grid = TimeGrid(0.5, 12)
    cfg = EstimatorConfig(n_paths=60, master_seed=2, method="bismut_skorokhod",
                          c_bound=3.0, chunk_size=25)
    x0, v = [0.3, -0.2], [0.7, -0.4]
    calls = _spy_drift_expr(monkeypatch)
    chunks = [(25, 13, 2), (25, 13, 2), (10, 13, 2)]
    if driver == "bismut_ito":
        import dataclasses
        # constant mass: the control chain runs once, on the constant x0
        # carrier path, from one Jacobian; each chunk then evaluates dZ2 on
        # the stepped nodes for hdot
        spec = builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4"})
        bismut_gradient(spec, x0, v, gaussian_bump_f([0.2, 0.0], 0.8), grid,
                        dataclasses.replace(cfg, method="bismut_ito"))
        assert calls["jacobian"] == [(1, 13, 2)] + [(c[0], 12, 2) for c in chunks]
        assert calls["hessian"] == []
        return
    # built after the spy is in place: hess_z1 binds its DriftExpr method
    spec = builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4",
                                         "mass_expr": "1 + 0.2*x1^2", "c_mass": 1.0})
    if driver == "bismut":
        bismut_gradient(spec, x0, v, gaussian_bump_f([0.2, 0.0], 0.8), grid, cfg)
    else:
        duality_gap(spec, x0, v, quadratic_f(np.eye(2)), grid, cfg)
    # one bulk Jacobian and Hessian per chunk; the Jacobian flow and the
    # adjoint sweep index the bulk Jacobian instead of calling per step
    assert calls["jacobian"] == chunks
    assert calls["hessian"] == chunks
    # Euler stepping: one drift evaluation per step
    assert calls["value"] == [(c[0], 2) for c in chunks for _ in range(grid.n_steps)]


@pytest.mark.parametrize("name,params,x0,v,f", [
    ("kinetic_ou", {"m": 2, "k": [[1.0, 0.3], [0.2, 1.5]], "gamma": [[0.7, 0.1], [0.0, 1.2]],
                    "sigma": [[1.0, 0.3], [0.2, 0.8]]},
     [1.0, 0.5, 0.2, -0.1], [1.0, 0.3, 0.5, 0.2], gaussian_bump_f([0.2, 0.0, 0.1, 0.0], 0.8)),
    ("integrator_chain", {"a": [[0.0, 1.0], [0.0, 0.0]], "b0": [[0.0], [1.0]]},
     [0.5, 0.5, 0.0], [1.0, 0.0, 0.0], linear_f([1.0, 0.0, 0.0])),
])
def test_affine_hdot_assembled_once_bitwise(name, params, x0, v, f):
    import dataclasses
    spec = builtin_model(name, params)
    assert spec.constant_jac_z1 and spec.constant_jac_z2
    per_path = dataclasses.replace(spec, constant_jac_z2=False)
    grid = TimeGrid(1.0, 48)
    cfg = EstimatorConfig(n_paths=700, master_seed=4, method="bismut_ito", chunk_size=300)
    shared = bismut_gradient(spec, x0, v, f, grid, cfg)
    assert shared == bismut_gradient(per_path, x0, v, f, grid, cfg)
