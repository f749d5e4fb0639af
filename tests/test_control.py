import numpy as np
import pytest
from scipy.linalg import expm

from hypograd import control
from hypograd.control import (build_alpha, build_bridge, gramian_M, gramian_Q,
                              phi_parabolic, q_inverse_bound_ratio, xi_case1,
                              xi_case2)
from hypograd.errors import NotApplicableError
from hypograd.flow import TimeGrid, refine_noise, sample_noise, simulate_path, terminal_flow
from hypograd.model import builtin_model
from tests.conftest import (case1_profile, guarded_solve_lapack, same_bytes,
                            wide_values)


def _flat_flow(grid, m):
    return np.broadcast_to(np.eye(m), (1, grid.n_steps + 1, m, m)).copy()


def test_gramian_m_zero_at_origin():
    grid = TimeGrid(1.0, 32)
    phi, _ = phi_parabolic(1.0)
    m = gramian_M(_flat_flow(grid, 2), np.eye(2), phi, grid)[0, 0]
    assert np.array_equal(m, np.zeros((2, 2)))


def test_gramian_m_parabolic_weight_closed_form():
    # K = I, B0 = I, phi = t(T-t)/T^2: M_T = (int_0^T phi) I = (T/6) I
    T = 2.0
    grid = TimeGrid(T, 8192)
    phi, _ = phi_parabolic(T)
    m = gramian_M(_flat_flow(grid, 2), np.eye(2), phi, grid)[0, 8192]
    assert np.allclose(m, (T / 6.0) * np.eye(2), atol=2e-4)


def test_gramian_m_chain_flat_weight():
    # A=[[0,1],[0,0]], B0=[0,1]^T, phi = 1, T = t = 1:
    # exp((T-s)A) B0 = (T-s, 1)^T and the integral is [[1/3,1/2],[1/2,1]]
    grid = TimeGrid(1.0, 8192)
    a_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    b0 = np.array([[0.0], [1.0]])
    k = np.stack([expm((1.0 - t) * a_mat) for t in grid.nodes])[None]
    m = gramian_M(k, b0, lambda t: np.ones_like(t), grid)[0, 8192]
    assert np.allclose(m, [[1 / 3, 1 / 2], [1 / 2, 1.0]], atol=2e-4)


def test_gramian_q_equals_m_when_c_is_b0(kinetic_spec):
    grid = TimeGrid(1.0, 256)
    rng = np.random.default_rng(0)
    x = simulate_path(kinetic_spec, np.array([1.0, 1.0]), grid,
                      sample_noise(grid, 1, rng, 1))
    jac = kinetic_spec.dz(x)
    k = terminal_flow(kinetic_spec, jac, grid)
    phi, _ = phi_parabolic(1.0)
    q = gramian_Q(kinetic_spec, jac, k, phi, grid)
    m = gramian_M(k, kinetic_spec.b0, phi, grid)
    assert np.allclose(q, m, atol=1e-12)
    assert np.array_equal(q[0, 0], np.zeros((1, 1)))


def test_gramian_ordering_on_nonlinear_paths(anticipative_spec):
    # <Q_t a, a> >= (1-eps) <M_t a, a> - 1e-9, 16 random unit directions
    spec = anticipative_spec
    grid = TimeGrid(0.5, 128)
    rng = np.random.default_rng(1)
    x = simulate_path(spec, np.array([0.3, -0.2]), grid,
                      sample_noise(grid, 1, rng, n_paths=8))
    jac = spec.dz(x)
    k = terminal_flow(spec, jac, grid)
    phi, _ = phi_parabolic(0.5)
    q = gramian_Q(spec, jac, k, phi, grid)
    m = gramian_M(k, spec.b0, phi, grid)
    for _ in range(16):
        a = rng.standard_normal(spec.m)
        a /= np.linalg.norm(a)
        qa = np.einsum("pjab,a,b->pj", q, a, a)
        ma = np.einsum("pjab,a,b->pj", m, a, a)
        assert np.all(qa >= (1 - spec.epsilon) * ma - 1e-9)


def test_xi_case1_flat_bound_closed_form():
    # B0 = I, c_bound = 0: xi(t) = int_0^t phi; at T: T/6
    prof = case1_profile(builtin_model("kinetic_ou", {"m": 1}), 1.0, c_bound=0.0)
    assert abs(prof.xi(1.0) - 1.0 / 6.0) < 1e-7
    grid = TimeGrid(1.0, 2048)
    vals = prof.xi_grid(grid)
    assert vals[0] == 0.0 and vals[1] == 0.0  # phi(0) = 0 kills the first node
    assert abs(vals[-1] - 1.0 / 6.0) < 1e-3


def test_xi_case1_monotone_in_c_bound():
    spec = builtin_model("kinetic_ou", {"m": 1})
    xis = [case1_profile(spec, 1.0, c_bound=cb).xi(1.0) for cb in (0.0, 1.0, 5.0, 50.0)]
    assert all(a > b for a, b in zip(xis, xis[1:]))
    assert xis[-1] < 1e-3


def test_xi_case1_scalar_quadrature_oracle():
    # m=1, B0 = 2, c_bound = 1, T = 1: xi(1) = 4 int_0^1 s(1-s)e^{-2(1-s)} ds
    # = 2 e^{-2} (integrate by parts; cross-checked by dense trapezoid)
    phi, phid = phi_parabolic(1.0)
    prof = xi_case1([[2.0]], (phi, phid), 1.0, 1.0)
    s = np.linspace(0, 1, 200001)
    oracle = 4.0 * np.trapezoid(s * (1 - s) * np.exp(-2 * (1 - s)), s)
    assert abs(oracle - 2 * np.exp(-2)) < 1e-9
    assert abs(prof.xi(1.0) - oracle) < 1e-6
    # on the constant flow K = I the Gramian dominates xi everywhere
    grid = TimeGrid(1.0, 1024)
    m_t = gramian_M(_flat_flow(grid, 1), [[2.0]], phi, grid)[0]
    assert np.all(np.linalg.eigvalsh(m_t)[:, 0] + 1e-15 >= prof.xi_grid(grid))


def test_xi_case1_rank_deficient_rejected():
    phi_pair = phi_parabolic(1.0)
    with pytest.raises(NotApplicableError):
        xi_case1([[0.0], [1.0]], phi_pair, 0.0, 1.0)


def test_xi_case2_k0_quadratic_floor():
    # k = 0, B0 = I, A = 0: lambda_min(M_t) ~ t^2/(2T) for small t, so the
    # calibrated xi keeps xi(t)/t^2 bounded below on (0, T]
    prof = xi_case2(np.zeros((2, 2)), np.eye(2), phi_parabolic(1.0), 1.0)
    t = np.linspace(0.05, 1.0, 30)
    ratio = prof.xi(t) / t**2
    assert np.all(ratio > 1e-3)
    assert prof.meta["k"] == 0


def test_xi_case2_chain_small_time_exponent():
    # k = 1 chain with parabolic phi: lambda_min(M_t) ~ t^{2k+2} = t^4
    a_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    b0 = np.array([[0.0], [1.0]])
    grid = TimeGrid(1.0, 16384)
    k_flow = np.stack([expm((1.0 - t) * a_mat) for t in grid.nodes])[None]
    phi, _ = phi_parabolic(1.0)
    m_t = gramian_M(k_flow, b0, phi, grid)[0]
    lam = np.linalg.eigvalsh(m_t)[:, 0]
    ts = np.geomspace(1e-3, 1e-1, 9)
    idx = np.rint(ts / grid.dt).astype(int)
    slope = np.polyfit(np.log(grid.nodes[idx]), np.log(lam[idx]), 1)[0]
    assert 3.7 <= slope <= 4.3


def test_xi_case2_validity_at_calibration_nodes():
    prof = xi_case2([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                    phi_parabolic(1.0), 1.0)
    calib_t = prof.meta["calib_grid"]
    lam = prof.meta["calib_lambda_min"]
    assert np.all(prof.xi(calib_t) <= lam + 1e-12)
    assert prof.meta["margin"] >= 0.0


def test_alpha_boundary_values_exact(kinetic_spec):
    grid = TimeGrid(1.0, 256)
    rng = np.random.default_rng(2)
    x = simulate_path(kinetic_spec, np.array([1.0, 1.0]), grid,
                      sample_noise(grid, 1, rng, n_paths=4))
    jac = kinetic_spec.dz(x)
    k = terminal_flow(kinetic_spec, jac, grid)
    v = np.array([0.6, -0.8])
    prof = case1_profile(kinetic_spec, 1.0)
    ad = build_alpha(kinetic_spec, jac, k, grid, v, prof)
    assert np.max(np.abs(ad.alpha[:, 0] - v[1:])) <= 1e-14
    assert np.max(np.abs(ad.alpha[:, -1])) <= 1e-14


def test_alpha_zero_direction_gives_zero_control(kinetic_spec):
    grid = TimeGrid(1.0, 64)
    x = simulate_path(kinetic_spec, np.array([1.0, 1.0]), grid,
                      np.zeros((1, 64, 1)))
    jac = kinetic_spec.dz(x)
    k = terminal_flow(kinetic_spec, jac, grid)
    prof = case1_profile(kinetic_spec, 1.0)
    ad = build_alpha(kinetic_spec, jac, k, grid, np.zeros(2), prof)
    g, h_dot, _ = build_bridge(kinetic_spec, jac, ad, grid, np.zeros(2))
    assert np.array_equal(ad.alpha, np.zeros_like(ad.alpha))
    assert np.array_equal(g, np.zeros_like(g))
    assert np.array_equal(h_dot, np.zeros_like(h_dot))


def test_bridge_g_residual_kinetic(kinetic_spec):
    # v = (v1, 0): continuous-time g_T = 0 exactly; discrete residual O(1/N)
    grid = TimeGrid(1.0, 4096)
    rng = np.random.default_rng(3)
    x = simulate_path(kinetic_spec, np.array([1.0, 1.0]), grid,
                      sample_noise(grid, 1, rng, 1))
    jac = kinetic_spec.dz(x)
    k = terminal_flow(kinetic_spec, jac, grid)
    prof = case1_profile(kinetic_spec, 1.0)
    v = np.array([1.0, 0.0])
    ad = build_alpha(kinetic_spec, jac, k, grid, v, prof)
    _, _, res = build_bridge(kinetic_spec, jac, ad, grid, v)
    assert res[0, 2] <= 1e-3


def test_bridge_telescoping_h_total():
    # v = (0, v2), dZ2 = 0, sigma = I: hdot = -alpha_dot so the step sum
    # telescopes to alpha_0 - alpha_N = v2 exactly
    spec = builtin_model("hamiltonian", {"v_expr": "0", "m": 1, "friction": 0.0})
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(4)
    x = simulate_path(spec, np.array([0.2, 0.1]), grid, sample_noise(grid, 1, rng, 1))
    jac = spec.dz(x)
    k = terminal_flow(spec, jac, grid)
    prof = case1_profile(spec, 1.0)
    v = np.array([0.0, 0.7])
    ad = build_alpha(spec, jac, k, grid, v, prof)
    _, h_dot, _ = build_bridge(spec, jac, ad, grid, v)
    h_total = np.sum(h_dot[0], axis=0) * grid.dt
    assert np.allclose(h_total, v[1:], atol=1e-12)


def test_bridge_residual_halves_with_refinement(anticipative_spec):
    # |g_N| ~ dt on the nonlinear model: ratio per grid doubling in [0.25, 0.75]
    spec = anticipative_spec
    base = TimeGrid(0.5, 512)
    rng = np.random.default_rng(5)
    v = np.array([1.0, 0.5])
    prof_for = lambda g: case1_profile(spec, 0.5, c_bound=3.0)
    levels = {512: [], 1024: [], 2048: [], 4096: []}
    for _ in range(4):
        noise, grid = sample_noise(base, 1, rng, 1), base
        for n_steps in (512, 1024, 2048, 4096):
            if grid.n_steps != n_steps:
                noise, grid = refine_noise(noise, grid, rng)
            x = simulate_path(spec, np.array([0.3, -0.2]), grid, noise)
            jac = spec.dz(x)
            k = terminal_flow(spec, jac, grid)
            ad = build_alpha(spec, jac, k, grid, v, prof_for(grid))
            _, _, res = build_bridge(spec, jac, ad, grid, v)
            levels[n_steps].append(res[0, 2])
    means = [np.mean(levels[n]) for n in (512, 1024, 2048, 4096)]
    for a, b in zip(means, means[1:]):
        assert 0.25 <= b / a <= 0.75


def test_q_inverse_bound_on_paths(anticipative_spec):
    # ||Q_t^{-1}|| <= 1/((1-eps) xi(t)) with the grid-consistent profile,
    # c_bound taken from the realized path Jacobians
    spec = anticipative_spec
    grid = TimeGrid(0.5, 256)
    rng = np.random.default_rng(6)
    x = simulate_path(spec, np.array([0.3, -0.2]), grid,
                      sample_noise(grid, 1, rng, n_paths=8))
    jac = spec.dz(x)
    k = terminal_flow(spec, jac, grid)
    a_nodes = jac[..., :1, :1]
    cb = float(np.max(np.abs(a_nodes)))
    prof = case1_profile(spec, 0.5, c_bound=cb)
    phi, _ = phi_parabolic(0.5)
    q = gramian_Q(spec, jac, k, phi, grid)
    ratio = q_inverse_bound_ratio(q, prof.xi_grid(grid), spec.epsilon)
    assert ratio <= 1.0 + 1e-6


def test_linear_model_control_deterministic(chain_spec):
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(7)
    x = simulate_path(chain_spec, np.array([0.4, -0.1, 0.3]), grid,
                      sample_noise(grid, 1, rng, n_paths=6))
    jac = chain_spec.dz(x)
    k = terminal_flow(chain_spec, jac, grid)
    prof = xi_case2(chain_spec.dz(np.zeros(3))[:2, :2], chain_spec.b0,
                    phi_parabolic(1.0), 1.0)
    v = np.array([1.0, 0.2, -0.5])
    ad = build_alpha(chain_spec, jac, k, grid, v, prof)
    g, _, _ = build_bridge(chain_spec, jac, ad, grid, v)
    for arr in (ad.alpha, g, ad.q_path):
        assert np.max(np.abs(arr - arr[0])) <= 1e-12


def test_alpha_dot_gap_shrinks_with_refinement(kinetic_spec):
    gaps = []
    for n_steps in (128, 1024):
        grid = TimeGrid(1.0, n_steps)
        x = simulate_path(kinetic_spec, np.array([1.0, 1.0]), grid,
                          np.zeros((1, n_steps, 1)))
        jac = kinetic_spec.dz(x)
        k = terminal_flow(kinetic_spec, jac, grid)
        ad = build_alpha(kinetic_spec, jac, k, grid, np.array([1.0, 1.0]),
                         case1_profile(kinetic_spec, 1.0))
        gaps.append(ad.alpha_dot_gap)
    assert gaps[1] <= 0.2 * gaps[0]


def test_case2_q_inverse_bound_on_chain(chain_spec):
    # the clipped case-2 grid profile keeps the inverse bound exact on the
    # discrete Gramian of the same grid (Q = M for constant d2Z1 = B0)
    grid = TimeGrid(1.0, 512)
    rng = np.random.default_rng(12)
    x = simulate_path(chain_spec, np.zeros(3), grid,
                      sample_noise(grid, 1, rng, n_paths=4))
    jac = chain_spec.dz(x)
    k = terminal_flow(chain_spec, jac, grid)
    prof = xi_case2(chain_spec.dz(np.zeros(3))[:2, :2], chain_spec.b0,
                    phi_parabolic(1.0), 1.0)
    phi, _ = phi_parabolic(1.0)
    q = gramian_Q(chain_spec, jac, k, phi, grid)
    ratio = q_inverse_bound_ratio(q, prof.xi_grid(grid), chain_spec.epsilon)
    assert ratio <= 1.0 + 1e-6


def test_weight_profile_shape_properties(kinetic_spec):
    prof = case1_profile(kinetic_spec, 2.0, c_bound=0.5)
    t = np.linspace(0.0, 2.0, 101)
    phi_vals = prof.phi(t)
    assert phi_vals[0] == 0.0 and phi_vals[-1] == 0.0
    assert np.all(phi_vals >= 0.0) and np.all(phi_vals <= 1.0)
    xi_vals = prof.xi(t)
    assert np.all(np.diff(xi_vals) >= -1e-15)
    assert np.all(xi_vals[1:] > 0)


def test_guarded_solve_1x1_matches_lapack_bitwise():
    mats = wide_values(200_000, 31).reshape(400, 500, 1, 1)
    rhs = wide_values(200_000, 32).reshape(400, 500, 1)
    with np.errstate(all="ignore"):
        assert same_bytes(control._solve(mats, rhs[..., None]),
                           np.linalg.solve(mats, rhs[..., None]))
        sol, ok = control._guarded_solve(mats, rhs)
        ref_sol, ref_ok = guarded_solve_lapack(mats, rhs)
    assert same_bytes(sol, ref_sol) and same_bytes(ok, ref_ok)
    assert 0 < np.count_nonzero(~ok) < ok.size


@pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
def test_guarded_solve_1x1_nonfinite_members_match_lapack_path(special):
    rng = np.random.default_rng(33)
    mats = wide_values(20_000, 34).reshape(40, 500, 1, 1)
    rhs = rng.standard_normal((40, 500, 1))
    mats.reshape(-1)[::997] = special
    with np.errstate(all="ignore"):
        sol, ok = control._guarded_solve(mats, rhs)
        ref_sol, ref_ok = guarded_solve_lapack(mats, rhs)
    assert same_bytes(sol, ref_sol) and same_bytes(ok, ref_ok)


@pytest.mark.parametrize("m", [1, 2])
def test_guarded_solve_singular_member_fails_alone(m):
    rng = np.random.default_rng(35 + m)
    mats = rng.standard_normal((6, m, m)) + 2.0 * m * np.eye(m)
    rhs = rng.standard_normal((6, m))
    mats[3] = 0.0
    keep = np.arange(6) != 3
    sol, ok = control._guarded_solve(mats, rhs)
    assert ok.tolist() == [True, True, True, False, True, True]
    assert np.array_equal(sol[3], np.zeros(m))
    alone, alone_ok = control._guarded_solve(mats[keep], rhs[keep])
    assert alone_ok.all() and same_bytes(sol[keep], alone)
    assert same_bytes(alone, np.linalg.solve(mats[keep], rhs[keep][..., None])[..., 0])
