import numpy as np
import pytest
from scipy.linalg import expm

from hypograd import control
from hypograd.control import (build_alpha, build_bridge, gramian_M, gramian_Q,
                              phi_parabolic, q_inverse_bound_ratio, xi_case1,
                              xi_case2)
from hypograd.errors import NotApplicableError
from hypograd.flow import TimeGrid, simulate_path, terminal_flow
from hypograd.model import builtin_model
from tests.conftest import (case1_profile, comp_major, path_major,
                            reference_xi_case2_calibration, refine_noise, same_bytes,
                            sample_noise, states_cm)


def _flat_flow(grid, m):
    return np.broadcast_to(np.eye(m)[:, :, None, None], (m, m, grid.n_steps + 1, 1)).copy()


def test_gramian_m_zero_at_origin():
    grid = TimeGrid(1.0, 32)
    phi, _ = phi_parabolic(1.0)
    m = path_major(gramian_M(_flat_flow(grid, 2), np.eye(2), phi, grid))[0, 0]
    assert np.array_equal(m, np.zeros((2, 2)))


def test_gramian_m_parabolic_weight_closed_form():
    # K = I, B0 = I, phi = t(T-t)/T^2: M_T = (int_0^T phi) I = (T/6) I
    T = 2.0
    grid = TimeGrid(T, 8192)
    phi, _ = phi_parabolic(T)
    m = path_major(gramian_M(_flat_flow(grid, 2), np.eye(2), phi, grid))[0, 8192]
    assert np.allclose(m, (T / 6.0) * np.eye(2), atol=2e-4)


def test_gramian_m_chain_flat_weight():
    # A=[[0,1],[0,0]], B0=[0,1]^T, phi = 1, T = t = 1:
    # exp((T-s)A) B0 = (T-s, 1)^T and the integral is [[1/3,1/2],[1/2,1]]
    grid = TimeGrid(1.0, 8192)
    a_mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    b0 = np.array([[0.0], [1.0]])
    k = comp_major(np.stack([expm((1.0 - t) * a_mat) for t in grid.nodes])[None])
    m = path_major(gramian_M(k, b0, lambda t: np.ones_like(t), grid))[0, 8192]
    assert np.allclose(m, [[1 / 3, 1 / 2], [1 / 2, 1.0]], atol=2e-4)


def test_gramian_q_equals_m_when_c_is_b0(kinetic_spec):
    grid = TimeGrid(1.0, 256)
    rng = np.random.default_rng(0)
    x = simulate_path(kinetic_spec, np.array([1.0, 1.0]), grid,
                      sample_noise(grid, 1, rng, 1))
    jac = kinetic_spec.dz(states_cm(x))
    k = terminal_flow(kinetic_spec, jac, grid)
    phi, _ = phi_parabolic(1.0)
    q = gramian_Q(kinetic_spec, jac, k, phi, grid)
    m = gramian_M(k, kinetic_spec.b0, phi, grid)
    assert q.shape == (1, 1, 257, 1) and np.allclose(q, m, atol=1e-12)
    assert np.array_equal(q[:, :, 0, 0], np.zeros((1, 1)))


def test_gramian_ordering_on_nonlinear_paths(anticipative_spec):
    # <Q_t a, a> >= (1-eps) <M_t a, a> - 1e-9, 16 random unit directions
    spec = anticipative_spec
    grid = TimeGrid(0.5, 128)
    rng = np.random.default_rng(1)
    x = simulate_path(spec, np.array([0.3, -0.2]), grid,
                      sample_noise(grid, 1, rng, n_paths=8))
    jac = spec.dz(states_cm(x))
    k = terminal_flow(spec, jac, grid)
    phi, _ = phi_parabolic(0.5)
    q = gramian_Q(spec, jac, k, phi, grid)
    m = gramian_M(k, spec.b0, phi, grid)
    for _ in range(16):
        a = rng.standard_normal(spec.m)
        a /= np.linalg.norm(a)
        qa = np.einsum("abpj,a,b->pj", q, a, a)
        ma = np.einsum("abpj,a,b->pj", m, a, a)
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
    m_t = path_major(gramian_M(_flat_flow(grid, 1), [[2.0]], phi, grid))[0]
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
    k_flow = comp_major(np.stack([expm((1.0 - t) * a_mat) for t in grid.nodes])[None])
    phi, _ = phi_parabolic(1.0)
    m_t = path_major(gramian_M(k_flow, b0, phi, grid))[0]
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


CHAIN2 = ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]])
CHAIN3 = ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], [[0.0], [0.0], [1.0]])


@pytest.mark.parametrize("a_mat, b0, k_idx, t_final", [
    (*CHAIN2, 1, 0.05), (*CHAIN2, 1, 0.5), (*CHAIN3, 2, 0.7), ([[0.5]], [[1.0]], 0, 1.0)],
    ids=["chain2-T0.05", "chain2-T0.5", "chain3", "scalar"])
def test_xi_case2_calibration_matches_frozen_loop(a_mat, b0, k_idx, t_final):
    # one nonzero entry per column of B0: every Gramian term is one product,
    # so gramian_M's left sum gives the frozen loop's bits
    prof = xi_case2(a_mat, b0, phi_parabolic(t_final), t_final)
    lam, c1, margin, _ = reference_xi_case2_calibration(a_mat, b0, k_idx, t_final)
    assert prof.meta["k"] == k_idx
    assert same_bytes(prof.meta["calib_lambda_min"], lam)
    assert prof.meta["c1"] == c1
    assert prof.meta["margin"] == margin


@pytest.mark.parametrize("a_mat, b0, k_idx, t_final", [
    ([[-0.3, 1.2], [0.4, -0.1]], [[0.3, -0.7], [1.1, 0.2]], 0, 0.8),
    ([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -2.0, -0.5]],
     [[0.0, 0.0], [1.0, 0.0], [0.3, 1.0]], 1, 2.0)], ids=["2x2", "3x2"])
def test_xi_case2_calibration_dense_b0_within_roundoff(a_mat, b0, k_idx, t_final):
    # several nonzero entries per column: each Gramian term is a sum of
    # products, which einsum adds in another order than the loop's BLAS
    # product, so lambda_min moves by round-off of the Gramian's scale
    prof = xi_case2(a_mat, b0, phi_parabolic(t_final), t_final)
    lam, _, _, lam_max = reference_xi_case2_calibration(a_mat, b0, k_idx, t_final)
    assert prof.meta["k"] == k_idx
    eps = np.finfo(float).eps
    assert np.all(np.abs(prof.meta["calib_lambda_min"] - lam) <= 8 * eps * lam_max)


def test_alpha_boundary_values_exact(kinetic_spec):
    grid = TimeGrid(1.0, 256)
    rng = np.random.default_rng(2)
    x = simulate_path(kinetic_spec, np.array([1.0, 1.0]), grid,
                      sample_noise(grid, 1, rng, n_paths=4))
    jac = kinetic_spec.dz(states_cm(x))
    k = terminal_flow(kinetic_spec, jac, grid)
    v = np.array([0.6, -0.8])
    prof = case1_profile(kinetic_spec, 1.0)
    ad = build_alpha(kinetic_spec, jac, k, grid, v, prof)
    assert ad.alpha.shape == (1, 257, 4)          # (d, N+1, P)
    assert np.max(np.abs(ad.alpha[:, 0] - v[1:, None])) <= 1e-14
    assert np.max(np.abs(ad.alpha[:, -1])) <= 1e-14


def test_alpha_zero_direction_gives_zero_control(kinetic_spec):
    grid = TimeGrid(1.0, 64)
    x = simulate_path(kinetic_spec, np.array([1.0, 1.0]), grid,
                      np.zeros((1, 64, 1)))
    jac = kinetic_spec.dz(states_cm(x))
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
    jac = kinetic_spec.dz(states_cm(x))
    k = terminal_flow(kinetic_spec, jac, grid)
    prof = case1_profile(kinetic_spec, 1.0)
    v = np.array([1.0, 0.0])
    ad = build_alpha(kinetic_spec, jac, k, grid, v, prof)
    _, _, res = build_bridge(kinetic_spec, jac, ad, grid, v)
    assert res[0, 2] <= 1e-3


@pytest.mark.parametrize("v", [[0.7, -0.4], [0.0, 1.0]])
def test_bridge_g_matches_path_major_loop(anticipative_spec, v):
    # g is stepped node-major; the path-major recursion gives the same bits
    spec, grid = anticipative_spec, TimeGrid(0.5, 24)
    rng = np.random.default_rng(6)
    x = simulate_path(spec, np.array([0.3, -0.2]), grid, sample_noise(grid, 1, rng, 9))
    jac = spec.dz(states_cm(x))
    v = np.array(v)
    ad = build_alpha(spec, jac, terminal_flow(spec, jac, grid), grid, v,
                     case1_profile(spec, 0.5, c_bound=3.0))
    g, _, _ = build_bridge(spec, jac, ad, grid, v)
    ref = np.empty((9, 25, 1))
    ref[:, 0] = v[:1]
    jac, alpha = path_major(jac), path_major(ad.alpha, 1)
    for i in range(grid.n_steps):
        ref[:, i + 1] = ref[:, i] + grid.dt * (
            np.einsum("pab,pb->pa", jac[:, i, :1, :1], ref[:, i])
            + np.einsum("pad,pd->pa", jac[:, i, :1, 1:], alpha[:, i]))
    assert g.shape == (1, 25, 9)                   # (m, N+1, P)
    assert same_bytes(np.ascontiguousarray(path_major(g, 1)), ref)


def test_bridge_telescoping_h_total():
    # v = (0, v2), dZ2 = 0, sigma = I: hdot = -alpha_dot so the step sum
    # telescopes to alpha_0 - alpha_N = v2 exactly
    spec = builtin_model("hamiltonian", {"v_expr": "0", "m": 1, "friction": 0.0})
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(4)
    x = simulate_path(spec, np.array([0.2, 0.1]), grid, sample_noise(grid, 1, rng, 1))
    jac = spec.dz(states_cm(x))
    k = terminal_flow(spec, jac, grid)
    prof = case1_profile(spec, 1.0)
    v = np.array([0.0, 0.7])
    ad = build_alpha(spec, jac, k, grid, v, prof)
    _, h_dot, _ = build_bridge(spec, jac, ad, grid, v)
    h_total = np.sum(h_dot[..., 0], axis=-1) * grid.dt
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
            jac = spec.dz(states_cm(x))
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
    jac = spec.dz(states_cm(x))
    k = terminal_flow(spec, jac, grid)
    a_nodes = jac[:1, :1]
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
    jac = chain_spec.dz(states_cm(x))
    k = terminal_flow(chain_spec, jac, grid)
    prof = xi_case2(chain_spec.dz(np.zeros(3))[:2, :2], chain_spec.b0,
                    phi_parabolic(1.0), 1.0)
    v = np.array([1.0, 0.2, -0.5])
    ad = build_alpha(chain_spec, jac, k, grid, v, prof)
    g, _, _ = build_bridge(chain_spec, jac, ad, grid, v)
    for arr in (ad.alpha, g, ad.q_path):             # paths on axis -1
        assert np.max(np.abs(arr - arr[..., :1])) <= 1e-12


def test_alpha_dot_gap_shrinks_with_refinement(kinetic_spec):
    gaps = []
    for n_steps in (128, 1024):
        grid = TimeGrid(1.0, n_steps)
        x = simulate_path(kinetic_spec, np.array([1.0, 1.0]), grid,
                          np.zeros((1, n_steps, 1)))
        jac = kinetic_spec.dz(states_cm(x))
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
    jac = chain_spec.dz(states_cm(x))
    k = terminal_flow(chain_spec, jac, grid)
    prof = xi_case2(chain_spec.dz(np.zeros(3))[:2, :2], chain_spec.b0,
                    phi_parabolic(1.0), 1.0)
    phi, _ = phi_parabolic(1.0)
    q = gramian_Q(chain_spec, jac, k, phi, grid)
    ratio = q_inverse_bound_ratio(q, prof.xi_grid(grid), chain_spec.epsilon)
    assert ratio <= 1.0 + 1e-6


_PROFILE_MODELS = {
    "kinetic": ("kinetic_ou", {"m": 1}),
    "chain": ("integrator_chain", {"a": [[0.0, 1.0], [0.0, 0.0]], "b0": [[0.0], [1.0]]}),
    "chain3": ("integrator_chain", {"a": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
                                    "b0": [[0.0], [0.0], [1.0]]}),
    "mass": ("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4", "mass_expr": "1 + 0.2*x1^2",
                             "c_mass": 1.0}),
}


@pytest.mark.parametrize("name", sorted(_PROFILE_MODELS))
def test_xi_grid_nondecreasing_so_active_nodes_are_one_run(name):
    # build_alpha inverts the active Q_l, those of nodes 1..N-1 with xi > 0,
    # as one slice ending at N-1, which needs xi_grid nondecreasing: case 1
    # is a cumulative sum of non-negative terms, case 2 the minimum of a
    # closed form and lambda_min of a Gramian that grows in the Loewner order
    spec = builtin_model(*_PROFILE_MODELS[name])
    m = spec.m
    a0 = spec.dz(np.zeros(spec.dim))[:m, :m]
    for t_final in (0.1, 0.5, 1.0, 4.0):
        phi = phi_parabolic(t_final)
        profiles = [xi_case2(a0, spec.b0, phi, t_final)]
        if np.linalg.matrix_rank(spec.b0) == m:
            profiles += [xi_case1(spec.b0, phi, c_bound, t_final) for c_bound in (0.0, 1.0, 3.0)]
        for prof in profiles:
            for n_steps in (1, 2, 7, 12, 40, 256, 1024):
                xi = prof.xi_grid(TimeGrid(t_final, n_steps))
                assert np.all(np.diff(xi) >= 0.0), (prof.xi_case, t_final, n_steps)
                active = np.flatnonzero(xi[1:n_steps] > 0) + 1
                assert active.tolist() == list(range(n_steps - active.size, n_steps))


def test_weight_profile_shape_properties(kinetic_spec):
    prof = case1_profile(kinetic_spec, 2.0, c_bound=0.5)
    t = np.linspace(0.0, 2.0, 101)
    phi_vals = prof.phi(t)
    assert phi_vals[0] == 0.0 and phi_vals[-1] == 0.0
    assert np.all(phi_vals >= 0.0) and np.all(phi_vals <= 1.0)
    xi_vals = prof.xi(t)
    assert np.all(np.diff(xi_vals) >= -1e-15)
    assert np.all(xi_vals[1:] > 0)


@pytest.mark.parametrize("m", [1, 2])
def test_pinv_stack_verdict_does_not_depend_on_scale(m):
    """Scaled by 2^500, each inverse is the unscaled one times 2^-500, bit
    for bit, with the same flags: the condition estimate is scale-free.
    Member 0 is exactly singular and is flagged.  At m = 1 the others pass;
    at m = 2 members 1-4 have condition number 1e14 and are flagged, and
    members 5-8 pass.  The limit is the determinant's range: 2^500 keeps
    every 2x2 determinant here finite, and a scale whose determinant
    overflows or underflows flags the member."""
    rng = np.random.default_rng(38 + m)
    if m == 1:
        mats = np.linspace(1.1, 9.9, 9).reshape(9, 1, 1)
        expected = np.arange(9) == 0
    else:
        u = np.linalg.qr(rng.standard_normal((9, 2, 2)))[0]
        v = np.linalg.qr(rng.standard_normal((9, 2, 2)))[0]
        sv = np.where(np.arange(9)[:, None] < 5, [1.0, 1e-14], [1.0, 0.5])
        mats = u @ (sv[..., None] * v)
        expected = np.arange(9) < 5
    mats[0] = 0.0
    mats = comp_major(mats)
    inv, flagged = control._pinv_stack(mats)
    big_inv, big_flagged = control._pinv_stack(mats * 2.0 ** 500)
    assert flagged.tolist() == big_flagged.tolist() == expected.tolist()
    assert np.isnan(inv[..., flagged]).all() and np.isnan(big_inv[..., flagged]).all()
    assert same_bytes(big_inv[..., ~flagged], inv[..., ~flagged] * 2.0 ** -500)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_build_alpha_masks_are_the_inverse_flags(m, monkeypatch):
    # one inverse, one rule: Q_T's flags are the degenerate paths, Q_l's are
    # the dropped nodes and the xi_eff zeros, and the stored inverse is the
    # inverse with 0 at flagged members.  Each stack has an exactly singular
    # member, one with cond_1 > 1e13 (at m = 1, a subnormal one whose
    # reciprocal overflows) and a NaN one
    spec = builtin_model("kinetic_ou", {"m": m})
    grid = TimeGrid(1.0, 8)
    n_paths, n = 5, grid.n_steps
    prof = case1_profile(spec, 1.0, c_bound=1.0)
    idx = np.nonzero(prof.xi_grid(grid)[:n] > 0)[0]
    assert idx.tolist() == list(range(2, n))
    rng = np.random.default_rng(60 + m)
    rot = np.linalg.qr(rng.standard_normal((m, m)))[0]
    bad = [np.zeros((m, m)), np.full((m, m), np.nan),
           rot @ np.diag([1.0] * (m - 1) + [1e-15]) @ rot.T if m > 1 else [[1e-310]]]
    q = rng.standard_normal((n_paths, n + 1, m, m)) + 2.0 * m * np.eye(m)
    for (path, node), member in zip([(0, n), (3, n), (4, n), (1, 3), (2, 5), (0, 4)],
                                    bad + bad):
        q[path, node] = member
    q = np.ascontiguousarray(comp_major(q))
    monkeypatch.setattr(control, "gramian_Q", lambda *args: q)
    jac = np.broadcast_to(spec.dz(np.zeros(spec.dim))[..., None, None],
                          (spec.dim, spec.dim, n + 1, n_paths))
    v = np.concatenate([np.linspace(0.5, 1.0, m), np.linspace(-0.4, 0.3, m)])
    ad = build_alpha(spec, jac, terminal_flow(spec, jac, grid), grid, v, prof)
    inv_t, flag_t = control._pinv_stack(q[:, :, n])
    inv_l, flag_l = control._pinv_stack(q[:, :, idx])
    assert flag_t.tolist() == [True, False, False, True, True]
    assert np.argwhere(flag_l.T).tolist() == [[0, 2], [1, 1], [2, 3]]
    assert ad.degenerate.tolist() == flag_t.tolist()
    assert ad.dropped_nodes.tolist() == flag_l.sum(axis=0).tolist()
    assert same_bytes(ad.xi_eff[idx] == 0.0, flag_l)
    assert same_bytes(ad.q_inv[:, :, n], np.where(flag_t, 0.0, inv_t))
    assert same_bytes(ad.q_inv[:, :, idx], np.where(flag_l, 0.0, inv_l))
    assert not ad.q_inv[:, :, :2].any() and np.isfinite(ad.alpha).all()
    # the others have the bits they have without the flagged members
    alone = control._pinv_stack(np.ascontiguousarray(q[:, :, n][..., ~flag_t]))
    assert not alone[1].any() and same_bytes(alone[0], inv_t[..., ~flag_t])
