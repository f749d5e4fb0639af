import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hypograd.cli import build_model
from hypograd.flow import (TimeGrid, _euler_nodes, full_jacobian_flow, simulate_path,
                           terminal_flow, valid_mask)
from hypograd.errors import ConfigurationError
from hypograd.model import ModelSpec, builtin_model
from tests.conftest import (directional_jacobian, path_major, reference_full_jacobian_flow,
                            reference_terminal_flow, refine_noise, same_bytes, sample_noise,
                            states_cm)

# closed-form oracle for the kinetic model: drift matrix M = [[0,1],[-1,-1]],
# exp(M) = e^{-1/2} (cos w I + sin(w)/w (M + I/2)) with w = sqrt(3)/2
KOU_M = np.array([[0.0, 1.0], [-1.0, -1.0]])
_w = np.sqrt(3.0) / 2.0
KOU_EXP = np.exp(-0.5) * (np.cos(_w) * np.eye(2) + np.sin(_w) / _w * (KOU_M + np.eye(2) / 2))


def test_expm_oracle_agrees_with_scipy():
    assert np.allclose(KOU_EXP, expm(KOU_M), atol=1e-12)
    assert np.allclose(KOU_EXP[0], [0.65970015, 0.53350720], atol=1e-7)


def _zero_drift_spec(d=2):
    m = 1

    def z(x):
        return np.zeros((m + d,) + np.shape(x)[1:])

    def dz(x):
        return np.zeros((m + d, m + d) + np.shape(x)[1:])

    return ModelSpec(m=m, d=d, z=z, dz=dz, sigma=2.0 * np.eye(d),
                     b0=np.ones((m, d)), epsilon=0.0)


@pytest.mark.parametrize("t_final, n_steps", [
    (float("nan"), 4), (float("inf"), 4), (0.0, 4), (-1.0, 4),
    (1.0, 0), (1.0, 2.5), (1.0, 4.0), (1.0, True), (1.0, "4")])
def test_time_grid_needs_finite_t_final_and_integer_steps(t_final, n_steps):
    # a nan horizon once passed (nan <= 0 is False) and gave nan nodes
    with pytest.raises(ConfigurationError):
        TimeGrid(t_final, n_steps)
    assert TimeGrid(0.5, np.int64(4)).dt == 0.125


def test_zero_drift_zero_noise_constant_path():
    spec = _zero_drift_spec()
    grid = TimeGrid(1.0, 16)
    x0 = np.array([0.3, -0.2, 1.0])
    x = simulate_path(spec, x0, grid, np.zeros((1, 16, 2)))
    assert np.array_equal(x, np.tile(x0, (1, 17, 1)))


def test_single_step_pure_diffusion():
    # one step, Z = 0, sigma = 2I, dB = ones: the degenerate block is untouched
    spec = _zero_drift_spec()
    grid = TimeGrid(0.5, 1)
    inc = np.ones((1, 1, 2))
    x = simulate_path(spec, np.zeros(3), grid, inc)
    assert np.array_equal(x[0, 1], [0.0, 2.0, 2.0])


def test_kinetic_ou_deterministic_flow_matches_expm():
    spec = builtin_model("kinetic_ou", {"m": 1})
    grid = TimeGrid(1.0, 4096)
    x = simulate_path(spec, np.array([1.0, 0.0]), grid,
                      np.zeros((1, 4096, 1)))
    assert np.linalg.norm(x[0, -1] - KOU_EXP @ [1.0, 0.0]) <= 5e-3


def test_terminal_flow_identity_when_a_zero(kinetic_spec):
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(0)
    x = simulate_path(kinetic_spec, np.zeros(2), grid,
                      sample_noise(grid, 1, rng, 1))
    k = terminal_flow(kinetic_spec, kinetic_spec.dz(states_cm(x)), grid)
    assert np.array_equal(k, np.ones((1, 1, 65, 1)))


def test_terminal_flow_nilpotent_constant_a(chain_spec):
    # d1Z1 = [[0,1],[0,0]] nilpotent: K(T,0) = exp(T A) = I + T A exactly
    grid = TimeGrid(1.0, 4096)
    rng = np.random.default_rng(1)
    x = simulate_path(chain_spec, np.zeros(3), grid, sample_noise(grid, 1, rng, 1))
    k = path_major(terminal_flow(chain_spec, chain_spec.dz(states_cm(x)), grid))[0]
    assert np.allclose(k[0], [[1.0, 1.0], [0.0, 1.0]], atol=1e-3)
    assert np.array_equal(k[-1], np.eye(2))


def test_discrete_cocycle_reconstruction(chain_spec):
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(2)
    x = simulate_path(chain_spec, np.array([0.2, -0.1, 0.4]), grid,
                      sample_noise(grid, 1, rng, 1))
    k = path_major(terminal_flow(chain_spec, chain_spec.dz(states_cm(x)), grid))[0]
    a_nodes = path_major(chain_spec.dz(x[0].T))[..., :2, :2]
    for i in [0, 13, 64, 127]:
        p_i = np.eye(2) + grid.dt * a_nodes[i]
        recon = k[i + 1] @ p_i
        assert np.linalg.norm(recon - k[i]) <= 1e-12 * max(1, np.linalg.norm(k[i]))


def test_cocycle_spot_products(chain_spec):
    # K(T,t_i) = K(T,t_j) K(t_j,t_i) for the same discrete per-step products
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(3)
    x = simulate_path(chain_spec, np.zeros(3), grid, sample_noise(grid, 1, rng, 1))
    k = path_major(terminal_flow(chain_spec, chain_spec.dz(states_cm(x)), grid))[0]
    a_nodes = path_major(chain_spec.dz(x[0].T))[..., :2, :2]
    i, j = 10, 40
    kji = np.eye(2)
    for r in range(j - 1, i - 1, -1):
        kji = kji @ (np.eye(2) + grid.dt * a_nodes[r])
    assert np.allclose(k[i], k[j] @ kji, rtol=1e-10)


def _tangent(spec, x0, grid, inc, v):
    """J_N = dX_N/dx0 . v, (B, m+d), as the Euler loop steps it with X."""
    jac = np.repeat(np.asarray(v, dtype=float)[:, None], len(inc), axis=1)
    _euler_nodes(spec, np.asarray(x0, dtype=float), grid, inc, tangent=jac)
    return jac.T


def test_directional_jacobian_linear_exponential(kinetic_spec):
    grid = TimeGrid(1.0, 4096)
    rng = np.random.default_rng(4)
    jac = _tangent(kinetic_spec, [1.0, 0.0], grid, sample_noise(grid, 1, rng, 1),
                   [1.0, 0.0])[0]
    assert np.linalg.norm(jac - KOU_EXP @ [1.0, 0.0]) <= 5e-3


def test_directional_jacobian_constant_for_zero_drift():
    spec = _zero_drift_spec()
    grid = TimeGrid(1.0, 32)
    rng = np.random.default_rng(5)
    v = np.array([0.3, -1.0, 0.5])
    jac = _tangent(spec, np.zeros(3), grid, sample_noise(grid, 2, rng, 1), v)
    assert np.array_equal(jac, v[None])


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_directional_jacobian_linearity(a, b):
    if abs(a) + abs(b) < 1e-3:
        return
    spec = builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4"})
    grid = TimeGrid(0.5, 32)
    rng = np.random.default_rng(6)
    x0, inc = np.array([0.4, -0.3]), sample_noise(grid, 1, rng, 1)
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.0, 1.0])
    j1 = _tangent(spec, x0, grid, inc, v1)
    j2 = _tangent(spec, x0, grid, inc, v2)
    j = _tangent(spec, x0, grid, inc, a * v1 + b * v2)
    assert np.allclose(j, a * j1 + b * j2, rtol=1e-12, atol=1e-14)


def test_linear_model_jacobian_noise_independent(chain_spec):
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(7)
    noise = sample_noise(grid, 1, rng, n_paths=8)
    jac = _tangent(chain_spec, np.zeros(3), grid, noise, [1.0, 0.5, -0.2])
    spread = np.max(np.abs(jac - jac[0]))
    assert spread <= 1e-12


def test_strong_convergence_order_one(kinetic_spec):
    # dyadic refinement with bridge-consistent noise: the path error, averaged
    # over 32 paths, halves per refinement (strong order 1 for additive noise)
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(8)
    nums, dens = [], []
    for _ in range(32):
        noise = sample_noise(grid, 1, rng, 1)
        fine1, grid1 = refine_noise(noise, grid, rng)
        fine2, grid2 = refine_noise(fine1, grid1, rng)
        x0 = np.array([1.0, 0.0])
        e0 = simulate_path(kinetic_spec, x0, grid, noise)[0, -1]
        e1 = simulate_path(kinetic_spec, x0, grid1, fine1)[0, -1]
        e2 = simulate_path(kinetic_spec, x0, grid2, fine2)[0, -1]
        nums.append(np.linalg.norm(e1 - e2))
        dens.append(np.linalg.norm(e0 - e1))
    assert 0.3 <= np.mean(nums) / np.mean(dens) <= 0.7


def test_refined_noise_consistency():
    grid = TimeGrid(1.0, 16)
    rng = np.random.default_rng(9)
    noise = sample_noise(grid, 2, rng, 1)
    fine, fgrid = refine_noise(noise, grid, rng)
    assert fgrid.n_steps == 32
    paired = fine.reshape(1, 16, 2, 2).sum(axis=2)
    assert np.allclose(paired, noise, atol=1e-15)


def test_invalid_path_detection():
    spec = builtin_model("hamiltonian", {"v_expr": "-10*x1^4"})  # explosive
    grid = TimeGrid(5.0, 64)
    x = simulate_path(spec, np.array([3.0, 3.0]), grid,
                      np.zeros((1, 64, 1)))
    assert not valid_mask(x)[0]


def test_full_jacobian_flow_matches_directional(hamiltonian_spec):
    grid = TimeGrid(0.5, 32)
    rng = np.random.default_rng(10)
    x0, inc = np.array([0.4, -0.3]), sample_noise(grid, 1, rng, 1)
    x = simulate_path(hamiltonian_spec, x0, grid, inc)
    phi = path_major(full_jacobian_flow(hamiltonian_spec.dz(states_cm(x)), grid))[0]
    v = np.array([0.7, 0.2])
    jac = _tangent(hamiltonian_spec, x0, grid, inc, v)
    assert np.allclose(phi[-1] @ v, jac[0], rtol=1e-12)
    # the one-pass tangent has the bits of a second pass over stored states
    assert same_bytes(jac, directional_jacobian(hamiltonian_spec, x, grid, v))


def test_single_path_flow_shapes(kinetic_spec):
    grid = TimeGrid(1.0, 32)
    rng = np.random.default_rng(11)
    noise = sample_noise(grid, 1, rng, 1)
    x = simulate_path(kinetic_spec, np.array([1.0, 0.0]), grid, noise)
    k = terminal_flow(kinetic_spec, kinetic_spec.dz(states_cm(x)), grid)
    jac = _tangent(kinetic_spec, [1.0, 0.0], grid, noise, [1.0, 0.0])
    assert valid_mask(x).tolist() == [True]
    assert x.shape == (1, 33, 2)
    assert k.shape == (1, 1, 33, 1)                # node-major (m, m, N+1, B)
    assert jac.shape == (1, 2)
    assert np.array_equal(k[:, :, -1, 0], np.eye(1))


def test_single_path_increments_rejected(kinetic_spec):
    # one path is a batch of one; an (N, d) array is refused, not misread
    with pytest.raises(ConfigurationError, match="increments must be"):
        simulate_path(kinetic_spec, np.zeros(2), TimeGrid(1.0, 8), np.zeros((8, 1)))


def _simulate_path_major(spec, x0, grid, inc):
    # reference: the path-major Euler loop, state buffer (B, N+1, n)
    x = np.empty((inc.shape[0], grid.n_steps + 1, spec.dim))
    x[:, 0] = x0
    kicks = inc @ spec.sigma.T
    for i in range(grid.n_steps):
        xi = x[:, i]
        x[:, i + 1] = xi + spec.drift(xi.T).T * grid.dt
        x[:, i + 1, spec.m:] += kicks[:, i]
    return x


@pytest.mark.parametrize("params", [
    {"v_expr": "0.5*x1^2 + 0.1*x1^4"},
    {"v_expr": "0.5*x1^2 + 0.3*x2^2 + 0.1*x1*x2^3", "m": 2, "friction": 0.4,
     "sigma": [[1.0, 0.2], [0.3, 0.8]]},
])
def test_simulate_path_matches_path_major_loop(params):
    # 65 steps: two 32-node blocks and a one-node block, whose kicks come
    # from the last 32-node window
    spec = builtin_model("hamiltonian", params)
    rng = np.random.default_rng(12)
    x0 = rng.standard_normal(spec.dim)
    for n_paths, n_steps in ((1, 24), (2, 24), (37, 24), (1, 65), (37, 65)):
        grid = TimeGrid(0.5, n_steps)
        inc = rng.standard_normal((n_paths, n_steps, spec.d)) * np.sqrt(grid.dt)
        ref = _simulate_path_major(spec, x0, grid, inc)
        got = simulate_path(spec, x0, grid, inc)
        assert got.shape == ref.shape
        assert states_cm(got).flags.c_contiguous     # the chain reads it without a copy
        assert np.ascontiguousarray(got).tobytes() == ref.tobytes()
        one = simulate_path(spec, x0, grid, inc[:1])
        assert one.shape == (1, n_steps + 1, spec.dim)
        assert np.ascontiguousarray(one).tobytes() == ref[:1].tobytes()
        # X_N alone, stepped on one running slab, has the last node's bits
        last = _euler_nodes(spec, x0, grid, inc)
        assert last.shape == (spec.dim, 1, n_paths)
        assert np.ascontiguousarray(last[:, 0].T).tobytes() == ref[:, -1].tobytes()


def test_euler_terminal_mask_is_whole_path_mask(anticipative_spec):
    # a step adds to every entry, so a path that blows up mid-way ends
    # non-finite: the mask of X_N alone is the whole path's
    spec, grid = anticipative_spec, TimeGrid(0.5, 32)
    inc = np.random.default_rng(4).standard_normal((9, 32, 1)) * np.sqrt(grid.dt)
    inc[5, 3, 0] = 1e120                # x2 jumps, then x1^3 in the drift overflows
    x0 = np.array([0.3, -0.2])
    states = simulate_path(spec, x0, grid, inc)
    assert np.isfinite(states[5, :6]).all() and not np.isfinite(states[5, 6]).all()
    last = _euler_nodes(spec, x0, grid, inc)[:, 0].T
    assert np.array_equal(valid_mask(last[:, None]), valid_mask(states))
    assert np.flatnonzero(~valid_mask(states)).tolist() == [5]
    assert same_bytes(np.ascontiguousarray(last), np.ascontiguousarray(states[:, -1]))


def test_valid_mask_finds_nan_in_time_major_view():
    buf = np.zeros((17, 9, 2))                   # (N+1, B, n), read through a strided view
    buf[5, 6, 1] = np.nan
    view = np.swapaxes(buf, 0, 1)
    expected = np.ones(9, dtype=bool)
    expected[6] = False
    assert np.array_equal(valid_mask(view), expected)
    assert np.array_equal(valid_mask(np.ascontiguousarray(view)), expected)
    assert not valid_mask(view[6]) and valid_mask(view[0])


MASS_M1 = {"builtin": "hamiltonian",
           "params": {"v_expr": "0.5*x1^2 + 0.1*x1^4", "mass_expr": "1 + 0.2*x1^2",
                      "c_mass": 1.0}}
# m = 2 with a full d1Z1: every entry of a K product is a rounded sum
CUSTOM_M2 = {"custom": {"m": 2, "d": 2,
                        "z1": ["x3 + 0.3*x1*x4 + 0.2*x2*x4", "x4 + 0.2*x2^2 + 0.1*x1*x3"],
                        "z2": ["-x1 - x3", "-x2 - 0.5*x4 + 0.1*x1^2"],
                        "sigma": [[1.0, 0.2], [0.0, 0.8]],
                        "b0": [[1.0, 0.1], [0.0, 1.0]], "epsilon": 0.5}}


def _flow_case(model_cfg, grid, n_paths, rng):
    """The model of ``model_cfg`` and the node Jacobian of ``n_paths`` Euler paths."""
    spec = build_model(model_cfg)
    inc = rng.standard_normal((n_paths, grid.n_steps, spec.d)) * np.sqrt(grid.dt)
    x = simulate_path(spec, rng.standard_normal(spec.dim), grid, inc)
    return spec, spec.dz(states_cm(x))


@pytest.mark.parametrize("params", [
    MASS_M1,
    {"builtin": "hamiltonian",
     "params": {"v_expr": "0.5*x1^2 + 0.3*x2^2 + 0.1*x1*x2^3", "m": 2, "friction": 0.4,
                "sigma": [[1.0, 0.2], [0.3, 0.8]]}},
    CUSTOM_M2,
])
def test_flows_match_path_major_loops(params):
    # both flows step node slabs in place and return node-major arrays
    # with the bits of the path-major loops
    grid = TimeGrid(0.5, 24)
    rng = np.random.default_rng(13)
    for n_paths in (1, 7, 37):
        spec, jac = _flow_case(params, grid, n_paths, rng)
        phi = full_jacobian_flow(jac, grid)
        assert phi.shape == (spec.dim, spec.dim, 25, n_paths) and phi.flags.c_contiguous
        ref = reference_full_jacobian_flow(path_major(jac), grid)
        assert same_bytes(np.ascontiguousarray(path_major(phi)), ref)
        k = terminal_flow(spec, jac, grid)
        assert k.shape == (spec.m, spec.m, 25, n_paths) and k.flags.c_contiguous
        ref = reference_terminal_flow(spec, path_major(jac), grid)
        assert same_bytes(np.ascontiguousarray(path_major(k)), ref)


@pytest.mark.parametrize("model", [MASS_M1, CUSTOM_M2], ids=["m1", "m2"])
def test_flows_stay_within_round_off_of_matmul_stepping(model):
    # the einsum steps sum each product in order, where the per-member BLAS
    # products they replaced may not; over these N = 256 steps Phi moves by
    # 10.5 eps max|Phi| (m = 1) and 10.4 (m = 2), K by 7.0 eps max|K| (m = 2)
    grid = TimeGrid(0.5, 256)
    spec, jac = _flow_case(model, grid, 64, np.random.default_rng(13))
    eps = np.finfo(float).eps
    phi = path_major(full_jacobian_flow(jac, grid))
    ref = reference_full_jacobian_flow(path_major(jac), grid, np.matmul)
    assert np.max(np.abs(phi - ref)) <= 64 * eps * np.max(np.abs(ref))
    k = path_major(terminal_flow(spec, jac, grid))
    ref = reference_terminal_flow(spec, path_major(jac), grid, np.matmul)
    assert np.max(np.abs(k - ref)) <= 64 * eps * np.max(np.abs(ref))


@pytest.mark.parametrize("n_nodes", [2, 32, 33, 34, 64, 65])
def test_full_jacobian_flow_block_edges(n_nodes):
    # Phi is stepped node by node on slabs of a narrower path slice of the
    # node Jacobian: it keeps the bits of the sequential path-major loop
    # around 32-node edges, and a path alone has the bits it has inside a batch
    grid = TimeGrid(0.5, n_nodes - 1)
    rng = np.random.default_rng(n_nodes)
    for n in (2, 3):
        jac = rng.standard_normal((n, n, n_nodes, 37))
        for n_paths in (1, 7, 37):
            phi = full_jacobian_flow(jac[..., :n_paths], grid)
            ref = reference_full_jacobian_flow(path_major(jac[..., :n_paths]), grid)
            assert same_bytes(np.ascontiguousarray(path_major(phi)), ref)
            last = n_paths - 1
            alone = full_jacobian_flow(np.ascontiguousarray(jac[..., last:last + 1]), grid)
            assert same_bytes(alone, np.ascontiguousarray(phi[..., last:last + 1]))
