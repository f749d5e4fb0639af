import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hypograd.flow import (NoisePath, TimeGrid, directional_jacobian,
                           first_bad_step, full_jacobian_flow, refine_noise,
                           sample_noise, simulate_path, terminal_flow,
                           valid_mask)
from hypograd.model import ModelSpec, builtin_model

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

    def z1(x):
        return np.zeros(np.asarray(x).shape[:-1] + (m,))

    def z2(x):
        return np.zeros(np.asarray(x).shape[:-1] + (d,))

    def jac_z1(x):
        shp = np.asarray(x).shape[:-1]
        return np.zeros(shp + (m, m)), np.zeros(shp + (m, d))

    def jac_z2(x):
        shp = np.asarray(x).shape[:-1]
        return np.zeros(shp + (d, m)), np.zeros(shp + (d, d))

    return ModelSpec(m=m, d=d, z1=z1, z2=z2, jac_z1=jac_z1, jac_z2=jac_z2,
                     sigma=2.0 * np.eye(d), b0=np.ones((m, d)), epsilon=0.0)


def test_zero_drift_zero_noise_constant_path():
    spec = _zero_drift_spec()
    grid = TimeGrid(1.0, 16)
    x0 = np.array([0.3, -0.2, 1.0])
    x = simulate_path(spec, x0, grid, NoisePath(np.zeros((16, 2))))
    assert np.array_equal(x, np.tile(x0, (17, 1)))


def test_single_step_pure_diffusion():
    # one step, Z = 0, sigma = 2I, dB = ones: the degenerate block is untouched
    spec = _zero_drift_spec()
    grid = TimeGrid(0.5, 1)
    inc = np.ones((1, 2))
    x = simulate_path(spec, np.zeros(3), grid, NoisePath(inc))
    assert np.array_equal(x[1], [0.0, 2.0, 2.0])


def test_kinetic_ou_deterministic_flow_matches_expm():
    spec = builtin_model("kinetic_ou", {"m": 1})
    grid = TimeGrid(1.0, 4096)
    x = simulate_path(spec, np.array([1.0, 0.0]), grid,
                      NoisePath(np.zeros((4096, 1))))
    assert np.linalg.norm(x[-1] - KOU_EXP @ [1.0, 0.0]) <= 5e-3


def test_terminal_flow_identity_when_a_zero(kinetic_spec):
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(0)
    x = simulate_path(kinetic_spec, np.zeros(2), grid,
                      sample_noise(grid, 1, rng))
    k = terminal_flow(kinetic_spec, x, grid)
    assert np.array_equal(k, np.ones((65, 1, 1)))


def test_terminal_flow_nilpotent_constant_a(chain_spec):
    # d1Z1 = [[0,1],[0,0]] nilpotent: K(T,0) = exp(T A) = I + T A exactly
    grid = TimeGrid(1.0, 4096)
    rng = np.random.default_rng(1)
    x = simulate_path(chain_spec, np.zeros(3), grid, sample_noise(grid, 1, rng))
    k = terminal_flow(chain_spec, x, grid)
    assert np.allclose(k[0], [[1.0, 1.0], [0.0, 1.0]], atol=1e-3)
    assert np.array_equal(k[-1], np.eye(2))


def test_discrete_cocycle_reconstruction(chain_spec):
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(2)
    x = simulate_path(chain_spec, np.array([0.2, -0.1, 0.4]), grid,
                      sample_noise(grid, 1, rng))
    k = terminal_flow(chain_spec, x, grid)
    a_nodes, _ = chain_spec.jac_z1(x)
    for i in [0, 13, 64, 127]:
        p_i = np.eye(2) + grid.dt * a_nodes[i]
        recon = k[i + 1] @ p_i
        assert np.linalg.norm(recon - k[i]) <= 1e-12 * max(1, np.linalg.norm(k[i]))


def test_cocycle_spot_products(chain_spec):
    # K(T,t_i) = K(T,t_j) K(t_j,t_i) for the same discrete per-step products
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(3)
    x = simulate_path(chain_spec, np.zeros(3), grid, sample_noise(grid, 1, rng))
    k = terminal_flow(chain_spec, x, grid)
    a_nodes, _ = chain_spec.jac_z1(x)
    i, j = 10, 40
    kji = np.eye(2)
    for r in range(j - 1, i - 1, -1):
        kji = kji @ (np.eye(2) + grid.dt * a_nodes[r])
    assert np.allclose(k[i], k[j] @ kji, rtol=1e-10)


def test_directional_jacobian_linear_exponential(kinetic_spec):
    grid = TimeGrid(1.0, 4096)
    rng = np.random.default_rng(4)
    x = simulate_path(kinetic_spec, np.array([1.0, 0.0]), grid,
                      sample_noise(grid, 1, rng))
    jac = directional_jacobian(kinetic_spec, x, grid, np.array([1.0, 0.0]))
    assert np.linalg.norm(jac[-1] - KOU_EXP @ [1.0, 0.0]) <= 5e-3


def test_directional_jacobian_constant_for_zero_drift():
    spec = _zero_drift_spec()
    grid = TimeGrid(1.0, 32)
    rng = np.random.default_rng(5)
    x = simulate_path(spec, np.zeros(3), grid, sample_noise(grid, 2, rng))
    v = np.array([0.3, -1.0, 0.5])
    jac = directional_jacobian(spec, x, grid, v)
    assert np.array_equal(jac, np.tile(v, (33, 1)))


@settings(max_examples=20, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_directional_jacobian_linearity(a, b):
    if abs(a) + abs(b) < 1e-3:
        return
    spec = builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4"})
    grid = TimeGrid(0.5, 32)
    rng = np.random.default_rng(6)
    x = simulate_path(spec, np.array([0.4, -0.3]), grid, sample_noise(grid, 1, rng))
    v1 = np.array([1.0, 0.0])
    v2 = np.array([0.0, 1.0])
    j1 = directional_jacobian(spec, x, grid, v1)
    j2 = directional_jacobian(spec, x, grid, v2)
    j = directional_jacobian(spec, x, grid, a * v1 + b * v2)
    assert np.allclose(j, a * j1 + b * j2, rtol=1e-12, atol=1e-14)


def test_linear_model_jacobian_noise_independent(chain_spec):
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(7)
    noise = sample_noise(grid, 1, rng, n_paths=8)
    x = simulate_path(chain_spec, np.zeros(3), grid, noise)
    jac = directional_jacobian(chain_spec, x, grid, np.array([1.0, 0.5, -0.2]))
    spread = np.max(np.abs(jac[:, -1] - jac[0, -1]))
    assert spread <= 1e-12


def test_strong_convergence_order_one(kinetic_spec):
    # dyadic refinement with bridge-consistent noise: the path error, averaged
    # over 32 paths, halves per refinement (strong order 1 for additive noise)
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(8)
    nums, dens = [], []
    for _ in range(32):
        noise = sample_noise(grid, 1, rng)
        fine1, grid1 = refine_noise(noise, grid, rng)
        fine2, grid2 = refine_noise(fine1, grid1, rng)
        x0 = np.array([1.0, 0.0])
        e0 = simulate_path(kinetic_spec, x0, grid, noise)[-1]
        e1 = simulate_path(kinetic_spec, x0, grid1, fine1)[-1]
        e2 = simulate_path(kinetic_spec, x0, grid2, fine2)[-1]
        nums.append(np.linalg.norm(e1 - e2))
        dens.append(np.linalg.norm(e0 - e1))
    assert 0.3 <= np.mean(nums) / np.mean(dens) <= 0.7


def test_refined_noise_consistency():
    grid = TimeGrid(1.0, 16)
    rng = np.random.default_rng(9)
    noise = sample_noise(grid, 2, rng)
    fine, fgrid = refine_noise(noise, grid, rng)
    assert fgrid.n_steps == 32
    paired = fine.increments.reshape(16, 2, 2).sum(axis=1)
    assert np.allclose(paired, noise.increments, atol=1e-15)


def test_invalid_path_detection():
    spec = builtin_model("hamiltonian", {"v_expr": "-10*x1^4"})  # explosive
    grid = TimeGrid(5.0, 64)
    x = simulate_path(spec, np.array([3.0, 3.0]), grid,
                      NoisePath(np.zeros((64, 1))))
    assert not valid_mask(x)
    assert first_bad_step(x) > 0


def test_full_jacobian_flow_matches_directional(hamiltonian_spec):
    grid = TimeGrid(0.5, 32)
    rng = np.random.default_rng(10)
    x = simulate_path(hamiltonian_spec, np.array([0.4, -0.3]), grid,
                      sample_noise(grid, 1, rng))
    phi = full_jacobian_flow(hamiltonian_spec, x, grid)
    v = np.array([0.7, 0.2])
    jac = directional_jacobian(hamiltonian_spec, x, grid, v)
    assert np.allclose(phi[-1] @ v, jac[-1], rtol=1e-12)


def test_single_path_flow_shapes(kinetic_spec):
    grid = TimeGrid(1.0, 32)
    rng = np.random.default_rng(11)
    noise = sample_noise(grid, 1, rng)
    x = simulate_path(kinetic_spec, np.array([1.0, 0.0]), grid, noise)
    k = terminal_flow(kinetic_spec, x, grid)
    jac = directional_jacobian(kinetic_spec, x, grid, np.array([1.0, 0.0]))
    assert bool(valid_mask(x))
    assert x.shape == (33, 2)
    assert k.shape == (33, 1, 1)
    assert jac.shape == (33, 2)
    assert np.array_equal(k[-1], np.eye(1))


def _simulate_path_major(spec, x0, grid, inc):
    # reference: the path-major Euler loop, state buffer (B, N+1, n)
    x = np.empty((inc.shape[0], grid.n_steps + 1, spec.dim))
    x[:, 0] = x0
    kicks = inc @ spec.sigma.T
    for i in range(grid.n_steps):
        xi = x[:, i]
        x[:, i + 1] = xi + spec.drift(xi) * grid.dt
        x[:, i + 1, spec.m:] += kicks[:, i]
    return x


@pytest.mark.parametrize("params", [
    {"v_expr": "0.5*x1^2 + 0.1*x1^4"},
    {"v_expr": "0.5*x1^2 + 0.3*x2^2 + 0.1*x1*x2^3", "m": 2, "friction": 0.4,
     "sigma": [[1.0, 0.2], [0.3, 0.8]]},
])
def test_simulate_path_matches_path_major_loop(params):
    spec = builtin_model("hamiltonian", params)
    grid = TimeGrid(0.5, 24)
    rng = np.random.default_rng(12)
    x0 = rng.standard_normal(spec.dim)
    for n_paths in (1, 2, 37):
        inc = rng.standard_normal((n_paths, 24, spec.d)) * np.sqrt(grid.dt)
        ref = _simulate_path_major(spec, x0, grid, inc)
        got = simulate_path(spec, x0, grid, NoisePath(inc))
        assert got.shape == ref.shape
        assert np.ascontiguousarray(got).tobytes() == ref.tobytes()
        one = simulate_path(spec, x0, grid, NoisePath(inc[0]))
        assert one.shape == (25, spec.dim)
        assert np.ascontiguousarray(one).tobytes() == ref[0].tobytes()


def test_valid_mask_finds_nan_in_time_major_view():
    buf = np.zeros((17, 9, 2))                   # (N+1, B, n), as simulated
    buf[5, 6, 1] = np.nan
    view = np.swapaxes(buf, 0, 1)
    expected = np.ones(9, dtype=bool)
    expected[6] = False
    assert np.array_equal(valid_mask(view), expected)
    assert np.array_equal(valid_mask(np.ascontiguousarray(view)), expected)
    assert not valid_mask(view[6]) and valid_mask(view[0])
