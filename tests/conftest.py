import numpy as np
import pytest

from hypograd import control, estimator
from hypograd.control import build_alpha, build_bridge, phi_parabolic, xi_case1
from hypograd.exprdrift import DriftExpr
from hypograd.flow import simulate_path, terminal_flow
from hypograd.model import builtin_model


@pytest.fixture(scope="session")
def kinetic_spec():
    return builtin_model("kinetic_ou", {"m": 1})


@pytest.fixture(scope="session")
def chain_spec():
    # integrator chain with Kalman index k = 1
    return builtin_model("integrator_chain", {"a": [[0.0, 1.0], [0.0, 0.0]],
                                              "b0": [[0.0], [1.0]]})


@pytest.fixture(scope="session")
def hamiltonian_spec():
    # the nonlinear-potential, unit-mass model: constant jac_z1, adapted
    return builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4"})


@pytest.fixture(scope="session")
def anticipative_spec():
    # state-dependent mass: jac_z1 varies along paths, the control anticipates
    return builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4",
                                         "mass_expr": "1 + 0.2*x1^2",
                                         "c_mass": 1.0})


def control_chain_hdot(spec, x0, grid, increments, v, profile):
    """Full deterministic chain increments -> hdot for a batch of paths."""
    states = simulate_path(spec, x0, grid, increments)
    jac = spec.dz(states)
    k = terminal_flow(spec, jac, grid)
    ad = build_alpha(spec, jac, k, grid, v, profile)
    _, h_dot, _ = build_bridge(spec, jac, ad, grid, v)
    return h_dot


def brute_force_divergence(spec, x0, grid, increments, v, profile, eta=1e-6):
    """Skorokhod divergence by brute-force bumping of every increment.

    delta = sum <hdot, dW> - dt * sum_i,l d hdot[i,l]/d dW[i,l], with the
    derivative taken by central differences through the whole chain.  The
    independent oracle for the factored implementation; ``increments`` is a
    batch of one path, (1, N, d).
    """
    h_dot = control_chain_hdot(spec, x0, grid, increments, v, profile)
    base = float(np.sum(h_dot * increments))
    trace = 0.0
    _, n_steps, d = increments.shape
    for i in range(n_steps):
        for l in range(d):
            wp = increments.copy()
            wp[0, i, l] += eta
            wm = increments.copy()
            wm[0, i, l] -= eta
            hp = control_chain_hdot(spec, x0, grid, wp, v, profile)
            hm = control_chain_hdot(spec, x0, grid, wm, v, profile)
            trace += (hp[0, i, l] - hm[0, i, l]) / (2.0 * eta)
    return base - grid.dt * trace


def case1_profile(spec, t_final, c_bound=0.0):
    return xi_case1(spec.b0, phi_parabolic(t_final), c_bound, t_final)


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def wide_values(n, seed):
    """n nonzero floats spanning 1e-300 to 1e300, both signs, 2% subnormal."""
    rng = np.random.default_rng(seed)
    vals = 10.0 ** rng.uniform(-300.0, 300.0, n) * rng.choice([-1.0, 1.0], n)
    n_sub = n // 50
    vals[rng.permutation(n)[:n_sub]] = (rng.choice([-1.0, 1.0], n_sub)
                                        * rng.integers(1, 2**52, n_sub) * 5e-324)
    return vals


def pinv_stack_lapack(mats, rcond=1e-13):
    """Guarded inverse with LAPACK's batched LU for 1x1 and larger stacks
    (reference).

    2x2 stacks go through ``estimator._inv``'s closed form, which has no
    LAPACK counterpart bit for bit; a 1x1 stack is LAPACK's own, so the
    element-wise 1x1 inverse is checked against LAPACK's bits.
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    finite = np.isfinite(mats).all(axis=(-2, -1))
    bad = ~finite
    safe = np.where(bad[..., None, None], np.eye(n), mats) if bad.any() else mats
    if n == 2:
        inv, singular = estimator._inv(safe)
        bad |= singular
    else:
        try:
            inv = np.linalg.inv(safe)
        except np.linalg.LinAlgError:
            det = np.linalg.det(safe)
            bad |= ~np.isfinite(det) | (det == 0.0)
            safe = np.where(bad[..., None, None], np.eye(n), mats)
            inv = np.linalg.inv(safe)
    with np.errstate(over="ignore", invalid="ignore"):
        bad |= ~(n * estimator._norm1(safe) * estimator._norm1(inv) < 1.0 / rcond)
    if bad.any():
        inv[bad] = np.nan
        redo = bad & finite
        inv[redo] = estimator._svd_pinv(mats[redo], rcond)
    return inv


def guarded_solve_lapack(mats, rhs):
    """Guarded solve with LAPACK for every size (reference).

    An exactly singular member fails the whole stack here.
    """
    m = mats.shape[-1]
    rhs_col = rhs[..., None]
    with np.errstate(all="ignore"):
        try:
            sol = np.linalg.solve(mats, rhs_col)[..., 0]
        except np.linalg.LinAlgError:
            sol = np.full(rhs.shape, np.nan)
    scale = np.linalg.norm(rhs, axis=-1) + 1e-300
    resid = np.linalg.norm(np.einsum("...ab,...b->...a", mats, np.nan_to_num(sol))
                           - rhs, axis=-1) / scale
    bad = ~np.isfinite(sol).all(axis=-1) | (resid > control._SOLVE_RESIDUAL_TOL)
    if np.any(bad):
        tr = np.einsum("...aa->...", mats)
        reg = mats + (control._REG_SCALE * tr / m)[..., None, None] * np.eye(m)
        with np.errstate(all="ignore"):
            try:
                sol2 = np.linalg.solve(reg, rhs_col)[..., 0]
            except np.linalg.LinAlgError:
                sol2 = np.full(rhs.shape, np.nan)
        resid2 = np.linalg.norm(np.einsum("...ab,...b->...a", mats,
                                          np.nan_to_num(sol2)) - rhs,
                                axis=-1) / scale
        ok2 = np.isfinite(sol2).all(axis=-1) & (resid2 <= control._SOLVE_RESIDUAL_TOL)
        sol = np.where((bad & ok2)[..., None], sol2, sol)
        bad = bad & ~ok2
    sol = np.where(bad[..., None], 0.0, np.nan_to_num(sol))
    return sol, ~bad


def reference_blocks(spec):
    """Block callables (z1, z2, jac_z1, jac_z2) as the model builders used to
    pass them: numpy closures for the affine built-ins, and for expression
    models one ``DriftExpr`` per block."""
    m, n = spec.m, spec.dim
    if spec.name in ("kinetic_ou", "integrator_chain"):
        shp = lambda x: np.asarray(x).shape[:-1]
        g = spec.drift_matrix
        blocks = (g[:m, :m], g[:m, m:], g[m:, :m], g[m:, m:])
        jac_z1 = lambda x: (np.broadcast_to(blocks[0], shp(x) + (m, m)),
                            np.broadcast_to(blocks[1], shp(x) + (m, spec.d)))
        jac_z2 = lambda x: (np.broadcast_to(blocks[2], shp(x) + (spec.d, m)),
                            np.broadcast_to(blocks[3], shp(x) + (spec.d, spec.d)))
        if spec.name == "kinetic_ou":
            k_mat, g_mat = -g[m:, :m], -g[m:, m:]
            z1 = lambda x: np.asarray(x, dtype=float)[..., m:]
            z2 = lambda x: -x[..., :m] @ k_mat.T - x[..., m:] @ g_mat.T
        else:
            z1_lin, z2_lin = g[:m], g[m:]
            off = spec.params.get("z2_off")
            z2_off = np.zeros(spec.d) if off is None else np.asarray(off, dtype=float).ravel()
            z1 = lambda x: np.asarray(x, dtype=float) @ z1_lin.T
            z2 = lambda x: np.asarray(x, dtype=float) @ z2_lin.T + z2_off
        return z1, z2, jac_z1, jac_z2
    comps = spec.z.__self__.components
    e1, e2 = DriftExpr(comps[:m], n), DriftExpr(comps[m:], n)

    def jac_z1(x):
        j = e1.jacobian(x)
        return j[..., :m], j[..., m:]

    def jac_z2(x):
        j = e2.jacobian(x)
        return j[..., :m], j[..., m:]

    return e1.value, e2.value, jac_z1, jac_z2


def reference_drift(spec, x):
    """Full drift by concatenating the blocks (the former ``ModelSpec.drift``)."""
    z1, z2, _, _ = reference_blocks(spec)
    x = np.asarray(x, dtype=float)
    return np.concatenate([z1(x), z2(x)], axis=-1)


def reference_full_jacobian(spec, x):
    """Full Jacobian from the four blocks (the former ``ModelSpec.full_jacobian``)."""
    _, _, jac_z1, jac_z2 = reference_blocks(spec)
    j11, j12 = jac_z1(x)
    j21, j22 = jac_z2(x)
    top = np.concatenate([j11, j12], axis=-1)
    bot = np.concatenate([j21, j22], axis=-1)
    return np.concatenate([top, bot], axis=-2)
