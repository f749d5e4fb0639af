import numpy as np
import pytest
from scipy.linalg import expm

from hypograd import control
from hypograd.control import AlphaData, build_alpha, build_bridge, phi_parabolic, xi_case1
from hypograd.errors import ConfigurationError, MethodMisuseError
from hypograd.exprdrift import DriftExpr
from hypograd.flow import TimeGrid, simulate_path, terminal_flow
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


def states_cm(x):
    """Component-first (n, B, N+1) view of (B, N+1, n) states, the layout the
    model callables and the control chain take."""
    return np.moveaxis(x, -1, 0)


def path_major(a, k=2):
    """(B, N+1, components...) view of a component-major array whose first
    ``k`` axes are components."""
    return np.moveaxis(a, tuple(range(k)), tuple(range(-k, 0)))


def comp_major(a, k=2):
    """Component-major view of an array whose last ``k`` axes are components."""
    return np.moveaxis(a, tuple(range(-k, 0)), tuple(range(k)))


def sample_noise(grid, d, rng, n_paths):
    """Draw (n_paths, N, d) Brownian increments from a numpy Generator."""
    return rng.standard_normal((n_paths, grid.n_steps, d)) * np.sqrt(grid.dt)


def directional_jacobian(spec, states, grid, v):
    """Terminal directional derivative J_N = dX_N/dx0 . v, (B, m+d), by a
    second forward pass over stored states (B, N+1, m+d): J_{i+1} =
    (I + dt dZ(X_i)) J_i with J_0 = v.  Reference for the tangent that
    ``flow._euler_nodes`` steps with X in one pass."""
    v = np.asarray(v, dtype=float).ravel()
    x = np.moveaxis(np.asarray(states, dtype=float), -1, 0)
    jac = np.repeat(v[:, None], x.shape[1], axis=1)
    dt = grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(x.shape[-1] - 1):
            g = spec.full_jacobian(x[..., i])
            jac = jac + dt * np.einsum("abp,bp->ap", g, jac)
    return jac.T


def refine_noise(inc, grid, rng):
    """Split each increment into two bridge-consistent halves.

    The fine path agrees with the coarse one at the coarse nodes: a coarse
    increment w over dt becomes the pair (w/2 + z, w/2 - z) with
    z ~ N(0, dt/4), the conditional law of the midpoint.  Returns the
    refined (increments, TimeGrid) pair.
    """
    inc = np.asarray(inc, dtype=float)
    z = rng.standard_normal(inc.shape) * (0.5 * np.sqrt(grid.dt))
    halves = np.stack([0.5 * inc + z, 0.5 * inc - z], axis=-2)  # (..., N, 2, d)
    fine = halves.reshape(inc.shape[:-2] + (2 * inc.shape[-2], inc.shape[-1]))
    return fine, TimeGrid(t_final=grid.t_final, n_steps=2 * grid.n_steps)


def control_chain_hdot(spec, x0, grid, increments, v, profile):
    """Full deterministic chain increments -> hdot (B, N, d) for a batch of paths."""
    states = simulate_path(spec, x0, grid, increments)
    jac = spec.dz(states_cm(states))
    k = terminal_flow(spec, jac, grid)
    ad = build_alpha(spec, jac, k, grid, v, profile)
    _, h_dot, _ = build_bridge(spec, jac, ad, grid, v)
    return path_major(h_dot, 1)


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


def pinv_stack_lapack(mats):
    """Inverse of a path-major (..., n, n) stack and the mask of the members
    it flags, with LAPACK's batched LU for 1x1 and larger stacks (reference).

    2x2 stacks go through ``control._inv``'s closed form, which has no
    LAPACK counterpart bit for bit; a 1x1 stack is LAPACK's own, so the
    element-wise 1x1 inverse is checked against LAPACK's bits.  Flagged
    members (not finite, determinant 0 or not finite, n cond_1 >= 1e13) are
    NaN.
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    bad = ~np.isfinite(mats).all(axis=(-2, -1))
    safe = np.where(bad[..., None, None], np.eye(n), mats) if bad.any() else mats
    if n == 2:
        inv, singular = control._inv(comp_major(safe))
        inv = np.ascontiguousarray(path_major(inv))
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
        bad |= ~(n * control._norm1(comp_major(safe))
                 * control._norm1(comp_major(inv)) < 1e13)
    inv[bad] = np.nan
    return inv, bad


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

    def value(e):           # path-major states (..., n) through the component-first tape
        return lambda x: np.moveaxis(e.value(np.moveaxis(x, -1, 0)), 0, -1)

    def jac(e):
        def blocks(x):
            j = np.moveaxis(e.jacobian(np.moveaxis(x, -1, 0)), (0, 1), (-2, -1))
            return j[..., :m], j[..., m:]
        return blocks

    return value(e1), value(e2), jac(e1), jac(e2)


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


def in_order_matmul(a, b):
    """a @ b over stacks (..., k, k), each entry summed over the inner index
    in order from 0.0, one rounded product and one rounded sum per term: the
    arithmetic of ``np.einsum("abp,bcp->acp", ...)``."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for j in range(a.shape[-1]):
        out = out + a[..., :, j:j + 1] * b[..., None, j, :]
    return out


def reference_full_jacobian_flow(jac, grid, product=in_order_matmul):
    """Phi_{i+1} = (I + dt dZ(X_i)) Phi_i stepped on a path-major (B, N+1, n, n)
    array, one fresh step matrix per step (reference for
    ``flow.full_jacobian_flow``).  ``product=np.matmul`` gives the per-member
    BLAS stepping the package used before its flows went to ``einsum``."""
    n_paths, n_nodes, n = jac.shape[:3]
    phi = np.empty((n_paths, n_nodes, n, n))
    phi[:, 0] = np.eye(n)
    dt = grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_nodes - 1):
            f_i = np.eye(n) + dt * jac[:, i]
            phi[:, i + 1] = product(f_i, phi[:, i])
    return phi


# ---------------------------------------------------------------------------
# frozen path-major references of the control chain, as it stood before
# the chain went component-major; never regenerate these from the package
# ---------------------------------------------------------------------------

def reference_terminal_flow(spec, jac, grid, product=in_order_matmul):
    """Terminal flow family K(T, t_i), i = 0..N, of the noise-free block.

    Built from per-step propagators P_i = I + dt d1Z1(X_i) by backward
    accumulation K(T, t_i) = K(T, t_{i+1}) P_i, K(T, T) = I, with d1Z1 read
    from the node Jacobian ``jac``.  Stepped in a time-major buffer and
    returned as a contiguous (B, N+1, m, m) array.  (Frozen path-major
    reference for ``flow.terminal_flow``: ``jac`` is (B, N+1, n, n).)
    ``product=np.matmul`` gives the per-member BLAS stepping, whose bits
    the in-order product shares only where no entry sums two nonzero terms
    (m = 1, or a diagonal d1Z1).
    """
    n_paths, n_nodes = jac.shape[:2]
    if n_nodes != grid.n_steps + 1:
        raise ConfigurationError("node Jacobian does not match the grid")
    m, dt = spec.m, grid.dt
    eye = np.eye(m)
    k = np.empty((n_nodes, n_paths, m, m))
    k[-1] = eye
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps - 1, -1, -1):
            k[i] = product(k[i + 1], eye + dt * jac[:, i, :m, :m])
    return np.ascontiguousarray(np.swapaxes(k, 0, 1))  # Gramian products run faster


def reference_gramian_Q(spec, jac, k_flow, phi, grid):
    """Gramian with the full cross Jacobian d2Z1(X_s) in place of B0.

    Not symmetrized: Q_t is not symmetric in general.  Shape (B, N+1, m, m).
    (Frozen path-major reference for ``control.gramian_Q``.)
    """
    m = spec.m
    kc = k_flow @ jac[..., :m, m:]                     # K C
    kb = k_flow @ spec.b0                              # K B0
    integ = phi(grid.nodes)[:, None, None] * (kc @ np.swapaxes(kb, -1, -2)) * grid.dt
    return np.concatenate([np.zeros(jac.shape[:1] + (1, m, m)),
                           np.cumsum(integ[:, :-1], axis=1)], axis=1)


def reference_build_alpha(spec, jac, k_flow, grid, v, profile):
    """Assemble the control alpha on the grid (left-endpoint quadrature).

    alpha_t = (T-t)/T v2
              - phi(t) B0^T K(T,t)^* Q_T^{-1} int_0^T (T-s)/T K(T,s) d2Z1 v2 ds
              - phi(t) B0^T K(T,t)^* [int_t^T xi^2 Q_s^{-1} K(T,0) v1 ds] / int_0^T xi^2 ds

    Boundary values alpha_0 = v2 and alpha_N = 0 hold exactly by
    construction.  Nodes whose discrete Q is numerically singular are
    dropped from the backward sum (their weight is a quadrature artifact of
    phi(0) = 0); drops are counted.

    Frozen path-major reference for ``control.build_alpha``: ``jac`` is
    (B, N+1, n, n), ``k_flow`` (B, N+1, m, m), and the returned fields are
    path-major.  It multiplies by ``pinv_stack_lapack``'s inverses, which
    have the bits of the element-wise 1x1 inverse.
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

    q_path = reference_gramian_Q(spec, jac, k, profile.phi, grid)

    xi_vals = profile.xi_grid(grid)
    xi_eff = np.broadcast_to(xi_vals, (n_paths, n + 1)).copy()
    degenerate = np.zeros(n_paths, dtype=bool)
    dropped = np.zeros(n_paths, dtype=int)

    a_nodes, c_nodes = jac[..., :m, :m], jac[..., :m, m:]

    # second term: p = Q_T^{-1} c2
    kc_v2 = np.einsum("pjik,pjkl,l->pji", k, c_nodes, v2)
    c2_vec = np.einsum("j,pji->pi", w0[:-1] * dt, kc_v2[:, :-1])
    q_inv = np.zeros_like(q_path)
    if np.linalg.norm(v2) > 0:
        inv, degenerate = pinv_stack_lapack(q_path[:, n])
        q_inv[:, n] = np.where(degenerate[:, None, None], 0.0, inv)
        p_vec = np.einsum("pab,pb->pa", q_inv[:, n], c2_vec)
    else:
        p_vec = np.zeros((n_paths, m))

    # third term: u_l = Q_l^{-1} K(T,0) v1 on nodes with xi > 0
    has_v1 = np.linalg.norm(v1) > 0
    if has_v1:
        active = (xi_vals > 0) & (np.arange(n + 1) >= 1) & (np.arange(n + 1) <= n - 1)
        idx = np.nonzero(active)[0]
        if idx.size:
            inv, drop = pinv_stack_lapack(q_path[:, idx])
            q_inv[:, idx] = np.where(drop[..., None, None], 0.0, inv)
            xi_eff[:, idx] = np.where(drop, 0.0, xi_eff[:, idx])
            dropped += drop.sum(axis=1)
    u_nodes = np.einsum("pjab,pb->pja", q_inv[:, :n], np.einsum("pik,k->pi", k[:, 0], v1))
    nu = np.sum(xi_eff[:, :-1] ** 2, axis=1) * dt
    rho = np.zeros((n_paths, n + 1, m))
    if has_v1:
        wgt = (xi_eff[:, :-1, None] ** 2) * u_nodes * dt
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
        kt_u = np.einsum("pjra,pjr->pja", k[:, :-1], u_nodes)
        alpha_dot_an = alpha_dot_an + ((phi_vals[None, :-1] * xi_eff[:, :-1] ** 2
                                        / nu[:, None])[..., None] * kt_u) @ spec.b0
    gap = float(np.max(np.abs(alpha_dot_an - alpha_dot))) if alpha.size else 0.0

    return AlphaData(alpha=alpha, alpha_dot=alpha_dot, alpha_dot_gap=gap, q_path=q_path,
                     xi_vals=xi_vals, xi_eff=xi_eff, nu=nu, q_inv=q_inv, rho=rho,
                     p_vec=p_vec, dropped_nodes=dropped, degenerate=degenerate)


def reference_build_bridge(spec, jac, alpha_data, grid, v):
    """Propagate g and assemble hdot from a built alpha.

    g follows the forward linear ODE g' = d1Z1(X) g + d2Z1(X) alpha with
    g_0 = v1 (Euler, shared grid); hdot_t = sigma^{-1}(dZ2(X_t)(g_t, alpha_t)
    - alpha_dot_t) pointwise on steps.  (Frozen path-major reference for
    ``control.build_bridge``.)
    """
    alpha, alpha_dot = alpha_data.alpha, alpha_data.alpha_dot
    n_paths = jac.shape[0]
    n = grid.n_steps
    dt = grid.dt
    m = spec.m
    v = np.asarray(v, dtype=float).ravel()
    v1, v2 = v[:m], v[m:]

    a_nodes, c_nodes = jac[..., :m, :m], jac[..., :m, m:]
    g = np.empty((n + 1, n_paths, m))                  # time-major, as the Euler loop
    g[0] = v1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            g[i + 1] = g[i] + dt * (np.einsum("pab,pb->pa", a_nodes[:, i], g[i])
                                    + np.einsum("pad,pd->pa", c_nodes[:, i], alpha[:, i]))
    g = np.swapaxes(g, 0, 1)

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


def reference_q_bound_ratio(q_path, xi_grid_vals, epsilon):
    """Worst ratio ||Q_t^{-1}|| * (1 - eps) xi(t) over nodes with xi > 0.

    The bound ||Q_t^{-1}|| <= 1/((1-eps) xi(t)) holds when the ratio is
    <= 1 (up to round-off).  ``q_path``: (B, N+1, m, m); an empty batch
    gives 0.  For m = 1 the smallest singular value is |Q|, LAPACK's bits.
    (Frozen path-major reference for ``control.q_inverse_bound_ratio``.)
    """
    xi = np.asarray(xi_grid_vals, dtype=float)
    active = xi > 0
    if not np.any(active) or len(q_path) == 0:
        return 0.0
    q = q_path[:, active]
    if q.shape[-1] == 1:
        smin = np.abs(q[..., 0, 0])
    else:
        smin = np.linalg.svd(q, compute_uv=False)[..., -1]
    with np.errstate(divide="ignore"):
        ratio = (1.0 - epsilon) * xi[active][None, :] / smin
    return float(np.max(ratio))


def reference_norm2_max(blocks, keep=slice(None)):
    """Largest spectral norm over the square blocks (P, ..., m, m) of the
    paths ``keep`` selects; 0 when it selects none, inf when a block is not
    finite (LAPACK's SVD fails on those).  A 1x1 block's norm is its
    absolute value.  (Frozen path-major reference for
    ``estimator._norm2_max``.)"""
    finite = np.isfinite(blocks).all(axis=(-2, -1))
    if blocks.shape[-1] == 1:
        norms = np.abs(blocks[..., 0, 0])
    else:
        norms = np.full(finite.shape, np.inf)
        norms[finite] = np.linalg.norm(blocks[finite], ord=2, axis=(-2, -1))
    norms[~finite] = np.inf
    per_path = norms.max(axis=tuple(range(1, norms.ndim)))[keep]
    return float(per_path.max()) if per_path.size else 0.0


def reference_hypothesis_checks(spec, jac, ad, res, good):
    """Hypothesis checks on one control chain: bridge residuals,
    ``q_bound_ratio`` and ``c_bound_realized`` over the paths ``good`` keeps;
    ``alpha_dot_gap`` and the dropped-node count over the whole chain.
    (Frozen path-major reference for ``estimator._hypothesis_checks``.)"""
    got = res[good]
    return {"bridge_residuals_max": got.max(axis=0) if got.size else np.zeros(3),
            "alpha_dot_gap": ad.alpha_dot_gap,
            "dropped_nodes_max": int(ad.dropped_nodes.max()),
            "q_bound_ratio": reference_q_bound_ratio(ad.q_path[good], ad.xi_vals,
                                                   spec.epsilon),
            "c_bound_realized": reference_norm2_max(jac[..., :spec.m, :spec.m], good)}


def reference_skorokhod_trace(spec, states, grid, v, profile, ad, k, jac):
    """The path-major Skorokhod trace, every per-node tensor (P, N+1, ...)
    (reference for ``estimator._skorokhod_trace``); its Phi and K inverses
    are ``pinv_stack_lapack``'s, and its Q inverses are ``ad.q_inv``.

    dt * sum_i tr(d hdot_i / d W_i), exact, via factored sensitivities.

    Notation per path: k_i = K(T, t_i), Phi_i the full state-transition
    matrix, Y_i = Phi_{i+1}^{-1} (0, sigma), G_i = (Lambda_{i+1} . Y_i) with
    Lambda the cumulative flow-sensitivity tensor, so that dk_r/dW_i =
    G_i k_r for r <= i+1.  The chain collapses to the single vector

        omega_i = G_i^T p + Dp_i + (DR_i + G_i^T rho_i)/nu,

    through which D alpha_j[i] = -phi_j B0^T k_j^T omega_i for j <= i+1,
    giving the diagonal derivatives of alpha, its divided-difference rate,
    and g.  ``jac`` is the node Jacobian DZ at ``states``.
    """
    if spec.hess_z1 is None:
        raise MethodMisuseError("the Skorokhod trace needs the model's hess_z1 "
                                "(second derivatives of Z1)")
    x = states
    p_paths, n_nodes = x.shape[:2]
    n_steps = grid.n_steps
    m, d, n = spec.m, spec.d, spec.dim
    dt = grid.dt
    v = np.asarray(v, dtype=float).ravel()
    v1, v2 = v[:m], v[m:]
    has_v1 = float(np.linalg.norm(v1)) > 0.0
    has_v2 = float(np.linalg.norm(v2)) > 0.0
    nodes = grid.nodes
    phi_vals = profile.phi(nodes)
    w0 = (grid.t_final - nodes) / grid.t_final
    w0[-1] = 0.0

    e_sigma = np.zeros((n, d))
    e_sigma[m:, :] = spec.sigma

    phi_full = reference_full_jacobian_flow(jac, grid)                 # (p, N+1, n, n)
    y_seed = pinv_stack_lapack(phi_full[:, 1:])[0] @ e_sigma             # (p, N, n, d)

    hess = path_major(spec.hess_z1(states_cm(x)), 3)         # (p, N+1, m, n, n)
    t1 = hess[..., :m, :]                                    # dA/dx
    t2 = hess[..., m:, :]                                    # dC/dx
    theta1 = np.einsum("pjabe,pjec->pjabc", t1, phi_full)    # (p, N+1, m, m, n)
    theta2 = np.einsum("pjabe,pjec->pjabc", t2, phi_full)    # (p, N+1, m, d, n)

    kinv = pinv_stack_lapack(k)[0]
    c_nodes = jac[..., :m, m:]
    kc = k @ c_nodes                                         # K C
    kb = k @ spec.b0                                         # K B0
    qcore = np.einsum("pjad,pjbd->pjab", kc, kb)             # K C B0^T K^T

    #   chi_s . Y = dt k_{s+1} (theta1_s . Y) k_s^{-1};  Lambda_i = sum_{s>=i} chi_s
    chi = dt * np.einsum("pjAa,pjabc,pjbB->pjABc",
                         k[:, 1:], theta1[:, :-1], kinv[:, :-1])
    lam = np.zeros((p_paths, n_nodes, m, m, n))
    lam[:, :-1] = np.cumsum(chi[:, ::-1], axis=1)[:, ::-1]

    g_tensor = np.einsum("pjabc,pjct->pjabt", lam[:, 1:], y_seed)   # G_i, (p,N,m,m,d)

    # Psi_r: tangent of the Q integrand at node r as a linear map of Y
    psi1 = np.einsum("pjaxc,pjxb->pjabc", lam, qcore)
    psi2 = np.einsum("pjax,pjxec,pjbe->pjabc", k, theta2, kb)
    psi3 = np.einsum("pjax,pjbxc->pjabc", qcore, lam)
    psi = (phi_vals * dt)[None, :, None, None, None] * (psi1 + psi2 + psi3)
    psicum = np.zeros_like(psi)
    psicum[:, 1:] = np.cumsum(psi[:, :-1], axis=1)

    # eta_r: tangent of the c2 integrand
    kcv2 = np.einsum("pjad,d->pja", kc, v2)
    eta = (w0 * dt)[None, :, None, None] * (
        np.einsum("pjabc,pjb->pjac", lam, kcv2)
        + np.einsum("pjab,pjbec,e->pjac", k, theta2, v2))
    etacum = np.zeros_like(eta)
    etacum[:, 1:] = np.cumsum(eta[:, :-1], axis=1)

    # c2 and kappa_A forward cumulatives
    c2low = np.zeros((p_paths, n_nodes, m))
    c2low[:, 1:] = np.cumsum((w0 * dt)[None, :-1, None] * kcv2[:, :-1], axis=1)
    ka_step = (phi_vals[:-1] * dt)[None, :, None, None] * np.einsum(
        "pjik,pjkl,pjbl->pjib", k[:, 1:], c_nodes[:, :-1], kb[:, :-1])
    kappa = np.zeros((p_paths, n_steps, m, m))
    kappa[:, 1:] = np.cumsum(ka_step[:, :-1], axis=1)

    q_path = ad.q_path
    xi_eff = ad.xi_eff
    rho = ad.rho
    nu = ad.nu
    p_vec = ad.p_vec

    # Omega_i and the forward-tangent aggregates
    q_next = q_path[:, 1:]                                    # Q_{i+1}
    gq = np.einsum("piact,picb->piabt", g_tensor, q_next)
    qgt = np.einsum("piac,pibct->piabt", q_next, g_tensor)
    psicum_y = np.einsum("piabc,pict->piabt", psicum[:, 1:], y_seed)
    omega_mat = gq + qgt - psicum_y                           # (p, N, m, m, d)
    dq_t = omega_mat + np.einsum("pabc,pict->piabt", psicum[:, -1], y_seed)

    if has_v2:
        dc2 = (np.einsum("piact,pic->piat", g_tensor, c2low[:, 1:])
               + np.einsum("piac,pict->piat", etacum[:, -1][:, None] - etacum[:, 1:],
                           y_seed))
        rhs = dc2 - np.einsum("piabt,pb->piat", dq_t, p_vec)
        dp = np.einsum("pab,pibt->piat", ad.q_inv[:, -1], rhs)
    else:
        dp = np.zeros((p_paths, n_steps, m, d))

    if has_v1:
        wgt = (xi_eff[:, :n_steps] ** 2) * dt                 # (p, N)
        qinv = ad.q_inv[:, :n_steps]
        k0v1 = np.einsum("pik,k->pi", k[:, 0], v1)
        u_nodes = np.einsum("pjab,pb->pja", qinv, k0v1)
        w1_step = np.einsum("pj,pjab,pjc->pjabc", wgt, qinv, u_nodes)
        w2_step = np.einsum("pj,pjab,pjbec,pje->pjac", wgt, qinv,
                            psicum[:, :n_steps], u_nodes)
        w3_step = np.einsum("pj,pjab->pjab", wgt, qinv)
        w1 = np.zeros((p_paths, n_nodes, m, m, m))
        w2 = np.zeros((p_paths, n_nodes, m, n))
        w3 = np.zeros((p_paths, n_nodes, m, m))
        w1[:, :-1] = np.cumsum(w1_step[:, ::-1], axis=1)[:, ::-1]
        w2[:, :-1] = np.cumsum(w2_step[:, ::-1], axis=1)[:, ::-1]
        w3[:, :-1] = np.cumsum(w3_step[:, ::-1], axis=1)[:, ::-1]

        gt_u = np.einsum("pibat,pib->piat", g_tensor, u_nodes)
        g_k0 = np.einsum("piact,pc->piat", g_tensor, k0v1)
        dr = (-(wgt[..., None, None] * gt_u)
              - np.einsum("piabc,pibct->piat", w1[:, 1:], omega_mat)
              - np.einsum("piac,pict->piat", w2[:, 1:], y_seed)
              + np.einsum("piab,pibt->piat", w3[:, 1:], g_k0))
        gt_rho = np.einsum("pibat,pib->piat", g_tensor, rho[:, :n_steps])
        ratio_part = (dr + gt_rho) / nu[:, None, None, None]
    else:
        ratio_part = 0.0

    gt_p = np.einsum("pibat,pb->piat", g_tensor, p_vec)
    omega = gt_p + dp + ratio_part                            # (p, N, m, d)

    k_omega_i = np.einsum("pira,pirt->piat", k[:, :n_steps], omega)
    k_omega_ip1 = np.einsum("pira,pirt->piat", k[:, 1:], omega)
    d_alpha = -phi_vals[None, :n_steps, None, None] * np.einsum(
        "ae,piat->piet", spec.b0, k_omega_i)
    dd_rate = (phi_vals[None, 1:, None, None] * k_omega_ip1
               - phi_vals[None, :n_steps, None, None] * k_omega_i) / dt
    d_alpha_dot = -np.einsum("ae,piat->piet", spec.b0, dd_rate)

    kappa_omega = np.einsum("piab,pibt->piat", kappa, omega)
    d_g = -np.einsum("piab,pibt->piat", kinv[:, :n_steps], kappa_omega)

    j21, j22 = jac[..., m:, :m], jac[..., m:, m:]
    d_hdot = (np.einsum("pida,piat->pidt", j21[:, :n_steps], d_g)
              + np.einsum("pide,piet->pidt", j22[:, :n_steps], d_alpha)
              - d_alpha_dot)
    d_hdot = np.einsum("df,pift->pidt", spec.sigma_inv(), d_hdot)
    trace = np.trace(d_hdot, axis1=-2, axis2=-1)
    return dt * np.sum(trace, axis=1)


# ---------------------------------------------------------------------------
# frozen reference of the case-2 calibration, as it stood with its own
# accumulation loop before it went through gramian_M; never regenerate from
# the package
# ---------------------------------------------------------------------------

def reference_xi_case2_calibration(a_mat, b0, k_idx, t_final, n_calib=64, haircut=0.05):
    """(calib_lambda_min, c1, margin, lambda_max) of the case-2 floor: the
    left-sum Gramian accumulated over 8192 steps of the exact flow, advanced
    by repeated exp(-ds A), with lambda_min (and lambda_max, the round-off
    scale) read at the first step past each calibration node."""
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=float))
    b0 = np.atleast_2d(np.asarray(b0, dtype=float))
    m = a_mat.shape[0]
    T = float(t_final)
    phi_fn, _ = phi_parabolic(T)
    c2 = 2.0 * float(np.linalg.norm(a_mat, 2))
    n_fine = 8192
    ds = T / n_fine
    e_step = expm(-ds * a_mat)
    flow = expm(T * a_mat)
    s_nodes = np.arange(n_fine) * ds
    calib_t = T * np.arange(1, n_calib + 1) / n_calib
    acc = np.zeros((m, m))
    lam_min, lam_max = np.empty(n_calib), np.empty(n_calib)
    next_idx = 0
    for j in range(n_fine):
        fb = flow @ b0
        acc = acc + phi_fn(s_nodes[j]) * (fb @ fb.T) * ds
        flow = flow @ e_step
        while next_idx < n_calib and (j + 1) * ds >= calib_t[next_idx] - 1e-12:
            eig = np.linalg.eigvalsh(0.5 * (acc + acc.T))
            lam_min[next_idx], lam_max[next_idx] = eig[0], eig[-1]
            next_idx += 1
    shape = np.minimum(calib_t, 1.0) ** (2 * (k_idx + 1)) / (T * np.exp(c2 * T))
    c1 = (1.0 - haircut) * float(np.min(lam_min / shape))
    xi = c1 * np.minimum(calib_t, 1.0) ** (2 * (k_idx + 1)) / (T * np.exp(c2 * T))
    margin = float(np.min(lam_min - xi))
    return lam_min, c1, margin, lam_max
