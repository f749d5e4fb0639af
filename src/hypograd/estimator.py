"""Monte Carlo gradient estimators for the degenerate semigroup.

The headline estimator realizes  grad_v P_T f(x) = E[f(X_T) delta(h)]  with
the bridge control of :mod:`hypograd.control`.  In the discrete Gaussian
calculus (D_i F = dF/dW_i with duality weight dt) the divergence of hdot is
exactly

    delta(h) = sum_i <hdot_i, dW_i> - dt sum_i tr(d hdot_i / d W_i).

When the first drift Jacobian block is constant the control is
deterministic, hdot is adapted and the trace vanishes, leaving the plain
increment sum.  Otherwise (``skorokhod_delta``) the trace is evaluated from
the forward sensitivities of the entire discrete chain (state -> K -> Q ->
alpha -> hdot).  Increment i enters only through the states after t_i, so
each sum over later nodes of a node row times dX_j/dW_i is one backward
recursion over the Euler step propagators (the adjoint view): O(N d) work in
place of the nominal O(N^2 d), with no state-transition matrix formed.  The
result is the exact derivative (checked against brute-force increment
bumping in the tests), so the discrete integration-by-parts identity
E[F delta] = E[sum_i <dF/dW_i, hdot_i> dt] holds with no discretization
bias.

Three independent oracles round out the module: the pathwise estimator
E<grad f(X_T), dX_T/dx0 v>, common-random-number central differences, and
the Gaussian closed form for affine models.

Randomness: each block of ``NOISE_BLOCK`` = 64 paths has its own SFC64
stream, seeded by Philox's output under key (master_seed, 0) at counter
block, so results do not depend on chunking or thread count; reductions
run over per-path arrays assembled in path order.  One vectorised Philox
draw per ``path_increments`` call seeds every block it touches, with no
SeedSequence, and a block stops at the last row the call returns.

Chunking has two levels under one byte budget, ``CHUNK_BYTES``.  Noise and
Euler stepping run on batches of whole blocks (``chunk_size``, or the most
that fit), so they draw no unused noise and pay the per-step cost of the
drift once per wide batch.  The anticipative drivers run the per-path
control chain, whose per-node footprint (``_chain_floats``) is ten or more
times the states', on slices of a batch: the batch takes at most a third of
the budget, and each slice is as wide as what the batch leaves holds, down
to one path.  So the working set is about ``n_threads * CHUNK_BYTES`` at any
N, and no result depends on batch, slice or thread count.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that
# cost out of the first Monte Carlo run
from numpy.random import SFC64, Generator, Philox
from numpy.random.bit_generator import ISeedSequence

from .control import (_assemble_hdot, _pinv_stack, _prefix_sums, _suffix_sums,
                      build_alpha, build_bridge, gramian_integral, numerical_rank,
                      phi_parabolic, q_inverse_bound_ratio, xi_case1, xi_case2)
from .errors import (ConfigurationError, MethodMisuseError, NotApplicableError,
                     RunDegenerateError)
# full_jacobian_flow is unused here but named for perfbench's span tracer
from .flow import (_euler_nodes, _step_blocks, full_jacobian_flow, simulate_path,
                   terminal_flow, valid_mask)

__all__ = [
    "EstimatorConfig",
    "GradientEstimate",
    "TestFunction",
    "linear_f",
    "quadratic_f",
    "gaussian_bump_f",
    "indicator_f",
    "path_increments",
    "default_weights",
    "skorokhod_delta",
    "bismut_gradient",
    "pathwise_gradient",
    "fd_gradient",
    "closed_form_gradient",
    "duality_gap",
    "expectation",
    "state_vector",
]

MAX_REJECT_FRACTION = 1e-3
MOMENT_P = 4.0       # order of the weight moment whose convergence is flagged
NOISE_BLOCK = 64     # paths per noise stream; divides the derived chunk sizes
CHUNK_BYTES = 32 << 20   # bytes one chunk may hold when chunk_size is null
CHUNK_LOG = contextvars.ContextVar("chunk_log")   # a list; _mc_run appends (batch, slice) sizes


@dataclass(frozen=True)
class EstimatorConfig:
    """Monte Carlo run description."""

    n_paths: int
    master_seed: int = 0
    method: str = "bismut_ito"
    fd_bump: float = 1e-3
    antithetic: bool = False
    n_threads: int = 1
    chunk_size: Optional[int] = None
    c_bound: Optional[float] = None    # ||d1Z1|| bound for the case-1 profile

    def __post_init__(self):
        if self.n_paths < 2:
            raise ConfigurationError("n_paths must be >= 2")
        if self.fd_bump <= 0:
            raise ConfigurationError("fd_bump must be positive")
        if self.method not in ("bismut_ito", "bismut_skorokhod", "pathwise",
                               "finite_difference", "closed_form"):
            raise ConfigurationError(f"unknown method {self.method!r}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")


@dataclass
class GradientEstimate:
    """Estimated directional derivative with its sampling statistics."""

    value: float
    std_error: float
    n_effective: int
    rejected: int
    method: str
    weight_l2: float = 0.0
    value_cv: Optional[float] = None      # control-variate adjusted (E delta = 0)
    std_error_cv: Optional[float] = None
    delta_mean: float = 0.0
    delta_se: float = 0.0
    kurtosis: float = 0.0
    moment_flagged: bool = False
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TestFunction:
    """Observable f with an optional gradient and a structural tag."""

    f: Callable
    grad_f: Optional[Callable] = None
    tag: str = "custom"
    params: dict = field(default_factory=dict)


# np.einsum, not BLAS, so no row's value depends on how many rows come with it

def linear_f(a, b=0.0):
    a = np.asarray(a, dtype=float).ravel()

    def f(x):
        return np.einsum("...a,a->...", np.asarray(x, dtype=float), a) + b

    def grad(x):
        return np.broadcast_to(a, np.asarray(x).shape).copy()

    return TestFunction(f=f, grad_f=grad, tag="linear",
                        params={"a": a.tolist(), "b": float(b)})


def quadratic_f(s_mat, b=None, c=0.0):
    s_mat = np.atleast_2d(np.asarray(s_mat, dtype=float))
    n = s_mat.shape[0]
    b = np.zeros(n) if b is None else np.asarray(b, dtype=float).ravel()
    sym = s_mat + s_mat.T

    def f(x):
        x = np.asarray(x, dtype=float)
        # two einsums: a three-operand one reorders its loops for 1-2 rows
        return (np.einsum("...a,...a->...", np.einsum("...b,ab->...a", x, s_mat), x)
                + np.einsum("...a,a->...", x, b) + c)

    def grad(x):
        return np.einsum("...b,ab->...a", np.asarray(x, dtype=float), sym) + b

    return TestFunction(f=f, grad_f=grad, tag="quadratic",
                        params={"s": s_mat.tolist(), "b": b.tolist(), "c": float(c)})


def gaussian_bump_f(center, width=1.0):
    width = float(width)
    if not (np.isfinite(width) and width > 0):
        raise ConfigurationError(f"gaussian_bump width must be finite and > 0, got {width}")
    center = np.asarray(center, dtype=float).ravel()
    w2 = width**2

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * np.sum((x - center) ** 2, axis=-1) / w2)

    def grad(x):
        x = np.asarray(x, dtype=float)
        return -(x - center) / w2 * f(x)[..., None]

    return TestFunction(f=f, grad_f=grad, tag="gaussian_bump",
                        params={"center": center.tolist(), "width": width})


def indicator_f(index=0, threshold=0.0):
    def f(x):
        return (np.asarray(x, dtype=float)[..., index] > threshold).astype(float)

    return TestFunction(f=f, grad_f=None, tag="indicator",
                        params={"index": int(index), "threshold": float(threshold)})


# ---------------------------------------------------------------------------
# counter-based block noise
# ---------------------------------------------------------------------------

class _Words(ISeedSequence):
    """Seed words handed to a bit generator as they are: no SeedSequence, no OS entropy."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def path_increments(grid, d, master_seed, start, count, antithetic=False):
    """Increments for paths [start, start+count): block b of ``NOISE_BLOCK``
    paths draws from an SFC64 seeded as numpy seeds one, by the first three
    words Philox(key=(master_seed, 0), counter=b) outputs; one Philox draw
    keys every block of a call.  A block is drawn from its first row, the
    last only as far as the range goes (normals fill in C order, so no row
    depends on where a call stops).  With antithetic pairing a block draws
    NOISE_BLOCK/2 pairs, which paths 2r and 2r+1 take with opposite signs.
    Every generator is local to the call, so threaded chunks stay independent.
    """
    first = start // NOISE_BLOCK
    rows = start + count - first * NOISE_BLOCK
    out = np.empty((rows, grid.n_steps, d))
    half = np.empty((NOISE_BLOCK // 2, grid.n_steps, d)) if antithetic else None
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    words = Philox(_Words(key), counter=first).random_raw((-(-rows // NOISE_BLOCK), 4))
    root = np.sqrt(grid.dt)
    for i, seed in zip(range(0, rows, NOISE_BLOCK), words):
        gen = Generator(SFC64(_Words(seed[:3])))
        block = out[i:i + NOISE_BLOCK]
        if antithetic:
            pairs = half[:-(-len(block) // 2)]
            gen.standard_normal(out=pairs)    # the output must be contiguous
            pairs *= root
            block[0::2] = pairs
            np.negative(pairs[:len(block) // 2], out=block[1::2])
        else:
            gen.standard_normal(out=block)
            block *= root                     # scaled while the block is in cache
    return out[start - first * NOISE_BLOCK:]


def default_weights(spec, grid, c_bound=None, probe_x0=None, probe_seed=0):
    """Gramian-floor profile for a model: case 1 when Rank(B0) = m, else the
    calibrated Kalman-condition profile (which needs constant d1Z1).

    For a state-dependent first Jacobian block the case-1 flow bound needs
    c_bound >= sup ||d1Z1|| along paths; when not supplied it is sampled
    from 32 probe paths started at ``probe_x0`` (fixed seed, so the profile
    does not depend on chunking) with a 25% safety factor.
    """
    phi_pair = phi_parabolic(grid.t_final)
    full_rank = numerical_rank(spec.b0)[0] == spec.m
    a0 = (spec.dz(np.zeros(spec.dim))[:spec.m, :spec.m]
          if spec.constant_jac_z1 and (c_bound is None or not full_rank) else None)
    if full_rank:
        if c_bound is None:
            if a0 is not None:
                c_bound = float(np.linalg.norm(a0, 2))
            elif probe_x0 is not None:
                c_bound = _sampled_jac_bound(spec, grid, probe_x0, probe_seed)
            else:
                raise ConfigurationError(
                    "default_weights needs c_bound (a bound on ||d1Z1||) or a "
                    "probe_x0 to sample one for a state-dependent first "
                    "Jacobian block")
        return xi_case1(spec.b0, phi_pair, c_bound, grid.t_final)
    if a0 is None:
        raise NotApplicableError("rank-deficient B0 with non-constant d1Z1: no profile")
    return xi_case2(a0, spec.b0, phi_pair, grid.t_final)


def _profile_summary(profile):
    """Scalar calibration constants of a weight profile, for result records."""
    out = {"xi_case": profile.xi_case}
    for key in ("c_prime", "c_bound", "c1", "c2", "k", "haircut", "margin"):
        if key in profile.meta:
            out[key] = float(profile.meta[key])
    return out


def _sampled_jac_bound(spec, grid, x0, seed, n_probe=32):
    inc = path_increments(grid, spec.d, seed ^ 0x9E3779B97F4A7C15, 0, n_probe)
    states = simulate_path(spec, np.asarray(x0, dtype=float).ravel(), grid, inc)
    states = states[valid_mask(states)]
    if states.size == 0:
        raise RunDegenerateError("all probe paths for the Jacobian bound blew up")
    return 1.25 * _norm2_max(spec.dz(np.moveaxis(states, -1, 0))[:spec.m, :spec.m])


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def skorokhod_delta(spec, x0, grid, inc, v, weights):
    """Anticipative divergence of the bridge control, per path, for
    increments ``inc`` of shape (B, N, d).

    The trace correction vanishes identically when jac_z1 is constant (the
    control is then deterministic), which the implementation exploits.
    """
    inc = np.asarray(inc, dtype=float)
    states = simulate_path(spec, x0, grid, inc)
    _, _, _, h_dot, _, corr = _bridge_chain(spec, states, grid, v, weights)
    return _hdot_sum(h_dot, inc) - corr


def _hdot_sum(h_dot, inc):
    """Per-path sum_i <hdot_i, dW_i> of hdot (d, P, N) and increments (P, N, d)."""
    return np.sum(inc * np.moveaxis(h_dot, 0, -1), axis=(-2, -1))


def _bridge_chain(spec, states, grid, v, weights):
    """The control chain of a batch of (P, N+1, n) states, from one bulk
    evaluation of the node Jacobian.

    Returns ``(jac, alpha_data, g, h_dot, bridge_residuals, trace)``, all
    component-major; the Skorokhod trace is zero when jac_z1 is constant
    (the control is then deterministic and the trace vanishes).
    """
    states = np.moveaxis(states, -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        jac = spec.full_jacobian(states)
    k = terminal_flow(spec, jac, grid)
    ad = build_alpha(spec, jac, k, grid, v, weights)
    g, h_dot, res = build_bridge(spec, jac, ad, grid, v)
    trace = (np.zeros(states.shape[1]) if spec.constant_jac_z1
             else _skorokhod_trace(spec, states, grid, v, weights, ad, k, jac))
    return jac, ad, g, h_dot, res, trace


def _skorokhod_trace(spec, states, grid, v, profile, ad, k, jac):
    """dt * sum_i tr(d hdot_i / d W_i), exact, by one backward sweep.

    Per path, with k_j = K(T, t_j) and F_j = I + dt DZ(X_j), increment i
    moves X_j, j > i, by F_{j-1} ... F_{i+1} E sigma, so a sum over j > i of
    node rows A_j (row vectors in the state index y) applied to those moves
    is R_{i+1} E sigma, R_j = A_j + R_{j+1} F_j, R_N = 0: the adjoint form
    of Giles & Glasserman ("Smoking adjoints", 2006).  dk_r/dW_i = G_i k_r
    for r <= i+1, G_i the sweep of chi_j = dt k_{j+1} d_y d1Z1(X_j) k_j^{-1},
    and the chain collapses to omega_i = G_i^T p + Dp_i + (DR_i +
    G_i^T rho_i)/nu, through which D alpha_j[i] = -phi_j B0^T k_j^T omega_i
    for j <= i+1 gives the derivatives of alpha, its rate and g.  With
    kdc_j = k_j d_y d2Z1(X_j), dQ_T/dW_i is the sweep of a_dq_j = chi_j
    Q_{j+1} + Q_{j+1} chi_j^T + phi_j dt kdc_j (k_j B0)^T, dc2/dW_i that of
    chi_j c2low_{j+1} + w0_j dt kdc_j v2, Dp_i = Q_T^{-1} (dc2 - dQ_T p), and
    DR_i + G_i^T rho_i that of -(w1_{j+1} : a_dq_j + uv_{j+1} : chi_j) plus
    uv_{i+1} : G_i + G_i^T rho_{i+1} + w3_{i+1} G_i K v1, where uv_t : X =
    sum_{l<t} wgt_l Q_l^{-1} (X Q_l + Q_l X^T) u_l and w1, w3 are the suffix
    sums of wgt Q^{-1} (x) u and wgt Q^{-1}.  Folding p, Q_T^{-1} and 1/nu
    into coefficients h_j, omega less its G_i terms is the sweep of the m
    rows h_j : d_y DZ1(X_j): m^2 + m rows (m when v1 = 0) are stepped.
    """
    if spec.hess_z1 is None:
        raise MethodMisuseError("the Skorokhod trace needs the model's hess_z1 "
                                "(second derivatives of Z1)")
    n_steps, dt, m = grid.n_steps, grid.dt, spec.m
    v1, v2 = np.split(np.asarray(v, dtype=float).ravel(), [m])
    has_v1 = np.linalg.norm(v1) > 0.0
    nodes = grid.nodes
    phi_vals, w0 = profile.phi(nodes), (grid.t_final - nodes) / grid.t_final   # w0[N] unread
    q_path, q_next, p_vec = ad.q_path[..., :-1], ad.q_path[..., 1:], ad.p_vec
    nu = ad.nu[:, None] if has_v1 else np.inf      # 1/nu scales v1's terms only; nu may be 0
    qt_inv, qinv = ad.q_inv[..., -1], ad.q_inv[..., :-1]    # 0 when v2 = 0, when v1 = 0

    kinv = _pinv_stack(k[..., :-1])[0]                             # (m, m, p, N)
    kb = np.einsum("akpj,kd->adpj", k[..., :-1], spec.b0)          # K B0
    kcv2 = np.einsum("akpj,kpj->apj", k, np.einsum("kdpj,d->kpj", jac[:m, m:], v2))
    c2low = _prefix_sums((w0 * dt) * kcv2)[..., 1:]                # c2low_{j+1}
    k0v1 = np.einsum("ikp,k->ip", k[..., 0], v1)
    u = np.einsum("abpj,bp->apj", qinv, k0v1)                      # build_alpha's u
    wq = (ad.xi_eff[:, :-1] ** 2 * dt) * qinv                      # wgt Q^{-1}
    uv = np.cumsum(np.einsum("abpj,cpj->abcpj", wq, np.einsum("cepj,epj->cpj", q_path, u))
                   + np.einsum("acpj,bpj->abcpj", np.einsum("aepj,ecpj->acpj", wq, q_path), u),
                   axis=-1)                                        # uv_{j+1}
    # the weight of -a_dq_j in omega's row: Q_T^{-1} (x) p + w1_{j+1} / nu
    w_dq = (_suffix_sums(np.einsum("abpj,cpj->abcpj", wq, u))[..., 1:] / nu
            + np.einsum("abp,cp->abcp", qt_inv, p_vec)[..., None])
    # omega's row is c_chi : chi_j + c_kdc : kdc_j
    c_chi = (np.einsum("ae,bp->abep", np.eye(m), p_vec)[..., None]
             + np.einsum("abp,epj->abepj", qt_inv, c2low)
             - np.einsum("abcpj,ecpj->abepj", w_dq, q_next)
             - np.einsum("acbpj,cepj->abepj", w_dq, q_next) - uv / nu)
    c_kdc = ((w0[:-1] * dt) * np.einsum("abp,e->abep", qt_inv, v2)[..., None]
             - (phi_vals[:-1] * dt) * np.einsum("abcpj,cepj->abepj", w_dq, kb))
    if has_v1:        # DR_i's terms in G_i: c_g : G_i = uv : G_i + G_i^T rho_{i+1} + w3 G_i K v1
        c_g = (uv + np.einsum("bpi,ac->abcpi", ad.rho[..., 1:], np.eye(m))
               + np.einsum("abpi,cp->abcpi", _suffix_sums(wq)[..., 1:], k0v1)) / nu
    del kcv2, c2low, u, w_dq, uv, wq
    # D g_i = -k_i^{-1} kappa_i omega_i, D alpha_i = -phi_i B0^T k_i^T omega_i and its rate
    # make tr sigma^{-1} (dZ2(X_i)(D g_i, D alpha_i) - D alpha_dot_i) = c_i : omega_i
    kappa = _prefix_sums((phi_vals[:-1] * dt) * np.einsum(
        "ikpj,klpj,blpj->ibpj", k[..., 1:], jac[:m, m:, :, :-1], kb))
    s_inv = spec.sigma_inv()
    sb = np.einsum("tf,af->ta", s_inv, spec.b0)                    # sigma^{-1} B0^T
    c = (np.einsum("ta,rapi->trpi", sb / dt, phi_vals[1:] * k[..., 1:])
         - np.einsum("tapi,abpi,brpi->trpi", np.einsum(
             "tf,fapi->tapi", s_inv, jac[m:, :m, :, :-1]), kinv, kappa)
         - np.einsum("tapi,rapi->trpi", np.einsum(
             "tf,fepi,ae->tapi", s_inv, jac[m:, m:, :, :-1], spec.b0)
             + sb[..., None, None] / dt, phi_vals[:-1] * k[..., :-1]))
    kinv *= dt
    del kb, kappa
    h = np.empty((m, m, spec.dim) + kinv.shape[2:])                # ... and h_j : d_y DZ1(X_j)
    np.einsum("abepj,bApj,Bepj->aABpj", c_chi, k[..., 1:], kinv, out=h[:, :, :m])
    np.einsum("abepj,bApj->aAepj", c_kdc, k[..., :-1], out=h[:, :, m:])
    del c_chi, c_kdc
    rows = np.empty(((m * m if has_v1 else 0) + m,) + h.shape[2:])
    for j in range(0, n_steps, 32):          # d_y DZ1(X_j), j < N, 32 nodes at a time
        at = slice(j, min(j + 32, n_steps))
        hess = spec.hess_z1(states[..., at])                       # (m, n, n, p, width)
        np.einsum("aABpj,ABypj->aypj", h[..., at], hess, out=rows[-m:, ..., at])
        if has_v1:                                                 # chi_j
            np.einsum("bApj,ABypj,Bepj->beypj", k[..., j + 1:at.stop + 1], hess[:, :m],
                      kinv[..., at], out=rows[:-m, ..., at].reshape((m, m) + hess.shape[2:]))
    del h, hess
    swept = _sweep(rows, jac, grid, spec.sigma, m)                 # (r, d, p, N)
    omega = swept[-m:]                                             # (m, d, p, N)
    if has_v1:
        omega += np.einsum("abcpi,bctpi->atpi", c_g, swept[:-m].reshape((m, m) + omega.shape[1:]))
    trace = np.einsum("trpi,rtpi->pi", c, omega)                   # (p, N), contiguous
    return dt * np.sum(trace, axis=1)


def _sweep(rows, jac, grid, sigma, m):
    """R_{i+1} E sigma, (r, d, P, N), of node rows (r, n, P, N) by R_j = rows_j +
    R_{j+1} F_j, R_N = 0, over the blocks of ``_step_blocks``, 0 < j < N: one
    ``einsum`` per step into a time-major block, copied out while in cache."""
    r, n, n_paths, n_steps = rows.shape
    out = np.zeros((r, len(sigma), n_paths, n_steps))              # R_N E sigma = 0
    blk = np.zeros((min(n_steps - 1, 32) + 1, r, n, n_paths))  # R at a block's nodes, R_N on top
    with np.errstate(over="ignore", invalid="ignore"):
        for j, steps in _step_blocks(jac, grid.dt, 1, n_steps, backward=True):
            width = len(steps)                     # only the first, topmost, is short
            blk[:width] = np.moveaxis(rows[..., j:j + width], -1, 0)
            for t in range(width - 1, -1, -1):
                blk[t] += np.einsum("rap,abp->rbp", blk[t + 1], steps[t])
            out[..., j - 1:j - 1 + width] = np.moveaxis(
                np.einsum("trap,ae->trep", blk[:width, :, m:], sigma), 0, -1)
            blk[-1] = blk[0]
    return out


# ---------------------------------------------------------------------------
# estimator drivers
# ---------------------------------------------------------------------------

def _mc_run(spec, grid, cfg, per_chunk, n_cols, per_node=0, seed_offset=0, x0=None):
    """The Monte Carlo loop of every driver: batches, slices, threads, noise, masks.

    Paths [0, n_paths) run on ``cfg.n_threads`` threads in batches of
    ``cfg.chunk_size`` paths, or else of the most whole 64-path blocks (one
    at least) whose footprint fits ``CHUNK_BYTES``.  A batch's increments
    come from ``path_increments``, one stream per 64-path block keyed by
    (master_seed + seed_offset, block), with the configured antithetic
    pairing, so no result depends on batch, slice or thread count.

    Without ``x0``, ``per_chunk(inc)`` runs on the whole batch, whose
    footprint is its increments and the driver's ``per_node`` float64s per
    node.  With ``x0`` (the anticipative drivers) the levels split: noise and
    the Euler paths from x0 (``_simulate``) run once per batch, which holds
    the increments and the states and may take a third of the budget, and
    ``per_chunk(inc, states, x_n, good)`` runs the control chain on slices of the
    batch, as wide as ``_chain_floats`` lets what the batch leaves of
    ``CHUNK_BYTES`` (half of it at least) hold, one path at least, and whole
    64-path blocks when wider than one, as a batch is.  So wide
    batches amortise the per-step cost of Euler stepping while the chain's
    per-node arrays stay near the cache, and memory stays bounded at any N.

    ``per_chunk`` returns ``(cols, good, payload)``: ``n_cols`` per-path
    value arrays, the mask of the paths it kept and a diagnostics payload.
    A path is accepted when it was kept, its Euler path is finite, and all
    its values are finite.  Batches write disjoint slices of the output, and
    the payload list (one per slice) is in path order, so diagnostics are
    deterministic under any thread count.

    Returns the (n_cols, n_paths) values, the accepted mask and the
    payloads; raises ``RunDegenerateError`` past ``MAX_REJECT_FRACTION``
    rejected paths.
    """
    n_paths, n_steps = cfg.n_paths, grid.n_steps
    floats = n_steps * spec.d + (n_steps + 1) * (per_node if x0 is None else spec.dim)
    share = CHUNK_BYTES if x0 is None else CHUNK_BYTES // 3
    batch = cfg.chunk_size or NOISE_BLOCK * max(1, share // (8 * NOISE_BLOCK * floats))
    width = batch
    if x0 is not None:
        left = max(CHUNK_BYTES - 8 * floats * batch, CHUNK_BYTES // 2)
        width = max(1, int(left // (8 * _chain_floats(spec, n_steps))))
        width = min(batch, width - width % NOISE_BLOCK if width > NOISE_BLOCK else width)
    CHUNK_LOG.get([]).append((batch, width))
    vals = np.empty((n_cols, n_paths))
    ok = np.zeros(n_paths, dtype=bool)

    def worker(start):
        stop = min(start + batch, n_paths)
        inc = path_increments(grid, spec.d, cfg.master_seed + seed_offset, start,
                              stop - start, cfg.antithetic)
        if x0 is None:
            cols, good, payload = per_chunk(inc)
            vals[:, start:stop], payloads = cols, [payload]
        else:
            states, x_n, good = _simulate(spec, x0, grid, inc)
            payloads = []
            for a in range(0, stop - start, width):
                at = slice(a, a + width)
                vals[:, start:stop][:, at], good[at], payload = per_chunk(
                    inc[at], states[at], x_n[at], good[at])
                payloads.append(payload)
        ok[start:stop] = good & np.isfinite(vals[:, start:stop]).all(axis=0)
        return payloads

    starts = range(0, n_paths, batch)
    if cfg.n_threads <= 1 or len(starts) == 1:
        payloads = [worker(s) for s in starts]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.n_threads) as pool:
            payloads = list(pool.map(worker, starts))
    rejected = int(np.sum(~ok))
    if rejected > MAX_REJECT_FRACTION * n_paths:
        raise RunDegenerateError(
            f"{rejected}/{n_paths} paths rejected (limit {MAX_REJECT_FRACTION:.1%})")
    return vals, ok, [p for batch_payloads in payloads for p in batch_payloads]


def _euler_terminal(spec, x0, grid, inc, tangent=None):
    """Euler X_N alone, as ``_finite``, and a ``tangent`` stepped with it; past the
    increments it holds their kicks."""
    return _finite(_euler_nodes(spec, x0, grid, inc, tangent=tangent)[0].T.copy(), x0)


def _simulate(spec, x0, grid, inc):
    """Euler paths (P, N+1, n) from x0, a contiguous copy of their terminal
    states and the mask of the finite paths; a non-finite path is replaced
    by the constant x0 path (its results are masked)."""
    states = simulate_path(spec, x0, grid, inc)
    ok = valid_mask(states)
    states[~ok] = x0
    return states, states[:, -1].copy(), ok


class _AffineTerminal:
    """Euler terminal states of an affine model, by one contraction of the
    increments instead of N steps.

    With F = I + dt G, z0 = Z(0) and E sigma the noise injection, exactly
    X_N = F^N x0 + sum_i F^{N-1-i} (dt z0 + E sigma dW_i).  The weights
    F^{N-1-i} E sigma are built once side by side, a C-contiguous (n, N d) matrix,
    and a path-independent hdot (N, d) is one more row for delta = sum_i <hdot_i, dW_i>:
    each output is a stride-1 dot of an increment row with a weight row.
    ``np.einsum`` contracts each row alone in a fixed order, so no result
    depends on chunking (BLAS rounds few-row products differently) and an
    antithetic partner gets the exact negative.  Only X_N is formed, so only
    X_N is checked for finiteness.
    """

    def __init__(self, spec, grid, h_dot=None):
        n, d, n_steps = spec.dim, spec.d, grid.n_steps
        step = np.eye(n) + grid.dt * spec.drift_matrix
        e_sigma = np.zeros((n, d))
        e_sigma[spec.m:] = spec.sigma
        z0_dt = grid.dt * spec.drift(np.zeros(n))
        rows = np.empty((n + (h_dot is not None), n_steps, d))   # rows[:n, i] = F^{N-1-i} E sigma
        flow, shift = np.eye(n), np.zeros(n)
        for i in range(n_steps - 1, -1, -1):
            rows[:n, i] = flow @ e_sigma
            shift += flow @ z0_dt
            flow = step @ flow
        if h_dot is not None:                        # (d, N) component-major
            rows[n] = h_dot.T
        self.weights = rows.reshape(len(rows), -1)   # (n [+1], N d), C-contiguous
        self.dim, self.flow, self.shift = n, flow, shift    # flow = F^N

    def contract(self, inc):
        """(B, n [+1]) noise part of X_N [and delta] for increments (B, N, d)."""
        return np.einsum("pk,ck->pc", inc.reshape(len(inc), -1), self.weights)

    def terminal(self, x0, noise):
        """X_N from x0 and ``contract``'s output, as ``_finite``."""
        return _finite(noise[:, :self.dim] + (self.flow @ x0 + self.shift), x0)


def _finite(x_n, x0):
    """X_N (P, n), each non-finite row set to x0 (its results are masked), and the mask."""
    ok = valid_mask(x_n[:, None])
    x_n[~ok] = x0
    return x_n, ok


def _chain_floats(spec, n_steps):
    """Float64s per path that one slice of the control chain holds past the
    batch's increments and states: n (4 m^2 + 2 m + 6) per node and 2.5 n^2 per
    node of the 32-node blocks (propagators, sweep, Hessian), fitted to the
    traced peak of ``_bridge_chain`` within 9 % at m <= d <= 4 and N = 12 to 256."""
    n, m = spec.dim, spec.m
    return n * (4 * m * m + 2 * m + 6) * (n_steps + 1) + 2.5 * n * n * min(n_steps, 32)


def _moment_flag(delta):
    """Cauchy-convergence heuristic for E|delta|^p, p = ``MOMENT_P``: flags a
    relative change above 25% from the first half of the paths to all."""
    n = delta.size
    if n < 64:
        return False
    half, full = (float(np.mean(np.abs(delta[:s]) ** MOMENT_P)) for s in (n // 2, n))
    return abs(full - half) / max(full, 1e-300) > 0.25


def _mean_se(got, ok, antithetic):
    """Mean and standard error of accepted per-path values ``got = vals[ok]``.

    With antithetic pairing, paths 2r and 2r+1 share one noise stream, so
    the independent samples are the pair means; a path whose partner is
    missing (odd n_paths or a rejected partner) counts on its own.
    """
    if antithetic:
        pair = np.nonzero(ok)[0] // 2
        size = np.bincount(pair)
        got = np.bincount(pair, weights=got)[size > 0] / size[size > 0]
    return float(np.mean(got)), float(np.std(got, ddof=1) / np.sqrt(got.size))


def _summarize(fvals, delta, ok, method, cfg, diagnostics):
    """Estimate and weight statistics from per-path f(X_T) and delta.

    ``value``/``std_error`` and ``delta_mean``/``delta_se`` reduce over the
    independent samples of ``_mean_se``.  With antithetic pairing and a
    path-independent hdot (affine models) the paired weights cancel
    exactly, so ``delta_se`` is then 0.  ``weight_l2``, ``kurtosis`` and the
    moment flag are per-path moments of delta.
    """
    fv = fvals[ok]
    dl = delta[ok]
    prod = fv * dl
    n_eff = fv.size
    value, se = _mean_se(prod, ok, cfg.antithetic)
    d_mean, d_se = _mean_se(dl, ok, cfg.antithetic)
    m2 = float(np.mean(dl**2))
    kurt = float(np.mean(dl**4) / m2**2) if m2 > 0 else 0.0
    est = GradientEstimate(value=value, std_error=se, n_effective=n_eff,
                           rejected=ok.size - n_eff, method=method,
                           weight_l2=float(np.sqrt(m2)), delta_mean=d_mean,
                           delta_se=d_se, kurtosis=kurt, moment_flagged=_moment_flag(dl),
                           diagnostics=dict(diagnostics))
    if m2 > 0:
        # delta-method standard error of sqrt(E delta^2)
        est.diagnostics["wl2_se"] = float(
            np.std(dl**2, ddof=1) / np.sqrt(n_eff) / (2.0 * np.sqrt(m2)))
    if not cfg.antithetic and np.var(dl) > 0:
        beta = float(np.cov(prod, dl, ddof=1)[0, 1] / np.var(dl, ddof=1))
        resid = prod - beta * dl
        est.value_cv = float(np.mean(resid))
        est.std_error_cv = float(np.std(resid, ddof=1) / np.sqrt(n_eff))
    return est


def state_vector(spec, val, name):
    """``val`` as a float vector of the model's dimension; another size is a
    config error naming ``name``."""
    arr = np.asarray(val, dtype=float).ravel()
    if arr.shape != (spec.dim,):
        raise ConfigurationError(f"{name} must have dimension {spec.dim}, got {arr.size}")
    return arr


def _plain_estimate(vals, ok, cfg, method):
    """GradientEstimate of the mean of accepted per-path values."""
    value, se = _mean_se(vals[ok], ok, cfg.antithetic)
    n_eff = int(np.sum(ok))
    return GradientEstimate(value=value, std_error=se, n_effective=n_eff,
                            rejected=ok.size - n_eff, method=method)


def bismut_gradient(spec, x0, v, f, grid, cfg, weights=None):
    """Gradient estimate via the derivative-formula weight delta(h).

    Selects the adapted (Ito) or anticipative (Skorokhod) divergence per
    ``cfg.method``; ``bismut_ito`` demands a constant first Jacobian block.
    The diagnostics check the profile's hypotheses on the accepted paths:
    ``q_bound_ratio`` over every node with xi > 0, and ``c_bound_realized``,
    the largest ||d1Z1|| over every node, flagged in ``c_bound_exceeded``
    when the profile assumed a smaller ``c_bound``.
    """
    x0, v = state_vector(spec, x0, "x0"), state_vector(spec, v, "v")
    if not np.linalg.norm(v) > 0:
        raise ConfigurationError("v must be nonzero")
    if cfg.method == "bismut_ito" and not spec.constant_jac_z1:
        raise MethodMisuseError("bismut_ito requires a constant jac_z1 block; "
                                "use bismut_skorokhod")
    if cfg.method not in ("bismut_ito", "bismut_skorokhod"):
        raise ConfigurationError(f"bismut_gradient got method {cfg.method!r}")
    if weights is None:
        weights = default_weights(spec, grid, c_bound=cfg.c_bound, probe_x0=x0,
                                  probe_seed=cfg.master_seed)

    diagnostics = {"weights": _profile_summary(weights)}
    det_control = affine = None
    if spec.constant_jac_z1:
        det_control = _deterministic_control(spec, x0, grid, v, weights)
        if spec.is_linear:
            affine = _AffineTerminal(spec, grid, det_control["h_dot"])

    def per_chunk(inc):
        if affine is not None:
            noise = affine.contract(inc)
            x_n, good = affine.terminal(x0, noise)
            return (f.f(x_n), noise[:, -1]), good, None
        states, x_n, good = _simulate(spec, x0, grid, inc)
        jac = spec.dz(np.moveaxis(states[:, :-1], -1, 0))
        dl = _hdot_sum(_assemble_hdot(spec, jac, *det_control["bridge"]), inc)
        return (f.f(x_n), dl), good, None

    def per_slice(inc, states, x_n, good):
        jac, ad, _, h_dot, res, trace = _bridge_chain(spec, states, grid, v, weights)
        good = good & ~ad.degenerate
        return ((f.f(x_n), _hdot_sum(h_dot, inc) - trace), good,
                _hypothesis_checks(spec, jac, ad, res, good))

    if det_control is None:
        (fvals, delta), ok, payloads = _mc_run(spec, grid, cfg, per_slice, 2, x0=x0)
    else:       # past the increments: nothing, or the states and node Jacobian
        per_node = 0 if affine is not None else spec.dim * (spec.dim + 1)
        (fvals, delta), ok, payloads = _mc_run(spec, grid, cfg, per_chunk, 2, per_node)
    checks = payloads if det_control is None else [det_control["checks"]]
    diagnostics.update({key: np.max([c[key] for c in checks], axis=0).tolist()
                        for key in checks[0]})
    if "c_bound" in weights.meta:
        diagnostics["c_bound_exceeded"] = bool(
            diagnostics["c_bound_realized"] > weights.meta["c_bound"])
    return _summarize(fvals, delta, ok, cfg.method, cfg, diagnostics)


def _deterministic_control(spec, x0, grid, v, weights):
    """Control chain for constant-jac_z1 models: path-independent, built once.

    The carrier path only supplies Jacobian evaluation points, all constant
    here, so a constant-x0 path serves.  For an affine model DZ is constant
    too, and the carrier's ``h_dot`` (d, N) is every path's; otherwise each
    path's hdot is assembled from the carrier's g, alpha and alpha_dot.
    """
    states = np.tile(x0, (1, grid.n_steps + 1, 1))
    jac, ad, g, h_dot, res, _ = _bridge_chain(spec, states, grid, v, weights)
    if bool(ad.degenerate[0]):
        raise RunDegenerateError("deterministic control chain is degenerate "
                                 "(singular terminal Gramian)")
    return {"bridge": (g[..., :-1], ad.alpha[..., :-1], ad.alpha_dot), "h_dot": h_dot[:, 0],
            "checks": _hypothesis_checks(spec, jac, ad, res, ~ad.degenerate)}


def _hypothesis_checks(spec, jac, ad, res, good):
    """Hypothesis checks on one control chain: bridge residuals,
    ``q_bound_ratio`` and ``c_bound_realized`` over the paths ``good`` keeps;
    ``alpha_dot_gap`` and the dropped-node count over the whole chain."""
    got = res[good]
    return {"bridge_residuals_max": got.max(axis=0) if got.size else np.zeros(3),
            "alpha_dot_gap": ad.alpha_dot_gap,
            "dropped_nodes_max": int(ad.dropped_nodes.max()),
            "q_bound_ratio": q_inverse_bound_ratio(ad.q_path[:, :, good], ad.xi_vals,
                                                   spec.epsilon),
            "c_bound_realized": _norm2_max(jac[:spec.m, :spec.m], good)}


def _norm2_max(blocks, keep=slice(None)):
    """Largest spectral norm over the square blocks (m, m, P, ...) of the
    paths ``keep`` selects; 0 when it selects none, inf when a block is not
    finite (LAPACK's SVD fails on those).  A 1x1 block's norm is its
    absolute value."""
    finite = np.isfinite(blocks).all(axis=(0, 1))
    if len(blocks) == 1:
        norms = np.abs(blocks[0, 0])
    else:
        norms = np.full(finite.shape, np.inf)
        norms[finite] = np.linalg.norm(np.moveaxis(blocks, (0, 1), (-2, -1))[finite],
                                       ord=2, axis=(-2, -1))
    norms[~finite] = np.inf
    per_path = norms.max(axis=tuple(range(1, norms.ndim)))[keep]
    return float(per_path.max()) if per_path.size else 0.0


def pathwise_gradient(spec, x0, v, f, grid, cfg):
    """E <grad f(X_T), dX_T/dx0 . v> -- the smooth-f oracle."""
    if f.grad_f is None:
        raise MethodMisuseError("pathwise_gradient needs grad_f")
    x0, v = state_vector(spec, x0, "x0"), state_vector(spec, v, "v")
    affine = _AffineTerminal(spec, grid) if spec.is_linear else None

    def per_chunk(inc):
        if affine is not None:
            x_n, good = affine.terminal(x0, affine.contract(inc))
            jac = np.broadcast_to(affine.flow @ v, x_n.shape)
        else:
            jac = np.repeat(v[:, None], len(inc), axis=1)     # J_0 = v, stepped with X
            x_n, good = _euler_terminal(spec, x0, grid, inc, jac)
            jac = jac.T
        return (np.einsum("pa,pa->p", f.grad_f(x_n), jac),), good, None

    (vals,), ok, _ = _mc_run(spec, grid, cfg, per_chunk, 1, 0 if affine else spec.d)
    return _plain_estimate(vals, ok, cfg, "pathwise")


def fd_gradient(spec, x0, v, f, grid, cfg):
    """Common-random-number central difference along v with bump fd_bump."""
    x0, v = state_vector(spec, x0, "x0"), state_vector(spec, v, "v")
    eta = cfg.fd_bump
    affine = _AffineTerminal(spec, grid) if spec.is_linear else None

    def per_chunk(inc):
        if affine is not None:
            noise = affine.contract(inc)
            xp, good_p = affine.terminal(x0 + eta * v, noise)
            xm, good_m = affine.terminal(x0 - eta * v, noise)
        else:
            xp, good_p = _euler_terminal(spec, x0 + eta * v, grid, inc)
            xm, good_m = _euler_terminal(spec, x0 - eta * v, grid, inc)
        diff = (f.f(xp) - f.f(xm)) / (2.0 * eta)
        return (diff,), good_p & good_m, None

    (vals,), ok, _ = _mc_run(spec, grid, cfg, per_chunk, 1, 0 if affine else spec.d)
    return _plain_estimate(vals, ok, cfg, "finite_difference")


def expectation(spec, x0, f, grid, cfg, seed_offset=0):
    """Plain Monte Carlo P_T f(x0) with standard error."""
    x0 = state_vector(spec, x0, "x0")
    affine = _AffineTerminal(spec, grid) if spec.is_linear else None

    def per_chunk(inc):
        if affine is not None:
            x_n, good = affine.terminal(x0, affine.contract(inc))
        else:
            x_n, good = _euler_terminal(spec, x0, grid, inc)
        return (f.f(x_n),), good, None

    (vals,), ok, _ = _mc_run(spec, grid, cfg, per_chunk, 1, 0 if affine else spec.d,
                             seed_offset=seed_offset)
    return _mean_se(vals[ok], ok, cfg.antithetic)


# ---------------------------------------------------------------------------
# Gaussian closed form for affine models
# ---------------------------------------------------------------------------

def affine_mean(spec, t_final):
    """Mean map of an affine model's X_T: returns (exp(TG), c) with
    E X_T = exp(TG) x0 + c, c = int_0^T exp(sG) ds z0 and z0 = Z(0).

    Both come from one exponential of the augmented generator
    [[G, z0], [0, 0]].
    """
    if not spec.is_linear:
        raise MethodMisuseError("affine_mean needs an affine model")
    from scipy.linalg import expm  # deferred: slow to import

    n = spec.dim
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = spec.drift_matrix
    aug[:n, n] = spec.drift(np.zeros(n))
    e_aug = expm(t_final * aug)
    return e_aug[:n, :n], e_aug[:n, n]


def closed_form_gradient(spec, x0, v, f, t_final):
    """Exact grad_v E f(X_T) for an affine model and linear/quadratic f.

    X_T ~ N(mu, Sigma_T) with mu = exp(TG) x0 + c from ``affine_mean``.
    Both gradients depend on the mean alone: a linear f gives
    a . exp(TG) v, and a quadratic x^T S x + b . x gives
    (exp(TG) v)^T (S + S^T) mu + b . exp(TG) v, since the covariance term
    tr(S Sigma_T) does not depend on x0.
    """
    if not spec.is_linear:
        raise MethodMisuseError("closed_form_gradient needs an affine model")
    if f.tag not in ("linear", "quadratic"):
        raise MethodMisuseError("closed_form_gradient supports linear/quadratic f")
    x0, v = state_vector(spec, x0, "x0"), state_vector(spec, v, "v")
    etg, shift = affine_mean(spec, t_final)
    mu = etg @ x0 + shift
    ev = etg @ v
    if f.tag == "linear":
        a = np.asarray(f.params["a"], dtype=float)
        return float(a @ ev)
    s_mat = np.asarray(f.params["s"], dtype=float)
    b = np.asarray(f.params["b"], dtype=float)
    return float(ev @ (s_mat + s_mat.T) @ mu + b @ ev)


def covariance_flow(spec, t_final):
    """Sigma_T = int_0^T exp(sG) D exp(sG)^T ds, D = diag(0, sigma sigma^T),
    for an affine model (``control.gramian_integral``)."""
    if not spec.is_linear:
        raise MethodMisuseError("covariance_flow needs an affine model")
    m = spec.m
    d_mat = np.zeros((spec.dim, spec.dim))
    d_mat[m:, m:] = spec.sigma @ spec.sigma.T
    return gramian_integral(spec.drift_matrix, d_mat, t_final)


# ---------------------------------------------------------------------------
# discrete integration-by-parts (duality) check
# ---------------------------------------------------------------------------

def duality_gap(spec, x0, v, f, grid, cfg, weights=None):
    """Per-path gap F delta(h) - sum_i <dF/dW_i, hdot_i> dt and its stats.

    dF/dW_i is the exact derivative of the discrete observable, obtained by
    adjoint back-propagation a_i = F_i^T a_{i+1} from a_N = grad f(X_T).
    Returns (mean_gap, se_gap, lhs_mean, rhs_mean).
    """
    if f.grad_f is None:
        raise MethodMisuseError("duality_gap needs grad_f")
    x0, v = state_vector(spec, x0, "x0"), state_vector(spec, v, "v")
    if weights is None:
        weights = default_weights(spec, grid, c_bound=cfg.c_bound, probe_x0=x0,
                                  probe_seed=cfg.master_seed)

    def per_slice(inc, states, x_n, good):
        jac, ad, _, h_dot, _, trace = _bridge_chain(spec, states, grid, v, weights)
        lhs = f.f(x_n) * (_hdot_sum(h_dot, inc) - trace)

        # adjoint sweep: a_i = (I + dt dZ(X_i))^T a_{i+1}, a_N = grad f(X_T)
        adj = f.grad_f(x_n).T                                 # (n, P)
        rhs = np.zeros(len(inc))
        dt = grid.dt
        for i in range(grid.n_steps - 1, -1, -1):
            dfdw = np.einsum("cp,cd->dp", adj[spec.m:], spec.sigma)      # (d, P)
            rhs += np.einsum("dp,dp->p", dfdw, h_dot[..., i]) * dt
            adj = adj + dt * np.einsum("bap,bp->ap", jac[..., i], adj)
        return (lhs - rhs, lhs, rhs), good & ~ad.degenerate, None

    (gaps, lhs, rhs), ok, _ = _mc_run(spec, grid, cfg, per_slice, 3, x0=x0)
    return (*_mean_se(gaps[ok], ok, cfg.antithetic),
            float(np.mean(lhs[ok])), float(np.mean(rhs[ok])))
