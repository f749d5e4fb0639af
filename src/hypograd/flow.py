"""Euler simulation of the degenerate SDE and its variational flows.

The propagated objects are the state path X, the terminal directional
derivative J_N = dX_N/dx0 . v (stepped with X in the same Euler loop), the
terminal flow family K(T, t_i) of the noise-free block (fundamental solution
of the linearized X1-dynamics, accumulated backward from T) and the full
state-transition matrices Phi_i = dX_i/dX_0.

Everything is batched over paths (one path is a batch of one), with
increments (B, N, d), increments[:, i, :] ~ N(0, dt I_d), and per-node
arrays node-major, (components..., N+1, B): paths last, so each node is one
contiguous (components..., B) slab and a node-shifted operand such as
``k[..., 1:, :]`` stays a run of whole slabs.  States are (n, N+1, B),
viewed (B, N+1, n) as their plain transpose; the flows take the node
Jacobian ``jac`` = DZ(X), (n, n, N+1, B), evaluated once by the caller, step
its node slabs in place and return K(T, t_i) as (m, m, N+1, B) and Phi_i as
(n, n, N+1, B).  A product of two stacks of small per-path matrices goes
through ``einsum`` on (k, k, B) slabs, never through a stacked ``@``, which
makes one BLAS call per member: each flow step is one
``np.einsum("abp,bcp->acp", ...)``, which sums the inner index in order.
Non-finite states are propagated, not clamped; use ``valid_mask`` to detect
and reject such paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TimeGrid",
    "simulate_path",
    "terminal_flow",
    "full_jacobian_flow",
    "valid_mask",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with N steps: t_i = i T / N."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if not (np.isfinite(self.t_final) and self.t_final > 0):
            raise ConfigurationError(f"t_final must be finite and positive, got {self.t_final!r}")
        if (isinstance(self.n_steps, bool) or not isinstance(self.n_steps, (int, np.integer))
                or self.n_steps < 1):
            raise ConfigurationError(f"n_steps must be a positive integer, got {self.n_steps!r}")

    @property
    def dt(self):
        return self.t_final / self.n_steps

    @property
    def nodes(self):
        return np.linspace(0.0, self.t_final, self.n_steps + 1)


def simulate_path(spec, x0, grid, inc):
    """Euler path X_{i+1} = X_i + Z(X_i) dt + (0, sigma dB_i).

    Deterministic given (x0, inc).  Increments (B, N, d) give states
    (B, N+1, m+d): the transpose of a contiguous node-major (m+d, N+1, B)
    array, which ``states.T`` recovers without a copy.  Each step reads and
    writes whole node slabs of it, so the states are held once.
    """
    x = np.empty((spec.dim, grid.n_steps + 1, len(inc)))
    _euler_nodes(spec, x0, grid, inc, out=x)
    return x.T


def _euler_nodes(spec, x0, grid, inc, out=None, tangent=None):
    """Step the Euler nodes of ``simulate_path``: into ``out`` (m+d, N+1, B),
    node t+1 from node t, or, without ``out``, on one running (m+d, 1, B)
    slab, which is returned holding X_N; each step overwrites it with the
    same bits.  A step adds to every entry, so a non-finite one stays so.  A
    ``tangent`` (m+d, B), J_0 = v, is stepped in place with X to J_N =
    dX_N/dx0 . v by J_{i+1} = (I + dt DZ(X_i)) J_i, the exact derivative of
    the Euler map.

    The kicks ``inc @ sigma.T`` are formed per path on windows of min(32, N)
    nodes, each ending at or before node N: every path's product has that
    one shape, so no bit depends on the batch, and no window is the single
    node that BLAS would round as a vector product.
    """
    inc = np.asarray(inc, dtype=float)
    if inc.ndim != 3:
        raise ConfigurationError("increments must be shaped (B, N, d)")
    n_paths, n_steps, d = inc.shape
    if n_steps != grid.n_steps:
        raise ConfigurationError("noise does not match the grid step count")
    if d != spec.d:
        raise ConfigurationError(f"noise dimension {d} != model d={spec.d}")
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape != (spec.dim,):
        raise ConfigurationError(f"x0 must have dimension {spec.dim}")
    dt, span = grid.dt, min(n_steps, 32)
    x = np.empty((spec.dim, 1, n_paths)) if out is None else out
    x[:, 0] = x0[:, None]
    last = x.shape[1] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(0, n_steps, 32):
            lo = min(j, n_steps - span)
            kicks = inc[:, lo:lo + span] @ spec.sigma.T
            for i in range(j, min(j + 32, n_steps)):
                xt, nxt = x[:, min(i, last)], x[:, min(i + 1, last)]
                if tangent is not None:
                    tangent += dt * np.einsum("abp,bp->ap", spec.full_jacobian(xt), tangent)
                np.add(xt, spec.drift(xt) * dt, out=nxt)
                nxt[spec.m:] += kicks[:, i - lo].T
    return x


def valid_mask(states):
    """Boolean per-path mask: True where every state entry is finite."""
    return np.isfinite(states).all(axis=-2).all(axis=-1)


def terminal_flow(spec, jac, grid):
    """Terminal flow family K(T, t_i), i = 0..N, of the noise-free block.

    Built from per-step propagators P_i = I + dt d1Z1(X_i), formed once on
    the d1Z1 block of the node Jacobian ``jac``, by backward accumulation
    K(T, t_i) = K(T, t_{i+1}) P_i, K(T, T) = I, one ``einsum`` per node into
    its (m, m, B) slab.  Returned as a contiguous (m, m, N+1, B) array.
    """
    n_nodes, n_paths = jac.shape[2:]
    if n_nodes != grid.n_steps + 1:
        raise ConfigurationError("node Jacobian does not match the grid")
    m = spec.m
    k = np.empty((m, m, n_nodes, n_paths))
    k[:, :, -1] = np.eye(m)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.eye(m)[..., None, None] + grid.dt * jac[:m, :m]
        for i in range(grid.n_steps - 1, -1, -1):
            np.einsum("abp,bcp->acp", k[:, :, i + 1], steps[:, :, i], out=k[:, :, i])
    return k


def full_jacobian_flow(jac, grid):
    """State-transition matrices Phi_i = dX_i/dX_0 of the discrete chain:
    Phi_0 = I, Phi_{i+1} = (I + dt dZ(X_i)) Phi_i from the node Jacobian
    ``jac``, (n, n, N+1, B), one ``einsum`` per node into its slab."""
    n = len(jac)
    phi = np.empty(jac.shape)
    phi[:, :, 0] = np.eye(n)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(jac.shape[2] - 1):
            np.einsum("abp,bcp->acp", _propagator(jac, grid.dt, i), phi[:, :, i],
                      out=phi[:, :, i + 1])
    return phi


def _propagator(jac, dt, i):
    """The Euler step propagator F_i = I + dt DZ(X_i), (n, n, B), of node i
    of the node Jacobian ``jac``."""
    step = jac[:, :, i] * dt
    step += np.eye(len(jac))[..., None]
    return step
