"""Euler simulation of the degenerate SDE and its variational flows.

The propagated objects are the state path X, the terminal directional
derivative J_N = dX_N/dx0 . v (stepped with X in the same Euler loop), the
terminal flow family K(T, t_i) of the noise-free block (fundamental solution
of the linearized X1-dynamics, accumulated backward from T) and the full
state-transition matrices Phi_i = dX_i/dX_0.

Everything is batched over paths (one path is a batch of one), with
increments (B, N, d), increments[:, i, :] ~ N(0, dt I_d), and per-node
arrays component-major, (components..., B, N+1): each component is one
contiguous (B, N+1) slab.  States are (n, B, N+1), viewed (B, N+1, n); the
flows take the node Jacobian ``jac`` = DZ(X), (n, n, B, N+1), evaluated
once by the caller, step time-major scratch buffers and return K(T, t_i)
as (m, m, B, N+1) and Phi_i as (n, n, B, N+1).  A product of two stacks of
small per-path matrices goes through ``einsum`` on (k, k, B) slabs, never
through a stacked ``@``, which makes one BLAS call per member: each flow
step is one ``np.einsum("abp,bcp->acp", ...)``, which sums the inner index
in order.  Non-finite states are propagated, not clamped; use
``valid_mask`` to detect and reject such paths.
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
    (B, N+1, m+d), stepped in a time-major (N+1, m+d, B) buffer, so the
    drift reads and writes contiguous slabs.  The result is a path-major
    view of a contiguous component-major (m+d, B, N+1) array, which
    ``np.moveaxis(states, -1, 0)`` recovers without a copy.
    """
    x = _euler_nodes(spec, x0, grid, inc, grid.n_steps + 1)
    return np.moveaxis(_nodes_last(x, (1, 2, 0)), 0, -1)


def _euler_nodes(spec, x0, grid, inc, n_keep=1, tangent=None):
    """The Euler nodes of ``simulate_path``, time-major (n_keep, m+d, B): all
    N+1, or with ``n_keep`` 1 X_N alone, each step overwriting one slab with
    the same bits.  A step adds to every entry, so a non-finite one stays so.
    A ``tangent`` (m+d, B), J_0 = v, is stepped in place with X to J_N = dX_N/dx0 . v
    by J_{i+1} = (I + dt DZ(X_i)) J_i, the exact derivative of the Euler map."""
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
    dt = grid.dt
    x = np.empty((n_keep, spec.dim, n_paths))
    x[0] = x0[:, None]
    # path-major product, read strided per step: BLAS rounds a time-major
    # (N, B, d) @ (d, d) product differently when B or N is 1
    kicks = inc @ spec.sigma.T
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            xi, nxt = x[i % n_keep], x[(i + 1) % n_keep]
            if tangent is not None:
                tangent += dt * np.einsum("abp,bp->ap", spec.full_jacobian(xi), tangent)
            np.add(xi, spec.drift(xi) * dt, out=nxt)
            nxt[spec.m:] += kicks[:, i].T
    return x


def valid_mask(states):
    """Boolean per-path mask: True where every state entry is finite."""
    return np.isfinite(states).all(axis=-2).all(axis=-1)


def terminal_flow(spec, jac, grid):
    """Terminal flow family K(T, t_i), i = 0..N, of the noise-free block.

    Built from per-step propagators P_i = I + dt d1Z1(X_i), formed once on
    the component-major d1Z1 block of the node Jacobian ``jac``, by backward
    accumulation K(T, t_i) = K(T, t_{i+1}) P_i, K(T, T) = I, one ``einsum``
    per node into a (m, m, B) slab of a time-major buffer.  Returned as a
    contiguous (m, m, B, N+1) array.
    """
    n_paths, n_nodes = jac.shape[2:]
    if n_nodes != grid.n_steps + 1:
        raise ConfigurationError("node Jacobian does not match the grid")
    m = spec.m
    k = np.empty((n_nodes, m, m, n_paths))
    k[-1] = np.eye(m)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.eye(m)[..., None, None] + grid.dt * jac[:m, :m]
        for i in range(grid.n_steps - 1, -1, -1):
            np.einsum("abp,bcp->acp", k[i + 1], steps[..., i], out=k[i])
    return _nodes_last(k, (1, 2, 3, 0))


def full_jacobian_flow(jac, grid):
    """State-transition matrices Phi_i = dX_i/dX_0 of the discrete chain:
    Phi_0 = I, Phi_{i+1} = (I + dt dZ(X_i)) Phi_i from the node Jacobian
    ``jac``, a contiguous (n, n, B, N+1) array, stepped over ``_step_blocks``
    by one ``einsum`` per step into a scratch block copied out while in cache."""
    n, _, n_paths, n_nodes = jac.shape
    phi = np.empty(jac.shape)
    blk = np.empty((min(n_nodes, 32) + 1, n, n, n_paths))  # Phi at a block's nodes
    blk[0] = np.eye(n)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        for j, steps in _step_blocks(jac, grid.dt, 0, n_nodes):
            width = len(steps)
            for t in range(min(width, n_nodes - 1 - j)):
                np.einsum("abp,bcp->acp", steps[t], blk[t], out=blk[t + 1])
            phi[..., j:j + width] = np.moveaxis(blk[:width], 0, -1)
            blk[0] = blk[width]
    return phi


def _step_blocks(jac, dt, start, stop, backward=False):
    """Yield ``(j, steps)`` over the nodes [start, stop) of the node Jacobian
    ``jac`` in blocks of 32 (the last from the top when ``backward``), with
    the block's step propagators I + dt DZ(X_{j+t}) time-major, a (width, n,
    n, B) view of one scratch buffer that the next block overwrites."""
    buf = np.empty((min(stop - start, 32),) + jac.shape[:3])
    starts = range(start, stop, 32)
    for j in reversed(starts) if backward else starts:
        steps = buf[:min(32, stop - j)]
        np.multiply(np.moveaxis(jac[..., j:j + len(steps)], -1, 0), dt, out=steps)
        steps += np.eye(len(jac))[..., None]
        yield j, steps


def _nodes_last(x, perm):
    """Contiguous ``np.transpose(x, perm)`` of a time-major x with ``perm``
    ending in the node axis 0, copied 32 nodes at a time: a block stays in
    cache, several times faster than one transposing copy."""
    out = np.empty([x.shape[a] for a in perm])
    for j in range(0, len(x), 32):
        out[..., j:j + 32] = np.transpose(x[j:j + 32], perm)
    return out
