"""Euler simulation of the degenerate SDE and its variational flows.

The propagated objects are the state path X, the terminal flow family
K(T, t_i) of the noise-free block (fundamental solution of the linearized
X1-dynamics, accumulated backward from T), the full state-transition
matrices Phi_i = dX_i/dX_0, and the terminal directional derivative
J_N = dX_N/dx0 . v.

Everything is batched over paths: Brownian increments are (B, N, d) with
increments[:, i, :] ~ N(0, dt I_d), states are (B, N+1, n), and one path
is a batch of one.  The flows take the node Jacobian ``jac`` = DZ(X) of
shape (B, N+1, n, n), evaluated once by the caller, in place of the
states.  Non-finite states are propagated, not clamped; use
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
    "directional_jacobian",
    "full_jacobian_flow",
    "valid_mask",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with N steps: t_i = i T / N."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if self.t_final <= 0:
            raise ConfigurationError("t_final must be positive")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be a positive integer")

    @property
    def dt(self):
        return self.t_final / self.n_steps

    @property
    def nodes(self):
        return np.linspace(0.0, self.t_final, self.n_steps + 1)


def simulate_path(spec, x0, grid, inc):
    """Euler path X_{i+1} = X_i + Z(X_i) dt + (0, sigma dB_i).

    Deterministic given (x0, inc).  Increments (B, N, d) give states
    (B, N+1, m+d), stepped in a time-major (N+1, B, m+d) buffer, so each
    step reads and writes one contiguous slab; the result is a path-major
    view of that buffer (not C-contiguous; callers that need contiguous
    paths copy it).
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
    dt = grid.dt
    x = np.empty((n_steps + 1, n_paths, spec.dim))
    x[0] = x0
    # path-major product, read strided per step: BLAS rounds a time-major
    # (N, B, d) @ (d, d) product differently when B or N is 1
    kicks = inc @ spec.sigma.T
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            xi = x[i]
            np.add(xi, spec.drift(xi) * dt, out=x[i + 1])
            x[i + 1, :, spec.m:] += kicks[:, i]
    return np.swapaxes(x, 0, 1)


def valid_mask(states):
    """Boolean per-path mask: True where every state entry is finite."""
    return np.isfinite(states).all(axis=-2).all(axis=-1)


def terminal_flow(spec, jac, grid):
    """Terminal flow family K(T, t_i), i = 0..N, of the noise-free block.

    Built from per-step propagators P_i = I + dt d1Z1(X_i) by backward
    accumulation K(T, t_i) = K(T, t_{i+1}) P_i, K(T, T) = I, with d1Z1 read
    from the node Jacobian ``jac``.  Stepped in a time-major buffer and
    returned as a contiguous (B, N+1, m, m) array.
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
            k[i] = k[i + 1] @ (eye + dt * jac[:, i, :m, :m])
    return np.ascontiguousarray(np.swapaxes(k, 0, 1))  # Gramian products run faster


def directional_jacobian(spec, states, grid, v):
    """Terminal directional derivative J_N = dX_N/dx0 . v by forward Euler.

    J_{i+1} = (I + dt dZ(X_i)) J_i with J_0 = v; exact derivative of the
    discrete Euler map.  Only the running node is kept.  Shape (B, m+d).
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.shape != (spec.dim,):
        raise ConfigurationError(f"v must have dimension {spec.dim}")
    x = np.asarray(states, dtype=float)
    jac = np.broadcast_to(v, x.shape[:1] + v.shape).copy()
    dt = grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(x.shape[1] - 1):
            g = spec.full_jacobian(x[:, i])
            jac = jac + dt * np.einsum("pab,pb->pa", g, jac)
    return jac


def full_jacobian_flow(jac, grid):
    """State-transition matrices Phi_i = dX_i/dX_0 of the discrete chain.

    Phi_0 = I, Phi_{i+1} = (I + dt dZ(X_i)) Phi_i from the node Jacobian
    ``jac``, stepped in a time-major buffer; returns its path-major
    (B, N+1, n, n) view.  ``np.matmul``: an element-wise product would not
    have the bits of its per-member BLAS product.
    """
    n_paths, n_nodes, n = jac.shape[:3]
    dt, eye = grid.dt, np.eye(n)
    phi = np.empty((n_nodes, n_paths, n, n))
    phi[0] = eye
    step = np.empty((n_paths, n, n))                       # I + dt dZ(X_i), reused
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_nodes - 1):
            np.multiply(jac[:, i], dt, out=step)
            step += eye
            np.matmul(step, phi[i], out=phi[i + 1])
    return np.swapaxes(phi, 0, 1)
