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
``valid_mask``/``first_bad_step`` to detect and reject such paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TimeGrid",
    "sample_noise",
    "refine_noise",
    "simulate_path",
    "terminal_flow",
    "directional_jacobian",
    "full_jacobian_flow",
    "valid_mask",
    "first_bad_step",
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


def sample_noise(grid, d, rng, n_paths):
    """Draw (n_paths, N, d) Brownian increments from a numpy Generator."""
    return rng.standard_normal((n_paths, grid.n_steps, d)) * np.sqrt(grid.dt)


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


def first_bad_step(states):
    """Per-path index of the first node with a non-finite entry, -1 if none."""
    bad = ~np.isfinite(states).all(axis=-1)
    idx = np.argmax(bad, axis=-1)
    idx[~bad.any(axis=-1)] = -1
    return idx


def terminal_flow(spec, jac, grid):
    """Terminal flow family K(T, t_i), i = 0..N, of the noise-free block.

    Built from per-step propagators P_i = I + dt d1Z1(X_i) by backward
    accumulation K(T, t_i) = K(T, t_{i+1}) P_i, K(T, T) = I, with d1Z1 read
    from the node Jacobian ``jac``.  Shape (B, N+1, m, m).
    """
    n_paths, n_nodes = jac.shape[:2]
    if n_nodes != grid.n_steps + 1:
        raise ConfigurationError("node Jacobian does not match the grid")
    m = spec.m
    a_blocks = jac[..., :m, :m]                            # (B, N+1, m, m)
    k = np.empty((n_paths, n_nodes, m, m))
    k[:, -1] = np.eye(m)
    dt = grid.dt
    eye = np.eye(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps - 1, -1, -1):
            p_i = eye + dt * a_blocks[:, i]
            k[:, i] = k[:, i + 1] @ p_i
    return k


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
    ``jac``.  Shape (B, N+1, n, n).  Used by sensitivity propagation.
    """
    n_paths, n_nodes, n = jac.shape[:3]
    phi = np.empty((n_paths, n_nodes, n, n))
    phi[:, 0] = np.eye(n)
    dt = grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_nodes - 1):
            f_i = np.eye(n) + dt * jac[:, i]
            phi[:, i + 1] = f_i @ phi[:, i]
    return phi
