"""Euler simulation of the degenerate SDE and its variational flows.

The three propagated objects are the state path X, the terminal flow family
K(T, t_i) of the noise-free block (fundamental solution of the linearized
X1-dynamics, accumulated backward from T), and the full directional
derivative path J_i = dX_i/dx0 . v.

All functions accept either one path (arrays shaped (N, d) / (N+1, n)) or a
batch (leading batch axis); outputs match the input convention.  Non-finite
states are propagated, not clamped; use ``valid_mask``/``first_bad_step`` to
detect and reject such paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "TimeGrid",
    "NoisePath",
    "sample_noise",
    "refine_noise",
    "simulate_path",
    "terminal_flow",
    "directional_jacobian",
    "full_jacobian_flow",
    "node_jacobian",
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


@dataclass(frozen=True)
class NoisePath:
    """Brownian increments on a grid; increments[..., i, :] ~ N(0, dt I_d)."""

    increments: np.ndarray
    stream_id: int = 0

    @property
    def n_steps(self):
        return self.increments.shape[-2]

    @property
    def d(self):
        return self.increments.shape[-1]


def sample_noise(grid, d, rng, n_paths=None, stream_id=0):
    """Draw Brownian increments for the grid from a numpy Generator."""
    shape = (grid.n_steps, d) if n_paths is None else (n_paths, grid.n_steps, d)
    inc = rng.standard_normal(shape) * np.sqrt(grid.dt)
    return NoisePath(increments=inc, stream_id=stream_id)


def refine_noise(noise, grid, rng):
    """Split each increment into two bridge-consistent halves.

    The fine path agrees with the coarse one at the coarse nodes: a coarse
    increment w over dt becomes the pair (w/2 + z, w/2 - z) with
    z ~ N(0, dt/4), the conditional law of the midpoint.  Returns the
    refined (NoisePath, TimeGrid) pair.
    """
    inc = np.asarray(noise.increments, dtype=float)
    z = rng.standard_normal(inc.shape) * (0.5 * np.sqrt(grid.dt))
    halves = np.stack([0.5 * inc + z, 0.5 * inc - z], axis=-2)  # (..., N, 2, d)
    fine = halves.reshape(inc.shape[:-2] + (2 * inc.shape[-2], inc.shape[-1]))
    return (NoisePath(increments=fine, stream_id=noise.stream_id),
            TimeGrid(t_final=grid.t_final, n_steps=2 * grid.n_steps))


def simulate_path(spec, x0, grid, noise):
    """Euler path X_{i+1} = X_i + Z(X_i) dt + (0, sigma dB_i).

    Deterministic given (x0, noise).  Returns states of shape (N+1, m+d),
    or (B, N+1, m+d) for batched increments.  The batch is stepped in a
    time-major (N+1, B, m+d) buffer, so each step reads and writes one
    contiguous slab; the result is a path-major view of that buffer (not
    C-contiguous; callers that need contiguous paths copy it).
    """
    inc = np.asarray(noise.increments, dtype=float)
    single = inc.ndim == 2
    if single:
        inc = inc[None]
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
    x = np.swapaxes(x, 0, 1)
    return x[0] if single else x


def valid_mask(states):
    """Boolean per-path mask: True where every state entry is finite."""
    return np.isfinite(states).all(axis=-2).all(axis=-1)


def first_bad_step(states):
    """Index of the first node with a non-finite entry, or -1 if none."""
    states = np.asarray(states)
    bad = ~np.isfinite(states).all(axis=-1)
    if states.ndim == 2:
        idx = np.argmax(bad)
        return int(idx) if bad.any() else -1
    idx = np.argmax(bad, axis=-1)
    idx[~bad.any(axis=-1)] = -1
    return idx


def node_jacobian(spec, x, jac=None):
    """Full drift Jacobian at every node of batched states ``x`` (B, N+1, n).

    ``jac`` is one the caller has already evaluated at these states, for
    the batch or for a single path; without it the model is evaluated once
    in bulk.  Shape (B, N+1, n, n).
    """
    if jac is None:
        with np.errstate(over="ignore", invalid="ignore"):
            return spec.full_jacobian(x)
    jac = np.asarray(jac, dtype=float)
    return jac if jac.ndim == x.ndim + 1 else jac[None]


def terminal_flow(spec, states, grid, jac=None):
    """Terminal flow family K(T, t_i), i = 0..N, of the noise-free block.

    Built from per-step propagators P_i = I + dt d1Z1(X_i) by backward
    accumulation K(T, t_i) = K(T, t_{i+1}) P_i, K(T, T) = I.  Shape
    (N+1, m, m), batched as (B, N+1, m, m).  ``jac`` is the node Jacobian
    of ``node_jacobian``, evaluated here when not given.
    """
    x = np.asarray(states, dtype=float)
    single = x.ndim == 2
    if single:
        x = x[None]
    n_paths, n_nodes = x.shape[:2]
    if n_nodes != grid.n_steps + 1:
        raise ConfigurationError("states do not match the grid")
    m = spec.m
    a_blocks = node_jacobian(spec, x, jac)[..., :m, :m]     # (B, N+1, m, m)
    k = np.empty((n_paths, n_nodes, m, m))
    k[:, -1] = np.eye(m)
    dt = grid.dt
    eye = np.eye(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(grid.n_steps - 1, -1, -1):
            p_i = eye + dt * a_blocks[:, i]
            k[:, i] = k[:, i + 1] @ p_i
    return k[0] if single else k


def directional_jacobian(spec, states, grid, v):
    """Directional derivative path J_i = dX_i/dx0 . v by forward Euler.

    J_{i+1} = (I + dt dZ(X_i)) J_i with J_0 = v; exact derivative of the
    discrete Euler map.  Shape (N+1, m+d), batched (B, N+1, m+d).
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.shape != (spec.dim,):
        raise ConfigurationError(f"v must have dimension {spec.dim}")
    if not np.linalg.norm(v) > 0:
        raise ConfigurationError("v must be nonzero")
    x = np.asarray(states, dtype=float)
    single = x.ndim == 2
    if single:
        x = x[None]
    n_paths, n_nodes = x.shape[:2]
    jac = np.empty((n_paths, n_nodes, spec.dim))
    jac[:, 0] = v
    dt = grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_nodes - 1):
            g = spec.full_jacobian(x[:, i])
            jac[:, i + 1] = jac[:, i] + dt * np.einsum("pab,pb->pa", g, jac[:, i])
    return jac[0] if single else jac


def full_jacobian_flow(spec, states, grid, jac=None):
    """State-transition matrices Phi_i = dX_i/dX_0 of the discrete chain.

    Phi_0 = I, Phi_{i+1} = (I + dt dZ(X_i)) Phi_i.  Shape (N+1, n, n),
    batched (B, N+1, n, n).  Used by sensitivity propagation.  ``jac`` is
    the node Jacobian of ``node_jacobian``, evaluated here when not given.
    """
    x = np.asarray(states, dtype=float)
    single = x.ndim == 2
    if single:
        x = x[None]
    n_paths, n_nodes = x.shape[:2]
    n = spec.dim
    jac = node_jacobian(spec, x, jac)
    phi = np.empty((n_paths, n_nodes, n, n))
    phi[:, 0] = np.eye(n)
    dt = grid.dt
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_nodes - 1):
            f_i = np.eye(n) + dt * jac[:, i]
            phi[:, i + 1] = f_i @ phi[:, i]
    return phi[0] if single else phi

