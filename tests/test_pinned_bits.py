"""Pinned bits of the anticipative estimators.

The sha256 digests below are of the float64 outputs of a ``bismut_skorokhod``
estimate and a ``duality_gap`` run, recorded while the control chain's
per-path arrays were component-major, (components..., P, N+1).  A change to
the chain's layout, blocking or slicing that keeps every byte keeps them; a
declared round-off rebaseline must re-record them and say so.  N = 40 crosses
a 32-node block of the Skorokhod trace's Hessian loop.  Every configuration
runs on one thread and on two, and with a path slice narrower than its batch.
"""

import hashlib

import numpy as np
import pytest

from hypograd import estimator
from hypograd.control import phi_parabolic, xi_case1
from hypograd.estimator import (EstimatorConfig, bismut_gradient, duality_gap,
                                gaussian_bump_f, quadratic_f)
from hypograd.flow import TimeGrid
from hypograd.model import builtin_model
from tests.test_estimator import MULTIDIM_MODELS

DIGESTS = {
    ("mass", 12): "f549290edffdb12a6c16e96673342751057290bb43bf863edc226b84b950b674",
    ("mass", 40): "869c66e50ae7c1fd9c8a581506eabee1a58c09e5a97f688b3fb7474657fed6ce",
    ("m2", 40): "737c6b379555b56d5c1a7b5f860cfe4f410b1b3fe993e743843e85c5ce68344a",
}


def _model(name):
    if name == "mass":
        return builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4",
                                             "mass_expr": "1 + 0.2*x1^2",
                                             "c_mass": 1.0}), [0.3, -0.2]
    from hypograd.cli import build_model
    model_cfg, x0 = MULTIDIM_MODELS[0]
    return build_model({"custom": model_cfg}), x0


def _outputs(spec, x0, grid, chunk_size, n_threads):
    """The float64 outputs of one estimate and one duality run, as bytes."""
    x0, v = np.array(x0), np.linspace(0.7, -0.4, spec.dim)
    weights = xi_case1(spec.b0, phi_parabolic(grid.t_final), 3.0, grid.t_final)
    cfg = EstimatorConfig(n_paths=200, master_seed=11, method="bismut_skorokhod",
                          chunk_size=chunk_size, n_threads=n_threads)
    est = bismut_gradient(spec, x0, v, gaussian_bump_f(np.linspace(0.2, 0.0, spec.dim), 0.8),
                          grid, cfg, weights=weights)
    gap = duality_gap(spec, x0, v, quadratic_f(np.eye(spec.dim), b=np.linspace(0.5, -0.5, spec.dim)),
                      grid, cfg, weights=weights)
    diag = est.diagnostics
    vals = [est.value, est.std_error, est.value_cv, est.std_error_cv, est.weight_l2,
            est.delta_mean, est.delta_se, est.kurtosis, diag["wl2_se"],
            *diag["bridge_residuals_max"], diag["alpha_dot_gap"], diag["q_bound_ratio"],
            diag["c_bound_realized"], *gap]
    return np.array(vals, dtype=np.float64).tobytes()


@pytest.mark.parametrize("name,n_steps", sorted(DIGESTS))
def test_anticipative_outputs_keep_their_bits(name, n_steps, monkeypatch):
    spec, x0 = _model(name)
    grid = TimeGrid(0.5, n_steps)
    got = {}
    for n_threads in (1, 2):
        got[n_threads, "one slice"] = _outputs(spec, x0, grid, 128, n_threads)
    # a budget that leaves the 128-path batches slices of at most 48 paths
    log = []
    token = estimator.CHUNK_LOG.set(log)
    monkeypatch.setattr(estimator, "CHUNK_BYTES",
                        16 * 48 * int(estimator._chain_floats(spec, n_steps)))
    try:
        for n_threads in (1, 2):
            got[n_threads, "narrow"] = _outputs(spec, x0, grid, 128, n_threads)
    finally:
        estimator.CHUNK_LOG.reset(token)
    assert all(width < batch for batch, width in log)
    digests = {key: hashlib.sha256(out).hexdigest() for key, out in got.items()}
    assert set(digests.values()) == {DIGESTS[name, n_steps]}, digests
