"""The benchmark's fixed workloads: the config each one runs and the check
its results must pass.  Why each workload exists, and which layers it
stresses or bypasses, is written down in README.md next to this file."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent

# Position-dependent mass: d1Z1 = mu(x1) is not constant, so every path
# builds its own control and pays the anticipative Skorokhod trace.
MASS_MODEL = {"builtin": "hamiltonian",
              "params": {"v_expr": "0.5*x1^2 + 0.1*x1^4",
                         "mass_expr": "1 + 0.2*x1^2", "c_mass": 1.0}}

# kinetic_ou with every parameter pinned, so a change of builtin defaults
# cannot move the closed-form reference.
KINETIC_PARAMS = {"m": 1, "k": 1.0, "gamma": 1.0, "sigma": 1.0}


def _ito_kinetic(seed, n_paths):
    return {
        "experiment": "estimate",
        "model": {"builtin": "kinetic_ou", "params": dict(KINETIC_PARAMS)},
        "x0": [1.0, 1.0], "v": [1.0, 0.0],
        "f": {"tag": "linear", "params": {"a": [1.0, 0.0]}},
        "grid": {"t_final": 1.0, "n_steps": 512},
        "estimator": {"n_paths": n_paths, "master_seed": seed,
                      "method": "bismut_ito"},
    }


def _skorokhod_mass(seed, n_paths):
    return {
        "experiment": "estimate",
        "model": MASS_MODEL,
        "x0": [0.3, -0.2], "v": [0.7, -0.4],
        "f": {"tag": "gaussian_bump", "params": {"center": [0.2, 0.0], "width": 0.8}},
        "grid": {"t_final": 0.5, "n_steps": 256},
        "estimator": {"n_paths": n_paths, "master_seed": seed,
                      "method": "bismut_skorokhod", "c_bound": 3.0},
    }


def _duality_short(seed, n_paths):
    return {
        "experiment": "duality_test",
        "model": MASS_MODEL,
        "x0": [0.3, -0.2], "v": [0.7, -0.4],
        "grid": {"t_final": 0.5, "n_steps": 12},
        "estimator": {"n_paths": n_paths, "master_seed": seed,
                      "method": "bismut_skorokhod", "chunk_size": 8000,
                      "c_bound": 3.0},
        "duality": {"functions": ["quadratic"]},
    }


def kinetic_closed_form(cfg):
    """grad_v E[a.X_T] = a . exp(T G) v for the affine kinetic_ou model,
    computed here without hypograd so the reference cannot drift with it."""
    p = cfg["model"]["params"]
    g = np.array([[0.0, 1.0], [-p["k"], -p["gamma"]]])
    lam, vec = np.linalg.eig(cfg["grid"]["t_final"] * g)
    flow = (vec * np.exp(lam)) @ np.linalg.inv(vec)
    a = np.asarray(cfg["f"]["params"]["a"], dtype=float)
    return float(np.real(a @ flow @ np.asarray(cfg["v"], dtype=float)))


def _gate_ito(cfg, metrics):
    ref = kinetic_closed_form(cfg)
    se = metrics["std_error"]
    if not abs(metrics["value"] - ref) <= 4.0 * se:
        return [f"value {metrics['value']!r} is more than 4 se ({se!r}) "
                f"from the closed form {ref!r}"]
    return []


def _gate_skorokhod(cfg, metrics):
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)["skorokhod_mass"]
    errors = []
    tol = 4.0 * math.hypot(metrics["std_error"], ref["std_error"])
    if not abs(metrics["value"] - ref["value"]) <= tol:
        errors.append(f"value {metrics['value']!r} is more than {tol!r} from "
                      f"the pathwise reference {ref['value']!r}")
    for key in ("alpha0_residual_max", "alphaN_residual_max"):
        if not metrics[key] <= 1e-12:
            errors.append(f"{key} = {metrics[key]!r} is not round-off")
    grid = cfg["grid"]
    v_norm = float(np.linalg.norm(cfg["v"]))
    g_tol = 10.0 * (1.0 + v_norm) * grid["t_final"] / grid["n_steps"]
    if not metrics["gN_residual_max"] <= g_tol:
        errors.append(f"gN_residual_max = {metrics['gN_residual_max']!r} "
                      f"exceeds {g_tol!r}")
    if not metrics["q_bound_ratio"] <= 1.0 + 1e-9:
        errors.append(f"q_bound_ratio = {metrics['q_bound_ratio']!r} exceeds 1")
    return errors


def _gate_duality(cfg, metrics):
    # duality_test exits 0 on FAIL, so the identity is checked from the
    # recorded gap and its standard error, never from the exit status.
    gap, se = metrics["gap_quadratic"], metrics["se_quadratic"]
    if not abs(gap) <= 4.0 * se:
        return [f"integration-by-parts gap {gap!r} exceeds 4 se ({se!r})"]
    return []


@dataclass(frozen=True)
class Workload:
    build: Callable          # (seed, n_paths) -> config body
    n_paths: int
    gate: Callable           # (config, results metrics) -> list of failures
    se_key: str              # standard error behind time_to_target_s
    fingerprint_keys: tuple  # outputs that must repeat bit for bit

    def config(self, seed, output):
        cfg = {"schema_version": 1, "output": output}
        cfg.update(self.build(seed, self.n_paths))
        return cfg


WORKLOADS = {
    "ito_kinetic": Workload(_ito_kinetic, 32768, _gate_ito, "std_error",
                            ("value", "std_error")),
    "skorokhod_mass": Workload(_skorokhod_mass, 4096, _gate_skorokhod,
                               "std_error", ("value", "std_error")),
    "duality_short": Workload(_duality_short, 64000, _gate_duality,
                              "se_quadratic",
                              ("gap_quadratic", "se_quadratic",
                               "lhs_quadratic", "rhs_quadratic")),
}
