"""Recompute the stored reference of the skorokhod_mass workload.

Usage, from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py

The reference is the pathwise estimator E<grad f(X_T), dX_T/dx0 v>, an
estimator independent of the Malliavin weight under test, at REF_PATHS
paths with master_seed REF_SEED.  It is written to reference.json and is
read by the workload's correctness gate; rerun this only when the workload
itself changes.
"""

from __future__ import annotations

import json

import numpy as np

from hypograd import cli, estimator
from hypograd.flow import TimeGrid
from workloads import HERE, WORKLOADS

REF_SEED = 99
REF_PATHS = 200_000


def main():
    cfg = WORKLOADS["skorokhod_mass"].config(REF_SEED, "unused")
    cfg["estimator"].update(n_paths=REF_PATHS, method="pathwise")
    spec = cli.build_model(cfg["model"])
    grid = TimeGrid(cfg["grid"]["t_final"], cfg["grid"]["n_steps"])
    est = estimator.pathwise_gradient(
        spec, np.asarray(cfg["x0"]), np.asarray(cfg["v"]),
        cli.build_test_function(cfg["f"]), grid,
        cli.build_estimator_config(cfg))
    ref = {"skorokhod_mass": {"value": est.value, "std_error": est.std_error,
                              "method": "pathwise", "master_seed": REF_SEED,
                              "n_paths": REF_PATHS, "rejected": est.rejected}}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")
    print(json.dumps(ref))


if __name__ == "__main__":
    main()
