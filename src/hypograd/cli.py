"""Config-driven experiment runner.

One JSON config file describes a model and one experiment; ``run`` executes
it reproducibly and writes ``results.json`` (list of result records),
``results.csv`` (flat projection of the same records) and, for sweeps,
``plotdata.csv``.  Unknown config keys are hard errors and the schema is
versioned: silent config drift is the main reproducibility killer.

Result records exclude wall-clock time so that identical (config, seed)
reruns are byte-identical; timing goes to the ``run_meta.json`` sidecar.

Exit codes: 0 success, 2 validation failure (bad config or failed model
validation), 3 degenerate run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis as _analysis
from . import estimator as _est
from .errors import ConfigurationError, HypogradError, RunDegenerateError
from .exprdrift import DriftExpr
from .flow import TimeGrid
from .model import ModelSpec, builtin_model, builtin_schemas, validate_model

SCHEMA_VERSION = 1

_F_TAGS = ("linear", "quadratic", "gaussian_bump", "indicator")

_SCHEMA = {
    "schema_version": None,
    "experiment": None,
    "output": None,
    "model": {"builtin": None, "params": None, "custom": {
        "m": None, "d": None, "z1": None, "z2": None, "sigma": None,
        "b0": None, "epsilon": None}},
    "x0": None,
    "v": None,
    "f": {"tag": None, "params": None},
    "grid": {"t_final": None, "n_steps": None},
    "estimator": {"n_paths": None, "master_seed": None, "method": None,
                  "fd_bump": None, "antithetic": None, "moment_p": None,
                  "chunk_size": None, "c_bound": None},
    "validate": {"box_lo": None, "box_hi": None, "n_samples": None, "seed": None},
    "sweep": {"t_grid": None, "n_steps": None, "c_bound": None},
    "gramian": {"t_grid": None},
    "harnack": {"p_grid": None, "t_final": None, "n_steps": None,
                "use_oracle": None, "scales": None, "holdout_scales": None},
    "entropy": {"t_final": None, "lambda_grid": None, "n_steps": None},
    "duality": {"functions": None},
}

_EXPERIMENTS = ("validate", "estimate", "sweep_T", "gramian", "kalman",
                "harnack", "entropy_gradient", "duality_test")


def _check_keys(obj, schema, path=""):
    if schema is None or not isinstance(obj, dict):
        return
    for key, val in obj.items():
        if key not in schema:
            raise ConfigurationError(f"unknown config key {path + key!r}")
        if isinstance(schema[key], dict):
            _check_keys(val, schema[key], path + key + ".")


def load_config(path):
    """Parse and schema-check a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    _check_keys(cfg, _SCHEMA)
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')}")
    if cfg.get("experiment") not in _EXPERIMENTS:
        raise ConfigurationError(
            f"experiment must be one of {_EXPERIMENTS}, got {cfg.get('experiment')!r}")
    if "model" not in cfg:
        raise ConfigurationError("config needs a model section")
    if "output" not in cfg:
        raise ConfigurationError("config needs an output directory")
    return cfg


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg):
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def build_model(model_cfg):
    if ("builtin" in model_cfg) == ("custom" in model_cfg):
        raise ConfigurationError("model must have exactly one of builtin/custom")
    if "builtin" in model_cfg:
        return builtin_model(model_cfg["builtin"], model_cfg.get("params", {}))
    return _custom_model(model_cfg["custom"])


def _custom_model(c):
    for key in ("m", "d", "z1", "z2", "sigma", "b0"):
        if key not in c:
            raise ConfigurationError(f"custom model needs key {key!r}")
    m, d = int(c["m"]), int(c["d"])
    n = m + d
    z1 = DriftExpr(list(c["z1"]), n)
    z2 = DriftExpr(list(c["z2"]), n)
    if z1.n_out != m or z2.n_out != d:
        raise ConfigurationError("custom drift component counts do not match (m, d)")
    zfull = DriftExpr(z1.components + z2.components, n)
    const_j1 = z1.is_constant_jacobian()
    const_j2 = z2.is_constant_jacobian()
    drift_matrix = None
    if const_j1 and const_j2 and np.allclose(zfull.value(np.zeros(n)), 0.0):
        drift_matrix = zfull.jacobian(np.zeros(n))
    return ModelSpec(
        m=m, d=d, z=zfull.value, dz=zfull.jacobian,
        sigma=np.asarray(c["sigma"], dtype=float),
        b0=np.asarray(c["b0"], dtype=float),
        epsilon=float(c.get("epsilon", 0.0)),
        hess_z1=z1.hessian,
        constant_jac_z1=const_j1, constant_jac_z2=const_j2,
        drift_matrix=drift_matrix, name="custom", params=dict(c))


def build_test_function(f_cfg):
    tag = f_cfg.get("tag")
    params = f_cfg.get("params", {})
    if tag == "linear":
        return _est.linear_f(params["a"], params.get("b", 0.0))
    if tag == "quadratic":
        return _est.quadratic_f(params["s"], params.get("b"), params.get("c", 0.0))
    if tag == "gaussian_bump":
        return _est.gaussian_bump_f(params["center"], params.get("width", 1.0))
    if tag == "indicator":
        return _est.indicator_f(params.get("index", 0), params.get("threshold", 0.0))
    raise ConfigurationError(f"f tag must be one of {_F_TAGS}, got {tag!r}")


def build_estimator_config(cfg, seed_override=None, threads=1):
    e = dict(cfg.get("estimator", {}))
    return _est.EstimatorConfig(
        n_paths=int(e.get("n_paths", 10000)),
        master_seed=int(seed_override if seed_override is not None
                        else e.get("master_seed", 0)),
        method=e.get("method", "bismut_ito"),
        fd_bump=float(e.get("fd_bump", 1e-3)),
        antithetic=bool(e.get("antithetic", False)),
        moment_p=float(e.get("moment_p", 4.0)),
        n_threads=int(threads),
        chunk_size=(int(e["chunk_size"]) if e.get("chunk_size") else None),
        c_bound=(float(e["c_bound"]) if e.get("c_bound") is not None else None),
    )


# ---------------------------------------------------------------------------
# experiment drivers; each returns (metrics, plotdata_rows | None, status)
# ---------------------------------------------------------------------------

def _exp_validate(spec, cfg, run_cfg):
    sec = cfg.get("validate", {})
    lo = np.asarray(sec.get("box_lo", [-1.0] * spec.dim), dtype=float)
    hi = np.asarray(sec.get("box_hi", [1.0] * spec.dim), dtype=float)
    report = validate_model(spec, (lo, hi), int(sec.get("n_samples", 256)),
                            int(sec.get("seed", 0)))
    metrics = {f"margin_{c.name}": c.margin for c in report.checks}
    metrics.update({f"pass_{c.name}": float(c.passed) for c in report.checks})
    metrics["overall"] = float(report.overall)
    print(report)
    return metrics, None, (0 if report.overall else 2)


def _vec(cfg, key, spec):
    if key not in cfg:
        raise ConfigurationError(f"experiment {cfg.get('experiment')!r} needs {key!r}")
    arr = np.asarray(cfg[key], dtype=float).ravel()
    if arr.shape != (spec.dim,):
        raise ConfigurationError(
            f"{key} has dimension {arr.size}, model needs {spec.dim}")
    return arr


def _exp_estimate(spec, cfg, run_cfg):
    x0 = _vec(cfg, "x0", spec)
    v = _vec(cfg, "v", spec)
    f = build_test_function(cfg["f"])
    grid = TimeGrid(float(cfg["grid"]["t_final"]), int(cfg["grid"]["n_steps"]))
    method = run_cfg.method
    if method == "closed_form":
        value = _est.closed_form_gradient(spec, x0, v, f, grid.t_final)
        return {"value": value, "std_error": 0.0, "n_effective": 0,
                "rejected": 0}, None, 0
    if method in ("bismut_ito", "bismut_skorokhod"):
        est = _est.bismut_gradient(spec, x0, v, f, grid, run_cfg)
    elif method == "pathwise":
        est = _est.pathwise_gradient(spec, x0, v, f, grid, run_cfg)
    else:                                   # EstimatorConfig admits no other method
        est = _est.fd_gradient(spec, x0, v, f, grid, run_cfg)
    metrics = {
        "value": est.value, "std_error": est.std_error,
        "weight_l2": est.weight_l2,
        "n_effective": float(est.n_effective), "rejected": float(est.rejected),
        "delta_mean": est.delta_mean, "delta_se": est.delta_se,
        "kurtosis": est.kurtosis, "moment_flagged": float(est.moment_flagged),
    }
    if est.value_cv is not None:
        metrics["value_cv"] = est.value_cv
        metrics["std_error_cv"] = est.std_error_cv
    for key in ("alpha_dot_gap", "q_bound_ratio"):
        if key in est.diagnostics:
            metrics[key] = float(est.diagnostics[key])
    for key, val in est.diagnostics.get("weights", {}).items():
        if isinstance(val, float):
            metrics[f"xi_{key}"] = val
    if "bridge_residuals_max" in est.diagnostics:
        res = est.diagnostics["bridge_residuals_max"]
        metrics["alpha0_residual_max"] = float(res[0])
        metrics["alphaN_residual_max"] = float(res[1])
        metrics["gN_residual_max"] = float(res[2])
    print(f"estimate[{method}] value={est.value:.6g} se={est.std_error:.3g} "
          f"weight_l2={est.weight_l2:.4g} rejected={est.rejected}")
    return metrics, None, 0


def _exp_sweep(spec, cfg, run_cfg):
    sec = cfg.get("sweep", {})
    if "t_grid" not in sec:
        raise ConfigurationError("sweep_T needs sweep.t_grid")
    x0 = _vec(cfg, "x0", spec)
    v = _vec(cfg, "v", spec)
    f = build_test_function(cfg["f"])
    fit = _analysis.gradient_rate_sweep(
        spec, x0, v, f, np.asarray(sec["t_grid"], dtype=float), run_cfg,
        n_steps=int(sec.get("n_steps", 512)), c_bound=sec.get("c_bound"))
    metrics = {"slope": fit.slope, "slope_ci": fit.slope_ci,
               "theoretical_exponent": float(fit.theoretical_exponent),
               "passed": float(bool(fit.passed)),
               "n_used": float(len(fit.grid)), "n_excluded": float(len(fit.excluded))}
    ses = fit.extras.get("weight_se", [0.0] * len(fit.grid))
    rows = [("T", "weight_l2", "std_error")] + [
        (t, val, se) for t, val, se in zip(fit.grid, fit.values, ses)]
    print(f"sweep_T slope={fit.slope:.4f} theory={fit.theoretical_exponent} "
          f"passed={fit.passed}")
    return metrics, rows, 0


def _exp_gramian(spec, cfg, run_cfg):
    sec = cfg.get("gramian", {})
    t_grid = np.asarray(sec.get("t_grid", np.geomspace(1e-3, 1e-1, 9)), dtype=float)
    if not spec.constant_jac_z1:
        raise ConfigurationError("gramian experiment needs constant jac_z1")
    a0 = spec.dz(np.zeros(spec.dim))[:spec.m, :spec.m]
    fit = _analysis.gramian_scaling(a0, spec.b0, t_grid)
    metrics = {"slope": fit.slope, "slope_ci": fit.slope_ci,
               "theoretical_exponent": float(fit.theoretical_exponent),
               "kalman_k": float(fit.extras["kalman_k"])}
    rows = [("t", "lambda_min", "std_error")] + [
        (t, val, 0.0) for t, val in zip(fit.grid, fit.values)]
    print(f"gramian slope={fit.slope:.4f} (2k+1={fit.theoretical_exponent})")
    return metrics, rows, 0


def _exp_kalman(spec, cfg, run_cfg):
    if not spec.constant_jac_z1:
        raise ConfigurationError("kalman experiment needs constant jac_z1")
    a0 = spec.dz(np.zeros(spec.dim))[:spec.m, :spec.m]
    res = _analysis.kalman_index(a0, spec.b0)
    metrics = {"k": float(res.k) if res.k is not None else -1.0}
    for j, (r, s) in enumerate(zip(res.ranks, res.singular_values)):
        metrics[f"rank_{j}"] = float(r)
        metrics[f"sv_{j}"] = float(s)
    print(f"kalman k={res.k} ranks={res.ranks}")
    return metrics, None, 0


def _exp_harnack(spec, cfg, run_cfg):
    sec = cfg.get("harnack", {})
    x0 = _vec(cfg, "x0", spec)
    v = _vec(cfg, "v", spec)
    f = build_test_function(cfg["f"])
    rep = _analysis.harnack_check(
        spec, f, x0, v, sec.get("p_grid", [2.0, 4.0]),
        float(sec.get("t_final", 1.0)), run_cfg,
        n_steps=int(sec.get("n_steps", 256)),
        scales=tuple(sec.get("scales", (0.4, 0.7, 1.0, 1.3))),
        holdout_scales=tuple(sec.get("holdout_scales", (0.55, 0.85, 1.15))),
        use_oracle=bool(sec.get("use_oracle", False)))
    metrics = {"fitted_c": rep.fitted_c, "margin": rep.margin,
               "n_train": float(len(rep.points)),
               "n_holdout": float(len(rep.holdout_points)),
               "dropped": float(rep.dropped)}
    print(f"harnack fitted_c={rep.fitted_c:.4g} margin={rep.margin:.4g}")
    return metrics, None, 0


def _exp_entropy(spec, cfg, run_cfg):
    sec = cfg.get("entropy", {})
    x0 = _vec(cfg, "x0", spec)
    v = _vec(cfg, "v", spec)
    f = build_test_function(cfg["f"])
    rows, a_fit, stats = _analysis.entropy_gradient_check(
        spec, x0, v, f, float(sec.get("t_final", 1.0)),
        np.asarray(sec.get("lambda_grid", [0.5, 1.0, 2.0, 4.0]), dtype=float),
        run_cfg, n_steps=int(sec.get("n_steps", 256)))
    metrics = {"a_fit": a_fit, "grad_abs": rows[0]["lhs"],
               "entropy_term": rows[0]["entropy_term"], "p_t_f": rows[0]["p_t_f"]}
    plot = [("lambda", "gamma_hat", "std_error")] + [
        (r["lambda"], r["gamma_hat"], 0.0) for r in rows]
    print(f"entropy_gradient a_fit={a_fit:.4g}")
    return metrics, plot, 0


def _exp_duality(spec, cfg, run_cfg):
    sec = cfg.get("duality", {})
    x0 = _vec(cfg, "x0", spec)
    v = _vec(cfg, "v", spec)
    grid = TimeGrid(float(cfg["grid"]["t_final"]), int(cfg["grid"]["n_steps"]))
    if grid.n_steps > 16:
        raise ConfigurationError("duality_test is a small-N mode (n_steps <= 16)")
    metrics = {}
    status = 0
    for name in sec.get("functions", ["linear", "quadratic"]):
        if name == "linear":
            f = _est.linear_f(np.arange(1, spec.dim + 1, dtype=float))
        elif name == "quadratic":
            f = _est.quadratic_f(np.eye(spec.dim) + 0.1)
        else:
            raise ConfigurationError(f"duality function {name!r} not supported")
        gap, se, lhs, rhs = _est.duality_gap(spec, x0, v, f, grid, run_cfg)
        metrics[f"gap_{name}"] = gap
        metrics[f"se_{name}"] = se
        metrics[f"lhs_{name}"] = lhs
        metrics[f"rhs_{name}"] = rhs
        ok = abs(gap) <= 4.0 * se
        print(f"duality[{name}] gap={gap:.5g} se={se:.3g} {'OK' if ok else 'FAIL'}")
        if not ok:
            status = 2
    return metrics, None, status


_DRIVERS = {
    "validate": _exp_validate,
    "estimate": _exp_estimate,
    "sweep_T": _exp_sweep,
    "gramian": _exp_gramian,
    "kalman": _exp_kalman,
    "harnack": _exp_harnack,
    "entropy_gradient": _exp_entropy,
    "duality_test": _exp_duality,
}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def _fmt(x):
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_results(out_dir, records, plotdata):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.json", "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    keys = ["config_hash", "run_id", "experiment", "model"]
    metric_keys = sorted({k for r in records for k in r["metrics"]})
    with open(out / "results.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys + metric_keys)
        for r in records:
            row = [r[k] for k in keys]
            row += [_fmt(r["metrics"].get(k, "")) for k in metric_keys]
            writer.writerow(row)
    if plotdata is not None:
        with open(out / "plotdata.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(plotdata[0])
            for row in plotdata[1:]:
                writer.writerow([_fmt(float(x)) for x in row])


def run(config_path, seed_override=None, threads=None, out_override=None):
    """Execute one experiment config; returns the process exit status."""
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg.setdefault("estimator", {})["master_seed"] = int(seed_override)
    if out_override is not None:
        cfg["output"] = str(out_override)
    if threads is None:
        threads = int(os.environ.get("HYPOGRAD_THREADS", "1"))
    chash = config_hash(cfg)
    spec = build_model(cfg["model"])
    run_cfg = build_estimator_config(cfg, threads=threads)
    out_dir = Path(cfg["output"])
    out_dir.mkdir(parents=True, exist_ok=True)
    lock = out_dir / ".hypograd.lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.close(fd)
    except FileExistsError:
        raise ConfigurationError(
            f"output directory {out_dir} is locked by another run "
            f"(remove {lock} if stale)")
    t0 = time.time()
    try:
        metrics, plotdata, status = _DRIVERS[cfg["experiment"]](spec, cfg, run_cfg)
        record = {
            "config_hash": chash,
            "run_id": chash[:12],
            "experiment": cfg["experiment"],
            "model": spec.name,
            "schema_version": SCHEMA_VERSION,
            "config": cfg,
            "metrics": {k: (float(v) if isinstance(v, (int, float, np.floating))
                            else v) for k, v in metrics.items()},
        }
        for key, val in record["metrics"].items():
            if isinstance(val, float) and not np.isfinite(val):
                raise RunDegenerateError(f"non-finite metric {key}={val}")
        write_results(out_dir, [record], plotdata)
        with open(out_dir / "run_meta.json", "w", encoding="utf-8") as fh:
            json.dump({"wall_time_s": time.time() - t0, "run_id": chash[:12]},
                      fh, indent=2)
        return status
    finally:
        lock.unlink(missing_ok=True)


def list_builtins(stream=None):
    """Stable listing of builtin models and their parameter schemas."""
    stream = stream or sys.stdout
    schemas = builtin_schemas()
    for name in sorted(schemas):
        sch = schemas[name]
        stream.write(f"{name}\n")
        stream.write(f"  required: {', '.join(sch['required']) or '(none)'}\n")
        opts = ", ".join(f"{k}={sch['optional'][k]!r}" for k in sorted(sch["optional"]))
        stream.write(f"  optional: {opts or '(none)'}\n")
        stream.write(f"  {sch['doc']}\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hypograd",
        description="Gradient estimation for degenerate diffusions: Monte Carlo "
                    "derivative weights, Gramian/Kalman diagnostics, rate and "
                    "Harnack verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment config")
    runp.add_argument("config", help="path to the JSON config file")
    runp.add_argument("--seed", type=int, default=None,
                      help="override estimator.master_seed")
    runp.add_argument("--threads", type=int, default=None,
                      help="worker threads (default: HYPOGRAD_THREADS or 1)")
    runp.add_argument("--out", default=None, help="override the output directory")
    sub.add_parser("list-builtins", help="list builtin models and parameters")
    args = parser.parse_args(argv)
    if args.command == "list-builtins":
        return list_builtins()
    try:
        return run(args.config, seed_override=args.seed, threads=args.threads,
                   out_override=args.out)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RunDegenerateError as exc:
        print(f"degenerate run: {exc}", file=sys.stderr)
        return 3
    except HypogradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
