"""Config-driven experiment runner.

One JSON config file describes a model and one experiment; ``run`` executes
it reproducibly and writes ``results.json`` (list of result records),
``results.csv`` (flat projection of the same records) and, for sweeps,
``plotdata.csv``.  The versioned schema rejects unknown keys and values of
the wrong kind: silent config drift is the main reproducibility killer.

Result records exclude wall-clock time so that identical (config, seed)
reruns are byte-identical; timing goes to the ``run_meta.json`` sidecar.

Exit codes: 0 success, 2 bad config (a wrong-kind value in any section, a
malformed drift expression), failed model validation or a failed
``duality_test`` check, 3 degenerate run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis as _analysis
from . import estimator as _est
from .errors import ConfigurationError, HypogradError, RunDegenerateError
from .flow import TimeGrid
from .model import builtin_model, builtin_schemas, expression_model, validate_model

SCHEMA_VERSION = 1

_F_TAGS = ("linear", "quadratic", "gaussian_bump", "indicator")

# The kind of each config leaf, as error messages name it.  A key is nullable
# only where the default it stands for is None; a None leaf is checked by the
# builder it is passed to.
_INT, _NUM, _BOOL, _STR, _OBJ, _NUMS, _STRS = (
    "an integer", "a number", "true or false", "a string", "an object",
    "a list of numbers", "a list of strings")
_SCHEMA = {
    "schema_version": _INT,
    "experiment": _STR,
    "output": _STR,
    "model": {"builtin": _STR, "params": _OBJ, "custom": {
        "m": _INT, "d": _INT, "z1": _STRS, "z2": _STRS, "sigma": None,
        "b0": None, "epsilon": _NUM}},
    "x0": _NUMS,
    "v": _NUMS,
    "f": {"tag": _STR, "params": _OBJ},
    "grid": {"t_final": _NUM, "n_steps": _INT},
    "estimator": {"n_paths": _INT, "master_seed": _INT, "method": _STR,
                  "fd_bump": _NUM, "antithetic": _BOOL,
                  "chunk_size": _INT + " or null", "c_bound": _NUM + " or null"},
    "validate": {"box_lo": _NUMS, "box_hi": _NUMS, "n_samples": _INT, "seed": _INT},
    "sweep": {"t_grid": _NUMS, "n_steps": _INT},
    "gramian": {"t_grid": _NUMS},
    "harnack": {"p_grid": _NUMS, "t_final": _NUM, "n_steps": _INT,
                "use_oracle": _BOOL, "scales": _NUMS, "holdout_scales": _NUMS},
    "entropy": {"t_final": _NUM, "lambda_grid": _NUMS, "n_steps": _INT},
    "duality": {"functions": _STRS},
}


def _is_num(x):
    return (isinstance(x, int) and not isinstance(x, bool)
            or isinstance(x, float) and math.isfinite(x))


_KINDS = {  # kind: (test, cast to a keyword argument)
    _INT: (lambda x: _is_num(x) and (isinstance(x, int) or x.is_integer()), int),
    _NUM: (_is_num, float),
    _BOOL: (lambda x: isinstance(x, bool), bool),
    _STR: (lambda x: isinstance(x, str), str),
    _OBJ: (lambda x: isinstance(x, dict), dict),
    _NUMS: (lambda x: isinstance(x, list) and all(map(_is_num, x)),
            lambda x: [float(e) for e in x]),
    _STRS: (lambda x: isinstance(x, list) and all(isinstance(e, str) for e in x), list),
}


def _value(val, kind, key):
    """Config value ``val`` of ``kind``, integers as int and numbers as
    float; a value of another kind is a config error naming ``key``."""
    if val is None and kind.endswith(" or null"):
        return None
    test, cast = _KINDS[kind.removesuffix(" or null")]
    if not test(val):
        raise ConfigurationError(f"config key {key!r} must be {kind}, got {val!r}")
    return cast(val)


def _check_keys(obj, schema, path=""):
    if not isinstance(obj, dict):
        raise ConfigurationError(f"config key {path[:-1]!r} must be an object")
    for key, val in obj.items():
        if key not in schema:
            raise ConfigurationError(f"unknown config key {path + key!r}")
        if isinstance(schema[key], dict):
            _check_keys(val, schema[key], path + key + ".")
        elif schema[key] is not None:
            _value(val, schema[key], path + key)


def load_config(path):
    """Parse a config file and check each key and the kind of its value
    against the schema; the parsed object is returned unchanged."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config must be a JSON object")
    _check_keys(cfg, _SCHEMA)
    if cfg.get("validate", {}).get("seed", 0) < 0:
        raise ConfigurationError("config key 'validate.seed' must be >= 0")
    if cfg.get("harnack", {}).get("p_grid") == []:
        raise ConfigurationError("config key 'harnack.p_grid' must not be empty")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version must be {SCHEMA_VERSION}, got {cfg.get('schema_version')}")
    if cfg.get("experiment") not in _DRIVERS:
        raise ConfigurationError(
            f"experiment must be one of {tuple(_DRIVERS)}, got {cfg.get('experiment')!r}")
    for key in ("model", "output"):
        _need(cfg, key)
    return cfg


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg):
    return hashlib.sha256(canonical_json(cfg).encode("utf-8")).hexdigest()


def build_model(model_cfg):
    """The model of a config's model section; a malformed declaration, such
    as a drift expression that does not parse, is a config error."""
    if ("builtin" in model_cfg) == ("custom" in model_cfg):
        raise ConfigurationError("model must have exactly one of builtin/custom")
    try:
        if "builtin" in model_cfg:
            return builtin_model(model_cfg["builtin"], model_cfg.get("params", {}))
        return _custom_model(model_cfg["custom"])
    except (TypeError, ValueError, ArithmeticError) as exc:
        where = "params" if "builtin" in model_cfg else "custom"
        raise ConfigurationError(f"model.{where}: {exc}") from exc


def _custom_model(c):
    for key in ("m", "d", "z1", "z2", "sigma", "b0"):
        _need(c, key, "model.custom.")
    return expression_model(int(c["m"]), int(c["d"]), c["z1"], c["z2"], sigma=c["sigma"],
                            b0=c["b0"], epsilon=float(c.get("epsilon", 0.0)),
                            name="custom", params=dict(c))


def build_test_function(f_cfg):
    tag = f_cfg.get("tag")
    params = f_cfg.get("params", {})
    try:
        if tag == "linear":
            return _est.linear_f(_need(params, "a", "f.params."), params.get("b", 0.0))
        if tag == "quadratic":
            return _est.quadratic_f(_need(params, "s", "f.params."), params.get("b"),
                                    params.get("c", 0.0))
        if tag == "gaussian_bump":
            return _est.gaussian_bump_f(_need(params, "center", "f.params."),
                                        params.get("width", 1.0))
        if tag == "indicator":
            return _est.indicator_f(_value(params.get("index", 0), _INT, "f.params.index"),
                                    params.get("threshold", 0.0))
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"f.params of {tag!r}: {exc}") from exc
    raise ConfigurationError(f"f tag must be one of {_F_TAGS}, got {tag!r}")


def _section(cfg, name, *required, **defaults):
    """Section ``name`` of a checked config as keyword arguments over the
    ``defaults`` only the CLI has; the function it is passed to owns the rest."""
    kinds, sec = _SCHEMA[name], cfg.get(name, {})
    for key in required:
        _need(sec, key, name + ".")
    return {**defaults, **{key: _value(val, kinds[key], f"{name}.{key}")
                           for key, val in sec.items()}}


def build_estimator_config(cfg, threads=1):
    return _est.EstimatorConfig(**_section(cfg, "estimator", n_paths=10000),
                                n_threads=int(threads))


# ---------------------------------------------------------------------------
# experiment drivers; each returns (metrics, plotdata_rows | None, status)
# ---------------------------------------------------------------------------

def _exp_validate(spec, cfg, run_cfg):
    kw = _section(cfg, "validate", box_lo=[-1.0] * spec.dim, box_hi=[1.0] * spec.dim)
    report = validate_model(spec, (kw.pop("box_lo"), kw.pop("box_hi")), **kw)
    metrics = {f"margin_{c.name}": c.margin for c in report.checks}
    metrics.update({f"pass_{c.name}": float(c.passed) for c in report.checks})
    metrics["overall"] = float(report.overall)
    print(report)
    return metrics, None, (0 if report.overall else 2)


def _need(section, key, path=""):
    """``section[key]``; a missing key is a config error naming ``path + key``."""
    if key not in section:
        raise ConfigurationError(f"config needs {path + key!r}")
    return section[key]


def _vec(cfg, key, spec):
    return _est.state_vector(spec, _need(cfg, key), key)


def _x0_v_f(cfg, spec):
    """x0, v and f of a config, f's parameters finite and checked against
    the model's dimension."""
    f = build_test_function(_need(cfg, "f"))
    for key, val in f.params.items():
        if not np.isfinite(val).all():
            raise ConfigurationError(f"f.params.{key} must be finite, got {val!r}")
    n = spec.dim
    shapes = {"a": (n,), "s": (n, n), "center": (n,),
              "b": (n,) if f.tag == "quadratic" else ()}     # linear's b is a scalar
    for key, shape in shapes.items():
        if key in f.params and np.shape(f.params[key]) != shape:
            raise ConfigurationError(f"f.params.{key} has shape "
                                     f"{np.shape(f.params[key])}, model needs {shape}")
    if not 0 <= f.params.get("index", 0) < n:
        raise ConfigurationError(f"f.params.index must be below the dimension {n}")
    return _vec(cfg, "x0", spec), _vec(cfg, "v", spec), f


def _exp_estimate(spec, cfg, run_cfg):
    x0, v, f = _x0_v_f(cfg, spec)
    grid = TimeGrid(**_section(cfg, "grid", "t_final", "n_steps"))
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
    realized = est.diagnostics.get("c_bound_realized")
    if realized is not None and np.isfinite(realized):
        metrics["c_bound_realized"] = realized
    if "c_bound_exceeded" in est.diagnostics:
        metrics["c_bound_exceeded"] = float(est.diagnostics["c_bound_exceeded"])
    if "bridge_residuals_max" in est.diagnostics:
        res = est.diagnostics["bridge_residuals_max"]
        metrics["alpha0_residual_max"] = float(res[0])
        metrics["alphaN_residual_max"] = float(res[1])
        metrics["gN_residual_max"] = float(res[2])
    print(f"estimate[{method}] value={est.value:.6g} se={est.std_error:.3g} "
          f"weight_l2={est.weight_l2:.4g} rejected={est.rejected}")
    return metrics, None, 0


def _exp_sweep(spec, cfg, run_cfg):
    x0, v, f = _x0_v_f(cfg, spec)
    fit = _analysis.gradient_rate_sweep(spec, x0, v, f, cfg=run_cfg,
                                        **_section(cfg, "sweep", "t_grid"))
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
    if not spec.constant_jac_z1:
        raise ConfigurationError("gramian experiment needs constant jac_z1")
    a0 = spec.dz(np.zeros(spec.dim))[:spec.m, :spec.m]
    fit = _analysis.gramian_scaling(
        a0, spec.b0, **_section(cfg, "gramian", t_grid=np.geomspace(1e-3, 1e-1, 9)))
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
    x0, v, f = _x0_v_f(cfg, spec)
    rep = _analysis.harnack_check(spec, f, x0, v, cfg=run_cfg, **_section(
        cfg, "harnack", p_grid=[2.0, 4.0], t_final=1.0))
    metrics = {"fitted_c": rep.fitted_c, "margin": rep.margin,
               "n_train": float(len(rep.points)),
               "n_holdout": float(len(rep.holdout_points)),
               "dropped": float(rep.dropped)}
    print(f"harnack fitted_c={rep.fitted_c:.4g} margin={rep.margin:.4g}")
    return metrics, None, 0


def _exp_entropy(spec, cfg, run_cfg):
    x0, v, f = _x0_v_f(cfg, spec)
    rows, a_fit, stats = _analysis.entropy_gradient_check(
        spec, x0, v, f, cfg=run_cfg,
        **_section(cfg, "entropy", t_final=1.0, lambda_grid=[0.5, 1.0, 2.0, 4.0]))
    metrics = {"a_fit": a_fit, "grad_abs": rows[0]["lhs"],
               "entropy_term": rows[0]["entropy_term"], "p_t_f": rows[0]["p_t_f"]}
    plot = [("lambda", "gamma_hat", "std_error")] + [
        (r["lambda"], r["gamma_hat"], 0.0) for r in rows]
    print(f"entropy_gradient a_fit={a_fit:.4g}")
    return metrics, plot, 0


def _exp_duality(spec, cfg, run_cfg):
    x0 = _vec(cfg, "x0", spec)
    v = _vec(cfg, "v", spec)
    grid = TimeGrid(**_section(cfg, "grid", "t_final", "n_steps"))
    if grid.n_steps > 16:
        raise ConfigurationError("duality_test is a small-N mode (n_steps <= 16)")
    metrics = {}
    status = 0
    for name in _section(cfg, "duality", functions=["linear", "quadratic"])["functions"]:
        if name == "linear":
            f = _est.linear_f(np.arange(1, spec.dim + 1, dtype=float))
        elif name == "quadratic":
            f = _est.quadratic_f(np.eye(spec.dim) + 0.1)
        else:
            raise ConfigurationError(f"duality function {name!r} not supported")
        gap, se, lhs, rhs = _est.duality_gap(spec, x0, v, f, grid, run_cfg)
        metrics.update({f"gap_{name}": gap, f"se_{name}": se,
                        f"lhs_{name}": lhs, f"rhs_{name}": rhs})
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


def _scipy_version():
    """The Version line of scipy's package metadata, read from the
    ``*.dist-info`` next to the package: ``find_spec`` locates scipy without
    importing it (slow), and ``importlib.metadata`` would load the email
    package.  None when no metadata file is found."""
    site = Path(importlib.util.find_spec("scipy").origin).parent.parent
    for meta in sorted(site.glob("scipy-*.dist-info/METADATA")):
        with open(meta, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Version:"):
                    return line[8:].strip()
    return None


def run(config_path, seed_override=None, threads=None, out_override=None):
    """Execute one experiment config; returns the process exit status."""
    cfg = load_config(config_path)
    if seed_override is not None:
        cfg.setdefault("estimator", {})["master_seed"] = int(seed_override)
    if out_override is not None:
        cfg["output"] = str(out_override)
    if threads is None:
        env = os.environ.get("HYPOGRAD_THREADS", "1")
        try:
            threads = int(env)
        except ValueError:
            raise ConfigurationError(f"HYPOGRAD_THREADS must be an integer, got {env!r}") from None
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
    chunks = []
    token = _est.CHUNK_LOG.set(chunks)
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
            json.dump({"wall_time_s": time.time() - t0, "run_id": chash[:12],
                       "threads": threads, "python": platform.python_version(),
                       "numpy": np.__version__, "scipy": _scipy_version(),
                       "noise_streams": f"sfc64-philoxkey-block{_est.NOISE_BLOCK}",
                       "chunk_bytes": _est.CHUNK_BYTES,
                       "chunk_paths": sorted({batch for batch, _ in chunks}),
                       "slice_paths": sorted({width for _, width in chunks})},
                      fh, indent=2)
        return status
    finally:
        _est.CHUNK_LOG.reset(token)
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
