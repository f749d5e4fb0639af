import csv
import inspect
import io
import json
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy

from hypograd import analysis, estimator
from hypograd.cli import (_SCHEMA, build_estimator_config, build_model,
                          build_test_function, canonical_json, config_hash,
                          list_builtins, load_config, main, run)
from hypograd.errors import ConfigurationError
from hypograd.flow import TimeGrid
from hypograd.model import builtin_model, validate_model


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _base_estimate_cfg(tmp_path, **overrides):
    cfg = {
        "schema_version": 1,
        "experiment": "estimate",
        "output": str(tmp_path / "out"),
        "model": {"builtin": "kinetic_ou", "params": {"m": 1}},
        "x0": [1.0, 1.0],
        "v": [1.0, 0.0],
        "f": {"tag": "linear", "params": {"a": [1.0, 0.0]}},
        "grid": {"t_final": 1.0, "n_steps": 64},
        "estimator": {"n_paths": 2000, "master_seed": 42,
                      "method": "bismut_ito"},
    }
    cfg.update(overrides)
    return cfg


def test_config_round_trip(tmp_path):
    cfg = _base_estimate_cfg(tmp_path)
    path = _write(tmp_path, "c.json", cfg)
    loaded = load_config(path)
    assert loaded == cfg
    assert load_config(_write(tmp_path, "c2.json", loaded)) == cfg


def test_repo_example_configs_round_trip(tmp_path):
    # every shipped example config parses, validates, and round-trips
    repo_configs = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))
    assert len(repo_configs) >= 5
    for cfg_path in repo_configs:
        cfg = load_config(str(cfg_path))
        # the parsed file itself, kinds and key order intact: the config
        # echo and config_hash read it as written
        assert json.dumps(cfg) == json.dumps(json.loads(cfg_path.read_text()))
        rewritten = _write(tmp_path, "rt_" + cfg_path.name, cfg)
        assert load_config(rewritten) == cfg
        build_model(cfg["model"])  # model section constructs


@pytest.mark.parametrize("section, receiver, unpassed", [
    ("grid", TimeGrid, ()),
    ("estimator", estimator.EstimatorConfig, ()),
    ("validate", validate_model, ("box_lo", "box_hi")),   # the sample_box pair
    ("sweep", analysis.gradient_rate_sweep, ()),
    ("gramian", analysis.gramian_scaling, ()),
    ("harnack", analysis.harnack_check, ()),
    ("entropy", analysis.entropy_gradient_check, ()),
])
def test_section_keys_are_receiver_parameters(section, receiver, unpassed):
    # the CLI passes these sections as keyword arguments, so a renamed
    # parameter must fail here rather than in a user's run
    params = inspect.signature(receiver).parameters
    assert set(_SCHEMA[section]) - set(unpassed) <= set(params)


def test_build_estimator_config_casts_and_defaults():
    cfg = build_estimator_config({"estimator": {"master_seed": 3.0, "c_bound": 2,
                                                "chunk_size": None}})
    assert cfg == estimator.EstimatorConfig(n_paths=10000, master_seed=3, c_bound=2.0)
    assert type(cfg.master_seed) is int and type(cfg.c_bound) is float


def test_config_hash_key_order_invariant(tmp_path):
    cfg = _base_estimate_cfg(tmp_path)
    reordered = json.loads(canonical_json(cfg))
    shuffled = dict(reversed(list(reordered.items())))
    assert config_hash(cfg) == config_hash(shuffled)


def test_unknown_key_is_hard_error(tmp_path):
    cfg = _base_estimate_cfg(tmp_path)
    cfg["surprise"] = 1
    with pytest.raises(ConfigurationError):
        load_config(_write(tmp_path, "bad.json", cfg))
    cfg = _base_estimate_cfg(tmp_path)
    cfg["estimator"]["n_pathz"] = 10
    with pytest.raises(ConfigurationError):
        load_config(_write(tmp_path, "bad2.json", cfg))


def test_schema_version_mismatch(tmp_path):
    cfg = _base_estimate_cfg(tmp_path)
    cfg["schema_version"] = 99
    with pytest.raises(ConfigurationError):
        load_config(_write(tmp_path, "v.json", cfg))


def test_validate_experiment_exit_zero(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "validate",
        "output": str(tmp_path / "out"),
        "model": {"builtin": "kinetic_ou", "params": {"m": 1}},
        "validate": {"box_lo": [-1, -1], "box_hi": [1, 1], "n_samples": 64,
                     "seed": 0},
    }
    assert run(_write(tmp_path, "v.json", cfg)) == 0
    rec = json.loads((tmp_path / "out" / "results.json").read_text())[0]
    assert rec["metrics"]["overall"] == 1.0


def test_run_meta_records_batches_and_chain_slices(tmp_path):
    # an anticipative run steps Euler on batches that take a third of the
    # byte budget and runs the control chain on slices of them
    mass = {"builtin": "hamiltonian",
            "params": {"v_expr": "0.5*x1^2 + 0.1*x1^4", "mass_expr": "1 + 0.2*x1^2",
                       "c_mass": 1.0}}
    cfg = _base_estimate_cfg(tmp_path, model=mass, x0=[0.3, -0.2], v=[0.7, -0.4],
                             grid={"t_final": 0.5, "n_steps": 256})
    cfg["estimator"] = {"n_paths": 100, "master_seed": 1, "method": "bismut_skorokhod",
                        "c_bound": 3.0}
    assert run(_write(tmp_path, "mass.json", cfg), threads=1) == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert (meta["chunk_paths"], meta["slice_paths"]) == ([1792], [384])
    # on a short grid the chain of a whole 8000-path batch fits what the
    # batch leaves of the budget, so the batch runs as one slice
    cfg["grid"]["n_steps"] = 12
    cfg["estimator"]["chunk_size"] = 8000
    assert run(_write(tmp_path, "short.json", cfg), threads=1) == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert (meta["chunk_paths"], meta["slice_paths"]) == ([8000], [8000])


def test_estimate_rerun_byte_identical(tmp_path):
    path = _write(tmp_path, "e.json", _base_estimate_cfg(tmp_path))
    assert run(path, threads=1) == 0
    first = (tmp_path / "out" / "results.json").read_bytes()
    first_csv = (tmp_path / "out" / "results.csv").read_bytes()
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert meta["threads"] == 1
    assert meta["python"] == platform.python_version()
    assert meta["numpy"] == np.__version__
    assert meta["scipy"] == scipy.__version__
    assert meta["noise_streams"] == "sfc64-philoxkey-block64"
    # an affine run steps no Euler path, so its batch is derived from the
    # cache: 2 MiB over 64 increments of 8 bytes (the budget would give 65536)
    assert meta["chunk_bytes"] == 32 << 20
    assert meta["cache_bytes"] == 2 << 20
    assert meta["chunk_paths"] == [4096]
    assert meta["slice_paths"] == [4096]       # no control chain: a batch is one slice
    # run_meta.json records the thread count; results.json does not change
    assert run(path, threads=2) == 0
    assert (tmp_path / "out" / "results.json").read_bytes() == first
    assert (tmp_path / "out" / "results.csv").read_bytes() == first_csv
    assert json.loads((tmp_path / "out" / "run_meta.json").read_text())["threads"] == 2
    # an explicit chunk_size wins and is what run_meta.json records
    cfg = _base_estimate_cfg(tmp_path)
    cfg["estimator"]["chunk_size"] = 500
    assert run(_write(tmp_path, "e500.json", cfg), threads=1) == 0
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert (meta["chunk_paths"], meta["slice_paths"]) == ([500], [500])
    assert (json.loads((tmp_path / "out" / "results.json").read_text())[0]["metrics"]
            == json.loads(first)[0]["metrics"])


def test_threaded_rerun_identical_metrics(tmp_path):
    path = _write(tmp_path, "e.json", _base_estimate_cfg(tmp_path))
    run(path, threads=1)
    one = json.loads((tmp_path / "out" / "results.json").read_text())[0]["metrics"]
    run(path, threads=4)
    four = json.loads((tmp_path / "out" / "results.json").read_text())[0]["metrics"]
    for key, val in one.items():
        if isinstance(val, float) and val != 0:
            assert abs(four[key] - val) <= 1e-12 * abs(val), key
        else:
            assert four[key] == val, key


def test_csv_is_projection_of_json(tmp_path):
    path = _write(tmp_path, "e.json", _base_estimate_cfg(tmp_path))
    run(path)
    rec = json.loads((tmp_path / "out" / "results.json").read_text())[0]
    with open(tmp_path / "out" / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["config_hash"] == rec["config_hash"]
    for key, val in rec["metrics"].items():
        assert float(row[key]) == val, key


def test_seed_override_moves_estimate_only(tmp_path):
    path = _write(tmp_path, "e.json", _base_estimate_cfg(tmp_path))
    run(path, seed_override=1)
    a = json.loads((tmp_path / "out" / "results.json").read_text())[0]["metrics"]
    run(path, seed_override=2)
    b = json.loads((tmp_path / "out" / "results.json").read_text())[0]["metrics"]
    comb = np.hypot(a["std_error"], b["std_error"])
    assert a["value"] != b["value"]
    assert abs(a["value"] - b["value"]) <= 8 * comb


def test_gramian_experiment_seed_independent(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "gramian",
        "output": str(tmp_path / "out"),
        "model": {"builtin": "integrator_chain",
                  "params": {"a": [[0, 1], [0, 0]], "b0": [[0], [1]]}},
        "gramian": {"t_grid": [0.001, 0.01, 0.1]},
        "estimator": {"n_paths": 100, "master_seed": 1},
    }
    path = _write(tmp_path, "g.json", cfg)
    run(path, seed_override=1)
    a = (tmp_path / "out" / "plotdata.csv").read_bytes()
    am = json.loads((tmp_path / "out" / "results.json").read_text())[0]["metrics"]
    run(path, seed_override=2)
    b = (tmp_path / "out" / "plotdata.csv").read_bytes()
    bm = json.loads((tmp_path / "out" / "results.json").read_text())[0]["metrics"]
    assert a == b
    assert am["slope"] == bm["slope"]
    assert 2.85 <= am["slope"] <= 3.15


_CHAIN = {"builtin": "integrator_chain", "params": {"a": [[0, 1], [0, 0]], "b0": [[0], [1]]}}
_BUMP = {"tag": "gaussian_bump", "params": {"center": [1.0, 0.0], "width": 0.8}}


@pytest.mark.parametrize("overrides", [
    {"experiment": "gramian", "model": _CHAIN, "gramian": {"t_grid": [0.0, 0.01, 0.1]}},
    {"experiment": "gramian", "model": _CHAIN, "gramian": {"t_grid": [-0.01, 0.01, 0.1]}},
    {"experiment": "entropy_gradient", "f": _BUMP,
     "entropy": {"t_final": 1.0, "n_steps": 16, "lambda_grid": []}},
    {"experiment": "entropy_gradient", "f": _BUMP,
     "entropy": {"t_final": 1.0, "n_steps": 16, "lambda_grid": [0.0, 1.0]}},
    {"f": {"tag": "gaussian_bump", "params": {"center": [1.0, 0.0], "width": 0.0}}},
], ids=["gramian_t0", "gramian_t_negative", "entropy_empty", "entropy_lambda0",
        "bump_width0"])
def test_bad_grid_or_width_exits_2(tmp_path, capsys, overrides):
    # unchecked, each reaches a log of t <= 0, a division by 0 or an empty table
    cfg = _base_estimate_cfg(tmp_path, estimator={"n_paths": 200, "master_seed": 1,
                                                  "method": "bismut_ito"}, **overrides)
    assert main(["run", _write(tmp_path, "bad.json", cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize("f,key", [
    ({"tag": "indicator", "params": {"threshold": float("nan")}}, "threshold"),
    ({"tag": "linear", "params": {"a": [float("nan"), 0.0]}}, "a"),
    ({"tag": "quadratic", "params": {"s": [[1.0, 0.0], [0.0, 1.0]], "c": float("inf")}}, "c"),
    ({"tag": "gaussian_bump", "params": {"center": [float("nan"), 0.0]}}, "center"),
    ({"tag": "indicator", "params": {"index": 0.5}}, "index"),
], ids=["indicator_threshold_nan", "linear_a_nan", "quadratic_c_inf",
        "bump_center_nan", "indicator_index_fractional"])
def test_nonfinite_or_fractional_f_params_exit_2(tmp_path, capsys, f, key):
    # unchecked, these ran to a value of 0 +- 0, a degenerate run or an IndexError
    cfg = _base_estimate_cfg(tmp_path, f=f, estimator={"n_paths": 512, "master_seed": 42,
                                                       "method": "bismut_ito"})
    assert main(["run", _write(tmp_path, "bad.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"f.params.{key}" in err, err


def test_sweep_plotdata_slope_recomputable(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "sweep_T",
        "output": str(tmp_path / "out"),
        "model": {"builtin": "kinetic_ou", "params": {"m": 1}},
        "x0": [1.0, 1.0],
        "v": [1.0, 0.0],
        "f": {"tag": "linear", "params": {"a": [1.0, 0.0]}},
        "estimator": {"n_paths": 2000, "master_seed": 3,
                      "method": "bismut_ito"},
        "sweep": {"t_grid": [0.1, 0.2, 0.4, 0.8], "n_steps": 128},
    }
    assert run(_write(tmp_path, "s.json", cfg)) == 0
    rec = json.loads((tmp_path / "out" / "results.json").read_text())[0]
    with open(tmp_path / "out" / "plotdata.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ts = np.array([float(r["T"]) for r in rows])
    ys = np.array([float(r["weight_l2"]) for r in rows])
    lx, ly = np.log(ts), np.log(ys)
    slope = np.sum((lx - lx.mean()) * (ly - ly.mean())) / np.sum((lx - lx.mean())**2)
    assert abs(slope - rec["metrics"]["slope"]) <= 1e-9


def test_custom_expression_model(tmp_path):
    cfg = _base_estimate_cfg(tmp_path)
    cfg["model"] = {"custom": {
        "m": 1, "d": 1,
        "z1": ["x2"],
        "z2": ["-x1 - x2"],
        "sigma": [[1.0]], "b0": [[1.0]], "epsilon": 0.0}}
    path = _write(tmp_path, "c.json", cfg)
    assert run(path) == 0
    rec = json.loads((tmp_path / "out" / "results.json").read_text())[0]
    # same dynamics as builtin kinetic_ou: comparable estimate
    assert abs(rec["metrics"]["value"] - 0.6597) <= 5 * rec["metrics"]["std_error"]


def test_custom_model_detects_structure():
    spec = build_model({"custom": {"m": 1, "d": 1, "z1": ["x2"],
                                   "z2": ["-x1 - x2"], "sigma": [[1.0]],
                                   "b0": [[1.0]]}})
    assert spec.constant_jac_z1
    assert spec.is_linear
    assert np.allclose(spec.drift_matrix, [[0, 1], [-1, -1]])
    nonlin = build_model({"custom": {"m": 1, "d": 1, "z1": ["x2 + 0.1*x1^2*x2"],
                                     "z2": ["-x1"], "sigma": [[1.0]],
                                     "b0": [[1.0]]}})
    assert not nonlin.constant_jac_z1


def test_custom_affine_model_with_offset_is_linear():
    # every affine path keeps Z(0), so an offset no longer hides the
    # drift matrix; the closed form then matches the builtin chain's
    spec = build_model({"custom": {"m": 1, "d": 1, "z1": ["x2"], "z2": ["2 - x2"],
                                   "sigma": [[1.0]], "b0": [[1.0]]}})
    assert spec.is_linear
    chain = builtin_model("integrator_chain", {"a": [[0.0]], "b0": [[1.0]],
                                               "z2_lin": [[0.0, -1.0]], "z2_off": [2.0]})
    f = estimator.quadratic_f(np.eye(2))
    got = estimator.closed_form_gradient(spec, [0.5, 0.3], [1.0, 0.0], f, 1.0)
    assert got == pytest.approx(
        estimator.closed_form_gradient(chain, [0.5, 0.3], [1.0, 0.0], f, 1.0), rel=1e-14)


def _duality_cfg(tmp_path):
    return {
        "schema_version": 1,
        "experiment": "duality_test",
        "output": str(tmp_path / "out"),
        "model": {"builtin": "hamiltonian",
                  "params": {"v_expr": "0.5*x1^2 + 0.1*x1^4",
                             "mass_expr": "1 + 0.2*x1^2", "c_mass": 1.0}},
        "x0": [0.3, -0.2],
        "v": [0.7, -0.4],
        "grid": {"t_final": 0.5, "n_steps": 8},
        "estimator": {"n_paths": 20000, "master_seed": 12,
                      "method": "bismut_skorokhod"},
        "duality": {"functions": ["linear"]},
    }


def test_estimate_flags_exceeded_c_bound_without_failing(tmp_path):
    mass = {"builtin": "hamiltonian",
            "params": {"v_expr": "0.5*x1^2 + 0.1*x1^4",
                       "mass_expr": "1 + 0.2*x1^2", "c_mass": 1.0}}
    realized = []
    for c_bound, exceeded in ((3.0, 0.0), (0.1, 1.0)):
        cfg = _base_estimate_cfg(
            tmp_path, model=mass, x0=[0.3, -0.2], v=[0.7, -0.4],
            grid={"t_final": 0.5, "n_steps": 16},
            estimator={"n_paths": 200, "master_seed": 9,
                       "method": "bismut_skorokhod", "c_bound": c_bound})
        assert run(_write(tmp_path, "m.json", cfg)) == 0
        metrics = json.loads((tmp_path / "out" / "results.json").read_text())[0]["metrics"]
        assert metrics["xi_c_bound"] == c_bound
        assert metrics["c_bound_exceeded"] == exceeded
        realized.append(metrics["c_bound_realized"])
    assert 0.1 < realized[0] == realized[1] < 3.0


def test_duality_experiment(tmp_path):
    cfg = _duality_cfg(tmp_path)
    assert run(_write(tmp_path, "d.json", cfg)) == 0
    rec = json.loads((tmp_path / "out" / "results.json").read_text())[0]
    assert abs(rec["metrics"]["gap_linear"]) <= 4 * rec["metrics"]["se_linear"]
    big = dict(cfg)
    big["grid"] = {"t_final": 0.5, "n_steps": 64}
    with pytest.raises(ConfigurationError):
        run(_write(tmp_path, "dbig.json", big))


def test_duality_failure_sets_exit_status(tmp_path, monkeypatch, capsys):
    # a gap of 5 standard errors: the identity check must fail the run
    monkeypatch.setattr(estimator, "duality_gap",
                        lambda *args, **kwargs: (0.5, 0.1, 1.5, 1.0))
    path = _write(tmp_path, "d.json", _duality_cfg(tmp_path))
    assert main(["run", path]) == 2
    assert "FAIL" in capsys.readouterr().out
    rec = json.loads((tmp_path / "out" / "results.json").read_text())[0]
    assert rec["metrics"]["gap_linear"] == 0.5


def test_lock_file_blocks_concurrent_runs(tmp_path):
    cfg = _base_estimate_cfg(tmp_path)
    path = _write(tmp_path, "e.json", cfg)
    out = Path(cfg["output"])
    out.mkdir(parents=True, exist_ok=True)
    (out / ".hypograd.lock").touch()
    with pytest.raises(ConfigurationError):
        run(path)
    (out / ".hypograd.lock").unlink()
    assert run(path) == 0
    assert not (out / ".hypograd.lock").exists()


def test_list_builtins_golden():
    buf = io.StringIO()
    list_builtins(buf)
    text = buf.getvalue()
    buf2 = io.StringIO()
    list_builtins(buf2)
    assert text == buf2.getvalue()
    for name in ("kinetic_ou", "hamiltonian", "integrator_chain"):
        assert name in text
    assert "required" in text and "optional" in text


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema_version\": 1}")
    assert main(["run", str(bad)]) == 2
    # missing sections, out-of-range settings, values of the wrong type and
    # observables of the wrong dimension are config errors (exit 2)
    base = _base_estimate_cfg(tmp_path)
    est = base["estimator"]
    broken = [{k: v for k, v in base.items() if k != "f"},
              {k: v for k, v in base.items() if k != "grid"},
              dict(base, grid={"t_final": 1.0}),
              dict(base, f={"tag": "linear", "params": {}}),
              dict(base, estimator=dict(est, chunk_size=-5)),
              dict(base, estimator=dict(est, chunk_size=0)),
              dict(base, f=5),
              dict(base, estimator=dict(est, n_paths="many")),
              dict(base, estimator=dict(est, chunk_size=2.5)),
              dict(base, f={"tag": "linear", "params": {"a": [1.0]}}),
              dict(base, f={"tag": "quadratic", "params": {"s": [[1.0]]}}),
              dict(base, f={"tag": "gaussian_bump", "params": {"center": [0.0] * 3}}),
              dict(base, f={"tag": "indicator", "params": {"index": 2}}),
              dict(base, f={"tag": "linear", "params": {"a": "ab"}}),
              dict(base, grid={"t_final": "x", "n_steps": 8}),
              dict(base, x0="abc"),
              dict(base, estimator=dict(est, antithetic="yes"))]
    for i, cfg in enumerate(broken):
        capsys.readouterr()
        assert main(["run", _write(tmp_path, f"broken{i}.json", cfg)]) == 2, i
        assert capsys.readouterr().err.startswith("config error:"), i
    # a value of the wrong kind in any section, and a malformed model
    # declaration, is a config error that names its key
    custom = {"m": 1, "d": 1, "z1": ["x2"], "z2": ["-x1 - x2"],
              "sigma": [[1.0]], "b0": [[1.0]]}
    named = [(dict(base, sweep={"t_grid": [0.1, 0.2], "n_steps": "x"}), "sweep.n_steps"),
             (dict(base, gramian={"t_grid": ["a"]}), "gramian.t_grid"),
             (dict(base, validate={"n_samples": 2.5}), "validate.n_samples"),
             (dict(base, harnack={"use_oracle": "no"}), "harnack.use_oracle"),
             (dict(base, entropy={"t_final": "1"}), "entropy.t_final"),
             (dict(base, duality={"functions": "linear"}), "duality.functions"),
             (dict(base, grid={"t_final": float("nan"), "n_steps": 8}), "grid.t_final"),
             (dict(base, sweep={"t_grid": [0.1], "n_steps": None}),
              "sweep.n_steps"),
             (dict(base, model={"custom": dict(custom, z1=["x2 +* x1"])}), "model.custom"),
             (dict(base, model={"custom": dict(custom, z1="x2")}), "model.custom.z1"),
             (dict(base, model={"custom": dict(custom, m="one")}), "model.custom.m"),
             (dict(base, model={"custom": dict(custom, z1=["x3"])}), "model.custom"),
             (dict(base, model={"custom": dict(custom, z1=["x2/0"])}), "model.custom"),
             (dict(base, model={"builtin": "hamiltonian",
                                "params": {"v_expr": "0.5*x1^"}}), "model.params")]
    named += [(dict(base, experiment="validate", validate={"seed": -1}), "validate.seed"),
              (dict(base, experiment="harnack", harnack={"p_grid": []}), "harnack.p_grid")]
    for i, (cfg, key) in enumerate(named):
        capsys.readouterr()
        assert main(["run", _write(tmp_path, f"named{i}.json", cfg)]) == 2, key
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err, (key, err)
    # a thread count from the environment that is not an integer is a config
    # error naming the variable
    good = _write(tmp_path, "threads.json", base)
    for env in ("x", "2.5", ""):
        monkeypatch.setenv("HYPOGRAD_THREADS", env)
        capsys.readouterr()
        assert main(["run", good]) == 2, env
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "HYPOGRAD_THREADS" in err, (env, err)
    monkeypatch.delenv("HYPOGRAD_THREADS")
    assert main(["list-builtins"]) == 0


# drift expressions outside the grammar; the last was a silent inf constant
BAD_EXPRESSIONS = ["x1**2", "x1 if x2 else 1", '__import__("os")', "x1.real",
                   "sin(x1, x2)", "sin(x=x1)", "x1^0.5", "x1^(1+1)", "0.5*x1^", "x1 x2",
                   "1" + "0" * 400]


@pytest.mark.parametrize("text", BAD_EXPRESSIONS,
                         ids=lambda text: text if len(text) < 20 else text[:8] + "...")
def test_bad_expression_is_a_config_error_with_exit_2(tmp_path, capsys, text):
    custom = {"m": 1, "d": 1, "z1": ["x2"], "z2": [text], "sigma": [[1.0]], "b0": [[1.0]]}
    with pytest.raises(ConfigurationError, match="model.custom"):
        build_model({"custom": custom})
    hamiltonian = {"builtin": "hamiltonian", "params": {"v_expr": text.replace("x2", "x1")}}
    with pytest.raises(ConfigurationError, match="model.params"):
        build_model(hamiltonian)
    for i, model in enumerate(({"custom": custom}, hamiltonian)):
        capsys.readouterr()
        path = _write(tmp_path, f"bad{i}.json", _base_estimate_cfg(tmp_path, model=model))
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err, err


# non-finite constants, folded from an expression or given as a built-in
# parameter (JSON reads NaN and Infinity); each once ran with a warning, an
# accidental error, a traceback or an infinite constant
NON_FINITE = {
    "log0": ("hamiltonian", {"v_expr": "log(0) + x1^2"}, "constant -inf"),
    "overflow": ("hamiltonian", {"v_expr": "1e300*1e300 + x1^2"}, "constant inf"),
    "sqrt_neg": ("hamiltonian", {"v_expr": "sqrt(-1)*x1^2"}, "constant nan"),
    "huge_exponent": ("hamiltonian", {"v_expr": "x1^99999999999999999999"}, "exponent 9"),
    "friction_inf": ("hamiltonian", {"v_expr": "0.5*x1^2", "friction": float("inf")},
                     "constant inf"),
    "friction_inf_m2": ("hamiltonian", {"m": 2, "v_expr": "0.5*x1^2 + 0.5*x2^2",
                                        "friction": float("inf")},
                        "hamiltonian friction must be finite, got constant inf"),
    "kinetic_gamma_nan_matrix": ("kinetic_ou", {"m": 2, "gamma": [[1.0, 0.0], [0.0, float("nan")]]},
                                 "kinetic_ou gamma must be finite, got [[1.0, 0.0], [0.0, nan]]"),
    "kinetic_k_nan": ("kinetic_ou", {"m": 1, "k": float("nan")}, "constant nan"),
    "kinetic_sigma_nan": ("kinetic_ou", {"m": 1, "sigma": float("nan")}, "sigma must be finite"),
    "c_mass_nan": ("hamiltonian", {"v_expr": "0.5*x1^2", "c_mass": float("nan")},
                   "b0 must be finite"),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_non_finite_constant_is_a_config_error_with_exit_2(tmp_path, capsys, case):
    builtin, params, named = NON_FINITE[case]
    model = {"builtin": builtin, "params": params}
    path = _write(tmp_path, "c.json", _base_estimate_cfg(tmp_path, model=model))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", path]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err, err
    assert "Traceback" not in err


def test_non_string_expression_is_a_config_error():
    # a v_expr of 0 once raised AttributeError from inside the model builder
    for params in ({"v_expr": 0}, {"v_expr": None}, {"v_expr": ["x1"]},
                   {"v_expr": "x1^2", "mass_expr": 1, "c_mass": 1.0}):
        with pytest.raises(ConfigurationError, match="drift expression is a string"):
            build_model({"builtin": "hamiltonian", "params": params})


@pytest.mark.parametrize("builtin", ["kinetic_ou", "hamiltonian"])
def test_block_size_m_must_be_a_positive_integer(tmp_path, capsys, builtin):
    def kalman(m):
        params = {"m": m} if builtin == "kinetic_ou" else {"m": m, "v_expr": "0.5*x1^2"}
        return _write(tmp_path, "k.json", {
            "schema_version": 1, "experiment": "kalman", "output": str(tmp_path / "out"),
            "model": {"builtin": builtin, "params": params}})

    # a fraction, a string or a bool once ran as int(m), with exit status 0
    for m in (2.5, "2", True, 0, -1, None):
        capsys.readouterr()
        assert main(["run", kalman(m)]) == 2, m
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "m must be a positive integer" in err, m
    for m in (2, 2.0):
        assert main(["run", kalman(m)]) == 0, m
        rec = json.loads((tmp_path / "out" / "results.json").read_text())[0]
        assert rec["metrics"]["k"] == 0.0


def test_build_test_function_rejects_unknown():
    with pytest.raises(ConfigurationError):
        build_test_function({"tag": "mystery", "params": {}})


def test_main_run_with_overrides(tmp_path):
    cfg = _base_estimate_cfg(tmp_path)
    path = _write(tmp_path, "m.json", cfg)
    out = tmp_path / "other"
    status = main(["run", path, "--seed", "9", "--threads", "2",
                   "--out", str(out)])
    assert status == 0
    rec = json.loads((out / "results.json").read_text())[0]
    assert rec["config"]["estimator"]["master_seed"] == 9
    assert rec["config"]["output"] == str(out)
