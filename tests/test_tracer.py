"""The benchmark's span tracer still finds every layer it wraps.

``perfbench/tracer.install`` patches ``ModelSpec`` methods and module
globals of ``hypograd.estimator`` by name; a rename there would make the
traced benchmark fail or lose layers.  The run happens in a subprocess so
the patches do not leak into the other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CHILD = r"""
import json, sys
import tracer
from hypograd import estimator, model

rec = tracer.Tracer()
tracer.install(rec)
targets = [(model.ModelSpec, "drift"), (model.ModelSpec, "full_jacobian")] + [
    (estimator, name) for name in (
        "bismut_gradient", "duality_gap", "path_increments", "simulate_path",
        "valid_mask", "terminal_flow", "full_jacobian_flow", "build_alpha",
        "build_bridge", "q_inverse_bound_ratio")]
unwrapped = [name for owner, name in targets
             if not hasattr(getattr(owner, name), "__wrapped__")]
from hypograd import cli
status = cli.run(sys.argv[1])
tracer.check_spans(rec.spans)
tracer.layer_metrics(rec.spans, rec.counts, 1.0)
print(json.dumps({"status": status, "unwrapped": unwrapped,
                  "spans": sorted({s[0] for s in rec.spans}),
                  "counts": dict(rec.counts)}))
"""


def test_tracer_installs_and_sees_every_layer(tmp_path):
    config = {
        "schema_version": 1,
        "experiment": "duality_test",
        "output": str(tmp_path / "out"),
        "model": {"builtin": "hamiltonian",
                  "params": {"v_expr": "0.5*x1^2 + 0.1*x1^4",
                             "mass_expr": "1 + 0.2*x1^2", "c_mass": 1.0}},
        "x0": [0.3, -0.2],
        "v": [0.7, -0.4],
        "grid": {"t_final": 0.5, "n_steps": 6},
        "estimator": {"n_paths": 64, "master_seed": 1, "method": "bismut_skorokhod",
                      "chunk_size": 32, "c_bound": 3.0},
        "duality": {"functions": ["quadratic"]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(path)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["status"] in (0, 2)
    assert out["unwrapped"] == []
    assert {"estimator.driver", "estimator.noise", "flow.simulate", "model.drift",
            "model.full_jacobian", "control.alpha", "exprdrift"} <= set(out["spans"])
    counts = out["counts"]
    assert counts["estimator.noise.normals"] == 64 * 6
    assert counts["flow.simulate.path_steps"] == 64 * 6
    assert counts["exprdrift.calls"] > 0
