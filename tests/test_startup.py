"""`import hypograd` loads numpy only; scipy loads at the call sites that use it.

The checks run in a fresh interpreter, because the test modules themselves
import scipy.  Every name the package exports must resolve.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MASS_MODEL = {"builtin": "hamiltonian",
              "params": {"v_expr": "0.5*x1^2 + 0.1*x1^4",
                         "mass_expr": "1 + 0.2*x1^2", "c_mass": 1.0}}
KINETIC = {"builtin": "kinetic_ou", "params": {"m": 1}}
CHAIN = {"builtin": "integrator_chain",
         "params": {"a": [[0.0, 1.0], [0.0, 0.0]], "b0": [[0.0], [1.0]]}}


def _estimate(model, method, n_paths, n_steps, x0, v, f, **extra):
    return {"experiment": "estimate", "model": model, "x0": x0, "v": v, "f": f,
            "grid": {"t_final": 0.5, "n_steps": n_steps},
            "estimator": {"n_paths": n_paths, "master_seed": 3, "method": method,
                          **extra}}


KIN_ARGS = dict(x0=[1.0, 1.0], v=[1.0, 0.0],
                f={"tag": "linear", "params": {"a": [1.0, 0.0]}})
MASS_ARGS = dict(x0=[0.3, -0.2], v=[0.7, -0.4],
                 f={"tag": "gaussian_bump",
                    "params": {"center": [0.2, 0.0], "width": 0.8}})

# runs that must not load scipy: every Monte Carlo driver and duality_test
NUMPY_ONLY = {
    "bismut_ito": _estimate(KINETIC, "bismut_ito", 2000, 64, **KIN_ARGS),
    "bismut_skorokhod": _estimate(MASS_MODEL, "bismut_skorokhod", 256, 32,
                                  c_bound=3.0, **MASS_ARGS),
    "pathwise": _estimate(MASS_MODEL, "pathwise", 500, 32, **MASS_ARGS),
    "finite_difference": _estimate(KINETIC, "finite_difference", 2000, 64,
                                   **KIN_ARGS),
    "duality_test": {"experiment": "duality_test", "model": MASS_MODEL,
                     "x0": [0.3, -0.2], "v": [0.7, -0.4],
                     "grid": {"t_final": 0.5, "n_steps": 12},
                     "estimator": {"n_paths": 1000, "master_seed": 3,
                                   "method": "bismut_skorokhod", "c_bound": 3.0},
                     "duality": {"functions": ["linear", "quadratic"]}},
}

# runs that reach a deferred scipy call site
DEFERRED = {
    "validate": {"experiment": "validate", "model": KINETIC,
                 "validate": {"box_lo": [-1, -1], "box_hi": [1, 1],
                              "n_samples": 64, "seed": 0}},
    "sweep_T": {"experiment": "sweep_T", "model": CHAIN, "x0": [0.5, 0.5, 0.0],
                "v": [1.0, 0.0, 0.0], "f": {"tag": "linear", "params": {"a": [1.0, 0.0, 0.0]}},
                "estimator": {"n_paths": 1000, "master_seed": 5, "method": "bismut_ito"},
                "sweep": {"t_grid": [0.1, 0.2, 0.4], "n_steps": 32}},
    "closed_form": _estimate(KINETIC, "closed_form", 2, 8, **KIN_ARGS),
    "gramian": {"experiment": "gramian", "model": CHAIN,
                "gramian": {"t_grid": [0.01, 0.02, 0.04]}},
}

CHILD = r"""
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = {"import": None, "numpy_only": {}, "deferred": {}}
import hypograd
from hypograd import cli, estimator
out["import"] = scipy_modules()
out["numpy_random"] = "numpy.random" in sys.modules
cases = json.loads(sys.argv[1])
for group in ("numpy_only", "deferred"):
    for name, cfg in cases[group].items():
        cfg = dict(cfg, schema_version=1, output=f"out_{name}")
        Path(f"{name}.json").write_text(json.dumps(cfg))
        status = cli.run(f"{name}.json")
        metrics = json.loads(Path(f"out_{name}/results.json").read_text())[0]["metrics"]
        out[group][name] = {"status": status, "scipy": scipy_modules(),
                            "n_metrics": len(metrics),
                            "email_parser": "email.parser" in sys.modules}
cov = estimator.covariance_flow(hypograd.builtin_model("kinetic_ou", {"m": 1}), 0.5)
out["covariance_flow"] = cov.tolist()
out["xi_case2_k"] = hypograd.default_weights(
    cli.build_model(cases["chain"]), hypograd.TimeGrid(0.5, 16)).meta["k"]
meta = json.loads(Path("out_bismut_ito/run_meta.json").read_text())
import numpy, platform, scipy
out["run_meta"] = meta
out["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                   "scipy": scipy.__version__}
print(json.dumps(out))
"""


def test_scipy_loads_only_at_its_call_sites(tmp_path):
    cases = json.dumps({"numpy_only": NUMPY_ONLY, "deferred": DEFERRED, "chain": CHAIN})
    proc = subprocess.run([sys.executable, "-c", CHILD, cases], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(SRC), HYPOGRAD_THREADS="1"),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["import"] == []
    # numpy loads numpy.random lazily; the runs need it, so the import does
    assert out["numpy_random"]
    for name, rec in out["numpy_only"].items():
        assert rec["status"] == 0, name
        assert rec["scipy"] == [], name
        # run_meta.json reads scipy's version without the email header parser
        assert not rec["email_parser"], name
    for name, rec in out["deferred"].items():
        assert rec["status"] == 0, name
        assert rec["n_metrics"] > 0, name
    cov = out["covariance_flow"]
    assert cov[0][0] > 0 and cov[1][1] > 0
    assert out["xi_case2_k"] == 1
    meta = out["run_meta"]
    assert {k: meta[k] for k in ("python", "numpy", "scipy")} == out["versions"]
    assert meta["threads"] == 1


def test_exported_names_resolve():
    # a name deleted from a module must leave its __all__ and the package too
    for path in sorted((SRC / "hypograd").glob("*.py")):
        module = importlib.import_module(f"hypograd.{path.stem}".removesuffix(".__init__"))
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), (path.name, name)
        if path.stem == "__init__":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        assert hasattr(module, alias.asname or alias.name), alias.name


def test_package_import_graph_is_acyclic():
    # module-level and function-level relative imports between package
    # modules; a function-level one hides a cycle from import time
    graph, nested = {}, []
    for path in sorted((SRC / "hypograd").glob("*.py")):
        tree = ast.parse(path.read_text())
        at_top = {id(node) for node in tree.body}
        edges = graph.setdefault(path.stem, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                targets = [node.module] if node.module else [a.name for a in node.names]
                edges.update(t.split(".")[0] for t in targets)
                if id(node) not in at_top:
                    nested.append((path.name, node.lineno))
    assert nested == []
    state = {}

    def visit(mod, trail):
        assert state.get(mod) != "open", " -> ".join(trail + [mod])
        if mod not in state:
            state[mod] = "open"
            for dep in sorted(graph.get(mod, ())):
                visit(dep, trail + [mod])
            state[mod] = "done"

    for mod in sorted(graph):
        visit(mod, [])


def test_package_stays_within_its_line_budget():
    # the package may shrink but not grow past the standing limit of
    # ROADMAP.md: a change that adds code pays for it elsewhere
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "hypograd").glob("*.py"))
    assert lines <= 3646, lines


def test_every_helper_is_referenced_in_the_package():
    # a function or module constant that nothing in src/ names, loaded,
    # called, imported or listed in __all__, lives on only for the tests.
    # Exempt: methods the interpreter or numpy calls by name
    protocol = {"generate_state"}
    defined, used = {}, set()
    for path in sorted((SRC / "hypograd").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defined.setdefault(name.id, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    dead = {name: where for name, where in defined.items()
            if name not in used and name not in protocol
            and not (name.startswith("__") and name.endswith("__"))}
    assert dead == {}


def test_expression_parser_walks_and_never_evaluates():
    # exprdrift reads drift expressions with ast.parse and walks the tree;
    # no name in it may hand user text to the interpreter
    tree = ast.parse((SRC / "hypograd" / "exprdrift.py").read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.update({node.name, node.asname})
    assert "parse" in named
    assert named & {"eval", "exec", "compile", "__import__"} == set()


def test_every_model_is_built_by_expression_model():
    # one way to build a model: the only ModelSpec(...) call in model.py is
    # the one in expression_model, which the built-ins and the CLI share
    tree = ast.parse((SRC / "hypograd" / "model.py").read_text())

    def calls(root):
        return [node for node in ast.walk(root) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == "ModelSpec"]

    builder = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "expression_model"]
    assert len(builder) == 1
    assert len(calls(tree)) == 1 and len(calls(builder[0])) == 1
