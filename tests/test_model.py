import numpy as np
import pytest

from hypograd.errors import ConfigurationError
from hypograd.model import (HypothesisData, ModelSpec, builtin_model,
                            builtin_schemas, drift_split, validate_model)
from tests.conftest import reference_drift, reference_full_jacobian

BOX = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


def test_kinetic_ou_drift_matrix():
    # m=d=1, K=Gamma=sigma=1: full drift matrix [[0,1],[-1,-1]]
    spec = builtin_model("kinetic_ou", {"m": 1})
    assert np.allclose(spec.drift_matrix, [[0.0, 1.0], [-1.0, -1.0]])
    x = np.array([[0.7], [-0.3]])                 # component-first, one point
    assert np.allclose(spec.drift(x), [[-0.3], [-0.7 + 0.3]])


def test_hamiltonian_free_particle():
    # M = I, V = 0, F = 0: Z1 = y, Z2 = 0
    spec = builtin_model("hamiltonian", {"v_expr": "0", "m": 1})
    x = np.array([[1.3], [-2.1]])
    assert np.allclose(spec.drift(x), [[-2.1], [0.0]])


def test_hamiltonian_with_a_linear_term_is_affine():
    # one affine rule for every expression model: no nonzero second
    # derivative of Z, whatever Z(0) is; the custom twin always agreed
    from hypograd.cli import build_model
    from hypograd.estimator import closed_form_gradient, linear_f

    spec = builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + x1"})
    twin = build_model({"custom": {"m": 1, "d": 1, "z1": ["x2"], "z2": ["-x1 - 1"],
                                   "sigma": [[1.0]], "b0": [[1.0]]}})
    assert spec.is_linear and twin.is_linear
    assert np.array_equal(spec.drift_matrix, twin.drift_matrix)
    assert np.array_equal(spec.drift(np.zeros(2)), twin.drift(np.zeros(2)))
    assert np.array_equal(spec.drift(np.zeros(2)), [0.0, -1.0])
    f = linear_f([1.0, 0.5])
    assert closed_form_gradient(spec, [0.3, 0.1], [1.0, 0.0], f, 1.0) == \
        closed_form_gradient(twin, [0.3, 0.1], [1.0, 0.0], f, 1.0)


def test_integrator_chain_kalman_rank():
    from hypograd.analysis import kalman_index
    spec = builtin_model("integrator_chain", {"a": [[0, 1], [0, 0]],
                                              "b0": [[0], [1]]})
    a_mat = spec.dz(np.zeros(3))[:2, :2]
    assert kalman_index(a_mat, spec.b0).k == 1


@pytest.mark.parametrize("name,params,box_dim", [
    ("kinetic_ou", {"m": 1}, 2),
    ("kinetic_ou", {"m": 2, "k": [[1.0, 0.2], [0.0, 1.0]], "gamma": 0.5}, 4),
    ("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4"}, 2),
    ("hamiltonian", {"v_expr": "0.5*x1^2", "mass_expr": "1 + 0.1*x1^2",
                     "c_mass": 1.0}, 2),
    ("integrator_chain", {"a": [[0, 1], [0, 0]], "b0": [[0], [1]]}, 3),
])
def test_builtin_jacobian_consistency(name, params, box_dim):
    # every builtin passes the finite-difference check on a side-2 box
    spec = builtin_model(name, params)
    box = (-np.ones(box_dim), np.ones(box_dim))
    report = validate_model(spec, box, n_samples=64, seed=3)
    by_name = {c.name: c for c in report.checks}
    assert by_name["jacobian_consistency"].passed
    assert by_name["domination"].passed


def test_domination_trivial_when_b_zero():
    # d2Z1 == B0 identically forces margin exactly 0
    spec = builtin_model("kinetic_ou", {"m": 1})
    report = validate_model(spec, BOX, n_samples=32, seed=0)
    dom = {c.name: c for c in report.checks}["domination"]
    assert dom.passed and dom.margin == 0.0


def test_domination_mass_matrix_case():
    # H = V + <M(x)y,y>/2 with M >= c I and B0 = c I: passes with eps = 0
    spec = builtin_model("hamiltonian", {"v_expr": "0.25*x1^2",
                                         "mass_expr": "1 + 0.3*x1^2",
                                         "c_mass": 1.0})
    assert spec.epsilon == 0.0
    report = validate_model(spec, BOX, n_samples=64, seed=1)
    assert {c.name: c for c in report.checks}["domination"].passed


def test_domination_failure_witnessed():
    # m=d=1, Z1(x,y) = -y so d2Z1 = -1; declared B0 = +1, eps = 0.5:
    # B = -2 and <B B0 a, a> = -2 a^2 < -0.5 a^2 -> check fails
    def z(x):
        return -np.asarray(x)[::-1]

    def dz(x):
        jac = np.array([[0.0, -1.0], [-1.0, 0.0]])
        shp = np.shape(x)[1:]
        return np.broadcast_to(jac.reshape((2, 2) + (1,) * len(shp)), (2, 2) + shp)

    spec = ModelSpec(m=1, d=1, z=z, dz=dz, sigma=np.eye(1), b0=np.eye(1),
                     epsilon=0.5)
    report = validate_model(spec, BOX, n_samples=16, seed=0)
    dom = {c.name: c for c in report.checks}["domination"]
    assert not dom.passed
    assert np.isclose(dom.margin, -2.0 + 0.5)
    assert not report.overall


def test_drift_split_exact():
    spec = builtin_model("hamiltonian", {"v_expr": "0.5*x1^2",
                                         "mass_expr": "1 + 0.3*x1^2",
                                         "c_mass": 1.0})
    x = np.array([[0.5, -0.2], [1.0, 0.1]])       # two points, component-first
    b = drift_split(spec, x)
    assert b.shape == (1, 1, 2)
    assert np.array_equal(b + spec.b0[..., None], spec.dz(x)[:1, 1:])


def test_hypothesis_checks_run():
    spec = builtin_model("kinetic_ou", {"m": 1})
    report = validate_model(spec, BOX, n_samples=64, seed=0)
    names = {c.name for c in report.checks}
    assert {"w_geq_one", "generator_bound", "grad2w_bound",
            "jacobian_growth"} <= names
    assert report.overall


def test_singular_sigma_is_hard_failure():
    spec = builtin_model("kinetic_ou", {"m": 1})
    bad = ModelSpec(m=1, d=1, z=spec.z, dz=spec.dz, sigma=np.zeros((1, 1)),
                    b0=np.eye(1), epsilon=0.0)
    with pytest.raises(ConfigurationError):
        validate_model(bad, BOX, n_samples=8, seed=0)


def test_bad_parameters_rejected():
    with pytest.raises(ConfigurationError):
        builtin_model("kinetic_ou", {})
    with pytest.raises(ConfigurationError):
        builtin_model("kinetic_ou", {"m": 1, "bogus": 3})
    with pytest.raises(ConfigurationError):
        builtin_model("nope", {})
    with pytest.raises(ConfigurationError):
        builtin_model("hamiltonian", {"v_expr": "0", "m": 2,
                                      "mass_expr": "1 + x1^2"})
    with pytest.raises(ConfigurationError):
        ModelSpec(m=1, d=1, z=None, dz=None, sigma=np.eye(1), b0=np.eye(1),
                  epsilon=1.0)


def test_hypothesis_field_validation():
    with pytest.raises(ConfigurationError):
        HypothesisData(w=lambda x: x, grad2_w=lambda x: x, c_const=1.0,
                       l1=1.5, l2=0.0)


def test_schema_listing_stable():
    first = builtin_schemas()
    second = builtin_schemas()
    assert first == second
    assert set(first) == {"kinetic_ou", "hamiltonian", "integrator_chain"}
    for sch in first.values():
        assert "required" in sch and "optional" in sch


def _custom_config_spec():
    from pathlib import Path

    from hypograd.cli import build_model, load_config
    cfg = load_config(Path(__file__).parent.parent / "configs" / "estimate_custom.json")
    return build_model(cfg["model"])


@pytest.mark.parametrize("name,params", [
    ("kinetic_ou", {"m": 1}),
    ("kinetic_ou", {"m": 2, "k": [[1.0, 0.3], [0.2, 1.5]],
                    "gamma": [[0.7, 0.1], [0.0, 1.2]], "sigma": [[1.0, 0.3], [0.2, 0.8]]}),
    ("integrator_chain", {"a": [[0.0, 1.0], [0.0, 0.0]], "b0": [[0.0], [1.0]]}),
    ("integrator_chain", {"a": [[0.1, 1.0], [-0.3, 0.2]], "b0": [[0.5, 0.0], [0.2, 1.0]],
                          "z2_lin": [[-1.0, 0.2, -0.7, 0.1], [0.3, -0.4, 0.0, -1.1]],
                          "z2_off": [0.25, -0.5]}),
    ("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4"}),
    ("hamiltonian", {"v_expr": "0.5*x1^2 + 0.3*x2^2 + 0.1*x1*x2^3", "m": 2,
                     "friction": 0.4, "sigma": [[1.0, 0.2], [0.3, 0.8]]}),
    ("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4", "mass_expr": "1 + 0.2*x1^2",
                     "c_mass": 1.0}),
    ("custom", None),
])
def test_drift_and_jacobian_match_block_reference(name, params):
    # one drift and one Jacobian callable give the bytes the former
    # block-concatenating drift/full_jacobian gave
    spec = _custom_config_spec() if name == "custom" else builtin_model(name, params)
    rng = np.random.default_rng(3)
    bulk = rng.standard_normal((5, 7, spec.dim))
    inputs = {
        "batched": bulk,
        "paths": bulk[:, 0],
        "single": bulk[2, 3],
        "strided": np.swapaxes(np.swapaxes(bulk, 0, 1).copy(), 0, 1)[:, ::2],
    }
    for label, x in inputs.items():
        xc = np.moveaxis(x, -1, 0)                 # the model takes components first
        for got, ref in ((spec.drift(xc), np.moveaxis(reference_drift(spec, x), -1, 0)),
                         (spec.full_jacobian(xc),
                          np.moveaxis(reference_full_jacobian(spec, x), (-2, -1), (0, 1)))):
            assert got.shape == ref.shape, label
            assert got.tobytes() == np.ascontiguousarray(ref).tobytes(), label


def test_validate_rejects_wrong_shapes():
    spec = builtin_model("kinetic_ou", {"m": 1})
    short_z = ModelSpec(m=1, d=1, z=lambda x: spec.z(x)[:1], dz=spec.dz,
                        sigma=np.eye(1), b0=np.eye(1), epsilon=0.0)
    flat_dz = ModelSpec(m=1, d=1, z=spec.z, dz=lambda x: spec.dz(x)[:, :1],
                        sigma=np.eye(1), b0=np.eye(1), epsilon=0.0)
    for bad, what in ((short_z, "z returns dimension 1"), (flat_dz, "dz must return")):
        with pytest.raises(ConfigurationError, match=what):
            validate_model(bad, BOX, n_samples=8, seed=0)
