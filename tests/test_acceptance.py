"""Acceptance gate: every criterion at its stated size and tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure).  The heavy nonlinear cross-estimator run is shared by the bridge
and Gramian criteria through a module-scoped fixture.
"""

import json

import numpy as np
import pytest
from scipy.linalg import expm

from hypograd.analysis import gramian_scaling, gradient_rate_sweep, harnack_check
from hypograd.cli import run as cli_run
from hypograd.control import (build_alpha, build_bridge, gramian_M, gramian_Q,
                              phi_parabolic)
from hypograd.estimator import (EstimatorConfig, bismut_gradient,
                                closed_form_gradient, duality_gap, fd_gradient,
                                gaussian_bump_f, linear_f, pathwise_gradient,
                                quadratic_f)
from hypograd.flow import TimeGrid, simulate_path, terminal_flow
from hypograd.model import builtin_model
from tests.conftest import case1_profile, refine_noise, sample_noise

N_FULL = 100_000


def _report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def kinetic():
    return builtin_model("kinetic_ou", {"m": 1})


@pytest.fixture(scope="module")
def hamiltonian():
    return builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4"})


@pytest.fixture(scope="module")
def chain():
    return builtin_model("integrator_chain", {"a": [[0.0, 1.0], [0.0, 0.0]],
                                              "b0": [[0.0], [1.0]]})


@pytest.fixture(scope="module")
def criterion3_run(hamiltonian):
    """Shared nonlinear cross-estimator run: T = 0.5, N = 256, 1e5 paths."""
    grid = TimeGrid(0.5, 256)
    x0 = np.array([0.4, -0.3])
    v = np.array([1.0, 0.5])
    v = v / np.linalg.norm(v)
    f = gaussian_bump_f([0.2, 0.0], width=0.8)
    mk = lambda m, **kw: EstimatorConfig(n_paths=N_FULL, master_seed=2024,
                                         method=m, **kw)
    sko = bismut_gradient(hamiltonian, x0, v, f, grid, mk("bismut_skorokhod"))
    pw = pathwise_gradient(hamiltonian, x0, v, f, grid, mk("pathwise"))
    fd = fd_gradient(hamiltonian, x0, v, f, grid,
                     mk("finite_difference", fd_bump=1e-3))
    return {"grid": grid, "x0": x0, "v": v, "f": f,
            "sko": sko, "pw": pw, "fd": fd}


def test_criterion_1_bismut_vs_closed_form(kinetic):
    # oracle: 2x2 matrix exponential closed form for M = [[0,1],[-1,-1]]
    m_mat = kinetic.drift_matrix
    w = np.sqrt(3.0) / 2.0
    etm = np.exp(-0.5) * (np.cos(w) * np.eye(2)
                          + np.sin(w) / w * (m_mat + np.eye(2) / 2))
    assert np.allclose(etm, expm(m_mat), atol=1e-12)
    # reference digits 0.6597 / 0.5334 are 4-decimal quotes of the oracle
    assert abs(etm[0, 0] - 0.6597) < 2e-4 and abs(etm[0, 1] - 0.5334) < 2e-4
    grid = TimeGrid(1.0, 512)
    f = linear_f([1.0, 0.0])
    lines = []
    ok = True
    for v, truth in ((np.array([1.0, 0.0]), etm[0, 0]),
                     (np.array([0.0, 1.0]), etm[0, 1])):
        cfg = EstimatorConfig(n_paths=N_FULL, master_seed=42, method="bismut_ito")
        est = bismut_gradient(kinetic, [1.0, 1.0], v, f, grid, cfg)
        cf = closed_form_gradient(kinetic, [1.0, 1.0], v, f, 1.0)
        assert cf == pytest.approx(truth, abs=1e-9)
        z = abs(est.value - truth) / est.std_error
        ok &= z <= 4.0 and est.std_error <= 0.02
        lines.append(f"v={v}: est={est.value:.5f} se={est.std_error:.5f} "
                     f"truth={truth:.5f} z={z:.2f}")
    _report(1, ok, "; ".join(lines))


def test_criterion_2_zero_gradient(kinetic, chain):
    ok = True
    details = []
    for spec, x0, v in ((kinetic, [1.0, 1.0], [1.0, 0.0]),
                        (chain, [0.5, 0.5, 0.0], [1.0, 0.0, 0.0])):
        grid = TimeGrid(1.0, 128)
        cfg = EstimatorConfig(n_paths=20000, master_seed=7, method="bismut_ito")
        est = bismut_gradient(spec, x0, v, linear_f(np.zeros(spec.dim), b=1.0),
                              grid, cfg)
        ok &= abs(est.value) <= 4 * est.std_error
        ok &= abs(est.delta_mean) <= 4 * est.delta_se
        details.append(f"{spec.name}: |est|/se={abs(est.value)/est.std_error:.2f}"
                       f" |Edelta|/se={abs(est.delta_mean)/est.delta_se:.2f}")
    _report(2, ok, "; ".join(details))


def test_criterion_3_cross_estimator_consistency(criterion3_run):
    sko, pw, fd = (criterion3_run[k] for k in ("sko", "pw", "fd"))
    gap_pw = abs(sko.value - pw.value)
    comb_pw = np.hypot(sko.std_error, pw.std_error)
    gap_fd = abs(sko.value - fd.value)
    comb_fd = np.hypot(sko.std_error, fd.std_error)
    ok = gap_pw <= 4 * comb_pw and gap_fd <= 4 * comb_fd + 1e-4
    _report(3, ok,
            f"sko={sko.value:.5f}±{sko.std_error:.5f} pw={pw.value:.5f}"
            f"±{pw.std_error:.5f} fd={fd.value:.5f}±{fd.std_error:.5f}; "
            f"|s-p|/(4se)={gap_pw/(4*comb_pw):.2f} "
            f"|s-f|/(4se+1e-4)={gap_fd/(4*comb_fd+1e-4):.2f}")


def test_criterion_4_discrete_duality():
    spec = builtin_model("hamiltonian", {"v_expr": "0.5*x1^2 + 0.1*x1^4",
                                         "mass_expr": "1 + 0.2*x1^2",
                                         "c_mass": 1.0})
    grid = TimeGrid(0.5, 12)
    cfg = EstimatorConfig(n_paths=200_000, master_seed=11,
                          method="bismut_skorokhod", chunk_size=8000)
    prof = case1_profile(spec, 0.5, c_bound=3.0)
    ok = True
    details = []
    for name, f in (("linear", linear_f([1.0, 2.0])),
                    ("quadratic", quadratic_f(np.eye(2) + 0.1))):
        gap, se, lhs, rhs = duality_gap(spec, [0.3, -0.2], [0.7, -0.4], f,
                                        grid, cfg, weights=prof)
        ok &= abs(gap) <= 4 * se
        details.append(f"{name}: gap={gap:.2e} ({abs(gap)/se:.2f} se)")
    _report(4, ok, "; ".join(details))


def test_criterion_5_bridge_conditions(criterion3_run, hamiltonian):
    res = criterion3_run["sko"].diagnostics["bridge_residuals_max"]
    grid = criterion3_run["grid"]
    v = criterion3_run["v"]
    tol_g = 10 * (1 + np.linalg.norm(v)) * grid.t_final / grid.n_steps
    ok = res[0] <= 1e-10 and res[1] <= 1e-10 and res[2] <= tol_g
    # refinement: |g_N| halves per grid doubling on 32 fixed paths
    rng = np.random.default_rng(6)
    base_grid = TimeGrid(0.5, 512)
    noise = sample_noise(base_grid, 1, rng, n_paths=32)
    g_levels = []
    g, cur = noise, base_grid
    for n_steps in (512, 1024, 2048, 4096):
        if cur.n_steps != n_steps:
            g, cur = refine_noise(g, cur, rng)
        x = simulate_path(hamiltonian, criterion3_run["x0"], cur, g)
        jac = hamiltonian.dz(x.T)                          # node-major
        k = terminal_flow(hamiltonian, jac, cur)
        prof = case1_profile(hamiltonian, 0.5, c_bound=0.0)
        ad = build_alpha(hamiltonian, jac, k, cur, v, prof)
        _, _, res_cur = build_bridge(hamiltonian, jac, ad, cur, v)
        g_levels.append(float(np.mean(res_cur[:, 2])))
    ratios = [b / a for a, b in zip(g_levels, g_levels[1:])]
    ok_half = all(0.25 <= r <= 0.75 for r in ratios)
    _report(5, ok and ok_half,
            f"alpha res=({res[0]:.1e},{res[1]:.1e}) gN={res[2]:.2e}<={tol_g:.2e}; "
            f"halving ratios={[f'{r:.2f}' for r in ratios]}")


def test_criterion_6_gramian_bounds(criterion3_run, hamiltonian):
    ratio = criterion3_run["sko"].diagnostics["q_bound_ratio"]
    ok_q = ratio <= 1.0 + 1e-6
    # <Q_t a, a> >= (1-eps) <M_t a, a> - 1e-9, 16 random unit directions
    grid = criterion3_run["grid"]
    rng = np.random.default_rng(16)
    x = simulate_path(hamiltonian, criterion3_run["x0"], grid,
                      sample_noise(grid, 1, rng, n_paths=8))
    jac = hamiltonian.dz(x.T)                              # node-major
    k = terminal_flow(hamiltonian, jac, grid)
    phi, _ = phi_parabolic(grid.t_final)
    q = gramian_Q(hamiltonian, jac, k, phi, grid)
    m = gramian_M(k, hamiltonian.b0, phi, grid)
    worst = np.inf
    for _ in range(16):
        a = rng.standard_normal(hamiltonian.m)
        a /= np.linalg.norm(a)
        qa = np.einsum("abpj,a,b->pj", q, a, a)
        ma = np.einsum("abpj,a,b->pj", m, a, a)
        worst = min(worst, float(np.min(qa - (1 - hamiltonian.epsilon) * ma)))
    ok_ord = worst >= -1e-9
    _report(6, ok_q and ok_ord,
            f"||Q^-1|| bound ratio={ratio:.9f} (<=1+1e-6); "
            f"ordering worst margin={worst:.2e} (>=-1e-9)")


def test_criterion_7_kalman_scaling():
    t_grid = np.geomspace(1e-3, 1e-1, 9)
    cases = [
        (np.zeros((1, 1)), np.eye(1), 0),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]), 1),
        (np.diag([1.0, 1.0], 1), np.array([[0.0], [0.0], [1.0]]), 2),
    ]
    ok = True
    details = []
    for a_mat, b0, k in cases:
        fit = gramian_scaling(a_mat, b0, t_grid)
        ok &= abs(fit.slope - (2 * k + 1)) <= 0.2
        details.append(f"k={k}: slope={fit.slope:.3f}")
    _report(7, ok, "; ".join(details) + " (targets 1, 3, 5 ± 0.2)")


def test_criterion_8_rate_bounds(kinetic, chain):
    t_grid = np.geomspace(0.05, 0.8, 7)
    cfg = EstimatorConfig(n_paths=20000, master_seed=5, method="bismut_ito")
    fit_k = gradient_rate_sweep(kinetic, [1.0, 1.0], [1.0, 0.0],
                                linear_f([1.0, 0.0]), t_grid, cfg, n_steps=512)
    fit_c = gradient_rate_sweep(chain, [0.5, 0.5, 0.0], [1.0, 0.0, 0.0],
                                linear_f([1.0, 0.0, 0.0]), t_grid, cfg,
                                n_steps=512)
    ok = (fit_k.slope >= -1.5 - 0.25) and (fit_c.slope >= -4.5 - 0.25)
    _report(8, ok, f"kinetic slope={fit_k.slope:.3f} (>=-1.75); "
                   f"chain slope={fit_c.slope:.3f} (>=-4.75)")


def test_criterion_9_harnack_consistency(kinetic):
    f = gaussian_bump_f([0.5, -0.2], width=0.7)
    x = [0.4, 0.2]
    v = [0.8, 0.5]
    cfg = EstimatorConfig(n_paths=N_FULL, master_seed=21, method="bismut_ito")
    oracle = harnack_check(kinetic, f, x, v, [2.0, 4.0], 1.0, cfg,
                           n_steps=256, use_oracle=True)
    mc = harnack_check(kinetic, f, x, v, [2.0, 4.0], 1.0, cfg, n_steps=256,
                       use_oracle=False)
    rel = abs(mc.fitted_c - oracle.fitted_c) / oracle.fitted_c
    se = max(mc.extras["holdout_se_log"])
    ok = rel <= 0.15 and mc.margin >= -4 * se
    _report(9, ok, f"fitted_c mc={mc.fitted_c:.4f} oracle={oracle.fitted_c:.4f} "
                   f"rel={rel:.3f} (<=0.15); holdout margin={mc.margin:.4f} "
                   f">= {-4*se:.4f}")


def test_criterion_10_reproducibility(tmp_path):
    cfg = {
        "schema_version": 1,
        "experiment": "estimate",
        "output": str(tmp_path / "out"),
        "model": {"builtin": "kinetic_ou", "params": {"m": 1}},
        "x0": [1.0, 1.0],
        "v": [1.0, 0.0],
        "f": {"tag": "linear", "params": {"a": [1.0, 0.0]}},
        "grid": {"t_final": 1.0, "n_steps": 128},
        "estimator": {"n_paths": 5000, "master_seed": 42,
                      "method": "bismut_ito"},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    cli_run(str(path))
    first = (tmp_path / "out" / "results.json").read_bytes()
    cli_run(str(path))
    ok_bytes = (tmp_path / "out" / "results.json").read_bytes() == first
    cli_run(str(path), threads=4)
    threaded = json.loads((tmp_path / "out" / "results.json").read_text())
    base = json.loads(first)
    worst = 0.0
    for key, val in base[0]["metrics"].items():
        tv = threaded[0]["metrics"][key]
        scale = abs(val) if val else 1.0
        worst = max(worst, abs(tv - val) / scale)
    ok_threads = worst <= 1e-12
    _report(10, ok_bytes and ok_threads,
            f"single-thread rerun byte-identical={ok_bytes}; "
            f"threaded worst rel diff={worst:.2e} (<=1e-12)")
