"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them live) and asserts the criterion at its stated tolerance, including
the runtime bounds.
"""

import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from helpers import (
    bump_grid_measure,
    fit_log_slope,
    random_instance,
    random_psd,
    scalar_measure,
    trace_balanced_instance,
    two_bump_line_instance,
)
from scalar_ot import unbalanced_sinkhorn_log

from qot.barycenter import BarycenterProblem, barycenter_solve, pointwise_barycenter
from qot.cli import main
from qot.cost import GroundCost, euclidean_cost
from qot.fileio import load_field, save_field
from qot.interpolate import (
    InterpolationParams,
    displacement_interpolate,
    single_dirac_distance,
)
from qot.measure import TensorMeasure, marginal_cols, marginal_rows
from qot.solver import SolverConfig, fixed_point_residual, sinkhorn_solve


def report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def gap_solves():
    """Ten solved random 4x4 d=2 instances shared by criteria 3 and 4."""
    out = []
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    for _ in range(10):
        mu, nu, cost = random_instance(rng, 4, 4, 2)
        cfg = SolverConfig(eps=0.02, rho1=1.0, rho2=1.0, tol=1e-10,
                           max_iter=60000)
        coupling, state, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        out.append((mu, nu, cost, cfg, coupling, state, report))
    return out, time.perf_counter() - t0


def test_criterion_01_scalar_equivalence_oracle():
    eps, rho = 0.01, 1.0
    tau = eps / (eps + rho)
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        masses_mu = rng.uniform(0.4, 2.0, 16)
        masses_nu = rng.uniform(0.4, 2.0, 16)
        mu = scalar_measure(masses_mu)
        nu = scalar_measure(masses_nu)
        cost = euclidean_cost(mu.points, nu.points, alpha=2.0)
        cfg = SolverConfig(eps=eps, rho1=rho, rho2=rho, tau1=tau, tau2=tau,
                           max_iter=30, tol=1e-300)
        ours = []
        sinkhorn_solve(mu, nu, cost, cfg,
                       callback=lambda it, u, v: ours.append((u.copy(), v.copy())))
        theirs = []
        unbalanced_sinkhorn_log(
            masses_mu, masses_nu, cost.values, eps, rho, rho, 30,
            callback=lambda it, f, g: theirs.append((f.copy(), g.copy())),
        )
        for (u, v), (f, g) in zip(ours, theirs):
            worst = max(worst, float(np.abs(-rho * u[:, 0, 0] - f).max()))
            worst = max(worst, float(np.abs(-rho * v[:, 0, 0] - g).max()))
    elapsed = time.perf_counter() - t0
    report_line(
        1, "scalar-equivalence oracle", worst < 1e-10 and elapsed < 5.0,
        f"max iterate deviation {worst:.3e} (tol 1e-10), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_commuting_diagonal_decomposition():
    rng = np.random.default_rng(23)
    t0 = time.perf_counter()
    n_i, n_j = 8, 7
    a_mu = rng.uniform(0.4, 2.0, n_i)
    b_mu = rng.uniform(0.4, 2.0, n_i)
    a_nu = rng.uniform(0.4, 2.0, n_j)
    b_nu = rng.uniform(0.4, 2.0, n_j)
    x = np.linspace(0.0, 1.0, n_i)[:, None]
    y = np.linspace(0.0, 1.0, n_j)[:, None]
    mu = TensorMeasure(x, np.stack([np.diag([a, b]) for a, b in zip(a_mu, b_mu)]))
    nu = TensorMeasure(y, np.stack([np.diag([a, b]) for a, b in zip(a_nu, b_nu)]))
    cost = euclidean_cost(x, y, alpha=2.0)
    cfg = SolverConfig(eps=0.02, rho1=1.0, rho2=1.0, max_iter=500, tol=1e-300)

    full, _, _ = sinkhorn_solve(mu, nu, cost, cfg)
    plan_a, _, _ = sinkhorn_solve(scalar_measure(a_mu, x),
                                  scalar_measure(a_nu, y), cost, cfg)
    plan_b, _, _ = sinkhorn_solve(scalar_measure(b_mu, x),
                                  scalar_measure(b_nu, y), cost, cfg)
    stacked = np.zeros_like(full.entries)
    stacked[..., 0, 0] = plan_a.entries[..., 0, 0]
    stacked[..., 1, 1] = plan_b.entries[..., 0, 0]
    err = float(np.abs(full.entries - stacked).max())
    elapsed = time.perf_counter() - t0
    report_line(
        2, "commuting-diagonal decomposition", err < 1e-8 and elapsed < 5.0,
        f"max coupling deviation {err:.3e} (tol 1e-8), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_03_duality_gap(gap_solves):
    solves, elapsed = gap_solves
    worst = 0.0
    for _, _, _, _, _, _, report in solves:
        gap = abs(report.primal_value - report.dual_value)
        worst = max(worst, gap / (1.0 + abs(report.primal_value)))
    report_line(
        3, "duality gap", worst < 1e-6 and elapsed < 30.0,
        f"max relative gap {worst:.3e} (tol 1e-6), {elapsed:.2f}s (< 30s)",
    )


def test_criterion_04_fixed_point_certificate(gap_solves):
    solves, _ = gap_solves
    worst = 0.0
    for mu, nu, cost, cfg, _, state, _ in solves:
        worst = max(worst, fixed_point_residual(state, mu, nu, cost, cfg))
    report_line(
        4, "fixed-point certificate", worst < 1e-8,
        f"max residual {worst:.3e} (tol 1e-8)",
    )


def test_criterion_05_linear_convergence_reproduction():
    t0 = time.perf_counter()
    mu, nu, cost = two_bump_line_instance(32)
    eps, rho = 0.08**2, 1.0
    fits = {}
    for factor in (1.0, 1.5):
        tau = factor * eps / (eps + rho)
        cfg = SolverConfig(eps=eps, rho1=rho, rho2=rho, tau1=tau, tau2=tau,
                           tol=1e-9, max_iter=30000)
        _, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        slope, r2 = fit_log_slope(report.residual_history)
        fits[factor] = (-slope, r2)
    elapsed = time.perf_counter() - t0
    rate_1, r2_1 = fits[1.0]
    rate_15, _ = fits[1.5]
    ok = r2_1 > 0.99 and rate_15 >= rate_1 and elapsed < 60.0
    report_line(
        5, "linear convergence reproduction", ok,
        f"R^2(1.0)={r2_1:.5f} (> 0.99), rate 1.5x={rate_15:.4f} >= "
        f"rate 1.0x={rate_1:.4f}, {elapsed:.2f}s (< 60s)",
    )


def test_criterion_06_interpolation_endpoints():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    mu, nu, cost = random_instance(rng, 5, 5, 2)
    cfg = SolverConfig(eps=0.05, tol=1e-11, max_iter=30000)
    coupling, _, report = sinkhorn_solve(mu, nu, cost, cfg)
    assert report.converged

    worst = 0.0
    for t, ref in ((0.0, mu), (1.0, nu)):
        params = InterpolationParams(t=t, trace_threshold=0.0, merge_radius=1e-9)
        out = displacement_interpolate(mu, nu, coupling, params)
        assert out.n_atoms == ref.n_atoms
        order = np.lexsort(out.points.T)
        ref_order = np.lexsort(ref.points.T)
        assert np.allclose(out.points[order], ref.points[ref_order])
        err = np.linalg.norm(out.tensors[order] - ref.tensors[ref_order],
                             axis=(-2, -1))
        worst = max(worst, float(err.max()))
    elapsed = time.perf_counter() - t0
    report_line(
        6, "interpolation endpoints", worst < 1e-8 and elapsed < 5.0,
        f"max atom deviation {worst:.3e} (tol 1e-8), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_07_trace_constrained_marginals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(37)
    worst = 0.0
    for _ in range(3):
        mu, nu, cost = trace_balanced_instance(rng, 5, 5, 2)
        cfg = SolverConfig(eps=0.05, tol=1e-10, max_iter=60000,
                           trace_constrained=True)
        coupling, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        row_tr = np.trace(marginal_rows(coupling), axis1=-2, axis2=-1)
        col_tr = np.trace(marginal_cols(coupling), axis1=-2, axis2=-1)
        worst = max(
            worst,
            float(np.abs(row_tr - np.trace(mu.tensors, axis1=-2, axis2=-1)).max()),
            float(np.abs(col_tr - np.trace(nu.tensors, axis1=-2, axis2=-1)).max()),
        )
    elapsed = time.perf_counter() - t0
    report_line(
        7, "trace-constrained marginals", worst < 1e-6 and elapsed < 30.0,
        f"max trace mismatch {worst:.3e} (tol 1e-6), {elapsed:.2f}s (< 30s)",
    )


def test_criterion_08_single_dirac_metric():
    commuting = single_dirac_distance(np.diag([4.0, 1.0]), np.diag([1.0, 4.0]))
    err_commuting = abs(commuting - math.sqrt(2.0))

    rng = np.random.default_rng(41)
    self_err = max(
        single_dirac_distance(p, p) for p in random_psd(rng, 2, n=20)
    )

    violations = 0
    worst_gap = 0.0
    for _ in range(1000):
        a, b, c = random_psd(rng, 2, n=3)
        lhs = single_dirac_distance(a, c)
        rhs = single_dirac_distance(a, b) + single_dirac_distance(b, c)
        if lhs > rhs + 1e-12:
            violations += 1
            worst_gap = max(worst_gap, lhs - rhs)
    # logged, not asserted: the triangle inequality is not established
    # for non-commuting pairs
    print(f"[criterion 08] triangle inequality violations: "
          f"{violations}/1000 (worst excess {worst_gap:.3e})")

    ok = err_commuting < 1e-10 and self_err < 1e-12
    report_line(
        8, "single-atom tensor metric", ok,
        f"commuting-case error {err_commuting:.3e} (tol 1e-10), "
        f"self-distance {self_err:.3e} (tol 1e-12)",
    )


def test_criterion_09_pointwise_barycenter_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(43)
    point = np.array([[0.4, 0.6]])
    tensors = random_psd(rng, 2, n=3)
    weights = np.array([0.2, 0.5, 0.3])
    inputs = tuple(TensorMeasure(point, t[None]) for t in tensors)
    costs = tuple(GroundCost(np.zeros((1, 1))) for _ in range(3))
    prob = BarycenterProblem(inputs, weights, point, costs)
    cfg = SolverConfig(eps=1e-3, tol=1e-10, max_iter=60000)
    nu, report = barycenter_solve(prob, cfg)
    assert report.converged
    expected = pointwise_barycenter(tensors, weights, energy=0.0, rho=1.0)
    rel = float(np.linalg.norm(nu.tensors[0] - expected)
                / np.linalg.norm(expected))
    elapsed = time.perf_counter() - t0
    report_line(
        9, "pointwise barycenter closed form", rel < 0.05 and elapsed < 10.0,
        f"relative deviation {rel:.4f} (tol 0.05), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_10_barycenter_dual_certificate():
    t0 = time.perf_counter()
    rng = np.random.default_rng(47)
    inputs = tuple(
        TensorMeasure(rng.uniform(size=(16, 2)), random_psd(rng, 2, n=16))
        for _ in range(4)
    )
    support = rng.uniform(size=(16, 2))
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    costs = tuple(euclidean_cost(m.points, support, alpha=2.0) for m in inputs)
    prob = BarycenterProblem(inputs, weights, support, costs)
    cfg = SolverConfig(eps=0.05, tol=1e-9, max_iter=30000)
    _, report = barycenter_solve(prob, cfg)
    assert report.converged
    weighted = sum(w * s.v for w, s in zip(weights, report.dual_states))
    certificate = float(np.abs(weighted).max())
    elapsed = time.perf_counter() - t0
    report_line(
        10, "barycenter dual certificate",
        certificate < 1e-6 and elapsed < 60.0,
        f"sup-norm of weighted potentials {certificate:.3e} (tol 1e-6), "
        f"{elapsed:.2f}s (< 60s)",
    )


def test_criterion_11_stability_at_small_eps():
    rng = np.random.default_rng(53)
    mu, nu, cost = random_instance(rng, 16, 16, 2)
    cfg = SolverConfig(eps=1e-4, max_iter=1500, tol=1e-9)
    coupling, state, report = sinkhorn_solve(mu, nu, cost, cfg)
    finite = (
        np.all(np.isfinite(coupling.entries))
        and np.all(np.isfinite(state.u))
        and np.all(np.isfinite(state.v))
        and np.all(np.isfinite(report.residual_history))
    )
    outcome = "converged" if report.converged else "hit max_iter"
    report_line(
        11, "stability at small eps", bool(finite),
        f"eps=1e-4 {outcome} after {report.iterations} iterations, "
        f"all iterates finite",
    )


def test_criterion_12_desk_scale_figure_reproduction(tmp_path):
    t0 = time.perf_counter()
    mu = bump_grid_measure(16, (0.3, 0.35), 0.0)
    nu = bump_grid_measure(16, (0.7, 0.65), math.pi / 2.0)
    mu_path = tmp_path / "mu.json"
    nu_path = tmp_path / "nu.json"
    save_field(mu_path, mu)
    save_field(nu_path, nu)
    coupling_path = tmp_path / "coupling.json"
    report_path = tmp_path / "report.json"

    code = main([
        "transport", "--mu", str(mu_path), "--nu", str(nu_path),
        "--out", str(coupling_path), "--report", str(report_path),
    ])
    assert code == 0, "transport stage did not converge"

    pattern = str(tmp_path / "frame-{i}.json")
    code = main([
        "interpolate", "--mu", str(mu_path), "--nu", str(nu_path),
        "--coupling", str(coupling_path), "--steps", "9", "--render",
        "--merge-radius", "1e-9", "--out", pattern,
    ])
    assert code == 0

    frames_ok = True
    for i in range(9):
        frame = load_field(tmp_path / f"frame-{i}.json")
        frames_ok = frames_ok and frame.n_atoms > 0
        svg = (tmp_path / f"frame-{i}.svg").read_text()
        doc = ET.fromstring(svg)
        ellipses = [el for el in doc.iter() if el.tag.endswith("ellipse")]
        frames_ok = frames_ok and len(ellipses) == frame.n_atoms

    doc = json.loads(report_path.read_text())
    elapsed = time.perf_counter() - t0
    ok = frames_ok and doc["converged"] and elapsed < 300.0
    report_line(
        12, "desk-scale figure reproduction", ok,
        f"16x16 grid, solve ({doc['iterations']} iterations) + 9 frames + "
        f"SVG in {elapsed:.1f}s (< 300s)",
    )
