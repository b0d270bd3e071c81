"""Unit tests for the tensor Sinkhorn solver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    fit_log_slope,
    random_instance,
    scalar_measure,
    trace_balanced_instance,
    two_bump_line_instance,
)
from scalar_ot import unbalanced_sinkhorn_log

from qot.cost import euclidean_cost, GroundCost
from qot.measure import TensorMeasure, marginal_cols, marginal_rows
from qot.solver import (
    DualState,
    SolverConfig,
    dual_objective,
    fixed_point_residual,
    sinkhorn_solve,
    sinkhorn_solve_trace,
)
from qot.sym import exp_sym, log_sym


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.eps == 0.08**2
        assert cfg.rho1 == cfg.rho2 == 1.0
        assert np.isclose(cfg.tau(1), 1.8 * cfg.eps / (cfg.eps + 1.0))
        assert cfg.tol == 1e-9
        assert cfg.max_iter == 10000

    def test_hard_constraint_tau(self):
        cfg = SolverConfig(rho2=math.inf)
        assert cfg.tau(2) == 1.8
        assert cfg.kernel_coef(2) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(eps=0.0)
        with pytest.raises(ValueError):
            SolverConfig(rho1=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)


class TestScalarClosedForm:
    def test_single_pair_fixed_point(self):
        # 1x1, d=1, mu=nu=[2], c=0: the stationarity condition
        # 2 rho log(g/2) + eps log(g) = 0 gives g = 2^(2 rho / (2 rho + eps)).
        eps = 0.01
        mu = scalar_measure([2.0], [[0.0]])
        nu = scalar_measure([2.0], [[0.0]])
        cost = GroundCost("isotropic", np.zeros((1, 1)))
        cfg = SolverConfig(eps=eps, rho1=1.0, rho2=1.0, tol=1e-13)
        coupling, state, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        expected = 2.0 ** (2.0 / (2.0 + eps))
        assert np.isclose(coupling.entries[0, 0, 0, 0], expected, atol=1e-9)


class TestScalarEquivalence:
    def test_iterates_match_scalar_oracle(self):
        rng = np.random.default_rng(42)
        eps, rho = 0.01, 1.0
        n = 12
        masses_mu = rng.uniform(0.5, 2.0, n)
        masses_nu = rng.uniform(0.5, 2.0, n)
        mu = scalar_measure(masses_mu)
        nu = scalar_measure(masses_nu)
        cost = euclidean_cost(mu.points, nu.points, alpha=2.0)
        tau = eps / (eps + rho)
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
        assert len(ours) == len(theirs) == 30
        for (u, v), (f, g) in zip(ours, theirs):
            assert np.abs(-rho * u[:, 0, 0] - f).max() < 1e-10
            assert np.abs(-rho * v[:, 0, 0] - g).max() < 1e-10


class TestCommutingDecomposition:
    def test_diagonal_inputs_split_into_scalar_solves(self):
        rng = np.random.default_rng(7)
        n_i, n_j = 6, 5
        a_mu = rng.uniform(0.4, 2.0, n_i)
        b_mu = rng.uniform(0.4, 2.0, n_i)
        a_nu = rng.uniform(0.4, 2.0, n_j)
        b_nu = rng.uniform(0.4, 2.0, n_j)
        x = np.linspace(0.0, 1.0, n_i)[:, None]
        y = np.linspace(0.0, 1.0, n_j)[:, None]
        mu2 = TensorMeasure(x, np.stack([np.diag([a, b]) for a, b in zip(a_mu, b_mu)]))
        nu2 = TensorMeasure(y, np.stack([np.diag([a, b]) for a, b in zip(a_nu, b_nu)]))
        cost = euclidean_cost(x, y, alpha=2.0)
        cfg = SolverConfig(eps=0.02, rho1=1.0, rho2=1.0, max_iter=400, tol=1e-300)

        full, _, _ = sinkhorn_solve(mu2, nu2, cost, cfg)
        plan_a, _, _ = sinkhorn_solve(
            scalar_measure(a_mu, x), scalar_measure(a_nu, y), cost, cfg)
        plan_b, _, _ = sinkhorn_solve(
            scalar_measure(b_mu, x), scalar_measure(b_nu, y), cost, cfg)

        assert np.abs(full.entries[..., 0, 0] - plan_a.entries[..., 0, 0]).max() < 1e-8
        assert np.abs(full.entries[..., 1, 1] - plan_b.entries[..., 0, 0]).max() < 1e-8
        assert np.abs(full.entries[..., 0, 1]).max() < 1e-12


class TestIsotropicReduction:
    def test_isotropic_inputs_give_isotropic_scalar_plan(self):
        rng = np.random.default_rng(11)
        n_i, n_j = 5, 6
        m_mu = rng.uniform(0.5, 1.5, n_i)
        m_nu = rng.uniform(0.5, 1.5, n_j)
        x = rng.uniform(size=(n_i, 1))
        y = rng.uniform(size=(n_j, 1))
        d = 2
        mu = TensorMeasure(x, m_mu[:, None, None] * np.eye(d))
        nu = TensorMeasure(y, m_nu[:, None, None] * np.eye(d))
        cost = euclidean_cost(x, y, alpha=2.0)
        cfg = SolverConfig(eps=0.05, rho1=1.0, rho2=1.0, max_iter=500, tol=1e-300)
        coupling, _, _ = sinkhorn_solve(mu, nu, cost, cfg)

        scal, _, _ = sinkhorn_solve(scalar_measure(m_mu, x),
                                    scalar_measure(m_nu, y), cost, cfg)
        iso = scal.entries[..., 0, 0]
        assert np.abs(coupling.entries[..., 0, 0] - iso).max() < 1e-10
        assert np.abs(coupling.entries[..., 1, 1] - iso).max() < 1e-10
        assert np.abs(coupling.entries[..., 0, 1]).max() < 1e-14


class TestDuality:
    def test_dual_value_at_zero_potentials(self):
        rng = np.random.default_rng(13)
        mu, nu, _ = random_instance(rng, 3, 4, 2)
        nu = TensorMeasure(nu.points, nu.tensors)
        cost = GroundCost("isotropic", np.zeros((3, 4)))
        cfg = SolverConfig(eps=0.03)
        state = DualState.zeros(3, 4, 2)
        # with u=v=0 and c=0 each kernel entry exponentiates to the identity
        got = dual_objective(state, mu, nu, cost, cfg)
        assert np.isclose(got, -cfg.eps * 3 * 4 * 2, atol=1e-12)

    def test_weak_duality_along_iterates(self):
        rng = np.random.default_rng(17)
        mu, nu, cost = random_instance(rng, 4, 4, 2)
        cfg = SolverConfig(eps=0.05, max_iter=60, tol=1e-300)
        states = []
        sinkhorn_solve(mu, nu, cost, cfg,
                       callback=lambda it, u, v: states.append(DualState(
                           u, v, np.zeros(4), np.zeros(4))))
        for state in states[::10]:
            k = dual_objective(state, mu, nu, cost, cfg)
            from qot.cost import kernel as kern
            gamma = exp_sym(kern(state.u, state.v, cost, cfg.eps, 1.0, 1.0))
            from qot.measure import Coupling, primal_objective
            p = primal_objective(Coupling(gamma), mu, nu, cost, cfg)
            assert k <= p + 1e-9

    def test_duality_gap_closes_at_convergence(self):
        rng = np.random.default_rng(19)
        mu, nu, cost = random_instance(rng, 4, 4, 2)
        cfg = SolverConfig(eps=0.05, tol=1e-11, max_iter=20000)
        _, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        gap = abs(report.primal_value - report.dual_value)
        assert gap / (1.0 + abs(report.primal_value)) < 1e-6


class TestFixedPointResidual:
    def test_small_at_convergence(self):
        rng = np.random.default_rng(23)
        mu, nu, cost = random_instance(rng, 4, 4, 2)
        cfg = SolverConfig(eps=0.05, tol=1e-11, max_iter=20000)
        _, state, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        assert fixed_point_residual(state, mu, nu, cost, cfg) < 1e-8

    def test_positive_at_zero_state(self):
        rng = np.random.default_rng(29)
        mu, nu, cost = random_instance(rng, 3, 3, 2)
        cfg = SolverConfig(eps=0.05)
        state = DualState.zeros(3, 3, 2)
        assert fixed_point_residual(state, mu, nu, cost, cfg) > 0.0

    def test_invariant_under_relabeling(self):
        rng = np.random.default_rng(31)
        mu, nu, cost = random_instance(rng, 5, 4, 2)
        cfg = SolverConfig(eps=0.05, max_iter=40, tol=1e-300)
        _, state, _ = sinkhorn_solve(mu, nu, cost, cfg)
        res = fixed_point_residual(state, mu, nu, cost, cfg)

        perm = np.random.default_rng(1).permutation(5)
        mu_p = TensorMeasure(mu.points[perm], mu.tensors[perm])
        cost_p = GroundCost("isotropic", cost.values[perm])
        state_p = DualState(state.u[perm], state.v, state.alpha[perm], state.beta)
        res_p = fixed_point_residual(state_p, mu_p, nu, cost_p, cfg)
        assert np.isclose(res, res_p, atol=1e-13)


class TestMarginalFirstOrderCondition:
    def test_row_marginal_matches_grown_mass(self):
        # first-order condition: sum_j exp(K_ij) = exp(u_i + log mu_i)
        rng = np.random.default_rng(37)
        mu, nu, cost = random_instance(rng, 4, 5, 2)
        cfg = SolverConfig(eps=0.05, tol=1e-11, max_iter=20000)
        coupling, state, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        grown = exp_sym(state.u + log_sym(mu.tensors))
        assert np.abs(marginal_rows(coupling) - grown).max() < 1e-6


class TestConvergenceBehaviour:
    def test_linear_rate_and_monotone_tail(self):
        mu, nu, cost = two_bump_line_instance(24)
        eps, rho = 0.08**2, 1.0
        tau = eps / (eps + rho)
        cfg = SolverConfig(eps=eps, rho1=rho, rho2=rho, tau1=tau, tau2=tau,
                           tol=1e-9, max_iter=20000)
        _, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        slope, r2 = fit_log_slope(report.residual_history)
        assert slope < 0.0
        assert r2 > 0.99
        tail = report.residual_history[10:]
        assert np.all(np.diff(tail) <= 1e-12 + 1e-6 * tail[:-1])

    def test_rate_improves_with_larger_tau(self):
        mu, nu, cost = two_bump_line_instance(24)
        eps, rho = 0.08**2, 1.0
        rates = {}
        for factor in (1.0, 1.5):
            tau = factor * eps / (eps + rho)
            cfg = SolverConfig(eps=eps, rho1=rho, rho2=rho, tau1=tau, tau2=tau,
                               tol=1e-9, max_iter=20000)
            _, _, report = sinkhorn_solve(mu, nu, cost, cfg)
            slope, _ = fit_log_slope(report.residual_history)
            rates[factor] = -slope
        assert rates[1.5] >= rates[1.0]

    def test_small_eps_stays_finite(self):
        rng = np.random.default_rng(41)
        mu, nu, cost = random_instance(rng, 8, 8, 2)
        cfg = SolverConfig(eps=1e-4, max_iter=300, tol=1e-9)
        coupling, state, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert np.all(np.isfinite(coupling.entries))
        assert np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.v))
        assert np.all(np.isfinite(report.residual_history))

    def test_non_convergence_reported_not_raised(self):
        rng = np.random.default_rng(43)
        mu, nu, cost = random_instance(rng, 4, 4, 2)
        cfg = SolverConfig(eps=0.01, max_iter=3, tol=1e-12)
        _, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert not report.converged
        assert report.iterations == 3


class TestHardColumnConstraint:
    def test_scalar_hard_side_marginal_after_update(self):
        rng = np.random.default_rng(47)
        n = 6
        masses_mu = rng.uniform(0.5, 2.0, n)
        masses_nu = rng.uniform(0.5, 2.0, n)
        mu = scalar_measure(masses_mu)
        nu = scalar_measure(masses_nu)
        cost = euclidean_cost(mu.points, nu.points, alpha=2.0)
        cfg = SolverConfig(eps=0.02, rho1=1.0, rho2=math.inf, tau2=1.0,
                           max_iter=25, tol=1e-300)

        from qot.cost import kernel as kern
        failures = []

        def check(it, u, v):
            k = kern(u, v, cost, cfg.eps, 1.0, 1.0)
            cols = exp_sym(k).sum(axis=0)
            err = np.abs(cols[:, 0, 0] - masses_nu).max()
            failures.append(err)

        sinkhorn_solve(mu, nu, cost, cfg, callback=check)
        assert max(failures) < 1e-8

    def test_tensor_hard_side_marginal_at_convergence(self):
        rng = np.random.default_rng(53)
        mu, nu, cost = random_instance(rng, 5, 5, 2)
        cfg = SolverConfig(eps=0.05, rho1=1.0, rho2=math.inf, tau2=1.0,
                           tol=1e-11, max_iter=30000)
        coupling, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        assert np.abs(marginal_cols(coupling) - nu.tensors).max() < 1e-7

    def test_both_sides_hard_on_isotropic_instance(self):
        # fully balanced transport is feasible for isotropic tensors with
        # equal total mass; both sentinels engage at once
        rng = np.random.default_rng(57)
        m_mu = rng.uniform(0.5, 1.5, 5)
        m_nu = rng.uniform(0.5, 1.5, 6)
        m_nu *= m_mu.sum() / m_nu.sum()
        x = rng.uniform(size=(5, 1))
        y = rng.uniform(size=(6, 1))
        mu = TensorMeasure(x, m_mu[:, None, None] * np.eye(2))
        nu = TensorMeasure(y, m_nu[:, None, None] * np.eye(2))
        cost = euclidean_cost(x, y, alpha=2.0)
        cfg = SolverConfig(eps=0.05, rho1=math.inf, rho2=math.inf,
                           tau1=1.0, tau2=1.0, tol=1e-11, max_iter=30000)
        coupling, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        assert len(report.notes) == 2
        assert np.abs(marginal_rows(coupling) - mu.tensors).max() < 1e-7
        assert np.abs(marginal_cols(coupling) - nu.tensors).max() < 1e-7


class TestTraceConstrained:
    def test_single_pair_pins_mass(self):
        mu = scalar_measure([2.0], [[0.0]])
        nu = scalar_measure([2.0], [[0.0]])
        cost = GroundCost("isotropic", np.zeros((1, 1)))
        for rho in (0.5, 1.0, 5.0):
            cfg = SolverConfig(eps=0.05, rho1=rho, rho2=rho, tol=1e-12,
                               trace_constrained=True)
            coupling, _, report = sinkhorn_solve_trace(mu, nu, cost, cfg)
            assert report.converged
            assert np.isclose(coupling.entries[0, 0, 0, 0], 2.0, atol=1e-8)

    def test_marginal_traces_match(self):
        rng = np.random.default_rng(59)
        mu, nu, cost = trace_balanced_instance(rng, 5, 5, 2)
        cfg = SolverConfig(eps=0.05, tol=1e-10, max_iter=30000,
                           trace_constrained=True)
        coupling, _, report = sinkhorn_solve_trace(mu, nu, cost, cfg)
        assert report.converged
        row_tr = np.trace(marginal_rows(coupling), axis1=-2, axis2=-1)
        col_tr = np.trace(marginal_cols(coupling), axis1=-2, axis2=-1)
        assert np.abs(row_tr - np.trace(mu.tensors, axis1=-2, axis2=-1)).max() < 1e-6
        assert np.abs(col_tr - np.trace(nu.tensors, axis1=-2, axis2=-1)).max() < 1e-6

    def test_symmetric_instance_equal_multipliers(self):
        rng = np.random.default_rng(61)
        mu, _, _ = random_instance(rng, 4, 4, 2)
        cost = euclidean_cost(mu.points, mu.points, alpha=2.0)
        cfg = SolverConfig(eps=0.05, tol=1e-11, max_iter=30000,
                           trace_constrained=True)
        _, state, report = sinkhorn_solve_trace(mu, mu, cost, cfg)
        assert report.converged
        assert np.abs(state.alpha - state.beta).max() < 1e-8

    def test_duality_gap_with_trace_terms(self):
        rng = np.random.default_rng(67)
        mu, nu, cost = trace_balanced_instance(rng, 4, 4, 2)
        cfg = SolverConfig(eps=0.05, tol=1e-11, max_iter=30000,
                           trace_constrained=True)
        _, _, report = sinkhorn_solve_trace(mu, nu, cost, cfg)
        assert report.converged
        gap = abs(report.primal_value - report.dual_value)
        assert gap / (1.0 + abs(report.primal_value)) < 1e-6

    def test_entry_point_is_the_flag(self):
        rng = np.random.default_rng(59)
        mu, nu, cost = trace_balanced_instance(rng, 3, 4, 2)
        cfg = SolverConfig(eps=0.05, max_iter=200)
        g1, s1, r1 = sinkhorn_solve_trace(mu, nu, cost, cfg)
        g2, s2, r2 = sinkhorn_solve(mu, nu, cost, replace(cfg, trace_constrained=True))
        assert g1.entries.tobytes() == g2.entries.tobytes()
        for name in ("u", "v", "alpha", "beta"):
            assert getattr(s1, name).tobytes() == getattr(s2, name).tobytes()
        assert r1.residual_history.tobytes() == r2.residual_history.tobytes()
        for name in ("iterations", "converged", "notes", "primal_value", "dual_value"):
            assert getattr(r1, name) == getattr(r2, name)
        assert "trace-constrained marginals" in r1.notes

    def test_nonpositive_trace_rejected(self):
        mu = TensorMeasure(np.zeros((1, 1)), np.zeros((1, 1, 1)))
        nu = scalar_measure([1.0], [[0.0]])
        cost = GroundCost("isotropic", np.zeros((1, 1)))
        cfg = SolverConfig(trace_constrained=True)
        with pytest.raises(ValueError):
            sinkhorn_solve_trace(mu, nu, cost, cfg)

    def test_infeasible_totals_rejected(self):
        mu = scalar_measure([1.0, 1.0])
        nu = scalar_measure([1.0, 2.0])
        cost = GroundCost("isotropic", np.zeros((2, 2)))
        cfg = SolverConfig(trace_constrained=True)
        with pytest.raises(ValueError, match="infeasible"):
            sinkhorn_solve_trace(mu, nu, cost, cfg)


class TestLargeTensorDim:
    def test_d4_solve_through_jacobi_path(self):
        rng = np.random.default_rng(71)
        mu, nu, cost = random_instance(rng, 3, 3, 4)
        cfg = SolverConfig(eps=0.05, tol=1e-10, max_iter=30000)
        coupling, state, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        assert np.all(np.isfinite(coupling.entries))
        gap = abs(report.primal_value - report.dual_value)
        assert gap / (1.0 + abs(report.primal_value)) < 1e-6


class TestMatrixCostKind:
    def test_solve_with_full_matrix_cost(self):
        rng = np.random.default_rng(73)
        mu, nu, iso = random_instance(rng, 3, 3, 2)
        base = iso.values[..., None, None] * np.eye(2)
        skew = 0.05 * rng.standard_normal((3, 3, 2, 2))
        mats = base + 0.5 * (skew + np.swapaxes(skew, -1, -2))
        cost = GroundCost("matrix", mats)
        cfg = SolverConfig(eps=0.05, tol=1e-10, max_iter=30000)
        _, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        gap = abs(report.primal_value - report.dual_value)
        assert gap / (1.0 + abs(report.primal_value)) < 1e-6


class TestValidation:
    def test_dimension_mismatch(self):
        mu = scalar_measure([1.0], [[0.0]])
        nu = TensorMeasure(np.zeros((1, 1)), np.eye(2)[None])
        cost = GroundCost("isotropic", np.zeros((1, 1)))
        with pytest.raises(ValueError):
            sinkhorn_solve(mu, nu, cost, SolverConfig())

    def test_cost_shape_mismatch(self):
        mu = scalar_measure([1.0, 2.0])
        nu = scalar_measure([1.0])
        cost = GroundCost("isotropic", np.zeros((1, 1)))
        with pytest.raises(ValueError):
            sinkhorn_solve(mu, nu, cost, SolverConfig())
