"""Unit tests for the tensor Sinkhorn solver."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    fit_log_slope,
    grid_points,
    heavy_line_measure,
    oriented_tensor,
    random_psd,
    random_instance,
    scalar_measure,
    trace_balanced_instance,
    trace_solve_four_eigh,
    trace_solve_full_stack,
    two_bump_line_instance,
)
from scalar_ot import unbalanced_sinkhorn_log

from qot import cost as qot_cost, solver
from qot.barycenter import BarycenterProblem, barycenter_solve
from qot.cost import euclidean_cost, GroundCost
from qot.measure import TensorMeasure, marginal_cols, marginal_rows
from qot.solver import (
    DualState,
    SolverConfig,
    dual_objective,
    fixed_point_residual,
    sinkhorn_solve,
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

    # Values the solve cannot use: an infinite tol "converges" at the
    # first iteration and breaks the report's strict JSON, max_iter=2.5
    # fails in range(), max_iter=True runs one iteration, and an infinite
    # explicit tau ends in non-finite potentials.
    def test_tol_must_be_finite(self):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            SolverConfig(tol=math.inf)

    @pytest.mark.parametrize("max_iter", [2.5, True, 10.0, "10"])
    def test_max_iter_must_be_an_integer(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverConfig(max_iter=max_iter)

    def test_numpy_integer_max_iter_allowed(self):
        assert SolverConfig(max_iter=np.int64(7)).max_iter == 7

    @pytest.mark.parametrize("name", ["tau1", "tau2"])
    def test_explicit_tau_must_be_finite(self, name):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            SolverConfig(**{name: math.inf})


class TestRelax:
    """``SolverConfig.relax`` is, bit for bit, ``(1 - tau) old + tau gap``
    on a finite side and ``old + tau eps gap`` on a hard side."""

    @pytest.mark.parametrize("cfg", [
        SolverConfig(),
        SolverConfig(eps=0.05, rho1=0.3, rho2=math.inf),
        SolverConfig(eps=0.02, rho1=math.inf, rho2=2.0, tau1=0.7, tau2=1.1),
    ])
    def test_equals_the_finite_and_hard_formulas(self, cfg):
        rng = np.random.default_rng(4)
        for side, rho in ((1, cfg.rho1), (2, cfg.rho2)):
            old, gap = random_psd(rng, 2, n=9), rng.standard_normal((9, 2, 2))
            tau = cfg.tau(side)
            want = ((1.0 - tau) * old + tau * gap if math.isfinite(rho)
                    else old + tau * cfg.eps * gap)
            got = cfg.relax(side, old, gap)
            assert got.tobytes() == want.tobytes()


class TestReportConfig:
    """``SolveReport.config`` is the configuration the loop ran."""

    def test_plain_solve_reports_the_callers_config(self):
        mu, nu, cost = random_instance(np.random.default_rng(0), 3, 4, 2)
        cfg = SolverConfig(eps=0.1, rho2=math.inf)
        assert sinkhorn_solve(mu, nu, cost, cfg)[2].config is cfg

    def test_trace_solve_reports_trace_mode(self):
        mu, nu, cost = trace_balanced_instance(np.random.default_rng(0), 3, 4, 2)
        cfg = SolverConfig(eps=0.1, trace_constrained=True)
        assert sinkhorn_solve(mu, nu, cost, cfg)[2].config is cfg

    def test_barycenter_reports_its_fidelities(self):
        rng = np.random.default_rng(0)
        inputs = tuple(TensorMeasure(rng.uniform(size=(3, 2)),
                                     random_psd(rng, 2, n=3)) for _ in range(2))
        support = inputs[0].points
        prob = BarycenterProblem(inputs, np.array([0.5, 0.5]), support,
                                 tuple(euclidean_cost(m.points, support)
                                       for m in inputs))
        cfg = SolverConfig(eps=0.1, rho1=0.4, rho2=3.0)
        _, report = barycenter_solve(prob, cfg)
        assert report.config == replace(cfg, rho2=math.inf)


class TestScalarClosedForm:
    def test_single_pair_fixed_point(self):
        # 1x1, d=1, mu=nu=[2], c=0: the stationarity condition
        # 2 rho log(g/2) + eps log(g) = 0 gives g = 2^(2 rho / (2 rho + eps)).
        eps = 0.01
        mu = scalar_measure([2.0], [[0.0]])
        nu = scalar_measure([2.0], [[0.0]])
        cost = GroundCost(np.zeros((1, 1)))
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
        cost = GroundCost(np.zeros((3, 4)))
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
            gamma = exp_sym(kern(state.u, state.v, cost, cfg.eps))
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
        cost_p = GroundCost(cost.values[perm])
        state_p = DualState(state.u[perm], state.v, state.alpha[perm], state.beta)
        res_p = fixed_point_residual(state_p, mu_p, nu, cost_p, cfg)
        assert np.isclose(res, res_p, atol=1e-13)

    def test_trace_mode_counts_the_multiplier_steps(self):
        # A plain solve's state is not a fixed point of the trace map: its
        # row trace marginals are up to 20 % off, which the multiplier
        # steps eps * |LSTE(K) - log tr mu| must show.
        mu, nu, cost = trace_balanced_instance(np.random.default_rng(1), 6, 7, 3)
        cfg = SolverConfig(eps=0.05, rho1=1.0, rho2=1.0)
        coupling, state, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        row_tr = np.trace(marginal_rows(coupling), axis1=-2, axis2=-1)
        assert np.abs(row_tr / np.trace(mu.tensors, axis1=-2, axis2=-1) - 1.0).max() > 0.1
        assert fixed_point_residual(state, mu, nu, cost, cfg) < 1e-7
        trace_cfg = replace(cfg, trace_constrained=True)
        assert fixed_point_residual(state, mu, nu, cost, trace_cfg) > 1e-3
        _, state, report = sinkhorn_solve(mu, nu, cost, trace_cfg)
        assert report.converged
        assert fixed_point_residual(state, mu, nu, cost, trace_cfg) < 1e-7


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
            k = kern(u, v, cost, cfg.eps)
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

    def test_both_sides_hard_with_unequal_masses_is_noted(self):
        # Equal total traces, but unequal total matrices: infeasible.
        mu, nu, cost = trace_balanced_instance(np.random.default_rng(0), 4, 5, 2)
        cfg = SolverConfig(eps=0.05, rho1=math.inf, rho2=math.inf, max_iter=20)
        _, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        gap = np.abs(mu.tensors.sum(axis=0) - nu.tensors.sum(axis=0)).max()
        assert gap > 1e-3 and not report.certified
        assert [n for n in report.notes if n.startswith("infeasible")] == [
            f"infeasible hard constraints: the total masses differ by "
            f"{gap:.3g} (largest entry of sum_i mu_i - sum_j nu_j)"]

    @pytest.mark.parametrize("trace", [False, True])
    def test_infeasible_hard_constraints_run_no_iteration(self, monkeypatch, trace):
        # The default budget is not spent: the mass check stops the solve
        # before the loop, with a finite state and a non-converged report.
        mu, nu, cost = trace_balanced_instance(np.random.default_rng(0), 4, 5, 2)
        cfg = SolverConfig(eps=0.05, rho1=math.inf, rho2=math.inf,
                           trace_constrained=trace)
        monkeypatch.setattr(solver, "_scale", None)  # never reached
        calls = []
        coupling, state, report = sinkhorn_solve(
            mu, nu, cost, cfg, callback=lambda *a: calls.append(a))
        assert calls == [] and report.iterations == 0
        assert report.residual_history.shape == (0,)
        assert not report.converged and not report.certified
        assert sum(n.startswith("infeasible hard constraints") for n in report.notes) == 1
        assert [n for n in report.notes if n.startswith("not converged")] == [
            "not converged: no iteration run on infeasible hard constraints"]
        assert np.all(state.u == 0.0) and np.all(state.v == 0.0)
        assert np.all(np.isfinite(coupling.entries))


class TestTraceConstrained:
    def test_single_pair_pins_mass(self):
        mu = scalar_measure([2.0], [[0.0]])
        nu = scalar_measure([2.0], [[0.0]])
        cost = GroundCost(np.zeros((1, 1)))
        for rho in (0.5, 1.0, 5.0):
            cfg = SolverConfig(eps=0.05, rho1=rho, rho2=rho, tol=1e-12,
                               trace_constrained=True)
            coupling, _, report = sinkhorn_solve(mu, nu, cost, cfg)
            assert report.converged
            assert np.isclose(coupling.entries[0, 0, 0, 0], 2.0, atol=1e-8)

    def test_marginal_traces_match(self):
        rng = np.random.default_rng(59)
        mu, nu, cost = trace_balanced_instance(rng, 5, 5, 2)
        cfg = SolverConfig(eps=0.05, tol=1e-10, max_iter=30000,
                           trace_constrained=True)
        coupling, _, report = sinkhorn_solve(mu, nu, cost, cfg)
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
        _, state, report = sinkhorn_solve(mu, mu, cost, cfg)
        assert report.converged
        assert np.abs(state.alpha - state.beta).max() < 1e-8

    def test_duality_gap_with_trace_terms(self):
        rng = np.random.default_rng(67)
        mu, nu, cost = trace_balanced_instance(rng, 4, 4, 2)
        cfg = SolverConfig(eps=0.05, tol=1e-11, max_iter=30000,
                           trace_constrained=True)
        _, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        gap = abs(report.primal_value - report.dual_value)
        assert gap / (1.0 + abs(report.primal_value)) < 1e-6

    def test_nonpositive_trace_rejected(self):
        mu = TensorMeasure(np.zeros((1, 1)), np.zeros((1, 1, 1)))
        nu = scalar_measure([1.0], [[0.0]])
        cost = GroundCost(np.zeros((1, 1)))
        cfg = SolverConfig(trace_constrained=True)
        with pytest.raises(ValueError):
            sinkhorn_solve(mu, nu, cost, cfg)

    def test_infeasible_totals_rejected(self):
        mu = scalar_measure([1.0, 1.0])
        nu = scalar_measure([1.0, 2.0])
        cost = GroundCost(np.zeros((2, 2)))
        cfg = SolverConfig(trace_constrained=True)
        with pytest.raises(ValueError, match="infeasible"):
            sinkhorn_solve(mu, nu, cost, cfg)


def _rel(got, want):
    return np.abs(np.asarray(got) - want).max() / np.abs(want).max()


class TestSharedTraceDecomposition:
    # The multiplier steps share their side's kernel-LSE decomposition.  Both
    # references instead rebuild and decompose the full kernel stack at each
    # of the four half-steps of an iteration.
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("rho1,rho2", [(1.0, 1.0), (0.5, math.inf),
                                           (math.inf, 1.0)])
    def test_matches_the_four_eigh_step(self, seed, d, rho1, rho2):
        mu, nu, cost = trace_balanced_instance(np.random.default_rng(seed), 4, 5, d)
        cfg = SolverConfig(eps=0.05, rho1=rho1, rho2=rho2, trace_constrained=True)
        coupling, state, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        ref_coupling, ref_state, ref = trace_solve_full_stack(mu, nu, cost, cfg)
        assert report.iterations == ref.iterations
        assert _rel(coupling.entries, ref_coupling.entries) < 1e-12
        for name in ("u", "v", "alpha", "beta"):
            assert _rel(getattr(state, name), getattr(ref_state, name)) < 1e-12
        assert _rel(report.primal_value, ref.primal_value) < 1e-12
        assert _rel(report.dual_value, ref.dual_value) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("rho1,rho2", [(1.0, 1.0), (0.5, math.inf),
                                           (math.inf, 1.0)])
    def test_same_solution_as_the_old_order(self, seed, d, rho1, rho2):
        # Stepping each multiplier before its side's potential, not after,
        # changes the iteration but not its fixed point.
        mu, nu, cost = trace_balanced_instance(np.random.default_rng(seed), 4, 5, d)
        cfg = SolverConfig(eps=0.05, rho1=rho1, rho2=rho2, trace_constrained=True)
        coupling, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        old_coupling, _, old = trace_solve_four_eigh(mu, nu, cost, cfg)
        assert report.certified and old.certified
        assert _rel(coupling.entries, old_coupling.entries) < 1e-6
        assert _rel(report.primal_value, old.primal_value) < 1e-6
        assert _rel(report.dual_value, old.dual_value) < 1e-12

    def test_kernel_stack_decompositions_per_iteration(self, monkeypatch):
        # One eigh for each side's LSE; the multiplier steps decompose only
        # the d x d LSEs.
        mu, nu, cost = trace_balanced_instance(np.random.default_rng(5), 4, 5, 3)
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counted(a, *args, _name=name, _fn=getattr(np.linalg, name), **kw):
                if np.shape(a)[:2] == (4, 5):
                    calls.append(_name)
                return _fn(a, *args, **kw)
            monkeypatch.setattr(np.linalg, name, counted)
        per_iteration = []

        def callback(it, u, v):
            per_iteration.append((calls.count("eigh"), calls.count("eigvalsh")))
            calls.clear()
        cfg = SolverConfig(eps=0.05, trace_constrained=True)
        _, _, report = sinkhorn_solve(mu, nu, cost, cfg, callback)
        assert report.iterations > 10
        assert per_iteration == [(2, 0)] * report.iterations


class TestKernelStacks:
    # A d = 2 isotropic loop reduces the kernel block by block and builds
    # no stack; the finalisation builds two per certified problem (the
    # coupling's and the dual objective's).  A d = 3 iteration builds two,
    # one per side's LSE, trace-constrained or not: the multiplier steps
    # are read off those LSEs.
    @pytest.fixture
    def stacks(self, monkeypatch):
        # Every stack, the public kernel's and the loops', is written by
        # the private writer.
        shapes = []
        build = qot_cost._kernel

        def counted(*args):
            k = build(*args)
            shapes.append(k.shape)
            return k
        monkeypatch.setattr(qot_cost, "_kernel", counted)
        return shapes

    def test_plain_d2_transport_builds_only_the_finalisation(self, stacks):
        mu, nu, cost = random_instance(np.random.default_rng(7), 5, 6, 2)
        _, _, report = sinkhorn_solve(mu, nu, cost, SolverConfig(eps=0.05))
        assert report.converged and report.iterations > 10
        assert stacks == [(5, 6, 2, 2)] * 2

    def test_d2_barycenter_builds_only_the_finalisation(self, stacks):
        report = _loop_solve("barycenter", SolverConfig(eps=0.05))
        assert report.converged and report.iterations > 10
        assert stacks == [(9, 9, 2, 2)] * 4

    def test_d3_barycenter_iteration_builds_one_stack_per_side(self, stacks):
        # Two inputs of one atom count share each stack; the finalisation
        # then builds two stacks per input.
        rng = np.random.default_rng(3)
        points = grid_points(2)
        inputs = tuple(TensorMeasure(points[:3], random_psd(rng, 3, n=3))
                       for _ in range(2))
        costs = tuple(euclidean_cost(points[:3], points) for _ in inputs)
        prob = BarycenterProblem(inputs, np.array([0.4, 0.6]), points, costs)
        barycenter_solve(prob, SolverConfig(eps=0.05, max_iter=3, tol=1e-300))
        assert stacks == [(2, 3, 4, 3, 3)] * 6 + [(3, 4, 3, 3)] * 4

    def test_d2_trace_transport_builds_only_the_finalisation(self, stacks):
        mu, nu, cost = trace_balanced_instance(np.random.default_rng(5), 4, 5, 2)
        cfg = SolverConfig(eps=0.05, trace_constrained=True)
        _, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged and report.iterations > 10
        assert stacks == [(4, 5, 2, 2)] * 2

    @pytest.mark.parametrize("trace", [False, True])
    def test_d3_iteration_builds_two(self, stacks, trace):
        mu, nu, cost = trace_balanced_instance(np.random.default_rng(5), 4, 5, 3)
        cfg = SolverConfig(eps=0.05, trace_constrained=trace, max_iter=6,
                           tol=1e-300)
        per_iteration = []

        def callback(it, u, v):
            per_iteration.append(len(stacks))
            stacks.clear()
        sinkhorn_solve(mu, nu, cost, cfg, callback)
        assert per_iteration == [2] * 6
        assert stacks == [(4, 5, 3, 3)] * 2


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


class TestValidation:
    def test_dimension_mismatch(self):
        mu = scalar_measure([1.0], [[0.0]])
        nu = TensorMeasure(np.zeros((1, 1)), np.eye(2)[None])
        cost = GroundCost(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            sinkhorn_solve(mu, nu, cost, SolverConfig())

    def test_cost_shape_mismatch(self):
        mu = scalar_measure([1.0, 2.0])
        nu = scalar_measure([1.0])
        cost = GroundCost(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            sinkhorn_solve(mu, nu, cost, SolverConfig())

    def test_dual_state_checked_against_the_cost(self):
        # The public entry points reject a state that does not fit the
        # problem; an alpha of length 1 would otherwise broadcast over the
        # four rows.
        mu, nu, cost = trace_balanced_instance(np.random.default_rng(3), 4, 5, 2)
        good = DualState.zeros(4, 5, 2)
        cfg = SolverConfig(eps=0.1, trace_constrained=True)
        bad = [(replace(good, u=good.u[:3], alpha=good.alpha[:3]), "cost is 4x5"),
               (replace(good, v=good.v[:1], beta=good.beta[:1]), "cost is 4x5"),
               (replace(good, alpha=np.zeros(1)), "multipliers"),
               (replace(good, beta=np.zeros(6)), "multipliers")]
        for entry in (dual_objective, fixed_point_residual):
            for state, message in bad:
                with pytest.raises(ValueError, match=message):
                    entry(state, mu, nu, cost, cfg)
            assert math.isfinite(entry(good, mu, nu, cost, cfg))


class TestReportNotes:
    def test_certified_is_converged_with_finite_objectives(self):
        mu = heavy_line_measure()
        cost = euclidean_cost(mu.points, mu.points, alpha=2.0)
        report = sinkhorn_solve(mu, mu, cost, SolverConfig())[2]
        assert report.converged and not report.certified
        mu, nu, cost = random_instance(np.random.default_rng(3), 3, 4, 2)
        assert sinkhorn_solve(mu, nu, cost, SolverConfig(eps=0.1))[2].certified
        assert not sinkhorn_solve(mu, nu, cost,
                                  SolverConfig(eps=0.1, max_iter=2))[2].certified

    def test_non_finite_primal_is_noted(self):
        # Masses of 1e305 make the coupling's entropy overflow.
        mu = heavy_line_measure()
        cost = euclidean_cost(mu.points, mu.points, alpha=2.0)
        _, _, report = sinkhorn_solve(mu, mu, cost, SolverConfig())
        assert report.converged
        assert report.primal_value == math.inf
        assert report.notes == ("primal_value is not finite (inf)",)

    def test_overflowing_dual_is_noted(self):
        # One step between atoms 30 apart leaves u + log mu with an
        # eigenvalue of about 1,254, whose exponential overflows.
        mu = TensorMeasure(np.zeros((1, 2)), np.eye(2)[None])
        nu = TensorMeasure(np.array([[30.0, 0.0]]), np.eye(2)[None])
        cost = euclidean_cost(mu.points, nu.points, alpha=2.0)
        _, _, report = sinkhorn_solve(mu, nu, cost,
                                      SolverConfig(eps=0.01, max_iter=1))
        assert not report.converged
        assert report.dual_value == -math.inf
        assert "dual_value is not finite (-inf)" in report.notes

    def test_finite_objectives_add_no_note(self):
        mu, nu, cost = random_instance(np.random.default_rng(3), 3, 4, 2)
        _, _, report = sinkhorn_solve(mu, nu, cost, SolverConfig(eps=0.1))
        assert math.isfinite(report.primal_value)
        assert math.isfinite(report.dual_value)
        assert report.notes == ()


def _plain(cfg):
    """``cfg`` with its default relaxations written out: the same relaxed
    iteration, run without acceleration."""
    return replace(cfg, tau1=cfg.tau(1), tau2=cfg.tau(2))


_ANDERSON_NOTE = re.compile(
    r"anderson: engaged at iteration (\d+), (\d+) accepted, (\d+) restarted")


def _anderson_counts(report):
    notes = [m for m in map(_ANDERSON_NOTE.fullmatch, report.notes) if m]
    assert len(notes) == 1, report.notes
    return tuple(int(g) for g in notes[0].groups())


def _slow_trace_instance():
    """Random 5x5-grid fields of 3x3 tensors with equal total traces: at
    eps = 0.02 the plain trace-constrained iteration contracts slowly."""
    rng = np.random.default_rng(1)
    points = grid_points(5)
    mu_t = random_psd(rng, 3, n=25)
    nu_t = random_psd(rng, 3, n=25)
    nu_t = nu_t * (np.trace(mu_t, axis1=-2, axis2=-1).sum()
                   / np.trace(nu_t, axis1=-2, axis2=-1).sum())
    mu, nu = TensorMeasure(points, mu_t), TensorMeasure(points, nu_t)
    return mu, nu, euclidean_cost(points, points, alpha=2.0)


class TestAnderson:
    def test_unengaged_solve_is_the_plain_iteration(self):
        mu, nu, cost = random_instance(np.random.default_rng(3), 3, 4, 2)
        cfg = SolverConfig(eps=0.1)
        runs = [sinkhorn_solve(mu, nu, cost, c) for c in (cfg, _plain(cfg))]
        (g_a, s_a, r_a), (g_b, s_b, r_b) = runs
        assert np.array_equal(g_a.entries, g_b.entries)
        for name in ("u", "v", "alpha", "beta"):
            assert np.array_equal(getattr(s_a, name), getattr(s_b, name))
        assert r_a.iterations == r_b.iterations
        assert np.array_equal(r_a.residual_history, r_b.residual_history)
        assert (r_a.primal_value, r_a.dual_value) == (r_b.primal_value, r_b.dual_value)
        assert r_a.notes == r_b.notes == ()

    def test_slow_trace_constrained_solve(self):
        mu, nu, cost = _slow_trace_instance()
        cfg = SolverConfig(eps=0.02, trace_constrained=True)
        coupling, state, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        engaged, accepted, restarted = _anderson_counts(report)
        # Every evaluation after the first engagement is an extrapolated
        # point (accepted or rejected) or a plain step after a rejection;
        # the last one passes the stopping test and is not judged.
        assert accepted > 0
        assert engaged + accepted + restarted <= report.iterations - 1
        # The plain iteration is not done in twice the evaluations.
        _, _, plain = sinkhorn_solve(
            mu, nu, cost, replace(_plain(cfg), max_iter=2 * report.iterations))
        assert not plain.converged
        gap = abs(report.primal_value - report.dual_value) / abs(report.dual_value)
        assert gap < 1e-6
        assert fixed_point_residual(state, mu, nu, cost, cfg) < 1e-7
        again, state2, report2 = sinkhorn_solve(mu, nu, cost, cfg)
        assert np.array_equal(coupling.entries, again.entries)
        assert np.array_equal(state.alpha, state2.alpha)
        assert np.array_equal(report.residual_history, report2.residual_history)
        assert report.notes == report2.notes

    def test_rejected_points_fall_back_to_the_accepted_image(self):
        # At eps = 1e-3 extrapolated points are often rejected here; each
        # rejection resumes from the last accepted point's image, so the
        # solve still converges, in fewer evaluations than the plain one
        # (continuing from the rejected point instead never converged).
        mu, nu, cost = random_instance(np.random.default_rng(2), 6, 2, 2)
        cfg = SolverConfig(eps=1e-3)
        _, _, report = sinkhorn_solve(mu, nu, cost, cfg)
        assert report.converged
        _, accepted, restarted = _anderson_counts(report)
        assert accepted > 0 and restarted > 0
        gap = abs(report.primal_value - report.dual_value) / abs(report.dual_value)
        assert gap < 1e-6
        _, _, plain = sinkhorn_solve(
            mu, nu, cost, replace(_plain(cfg), max_iter=report.iterations))
        assert not plain.converged

    def test_small_eps_accelerated_solve_stays_finite(self):
        # At eps = 1e-4 the path follows round-off after a few iterations,
        # but on this instance the extrapolation engages at iteration 25,
        # before it does, and then restarts often; every iterate stays finite.
        mu, nu, cost = random_instance(np.random.default_rng(1), 6, 6, 2)
        cfg = SolverConfig(eps=1e-4, max_iter=1000)
        coupling, state, report = sinkhorn_solve(mu, nu, cost, cfg)
        _, accepted, restarted = _anderson_counts(report)
        assert accepted > 0 and restarted > 0
        assert np.all(np.isfinite(coupling.entries))
        assert np.all(np.isfinite(state.u)) and np.all(np.isfinite(state.v))
        assert np.all(np.isfinite(report.residual_history))


class TestSingularTensors:
    def test_zero_tensor_keeps_a_finite_certificate(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0]])
        mu = TensorMeasure(points, np.stack([np.eye(2), np.zeros((2, 2))]))
        nu = TensorMeasure(points, np.stack([np.eye(2), np.eye(2)]))
        cost = euclidean_cost(points, points, alpha=2.0)
        coupling, _, report = sinkhorn_solve(mu, nu, cost, SolverConfig())
        assert report.converged
        assert len(report.notes) == 1
        assert report.notes[0].startswith("coupling restricted to the ranges")
        gap = abs(report.primal_value - report.dual_value) / abs(report.dual_value)
        assert gap < 1e-6
        assert np.all(coupling.entries[1] == 0.0)

    def test_misaligned_ranks_keep_the_escape(self):
        # Rank-one tensors along different directions: under the loop's
        # log floor real mass (about 1e-2 of the trace) leaves the ranges,
        # so the coupling is not restricted and the primal stays +inf.
        e = np.array([[1.0, 0.0], [0.0, 0.0]])
        points = np.array([[0.0, 0.0], [0.5, 0.0]])
        mu = TensorMeasure(points, np.stack([e, np.eye(2)]))
        nu = TensorMeasure(points, np.stack([oriented_tensor(0.7, 1.0, 0.0), e]))
        cost = euclidean_cost(points, points, alpha=2.0)
        _, _, report = sinkhorn_solve(mu, nu, cost, SolverConfig(eps=0.05))
        assert report.converged
        assert report.primal_value == math.inf
        assert report.notes == ("primal_value is not finite (inf)",)


def _loop_solve(kind, cfg):
    """A small plain, trace-constrained or barycenter solve; its report."""
    rng = np.random.default_rng(0)
    if kind == "barycenter":
        points = grid_points(3)
        inputs = tuple(TensorMeasure(points, random_psd(rng, 2, n=9))
                       for _ in range(2))
        costs = tuple(euclidean_cost(points, points) for _ in inputs)
        prob = BarycenterProblem(inputs, np.array([0.3, 0.7]), points, costs)
        return barycenter_solve(prob, cfg)[1]
    mu, nu, cost = trace_balanced_instance(rng, 3, 4, 2)
    cfg = replace(cfg, trace_constrained=kind == "trace")
    return sinkhorn_solve(mu, nu, cost, cfg)[2]


@pytest.mark.parametrize("kind", ["plain", "trace", "barycenter"])
@pytest.mark.parametrize("cfg,converges", [
    (SolverConfig(), True),
    (SolverConfig(max_iter=30, tol=2e-4), False),
], ids=["converged", "max_iter"])
def test_one_scaling_loop(monkeypatch, kind, cfg, converges):
    # Every solver runs the one loop: its report's history is what the
    # stopping test read, and the accelerator it built notes engagement.
    made = []
    anderson = solver._Anderson
    monkeypatch.setattr(solver, "_Anderson",
                        lambda c: made.append(anderson(c)) or made[-1])
    report = _loop_solve(kind, cfg)
    assert report.converged == converges
    if not converges:
        assert report.iterations == cfg.max_iter
    assert len(report.residual_history) == report.iterations
    assert report.converged == (report.residual_history[-1] < cfg.tol)
    assert len(made) == 1
    noted = [n for n in report.notes if n.startswith("anderson:")]
    assert len(noted) == (made[0].engaged_at is not None)


def _kernel_lse_case(rng, rows, cols, d=2):
    """Random symmetric potentials, multipliers and a cost."""
    def sym(n):
        a = rng.standard_normal((n, d, d))
        return a + np.swapaxes(a, -1, -2)
    cost = GroundCost(rng.uniform(0.0, 2.0, size=(rows, cols)))
    return (sym(rows), sym(cols), rng.standard_normal(rows),
            rng.standard_normal(cols), cost)


class TestKernelLse:
    # (rows, cols): single rows and columns, kept axes the block does not
    # divide, and reduced axes longer than the block (a row per block for
    # axis 1, two columns per block for axis 0, the odd last one merged).
    SHAPES = [(1, 7), (7, 1), (1, 1), (130, 163), (163, 130), (256, 256),
              (3, qot_cost._LSE_BLOCK + 9), (qot_cost._LSE_BLOCK + 9, 5)]

    @pytest.mark.parametrize("rows,cols", SHAPES)
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("cfg", [
        SolverConfig(eps=0.05, rho1=0.7, rho2=1.3),
        SolverConfig(eps=0.05, rho1=math.inf, rho2=math.inf),
        SolverConfig(eps=0.3, rho2=math.inf, trace_constrained=True),
    ], ids=["finite", "hard", "trace"])
    def test_bit_identical_to_the_kernel_stack(self, monkeypatch, rows, cols,
                                               axis, cfg):
        rng = np.random.default_rng(rows * cols + axis)
        u, v, alpha, beta, cost = _kernel_lse_case(rng, rows, cols)
        terms = solver._kernel_terms(u, v, alpha, beta, cfg)
        want = qot_cost.lse_reduce(qot_cost.kernel(*terms, cost, cfg.eps),
                                   axis=axis)
        monkeypatch.setattr(qot_cost, "lse_reduce", None)  # never reached
        got = qot_cost._kernel_lse(*terms, cost.values, cfg.eps, axis)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("rows,cols", SHAPES)
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("cfg", [
        SolverConfig(eps=0.05, rho1=0.7, rho2=1.3),
        SolverConfig(eps=0.3, rho2=math.inf, trace_constrained=True),
    ], ids=["finite", "trace"])
    def test_batch_bit_identical_to_each_kernel_stack(self, monkeypatch, rows,
                                                      cols, axis, cfg):
        # A leading axis of 3 problems is reduced as each problem alone.
        rng = np.random.default_rng(rows * cols + axis)
        cases = [_kernel_lse_case(rng, rows, cols) for _ in range(3)]
        terms = [solver._kernel_terms(*case[:4], cfg) for case in cases]
        want = np.stack([
            qot_cost.lse_reduce(qot_cost.kernel(*t, case[4], cfg.eps), axis=axis)
            for t, case in zip(terms, cases)])
        monkeypatch.setattr(qot_cost, "lse_reduce", None)  # never reached
        got = qot_cost._kernel_lse(
            *(np.stack(side) for side in zip(*terms)),
            np.stack([case[4].values for case in cases]), cfg.eps, axis)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [3], ids=["3-isotropic"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_other_cases_reduce_the_kernel_stack(self, monkeypatch, d, axis):
        rng = np.random.default_rng(d)
        u, v, alpha, beta, cost = _kernel_lse_case(rng, 4, 5, d)
        cfg = SolverConfig(eps=0.1, trace_constrained=True)
        terms = solver._kernel_terms(u, v, alpha, beta, cfg)
        reduced = []
        lse_reduce = qot_cost.lse_reduce
        monkeypatch.setattr(qot_cost, "lse_reduce", lambda k, axis: (
            reduced.append(k.shape) or lse_reduce(k, axis=axis)))
        got = qot_cost._kernel_lse(*terms, cost.values, cfg.eps, axis)
        assert reduced == [(4, 5, d, d)]
        want = lse_reduce(qot_cost.kernel(*terms, cost, cfg.eps), axis=axis)
        assert np.array_equal(got, want)
