"""Unit tests for the barycenter solver and its helpers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import barycenter_loop, grid_points, random_measure, random_psd

import qot.barycenter as qot_barycenter

from qot.barycenter import (
    BarycenterProblem,
    barycenter_solve,
    bilinear_weights,
    pointwise_barycenter,
)
from qot.cost import GroundCost, euclidean_cost
from qot.measure import TensorMeasure, marginal_cols
from qot.solver import SolverConfig, sinkhorn_solve


def make_problem(inputs, weights, support, rho=1.0, alpha=2.0):
    costs = tuple(
        euclidean_cost(m.points, support, alpha=alpha) for m in inputs
    )
    return BarycenterProblem(tuple(inputs), np.asarray(weights), support, costs, rho)


class TestBilinearWeights:
    @pytest.mark.parametrize(
        "t1,t2,expected",
        [
            (0.0, 0.0, (1.0, 0.0, 0.0, 0.0)),
            (0.5, 0.5, (0.25, 0.25, 0.25, 0.25)),
            (1.0, 0.0, (0.0, 0.0, 1.0, 0.0)),
        ],
    )
    def test_corners_and_center(self, t1, t2, expected):
        assert bilinear_weights(t1, t2) == expected

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = bilinear_weights(rng.uniform(), rng.uniform())
            assert abs(sum(w) - 1.0) < 1e-15

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bilinear_weights(1.5, 0.0)


class TestPointwiseBarycenter:
    def test_single_input_identity(self):
        rng = np.random.default_rng(1)
        p = random_psd(rng, 2)
        out = pointwise_barycenter(p[None], [1.0], energy=0.0, rho=1.0)
        assert np.abs(out - p).max() < 1e-10

    def test_geometric_mean_of_scaled_identities(self):
        out = pointwise_barycenter(
            np.stack([np.eye(2), 4.0 * np.eye(2)]), [0.5, 0.5], 0.0, 1.0
        )
        assert np.allclose(out, 2.0 * np.eye(2), atol=1e-12)

    def test_energy_scale_factor(self):
        out = pointwise_barycenter(np.eye(2)[None], [1.0], energy=1.0, rho=1.0)
        assert np.allclose(out, math.exp(-1.0) * np.eye(2), atol=1e-14)

    def test_nan_energy_rejected(self):
        # ``energy < 0`` is false for NaN, which would give an all-NaN result.
        with pytest.raises(ValueError, match="energy must be >= 0"):
            pointwise_barycenter(np.eye(2)[None], [1.0], math.nan, 1.0)

    @pytest.mark.parametrize("bad, message", [
        ([[1.0, 2.0], [0.0, 1.0]], "non-symmetric matrix"),
        ([[1.0, math.nan], [math.nan, 1.0]], "non-finite entry"),
    ])
    def test_tensors_go_through_the_symmetry_check(self, bad, message):
        with pytest.raises(ValueError, match=message):
            pointwise_barycenter(np.stack([bad, np.eye(2)]), [0.5, 0.5], 0.0, 1.0)

    def test_infinite_rho_rejected(self):
        # ``-inf / inf`` is NaN, which would give an all-NaN result.
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            pointwise_barycenter(np.eye(2)[None], [1.0], energy=math.inf,
                                 rho=math.inf)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            pointwise_barycenter(np.eye(2)[None], [0.5], 0.0, 1.0)
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            pointwise_barycenter(np.stack([np.eye(2)] * 2), [math.nan, 1.0],
                                 0.0, 1.0)


class TestBarycenterProblem:
    def test_weight_sum_validation(self):
        rng = np.random.default_rng(2)
        m = random_measure(rng, 3, 2)
        support = m.points
        with pytest.raises(ValueError):
            make_problem([m, m], [0.6, 0.6], support)
        with pytest.raises(ValueError, match="weights must be nonnegative"):
            make_problem([m, m], [math.nan, 1.0], support)

    def test_empty_input_rejected_by_index(self):
        rng = np.random.default_rng(4)
        m = random_measure(rng, 3, 2)
        empty = TensorMeasure(np.empty((0, 2)), np.empty((0, 2, 2)))
        with pytest.raises(ValueError, match="input 1: .*at least one atom"):
            make_problem([m, empty], [0.5, 0.5], m.points)

    def test_cost_shape_validation(self):
        rng = np.random.default_rng(3)
        m = random_measure(rng, 3, 2)
        bad_cost = GroundCost("isotropic", np.zeros((2, 3)))
        with pytest.raises(ValueError, match="input 0: cost is 2x3"):
            BarycenterProblem((m,), np.array([1.0]), m.points, (bad_cost,), 1.0)

    def test_matrix_cost_dimension_checked_by_index(self):
        # A (I, J, 1, 1) cost against 2x2 inputs would broadcast onto every
        # kernel entry; the transport's shape check rejects it.
        rng = np.random.default_rng(3)
        m = random_measure(rng, 3, 2)
        good = euclidean_cost(m.points, m.points)
        bad = GroundCost("matrix", np.zeros((3, 3, 1, 1)))
        with pytest.raises(ValueError,
                           match="input 1: matrix cost dimension does not match"):
            BarycenterProblem((m, m), np.array([0.5, 0.5]), m.points, (good, bad))

    def test_input_tensor_dimension_checked_by_index(self):
        rng = np.random.default_rng(3)
        m2, m3 = random_measure(rng, 3, 2), random_measure(rng, 3, 3)
        with pytest.raises(ValueError, match="input 1: tensor dimensions differ"):
            make_problem([m2, m3], [0.5, 0.5], m2.points)

    @pytest.mark.parametrize("support, message", [
        ([[0.0, math.nan], [1.0, 0.0]], "support: points must be finite"),
        ([0.0, 1.0], r"support: points must be \(n, ambient_dim\)"),
        (np.empty((0, 2)), "support must have at least one point"),
    ])
    def test_support_checked_as_a_measure(self, support, message):
        rng = np.random.default_rng(3)
        m = random_measure(rng, 3, 2)
        cost = GroundCost("isotropic", np.zeros((3, len(support))))
        with pytest.raises(ValueError, match=message):
            BarycenterProblem((m,), np.array([1.0]), support, (cost,))

    def test_scalar_support_reports_its_shape(self):
        m = random_measure(np.random.default_rng(3), 3, 2)
        cost = GroundCost("isotropic", np.zeros((3, 1)))
        with pytest.raises(ValueError, match=r"support: points must be "
                                             r"\(n, ambient_dim\), got \(\)"):
            BarycenterProblem((m,), np.array([1.0]), 3.0, (cost,))

    def test_default_rho_is_the_solver_default(self):
        rng = np.random.default_rng(3)
        m = random_measure(rng, 3, 2)
        prob = BarycenterProblem((m,), np.array([1.0]), m.points,
                                 (euclidean_cost(m.points, m.points),))
        assert prob.rho == SolverConfig().rho1


class TestBarycenterSolve:
    def test_single_input_matches_hard_marginal_transport(self):
        rng = np.random.default_rng(5)
        m = random_measure(rng, 6, 2)
        support = rng.uniform(size=(5, 2))
        prob = make_problem([m], [1.0], support, rho=1.0)
        cfg = SolverConfig(eps=0.05, tol=1e-11, max_iter=30000)
        nu, report = barycenter_solve(prob, cfg)
        assert report.converged

        # cross-check: transporting m onto the result with a hard column
        # constraint must reproduce the result as its column marginal
        solve_cfg = SolverConfig(eps=0.05, rho1=1.0, rho2=math.inf,
                                 tol=1e-11, max_iter=30000)
        cost = euclidean_cost(m.points, support, alpha=2.0)
        coupling, _, rep2 = sinkhorn_solve(m, nu, cost, solve_cfg)
        assert rep2.converged
        assert np.abs(marginal_cols(coupling) - nu.tensors).max() < 1e-8

    def test_identical_inputs_match_single_input(self):
        rng = np.random.default_rng(7)
        m = random_measure(rng, 5, 2)
        support = rng.uniform(size=(4, 2))
        cfg = SolverConfig(eps=0.05, tol=1e-11, max_iter=30000)
        nu1, _ = barycenter_solve(make_problem([m], [1.0], support), cfg)
        nu3, _ = barycenter_solve(
            make_problem([m, m, m], [1.0 / 3.0] * 3, support), cfg
        )
        assert np.abs(nu1.tensors - nu3.tensors).max() < 1e-8

    def test_weighted_dual_certificate(self):
        rng = np.random.default_rng(9)
        inputs = [random_measure(rng, 5, 2) for _ in range(3)]
        support = rng.uniform(size=(4, 2))
        prob = make_problem(inputs, [0.5, 0.3, 0.2], support)
        cfg = SolverConfig(eps=0.05, tol=1e-10, max_iter=30000)
        _, report = barycenter_solve(prob, cfg)
        assert report.converged
        weighted = sum(
            w * state.v
            for w, state in zip(prob.weights, report.dual_states)
        )
        assert np.abs(weighted).max() < 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        inputs = [random_measure(rng, 4, 2) for _ in range(3)]
        support = rng.uniform(size=(4, 2))
        weights = [0.5, 0.3, 0.2]
        cfg = SolverConfig(eps=0.05, tol=1e-10, max_iter=20000)
        nu_a, _ = barycenter_solve(make_problem(inputs, weights, support), cfg)
        perm = [2, 0, 1]
        nu_b, _ = barycenter_solve(
            make_problem([inputs[i] for i in perm],
                         [weights[i] for i in perm], support),
            cfg,
        )
        assert np.abs(nu_a.tensors - nu_b.tensors).max() < 1e-10

    def test_result_tensors_positive_definite(self):
        rng = np.random.default_rng(13)
        inputs = [random_measure(rng, 4, 2) for _ in range(2)]
        support = rng.uniform(size=(3, 2))
        cfg = SolverConfig(eps=0.05, tol=1e-9, max_iter=20000)
        nu, _ = barycenter_solve(make_problem(inputs, [0.5, 0.5], support), cfg)
        assert np.linalg.eigvalsh(nu.tensors).min() > 0.0

    def test_unconverged_solve_caps_the_exponentials(self):
        # Inputs far from the support at small eps: after five iterations
        # the barycenter's log-tensors have eigenvalues in the thousands.
        a = TensorMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]),
                          np.stack([np.eye(2), 2.0 * np.eye(2)]))
        b = TensorMeasure(np.array([[10.0, 0.0], [11.0, 0.0]]),
                          np.stack([np.eye(2), np.diag([3.0, 0.1])]))
        support = np.array([[5.0, 0.0], [6.0, 0.0]])
        prob = make_problem([a, b], [0.5, 0.5], support, rho=0.1)
        nu, report = barycenter_solve(prob, SolverConfig(eps=1e-3, max_iter=5))
        assert not report.converged
        assert np.all(np.isfinite(nu.tensors))
        assert any(n.startswith("barycenter saturated") for n in report.notes)
        assert any(n.startswith("coupling saturated") for n in report.notes)
        # The uncapped kernel eigenvalues overflow the dual's exponentials.
        assert report.dual_value == -math.inf
        assert "dual_value is not finite (-inf)" in report.notes

    def test_colocated_diracs_match_pointwise_formula(self):
        rng = np.random.default_rng(15)
        point = np.array([[0.25, 0.75]])
        tensors = random_psd(rng, 2, n=3)
        inputs = [TensorMeasure(point, t[None]) for t in tensors]
        weights = np.array([0.2, 0.5, 0.3])
        prob = make_problem(list(inputs), weights, point, rho=1.0)
        cfg = SolverConfig(eps=1e-3, tol=1e-10, max_iter=40000)
        nu, report = barycenter_solve(prob, cfg)
        expected = pointwise_barycenter(tensors, weights, energy=0.0, rho=1.0)
        rel = np.linalg.norm(nu.tensors[0] - expected) / np.linalg.norm(expected)
        assert rel < 0.05


class TestAcceleratedBarycenter:
    def test_rho_one_barycenter_in_under_half_the_iterations(self):
        # At rho = 1 the plain barycenter iteration converges only through
        # a slowly contracting mode; the default config extrapolates it.
        rng = np.random.default_rng(0)
        points = grid_points(3)
        inputs = [TensorMeasure(points, random_psd(rng, 2, n=9)) for _ in range(4)]
        prob = make_problem(inputs, [0.1, 0.2, 0.3, 0.4], points, rho=1.0)
        cfg = SolverConfig(tol=1e-11)
        used = replace(cfg, rho1=prob.rho, rho2=math.inf)
        plain = replace(cfg, tau1=used.tau(1), tau2=used.tau(2))
        nu_plain, report_plain = barycenter_solve(prob, plain)
        nu, report = barycenter_solve(prob, cfg)
        assert report_plain.converged and report.converged
        assert not any(n.startswith("anderson") for n in report_plain.notes)
        assert sum(n.startswith("anderson: engaged") for n in report.notes) == 1
        assert 2 * report.iterations < report_plain.iterations
        assert np.abs(nu.tensors - nu_plain.tensors).max() < 1e-8


def _assert_same_solve(got, want):
    """Bit-for-bit equal barycenters, residual histories, objective values,
    notes and dual states."""
    (nu, report), (nu_ref, report_ref) = got, want
    assert nu.tensors.tobytes() == nu_ref.tensors.tobytes()
    assert (report.residual_history.tobytes()
            == report_ref.residual_history.tobytes())
    assert (report.primal_value, report.dual_value, report.notes) == (
        report_ref.primal_value, report_ref.dual_value, report_ref.notes)
    assert len(report.dual_states) == len(report_ref.dual_states)
    for state, ref in zip(report.dual_states, report_ref.dual_states):
        for name in ("u", "v", "alpha", "beta"):
            a, b = getattr(state, name), getattr(ref, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackedMap:
    # The map runs over stacked inputs, one group per atom count and cost
    # kind; it is the per-input map it replaced, bit for bit.
    def test_accelerated_grid_barycenter_is_the_per_input_map(self):
        rng = np.random.default_rng(0)
        points = grid_points(3)
        inputs = [TensorMeasure(points, random_psd(rng, 2, n=9)) for _ in range(4)]
        prob = make_problem(inputs, [0.1, 0.2, 0.3, 0.4], points, rho=1.0)
        cfg = SolverConfig(tol=1e-11)
        got = barycenter_solve(prob, cfg)
        assert sum(n.startswith("anderson: engaged") for n in got[1].notes) == 1
        _assert_same_solve(got, barycenter_loop(prob, cfg))

    @pytest.mark.parametrize("d", [2, 3])
    def test_ragged_mixed_kind_barycenter_is_the_per_input_map(self, monkeypatch,
                                                               d):
        # Inputs 0 and 2 share 4 atoms and an isotropic cost; input 1 has
        # 5 atoms and a matrix cost: two groups, the first not contiguous.
        rng = np.random.default_rng(11)
        support = grid_points(2)
        inputs = [random_measure(rng, n, d) for n in (4, 5, 4)]
        costs = [euclidean_cost(m.points, support) for m in inputs]
        aniso = random_psd(rng, d)
        costs[1] = GroundCost("matrix", costs[1].values[..., None, None] * aniso)
        prob = BarycenterProblem(tuple(inputs), np.array([0.5, 0.2, 0.3]),
                                 support, tuple(costs), 0.7)
        cfg = SolverConfig(eps=0.05, tau1=0.1, tau2=1.5, tol=1e-10)
        calls = []
        kernel_lse = qot_barycenter._kernel_lse
        monkeypatch.setattr(qot_barycenter, "_kernel_lse", lambda *args: (
            calls.append(args[0].shape[0]) or kernel_lse(*args)))
        got = barycenter_solve(prob, cfg)
        assert got[1].converged
        assert calls == [2, 2, 1, 1] * got[1].iterations
        _assert_same_solve(got, barycenter_loop(prob, cfg))
