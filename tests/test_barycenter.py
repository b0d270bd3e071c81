"""Unit tests for the barycenter solver and its helpers."""

import math

import numpy as np
import pytest

from helpers import random_measure, random_psd

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

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            pointwise_barycenter(np.eye(2)[None], [0.5], 0.0, 1.0)


class TestBarycenterProblem:
    def test_weight_sum_validation(self):
        rng = np.random.default_rng(2)
        m = random_measure(rng, 3, 2)
        support = m.points
        with pytest.raises(ValueError):
            make_problem([m, m], [0.6, 0.6], support)

    def test_cost_shape_validation(self):
        rng = np.random.default_rng(3)
        m = random_measure(rng, 3, 2)
        bad_cost = GroundCost("isotropic", np.zeros((2, 3)))
        with pytest.raises(ValueError):
            BarycenterProblem((m,), np.array([1.0]), m.points, (bad_cost,), 1.0)


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
