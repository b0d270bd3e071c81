"""Unit tests for ground costs and dual kernel maps."""

import numpy as np
import pytest

from qot.cost import (
    GroundCost,
    euclidean_cost,
    from_distance_matrix,
    kernel,
)
from qot.solver import SolverConfig, _kernel_terms
from qot.sym import exp_sym


class TestEuclideanCost:
    def test_same_point(self):
        c = euclidean_cost([(0.0, 0.0)], [(0.0, 0.0)], alpha=2.0)
        assert c.values[0, 0] == 0.0

    def test_three_four_five(self):
        c = euclidean_cost([(0.0, 0.0)], [(3.0, 4.0)], alpha=2.0)
        assert np.isclose(c.values[0, 0], 25.0)
        c1 = euclidean_cost([(0.0, 0.0)], [(3.0, 4.0)], alpha=1.0)
        assert np.isclose(c1.values[0, 0], 5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_cost([(0.0, 0.0)], [(1.0,)], alpha=2.0)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            euclidean_cost([(0.0,)], [(1.0,)], alpha=0.0)

    def test_nan_alpha_names_alpha(self):
        with pytest.raises(ValueError, match="alpha must be > 0"):
            euclidean_cost([(0.0,)], [(1.0,)], alpha=float("nan"))


class TestDistanceMatrixCost:
    def test_zero_matrix(self):
        c = from_distance_matrix(np.zeros((2, 3)), alpha=2.0)
        assert np.all(c.values == 0.0)

    def test_power(self):
        c = from_distance_matrix([[2.0]], alpha=2.0)
        assert np.isclose(c.values[0, 0], 4.0)

    def test_symmetric_square_stays_symmetric(self):
        dist = np.array([[0.0, 1.0], [1.0, 0.0]])
        c = from_distance_matrix(dist, alpha=1.5)
        assert np.allclose(c.values, c.values.T)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="distance entries must be finite and >= 0"):
            from_distance_matrix([[-1.0]], alpha=1.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan")])
    def test_alpha_must_be_positive(self, alpha):
        with pytest.raises(ValueError, match="alpha must be > 0"):
            from_distance_matrix([[1.0]], alpha=alpha)

    # A cost is (I, J): the (I, J, d, d) layout of a per-pair matrix cost
    # is refused.
    @pytest.mark.parametrize("values,match", [
        ([[0.5, -1.0]], "isotropic cost values must be finite and >= 0"),
        ([[0.5, float("nan")]], "isotropic cost values must be finite and >= 0"),
        ([[0.5, float("inf")]], "isotropic cost values must be finite and >= 0"),
        (np.zeros((2, 3, 2, 2)), r"must be \(I, J\), got \(2, 3, 2, 2\)"),
    ], ids=["-1.0", "nan", "inf", "matrix-layout"])
    def test_isotropic_cost_values_follow_the_same_rule(self, values, match):
        with pytest.raises(ValueError, match=match):
            GroundCost(values)


class TestKernel:
    def test_all_zero(self):
        cost = GroundCost(np.zeros((2, 3)))
        k = kernel(np.zeros((2, 2, 2)), np.zeros((3, 2, 2)), cost, 1.0)
        assert k.shape == (2, 3, 2, 2)
        assert np.all(k == 0.0)

    def test_arithmetic(self):
        cost = GroundCost(np.ones((1, 1)))
        rows = np.eye(2)[None]
        cols = np.zeros((1, 2, 2))
        k = kernel(rows, cols, cost, eps=1.0)
        assert np.allclose(k[0, 0], -2.0 * np.eye(2))

    def test_eps_scaling(self):
        rng = np.random.default_rng(0)
        cost = GroundCost(rng.uniform(size=(2, 2)))
        u = rng.standard_normal((2, 2, 2))
        u = 0.5 * (u + np.swapaxes(u, -1, -2))
        v = rng.standard_normal((2, 2, 2))
        v = 0.5 * (v + np.swapaxes(v, -1, -2))
        k1 = kernel(u, v, cost, 0.5)
        k2 = kernel(u, v, cost, 1.0)
        assert np.allclose(k1, 2.0 * k2)

    def test_kernel_entries_symmetric_and_exp_pd(self):
        rng = np.random.default_rng(1)
        cost = GroundCost(rng.uniform(size=(3, 4)))
        u = 0.3 * rng.standard_normal((3, 2, 2))
        u = 0.5 * (u + np.swapaxes(u, -1, -2))
        v = 0.3 * rng.standard_normal((4, 2, 2))
        v = 0.5 * (v + np.swapaxes(v, -1, -2))
        k = kernel(u, 2.0 * v, cost, 0.5)
        assert np.allclose(k, np.swapaxes(k, -1, -2))
        vals = np.linalg.eigvalsh(exp_sym(k).reshape(-1, 2, 2))
        # PD up to the relative round-off bound of a spectral reconstruction
        assert np.all(vals[:, 0] >= -1e-12 * (1.0 + vals[:, -1]))

    def test_isotropic_inputs_stay_isotropic(self):
        cost = GroundCost(np.array([[0.3, 1.0], [0.7, 0.1]]))
        u = np.stack([0.4 * np.eye(2), -0.2 * np.eye(2)])
        v = np.stack([0.1 * np.eye(2), 0.9 * np.eye(2)])
        k = kernel(u, v, cost, 0.05)
        offdiag = k[..., 0, 1]
        assert np.all(offdiag == 0.0)
        assert np.allclose(k[..., 0, 0], k[..., 1, 1])

    @pytest.mark.parametrize("rows,cols", [
        ((3, 2, 2), (3, 2, 2)), ((2, 2, 2), (2, 2, 2)), ((2, 3, 3), (3, 2, 2)),
        ((2, 2), (3, 2, 2)),
    ], ids=["rows", "cols", "dim", "ndim"])
    def test_shape_validation(self, rows, cols):
        cost = GroundCost(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="cost is 2x3"):
            kernel(np.zeros(rows), np.zeros(cols), cost, 1.0)


# The trace multipliers enter the kernel through the solver's terms.
TRACE = SolverConfig(trace_constrained=True)


def _trace_kernel(u, v, alpha, beta, cost, eps, cfg=TRACE):
    return kernel(*_kernel_terms(u, v, alpha, beta, cfg), cost, eps)


class TestKernelTrace:
    def test_zero_multipliers_match_kernel(self):
        rng = np.random.default_rng(2)
        cost = GroundCost(rng.uniform(size=(2, 3)))
        u = rng.standard_normal((2, 2, 2))
        u = 0.5 * (u + np.swapaxes(u, -1, -2))
        v = rng.standard_normal((3, 2, 2))
        v = 0.5 * (v + np.swapaxes(v, -1, -2))
        k0 = _trace_kernel(u, v, np.zeros(2), np.zeros(3), cost, 0.1)
        assert np.array_equal(k0, kernel(u, v, cost, 0.1))

    def test_multipliers_only_in_trace_mode(self):
        rng = np.random.default_rng(2)
        cost = GroundCost(rng.uniform(size=(2, 3)))
        u, v = np.zeros((2, 2, 2)), np.zeros((3, 2, 2))
        plain = _trace_kernel(u, v, np.ones(2), np.ones(3), cost, 0.1,
                              SolverConfig())
        assert np.array_equal(plain, kernel(u, v, cost, 0.1))

    def test_row_shift(self):
        eps = 0.5
        cost = GroundCost(np.zeros((2, 1)))
        u = np.zeros((2, 2, 2))
        v = np.zeros((1, 2, 2))
        alpha = np.array([eps, 0.0])
        k = _trace_kernel(u, v, alpha, np.zeros(1), cost, eps)
        assert np.allclose(k[0, 0], -np.eye(2))
        assert np.allclose(k[1, 0], 0.0)

    def test_trace_decreases_in_alpha(self):
        # scalar-shift identity: tr exp(M - a I) = e^{-a} tr exp(M)
        rng = np.random.default_rng(3)
        cost = GroundCost(rng.uniform(size=(1, 2)))
        u = rng.standard_normal((1, 2, 2))
        u = 0.5 * (u + np.swapaxes(u, -1, -2))
        v = rng.standard_normal((2, 2, 2))
        v = 0.5 * (v + np.swapaxes(v, -1, -2))
        traces = []
        for a in [0.0, 0.5, 1.0]:
            k = _trace_kernel(u, v, np.array([a]), np.zeros(2), cost, 0.7)
            traces.append(np.trace(exp_sym(k[0]).sum(axis=0)))
        assert traces[0] > traces[1] > traces[2]

    def test_multiplier_shape_validation(self):
        cost = GroundCost(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="multipliers"):
            _trace_kernel(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
                          np.zeros(3), np.zeros(2), cost, 1.0)

    def test_multipliers_come_in_pairs(self):
        cost = GroundCost(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="multipliers"):
            _trace_kernel(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)),
                          np.zeros(2), None, cost, 1.0)
