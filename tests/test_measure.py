"""Unit tests for tensor measures, couplings, entropy and divergence."""

import math

import numpy as np
import pytest
import scipy.linalg

from qot.cost import GroundCost
from qot.measure import (
    Coupling,
    TensorMeasure,
    inner,
    marginal_cols,
    marginal_rows,
    primal_objective,
    quantum_entropy,
    quantum_kl,
)
from qot.solver import SolverConfig


def random_psd(rng, d, n=None, lo=0.3, hi=1.7):
    shape = (d, d) if n is None else (n, d, d)
    q, _ = np.linalg.qr(rng.standard_normal(shape))
    lam = rng.uniform(lo, hi, size=q.shape[:-1])
    return (q * lam[..., None, :]) @ np.swapaxes(q, -1, -2)


def random_coupling(rng, rows, cols, d):
    return Coupling(random_psd(rng, d, n=rows * cols).reshape(rows, cols, d, d))


class TestTensorMeasure:
    def test_basic_construction(self):
        m = TensorMeasure(np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
        assert m.n_atoms == 2
        assert m.tensor_dim == 2
        assert m.ambient_dim == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TensorMeasure(np.zeros((2, 2)), np.stack([np.eye(2)] * 3))

    def test_non_psd_rejected_with_index(self):
        tensors = np.stack([np.eye(2), np.diag([1.0, -0.5])])
        with pytest.raises(ValueError, match="tensor 1"):
            TensorMeasure(np.zeros((2, 2)), tensors)

    def test_immutable(self):
        m = TensorMeasure(np.zeros((1, 2)), np.eye(2)[None])
        with pytest.raises(ValueError):
            m.points[0, 0] = 1.0


class TestCoupling:
    def test_non_symmetric_entry_rejected(self):
        # The 2x2 eigensolver reads only the upper off-diagonal entry, so
        # the PSD check alone does not see this asymmetry.
        with pytest.raises(ValueError, match="non-symmetric"):
            Coupling(np.array([[[[1.0, 0.0], [3.0, 1.0]]]]))


class TestMarginals:
    def test_single_entry(self):
        rng = np.random.default_rng(0)
        p = random_psd(rng, 2)
        g = Coupling(p[None, None])
        assert np.allclose(marginal_rows(g)[0], p)
        assert np.allclose(marginal_cols(g)[0], p)

    def test_all_identity(self):
        g = Coupling(np.broadcast_to(np.eye(2), (2, 2, 2, 2)).copy())
        assert np.allclose(marginal_rows(g), 2.0 * np.eye(2))
        assert np.allclose(marginal_cols(g), 2.0 * np.eye(2))

    def test_column_of_two(self):
        rng = np.random.default_rng(1)
        p, q = random_psd(rng, 2, n=2)
        g = Coupling(np.stack([p, q])[:, None])
        assert np.allclose(marginal_cols(g)[0], p + q)

    def test_trace_linearity(self):
        rng = np.random.default_rng(2)
        g = random_coupling(rng, 4, 3, 2)
        total = np.trace(g.entries, axis1=-2, axis2=-1).sum()
        assert np.isclose(np.trace(marginal_rows(g).sum(axis=0)), total)

    def test_transpose_consistency(self):
        rng = np.random.default_rng(3)
        g = random_coupling(rng, 4, 3, 2)
        flipped = Coupling(np.swapaxes(g.entries, 0, 1))
        assert np.allclose(marginal_cols(g), marginal_rows(flipped))

    def test_marginals_are_psd(self):
        rng = np.random.default_rng(4)
        g = random_coupling(rng, 5, 6, 3)
        assert np.linalg.eigvalsh(marginal_rows(g)).min() > -1e-12
        assert np.linalg.eigvalsh(marginal_cols(g)).min() > -1e-12


class TestQuantumEntropy:
    def test_identity(self):
        assert np.isclose(quantum_entropy([np.eye(2)]), 2.0)

    def test_singular_zero_log_zero(self):
        assert np.isclose(quantum_entropy([np.diag([1.0, 0.0])]), 1.0)

    def test_scalar_formula_per_eigenvalue(self):
        expected = 4.0 - 4.0 * math.log(2.0)
        assert np.isclose(quantum_entropy([np.diag([2.0, 2.0])]), expected)

    def test_non_psd_is_minus_infinity(self):
        assert quantum_entropy([np.diag([1.0, -0.5])]) == -math.inf

    def test_overflowing_sum_is_minus_infinity(self):
        # Each term, 2e305 * (1 - log 1e305), is finite; their sum is not.
        huge = np.stack([np.diag([1e305, 1e305])] * 3)
        assert quantum_entropy(huge) == -math.inf

    def test_concavity_along_segments(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = random_psd(rng, 3)
            q = random_psd(rng, 3)
            h_mid = quantum_entropy([(p + q) / 2.0])
            h_avg = 0.5 * (quantum_entropy([p]) + quantum_entropy([q]))
            assert h_mid >= h_avg - 1e-12


class TestQuantumKl:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(6)
        p = random_psd(rng, 3)
        assert abs(quantum_kl([p], [p])) < 1e-12
        singular = np.diag([1.0, 0.0])
        assert abs(quantum_kl([singular], [singular])) < 1e-12

    def test_scalar_case(self):
        expected = 2.0 * math.log(2.0) - 2.0 + 1.0
        assert np.isclose(quantum_kl([[[2.0]]], [[[1.0]]]), expected)

    def test_kernel_escape_infinite(self):
        assert quantum_kl([np.eye(2)], [np.diag([1.0, 0.0])]) == math.inf

    def test_kernel_containment_with_zero_log_zero(self):
        # ker Q = ker P: tr(P log P) = 0, tr(P log Q) = log 2, tr(Q - P) = 1
        got = quantum_kl([np.diag([1.0, 0.0])], [np.diag([2.0, 0.0])])
        assert np.isclose(got, 1.0 - math.log(2.0), atol=1e-12)

    def test_matches_logm_for_pd(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            p = random_psd(rng, 3)
            q = random_psd(rng, 3)
            direct = np.trace(
                p @ scipy.linalg.logm(p) - p @ scipy.linalg.logm(q) - p + q
            ).real
            assert abs(quantum_kl([p], [q]) - direct) < 1e-10

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            quantum_kl([np.eye(2)], [np.eye(3)])

    def test_non_finite_entry_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            quantum_kl([np.diag([1.0, math.nan])], [np.eye(2)])

    def test_overflowing_sum_is_infinite(self):
        huge = np.stack([np.diag([1e305, 1e305])] * 3)
        assert quantum_kl(huge, np.stack([np.eye(2)] * 3)) == math.inf

    def test_overflowing_term_is_infinite(self):
        # tr(P log P) and tr(P log Q) both overflow: inf - inf inside a term.
        huge = np.diag([1.7e308, 1.0])[None]
        assert quantum_kl(huge, huge) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            a = random_psd(rng, 2, n=4)
            b = random_psd(rng, 2, n=4)
            assert quantum_kl(a, b) >= -1e-12

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(8)
        a = random_psd(rng, 2, n=3)
        b = a + 0.05 * np.eye(2)
        assert quantum_kl(a, b) > 1e-4

    def test_matches_scalar_kl_for_d1(self):
        rng = np.random.default_rng(9)
        p = rng.uniform(0.2, 3.0, size=6)
        q = rng.uniform(0.2, 3.0, size=6)
        expected = float(np.sum(p * np.log(p / q) - p + q))
        got = quantum_kl(p[:, None, None], q[:, None, None])
        assert np.isclose(got, expected, atol=1e-12)


class TestInner:
    def test_identity_pair(self):
        assert inner([np.eye(2)], [np.eye(2)]) == 2.0

    def test_diagonal_arithmetic(self):
        assert inner([np.diag([1.0, 2.0])], [np.diag([3.0, 4.0])]) == 11.0

    def test_symmetry(self):
        rng = np.random.default_rng(10)
        a = random_psd(rng, 3, n=4)
        b = random_psd(rng, 3, n=4)
        assert np.isclose(inner(a, b), inner(b, a))


class TestPrimalObjective:
    def test_exact_marginals_zero_cost(self):
        rng = np.random.default_rng(11)
        g = random_coupling(rng, 1, 1, 2)
        mu = TensorMeasure(np.zeros((1, 1)), marginal_rows(g))
        nu = TensorMeasure(np.zeros((1, 1)), marginal_cols(g))
        cost = GroundCost("isotropic", np.zeros((1, 1)))
        cfg = SolverConfig(eps=1e-9, rho1=1.0, rho2=1.0)
        ent = quantum_entropy(g.entries.reshape(-1, 2, 2))
        val = primal_objective(g, mu, nu, cost, cfg)
        assert np.isclose(val, -cfg.eps * ent, atol=1e-12)

    def test_scalar_identity_case(self):
        g = Coupling(np.full((1, 1, 1, 1), 2.0))
        mu = TensorMeasure(np.zeros((1, 1)), np.full((1, 1, 1), 2.0))
        nu = TensorMeasure(np.zeros((1, 1)), np.full((1, 1, 1), 2.0))
        cost = GroundCost("isotropic", np.zeros((1, 1)))
        cfg = SolverConfig(eps=1e-12, rho1=1.0, rho2=1.0)
        val = primal_objective(g, mu, nu, cost, cfg)
        # both KL terms vanish; the entropy term is O(eps)
        assert abs(val) < 1e-11

    def test_infinite_divergence_propagates(self):
        g = Coupling(np.eye(2)[None, None])
        mu = TensorMeasure(np.zeros((1, 1)), np.diag([1.0, 0.0])[None])
        nu = TensorMeasure(np.zeros((1, 1)), np.eye(2)[None])
        cost = GroundCost("isotropic", np.zeros((1, 1)))
        cfg = SolverConfig(eps=0.01, rho1=1.0, rho2=1.0)
        assert primal_objective(g, mu, nu, cost, cfg) == math.inf
