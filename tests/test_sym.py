"""Unit tests for the symmetric-matrix calculus kernel."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qot.sym import (
    EIG_FLOOR,
    _eig2,
    clamp_psd,
    eig_sym,
    exp_sym,
    log_sym,
    lse_reduce,
    lste_reduce,
    pack_upper,
    psd_violations,
    unpack_upper,
)


def random_sym(rng, d, n=None, scale=1.0):
    shape = (d, d) if n is None else (n, d, d)
    a = rng.standard_normal(shape) * scale
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def random_psd(rng, d, n=None, lo=0.3, hi=1.7):
    """Well-conditioned random PSD matrices built from a random rotation."""
    shape = (d, d) if n is None else (n, d, d)
    a = rng.standard_normal(shape)
    q, _ = np.linalg.qr(a)
    lam = rng.uniform(lo, hi, size=a.shape[:-1])
    return (q * lam[..., None, :]) @ np.swapaxes(q, -1, -2)


class TestPackedStorage:
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_round_trip(self, d):
        rng = np.random.default_rng(7 + d)
        mats = random_sym(rng, d, n=11)
        assert np.array_equal(unpack_upper(pack_upper(mats), d), mats)

    def test_row_major_order(self):
        mat = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
        assert np.array_equal(pack_upper(mat), np.arange(1.0, 7.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unpack_upper(np.zeros(4), 2)


class TestPsdViolations:
    def test_accepts_round_off_negative(self):
        assert psd_violations(np.diag([1.0, -1e-12])).size == 0

    def test_rejects_indefinite(self):
        mats = np.stack([np.eye(2), np.diag([1.0, -1e-3]), np.eye(2)])
        assert psd_violations(mats).tolist() == [1]

    def test_rejects_small_negative_at_default_tolerance(self):
        assert psd_violations(np.diag([1.0, -1e-5])).tolist() == [0]

    def test_flat_indices_of_a_nested_stack(self):
        mats = np.broadcast_to(np.eye(3), (2, 3, 3, 3)).copy()
        mats[1, 2] = np.diag([1.0, 1.0, -1.0])
        assert psd_violations(mats).tolist() == [5]

    def test_empty_stack(self):
        assert psd_violations(np.zeros((0, 3, 3))).size == 0


class TestEig:
    def test_already_diagonal(self):
        pair = eig_sym(np.diag([3.0, 1.0]))
        assert np.allclose(pair.values, [3.0, 1.0])
        assert np.allclose(pair.vectors, np.eye(2))

    def test_hand_solved_2x2(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 = 1
        pair = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = 1.0 / math.sqrt(2.0)
        assert np.allclose(pair.values, [3.0, 1.0], atol=1e-14)
        assert np.allclose(pair.vectors[:, 0], [s, s], atol=1e-14)
        assert np.allclose(pair.vectors[:, 1], [s, -s], atol=1e-14)

    def test_isotropic_3x3(self):
        pair = eig_sym(np.diag([5.0, 5.0, 5.0]))
        assert np.allclose(pair.values, 5.0)
        assert np.allclose(pair.vectors.T @ pair.vectors, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_matches_lapack_values(self, d):
        rng = np.random.default_rng(19 + d)
        mats = random_sym(rng, d, n=60, scale=2.0)
        vals = eig_sym(mats).values
        expected = np.linalg.eigvalsh(mats)[..., ::-1]
        assert np.allclose(vals, expected, atol=1e-10, rtol=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_eigenpair_invariants(self, d):
        rng = np.random.default_rng(101 + d)
        mats = random_sym(rng, d, n=60, scale=3.0)
        vals, vecs = eig_sym(mats)
        gram = np.swapaxes(vecs, -1, -2) @ vecs
        assert np.abs(gram - np.eye(d)).max() < 1e-12
        recon = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
        err = np.linalg.norm(recon - mats, axis=(-2, -1))
        ref = np.linalg.norm(mats, axis=(-2, -1))
        assert np.all(err <= 1e-12 * np.maximum(ref, 1.0))
        assert np.all(np.diff(vals, axis=-1) <= 1e-12)

    def test_near_degenerate_3x3(self):
        rng = np.random.default_rng(5)
        base = random_psd(rng, 3, n=20)
        q, _ = np.linalg.qr(rng.standard_normal((20, 3, 3)))
        lam = np.stack(
            [
                np.full(20, 2.0),
                np.full(20, 1.0) + rng.uniform(-1e-13, 1e-13, 20),
                np.full(20, 1.0),
            ],
            axis=-1,
        )
        mats = (q * lam[..., None, :]) @ np.swapaxes(q, -1, -2)
        mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
        vals, vecs = eig_sym(mats)
        gram = np.swapaxes(vecs, -1, -2) @ vecs
        assert np.abs(gram - np.eye(3)).max() < 1e-12
        recon = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
        assert np.abs(recon - mats).max() < 1e-12 * 2.0
        del base

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        mats = random_sym(rng, 3, n=8)
        a = eig_sym(mats)
        b = eig_sym(mats.copy())
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_calculus_bitwise_deterministic(self):
        rng = np.random.default_rng(12)
        sym = random_sym(rng, 3, n=8)
        psd = random_psd(rng, 3, n=8)
        assert np.array_equal(exp_sym(sym), exp_sym(sym.copy()))
        assert np.array_equal(log_sym(psd), log_sym(psd.copy()))
        assert np.array_equal(lse_reduce(sym, axis=0),
                              lse_reduce(sym.copy(), axis=0))
        assert np.array_equal(lste_reduce(sym, axis=0),
                              lste_reduce(sym.copy(), axis=0))


@st.composite
def ill_conditioned_2x2(draw):
    """Symmetric 2x2 matrices ``R diag(big, big * ratio) R^T`` with
    condition numbers up to 1e16; a third of the rotations are within
    1e-12..1e-3 rad of the axes (near-diagonal input)."""
    big = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(
        st.floats(-8.0, 8.0))
    ratio = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(
        st.floats(-16.0, 0.0))
    if draw(st.integers(0, 2)) == 0:
        theta = 10.0 ** draw(st.floats(-12.0, -3.0))
    else:
        theta = draw(st.floats(0.0, math.pi))
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    a = rot @ np.diag([big, big * ratio]) @ rot.T
    a[1, 0] = a[0, 1]
    return a


class TestEig2Property:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(ill_conditioned_2x2())
    def test_small_eigenvalue_within_determinant_bound(self, a):
        """The smaller-magnitude eigenvalue equals ``det / lambda_big``,
        with ``det`` exact, within 4 ulp of ``(|a00 a11| + a01^2) /
        |lambda_big|`` (the scale of the rounding in the determinant)."""
        a00, a01, a11 = float(a[0, 0]), float(a[0, 1]), float(a[1, 1])
        lapack = np.linalg.eigvalsh(a)
        big = float(lapack[np.argmax(np.abs(lapack))])
        det = Fraction(a00) * Fraction(a11) - Fraction(a01) ** 2
        small = float(det / Fraction(big))
        # values are sorted descending
        got = _eig2(a).values[0 if small > big else 1]
        scale = (abs(a00 * a11) + a01 * a01) / abs(big)
        assert abs(got - small) <= 4.0 * 2.0**-52 * scale


class TestFunctionalCalculus:
    def test_exp_zero_is_identity(self):
        assert np.allclose(exp_sym(np.zeros((2, 2))), np.eye(2))

    def test_exp_diagonal(self):
        out = exp_sym(np.diag([math.log(2.0), math.log(3.0)]))
        assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-14)

    def test_exp_overflow_reported(self):
        with pytest.raises(OverflowError):
            exp_sym(np.diag([1e4, 0.0]))

    def test_log_identity(self):
        assert np.allclose(log_sym(np.eye(3)), 0.0)

    def test_log_diagonal(self):
        out = log_sym(np.diag([math.e, math.e**2]))
        assert np.allclose(out, np.diag([1.0, 2.0]), atol=1e-12)

    def test_log_singular_clamps(self):
        out = log_sym(np.diag([1.0, 0.0]))
        assert np.allclose(out, np.diag([0.0, math.log(EIG_FLOOR)]), atol=1e-12)

    def test_log_exp_inverse_pair(self):
        rng = np.random.default_rng(23)
        mats = random_sym(rng, 3, n=25)
        assert np.abs(log_sym(exp_sym(mats)) - mats).max() < 1e-10

    def test_exp_log_inverse_on_pd(self):
        rng = np.random.default_rng(29)
        mats = random_psd(rng, 3, n=25)
        assert np.abs(exp_sym(log_sym(mats)) - mats).max() < 1e-10

    def test_exp_log_inverse_ill_conditioned(self):
        rng = np.random.default_rng(30)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        mat = (q * np.array([1e8, 37.0, 1.0])) @ q.T
        mat = 0.5 * (mat + mat.T)
        rel = np.abs(exp_sym(log_sym(mat)) - mat).max() / np.linalg.norm(mat)
        assert rel < 1e-10

    def test_clamp_psd_projects(self):
        mat = np.diag([2.0, -0.5])
        assert np.allclose(clamp_psd(mat), np.diag([2.0, 0.0]))


class TestLse:
    def test_two_zero_matrices(self):
        out = lse_reduce(np.zeros((2, 2, 2)), axis=0)
        assert np.allclose(out, math.log(2.0) * np.eye(2), atol=1e-14)

    def test_singleton_is_log_exp_identity(self):
        mat = np.diag([1.0, 0.0])
        out = lse_reduce(mat[None], axis=0)
        assert np.allclose(out, mat, atol=1e-12)

    def test_large_shift_no_overflow(self):
        mats = np.stack([np.diag([100.0, 0.0]), np.diag([100.0, 0.0])])
        out = lse_reduce(mats, axis=0)
        expected = np.diag([100.0 + math.log(2.0), math.log(2.0)])
        assert np.allclose(out, expected, atol=1e-10)

    @pytest.mark.parametrize("c", [500.0, -500.0])
    def test_shift_invariance(self, c):
        rng = np.random.default_rng(43)
        mats = random_sym(rng, 2, n=6)
        base = lse_reduce(mats, axis=0)
        shifted = lse_reduce(mats + c * np.eye(2), axis=0) - c * np.eye(2)
        assert np.abs(shifted - base).max() < 1e-10

    def test_reduction_axis(self):
        rng = np.random.default_rng(47)
        mats = random_sym(rng, 2, n=12).reshape(3, 4, 2, 2)
        rows = lse_reduce(mats, axis=1)
        assert rows.shape == (3, 2, 2)
        for i in range(3):
            assert np.allclose(rows[i], lse_reduce(mats[i], axis=0), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lse_reduce(np.zeros((0, 2, 2)), axis=0)


class TestLste:
    def test_single_zero_matrix(self):
        assert np.allclose(lste_reduce(np.zeros((1, 2, 2))), math.log(2.0))

    def test_two_zero_matrices(self):
        assert np.allclose(lste_reduce(np.zeros((2, 2, 2))), math.log(4.0))

    def test_factors_large_shift(self):
        out = lste_reduce(np.diag([50.0, 50.0])[None], axis=0)
        assert np.allclose(out, 50.0 + math.log(2.0), atol=1e-12)

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(53)
        mats = random_sym(rng, 3, n=7)
        naive = math.log(sum(np.trace(scipy.linalg.expm(m)) for m in mats))
        assert np.allclose(lste_reduce(mats, axis=0), naive, atol=1e-10)
