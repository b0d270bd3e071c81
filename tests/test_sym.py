"""Unit tests for the symmetric-matrix calculus kernel."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import oriented_tensor

from qot.sym import (
    EIG_FLOOR,
    _eig2,
    _reconstruct,
    clamp_psd,
    eig_sym,
    eigvals_sym,
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
        # eig_sym fixes no eigenvector sign.
        second = pair.vectors[:, 1] * np.sign(pair.vectors[0, 1])
        assert np.allclose(second, [s, -s], atol=1e-14)

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

    @pytest.mark.parametrize("d", [2, 3])
    def test_reconstruct_ignores_column_signs(self, d):
        # eig_sym fixes no eigenvector sign: every spectral function goes
        # through _reconstruct, which must not see one.
        rng = np.random.default_rng(31 + d)
        vals, vecs = eig_sym(random_sym(rng, d, n=200))
        signs = rng.choice([-1.0, 1.0], size=(200, 1, d))
        assert np.array_equal(_reconstruct(vals, vecs * signs),
                              _reconstruct(vals, vecs))

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
        pairs = random_sym(rng, 2, n=12).reshape(3, 4, 2, 2)
        for axis in (0, 1):
            assert np.array_equal(lse_reduce(pairs, axis=axis),
                                  lse_reduce(pairs.copy(), axis=axis))


class TestEigvals:
    def test_2x2_bit_identical_to_eig_sym(self):
        rng = np.random.default_rng(13)
        mats = np.concatenate([
            random_sym(rng, 2, n=200, scale=3.0),
            random_sym(rng, 2, n=20, scale=1e-200),
            np.stack([np.zeros((2, 2)), np.eye(2), np.diag([1e300, -1e-300]),
                      [[0.0, 1.0], [1.0, 0.0]]]),
        ])
        assert np.array_equal(eigvals_sym(mats), eig_sym(mats).values)

    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_eigh_values(self, d):
        rng = np.random.default_rng(31 + d)
        mats = random_sym(rng, d, n=200, scale=2.0)
        want = eig_sym(mats).values
        assert np.abs(eigvals_sym(mats) - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_descending(self, d):
        rng = np.random.default_rng(41 + d)
        vals = eigvals_sym(random_sym(rng, d, n=50))
        assert np.all(np.diff(vals, axis=-1) <= 0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_single_matrix_and_stacks(self, d):
        rng = np.random.default_rng(47 + d)
        mats = random_sym(rng, d, n=6).reshape(2, 3, d, d)
        stacked = eigvals_sym(mats)
        assert stacked.shape == (2, 3, d)
        single = eigvals_sym(mats[1, 2].tolist())
        assert single.shape == (d,)
        assert np.array_equal(single, eigvals_sym(mats[1, 2][None])[0])
        assert np.allclose(single, stacked[1, 2], rtol=0.0, atol=1e-14)


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


class TestEig2Range:
    """Entries beyond about 1e154 used to overflow the squared norms of the
    eigenvector candidates, leaving a zero "unit" vector."""

    def test_log_of_huge_rotated_matrix(self):
        # R diag(1e200, 1) R^T: the stored entries keep the top eigenpair
        # exactly, but its small eigenvalue lies far below their round-off
        # (about 1e184), so only the top eigen-direction of the logarithm,
        # log(1e200) along R e1, is exact.
        c, s = math.cos(0.3), math.sin(0.3)
        r = np.array([[c, -s], [s, c]])
        a = r @ np.diag([1e200, 1.0]) @ r.T
        a = 0.5 * (a + a.T)
        log_a = log_sym(a)
        top = r[:, 0]
        assert abs(top @ log_a @ top - math.log(1e200)) < 1e-12 * math.log(1e200)
        exact = r @ np.diag([math.log(1e200), 0.0]) @ r.T
        assert abs(top @ (log_a - exact) @ top) < 1e-12 * math.log(1e200)
        assert np.abs(log_a @ top - math.log(1e200) * top).max() < 1e-12 * math.log(1e200)
        assert np.allclose(eig_sym(a).vectors[:, 0], top, rtol=0.0, atol=1e-15)

    def test_log_of_exact_power_of_two_scaling(self):
        # 2^660 [[2, 1], [1, 2]] is stored exactly: its logarithm is
        # 660 log 2 I + log [[2, 1], [1, 2]], eigenvalues log 3 and 0 on
        # top of the shift.
        b = np.array([[2.0, 1.0], [1.0, 2.0]])
        got = log_sym(np.ldexp(b, 660))
        w = 1.0 / math.sqrt(2.0)
        v = np.array([[w, w], [w, -w]])
        exact = 660 * math.log(2.0) * np.eye(2) + v @ np.diag([math.log(3.0), 0.0]) @ v.T
        assert np.abs(got - exact).max() < 4e-15 * np.abs(exact).max()

    def test_unit_vectors_across_the_range(self):
        rng = np.random.default_rng(17)
        a = random_sym(rng, 2, n=200)
        scales = np.ldexp(1.0, rng.integers(-1000, 1000, size=200))
        vecs = eig_sym(a * scales[:, None, None]).vectors
        norms = np.linalg.norm(vecs, axis=-2)
        assert np.abs(norms - 1.0).max() < 4e-16

    def test_in_range_bits_unchanged_by_a_power_of_two(self):
        # The candidates are scaled by a power of two, so scaling the
        # input by one changes no bit of the eigenvectors.
        rng = np.random.default_rng(23)
        a = random_sym(rng, 2, n=500, scale=50.0)
        base = eig_sym(a).vectors
        for k in (-300, -40, 40, 300):
            assert np.array_equal(eig_sym(np.ldexp(a, k)).vectors, base)


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

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_naive_formula(self, d, axis):
        rng = np.random.default_rng(59 + d)
        mats = random_sym(rng, d, n=12).reshape(3, 4, d, d)
        got = lse_reduce(mats, axis=axis)
        stacks = np.moveaxis(mats, axis, 0)
        for idx in range(stacks.shape[1]):
            total = sum(scipy.linalg.expm(m) for m in stacks[:, idx])
            assert np.allclose(got[idx], scipy.linalg.logm(total), atol=1e-10)


ULP = 2.0**-52


def _mp_sym_fun(a, b, c, f, df):
    """Entries ``(f(A)_00, f(A)_01, f(A)_11)`` of ``f`` at the symmetric
    2x2 ``A = [[a, b], [b, c]]`` in mpmath arithmetic, written as
    ``f(w2) I + g (A - w2 I)`` with ``g`` the divided difference of ``f``
    over the eigenvalues ``w1 >= w2`` (``f'`` when they coincide)."""
    mid = (a + c) / 2
    rad = mpmath.sqrt(((a - c) / 2) ** 2 + b * b)
    w1, w2 = mid + rad, mid - rad
    g = (f(w1) - f(w2)) / (w1 - w2) if w1 != w2 else df(mid)
    return f(w2) + g * (a - w2), g * b, f(w2) + g * (c - w2)


@st.composite
def near_aligned_2x2_stacks(draw):
    """Stacks of 1-6 anisotropic 2x2 matrices whose eigenvectors lie
    within 1e-12..1e-2 rad of one common direction; eigenvalues in
    [-300, 300] with gaps from 1e-6 to about 300."""
    theta = draw(st.floats(0.0, math.pi))
    mats = []
    for _ in range(draw(st.integers(1, 6))):
        tilt = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(
            st.floats(-12.0, -2.0))
        lam1 = draw(st.floats(-300.0, 300.0))
        lam2 = lam1 - 10.0 ** draw(st.floats(-6.0, 2.5))
        c, s = math.cos(theta + tilt), math.sin(theta + tilt)
        rot = np.array([[c, -s], [s, c]])
        a = rot @ np.diag([lam1, lam2]) @ rot.T
        a[1, 0] = a[0, 1]
        mats.append(a)
    return np.stack(mats)


class TestLse2Property:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(ill_conditioned_2x2(), min_size=1, max_size=6).map(np.stack),
        near_aligned_2x2_stacks(),
    ))
    def test_matches_high_precision_reference(self, mats):
        """Against a 150-digit reference, the error stays within 16 ulp of
        ``cond(S) (1 + max |M_k|)`` with ``S = sum_k exp(M_k)``: the
        eigenvalues of each ``M_k`` carry absolute errors of order
        ``ulp |M_k|``, exp turns them into relative errors of ``S``, and
        the log amplifies those by at most ``cond(S)``."""
        got = lse_reduce(mats, axis=0)
        assert np.all(np.isfinite(got))
        with mpmath.workdps(150):
            sums = [mpmath.mpf(0)] * 3
            for m in mats:
                entries = (mpmath.mpf(float(m[0, 0])), mpmath.mpf(float(m[0, 1])),
                           mpmath.mpf(float(m[1, 1])))
                terms = _mp_sym_fun(*entries, mpmath.exp, mpmath.exp)
                sums = [total + t for total, t in zip(sums, terms)]
            a, b, c = sums
            mid = (a + c) / 2
            rad = mpmath.sqrt(((a - c) / 2) ** 2 + b * b)
            if mid - rad <= 0:
                return  # S is singular even at 150 digits: no reference
            cond = float((mid + rad) / (mid - rad))
            r00, r01, r11 = _mp_sym_fun(a, b, c, mpmath.log, lambda t: 1 / t)
        ref = np.array([[float(r00), float(r01)], [float(r01), float(r11)]])
        tol = 16.0 * ULP * cond * (1.0 + np.abs(mats).max())
        assert np.abs(got - ref).max() <= tol


def _lse_by_eigh(mats, axis):
    """The formula of :func:`lse_reduce` through LAPACK ``eigh``, which
    scales its input and so stays finite for any finite entries."""
    vals, vecs = np.linalg.eigh(mats)
    shift = vals[..., -1].max(axis=axis, keepdims=True)
    total = _reconstruct(np.exp(vals - shift[..., None]), vecs).sum(axis=axis)
    vals, vecs = np.linalg.eigh(total)
    out = _reconstruct(np.log(np.maximum(vals, np.finfo(float).tiny)), vecs)
    return out + np.squeeze(shift, axis=axis)[..., None, None] * np.eye(2)


class TestLse2Range:
    """Entries past about 1e154, where ``p^2 + q^2`` of the 2x2 inner sum
    overflows, and isotropic pairs, whose eigenprojector is undefined."""

    def test_huge_rotated_stack_is_finite(self):
        mats = np.stack([np.diag([1e200, 0.0]), oriented_tensor(0.3, 3e200, 1.0)])
        got = lse_reduce(mats, axis=0)
        assert np.all(np.isfinite(got))
        assert np.abs(got - _lse_by_eigh(mats, 0)).max() <= 1e-12 * 3e200

    @pytest.mark.parametrize("scale", [1e156, 1e200, 1e300, 1e307])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_huge_rotated_stacks_are_finite(self, scale, axis):
        rng = np.random.default_rng(int(math.log10(scale)))
        mats = np.stack([
            oriented_tensor(rng.uniform(0.0, math.pi), scale * rng.uniform(-1.0, 1.0),
                     rng.choice([scale * rng.uniform(-1.0, 1.0), 1.0, 0.0]))
            for _ in range(12)]).reshape(3, 4, 2, 2)
        got = lse_reduce(mats, axis=axis)
        assert np.all(np.isfinite(got))
        assert np.abs(got - _lse_by_eigh(mats, axis)).max() <= 1e-12 * scale

    def test_ordinary_lines_keep_their_bits_beside_a_huge_one(self):
        # The rescaling is by exact powers of two, pair by pair.
        rng = np.random.default_rng(5)
        mats = random_sym(rng, 2, n=8, scale=5.0).reshape(4, 2, 2, 2)
        mats[:, 0] = [oriented_tensor(t, 1e250, -2e249) for t in (0.1, 0.7, 1.3, 2.9)]
        got = lse_reduce(mats, axis=0)
        assert np.all(np.isfinite(got))
        assert got[1].tobytes() == lse_reduce(mats[:, 1:], axis=0)[0].tobytes()

    @pytest.mark.parametrize("c", [[5.0, 5.0], [-3.0, 0.5, 2.25, -700.0, 1e-300]])
    def test_isotropic_stack_is_the_scalar_lse(self, c):
        # [5I, 5I] gives exactly (5 + log 2) I, with a zero off-diagonal.
        c = np.array(c)
        out = lse_reduce(c[:, None, None] * np.eye(2), axis=0)
        want = math.log(np.exp(c - c.max()).sum()) + c.max()
        assert out.tobytes() == (want * np.eye(2)).tobytes()


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


class TestTraceStepIdentities:
    # The trace-constrained solver reads each multiplier step off its
    # half-step's kernel LSE and then moves that LSE by the step.  Each
    # matrix is a multiple of I between 200 and 1000 plus a random part:
    # a line's eigenvalues spread over hundreds, and exp overflows without
    # the stabilising shift.  The random part keeps each LSE's own spread
    # under 10: at d > 2 an LSE direction e^-s below the top one carries
    # about e^s ulps of error, shifted or not.
    @staticmethod
    def stack(d, seed):
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(200.0, 1000.0, size=(6, 7, 1, 1))
        return offsets * np.eye(d) + random_sym(rng, d, n=42, scale=2.0).reshape(
            6, 7, d, d)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_lste_is_the_lste_of_the_lse(self, d, axis):
        # tr sum_k exp(M_k) = tr exp(log sum_k exp(M_k)).
        k = self.stack(d, 61 + d)
        want = lste_reduce(k, axis=axis)
        got = lste_reduce(lse_reduce(k, axis=axis)[None], axis=0)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_a_shift_by_a_multiple_of_identity_moves_the_lse(self, d, axis):
        k = self.stack(d, 67 + d)
        s = np.random.default_rng(71 + d).uniform(-300.0, 300.0, size=k.shape[1 - axis])
        line = s[:, None, None, None] if axis == 1 else s[None, :, None, None]
        want = lse_reduce(k, axis=axis) - s[:, None, None] * np.eye(d)
        got = lse_reduce(k - line * np.eye(d), axis=axis)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
