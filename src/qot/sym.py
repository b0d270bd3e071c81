"""Symmetric-matrix calculus on dense stacks.

Eigendecompositions of 2x2 matrices use a vectorized closed form (the hot
path of every d = 2 solve); every other size goes to LAPACK
(``np.linalg.eigh``), reordered to descending eigenvalues with the same
deterministic sign convention.  Matrix exp / log are spectral; eigenvalue
clamping stands in for the singular-matrix limit (see :func:`log_sym`).

Every operation is a pure function of its inputs and accepts either a
single ``(d, d)`` symmetric matrix or a stack shaped ``(..., d, d)``.
Identical input bits always produce identical output bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "EIG_FLOOR",
    "KERNEL_TOL",
    "PSD_TOL",
    "EigenPair",
    "pack_upper",
    "unpack_upper",
    "eig_sym",
    "exp_sym",
    "log_sym",
    "clamp_psd",
    "psd_violations",
    "lse_reduce",
    "lste_reduce",
]

# Absolute clamp applied to eigenvalues entering a logarithm.  Near-zero
# eigenvalues become log(EIG_FLOOR) ~ -34.5; a later exp re-multiplies the
# direction back to ~1e-15, which reproduces the "dead kernel direction"
# behaviour to machine precision on a single numeric path.
EIG_FLOOR = 1e-15

# An eigenvalue below KERNEL_TOL * lambda_max counts as a kernel direction.
KERNEL_TOL = 1e-12

# Tolerated negative eigenvalue for "positive semidefinite" checks,
# relative to 1 + |lambda_max| (absorbs round-off from exp chains).
PSD_TOL = 1e-10


def pack_upper(mats: np.ndarray) -> np.ndarray:
    """Pack symmetric matrices ``(..., d, d)`` into row-major upper
    triangles ``(..., d*(d+1)//2)``."""
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[-1]
    rows, cols = np.triu_indices(d)
    return mats[..., rows, cols]


def unpack_upper(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Expand packed upper triangles back into dense symmetric matrices."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[-1] != dim * (dim + 1) // 2:
        raise ValueError(
            f"packed length {coeffs.shape[-1]} does not match dim {dim}"
        )
    out = np.zeros(coeffs.shape[:-1] + (dim, dim))
    rows, cols = np.triu_indices(dim)
    out[..., rows, cols] = coeffs
    lo_r, lo_c = np.tril_indices(dim, -1)
    out[..., lo_r, lo_c] = out[..., lo_c, lo_r]
    return out


class EigenPair(NamedTuple):
    """Spectral factorization ``V @ diag(values) @ V.T`` of a symmetric
    matrix (or stack): eigenvalues sorted descending, eigenvectors as
    orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


def _dense(x) -> np.ndarray:
    """Coerce array-like ``(..., d, d)`` input to a dense float array."""
    a = np.asarray(x, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected (..., d, d) matrices, got shape {a.shape}")
    return a


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    """Flip eigenvector signs so the largest-magnitude component of each
    column is nonnegative (first index wins ties); keeps output
    deterministic across runs."""
    idx = np.argmax(np.abs(vecs), axis=-2)
    lead = np.take_along_axis(vecs, idx[..., None, :], axis=-2)
    return vecs * np.where(lead < 0.0, -1.0, 1.0)


def _eig2(a: np.ndarray) -> EigenPair:
    a00 = a[..., 0, 0]
    a01 = a[..., 0, 1]
    a11 = a[..., 1, 1]
    mid = 0.5 * (a00 + a11)
    rad = np.hypot(0.5 * (a00 - a11), a01)
    # Larger-magnitude root from the quadratic formula; the other through
    # the determinant quotient, which keeps relative accuracy for
    # eigenvalues far below ulp(lambda_max).
    big = np.where(mid < 0.0, mid - rad, mid + rad)
    safe_big = np.where(big != 0.0, big, 1.0)
    acmx = np.where(np.abs(a00) >= np.abs(a11), a00, a11)
    acmn = np.where(np.abs(a00) >= np.abs(a11), a11, a00)
    other = np.where(
        big != 0.0, (acmx / safe_big) * acmn - (a01 / safe_big) * a01, 0.0
    )
    w1 = np.maximum(big, other)
    w2 = np.minimum(big, other)

    # (A - w1 I) v = 0 has the two algebraically equivalent solutions
    # (a01, w1-a00) and (w1-a11, a01); pick the better-conditioned one.
    cand1 = np.stack([a01, w1 - a00], axis=-1)
    cand2 = np.stack([w1 - a11, a01], axis=-1)
    n1 = np.einsum("...i,...i->...", cand1, cand1)
    n2 = np.einsum("...i,...i->...", cand2, cand2)
    v1 = np.where((n1 >= n2)[..., None], cand1, cand2)
    norm = np.sqrt(np.einsum("...i,...i->...", v1, v1))
    isotropic = norm <= 0.0
    v1 = np.where(
        isotropic[..., None],
        np.broadcast_to(np.array([1.0, 0.0]), v1.shape),
        v1 / np.where(isotropic, 1.0, norm)[..., None],
    )
    v2 = np.stack([-v1[..., 1], v1[..., 0]], axis=-1)
    vals = np.stack([w1, w2], axis=-1)
    vecs = np.stack([v1, v2], axis=-1)
    return EigenPair(vals, _fix_signs(vecs))


def eig_sym(mats) -> EigenPair:
    """Eigendecomposition of symmetric matrices.

    2x2 stacks use the closed form of :func:`_eig2`, about twice as fast
    as ``np.linalg.eigh`` plus sign fixing on large stacks; every other
    size uses ``np.linalg.eigh``.  Both give the same sign convention.

    Parameters
    ----------
    mats : array_like
        Symmetric matrices, shape ``(..., d, d)``.

    Returns
    -------
    EigenPair
        ``values`` sorted descending with shape ``(..., d)``;
        ``vectors`` orthonormal columns with shape ``(..., d, d)``.
        Deterministic: identical input bits give identical output bits.
    """
    a = _dense(mats)
    if a.shape[-1] == 2:
        return _eig2(a)
    vals, vecs = np.linalg.eigh(a)
    return EigenPair(vals[..., ::-1], _fix_signs(vecs[..., ::-1]))


def _reconstruct(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    out = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def exp_sym(mats) -> np.ndarray:
    """Matrix exponential of symmetric matrices (spectral); the result is
    symmetric positive definite.

    Raises
    ------
    OverflowError
        If any exponentiated eigenvalue is not finite.
    """
    vals, vecs = eig_sym(mats)
    with np.errstate(over="ignore"):
        ev = np.exp(vals)
    if not np.all(np.isfinite(ev)):
        raise OverflowError(
            f"matrix exponential overflow (max eigenvalue {vals.max():g})"
        )
    return _reconstruct(ev, vecs)


def log_sym(mats, eig_floor: float = EIG_FLOOR) -> np.ndarray:
    """Matrix logarithm of positive semidefinite matrices.

    Eigenvalues below ``eig_floor`` are clamped to it before taking the
    log, so singular directions come out as large negative log-eigenvalues
    (about -34.5 at the default floor) instead of -inf.
    """
    vals, vecs = eig_sym(mats)
    return _reconstruct(np.log(np.maximum(vals, eig_floor)), vecs)


def clamp_psd(mats) -> np.ndarray:
    """Project symmetric matrices onto the PSD cone by clamping negative
    eigenvalues at zero."""
    vals, vecs = eig_sym(mats)
    return _reconstruct(np.maximum(vals, 0.0), vecs)


def _not_psd(vals: np.ndarray) -> np.ndarray:
    """Per matrix, from its eigenvalues ``(..., d)``: whether the minimum
    eigenvalue lies below ``-PSD_TOL * (1 + |lambda_max|)``."""
    bound = -PSD_TOL * (1.0 + np.abs(vals).max(axis=-1))
    return vals.min(axis=-1) < bound


def psd_violations(mats) -> np.ndarray:
    """Indices into the flattened stack of the matrices that are not
    positive semidefinite (see :func:`_not_psd`)."""
    a = _dense(mats)
    flat = a.reshape((-1,) + a.shape[-2:])
    if flat.shape[0] == 0:
        return np.empty(0, dtype=np.intp)
    return np.nonzero(_not_psd(eig_sym(flat).values))[0]


def _plog_parts(p: np.ndarray, q: np.ndarray):
    """The product ``P log(Q)`` in the eigenbasis of ``Q``, extended to
    singular ``Q`` with ``0 * log 0 = 0``: returns (q_vecs, p_tilde,
    log_vals, kernel mask, containment mask) with kernel rows and columns
    of p_tilde zeroed; the product is finite only where ``ker Q`` lies in
    ``ker P`` (within ``KERNEL_TOL``)."""
    q_vals, q_vecs = eig_sym(q)
    lam_max = np.maximum(q_vals[..., :1], 0.0)
    is_ker = q_vals <= KERNEL_TOL * lam_max
    p_tilde = np.swapaxes(q_vecs, -1, -2) @ p @ q_vecs

    scale = np.abs(p_tilde).max(axis=(-2, -1))
    col_mass = np.abs(p_tilde).max(axis=-2)
    contained = np.all(
        np.where(is_ker, col_mass, 0.0) <= KERNEL_TOL * scale[..., None], axis=-1
    )
    p_tilde = np.where(is_ker[..., None, :], 0.0, p_tilde)
    p_tilde = np.where(is_ker[..., :, None], 0.0, p_tilde)
    log_vals = np.where(is_ker, 0.0, np.log(np.maximum(q_vals, EIG_FLOOR)))
    return q_vecs, p_tilde, log_vals, is_ker, contained


def _normalize_reduce_axis(a: np.ndarray, axis: int) -> int:
    n_batch = a.ndim - 2
    if not -n_batch <= axis < n_batch:
        raise ValueError(f"axis {axis} out of range for {n_batch} batch dims")
    axis = axis % n_batch
    if a.shape[axis] == 0:
        raise ValueError("cannot reduce over an empty axis")
    return axis


def lse_reduce(mats, axis: int = 0) -> np.ndarray:
    """Matrix log-sum-exp: ``log(sum_k exp(M_k))`` along a batch axis.

    Stabilized by the scalar shift ``m = max_k lambda_max(M_k)`` (multiples
    of the identity commute with everything, so the shift is exact)::

        result = m * I + log(sum_k exp(M_k - m * I))
    """
    a = _dense(mats)
    axis = _normalize_reduce_axis(a, axis)
    vals, vecs = eig_sym(a)
    shift = vals[..., 0].max(axis=axis, keepdims=True)
    ev = np.exp(vals - shift[..., None])
    total = _reconstruct(ev, vecs).sum(axis=axis)
    d = a.shape[-1]
    # The interior log is exact down to the smallest positive normal; the
    # EIG_FLOOR clamp is reserved for genuinely singular inputs elsewhere.
    out = log_sym(total, eig_floor=float(np.finfo(float).tiny))
    return out + np.squeeze(shift, axis=axis)[..., None, None] * np.eye(d)


def lste_reduce(mats, axis: int = 0) -> np.ndarray:
    """Scalar log-sum-trace-exp: ``log(sum_k tr(exp(M_k)))`` along a batch
    axis, with the same scalar-shift stabilization as :func:`lse_reduce`
    (the shift factors out of the trace as ``e^m``)."""
    a = _dense(mats)
    axis = _normalize_reduce_axis(a, axis)
    vals, _ = eig_sym(a)
    shift = vals[..., 0].max(axis=axis, keepdims=True)
    traces = np.exp(vals - shift[..., None]).sum(axis=-1)
    total = traces.sum(axis=axis)
    return np.log(total) + np.squeeze(shift, axis=axis)
