"""Symmetric-matrix calculus on dense stacks.

Eigendecompositions of 2x2 matrices use a vectorized closed form; every
other size goes to LAPACK (``np.linalg.eigh``), reordered to descending
eigenvalues.  Eigenvectors carry no sign convention: every function here
depends only on eigenvalues and eigenprojectors ``v v^T``, which are
bitwise unchanged when ``v`` flips sign.  Matrix exp / log are spectral;
eigenvalue clamping stands in for the singular-matrix limit (see
:func:`log_sym`).  The matrix log-sum-exp of 2x2 stacks, the hot path of
every d = 2 solve, works on the entry arrays alone, with no eigenvector
matrices or matrix products, in two steps: :func:`_lse2_sums` sums each
exponential from its eigenvalues and the weights of its top
eigenprojector, read off the entries, and :func:`_lse2_log` takes the
log of the sums from the closed-form eigensystem in a projector form.
The solvers sum kernel entries built one block at a time, so a d = 2
iteration never holds a kernel stack, and take one log step of all
their sums (see ``qot.cost._kernel_lse``).  Callers that need only
eigenvalues use :func:`eigvals_sym`.

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
    "eigvals_sym",
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

# Smallest positive normal float: the log-sum-exps' floor on the
# eigenvalues of their sums.
_TINY = float(np.finfo(float).tiny)


def _kernel_directions(vals: np.ndarray) -> np.ndarray:
    """Which of the descending eigenvalues ``vals`` (..., d) are kernel
    directions, at most ``KERNEL_TOL`` times the largest one (or 0)."""
    return vals <= KERNEL_TOL * np.maximum(vals[..., :1], 0.0)


# Tolerated negative eigenvalue for "positive semidefinite" checks,
# relative to 1 + |lambda_max| (absorbs round-off from exp chains).
PSD_TOL = 1e-10


def pack_upper(mats: np.ndarray) -> np.ndarray:
    """Pack symmetric matrices ``(..., d, d)`` into row-major upper
    triangles ``(..., d*(d+1)//2)``, a C-contiguous array (numpy lays the
    fancy-indexed result out column by column)."""
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[-1]
    rows, cols = np.triu_indices(d)
    return np.ascontiguousarray(mats[..., rows, cols])


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
    orthonormal columns of no particular sign."""

    values: np.ndarray
    vectors: np.ndarray


def _dense(x) -> np.ndarray:
    """Coerce array-like ``(..., d, d)`` input to a dense float array."""
    a = np.asarray(x, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected (..., d, d) matrices, got shape {a.shape}")
    return a


def _eig2_values(a00, a01, a11):
    """Closed-form eigenvalues ``w1 >= w2`` of symmetric 2x2 matrices given
    by their entry arrays, and the one of larger magnitude."""
    mid = 0.5 * (a00 + a11)
    rad = np.hypot(0.5 * (a00 - a11), a01)
    # Larger-magnitude root from the quadratic formula; the other through
    # the determinant quotient, which keeps relative accuracy for
    # eigenvalues far below ulp(lambda_max).
    big = np.where(mid < 0.0, mid - rad, mid + rad)
    safe_big = np.where(big != 0.0, big, 1.0)
    swap = np.abs(a00) >= np.abs(a11)
    acmx = np.where(swap, a00, a11)
    acmn = np.where(swap, a11, a00)
    other = np.where(
        big != 0.0, (acmx / safe_big) * acmn - (a01 / safe_big) * a01, 0.0
    )
    return np.maximum(big, other), np.minimum(big, other), big


def _eig2_parts(a00, a01, a11):
    """Closed-form eigensystem of symmetric 2x2 matrices given by their
    entry arrays: returns ``(w1, w2, x, y)`` with eigenvalues
    ``w1 >= w2`` and ``(x, y)`` a unit eigenvector of ``w1``; ``(-y, x)``
    spans the other eigenspace."""
    # The eigenvalue temporaries are freed on return (2 MB less peak
    # memory in a desk transport).
    w1, w2, big = _eig2_values(a00, a01, a11)

    # (A - w1 I) v = 0 has the two algebraically equivalent solutions
    # (a01, w1-a00) and (w1-a11, a01); pick the better-conditioned one.
    # Both are first scaled by the power of two of |big| = max |lambda|,
    # which bounds each of their entries by 2 |big|, so the squared norms
    # cannot overflow (the PSD check of a capped coupling meets entries up
    # to 1e304); the scaling is exact, so it changes no bit of an in-range
    # result.  The arrays made by np.where are normalized in place, which
    # spares the page faults of fresh temporaries on the large stacks of a
    # solve.
    expo = -np.frexp(big)[1]
    d00 = np.ldexp(w1 - a00, expo)
    d11 = np.ldexp(w1 - a11, expo)
    s01 = np.ldexp(a01, expo)
    n1 = s01 * s01 + d00 * d00
    n2 = d11 * d11 + s01 * s01
    first = n1 >= n2
    x = np.where(first, s01, d11)
    y = np.where(first, d00, s01)
    norm = np.where(first, n1, n2)
    np.sqrt(norm, out=norm)
    isotropic = norm <= 0.0
    norm[isotropic] = 1.0
    x /= norm
    y /= norm
    x[isotropic] = 1.0
    y[isotropic] = 0.0
    return w1, w2, x, y


def _eig2(a: np.ndarray) -> EigenPair:
    w1, w2, x, y = _eig2_parts(a[..., 0, 0], a[..., 0, 1], a[..., 1, 1])
    vals = np.stack([w1, w2], axis=-1)
    vecs = np.stack([np.stack([x, -y], axis=-1), np.stack([y, x], axis=-1)],
                    axis=-2)
    return EigenPair(vals, vecs)


def eig_sym(mats) -> EigenPair:
    """Eigendecomposition of symmetric matrices.

    2x2 stacks use the closed form of :func:`_eig2`, faster than
    ``np.linalg.eigh`` on large stacks; every other size uses
    ``np.linalg.eigh``.

    Parameters
    ----------
    mats : array_like
        Symmetric matrices, shape ``(..., d, d)``.

    Returns
    -------
    EigenPair
        ``values`` sorted descending with shape ``(..., d)``;
        ``vectors`` orthonormal columns with shape ``(..., d, d)``, with
        no sign convention (a caller that draws a direction picks its
        own).  Deterministic: identical input bits give identical output
        bits.
    """
    a = _dense(mats)
    if a.shape[-1] == 2:
        return _eig2(a)
    vals, vecs = np.linalg.eigh(a)
    return EigenPair(vals[..., ::-1], vecs[..., ::-1])


def eigvals_sym(mats) -> np.ndarray:
    """Eigenvalues of symmetric matrices ``(..., d, d)``, sorted descending
    with shape ``(..., d)``, without eigenvectors: the closed form at
    d = 2 (bit for bit ``eig_sym(mats).values``), ``np.linalg.eigvalsh``
    for every other size."""
    a = _dense(mats)
    if a.shape[-1] == 2:
        w1, w2, _ = _eig2_values(a[..., 0, 0], a[..., 0, 1], a[..., 1, 1])
        return np.stack([w1, w2], axis=-1)
    return np.linalg.eigvalsh(a)[..., ::-1]


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


def log_sym(mats) -> np.ndarray:
    """Matrix logarithm of positive semidefinite matrices.

    Eigenvalues below ``EIG_FLOOR`` are clamped to it before taking the
    log, so singular directions come out as large negative log-eigenvalues
    (about -34.5) instead of -inf.
    """
    vals, vecs = eig_sym(mats)
    return _reconstruct(np.log(np.maximum(vals, EIG_FLOOR)), vecs)


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
    return np.nonzero(_not_psd(eigvals_sym(flat)))[0]


def _normalize_reduce_axis(a: np.ndarray, axis: int) -> int:
    n_batch = a.ndim - 2
    if not -n_batch <= axis < n_batch:
        raise ValueError(f"axis {axis} out of range for {n_batch} batch dims")
    axis = axis % n_batch
    if a.shape[axis] == 0:
        raise ValueError("cannot reduce over an empty axis")
    return axis


def _projector_form(f1, f2, x, y):
    """Entries ``(00, 01, 11)`` of ``f1 v v^T + f2 (I - v v^T)`` with
    ``v = (x, y)`` a unit vector: ``f(A)`` for the symmetric 2x2 ``A``
    whose top eigenvector is ``v``, given ``f`` at its two eigenvalues."""
    xx, yy = x * x, y * y
    return f1 * xx + f2 * yy, (f1 - f2) * (x * y), f1 * yy + f2 * xx


def _lse2_sums(a00, a01, a11, axis: int) -> tuple:
    """The summing step of the 2x2 matrix log-sum-exp of
    :func:`lse_reduce` along ``axis`` of the entry arrays ``a00``,
    ``a01``, ``a11`` of a symmetric stack: the entries ``s00, s01, s11``
    of ``S = sum_k exp(A_k - m I)`` and the shift ``m`` of each output
    line, four arrays with ``axis`` reduced.  Each output line depends
    only on its own slice along ``axis``; :func:`_lse2_log` finishes.

    Each summand ``exp(A - m I) = e2 I + (e1 - e2) P``, with
    ``e_k = exp(w_k - m)``, is read off the entries with no eigenvectors:
    with ``p = (a00 - a11)/2``, ``q = a01`` and ``r = sqrt(p^2 + q^2)``,
    the eigenvalues are ``w1, w2 = mid +- r``, and the top eigenprojector
    ``P = (A - w2 I) / 2r`` has the diagonal
    ``(t + |p| +- p) / 2r`` and the off-diagonal ``q / 2r``, where
    ``t = q^2 / (r + |p|)`` is ``r - |p|`` without cancellation.  Every
    term is a sum of non-negative parts, so a weak direction keeps its own
    exponential ``e2``.  A block whose ``p^2 + q^2`` overflows is rescaled
    pair by pair by exact powers of two; ``P`` does not depend on the
    scale."""
    p, mid, q = 0.5 * (a00 - a11), 0.5 * (a00 + a11), a01
    with np.errstate(over="ignore"):
        qq = q * q
        rad = p * p + qq
        overflow = not np.isfinite(rad.max())
    if overflow:  # rescale each pair exactly: max(|p|, |q|) in [1/2, 1)
        expo = np.frexp(np.maximum(np.abs(p), np.abs(q)))[1]
        p, q = np.ldexp(p, -expo), np.ldexp(q, -expo)
        qq = q * q
        rad = p * p + qq
    np.sqrt(rad, out=rad)
    half_gap = np.ldexp(rad, expo) if overflow else rad
    shift = (mid + half_gap).max(axis=axis, keepdims=True)
    e2 = np.exp(mid - half_gap - shift)
    diff = np.exp(mid + half_gap - shift) - e2
    # Isotropic pairs have r = 0 = diff; a positive floor keeps them 0/0-free.
    np.maximum(rad, _TINY, out=rad)
    ap = np.abs(p)
    t = qq / (rad + ap)
    diff /= 2.0 * rad
    s01 = (diff * q).sum(axis=axis)
    s00, s11 = (((t + side) * diff + e2).sum(axis=axis)
                for side in (ap + p, ap - p))
    return s00, s01, s11, np.squeeze(shift, axis=axis)


def _lse2_log(s00, s01, s11, shift) -> np.ndarray:
    """The log step of the 2x2 matrix log-sum-exp: ``shift I + log S``
    for the entries and shifts of :func:`_lse2_sums`, as a dense
    ``(..., 2, 2)`` stack.  It works entry by entry, so the sums of many
    calls of the summing step can share one log step.  The log takes the
    eigensystem of :func:`_eig2_parts`, whose weak eigenvalue keeps the
    relative accuracy the log needs, in the projector form."""
    l1, l2, x, y = _eig2_parts(s00, s01, s11)
    r00, r01, r11 = _projector_form(
        np.log(np.maximum(l1, _TINY)), np.log(np.maximum(l2, _TINY)), x, y)
    out = np.empty(s00.shape + (2, 2))
    out[..., 0, 0] = r00 + shift
    out[..., 1, 1] = r11 + shift
    out[..., 0, 1] = out[..., 1, 0] = r01
    return out


def lse_reduce(mats, axis: int = 0) -> np.ndarray:
    """Matrix log-sum-exp: ``log(sum_k exp(M_k))`` along a batch axis.

    Stabilized by the scalar shift ``m = max_k lambda_max(M_k)`` (multiples
    of the identity commute with everything, so the shift is exact)::

        result = m * I + log(sum_k exp(M_k - m * I))

    The interior log clamps eigenvalues at the smallest positive normal
    float (``EIG_FLOOR`` is reserved for genuinely singular inputs).

    2x2 stacks take two steps, with no eigenvectors of the summands.
    :func:`_lse2_sums` writes each ``exp(M_k - m I)`` as
    ``e1 P + e2 (I - P)``, with the eigenvalues and the weights of the
    top eigenprojector ``P`` read off the entries, and sums its three
    entries as arrays; :func:`_lse2_log` takes the log of the sum through
    the closed-form eigensystem of :func:`_eig2_parts`.  Each
    eigen-direction keeps its own exponential, so one far below the shift
    is not lost to cancellation as in the ``cosh``/``sinh`` form of
    ``exp``.  The solvers' d = 2 loops reach both steps through
    ``qot.cost._kernel_lse``, with no kernel stack.
    """
    a = _dense(mats)
    axis = _normalize_reduce_axis(a, axis)
    if a.shape[-1] == 2:
        return _lse2_log(*_lse2_sums(a[..., 0, 0], a[..., 0, 1], a[..., 1, 1], axis))
    vals, vecs = eig_sym(a)
    shift = vals[..., 0].max(axis=axis, keepdims=True)
    ev = np.exp(vals - shift[..., None])
    vals, vecs = eig_sym(_reconstruct(ev, vecs).sum(axis=axis))
    out = _reconstruct(np.log(np.maximum(vals, _TINY)), vecs)
    shift = np.squeeze(shift, axis=axis)[..., None, None]
    return out + shift * np.eye(vals.shape[-1])


def lste_reduce(mats, axis: int = 0) -> np.ndarray:
    """Scalar log-sum-trace-exp: ``log(sum_k tr(exp(M_k)))`` along a batch
    axis, with the same scalar-shift stabilization as :func:`lse_reduce`
    (the shift factors out of the trace as ``e^m``); it needs eigenvalues
    only (:func:`eigvals_sym`)."""
    a = _dense(mats)
    axis = _normalize_reduce_axis(a, axis)
    vals = eigvals_sym(a)
    shift = vals[..., 0].max(axis=axis, keepdims=True)
    traces = np.exp(vals - shift[..., None]).sum(axis=-1)
    return np.log(traces.sum(axis=axis)) + np.squeeze(shift, axis=axis)
