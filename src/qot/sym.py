"""Symmetric-matrix calculus on dense stacks.

Every function of a symmetric matrix (exp, log, eigenvalue clamping,
inversion, projectors) goes through one helper, :func:`_spectral`, which
applies a function to the eigenvalues.  At d = 2 it reads the eigenvalues
and the top eigenprojector ``P`` straight off the entries
(:func:`_spec2`) and writes ``f(A) = f(w1) P + f(w2) (I - P)`` entry by
entry, with no eigenvectors and no matrix products; every other size goes
to LAPACK (``np.linalg.eigh``).  The one public eigendecomposition,
:func:`eig_sym`, is ``eigh`` at every size, and its eigenvectors carry no
sign convention.  Eigenvalue clamping stands in for the singular-matrix
limit (see :func:`log_sym`).  The matrix log-sum-exp of 2x2 stacks, the
hot path of every d = 2 solve, works on the entry arrays alone, in two
steps: :func:`_lse2_sums` sums each exponential from its eigenvalues and
the weights of its top eigenprojector, read off the entries, and
:func:`_lse2_log` takes the log of the sums through :func:`_spectral2`,
the 2x2 branch of :func:`_spectral`.
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
    """Closed-form eigenvalues ``(w1, w2)``, ``w1 >= w2``, of symmetric 2x2
    matrices given by their entry arrays, as one ``(..., 2)`` array, with
    ``p = (a00 - a11)/2`` and the half-gap ``r = hypot(p, a01)``."""
    p = 0.5 * (a00 - a11)
    mid = 0.5 * a00 + 0.5 * a11
    rad = np.hypot(p, a01)
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
    vals = np.empty(np.shape(big) + (2,))
    np.maximum(big, other, out=vals[..., 0])
    np.minimum(big, other, out=vals[..., 1])
    return vals, p, rad


def _spec2(a00, a01, a11):
    """Closed-form spectrum of symmetric 2x2 matrices given by their entry
    arrays, with no eigenvectors: the eigenvalues ``(w1, w2)`` of
    :func:`_eig2_values` and the entries ``P00, P01, P11`` of the top
    eigenprojector ``P = (A - w2 I) / 2r``.

    With ``p = (a00 - a11)/2``, ``q = a01`` and ``r = sqrt(p^2 + q^2)``,
    ``P`` has the diagonal ``(t + |p| +- p) / 2r`` and the off-diagonal
    ``q / 2r``, where ``t = q^2 / (r + |p|)`` is ``r - |p|`` without
    cancellation.  Each is formed from ``p/r`` and ``q/r``, which lie in
    [-1, 1], so no square overflows, and scaling ``A`` by a power of two
    changes no bit of ``P``.  An isotropic matrix (``r = 0``) reads as
    ``diag(1, 0)``: its ``P`` is ``e1 e1^T``."""
    vals, p, r = _eig2_values(a00, a01, a11)
    iso = r == 0.0
    p, q, r = np.where(iso, 1.0, p), np.where(iso, 0.0, a01), np.where(iso, 1.0, r)
    u, v = p / r, q / r
    au = np.abs(u)
    t = v * v / (1.0 + au)
    return vals, 0.5 * (t + (au + u)), 0.5 * v, 0.5 * (t + (au - u))


def eig_sym(mats) -> EigenPair:
    """Eigendecomposition of symmetric matrices ``(..., d, d)`` by
    ``np.linalg.eigh``, at every size.  Functions of a matrix go through
    :func:`_spectral`, which decomposes 2x2 matrices with no eigenvectors.

    Returns
    -------
    EigenPair
        ``values`` sorted descending with shape ``(..., d)``;
        ``vectors`` orthonormal columns with shape ``(..., d, d)``, with
        no sign convention.  Deterministic: identical input bits give
        identical output bits.
    """
    vals, vecs = np.linalg.eigh(_dense(mats))
    return EigenPair(vals[..., ::-1], vecs[..., ::-1])


def eigvals_sym(mats) -> np.ndarray:
    """Eigenvalues of symmetric matrices ``(..., d, d)``, sorted descending
    with shape ``(..., d)``, without eigenvectors: the closed form at
    d = 2 (bit for bit the eigenvalues of :func:`_spectral`),
    ``np.linalg.eigvalsh`` for every other size."""
    a = _dense(mats)
    if a.shape[-1] == 2:
        return _eig2_values(a[..., 0, 0], a[..., 0, 1], a[..., 1, 1])[0]
    return np.linalg.eigvalsh(a)[..., ::-1]


def _reconstruct(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    out = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def _spectral(mats, f) -> np.ndarray:
    """``f(A)`` for symmetric matrices ``A`` of shape ``(..., d, d)``,
    with ``f`` mapping the descending eigenvalues ``(..., d)`` of each
    matrix to its values at them: :func:`_spectral2` at d = 2, and
    :func:`eig_sym` with :func:`_reconstruct` at every other size."""
    a = _dense(mats)
    if a.shape[-1] == 2:
        return _spectral2(a[..., 0, 0], a[..., 0, 1], a[..., 1, 1], f)
    vals, vecs = eig_sym(a)
    return _reconstruct(f(vals), vecs)


def _spectral2(a00, a01, a11, f) -> np.ndarray:
    """:func:`_spectral` of the symmetric 2x2 matrices with the entry
    arrays ``a00, a01, a11``, as a dense ``(..., 2, 2)`` stack: ``f(w1) P
    + f(w2) (I - P)`` written entry by entry from :func:`_spec2`, with the
    diagonal of ``I - P`` read as that of ``P`` swapped, so a weak
    direction keeps its own value and a diagonal input keeps its diagonal
    bits."""
    vals, p00, p01, p11 = _spec2(a00, a01, a11)
    fv = f(vals)
    f1, f2 = fv[..., 0], fv[..., 1]
    out = np.empty(f1.shape + (2, 2))
    out[..., 0, 0] = f1 * p00 + f2 * p11
    out[..., 1, 1] = f1 * p11 + f2 * p00
    out[..., 0, 1] = out[..., 1, 0] = (f1 - f2) * p01
    return out


def exp_sym(mats) -> np.ndarray:
    """Matrix exponential of symmetric matrices (spectral); the result is
    symmetric positive definite.

    Raises
    ------
    OverflowError
        If any exponentiated eigenvalue is not finite.
    """
    def checked_exp(vals):
        with np.errstate(over="ignore"):
            ev = np.exp(vals)
        if not np.all(np.isfinite(ev)):
            raise OverflowError(
                f"matrix exponential overflow (max eigenvalue {vals.max():g})"
            )
        return ev

    return _spectral(mats, checked_exp)


def log_sym(mats) -> np.ndarray:
    """Matrix logarithm of positive semidefinite matrices.

    Eigenvalues below ``EIG_FLOOR`` are clamped to it before taking the
    log, so singular directions come out as large negative log-eigenvalues
    (about -34.5) instead of -inf.
    """
    return _spectral(mats, lambda vals: np.log(np.maximum(vals, EIG_FLOOR)))


def clamp_psd(mats) -> np.ndarray:
    """Project symmetric matrices onto the PSD cone by clamping negative
    eigenvalues at zero."""
    return _spectral(mats, lambda vals: np.maximum(vals, 0.0))


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
    # Read inline rather than through _spec2, whose determinant quotient,
    # hypot and normalised P took a desk iteration from 4.7 to 7.4 ms
    # (median of 10 interleaved solves, one BLAS thread on a 2-core host).
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
    ``(..., 2, 2)`` stack.  It works line by line, so the sums of many
    calls of the summing step can share one log step.  The log goes
    through :func:`_spectral2`, whose weak eigenvalue keeps the relative
    accuracy the log needs."""
    out = _spectral2(s00, s01, s11, lambda vals: np.log(np.maximum(vals, _TINY)))
    out[..., 0, 0] += shift
    out[..., 1, 1] += shift
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
    entries as arrays; :func:`_lse2_log` takes the log of the sum.  Each
    eigen-direction keeps its own exponential, so one far below the shift
    is not lost to cancellation as in the ``cosh``/``sinh`` form of
    ``exp``.  The solvers' d = 2 loops reach both steps through
    ``qot.cost._kernel_lse``, with no kernel stack.  Every other size
    takes the exponentials and the log through :func:`_spectral`.
    """
    a = _dense(mats)
    axis = _normalize_reduce_axis(a, axis)
    if a.shape[-1] == 2:
        return _lse2_log(*_lse2_sums(a[..., 0, 0], a[..., 0, 1], a[..., 1, 1], axis))
    shift = None

    def shifted_exp(vals):
        nonlocal shift
        shift = vals[..., :1].max(axis=axis, keepdims=True)
        return np.exp(vals - shift)

    total = _spectral(a, shifted_exp).sum(axis=axis)
    out = _spectral(total, lambda vals: np.log(np.maximum(vals, _TINY)))
    return out + np.squeeze(shift, axis=axis)[..., None] * np.eye(a.shape[-1])


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
