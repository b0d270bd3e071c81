"""Ground costs and the dual kernel map.

Costs are either isotropic (a scalar per pair, meaning that scalar times
the identity matrix) or full symmetric matrices per pair.  All experiments
of interest use isotropic costs, which are stored as plain scalars and
expanded lazily into the kernel.

The dual kernel ``K_ij = -(c_ij + rows_i + cols_j) / eps`` is written
here only, from the row and column terms the solver forms, in two
layouts: an (I, J, d, d) stack (:func:`kernel`), or for d = 2 entry
arrays fused block by block with the matrix log-sum-exp (:func:`_kernel_lse`).
The private writers also take leading batch axes, so that one call
serves a stack of problems, such as a barycenter's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import _check_symmetric
from .sym import _lse2_log, _lse2_sums, lse_reduce

__all__ = [
    "GroundCost",
    "euclidean_cost",
    "from_distance_matrix",
    "kernel",
]


@dataclass(frozen=True)
class GroundCost:
    """Per-pair transport cost.

    ``kind`` is ``"isotropic"`` (``values`` has shape (I, J), entry c_ij
    meaning ``c_ij * I_d``) or ``"matrix"`` (``values`` has shape
    (I, J, d, d), one symmetric matrix per pair).
    """

    kind: str
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        if self.kind == "isotropic":
            if values.ndim != 2:
                raise ValueError(f"isotropic cost must be (I, J), got {values.shape}")
            _check_distances(values, "isotropic cost values")
        elif self.kind == "matrix":
            if values.ndim != 4 or values.shape[-1] != values.shape[-2]:
                raise ValueError(
                    f"matrix cost must be (I, J, d, d), got {values.shape}"
                )
            _check_symmetric(values, "matrix cost")
        else:
            raise ValueError(f"unknown cost kind {self.kind!r}")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def contract(self, entries: np.ndarray) -> float:
        """Total transport cost ``sum_ij tr(gamma_ij c_ij^T)`` against a
        stack of coupling entries shaped (I, J, d, d)."""
        if entries.shape[:2] != self.values.shape[:2]:
            raise ValueError(
                f"coupling {entries.shape[:2]} does not match cost "
                f"{self.values.shape[:2]}"
            )
        if self.kind == "isotropic":
            traces = np.trace(entries, axis1=-2, axis2=-1)
            return float((self.values * traces).sum())
        return float(np.einsum("ijkl,ijkl->", entries, self.values))


def euclidean_cost(xs, ys, alpha: float = 2.0) -> GroundCost:
    """Isotropic cost ``||x_i - y_j||^alpha``."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(
            f"ambient dimensions differ: {xs.shape[1]} vs {ys.shape[1]}"
        )
    diff = xs[:, None, :] - ys[None, :, :]
    return _power_cost(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), alpha)


def from_distance_matrix(dist, alpha: float = 2.0) -> GroundCost:
    """Isotropic cost ``d_ij^alpha`` from a precomputed distance matrix;
    this is the supported path for curved domains (e.g. geodesic
    distances).  The exponent defaults to 2, as in
    :func:`euclidean_cost`."""
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2:
        raise ValueError(f"distance matrix must be 2-D, got {dist.shape}")
    _check_distances(dist)
    return _power_cost(dist, alpha)


def _check_distances(values: np.ndarray, what: str = "distance entries") -> None:
    """The one rule of distances and isotropic costs: finite and >= 0."""
    if not np.all(np.isfinite(values)) or np.any(values < 0.0):
        raise ValueError(f"{what} must be finite and >= 0")


def _power_cost(dist: np.ndarray, alpha: float) -> GroundCost:
    """The isotropic cost ``dist ** alpha``; the one check of ``alpha``."""
    if not alpha > 0.0:
        raise ValueError("alpha must be > 0")
    return GroundCost("isotropic", dist**alpha)


# Pairs per block of the fused d = 2 kernel-LSE (:func:`_kernel_lse`).
# Every temporary of a block is then 64 KB, under glibc's 128 KB mmap
# threshold, so the heap hands the same memory back from block to block
# instead of mapping fresh pages that fault in on every call.  On a
# 256 x 256 solve 8,192 pairs beat both 2,048 (per-block overhead) and
# one block for the whole kernel.
_LSE_BLOCK = 8192


def kernel(rows, cols, cost: GroundCost, eps: float) -> np.ndarray:
    """Dual kernel ``K_ij = -(c_ij + rows_i + cols_j) / eps`` of the row
    terms (I, d, d) and column terms (J, d, d): one symmetric (not
    necessarily PSD) matrix per pair, shape (I, J, d, d)."""
    if (rows.ndim != 3 or rows.shape[1:] != cols.shape[1:]
            or (len(rows), len(cols)) != (cost.rows, cost.cols)):
        raise ValueError(f"cost is {cost.rows}x{cost.cols} but the kernel "
                         f"terms are {rows.shape} and {cols.shape}")
    return _kernel(rows, cols, cost.kind, cost.values, eps)


def _kernel(rows, cols, kind: str, values, eps: float) -> np.ndarray:
    """:func:`kernel`, unchecked, of terms (..., I, d, d) and (..., J, d, d)
    under the cost ``values`` of ``kind``, (..., I, J) or (..., I, J, d, d):
    shape (..., I, J, d, d).  The operation order, ``rows_i + cols_j``,
    then ``+ c_ij`` (on the diagonal if isotropic), then ``/ (-eps)``, is
    also :func:`_kernel_lse`'s, whose bits depend on it."""
    s = rows[..., :, None, :, :] + cols[..., None, :, :, :]
    if kind == "isotropic":
        idx = np.arange(rows.shape[-1])
        s[..., idx, idx] += values[..., None]
    else:
        s += values
    return s / (-eps)


def _kernel_lse(rows, cols, kind: str, values, eps: float, axis: int) -> np.ndarray:
    """``lse_reduce(_kernel(rows, cols, kind, values, eps), axis - 2)``,
    bit for bit, for terms and cost values of matching shapes with any
    common leading batch axes (unchecked: the solvers' loops call it).

    For d = 2 and an isotropic cost no kernel stack is built: the three
    entry arrays of one block of the kept axis at a time (rows for
    ``axis=1``, columns for ``axis=0``) are written in the operation order
    of :func:`_kernel` and summed by :func:`qot.sym._lse2_sums`, which
    sums each exponential from the entries' eigenvalues and eigenprojector
    weights, into per-call arrays of sums and shifts; one
    :func:`qot.sym._lse2_log` then takes the log of every output line.
    An output line depends only on its own slice, so blocking needs no
    running shift.  A block of columns is at least two wide:
    numpy sums a lone column pairwise, but the columns of a wider array
    one row after another, as it does the whole kernel.  Every other case
    reduces the kernel stack.
    """
    if rows.shape[-1] != 2 or kind != "isotropic":
        return lse_reduce(_kernel(rows, cols, kind, values, eps), axis=axis - 2)
    n_keep = values.shape[-1 - axis]
    width = max(1 if axis == 1 else 2, _LSE_BLOCK // (values.size // n_keep))
    bounds = list(range(0, n_keep, width)) + [n_keep]
    if axis == 0 and bounds[-1] - bounds[-2] == 1 and len(bounds) > 2:
        del bounds[-2]
    # The entry sums s00, s01, s11 and the shift of every output line.
    sums = np.empty((4,) + values.shape[:-2] + (n_keep,))
    for start, stop in zip(bounds, bounds[1:]):
        block = slice(start, stop)
        at_i, at_j = (block, slice(None)) if axis == 1 else (slice(None), block)
        k00, k01, k11 = (rows[..., at_i, None, a, b] + cols[..., None, at_j, a, b]
                         for a, b in ((0, 0), (0, 1), (1, 1)))
        c = values[..., at_i, at_j]
        k00 += c
        k11 += c
        for entry in (k00, k01, k11):
            entry /= -eps
        sums[..., block] = _lse2_sums(k00, k01, k11, axis - 2)
    return _lse2_log(*sums)
