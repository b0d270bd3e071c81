"""Tensor-valued measures, couplings, marginalization, quantum entropy
and the quantum Kullback-Leibler divergence.

A tensor-valued measure assigns a PSD matrix (rather than a scalar mass)
to each support point.  Solvers consume :class:`TensorMeasure`; the
entropy / divergence functions consume bare stacks of matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sym import (EIG_FLOOR, KERNEL_TOL, _dense, _not_psd, eig_sym,
                  eigvals_sym, psd_violations)

__all__ = [
    "TensorMeasure",
    "Coupling",
    "marginal_rows",
    "marginal_cols",
    "quantum_entropy",
    "quantum_kl",
    "inner",
    "primal_objective",
]


def _check_symmetric(arr: np.ndarray, what: str) -> None:
    """Reject a stack of square matrices ``(..., d, d)`` with a non-finite
    entry or with a matrix that is not symmetric within
    ``1e-9 * (1 + max |entry|)``; the one symmetry check of the package."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what}: non-finite entry")
    rows, cols = np.triu_indices(arr.shape[-1], 1)
    asym = np.abs(arr[..., rows, cols] - arr[..., cols, rows]).max(initial=0.0)
    scale = 1.0 + max(arr.max(initial=0.0), -arr.min(initial=0.0))
    if asym > 1e-9 * scale:
        raise ValueError(f"{what}: non-symmetric matrix")


def _as_tensor_stack(tensors, what: str = "tensor") -> np.ndarray:
    arr = np.asarray(tensors, dtype=float)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got {arr.shape}")
    _check_symmetric(arr, f"{what} stack")
    return arr


@dataclass(frozen=True)
class TensorMeasure:
    """A discrete tensor-valued measure: support points plus one PSD
    matrix per point.

    Parameters
    ----------
    points : ndarray, shape (n, ambient_dim)
        Support coordinates (conventionally inside the unit cube).
    tensors : ndarray, shape (n, d, d)
        One PSD matrix per point (see :func:`qot.sym.psd_violations`).
    """

    points: np.ndarray
    tensors: np.ndarray

    def __post_init__(self):
        # Shapes are checked before np.ascontiguousarray, which makes a
        # scalar one-dimensional.
        points = np.asarray(self.points, dtype=float)
        tensors = np.asarray(self.tensors, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must be (n, ambient_dim), got {points.shape}")
        if tensors.ndim != 3 or tensors.shape[-1] != tensors.shape[-2]:
            raise ValueError(f"tensors must be (n, d, d), got {tensors.shape}")
        points, tensors = np.ascontiguousarray(points), np.ascontiguousarray(tensors)
        if len(points) != len(tensors):
            raise ValueError(
                f"{len(points)} points but {len(tensors)} tensors"
            )
        if not np.all(np.isfinite(points)):
            raise ValueError("points must be finite")
        _check_symmetric(tensors, "tensors")
        bad = psd_violations(tensors)
        if bad.size:
            idx = int(bad[0])
            raise ValueError(
                f"tensor {idx} is not positive semidefinite "
                f"(min eigenvalue {eigvals_sym(tensors[idx])[-1]:g})"
            )
        points.flags.writeable = False
        tensors.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "tensors", tensors)

    @property
    def n_atoms(self) -> int:
        return len(self.points)

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @property
    def tensor_dim(self) -> int:
        return self.tensors.shape[-1]


@dataclass(frozen=True)
class Coupling:
    """A transport plan: a dense I x J array of PSD matrices, entry (i, j)
    describing how much matrix mass moves from atom i to atom j."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.ascontiguousarray(self.entries, dtype=float)
        if entries.ndim != 4 or entries.shape[-1] != entries.shape[-2]:
            raise ValueError(f"entries must be (I, J, d, d), got {entries.shape}")
        _check_symmetric(entries, "coupling entries")
        bad = psd_violations(entries)
        if bad.size:
            i, j = divmod(int(bad[0]), entries.shape[1])
            raise ValueError(f"coupling entry ({i}, {j}) is not PSD")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @property
    def tensor_dim(self) -> int:
        return self.entries.shape[-1]


def marginal_rows(g: Coupling) -> np.ndarray:
    """Row marginal ``(sum_j gamma_ij)_i``, shape (I, d, d)."""
    return g.entries.sum(axis=1)


def marginal_cols(g: Coupling) -> np.ndarray:
    """Column marginal ``(sum_i gamma_ij)_j``, shape (J, d, d)."""
    return g.entries.sum(axis=0)


def quantum_entropy(tensors) -> float:
    """Von Neumann entropy ``sum_i -tr(P_i log P_i - P_i)`` with the
    ``0 log 0 = 0`` convention.

    Returns ``-inf`` if any input matrix is not PSD, or if a term or the
    sum overflows (every term is below 1, so only downward).
    """
    arr = _as_tensor_stack(tensors)
    if arr.shape[0] == 0:
        return 0.0
    vals = eigvals_sym(arr)
    if np.any(_not_psd(vals)):
        return -math.inf
    lam = np.maximum(vals, 0.0)
    with np.errstate(over="ignore"):
        xlogx = np.where(lam > 0.0, lam * np.log(np.where(lam > 0.0, lam, 1.0)), 0.0)
        return float((lam - xlogx).sum())


def _tr_plogq(p: np.ndarray, q: np.ndarray):
    """Per matrix, ``tr(P log Q)`` extended to singular ``Q`` with
    ``0 * log 0 = 0``, and whether ``ker Q`` lies in ``ker P`` (within
    ``KERNEL_TOL``), the only case in which that trace is finite."""
    q_vals, q_vecs = eig_sym(q)
    is_ker = q_vals <= KERNEL_TOL * np.maximum(q_vals[..., :1], 0.0)
    p_tilde = np.swapaxes(q_vecs, -1, -2) @ p @ q_vecs
    scale = np.abs(p_tilde).max(axis=(-2, -1))
    col_mass = np.abs(p_tilde).max(axis=-2)
    contained = np.all(
        np.where(is_ker, col_mass, 0.0) <= KERNEL_TOL * scale[..., None], axis=-1
    )
    # Zero the kernel rows and columns.  The diagonal stays a strided view:
    # einsum sums a contiguous copy in another order, which moves last bits.
    p_tilde = np.where(is_ker[..., None, :] | is_ker[..., :, None], 0.0, p_tilde)
    diag = np.diagonal(p_tilde, axis1=-2, axis2=-1)
    log_vals = np.where(is_ker, 0.0, np.log(np.maximum(q_vals, EIG_FLOOR)))
    return np.einsum("...s,...s->...", diag, log_vals), contained


def quantum_kl(a, b) -> float:
    """Quantum relative entropy ``sum_i tr(P log P - P log Q - P + Q)``.

    Uses the lower-semicontinuity convention for singular ``Q``: the value
    is finite when ``ker Q`` is contained in ``ker P`` (with ``0 log 0 = 0``)
    and ``+inf`` otherwise.  Non-PSD ``P`` also maps to ``+inf``, and so
    does a term or sum that overflows: each term is nonnegative, and one
    whose parts overflow can come out as ``inf - inf``.
    """
    p = _as_tensor_stack(a, "first")
    q = _as_tensor_stack(b, "second")
    if p.shape != q.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {q.shape}")
    if p.shape[0] == 0:
        return 0.0

    p_vals = eigvals_sym(p)
    if np.any(_not_psd(p_vals)):
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.maximum(p_vals, 0.0)
        tr_plogp = np.where(
            lam > 0.0, lam * np.log(np.where(lam > 0.0, lam, 1.0)), 0.0
        ).sum(axis=-1)

        tr_plogq, contained = _tr_plogq(p, q)
        if not np.all(contained):
            return math.inf

        tr_p = np.trace(p, axis1=-2, axis2=-1)
        tr_q = np.trace(q, axis1=-2, axis2=-1)
        total = float((tr_plogp - tr_plogq - tr_p + tr_q).sum())
    return total if math.isfinite(total) else math.inf


def inner(a, b) -> float:
    """Inner product ``sum_i tr(a_i b_i^T)`` between collections of
    matrices of equal shape."""
    x = _dense(a)
    y = _dense(b)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    return float((x * y).sum())


def _check_coupling(g: Coupling, mu: TensorMeasure, nu: TensorMeasure) -> None:
    """Reject a coupling whose shape is not ``mu``'s atoms by ``nu``'s."""
    if g.rows != mu.n_atoms or g.cols != nu.n_atoms:
        raise ValueError(f"coupling is {g.rows}x{g.cols} but measures have "
                         f"{mu.n_atoms} and {nu.n_atoms} atoms")


def primal_objective(g: Coupling, mu: TensorMeasure, nu: TensorMeasure, cost, cfg) -> float:
    """Entropic-regularized transport objective of a coupling:

    ``<gamma, c> + rho1 KL(gamma 1 | mu) + rho2 KL(gamma^T 1 | nu)
    - eps H(gamma)``.

    A ``rho`` equal to ``inf`` marks a hard marginal constraint; its KL
    term is the constraint indicator and contributes zero here (the solver
    enforces the constraint itself).  ``+inf`` propagates from the KL
    terms when a kernel escapes.
    """
    _check_coupling(g, mu, nu)
    d = g.tensor_dim
    total = cost.contract(g.entries)
    if math.isfinite(cfg.rho1):
        total += cfg.rho1 * quantum_kl(marginal_rows(g), mu.tensors)
    if math.isfinite(cfg.rho2):
        total += cfg.rho2 * quantum_kl(marginal_cols(g), nu.tensors)
    total -= cfg.eps * quantum_entropy(g.entries.reshape(-1, d, d))
    return float(total)
