"""Ground costs and the dual kernel map.

Costs are either isotropic (a scalar per pair, meaning that scalar times
the identity matrix) or full symmetric matrices per pair.  All experiments
of interest use isotropic costs, which are stored as plain scalars and
expanded lazily into the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import _check_symmetric

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
            if not np.all(np.isfinite(values)) or np.any(values < 0.0):
                raise ValueError("isotropic cost values must be finite and >= 0")
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
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    diff = xs[:, None, :] - ys[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return GroundCost("isotropic", dist**alpha)


def from_distance_matrix(dist, alpha: float = 2.0) -> GroundCost:
    """Isotropic cost ``d_ij^alpha`` from a precomputed distance matrix;
    this is the supported path for curved domains (e.g. geodesic
    distances).  The exponent defaults to 2, as in
    :func:`euclidean_cost`."""
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2:
        raise ValueError(f"distance matrix must be 2-D, got {dist.shape}")
    if np.any(dist < 0.0) or not np.all(np.isfinite(dist)):
        raise ValueError("distance entries must be finite and >= 0")
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    return GroundCost("isotropic", dist**alpha)


def _kernel_args(u, v, cost: GroundCost, alpha=None, beta=None):
    """The potentials ``u`` (I, d, d) and ``v`` (J, d, d) of a dual kernel
    and its trace multipliers ``alpha`` (I,) and ``beta`` (J,), given
    together or not at all, as float arrays checked against ``cost``."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.ndim != 3 or v.ndim != 3 or u.shape[-1] != v.shape[-1]:
        raise ValueError(
            f"potentials must be (I, d, d) and (J, d, d), got {u.shape}, {v.shape}"
        )
    if cost.rows != u.shape[0] or cost.cols != v.shape[0]:
        raise ValueError(
            f"cost is {cost.rows}x{cost.cols} but potentials have "
            f"{u.shape[0]} and {v.shape[0]} entries"
        )
    if alpha is not None or beta is not None:
        alpha = np.asarray(alpha, dtype=float)
        beta = np.asarray(beta, dtype=float)
        if alpha.shape != (u.shape[0],) or beta.shape != (v.shape[0],):
            raise ValueError(
                f"multipliers must have shapes ({u.shape[0]},) and ({v.shape[0]},), "
                f"got {alpha.shape}, {beta.shape}"
            )
    return u, v, alpha, beta


def kernel(u, v, cost: GroundCost, eps: float, rho1: float, rho2: float,
           alpha=None, beta=None) -> np.ndarray:
    """Dual kernel ``K_ij = -(c_ij + rho1 u_i + rho2 v_j + alpha_i I +
    beta_j I) / eps``: one symmetric (not necessarily PSD) matrix per pair,
    shape (I, J, d, d).  The scalar trace multipliers ``alpha`` (shape
    (I,)) and ``beta`` (shape (J,)) are given together or not at all."""
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    u, v, alpha, beta = _kernel_args(u, v, cost, alpha, beta)
    s = rho1 * u[:, None] + rho2 * v[None, :]
    idx = np.arange(u.shape[-1])
    if cost.kind == "isotropic":
        s[..., idx, idx] += cost.values[..., None]
    else:
        s = s + cost.values
    if alpha is not None:
        s[..., idx, idx] += (alpha[:, None] + beta[None, :])[..., None]
    return s / (-eps)
