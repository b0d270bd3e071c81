"""Displacement interpolation of tensor measures along a coupling, the
single-Dirac tensor metric, and the diffusion-driven texture demo.

The interpolant places one atom per coupling pair at the linear point
path ``(1-t) x_i + t y_j``, carrying the coupling entry corrected by
marginal adjustment factors so that the path reproduces the inputs
exactly at the endpoints (after merging co-located atoms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _cell_offsets_product

import numpy as np

from .measure import Coupling, TensorMeasure, marginal_cols, marginal_rows
from .sym import clamp_psd, eig_sym, exp_sym, log_sym, _reconstruct

__all__ = [
    "InterpolationParams",
    "NumericalConsistencyError",
    "displacement_interpolate",
    "single_dirac_distance",
    "anisotropic_diffuse",
]


class NumericalConsistencyError(ArithmeticError):
    """A quantity that is nonnegative in exact arithmetic came out
    negative beyond round-off tolerance."""


@dataclass(frozen=True)
class InterpolationParams:
    """Interpolation controls.

    ``trace_threshold`` drops coupling pairs whose trace falls below
    ``trace_threshold * max_pair_trace`` before atoms are built;
    ``merge_radius`` merges output atoms strictly closer than the radius,
    summing their tensors (0 disables merging).
    """

    t: float
    trace_threshold: float = 1e-8
    merge_radius: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        if self.trace_threshold < 0.0:
            raise ValueError("trace_threshold must be >= 0")
        if self.merge_radius < 0.0:
            raise ValueError("merge_radius must be >= 0")


def _clamped_inverse(mats: np.ndarray, rel_floor: float = 1e-12) -> np.ndarray:
    """Inverses of near-PSD matrices with eigenvalues clamped at
    ``rel_floor * lambda_max``; an (all-but-)zero matrix inverts to zero,
    which silently drops the corresponding massless coupling row."""
    vals, vecs = eig_sym(mats)
    lam_max = vals[..., :1]
    dead = lam_max <= 1e-300
    floor = np.where(dead, 1.0, rel_floor * np.abs(lam_max))
    inv = np.where(dead, 0.0, 1.0 / np.maximum(vals, floor))
    return _reconstruct(inv, vecs)


def _raw_interpolation_products(mu: TensorMeasure, nu: TensorMeasure,
                                g: Coupling, t: float) -> np.ndarray:
    """The unsymmetrized per-pair products
    ``[(1-t) mu_i (sum_j gamma_ij)^-1 + t nu_j (sum_i gamma_ij)^-1] gamma_ij``
    (diagnostic view; the interpolant symmetrizes and PSD-projects them)."""
    if g.rows != mu.n_atoms or g.cols != nu.n_atoms:
        raise ValueError(
            f"coupling is {g.rows}x{g.cols} but measures have "
            f"{mu.n_atoms} and {nu.n_atoms} atoms"
        )
    mu_bar = mu.tensors @ _clamped_inverse(marginal_rows(g))
    nu_bar = nu.tensors @ _clamped_inverse(marginal_cols(g))
    mix = (1.0 - t) * mu_bar[:, None] + t * nu_bar[None, :]
    return mix @ g.entries


def _merge_atoms(points: np.ndarray, tensors: np.ndarray, radius: float):
    """Greedy sequential clustering: an atom joins the earliest-created
    cluster whose representative lies strictly within ``radius`` (found
    through a spatial hash with cells of size ``radius``); positions merge
    by trace weight (plain mean for zero-trace clusters)."""
    ambient = points.shape[1]

    # Exactly coincident positions always join the same cluster, so they
    # collapse first (vectorized); the greedy pass then runs on the
    # first-occurrence-ordered reduced set.
    uniq, first, inverse = np.unique(points, axis=0, return_index=True,
                                     return_inverse=True)
    if len(uniq) < len(points):
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[order] = np.arange(len(uniq))
        summed = np.zeros((len(uniq),) + tensors.shape[1:])
        np.add.at(summed, rank[inverse], tensors)
        points = uniq[order]
        tensors = summed

    offsets = list(_cell_offsets_product((-1, 0, 1), repeat=ambient))
    cells: dict[tuple, list[int]] = {}
    reps: list[np.ndarray] = []
    members: list[list[int]] = []
    grid = np.floor(points / radius).astype(np.int64)
    for idx in range(len(points)):
        key = tuple(grid[idx])
        best = -1
        for off in offsets:
            neighbor = tuple(k + o for k, o in zip(key, off))
            for cid in cells.get(neighbor, ()):
                if (best == -1 or cid < best) and (
                    np.linalg.norm(points[idx] - reps[cid]) < radius
                ):
                    best = cid
        if best >= 0:
            members[best].append(idx)
        else:
            cid = len(reps)
            reps.append(points[idx])
            members.append([idx])
            cells.setdefault(key, []).append(cid)
    out_points = np.empty((len(reps), ambient))
    out_tensors = np.empty((len(reps),) + tensors.shape[1:])
    for c, idxs in enumerate(members):
        sel = np.asarray(idxs)
        out_tensors[c] = tensors[sel].sum(axis=0)
        w = np.trace(tensors[sel], axis1=-2, axis2=-1)
        total = w.sum()
        if total > 0.0:
            out_points[c] = (points[sel] * (w / total)[:, None]).sum(axis=0)
        else:
            out_points[c] = points[sel].mean(axis=0)
    return out_points, out_tensors


def displacement_interpolate(mu: TensorMeasure, nu: TensorMeasure,
                             g: Coupling, p: InterpolationParams) -> TensorMeasure:
    """Interpolate between two tensor measures along a coupling.

    Each retained pair (i, j) contributes an atom at
    ``(1-t) x_i + t y_j`` whose tensor is the symmetric part of the
    adjusted coupling entry, projected onto the PSD cone.  Pairs are
    dropped by the relative trace threshold first; merging runs last,
    and the PSD projection acts on the merged sums (it is exact on the
    endpoint sums, which individual indefinite products are not).
    A coupling with zero total trace yields an empty measure.
    """
    if mu.ambient_dim != nu.ambient_dim:
        raise ValueError("ambient dimensions differ")
    t = p.t
    traces = np.trace(g.entries, axis1=-2, axis2=-1)
    max_trace = float(traces.max(initial=0.0))
    if max_trace <= 0.0:
        return TensorMeasure(
            np.empty((0, mu.ambient_dim)), np.empty((0,) + mu.tensors.shape[1:])
        )
    keep = traces >= p.trace_threshold * max_trace

    raw = _raw_interpolation_products(mu, nu, g, t)
    sym = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    positions = (1.0 - t) * mu.points[:, None] + t * nu.points[None, :]

    flat_keep = keep.reshape(-1)
    atoms = sym.reshape((-1,) + sym.shape[2:])[flat_keep]
    pts = positions.reshape(-1, positions.shape[-1])[flat_keep]

    if p.merge_radius > 0.0:
        pts, atoms = _merge_atoms(pts, atoms, p.merge_radius)
    return TensorMeasure(pts, clamp_psd(atoms))


def single_dirac_distance(p, q) -> float:
    """Metric-like discrepancy between two PSD tensors sitting at the same
    location: ``sqrt(tr(P + Q - 2 exp(log P / 2 + log Q / 2)))``.

    For commuting inputs this equals the Frobenius distance of the matrix
    square roots.  A radicand in [-1e-12, 0) is clamped to zero; anything
    more negative raises :class:`NumericalConsistencyError`.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 2:
        raise ValueError("expected two square matrices of equal dimension")
    if np.array_equal(p, q):
        # exact value; the generic radicand only reaches ~1e-15 tr(P) here
        return 0.0
    mean = exp_sym(0.5 * (log_sym(p) + log_sym(q)))
    radicand = float(np.trace(p + q - 2.0 * mean))
    if radicand < -1e-9:
        raise NumericalConsistencyError(
            f"squared distance came out {radicand:g} < -1e-9"
        )
    return math.sqrt(max(radicand, 0.0))


def _grid_shape(field: TensorMeasure):
    """Recognize a regular 2-D grid layout; returns ``(nx, ny, order)``
    with ``order`` mapping grid sites (row-major in y, then x) to atom
    indices.  Raises ``ValueError`` for non-grid fields."""
    if field.ambient_dim != 2:
        raise ValueError("grid fields must have 2-D coordinates")
    xs = np.unique(field.points[:, 0])
    ys = np.unique(field.points[:, 1])
    nx, ny = len(xs), len(ys)
    if nx * ny != field.n_atoms:
        raise ValueError(
            f"{field.n_atoms} atoms do not fill a {nx}x{ny} lattice"
        )
    order = np.lexsort((field.points[:, 0], field.points[:, 1]))
    sorted_pts = field.points[order]
    expected = np.stack(
        [np.tile(xs, ny), np.repeat(ys, nx)], axis=-1
    )
    if not np.array_equal(sorted_pts, expected):
        raise ValueError("points do not form a regular grid")
    return nx, ny, order


def anisotropic_diffuse(field: TensorMeasure, noise_seed: int, steps: int,
                        dt: float) -> np.ndarray:
    """Diffuse seeded white noise with the tensor field as conductivity:
    explicit Euler steps of ``df/dt = div(M grad f)`` on the field's grid
    with periodic boundaries (forward-difference gradient, matching
    backward-difference divergence).

    Textures stretch along each tensor's leading eigenvector.  ``dt`` must
    satisfy the stability bound ``dt <= 0.2 / lambda_max`` over the field.
    Returns the (ny, nx) scalar grid; deterministic for a fixed seed.
    """
    if field.tensor_dim != 2:
        raise ValueError("diffusion requires 2x2 tensors")
    nx, ny, order = _grid_shape(field)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    conduct = field.tensors[order].reshape(ny, nx, 2, 2)
    lam_max = float(eig_sym(conduct).values.max(initial=0.0))
    if lam_max > 0.0 and dt > 0.2 / lam_max:
        raise ValueError(
            f"dt {dt:g} violates the stability bound {0.2 / lam_max:g}"
        )

    rng = np.random.default_rng(noise_seed)
    f = rng.standard_normal((ny, nx))
    m00 = conduct[..., 0, 0]
    m01 = conduct[..., 0, 1]
    m11 = conduct[..., 1, 1]
    for _ in range(steps):
        gx = np.roll(f, -1, axis=1) - f
        gy = np.roll(f, -1, axis=0) - f
        qx = m00 * gx + m01 * gy
        qy = m01 * gx + m11 * gy
        div = qx - np.roll(qx, 1, axis=1) + qy - np.roll(qy, 1, axis=0)
        f = f + dt * div
    return f
