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

from .measure import (Coupling, TensorMeasure, _as_tensor_stack, _check_coupling,
                      marginal_cols, marginal_rows)
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

    ``trace_threshold`` (finite, >= 0) drops coupling pairs whose trace
    falls below ``trace_threshold * max_pair_trace`` before atoms are built;
    ``merge_radius`` merges output atoms strictly closer than the radius,
    summing their tensors (0 disables merging, ``inf`` merges every atom
    into one).
    """

    t: float
    trace_threshold: float = 1e-8
    merge_radius: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise ValueError("t must lie in [0, 1]")
        if not (math.isfinite(self.trace_threshold)
                and self.trace_threshold >= 0.0):
            raise ValueError("trace_threshold must be finite and >= 0")
        if not self.merge_radius >= 0.0:
            raise ValueError("merge_radius must be >= 0 (inf merges all)")


# Eigenvalues below this fraction of the largest are clamped before a
# marginal is inverted.
_INV_FLOOR = 1e-12


def _clamped_inverse(mats: np.ndarray) -> np.ndarray:
    """Inverses of near-PSD matrices with eigenvalues clamped at
    ``_INV_FLOOR * lambda_max``; an (all-but-)zero matrix inverts to zero,
    which silently drops the corresponding massless coupling row."""
    vals, vecs = eig_sym(mats)
    lam_max = vals[..., :1]
    dead = lam_max <= 1e-300
    floor = np.where(dead, 1.0, _INV_FLOOR * np.abs(lam_max))
    inv = np.where(dead, 0.0, 1.0 / np.maximum(vals, floor))
    return _reconstruct(inv, vecs)


def _raw_interpolation_products(mu: TensorMeasure, nu: TensorMeasure,
                                g: Coupling, t: float, rows: np.ndarray,
                                cols: np.ndarray) -> np.ndarray:
    """The unsymmetrized products
    ``[(1-t) mu_i (sum_j gamma_ij)^-1 + t nu_j (sum_i gamma_ij)^-1] gamma_ij``
    of the pairs ``(rows[k], cols[k])`` (diagnostic view; the interpolant
    symmetrizes and PSD-projects them)."""
    mu_bar = mu.tensors @ _clamped_inverse(marginal_rows(g))
    nu_bar = nu.tensors @ _clamped_inverse(marginal_cols(g))
    mix = (1.0 - t) * mu_bar[rows] + t * nu_bar[cols]
    return mix @ g.entries[rows, cols]


# Atoms are clustered in index-ordered blocks of this many cell probes
# (3**k per atom in k dimensions; _greedy_reps).
_MERGE_PROBES = 1 << 13
# A block is cut short where its atoms would have more candidate pairs than
# this, which bounds the memory of dense blocks.
_MERGE_PAIRS = 1 << 16
# Clusters with at least this many members take numpy's own reductions,
# which sum 1-D runs of 8 or more terms pairwise; smaller ones are summed
# in array form in the same (sequential, from 0.0) order.
_PAIRWISE_MIN = 8


def _cell_keys(points: np.ndarray, radius: float):
    """Integer keys of grid cells and the key offsets of the ``3**k``
    neighbouring cells.  Cells are at least ``2 * radius`` wide, so a pair
    closer than ``radius`` lies in the same or adjacent cells despite the
    rounding of the cell coordinates, and no finer than ``2**-bits`` of the
    points' extent, so the keys fit in int64 at any radius."""
    k = points.shape[1]
    if k > 12:
        raise ValueError(f"cannot merge atoms in {k} dimensions (at most 12)")
    bits = min(31, 60 // k)
    lo = points.min(axis=0)
    extent = max(float(h) - float(l) for h, l in zip(points.max(axis=0), lo))
    cell = max(2.0 * radius, math.ldexp(extent, -bits))
    base = (1 << bits) + 3
    weights = base ** np.arange(k, dtype=np.int64)
    keys = (np.floor((points - lo) / cell).astype(np.int64) + 1) @ weights
    offsets = np.array(list(_cell_offsets_product((-1, 0, 1), repeat=k)),
                       dtype=np.int64) @ weights
    return keys, offsets


def _probe(sorted_keys: np.ndarray, keys: np.ndarray, offsets: np.ndarray):
    """Ranges ``[lo, hi)`` of ``sorted_keys`` in each neighbouring cell of
    each key; both have shape ``(len(keys), len(offsets))``."""
    cells = keys[:, None] + offsets
    return (np.searchsorted(sorted_keys, cells, side="left"),
            np.searchsorted(sorted_keys, cells, side="right"))


def _expand(lo: np.ndarray, hi: np.ndarray):
    """All pairs ``(row, position)`` with ``lo[row] <= position < hi[row]``."""
    span = hi - lo
    rows = np.repeat(np.arange(len(lo)), span.sum(axis=1))
    flat = span.ravel()
    starts = np.cumsum(flat) - flat
    pos = np.arange(int(flat.sum())) + np.repeat(lo.ravel() - starts, flat)
    return rows, pos


def _cut(lo: np.ndarray, hi: np.ndarray) -> int:
    """How many leading rows of a probe keep their candidate pairs within
    ``_MERGE_PAIRS`` (at least one)."""
    counts = np.cumsum((hi - lo).sum(axis=1))
    return max(1, int(np.searchsorted(counts, _MERGE_PAIRS, side="right")))


def _closer(points: np.ndarray, a: np.ndarray, b: np.ndarray,
            radius: float) -> np.ndarray:
    """``np.linalg.norm(points[a] - points[b]) < radius`` for each pair.
    The norm takes a BLAS dot product whose rounding (FMA or not) the
    array form cannot promise to match, so distances within 2^-40 relative
    (plus 1e-160, the round-off of subnormal squares) of the radius are
    recomputed with the norm itself."""
    diff = points[a] - points[b]
    with np.errstate(over="ignore"):
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    slack = 2.0**-40
    near = dist < radius * (1.0 - slack) - 1e-160
    unsure = ~near & ~(dist > radius * (1.0 + slack) + 1e-160)
    for u in np.flatnonzero(unsure):
        near[u] = np.linalg.norm(diff[u]) < radius
    return near


def _greedy_reps(points: np.ndarray, radius: float) -> np.ndarray:
    """The representative of each atom under the sequential greedy rule:
    in index order, an atom joins the earliest representative strictly
    closer than ``radius``, or else becomes one.

    Blocks of atoms are settled in index order.  An atom joins the earliest
    representative within ``radius`` among those of earlier blocks, found
    by probing the neighbouring cells (representatives are pairwise
    ``radius`` apart, so a cell of ``2 * radius`` holds a bounded number;
    a block is cut short where its candidate pairs would pass
    ``_MERGE_PAIRS``, which bounds the memory when cells are coarser or
    the atoms dense).  The block's other atoms settle
    among themselves by the rounds of the lexicographically-first maximal
    independent set (Blelloch, Fineman & Shun, SPAA 2012): an atom with an
    earlier representative neighbour joins, one with no undecided earlier
    neighbour becomes a representative."""
    n = len(points)
    keys, offsets = _cell_keys(points, radius)
    rep_of = np.full(n, n)
    rep_keys = np.empty(0, dtype=np.int64)
    rep_ids = np.empty(0, dtype=np.int64)
    block_len = max(1, _MERGE_PROBES // len(offsets))
    start = 0
    while start < n:
        block = np.arange(start, min(start + block_len, n))
        lo, hi = _probe(rep_keys, keys[block], offsets)
        cut = _cut(lo, hi)
        block = block[:cut]
        start = block[-1] + 1
        rows, pos = _expand(lo[:cut], hi[:cut])
        reps = rep_ids[pos]
        near = _closer(points, block[rows], reps, radius)
        np.minimum.at(rep_of, block[rows[near]], reps[near])
        free = block[rep_of[block] == n]
        if not len(free):
            continue

        # Pairs (later, earlier) of free atoms, as positions in ``free``;
        # rows past the cut wait for the next block.
        order = np.argsort(keys[free], kind="stable")
        lo, hi = _probe(keys[free][order], keys[free], offsets)
        cut = _cut(lo, hi)
        if cut < len(free):
            start = free[cut]
            free = free[:cut]
        later, earlier = _expand(lo[:cut], hi[:cut])
        earlier = order[earlier]
        keep = earlier < later
        later, earlier = later[keep], earlier[keep]
        near = _closer(points, free[later], free[earlier], radius)
        later, earlier = later[near], earlier[near]

        m = len(free)
        undecided = np.ones(m, dtype=bool)
        is_rep = np.zeros(m, dtype=bool)
        live_l, live_e = later, earlier
        while True:
            blocked = np.zeros(m, dtype=bool)
            blocked[live_l[undecided[live_e]]] = True
            is_rep |= undecided & ~blocked
            joined = np.zeros(m, dtype=bool)
            joined[live_l[is_rep[live_e]]] = True
            undecided &= ~(is_rep | joined)
            if not undecided.any():
                break
            live = undecided[live_l] & undecided[live_e]
            live_l, live_e = live_l[live], live_e[live]

        first = np.full(m, m)
        to_rep = is_rep[earlier]
        np.minimum.at(first, later[to_rep], earlier[to_rep])
        first[is_rep] = np.flatnonzero(is_rep)
        rep_of[free] = free[first]
        rep_keys = np.concatenate([rep_keys, keys[free[is_rep]]])
        rep_ids = np.concatenate([rep_ids, free[is_rep]])
        order = np.argsort(rep_keys, kind="stable")
        rep_keys, rep_ids = rep_keys[order], rep_ids[order]
    return rep_of


def _merge_atoms(points: np.ndarray, tensors: np.ndarray, radius: float):
    """Merge atoms strictly closer than ``radius``, greedily: in index
    order, each atom joins the earliest-created cluster whose
    representative (its first atom) lies strictly within ``radius``
    (``np.linalg.norm(x - rep) < radius``), or starts a new cluster.
    Clusters come out in creation order, with summed tensors and
    trace-weighted mean positions (the plain mean for clusters whose
    total trace is not positive).  Exactly coincident atoms collapse
    first.  The cost grows with the number of atom pairs closer than the
    radius; ``radius = inf`` gives one cluster.  The tests compare the
    result byte for byte with a per-atom reference loop."""
    # Exactly coincident positions always join the same cluster, so they
    # collapse first; the greedy pass runs on the first-occurrence-ordered
    # reduced set.
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

    rep_of = _greedy_reps(points, radius)
    is_rep = rep_of == np.arange(len(points))
    cluster = (np.cumsum(is_rep) - 1)[rep_of]
    n_out = int(is_rep.sum())
    sizes = np.bincount(cluster, minlength=n_out)
    members = np.argsort(cluster, kind="stable")
    starts = np.cumsum(sizes) - sizes

    # numpy's sums start from 0.0 and add in order below _PAIRWISE_MIN
    # terms; each step r adds the r-th member of every cluster that has one.
    small = np.flatnonzero(sizes < _PAIRWISE_MIN)
    steps = []
    for r in range(int(sizes[small].max(initial=0))):
        rows = small[sizes[small] > r]
        steps.append((rows, members[starts[rows] + r]))
    weights = np.trace(tensors, axis1=-2, axis2=-1)
    out_tensors = np.zeros((n_out,) + tensors.shape[1:])
    totals = np.zeros(n_out)
    for rows, at in steps:
        out_tensors[rows] += tensors[at]
        totals[rows] += weights[at]
    weighted = totals > 0.0
    out_points = np.zeros((n_out, points.shape[1]))
    for rows, at in steps:
        w = weighted[rows]
        out_points[rows[w]] += points[at[w]] * (
            weights[at[w]] / totals[rows[w]])[:, None]
        out_points[rows[~w]] += points[at[~w]]
    plain = small[~weighted[small]]
    out_points[plain] /= sizes[plain][:, None]

    for c in np.flatnonzero(sizes >= _PAIRWISE_MIN):
        sel = members[starts[c]:starts[c] + sizes[c]]
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
    if not mu.tensor_dim == nu.tensor_dim == g.tensor_dim:
        raise ValueError(f"tensor dimensions differ: {mu.tensor_dim} vs "
                         f"{nu.tensor_dim}, coupling {g.tensor_dim}")
    _check_coupling(g, mu, nu)
    t = p.t
    traces = np.trace(g.entries, axis1=-2, axis2=-1)
    max_trace = float(traces.max(initial=0.0))
    if max_trace <= 0.0:
        return TensorMeasure(
            np.empty((0, mu.ambient_dim)), np.empty((0,) + mu.tensors.shape[1:])
        )
    # Row-major, the order of the pairs in the coupling.
    rows, cols = np.nonzero(traces >= p.trace_threshold * max_trace)
    raw = _raw_interpolation_products(mu, nu, g, t, rows, cols)
    atoms = 0.5 * (raw + np.swapaxes(raw, -1, -2))
    pts = (1.0 - t) * mu.points[rows] + t * nu.points[cols]
    if p.merge_radius > 0.0:
        pts, atoms = _merge_atoms(pts, atoms, p.merge_radius)
    return TensorMeasure(pts, clamp_psd(atoms))


def single_dirac_distance(p, q) -> float:
    """Metric-like discrepancy between two PSD tensors sitting at the same
    location: ``sqrt(tr(P + Q - 2 exp(log P / 2 + log Q / 2)))``.

    For commuting inputs this equals the Frobenius distance of the matrix
    square roots.  The value is homogeneous of degree 1/2: it is computed
    on ``P / c`` and ``Q / c``, with ``c`` the largest entry magnitude of
    either, and scaled back by ``sqrt(c)``, so the eigenvalue floor of the
    logarithm and the round-off tolerance are relative to the pair's
    scale, and no entry can overflow.  A normalised radicand in
    [-1e-12, 0) is clamped to zero; anything more negative raises
    :class:`NumericalConsistencyError`.
    """
    if np.ndim(p) != 2 or np.shape(p) != np.shape(q):
        raise ValueError("expected two square matrices of equal dimension")
    p, q = _as_tensor_stack(p, "first")[0], _as_tensor_stack(q, "second")[0]
    if np.array_equal(p, q):
        # exact value; the generic radicand only reaches ~1e-15 tr(P) here
        return 0.0
    c = max(float(np.abs(p).max()), float(np.abs(q).max()))
    p, q = p / c, q / c
    mean = exp_sym(0.5 * (log_sym(p) + log_sym(q)))
    radicand = float(np.trace(p + q - 2.0 * mean))
    if radicand < -1e-12:
        raise NumericalConsistencyError(
            f"normalised squared distance came out {radicand:g} < -1e-12"
        )
    return math.sqrt(c) * math.sqrt(max(radicand, 0.0))


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
    if not (dt >= 0.0 and math.isfinite(dt)):
        raise ValueError("dt must be finite and >= 0")
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
