"""Shared instance builders for solver, barycenter and acceptance tests."""

from dataclasses import replace
from itertools import product as _cell_offsets_product

import numpy as np

from qot import solver
from qot.cost import _kernel_lse, euclidean_cost, kernel
from qot.measure import TensorMeasure
from qot.sym import eig_sym, log_sym


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def oriented_tensor(theta, lam1, lam2):
    r = rotation(theta)
    return r @ np.diag([lam1, lam2]) @ r.T


def random_psd(rng, d, n=None, lo=0.3, hi=1.7):
    shape = (d, d) if n is None else (n, d, d)
    q, _ = np.linalg.qr(rng.standard_normal(shape))
    lam = rng.uniform(lo, hi, size=q.shape[:-1])
    out = (q * lam[..., None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def random_measure(rng, n_atoms, d, ambient=2):
    points = rng.uniform(size=(n_atoms, ambient))
    return TensorMeasure(points, random_psd(rng, d, n=n_atoms))


def random_instance(rng, rows, cols, d, ambient=2, alpha=2.0):
    mu = random_measure(rng, rows, d, ambient)
    nu = random_measure(rng, cols, d, ambient)
    cost = euclidean_cost(mu.points, nu.points, alpha=alpha)
    return mu, nu, cost


def trace_balanced_instance(rng, rows, cols, d, ambient=2, alpha=2.0):
    """Random instance rescaled so total traces agree (required for the
    trace-constrained problem to be feasible)."""
    mu, nu, cost = random_instance(rng, rows, cols, d, ambient, alpha)
    total_mu = np.trace(mu.tensors, axis1=-2, axis2=-1).sum()
    total_nu = np.trace(nu.tensors, axis1=-2, axis2=-1).sum()
    nu = TensorMeasure(nu.points, nu.tensors * (total_mu / total_nu))
    return mu, nu, cost


def heavy_line_measure(n=40, mass=1e305):
    """``n`` atoms on the unit segment, each carrying ``mass * I`` (d = 2):
    the default solve converges with a finite dual value, but the coupling's
    entropy overflows, so the primal value is ``+inf``."""
    points = np.stack([np.linspace(0.0, 1.0, n), np.zeros(n)], axis=1)
    return TensorMeasure(points, np.stack([mass * np.eye(2)] * n))


def scalar_measure(masses, points=None):
    """A d=1 measure from positive scalar masses on a 1-D axis."""
    masses = np.asarray(masses, dtype=float)
    if points is None:
        points = np.linspace(0.0, 1.0, len(masses))[:, None]
    return TensorMeasure(np.asarray(points, float), masses[:, None, None])


def two_bump_line_instance(n=32, ratio=4.0):
    """1-D instance with two anisotropic d=2 bumps: mass concentrated at
    x=0.3 with horizontal ellipses, and at x=0.7 with rotating ones."""
    x = np.linspace(0.0, 1.0, n)
    points = x[:, None]

    mass_mu = np.exp(-((x - 0.3) ** 2) / (2 * 0.08**2)) + 0.05
    mass_nu = np.exp(-((x - 0.7) ** 2) / (2 * 0.08**2)) + 0.05
    mu_tensors = np.stack(
        [m * oriented_tensor(0.0, 1.0, 1.0 / ratio) for m in mass_mu]
    )
    nu_tensors = np.stack(
        [
            m * oriented_tensor(0.5 * np.pi * t, 1.0, 1.0 / ratio)
            for m, t in zip(mass_nu, x)
        ]
    )
    mu = TensorMeasure(points, mu_tensors)
    nu = TensorMeasure(points, nu_tensors)
    cost = euclidean_cost(points, points, alpha=2.0)
    return mu, nu, cost


def grid_points(n_side):
    axis = np.linspace(0.0, 1.0, n_side)
    gx, gy = np.meshgrid(axis, axis, indexing="xy")
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def bump_grid_measure(n_side, center, theta, ratio=4.0, width=0.18, floor=0.05):
    """A 2-D grid field with one anisotropic Gaussian bump of mass."""
    pts = grid_points(n_side)
    dist2 = ((pts - np.asarray(center)) ** 2).sum(axis=1)
    mass = np.exp(-dist2 / (2 * width**2)) + floor
    base = oriented_tensor(theta, 1.0, 1.0 / ratio)
    return TensorMeasure(pts, np.stack([m * base for m in mass]))


def fit_log_slope(residuals, skip=10):
    """Least-squares slope and R^2 of log10(residuals) vs iteration."""
    r = np.asarray(residuals)[skip:]
    y = np.log10(r)
    t = np.arange(len(y), dtype=float)
    design = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(((y - fitted) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def merge_atoms_loop(points, tensors, radius):
    """Reference for ``qot.interpolate._merge_atoms``: the per-atom greedy
    loop it replaced, kept verbatim.  Greedy sequential clustering: an atom
    joins the earliest-created cluster whose representative lies strictly
    within ``radius`` (found through a spatial hash with cells of size
    ``radius``); positions merge by trace weight (plain mean for zero-trace
    clusters)."""
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


def trace_solve_four_eigh(mu, nu, cost, cfg):
    """Reference for the trace-constrained map of
    ``qot.solver.sinkhorn_solve``: the step it replaced, kept verbatim but
    for the relaxations, now ``SolverConfig.relax``, in which each of the
    four half-steps rebuilds the kernel and decomposes it in full (two
    LSEs and two log-sum-trace-exps of ``eig_sym`` values), run through
    the same loop and finalisation.  Returns the coupling, the
    dual state, the iteration count and the primal and dual values."""
    cfg = replace(cfg, trace_constrained=True)
    log_tr_mu = np.log(np.trace(mu.tensors, axis1=-2, axis2=-1))
    log_tr_nu = np.log(np.trace(nu.tensors, axis1=-2, axis2=-1))
    log_mu, log_nu = log_sym(mu.tensors), log_sym(nu.tensors)

    def lste_reduce(k, axis):
        return solver._lste_values(eig_sym(k).values, axis)

    def dual_kernel(u, v, alpha, beta):
        return kernel(*solver._kernel_terms(u, v, alpha, beta, cfg), cost, cfg.eps)

    def kernel_lse(u, v, alpha, beta, axis):
        terms = solver._kernel_terms(u, v, alpha, beta, cfg)
        return _kernel_lse(*terms, cost, cfg.eps, axis)

    def step(point):
        u, v, alpha, beta = point
        u = cfg.relax(1, u, kernel_lse(u, v, alpha, beta, 1) - log_mu)
        k = dual_kernel(u, v, alpha, beta)
        step_a = cfg.eps * (lste_reduce(k, axis=1) - log_tr_mu)
        alpha = alpha + step_a
        v_new = cfg.relax(2, v, kernel_lse(u, v, alpha, beta, 0) - log_nu)
        res = float(np.abs(v_new - v).max())
        v = v_new
        k = dual_kernel(u, v, alpha, beta)
        step_b = cfg.eps * (lste_reduce(k, axis=0) - log_tr_nu)
        beta = beta + step_b
        center = 0.5 * (float(beta.mean()) - float(alpha.mean()))
        alpha = alpha + center
        beta = beta - center
        res = max(res, float(np.abs(step_a).max()), float(np.abs(step_b).max()))
        return (u, v, alpha, beta), res

    d, rows, cols = mu.tensor_dim, mu.n_atoms, nu.n_atoms
    point = (np.zeros((rows, d, d)), np.zeros((cols, d, d)),
             np.zeros(rows), np.zeros(cols))
    image, history, _, _ = solver._scale(step, point, cfg)
    state = solver.DualState(*image)
    coupling, _, primal, dual = solver._certify(state, mu, nu, cost, cfg)
    return coupling, state, len(history), primal, dual
