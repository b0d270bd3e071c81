"""Shared instance builders for solver, barycenter and acceptance tests."""

import math
from dataclasses import replace
from itertools import product as _cell_offsets_product

import numpy as np

from qot import solver
from qot.cost import _kernel_lse, euclidean_cost, kernel
from qot.measure import TensorMeasure
from qot.sym import log_sym, lse_reduce, lste_reduce


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


def _trace_solve(mu, nu, cost, cfg, half_steps):
    """Run a trace-constrained map through the solver's loop and
    finalisation.  ``half_steps(x, gap, trace_step)`` maps the point
    ``(u, v, alpha, beta)`` to the new ``(u, v, alpha, beta)``, the
    column-potential change and the two multiplier steps; ``gap(x, axis)``
    and ``trace_step(x, axis)`` reduce the dual kernel at ``x`` against the
    inputs, as ``LSE - log target`` and ``eps * (LSTE - log tr target)``.
    The steps are then re-centred as the solver does.  Returns the
    coupling, the dual state and a report with no notes."""
    cfg = replace(cfg, trace_constrained=True)
    log_tr = [np.log(np.trace(m.tensors, axis1=-2, axis2=-1)) for m in (nu, mu)]
    log_target = [log_sym(nu.tensors), log_sym(mu.tensors)]

    def dual_kernel(x):
        return kernel(*solver._kernel_terms(*x, cfg), cost, cfg.eps)

    def gap(x, axis):
        return lse_reduce(dual_kernel(x), axis=axis) - log_target[axis]

    def trace_step(x, axis):
        return cfg.eps * (lste_reduce(dual_kernel(x), axis=axis) - log_tr[axis])

    def step(point):
        (u, v, alpha, beta), res, step_a, step_b = half_steps(point, gap, trace_step)
        center = 0.5 * (float(beta.mean()) - float(alpha.mean()))
        alpha = alpha + center
        beta = beta - center
        res = max(res, float(np.abs(step_a).max()), float(np.abs(step_b).max()))
        return (u, v, alpha, beta), res

    d, rows, cols = mu.tensor_dim, mu.n_atoms, nu.n_atoms
    point = (np.zeros((rows, d, d)), np.zeros((cols, d, d)),
             np.zeros(rows), np.zeros(cols))
    image, history, converged, _ = solver._scale(step, point, cfg)
    state = solver.DualState(*image)
    coupling, _, primal, dual = solver._certify(state, mu, nu, cost, cfg)
    return coupling, state, solver._report(cfg, history, converged, primal, dual, [])


def trace_solve_full_stack(mu, nu, cost, cfg):
    """Reference for the trace-constrained map of
    ``qot.solver.sinkhorn_solve``, in its order: each multiplier steps
    before its side's potential.  Every LSE and every multiplier step
    reduces a kernel stack rebuilt at the current point, so neither
    identity the solver's step rests on (a multiplier step read off the
    half-step's LSE, and that LSE moved by the step) is used.  Returns as
    :func:`_trace_solve`."""
    def half_steps(x, gap, trace_step):
        u, v, alpha, beta = x
        step_a = trace_step((u, v, alpha, beta), 1)
        alpha = alpha + step_a
        u = cfg.relax(1, u, gap((u, v, alpha, beta), 1))
        step_b = trace_step((u, v, alpha, beta), 0)
        beta = beta + step_b
        v_new = cfg.relax(2, v, gap((u, v, alpha, beta), 0))
        return (u, v_new, alpha, beta), float(np.abs(v_new - v).max()), step_a, step_b
    return _trace_solve(mu, nu, cost, cfg, half_steps)


def trace_solve_four_eigh(mu, nu, cost, cfg):
    """The trace-constrained map the solver ran before its multiplier
    steps were read off the kernel LSEs, in that order: each multiplier
    steps after its side's potential, on a kernel rebuilt and decomposed
    in full.  Same fixed point, a different iteration.  Returns as
    :func:`_trace_solve`."""
    def half_steps(x, gap, trace_step):
        u, v, alpha, beta = x
        u = cfg.relax(1, u, gap((u, v, alpha, beta), 1))
        step_a = trace_step((u, v, alpha, beta), 1)
        alpha = alpha + step_a
        v_new = cfg.relax(2, v, gap((u, v, alpha, beta), 0))
        step_b = trace_step((u, v_new, alpha, beta), 0)
        beta = beta + step_b
        return (u, v_new, alpha, beta), float(np.abs(v_new - v).max()), step_a, step_b
    return _trace_solve(mu, nu, cost, cfg, half_steps)


def barycenter_loop(prob, cfg=None):
    """Reference for ``qot.barycenter.barycenter_solve``: the per-input map
    it replaced, in which each input makes its own two kernel-LSEs per
    iteration and the state is a tuple of per-input arrays, run through the
    same loop and finalisation.  It is kept as it was but for the solver's
    names, qualified here, and ``_kernel_lse``'s cost argument, now the
    cost's values.  It runs every input, zero weights included,
    so it is the reference for weights that are all positive.  Returns
    ``(nu, report)``."""
    cfg = replace(cfg or solver.SolverConfig(), rho2=math.inf)
    d = prob.tensor_dim
    n_support = len(prob.support)
    n_inputs = prob.n_inputs
    log_mu = [log_sym(m.tensors) for m in prob.inputs]
    log_nu = None

    def step(point):
        nonlocal log_nu
        u, v = list(point[:n_inputs]), list(point[n_inputs:])
        lse_cols = []
        res = 0.0
        for idx in range(n_inputs):
            cost = prob.costs[idx]
            rows, cols = solver._kernel_terms(u[idx], v[idx], None, None, cfg)
            lse_rows = _kernel_lse(rows, cols, cost.values, cfg.eps, 1)
            u_new = cfg.relax(1, u[idx], lse_rows - log_mu[idx])
            res = max(res, float(np.abs(u_new - u[idx]).max()))
            u[idx] = u_new
            rows, cols = solver._kernel_terms(u_new, v[idx], None, None, cfg)
            lse_cols.append(_kernel_lse(rows, cols, cost.values, cfg.eps, 0))

        log_nu = sum(w * (lse_cols[idx] + v[idx] / cfg.eps)
                     for idx, w in enumerate(prob.weights))

        for idx in range(n_inputs):
            v_new = cfg.relax(2, v[idx], lse_cols[idx] - log_nu)
            res = max(res, float(np.abs(v_new - v[idx]).max()))
            v[idx] = v_new
        return tuple(u) + tuple(v), res

    point = (tuple(np.zeros((m.n_atoms, d, d)) for m in prob.inputs)
             + tuple(np.zeros((n_support, d, d)) for _ in range(n_inputs)))
    image, history, converged, loop_notes = solver._scale(step, point, cfg)

    notes = ["barycenter side uses a hard marginal constraint"] + loop_notes
    tensors, hit = solver._exp_capped(log_nu)
    if hit:
        notes.append("barycenter saturated at exp(700) in unconverged directions")
    nu = TensorMeasure(prob.support, tensors)

    states = tuple(
        solver.DualState(u, v, np.zeros(len(u)), np.zeros(n_support))
        for u, v in zip(image[:n_inputs], image[n_inputs:]))
    primal = dual = 0.0
    for state, measure, cost, w in zip(states, prob.inputs, prob.costs,
                                       prob.weights):
        _, extra, p, q = solver._certify(state, measure, nu, cost, cfg)
        notes += [note for note in extra if note not in notes]
        primal += float(w) * p
        dual += float(w) * q
    return nu, solver._report(cfg, history, converged, primal, dual, notes, states)
