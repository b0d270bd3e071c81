"""Independent checks of the files the ``qot`` CLI writes.

Everything here reads the JSON and SVG files with the standard library and
numpy alone; nothing imports ``qot``.  Each check either returns or raises
:class:`CheckFailed` with a message naming the file and the violated
property.  The checks compare against computations made here (the primal
objective, the trace marginals, the frames, the dropped mass, the centre
barycenter) or against properties the method must have (PSD entries,
mirror symmetry, interpolation endpoints); none compares against stored
copies of earlier output.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

# The CLI defaults the transport workloads run with, and the input-side
# fidelity the lattice workload passes.
EPS = 0.08**2
RHO = 1.0
LATTICE_RHO = 0.1
TRACE_THRESHOLD = 1e-8
STEPS = 9

GAP_TOL = 1e-6
MARGINAL_TOL = 1e-6
PSD_TOL = 1e-10
MIRROR_TOL = 1e-9
REFERENCE_TOL = 1e-6
FRAME_TOL = 1e-9


class CheckFailed(Exception):
    """An output file is missing, malformed or wrong."""


def _output_check(check):
    """Report a file the check cannot take apart (a key missing, an array
    of the wrong shape or type, a singular matrix where the method gives a
    regular one) as :class:`CheckFailed`, like any other wrong output."""
    @functools.wraps(check)
    def wrapper(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except (KeyError, IndexError, TypeError, ValueError,
                np.linalg.LinAlgError) as exc:
            raise CheckFailed(f"malformed output: {type(exc).__name__}: {exc}") from exc
    return wrapper


def _strict_json(path: Path):
    def reject(token):
        raise CheckFailed(f"{path.name}: non-standard JSON constant {token}")

    try:
        return json.loads(path.read_text(), parse_constant=reject)
    except FileNotFoundError:
        raise CheckFailed(f"{path.name}: missing") from None
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name}: invalid JSON ({exc})") from None


def _unpack(packed, d: int, path: Path) -> np.ndarray:
    arr = np.asarray(packed, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != d * (d + 1) // 2:
        raise CheckFailed(f"{path.name}: packed tensors have shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise CheckFailed(f"{path.name}: non-finite tensor entries")
    rows, cols = np.triu_indices(d)
    out = np.zeros((len(arr), d, d))
    out[:, rows, cols] = arr
    out[:, cols, rows] = arr
    return out


def read_field(path: Path):
    """``(points (n, ambient), tensors (n, d, d))`` of a field file."""
    doc = _strict_json(path)
    d = doc["d"]
    points = np.asarray(doc["points"], dtype=float).reshape(-1, doc["n"])
    tensors = _unpack(doc["tensors"], d, path)
    if len(points) != len(tensors) or not np.all(np.isfinite(points)):
        raise CheckFailed(f"{path.name}: points and tensors disagree")
    return points, tensors


def read_coupling(path: Path) -> np.ndarray:
    """Coupling entries shaped ``(rows, cols, d, d)``."""
    doc = _strict_json(path)
    entries = _unpack(doc["entries"], doc["d"], path)
    if len(entries) != doc["rows"] * doc["cols"]:
        raise CheckFailed(f"{path.name}: {len(entries)} entries for "
                          f"{doc['rows']}x{doc['cols']}")
    return entries.reshape(doc["rows"], doc["cols"], doc["d"], doc["d"])


def _require_psd(tensors: np.ndarray, what: str, strict: bool = False) -> None:
    vals = np.linalg.eigvalsh(tensors)
    floor = 0.0 if strict else -PSD_TOL * (1.0 + np.abs(vals).max(axis=-1))
    bad = np.nonzero(vals.min(axis=-1) <= floor if strict
                     else vals.min(axis=-1) < floor)[0]
    if bad.size:
        kind = "positive definite" if strict else "PSD"
        raise CheckFailed(f"{what}: tensor {int(bad[0])} is not {kind} "
                          f"(min eigenvalue {vals[bad[0]].min():.3g})")


def _require_ellipses(path: Path, atoms: int) -> None:
    """The SVG draws one ellipse per atom."""
    try:
        shown = path.read_bytes().count(b"<ellipse ")
    except FileNotFoundError:
        raise CheckFailed(f"{path.name}: missing") from None
    if shown != atoms:
        raise CheckFailed(f"{path.name}: {shown} ellipses for {atoms} atoms")


def _xlogx(vals: np.ndarray) -> np.ndarray:
    lam = np.maximum(vals, 0.0)
    return np.where(lam > 0.0, lam * np.log(np.where(lam > 0.0, lam, 1.0)), 0.0)


def _quantum_kl(p: np.ndarray, q: np.ndarray) -> float:
    """``sum_i tr(P log P - P log Q - P + Q)`` for full-rank ``Q``."""
    q_vals, q_vecs = np.linalg.eigh(q)
    if np.any(q_vals <= 0.0):
        raise CheckFailed("input tensor is singular; the primal is not finite")
    p_rot = np.swapaxes(q_vecs, -1, -2) @ p @ q_vecs
    tr_plogq = np.einsum("...ss,...s->...", p_rot, np.log(q_vals))
    tr_plogp = _xlogx(np.linalg.eigvalsh(p)).sum(axis=-1)
    tr_p = np.trace(p, axis1=-2, axis2=-1)
    tr_q = np.trace(q, axis1=-2, axis2=-1)
    return float((tr_plogp - tr_plogq - tr_p + tr_q).sum())


def primal_objective(gamma, x_mu, mu, x_nu, nu, eps=EPS, rho=RHO) -> float:
    """``<gamma, c> + rho KL(gamma 1 | mu) + rho KL(gamma^T 1 | nu)
    - eps H(gamma)`` with the squared Euclidean cost, from numpy alone."""
    cost = ((x_mu[:, None, :] - x_nu[None, :, :]) ** 2).sum(axis=-1)
    traces = np.trace(gamma, axis1=-2, axis2=-1)
    d = gamma.shape[-1]
    vals = np.linalg.eigvalsh(gamma.reshape(-1, d, d))
    entropy = float((vals - _xlogx(vals)).sum())
    return (float((cost * traces).sum())
            + rho * _quantum_kl(gamma.sum(axis=1), mu)
            + rho * _quantum_kl(gamma.sum(axis=0), nu)
            - eps * entropy)


@_output_check
def check_transport(wd: Path, trace_constrained: bool) -> None:
    """The report is strict JSON and says converged; every coupling entry
    is PSD; the primal objective computed here from the coupling file
    matches the reported dual value within ``GAP_TOL`` (relative); with
    pinned traces, the coupling's trace marginals equal the input traces."""
    x_mu, mu = read_field(wd / "mu.json")
    x_nu, nu = read_field(wd / "nu.json")
    report = _strict_json(wd / "report.json")
    cfg = report["config"]
    if not report["converged"]:
        raise CheckFailed(f"report.json: not converged after "
                          f"{report['iterations']} iterations")
    if (cfg["eps"], cfg["rho1"], cfg["rho2"], cfg["trace_constrained"]) != (
            EPS, RHO, RHO, trace_constrained):
        raise CheckFailed(f"report.json: unexpected solver config {cfg}")
    gamma = read_coupling(wd / "coupling.json")
    if gamma.shape != (len(mu), len(nu)) + mu.shape[1:]:
        raise CheckFailed(f"coupling.json: shape {gamma.shape} does not match "
                          f"the inputs")
    _require_psd(gamma.reshape((-1,) + mu.shape[1:]), "coupling.json")

    dual = float(report["dual_value"])
    primal = primal_objective(gamma, x_mu, mu, x_nu, nu)
    gap = abs(primal - dual) / max(abs(dual), 1e-300)
    if not gap <= GAP_TOL:
        raise CheckFailed(f"coupling.json: primal {primal!r} vs reported dual "
                          f"{dual!r}, relative gap {gap:.3g} > {GAP_TOL}")

    if trace_constrained:
        traces = np.trace(gamma, axis1=-2, axis2=-1)
        for axis, target, name in ((1, mu, "row"), (0, nu, "column")):
            want = np.trace(target, axis1=-2, axis2=-1)
            err = np.abs(traces.sum(axis=axis) - want) / want
            if not err.max() <= MARGINAL_TOL:
                raise CheckFailed(f"coupling.json: {name} trace marginal off by "
                                  f"{err.max():.3g} (relative)")


def expected_frame(x_mu, mu, x_nu, nu, gamma, t, merge):
    """The interpolation frame at ``t``, recomputed here: one atom per pair
    whose trace passes the threshold, at ``(1-t) x_i + t y_j``, carrying
    the symmetric part of ``[(1-t) mu_i R_i^-1 + t nu_j C_j^-1] gamma_ij``
    (``R``, ``C`` the coupling marginals), in row-major pair order.  With
    ``merge``, atoms at the same position (all of these grids' positions
    are multiples of 1/120, so rounding to 1e-6 groups them exactly) are
    summed in order of first appearance.  Finally each atom is projected
    onto the PSD cone."""
    traces = np.trace(gamma, axis1=-2, axis2=-1)
    rows, cols = np.nonzero(traces >= TRACE_THRESHOLD * traces.max())
    mu_bar = mu @ np.linalg.inv(gamma.sum(axis=1))
    nu_bar = nu @ np.linalg.inv(gamma.sum(axis=0))
    prod = ((1.0 - t) * mu_bar[rows] + t * nu_bar[cols]) @ gamma[rows, cols]
    atoms = 0.5 * (prod + np.swapaxes(prod, -1, -2))
    points = (1.0 - t) * x_mu[rows] + t * x_nu[cols]
    if merge:
        _, first, group = np.unique(np.round(points, 6), axis=0,
                                    return_index=True, return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first, kind="stable")] = np.arange(len(first))
        summed = np.zeros((len(first),) + atoms.shape[1:])
        np.add.at(summed, rank[group.reshape(-1)], atoms)
        points, atoms = points[np.sort(first)], summed
    vals, vecs = np.linalg.eigh(atoms)
    atoms = (vecs * np.maximum(vals, 0.0)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    return points, atoms


@_output_check
def check_frames(wd: Path, merge: bool) -> None:
    """Frames of ``interpolate --steps 9 --render``: each frame is PSD, has
    one SVG ellipse per atom and matches :func:`expected_frame` atom for
    atom.  With merging, frames 0 and 8 also reproduce ``mu`` and ``nu``
    atom for atom within the mass the trace threshold drops."""
    x_mu, mu = read_field(wd / "mu.json")
    x_nu, nu = read_field(wd / "nu.json")
    gamma = read_coupling(wd / "coupling.json")
    for k, t in enumerate(np.linspace(0.0, 1.0, STEPS)):
        name = f"frame-{k}.json"
        points, tensors = read_field(wd / name)
        _require_psd(tensors, name)
        _require_ellipses(wd / f"frame-{k}.svg", len(tensors))
        want_pts, want = expected_frame(x_mu, mu, x_nu, nu, gamma, t, merge)
        if points.shape != want_pts.shape or np.abs(points - want_pts).max() > 1e-9:
            raise CheckFailed(f"{name}: {len(points)} atoms where {len(want_pts)} "
                              f"are expected, or atoms off their paths")
        err = float(np.abs(tensors - want).max())
        if not err <= FRAME_TOL * float(np.abs(want).max()):
            raise CheckFailed(f"{name}: a tensor is off its recomputed value "
                              f"by {err:.3g}")
        if merge and k in (0, STEPS - 1):
            _check_endpoint(name, points, tensors, gamma, *(
                (x_mu, mu, 1) if k == 0 else (x_nu, nu, 0)))


def _check_endpoint(name, points, tensors, gamma, x_in, t_in, axis):
    """Each endpoint atom sits on its input point and differs from the
    input tensor by at most ``||P_i|| ||G_i^-1|| ||D_i||``, with ``G_i``
    the coupling marginal and ``D_i`` the part of it that the trace
    threshold dropped (a factor 2 covers rounding)."""
    # Merging keeps first-occurrence order among the kept pairs, so atoms
    # are matched to input points by position.
    index = {tuple(p): i for i, p in enumerate(x_in)}
    order = [index.get(tuple(p), -1) for p in points]
    if sorted(order) != list(range(len(x_in))):
        raise CheckFailed(f"{name}: {len(points)} atoms do not sit one each "
                          f"on the {len(x_in)} input points")
    traces = np.trace(gamma, axis1=-2, axis2=-1)
    dropped = traces < TRACE_THRESHOLD * traces.max()
    lost = np.where(dropped[..., None, None], gamma, 0.0).sum(axis=axis)
    inv_norm = 1.0 / np.linalg.eigvalsh(gamma.sum(axis=axis))[:, 0]
    bound = (np.linalg.norm(t_in, ord=2, axis=(1, 2)) * inv_norm
             * np.linalg.norm(lost, axis=(1, 2)))[order]
    scale = np.linalg.norm(t_in[order], axis=(1, 2))
    err = np.linalg.norm(tensors - t_in[order], axis=(1, 2))
    bad = np.nonzero(err > 2.0 * bound + 1e-12 * scale)[0]
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(f"{name}: atom {i} is {err[i]:.3g} off its input "
                          f"(dropped-mass bound {bound[i]:.3g})")


def _sym_fn(mats: np.ndarray, fn) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mats)
    return (vecs * fn(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def _matrix_lse(mats: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum_k exp(M_k))`` along ``axis`` of a stack of symmetric
    matrices, shifted by the largest eigenvalue for range."""
    vals, vecs = np.linalg.eigh(mats)
    shift = vals.max()
    total = ((vecs * np.exp(vals - shift)[..., None, :])
             @ np.swapaxes(vecs, -1, -2)).sum(axis=axis)
    return _sym_fn(total, np.log) + shift * np.eye(mats.shape[-1])


def reference_barycenter(points, inputs, weights, rho=LATTICE_RHO) -> np.ndarray:
    """The barycenter on ``points`` of the tensor fields ``inputs`` (all on
    ``points``), from numpy alone.  It minimises
    ``sum_l w_l [<gamma_l, c> + rho KL(gamma_l 1 | mu_l) - eps H(gamma_l)]``
    over couplings whose column marginals all equal the barycenter, with the
    squared Euclidean cost and the CLI's eps.  Its optimality conditions, with
    ``gamma_l,ij = exp((F_l,i + G_l,j - c_ij I) / eps)``, are
    ``log(gamma_l 1) = log mu_l - F_l / rho``, ``log(gamma_l^T 1) = log nu``
    for every ``l`` and ``sum_l w_l G_l = 0``; this solves them by
    over-relaxed alternating updates, to potential changes below 1e-11."""
    eps, tol, max_iter = EPS, 1e-11, 5000
    d = inputs[0].shape[-1]
    eye = np.eye(d)
    cost = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    cost = cost[..., None, None] * eye
    log_mu = [_sym_fn(m, np.log) for m in inputs]
    f = [np.zeros_like(m) for m in inputs]
    g = [np.zeros_like(m) for m in inputs]
    step = 1.8 * eps * rho / (eps + rho)
    for _ in range(max_iter):
        change = 0.0
        cols = []
        for k in range(len(inputs)):
            exponent = (f[k][:, None] + g[k][None, :] - cost) / eps
            delta = step * (log_mu[k] - f[k] / rho - _matrix_lse(exponent, 1))
            f[k] = f[k] + delta
            change = max(change, float(np.abs(delta).max()))
            cols.append(_matrix_lse((f[k][:, None] + g[k][None, :] - cost) / eps, 0))
        log_nu = sum(w * (c - gk / eps) for w, c, gk in zip(weights, cols, g))
        for k in range(len(inputs)):
            delta = 1.8 * eps * (log_nu - cols[k])
            g[k] = g[k] + delta
            change = max(change, float(np.abs(delta).max()))
        if change < tol:
            return _sym_fn(log_nu, np.exp)
    raise CheckFailed(f"the reference barycenter did not converge in {max_iter} "
                      f"iterations")


def _mirror_index(points: np.ndarray, axis: int) -> np.ndarray:
    reflected = points.copy()
    reflected[:, axis] = 1.0 - reflected[:, axis]
    index = {tuple(p): k for k, p in enumerate(points)}
    try:
        return np.array([index[tuple(p)] for p in reflected])
    except KeyError:
        raise CheckFailed("support is not symmetric about its mid-lines") from None


@_output_check
def check_lattice(wd: Path, grid: int = 3) -> None:
    """Barycenters of ``barycenter --grid`` (odd) over inputs a, b, c, d on
    one support: every tensor is finite and positive definite, one SVG
    ellipse per atom, and the lattice has the inputs' mirror symmetry: the
    barycenter at (t1, t2), reflected across x = 1/2, is the one at
    (1 - t1, t2), and likewise across y = 1/2 for (t1, 1 - t2).  The
    barycenter at (1/2, 1/2) matches :func:`reference_barycenter` within
    ``REFERENCE_TOL`` of its largest entry."""
    support, _ = read_field(wd / "a.json")
    fields = []
    for k in range(grid * grid):
        points, tensors = read_field(wd / f"bary-{k}.json")
        if not np.array_equal(points, support):
            raise CheckFailed(f"bary-{k}.json: atoms are not on the support")
        _require_psd(tensors, f"bary-{k}.json", strict=True)
        _require_ellipses(wd / f"bary-{k}.svg", len(tensors))
        fields.append(tensors)
    scale = max(float(np.abs(f).max()) for f in fields)
    for axis in (0, 1):
        source = _mirror_index(support, axis)
        flip = np.ones(support.shape[1])
        flip[axis] = -1.0
        for i1 in range(grid):
            for i2 in range(grid):
                k = i1 * grid + i2
                m = ((grid - 1 - i1) * grid + i2 if axis == 0
                     else i1 * grid + grid - 1 - i2)
                mirrored = fields[k][source] * flip[:, None] * flip[None, :]
                err = float(np.abs(mirrored - fields[m]).max())
                if not err <= MIRROR_TOL * scale:
                    raise CheckFailed(
                        f"bary-{k}.json mirrored across "
                        f"{'x' if axis == 0 else 'y'} = 1/2 differs from "
                        f"bary-{m}.json by {err:.3g}")
    # The mirror checks cannot see an error that is itself symmetric, such
    # as a wrong eps or rho, so the centre is also compared with a
    # barycenter computed here.
    inputs = []
    for name in ("a", "b", "c", "d"):
        points, tensors = read_field(wd / f"{name}.json")
        if not np.array_equal(points, support):
            raise CheckFailed(f"{name}.json: atoms are not on the support")
        inputs.append(tensors)
    centre = grid * grid // 2
    want = reference_barycenter(support, inputs, (0.25,) * 4)
    err = float(np.abs(fields[centre] - want).max())
    if not err <= REFERENCE_TOL * float(np.abs(want).max()):
        raise CheckFailed(f"bary-{centre}.json differs from the reference "
                          f"barycenter by {err:.3g}")
