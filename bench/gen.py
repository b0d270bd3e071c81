"""Generate the input fields of one benchmark workload from a seed.

    python bench/gen.py --workload desk --seed 0 --out DIR

Writes the workload's field files into DIR through ``qot.fileio.save_field``
and prints nothing.  The same seed always gives byte-identical files.  The
benchmark times this whole process (interpreter start, the numpy and qot
imports and the writing) as the workload's set-up.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np

from qot import TensorMeasure, save_field


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _oriented(theta: float, lam1: float, lam2: float) -> np.ndarray:
    r = _rotation(theta)
    return r @ np.diag([lam1, lam2]) @ r.T


def _symmetric(t: np.ndarray) -> np.ndarray:
    return 0.5 * (t + np.swapaxes(t, -1, -2))


def grid_points(n_side: int) -> np.ndarray:
    """Regular grid on the unit square, x varying fastest."""
    axis = np.linspace(0.0, 1.0, n_side)
    gx, gy = np.meshgrid(axis, axis, indexing="xy")
    return np.stack([gx.ravel(), gy.ravel()], axis=-1)


def bump_field(n_side, center, theta, d=2, ratio=4.0, width=0.18, floor=0.05):
    """A grid field with one Gaussian bump of mass; every tensor is the mass
    times one ellipse at angle ``theta`` (axes 1 and 1/ratio), with a third
    eigenvalue of 0.5 when ``d`` is 3."""
    pts = grid_points(n_side)
    dist2 = ((pts - np.asarray(center)) ** 2).sum(axis=1)
    mass = np.exp(-dist2 / (2 * width**2)) + floor
    base = 0.5 * np.eye(d)
    base[:2, :2] = _oriented(theta, 1.0, 1.0 / ratio)
    return TensorMeasure(pts, np.stack([m * base for m in mass]))


def desk_fields(seed: int) -> dict:
    """Two 16x16 anisotropic-bump grids (d = 2).  Seed 0 is the pipeline of
    acceptance criterion 12; other seeds move the bumps and turn their
    ellipses slightly, which keeps the solve at about the same length."""
    c_mu, c_nu = np.array([0.3, 0.35]), np.array([0.7, 0.65])
    th_mu, th_nu = 0.0, math.pi / 2.0
    if seed:
        rng = np.random.default_rng(seed)
        c_mu = c_mu + rng.uniform(-0.02, 0.02, 2)
        c_nu = c_nu + rng.uniform(-0.02, 0.02, 2)
        th_mu += float(rng.uniform(-0.1, 0.1))
        th_nu += float(rng.uniform(-0.1, 0.1))
    return {
        "mu": bump_field(16, tuple(c_mu), th_mu),
        "nu": bump_field(16, tuple(c_nu), th_nu),
    }


def _mirror(points: np.ndarray, tensors: np.ndarray, axis: int) -> np.ndarray:
    """Tensors of the field reflected across the mid-line ``x_axis = 1/2``,
    listed in the order of ``points`` (a grid symmetric under the mirror)."""
    reflected = points.copy()
    reflected[:, axis] = 1.0 - reflected[:, axis]
    index = {tuple(p): k for k, p in enumerate(points)}
    source = np.array([index[tuple(p)] for p in reflected])
    flip = np.ones(points.shape[1])
    flip[axis] = -1.0
    return tensors[source] * flip[:, None] * flip[None, :]


LATTICE_SIDE = 5


def lattice_fields(seed: int) -> dict:
    """One random 5x5 grid field of 2x2 tensors and its mirror images across
    the vertical mid-line, the horizontal mid-line and both.  In the order
    a, b, c, d of ``bilinear_weights``: b mirrors a across y = 1/2 and c
    mirrors a across x = 1/2, so the barycenter lattice is symmetric."""
    rng = np.random.default_rng(seed)
    pts = grid_points(LATTICE_SIDE)
    n = len(pts)
    angles = rng.uniform(0.0, math.pi, n)
    lam1 = rng.uniform(0.5, 1.5, n)
    lam2 = lam1 / rng.uniform(2.0, 5.0, n)
    base = _symmetric(np.stack([_oriented(a, l1, l2)
                                for a, l1, l2 in zip(angles, lam1, lam2)]))
    flip_x = _mirror(pts, base, 0)
    return {
        "a": TensorMeasure(pts, base),
        "b": TensorMeasure(pts, _mirror(pts, base, 1)),
        "c": TensorMeasure(pts, flip_x),
        "d": TensorMeasure(pts, _mirror(pts, flip_x, 1)),
    }


DTI_SIDE = 5


def _dti_slice(rng, centre_y: float, heading: float) -> np.ndarray:
    """Tensors of a DTI-like slice on the 5x5 grid: a curved fibre bundle
    of prolate tensors (axial 1.7, radial 0.3, tilted slightly out of the
    plane) crossing a background of nearly isotropic tensors (about 0.8 I)."""
    tensors = []
    for x, y in grid_points(DTI_SIDE):
        if abs(y - centre_y - 0.3 * (x - 0.5) ** 2) <= 0.3:
            phi = heading + 0.8 * (x - 0.5) + rng.uniform(-0.1, 0.1)
            psi = 0.2 + rng.uniform(-0.1, 0.1)
            e = np.array([math.cos(phi) * math.cos(psi),
                          math.sin(phi) * math.cos(psi), math.sin(psi)])
            axial = 1.7 * rng.uniform(0.9, 1.1)
            radial = 0.3 * rng.uniform(0.9, 1.1)
            t = radial * np.eye(3) + (axial - radial) * np.outer(e, e)
        else:
            t = np.diag(0.8 * rng.uniform(0.9, 1.1, 3))
        tensors.append(t)
    return _symmetric(np.array(tensors))


def _rotation3(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0.0 else -q


def dti_fields(seed: int) -> dict:
    """Two neighbouring DTI-like slices of 3x3 tensors on a 5x5 grid.  The
    bundle shifts and turns between them; the second slice is rescaled to
    the first one's total trace, which the trace-constrained solve needs.

    The anatomy is fixed.  A seed other than 0 turns every tensor by one
    random rotation and shuffles the atom order of each slice: the cost is
    isotropic, so the problem is the same up to that symmetry and takes the
    same number of iterations (small changes of the tensors themselves move
    this slowly converging solve between 1,370 and 2,350 iterations)."""
    anatomy = np.random.default_rng(0)
    mu_t = _dti_slice(anatomy, 0.4, 0.1)
    nu_t = _dti_slice(anatomy, 0.55, 0.4)
    nu_t = nu_t * (np.trace(mu_t, axis1=-2, axis2=-1).sum()
                   / np.trace(nu_t, axis1=-2, axis2=-1).sum())
    pts = grid_points(DTI_SIDE)
    mu_pts, nu_pts = pts, pts
    if seed:
        rng = np.random.default_rng(seed)
        rot = _rotation3(rng)
        mu_t = rot @ mu_t @ rot.T
        nu_t = rot @ nu_t @ rot.T
        mu_order, nu_order = rng.permutation(len(pts)), rng.permutation(len(pts))
        mu_pts, mu_t = pts[mu_order], mu_t[mu_order]
        nu_pts, nu_t = pts[nu_order], nu_t[nu_order]
    return {"mu": TensorMeasure(mu_pts, _symmetric(mu_t)),
            "nu": TensorMeasure(nu_pts, _symmetric(nu_t))}


FIELDS = {"desk": desk_fields, "lattice": lattice_fields, "dti": dti_fields}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(FIELDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, field in FIELDS[args.workload](args.seed).items():
        save_field(out / f"{name}.json", field)


if __name__ == "__main__":
    main()
