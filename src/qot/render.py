"""Deterministic SVG ellipse rendering of tensor fields and plain PGM
output for scalar grids.

Each atom draws as an ellipse centered at its point: semi-axes
proportional to the tensor's eigenvalues, axes along its eigenvectors.
3x3 tensors are projected onto their XY block (noted in the output);
1x1 tensors draw as circles.  The rotation angle is the one output of the
package that depends on an eigenvector's sign, so this module fixes it.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .measure import TensorMeasure
from .sym import eig_sym

__all__ = ["render_field_svg", "write_pgm"]

_CANVAS = 640.0
_STYLE = 'fill="#4878a8" fill-opacity="0.55" stroke="#1f3350"'


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def render_field_svg(field: TensorMeasure, scale: float = 0.05,
                     subsample: int = 1) -> str:
    """Render a tensor field to an SVG document string.

    ``scale`` converts eigenvalues to semi-axis lengths in data units;
    ``subsample`` keeps every K-th atom.  Output bytes are a deterministic
    function of the inputs.  Tensor dimensions above 3 are rejected.
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError("scale must be positive and finite")
    if subsample < 1:
        raise ValueError("subsample must be >= 1")
    d = field.tensor_dim if field.n_atoms else 0
    if d > 3:
        raise ValueError(f"cannot render {d}x{d} tensors (d <= 3 only)")

    note = ""
    points = field.points[::subsample]
    tensors = field.tensors[::subsample]
    if field.n_atoms and field.ambient_dim < 2:
        points = np.concatenate(
            [points, np.zeros((len(points), 2 - field.ambient_dim))], axis=1
        )
    if d == 3:
        tensors = tensors[:, :2, :2]
        note = "3x3 tensors projected onto their XY block"
    elif d == 1:
        tensors = tensors[:, [0, 0]][:, :, [0, 0]] * np.array(
            [[1.0, 0.0], [0.0, 1.0]]
        )

    if len(points):
        vals, vecs = eig_sym(tensors)
        radii = scale * np.maximum(vals, 0.0)
        # eig_sym fixes no eigenvector sign: flip each leading axis so
        # that its largest-magnitude component is nonnegative (the first
        # wins ties).
        lead = vecs[:, :, 0]
        big = np.take_along_axis(lead, np.argmax(np.abs(lead), axis=1)[:, None], axis=1)
        lead = lead * np.where(big < 0.0, -1.0, 1.0)
        angles = np.degrees(np.arctan2(lead[:, 1], lead[:, 0]))
        xy = points[:, :2]
        pad = float(radii.max(initial=0.0)) + 0.05
        lo = xy.min(axis=0) - pad
        hi = xy.max(axis=0) + pad
    else:
        radii = np.empty((0, 2))
        angles = np.empty(0)
        xy = np.empty((0, 2))
        lo = np.array([0.0, 0.0])
        hi = np.array([1.0, 1.0])

    span = np.maximum(hi - lo, 1e-9)
    unit = _CANVAS / float(span.max())
    width = float(span[0]) * unit
    height = float(span[1]) * unit

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    if note:
        lines.append(f"<desc>{note}</desc>")
    stroke_width = _fmt(max(0.002 * unit * scale / 0.05, 0.2))
    cxs = ((xy[:, 0] - lo[0]) * unit).tolist()
    cys = ((hi[1] - xy[:, 1]) * unit).tolist()
    rxs = np.maximum(radii[:, 0] * unit, 1e-6).tolist()
    rys = np.maximum(radii[:, 1] * unit, 1e-6).tolist()
    rots = (-angles).tolist()
    lines.extend(
        f'<ellipse cx="{cx:.6f}" cy="{cy:.6f}" rx="{rx:.6f}" ry="{ry:.6f}" '
        f'transform="rotate({rot:.6f} {cx:.6f} {cy:.6f})" {_STYLE} '
        f'stroke-width="{stroke_width}"/>'
        for cx, cy, rx, ry, rot in zip(cxs, cys, rxs, rys, rots)
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_pgm(path, grid: np.ndarray) -> None:
    """Write a scalar grid as a plain (ASCII) portable graymap, linearly
    rescaled to 0..255 (a constant grid maps to 0)."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ValueError(f"grid must be 2-D, got shape {grid.shape}")
    lo = float(grid.min())
    hi = float(grid.max())
    if hi > lo:
        levels = np.rint((grid - lo) / (hi - lo) * 255.0).astype(int)
    else:
        levels = np.zeros(grid.shape, dtype=int)
    h, w = grid.shape
    rows = [" ".join(str(v) for v in row) for row in levels]
    Path(path).write_text(f"P2\n{w} {h}\n255\n" + "\n".join(rows) + "\n")
