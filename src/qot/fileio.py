"""Text file formats for tensor fields, couplings and distance matrices.

All formats are JSON documents with tensors stored as packed row-major
upper triangles, chosen for diffability and language neutrality.
Save/load round-trips are bit-identical (floats serialize via their
shortest exact decimal representation).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .measure import Coupling, TensorMeasure
from .sym import pack_upper, unpack_upper

__all__ = [
    "FileFormatError",
    "save_field",
    "load_field",
    "save_coupling",
    "load_coupling",
    "load_distance_matrix",
]


class FileFormatError(ValueError):
    """Raised for malformed or inconsistent data files."""


def _read_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top-level value must be an object")
    return doc


def _require(doc: dict, key: str, path) -> object:
    if key not in doc:
        raise FileFormatError(f"{path}: missing key {key!r}")
    return doc[key]


def save_field(path, field: TensorMeasure) -> None:
    """Write a tensor field document with keys d, n, points, tensors."""
    doc = {
        "d": field.tensor_dim,
        "n": field.ambient_dim,
        "points": field.points.tolist(),
        "tensors": pack_upper(field.tensors).tolist(),
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_field(path) -> TensorMeasure:
    """Read a tensor field document; tensors must be PSD (the first
    offending index is reported)."""
    doc = _read_json(path)
    d = _require(doc, "d", path)
    n = _require(doc, "n", path)
    points = _require(doc, "points", path)
    tensors = _require(doc, "tensors", path)
    if not (isinstance(d, int) and d >= 0):
        raise FileFormatError(f"{path}: 'd' must be a nonnegative integer")
    if not (isinstance(n, int) and n >= 1):
        raise FileFormatError(f"{path}: 'n' must be a positive integer")
    try:
        pts = np.asarray(points, dtype=float)
        packed = np.asarray(tensors, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: non-numeric array data ({exc})") from exc
    if len(pts) == 0:
        d = max(d, 1)
        return TensorMeasure(np.empty((0, n)), np.empty((0, d, d)))
    if pts.ndim != 2 or pts.shape[1] != n:
        raise FileFormatError(
            f"{path}: points must be an array of {n}-vectors"
        )
    if packed.ndim != 2 or packed.shape[0] != pts.shape[0]:
        raise FileFormatError(
            f"{path}: expected {pts.shape[0]} packed tensors"
        )
    if d < 1 or packed.shape[1] != d * (d + 1) // 2:
        raise FileFormatError(
            f"{path}: packed tensor length {packed.shape[1]} does not match d={d}"
        )
    try:
        return TensorMeasure(pts, unpack_upper(packed, d))
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def save_coupling(path, coupling: Coupling, threshold: float | None = None) -> None:
    """Write a coupling document (flat row-major packed entries); the
    optional ``threshold`` records an applied sparsification level."""
    flat = coupling.entries.reshape(-1, coupling.tensor_dim, coupling.tensor_dim)
    doc = {
        "rows": coupling.rows,
        "cols": coupling.cols,
        "d": coupling.tensor_dim,
        "entries": pack_upper(flat).tolist(),
    }
    if threshold is not None:
        doc["threshold"] = threshold
    Path(path).write_text(json.dumps(doc) + "\n")


def load_coupling(path) -> Coupling:
    doc = _read_json(path)
    rows = _require(doc, "rows", path)
    cols = _require(doc, "cols", path)
    d = _require(doc, "d", path)
    entries = _require(doc, "entries", path)
    for name, val in (("rows", rows), ("cols", cols), ("d", d)):
        if not (isinstance(val, int) and val >= 1):
            raise FileFormatError(f"{path}: {name!r} must be a positive integer")
    try:
        packed = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: non-numeric array data ({exc})") from exc
    if packed.shape != (rows * cols, d * (d + 1) // 2):
        raise FileFormatError(
            f"{path}: expected {rows * cols} packed entries of length "
            f"{d * (d + 1) // 2}, got {packed.shape}"
        )
    dense = unpack_upper(packed, d).reshape(rows, cols, d, d)
    try:
        return Coupling(dense)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def load_distance_matrix(path) -> np.ndarray:
    """Read a distance matrix document with keys rows, cols, values."""
    doc = _read_json(path)
    rows = _require(doc, "rows", path)
    cols = _require(doc, "cols", path)
    values = _require(doc, "values", path)
    try:
        mat = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: non-numeric array data ({exc})") from exc
    if mat.shape != (rows, cols):
        raise FileFormatError(
            f"{path}: values shape {mat.shape} does not match "
            f"rows/cols ({rows}, {cols})"
        )
    if np.any(mat < 0.0) or not np.all(np.isfinite(mat)):
        raise FileFormatError(f"{path}: distances must be finite and >= 0")
    return mat
