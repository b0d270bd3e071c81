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

from .cost import _check_distances
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


# Entries per chunk of a written coupling.  One list and one string for
# all entries (plus its copy with the newline) would set the peak memory
# of a transport: about 20 MB on a 256 x 256, d = 2 coupling.
_CHUNK = 4096


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


def _header_int(doc: dict, key: str, path, low: int) -> int:
    """Header field ``key``: an int of at least ``low`` (0 or 1); not a
    bool, which ``isinstance(val, int)`` would let through."""
    val = _require(doc, key, path)
    if type(val) is not int or val < low:
        kind = "positive" if low else "nonnegative"
        raise FileFormatError(f"{path}: {key!r} must be a {kind} integer")
    return val


def _array(doc: dict, key: str, path) -> np.ndarray:
    """Field ``key`` as a float array: the loaders' one numeric coercion."""
    val = _require(doc, key, path)
    try:
        return np.asarray(val, dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: non-numeric array data ({exc})") from exc


def _in_file(path, check, *args):
    """``check(*args)``, with its ValueError reported against ``path``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


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
    d = _header_int(doc, "d", path, 0)
    n = _header_int(doc, "n", path, 1)
    pts, packed = _array(doc, "points", path), _array(doc, "tensors", path)
    # An empty field is written with "points": [], which has no columns.
    if pts.shape != (0,) and (pts.ndim != 2 or pts.shape[1] != n):
        raise FileFormatError(f"{path}: points must be an array of {n}-vectors")
    if packed.shape[:1] != pts.shape[:1] or (len(pts) and packed.ndim != 2):
        raise FileFormatError(f"{path}: expected {len(pts)} packed tensors")
    if len(pts) == 0:
        d = max(d, 1)
        return TensorMeasure(np.empty((0, n)), np.empty((0, d, d)))
    if d < 1 or packed.shape[1] != d * (d + 1) // 2:
        raise FileFormatError(
            f"{path}: packed tensor length {packed.shape[1]} does not match d={d}"
        )
    return _in_file(path, TensorMeasure, pts, unpack_upper(packed, d))


def save_coupling(path, coupling: Coupling) -> None:
    """Write a coupling document (flat row-major packed entries): the
    bytes of ``json.dumps(doc) + "\n"``, written ``_CHUNK`` entries at a
    time."""
    d = coupling.tensor_dim
    flat = coupling.entries.reshape(-1, d, d)
    head = json.dumps({"rows": coupling.rows, "cols": coupling.cols, "d": d,
                       "entries": []})
    with open(path, "w") as out:
        out.write(head[:-2])
        for start in range(0, len(flat), _CHUNK):
            chunk = json.dumps(pack_upper(flat[start:start + _CHUNK]).tolist())
            out.write((", " if start else "") + chunk[1:-1])
        out.write("]}\n")


def load_coupling(path) -> Coupling:
    doc = _read_json(path)
    rows, cols, d = (_header_int(doc, key, path, 1) for key in ("rows", "cols", "d"))
    packed = _array(doc, "entries", path)
    if packed.shape != (rows * cols, d * (d + 1) // 2):
        raise FileFormatError(
            f"{path}: expected {rows * cols} packed entries of length "
            f"{d * (d + 1) // 2}, got {packed.shape}"
        )
    return _in_file(path, Coupling, unpack_upper(packed, d).reshape(rows, cols, d, d))


def load_distance_matrix(path) -> np.ndarray:
    """Read a distance matrix document with keys rows, cols, values."""
    doc = _read_json(path)
    rows, cols = (_header_int(doc, key, path, 0) for key in ("rows", "cols"))
    mat = _array(doc, "values", path)
    if mat.shape != (rows, cols):
        raise FileFormatError(
            f"{path}: values shape {mat.shape} does not match "
            f"rows/cols ({rows}, {cols})"
        )
    _in_file(path, _check_distances, mat)
    return mat
