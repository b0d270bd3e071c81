"""Text file formats for tensor fields, couplings and distance matrices.

All formats are JSON documents with tensors stored as packed row-major
upper triangles, chosen for diffability and language neutrality.
Save/load round-trips are bit-identical (floats serialize via their
shortest exact decimal representation).

Fields and couplings are written by ``orjson`` straight from their
float arrays (:func:`_dumps`), which builds no Python floats: the
256 x 256 desk coupling is written in 0.024 s against 0.29 s through
``json.dumps``.  It writes the same shortest round-trip digits as
Python's ``repr``, in a compact layout: no spaces after ``,`` and ``:``,
exponents without ``+`` or leading zeros (``1e16``, ``1e-7``), and
plain decimals down to 1e-5 (``0.00001``).  It writes NaN and
infinities as ``null`` without a word, which cannot happen here:
``TensorMeasure`` and ``Coupling`` reject non-finite entries.

The readers stay on the standard ``json`` module.  ``orjson.loads``
cut ``load_coupling`` of the desk coupling from 0.18 to about 0.09 s,
but raised its peak by 2.2 MB (25.0 against 22.8 MB over the same
base), and that read sets the peak memory of the desk pipeline.  The
CLI's ``--report`` stays on ``json.dumps(..., allow_nan=False)`` too:
a report's values are not known to be finite, and a non-finite one
must fail rather than be written as ``null``.
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


# Entries per chunk of a written coupling.  One packed array and one
# encoded text for all entries would set the peak memory of a transport:
# written in one call, the desk coupling (256 x 256, d = 2) lifts the
# transport's VmHWM from 42.7 to 48.2 MB; in chunks, to 42.8 MB.
_CHUNK = 4096


class FileFormatError(ValueError):
    """Raised for malformed or inconsistent data files."""


def _dumps(doc) -> bytes:
    """The JSON text of ``doc``, whose arrays are C-contiguous float
    arrays (orjson refuses any other layout)."""
    # Imported on the first write, not with the module: loaded before
    # load_coupling runs, it lifts the peak that read sets, 51.7 -> 53.2 MB
    # in the desk interpolation (and 42.8 -> 43.5 MB in its transport).
    import orjson

    return orjson.dumps(doc, option=orjson.OPT_SERIALIZE_NUMPY)


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
        "points": field.points,
        "tensors": pack_upper(field.tensors),
    }
    Path(path).write_bytes(_dumps(doc) + b"\n")


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
    bytes of ``_dumps(doc) + b"\n"``, written ``_CHUNK`` entries at a
    time."""
    d = coupling.tensor_dim
    flat = coupling.entries.reshape(-1, d, d)
    head = _dumps({"rows": coupling.rows, "cols": coupling.cols, "d": d,
                   "entries": []})
    with open(path, "wb") as out:
        out.write(head[:-2])
        for start in range(0, len(flat), _CHUNK):
            chunk = _dumps(pack_upper(flat[start:start + _CHUNK]))
            out.write((b"," if start else b"") + chunk[1:-1])
        out.write(b"]}\n")


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
