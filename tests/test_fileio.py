"""Unit tests for the text file formats."""

import json

import numpy as np
import pytest

from helpers import random_psd

from qot import fileio
from qot.fileio import (
    _CHUNK,
    FileFormatError,
    load_coupling,
    load_distance_matrix,
    load_field,
    save_coupling,
    save_field,
)
from qot.measure import Coupling, TensorMeasure
from qot.sym import pack_upper


def make_field(rng, n=5, d=2):
    return TensorMeasure(rng.uniform(size=(n, 2)), random_psd(rng, d, n=n))


# Floats whose text is easy to get wrong: the smallest subnormal, the
# smallest normal, a negative zero, the largest float, exponent and
# plain forms at the switch between them, and a 17-digit fraction.
EDGE_FLOATS = [5e-324, 2.2250738585072014e-308, -0.0, 1.7976931348623157e308,
               1e16, 1e-5, 1 / 3]


def same_bits(a, b) -> bool:
    """Equal shapes and bit-equal floats (-0.0 is not 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestFieldRoundTrip:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical(self, tmp_path, d):
        rng = np.random.default_rng(d)
        field = make_field(rng, n=6, d=d)
        path = tmp_path / "field.json"
        save_field(path, field)
        loaded = load_field(path)
        assert np.array_equal(loaded.points, field.points)
        assert np.array_equal(loaded.tensors, field.tensors)
        save_field(tmp_path / "again.json", loaded)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_empty_field(self, tmp_path):
        field = TensorMeasure(np.empty((0, 2)), np.empty((0, 2, 2)))
        path = tmp_path / "empty.json"
        save_field(path, field)
        loaded = load_field(path)
        assert loaded.n_atoms == 0
        assert loaded.tensors.shape == (0, 2, 2)
        assert json.loads(path.read_text())["points"] == []

    def test_edge_floats_round_trip(self, tmp_path):
        # 1x1 tensors hold each float as it is (-0.0 passes the PSD check);
        # the points carry them too.
        values = np.array(EDGE_FLOATS)
        field = TensorMeasure(np.stack([values, values[::-1]], axis=1),
                              values[:, None, None])
        path = tmp_path / "edges.json"
        save_field(path, field)
        assert b"null" not in path.read_bytes()
        loaded = load_field(path)
        assert same_bits(loaded.points, field.points)
        assert same_bits(loaded.tensors, field.tensors)

    def test_non_contiguous_views_round_trip(self, tmp_path):
        # A column slice of a wider array and a transposed stack: the
        # encoder takes C-contiguous arrays only.
        rng = np.random.default_rng(11)
        wide = rng.uniform(size=(6, 5))
        stack = np.ascontiguousarray(random_psd(rng, 2, n=6).transpose(1, 2, 0))
        points, tensors = wide[:, 1:4:2], stack.transpose(2, 0, 1)
        assert not points.flags.c_contiguous and not tensors.flags.c_contiguous
        path = tmp_path / "views.json"
        save_field(path, TensorMeasure(points, tensors))
        loaded = load_field(path)
        assert same_bits(loaded.points, points)
        assert same_bits(loaded.tensors, tensors)

    def test_non_psd_rejected_with_index(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"d": 2, "n": 2, "points": [[0.0, 0.0], [1.0, 1.0]],'
            ' "tensors": [[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]]}'
        )
        with pytest.raises(FileFormatError, match="tensor 1"):
            load_field(path)

    def test_malformed_json_has_line_diagnostic(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"d": 2,\n "n": }')
        with pytest.raises(FileFormatError, match=r":2:"):
            load_field(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text('{"d": 2, "n": 2, "points": []}')
        with pytest.raises(FileFormatError, match="tensors"):
            load_field(path)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "mismatch.json"
        path.write_text(
            '{"d": 2, "n": 2, "points": [[0.0, 0.0]], "tensors": []}'
        )
        with pytest.raises(FileFormatError):
            load_field(path)

    def test_tensors_without_points_rejected(self, tmp_path):
        # An empty point list must not load as an empty field that drops
        # the tensors.
        path = tmp_path / "orphans.json"
        path.write_text('{"d": 2, "n": 2, "points": [],'
                        ' "tensors": [[1, 0, 1], [2, 0, 2]]}')
        with pytest.raises(FileFormatError, match="expected 0 packed tensors"):
            load_field(path)

    def test_scalar_points_rejected(self, tmp_path):
        path = tmp_path / "scalar.json"
        path.write_text('{"d": 2, "n": 2, "points": 5, "tensors": []}')
        with pytest.raises(FileFormatError, match="array of 2-vectors"):
            load_field(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            load_field(tmp_path / "nope.json")

    @pytest.mark.parametrize("key,kind", [("d", "nonnegative"), ("n", "positive")])
    def test_boolean_header_rejected(self, tmp_path, key, kind):
        # isinstance(True, int) holds, and true reads as 1.
        doc = {"d": 1, "n": 1, "points": [[0.0]], "tensors": [[1.0]]}
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({**doc, key: True}))
        with pytest.raises(FileFormatError, match=f"'{key}' must be a {kind} integer"):
            load_field(path)


class TestCouplingRoundTrip:
    def test_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        coupling = Coupling(random_psd(rng, 2, n=6).reshape(2, 3, 2, 2))
        path = tmp_path / "coupling.json"
        save_coupling(path, coupling)
        loaded = load_coupling(path)
        assert loaded.rows == 2 and loaded.cols == 3
        assert np.array_equal(loaded.entries, coupling.entries)

    def test_edge_floats_round_trip(self, tmp_path):
        values = np.array(EDGE_FLOATS)
        coupling = Coupling(values.reshape(1, -1, 1, 1))
        path = tmp_path / "edges.json"
        save_coupling(path, coupling)
        assert b"null" not in path.read_bytes()
        assert same_bits(load_coupling(path).entries, coupling.entries)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [1, _CHUNK - 1, _CHUNK + 1, 2 * _CHUNK])
    def test_chunks_write_one_json_document(self, tmp_path, d, n):
        rng = np.random.default_rng(n + d)
        coupling = Coupling(random_psd(rng, d, n=n)[None])
        path = tmp_path / "coupling.json"
        save_coupling(path, coupling)
        doc = {"rows": 1, "cols": n, "d": d,
               "entries": pack_upper(coupling.entries[0])}
        # A bool, so that a mismatch does not diff megabytes of text.
        assert path.read_bytes() == fileio._dumps(doc) + b"\n", "bytes differ"
        assert np.array_equal(load_coupling(path).entries, coupling.entries)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2, "d": 2, "entries": [[1, 0, 1]]}')
        with pytest.raises(FileFormatError):
            load_coupling(path)

    @pytest.mark.parametrize("key", ["rows", "cols", "d"])
    def test_boolean_header_rejected(self, tmp_path, key):
        doc = {"rows": 1, "cols": 1, "d": 1, "entries": [[1.0]]}
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({**doc, key: True}))
        with pytest.raises(FileFormatError, match=f"'{key}' must be a positive integer"):
            load_coupling(path)


class TestDistanceMatrix:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "dist.json"
        path.write_text('{"rows": 2, "cols": 2, "values": [[0.0, 1.0], [1.0, 0.0]]}')
        mat = load_distance_matrix(path)
        assert np.array_equal(mat, [[0.0, 1.0], [1.0, 0.0]])

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text('{"rows": 1, "cols": 1, "values": [[-2.0]]}')
        with pytest.raises(FileFormatError,
                           match="neg.json: distance entries must be finite and >= 0"):
            load_distance_matrix(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_rejected(self, tmp_path, value):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"rows": 1, "cols": 2, "values": [[0.5, {value}]]}}')
        with pytest.raises(FileFormatError,
                           match="bad.json: distance entries must be finite and >= 0"):
            load_distance_matrix(path)

    @pytest.mark.parametrize("key", ["rows", "cols"])
    @pytest.mark.parametrize("value", [True, 1.0])
    def test_non_integer_header_rejected(self, tmp_path, key, value):
        # Both compare equal to the 1 of the values' shape.
        doc = {"rows": 1, "cols": 1, "values": [[0.5]]}
        path = tmp_path / "header.json"
        path.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(FileFormatError, match=f"'{key}' must be a nonnegative integer"):
            load_distance_matrix(path)


@pytest.mark.parametrize("load, doc", [
    (load_field, {"d": 1, "n": 1, "points": [[0.0]], "tensors": [["x"]]}),
    (load_coupling, {"rows": 1, "cols": 1, "d": 1, "entries": [[{}]]}),
    (load_distance_matrix, {"rows": 1, "cols": 1, "values": [["x"]]}),
])
def test_non_numeric_arrays_named_with_the_path(tmp_path, load, doc):
    path = tmp_path / "text.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(FileFormatError, match="text.json: non-numeric array data"):
        load(path)
