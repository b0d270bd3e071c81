"""End-to-end tests of the command-line driver and the SVG/PGM output."""

import json
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from helpers import bump_grid_measure, random_psd

from qot.cli import main
from qot.fileio import load_coupling, load_field, save_field
from qot.measure import TensorMeasure
from qot.render import render_field_svg, write_pgm


def write_field(path, points, tensors):
    save_field(path, TensorMeasure(np.asarray(points, float),
                                   np.asarray(tensors, float)))
    return str(path)


def scalar_field(path, masses, points=None):
    masses = np.asarray(masses, dtype=float)
    if points is None:
        points = np.linspace(0.0, 1.0, len(masses))[:, None]
    return write_field(path, points, masses[:, None, None])


@pytest.fixture
def small_pair(tmp_path):
    rng = np.random.default_rng(0)
    mu = write_field(tmp_path / "mu.json", rng.uniform(size=(3, 2)),
                     random_psd(rng, 2, n=3))
    nu = write_field(tmp_path / "nu.json", rng.uniform(size=(3, 2)),
                     random_psd(rng, 2, n=3))
    return mu, nu


class TestTransport:
    def test_scalar_closed_form(self, tmp_path):
        mu = scalar_field(tmp_path / "mu.json", [2.0], [[0.0]])
        nu = scalar_field(tmp_path / "nu.json", [2.0], [[0.0]])
        out = tmp_path / "coupling.json"
        report = tmp_path / "report.json"
        code = main([
            "transport", "--mu", mu, "--nu", nu, "--eps", "0.01",
            "--tol", "1e-13", "--out", str(out), "--report", str(report),
        ])
        assert code == 0
        coupling = load_coupling(out)
        expected = 2.0 ** (2.0 / 2.01)
        assert np.isclose(coupling.entries[0, 0, 0, 0], expected, atol=1e-9)
        doc = json.loads(report.read_text())
        assert doc["converged"] is True
        assert doc["iterations"] >= 1
        assert len(doc["residual_history"]) == doc["iterations"]

    def test_dimension_mismatch_exits_1(self, tmp_path):
        rng = np.random.default_rng(1)
        mu = scalar_field(tmp_path / "mu.json", [1.0, 2.0])
        nu = write_field(tmp_path / "nu.json", rng.uniform(size=(2, 2)),
                         random_psd(rng, 2, n=2))
        code = main(["transport", "--mu", mu, "--nu", nu,
                     "--out", str(tmp_path / "c.json")])
        assert code == 1

    def test_rho2_inf_notes_sentinel(self, tmp_path, small_pair):
        mu, nu = small_pair
        report = tmp_path / "report.json"
        code = main([
            "transport", "--mu", mu, "--nu", nu, "--rho2", "inf",
            "--eps", "0.05", "--tol", "1e-8", "--max-iter", "20000",
            "--out", str(tmp_path / "c.json"), "--report", str(report),
        ])
        assert code == 0
        doc = json.loads(report.read_text())
        assert any("rho2=inf" in note for note in doc["notes"])
        assert doc["config"]["rho2"] == "inf"

    def test_non_convergence_exits_2(self, tmp_path, small_pair):
        mu, nu = small_pair
        code = main([
            "transport", "--mu", mu, "--nu", nu, "--max-iter", "2",
            "--out", str(tmp_path / "c.json"),
        ])
        assert code == 2

    def test_non_finite_primal_is_null_and_exits_2(self, tmp_path):
        # The all-zero tensor makes the row KL term +inf: the coupling row
        # keeps mass ~1e-15 from the solver's log floor.
        points = [[0.0, 0.0], [1.0, 0.0]]
        mu = write_field(tmp_path / "mu.json", points, [np.eye(2), np.zeros((2, 2))])
        nu = write_field(tmp_path / "nu.json", points, [np.eye(2), np.eye(2)])
        report = tmp_path / "report.json"
        code = main(["transport", "--mu", mu, "--nu", nu,
                     "--out", str(tmp_path / "c.json"), "--report", str(report)])
        assert code == 2

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(report.read_text(), parse_constant=reject)
        assert doc["primal_value"] is None
        assert any("primal_value" in note for note in doc["notes"])

    def test_malformed_file_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["transport", "--mu", str(bad), "--nu", str(bad),
                     "--out", str(tmp_path / "c.json")])
        assert code == 1

    def test_byte_identical_reruns(self, tmp_path, small_pair):
        mu, nu = small_pair
        args = ["transport", "--mu", mu, "--nu", nu, "--eps", "0.05",
                "--tol", "1e-8", "--max-iter", "20000"]
        for name in ("a", "b"):
            code = main(args + ["--out", str(tmp_path / f"{name}.json"),
                                "--report", str(tmp_path / f"{name}-rep.json")])
            assert code == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a-rep.json").read_bytes() == \
            (tmp_path / "b-rep.json").read_bytes()

    def test_distance_matrix_cost(self, tmp_path):
        mu = scalar_field(tmp_path / "mu.json", [1.0, 1.0])
        nu = scalar_field(tmp_path / "nu.json", [1.0, 1.0])
        dist = tmp_path / "dist.json"
        dist.write_text(
            '{"rows": 2, "cols": 2, "values": [[0.0, 1.0], [1.0, 0.0]]}'
        )
        code = main([
            "transport", "--mu", mu, "--nu", nu, "--cost", str(dist),
            "--eps", "0.05", "--out", str(tmp_path / "c.json"),
        ])
        assert code == 0


class TestInterpolate:
    def make_solved(self, tmp_path):
        rng = np.random.default_rng(3)
        mu_pts = np.array([[0.1, 0.1], [0.2, 0.8]])
        nu_pts = np.array([[0.8, 0.3], [0.9, 0.9]])
        mu = write_field(tmp_path / "mu.json", mu_pts, random_psd(rng, 2, n=2))
        nu = write_field(tmp_path / "nu.json", nu_pts, random_psd(rng, 2, n=2))
        coupling = tmp_path / "coupling.json"
        code = main(["transport", "--mu", mu, "--nu", nu, "--eps", "0.05",
                     "--tol", "1e-11", "--max-iter", "30000",
                     "--out", str(coupling)])
        assert code == 0
        return mu, nu, str(coupling)

    def test_t0_matches_mu(self, tmp_path):
        mu, nu, coupling = self.make_solved(tmp_path)
        out = tmp_path / "frame.json"
        code = main([
            "interpolate", "--mu", mu, "--nu", nu, "--coupling", coupling,
            "--t", "0", "--trace-threshold", "0", "--merge-radius", "1e-9",
            "--out", str(out),
        ])
        assert code == 0
        frame = load_field(out)
        ref = load_field(mu)
        order = np.lexsort(frame.points.T)
        ref_order = np.lexsort(ref.points.T)
        assert np.allclose(frame.points[order], ref.points[ref_order])
        assert np.abs(frame.tensors[order] - ref.tensors[ref_order]).max() < 1e-8

    def test_step_sweep_writes_frames_and_svg(self, tmp_path):
        mu, nu, coupling = self.make_solved(tmp_path)
        pattern = str(tmp_path / "frame-{i}.json")
        code = main([
            "interpolate", "--mu", mu, "--nu", nu, "--coupling", coupling,
            "--steps", "9", "--render", "--out", pattern,
        ])
        assert code == 0
        for i in range(9):
            frame_path = tmp_path / f"frame-{i}.json"
            assert frame_path.exists()
            svg = (tmp_path / f"frame-{i}.svg").read_text()
            ET.fromstring(svg)

    def test_out_of_range_t_exits_1(self, tmp_path):
        mu, nu, coupling = self.make_solved(tmp_path)
        code = main(["interpolate", "--mu", mu, "--nu", nu,
                     "--coupling", coupling, "--t", "1.5",
                     "--out", str(tmp_path / "f.json")])
        assert code == 1

    def test_missing_coupling_exits_1(self, tmp_path):
        mu, nu, _ = self.make_solved(tmp_path)
        code = main(["interpolate", "--mu", mu, "--nu", nu,
                     "--coupling", str(tmp_path / "absent.json"),
                     "--t", "0.5", "--out", str(tmp_path / "f.json")])
        assert code == 1

    def test_parallel_frames_match_sequential(self, tmp_path, monkeypatch):
        mu, nu, coupling = self.make_solved(tmp_path)
        seq = str(tmp_path / "seq-{i}.json")
        par = str(tmp_path / "par-{i}.json")
        args = ["interpolate", "--mu", mu, "--nu", nu, "--coupling", coupling,
                "--steps", "5"]
        assert main(args + ["--out", seq]) == 0
        monkeypatch.setenv("QOT_THREADS", "4")
        assert main(args + ["--out", par]) == 0
        for i in range(5):
            a = (tmp_path / f"seq-{i}.json").read_bytes()
            b = (tmp_path / f"par-{i}.json").read_bytes()
            assert a == b


class TestBarycenterCommand:
    def make_inputs(self, tmp_path, n_inputs=2):
        rng = np.random.default_rng(7)
        pts = np.array([[0.2, 0.2], [0.8, 0.8]])
        paths = []
        for idx in range(n_inputs):
            paths.append(write_field(tmp_path / f"in{idx}.json", pts,
                                     random_psd(rng, 2, n=2)))
        return paths

    def test_degenerate_weight_matches_single_input(self, tmp_path):
        paths = self.make_inputs(tmp_path)
        out_pair = tmp_path / "pair.json"
        out_single = tmp_path / "single.json"
        common = ["--eps", "0.05", "--rho", "1", "--tol", "1e-10",
                  "--max-iter", "30000"]
        code = main(["barycenter", "--inputs", ",".join(paths),
                     "--weights", "1,0", "--out", str(out_pair)] + common)
        assert code == 0
        code = main(["barycenter", "--inputs", paths[0],
                     "--weights", "1", "--out", str(out_single)] + common)
        assert code == 0
        a = load_field(out_pair)
        b = load_field(out_single)
        assert np.abs(a.tensors - b.tensors).max() < 1e-8

    def test_bad_weight_sum_exits_1(self, tmp_path):
        paths = self.make_inputs(tmp_path)
        code = main(["barycenter", "--inputs", ",".join(paths),
                     "--weights", "0.6,0.6", "--out", str(tmp_path / "b.json")])
        assert code == 1

    def test_grid_mode_writes_k_squared_files(self, tmp_path):
        paths = self.make_inputs(tmp_path, n_inputs=4)
        pattern = str(tmp_path / "bary-{i}.json")
        code = main(["barycenter", "--inputs", ",".join(paths),
                     "--grid", "2", "--eps", "0.05", "--tol", "1e-8",
                     "--max-iter", "20000", "--out", pattern])
        assert code == 0
        for i in range(4):
            assert (tmp_path / f"bary-{i}.json").exists()

    def test_grid_three_writes_nine_files(self, tmp_path):
        rng = np.random.default_rng(29)
        paths = []
        for idx in range(4):
            paths.append(write_field(tmp_path / f"s{idx}.json", [[0.5, 0.5]],
                                     random_psd(rng, 2)[None]))
        pattern = str(tmp_path / "cell-{i}.json")
        code = main(["barycenter", "--inputs", ",".join(paths),
                     "--grid", "3", "--eps", "0.01", "--tol", "1e-8",
                     "--max-iter", "20000", "--out", pattern])
        assert code == 0
        for i in range(9):
            assert (tmp_path / f"cell-{i}.json").exists()
        assert not (tmp_path / "cell-9.json").exists()

    def test_grid_requires_four_inputs(self, tmp_path):
        paths = self.make_inputs(tmp_path, n_inputs=2)
        code = main(["barycenter", "--inputs", ",".join(paths),
                     "--grid", "2", "--out", str(tmp_path / "b.json")])
        assert code == 1

    def test_non_convergence_exits_2(self, tmp_path):
        paths = self.make_inputs(tmp_path)
        code = main(["barycenter", "--inputs", ",".join(paths),
                     "--weights", "0.5,0.5", "--max-iter", "1",
                     "--out", str(tmp_path / "b.json")])
        assert code == 2

    def test_saturated_barycenter_exits_2(self, tmp_path):
        # Five iterations leave the barycenter's log-tensors with
        # eigenvalues in the thousands; the exponential is capped.
        a = write_field(tmp_path / "a.json", [[0.0, 0.0], [1.0, 0.0]],
                        [np.eye(2), 2.0 * np.eye(2)])
        b = write_field(tmp_path / "b.json", [[10.0, 0.0], [11.0, 0.0]],
                        [np.eye(2), np.diag([3.0, 0.1])])
        support = write_field(tmp_path / "s.json", [[5.0, 0.0], [6.0, 0.0]],
                              [np.eye(2), np.eye(2)])
        out = tmp_path / "bary.json"
        code = main(["barycenter", "--inputs", f"{a},{b}", "--weights", "0.5,0.5",
                     "--support", support, "--rho", "0.1", "--eps", "0.001",
                     "--max-iter", "5", "--out", str(out)])
        assert code == 2
        assert np.all(np.isfinite(load_field(out).tensors))

    @pytest.mark.parametrize("flag", ["--rho1", "--rho2"])
    def test_pair_fidelity_flags_rejected(self, tmp_path, flag):
        paths = self.make_inputs(tmp_path)
        code = main(["barycenter", "--inputs", ",".join(paths),
                     "--weights", "0.5,0.5", flag, "7",
                     "--out", str(tmp_path / "b.json")])
        assert code == 1
        assert not (tmp_path / "b.json").exists()


class TestDistanceCommand:
    def test_identical_single_diracs_pointwise_zero(self, tmp_path):
        rng = np.random.default_rng(9)
        p = random_psd(rng, 2)
        mu = write_field(tmp_path / "mu.json", [[0.5, 0.5]], p[None])
        nu = write_field(tmp_path / "nu.json", [[0.5, 0.5]], p[None])
        code = main(["distance", "--mu", mu, "--nu", nu, "--eps", "0.01",
                     "--pointwise", "0", "0"])
        assert code == 0

    def test_pointwise_commuting_value(self, tmp_path, capsys):
        mu = write_field(tmp_path / "mu.json", [[0.0, 0.0]],
                         np.diag([4.0, 1.0])[None])
        nu = write_field(tmp_path / "nu.json", [[0.0, 0.0]],
                         np.diag([1.0, 4.0])[None])
        code = main(["distance", "--mu", mu, "--nu", nu, "--eps", "0.01",
                     "--tol", "1e-12", "--pointwise", "0", "0"])
        assert code == 0
        out = capsys.readouterr().out
        match = re.search(r"^D (\S+)$", out, re.MULTILINE)
        assert match
        assert abs(float(match.group(1)) - math.sqrt(2.0)) < 1e-10
        w_match = re.search(r"^W_eps (\S+)$", out, re.MULTILINE)
        assert w_match
        # 12 significant digits: d.ddddddddddde+xx
        assert re.fullmatch(r"-?\d\.\d{11}e[+-]\d+", w_match.group(1))

    def test_self_distance_not_above_perturbed(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        pts = rng.uniform(size=(3, 2))
        tensors = random_psd(rng, 2, n=3)
        mu = write_field(tmp_path / "mu.json", pts, tensors)
        nu = write_field(tmp_path / "nu.json", pts + 0.2,
                         tensors + 0.3 * np.eye(2))

        def w_between(a, b):
            code = main(["distance", "--mu", a, "--nu", b, "--eps", "0.02",
                         "--tol", "1e-10", "--max-iter", "30000"])
            assert code == 0
            out = capsys.readouterr().out
            return float(re.search(r"^W_eps (\S+)$", out, re.MULTILINE).group(1))

        assert w_between(mu, mu) <= w_between(mu, nu)

    def test_pointwise_index_out_of_range(self, tmp_path, small_pair):
        mu, nu = small_pair
        code = main(["distance", "--mu", mu, "--nu", nu,
                     "--pointwise", "0", "7"])
        assert code == 1

    def test_non_convergence_exits_2(self, tmp_path, small_pair):
        mu, nu = small_pair
        code = main(["distance", "--mu", mu, "--nu", nu, "--max-iter", "2"])
        assert code == 2

    def test_non_finite_value_exits_2(self, tmp_path, capsys):
        # The input of TestTransport.test_non_finite_primal_is_null_and_exits_2:
        # the solve converges, but the primal value is +inf.
        points = [[0.0, 0.0], [1.0, 0.0]]
        mu = write_field(tmp_path / "mu.json", points, [np.eye(2), np.zeros((2, 2))])
        nu = write_field(tmp_path / "nu.json", points, [np.eye(2), np.eye(2)])
        code = main(["distance", "--mu", mu, "--nu", nu])
        assert code == 2
        assert "W_eps inf" in capsys.readouterr().out


class TestRenderCommand:
    def test_single_identity_atom_is_circle(self, tmp_path):
        field = tmp_path / "field.json"
        write_field(field, [[0.0, 0.0]], np.eye(2)[None])
        out = tmp_path / "out.svg"
        code = main(["render", "--field", str(field), "--out", str(out),
                     "--scale", "0.1"])
        assert code == 0
        doc = ET.fromstring(out.read_text())
        ellipses = [el for el in doc.iter() if el.tag.endswith("ellipse")]
        assert len(ellipses) == 1
        assert float(ellipses[0].get("rx")) == float(ellipses[0].get("ry"))

    def test_axis_ratio_two_to_one(self, tmp_path):
        field = tmp_path / "field.json"
        write_field(field, [[0.0, 0.0]], np.diag([2.0, 1.0])[None])
        out = tmp_path / "out.svg"
        assert main(["render", "--field", str(field), "--out", str(out)]) == 0
        doc = ET.fromstring(out.read_text())
        el = next(el for el in doc.iter() if el.tag.endswith("ellipse"))
        assert np.isclose(float(el.get("rx")) / float(el.get("ry")), 2.0)
        assert "rotate(0.000000" in el.get("transform") or \
            "rotate(-0.000000" in el.get("transform")

    def test_oblique_tensor_rotates_ellipse(self):
        theta = math.pi / 4.0
        r = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        tensor = r @ np.diag([2.0, 0.5]) @ r.T
        field = TensorMeasure(np.array([[0.5, 0.5]]), tensor[None])
        svg = render_field_svg(field, scale=0.1)
        line = next(l for l in svg.splitlines() if "ellipse" in l)
        assert "rotate(-45.000000" in line
        el = ET.fromstring(line)
        assert np.isclose(float(el.get("rx")) / float(el.get("ry")), 4.0)

    def test_empty_field_valid_svg(self, tmp_path):
        field = tmp_path / "field.json"
        save_field(field, TensorMeasure(np.empty((0, 2)), np.empty((0, 2, 2))))
        out = tmp_path / "out.svg"
        assert main(["render", "--field", str(field), "--out", str(out)]) == 0
        doc = ET.fromstring(out.read_text())
        assert not [el for el in doc.iter() if el.tag.endswith("ellipse")]

    def test_1x1_draws_circles(self, tmp_path):
        field = tmp_path / "field.json"
        write_field(field, [[0.2, 0.2], [0.8, 0.8]],
                    np.array([3.0, 1.0])[:, None, None])
        out = tmp_path / "out.svg"
        assert main(["render", "--field", str(field), "--out", str(out)]) == 0
        doc = ET.fromstring(out.read_text())
        ellipses = [el for el in doc.iter() if el.tag.endswith("ellipse")]
        assert len(ellipses) == 2
        for el in ellipses:
            assert float(el.get("rx")) == float(el.get("ry"))

    def test_3x3_projects_with_note(self, tmp_path):
        rng = np.random.default_rng(13)
        field = tmp_path / "field.json"
        write_field(field, [[0.0, 0.0]], random_psd(rng, 3)[None])
        out = tmp_path / "out.svg"
        assert main(["render", "--field", str(field), "--out", str(out)]) == 0
        assert "XY block" in out.read_text()

    def test_d4_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        field = tmp_path / "field.json"
        write_field(field, [[0.0, 0.0]], random_psd(rng, 4)[None])
        code = main(["render", "--field", str(field),
                     "--out", str(tmp_path / "out.svg")])
        assert code == 1

    def test_deterministic_bytes(self, tmp_path):
        rng = np.random.default_rng(17)
        field = TensorMeasure(rng.uniform(size=(4, 2)), random_psd(rng, 2, n=4))
        assert render_field_svg(field) == render_field_svg(field)


class TestNoiseCommand:
    def test_steps_zero_reproducible(self, tmp_path):
        field = tmp_path / "field.json"
        save_field(field, bump_grid_measure(8, (0.5, 0.5), 0.0))
        out_a = tmp_path / "a.pgm"
        out_b = tmp_path / "b.pgm"
        args = ["noise", "--field", str(field), "--seed", "3", "--steps", "0",
                "--dt", "0.1"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()
        assert header[0] == "P2"
        assert header[1] == "8 8"

    def test_non_grid_field_exits_1(self, tmp_path):
        rng = np.random.default_rng(19)
        field = tmp_path / "field.json"
        write_field(field, rng.uniform(size=(5, 2)), random_psd(rng, 2, n=5))
        code = main(["noise", "--field", str(field), "--seed", "0",
                     "--steps", "1", "--dt", "0.1",
                     "--out", str(tmp_path / "o.pgm")])
        assert code == 1

    def test_pgm_levels_in_range(self, tmp_path):
        grid = np.random.default_rng(21).standard_normal((6, 5))
        path = tmp_path / "g.pgm"
        write_pgm(path, grid)
        body = path.read_text().split("\n", 3)[3]
        levels = [int(tok) for tok in body.split()]
        assert len(levels) == 30
        assert min(levels) == 0 and max(levels) == 255


class TestWorkerLimit:
    def test_invalid_env_rejected(self, tmp_path, monkeypatch, small_pair):
        mu, nu = small_pair
        coupling = tmp_path / "c.json"
        assert main(["transport", "--mu", mu, "--nu", nu, "--eps", "0.05",
                     "--tol", "1e-6", "--max-iter", "20000",
                     "--out", str(coupling)]) in (0, 2)
        monkeypatch.setenv("QOT_THREADS", "zero")
        code = main(["interpolate", "--mu", mu, "--nu", nu,
                     "--coupling", str(coupling), "--t", "0.5",
                     "--out", str(tmp_path / "f.json")])
        assert code == 1
