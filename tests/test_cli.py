"""End-to-end tests of the command-line driver and the SVG/PGM output."""

import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from helpers import bump_grid_measure, heavy_line_measure, random_psd

import qot
import qot.render
from qot.barycenter import BarycenterProblem, barycenter_solve
from qot.cli import main
from qot.cost import euclidean_cost, from_distance_matrix
from qot.fileio import (load_coupling, load_distance_matrix, load_field,
                        save_coupling, save_field)
from qot.interpolate import InterpolationParams, displacement_interpolate
from qot.measure import Coupling, TensorMeasure
from qot.render import render_field_svg, write_pgm
from qot.solver import SolverConfig, sinkhorn_solve
from qot.sym import EigenPair, eig_sym


def write_field(path, points, tensors):
    save_field(path, TensorMeasure(np.asarray(points, float),
                                   np.asarray(tensors, float)))
    return str(path)


def scalar_field(path, masses, points=None):
    masses = np.asarray(masses, dtype=float)
    if points is None:
        points = np.linspace(0.0, 1.0, len(masses))[:, None]
    return write_field(path, points, masses[:, None, None])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.fixture
def small_pair(tmp_path):
    rng = np.random.default_rng(0)
    mu = write_field(tmp_path / "mu.json", rng.uniform(size=(3, 2)),
                     random_psd(rng, 2, n=3))
    nu = write_field(tmp_path / "nu.json", rng.uniform(size=(3, 2)),
                     random_psd(rng, 2, n=3))
    return mu, nu


class TestLibraryDefaults:
    """A flag left out takes the library's default: with no flags the
    command writes what the library call with no keywords gives."""

    def test_transport_with_distance_matrix(self, tmp_path, small_pair):
        mu, nu = small_pair
        dist = tmp_path / "dist.json"
        dist.write_text('{"rows": 3, "cols": 3, "values": '
                        '[[0.0, 0.5, 0.3], [0.5, 0.0, 0.4], [0.3, 0.4, 0.0]]}')
        out, report = tmp_path / "c.json", tmp_path / "report.json"
        code = main(["transport", "--mu", mu, "--nu", nu, "--cost", str(dist),
                     "--out", str(out), "--report", str(report)])
        assert code == 0
        coupling, _, _ = sinkhorn_solve(
            load_field(mu), load_field(nu),
            from_distance_matrix(load_distance_matrix(dist)), SolverConfig())
        save_coupling(tmp_path / "lib.json", coupling)
        assert out.read_bytes() == (tmp_path / "lib.json").read_bytes()

        cfg = SolverConfig()
        assert json.loads(report.read_text())["config"] == {
            "eps": cfg.eps, "rho1": cfg.rho1, "rho2": cfg.rho2,
            "tau1": cfg.tau(1), "tau2": cfg.tau(2), "max_iter": cfg.max_iter,
            "tol": cfg.tol, "trace_constrained": cfg.trace_constrained}

    def test_interpolate(self, tmp_path, small_pair):
        mu, nu = small_pair
        coupling = tmp_path / "c.json"
        assert main(["transport", "--mu", mu, "--nu", nu,
                     "--out", str(coupling)]) == 0
        out = tmp_path / "frame.json"
        assert main(["interpolate", "--mu", mu, "--nu", nu, "--coupling",
                     str(coupling), "--t", "0.5", "--render",
                     "--out", str(out)]) == 0
        frame = displacement_interpolate(load_field(mu), load_field(nu),
                                         load_coupling(coupling),
                                         InterpolationParams(0.5))
        save_field(tmp_path / "lib.json", frame)
        assert out.read_bytes() == (tmp_path / "lib.json").read_bytes()
        assert out.with_suffix(".svg").read_text() == render_field_svg(frame)

    def test_barycenter(self, tmp_path, small_pair):
        out = tmp_path / "b.json"
        assert main(["barycenter", "--inputs", ",".join(small_pair),
                     "--weights", "0.5,0.5", "--out", str(out)]) == 0
        inputs = tuple(load_field(p) for p in small_pair)
        support = inputs[0].points
        prob = BarycenterProblem(
            inputs, np.array([0.5, 0.5]), support,
            tuple(euclidean_cost(m.points, support) for m in inputs))
        nu, _ = barycenter_solve(prob)
        save_field(tmp_path / "lib.json", nu)
        assert out.read_bytes() == (tmp_path / "lib.json").read_bytes()

    def test_render(self, tmp_path):
        rng = np.random.default_rng(5)
        field = TensorMeasure(rng.uniform(size=(4, 2)), random_psd(rng, 2, n=4))
        save_field(tmp_path / "f.json", field)
        out = tmp_path / "f.svg"
        assert main(["render", "--field", str(tmp_path / "f.json"),
                     "--out", str(out)]) == 0
        assert out.read_text() == render_field_svg(field)


@pytest.mark.parametrize("command", ["transport", "distance", "barycenter"])
@pytest.mark.parametrize("flag", ["--tau1", "--tau2"])
def test_relaxation_flags_rejected(tmp_path, small_pair, command, flag, capsys):
    mu, nu = small_pair
    inputs = {"barycenter": ["--inputs", f"{mu},{nu}", "--weights", "0.5,0.5"]}
    args = inputs.get(command, ["--mu", mu, "--nu", nu])
    out = [] if command == "distance" else ["--out", str(tmp_path / "o.json")]
    assert main([command] + args + out + [flag, "1.0"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("command", ["transport", "interpolate", "barycenter",
                                     "distance", "render", "noise"])
def test_help_renders(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: qot {command}")


def test_top_level_exports_each_module_name_once():
    modules = [qot.barycenter, qot.cost, qot.fileio, qot.interpolate,
               qot.measure, qot.render, qot.solver, qot.sym]
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(qot.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(qot, name) is getattr(module, name)


def _written_config(cfg):
    """The ``--report`` ``config`` block of a solve run with ``cfg``: its
    fields in declaration order, ``inf`` as ``"inf"``, and the effective
    relaxations."""
    def value(x):
        return "inf" if x == math.inf else x
    return {"eps": cfg.eps, "rho1": value(cfg.rho1), "rho2": value(cfg.rho2),
            "tau1": cfg.tau(1), "tau2": cfg.tau(2), "max_iter": cfg.max_iter,
            "tol": cfg.tol, "trace_constrained": cfg.trace_constrained}


class TestReportConfig:
    """The report's ``config`` is the configuration the solve ran, read
    off ``SolveReport.config``."""

    @pytest.fixture
    def balanced_pair(self, tmp_path):
        # Equal total traces, so that trace mode is feasible.
        rng = np.random.default_rng(2)
        tensors = random_psd(rng, 2, n=3)
        mu = write_field(tmp_path / "mu.json", rng.uniform(size=(3, 2)), tensors)
        nu = write_field(tmp_path / "nu.json", rng.uniform(size=(3, 2)),
                         tensors[::-1])
        return mu, nu

    @pytest.mark.parametrize("flags, kwargs", [
        ([], {}),
        (["--trace-constrained", "--eps", "0.05"],
         {"trace_constrained": True, "eps": 0.05}),
        (["--rho2", "inf", "--rho1", "0.5", "--eps", "0.05", "--max-iter", "20000",
          "--tol", "1e-8"],
         {"rho1": 0.5, "rho2": math.inf, "eps": 0.05, "max_iter": 20000,
          "tol": 1e-8}),
    ])
    def test_transport(self, tmp_path, balanced_pair, flags, kwargs):
        mu, nu = balanced_pair
        report = tmp_path / "report.json"
        assert main(["transport", "--mu", mu, "--nu", nu, *flags,
                     "--out", str(tmp_path / "c.json"),
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        want = _written_config(SolverConfig(**kwargs))
        assert list(doc["config"].items()) == list(want.items())

    def test_barycenter(self, tmp_path, balanced_pair):
        report = tmp_path / "report.json"
        assert main(["barycenter", "--inputs", ",".join(balanced_pair),
                     "--weights", "0.5,0.5", "--rho", "0.3", "--eps", "0.05",
                     "--out", str(tmp_path / "b.json"),
                     "--report", str(report)]) == 0
        (entry,) = json.loads(report.read_text(), parse_constant=_reject_constant)
        want = _written_config(SolverConfig(eps=0.05, rho1=0.3, rho2=math.inf))
        assert list(entry["config"].items()) == list(want.items())
        assert entry["config"]["trace_constrained"] is False


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

    def test_infinite_tol_exits_1_before_solving(self, tmp_path, small_pair):
        # Unchecked, it "converges" at once, writes the coupling and then
        # fails on the report's non-standard JSON.
        mu, nu = small_pair
        out = tmp_path / "c.json"
        code = main(["transport", "--mu", mu, "--nu", nu, "--tol", "inf",
                     "--out", str(out), "--report", str(tmp_path / "r.json")])
        assert code == 1
        assert not out.exists()

    def test_non_finite_primal_is_null_and_exits_2(self, tmp_path):
        # Masses of 1e305 make the coupling's entropy overflow: the solve
        # converges, but the primal value is +inf.
        heavy = heavy_line_measure()
        mu = write_field(tmp_path / "mu.json", heavy.points, heavy.tensors)
        report = tmp_path / "report.json"
        code = main(["transport", "--mu", mu, "--nu", mu,
                     "--out", str(tmp_path / "c.json"), "--report", str(report)])
        assert code == 2

        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert doc["primal_value"] is None
        assert [note for note in doc["notes"] if "primal_value" in note] == [
            "primal_value is not finite (inf)", "primal_value written as null"]

    def test_overflowing_dual_is_null_and_exits_2(self, tmp_path):
        mu = write_field(tmp_path / "mu.json", [[0.0, 0.0]], np.eye(2)[None])
        nu = write_field(tmp_path / "nu.json", [[30.0, 0.0]], np.eye(2)[None])
        report = tmp_path / "report.json"
        code = main(["transport", "--mu", mu, "--nu", nu, "--eps", "0.01",
                     "--max-iter", "1", "--out", str(tmp_path / "c.json"),
                     "--report", str(report)])
        assert code == 2

        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert doc["dual_value"] is None
        assert [note for note in doc["notes"] if "dual_value" in note] == [
            "dual_value is not finite (-inf)", "dual_value written as null"]

    def test_zero_tensor_certificate_exits_0(self, tmp_path):
        # The coupling row of the zero tensor is restricted to its (empty)
        # range, so the primal matches the dual.
        points = [[0.0, 0.0], [1.0, 0.0]]
        mu = write_field(tmp_path / "mu.json", points, [np.eye(2), np.zeros((2, 2))])
        nu = write_field(tmp_path / "nu.json", points, [np.eye(2), np.eye(2)])
        report = tmp_path / "report.json"
        code = main(["transport", "--mu", mu, "--nu", nu,
                     "--out", str(tmp_path / "c.json"), "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        gap = abs(doc["primal_value"] - doc["dual_value"]) / abs(doc["dual_value"])
        assert gap < 1e-6

    def test_anderson_note_reaches_the_report(self, tmp_path):
        rng = np.random.default_rng(3)
        mu = write_field(tmp_path / "mu.json", rng.uniform(size=(3, 2)),
                         random_psd(rng, 2, n=3))
        nu = write_field(tmp_path / "nu.json", rng.uniform(size=(4, 2)),
                         random_psd(rng, 2, n=4))
        report = tmp_path / "report.json"
        code = main(["transport", "--mu", mu, "--nu", nu,
                     "--out", str(tmp_path / "c.json"), "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        notes = [n for n in doc["notes"] if n.startswith("anderson:")]
        assert len(notes) == 1
        assert re.fullmatch(
            r"anderson: engaged at iteration \d+, \d+ accepted, \d+ restarted",
            notes[0])

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

    @pytest.mark.parametrize("frames, message", [
        (["--t", "0.5", "--steps", "3"],
         "argument --steps: not allowed with argument --t"),
        ([], "one of the arguments --t --steps is required"),
    ])
    def test_t_or_steps_exactly_once(self, tmp_path, capsys, frames, message):
        mu, nu, coupling = self.make_solved(tmp_path)
        capsys.readouterr()
        code = main(["interpolate", "--mu", mu, "--nu", nu,
                     "--coupling", coupling, *frames,
                     "--out", str(tmp_path / "f-{i}.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("f-*"))

    @pytest.mark.parametrize("flag", ["--trace-threshold", "--merge-radius"])
    def test_nan_parameter_exits_1(self, tmp_path, flag):
        mu, nu, coupling = self.make_solved(tmp_path)
        out = tmp_path / "f.json"
        code = main(["interpolate", "--mu", mu, "--nu", nu,
                     "--coupling", coupling, "--t", "0.5", flag, "nan",
                     "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_tiny_merge_radius_runs_without_warnings(self, tmp_path):
        mu, nu, coupling = self.make_solved(tmp_path)
        out = tmp_path / "f.json"
        code = main(["interpolate", "--mu", mu, "--nu", nu,
                     "--coupling", coupling, "--t", "0.5",
                     "--trace-threshold", "0", "--merge-radius", "1e-300",
                     "--out", str(out)])
        assert code == 0
        assert load_field(out).n_atoms == 4

    def test_ambient_dimension_mismatch_exits_1(self, tmp_path, capsys):
        mu = write_field(tmp_path / "mu.json", [[0.0, 0.0], [1.0, 0.0]],
                         [np.eye(2)] * 2)
        nu = write_field(tmp_path / "nu.json", [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                         [np.eye(2)] * 2)
        coupling = tmp_path / "coupling.json"
        save_coupling(coupling, Coupling(np.broadcast_to(0.5 * np.eye(2), (2, 2, 2, 2))))
        code = main(["interpolate", "--mu", mu, "--nu", nu,
                     "--coupling", str(coupling), "--t", "0.5",
                     "--out", str(tmp_path / "f.json")])
        assert code == 1
        assert "error: ambient dimensions differ" in capsys.readouterr().err

    def test_coupling_of_other_tensor_dimension_exits_1(self, tmp_path, capsys):
        mu, nu, _ = self.make_solved(tmp_path)
        coupling = tmp_path / "coupling3.json"
        save_coupling(coupling, Coupling(np.broadcast_to(np.eye(3), (2, 2, 3, 3))))
        code = main(["interpolate", "--mu", mu, "--nu", nu,
                     "--coupling", str(coupling), "--t", "0.5",
                     "--out", str(tmp_path / "f.json")])
        assert code == 1
        assert "error: tensor dimensions differ" in capsys.readouterr().err

    def test_missing_coupling_exits_1(self, tmp_path):
        mu, nu, _ = self.make_solved(tmp_path)
        code = main(["interpolate", "--mu", mu, "--nu", nu,
                     "--coupling", str(tmp_path / "absent.json"),
                     "--t", "0.5", "--out", str(tmp_path / "f.json")])
        assert code == 1


class TestBooleanHeader:
    # isinstance(True, int) holds, so a loader that checks only that hands
    # a bool on to the library, which raised a TypeError traceback.
    def test_field_with_boolean_d_exits_1(self, tmp_path, capsys):
        field = tmp_path / "field.json"
        field.write_text(json.dumps(
            {"d": True, "n": 2, "points": [[0.0, 0.0]], "tensors": [[1.0]]}))
        code = main(["render", "--field", str(field),
                     "--out", str(tmp_path / "x.svg")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'d' must be a nonnegative integer" in err


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

    def test_non_numeric_weights_exit_1(self, tmp_path, capsys):
        paths = self.make_inputs(tmp_path)
        code = main(["barycenter", "--inputs", ",".join(paths),
                     "--weights", "x,y", "--out", str(tmp_path / "b.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_nan_weight_exits_1(self, tmp_path, capsys):
        paths = self.make_inputs(tmp_path)
        code = main(["barycenter", "--inputs", ",".join(paths),
                     "--weights", "nan,1", "--out", str(tmp_path / "b.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: weights must be nonnegative and sum to 1\n")
        assert not (tmp_path / "b.json").exists()

    def test_infinite_weights_exit_1_without_a_warning(self, tmp_path):
        # inf and -inf sum to nan, which no sum rule rejects; under -W error
        # a warning on the way to the weights rule would end in a traceback.
        paths = self.make_inputs(tmp_path)
        src = str(Path(qot.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "qot.cli", "barycenter",
             "--inputs", ",".join(paths), "--weights", "inf,-inf",
             "--out", str(tmp_path / "b.json")],
            env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 1
        assert proc.stderr == "error: weights must be nonnegative and sum to 1\n"
        assert not (tmp_path / "b.json").exists()

    def test_support_of_other_ambient_dimension_exits_1(self, tmp_path, capsys):
        paths = self.make_inputs(tmp_path)
        support = write_field(tmp_path / "support.json",
                              [[0.2, 0.2, 0.0], [0.8, 0.8, 0.0]], [np.eye(2)] * 2)
        code = main(["barycenter", "--inputs", ",".join(paths),
                     "--weights", "0.5,0.5", "--support", support,
                     "--out", str(tmp_path / "b.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_grid_corner_is_the_solve_of_its_one_input(self, tmp_path):
        # The corner of --grid 2 weighs the inputs 1, 0, 0, 0; an input of
        # weight zero takes no part, so the corner is the first input's
        # barycenter alone, byte for byte.  Both default the support to the
        # first input's points.
        paths = self.make_inputs(tmp_path, n_inputs=4)
        grid_report = tmp_path / "grid-report.json"
        single_report = tmp_path / "single-report.json"
        code = main(["barycenter", "--inputs", ",".join(paths), "--grid", "2",
                     "--out", str(tmp_path / "grid-{i}.json"),
                     "--report", str(grid_report)])
        assert code == 0
        code = main(["barycenter", "--inputs", paths[0], "--weights", "1",
                     "--out", str(tmp_path / "single.json"),
                     "--report", str(single_report)])
        assert code == 0
        assert ((tmp_path / "grid-0.json").read_bytes()
                == (tmp_path / "single.json").read_bytes())
        corner = json.loads(grid_report.read_text())[0]
        (single,) = json.loads(single_report.read_text())
        assert corner["weights"] == [1.0, 0.0, 0.0, 0.0]
        for key in ("iterations", "residual_history"):
            assert corner[key] == single[key]

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

    @pytest.mark.parametrize("weighting, message", [
        (["--weights", "0.5,0.5", "--grid", "2"],
         "argument --grid: not allowed with argument --weights"),
        ([], "one of the arguments --weights --grid is required"),
    ])
    def test_weights_or_grid_exactly_once(self, tmp_path, capsys, weighting,
                                          message):
        paths = self.make_inputs(tmp_path)
        code = main(["barycenter", "--inputs", ",".join(paths), *weighting,
                     "--out", str(tmp_path / "b.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "b.json").exists()

    @pytest.mark.parametrize("inputs, weights, flag", [
        ("{a},,{b}", "0.5,,0.5", "--inputs"),
        ("{a},{b}", "0.5,0.5,", "--weights"),
        ("", "1", "--inputs"),
    ])
    def test_empty_item_exits_1(self, tmp_path, capsys, inputs, weights, flag):
        a, b = self.make_inputs(tmp_path)
        code = main(["barycenter", "--inputs", inputs.format(a=a, b=b),
                     "--weights", weights, "--out", str(tmp_path / "b.json")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {flag} has an empty item\n"
        assert not (tmp_path / "b.json").exists()

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

    def test_report_has_one_entry_per_weight_set(self, tmp_path):
        paths = self.make_inputs(tmp_path, n_inputs=4)
        report = tmp_path / "report.json"
        code = main(["barycenter", "--inputs", ",".join(paths), "--grid", "2",
                     "--rho", "0.1", "--out", str(tmp_path / "b-{i}.json"),
                     "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert [entry["index"] for entry in doc] == [0, 1, 2, 3]
        assert doc[1]["weights"] == [0.0, 1.0, 0.0, 0.0]
        for entry in doc:
            assert entry["converged"] is True
            assert entry["iterations"] == len(entry["residual_history"])
            assert math.isfinite(entry["primal_value"])
            assert math.isfinite(entry["dual_value"])
            assert "barycenter side uses a hard marginal constraint" in entry["notes"]
            assert entry["config"]["rho1"] == 0.1
            assert entry["config"]["rho2"] == "inf"

    def test_saturated_barycenter_report_keeps_the_notes(self, tmp_path):
        # The far-apart input of test_saturated_barycenter_exits_2.
        a = write_field(tmp_path / "a.json", [[0.0, 0.0], [1.0, 0.0]],
                        [np.eye(2), 2.0 * np.eye(2)])
        b = write_field(tmp_path / "b.json", [[10.0, 0.0], [11.0, 0.0]],
                        [np.eye(2), np.diag([3.0, 0.1])])
        support = write_field(tmp_path / "s.json", [[5.0, 0.0], [6.0, 0.0]],
                              [np.eye(2), np.eye(2)])
        report = tmp_path / "report.json"
        code = main(["barycenter", "--inputs", f"{a},{b}", "--weights", "0.5,0.5",
                     "--support", support, "--rho", "0.1", "--eps", "0.001",
                     "--max-iter", "5", "--out", str(tmp_path / "bary.json"),
                     "--report", str(report)])
        assert code == 2
        (entry,) = json.loads(report.read_text(), parse_constant=_reject_constant)
        assert entry["converged"] is False
        assert entry["iterations"] == 5
        assert entry["weights"] == [0.5, 0.5]
        assert entry["dual_value"] is None
        for prefix in ("barycenter saturated", "coupling saturated",
                       "dual_value is not finite", "dual_value written as null"):
            assert any(n.startswith(prefix) for n in entry["notes"]), prefix

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
        heavy = heavy_line_measure()
        mu = write_field(tmp_path / "mu.json", heavy.points, heavy.tensors)
        code = main(["distance", "--mu", mu, "--nu", mu])
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

    def test_tensors_without_points_exit_1(self, tmp_path, capsys):
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"d": 2, "n": 2, "points": [],
                                     "tensors": [[1, 0, 1], [2, 0, 2]]}))
        out = tmp_path / "out.svg"
        assert main(["render", "--field", str(field), "--out", str(out)]) == 1
        assert "expected 0 packed tensors" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_scale_must_be_positive_and_finite(self, tmp_path, scale, capsys):
        field = tmp_path / "field.json"
        write_field(field, [[0.0, 0.0]], np.eye(2)[None])
        out = tmp_path / "out.svg"
        code = main(["render", "--field", str(field), "--out", str(out),
                     "--scale", scale])
        assert code == 1
        assert "scale must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("d", [2, 3])
    def test_bytes_independent_of_eigenvector_signs(self, monkeypatch, d):
        # Random tensors plus the ties of the sign rule: isotropic,
        # axis-aligned and diagonal (equal-magnitude) leading axes.
        rng = np.random.default_rng(23 + d)
        ties = np.array([np.eye(2), np.diag([2.0, 1.0]),
                         [[2.0, 1.0], [1.0, 2.0]], [[2.0, -1.0], [-1.0, 2.0]]])
        tensors = np.zeros((4, d, d))
        tensors[:, :2, :2] = ties
        tensors[:, 2:, 2:] = np.eye(d - 2)
        tensors = np.concatenate([tensors, random_psd(rng, d, n=12)])
        field = TensorMeasure(rng.uniform(size=(16, 2)), tensors)
        expected = render_field_svg(field)

        def negated(mats):
            vals, vecs = eig_sym(mats)
            return EigenPair(vals, -vecs)

        monkeypatch.setattr(qot.render, "eig_sym", negated)
        assert render_field_svg(field) == expected


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

    @pytest.mark.parametrize("dt", ["nan", "-0.1"])
    def test_dt_must_be_finite_and_nonnegative(self, tmp_path, dt, capsys):
        field = tmp_path / "field.json"
        save_field(field, bump_grid_measure(8, (0.5, 0.5), 0.0))
        out = tmp_path / "o.pgm"
        code = main(["noise", "--field", str(field), "--seed", "0",
                     "--steps", "2", "--dt", dt, "--out", str(out)])
        assert code == 1
        assert "dt must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

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
