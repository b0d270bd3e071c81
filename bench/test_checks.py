"""The workload checks accept the program's real output and reject a
deliberately corrupted copy of it.

    python3 -m pytest bench/test_checks.py -p no:cacheprovider

Each workload's pipeline runs once through the CLI (about 35 s in all);
every test then corrupts one file of a copy and expects the check to fail.
"""

import json
import shutil
import sys
import time

import numpy as np
import pytest

import checks
import run


def _pipeline(workload, tmp_path_factory):
    wd = tmp_path_factory.mktemp(workload)
    env = run.child_env()
    deadline = time.perf_counter() + 600.0
    gen = run.run_child([sys.executable, str(run.BENCH / "gen.py"), "--workload",
                         workload, "--seed", "0", "--out", str(wd)],
                        wd, wd / "gen.log", env, deadline)
    assert gen.code == 0, gen.log.read_text()
    for stage in run.WORKLOADS[workload].stages:
        result = run.run_child([sys.executable, "-m", "qot.cli", *stage.args],
                               wd, wd / f"{stage.name}.log", env, deadline)
        assert result.code == 0, result.log.read_text()
    return wd


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    return _pipeline("desk", tmp_path_factory)


@pytest.fixture(scope="module")
def dti(tmp_path_factory):
    return _pipeline("dti", tmp_path_factory)


@pytest.fixture(scope="module")
def lattice(tmp_path_factory):
    return _pipeline("lattice", tmp_path_factory)


def _copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _edit(path, mutate):
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))


def _scale_largest_entry(factor):
    def mutate(doc):
        d = doc["d"]
        diag = [k for k, (r, c) in enumerate(zip(*np.triu_indices(d))) if r == c]
        traces = [sum(e[k] for k in diag) for e in doc["entries"]]
        big = int(np.argmax(traces))
        doc["entries"][big] = [factor * x for x in doc["entries"][big]]
    return mutate


def _drop_atom(index):
    def mutate(doc):
        del doc["points"][index]
        del doc["tensors"][index]
    return mutate


def _drop_ellipse(path, index):
    lines = path.read_text().splitlines(keepends=True)
    ellipses = [k for k, line in enumerate(lines) if line.startswith("<ellipse ")]
    del lines[ellipses[index]]
    path.write_text("".join(lines))


def test_real_outputs_pass(desk, dti, lattice):
    checks.check_transport(desk, trace_constrained=False)
    checks.check_frames(desk, merge=True)
    checks.check_transport(dti, trace_constrained=True)
    checks.check_frames(dti, merge=False)
    checks.check_lattice(lattice)


@pytest.mark.parametrize("factor", [1.1, 0.9])
def test_desk_scaled_coupling_entry_fails(desk, tmp_path, factor):
    wd = _copy(desk, tmp_path)
    _edit(wd / "coupling.json", _scale_largest_entry(factor))
    with pytest.raises(checks.CheckFailed, match="gap"):
        checks.check_transport(wd, trace_constrained=False)


def test_dti_scaled_coupling_entry_fails(dti, tmp_path):
    wd = _copy(dti, tmp_path)
    _edit(wd / "coupling.json", _scale_largest_entry(1.001))
    with pytest.raises(checks.CheckFailed):
        checks.check_transport(wd, trace_constrained=True)


def test_report_missing_key_fails(desk, tmp_path):
    wd = _copy(desk, tmp_path)
    _edit(wd / "report.json", lambda doc: doc.pop("dual_value"))
    with pytest.raises(checks.CheckFailed, match="malformed"):
        checks.check_transport(wd, trace_constrained=False)


def test_non_standard_json_report_fails(dti, tmp_path):
    wd = _copy(dti, tmp_path)
    _edit(wd / "report.json", lambda doc: doc.update(primal_value=float("inf")))
    with pytest.raises(checks.CheckFailed, match="non-standard"):
        checks.check_transport(wd, trace_constrained=True)


@pytest.mark.parametrize("frame", [0, 4, 8])
def test_desk_frame_missing_atom_fails(desk, tmp_path, frame):
    # The ellipse goes too, so the atom count alone gives it away.
    wd = _copy(desk, tmp_path)
    _edit(wd / f"frame-{frame}.json", _drop_atom(7))
    _drop_ellipse(wd / f"frame-{frame}.svg", 7)
    with pytest.raises(checks.CheckFailed, match=f"frame-{frame}"):
        checks.check_frames(wd, merge=True)


def test_desk_frame_missing_ellipse_fails(desk, tmp_path):
    wd = _copy(desk, tmp_path)
    _drop_ellipse(wd / "frame-5.svg", 0)
    with pytest.raises(checks.CheckFailed, match="ellipses"):
        checks.check_frames(wd, merge=True)


def test_dti_frame_missing_atom_fails(dti, tmp_path):
    wd = _copy(dti, tmp_path)
    _edit(wd / "frame-3.json", _drop_atom(11))
    _drop_ellipse(wd / "frame-3.svg", 11)
    with pytest.raises(checks.CheckFailed, match="frame-3"):
        checks.check_frames(wd, merge=False)


@pytest.mark.parametrize("bary", [0, 4, 7])
def test_lattice_perturbed_tensor_fails(lattice, tmp_path, bary):
    wd = _copy(lattice, tmp_path)

    def mutate(doc):
        doc["tensors"][3][1] *= 1.0 + 1e-6

    _edit(wd / f"bary-{bary}.json", mutate)
    with pytest.raises(checks.CheckFailed, match="mirrored"):
        checks.check_lattice(wd)


def test_lattice_indefinite_tensor_fails(lattice, tmp_path):
    wd = _copy(lattice, tmp_path)
    _edit(wd / "bary-2.json", lambda doc: doc["tensors"][0].__setitem__(0, -1.0))
    with pytest.raises(checks.CheckFailed, match="positive definite"):
        checks.check_lattice(wd)


@pytest.mark.parametrize("wrong", ["mean", "rho"])
def test_lattice_symmetric_wrong_centre_fails(lattice, tmp_path, wrong):
    # Both stand-ins are mirror-symmetric and positive definite, so only
    # the comparison with the reference barycenter can reject them.
    wd = _copy(lattice, tmp_path)
    points, _ = checks.read_field(wd / "a.json")
    inputs = [checks.read_field(wd / f"{name}.json")[1] for name in "abcd"]
    if wrong == "mean":
        centre = sum(inputs) / 4.0
    else:
        centre = checks.reference_barycenter(points, inputs, (0.25,) * 4,
                                             rho=2 * checks.LATTICE_RHO)
    rows, cols = np.triu_indices(2)
    _edit(wd / "bary-4.json",
          lambda doc: doc.update(tensors=centre[:, rows, cols].tolist()))
    with pytest.raises(checks.CheckFailed, match="reference"):
        checks.check_lattice(wd)
