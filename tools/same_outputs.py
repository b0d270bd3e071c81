"""Compare the command-line outputs of two checkouts of qot.

    python tools/same_outputs.py PARENT CHANGE [--seeds 0 1 2] [--workloads desk dti]

For every workload of ``bench/run.py`` (``WORKLOADS``) and every seed, each
checkout writes the inputs with its own ``bench/gen.py`` and runs the
workload's CLI stages on them with its own ``src``, as the benchmark runs
them.  The solve stage gets a ``--report`` if it writes none, so that every
solve's iteration count and relative duality gap ``|primal - dual| / |dual|``
can be printed (for a report of several solves, the largest gap); a report
changes no other output.  Then every file of the two runs is compared:
``same`` if the bytes match; ``same values`` if it is JSON whose parsed
document equals the parent's with every float bit-equal (only the layout
of the text differs); otherwise how many of its numbers are written
differently and the largest difference of the numbers in it, relative
to the largest magnitude in the parent's file (or ``text differs`` if
anything but the numbers does).  ``bench/checks.py``
checks the change's outputs.  Last, the lines of each ``src/qot/*.py``
module in both checkouts (as ``wc -l`` counts them), with the net change
per module and in total, and each checkout's public surface: the names in
``qot.__all__`` and the fields of its data classes (``SURFACE_CLASSES``),
read by a child process on the checkout's ``src``, with the names the
change added or removed.

Exits 0 if every file is byte-identical and every check passes, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import run  # noqa: E402

# The classes whose fields are the public surface: the settings classes and
# the ground cost's data.
SURFACE_CLASSES = ("SolverConfig", "BarycenterProblem", "InterpolationParams",
                   "GroundCost")

# Prints the surface of the qot on the path as JSON, {part: [names]}: the
# names in qot.__all__, then the fields of each class named in argv.
_SURFACE = """
import dataclasses, json, sys, qot
surface = {"qot.__all__": list(qot.__all__)}
for name in sys.argv[1:]:
    surface[name] = [f"{name}.{f.name}" for f in dataclasses.fields(getattr(qot, name))]
print(json.dumps(surface))
"""

# A JSON or SVG number; the text between numbers must match exactly.
_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def run_stages(checkout: Path, workload: str, seed: int, wd: Path) -> list:
    """Generate the inputs and run the stages of ``workload`` in ``wd``
    with ``checkout``'s sources; returns the stages' exit codes."""
    env = dict(run.child_env(), PYTHONPATH=str(checkout / "src"))
    wd.mkdir(parents=True)
    subprocess.run([sys.executable, str(checkout / "bench" / "gen.py"),
                    "--workload", workload, "--seed", str(seed), "--out", str(wd)],
                   env=env, check=True)
    codes = []
    for stage in run.WORKLOADS[workload].stages:
        args = list(stage.args)
        if stage.name == run.WORKLOADS[workload].solve and "--report" not in args:
            args += ["--report", f"{stage.name}-report.json"]
        proc = subprocess.run([sys.executable, "-m", "qot.cli"] + args, cwd=wd,
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            print(f"  {checkout}: {stage.name} exited {proc.returncode}: "
                  f"{proc.stderr.strip()[-500:]}")
        codes.append(proc.returncode)
    return codes


def difference(a: str, b: str) -> str:
    """How the text ``b`` differs from ``a``."""
    parts_a, parts_b = _NUMBER.split(a), _NUMBER.split(b)
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return "text differs"
    moved = sum(u != v for u, v in zip(parts_a[1::2], parts_b[1::2]))
    x = [float(v) for v in parts_a[1::2]]
    y = [float(v) for v in parts_b[1::2]]
    diff = max((abs(p - q) for p, q in zip(x, y)), default=0.0)
    scale = max((abs(p) for p in x), default=0.0)
    return (f"{moved} of {len(x)} numbers moved, largest relative difference "
            f"{diff / scale if scale else diff:.3g}")


def bit_equal(x, y) -> bool:
    """Whether two parsed JSON values are equal with every float
    bit-equal (``-0.0`` is not ``0.0``, and ``1`` is not ``1.0``)."""
    if type(x) is not type(y):
        return False
    if isinstance(x, dict):
        return list(x) == list(y) and all(bit_equal(x[k], y[k]) for k in x)
    if isinstance(x, list):
        return len(x) == len(y) and all(map(bit_equal, x, y))
    if isinstance(x, float):
        return struct.pack("<d", x) == struct.pack("<d", y)
    return x == y


def same_values(a: Path, b: Path) -> bool:
    """Whether the JSON files ``a`` and ``b`` hold bit-equal documents."""
    try:
        return bit_equal(json.loads(a.read_bytes()), json.loads(b.read_bytes()))
    except ValueError:
        return False


def relative_gap(entry: dict) -> float:
    """``|primal - dual| / |dual|`` of one solve's report (``inf`` if an
    objective was written as null, the absolute gap if the dual is 0)."""
    primal, dual = entry["primal_value"], entry["dual_value"]
    if primal is None or dual is None:
        return math.inf
    return abs(primal - dual) / abs(dual) if dual else abs(primal - dual)


def solves(path: Path) -> tuple:
    """The iteration counts of a ``--report`` document's solves and their
    largest relative duality gap."""
    doc = json.loads(path.read_text())
    entries = doc if isinstance(doc, list) else [doc]
    return ([entry["iterations"] for entry in entries],
            max(relative_gap(entry) for entry in entries))


def compare(parent: Path, change: Path, workload: str, seed: int, tmp: Path) -> bool:
    print(f"{workload} seed {seed}")
    dirs = [tmp / side / f"{workload}-{seed}" for side in ("parent", "change")]
    codes = [run_stages(checkout, workload, seed, wd)
             for checkout, wd in zip((parent, change), dirs)]
    same = codes[0] == codes[1] and not any(codes[1])
    names = sorted({p.name for wd in dirs for p in wd.iterdir()})
    for name in names:
        a, b = (wd / name for wd in dirs)
        if not (a.exists() and b.exists()):
            status = f"only in the {'parent' if a.exists() else 'change'}"
        elif a.read_bytes() == b.read_bytes():
            status = "same"
        elif name.endswith(".json") and same_values(a, b):
            status = "same values"
        else:
            status = difference(a.read_text(), b.read_text())
        same = same and status == "same"
        if name.endswith("report.json") and a.exists() and b.exists():
            (its_a, gap_a), (its_b, gap_b) = solves(a), solves(b)
            status += (f"; iterations {its_a} -> {its_b}; "
                       f"relative gap {gap_a:.2g} -> {gap_b:.2g}")
        print(f"  {name:24s} {status}")
    for stage in run.WORKLOADS[workload].stages:
        try:
            stage.check(dirs[1])
        except checks.CheckFailed as exc:
            print(f"  check of {stage.name} failed: {exc}")
            same = False
    return same


def line_counts(checkout: Path) -> dict:
    """The newline count of each ``src/qot/*.py`` of ``checkout``."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((checkout / "src" / "qot").glob("*.py"))}


def print_line_counts(parent: Path, change: Path) -> None:
    counts = [line_counts(parent), line_counts(change)]
    print("src/qot lines (wc -l): parent, change, net")
    for name in sorted(set(counts[0]) | set(counts[1])) + ["total"]:
        a, b = (sum(c.values()) if name == "total" else c.get(name, 0)
                for c in counts)
        print(f"  {name:24s} {a:6d} {b:6d} {b - a:+6d}")


def surface(checkout: Path) -> dict:
    """``checkout``'s public surface, ``{part: set of names}``."""
    env = dict(run.child_env(), PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, "-c", _SURFACE, *SURFACE_CLASSES],
                          env=env, capture_output=True, text=True, check=True)
    return {part: set(names) for part, names in json.loads(proc.stdout).items()}


def print_surface(parent: Path, change: Path) -> None:
    surfaces = [surface(parent), surface(change)]
    print("public surface (names): parent, change, net")
    for part in surfaces[0]:
        a, b = (len(s[part]) for s in surfaces)
        print(f"  {part:24s} {a:6d} {b:6d} {b - a:+6d}")
    a, b = (set().union(*s.values()) for s in surfaces)
    for verb, names in (("removed", a - b), ("added", b - a)):
        for name in sorted(names):
            print(f"  {verb} {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--workloads", nargs="+", choices=sorted(run.WORKLOADS),
                        default=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    with tempfile.TemporaryDirectory() as tmp:
        results = [compare(parent, change, workload, seed, Path(tmp))
                   for workload in args.workloads for seed in args.seeds]
    print_line_counts(parent, change)
    print_surface(parent, change)
    print("every output byte-identical, every check passed" if all(results)
          else "outputs differ or a check failed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
