"""Benchmark of the qot pipelines, run through the ``qot`` command line.

    python3 bench/run.py --workload desk --seed 0 --seconds 34 --trace 0

Run from a checkout of the repository (the program is ``src/qot``).  One
closed-loop client runs the workload's CLI stages one after another, each
as its own process, and checks every output with ``bench/checks.py``.  It
repeats whole rounds of the stages while one more round, as long as the
last, brings the rounds' total time nearer to ``--seconds``.  Set-up
(generating the input files) is timed apart: ``SETUPS_PER_ROUND`` times
before each round, so that its samples fall in the same slow or fast
spells of the host as the rounds, and after the last round as often as it
takes to reach ``SETUP_SAMPLES``.  Medians over the rounds and over the
set-ups are reported.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs every stage
under ``bench/tracing.py`` and prints the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine, the versions and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 21
SETUPS_PER_ROUND = 3
# Every process the benchmark starts is killed once the run is this old,
# so the run ends well within three minutes whatever the program does.
DEADLINE_S = 165.0


@dataclass(frozen=True)
class Stage:
    """One CLI invocation of a workload and the check of what it wrote."""

    name: str
    args: tuple
    check: Callable[[Path], None]


@dataclass(frozen=True)
class Workload:
    stages: tuple
    solve: str  # the stage reported as solve_s


PAIR = ("--mu", "mu.json", "--nu", "nu.json")
TRANSPORT = ("transport",) + PAIR + ("--out", "coupling.json", "--report", "report.json")
INTERPOLATE = ("interpolate",) + PAIR + ("--coupling", "coupling.json", "--steps",
                                         str(checks.STEPS), "--render", "--out",
                                         "frame-{i}.json")

WORKLOADS = {
    "desk": Workload(
        stages=(
            Stage("transport", TRANSPORT,
                  lambda wd: checks.check_transport(wd, trace_constrained=False)),
            Stage("interpolate", INTERPOLATE + ("--merge-radius", "1e-9"),
                  lambda wd: checks.check_frames(wd, merge=True)),
        ),
        solve="transport"),
    # rho = 0.1 on the input side: at the default rho = 1 the isotropic
    # mode needs 740-1,180 iterations per barycenter (53 s for the nine),
    # at 0.3 the count moves between 143 and 380 with the seed, and at 0.1
    # every seed takes 85-100.
    "lattice": Workload(
        stages=(
            Stage("barycenter",
                  ("barycenter", "--inputs", "a.json,b.json,c.json,d.json",
                   "--grid", "3", "--rho", str(checks.LATTICE_RHO), "--render",
                   "--out", "bary-{i}.json"),
                  checks.check_lattice),
        ),
        solve="barycenter"),
    "dti": Workload(
        stages=(
            Stage("transport", TRANSPORT + ("--trace-constrained",),
                  lambda wd: checks.check_transport(wd, trace_constrained=True)),
            Stage("interpolate", INTERPOLATE,
                  lambda wd: checks.check_frames(wd, merge=False)),
        ),
        solve="transport"),
}


def child_env() -> dict:
    """The children's environment: the checkout's ``src`` first on the
    path, one BLAS/OpenMP thread, a fixed hash seed and no QOT_THREADS."""
    env = dict(os.environ)
    env.pop("QOT_THREADS", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Outcome:
    seconds: float
    maxrss_mb: float
    code: int
    log: Path


def run_child(argv: list, cwd: Path, log: Path, env: dict, deadline: float) -> Outcome:
    """Run a process to its end; its wall time, peak RSS and exit code.
    It is killed if still running at ``deadline`` (a perf_counter value)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(seconds, usage.ru_maxrss / 1024.0, proc.returncode, log)


def machine(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


class Run:
    def __init__(self, args, workdir: Path):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.workdir = workdir
        self.env = child_env()
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.setup_times = []
        self.inputs = self.workdir / "inputs"

    def setup(self, count: int) -> None:
        """Generate the inputs ``count`` times, each in a new process, and
        record the times.  The first generation is kept as the rounds'
        inputs; every later one must be byte-identical to it."""
        for _ in range(count):
            k = len(self.setup_times)
            out = self.inputs if k == 0 else self.workdir / f"setup-{k}"
            out.mkdir()
            result = run_child(
                [sys.executable, str(BENCH / "gen.py"), "--workload",
                 self.args.workload, "--seed", str(self.args.seed), "--out", str(out)],
                self.workdir, self.workdir / "setup.log", self.env, self.deadline)
            if result.code != 0:
                raise SystemExit(f"input generation failed:\n{result.log.read_text()}")
            self.setup_times.append(result.seconds)
            if k == 0:
                continue
            names = sorted(p.name for p in out.iterdir())
            if names != sorted(p.name for p in self.inputs.iterdir()) or any(
                    (out / n).read_bytes() != (self.inputs / n).read_bytes()
                    for n in names):
                print(f"error: generation {k} differs from the first", file=sys.stderr)
                self.correct = False
            shutil.rmtree(out)

    def round(self, index: int) -> dict:
        """One pass over the workload's stages in a fresh directory."""
        wd = self.workdir / f"round-{index}"
        shutil.copytree(self.inputs, wd)
        times, rss, spans = {}, [], []
        for stage in self.workload.stages:
            if self.args.trace:
                spans_file = wd / f"{stage.name}.spans.json"
                argv = [sys.executable, str(BENCH / "tracing.py"), str(spans_file)]
            else:
                argv = [sys.executable, "-m", "qot.cli"]
            result = run_child(argv + list(stage.args), wd, wd / f"{stage.name}.log",
                               self.env, self.deadline)
            self.attempted += 1
            times[stage.name] = result.seconds
            rss.append(result.maxrss_mb)
            if result.code != 0:
                self.failed += 1
                print(f"error: {stage.name} exited {result.code}:\n"
                      f"{result.log.read_text()[-2000:]}", file=sys.stderr)
                continue
            try:
                stage.check(wd)
            except checks.CheckFailed as exc:
                self.failed += 1
                self.correct = False
                print(f"error: {stage.name} output is wrong: {exc}", file=sys.stderr)
            if self.args.trace:
                offset = len(spans)
                for span in json.loads(spans_file.read_text()):
                    if span[1] >= 0:
                        span[1] += offset
                    spans.append(span)
        shutil.rmtree(wd)
        return {"times": times, "rss": max(rss), "spans": spans}


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qot" / "cli.py").is_file():
        print(f"error: no qot sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    if hasattr(os, "sched_setaffinity"):
        # One core for the run and its children, so the scheduler does not
        # move a stage between cores midway; the last one, because the
        # first usually also serves the interrupts.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(args, workdir)
        rounds = []
        measured = 0.0
        while True:
            run.setup(SETUPS_PER_ROUND)
            begun = time.perf_counter()
            rounds.append(run.round(len(rounds)))
            last = time.perf_counter() - begun
            measured += last
            if measured + last / 2.0 >= args.seconds:
                break
        run.setup(SETUP_SAMPLES - len(run.setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    wl = run.workload
    wall = _median([sum(r["times"].values()) for r in rounds])
    if args.trace:
        per_round = [tracing.layer_metrics(r["spans"]) for r in rounds]
        metrics = {name: {"value": _median([m[name][0] for m in per_round]),
                          "unit": unit}
                   for name, (_, unit) in per_round[0].items()}
        print(f"traced wall_s {wall:.4f} s over {len(rounds)} rounds")
    else:
        metrics = {
            "setup_s": {"value": _median(run.setup_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "solve_s": {"value": _median([r["times"][wl.solve] for r in rounds]),
                        "unit": "s"},
            "peak_rss_mb": {"value": _median([r["rss"] for r in rounds]), "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>14.6g} {m['unit']}")
    print(f"rounds {len(rounds)}  set-ups {len(run.setup_times)}  "
          f"attempted {run.attempted}  failed {run.failed}")
    print("stage seconds per round: " + "; ".join(
        " ".join(f"{k} {v:.3f}" for k, v in r["times"].items()) for r in rounds))
    print(json.dumps({"machine": machine(args), "rounds": len(rounds)}))
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
