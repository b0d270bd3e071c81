"""Command-line driver.

Subcommands cover the full pipeline: transport solves, displacement
interpolation, barycenters, distance reporting, SVG rendering and the
diffusion noise demo.  Exit codes: 0 success, 1 input error, 2 a solve
that is not certified: it hit the iteration limit without converging or
ended with a non-finite objective.

The environment variable ``QOT_THREADS`` caps worker parallelism for
batch frame/grid loops (default 1, i.e. sequential).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .barycenter import BarycenterProblem, barycenter_solve, bilinear_weights
from .cost import euclidean_cost, from_distance_matrix
from .fileio import (
    FileFormatError,
    load_coupling,
    load_distance_matrix,
    load_field,
    save_coupling,
    save_field,
)
from .interpolate import (
    InterpolationParams,
    anisotropic_diffuse,
    displacement_interpolate,
    single_dirac_distance,
)
from .render import render_field_svg, write_pgm
from .solver import SolveReport, SolverConfig, sinkhorn_solve

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_CONVERGENCE = 2


class CliError(Exception):
    """Input or usage error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors, which collides with
    # the non-convergence code; route through CliError instead.
    def error(self, message):
        raise CliError(message)


def worker_limit() -> int:
    """Parallelism cap from QOT_THREADS (>= 1); defaults to sequential."""
    raw = os.environ.get("QOT_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise CliError(f"QOT_THREADS must be an integer, got {raw!r}")
    if value < 1:
        raise CliError(f"QOT_THREADS must be >= 1, got {value}")
    return value


def _run_batch(tasks):
    """Run no-argument callables, in parallel when QOT_THREADS allows."""
    limit = worker_limit()
    tasks = list(tasks)
    if limit == 1 or len(tasks) <= 1:
        for task in tasks:
            task()
        return
    with ThreadPoolExecutor(max_workers=min(limit, len(tasks))) as pool:
        for future in [pool.submit(task) for task in tasks]:
            future.result()


def _float_or_inf(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}")


def _add_solver_flags(parser, pair=True):
    """Solver flags; ``--rho1``, ``--rho2`` and ``--trace-constrained``
    only for a two-field solve (``pair``), since a barycenter takes its
    fidelity from ``--rho`` and has no trace mode."""
    parser.add_argument("--eps", type=float, default=0.08**2,
                        help="entropic strength (default 0.0064)")
    if pair:
        parser.add_argument("--rho1", type=_float_or_inf, default=1.0,
                            help="row marginal fidelity, 'inf' for hard")
        parser.add_argument("--rho2", type=_float_or_inf, default=1.0,
                            help="column marginal fidelity, 'inf' for hard")
    parser.add_argument("--tau1", type=float, default=None)
    parser.add_argument("--tau2", type=float, default=None)
    parser.add_argument("--max-iter", type=int, default=10000)
    parser.add_argument("--tol", type=float, default=1e-9)
    if pair:
        parser.add_argument("--trace-constrained", action="store_true",
                            help="pin marginal traces to the input traces")


_CONFIG_FLAGS = ("eps", "rho1", "rho2", "tau1", "tau2", "max_iter", "tol",
                 "trace_constrained")


def _solver_config(args) -> SolverConfig:
    try:
        return SolverConfig(**{
            key: getattr(args, key) for key in _CONFIG_FLAGS if hasattr(args, key)
        })
    except ValueError as exc:
        raise CliError(str(exc))


def _exit_code(report: SolveReport) -> int:
    """0 only for a certified solve: converged, with finite objectives."""
    finite = math.isfinite(report.primal_value) and math.isfinite(report.dual_value)
    return EXIT_OK if report.converged and finite else EXIT_NO_CONVERGENCE


def _report_dict(report: SolveReport, cfg: SolverConfig) -> dict:
    """The ``--report`` document; a non-finite objective value is written
    as null with a note, so the document stays strict JSON."""
    values = {"primal_value": report.primal_value, "dual_value": report.dual_value}
    notes = list(report.notes)
    for key, value in values.items():
        if not math.isfinite(value):
            values[key] = None
            notes.append(f"{key} is not finite ({value}); written as null")
    return {
        "iterations": report.iterations,
        "converged": report.converged,
        **values,
        "residual_history": report.residual_history.tolist(),
        "notes": notes,
        "config": {
            "eps": cfg.eps,
            "rho1": cfg.rho1 if math.isfinite(cfg.rho1) else "inf",
            "rho2": cfg.rho2 if math.isfinite(cfg.rho2) else "inf",
            "tau1": cfg.tau(1),
            "tau2": cfg.tau(2),
            "max_iter": cfg.max_iter,
            "tol": cfg.tol,
            "trace_constrained": cfg.trace_constrained,
        },
    }


def _load_pair(args):
    mu = load_field(args.mu)
    nu = load_field(args.nu)
    if mu.n_atoms == 0 or nu.n_atoms == 0:
        raise CliError("input measures must not be empty")
    if mu.tensor_dim != nu.tensor_dim:
        raise CliError(
            f"tensor dimensions differ: {mu.tensor_dim} vs {nu.tensor_dim}"
        )
    return mu, nu


def _pair_cost(args, mu, nu):
    if getattr(args, "cost", None):
        dist = load_distance_matrix(args.cost)
        if dist.shape != (mu.n_atoms, nu.n_atoms):
            raise CliError(
                f"distance matrix {dist.shape} does not match measure sizes "
                f"({mu.n_atoms}, {nu.n_atoms})"
            )
        return from_distance_matrix(dist, alpha=args.alpha)
    if mu.ambient_dim != nu.ambient_dim:
        raise CliError("ambient dimensions differ; supply --cost instead")
    return euclidean_cost(mu.points, nu.points, alpha=args.alpha)


def _frame_path(pattern: str, index: int, count: int) -> Path:
    if "{i}" in pattern:
        return Path(pattern.replace("{i}", str(index)))
    if count == 1:
        return Path(pattern)
    stem = Path(pattern)
    return stem.with_name(f"{stem.stem}-{index}{stem.suffix}")


def _cmd_transport(args) -> int:
    mu, nu = _load_pair(args)
    cfg = _solver_config(args)
    try:
        coupling, _, report = sinkhorn_solve(mu, nu, _pair_cost(args, mu, nu), cfg)
    except ValueError as exc:
        raise CliError(str(exc))
    save_coupling(args.out, coupling)
    if args.report:
        doc = _report_dict(report, cfg)
        Path(args.report).write_text(json.dumps(doc, allow_nan=False) + "\n")
    return _exit_code(report)


def _cmd_interpolate(args) -> int:
    mu, nu = _load_pair(args)
    coupling = load_coupling(args.coupling)
    if coupling.rows != mu.n_atoms or coupling.cols != nu.n_atoms:
        raise CliError(
            f"coupling is {coupling.rows}x{coupling.cols} but measures have "
            f"{mu.n_atoms} and {nu.n_atoms} atoms"
        )
    if args.steps is not None:
        if args.steps < 2:
            raise CliError("--steps must be >= 2")
        ts = np.linspace(0.0, 1.0, args.steps)
    else:
        if args.t is None:
            raise CliError("either --t or --steps is required")
        ts = np.array([args.t])

    def build_frame(index, t):
        def task():
            try:
                params = InterpolationParams(
                    t=float(t), trace_threshold=args.trace_threshold,
                    merge_radius=args.merge_radius,
                )
            except ValueError as exc:
                raise CliError(str(exc))
            frame = displacement_interpolate(mu, nu, coupling, params)
            out = _frame_path(args.out, index, len(ts))
            save_field(out, frame)
            if args.render:
                svg = render_field_svg(frame, scale=args.scale)
                out.with_suffix(".svg").write_text(svg)
        return task

    _run_batch(build_frame(i, t) for i, t in enumerate(ts))
    return EXIT_OK


def _cmd_barycenter(args) -> int:
    paths = [p for p in args.inputs.split(",") if p]
    inputs = [load_field(p) for p in paths]
    if not inputs:
        raise CliError("--inputs must list at least one field")
    for idx, measure in enumerate(inputs):
        if measure.n_atoms == 0:
            raise CliError(f"input {idx} is empty")
        if measure.tensor_dim != inputs[0].tensor_dim:
            raise CliError("inputs must share the tensor dimension")

    if (args.weights is None) == (args.grid is None):
        raise CliError("exactly one of --weights or --grid is required")
    if args.grid is not None:
        if len(inputs) != 4:
            raise CliError("--grid requires exactly four inputs")
        if args.grid < 1:
            raise CliError("--grid must be >= 1")
        ts = np.linspace(0.0, 1.0, args.grid) if args.grid > 1 else [0.0]
        weight_sets = [bilinear_weights(t1, t2) for t1 in ts for t2 in ts]
    else:
        weights = [float(w) for w in args.weights.split(",") if w]
        if len(weights) != len(inputs):
            raise CliError(
                f"{len(weights)} weights for {len(inputs)} inputs"
            )
        if abs(sum(weights) - 1.0) > 1e-9:
            raise CliError(f"weights sum to {sum(weights):.12g}, expected 1")
        weight_sets = [tuple(weights)]

    support = load_field(args.support).points if args.support else inputs[0].points
    if len(support) == 0:
        raise CliError("support must not be empty")
    costs = tuple(
        euclidean_cost(m.points, support, alpha=args.alpha) for m in inputs
    )
    cfg = _solver_config(args)

    uncertified = []

    def build(index, weights):
        def task():
            w = np.asarray(weights, dtype=float)
            w = w / w.sum()
            try:
                prob = BarycenterProblem(tuple(inputs), w, support, costs,
                                         rho=args.rho)
            except ValueError as exc:
                raise CliError(str(exc))
            nu, report = barycenter_solve(prob, cfg)
            out = _frame_path(args.out, index, len(weight_sets))
            save_field(out, nu)
            if args.render:
                out.with_suffix(".svg").write_text(
                    render_field_svg(nu, scale=args.scale))
            if _exit_code(report) != EXIT_OK:
                uncertified.append(index)
        return task

    _run_batch(build(i, w) for i, w in enumerate(weight_sets))
    return EXIT_NO_CONVERGENCE if uncertified else EXIT_OK


def _cmd_distance(args) -> int:
    mu, nu = _load_pair(args)
    if args.pointwise is not None:
        i, j = args.pointwise
        if not (0 <= i < mu.n_atoms and 0 <= j < nu.n_atoms):
            raise CliError(
                f"pointwise indices ({i}, {j}) out of range "
                f"({mu.n_atoms}, {nu.n_atoms})"
            )
    cfg = _solver_config(args)
    try:
        _, _, report = sinkhorn_solve(mu, nu, _pair_cost(args, mu, nu), cfg)
    except ValueError as exc:
        raise CliError(str(exc))
    print(f"W_eps {report.primal_value:.11e}")
    if args.pointwise is not None:
        i, j = args.pointwise
        d = single_dirac_distance(mu.tensors[i], nu.tensors[j])
        print(f"D {d:.11e}")
    return _exit_code(report)


def _cmd_render(args) -> int:
    field = load_field(args.field)
    try:
        svg = render_field_svg(field, scale=args.scale, subsample=args.subsample)
    except ValueError as exc:
        raise CliError(str(exc))
    Path(args.out).write_text(svg)
    return EXIT_OK


def _cmd_noise(args) -> int:
    field = load_field(args.field)
    try:
        grid = anisotropic_diffuse(field, noise_seed=args.seed,
                                   steps=args.steps, dt=args.dt)
    except ValueError as exc:
        raise CliError(str(exc))
    write_pgm(args.out, grid)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="qot",
                     description="Optimal transport between tensor fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transport", help="solve a transport problem")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--cost", help="distance matrix file (else Euclidean)")
    p.add_argument("--alpha", type=float, default=2.0,
                   help="distance exponent (default 2)")
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="coupling output file")
    p.add_argument("--report", help="convergence report output file")
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("interpolate", help="displacement interpolation")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--coupling", required=True)
    p.add_argument("--t", type=float)
    p.add_argument("--steps", type=int,
                   help="number of frames over t in [0, 1]")
    p.add_argument("--trace-threshold", type=float, default=1e-8)
    p.add_argument("--merge-radius", type=float, default=0.0)
    p.add_argument("--render", action="store_true",
                   help="also write an SVG per frame")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--out", required=True,
                   help="output pattern; '{i}' expands to the frame index")
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("barycenter", help="weighted barycenters")
    p.add_argument("--inputs", required=True,
                   help="comma-separated field files")
    p.add_argument("--weights", help="comma-separated weights summing to 1")
    p.add_argument("--grid", type=int,
                   help="K x K bilinear-weight lattice (four inputs)")
    p.add_argument("--support",
                   help="field file whose points define the support "
                        "(default: first input)")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--rho", type=_float_or_inf, default=1.0,
                   help="input-side marginal fidelity")
    _add_solver_flags(p, pair=False)
    p.add_argument("--render", action="store_true")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--out", required=True,
                   help="output pattern; '{i}' expands to the weight index")
    p.set_defaults(func=_cmd_barycenter)

    p = sub.add_parser("distance", help="transport value between fields")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--cost")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--pointwise", nargs=2, type=int, metavar=("I", "J"),
                   help="also print the single-atom tensor distance")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("render", help="draw a field as SVG ellipses")
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--subsample", type=int, default=1)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("noise", help="diffusion texture from a grid field")
    p.add_argument("--field", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--out", required=True, help="plain PGM output file")
    p.set_defaults(func=_cmd_noise)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
