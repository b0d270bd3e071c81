"""Command-line driver.

Subcommands cover the full pipeline: transport solves, displacement
interpolation, barycenters, distance reporting, SVG rendering and the
diffusion noise demo.  The driver parses flags, calls the library,
writes files and maps exit codes: a flag left out takes the library's
default, and the library checks the inputs.  Exit codes: 0 success, 1
input error, 2 a solve that is not certified (``SolveReport.certified``):
it hit the iteration limit or ended with a non-finite objective.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .barycenter import (BarycenterProblem, _check_weights, barycenter_solve,
                         bilinear_weights)
from .cost import euclidean_cost, from_distance_matrix
from .fileio import (
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


def _add_solver_flags(parser, pair=True):
    """Solver flags; ``--rho1``, ``--rho2`` and ``--trace-constrained``
    only for a two-field solve (``pair``), since a barycenter sets its
    input-side ``rho1`` with ``--rho`` and has no trace mode."""
    parser.add_argument("--eps", type=float,
                        help=f"entropic strength (default {SolverConfig.eps:g})")
    if pair:
        parser.add_argument("--rho1", type=float,
                            help="row marginal fidelity, 'inf' for hard")
        parser.add_argument("--rho2", type=float,
                            help="column marginal fidelity, 'inf' for hard")
    parser.add_argument("--max-iter", type=int)
    parser.add_argument("--tol", type=float)
    if pair:
        parser.add_argument("--trace-constrained", action="store_true",
                            help="pin marginal traces to the input traces")


def _given(args, *names) -> dict:
    """The flags among ``names`` that the command line set, as keyword
    arguments; the library supplies the value of every other one."""
    values = vars(args)
    return {name: values[name] for name in names if values[name] is not None}


def _items(args, name: str) -> list:
    """The comma-separated items of ``--name``; an empty one is refused."""
    items = getattr(args, name).split(",")
    if "" in items:
        raise CliError(f"--{name} has an empty item")
    return items


def _exit_code(report: SolveReport) -> int:
    """0 only for a certified solve (:attr:`SolveReport.certified`)."""
    return EXIT_OK if report.certified else EXIT_NO_CONVERGENCE


def _report_dict(report: SolveReport) -> dict:
    """The ``--report`` document; a non-finite objective value (which the
    solver's notes already name) is written as null with a note, so the
    document stays strict JSON.  ``config`` is the configuration the solve
    ran, with a hard constraint's ``inf`` written as ``"inf"`` and the
    effective relaxations in place of ``tau1`` and ``tau2``."""
    values = {"primal_value": report.primal_value, "dual_value": report.dual_value}
    notes = list(report.notes)
    for key, value in values.items():
        if not math.isfinite(value):
            values[key] = None
            notes.append(f"{key} written as null")
    cfg = report.config
    config = {key: "inf" if value == math.inf else value
              for key, value in asdict(cfg).items()}
    config.update(tau1=cfg.tau(1), tau2=cfg.tau(2))
    return {
        "iterations": report.iterations,
        "converged": report.converged,
        **values,
        "residual_history": report.residual_history.tolist(),
        "notes": notes,
        "config": config,
    }


def _solve_pair(args, mu, nu):
    """The transport solve of ``transport`` and ``distance``:
    ``(coupling, report)``."""
    cfg = SolverConfig(**_given(args, "eps", "rho1", "rho2", "max_iter", "tol",
                                "trace_constrained"))
    alpha = _given(args, "alpha")
    if args.cost:
        cost = from_distance_matrix(load_distance_matrix(args.cost), **alpha)
    else:
        cost = euclidean_cost(mu.points, nu.points, **alpha)
    coupling, _, report = sinkhorn_solve(mu, nu, cost, cfg)
    return coupling, report


def _frame_path(pattern: str, index: int, count: int) -> Path:
    if "{i}" in pattern:
        return Path(str(index).join(pattern.split("{i}")))
    if count == 1:
        return Path(pattern)
    stem = Path(pattern)
    return stem.with_name(f"{stem.stem}-{index}{stem.suffix}")


def _cmd_transport(args) -> int:
    coupling, report = _solve_pair(args, load_field(args.mu), load_field(args.nu))
    save_coupling(args.out, coupling)
    if args.report:
        doc = _report_dict(report)
        Path(args.report).write_text(json.dumps(doc, allow_nan=False) + "\n")
    return _exit_code(report)


def _cmd_interpolate(args) -> int:
    mu, nu = load_field(args.mu), load_field(args.nu)
    coupling = load_coupling(args.coupling)
    if args.steps is not None and args.steps < 2:
        raise CliError("--steps must be >= 2")
    ts = [args.t] if args.steps is None else np.linspace(0.0, 1.0, args.steps)

    knobs = _given(args, "trace_threshold", "merge_radius")
    for index, t in enumerate(ts):
        params = InterpolationParams(float(t), **knobs)
        frame = displacement_interpolate(mu, nu, coupling, params)
        out = _frame_path(args.out, index, len(ts))
        save_field(out, frame)
        if args.render:
            svg = render_field_svg(frame, **_given(args, "scale"))
            out.with_suffix(".svg").write_text(svg)
    return EXIT_OK


def _cmd_barycenter(args) -> int:
    inputs = [load_field(p) for p in _items(args, "inputs")]
    if args.grid is not None:
        if len(inputs) != 4:
            raise CliError("--grid requires exactly four inputs")
        if args.grid < 1:
            raise CliError("--grid must be >= 1")
        ts = np.linspace(0.0, 1.0, args.grid) if args.grid > 1 else [0.0]
        weight_sets = [bilinear_weights(t1, t2) for t1 in ts for t2 in ts]
    else:
        weights = [float(w) for w in _items(args, "weights")]
        # The library's rule, looser before the weights are normalised.
        _check_weights(np.asarray(weights), tol=1e-9)
        weight_sets = [tuple(weights)]

    support = load_field(args.support).points if args.support else inputs[0].points
    alpha = _given(args, "alpha")
    costs = tuple(euclidean_cost(m.points, support, **alpha) for m in inputs)
    cfg = SolverConfig(**_given(args, "eps", "rho1", "max_iter", "tol"))

    code = EXIT_OK
    doc = []
    for index, weights in enumerate(weight_sets):
        w = np.asarray(weights, dtype=float)
        w = w / w.sum()
        prob = BarycenterProblem(tuple(inputs), w, support, costs)
        nu, report = barycenter_solve(prob, cfg)
        out = _frame_path(args.out, index, len(weight_sets))
        save_field(out, nu)
        if args.render:
            out.with_suffix(".svg").write_text(
                render_field_svg(nu, **_given(args, "scale")))
        if not report.certified:
            code = EXIT_NO_CONVERGENCE
        doc.append({"index": index, "weights": w.tolist(),
                    **_report_dict(report)})
    if args.report:
        Path(args.report).write_text(json.dumps(doc, allow_nan=False) + "\n")
    return code


def _cmd_distance(args) -> int:
    mu, nu = load_field(args.mu), load_field(args.nu)
    if args.pointwise is not None:
        i, j = args.pointwise
        if not (0 <= i < mu.n_atoms and 0 <= j < nu.n_atoms):
            raise CliError(
                f"pointwise indices ({i}, {j}) out of range "
                f"({mu.n_atoms}, {nu.n_atoms})"
            )
    _, report = _solve_pair(args, mu, nu)
    print(f"W_eps {report.primal_value:.11e}")
    if args.pointwise is not None:
        i, j = args.pointwise
        d = single_dirac_distance(mu.tensors[i], nu.tensors[j])
        print(f"D {d:.11e}")
    return _exit_code(report)


def _cmd_render(args) -> int:
    field = load_field(args.field)
    svg = render_field_svg(field, **_given(args, "scale", "subsample"))
    Path(args.out).write_text(svg)
    return EXIT_OK


def _cmd_noise(args) -> int:
    field = load_field(args.field)
    grid = anisotropic_diffuse(field, noise_seed=args.seed,
                               steps=args.steps, dt=args.dt)
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
    p.add_argument("--alpha", type=float, help="distance exponent")
    _add_solver_flags(p)
    p.add_argument("--out", required=True, help="coupling output file")
    p.add_argument("--report", help="convergence report output file")
    p.set_defaults(func=_cmd_transport)

    p = sub.add_parser("interpolate", help="displacement interpolation")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--coupling", required=True)
    frames = p.add_mutually_exclusive_group(required=True)
    frames.add_argument("--t", type=float)
    frames.add_argument("--steps", type=int,
                        help="number of frames over t in [0, 1]")
    p.add_argument("--trace-threshold", type=float,
                   help="drop coupling pairs whose trace is below this "
                        "fraction of the largest pair trace (finite, >= 0)")
    p.add_argument("--merge-radius", type=float,
                   help="merge output atoms strictly closer than this, "
                        "greedily in atom order (0: off, inf: one atom)")
    p.add_argument("--render", action="store_true",
                   help="also write an SVG per frame")
    p.add_argument("--scale", type=float)
    p.add_argument("--out", required=True,
                   help="output pattern; '{i}' expands to the frame index")
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("barycenter", help="weighted barycenters")
    p.add_argument("--inputs", required=True,
                   help="comma-separated field files")
    weights = p.add_mutually_exclusive_group(required=True)
    weights.add_argument("--weights", help="comma-separated weights summing to 1")
    weights.add_argument("--grid", type=int,
                         help="K x K bilinear-weight lattice (four inputs)")
    p.add_argument("--support",
                   help="field file whose points define the support "
                        "(default: first input)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--rho", type=float, dest="rho1",
                   help="input-side marginal fidelity")
    _add_solver_flags(p, pair=False)
    p.add_argument("--render", action="store_true")
    p.add_argument("--scale", type=float)
    p.add_argument("--out", required=True,
                   help="output pattern; '{i}' expands to the weight index")
    p.add_argument("--report",
                   help="convergence report output file: a JSON list with "
                        "one entry per weight set")
    p.set_defaults(func=_cmd_barycenter)

    p = sub.add_parser("distance", help="transport value between fields")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--cost")
    p.add_argument("--alpha", type=float)
    p.add_argument("--pointwise", nargs=2, type=int, metavar=("I", "J"),
                   help="also print the single-atom tensor distance")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("render", help="draw a field as SVG ellipses")
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=float)
    p.add_argument("--subsample", type=int)
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
    # Every input the library rejects raises ValueError (FileFormatError
    # and LinAlgError among them), which maps to exit 1 like a usage error.
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
