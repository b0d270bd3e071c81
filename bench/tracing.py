"""Spans around the public functions of qot's layers, and the per-layer
metrics computed from them.

    python bench/tracing.py SPANS.json <qot arguments...>

runs one ``qot`` command like ``python -m qot.cli <qot arguments...>``, with
every public function of ``qot.sym``, ``qot.cost``, ``qot.solver``,
``qot.measure``, ``qot.barycenter``, ``qot.interpolate``, ``qot.fileio`` and
``qot.render`` wrapped, plus the PSD validation that constructing a
``TensorMeasure`` or ``Coupling`` runs.  Spans stay in memory and are written
to SPANS.json when the command ends.

A wrapper is installed under every name that refers to the function in any
qot module, because that is where a caller looks it up: ``from .sym import
lse_reduce`` binds ``qot.solver.lse_reduce``, while ``lse_reduce`` finds
``eig_sym`` through ``qot.sym``'s own namespace.  Nothing under ``src/``
changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("sym", "cost", "solver", "measure", "barycenter", "interpolate",
          "fileio", "render")

# Solver entry points; a span of one that has no such span below it runs
# the scaling loop itself (sinkhorn_solve hands trace-constrained problems
# to sinkhorn_solve_trace).
SOLVERS = ("solver.sinkhorn_solve", "solver.sinkhorn_solve_trace",
           "barycenter.barycenter_solve")
# Children that run once per iteration; every other child of a solver span
# is set-up or finalisation (input logs, final exponential, PSD check,
# primal and dual objectives).
LOOP_CHILDREN = ("cost.kernel", "cost.kernel_trace", "sym.lse_reduce",
                 "sym.lste_reduce")


def _solver_iterations(args, kwargs, result):
    return result[-1].iterations


def _array_mb(args, kwargs, result):
    return result.nbytes / 1e6


def _stack_count(args, kwargs, result):
    return int(result.values.size // result.values.shape[-1])


def _file_mb(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"]) / 1e6


def _text_mb(args, kwargs, result):
    return len(result.encode()) / 1e6


def _atoms_in_out(args, kwargs, result):
    mu, nu, g, params = args
    traces = g.entries.trace(axis1=-2, axis2=-1)
    kept = int((traces >= params.trace_threshold * traces.max(initial=0.0)).sum())
    return [kept, result.n_atoms]


# What a span records besides its times, computed after the span closes.
EXTRAS = {
    "solver.sinkhorn_solve": _solver_iterations,
    "solver.sinkhorn_solve_trace": _solver_iterations,
    "barycenter.barycenter_solve": _solver_iterations,
    "cost.kernel": _array_mb,
    "cost.kernel_trace": _array_mb,
    "sym.eig_sym": _stack_count,
    "fileio.save_field": _file_mb,
    "fileio.save_coupling": _file_mb,
    "render.render_field_svg": _text_mb,
    "interpolate.displacement_interpolate": _atoms_in_out,
}


class Tracer:
    """Spans as ``[name, parent index, start, end, extra]`` lists."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self._open[-1] if self._open else -1, 0.0, 0.0, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap qot's public layer functions wherever qot binds them."""
    import importlib

    import qot
    import qot.cli

    layers = {name: importlib.import_module(f"qot.{name}") for name in LAYERS}
    namespaces = [qot, qot.cli] + list(layers.values())
    for short, module in layers.items():
        for attr in module.__all__:
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            wrapper = tracer.wrap(f"{short}.{attr}", fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
    for cls in (layers["measure"].TensorMeasure, layers["measure"].Coupling):
        cls.__post_init__ = tracer.wrap("measure.psd_check", cls.__post_init__)


def main(argv: list[str]) -> int:
    spans_path, qot_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    import qot.cli

    try:
        return qot.cli.main(qot_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` from the spans of one
    round (all its stages, parent indices offset so they stay unique)."""
    dur = [end - start for _, _, start, end, _ in spans]
    child_time = [0.0] * len(spans)
    loop_child_time = [0.0] * len(spans)
    has_solver_child = [False] * len(spans)
    for i, (name, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]
            if name in LOOP_CHILDREN:
                loop_child_time[parent] += dur[i]
            if name in SOLVERS:
                has_solver_child[parent] = True

    total, self_time, calls, extra = {}, {}, {}, {}
    iterations, loop_s, sinkhorn_self = 0, 0.0, 0.0
    for i, (name, _parent, _start, _end, value) in enumerate(spans):
        total[name] = total.get(name, 0.0) + dur[i]
        self_time[name] = self_time.get(name, 0.0) + dur[i] - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if isinstance(value, list):
            old = extra.get(name, [0] * len(value))
            extra[name] = [a + b for a, b in zip(old, value)]
        elif value is not None:
            extra[name] = extra.get(name, 0) + value
        if name in SOLVERS and not has_solver_child[i]:
            iterations += value
            # The solve less its set-up and finalisation children.
            loop_s += dur[i] - (child_time[i] - loop_child_time[i])
            if not name.startswith("barycenter."):
                sinkhorn_self += dur[i] - child_time[i]

    def tot(*names):
        return sum(total.get(n, 0.0) for n in names)

    def own(name):
        return self_time.get(name, 0.0)

    atoms = extra.get("interpolate.displacement_interpolate", [0, 0])
    return {
        "solver.iterations": (iterations, "count"),
        "solver.ms_per_iter": (1e3 * loop_s / iterations if iterations else 0.0, "ms"),
        "solver.loop_self_s": (sinkhorn_self, "s"),
        "barycenter.loop_self_s": (own("barycenter.barycenter_solve"), "s"),
        "sym.lse_reduce.self_s": (own("sym.lse_reduce"), "s"),
        "sym.lse_reduce.calls": (calls.get("sym.lse_reduce", 0), "count"),
        "sym.lste_reduce.self_s": (own("sym.lste_reduce"), "s"),
        "sym.eig_sym.s": (tot("sym.eig_sym"), "s"),
        "sym.eig_sym.mats": (extra.get("sym.eig_sym", 0), "count"),
        "sym.log_sym.self_s": (own("sym.log_sym"), "s"),
        "sym.exp_sym.self_s": (own("sym.exp_sym"), "s"),
        "sym.clamp_psd.self_s": (own("sym.clamp_psd"), "s"),
        "cost.kernel.s": (tot("cost.kernel", "cost.kernel_trace"), "s"),
        "cost.kernel.calls": (calls.get("cost.kernel", 0)
                              + calls.get("cost.kernel_trace", 0), "count"),
        "cost.kernel.mb_computed": (extra.get("cost.kernel", 0.0)
                                    + extra.get("cost.kernel_trace", 0.0), "MB"),
        "measure.primal_objective.s": (tot("measure.primal_objective"), "s"),
        "solver.dual_objective.s": (tot("solver.dual_objective"), "s"),
        "measure.psd_check.s": (tot("measure.psd_check"), "s"),
        "interpolate.self_s": (own("interpolate.displacement_interpolate"), "s"),
        "interpolate.raw_products.s": (tot("interpolate.raw_interpolation_products"), "s"),
        "interpolate.atoms_in": (atoms[0], "count"),
        "interpolate.atoms_out": (atoms[1], "count"),
        "fileio.save_coupling.s": (tot("fileio.save_coupling"), "s"),
        "fileio.load_coupling.s": (tot("fileio.load_coupling"), "s"),
        "fileio.save_field.s": (tot("fileio.save_field"), "s"),
        "fileio.load_field.s": (tot("fileio.load_field"), "s"),
        "fileio.mb_written": (extra.get("fileio.save_field", 0.0)
                              + extra.get("fileio.save_coupling", 0.0), "MB"),
        "render.svg.s": (tot("render.render_field_svg"), "s"),
        "render.svg_mb": (extra.get("render.render_field_svg", 0.0), "MB"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
