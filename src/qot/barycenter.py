"""Weighted barycenters of tensor-valued measures on a fixed support.

The barycenter measure is optimized jointly with one transport problem
per input, each with a hard marginal constraint on the barycenter side.
One iteration updates the row potentials of all inputs, aggregates the
barycenter's log-tensors, and pulls all column potentials toward it, as
array operations over stacked inputs (see :func:`barycenter_solve`).
The solver's scaling loop runs it, and the solver's finalisation
certifies each input's transport problem against the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cost import _kernel_lse
from .measure import TensorMeasure, _as_tensor_stack
from .solver import (DualState, SolverConfig, _certify, _exp_capped,
                     _kernel_terms, _report, _scale, _validate_problem)
from .sym import exp_sym, log_sym

__all__ = [
    "BarycenterProblem",
    "barycenter_solve",
    "pointwise_barycenter",
    "bilinear_weights",
]


def _check_weights(w: np.ndarray, tol: float = 1e-12) -> None:
    """Reject weights that are not nonnegative or do not sum to one within
    ``tol``; a NaN weight fails both, and the sum is taken only of
    nonnegative weights, so ``inf`` and ``-inf`` never meet in it."""
    if not (np.all(w >= 0.0) and abs(w.sum() - 1.0) <= tol):
        raise ValueError("weights must be nonnegative and sum to 1")


def _check_rho(rho: float) -> None:
    """The input-side fidelity of a barycenter is soft: positive and finite."""
    if not (rho > 0.0 and math.isfinite(rho)):
        raise ValueError("rho must be positive and finite")


@dataclass(frozen=True)
class BarycenterProblem:
    """Data of a barycenter computation: one transport problem per input,
    from ``inputs[l]`` to the fixed ``support`` points under ``costs[l]``.
    ``weights`` must be nonnegative and sum to one within 1e-12.  The
    fidelities are settings of the solve (see :func:`barycenter_solve`).
    """

    inputs: tuple
    weights: np.ndarray
    support: np.ndarray
    costs: tuple

    def __post_init__(self):
        inputs = tuple(self.inputs)
        costs = tuple(self.costs)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if not inputs:
            raise ValueError("at least one input measure is required")
        if len(weights) != len(inputs) or len(costs) != len(inputs):
            raise ValueError("inputs, weights and costs must have equal length")
        _check_weights(weights)
        try:
            zeros = np.zeros(np.shape(self.support)[:1] + (inputs[0].tensor_dim,) * 2)
            support = TensorMeasure(self.support, zeros)
        except ValueError as exc:
            raise ValueError(f"support: {exc}") from exc
        if support.n_atoms == 0:
            raise ValueError("support must have at least one point")
        for idx, (measure, cost) in enumerate(zip(inputs, costs)):
            try:
                _validate_problem(measure, support, cost)
            except ValueError as exc:
                raise ValueError(f"input {idx}: {exc}") from exc
        weights.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "support", support.points)

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def tensor_dim(self) -> int:
        return self.inputs[0].tensor_dim


def barycenter_solve(prob: BarycenterProblem, cfg: SolverConfig | None = None):
    """Compute the barycenter measure on the problem's fixed support.

    Each input's transport is the one :func:`qot.solver.sinkhorn_solve`
    runs with ``cfg``: its input side at fidelity ``cfg.rho1`` (finite), and
    ``cfg.rho2`` replaced by ``inf``, as the barycenter side is hard.  Trace
    mode is refused (``ValueError``).  The report's ``config`` is the
    configuration that ran.

    An input of weight zero has no term in the objective and takes no
    part in the solve, which is bit for bit the solve of the problem
    without it; it costs no work.

    Returns ``(TensorMeasure, SolveReport)``.  The report's
    ``dual_states`` carries the per-input dual potentials (the weighted
    sum of the column potentials vanishes at convergence, which serves as
    a convergence certificate), ``None`` for an input of weight zero; its
    residual history records the largest potential change per iteration
    across the inputs of positive weight, and its objective values are
    the weighted sums of their transport values against the barycenter.
    The barycenter's log-tensors are the aggregation variable, so the
    returned tensors are positive definite by construction.  Like the
    couplings, they are exponentials capped at exp(700), and a note says
    when an unconverged solve hits the cap.

    One iteration is a map of the potentials, run by the scaling loop of
    :func:`qot.solver.sinkhorn_solve`, over stacked arrays: all column
    potentials in one, and the row potentials, costs and log-tensors of
    each group of inputs with one atom count and cost kind in one each.
    """
    cfg = replace(cfg or SolverConfig(), rho2=math.inf)
    if cfg.trace_constrained:
        raise ValueError("a barycenter has no trace-constrained mode")
    _check_rho(cfg.rho1)
    d = prob.tensor_dim
    live = [i for i, w in enumerate(prob.weights) if w > 0.0]
    inputs, costs, weights = ([seq[i] for i in live]
                              for seq in (prob.inputs, prob.costs, prob.weights))
    keys = {}
    for i, (measure, cost) in enumerate(zip(inputs, costs)):
        keys.setdefault((measure.n_atoms, cost.kind), []).append(i)
    groups = [(np.array(ins), kind, np.stack([costs[i].values for i in ins]),
               np.stack([log_sym(inputs[i].tensors) for i in ins]))
              for (_, kind), ins in keys.items()]
    log_nu = None

    def step(point):
        nonlocal log_nu
        *us, v = point
        lse_cols, us_new, res = np.empty_like(v), [], 0.0
        for (ins, kind, values, log_mu), u in zip(groups, us):
            rows, cols = _kernel_terms(u, v[ins], None, None, cfg)
            lse_rows = _kernel_lse(rows, cols, kind, values, cfg.eps, 1)
            u_new = cfg.relax(1, u, lse_rows - log_mu)
            # The column-potential change alone is blind to row-potential
            # drift (it vanishes identically for a single input), so the
            # residual tracks both.
            res = max(res, float(np.abs(u_new - u).max()))
            us_new.append(u_new)
            rows, cols = _kernel_terms(u_new, v[ins], None, None, cfg)
            lse_cols[ins] = _kernel_lse(rows, cols, kind, values, cfg.eps, 0)
        log_nu = sum(w * (lse + v_l / cfg.eps)
                     for w, lse, v_l in zip(weights, lse_cols, v))
        v_new = cfg.relax(2, v, lse_cols - log_nu)
        res = max(res, float(np.abs(v_new - v).max()))
        return (*us_new, v_new), res

    point = (tuple(np.zeros_like(log_mu) for *_, log_mu in groups)
             + (np.zeros((len(live), len(prob.support), d, d)),))
    (*us, v), history, converged, loop_notes = _scale(step, point, cfg)

    notes = ["barycenter side uses a hard marginal constraint"] + loop_notes
    tensors, hit = _exp_capped(log_nu)
    if hit:
        notes.append("barycenter saturated at exp(700) in unconverged directions")
    nu = TensorMeasure(prob.support, tensors)

    u_of = {i: u_i for (ins, *_), u in zip(groups, us) for i, u_i in zip(ins, u)}
    states = tuple(
        DualState(u_of[i], v_i, np.zeros(len(u_of[i])), np.zeros(len(v_i)))
        for i, v_i in enumerate(v))
    primal = dual = 0.0
    for state, measure, cost, w in zip(states, inputs, costs, weights):
        _, extra, p, q = _certify(state, measure, nu, cost, cfg)
        notes += [note for note in extra if note not in notes]
        primal += float(w) * p
        dual += float(w) * q
    states = dict(zip(live, states))
    return nu, _report(cfg, history, converged, primal, dual, notes,
                       tuple(map(states.get, range(prob.n_inputs))))


def pointwise_barycenter(tensors, weights, energy: float, rho: float) -> np.ndarray:
    """Closed-form barycenter of co-located tensors:

    ``exp(-energy / rho) * exp(sum_l w_l log(P_l))``

    where ``energy`` is the weighted transport cost incurred at the
    optimal location (zero when all inputs share a point).  Singular
    inputs flow through the log's eigenvalue clamping.
    """
    stack = _as_tensor_stack(tensors)
    w = np.asarray(weights, dtype=float)
    if len(stack) != len(w):
        raise ValueError("expected one weight per tensor")
    _check_weights(w)
    if not energy >= 0.0:
        raise ValueError("energy must be >= 0")
    _check_rho(rho)
    mixed = np.einsum("l,lij->ij", w, log_sym(stack))
    return math.exp(-energy / rho) * exp_sym(mixed)


def bilinear_weights(t1: float, t2: float) -> tuple:
    """Bilinear interpolation weights on the unit square:
    ``((1-t1)(1-t2), (1-t1) t2, t1 (1-t2), t1 t2)``; they sum to one."""
    if not (0.0 <= t1 <= 1.0 and 0.0 <= t2 <= 1.0):
        raise ValueError("t1 and t2 must lie in [0, 1]")
    return (
        (1.0 - t1) * (1.0 - t2),
        (1.0 - t1) * t2,
        t1 * (1.0 - t2),
        t1 * t2,
    )
