"""Weighted barycenters of tensor-valued measures on a fixed support.

The barycenter measure is optimized jointly with one transport problem
per input, each with a hard marginal constraint on the barycenter side.
One iteration cycles over three phases: per-input row-potential
updates, aggregation of the barycenter's log-tensors, and per-input
column-potential updates pulled toward that aggregate.  The solver's
scaling loop runs it, and the solver's finalisation certifies each
input's transport problem against the result.
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
    """Inputs of a barycenter computation: one transport problem per input,
    from ``inputs[l]`` to the fixed ``support`` points under ``costs[l]``,
    with finite fidelity ``rho`` on the input side and a hard constraint on the
    barycenter side.  ``weights`` must be nonnegative and sum to one
    within 1e-12.
    """

    inputs: tuple
    weights: np.ndarray
    support: np.ndarray
    costs: tuple
    rho: float = SolverConfig.rho1

    def __post_init__(self):
        inputs = tuple(self.inputs)
        costs = tuple(self.costs)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        if not inputs:
            raise ValueError("at least one input measure is required")
        if len(weights) != len(inputs) or len(costs) != len(inputs):
            raise ValueError("inputs, weights and costs must have equal length")
        _check_weights(weights)
        _check_rho(self.rho)
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

    ``cfg`` supplies eps, relaxations, iteration budget and tolerance; the
    fidelity strengths come from the problem itself (``prob.rho`` on the
    input side, always a hard constraint on the barycenter side), so
    ``cfg.rho1``, ``cfg.rho2`` and ``cfg.trace_constrained`` are ignored
    here; the report's ``config`` is the configuration that ran.

    Returns ``(TensorMeasure, SolveReport)``.  The report's
    ``dual_states`` carries the per-input dual potentials (the weighted
    sum of the column potentials vanishes at convergence, which serves as
    a convergence certificate), its residual history records the largest
    potential change per iteration across all inputs, and its objective
    values are the weighted sums of the inputs' transport values against
    the barycenter.  The barycenter's log-tensors are the aggregation
    variable, so the returned tensors are positive definite by
    construction.  Like the couplings, they are exponentials capped at
    exp(700), and a note says when an unconverged solve hits the cap.

    One iteration is a map of the stacked per-input potentials, run by
    the scaling loop of :func:`qot.solver.sinkhorn_solve`.
    """
    cfg = replace(cfg or SolverConfig(), rho1=prob.rho, rho2=math.inf,
                  trace_constrained=False)
    d = prob.tensor_dim
    n_support = len(prob.support)
    n_inputs = prob.n_inputs
    log_mu = [log_sym(m.tensors) for m in prob.inputs]
    log_nu = None

    def step(point):
        nonlocal log_nu
        u, v = list(point[:n_inputs]), list(point[n_inputs:])
        lse_cols = []
        res = 0.0
        for idx in range(n_inputs):
            cost = prob.costs[idx]
            rows, cols = _kernel_terms(u[idx], v[idx], None, None, cfg)
            lse_rows = _kernel_lse(rows, cols, cost, cfg.eps, 1)
            u_new = cfg.relax(1, u[idx], lse_rows - log_mu[idx])
            # The column-potential change alone is blind to row-potential
            # drift (it vanishes identically for a single input), so the
            # residual tracks both.
            res = max(res, float(np.abs(u_new - u[idx]).max()))
            u[idx] = u_new
            rows, cols = _kernel_terms(u_new, v[idx], None, None, cfg)
            lse_cols.append(_kernel_lse(rows, cols, cost, cfg.eps, 0))

        log_nu = sum(w * (lse_cols[idx] + v[idx] / cfg.eps)
                     for idx, w in enumerate(prob.weights))

        for idx in range(n_inputs):
            v_new = cfg.relax(2, v[idx], lse_cols[idx] - log_nu)
            res = max(res, float(np.abs(v_new - v[idx]).max()))
            v[idx] = v_new
        return tuple(u) + tuple(v), res

    point = (tuple(np.zeros((m.n_atoms, d, d)) for m in prob.inputs)
             + tuple(np.zeros((n_support, d, d)) for _ in range(n_inputs)))
    image, history, converged, loop_notes = _scale(step, point, cfg)

    notes = ["barycenter side uses a hard marginal constraint"] + loop_notes
    tensors, hit = _exp_capped(log_nu)
    if hit:
        notes.append("barycenter saturated at exp(700) in unconverged directions")
    nu = TensorMeasure(prob.support, tensors)

    states = tuple(
        DualState(u, v, np.zeros(len(u)), np.zeros(n_support))
        for u, v in zip(image[:n_inputs], image[n_inputs:]))
    primal = dual = 0.0
    for state, measure, cost, w in zip(states, prob.inputs, prob.costs,
                                       prob.weights):
        _, extra, p, q = _certify(state, measure, nu, cost, cfg)
        notes += [note for note in extra if note not in notes]
        primal += float(w) * p
        dual += float(w) * q
    return nu, _report(cfg, history, converged, primal, dual, notes, states)


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
