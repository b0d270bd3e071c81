"""Weighted barycenters of tensor-valued measures on a fixed support.

The barycenter measure is optimized jointly with one transport problem
per input, each with a hard marginal constraint on the barycenter side.
The iteration below cycles over three phases: per-input row-potential
updates, aggregation of the barycenter's log-tensors, and per-input
column-potential updates pulled toward that aggregate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .measure import Coupling, TensorMeasure, primal_objective
from .solver import (_SATURATION_NOTE, DualState, SolveReport, SolverConfig,
                     _dual_kernel, _exp_capped, _update, dual_objective)
from .sym import exp_sym, log_sym, lse_reduce

__all__ = [
    "BarycenterProblem",
    "barycenter_solve",
    "pointwise_barycenter",
    "bilinear_weights",
]


@dataclass(frozen=True)
class BarycenterProblem:
    """Inputs of a barycenter computation.

    ``weights`` must be nonnegative and sum to one within 1e-12.  The
    barycenter lives on the fixed ``support`` points; ``costs[l]`` maps
    input ``l``'s atoms to the support.  ``rho`` is the fidelity strength
    on the input side; the barycenter side is always a hard marginal
    constraint.
    """

    inputs: tuple
    weights: np.ndarray
    support: np.ndarray
    costs: tuple
    rho: float = 1.0

    def __post_init__(self):
        inputs = tuple(self.inputs)
        costs = tuple(self.costs)
        weights = np.ascontiguousarray(self.weights, dtype=float)
        support = np.ascontiguousarray(self.support, dtype=float)
        if not inputs:
            raise ValueError("at least one input measure is required")
        if len(weights) != len(inputs) or len(costs) != len(inputs):
            raise ValueError("inputs, weights and costs must have equal length")
        if np.any(weights < 0.0) or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if support.ndim != 2 or len(support) == 0:
            raise ValueError(f"support must be (J, ambient_dim), got {support.shape}")
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError("rho must be positive and finite")
        d = inputs[0].tensor_dim
        for idx, (measure, cost) in enumerate(zip(inputs, costs)):
            if measure.tensor_dim != d:
                raise ValueError(f"input {idx} has tensor dim {measure.tensor_dim} != {d}")
            if cost.rows != measure.n_atoms or cost.cols != len(support):
                raise ValueError(
                    f"cost {idx} is {cost.rows}x{cost.cols}, expected "
                    f"{measure.n_atoms}x{len(support)}"
                )
        weights.flags.writeable = False
        support.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "costs", costs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "support", support)

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
    here.

    Returns ``(TensorMeasure, SolveReport)``.  The report's
    ``dual_states`` carries the per-input dual potentials (the weighted
    sum of the column potentials vanishes at convergence, which serves as
    a convergence certificate), and its residual history records the
    largest potential change per iteration across all inputs.  The
    barycenter's log-tensors are the aggregation variable, so the
    returned tensors are positive definite by construction.  Like the
    couplings, they are exponentials capped at exp(700), and a note says
    when an unconverged solve hits the cap.
    """
    cfg = replace(cfg or SolverConfig(), rho1=prob.rho, rho2=math.inf,
                  trace_constrained=False)
    tau1, tau2 = cfg.tau(1), cfg.tau(2)
    eps = cfg.eps
    d = prob.tensor_dim
    n_support = len(prob.support)
    n_inputs = prob.n_inputs

    log_mu = [log_sym(m.tensors) for m in prob.inputs]
    u = [np.zeros((m.n_atoms, d, d)) for m in prob.inputs]
    v = [np.zeros((n_support, d, d)) for _ in range(n_inputs)]
    log_nu = np.zeros((n_support, d, d))

    residuals = []
    converged = False
    iterations = 0
    for it in range(cfg.max_iter):
        lse_cols = []
        res = 0.0
        for idx in range(n_inputs):
            k = _dual_kernel(u[idx], v[idx], None, None, prob.costs[idx], cfg)
            u_new = _update(u[idx], lse_reduce(k, axis=1) - log_mu[idx], tau1,
                            eps, True)
            # The column-potential change alone is blind to row-potential
            # drift (it vanishes identically for a single input), so the
            # residual tracks both.
            res = max(res, float(np.abs(u_new - u[idx]).max()))
            u[idx] = u_new
            k = _dual_kernel(u[idx], v[idx], None, None, prob.costs[idx], cfg)
            lse_cols.append(lse_reduce(k, axis=0))

        log_nu = sum(
            w * (lse_cols[idx] + v[idx] / eps)
            for idx, w in enumerate(prob.weights)
        )

        for idx in range(n_inputs):
            v_new = _update(v[idx], lse_cols[idx] - log_nu, tau2, eps, False)
            res = max(res, float(np.abs(v_new - v[idx]).max()))
            v[idx] = v_new
        residuals.append(res)
        iterations = it + 1
        if res < cfg.tol:
            converged = True
            break

    notes = ["barycenter side uses a hard marginal constraint"]
    tensors, hit = _exp_capped(log_nu)
    if hit:
        notes.append("barycenter saturated at exp(700) in unconverged directions")
    nu = TensorMeasure(prob.support, tensors)

    states = []
    primal = 0.0
    dual = 0.0
    saturated = False
    for idx in range(n_inputs):
        k = _dual_kernel(u[idx], v[idx], None, None, prob.costs[idx], cfg)
        gamma, hit = _exp_capped(k)
        saturated |= hit
        coupling = Coupling(gamma)
        state = DualState(
            u[idx], v[idx],
            np.zeros(prob.inputs[idx].n_atoms), np.zeros(n_support),
        )
        states.append(state)
        w = float(prob.weights[idx])
        primal += w * primal_objective(coupling, prob.inputs[idx], nu,
                                       prob.costs[idx], cfg)
        dual += w * dual_objective(state, prob.inputs[idx], nu,
                                   prob.costs[idx], cfg)
    if saturated:
        notes.append(_SATURATION_NOTE)

    report = SolveReport(
        iterations=iterations,
        residual_history=np.asarray(residuals),
        converged=converged,
        primal_value=primal,
        dual_value=dual,
        notes=tuple(notes),
        dual_states=tuple(states),
    )
    return nu, report


def pointwise_barycenter(tensors, weights, energy: float, rho: float) -> np.ndarray:
    """Closed-form barycenter of co-located tensors:

    ``exp(-energy / rho) * exp(sum_l w_l log(P_l))``

    where ``energy`` is the weighted transport cost incurred at the
    optimal location (zero when all inputs share a point).  Singular
    inputs flow through the log's eigenvalue clamping.
    """
    stack = np.asarray(tensors, dtype=float)
    w = np.asarray(weights, dtype=float)
    if stack.ndim != 3 or len(stack) != len(w):
        raise ValueError("expected one weight per tensor")
    if abs(w.sum() - 1.0) > 1e-12 or np.any(w < 0.0):
        raise ValueError("weights must be nonnegative and sum to 1")
    if energy < 0.0:
        raise ValueError("energy must be >= 0")
    if not rho > 0.0:
        raise ValueError("rho must be > 0")
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
