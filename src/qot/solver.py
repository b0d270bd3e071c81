"""Quantum Sinkhorn scaling for tensor-valued unbalanced transport.

One scaling loop alternates relaxed fixed-point updates of the matrix
dual potentials through the stabilized matrix log-sum-exp; in
trace-constrained mode it also steps the scalar trace multipliers.  One
dual kernel feeds the loop, the objectives and the diagnostics, and the
coupling is read off it at the end.  A ``rho`` equal to ``inf`` is a
symbolic sentinel for a hard marginal constraint: the corresponding
potential switches to its rescaled limit parametrization (coefficient one
inside the kernel, additive updates) and ``rho * x`` is never evaluated
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cost import GroundCost, kernel
from .measure import (
    Coupling,
    TensorMeasure,
    inner,
    primal_objective,
)
from .sym import (
    _reconstruct,
    eig_sym,
    exp_sym,
    log_sym,
    lse_reduce,
    lste_reduce,
)

__all__ = [
    "SolverConfig",
    "DualState",
    "SolveReport",
    "sinkhorn_solve",
    "sinkhorn_solve_trace",
    "dual_objective",
    "fixed_point_residual",
]

# Relaxation factor applied on top of the scalar-exact step (the choice
# tau = eps/(eps+rho)); 1.8x is observed to speed convergence up
# substantially while staying inside the contractive range (0, 2x).
_DEFAULT_TAU_FACTOR = 1.8

# Eigenvalue cap for the final exponentials: exp(700) stays finite in
# float64.  Only unconverged directions can reach it.
_EXP_SAT = 700.0
_SATURATION_NOTE = "coupling saturated at exp(700) in unconverged directions"


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the scaling solver.

    ``rho1`` / ``rho2`` are the marginal fidelity strengths (``inf`` for a
    hard constraint).  ``tau1`` / ``tau2`` default to
    ``1.8 * eps / (eps + rho)`` for finite ``rho`` and to ``1.8`` for the
    hard-constraint side (both are 1.8x the step that solves the scalar
    fixed point exactly).  ``tol`` is the sup-norm threshold on the
    per-iteration change of the second potential.
    """

    eps: float = 0.08**2
    rho1: float = 1.0
    rho2: float = 1.0
    tau1: float | None = None
    tau2: float | None = None
    max_iter: int = 10000
    tol: float = 1e-9
    trace_constrained: bool = False

    def __post_init__(self):
        if not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise ValueError("eps must be positive and finite")
        for name in ("rho1", "rho2"):
            rho = getattr(self, name)
            if not rho > 0.0:
                raise ValueError(f"{name} must be > 0 (inf allowed)")
        for name in ("tau1", "tau2"):
            tau = getattr(self, name)
            if tau is not None and not tau > 0.0:
                raise ValueError(f"{name} must be > 0 when given")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be > 0")

    def tau(self, side: int) -> float:
        """Effective relaxation for side 1 (rows) or 2 (columns)."""
        explicit = self.tau1 if side == 1 else self.tau2
        if explicit is not None:
            return explicit
        rho = self.rho1 if side == 1 else self.rho2
        if math.isfinite(rho):
            return _DEFAULT_TAU_FACTOR * self.eps / (self.eps + rho)
        return _DEFAULT_TAU_FACTOR

    def kernel_coef(self, side: int) -> float:
        """Coefficient multiplying the potential inside the kernel: rho
        for finite rho, 1 for the rescaled hard-constraint potential."""
        rho = self.rho1 if side == 1 else self.rho2
        return rho if math.isfinite(rho) else 1.0


@dataclass(frozen=True)
class DualState:
    """Dual variables: symmetric matrix potentials ``u`` (rows) and ``v``
    (columns) plus scalar trace multipliers ``alpha`` / ``beta`` (all zero
    unless trace-constrained).  On a hard-constraint side the potential is
    stored in its rescaled limit parametrization."""

    u: np.ndarray
    v: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        for name in ("u", "v", "alpha", "beta"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def zeros(cls, rows: int, cols: int, d: int) -> "DualState":
        return cls(
            np.zeros((rows, d, d)), np.zeros((cols, d, d)),
            np.zeros(rows), np.zeros(cols),
        )


@dataclass(frozen=True)
class SolveReport:
    """Convergence diagnostics: ``residual_history[t]`` is the sup-norm of
    the column-potential change at iteration t (the quantity whose log10
    decays linearly for contractive relaxations)."""

    iterations: int
    residual_history: np.ndarray
    converged: bool
    primal_value: float
    dual_value: float
    notes: tuple = ()
    dual_states: tuple | None = None


def _validate_problem(mu: TensorMeasure, nu: TensorMeasure, cost: GroundCost):
    if mu.n_atoms == 0 or nu.n_atoms == 0:
        raise ValueError("input measures must have at least one atom")
    if mu.tensor_dim != nu.tensor_dim:
        raise ValueError(
            f"tensor dimensions differ: {mu.tensor_dim} vs {nu.tensor_dim}"
        )
    if cost.rows != mu.n_atoms or cost.cols != nu.n_atoms:
        raise ValueError(
            f"cost is {cost.rows}x{cost.cols} but measures have "
            f"{mu.n_atoms} and {nu.n_atoms} atoms"
        )
    if cost.kind == "matrix" and cost.values.shape[-1] != mu.tensor_dim:
        raise ValueError("matrix cost dimension does not match tensors")


def _update(old: np.ndarray, target_gap: np.ndarray, tau: float, eps: float,
            finite_rho: bool) -> np.ndarray:
    """One relaxed fixed-point step.  For finite rho the potential relaxes
    toward the fixed-point value; in the hard-constraint limit the update
    is additive on the rescaled potential."""
    if finite_rho:
        return (1.0 - tau) * old + tau * target_gap
    return old + tau * eps * target_gap


def _exp_capped(mats):
    """exp with eigenvalues capped at ``_EXP_SAT``; returns the matrices
    and whether the cap was hit (possible only in unconverged directions).
    Every solver output read off the potentials goes through it."""
    vals, vecs = eig_sym(mats)
    hit = bool(np.any(vals > _EXP_SAT))
    return _reconstruct(np.exp(np.minimum(vals, _EXP_SAT)), vecs), hit


def _dual_kernel(u, v, alpha, beta, cost: GroundCost, cfg: SolverConfig) -> np.ndarray:
    """The dual kernel of ``cfg``: its potential coefficients, and the
    trace multipliers only in trace-constrained mode."""
    if not cfg.trace_constrained:
        alpha = beta = None
    return kernel(u, v, cost, cfg.eps, cfg.kernel_coef(1), cfg.kernel_coef(2),
                  alpha, beta)


def sinkhorn_solve(mu: TensorMeasure, nu: TensorMeasure, cost: GroundCost,
                   cfg: SolverConfig | None = None, callback=None):
    """Solve the entropic tensor-transport problem by scaling iterations.

    Each iteration relaxes the row potential toward ``LSE_j(K) - log mu``,
    recomputes the dual kernel ``K``, and relaxes the column potential
    toward ``LSE_i(K) - log nu``; it stops when the sup-norm of the
    column-potential change drops below ``cfg.tol``.

    With ``cfg.trace_constrained`` the marginals' traces are pinned to the
    inputs' traces: after each potential update the matching scalar
    multiplier takes an exact coordinate step, recomputing the kernel
    between all four half-steps, and the steps join the stopping test.

    Parameters
    ----------
    mu, nu : TensorMeasure
        Input measures with a common tensor dimension.
    cost : GroundCost
        Pairwise ground cost, shape ``(mu.n_atoms, nu.n_atoms)``.
    cfg : SolverConfig, optional
    callback : callable, optional
        Called as ``callback(iteration, u, v)`` after every iteration.

    Returns
    -------
    (Coupling, DualState, SolveReport)
        The coupling is ``exp(K)`` at the final dual variables.
        Non-convergence within ``max_iter`` is reported, not raised.
    """
    cfg = cfg or SolverConfig()
    _validate_problem(mu, nu, cost)
    d = mu.tensor_dim
    rows, cols = mu.n_atoms, nu.n_atoms
    if cfg.trace_constrained:
        tr_mu = np.trace(mu.tensors, axis1=-2, axis2=-1)
        tr_nu = np.trace(nu.tensors, axis1=-2, axis2=-1)
        if np.any(tr_mu <= 0.0) or np.any(tr_nu <= 0.0):
            raise ValueError("trace constraints require strictly positive traces")
        # The row constraints sum to the total trace and so do the column
        # constraints; they are jointly feasible only if the totals agree.
        total_mu, total_nu = float(tr_mu.sum()), float(tr_nu.sum())
        if abs(total_mu - total_nu) > 1e-9 * max(total_mu, total_nu):
            raise ValueError(
                f"trace constraints are infeasible: total traces differ "
                f"({total_mu:g} vs {total_nu:g})"
            )
        log_tr_mu, log_tr_nu = np.log(tr_mu), np.log(tr_nu)

    log_mu = log_sym(mu.tensors)
    log_nu = log_sym(nu.tensors)
    tau1, tau2 = cfg.tau(1), cfg.tau(2)
    fin1, fin2 = math.isfinite(cfg.rho1), math.isfinite(cfg.rho2)

    u = np.zeros((rows, d, d))
    v = np.zeros((cols, d, d))
    alpha = np.zeros(rows)
    beta = np.zeros(cols)
    residuals = []
    converged = False
    iterations = 0
    for it in range(cfg.max_iter):
        k = _dual_kernel(u, v, alpha, beta, cost, cfg)
        u = _update(u, lse_reduce(k, axis=1) - log_mu, tau1, cfg.eps, fin1)
        if cfg.trace_constrained:
            k = _dual_kernel(u, v, alpha, beta, cost, cfg)
            step_a = cfg.eps * (lste_reduce(k, axis=1) - log_tr_mu)
            alpha = alpha + step_a
        k = _dual_kernel(u, v, alpha, beta, cost, cfg)
        v_new = _update(v, lse_reduce(k, axis=0) - log_nu, tau2, cfg.eps, fin2)
        res = float(np.abs(v_new - v).max())
        residuals.append(res)
        v = v_new
        if cfg.trace_constrained:
            k = _dual_kernel(u, v, alpha, beta, cost, cfg)
            step_b = cfg.eps * (lste_reduce(k, axis=0) - log_tr_nu)
            beta = beta + step_b
            # The kernel sees only alpha_i + beta_j, so (alpha + c, beta - c)
            # is a gauge freedom; re-center to pin it.
            center = 0.5 * (float(beta.mean()) - float(alpha.mean()))
            alpha = alpha + center
            beta = beta - center
            # The column-potential change can stall while the multipliers
            # are still moving, so they join the stopping test.
            res = max(res, float(np.abs(step_a).max()), float(np.abs(step_b).max()))
        iterations = it + 1
        if callback is not None:
            callback(it, u, v)
        if res < cfg.tol:
            converged = True
            break

    gamma, saturated = _exp_capped(_dual_kernel(u, v, alpha, beta, cost, cfg))
    coupling = Coupling(gamma)
    state = DualState(u, v, alpha, beta)
    notes = tuple(note for flag, note in (
        (not fin1, "rho1=inf: hard row-marginal constraint"),
        (not fin2, "rho2=inf: hard column-marginal constraint"),
        (cfg.trace_constrained, "trace-constrained marginals"),
        (saturated, _SATURATION_NOTE),
    ) if flag)
    report = SolveReport(
        iterations=iterations,
        residual_history=np.asarray(residuals),
        converged=converged,
        primal_value=primal_objective(coupling, mu, nu, cost, cfg),
        dual_value=dual_objective(state, mu, nu, cost, cfg),
        notes=notes,
    )
    return coupling, state, report


def sinkhorn_solve_trace(mu: TensorMeasure, nu: TensorMeasure, cost: GroundCost,
                         cfg: SolverConfig | None = None, callback=None):
    """:func:`sinkhorn_solve` with ``trace_constrained`` set."""
    cfg = replace(cfg or SolverConfig(), trace_constrained=True)
    return sinkhorn_solve(mu, nu, cost, cfg, callback)


def dual_objective(state: DualState, mu: TensorMeasure, nu: TensorMeasure,
                   cost: GroundCost, cfg: SolverConfig) -> float:
    """Value of the dual problem at the given potentials:

    ``-tr[rho1 sum_i (exp(u_i + log mu_i) - mu_i)
         + rho2 sum_j (exp(v_j + log nu_j) - nu_j)
         + eps sum_ij exp(K(u, v)_ij)]``

    On a hard-constraint side the exponential penalty degenerates to the
    linear term ``sum tr(target * potential)``.  In trace-constrained mode
    the multipliers enter the kernel and the constants
    ``-sum_i alpha_i tr(mu_i) - sum_j beta_j tr(nu_j)`` are added.
    """
    k = _dual_kernel(state.u, state.v, state.alpha, state.beta, cost, cfg)
    k_vals = eig_sym(k).values
    with np.errstate(over="ignore"):
        total = cfg.eps * float(np.exp(k_vals).sum())

    for rho, pot, target in ((cfg.rho1, state.u, mu.tensors),
                             (cfg.rho2, state.v, nu.tensors)):
        if math.isfinite(rho):
            grown = exp_sym(pot + log_sym(target))
            total += rho * float(np.trace(grown - target, axis1=-2, axis2=-1).sum())
        else:
            total += inner(target, pot)

    value = -total
    if cfg.trace_constrained:
        tr_mu = np.trace(mu.tensors, axis1=-2, axis2=-1)
        tr_nu = np.trace(nu.tensors, axis1=-2, axis2=-1)
        value -= float(state.alpha @ tr_mu) + float(state.beta @ tr_nu)
    return value


def fixed_point_residual(state: DualState, mu: TensorMeasure, nu: TensorMeasure,
                         cost: GroundCost, cfg: SolverConfig) -> float:
    """Sup-norm distance of the potentials from their fixed-point values
    ``LSE_j(K) - log mu`` / ``LSE_i(K) - log nu`` (on a hard-constraint
    side, the sup-norm of the additive step ``eps * (LSE - log target)``)."""
    k = _dual_kernel(state.u, state.v, state.alpha, state.beta, cost, cfg)
    res = []
    for axis, rho, pot, target in ((1, cfg.rho1, state.u, mu.tensors),
                                   (0, cfg.rho2, state.v, nu.tensors)):
        gap = lse_reduce(k, axis=axis) - log_sym(target)
        step = pot - gap if math.isfinite(rho) else cfg.eps * gap
        res.append(float(np.abs(step).max()))
    return max(res)
