"""Quantum Sinkhorn scaling for tensor-valued unbalanced transport.

One scaling loop (:func:`_scale`) runs the fixed-point map of every
solver in the package, and one finalisation (:func:`_certify`) reads the
coupling and objectives off its result.  Here the map alternates relaxed
updates of the matrix dual potentials through the stabilized matrix
log-sum-exp; in trace-constrained mode it also steps the scalar trace
multipliers.  One dual kernel feeds the loop, the objectives and the
diagnostics: :func:`_kernel_terms` decides what enters it, and
:mod:`qot.cost` writes it, as a stack or, for d = 2 and an isotropic
cost, block by block fused with the loop's log-sum-exps.
When the plain iteration slows to a crawl, safeguarded Anderson
extrapolation over its last few iterates takes over (default relaxations
only).  A ``rho`` equal to ``inf`` is a symbolic sentinel for
a hard marginal constraint: the corresponding potential switches to its
rescaled limit parametrization (coefficient one inside the kernel,
additive updates in :meth:`SolverConfig.relax`) and ``rho * x`` is never
evaluated numerically.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .cost import GroundCost, _kernel_lse, kernel
from .measure import (
    Coupling,
    TensorMeasure,
    inner,
    primal_objective,
)
from .sym import (
    KERNEL_TOL,
    _lse_eig,
    _lste_values,
    _reconstruct,
    eig_sym,
    eigvals_sym,
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

# Safeguarded type-II Anderson extrapolation of the scaling map (Walker and
# Ni, SIAM J. Numer. Anal. 2011; restart safeguard of Zhang, O'Donoghue and
# Boyd, SIAM J. Optim. 2020).  It keeps the last _AA_MEMORY pairs
# (x, G(x)), extrapolates once _AA_SLOW_STEPS consecutive plain steps each
# shrank the residual norm by less than 5 % (again after every rejected
# point), and solves its least-squares fit with a relative singular-value
# cut-off of _AA_RCOND, so that histories that become rank-deficient near
# round-off stay stable.
_AA_MEMORY = 5
_AA_SLOW_RATIO = 0.95
_AA_SLOW_STEPS = 10
_AA_RCOND = 1e-12


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the scaling solver.

    ``rho1`` / ``rho2`` are the marginal fidelity strengths (``inf`` for a
    hard constraint, the only infinite value allowed).  ``tau1`` / ``tau2``
    default to ``1.8 * eps / (eps + rho)`` for finite ``rho`` and to ``1.8``
    for the hard-constraint side (both are 1.8x the step that solves the
    scalar fixed point exactly); :meth:`relax` takes the step.  With both
    left at their defaults the solvers accelerate the scaling map (see
    :class:`_Anderson`); an explicit ``tau1`` or ``tau2`` runs exactly the
    plain relaxed iteration.  ``tol`` is the sup-norm threshold on the
    per-iteration change of the second potential; ``max_iter`` is an int.
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
            if tau is not None and not (tau > 0.0 and math.isfinite(tau)):
                raise ValueError(f"{name} must be positive and finite when given")
        if (isinstance(self.max_iter, bool)
                or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 1):
            raise ValueError("max_iter must be an integer >= 1")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")

    def tau(self, side: int) -> float:
        """Effective relaxation for side 1 (rows) or 2 (columns)."""
        explicit = self.tau1 if side == 1 else self.tau2
        if explicit is not None:
            return explicit
        rho = self.rho1 if side == 1 else self.rho2
        if math.isfinite(rho):
            return _DEFAULT_TAU_FACTOR * self.eps / (self.eps + rho)
        return _DEFAULT_TAU_FACTOR

    def relax(self, side: int, old: np.ndarray, gap: np.ndarray) -> np.ndarray:
        """One relaxed step, by :meth:`tau`, of side 1's or 2's potential
        toward ``gap`` = LSE - log target; on a hard side the step is
        additive on the rescaled potential."""
        tau = self.tau(side)
        if math.isfinite(self.rho1 if side == 1 else self.rho2):
            return (1.0 - tau) * old + tau * gap
        return old + tau * self.eps * gap

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
    """Convergence diagnostics of one run of the scaling loop:
    ``iterations`` counts evaluations of the scaling map, rejected
    extrapolations included, and ``residual_history[t]`` is the residual
    the stopping test read at evaluation t (the sup-norm of the
    column-potential change, whose log10 decays linearly for contractive
    relaxations, joined by the multiplier steps in trace-constrained mode
    and by the row-potential changes in a barycenter), so ``converged`` is
    whether the last entry is below ``tol``.  ``notes`` name the hard
    constraints and trace mode in use, two hard sides whose total masses
    differ (an infeasible problem), the Anderson acceleration if it
    engaged, an iteration budget spent without convergence, every
    exponential capped at exp(700), and each objective value that is not
    finite.  ``config`` is the configuration the loop ran, after any
    override by the solver (trace mode, or a barycenter's fidelities)."""

    iterations: int
    residual_history: np.ndarray
    converged: bool
    primal_value: float
    dual_value: float
    config: SolverConfig
    notes: tuple = ()
    dual_states: tuple | None = None

    @property
    def certified(self) -> bool:
        """Converged, with finite primal and dual values: a finite gap."""
        return (self.converged and math.isfinite(self.primal_value)
                and math.isfinite(self.dual_value))


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


def _exp_capped(mats):
    """exp with eigenvalues capped at ``_EXP_SAT``; returns the matrices
    and whether the cap was hit (possible only in unconverged directions).
    Every solver output read off the potentials goes through it."""
    vals, vecs = eig_sym(mats)
    hit = bool(np.any(vals > _EXP_SAT))
    return _reconstruct(np.exp(np.minimum(vals, _EXP_SAT)), vecs), hit


def _range_projectors(tensors: np.ndarray):
    """Orthogonal projectors onto the ranges of PSD tensors, with the
    kernel of :func:`quantum_kl` (eigenvalues at most ``KERNEL_TOL``
    times the largest), and whether each tensor has a kernel."""
    vals, vecs = eig_sym(tensors)
    live = vals > KERNEL_TOL * np.maximum(vals[..., :1], 0.0)
    return _reconstruct(live.astype(float), vecs), ~live.all(axis=-1)


def _coupling(k: np.ndarray, row_tensors: np.ndarray, col_tensors: np.ndarray):
    """The coupling ``exp(K)``, capped as in :func:`_exp_capped`, with
    entry (i, j) restricted to ``range(mu_i) & range(nu_j)`` when that
    removes only round-off; returns it and the notes on both.

    The loop takes ``log 0`` as ``log(EIG_FLOOR)``, which leaves mass of
    about 1e-15 on the kernel of a singular tensor, where the exact
    coupling has none; the primal's quantum KL prices any such mass at
    ``+inf``.  The restriction is made only if the removed trace is at
    most ``KERNEL_TOL`` of the total: more means the floor changed the
    problem (ranges that do not line up), and the coupling is kept as the
    loop left it.  Entries between two full-rank tensors keep every bit.
    """
    gamma, hit = _exp_capped(k)
    notes = [_SATURATION_NOTE] if hit else []
    p, p_kernel = _range_projectors(row_tensors)
    q, q_kernel = _range_projectors(col_tensors)
    rows, cols = np.nonzero(p_kernel[:, None] | q_kernel[None, :])
    if rows.size:
        # The intersection of the ranges is the eigenvalue-2 eigenspace of
        # P + Q (principal angle zero).
        vals, vecs = eig_sym(p[rows] + q[cols])
        both = _reconstruct((vals > 2.0 - 0.5 * KERNEL_TOL).astype(float), vecs)
        kept = both @ gamma[rows, cols] @ both
        kept = 0.5 * (kept + np.swapaxes(kept, -1, -2))
        traces = np.trace(gamma, axis1=-2, axis2=-1)
        removed = float(traces[rows, cols].sum()
                        - np.trace(kept, axis1=-2, axis2=-1).sum())
        if removed <= KERNEL_TOL * float(traces.sum()):
            gamma[rows, cols] = kept
            notes.append(f"coupling restricted to the ranges of singular "
                         f"tensors ({removed:.3g} of trace removed)")
    return Coupling(gamma), notes


class _Anderson:
    """Safeguarded Anderson acceleration of a fixed-point map ``x -> G(x)``
    whose state is a tuple of arrays.

    :meth:`step` receives a point ``x`` and its image ``G(x)`` and returns
    the next point to evaluate.  While the plain iteration makes progress
    that is ``G(x)`` itself, the very tuple it was given, so an un-engaged
    solve is the plain iteration bit for bit.  Once it crawls, the next
    point is ``G(x_k) - dG gamma``, with ``gamma`` the least-squares fit of
    ``dF gamma ~ F_k`` over the differences of the kept pairs
    (``F = G(x) - x``).  An extrapolated point whose residual norm
    ``|F|_2`` exceeds the last accepted point's (or is not finite) is
    rejected: the next point is the accepted point's image, already known,
    so a rejection costs only the rejected evaluation, and the history
    restarts from the accepted pair, with plain steps until the iteration
    crawls again.  An explicit ``tau1`` or ``tau2`` in ``cfg`` asks for
    exactly that relaxed iteration, so then every step is plain.
    """

    def __init__(self, cfg: SolverConfig):
        self.enabled = cfg.tau1 is None and cfg.tau2 is None
        self.pairs = deque(maxlen=_AA_MEMORY)
        self.last = math.inf  # residual norm of the last accepted point
        self.image = None  # and its image
        self.slow = 0
        self.extrapolating = False
        self.evaluations = 0
        self.engaged_at = None
        self.accepted = 0
        self.restarted = 0

    def step(self, x: tuple, gx: tuple) -> tuple:
        self.evaluations += 1
        if not self.enabled:
            return gx
        flat_g = np.concatenate([a.ravel() for a in gx])
        f = flat_g - np.concatenate([a.ravel() for a in x])
        norm = float(np.sqrt(f @ f))
        if self.extrapolating and not norm <= self.last:
            self.restarted += 1
            self.extrapolating = False
            self.slow = 0
            accepted = self.pairs[-1]
            self.pairs.clear()
            self.pairs.append(accepted)
            return self.image
        if self.extrapolating:
            self.accepted += 1
        else:
            self.slow = self.slow + 1 if norm > _AA_SLOW_RATIO * self.last else 0
        self.last, self.image = norm, gx
        self.pairs.append((flat_g, f))
        if not self.extrapolating:
            if self.slow < _AA_SLOW_STEPS:
                return gx
            self.extrapolating = True
            if self.engaged_at is None:
                self.engaged_at = self.evaluations
        # At least _AA_SLOW_STEPS plain pairs came since the start or the
        # last restart, so the history is full.
        g_hist = np.stack([g for g, _ in self.pairs], axis=1)
        f_hist = np.stack([f for _, f in self.pairs], axis=1)
        gamma = np.linalg.lstsq(np.diff(f_hist, axis=1), f, rcond=_AA_RCOND)[0]
        candidate = flat_g - np.diff(g_hist, axis=1) @ gamma
        out, start = [], 0
        for a in gx:
            out.append(candidate[start:start + a.size].reshape(a.shape))
            start += a.size
        return tuple(out)

    def notes(self) -> list:
        """One note if the extrapolation engaged, none otherwise: the
        evaluation after which it first engaged, and how many extrapolated
        points were accepted and rejected."""
        if self.engaged_at is None:
            return []
        return [f"anderson: engaged at iteration {self.engaged_at}, "
                f"{self.accepted} accepted, {self.restarted} restarted"]


def _kernel_terms(u, v, alpha, beta, cfg: SolverConfig):
    """The row and column terms of the dual kernel of ``cfg`` (see
    :func:`qot.cost.kernel`): ``kernel_coef(1) u_i + alpha_i I`` and
    ``kernel_coef(2) v_j + beta_j I``, with the trace multipliers only in
    trace-constrained mode."""
    rows, cols = cfg.kernel_coef(1) * u, cfg.kernel_coef(2) * v
    if cfg.trace_constrained:
        if np.shape(alpha) != (len(u),) or np.shape(beta) != (len(v),):
            raise ValueError(
                f"multipliers must have shapes ({len(u)},) and ({len(v)},), "
                f"got {np.shape(alpha)}, {np.shape(beta)}")
        idx = np.arange(u.shape[-1])
        rows[:, idx, idx] += alpha[:, None]
        cols[:, idx, idx] += beta[:, None]
    return rows, cols


def _scale(step, point: tuple, cfg: SolverConfig, callback=None):
    """The scaling loop of every solver: ``step(x)`` returns ``(G(x),
    residual)``; each residual joins the history, ``callback(iteration,
    G(x))`` runs, and the loop stops once a residual is below ``cfg.tol``
    or ``cfg.max_iter`` evaluations are spent, each next point chosen by
    :class:`_Anderson`.  Returns the last image, the history, whether it
    converged, and the notes: the accelerator's, and one on a spent budget.
    """
    accel = _Anderson(cfg)
    history = []
    for it in range(cfg.max_iter):
        image, res = step(point)
        history.append(res)
        if callback is not None:
            callback(it, image)
        if res < cfg.tol:
            return image, np.asarray(history), True, accel.notes()
        point = accel.step(point, image)
    return image, np.asarray(history), False, accel.notes() + [
        f"not converged: residual {res:.3g} after {cfg.max_iter} "
        f"iterations (tol {cfg.tol:g})"]


def _certify(state: DualState, mu: TensorMeasure, nu: TensorMeasure,
             cost: GroundCost, cfg: SolverConfig):
    """The coupling at ``state`` (see :func:`_coupling`), its notes, and
    the primal and dual objective values whose gap certifies it."""
    rows, cols = _kernel_terms(state.u, state.v, state.alpha, state.beta, cfg)
    coupling, notes = _coupling(kernel(rows, cols, cost, cfg.eps),
                                mu.tensors, nu.tensors)
    return (coupling, notes, primal_objective(coupling, mu, nu, cost, cfg),
            dual_objective(state, mu, nu, cost, cfg))


def _report(cfg: SolverConfig, history: np.ndarray, converged: bool, primal: float,
            dual: float, notes: list, dual_states: tuple | None = None) -> SolveReport:
    """The report of a solve run with ``cfg``; one more note per objective
    value that is not finite."""
    notes = tuple(notes) + tuple(
        f"{key} is not finite ({value})"
        for key, value in (("primal_value", primal), ("dual_value", dual))
        if not math.isfinite(value))
    return SolveReport(len(history), history, converged, primal, dual, cfg,
                       notes, dual_states)


def sinkhorn_solve(mu: TensorMeasure, nu: TensorMeasure, cost: GroundCost,
                   cfg: SolverConfig | None = None, callback=None):
    """Solve the entropic tensor-transport problem by scaling iterations.

    Each iteration relaxes the row potential toward ``LSE_j(K) - log mu``,
    recomputes the dual kernel ``K``, and relaxes the column potential
    toward ``LSE_i(K) - log nu``; it stops when the sup-norm of the
    column-potential change drops below ``cfg.tol``.  One iteration is a
    map ``x -> G(x)`` of the stacked dual variables, run by :func:`_scale`;
    with the default relaxations the next ``x`` may be an Anderson
    extrapolation of the last few images instead of ``G(x)`` itself.  The
    stopping test is always that of the plain step from ``x``, and the
    returned state is ``G(x)`` at the last iteration.

    With ``cfg.trace_constrained`` the marginals' traces are pinned to the
    inputs' traces: after each potential update the matching scalar
    multiplier takes an exact coordinate step, and the steps join the
    residual.  The row multiplier's step only shifts the kernel's
    eigenvalues, so one ``eigh`` of the kernel serves it and the column
    LSE; the column multiplier's step needs eigenvalues only.

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
        The coupling is ``exp(K)`` at the final dual variables (on
        singular tensors restricted to their ranges, see :func:`_coupling`).
        Non-convergence within ``max_iter`` is reported, not raised.
    """
    cfg = cfg or SolverConfig()
    _validate_problem(mu, nu, cost)
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

    log_mu, log_nu = log_sym(mu.tensors), log_sym(nu.tensors)

    def step(point):
        u, v, alpha, beta = point
        rows, cols = _kernel_terms(u, v, alpha, beta, cfg)
        lse_u = _kernel_lse(rows, cols, cost.kind, cost.values, cfg.eps, 1)
        u = cfg.relax(1, u, lse_u - log_mu)
        rows, cols = _kernel_terms(u, v, alpha, beta, cfg)
        if cfg.trace_constrained:
            # alpha += step_a moves kernel row i by -step_a_i / eps * I.
            vals, vecs = eig_sym(kernel(rows, cols, cost, cfg.eps))
            step_a = cfg.eps * (_lste_values(vals, 1) - log_tr_mu)
            alpha = alpha + step_a
            lse_v = _lse_eig(vals - (step_a / cfg.eps)[:, None, None], vecs, 0)
        else:
            lse_v = _kernel_lse(rows, cols, cost.kind, cost.values, cfg.eps, 0)
        v_new = cfg.relax(2, v, lse_v - log_nu)
        res = float(np.abs(v_new - v).max())
        v = v_new
        if cfg.trace_constrained:
            k = kernel(*_kernel_terms(u, v, alpha, beta, cfg), cost, cfg.eps)
            step_b = cfg.eps * (lste_reduce(k, axis=0) - log_tr_nu)
            beta = beta + step_b
            # The kernel sees only alpha_i + beta_j, so (alpha + c, beta - c)
            # is a gauge freedom; re-center to pin it.
            center = 0.5 * (float(beta.mean()) - float(alpha.mean()))
            alpha = alpha + center
            beta = beta - center
            # The column-potential change can stall while the multipliers
            # are still moving, so they join the residual.
            res = max(res, float(np.abs(step_a).max()), float(np.abs(step_b).max()))
        return (u, v, alpha, beta), res

    point = (np.zeros_like(log_mu), np.zeros_like(log_nu),
             np.zeros(mu.n_atoms), np.zeros(nu.n_atoms))
    watch = None if callback is None else (lambda it, x: callback(it, x[0], x[1]))
    image, history, converged, loop_notes = _scale(step, point, cfg, watch)
    state = DualState(*image)
    coupling, coupling_notes, primal, dual = _certify(state, mu, nu, cost, cfg)
    # With both marginals hard the problem is feasible only if the total
    # masses agree as matrices; their entries are compared as trace mode
    # compares the total traces, with no squares, which could overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        mass_mu, mass_nu = mu.tensors.sum(axis=0), nu.tensors.sum(axis=0)
        gap = float(np.abs(mass_mu - mass_nu).max())
        scale = max(float(np.abs(mass_mu).max()), float(np.abs(mass_nu).max()))
    notes = [note for flag, note in (
        (cfg.rho1 == math.inf, "rho1=inf: hard row-marginal constraint"),
        (cfg.rho2 == math.inf, "rho2=inf: hard column-marginal constraint"),
        (cfg.rho1 == cfg.rho2 == math.inf and gap > 1e-9 * scale,
         f"infeasible hard constraints: the total masses differ by {gap:.3g} "
         f"(largest entry of sum_i mu_i - sum_j nu_j)"),
        (cfg.trace_constrained, "trace-constrained marginals"),
    ) if flag] + loop_notes + coupling_notes
    return coupling, state, _report(cfg, history, converged, primal, dual, notes)


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
    rows, cols = _kernel_terms(state.u, state.v, state.alpha, state.beta, cfg)
    k = kernel(rows, cols, cost, cfg.eps)
    # tr exp(M) is the sum of exp over the eigenvalues of M; one that
    # overflows makes the dual -inf, and terms that overflow with opposite
    # signs make it nan; the report notes either.
    with np.errstate(over="ignore", invalid="ignore"):
        total = cfg.eps * float(np.exp(eigvals_sym(k)).sum())
        for rho, pot, target in ((cfg.rho1, state.u, mu.tensors),
                                 (cfg.rho2, state.v, nu.tensors)):
            if math.isfinite(rho):
                grown = np.exp(eigvals_sym(pot + log_sym(target))).sum(axis=-1)
                mass = np.trace(target, axis1=-2, axis2=-1)
                total += rho * float((grown - mass).sum())
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
    side, the sup-norm of the additive step ``eps * (LSE - log target)``);
    in trace-constrained mode also of the multiplier steps
    ``eps * (LSTE(K) - log tr target)`` on both axes."""
    rows, cols = _kernel_terms(state.u, state.v, state.alpha, state.beta, cfg)
    k = kernel(rows, cols, cost, cfg.eps)
    res = []
    for axis, rho, pot, target in ((1, cfg.rho1, state.u, mu.tensors),
                                   (0, cfg.rho2, state.v, nu.tensors)):
        gap = lse_reduce(k, axis=axis) - log_sym(target)
        step = pot - gap if math.isfinite(rho) else cfg.eps * gap
        res.append(float(np.abs(step).max()))
    if cfg.trace_constrained:
        vals = eigvals_sym(k)
        for axis, target in ((1, mu.tensors), (0, nu.tensors)):
            log_tr = np.log(np.trace(target, axis1=-2, axis2=-1))
            res.append(cfg.eps * float(np.abs(_lste_values(vals, axis) - log_tr).max()))
    return max(res)
