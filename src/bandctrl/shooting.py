"""Damped-Newton solver for the two-point boundary value system.

For control-affine (or LTI) dynamics with fixed endpoints, free interior
states, free controls, and the banned-frequency constraint, the first-order
conditions in normal form (eta_c = 1) are the square system of
:mod:`bandctrl.kkt`, which owns the layout of the unknowns.  Since both
endpoints are fixed, the transversality conditions place no restriction on
p_0 and p_{N-1}; they stay free unknowns.  The Newton iteration backtracks on
the residual max-norm; for LTI dynamics the residual is affine in z, so one
undamped step solves the system from any starting point.

Every Newton step is one structured solve,
:func:`bandctrl.kkt.time_varying_solve` (a Riccati scan and a dense border of
size n + q, O(N) time and memory), with the model's first derivatives and
per-stage second-order blocks of the stage Lagrangians l_t = p_t'f_t - c_t.
By default those are analytic: the cost Hessians and the cross term
d((df_t/du)'p_t)/dx_t of the gain's state Jacobian, with second derivatives
of the drift and gain taken as zero, which is exact for LTI models and for
control-affine models whose drift and gain are both affine in the state (an
affine drift Jacobian is not enough).  With ``NewtonOptions.fd_jacobian``,
or a general cost, they are central differences of the stage gradients, one
coordinate of every stage at once: 2 (n + m) evaluations of the model terms
per step, whatever N; a cost with no curvature in u (R_t = 0) is allowed,
since the scan then shifts its weights (:func:`bandctrl.kkt.riccati_scan`).
The pivots are not checked for inertia: where
Q_t - C_t'R_t^(-1)C_t is indefinite (large adjoints) the scan is less
accurate than a dense LU, and Newton's next iterate absorbs the error.

Each residual evaluates the model terms of all stages once, batched (see
:func:`bandctrl.problem._stage_terms`): a control-affine model has its drift,
gain and their Jacobians called once per stage, or once in all when it is
vectorized.  Newton keeps the terms of the accepted iterate, and its step
reuses them; the analytic step calls the model not at all.  The result
carries the final iterate's states (x_N = xf exactly), whose dynamics rows
hold only to its ``final_residual``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kkt
from ._norms import max_norm
from .extremal import (
    AbnormalRegimeError,
    ExtremalLift,
    NormalityClass,
    NormalityVerdict,
    classify_normality_freq,
    lift_from_solver,
)
from .kkt import StackedUnknowns
from .lq import SolveStatus, _solve_transfer, lq_transfer_freq_solve
from .problem import (
    ControlAffineDynamics,
    GeneralCost,
    LtiDynamics,
    ProblemSpec,
    QuadraticCost,
    Trajectory,
    _stage_terms,
)

__all__ = [
    "StackedUnknowns",
    "NewtonOptions",
    "ShootingResult",
    "SingularJacobianError",
    "assemble_residual",
    "residual_jacobian",
    "default_initialization",
    "newton_solve",
]


@dataclass(frozen=True)
class NewtonOptions:
    """Budget, tolerance and line search of :func:`newton_solve`.
    ``fd_jacobian`` takes the second-order stage blocks of the one structured
    step from central differences of the stage gradients."""

    max_iterations: int = 60
    tolerance: float = 1e-10  # absolute, residual max-norm
    backtrack_factor: float = 0.5
    min_step: float = 2.0 ** -30
    fd_jacobian: bool = False

    def __post_init__(self):
        # each check fails on NaN too; a backtrack_factor of 1 or a min_step
        # of 0 would never end the line search
        for field, ok, expected in (
            ("max_iterations", self.max_iterations >= 1, ">= 1"),
            ("tolerance", 0.0 < self.tolerance < np.inf, "positive and finite"),
            ("backtrack_factor", 0.0 < self.backtrack_factor < 1.0, "in (0, 1)"),
            ("min_step", 0.0 < self.min_step <= 1.0, "in (0, 1]"),
        ):
            if not ok:
                value = getattr(self, field)
                raise ValueError(f"NewtonOptions.{field} must be {expected}, got {value!r}")


@dataclass(frozen=True, eq=False)
class ShootingResult:
    trajectory: Trajectory
    lift: ExtremalLift
    iterations: int
    final_residual: float
    converged: bool
    trace: tuple  # (iteration, residual max-norm, accepted step)
    init_warning: bool = False
    normality: NormalityVerdict | None = None  # LTI specs only


class SingularJacobianError(RuntimeError):
    """Newton hit a singular residual Jacobian; carries iterate diagnostics.

    ``size`` is the Jacobian's size and ``rank`` its numerical rank.  When the
    step stopped at a singular or non-finite Riccati pivot or control weight
    R_t, ``stage`` and ``pivot`` (its smallest |eigenvalue|) say where, and
    ``rank`` is None: a pivot does not determine it.  ``rank`` is also None
    when the border is not finite."""

    def __init__(
        self, iteration: int, size: int, rank: int | None, residual: float,
        stage: int | None = None, pivot: float | None = None,
    ):
        self.iteration = iteration
        self.size = size
        self.rank = rank
        self.residual = residual
        self.stage = stage
        self.pivot = pivot
        where = f"numerical rank {rank} of {size}"
        if stage is not None:
            where = f"singular pivot or weight at stage {stage} (smallest |eigenvalue| {pivot:.3e})"
        elif rank is None:
            where = f"non-finite border, Jacobian size {size}"
        super().__init__(
            f"singular residual Jacobian at iteration {iteration}: {where}, "
            f"residual {residual:.3e}"
        )


def _check_supported(spec: ProblemSpec) -> None:
    """Refuse a spec that is not validated, or whose sets are not the ones
    shooting solves for: free controls, free interior states, fixed
    endpoints.  Reads the set arrays of :func:`bandctrl.problem.validate`,
    which rejects any other set variant."""
    if not isinstance(spec.dynamics, (LtiDynamics, ControlAffineDynamics)):
        raise ValueError(
            f"shooting requires LTI or control-affine dynamics, got {type(spec.dynamics).__name__}"
        )
    if spec.set_arrays is None:
        raise ValueError("spec must be validated first (bandctrl.problem.validate)")
    states, controls = spec.set_arrays
    fixed, N = states.fixed.tolist(), spec.horizon
    for rule, label, sets, stages in (
        ("free control sets", "control_sets", spec.control_sets,
         controls.fixed.tolist() + controls.boxes.tolist()),
        ("free interior state sets", "state_sets", spec.state_sets,
         [t for t in fixed + states.boxes.tolist() if 0 < t < N]),
        ("fixed endpoints", "state_sets", spec.state_sets, [t for t in (0, N) if t not in fixed]),
    ):
        if stages:
            t = min(stages)
            raise ValueError(f"shooting requires {rule}; {label}[{t}] is {type(sets[t]).__name__}")


def _unpack(zvec: np.ndarray, spec: ProblemSpec, x0, xf):
    """States x_0..x_N, controls, adjoints and nu of a flat iterate."""
    n, m, N = spec.n, spec.m, spec.horizon
    seg = kkt.segments(n, m, N, spec.frequency_constraint.row_count)
    states = np.concatenate([np.reshape(x0, n), zvec[seg["states"]], np.reshape(xf, n)])
    states = states.reshape(N + 1, n)
    return (
        states,
        zvec[seg["controls"]].reshape(N, m),
        zvec[seg["adjoints"]].reshape(N, n),
        zvec[seg["nu"]],
    )


def _evaluate(zvec: np.ndarray, spec: ProblemSpec, x0, xf):
    """Residual of the first-order rows at ``zvec``, and the stage terms of
    the model it was computed from (each stage evaluated once)."""
    states, controls, adjoints, nu = _unpack(zvec, spec, x0, xf)
    fc = spec.frequency_constraint
    terms = _stage_terms(spec.dynamics, spec.cost, states, controls)
    jx_p = np.einsum("tij,ti->tj", terms.jx[1:], adjoints[1:])
    ju_p = np.einsum("tij,ti->tj", terms.ju, adjoints)
    residual = np.concatenate([
        (states[1:] - terms.f).ravel(),  # (a) state dynamics
        (adjoints[:-1] - jx_p + terms.cx[1:]).ravel(),  # (b) adjoint dynamics, eta_c = 1
        (ju_p - terms.cu - fc.apply_transpose(nu)).ravel(),  # (c) stationarity dH/du
        fc.apply(controls),  # (d) frequency residual
    ])
    return residual, terms


def _residual_vec(zvec: np.ndarray, spec: ProblemSpec, x0, xf) -> np.ndarray:
    return _evaluate(zvec, spec, x0, xf)[0]


def assemble_residual(z: StackedUnknowns, spec: ProblemSpec, x0, xf) -> np.ndarray:
    """Stacked residual of the first-order system at the given unknowns.

    Blocks in order: state dynamics (endpoints substituted), adjoint dynamics,
    control stationarity, frequency residual.  Zero exactly at a normal
    extremal of the fixed-endpoint problem.
    """
    _check_supported(spec)
    n, m, N, q = spec.n, spec.m, spec.horizon, spec.frequency_constraint.row_count
    if (z.n, z.m, z.horizon, z.q) != (n, m, N, q):
        raise ValueError(
            f"unknown layout ({z.n}, {z.m}, {z.horizon}, {z.q}) does not match the "
            f"spec ({n}, {m}, {N}, {q})"
        )
    return _residual_vec(z.z, spec, x0, xf)


def _fd_blocks(spec: ProblemSpec, states, controls, adjoints):
    """(Q_t, R_t, C_t) = (-d2l_t/dx2, -d2l_t/du2, d2l_t/du dx), symmetrized,
    by central differences of the gradients (jx_t'p_t - cx_t, ju_t'p_t - cu_t)
    of the stage Lagrangians.  Stage t's gradient depends on (x_t, u_t) alone,
    so coordinate k moves at every stage at once, by 1e-6 (1 + |coordinate|).
    Stage 0's x blocks are not meaningful (x_0 is fixed) and not read."""
    N, n = len(controls), spec.n
    xu = np.concatenate([states[:N], controls], axis=1)
    hess = np.empty((N, xu.shape[1], xu.shape[1]))
    for k in range(xu.shape[1]):
        h = 1e-6 * (1.0 + abs(xu[:, k]))
        grads = []
        for sign in (1.0, -1.0):
            v = xu.copy()
            v[:, k] += sign * h
            terms = _stage_terms(spec.dynamics, spec.cost, v[:, :n], v[:, n:], step=False)
            grads.append(np.concatenate([
                np.einsum("tij,ti->tj", terms.jx, adjoints) - terms.cx,
                np.einsum("tij,ti->tj", terms.ju, adjoints) - terms.cu,
            ], axis=1))
        hess[:, :, k] = (grads[0] - grads[1]) / (2.0 * h[:, None])
    hess = 0.5 * (hess + hess.transpose(0, 2, 1))
    return -hess[:, :n, :n], -hess[:, n:, n:], hess[:, n:, :n]


def _stage_blocks(zvec, spec: ProblemSpec, x0, xf, terms, fd: bool, unpacked=None):
    """(Q, R, cross) of the Newton system at ``zvec``, whose model terms are
    ``terms``: :func:`_fd_blocks` with ``fd``, else the cost Hessians and the
    cross term d((df_t/du)'p_t)/dx_t (N, m, n) from ``terms.gx`` (None
    without a gain Jacobian).  ``unpacked`` is ``_unpack(zvec, ...)`` when
    the caller has it; else the iterate is unpacked only if a block reads
    it."""
    if not fd and terms.gx is None:
        return spec.cost.Q, spec.cost.R, None
    states, controls, adjoints, _ = unpacked or _unpack(zvec, spec, x0, xf)
    if fd:
        return _fd_blocks(spec, states, controls, adjoints)
    return spec.cost.Q, spec.cost.R, np.einsum("tijl,ti->tjl", terms.gx, adjoints)


def _step(zvec, residual, spec: ProblemSpec, x0, xf, terms, fd: bool) -> np.ndarray:
    """The Newton step at ``zvec``; raises
    :class:`bandctrl.kkt.SingularSystemError` when an R_t, a pivot or the
    border is singular."""
    Q, R, cross = _stage_blocks(zvec, spec, x0, xf, terms, fd)
    return kkt.time_varying_solve(
        terms.jx, terms.ju, Q, R, spec.frequency_constraint, -residual, cross
    )


def residual_jacobian(
    z: StackedUnknowns, spec: ProblemSpec, x0, xf, fd: bool = False
) -> np.ndarray:
    """Jacobian of :func:`assemble_residual`, the dense matrix that a Newton
    step solves: first-order blocks from the model's derivatives, second-order
    stage blocks analytic or, with ``fd`` or a general cost, central
    differences of the stage gradients."""
    _check_supported(spec)
    unpacked = _unpack(z.z, spec, x0, xf)
    terms = _stage_terms(spec.dynamics, spec.cost, *unpacked[:2], step=False)
    fd = fd or isinstance(spec.cost, GeneralCost)
    Q, R, cross = _stage_blocks(z.z, spec, x0, xf, terms, fd, unpacked)
    return kkt.assemble(terms.jx, terms.ju, Q, R, spec.frequency_constraint, cross)


def _initialize(spec: ProblemSpec, x0, xf):
    """:func:`default_initialization`, plus the normality verdict of an LTI
    spec (None for other dynamics).  Only an LTI spec's transfer is
    classified: the linearized transfer of another spec has no verdict to
    report, and the one refusal acted on here, an all-abnormal regime, holds
    exactly when q + n > m N (:func:`classify_normality_freq`)."""
    n, m, N = spec.n, spec.m, spec.horizon
    fc = spec.frequency_constraint
    zeros = StackedUnknowns.zeros(n, m, N, fc.row_count)
    x0 = np.asarray(x0, dtype=float).reshape(n)
    xf = np.asarray(xf, dtype=float).reshape(n)
    dyn = spec.dynamics
    zero_u = np.zeros(m)
    A = np.asarray(dyn.jac_x(0, x0, zero_u), dtype=float)
    B = np.asarray(dyn.jac_u(0, x0, zero_u), dtype=float)
    if isinstance(spec.cost, QuadraticCost):
        Q, R = spec.cost.Q, spec.cost.R
    else:
        Q, R = np.eye(n), np.eye(m)
    if isinstance(dyn, LtiDynamics):
        try:
            sol = lq_transfer_freq_solve(A, B, Q, R, N, x0, xf, fc)
        except AbnormalRegimeError as exc:
            return zeros, True, exc.verdict
    elif fc.row_count + n > m * N:  # all abnormal
        return zeros, True, None
    else:
        sol = _solve_transfer(A, B, Q, R, N, x0, xf, fc)
    if sol.status is not SolveStatus.SOLVED:
        return zeros, True, sol.normality
    traj = sol.trajectory
    z = StackedUnknowns.pack(traj.states[1:N], traj.controls, sol.adjoints, sol.nu)
    return z, False, sol.normality


def default_initialization(spec: ProblemSpec, x0, xf) -> tuple[StackedUnknowns, bool]:
    """Initial iterate from the exactly-solved linearized problem.

    LTI specs initialize at their own exact solution.  Control-affine specs
    linearize about (x0, 0) and lift the resulting LTI solution.  If that
    transfer is infeasible or in an abnormal regime (for instance a vanishing
    linearized gain), falls back to the zero iterate and sets the warning flag.
    """
    _check_supported(spec)
    z, warned, _ = _initialize(spec, x0, xf)
    return z, warned


def newton_solve(
    spec: ProblemSpec,
    x0,
    xf,
    init: StackedUnknowns | None = None,
    opts: NewtonOptions | None = None,
) -> ShootingResult:
    """Damped Newton iteration on the stacked first-order residual.

    Backtracks by halving until the residual max-norm strictly decreases;
    stops when the residual drops below ``opts.tolerance`` or the iteration
    budget runs out.  For LTI specs the residual is affine, so any starting
    point converges in a single undamped step.  LTI specs in an all-abnormal
    regime are refused with :class:`AbnormalRegimeError`; a singular Jacobian
    raises :class:`SingularJacobianError` with iterate diagnostics.  For LTI
    specs the normality verdict is returned in the result.  The trajectory is
    the final iterate's: a non-converged one meets the dynamics only to
    ``final_residual``.
    """
    _check_supported(spec)
    opts = opts or NewtonOptions()
    n, N = spec.n, spec.horizon
    x0 = np.asarray(x0, dtype=float).reshape(n)
    xf = np.asarray(xf, dtype=float).reshape(n)

    init_warning, verdict = False, None
    if init is None:  # an LTI spec's initialization classifies the spec itself
        init, init_warning, verdict = _initialize(spec, x0, xf)
    if isinstance(spec.dynamics, LtiDynamics):
        if verdict is None:
            verdict = classify_normality_freq(
                spec.dynamics.A, spec.dynamics.B, N, spec.frequency_constraint
            )
        if verdict.classification is NormalityClass.ALL_ABNORMAL:
            raise AbnormalRegimeError(verdict)

    z = init.z.copy()
    residual, terms = _evaluate(z, spec, x0, xf)
    norm = max_norm(residual)
    trace: list[tuple[int, float, float]] = [(0, norm, 0.0)]
    iterations = 0
    fd = opts.fd_jacobian or isinstance(spec.cost, GeneralCost)

    while norm > opts.tolerance and iterations < opts.max_iterations:
        iterations += 1
        try:
            step = _step(z, residual, spec, x0, xf, terms, fd)
        except kkt.SingularSystemError as exc:
            size = residual.size
            rank = None if exc.deficiency is None else size - exc.deficiency
            raise SingularJacobianError(iterations, size, rank, norm, exc.stage, exc.pivot) from None
        alpha = 1.0
        accepted = False
        while alpha >= opts.min_step:
            z_try = z + alpha * step
            r_try, terms_try = _evaluate(z_try, spec, x0, xf)
            norm_try = max_norm(r_try)
            if norm_try < norm:
                accepted = True
                break
            alpha *= opts.backtrack_factor
        if not accepted:
            iterations -= 1  # no step taken
            break
        z, residual, norm, terms = z_try, r_try, norm_try, terms_try
        trace.append((iterations, norm, alpha))

    states, controls, adjoints, nu = _unpack(z, spec, x0, xf)
    traj = Trajectory(states, controls)
    lift = lift_from_solver(spec, traj, adjoints, nu.copy(), eta_c=1.0)
    return ShootingResult(
        trajectory=traj,
        lift=lift,
        iterations=iterations,
        final_residual=norm,
        converged=norm <= opts.tolerance,
        trace=tuple(trace),
        init_warning=init_warning,
        normality=verdict,
    )
