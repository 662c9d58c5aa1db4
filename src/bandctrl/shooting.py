"""Damped-Newton solver for the two-point boundary value system.

For control-affine (or LTI) dynamics with fixed endpoints, free interior
states, free controls, and the banned-frequency constraint, the first-order
conditions in normal form (eta_c = 1) are the square system of
:mod:`bandctrl.kkt`, which owns the layout of the unknowns and assembles the
Jacobian.  Since both endpoints are fixed, the transversality conditions
place no restriction on p_0 and p_{N-1}; they stay free unknowns.  The Newton
iteration backtracks on the residual max-norm; for LTI dynamics the residual
is affine in z, so one undamped step solves the system from any starting
point.

Each residual evaluates the model terms of all stages once, batched (see
:func:`bandctrl.problem._stage_terms`); Newton keeps the terms of the
accepted iterate, and its Jacobian reuses them, adding only the gain's state
Jacobian.

The result carries the final iterate's states (x_N = xf exactly), whose
dynamics rows hold only to its ``final_residual``.

The analytic residual Jacobian uses first derivatives of the dynamics plus
the gain's state Jacobian; second derivatives of the drift and gain are taken
as zero, which is exact for LTI models and for control-affine models whose
drift Jacobian and gain are affine in the state (such as the builtin toy).
Set ``NewtonOptions.fd_jacobian`` for models with curvature beyond that; a
general (non-quadratic) cost forces the finite-difference path as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kkt
from .extremal import (
    AbnormalRegimeError,
    ExtremalLift,
    NormalityClass,
    NormalityVerdict,
    _inf,
    classify_normality_freq,
    lift_from_solver,
)
from .kkt import StackedUnknowns
from .lq import SolveStatus, lq_transfer_freq_solve
from .problem import (
    ControlAffineDynamics,
    Fixed,
    Free,
    GeneralCost,
    LtiDynamics,
    ProblemSpec,
    QuadraticCost,
    Trajectory,
    _stage_terms,
)
from .spectrum import numerical_rank

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
    max_iterations: int = 60
    tolerance: float = 1e-10  # absolute, residual max-norm
    backtrack_factor: float = 0.5
    min_step: float = 2.0 ** -30
    fd_jacobian: bool = False

    def __post_init__(self):
        if self.tolerance <= 0 or self.max_iterations < 1:
            raise ValueError("tolerance must be > 0 and max_iterations >= 1")


@dataclass(frozen=True)
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
    """Newton hit a singular residual Jacobian; carries iterate diagnostics."""

    def __init__(self, iteration: int, size: int, rank: int, residual: float):
        self.iteration = iteration
        self.size = size
        self.rank = rank
        self.residual = residual
        super().__init__(
            f"singular residual Jacobian at iteration {iteration}: "
            f"numerical rank {rank} of {size}, residual {residual:.3e}"
        )


def _check_supported(spec: ProblemSpec) -> None:
    if not isinstance(spec.dynamics, (LtiDynamics, ControlAffineDynamics)):
        raise ValueError(
            f"shooting requires LTI or control-affine dynamics, got {type(spec.dynamics).__name__}"
        )
    for t, s in enumerate(spec.control_sets):
        if not isinstance(s, Free):
            raise ValueError(
                f"shooting requires free control sets; control_sets[{t}] is {type(s).__name__}"
            )
    for t in range(1, spec.horizon):
        if not isinstance(spec.state_sets[t], Free):
            raise ValueError(
                f"shooting requires free interior state sets; state_sets[{t}] is "
                f"{type(spec.state_sets[t]).__name__}"
            )
    for t in (0, spec.horizon):
        if not isinstance(spec.state_sets[t], Fixed):
            raise ValueError(
                f"shooting requires fixed endpoints; state_sets[{t}] is "
                f"{type(spec.state_sets[t]).__name__}"
            )
    if spec.frequency_constraint is None:
        raise ValueError("spec must be validated first (frequency constraint missing)")


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
    blocks = spec.frequency_constraint.blocks
    terms = _stage_terms(spec.dynamics, spec.cost, states, controls)
    jx_p = np.einsum("tij,ti->tj", terms.jx[1:], adjoints[1:])
    ju_p = np.einsum("tij,ti->tj", terms.ju, adjoints)
    residual = np.concatenate([
        (states[1:] - terms.f).ravel(),  # (a) state dynamics
        (adjoints[:-1] - jx_p + terms.cx[1:]).ravel(),  # (b) adjoint dynamics, eta_c = 1
        (ju_p - terms.cu - nu @ blocks).ravel(),  # (c) stationarity dH/du
        np.einsum("tqm,tm->q", blocks, controls),  # (d) frequency residual
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


def _jacobian_analytic(zvec, spec, x0, xf, terms) -> np.ndarray:
    """Assemble the Jacobian from the stage terms of the iterate ``zvec``,
    adding the gain's state Jacobian of control-affine models; second
    derivatives of the drift and gain are taken as zero."""
    dyn, N = spec.dynamics, spec.horizon
    cross = None
    if isinstance(dyn, ControlAffineDynamics):
        states, _, adjoints, _ = _unpack(zvec, spec, x0, xf)
        cross = np.zeros((N, spec.m, spec.n))
        if N > 1:
            gain_jac = np.array([dyn.gain_state_jacobian(t, states[t]) for t in range(1, N)])
            cross[1:] = np.einsum("tijl,ti->tjl", gain_jac, adjoints[1:])
    return kkt.assemble(
        terms.jx, terms.ju, spec.cost.Q, spec.cost.R, spec.frequency_constraint.blocks, cross
    )


def _jacobian_fd(zvec, spec, x0, xf) -> np.ndarray:
    size = zvec.size
    jac = np.zeros((size, size))
    for j in range(size):
        h = 1e-7 * (1.0 + abs(zvec[j]))
        zp = zvec.copy()
        zm = zvec.copy()
        zp[j] += h
        zm[j] -= h
        jac[:, j] = (_residual_vec(zp, spec, x0, xf) - _residual_vec(zm, spec, x0, xf)) / (2 * h)
    return jac


def residual_jacobian(
    z: StackedUnknowns, spec: ProblemSpec, x0, xf, fd: bool = False
) -> np.ndarray:
    """Jacobian of :func:`assemble_residual` with respect to the unknowns."""
    _check_supported(spec)
    if fd or isinstance(spec.cost, GeneralCost):
        return _jacobian_fd(z.z, spec, x0, xf)
    states, controls, _, _ = _unpack(z.z, spec, x0, xf)
    terms = _stage_terms(spec.dynamics, spec.cost, states, controls, step=False)
    return _jacobian_analytic(z.z, spec, x0, xf, terms)


def _initialize(spec: ProblemSpec, x0, xf):
    """:func:`default_initialization`, plus the normality verdict of the
    linearized transfer (for an LTI spec, the spec's own verdict)."""
    n, m, N = spec.n, spec.m, spec.horizon
    zeros = StackedUnknowns.zeros(n, m, N, spec.frequency_constraint.row_count)
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
    try:
        sol = lq_transfer_freq_solve(A, B, Q, R, N, x0, xf, spec.frequency_constraint)
    except AbnormalRegimeError as exc:
        return zeros, True, exc.verdict
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
    if not isinstance(spec.dynamics, LtiDynamics):
        verdict = None
    else:
        if verdict is None:
            verdict = classify_normality_freq(
                spec.dynamics.A, spec.dynamics.B, N, spec.frequency_constraint
            )
        if verdict.classification is NormalityClass.ALL_ABNORMAL:
            raise AbnormalRegimeError(verdict)

    z = init.z.copy()
    residual, terms = _evaluate(z, spec, x0, xf)
    norm = _inf(residual)
    trace: list[tuple[int, float, float]] = [(0, norm, 0.0)]
    iterations = 0
    use_fd = opts.fd_jacobian or isinstance(spec.cost, GeneralCost)

    while norm > opts.tolerance and iterations < opts.max_iterations:
        iterations += 1
        jac = (
            _jacobian_fd(z, spec, x0, xf) if use_fd else _jacobian_analytic(z, spec, x0, xf, terms)
        )
        try:
            step = np.linalg.solve(jac, -residual)
        except np.linalg.LinAlgError:
            raise SingularJacobianError(iterations, jac.shape[0], numerical_rank(jac), norm)
        if not np.all(np.isfinite(step)):
            raise SingularJacobianError(iterations, jac.shape[0], numerical_rank(jac), norm)
        alpha = 1.0
        accepted = False
        while alpha >= opts.min_step:
            z_try = z + alpha * step
            r_try, terms_try = _evaluate(z_try, spec, x0, xf)
            norm_try = _inf(r_try)
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
