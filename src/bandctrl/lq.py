"""Exact solvers for the linear-quadratic problem family.

Four entry points, all for x_{t+1} = A x_t + B u_t with stage cost
0.5 x'Qx + 0.5 u'Ru (Q psd, R pd):

* :func:`riccati_solve` - free final state, backward value recursion and
  feedback rollout;
* :func:`lq_pmp_solve` - same problem through the first-order two-point
  system, assembled and solved as one linear system;
* :func:`lq_transfer_solve` - fixed endpoints x_0 = x0, x_N = xf;
* :func:`lq_transfer_freq_solve` - fixed endpoints plus the banned-frequency
  equality constraint sum_t F_t u_t = 0, with its multiplier nu.

The last three build their first-order system with :mod:`bandctrl.kkt`.
The transfer systems are square; they are solved directly, with a least
squares fallback (minimum-norm over the whole stacked vector, hence over the
multipliers when those are non-unique).  A least-squares residual above
1e-7 * (1 + |rhs|) flags the transfer as infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kkt
from .extremal import (
    AbnormalRegimeError,
    NormalityClass,
    NormalityVerdict,
    _inf,
    classify_normality_freq,
)
from .problem import LtiDynamics, QuadraticCost, Trajectory, rollout, trajectory_cost
from .spectrum import FrequencyConstraint

__all__ = [
    "SolveStatus",
    "RiccatiSolution",
    "LqSolution",
    "riccati_solve",
    "riccati_adjoints",
    "lq_pmp_solve",
    "lq_transfer_solve",
    "lq_transfer_freq_solve",
    "INFEASIBILITY_TOL",
]

INFEASIBILITY_TOL = 1e-7


class SolveStatus(Enum):
    SOLVED = "SOLVED"
    INFEASIBLE = "INFEASIBLE"
    SINGULAR = "SINGULAR"


def _as_lq(A, B, Q, R, horizon, x0):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    n, m = B.shape
    if A.shape != (n, n) or Q.shape != (n, n) or R.shape != (m, m):
        raise ValueError(
            f"inconsistent shapes: A{A.shape} B{B.shape} Q{Q.shape} R{R.shape}"
        )
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return A, B, Q, R, n, m, np.asarray(x0, dtype=float).reshape(n)


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward value matrices S_0..S_N, feedback gains K_0..K_{N-1}, and the
    rolled-out cost; S_N = 0 and u_t = K_t x_t."""

    value_matrices: np.ndarray  # (N+1, n, n)
    gains: np.ndarray  # (N, m, n)
    cost: float
    status: SolveStatus = SolveStatus.SOLVED


@dataclass(frozen=True)
class LqSolution:
    trajectory: Trajectory | None
    adjoints: np.ndarray | None
    nu: np.ndarray
    cost: float
    status: SolveStatus
    ls_residual: float = 0.0
    endpoint_gap: float = 0.0
    normality: NormalityVerdict | None = None


def riccati_solve(A, B, Q, R, horizon: int, x0) -> tuple[RiccatiSolution, Trajectory | None]:
    """Bellman recursion for the free-final-state LQ problem.

    S_N = 0;  K_t = -(R + B'S_{t+1}B)^(-1) B'S_{t+1}A;
    S_t = (A + B K_t)' S_{t+1} (A + B K_t) + K_t' R K_t + Q;  u_t = K_t x_t.
    """
    A, B, Q, R, n, m, x0 = _as_lq(A, B, Q, R, horizon, x0)
    S = np.zeros((horizon + 1, n, n))
    K = np.zeros((horizon, m, n))
    for t in range(horizon - 1, -1, -1):
        BSB = R + B.T @ S[t + 1] @ B
        try:
            K[t] = -np.linalg.solve(BSB, B.T @ S[t + 1] @ A)
        except np.linalg.LinAlgError:
            return (
                RiccatiSolution(S, K, float("nan"), SolveStatus.SINGULAR),
                None,
            )
        closed = A + B @ K[t]
        St = closed.T @ S[t + 1] @ closed + K[t].T @ R @ K[t] + Q
        S[t] = 0.5 * (St + St.T)
    states = np.zeros((horizon + 1, n))
    controls = np.zeros((horizon, m))
    states[0] = x0
    for t in range(horizon):
        controls[t] = K[t] @ states[t]
        states[t + 1] = A @ states[t] + B @ controls[t]
    traj = Trajectory(states=states, controls=controls)
    cost = trajectory_cost(QuadraticCost(Q, R), traj)
    return RiccatiSolution(S, K, cost, SolveStatus.SOLVED), traj


def riccati_adjoints(solution: RiccatiSolution, traj: Trajectory) -> np.ndarray:
    """Adjoints consistent with the value recursion: p_t = -S_{t+1} x_{t+1}."""
    horizon = traj.horizon
    return np.array(
        [-solution.value_matrices[t + 1] @ traj.states[t + 1] for t in range(horizon)]
    )


def _solve_stacked(M: np.ndarray, rhs: np.ndarray):
    """Solve a square stacked system, falling back to least squares.

    Returns (z, residual, consistent); residual is the max-norm of M z - rhs
    and consistency uses INFEASIBILITY_TOL * (1 + |rhs|).
    """
    threshold = INFEASIBILITY_TOL * (1.0 + _inf(rhs))
    try:
        z = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        z = np.full(rhs.size, np.nan)
    if not np.all(np.isfinite(z)) or _inf(M @ z - rhs) > threshold:
        z = np.linalg.lstsq(M, rhs, rcond=None)[0]
    # one step of iterative refinement sharpens consistent solves to machine level
    try:
        z = z + np.linalg.solve(M, rhs - M @ z)
    except np.linalg.LinAlgError:
        z = z + np.linalg.lstsq(M, rhs - M @ z, rcond=None)[0]
    residual = _inf(M @ z - rhs)
    return z, residual, residual <= threshold


def _lq_system(A, B, Q, R, N, x0, xf, blocks):
    """First-order system of the LQ problem as (J, -r(0)); xf None frees the
    final state."""
    n, m = B.shape
    M = kkt.assemble(
        np.broadcast_to(A, (N, n, n)), np.broadcast_to(B, (N, n, m)), Q, R, blocks,
        free_end=xf is None,
    )
    return M, kkt.boundary_rhs(A @ x0, xf, n, m, N, blocks.shape[1])


def lq_pmp_solve(A, B, Q, R, horizon: int, x0) -> LqSolution:
    """Free-final-state LQ problem through its first-order system.

    Solves the system of :mod:`bandctrl.kkt` with x_N free, that is

        x_{t+1} = A x_t + B u_t,       x_0 = x0,   t = 0..N-2,
        p_{t-1} = A'p_t - Q x_t,       t = 1..N-1,
        R u_t   = B'p_t,               p_{N-1} = 0,

    as one linear system.  eta_c = 1 throughout: the free-endpoint problem has
    no abnormal extremals (a zero cost multiplier forces the whole adjoint
    sequence to zero).
    """
    A, B, Q, R, n, m, x0 = _as_lq(A, B, Q, R, horizon, x0)
    N = horizon
    M, rhs = _lq_system(A, B, Q, R, N, x0, None, np.zeros((N, 0, m)))
    try:
        z = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        z = np.full(rhs.size, np.nan)
    if not np.all(np.isfinite(z)):
        return LqSolution(None, None, np.zeros(0), float("nan"), SolveStatus.SINGULAR)
    unknowns = kkt.StackedUnknowns(z, n, m, N, 0)
    traj = rollout(LtiDynamics(A, B), x0, unknowns.controls())
    cost = trajectory_cost(QuadraticCost(Q, R), traj)
    return LqSolution(traj, unknowns.adjoints(), np.zeros(0), cost, SolveStatus.SOLVED)


def _solve_transfer(A, B, Q, R, N, x0, xf, blocks, normality=None) -> LqSolution:
    A, B, Q, R, n, m, x0 = _as_lq(A, B, Q, R, N, x0)
    xf = np.asarray(xf, dtype=float).reshape(n)
    M, rhs = _lq_system(A, B, Q, R, N, x0, xf, blocks)
    z, residual, consistent = _solve_stacked(M, rhs)
    unknowns = kkt.StackedUnknowns(z, n, m, N, blocks.shape[1])
    nu = unknowns.nu().copy()
    if not consistent:
        return LqSolution(
            None, None, nu, float("nan"), SolveStatus.INFEASIBLE, residual, normality=normality
        )
    traj = rollout(LtiDynamics(A, B), x0, unknowns.controls())
    cost = trajectory_cost(QuadraticCost(Q, R), traj)
    gap = _inf(traj.states[N] - xf)
    return LqSolution(
        traj, unknowns.adjoints(), nu, cost, SolveStatus.SOLVED, residual, gap, normality
    )


def lq_transfer_solve(A, B, Q, R, horizon: int, x0, xf) -> LqSolution:
    """Fixed-endpoint LQ transfer.  The adjoints p_0 and p_{N-1} are free
    unknowns; an unreachable target surfaces as INFEASIBLE with the least
    squares residual reported."""
    n, m = np.asarray(B).shape
    return _solve_transfer(A, B, Q, R, horizon, x0, xf, np.zeros((horizon, 0, m)))


def lq_transfer_freq_solve(
    A, B, Q, R, horizon: int, x0, xf, constraint: FrequencyConstraint
) -> LqSolution:
    """Fixed-endpoint LQ transfer under sum_t F_t u_t = 0.

    Adds the multiplier nu to the unknowns, F_t' nu to the stationarity rows,
    and the frequency residual rows to the system; solved in normal form
    (eta_c = 1).  Refuses to run when :func:`classify_normality_freq` reports
    an all-abnormal regime, raising :class:`AbnormalRegimeError`; otherwise
    the verdict is returned as ``LqSolution.normality``.  When the
    multiplier is non-unique the least-squares path returns the minimum-norm
    stacked solution, so nu is the minimum-norm multiplier consistent with the
    (unique) optimal controls.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    verdict = classify_normality_freq(A, B, horizon, constraint)
    if verdict.classification is NormalityClass.ALL_ABNORMAL:
        raise AbnormalRegimeError(verdict)
    return _solve_transfer(A, B, Q, R, horizon, x0, xf, constraint.blocks, verdict)
