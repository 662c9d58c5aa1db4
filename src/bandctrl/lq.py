"""Exact solvers for the linear-quadratic problem family.

Four entry points, all for x_{t+1} = A x_t + B u_t with stage cost
0.5 x'Qx + 0.5 u'Ru (Q psd, R pd):

* :func:`riccati_solve` - free final state, backward value recursion and
  closed-loop rollout (one recursive-doubling scan);
* :func:`lq_pmp_solve` - same problem through the first-order two-point
  system;
* :func:`lq_transfer_solve` - fixed endpoints x_0 = x0, x_N = xf;
* :func:`lq_transfer_freq_solve` - fixed endpoints plus the banned-frequency
  equality constraint sum_t F_t u_t = 0, with its multiplier nu.

The last three solve their first-order system, in the row layout of
:mod:`bandctrl.kkt`, with :func:`bandctrl.kkt.lti_solve`: a Riccati sweep
(which stops at its floating-point fixed point and repeats that stage for the
rest of the horizon), one backward scan that carries the right-hand side and
one column per border unknown, a Schur complement of size n + q on the border
(p_{N-1} at a fixed end, and nu) formed as a Gram product of that backward
scan, and one single-column forward scan; so no matrix larger than
(n + q)^2 is factored.  The border is solved by LU, and by least squares
when LU fails or leaves too large a residual; when the multipliers are
non-unique, (p_{N-1}, nu) is minimum-norm over those border unknowns rather
than over the whole stacked vector.  A max-norm residual of the whole
first-order system above INFEASIBILITY_TOL * (1 + |rhs|) flags the transfer
as infeasible.

The returned states are those the first-order solve matched (x_N = xf, or
A x_{N-1} + B u_{N-1} at a free end), so every dynamics row holds to the
accuracy of the solve however unstable A is: no open-loop re-integration
amplifies its rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kkt
from .kkt import INFEASIBILITY_TOL
from .extremal import (
    AbnormalRegimeError,
    NormalityClass,
    NormalityVerdict,
    classify_normality_freq,
)
from .problem import QuadraticCost, Trajectory, trajectory_cost
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
    """A solved transfer ends at xf exactly, so ``endpoint_gap`` is always
    0.0; it stays for its readers, such as ``bench/spans.py``."""

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
    S_t = Q + A'S_{t+1}(A + B K_t);  u_t = K_t x_t  (:func:`bandctrl.kkt.riccati_sweep`).

    The closed loop x_{t+1} = (A + B K_t) x_t is rolled out by one
    single-column recursive-doubling scan, and u_t = K_t x_t by one batched
    product.
    """
    A, B, Q, R, n, m, x0 = _as_lq(A, B, Q, R, horizon, x0)
    try:
        S, K, _ = kkt.riccati_sweep(A, B, Q, R, horizon)
    except np.linalg.LinAlgError:
        S, K = np.zeros((horizon + 1, n, n)), np.zeros((horizon, m, n))
        return RiccatiSolution(S, K, float("nan"), SolveStatus.SINGULAR), None
    phi = A + B @ K
    start = np.zeros((horizon, n, 1))
    start[0, :, 0] = phi[0] @ x0
    states = np.concatenate([x0[None], kkt._scan(phi, start)[:, :, 0]])
    controls = (K @ states[:-1, :, None])[:, :, 0]
    traj = Trajectory(states=states, controls=controls)
    cost = trajectory_cost(QuadraticCost(Q, R), traj)
    return RiccatiSolution(S, K, cost, SolveStatus.SOLVED), traj


def riccati_adjoints(solution: RiccatiSolution, traj: Trajectory) -> np.ndarray:
    """Adjoints consistent with the value recursion: p_t = -S_{t+1} x_{t+1}."""
    return -np.einsum("tij,tj->ti", solution.value_matrices[1:], traj.states[1:])


def _first_order_solve(A, B, Q, R, N, x0, xf, blocks):
    """Structured solve of the LQ first-order system (xf None frees the final
    state).  Returns (unknowns, residual, consistent): the residual is the
    max-norm of the first-order rows, consistency uses
    INFEASIBILITY_TOL * (1 + |rhs|).  Raises ``numpy.linalg.LinAlgError`` on a
    singular Riccati pivot."""
    n, m = B.shape
    q = blocks.shape[1]
    rhs = kkt.boundary_rhs(A @ x0, xf, n, m, N, q)
    z, residual, consistent = kkt.lti_solve(A, B, Q, R, blocks, rhs, free_end=xf is None)
    return kkt.StackedUnknowns(z, n, m, N, q), residual, consistent


def lq_pmp_solve(A, B, Q, R, horizon: int, x0) -> LqSolution:
    """Free-final-state LQ problem through its first-order system.

    Solves the system of :mod:`bandctrl.kkt` with x_N free, that is

        x_{t+1} = A x_t + B u_t,       x_0 = x0,   t = 0..N-2,
        p_{t-1} = A'p_t - Q x_t,       t = 1..N-1,
        R u_t   = B'p_t,               p_{N-1} = 0,

    with the structured solver (no border: q = 0 and p_{N-1} = 0 is given), and
    takes the free x_N as A x_{N-1} + B u_{N-1}; a singular Riccati pivot
    gives SINGULAR.  eta_c = 1 throughout: the
    free-endpoint problem has no abnormal extremals (a zero cost multiplier
    forces the whole adjoint sequence to zero).
    """
    A, B, Q, R, n, m, x0 = _as_lq(A, B, Q, R, horizon, x0)
    N = horizon
    try:
        unknowns, _, _ = _first_order_solve(A, B, Q, R, N, x0, None, np.zeros((N, 0, m)))
    except np.linalg.LinAlgError:
        return LqSolution(None, None, np.zeros(0), float("nan"), SolveStatus.SINGULAR)
    states, controls = np.concatenate([x0[None], unknowns.states()]), unknowns.controls()
    x_end = A @ states[-1] + B @ controls[-1]  # the free end is its own dynamics row
    traj = Trajectory(np.vstack([states, x_end]), controls)
    cost = trajectory_cost(QuadraticCost(Q, R), traj)
    return LqSolution(traj, unknowns.adjoints(), np.zeros(0), cost, SolveStatus.SOLVED)


def _solve_transfer(A, B, Q, R, N, x0, xf, blocks, normality=None) -> LqSolution:
    A, B, Q, R, n, m, x0 = _as_lq(A, B, Q, R, N, x0)
    xf = np.asarray(xf, dtype=float).reshape(n)
    try:
        unknowns, residual, consistent = _first_order_solve(A, B, Q, R, N, x0, xf, blocks)
    except np.linalg.LinAlgError:
        return LqSolution(
            None, None, np.zeros(blocks.shape[1]), float("nan"), SolveStatus.SINGULAR,
            normality=normality,
        )
    nu = unknowns.nu().copy()
    if not consistent:
        return LqSolution(
            None, None, nu, float("nan"), SolveStatus.INFEASIBLE, residual, normality=normality
        )
    states = np.concatenate([x0[None], unknowns.states(), xf[None]])
    traj = Trajectory(states, unknowns.controls())
    cost = trajectory_cost(QuadraticCost(Q, R), traj)
    return LqSolution(
        traj, unknowns.adjoints(), nu, cost, SolveStatus.SOLVED, residual, normality=normality
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
    border solution, so (p_{N-1}, nu) is minimum-norm among the multipliers
    consistent with the (unique) optimal controls.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    verdict = classify_normality_freq(A, B, horizon, constraint)
    if verdict.classification is NormalityClass.ALL_ABNORMAL:
        raise AbnormalRegimeError(verdict)
    return _solve_transfer(A, B, Q, R, horizon, x0, xf, constraint.blocks, verdict)
