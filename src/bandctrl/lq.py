"""Exact solvers for the linear-quadratic problem family.

Four entry points, all for x_{t+1} = A x_t + B u_t with stage cost
0.5 x'Qx + 0.5 u'Ru (Q psd, R pd):

* :func:`riccati_solve` - free final state, backward value recursion and
  closed-loop rollout (one recursive-doubling scan);
* :func:`lq_pmp_solve` - the same problem read as its first-order two-point
  system, whose block elimination is that recursion;
* :func:`lq_transfer_freq_solve` - fixed endpoints x_0 = x0, x_N = xf plus
  the banned-frequency equality constraint sum_t F_t u_t = 0, with its
  multiplier nu;
* :func:`lq_transfer_solve` - the same transfer with no frequency rows
  (q = 0), classified and solved by the same code.

A transfer solves its first-order system, in the row layout of
:mod:`bandctrl.kkt`, with :func:`bandctrl.kkt.lti_solve`, which factors no
matrix larger than (n + q)^2; when the multipliers are non-unique,
(p_{N-1}, nu) is minimum-norm over those border unknowns.  A max-norm
residual of the whole first-order system above
INFEASIBILITY_TOL * (1 + |rhs|) flags the transfer as infeasible.

The endpoints x0 and xf enter only the right-hand side, so what depends on
the plant alone is kept for the most recent plant, in one slot each: the
normality verdict (:func:`classify_normality_freq`) and the plan of
``lti_solve`` (see :mod:`bandctrl.kkt` for its content, key and memory).
Solving one plant for many endpoint pairs computes them once, and a hit
returns exactly what a fresh computation would.

The returned states of a transfer are those the first-order solve matched
(x_N = xf), so every dynamics row holds to the accuracy of the solve however
unstable A is: no open-loop re-integration amplifies its rounding.
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
from .problem import Trajectory, _quadratic_value
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


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Backward value matrices S_0..S_N, feedback gains K_0..K_{N-1}, and the
    rolled-out cost; S_N = 0 and u_t = K_t x_t."""

    value_matrices: np.ndarray  # (N+1, n, n)
    gains: np.ndarray  # (N, m, n)
    cost: float
    status: SolveStatus = SolveStatus.SOLVED


@dataclass(frozen=True, eq=False)
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
    cost = _quadratic_value(Q, R, traj.states[:-1], traj.controls)
    return RiccatiSolution(S, K, cost, SolveStatus.SOLVED), traj


def riccati_adjoints(solution: RiccatiSolution, traj: Trajectory) -> np.ndarray:
    """Adjoints consistent with the value recursion: p_t = -S_{t+1} x_{t+1}."""
    return -np.einsum("tij,tj->ti", solution.value_matrices[1:], traj.states[1:])


def lq_pmp_solve(A, B, Q, R, horizon: int, x0) -> LqSolution:
    """Free-final-state LQ problem through its first-order system

        x_{t+1} = A x_t + B u_t,       x_0 = x0,
        p_{t-1} = A'p_t - Q x_t,       t = 1..N-1,
        R u_t   = B'p_t,               p_{N-1} = 0.

    With p_{N-1} = 0 given and no frequency rows the system has no border,
    and its block elimination from the last stage is the Riccati recursion
    from S_N = 0: u_t = K_t x_t and p_t = -S_{t+1} x_{t+1}.  So this is
    :func:`riccati_solve`'s trajectory and cost with
    :func:`riccati_adjoints`; SINGULAR when the recursion meets a singular
    pivot.  eta_c = 1 throughout: the free-endpoint problem has no abnormal
    extremals (a zero cost multiplier forces the whole adjoint sequence to
    zero).
    """
    ric, traj = riccati_solve(A, B, Q, R, horizon, x0)
    if traj is None:
        return LqSolution(None, None, np.zeros(0), float("nan"), SolveStatus.SINGULAR)
    return LqSolution(traj, riccati_adjoints(ric, traj), np.zeros(0), ric.cost, SolveStatus.SOLVED)


def _solve_transfer(A, B, Q, R, N, x0, xf, constraint, normality=None) -> LqSolution:
    A, B, Q, R, n, m, x0 = _as_lq(A, B, Q, R, N, x0)
    xf = np.asarray(xf, dtype=float).reshape(n)
    try:
        z, residual, consistent = kkt.lti_solve(A, B, Q, R, constraint, A @ x0, xf)
    except np.linalg.LinAlgError:  # a singular Riccati pivot
        return LqSolution(
            None, None, np.zeros(constraint.row_count), float("nan"), SolveStatus.SINGULAR,
            normality=normality,
        )
    unknowns = kkt.StackedUnknowns(z, n, m, N, constraint.row_count)
    nu = unknowns.nu().copy()
    if not consistent:
        return LqSolution(
            None, None, nu, float("nan"), SolveStatus.INFEASIBLE, residual, normality=normality
        )
    states = np.concatenate([x0[None], unknowns.states(), xf[None]])
    controls = unknowns.controls()
    return LqSolution(
        Trajectory(states, controls), unknowns.adjoints(), nu,
        _quadratic_value(Q, R, states[:-1], controls), SolveStatus.SOLVED, residual,
        normality=normality,
    )


def lq_transfer_solve(A, B, Q, R, horizon: int, x0, xf) -> LqSolution:
    """Fixed-endpoint LQ transfer: :func:`lq_transfer_freq_solve` with no
    frequency rows, so it raises :class:`AbnormalRegimeError` when n > m*N."""
    constraint = FrequencyConstraint(horizon, np.shape(B)[1])
    return lq_transfer_freq_solve(A, B, Q, R, horizon, x0, xf, constraint)


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
    A, B = _as_lq(A, B, Q, R, horizon, x0)[:2]  # shapes checked before the verdict
    verdict = classify_normality_freq(A, B, horizon, constraint)
    if verdict.classification is NormalityClass.ALL_ABNORMAL:
        raise AbnormalRegimeError(verdict)
    return _solve_transfer(A, B, Q, R, horizon, x0, xf, constraint, verdict)
