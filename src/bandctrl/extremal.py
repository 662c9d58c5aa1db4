"""First-order optimality certificates and normal/abnormal classification.

The Hamiltonian for a candidate trajectory with multipliers (eta_c, nu, p) is

    H(p, t, x, u) = <p, f_t(x, u)> - eta_c * c_t(x, u) - <nu, F_t u>,

and an extremal lift additionally carries one state-set multiplier per stage,
constrained to the dual cone of the stage set at the trajectory point
(free set -> {0}, fixed point -> unconstrained, box -> signed entries on
active coordinates only).  :func:`verify_pmp` evaluates the six first-order
conditions numerically and reports per-condition residuals and a verdict.
It evaluates the model terms of every stage once, batched (matrix products
for LTI dynamics and quadratic cost), and computes each condition as an
array reduction over the stages; only box and fixed stage sets are checked
stage by stage.

The conditions are positively homogeneous in the joint multiplier vector, so
the verifier rescales the lift to unit max-norm before measuring residuals;
verdicts are therefore invariant under scaling the lift by any lambda > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .problem import Box, Fixed, Free, ProblemSpec, Trajectory, _stage_terms
from .spectrum import FrequencyConstraint, numerical_rank

__all__ = [
    "ExtremalLift",
    "PmpCertificate",
    "NormalityClass",
    "NormalityVerdict",
    "AbnormalRegimeError",
    "evaluate_hamiltonian",
    "hamiltonian_control_gradient",
    "adjoint_backward",
    "verify_pmp",
    "lift_from_solver",
    "classify_normality_classic",
    "classify_normality_freq",
    "controllability_matrix",
    "reachability_stack",
]


def _inf(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


@dataclass(frozen=True)
class ExtremalLift:
    """Multipliers accompanying a candidate trajectory.

    eta_c is the cost multiplier (0 for an abnormal lift, 1 for a normal one);
    nu weights the frequency constraint rows; adjoints holds p_0..p_{N-1};
    state_multipliers holds one covector per stage t = 0..N.
    """

    eta_c: float
    nu: np.ndarray
    adjoints: np.ndarray
    state_multipliers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nu", np.atleast_1d(np.asarray(self.nu, dtype=float)))
        object.__setattr__(self, "adjoints", np.atleast_2d(np.asarray(self.adjoints, dtype=float)))
        object.__setattr__(
            self, "state_multipliers", np.atleast_2d(np.asarray(self.state_multipliers, dtype=float))
        )


def _freq_blocks(spec: ProblemSpec) -> np.ndarray:
    fc = spec.frequency_constraint
    if fc is None:
        return np.zeros((spec.horizon, 0, spec.m))
    return fc.blocks


def evaluate_hamiltonian(eta_c, nu, p, t, x, u, spec: ProblemSpec) -> float:
    """<p, f_t(x,u)> - eta_c * c_t(x,u) - <nu, F_t u>."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    value = float(p @ spec.dynamics.step(t, x, u)) - float(eta_c) * spec.cost.value(t, x, u)
    blocks = _freq_blocks(spec)
    if nu.size:
        if nu.shape != (blocks.shape[1],):
            raise ValueError(f"nu has shape {nu.shape}, expected ({blocks.shape[1]},)")
        value -= float(nu @ (blocks[t] @ u))
    return value


def hamiltonian_control_gradient(eta_c, nu, p, t, x, u, spec: ProblemSpec) -> np.ndarray:
    """dH/du = (df/du)' p - eta_c * dc/du - F_t' nu."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    grad = spec.dynamics.jac_u(t, x, u).T @ np.asarray(p, dtype=float)
    grad = grad - float(eta_c) * spec.cost.grad_u(t, x, u)
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    if nu.size:
        grad = grad - _freq_blocks(spec)[t].T @ nu
    return grad


def adjoint_backward(
    traj: Trajectory,
    eta_c: float,
    nu,
    terminal_multiplier,
    state_multipliers,
    spec: ProblemSpec,
    dynamics_tol: float = 1e-8,
) -> np.ndarray:
    """Backward sweep of the adjoint recursion.

    p_{N-1} = -eta_x_N, then for t = N-1 .. 1

        p_{t-1} = (df_t/dx)' p_t - eta_c * dc_t/dx - eta_x_t.

    ``state_multipliers`` supplies the interior eta_x_t (rows 1..N-1 of an
    (N+1, n) array; None means all zero).  The frequency multiplier nu does
    not enter: the frequency term of the Hamiltonian is state-independent.
    The trajectory must satisfy the dynamics to within ``dynamics_tol``.
    """
    horizon, n = traj.horizon, traj.n
    terms = _stage_terms(spec.dynamics, spec.cost, traj.states, traj.controls)
    gap = _inf(traj.states[1:] - terms.f)
    if gap > dynamics_tol:
        raise ValueError(f"trajectory violates dynamics by {gap:.3e} (tol {dynamics_tol:.1e})")
    if state_multipliers is None:
        etax = np.zeros((horizon + 1, n))
    else:
        etax = np.atleast_2d(np.asarray(state_multipliers, dtype=float))
        if etax.shape != (horizon + 1, n):
            raise ValueError(f"state_multipliers must be ({horizon + 1}, {n}), got {etax.shape}")
    p = np.zeros((horizon, n))
    p[horizon - 1] = -np.asarray(terminal_multiplier, dtype=float).reshape(n)
    for t in range(horizon - 1, 0, -1):
        p[t - 1] = terms.jx[t].T @ p[t] - float(eta_c) * terms.cx[t] - etax[t]
    return p


def lift_from_solver(
    spec: ProblemSpec, traj: Trajectory, adjoints, nu=None, eta_c: float = 1.0
) -> ExtremalLift:
    """Package a solver's adjoints into a lift, filling the endpoint state
    multipliers from the transversality conditions and zeroing the interior."""
    p = np.atleast_2d(np.asarray(adjoints, dtype=float))
    nu = np.zeros(0) if nu is None else np.atleast_1d(np.asarray(nu, dtype=float))
    etax = np.zeros((traj.horizon + 1, traj.n))
    x0, u0 = traj.states[0], traj.controls[0]
    etax[0] = spec.dynamics.jac_x(0, x0, u0).T @ p[0] - float(eta_c) * spec.cost.grad_x(0, x0, u0)
    etax[traj.horizon] = -p[traj.horizon - 1]
    return ExtremalLift(eta_c=float(eta_c), nu=nu, adjoints=p, state_multipliers=etax)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PmpCertificate:
    """Per-condition residuals and verdicts for the six first-order conditions.

    Residuals are measured after rescaling the lift to unit max-norm; each
    residual r passes when r <= tol * (1 + scale) with scale the largest
    magnitude among the terms entering that condition.
    ``hamiltonian_vi_worst`` is the most positive directional derivative of the
    Hamiltonian along feasible control directions (nonpositive at an extremal).
    ``set_violation`` is the largest max-norm distance of a state or control
    outside its stage set.
    """

    nonneg: bool
    nontrivial: bool
    state_dyn_residual: float
    adjoint_dyn_residual: float
    transversality_residual: float
    hamiltonian_vi_worst: float
    freq_residual: float
    set_violation: float
    tol: float
    condition_passed: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "nonneg": self.nonneg,
            "nontrivial": self.nontrivial,
            "state_dyn_residual": self.state_dyn_residual,
            "adjoint_dyn_residual": self.adjoint_dyn_residual,
            "transversality_residual": self.transversality_residual,
            "hamiltonian_vi_worst": self.hamiltonian_vi_worst,
            "freq_residual": self.freq_residual,
            "set_violation": self.set_violation,
            "condition_passed": dict(self.condition_passed),
        }


def _dual_cone_violation(stage_set, point: np.ndarray, mult: np.ndarray, active_tol: float) -> float:
    """Distance-to-membership of a multiplier in the dual cone of the stage
    set's supporting cone at ``point``."""
    if isinstance(stage_set, Fixed):
        return 0.0
    if isinstance(stage_set, Box):
        worst = 0.0
        for i in range(mult.size):
            lo, hi = stage_set.lower[i], stage_set.upper[i]
            at_lo = abs(point[i] - lo) <= active_tol * (1.0 + abs(lo))
            at_hi = abs(point[i] - hi) <= active_tol * (1.0 + abs(hi))
            if at_lo and at_hi:
                continue
            if at_lo:
                worst = max(worst, max(mult[i], 0.0))
            elif at_hi:
                worst = max(worst, max(-mult[i], 0.0))
            else:
                worst = max(worst, abs(mult[i]))
        return worst
    # free set: dual cone is {0}
    return _inf(mult)


def _set_violation(stage_set, point: np.ndarray) -> float:
    """Max-norm distance by which ``point`` lies outside the stage set."""
    if isinstance(stage_set, Fixed):
        return _inf(point - stage_set.point)
    if isinstance(stage_set, Box):
        outside = np.maximum(stage_set.lower - point, point - stage_set.upper)
        return max(float(np.max(outside)), 0.0)
    return 0.0


def _rollout_drift(jx, ju, traj: Trajectory) -> float:
    """Rounding that an open-loop rollout can leave in x_N: one ulp of the
    terms of every dynamics row, carried to step N by the transition matrices
    J_{N-1} ... J_{t+1} (J_t = df_t/dx)."""
    def norms(a):  # induced inf-norm of each stage's matrix
        return np.abs(a).sum(axis=-1).max(axis=-1)

    horizon = traj.horizon
    phi = np.empty((horizon, traj.n, traj.n))
    phi[horizon - 1] = np.eye(traj.n)
    for t in range(horizon - 1, 0, -1):
        phi[t - 1] = phi[t].dot(jx[t])
    x_norm = np.abs(traj.states[:horizon]).max(axis=1)
    u_norm = np.abs(traj.controls).max(axis=1)
    drift = np.sum(norms(phi) * (norms(jx) * x_norm + norms(ju) * u_norm))
    return float(np.finfo(float).eps) * float(drift)


def _free_stages(stage_sets) -> np.ndarray:
    """Mask of the stage sets of type Free, built without a Python-level loop
    (any other set, a subclass of Free included, takes the per-stage checks)."""
    return np.fromiter(map(type, stage_sets), object, len(stage_sets)) == Free


def _feasible_directions(control_set, point: np.ndarray, active_tol: float):
    """Signed coordinate directions inside the supporting cone at ``point``.

    These generate the cone for free and box sets, so checking the variational
    inequality on them is equivalent to checking it on the whole cone.
    """
    m = point.size
    if isinstance(control_set, Box):
        dirs = []
        for j in range(m):
            lo, hi = control_set.lower[j], control_set.upper[j]
            if not abs(point[j] - hi) <= active_tol * (1.0 + abs(hi)):
                dirs.append((+1.0, j))
            if not abs(point[j] - lo) <= active_tol * (1.0 + abs(lo)):
                dirs.append((-1.0, j))
        return dirs
    return [(s, j) for j in range(m) for s in (+1.0, -1.0)]


def verify_pmp(
    traj: Trajectory,
    lift: ExtremalLift,
    spec: ProblemSpec,
    tol: float = 1e-7,
    active_tol: float = 1e-8,
) -> PmpCertificate:
    """Numerically certify the six first-order conditions for a candidate
    trajectory and lift.

    Checks, in order: (i) eta_c >= 0, (ii) the adjoints and the pair
    (eta_c, nu) do not all vanish, (iii) state and adjoint recursions, the
    interior states inside their stage sets, and dual-cone membership of the
    interior state multipliers, (iv) both transversality conditions, x_0 and
    x_N inside their stage sets, and endpoint multiplier membership, (v) the
    controls inside their stage sets and the Hamiltonian variational
    inequality on feasible coordinate directions (gradient norm for free
    control sets), (vi) the frequency residual.  Set membership is judged
    against the state (or control) scale; x_N may in addition carry the
    rounding of an open-loop rollout, amplified along the trajectory.
    """
    horizon, n, m = traj.horizon, traj.n, traj.m
    blocks = _freq_blocks(spec)
    q = blocks.shape[1]
    eta_c = float(lift.eta_c)
    nu = lift.nu if lift.nu.size else np.zeros(q)
    if nu.shape != (q,):
        raise ValueError(f"lift.nu has shape {nu.shape}, expected ({q},)")
    p = lift.adjoints
    etax = lift.state_multipliers
    if p.shape != (horizon, n) or etax.shape != (horizon + 1, n):
        raise ValueError("lift dimensions do not match the trajectory")

    nonneg = bool(eta_c >= 0.0)
    nontrivial = bool(max(abs(eta_c), _inf(nu), _inf(p)) > 0.0)

    # rescale the whole multiplier vector to unit max-norm: the conditions are
    # positively homogeneous in it, so verdicts become scale-invariant
    mu = max(abs(eta_c), _inf(nu), _inf(p), _inf(etax))
    if mu > 0.0:
        eta_s, nu_s, p_s, etax_s = eta_c / mu, nu / mu, p / mu, etax / mu
    else:
        eta_s, nu_s, p_s, etax_s = eta_c, nu, p, etax

    states, controls = traj.states, traj.controls
    terms = _stage_terms(spec.dynamics, spec.cost, states, controls, jx0=True)

    # (iii) state dynamics
    state_res = _inf(states[1:] - terms.f)
    state_scale = max(_inf(states), _inf(terms.f))

    # (iii) adjoint recursion, t = 1..N-1
    jxp = np.einsum("tij,ti->tj", terms.jx[1:], p_s[1:])
    cgrad = eta_s * terms.cx[1:]
    adj_res = _inf(p_s[:-1] - (jxp - cgrad - etax_s[1:horizon]))
    adj_scale = max(_inf(p_s), _inf(jxp), _inf(cgrad), _inf(etax_s[1:horizon]))

    # (iii) interior multipliers in their dual cones and states in their sets:
    # the dual cone of a free set is {0}; other sets are checked stage by stage
    free_states = _free_stages(spec.state_sets[1:horizon])
    adj_res = max(adj_res, _inf(etax_s[1:horizon][free_states]))
    interior_gap = 0.0
    for t in np.flatnonzero(~free_states) + 1:
        stage_set = spec.state_sets[t]
        adj_res = max(adj_res, _dual_cone_violation(stage_set, states[t], etax_s[t], active_tol))
        interior_gap = max(interior_gap, _set_violation(stage_set, states[t]))

    # (iv) transversality at both ends
    dh_dx0 = terms.jx[0].T @ p_s[0] - eta_s * terms.cx[0]
    trans_res = max(
        _inf(dh_dx0 - etax_s[0]),
        _inf(p_s[horizon - 1] + etax_s[horizon]),
        _dual_cone_violation(spec.state_sets[0], states[0], etax_s[0], active_tol),
        _dual_cone_violation(
            spec.state_sets[horizon], states[horizon], etax_s[horizon], active_tol
        ),
    )
    trans_scale = max(_inf(dh_dx0), _inf(etax_s[0]), _inf(p_s[horizon - 1]), _inf(etax_s[horizon]))

    # (v) Hamiltonian variational inequality: on a free control set every
    # signed coordinate direction is feasible, so its worst is the max-norm
    grad = np.einsum("tij,ti->tj", terms.ju, p_s) - eta_s * terms.cu
    if q:
        grad = grad - nu_s @ blocks
    vi_scale = _inf(grad)
    free_controls = _free_stages(spec.control_sets)
    vi_worst = _inf(grad[free_controls]) if free_controls.any() else -np.inf
    control_gap = 0.0
    for t in np.flatnonzero(~free_controls):
        stage_set = spec.control_sets[t]
        for sign, j in _feasible_directions(stage_set, controls[t], active_tol):
            vi_worst = max(vi_worst, sign * grad[t, j])
        control_gap = max(control_gap, _set_violation(stage_set, controls[t]))
    if not np.isfinite(vi_worst):
        vi_worst = 0.0  # every direction pinned: the inequality is vacuous

    # (vi) frequency residual
    freq_terms = np.einsum("tqm,tm->tq", blocks, controls) if q else np.zeros((horizon, 0))
    freq_res = _inf(freq_terms.sum(axis=0)) if q else 0.0
    freq_scale = _inf(freq_terms)

    # the endpoints in their stage sets
    state_tol = tol * (1 + state_scale)
    start_gap = _set_violation(spec.state_sets[0], states[0])
    end_gap = _set_violation(spec.state_sets[horizon], states[horizon])
    # x_N may also carry the rounding of its rollout (computed only when needed)
    end_ok = end_gap <= state_tol or end_gap <= state_tol + _rollout_drift(terms.jx, terms.ju, traj)

    condition_passed = {
        "i": bool(nonneg),
        "ii": bool(nontrivial),
        "iii": bool(
            state_res <= state_tol and adj_res <= tol * (1 + adj_scale) and interior_gap <= state_tol
        ),
        "iv": bool(trans_res <= tol * (1 + trans_scale) and start_gap <= state_tol and end_ok),
        "v": bool(
            vi_worst <= tol * (1 + vi_scale)
            and control_gap <= tol * (1 + _inf(controls))
        ),
        "vi": bool(freq_res <= tol * (1 + freq_scale)),
    }
    return PmpCertificate(
        nonneg=nonneg,
        nontrivial=nontrivial,
        state_dyn_residual=state_res,
        adjoint_dyn_residual=adj_res,
        transversality_residual=trans_res,
        hamiltonian_vi_worst=float(vi_worst),
        freq_residual=freq_res,
        set_violation=max(interior_gap, start_gap, end_gap, control_gap),
        tol=tol,
        condition_passed=condition_passed,
        passed=all(condition_passed.values()),
    )


# ---------------------------------------------------------------------------
# normality classification
# ---------------------------------------------------------------------------


class NormalityClass(Enum):
    ALL_NORMAL = "ALL_NORMAL"
    ALL_ABNORMAL = "ALL_ABNORMAL"
    UNDETERMINED = "UNDETERMINED"


@dataclass(frozen=True)
class NormalityVerdict:
    classification: NormalityClass
    rank_reachability: int
    rank_augmented: int
    dims: tuple[int, int, int, int]  # (n, m, horizon, q)

    def to_dict(self) -> dict:
        return {
            "classification": self.classification.value,
            "rank_reachability": self.rank_reachability,
            "rank_augmented": self.rank_augmented,
            "dims": list(self.dims),
        }


class AbnormalRegimeError(RuntimeError):
    """The requested solve is in an all-abnormal regime, where the first-order
    system with eta_c = 1 does not characterize optimizers."""

    def __init__(self, verdict: NormalityVerdict):
        self.verdict = verdict
        n, m, horizon, q = verdict.dims
        super().__init__(
            f"all extremals are abnormal: q + n = {q + n} > m*N = {m * horizon}; "
            "the normal-form solver does not apply"
        )


def controllability_matrix(A, B) -> np.ndarray:
    """[B, AB, ..., A^(n-1) B]."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    cols = [B]
    for _ in range(A.shape[0] - 1):
        cols.append(A @ cols[-1])
    return np.hstack(cols)


def reachability_stack(A, B, horizon: int) -> np.ndarray:
    """Row-stacked transposed reachability matrix over the horizon:
    [B'(A')^(N-1); ...; B'] of shape (m*N, n)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    powers = [np.eye(A.shape[0])]
    for _ in range(horizon - 1):
        powers.append(A @ powers[-1])
    return np.vstack([B.T @ powers[horizon - 1 - t].T for t in range(horizon)])


def classify_normality_classic(A, B, horizon: int) -> NormalityVerdict:
    """Fixed-endpoint LQ transfer without frequency constraints: every optimal
    trajectory is normal when (A, B) is controllable and the horizon covers the
    state dimension; otherwise undetermined."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    rank_ctrl = numerical_rank(controllability_matrix(A, B))
    rank_aug = numerical_rank(reachability_stack(A, B, horizon))
    cls = (
        NormalityClass.ALL_NORMAL
        if rank_ctrl == n and horizon >= n
        else NormalityClass.UNDETERMINED
    )
    return NormalityVerdict(cls, rank_ctrl, rank_aug, (n, m, horizon, 0))


def classify_normality_freq(A, B, horizon: int, constraint: FrequencyConstraint) -> NormalityVerdict:
    """Fixed-endpoint LQ transfer with frequency constraints.

    Stacks the transposed reachability blocks against the transposed frequency
    blocks: an abnormal lift exists iff [R_stack | -G] has a nontrivial null
    space.  With q + n > m*N that null space is guaranteed (all trajectories
    abnormal); with full column rank n + q it is trivial (all normal);
    otherwise undetermined.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    if constraint.horizon != horizon or constraint.channels != m:
        raise ValueError(
            f"constraint built for ({constraint.horizon}, {constraint.channels}) controls, "
            f"expected ({horizon}, {m})"
        )
    q = constraint.row_count
    if constraint.effective_rank != q:
        raise ValueError(
            "frequency constraint rows are dependent; rebuild with build_frequency_constraint"
        )
    r_stack = reachability_stack(A, B, horizon)
    gmat = np.vstack([constraint.blocks[t].T for t in range(horizon)]) if q else np.zeros((m * horizon, 0))
    augmented = np.hstack([r_stack, -gmat])
    rank_aug = numerical_rank(augmented)
    rank_reach = numerical_rank(r_stack)
    if q + n > m * horizon:
        cls = NormalityClass.ALL_ABNORMAL
    elif rank_aug == n + q:
        cls = NormalityClass.ALL_NORMAL
    else:
        cls = NormalityClass.UNDETERMINED
    return NormalityVerdict(cls, rank_reach, rank_aug, (n, m, horizon, q))
