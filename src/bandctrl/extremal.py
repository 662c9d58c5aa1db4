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
The certificate reports each residual with its threshold.

The normality tests decide whether a fixed-endpoint LQ transfer admits an
abnormal lift: a nonzero (lambda, nu) with R_stack lambda = G nu, where the
reachability stack R_stack has rows B'(A')^(N-1-t) and G stacks the
transposed frequency blocks.  :func:`classify_normality_freq` compares
orthonormal bases of the two ranges: the rank comes from the controllability
matrix (no power past A^(n-1)), the basis of range(R_stack) from small QR
factorizations over chunks of stages in which A^k grows by a bounded factor,
and the verdict from the principal angles to the orthonormal frequency
columns, whose smallest sine is reported as the ``margin``.  No SVD has more
than n columns, and the verdict does not depend on the size of A^N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .problem import Box, Fixed, Free, ProblemSpec, Trajectory, _stage_terms
from .spectrum import FrequencyConstraint, _rank_cutoff, numerical_rank

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


# The reachability rows are orthonormalized in chunks over which they grow by
# at most this factor, so a chunk loses at most log10(IMPULSE_GROWTH) digits
# of the modes that its growing modes dominate.
IMPULSE_GROWTH = 1e3


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
    outside its stage set.  ``thresholds`` holds each threshold
    tol * (1 + scale), keyed by residual name; ``set_violation`` is judged
    against ``state_set_violation`` for the states and
    ``control_set_violation`` for the controls.
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
    thresholds: dict = field(default_factory=dict)

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
            "thresholds": dict(self.thresholds),
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
    against the state (or control) scale, x_N like every other state.
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
    endpoint_gap = max(_set_violation(spec.state_sets[t], states[t]) for t in (0, horizon))

    thresholds = {
        "state_dyn_residual": state_tol,
        "adjoint_dyn_residual": tol * (1 + adj_scale),
        "transversality_residual": tol * (1 + trans_scale),
        "hamiltonian_vi_worst": tol * (1 + vi_scale),
        "freq_residual": tol * (1 + freq_scale),
        "state_set_violation": state_tol,
        "control_set_violation": tol * (1 + _inf(controls)),
    }
    condition_passed = {
        "i": bool(nonneg),
        "ii": bool(nontrivial),
        "iii": bool(
            state_res <= state_tol
            and adj_res <= thresholds["adjoint_dyn_residual"]
            and interior_gap <= state_tol
        ),
        "iv": bool(
            trans_res <= thresholds["transversality_residual"] and endpoint_gap <= state_tol
        ),
        "v": bool(
            vi_worst <= thresholds["hamiltonian_vi_worst"]
            and control_gap <= thresholds["control_set_violation"]
        ),
        "vi": bool(freq_res <= thresholds["freq_residual"]),
    }
    return PmpCertificate(
        nonneg=nonneg,
        nontrivial=nontrivial,
        state_dyn_residual=state_res,
        adjoint_dyn_residual=adj_res,
        transversality_residual=trans_res,
        hamiltonian_vi_worst=float(vi_worst),
        freq_residual=freq_res,
        set_violation=max(interior_gap, endpoint_gap, control_gap),
        tol=tol,
        condition_passed=condition_passed,
        passed=all(condition_passed.values()),
        thresholds=thresholds,
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
    """A normality verdict with the ranks behind it.

    ``margin`` is the smallest sine of the principal angles between the
    ranges of the reachability stack and of the frequency rows: 1.0 when there
    are no angles (q = 0, or nothing is reachable), and 0.0 when the
    reachability factors overflow.  It is reproducible and always finite.
    """

    classification: NormalityClass
    rank_reachability: int
    rank_augmented: int
    dims: tuple[int, int, int, int]  # (n, m, horizon, q)
    margin: float

    def to_dict(self) -> dict:
        return {
            "classification": self.classification.value,
            "rank_reachability": self.rank_reachability,
            "rank_augmented": self.rank_augmented,
            "dims": list(self.dims),
            "margin": self.margin,
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


def _reachable_subspace(A, B, horizon: int):
    """Orthonormal basis V (n, r) of the states reachable in the horizon, the
    range of [B, AB, ..., A^(k-1) B] with k = min(N, n), and its rank r.

    No power above A^(n-1) enters, so the rank does not depend on the size of
    A^N.  The SVD is of an n x mk matrix.
    """
    n, m = B.shape
    blocks = controllability_matrix(A, B)[:, : m * min(horizon, n)]
    u, s, _ = np.linalg.svd(blocks, full_matrices=False)
    rank = int(np.count_nonzero(s >= _rank_cutoff(s[0], max(blocks.shape)))) if s.size else 0
    return u[:, :rank], rank


def _impulse_rows(A, B, horizon: int):
    """The rows B'(A')^k for k = 0..L-1, shape (L, m, n), and (A')^L.

    Recursive doubling: rows s..2s-1 are rows 0..s-1 times (A')^s, so log2(L)
    products replace L.  L is the horizon, or the first power of two at which
    the bound prod_i max(1, max|(A')^(2^i)|) on the growth of the rows would
    pass IMPULSE_GROWTH; (A')^L is None when L is the horizon.
    """
    n, m = B.shape
    rows = np.empty((horizon, m, n))
    rows[0] = B.T
    power, s, growth = A.T, 1, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        while s < horizon:
            growth *= max(1.0, abs(power).max())
            if not growth <= IMPULSE_GROWTH:
                return rows[:s], power
            k = min(s, horizon - s)
            np.matmul(rows[:k].reshape(k * m, n), power, out=rows[s : s + k].reshape(k * m, n))
            s += k
            if s < horizon:
                power = power.dot(power)
    return rows, None


def _reachability_basis(A, B, horizon: int):
    """Orthonormal basis (m N, r) of the range of the reachability stack
    [B'(A')^(N-1); ...; B'] (rows t m + i), and its rank r; the basis is
    None when the factors leave the floating-point range.

    When r < n the stack is first written in an orthonormal basis V of the
    reachable states: S V stacks B_r'(A_r')^k with A_r = V'AV, B_r = V'B, has
    full column rank r and the same range as S.  At full rank A and B are
    used as given (A_r = A, B_r = B): rounding A into another basis can break
    an exact invariant subspace, and a growing mode then spreads that error
    along the horizon (an exactly abnormal plant measured a margin of 1e-10
    in the SVD basis, 1e-16 in its own).  When A is unstable the columns of
    S are dominated by its growing modes, and one QR of S would lose the
    others: their share of a column falls like rho(A)^-N.  So the rows are
    taken in chunks of L stages, over which they grow by at most
    IMPULSE_GROWTH, from the last stage backwards: with T = Q R the part done,
    the next part is [T (A_r')^L; S_L] = diag(Q, I) [R (A_r')^L; S_L], where
    S_L is the first chunk, and one small QR of [R (A_r')^L; S_L] updates Q
    and R.  Q is the product of these factors, formed once at the end.  When
    A does not grow, L = N and the basis is one thin QR.
    """
    v, rank = _reachable_subspace(A, B, horizon)
    n, m = B.shape
    if rank == 0:
        return np.zeros((m * horizon, 0)), 0
    if rank < n:
        A, B = v.T @ A @ v, v.T @ B
    rows, power = _impulse_rows(A, B, horizon)
    L = len(rows)
    chunk = rows[::-1].reshape(L * m, rank)  # powers L-1 .. 0
    first = chunk[(L - horizon % L) % L * m :]  # the top chunk: powers r0-1 .. 0
    q_top, tri = np.linalg.qr(first)
    factors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range((horizon - 1) // L):
            done = len(tri)
            stacked = np.concatenate([tri.dot(power), chunk])
            if not np.isfinite(stacked).all():
                return None, rank
            q, tri = np.linalg.qr(stacked)
            factors.append((q, done))
    pieces = []
    acc = np.eye(len(tri))
    for q, done in reversed(factors):  # chunks from the last stage backwards
        pieces.append(q[done:].dot(acc))
        acc = q[:done].dot(acc)
    pieces.append(q_top.dot(acc))
    return np.concatenate(pieces[::-1]), rank


def _frequency_sines(stacked: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Sines of the principal angles between the range of ``basis`` (m N, r),
    orthonormal, and the range of G = F', with F = ``stacked`` (q, m N) the
    stacked frequency rows; r - q of them are 1 when r > q.

    The rows of F are orthogonal (F F' is diagonal), so dividing them by their
    norms gives an orthonormal basis G^ without a factorization.  The sines
    are the singular values of W - G^(G^'W), which stay accurate for small
    angles, where 1 - cos does not (Bjorck & Golub, Math. Comp. 1973).
    """
    norms = np.sqrt(np.einsum("ij,ij->i", stacked, stacked))[:, None]
    cos = stacked.dot(basis) / norms  # G^'W: its singular values are the cosines
    return np.linalg.svd(basis - stacked.T.dot(cos / norms), compute_uv=False)


def classify_normality_classic(A, B, horizon: int) -> NormalityVerdict:
    """Fixed-endpoint LQ transfer without frequency constraints: every optimal
    trajectory is normal when (A, B) is controllable and the horizon covers the
    state dimension; otherwise undetermined.

    ``rank_reachability`` is the rank of [B, AB, ..., A^(n-1) B], the one SVD
    (of an n x nm matrix); ``rank_augmented`` is the rank of the reachability
    stack over the horizon, which by Cayley-Hamilton is that of the first
    min(N, n) blocks, as in :func:`classify_normality_freq`.  With no
    frequency rows there are no angles, and the margin is 1.0.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    ctrl = controllability_matrix(A, B)
    rank_ctrl = numerical_rank(ctrl)
    rank_aug = rank_ctrl if horizon >= n else numerical_rank(ctrl[:, : m * horizon])
    cls = (
        NormalityClass.ALL_NORMAL
        if rank_ctrl == n and horizon >= n
        else NormalityClass.UNDETERMINED
    )
    return NormalityVerdict(cls, rank_ctrl, rank_aug, (n, m, horizon, 0), 1.0)


def classify_normality_freq(A, B, horizon: int, constraint: FrequencyConstraint) -> NormalityVerdict:
    """Fixed-endpoint LQ transfer with frequency constraints.

    An abnormal lift (lambda, nu) != 0 exists iff R_stack lambda = G nu, with
    R_stack the reachability stack [B'(A')^(N-1); ...; B'] and G the stacked
    transposed frequency blocks, that is iff R_stack is rank deficient or its
    range meets the range of G.  With q + n > m*N that is guaranteed (all
    trajectories abnormal).  Otherwise the test compares orthonormal bases
    of the two ranges: the verdict is ALL_NORMAL iff R_stack has rank n and
    the smallest sine of the principal angles between them (the ``margin``)
    is at least max(m N, n + q) * 1e-14 (floor 1e-12), the relative rank
    tolerance of :func:`bandctrl.spectrum.numerical_rank` applied to
    unit-norm bases; else UNDETERMINED.  ``rank_reachability`` is the rank of
    [B, AB, ..., A^(k-1) B], k = min(N, n), and ``rank_augmented`` is
    rank_reachability + q less the number of angles below that tolerance.

    The basis of the range of R_stack is built from orthonormal factors
    (:func:`_reachability_basis`), so the verdict does not depend on the size
    of A^N, and every SVD is of a matrix with at most n columns or rows.  When the
    factors overflow (rho(A)^N near 1e308) the verdict is UNDETERMINED
    (unless q + n > m*N), with margin 0.0 and rank_augmented 0 (not
    computed).
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
    dims = (n, m, horizon, q)
    over = q + n > m * horizon
    basis, rank_reach = _reachability_basis(A, B, horizon)
    if basis is None:
        cls = NormalityClass.ALL_ABNORMAL if over else NormalityClass.UNDETERMINED
        return NormalityVerdict(cls, rank_reach, 0, dims, 0.0)
    sines = _frequency_sines(constraint.stacked, basis) if q and rank_reach else np.ones(0)
    zero_angles = int(np.count_nonzero(sines < _rank_cutoff(1.0, max(m * horizon, n + q))))
    margin = float(sines.min()) if sines.size else 1.0
    if over:
        cls = NormalityClass.ALL_ABNORMAL
    elif rank_reach == n and zero_angles == 0:
        cls = NormalityClass.ALL_NORMAL
    else:
        cls = NormalityClass.UNDETERMINED
    return NormalityVerdict(cls, rank_reach, rank_reach + q - zero_angles, dims, margin)
