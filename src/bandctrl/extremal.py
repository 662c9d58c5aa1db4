"""First-order optimality certificates and normal/abnormal classification.

The Hamiltonian for a candidate trajectory with multipliers (eta_c, nu, p) is

    H(p, t, x, u) = <p, f_t(x, u)> - eta_c * c_t(x, u) - <nu, F_t u>,

and an extremal lift additionally carries one state-set multiplier per stage,
constrained to the dual cone of the stage set at the trajectory point
(free set -> {0}, fixed point -> unconstrained, box -> signed entries on
active coordinates only).  :func:`verify_pmp` evaluates the six first-order
conditions numerically and reports per-condition residuals and a verdict.
It evaluates the model terms of every stage once, batched: for LTI
dynamics as 2-D products with A and B, with no (N, n, n) stage stack; for
other models over the stacks of :func:`bandctrl.problem._stage_terms`.  It
reads the stage sets as the arrays that :func:`bandctrl.problem.validate`
built once per spec (lower and upper bounds, +-inf on free stages and the
point twice on fixed ones, and the indices of the fixed and the box
stages), and computes each condition, set conditions included, as an array
reduction over the stages.  Without boxes the active bounds are those of
the fixed stages, so the dual-cone and the variational-inequality terms
need no comparison with the bounds, and with finite states only the fixed
stages can lie outside their sets.  The max-norms are two reductions
(:func:`bandctrl._norms.max_norms`), one before and one after the rescaling
below, and the norms of the rescaled multipliers are those of the given ones
divided by the scale.

The conditions are positively homogeneous in the joint multiplier vector, so
the verifier rescales the lift to unit max-norm before measuring residuals;
verdicts are therefore invariant under scaling the lift by any lambda > 0.
The certificate reports each residual with its threshold.

The normality tests decide whether a fixed-endpoint LQ transfer admits an
abnormal lift: a nonzero (lambda, nu) with R_stack lambda = G nu, where the
reachability stack R_stack has rows B'(A')^(N-1-t) and G stacks the
transposed frequency blocks.  :func:`classify_normality_freq` compares
orthonormal bases of the two ranges: the rank comes from the controllability
blocks (no power past A^(n-1)), the basis of range(R_stack) from small QR
factorizations over chunks of stages in which A^k grows by a bounded factor,
and the verdict from the principal angles to the orthonormal frequency
columns, whose smallest sine is reported as the ``margin``.  No SVD has more
than n columns, and the verdict does not depend on the size of A^N.  Without
frequency rows (q = 0) there are no angles and the rank alone decides: that
is :func:`classify_normality_classic`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._memo import LastValue, content_key
from ._norms import largest, max_norm, max_norms
from .problem import LtiDynamics, ProblemSpec, SetArrays, Trajectory, _cost_gradients, _stage_terms
from .spectrum import FrequencyConstraint, _rank_cutoff

__all__ = [
    "ExtremalLift",
    "PmpCertificate",
    "NormalityClass",
    "NormalityVerdict",
    "AbnormalRegimeError",
    "evaluate_hamiltonian",
    "adjoint_backward",
    "verify_pmp",
    "lift_from_solver",
    "classify_normality_classic",
    "classify_normality_freq",
]


# The reachability rows are orthonormalized in chunks over which they grow by
# at most this factor, so a chunk loses at most log10(IMPULSE_GROWTH) digits
# of the modes that its growing modes dominate.
IMPULSE_GROWTH = 1e3

# the verdict of the most recent plant of classify_normality_freq
_VERDICTS = LastValue()


@dataclass(frozen=True, eq=False)
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


def evaluate_hamiltonian(eta_c, nu, p, t, x, u, spec: ProblemSpec) -> float:
    """<p, f_t(x,u)> - eta_c * c_t(x,u) - <nu, F_t u>."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    value = float(p @ spec.dynamics.step(t, x, u)) - float(eta_c) * spec.cost.value(t, x, u)
    fc = spec.frequency_constraint or FrequencyConstraint(spec.horizon, spec.m)  # unvalidated
    if nu.size:
        if nu.shape != (fc.row_count,):
            raise ValueError(f"nu has shape {nu.shape}, expected ({fc.row_count},)")
        value -= float(fc.apply_transpose(nu)[t] @ u)
    return value


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
    gap = max_norm(traj.states[1:] - terms.f)
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


@dataclass(frozen=True, eq=False)
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


def _active(points: np.ndarray, sets: SetArrays, active_tol: float) -> np.ndarray:
    """(2, stages, dim) masks of the coordinates at their lower and at their
    upper bound.  An infinite bound is never active; both bounds of a fixed
    stage always are, since its multiplier is unconstrained."""
    bounds = sets.bounds
    active = np.isfinite(bounds) & (np.abs(points - bounds) <= active_tol * (1.0 + np.abs(bounds)))
    active[:, sets.fixed] = True
    return active


def _cone_gaps(points: np.ndarray, mult: np.ndarray, sets: SetArrays, active_tol: float):
    """Per coordinate, how far the multiplier ``mult`` lies outside the dual
    cone of its stage set at ``points``: its negative part at an active lower
    bound, its positive part at an active upper one, |mult| off both, 0 on a
    fixed stage.  Without boxes the active masks are the fixed stages."""
    if sets.boxes.size:
        active = _active(points, sets, active_tol)
        return np.maximum(np.where(active[0], 0.0, -mult), np.where(active[1], 0.0, mult))
    gaps = abs(mult)
    gaps[sets.fixed] = 0.0
    return gaps


def _slopes(points: np.ndarray, grad: np.ndarray, sets: SetArrays, active_tol: float):
    """Per coordinate, the largest slope <grad, d> over the feasible ones of
    the signed directions -e_j, +e_j into the stage set at ``points``
    (-inf when neither is: a fixed stage, or both bounds active)."""
    if sets.boxes.size:
        active = _active(points, sets, active_tol)
        return np.maximum(np.where(active[0], -np.inf, -grad), np.where(active[1], -np.inf, grad))
    slopes = abs(grad)
    slopes[sets.fixed] = -np.inf
    return slopes


def _set_gaps(points: np.ndarray, sets: SetArrays) -> np.ndarray:
    """Per coordinate, how far ``points`` lie outside their stage sets
    (negative inside, -inf on free stages, NaN at a NaN point)."""
    return np.maximum(sets.bounds[0] - points, points - sets.bounds[1])


def _worst(a: np.ndarray) -> float:
    """The largest entry of ``a``, at least +0.0."""
    return float(a.max(initial=0.0)) + 0.0


_NO_GAPS = np.zeros(0)


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

    A box coordinate is active at a finite bound within ``active_tol``
    (relative to 1 + |bound|); an infinite bound is never active, so
    ``Box([-inf], [inf])`` is certified like a free set.  A fixed stage's
    multiplier is unconstrained, and a fixed control set (which ``validate``
    rejects) leaves its stage no feasible direction.

    For LTI dynamics f, the adjoint products p_t'A and p_t'B and A'p_0 are
    2-D products with A and B, not einsums over their stage stacks, so the
    fields of an LTI certificate may differ from the stage-stack form in
    their last bits: by at most 1.2e-15 (1 + scale)(1 + |A| + |B|) in
    20000 random draws (max-row-sum norms), with the same verdicts.  Every
    other field, and every field for other models, is bit for bit that
    form.
    """
    horizon, n, m = traj.horizon, traj.n, traj.m
    if (horizon, n, m) != (spec.horizon, spec.n, spec.m):
        raise ValueError(
            f"trajectory has horizon, n, m = {horizon}, {n}, {m}; "
            f"spec has {spec.horizon}, {spec.n}, {spec.m}"
        )
    fc = spec.frequency_constraint or FrequencyConstraint(horizon, m)  # unvalidated
    q = fc.row_count
    eta_c = float(lift.eta_c)
    nu = lift.nu if lift.nu.size else np.zeros(q)
    if nu.shape != (q,):
        raise ValueError(f"lift.nu has shape {nu.shape}, expected ({q},)")
    p = lift.adjoints
    etax = lift.state_multipliers
    if p.shape != (horizon, n) or etax.shape != (horizon + 1, n):
        raise ValueError("lift dimensions do not match the trajectory")

    states, controls = traj.states, traj.controls
    x, dynamics = states[:horizon], spec.dynamics
    lti = isinstance(dynamics, LtiDynamics)
    if lti:
        A, B = dynamics.A, dynamics.B
        f = x @ A.T + controls @ B.T
        cx, cu = _cost_gradients(spec.cost, x, controls)
    else:
        terms = _stage_terms(dynamics, spec.cost, states, controls, jx0=True)
        f, cx, cu = terms.f, terms.cx, terms.cu
    state_sets, control_sets = spec.sets_as_arrays()

    # the sizes of the given arrays, and (iii) the state dynamics and (vi)
    # the frequency residual, against the largest term of its sum
    (
        nu_size, p_size, inner_size, first_size, last_size, p_last_size,
        state_res, states_size, f_size, controls_size, freq_res,
    ) = max_norms(
        nu, p, etax[1:horizon], etax[0], etax[horizon], p[horizon - 1],
        states[1:] - f, states, f, controls, fc.apply(controls),
    )
    state_scale = max(states_size, f_size)
    freq_scale = fc.term_scale(controls)
    nonneg = bool(eta_c >= 0.0)
    nontrivial = bool(max(abs(eta_c), nu_size, p_size) > 0.0)

    # rescale the whole multiplier vector to unit max-norm: the conditions are
    # positively homogeneous in it, so verdicts become scale-invariant.  The
    # division by unit > 0 rounds monotonically, so the max-norm of a scaled
    # array is its max-norm divided by unit, bit for bit.
    mu = largest(abs(eta_c), nu_size, p_size, inner_size, first_size, last_size)
    unit = mu if mu > 0.0 else 1.0
    eta_s, nu_s, p_s, etax_s = eta_c / unit, nu / unit, p / unit, etax / unit

    # the adjoint products (df_t/dx)'p_t for t = 1..N-1 and t = 0, and
    # (df_t/du)'p_t: 2-D products for LTI dynamics, else over the stage stacks
    if lti:
        jxp, jx0p, jup = p_s[1:] @ A, A.T @ p_s[0], p_s @ B
    else:
        jxp = np.einsum("tij,ti->tj", terms.jx[1:], p_s[1:])
        jx0p = terms.jx[0].T @ p_s[0]
        jup = np.einsum("tij,ti->tj", terms.ju, p_s)
    cgrad = eta_s * cx[1:]
    dh_dx0 = jx0p - eta_s * cx[0]
    # (v) the gradient of the Hamiltonian in u
    grad = jup - eta_s * cu - fc.apply_transpose(nu_s)
    # (iii), (iv) multipliers in the dual cones of their stage sets: no
    # negative entry off the lower bound, no positive entry off the upper one
    cone_gap = _cone_gaps(states, etax_s, state_sets, active_tol)
    # (iii), (iv) states in their stage sets.  Without boxes a state lies
    # |x - point| outside a fixed stage's set, and -inf (below the floor 0.0
    # of the violation) outside a free one, or NaN where x is not finite; so
    # with finite states only the fixed stages count, rows i..j-1 of ``gaps``
    # the interior ones.  validate admits no fixed control set, and with
    # neither those nor boxes every control direction is feasible.
    plain = (
        states_size < np.inf
        and controls_size < np.inf
        and not (state_sets.boxes.size or control_sets.boxes.size or control_sets.fixed.size)
    )
    gaps, i, j = _NO_GAPS, 0, 0
    if plain:
        stages = state_sets.fixed
        gaps = states[stages] - state_sets.bounds[0, stages]
        i, j = stages.searchsorted((1, horizon))
    # (iii) adjoint recursion, t = 1..N-1, (iv) transversality at both ends;
    # a cone gap is not negative, so its largest entry is its size
    (
        adj_res, jxp_size, cgrad_size, inner_cone, start_res, end_res, dh_size, end_cone, vi_scale,
        interior_gap, first_gap, last_gap,
    ) = max_norms(
        p_s[:-1] - (jxp - cgrad - etax_s[1:horizon]), jxp, cgrad, cone_gap[1:horizon],
        dh_dx0 - etax_s[0], p_s[horizon - 1] + etax_s[horizon], dh_dx0, cone_gap[[0, horizon]],
        grad, gaps[i:j], gaps[:i], gaps[j:],
    )
    adj_res = max(adj_res, inner_cone)
    adj_scale = max(p_size / unit, jxp_size, cgrad_size, inner_size / unit)
    trans_res = max(start_res, end_res, end_cone)
    trans_scale = max(dh_size, first_size / unit, p_last_size / unit, last_size / unit)

    # (v) Hamiltonian variational inequality on the signed coordinate
    # directions into the control set: -e_j unless u_j is at its lower bound,
    # +e_j unless it is at its upper bound
    if plain:
        endpoint_gap, control_gap, vi_worst = largest(first_gap, last_gap), 0.0, vi_scale
    else:
        set_gap = _set_gaps(states, state_sets)
        interior_gap = _worst(set_gap[1:horizon])
        endpoint_gap = _worst(set_gap[[0, horizon]])
        control_gap = _worst(_set_gaps(controls, control_sets))
        vi_worst = float(_slopes(controls, grad, control_sets, active_tol).max())
        # every direction pinned: the inequality is vacuous; a zero worst
        # reads +0.0, and a NaN gradient stays NaN
        vi_worst = 0.0 if vi_worst == -np.inf else vi_worst + 0.0

    state_tol = tol * (1 + state_scale)
    thresholds = {
        "state_dyn_residual": state_tol,
        "adjoint_dyn_residual": tol * (1 + adj_scale),
        "transversality_residual": tol * (1 + trans_scale),
        "hamiltonian_vi_worst": tol * (1 + vi_scale),
        "freq_residual": tol * (1 + freq_scale),
        "state_set_violation": state_tol,
        "control_set_violation": tol * (1 + controls_size),
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
        hamiltonian_vi_worst=vi_worst,
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


def _reachable_subspace(A, B, horizon: int):
    """Orthonormal basis V (n, r) of the states reachable in the horizon, the
    range of [B, AB, ..., A^(k-1) B] with k = min(N, n), and its rank r;
    V is None (and r 0) when those blocks leave the floating-point range.

    No power above A^(n-1) enters, so the rank does not depend on the size of
    A^N.  The SVD is of an n x mk matrix.
    """
    cols = [B]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(min(horizon, B.shape[0]) - 1):
            cols.append(A @ cols[-1])
    blocks = np.hstack(cols)
    if not np.isfinite(blocks).all():
        return None, 0
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
    None when the factors leave the floating-point range (and r is 0 when
    already the controllability blocks do).

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
    if v is None:
        return None, 0
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


def _frequency_sines(constraint: FrequencyConstraint, basis: np.ndarray) -> np.ndarray:
    """Sines of the principal angles between the range of ``basis`` (m N, r),
    orthonormal with rows t m + i, and the range of G = F', the stacked
    transposed frequency rows of ``constraint``; r - q of them are 1 when
    r > q.

    The rows of F are orthogonal (F F' is diagonal), so dividing them by their
    norms gives an orthonormal basis G^ without a factorization.  The sines
    are the singular values of W - G^(G^'W), which stay accurate for small
    angles, where 1 - cos does not (Bjorck & Golub, Math. Comp. 1973).
    """
    norms = constraint.row_norms[:, None]
    # G^'W: its singular values are the cosines
    cos = constraint.apply(basis.reshape(constraint.horizon, constraint.channels, -1)) / norms
    projected = constraint.apply_transpose(cos / norms).reshape(basis.shape)
    return np.linalg.svd(basis - projected, compute_uv=False)


def classify_normality_classic(A, B, horizon: int) -> NormalityVerdict:
    """Fixed-endpoint LQ transfer without frequency constraints: the q = 0
    case of :func:`classify_normality_freq`.

    ALL_ABNORMAL when n > m*N; else ALL_NORMAL when the states reachable in
    the horizon, the range of [B, AB, ..., A^(k-1) B] with k = min(N, n),
    are all n of them, and UNDETERMINED otherwise.  Both ranks are that rank,
    and with no frequency rows there are no angles: the margin is 1.0, or
    0.0 when those blocks overflow (the verdict is then UNDETERMINED, with
    both ranks 0, not computed).
    """
    return classify_normality_freq(A, B, horizon, FrequencyConstraint(horizon, np.shape(B)[1]))


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

    With q = 0 (:func:`classify_normality_classic`) there are no angles, and
    the rank alone decides.  Otherwise the basis of the range of R_stack is
    built from orthonormal factors (:func:`_reachability_basis`), so the
    verdict does not depend on the size of A^N, and every SVD is of a matrix
    with at most n columns or rows.  When the factors overflow (rho(A)^N
    near 1e308) the verdict is UNDETERMINED (unless q + n > m*N), with
    margin 0.0 and rank_augmented 0 (not computed), and rank_reachability 0
    too when already the controllability blocks overflow.

    The verdict depends on A, B and the frequency rows alone (the horizon is
    the constraint's), so the verdict of the most recent of them is kept in
    one slot (:class:`bandctrl._memo.LastValue`), keyed by the shapes and
    float64 bytes of A and B and the constraint's ``row_key``: classifying
    one plant for many endpoint pairs computes it once.  A hit returns the
    verdict a fresh classification gives.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    m = B.shape[1]
    if constraint.horizon != horizon or constraint.channels != m:
        raise ValueError(
            f"constraint built for ({constraint.horizon}, {constraint.channels}) controls, "
            f"expected ({horizon}, {m})"
        )
    return _VERDICTS.get(
        (content_key(A, B), constraint.row_key),
        lambda: _classify_freq(A, B, horizon, constraint),
    )


def _classify_freq(A, B, horizon: int, constraint: FrequencyConstraint) -> NormalityVerdict:
    """:func:`classify_normality_freq` without the memo, on checked input."""
    n, m = B.shape
    q = constraint.row_count
    dims = (n, m, horizon, q)
    over = q + n > m * horizon
    # without frequency rows there are no angles, and the rank alone decides
    basis, rank_reach = (_reachability_basis if q else _reachable_subspace)(A, B, horizon)
    if basis is None:
        cls = NormalityClass.ALL_ABNORMAL if over else NormalityClass.UNDETERMINED
        return NormalityVerdict(cls, rank_reach, 0, dims, 0.0)
    sines = _frequency_sines(constraint, basis) if q and rank_reach else np.ones(0)
    zero_angles = int(np.count_nonzero(sines < _rank_cutoff(1.0, max(m * horizon, n + q))))
    margin = float(sines.min()) if sines.size else 1.0
    if over:
        cls = NormalityClass.ALL_ABNORMAL
    elif rank_reach == n and zero_angles == 0:
        cls = NormalityClass.ALL_NORMAL
    else:
        cls = NormalityClass.UNDETERMINED
    return NormalityVerdict(cls, rank_reach, rank_reach + q - zero_angles, dims, margin)
