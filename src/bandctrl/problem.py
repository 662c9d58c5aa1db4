"""Problem containers: dynamics and cost models, constraint sets, validation.

A :class:`ProblemSpec` bundles the horizon, a dynamics model, a stage-cost
model, per-stage state and control sets, and the per-channel frequency
supports.  :func:`validate` checks consistency, builds the frequency
constraint and the stage sets as bound arrays, and either returns the
completed spec or raises with the complete list of violations.

Specs are immutable once validated and safe to share across threads.  The
frozen containers that hold arrays (models, sets, trajectories, specs)
compare and hash by identity, since arrays have no truth value.  User
supplied evaluators (drift, gain, cost callables) must be pure functions of
their arguments; solvers and verifiers call them at arbitrary points in any
order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from ._memo import LastValue, content_key
from .spectrum import FrequencyConstraint, SupportSpec, build_frequency_constraint

__all__ = [
    "LtiDynamics",
    "ControlAffineDynamics",
    "GeneralDynamics",
    "DynamicsModel",
    "QuadraticCost",
    "GeneralCost",
    "CostModel",
    "Free",
    "Fixed",
    "Box",
    "FREE",
    "Trajectory",
    "ProblemSpec",
    "SetArrays",
    "ProblemValidationError",
    "validate",
    "check_jacobians",
    "JacobianCheck",
    "general_wrap",
    "rollout",
    "trajectory_cost",
    "lti_spec",
    "control_affine_spec",
]


# the frequency constraint of the most recent (horizon, m, supports) of validate
_ROWS = LastValue()
# the matrix errors of the most recent dynamics and cost matrices of validate
_MATRICES = LastValue()


def _frozen_array(value, dtype=float) -> np.ndarray:
    arr = np.array(value, dtype=dtype)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# dynamics models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LtiDynamics:
    """x_{t+1} = A x_t + B u_t."""

    A: np.ndarray
    B: np.ndarray

    kind = "lti"

    def __post_init__(self):
        A = _frozen_array(self.A)
        B = _frozen_array(self.B)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.ndim != 2 or B.shape[0] != A.shape[0]:
            raise ValueError(f"B must be ({A.shape[0]}, m), got shape {B.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def step(self, t: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.A @ x + self.B @ u

    def jac_x(self, t: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.A

    def jac_u(self, t: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.B


def _returned(value, name: str, shape: tuple, t=None) -> np.ndarray:
    """``value``, returned by the model callable ``name``, as a float array of
    ``shape``; a ValueError naming the callable, the stage ``t`` when given,
    and the shape expected when it has another size or is not numeric."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # ragged or not numeric
        arr = None
    if arr is None or arr.size != math.prod(shape):
        got = "a ragged or non-numeric value" if arr is None else f"shape {arr.shape}"
        at = "" if t is None else f" at stage {t}"
        raise ValueError(f"{name} returned {got}{at}, expected shape {shape}")
    return arr.reshape(shape)


@dataclass(frozen=True)
class ControlAffineDynamics:
    """x_{t+1} = drift_t(x) + gain_t(x) @ u.

    ``drift(t, x)`` returns an n-vector, ``gain(t, x)`` an (n, m) matrix.
    ``drift_jac(t, x)`` is the (n, n) Jacobian of the drift; ``gain_jac(t, x)``
    is the (n, m, n) array with entry [i, j, l] = d gain[i, j] / d x[l], and
    may be omitted when the gain does not depend on the state.

    With ``vectorized`` set, the four callables evaluate many stages in one
    call: ``t`` is an int array of T stage indices and ``x`` the (T, n)
    array of their states, and they return (T, n), (T, n, m), (T, n, n) and
    (T, n, m, n) arrays, row k for stage ``t[k]``.  Batched evaluations
    (residuals, Jacobians, certificates) then call each callable once per
    evaluation; otherwise they call it at most once per stage, passing ``x``
    as a row view of the states array.  Either way a callable must not
    mutate the arrays passed in.  The per-stage methods :meth:`step`,
    :meth:`jac_x` and :meth:`jac_u` combine them for a single stage (a
    vectorized model is called with T = 1).  A return of the wrong size
    raises a ValueError naming the callable and the shape expected.
    """

    n: int
    m: int
    drift: Callable[[int, np.ndarray], np.ndarray]
    gain: Callable[[int, np.ndarray], np.ndarray]
    drift_jac: Callable[[int, np.ndarray], np.ndarray]
    gain_jac: Callable[[int, np.ndarray], np.ndarray] | None = None
    vectorized: bool = False

    kind = "control_affine"

    def _at(self, name: str, t: int, x: np.ndarray, shape: tuple) -> np.ndarray:
        """The callable ``name`` at the single stage (t, x), of ``shape``."""
        fun = getattr(self, name)
        if self.vectorized:
            return _returned(fun(np.array([t]), x[None]), name, (1, *shape))[0]
        return _returned(fun(t, x), name, shape, t)

    def step(self, t: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        n, m = self.n, self.m
        return self._at("drift", t, x, (n,)) + self._at("gain", t, x, (n, m)) @ u

    def jac_x(self, t: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        jac = self._at("drift_jac", t, x, (self.n, self.n))
        if self.gain_jac is not None:
            gj = self._at("gain_jac", t, x, (self.n, self.m, self.n))
            jac = jac + np.einsum("ijl,j->il", gj, u)
        return jac

    def jac_u(self, t: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self._at("gain", t, np.asarray(x, dtype=float), (self.n, self.m))


@dataclass(frozen=True)
class GeneralDynamics:
    """x_{t+1} = f(t, x, u) with user-supplied Jacobians."""

    n: int
    m: int
    f: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    f_jac_x: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    f_jac_u: Callable[[int, np.ndarray, np.ndarray], np.ndarray]

    kind = "general"

    def step(self, t, x, u):
        return np.asarray(self.f(t, np.asarray(x, float), np.asarray(u, float)), float).reshape(
            self.n
        )

    def jac_x(self, t, x, u):
        return np.asarray(
            self.f_jac_x(t, np.asarray(x, float), np.asarray(u, float)), float
        ).reshape(self.n, self.n)

    def jac_u(self, t, x, u):
        return np.asarray(
            self.f_jac_u(t, np.asarray(x, float), np.asarray(u, float)), float
        ).reshape(self.n, self.m)


DynamicsModel = Union[LtiDynamics, ControlAffineDynamics, GeneralDynamics]


def general_wrap(model: DynamicsModel) -> GeneralDynamics:
    """View any dynamics model through the general (t, x, u) interface."""
    return GeneralDynamics(model.n, model.m, model.step, model.jac_x, model.jac_u)


# ---------------------------------------------------------------------------
# cost models
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class QuadraticCost:
    """Stage cost 0.5 x'Qx + 0.5 u'Ru, Q positive semidefinite, R positive definite."""

    Q: np.ndarray
    R: np.ndarray

    kind = "quadratic"

    def __post_init__(self):
        object.__setattr__(self, "Q", _frozen_array(self.Q))
        object.__setattr__(self, "R", _frozen_array(self.R))

    def value(self, t: int, x: np.ndarray, u: np.ndarray) -> float:
        return 0.5 * float(x @ self.Q @ x) + 0.5 * float(u @ self.R @ u)

    def grad_x(self, t: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.Q @ x

    def grad_u(self, t: int, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.R @ u


@dataclass(frozen=True)
class GeneralCost:
    """Stage cost c(t, x, u) with user-supplied gradients."""

    fn: Callable[[int, np.ndarray, np.ndarray], float]
    fn_grad_x: Callable[[int, np.ndarray, np.ndarray], np.ndarray]
    fn_grad_u: Callable[[int, np.ndarray, np.ndarray], np.ndarray]

    kind = "general"

    def value(self, t, x, u) -> float:
        return float(self.fn(t, np.asarray(x, float), np.asarray(u, float)))

    def grad_x(self, t, x, u) -> np.ndarray:
        return np.asarray(self.fn_grad_x(t, np.asarray(x, float), np.asarray(u, float)), float)

    def grad_u(self, t, x, u) -> np.ndarray:
        return np.asarray(self.fn_grad_u(t, np.asarray(x, float), np.asarray(u, float)), float)


CostModel = Union[QuadraticCost, GeneralCost]


# ---------------------------------------------------------------------------
# constraint sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Free:
    """The whole space."""

    kind = "free"


@dataclass(frozen=True, eq=False)
class Fixed:
    """A single admissible point."""

    point: np.ndarray

    kind = "fixed"

    def __post_init__(self):
        object.__setattr__(self, "point", _frozen_array(np.atleast_1d(self.point)))


@dataclass(frozen=True, eq=False)
class Box:
    """Componentwise bounds lower <= v <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    kind = "box"

    def __post_init__(self):
        object.__setattr__(self, "lower", _frozen_array(np.atleast_1d(self.lower)))
        object.__setattr__(self, "upper", _frozen_array(np.atleast_1d(self.upper)))


FREE = Free()


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Paired state sequence x_0..x_N and control sequence u_0..u_{N-1}."""

    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        states = _frozen_array(np.atleast_2d(self.states))
        controls = _frozen_array(np.atleast_2d(self.controls))
        if states.shape[0] != controls.shape[0] + 1:
            raise ValueError(
                f"need one more state than controls, got {states.shape[0]} states "
                f"and {controls.shape[0]} controls"
            )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "controls", controls)

    @property
    def horizon(self) -> int:
        return self.controls.shape[0]

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def m(self) -> int:
        return self.controls.shape[1]


def rollout(dynamics: DynamicsModel, x0, controls) -> Trajectory:
    """Propagate the dynamics forward from x0 under the given controls."""
    u = np.asarray(controls, dtype=float)
    if u.ndim == 1:
        u = u.reshape(-1, dynamics.m)
    if u.ndim != 2 or u.shape[1] != dynamics.m:
        raise ValueError(f"controls must be (horizon, {dynamics.m}), got shape {u.shape}")
    states = np.zeros((u.shape[0] + 1, dynamics.n))
    states[0] = np.asarray(x0, dtype=float).reshape(dynamics.n)
    for t in range(u.shape[0]):
        states[t + 1] = dynamics.step(t, states[t], u[t])
    return Trajectory(states=states, controls=u)


def trajectory_cost(cost: CostModel, traj: Trajectory) -> float:
    """Total stage cost sum_{t=0}^{N-1} c_t(x_t, u_t)."""
    if isinstance(cost, QuadraticCost):
        return _quadratic_value(cost.Q, cost.R, traj.states[:-1], traj.controls)
    return float(
        sum(cost.value(t, traj.states[t], traj.controls[t]) for t in range(traj.horizon))
    )


def _quadratic_value(Q, R, x, u) -> float:
    """sum_t 0.5 x_t'Q x_t + 0.5 u_t'R u_t over the rows of ``x`` and ``u``."""
    return 0.5 * float(((x @ Q.T) * x).sum()) + 0.5 * float(((u @ R.T) * u).sum())


class _StageTerms(NamedTuple):
    """Model terms of every stage t = 0..N-1 of a trajectory (see :func:`_stage_terms`)."""

    f: np.ndarray | None  # (N, n) f_t(x_t, u_t)
    jx: np.ndarray  # (N, n, n) df_t/dx
    ju: np.ndarray  # (N, n, m) df_t/du
    cx: np.ndarray  # (N, n) dc_t/dx
    cu: np.ndarray  # (N, m) dc_t/du
    gx: np.ndarray | None  # (N, n, m, n) d gain_t/dx; control-affine with gain_jac only


def _stacked(dynamics: ControlAffineDynamics, name: str, x, t0: int, shape) -> np.ndarray:
    """The callable ``name`` of ``dynamics`` at stages t0..T-1 of the (T, n)
    states ``x``, stacked into one float (T - t0, *shape) array: one call with
    ``t = arange(t0, T)`` for a vectorized model, one call per stage else."""
    fun = getattr(dynamics, name)
    T = x.shape[0]
    if dynamics.vectorized:
        return _returned(fun(np.arange(t0, T), x[t0:]), name, (T - t0, *shape))
    values = [fun(t, x[t]) for t in range(t0, T)]
    try:
        return np.array(values, dtype=float).reshape(T - t0, *shape)
    except (TypeError, ValueError):  # name the first stage at fault
        return np.array([_returned(v, name, shape, t) for t, v in enumerate(values, t0)])


def _stage_terms(
    dynamics: DynamicsModel, cost: CostModel, states, controls, step=True, jx0=False
) -> _StageTerms:
    """Evaluate the dynamics and cost terms of all stages at once.

    ``states`` holds x_0..x_{N-1} (a trailing x_N is ignored), ``controls``
    u_0..u_{N-1}.  ``f`` is None when ``step`` is False.  The state
    derivatives of stage 0 are evaluated only when ``jx0`` is set; otherwise
    ``jx[0]`` (and ``gx[0]``) hold zero, since x_0 is fixed wherever they are
    left out.

    LTI dynamics and quadratic cost are evaluated as batched products, with
    ``jx``/``ju`` read-only broadcast views of A and B.  Control-affine
    dynamics call ``gain``, ``drift`` (when ``step``), ``drift_jac`` and
    ``gain_jac`` once per stage, or once in all for a vectorized model (the
    state derivatives with ``t = arange(t0, N)``, t0 = 0 only with
    ``jx0``), and form f = drift + gain u,
    jx = drift_jac + gain_jac u and ju = gain as batched products; the
    stacked ``gain_jac`` is kept as ``gx``.  Other models have their
    ``step``, ``jac_x`` and ``jac_u`` methods called once per stage.
    """
    N = controls.shape[0]
    x, u = states[:N], controls
    n, m = dynamics.n, dynamics.m
    gx = None
    if isinstance(dynamics, LtiDynamics):
        A, B = dynamics.A, dynamics.B
        f = x @ A.T + u @ B.T if step else None
        jx = np.broadcast_to(A, (N, n, n))
        ju = np.broadcast_to(B, (N, n, m))
    elif isinstance(dynamics, ControlAffineDynamics):
        t0 = 0 if jx0 else 1
        ju = _stacked(dynamics, "gain", x, 0, (n, m))
        f = None
        if step:
            f = _stacked(dynamics, "drift", x, 0, (n,)) + np.einsum("tij,tj->ti", ju, u)
        jx = np.zeros((N, n, n))
        jx[t0:] = _stacked(dynamics, "drift_jac", x, t0, (n, n))
        if dynamics.gain_jac is not None:
            gx = np.zeros((N, n, m, n))
            gx[t0:] = _stacked(dynamics, "gain_jac", x, t0, (n, m, n))
            jx[t0:] += np.einsum("tijl,tj->til", gx[t0:], u[t0:])
    else:
        f = None
        if step:
            f = np.array([dynamics.step(t, x[t], u[t]) for t in range(N)]).reshape(N, n)
        jx = np.zeros((N, n, n))
        for t in range(0 if jx0 else 1, N):
            jx[t] = dynamics.jac_x(t, x[t], u[t])
        ju = np.array([dynamics.jac_u(t, x[t], u[t]) for t in range(N)]).reshape(N, n, m)
    return _StageTerms(f, jx, ju, *_cost_gradients(cost, x, u), gx)


def _cost_gradients(cost: CostModel, x, u) -> tuple[np.ndarray, np.ndarray]:
    """dc_t/dx (N, n) and dc_t/du (N, m) at the (N, n) states ``x`` and the
    (N, m) controls ``u``: two products for a quadratic cost, else one call of
    ``grad_x`` and of ``grad_u`` per stage."""
    if isinstance(cost, QuadraticCost):
        return x @ cost.Q.T, u @ cost.R.T
    N, n = x.shape
    cx = np.array([cost.grad_x(t, x[t], u[t]) for t in range(N)]).reshape(N, n)
    cu = np.array([cost.grad_u(t, x[t], u[t]) for t in range(N)]).reshape(N, u.shape[1])
    return cx, cu


# ---------------------------------------------------------------------------
# problem spec and validation
# ---------------------------------------------------------------------------


class SetArrays(NamedTuple):
    """The stage sets of one kind (states or controls) as read-only arrays."""

    bounds: np.ndarray  # (2, stages, dim) lower and upper: +-inf free, the point twice fixed
    fixed: np.ndarray  # ascending indices of the Fixed stages
    boxes: np.ndarray  # ascending indices of the Box stages


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Full problem statement; run :func:`validate` before handing to solvers.

    A validated spec holds its stage sets as tuples and carries, besides its
    ``frequency_constraint``, those sets as arrays (``set_arrays``, see
    :meth:`sets_as_arrays`).  That field is not an argument: every spec
    built by ``ProblemSpec(...)`` or ``dataclasses.replace`` starts without
    it, so its arrays are read from its own sets, never copied from another
    spec.
    """

    horizon: int
    dynamics: DynamicsModel
    cost: CostModel
    state_sets: tuple
    control_sets: tuple
    supports: SupportSpec
    frequency_constraint: FrequencyConstraint | None = None
    set_arrays: tuple[SetArrays, SetArrays] | None = field(default=None, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.dynamics.n

    @property
    def m(self) -> int:
        return self.dynamics.m

    def sets_as_arrays(self) -> tuple[SetArrays, SetArrays]:
        """The state and the control sets as arrays: those :func:`validate`
        stored, or read from the sets now on a spec that it did not return.
        Fixed points and boxes of the right dimension enter them, a Fixed
        control set (which validate rejects) too; every other set counts as
        free."""
        if self.set_arrays is not None:
            return self.set_arrays
        return _read_sets("state_sets", self.state_sets, self.n), _read_sets(
            "control_sets", self.control_sets, self.m
        )


class ProblemValidationError(ValueError):
    """Raised by :func:`validate`; ``errors`` holds every violation found."""

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _check_matrix(name: str, mat: np.ndarray, errors: list[str], symmetric=False) -> bool:
    """Whether every entry of ``mat`` is finite, with an error when not; a
    symmetric one must also be symmetric to 1e-10 relative to its largest
    entry."""
    size = float(abs(mat).max(initial=0.0))  # NaN or inf when an entry is
    if not math.isfinite(size):
        errors.append(f"{name}: entries must be finite")
        return False
    if symmetric and mat.size and float(abs(mat - mat.T).max()) > 1e-10 * (1.0 + size):
        errors.append(f"{name}: matrix is not symmetric")
    return True


def _matrix_errors(dynamics, cost, n: int, m: int) -> tuple[str, ...]:
    """The violations of the matrices of LTI ``dynamics`` and of a quadratic
    ``cost``, for n states and m controls."""
    errors: list[str] = []
    if isinstance(dynamics, LtiDynamics):
        _check_matrix("dynamics.A", dynamics.A, errors)
        _check_matrix("dynamics.B", dynamics.B, errors)
    if isinstance(cost, QuadraticCost):
        Q, R = cost.Q, cost.R
        if Q.shape != (n, n):
            errors.append(f"cost.Q: expected shape ({n}, {n}), got {Q.shape}")
        elif _check_matrix("cost.Q", Q, errors, symmetric=True):
            if np.min(np.linalg.eigvalsh((Q + Q.T) / 2)) < -1e-10:
                errors.append("cost.Q: not positive semidefinite")
        if R.shape != (m, m):
            errors.append(f"cost.R: expected shape ({m}, {m}), got {R.shape}")
        elif _check_matrix("cost.R", R, errors, symmetric=True):
            if np.min(np.linalg.eigvalsh((R + R.T) / 2)) <= 0.0:
                errors.append("cost.R: R not positive definite")
    return tuple(errors)


def _read_sets(label: str, sets, dim: int, errors: list[str] | None = None) -> SetArrays:
    """The stage sets ``sets`` of ``label`` (state_sets or control_sets;
    Fixed is admissible among the states only) of vectors of dimension
    ``dim`` as read-only arrays.  One pass visits the sets that are not
    ``FREE``, found by one identity test per stage in a list comprehension.
    With ``errors`` given, every violation is appended to it."""
    bounds = np.full((2, len(sets), dim), np.inf)
    bounds[0] = -np.inf
    fixed_ok = label == "state_sets"
    fixed, boxes = [], []
    for t in [t for t, s in enumerate(sets) if s is not FREE]:
        s, name = sets[t], f"{label}[{t}]"
        if isinstance(s, Free):
            continue
        if isinstance(s, Fixed):
            if s.point.shape == (dim,):
                bounds[:, t] = s.point
                fixed.append(t)  # a Fixed control set too, reported below
            if errors is not None and fixed_ok:
                if s.point.shape != (dim,):
                    errors.append(f"{name}.point: expected dimension {dim}, got {s.point.shape}")
                for i in np.flatnonzero(~np.isfinite(s.point)):
                    errors.append(f"{name}.point[{i}]: must be finite, got {s.point[i]}")
                continue
        elif isinstance(s, Box):
            if s.lower.shape == s.upper.shape == (dim,):
                bounds[:, t] = s.lower, s.upper
                boxes.append(t)
            if errors is not None:
                _check_box(name, s, dim, errors)
            continue
        if errors is not None:
            errors.append(
                f"{name}: unknown set variant {type(s).__name__}"
                if fixed_ok
                else f"{name}: {type(s).__name__} is not an admissible control set"
            )
    bounds.setflags(write=False)
    return SetArrays(bounds, _stage_indices(fixed), _stage_indices(boxes))


def _check_box(name: str, box: Box, dim: int, errors: list[str]) -> None:
    """Box bounds of dimension ``dim``, none NaN, lower <= upper; an infinite
    bound is a half-space and allowed."""
    if box.lower.shape != (dim,) or box.upper.shape != (dim,):
        errors.append(f"{name}: box bounds must have dimension {dim}")
        return
    for side, bound in (("lower", box.lower), ("upper", box.upper)):
        for i in np.flatnonzero(np.isnan(bound)):
            errors.append(f"{name}: box {side}[{i}] is NaN")
    for i in np.flatnonzero(box.lower > box.upper):
        errors.append(f"{name}: box lower[{i}]={box.lower[i]} > upper[{i}]={box.upper[i]}")


_NO_STAGES = np.zeros(0, dtype=np.intp)
_NO_STAGES.setflags(write=False)


def _stage_indices(stages: list[int]) -> np.ndarray:
    if not stages:
        return _NO_STAGES
    out = np.array(stages, dtype=np.intp)
    out.setflags(write=False)
    return out


def validate(spec: ProblemSpec) -> ProblemSpec:
    """Check dimensions, finiteness, definiteness, and bounds; build the
    frequency constraint and the stage sets as arrays.

    Returns a completed copy, or raises :class:`ProblemValidationError`
    carrying the complete list of violations, each naming the offending stage
    and field.  The copy holds its stage sets as tuples and carries
    ``frequency_constraint`` and ``set_arrays``: for the states and for the
    controls, the (2, stages, dim) lower and upper bounds (+-inf on free
    stages, the point twice on fixed ones) and the indices of the Fixed and
    of the Box stages, all read-only.  They come from the one pass over the
    sets that also checks them, which skips the ``FREE`` stages.  The
    matrices A, B of LTI dynamics and Q, R of a quadratic cost must be
    finite; Q and R symmetric, Q semidefinite and R definite.

    The constraint depends on the horizon, the channel count and the supports
    alone, so the one built for the most recent of them is kept in one slot
    (:class:`bandctrl._memo.LastValue`), keyed by a snapshot of their content
    (each channel's set as a frozenset, with its type): validating specs that
    share them builds the rows once and shares one read-only constraint.  A
    set changed in place after a call misses, and a failed build is not
    kept, so every invalid spec is reported in full.  The errors of the
    matrices are kept the same way for the most recent matrices, keyed by
    their shapes and float64 bytes.
    """
    errors: list[str] = []
    n, m = spec.dynamics.n, spec.dynamics.m
    horizon = int(spec.horizon)

    if horizon < 1:
        errors.append(f"horizon: must be >= 1, got {spec.horizon}")

    dynamics, cost = spec.dynamics, spec.cost
    lti, quadratic = isinstance(dynamics, LtiDynamics), isinstance(cost, QuadraticCost)
    if lti or quadratic:
        matrices = ((dynamics.A, dynamics.B) if lti else ()) + ((cost.Q, cost.R) if quadratic else ())
        errors += _MATRICES.get(
            (n, m, lti, quadratic, content_key(*matrices)),
            lambda: _matrix_errors(dynamics, cost, n, m),
        )

    if len(spec.state_sets) != horizon + 1:
        errors.append(
            f"state_sets: expected {horizon + 1} entries, got {len(spec.state_sets)}"
        )
    state_arrays = _read_sets("state_sets", spec.state_sets, n, errors)
    if len(spec.control_sets) != horizon:
        errors.append(f"control_sets: expected {horizon} entries, got {len(spec.control_sets)}")
    control_arrays = _read_sets("control_sets", spec.control_sets, m, errors)

    constraint = None
    if spec.supports.channels != m:
        errors.append(
            f"supports: {spec.supports.channels} channels, expected {m}"
        )
    elif horizon >= 1:
        try:
            key = (horizon, m, tuple((type(s), frozenset(s)) for s in spec.supports.allowed))
            constraint = _ROWS.get(
                key, lambda: build_frequency_constraint(spec.supports, horizon, m)
            )
        except ValueError as exc:
            errors.append(f"supports: {exc}")

    if errors:
        raise ProblemValidationError(errors)
    spec = dataclasses.replace(
        spec,
        state_sets=tuple(spec.state_sets),
        control_sets=tuple(spec.control_sets),
        frequency_constraint=constraint,
    )
    object.__setattr__(spec, "set_arrays", (state_arrays, control_arrays))  # set before it is shared
    return spec


def _quadratic_spec(dynamics, Q, R, horizon: int, x0, xf, banned) -> ProblemSpec:
    n, m = dynamics.n, dynamics.m
    state_sets = [FREE] * (horizon + 1)
    if x0 is not None:
        state_sets[0] = Fixed(np.asarray(x0, dtype=float).reshape(n))
    if xf is not None:
        state_sets[horizon] = Fixed(np.asarray(xf, dtype=float).reshape(n))
    supports = (
        SupportSpec.from_banned(banned, horizon)
        if banned is not None
        else SupportSpec.all_allowed(horizon, m)
    )
    return validate(
        ProblemSpec(
            horizon=horizon,
            dynamics=dynamics,
            cost=QuadraticCost(Q, R),
            state_sets=tuple(state_sets),
            control_sets=(FREE,) * horizon,
            supports=supports,
        )
    )


def lti_spec(A, B, Q, R, horizon: int, x0=None, xf=None, banned=None) -> ProblemSpec:
    """Validated LTI/quadratic spec with fixed endpoints where given, free sets elsewhere."""
    return _quadratic_spec(LtiDynamics(A, B), Q, R, horizon, x0, xf, banned)


def control_affine_spec(
    dynamics: ControlAffineDynamics, Q, R, horizon: int, x0, xf, banned=None
) -> ProblemSpec:
    """Validated control-affine/quadratic spec with fixed endpoints."""
    return _quadratic_spec(dynamics, Q, R, horizon, x0, xf, banned)


# ---------------------------------------------------------------------------
# derivative checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JacobianCheck:
    """Max absolute deviation between supplied derivatives and central differences."""

    dynamics_jac_x: float
    dynamics_jac_u: float
    cost_grad_x: float
    cost_grad_u: float

    @property
    def worst(self) -> float:
        return max(self.dynamics_jac_x, self.dynamics_jac_u, self.cost_grad_x, self.cost_grad_u)


def _fd_jacobian(fun, v: np.ndarray) -> np.ndarray:
    """Central finite differences columnwise, step 1e-6 * (1 + |coordinate|):
    2 len(v) evaluations of ``fun``, whose output size the first pair gives.
    ``v`` must not be empty."""
    columns = []
    for j in range(v.size):
        h = 1e-6 * (1.0 + abs(v[j]))
        vp = v.copy()
        vm = v.copy()
        vp[j] += h
        vm[j] -= h
        columns.append((
            np.atleast_1d(np.asarray(fun(vp), dtype=float))
            - np.atleast_1d(np.asarray(fun(vm), dtype=float))
        ) / (2 * h))
    return np.stack(columns, axis=1)


def check_jacobians(dynamics: DynamicsModel, cost: CostModel, samples) -> JacobianCheck:
    """Compare supplied Jacobians/gradients against central finite differences
    at each sample (t, x, u); returns the max deviation per block."""
    dev_fx = dev_fu = dev_cx = dev_cu = 0.0
    for i, (t, x, u) in enumerate(samples):
        x = np.asarray(x, dtype=float).reshape(dynamics.n)
        u = np.asarray(u, dtype=float).reshape(dynamics.m)
        try:
            fd_fx = _fd_jacobian(lambda v: dynamics.step(t, v, u), x)
            fd_fu = _fd_jacobian(lambda v: dynamics.step(t, x, v), u)
            dev_fx = max(dev_fx, float(np.max(np.abs(fd_fx - dynamics.jac_x(t, x, u)))))
            dev_fu = max(dev_fu, float(np.max(np.abs(fd_fu - dynamics.jac_u(t, x, u)))))
            fd_cx = _fd_jacobian(lambda v: cost.value(t, v, u), x).ravel()
            fd_cu = _fd_jacobian(lambda v: cost.value(t, x, v), u).ravel()
            dev_cx = max(dev_cx, float(np.max(np.abs(fd_cx - cost.grad_x(t, x, u)))))
            dev_cu = max(dev_cu, float(np.max(np.abs(fd_cu - cost.grad_u(t, x, u)))))
        except Exception as exc:
            raise RuntimeError(f"evaluator failed at sample {i} (t={t})") from exc
    return JacobianCheck(dev_fx, dev_fu, dev_cx, dev_cu)
