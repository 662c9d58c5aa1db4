"""Batch front end: read a problem file, solve, emit a structured result file.

Problem files are JSON documents::

    {
      "horizon": 8,
      "dynamics": {"kind": "lti", "A": [[1.0]], "B": [[1.0]]},   // or {"builtin": "scalar_integrator"}
      "cost": {"Q": [[0.0]], "R": [[1.0]]},
      "boundary": {"x0": [0.0], "xf": [4.0]},
      "banned_frequencies": [[2, 6]],
      "solver": "transfer_freq",
      "options": {"tolerance": 1e-7, "max_iterations": 60}
    }

Matrices are row-major nested lists of decimals.  Solvers: ``riccati`` and
``lq_pmp`` (free final state; one computation, the Riccati recursion, which
is also the block elimination of the first-order system), ``transfer_freq``
(fixed endpoints) and ``transfer`` (``transfer_freq`` without bans; one
computation), ``shooting`` (fixed endpoints, LTI or builtin control-affine
dynamics).  Every solver returns the same outcome to :func:`run`, and one
table (:data:`EXIT_CODES`) maps its status to the exit code: 0 ``SOLVED``
with a passing certificate, 2 ``INFEASIBLE``, 3 ``ABNORMAL_REGIME``, 4
``SINGULAR``, ``NOT_CONVERGED`` or a ``SOLVED`` whose certificate fails;
exit 1 is an input or spec error.  A result file is written in every case
except exit 1, with the normality verdict whenever the solver has one and
the status is not ``SINGULAR``.  Result files are compact
JSON (sorted keys, no whitespace, one trailing newline) and deterministic:
identical inputs produce identical bytes (floats serialize at shortest
round-trip precision, up to 17 significant digits).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .extremal import (
    AbnormalRegimeError,
    ExtremalLift,
    NormalityVerdict,
    lift_from_solver,
    verify_pmp,
)
from .lq import LqSolution, lq_pmp_solve, lq_transfer_freq_solve
from .problem import (
    Box,
    ControlAffineDynamics,
    Fixed,
    FREE,
    LtiDynamics,
    ProblemSpec,
    ProblemValidationError,
    QuadraticCost,
    Trajectory,
    trajectory_cost,
    validate,
)
from .shooting import NewtonOptions, SingularJacobianError, newton_solve
from .spectrum import SupportSpec, uncertainty_check

__all__ = ["run", "main", "parse_problem", "serialize_problem", "spectrum_report", "BUILTINS"]

# options that must be positive: (name, "number" or "integer")
POSITIVE_OPTIONS = (
    ("tolerance", "number"),
    ("newton_tolerance", "number"),
    ("max_iterations", "integer"),
)


def _affine_toy() -> ControlAffineDynamics:
    """x+ = x + (1 + 0.1 x) u, every stage in one call of each callable."""
    return ControlAffineDynamics(
        n=1,
        m=1,
        drift=lambda t, x: x,
        gain=lambda t, x: (1.0 + 0.1 * x)[:, :, None],
        drift_jac=lambda t, x: np.ones((len(t), 1, 1)),
        gain_jac=lambda t, x: np.full((len(t), 1, 1, 1), 0.1),
        vectorized=True,
    )


BUILTINS = {
    "scalar_integrator": lambda: LtiDynamics([[1.0]], [[1.0]]),
    "double_integrator": lambda: LtiDynamics([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]]),
    "affine_toy": _affine_toy,
}


@dataclass
class CliProblem:
    spec: ProblemSpec
    solver: str
    x0: np.ndarray
    xf: np.ndarray | None
    options: dict
    dynamics_doc: dict
    banned: list


def _float_array(value) -> np.ndarray:
    """A JSON number or nested lists of them as a float array, else ValueError."""
    nodes = [value]
    for node in nodes:  # grows as the lists are opened
        if type(node) is list:
            nodes += node
        elif type(node) not in (int, float):  # a bool is not a number here
            raise ValueError(f"{node!r} is not a number")
    return np.array(value, dtype=float)


def _numeric(value, label, what, errors):
    """``value`` as a float array, or None with an error when it is not
    numeric or has a non-finite entry."""
    try:
        arr = _float_array(value)
    except (ValueError, OverflowError):
        errors.append(f"{label}: not a numeric {what}")
        return None
    if not np.all(np.isfinite(arr)):
        errors.append(f"{label}: entries must be finite")
        return None
    return arr


def _matrix(doc, key, errors, field):
    value = doc.get(key)
    if value is None:
        errors.append(f"{field}.{key}: missing")
        return None
    return _numeric(value, f"{field}.{key}", "matrix", errors)


def _parse_set(entry, label, errors):
    """One per-stage set entry: "free", {"kind": "fixed", "point": ...}, or
    {"kind": "box", "lower": ..., "upper": ...}."""
    if entry is None or entry == "free":
        return FREE
    if not isinstance(entry, dict):
        errors.append(f"{label}: expected \"free\" or an object with a kind")
        return FREE
    kind = entry.get("kind", "free")
    try:
        if kind == "free":
            return FREE
        if kind == "fixed":
            return Fixed(_float_array(entry["point"]).ravel())
        if kind == "box":
            return Box(_float_array(entry["lower"]).ravel(), _float_array(entry["upper"]).ravel())
    except (KeyError, ValueError, OverflowError) as exc:
        errors.append(f"{label}: {exc}")
        return FREE
    errors.append(f"{label}: unknown kind {kind!r}")
    return FREE


def parse_problem(doc: dict) -> CliProblem:
    """Turn a problem document into a validated spec plus dispatch info.

    Raises :class:`ProblemValidationError` carrying every field-anchored error
    found, not just the first.
    """
    errors: list[str] = []

    horizon = doc.get("horizon")
    if isinstance(horizon, bool) or not isinstance(horizon, int) or horizon < 1:
        errors.append(f"horizon: must be a positive integer, got {horizon!r}")
        horizon = 1

    dyn_doc = doc.get("dynamics")
    dynamics = None
    if not isinstance(dyn_doc, dict):
        errors.append("dynamics: missing or not an object")
        dyn_doc = {}
    elif "builtin" in dyn_doc:
        name = dyn_doc["builtin"]
        if not isinstance(name, str):
            errors.append(f"dynamics.builtin: must be a string, got {name!r}")
        elif name in BUILTINS:
            dynamics = BUILTINS[name]()
        else:
            errors.append(
                f"dynamics.builtin: unknown toy {name!r}, expected one of {sorted(BUILTINS)}"
            )
    else:
        kind = dyn_doc.get("kind", "lti")
        if kind == "lti":
            A = _matrix(dyn_doc, "A", errors, "dynamics")
            B = _matrix(dyn_doc, "B", errors, "dynamics")
            if A is not None and B is not None:
                try:
                    dynamics = LtiDynamics(A, B)
                except ValueError as exc:
                    errors.append(f"dynamics: {exc}")
        elif kind == "control_affine":
            errors.append(
                "dynamics.kind: control_affine dynamics in a problem file must use a "
                f"builtin toy (one of {sorted(BUILTINS)})"
            )
        else:
            errors.append(f"dynamics.kind: unknown kind {kind!r}")

    cost_doc = doc.get("cost")
    cost = None
    if not isinstance(cost_doc, dict):
        errors.append("cost: missing or not an object")
    else:
        Q = _matrix(cost_doc, "Q", errors, "cost")
        R = _matrix(cost_doc, "R", errors, "cost")
        if Q is not None and R is not None:
            cost = QuadraticCost(Q, R)

    boundary = doc.get("boundary")
    x0 = xf = None
    if not isinstance(boundary, dict) or boundary.get("x0") is None:
        errors.append("boundary.x0: missing")
    else:
        x0 = _numeric(boundary["x0"], "boundary.x0", "vector", errors)
        x0 = None if x0 is None else x0.ravel()
        xf_doc = boundary.get("xf")
        if xf_doc is not None and xf_doc != "free":
            xf = _numeric(xf_doc, "boundary.xf", "vector", errors)
            xf = None if xf is None else xf.ravel()

    solver = doc.get("solver")
    if solver not in SOLVERS:
        errors.append(f"solver: expected one of {SOLVERS}, got {solver!r}")
    banned = doc.get("banned_frequencies") or []
    if not isinstance(banned, (list, tuple)) or not all(
        isinstance(chan, (list, tuple)) for chan in banned
    ):
        errors.append("banned_frequencies: expected one integer list per channel")
        banned = []
    for k, chan in enumerate(banned):
        for i, xi in enumerate(chan):
            if isinstance(xi, bool) or not isinstance(xi, int):
                errors.append(
                    f"banned_frequencies[{k}][{i}]: expected an integer frequency index, got {xi!r}"
                )
    if solver in ("riccati", "lq_pmp", "transfer") and any(len(chan) for chan in banned):
        errors.append(
            f"banned_frequencies: solver {solver!r} does not support frequency "
            "constraints, use transfer_freq or shooting"
        )
    if solver in ("transfer", "transfer_freq", "shooting") and xf is None:
        errors.append(f"boundary.xf: required by solver {solver!r}")
    if solver in ("riccati", "lq_pmp") and xf is not None:
        errors.append(f"boundary.xf: must be absent or \"free\" for solver {solver!r}")

    options = doc.get("options") or {}
    if not isinstance(options, dict):
        errors.append("options: not an object")
        options = {}
    for key, kind in POSITIVE_OPTIONS:
        value = options.get(key, 1)
        types = (int,) if kind == "integer" else (int, float)
        if isinstance(value, bool) or not isinstance(value, types) or not 0 < value < math.inf:
            errors.append(f"options.{key}: expected a positive {kind}, got {value!r}")

    if errors or dynamics is None or cost is None or x0 is None:
        raise ProblemValidationError(errors or ["problem document incomplete"])

    n, m = dynamics.n, dynamics.m
    if x0.size != n:
        raise ProblemValidationError([f"boundary.x0: expected dimension {n}, got {x0.size}"])
    if xf is not None and xf.size != n:
        raise ProblemValidationError([f"boundary.xf: expected dimension {n}, got {xf.size}"])
    if solver != "shooting" and not isinstance(dynamics, LtiDynamics):
        raise ProblemValidationError([f"dynamics: solver {solver!r} requires LTI dynamics"])

    set_errors: list[str] = []
    state_doc = doc.get("state_sets")
    if state_doc is not None:
        if not isinstance(state_doc, list) or len(state_doc) != horizon + 1:
            raise ProblemValidationError(
                [f"state_sets: expected a list of {horizon + 1} entries"]
            )
        state_sets = [
            _parse_set(entry, f"state_sets[{t}]", set_errors) for t, entry in enumerate(state_doc)
        ]
    else:
        state_sets = [FREE] * (horizon + 1)
    state_sets[0] = Fixed(x0)  # boundary block is authoritative at the endpoints
    if xf is not None:
        state_sets[horizon] = Fixed(xf)

    control_doc = doc.get("control_sets")
    if control_doc is not None:
        if not isinstance(control_doc, list) or len(control_doc) != horizon:
            raise ProblemValidationError([f"control_sets: expected a list of {horizon} entries"])
        control_sets = [
            _parse_set(entry, f"control_sets[{t}]", set_errors)
            for t, entry in enumerate(control_doc)
        ]
    else:
        control_sets = [FREE] * horizon
    if set_errors:
        raise ProblemValidationError(set_errors)
    if banned and len(banned) != m:
        raise ProblemValidationError(
            [f"banned_frequencies: expected {m} channel lists, got {len(banned)}"]
        )
    try:
        supports = (
            SupportSpec.from_banned(banned, horizon)
            if banned
            else SupportSpec.all_allowed(horizon, m)
        )
    except ValueError as exc:
        raise ProblemValidationError([f"banned_frequencies: {exc}"])

    spec = validate(
        ProblemSpec(
            horizon=horizon,
            dynamics=dynamics,
            cost=cost,
            state_sets=tuple(state_sets),
            control_sets=tuple(control_sets),
            supports=supports,
        )
    )
    # every shipped solver works with free control sets and free interior
    # states; validate admits no control set but Free and Box
    state_arrays, control_arrays = spec.set_arrays
    constrained = sorted(state_arrays.fixed.tolist() + state_arrays.boxes.tolist())
    dispatch_errors = [
        f"control_sets[{t}]: solver {solver!r} requires free control sets"
        for t in control_arrays.boxes.tolist()
    ] + [
        f"state_sets[{t}]: solver {solver!r} requires free interior state sets"
        for t in constrained
        if 0 < t < horizon
    ]
    if dispatch_errors:
        raise ProblemValidationError(dispatch_errors)
    dynamics_doc = dict(dyn_doc)
    return CliProblem(
        spec=spec,
        solver=solver,
        x0=x0,
        xf=xf,
        options=options,
        dynamics_doc=dynamics_doc,
        banned=[list(map(int, chan)) for chan in banned] if banned else [[] for _ in range(m)],
    )


def serialize_problem(problem: CliProblem) -> dict:
    """Canonical problem document reproducing the parsed problem."""
    spec = problem.spec
    if "builtin" in problem.dynamics_doc:
        dyn_doc = {"builtin": problem.dynamics_doc["builtin"]}
    else:
        dyn_doc = {
            "kind": "lti",
            "A": spec.dynamics.A.tolist(),
            "B": spec.dynamics.B.tolist(),
        }
    boundary = {"x0": problem.x0.tolist()}
    if problem.xf is not None:
        boundary["xf"] = problem.xf.tolist()
    return {
        "horizon": spec.horizon,
        "dynamics": dyn_doc,
        "cost": {"Q": spec.cost.Q.tolist(), "R": spec.cost.R.tolist()},
        "boundary": boundary,
        "banned_frequencies": [list(chan) for chan in problem.banned],
        "solver": problem.solver,
        "options": dict(problem.options),
    }


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply ``key=value`` overrides; keys are dotted paths, values parse as
    JSON when possible and fall back to strings."""
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            raise ProblemValidationError([f"override {item!r}: expected key=value"])
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ProblemValidationError([f"override {key!r}: {part!r} is not an object"])
        node[parts[-1]] = value
    return doc


def spectrum_report(result: dict) -> list[dict]:
    """Plot-ready rows (channel, frequency, magnitude, banned) from a result."""
    rows = []
    for chan in result["spectra"]:
        for xi, (mag, banned) in enumerate(zip(chan["magnitude"], chan["banned"])):
            rows.append(
                {
                    "channel": chan["channel"],
                    "frequency": xi,
                    "magnitude": mag,
                    "banned": banned,
                }
            )
    return rows


def _spectra_doc(controls: np.ndarray, banned_sets) -> list[dict]:
    comp = np.fft.fft(controls, axis=0, norm="ortho").T  # (channel, frequency)
    banned = np.zeros(comp.shape, dtype=bool)
    for k, chan in enumerate(banned_sets):
        banned[k, list(chan)] = True
    return [
        {"channel": k, "magnitude": mag, "phase": phase, "banned": ban}
        for k, (mag, phase, ban) in enumerate(
            zip(np.abs(comp).tolist(), np.angle(comp).tolist(), banned.tolist())
        )
    ]


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_result(path: str, doc: dict) -> None:
    # json.dumps without indent runs the C encoder; json.dump and indent never do
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_json_default)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


@dataclass(frozen=True, eq=False)
class _Outcome:
    """What every solver returns to :func:`run`: a status of
    :data:`EXIT_CODES`, the solution with its multipliers lifted (SOLVED
    only), and the normality verdict when the solver has one."""

    status: str
    trajectory: Trajectory | None = None
    lift: ExtremalLift | None = None
    cost: float | None = None
    verdict: NormalityVerdict | None = None


def _lq_outcome(sol: LqSolution, spec: ProblemSpec) -> _Outcome:
    traj = sol.trajectory  # None unless SOLVED
    lift = None if traj is None else lift_from_solver(spec, traj, sol.adjoints, sol.nu)
    return _Outcome(sol.status.value, traj, lift, sol.cost, sol.normality)


def _lq_data(spec: ProblemSpec):
    return spec.dynamics.A, spec.dynamics.B, spec.cost.Q, spec.cost.R, spec.horizon


def _free_end(problem: CliProblem, diagnostics: dict) -> _Outcome:
    # riccati and lq_pmp: lq_pmp_solve returns riccati_solve's solution
    return _lq_outcome(lq_pmp_solve(*_lq_data(problem.spec), problem.x0), problem.spec)


def _transfer_freq(problem: CliProblem, diagnostics: dict) -> _Outcome:
    spec = problem.spec
    sol = lq_transfer_freq_solve(*_lq_data(spec), problem.x0, problem.xf, spec.frequency_constraint)
    diagnostics["ls_residual"] = sol.ls_residual
    return _lq_outcome(sol, spec)


def _shooting(problem: CliProblem, diagnostics: dict) -> _Outcome:
    spec = problem.spec
    opts = NewtonOptions(
        max_iterations=int(problem.options.get("max_iterations", 60)),
        tolerance=float(problem.options.get("newton_tolerance", 1e-10)),
    )
    try:
        shot = newton_solve(spec, problem.x0, problem.xf, opts=opts)
    except SingularJacobianError as exc:
        diagnostics["singular_jacobian"] = {
            key: getattr(exc, key)
            for key in ("iteration", "rank", "size", "residual", "stage", "pivot")
        }
        return _Outcome("SINGULAR")
    diagnostics["iterations"] = shot.iterations
    diagnostics["final_residual"] = shot.final_residual
    diagnostics["init_warning"] = shot.init_warning
    diagnostics["trace"] = [list(step) for step in shot.trace]
    if not shot.converged:
        return _Outcome("NOT_CONVERGED", verdict=shot.normality)
    traj = shot.trajectory
    cost = trajectory_cost(spec.cost, traj)
    return _Outcome("SOLVED", traj, shot.lift, cost, shot.normality)


# transfer is transfer_freq without bans: parse_problem refuses bans for it
SOLVE = {"riccati": _free_end, "lq_pmp": _free_end, "transfer": _transfer_freq,
         "transfer_freq": _transfer_freq, "shooting": _shooting}
SOLVERS = tuple(SOLVE)
# a SOLVED result whose certificate fails exits 4 as well
EXIT_CODES = {"SOLVED": 0, "INFEASIBLE": 2, "ABNORMAL_REGIME": 3, "SINGULAR": 4, "NOT_CONVERGED": 4}


def run(input_path: str, output_path: str, overrides=(), quiet: bool = True) -> int:
    """Solve the problem file and write the result file; returns the exit code."""
    try:
        with open(input_path, "rb") as handle:
            raw = handle.read()
        doc = json.loads(raw.decode("utf-8"))
    except FileNotFoundError:
        print(f"error: input file not found: {input_path}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: cannot parse {input_path}: {exc}", file=sys.stderr)
        return 1
    if not isinstance(doc, dict):
        kind = type(doc).__name__
        print(f"error: problem document: expected a JSON object, got {kind}", file=sys.stderr)
        return 1

    try:
        doc = apply_overrides(doc, overrides)
        problem = parse_problem(doc)
    except ProblemValidationError as exc:
        for err in exc.errors:
            print(f"error: {err}", file=sys.stderr)
        return 1

    spec, solver = problem.spec, problem.solver
    diagnostics = {"overrides": list(overrides)}
    try:
        outcome = SOLVE[solver](problem, diagnostics)
    except AbnormalRegimeError as exc:
        outcome = _Outcome("ABNORMAL_REGIME", verdict=exc.verdict)
    status, traj, verdict = outcome.status, outcome.trajectory, outcome.verdict
    code = EXIT_CODES[status]
    result = {
        "tool": {"name": "bandctrl", "version": __version__},
        "input_digest": "sha256:" + hashlib.sha256(raw).hexdigest(),
        "problem": serialize_problem(problem),
        "solver": solver,
        "status": status,
        "normality": None if verdict is None or status == "SINGULAR" else verdict.to_dict(),
        "diagnostics": diagnostics,
        # the solution's fields, filled when SOLVED
        **dict.fromkeys(
            ("cost", "trajectory", "multipliers", "spectra", "certificate", "uncertainty")
        ),
    }
    if status == "SOLVED":
        lift = outcome.lift
        cert = verify_pmp(traj, lift, spec, tol=float(problem.options.get("tolerance", 1e-7)))
        code = 0 if cert.passed else 4
        result.update(
            cost=outcome.cost,
            trajectory={"states": traj.states.tolist(), "controls": traj.controls.tolist()},
            multipliers={"adjoints": lift.adjoints.tolist(), "nu": lift.nu.tolist()},
            spectra=_spectra_doc(traj.controls, spec.frequency_constraint.banned()),
            certificate=cert.to_dict(),
            uncertainty=[asdict(rep) for rep in uncertainty_check(traj.controls)],
        )

    _write_result(output_path, result)
    if not quiet:
        print(f"status: {status}  solver: {solver}  exit: {code}")
        if result["cost"] is not None:
            print(f"cost: {result['cost']:.12g}")
        if result["spectra"] is not None:
            print("channel  frequency  magnitude      banned")
            for row in spectrum_report(result):
                print(
                    f"{row['channel']:>7d}  {row['frequency']:>9d}  "
                    f"{row['magnitude']:<13.6e}  {'yes' if row['banned'] else 'no'}"
                )
    return code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process; parsing leaves it
    unchanged (each call starts from fresh defaults)."""
    parser = argparse.ArgumentParser(
        prog="bandctrl",
        description="Solve a frequency-constrained optimal control problem file.",
    )
    parser.add_argument("--input", "-i", required=True, help="problem file (JSON)")
    parser.add_argument("--output", "-o", required=True, help="result file to write (JSON)")
    parser.add_argument("--solver", choices=SOLVERS, help="override the file's solver")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a problem-file field by dotted path (repeatable)",
    )
    parser.add_argument("--tolerance", type=float, help="certificate tolerance override")
    parser.add_argument("--quiet", action="store_true", help="suppress the stdout summary")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    overrides = list(args.overrides)
    if args.solver:
        overrides.append(f"solver={args.solver}")
    if args.tolerance is not None:
        overrides.append(f"options.tolerance={args.tolerance!r}")
    return run(args.input, args.output, overrides=overrides, quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
