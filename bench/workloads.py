"""The benchmark's workloads: seeded inputs, the timed operation, its check.

Each workload holds a fixed list of instance *slots* (solver, model, sizes,
number of bans).  Every run solves the same mix, whatever the seed, and
attempts whole rounds of it.  The seed draws the endpoints of every slot
(and the bans of ``newton_affine``); the LTI plants, weights and bans of
``cli_batch`` come from one fixed generator, like the plant of
``transfer_n256``, so that the dense systems factored are the same in every
run (see README.md on why).

``run(inst)`` is the timed operation; it returns ``(ok, output)`` where
``ok`` is False when bandctrl failed to produce a solution it should have.
``check(inst, output)`` returns the violations of the independent checks in
``checks.py`` (an empty list when the output is correct).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np

import checks

NEWTON_TOL = 1e-10


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 64, sum(map(ord, tag))])


def _pick_bans(rng, horizon: int, m: int, count: int) -> list[list[int]]:
    """``count`` distinct frequencies from 1..N/2-1, each on a random channel."""
    picks = rng.choice(np.arange(1, horizon // 2), size=count, replace=False)
    banned = [[] for _ in range(m)]
    for xi in picks:
        banned[int(rng.integers(m))].append(int(xi))
    return [sorted(chan) for chan in banned]


def _stable_lti(rng, n: int, m: int):
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.6, 0.95) / np.max(np.abs(np.linalg.eigvals(A)))
    return A, rng.standard_normal((n, m))


def _weights(rng, n: int, m: int):
    mq = rng.standard_normal((n, n))
    mr = rng.standard_normal((m, m))
    Q = mq.T @ mq / n + 0.1 * np.eye(n)
    R = mr.T @ mr / m + 0.5 * np.eye(m)
    return (Q + Q.T) / 2, (R + R.T) / 2


# ---------------------------------------------------------------------------
# cli_batch
# ---------------------------------------------------------------------------

# (solver, model, n, m, N, bans, intended exit code).  "unreachable" is a
# stable LTI plant with one mode that no input reaches; "all" bans every
# frequency but one mirror pair, so that q + n > m N.
CLI_SLOTS = (
    ("riccati", "lti", 2, 1, 32, 0, 0),
    ("riccati", "lti", 4, 2, 128, 0, 0),
    ("riccati", "double_integrator", 2, 1, 64, 0, 0),
    ("lq_pmp", "lti", 3, 1, 48, 0, 0),
    ("lq_pmp", "lti", 4, 2, 96, 0, 0),
    ("lq_pmp", "double_integrator", 2, 1, 32, 0, 0),
    ("transfer", "lti", 2, 1, 24, 0, 0),
    ("transfer", "lti", 3, 2, 64, 0, 0),
    ("transfer", "double_integrator", 2, 1, 48, 0, 0),
    ("transfer_freq", "lti", 2, 1, 32, 2, 0),
    ("transfer_freq", "lti", 4, 2, 64, 4, 0),
    ("transfer_freq", "lti", 3, 1, 96, 3, 0),
    ("transfer_freq", "double_integrator", 2, 1, 128, 3, 0),
    ("shooting", "lti", 2, 1, 32, 1, 0),
    ("shooting", "double_integrator", 2, 1, 48, 2, 0),
    ("shooting", "affine_toy", 1, 1, 32, 1, 0),
    ("shooting", "affine_toy", 1, 1, 64, 2, 0),
    ("transfer", "unreachable", 3, 1, 24, 0, 2),
    ("transfer_freq", "unreachable", 3, 1, 16, 1, 2),
    ("transfer_freq", "lti", 3, 1, 16, "all", 3),
)
RERUN_EVERY = 4  # byte-identical rerun check on every 4th slot
DOUBLE_INTEGRATOR = ([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]])


def _cli_problem(plants, ends, slot):
    """One problem document: the plant, weights and bans come from ``plants``
    (the same generator for every seed), the endpoints from ``ends``."""
    solver, model, n, m, horizon, bans, intended = slot
    x0 = ends.uniform(-1.0, 1.0, n)
    xf = ends.uniform(-1.0, 1.0, n)
    if model == "affine_toy":
        A = B = None
        Q, R = np.eye(1), np.eye(1)
        x0 = ends.uniform(-0.5, 0.5, 1)
        xf = ends.uniform(-1.5, 2.0, 1)
        dynamics = {"builtin": "affine_toy"}
    else:
        if model == "double_integrator":
            A, B = (np.array(a) for a in DOUBLE_INTEGRATOR)
            dynamics = {"builtin": "double_integrator"}
        elif model == "unreachable":
            A1, B1 = _stable_lti(plants, n - 1, m)
            A = np.zeros((n, n))
            A[: n - 1, : n - 1] = A1
            A[n - 1, n - 1] = plants.uniform(0.5, 0.9)
            B = np.vstack([B1, np.zeros((1, m))])
            x0[n - 1] = 0.0
            xf[n - 1] = ends.choice([-1.0, 1.0]) * ends.uniform(0.5, 1.0)
            dynamics = {"kind": "lti", "A": A.tolist(), "B": B.tolist()}
        else:
            A, B = _stable_lti(plants, n, m)
            dynamics = {"kind": "lti", "A": A.tolist(), "B": B.tolist()}
        Q, R = _weights(plants, n, m)
    if bans == "all":
        keep = int(plants.integers(1, horizon // 2))
        banned = [[xi for xi in range(horizon // 2 + 1) if xi != keep]]
    elif bans:
        banned = _pick_bans(plants, horizon, m, bans)
    else:
        banned = [[] for _ in range(m)]
    doc = {
        "horizon": horizon,
        "dynamics": dynamics,
        "cost": {"Q": Q.tolist(), "R": R.tolist()},
        "boundary": {"x0": x0.tolist(), "xf": xf.tolist() if solver not in ("riccati", "lq_pmp") else "free"},
        "banned_frequencies": banned,
        "solver": solver,
    }
    if solver == "shooting":
        doc["options"] = {"newton_tolerance": NEWTON_TOL, "max_iterations": 60}
    expected = 0
    if solver in ("transfer", "transfer_freq") or (solver == "shooting" and A is not None):
        expected = checks.expected_transfer_exit(A, B, horizon, x0, xf, banned)
    return doc, expected, intended


class CliBatch:
    """In-process CLI runs (``bandctrl.cli.main``) over seeded problem files."""

    name = "cli_batch"

    def __init__(self, bandctrl, workdir: str):
        self.cli = bandctrl.cli
        self.workdir = workdir

    def instances(self, seed: int) -> list[dict]:
        os.makedirs(self.workdir, exist_ok=True)
        plants, ends = _rng(0, "cli_batch plants"), _rng(seed, self.name)
        out = []
        for i, slot in enumerate(CLI_SLOTS):
            # redraw until the independently derived verdict is the slot's own
            for _ in range(100):
                doc, expected, intended = _cli_problem(plants, ends, slot)
                if expected == intended:
                    break
            else:
                raise RuntimeError(f"slot {i}: no draw with exit code {intended}")
            problem = os.path.join(self.workdir, f"slot{i:02d}.problem.json")
            with open(problem, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            out.append({
                "slot": i,
                "doc": doc,
                "expected": expected,
                "problem": problem,
                "result": os.path.join(self.workdir, f"slot{i:02d}.result.json"),
            })
        return out

    def warmup(self, insts):
        return insts

    def run(self, inst):
        code = self.cli.main(["--input", inst["problem"], "--output", inst["result"], "--quiet"])
        # exit 1 or 4 on a solvable problem is a failed solve; any other
        # mismatch is a wrong verdict, which check() reports
        return not (inst["expected"] == 0 and code in (1, 4)), code

    def result_bytes(self, inst) -> int:
        return os.path.getsize(inst["result"])

    def check(self, inst, code) -> list[str]:
        if code != inst["expected"]:
            return [f"slot {inst['slot']}: exit {code}, expected {inst['expected']}"]
        with open(inst["result"], encoding="utf-8") as handle:
            result = json.load(handle)
        status = {0: "SOLVED", 2: "INFEASIBLE", 3: "ABNORMAL_REGIME"}[code]
        if result["status"] != status:
            return [f"slot {inst['slot']}: status {result['status']}, expected {status}"]
        if code:
            return [] if result["trajectory"] is None else [f"slot {inst['slot']}: trajectory on exit {code}"]
        return [f"slot {inst['slot']}: {e}" for e in _check_cli_result(inst["doc"], result)]

    def rerun_check(self, insts) -> list[str]:
        errors = []
        for inst in insts[::RERUN_EVERY]:
            again = inst["result"] + ".rerun"
            self.cli.main(["--input", inst["problem"], "--output", again, "--quiet"])
            with open(inst["result"], "rb") as a, open(again, "rb") as b:
                if a.read() != b.read():
                    errors.append(f"slot {inst['slot']}: rerun result bytes differ")
        return errors

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _cli_model(doc):
    dyn = doc["dynamics"]
    if dyn.get("builtin") == "affine_toy":
        return checks.AffineToy()
    if dyn.get("builtin") == "double_integrator":
        return checks.Lti(*DOUBLE_INTEGRATOR)
    return checks.Lti(dyn["A"], dyn["B"])


def _check_cli_result(doc, result) -> list[str]:
    traj, mult = result["trajectory"], result["multipliers"]
    states, controls = np.array(traj["states"]), np.array(traj["controls"])
    Q, R = doc["cost"]["Q"], doc["cost"]["R"]
    xf = doc["boundary"]["xf"]
    errors = checks.certify(
        _cli_model(doc), Q, R, doc["boundary"]["x0"], None if xf == "free" else xf,
        doc["banned_frequencies"], states, controls, mult["adjoints"], mult["nu"],
        newton_tol=doc.get("options", {}).get("newton_tolerance", 0.0),
    )
    wrong_cost = checks.cost_matches(result["cost"], Q, R, states, controls)
    if wrong_cost:
        errors.append(wrong_cost)
    if not result["certificate"]["passed"]:
        errors.append("certificate: not passed on exit 0")
    horizon = controls.shape[0]
    closed = checks.mirror_closed(doc["banned_frequencies"], horizon) if doc["banned_frequencies"] else []
    magnitude = np.abs(np.fft.fft(controls, axis=0, norm="ortho"))
    tol = checks.RESIDUAL_RATIO * checks.EPS * horizon * (1.0 + float(np.max(np.abs(controls))))
    for chan in result["spectra"]:
        k = chan["channel"]
        if np.max(np.abs(np.array(chan["magnitude"]) - magnitude[:, k])) > tol:
            errors.append(f"spectra: channel {k} magnitudes differ from the DFT of the controls")
        flags = [xi in closed[k] for xi in range(horizon)] if closed else [False] * horizon
        if chan["banned"] != flags:
            errors.append(f"spectra: channel {k} banned flags differ from the mirror-closed bans")
    return errors


# ---------------------------------------------------------------------------
# transfer_n256
# ---------------------------------------------------------------------------


class TransferN256:
    """The ROADMAP baseline plant at N=256 with seeded endpoints."""

    name = "transfer_n256"
    horizon = 256
    instances_per_round = 4

    def __init__(self, bandctrl):
        self.bc = bandctrl
        plant = np.random.default_rng(0)
        n, m = 4, 2
        self.A = np.eye(n) + 0.1 * plant.standard_normal((n, n))
        self.B = plant.standard_normal((n, m))
        self.Q, self.R = np.eye(n), np.eye(m)
        N = self.horizon
        self.banned = [list(range(1, N // 8)), list(range(N // 4, N // 4 + N // 16))]
        self.model = checks.Lti(self.A, self.B)

    def instances(self, seed: int) -> list[dict]:
        rng = _rng(seed, self.name)
        out = []
        for _ in range(self.instances_per_round):
            x0, xf = rng.uniform(-1.0, 1.0, 4), rng.uniform(-1.0, 1.0, 4)
            expected = checks.expected_transfer_exit(self.A, self.B, self.horizon, x0, xf, self.banned)
            if expected != 0:
                raise RuntimeError(f"transfer_n256: seeded endpoints give exit {expected}")
            out.append({"x0": x0, "xf": xf})
        return out

    def warmup(self, insts):
        return insts[:1]

    def run(self, inst):
        bc, N = self.bc, self.horizon
        spec = bc.lti_spec(self.A, self.B, self.Q, self.R, N, x0=inst["x0"], xf=inst["xf"], banned=self.banned)
        sol = bc.lq_transfer_freq_solve(
            self.A, self.B, self.Q, self.R, N, inst["x0"], inst["xf"], spec.frequency_constraint
        )
        if sol.status is not bc.SolveStatus.SOLVED:
            return False, sol
        lift = bc.lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu)
        cert = bc.verify_pmp(sol.trajectory, lift, spec)
        return cert.passed, sol

    def check(self, inst, sol) -> list[str]:
        return checks.certify(
            self.model, self.Q, self.R, inst["x0"], inst["xf"], self.banned,
            sol.trajectory.states, sol.trajectory.controls, sol.adjoints, sol.nu,
        )


# ---------------------------------------------------------------------------
# newton_affine
# ---------------------------------------------------------------------------

# (N, number of bans); each slot appears twice per round with its own draw
NEWTON_SLOTS = tuple((N, k) for N in (48, 64, 96) for k in (1, 2, 3)) * 2
NEWTON_XF = (-1.5, 3.0)


def _stratified(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """One uniform draw in each of ``count`` equal strata of [lo, hi], stratum
    (7 i mod count) for slot i: the spread of targets, and with it the mix
    of Newton iteration counts, is the same for every seed."""
    strata = (7 * np.arange(count)) % count
    return lo + (strata + rng.uniform(size=count)) * (hi - lo) / count


class NewtonAffine:
    """``newton_solve`` with the analytic Jacobian on the control-affine toy."""

    name = "newton_affine"

    def __init__(self, bandctrl):
        self.bc = bandctrl
        self.toy = bandctrl.cli.BUILTINS["affine_toy"]()
        self.Q, self.R = np.eye(1), np.eye(1)
        self.model = checks.AffineToy()

    def instances(self, seed: int) -> list[dict]:
        rng = _rng(seed, self.name)
        targets = _stratified(rng, *NEWTON_XF, len(NEWTON_SLOTS))
        return [
            {"N": N, "x0": np.zeros(1), "xf": targets[i:i + 1], "banned": _pick_bans(rng, N, 1, k)}
            for i, (N, k) in enumerate(NEWTON_SLOTS)
        ]

    def warmup(self, insts):
        return insts[:3]

    def run(self, inst):
        bc = self.bc
        spec = bc.control_affine_spec(
            self.toy, self.Q, self.R, inst["N"], inst["x0"], inst["xf"], banned=inst["banned"]
        )
        try:
            shot = bc.newton_solve(spec, inst["x0"], inst["xf"], opts=bc.NewtonOptions(tolerance=NEWTON_TOL))
        except bc.SingularJacobianError:
            return False, None
        return shot.converged, shot

    def check(self, inst, shot) -> list[str]:
        return checks.certify(
            self.model, self.Q, self.R, inst["x0"], inst["xf"], inst["banned"],
            shot.trajectory.states, shot.trajectory.controls, shot.lift.adjoints, shot.lift.nu,
            newton_tol=NEWTON_TOL,
        )


def make(name: str, bandctrl, workdir: str):
    if name == "cli_batch":
        return CliBatch(bandctrl, workdir)
    if name == "transfer_n256":
        return TransferN256(bandctrl)
    if name == "newton_affine":
        return NewtonAffine(bandctrl)
    raise ValueError(f"unknown workload {name!r}")
