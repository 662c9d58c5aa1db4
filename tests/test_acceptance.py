"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here and not configurable.
"""

import time

import numpy as np

from bandctrl.extremal import (
    AbnormalRegimeError,
    NormalityClass,
    classify_normality_freq,
    lift_from_solver,
    verify_pmp,
)
from bandctrl.lq import (
    SolveStatus,
    lq_pmp_solve,
    lq_transfer_freq_solve,
    lq_transfer_solve,
    riccati_solve,
)
from bandctrl.problem import (
    ControlAffineDynamics,
    control_affine_spec,
    lti_spec,
    rollout,
    trajectory_cost,
)
from bandctrl.shooting import StackedUnknowns, newton_solve
from bandctrl.spectrum import (
    SupportSpec,
    build_dft_matrix,
    build_frequency_constraint,
    forward_dft,
    uncertainty_check,
)

from oracles import (
    dense_blocks,
    direct_transcription_oracle,
    has_nontrivial_nullspace,
    naive_dft,
    random_lq_matrices,
    reachability_stack,
    stacked_rows,
    transfer_qp_oracle,
)


def _report(number, name, passed):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def _rel_gap(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    scale = 1.0 + max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


_BATCH_CACHE = {}


def _freq_transfer_batch(count=50):
    """Deterministic batch of solved frequency-constrained transfers with
    m*N <= 60, shared across criteria 2, 3, 7, and 9."""
    if count in _BATCH_CACHE:
        return _BATCH_CACHE[count]
    batch = []
    seed = 0
    while len(batch) < count and seed < 4000:
        seed += 1
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        horizon = int(rng.integers(n + 2, min(12, 60 // m) + 1))
        A, B, Q, R = random_lq_matrices(rng, n, m)
        banned = [[] for _ in range(m)]
        for _ in range(int(rng.integers(1, 3))):
            banned[int(rng.integers(m))].append(int(rng.integers(horizon)))
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, m)
        if fc.row_count + n >= m * horizon:
            continue
        verdict = classify_normality_freq(A, B, horizon, fc)
        if verdict.classification is not NormalityClass.ALL_NORMAL:
            continue
        x0 = rng.standard_normal(n)
        xf = rng.standard_normal(n)
        try:
            sol = lq_transfer_freq_solve(A, B, Q, R, horizon, x0, xf, fc)
        except AbnormalRegimeError:
            continue
        if sol.status is not SolveStatus.SOLVED:
            continue
        batch.append({"A": A, "B": B, "Q": Q, "R": R, "N": horizon,
                      "x0": x0, "xf": xf, "fc": fc, "sol": sol})
    assert len(batch) == count, f"only {len(batch)} solvable instances generated"
    _BATCH_CACHE[count] = batch
    return batch


def _toy_dynamics():
    return ControlAffineDynamics(
        n=1,
        m=1,
        drift=lambda t, x: x,
        gain=lambda t, x: np.array([[1.0 + 0.1 * x[0]]]),
        drift_jac=lambda t, x: np.array([[1.0]]),
        gain_jac=lambda t, x: np.array([[[0.1]]]),
    )


def test_criterion_1_dp_pmp_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 21))
        A, B, Q, R = random_lq_matrices(rng, n, m)
        x0 = rng.standard_normal(n)
        _, traj_dp = riccati_solve(A, B, Q, R, horizon, x0)
        sol = lq_pmp_solve(A, B, Q, R, horizon, x0)
        worst = max(
            worst,
            _rel_gap(traj_dp.states, sol.trajectory.states),
            _rel_gap(traj_dp.controls, sol.trajectory.controls),
        )
    elapsed = time.perf_counter() - start
    _report(1, "DP/PMP equivalence", worst <= 1e-8 and elapsed < 10.0)


def test_criterion_2_frequency_nulling():
    ok = True
    for inst in _freq_transfer_batch():
        sol, fc = inst["sol"], inst["fc"]
        B, R = inst["B"], inst["R"]
        for k, banned in enumerate(fc.banned()):
            if banned:
                comp = forward_dft(sol.trajectory.controls[:, k])
                ok &= bool(np.max(np.abs(comp[list(banned)])) <= 1e-9)
        for t in range(inst["N"]):
            stat = R @ sol.trajectory.controls[t] - B.T @ sol.adjoints[t] + dense_blocks(fc)[t].T @ sol.nu
            ok &= bool(np.max(np.abs(stat)) <= 1e-9)
    _report(2, "frequency nulling + stationarity", ok)


def test_criterion_3_qp_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for inst in _freq_transfer_batch():
        oracle = transfer_qp_oracle(
            inst["A"], inst["B"], inst["Q"], inst["R"], inst["N"],
            inst["x0"], xf=inst["xf"], freq_matrix=stacked_rows(inst["fc"]),
        )
        assert oracle["feasible"]
        sol = inst["sol"]
        worst = max(worst, _rel_gap(sol.trajectory.controls, oracle["controls"]))
        worst = max(worst, abs(sol.cost - oracle["cost"]) / (1.0 + abs(oracle["cost"])))
    elapsed = time.perf_counter() - start
    _report(3, "QP-oracle equivalence", worst <= 1e-7 and elapsed < 30.0)


def test_criterion_4_cost_monotonicity():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(20_000 + seed)
        n, m = int(rng.integers(1, 4)), 1
        horizon = int(rng.integers(n + 4, 13))
        A, B, Q, R = random_lq_matrices(rng, n, m)
        x0, xf = rng.standard_normal(n), rng.standard_normal(n)
        base = lq_transfer_solve(A, B, Q, R, horizon, x0, xf)
        empty_fc = build_frequency_constraint(SupportSpec.all_allowed(horizon, m), horizon, m)
        empty = lq_transfer_freq_solve(A, B, Q, R, horizon, x0, xf, empty_fc)
        ok &= bool(np.max(np.abs(base.trajectory.controls - empty.trajectory.controls)) <= 1e-10)
        ok &= bool(abs(base.cost - empty.cost) <= 1e-10)
        previous = base.cost
        bans = []
        for xi in (1, 2):
            bans.append(int(xi))
            fc = build_frequency_constraint(SupportSpec.from_banned([bans], horizon), horizon, m)
            if fc.row_count + n >= m * horizon:
                break
            sol = lq_transfer_freq_solve(A, B, Q, R, horizon, x0, xf, fc)
            if sol.status is not SolveStatus.SOLVED:
                break
            ok &= bool(sol.cost >= previous - 1e-10)
            previous = sol.cost
    _report(4, "cost monotonicity", ok)


def test_criterion_5_normality_classification():
    ok = True
    abnormal_seen = 0
    normal_seen = 0
    # 100 random instances against the brute-force null-space oracle
    for seed in range(100):
        rng = np.random.default_rng(30_000 + seed)
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        horizon = int(rng.integers(2, 8))
        A, B, Q, R = random_lq_matrices(rng, n, m)
        banned = [[] for _ in range(m)]
        for _ in range(int(rng.integers(0, 3))):
            banned[int(rng.integers(m))].append(int(rng.integers(horizon)))
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, m)
        verdict = classify_normality_freq(A, B, horizon, fc)
        stack = reachability_stack(A, B, horizon)
        aug = np.hstack([stack, -stacked_rows(fc).T]) if fc.row_count else stack
        nontrivial = has_nontrivial_nullspace(aug)
        if verdict.classification is NormalityClass.ALL_NORMAL:
            ok &= not nontrivial
            normal_seen += 1
        else:
            ok &= nontrivial
            if verdict.classification is NormalityClass.ALL_ABNORMAL:
                abnormal_seen += 1
    # constructed all-abnormal cases: q + n > m*N
    constructed_abnormal = [
        ([[1.0]], [[1.0]], 2, [[0, 1]]),
        ([[0.5]], [[2.0]], 2, [[0, 1]]),
        ([[1.0]], [[1.0]], 3, [[0, 1, 2]]),
        (np.eye(2), [[1.0], [0.5]], 2, [[0, 1]]),
        ([[0.9]], [[1.0]], 4, [[0, 1, 2, 3]]),
        (np.eye(2), [[1.0], [1.0]], 3, [[0, 1, 2]]),
    ]
    for A, B, horizon, banned in constructed_abnormal:
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, 1)
        verdict = classify_normality_freq(A, B, horizon, fc)
        n = np.asarray(B).shape[0]
        ok &= verdict.classification is NormalityClass.ALL_ABNORMAL
        ok &= fc.row_count + n > 1 * horizon
        abnormal_seen += 1
    # constructed all-normal cases with independent rows
    constructed_normal = [
        ([[1.0]], [[1.0]], 4, [[2]]),
        ([[1.0]], [[1.0]], 6, [[3]]),
        ([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], 6, [[2, 4]]),
        ([[0.8]], [[1.0]], 5, [[0]]),
        ([[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], 8, [[4]]),
    ]
    for A, B, horizon, banned in constructed_normal:
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, 1)
        verdict = classify_normality_freq(A, B, horizon, fc)
        ok &= verdict.classification is NormalityClass.ALL_NORMAL
        normal_seen += 1
    _report(5, "normality classification", ok and abnormal_seen >= 5 and normal_seen >= 5)


def test_criterion_6_shooting_correctness():
    ok = True
    # LTI: exactly one undamped Newton step from a random start, matches the linear solver
    for seed in range(5):
        rng = np.random.default_rng(40_000 + seed)
        spec = lti_spec(
            [[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], np.eye(2) * 0.5, [[1.0]], 6,
            x0=rng.standard_normal(2), xf=rng.standard_normal(2), banned=[[2]],
        )
        x0 = spec.state_sets[0].point
        xf = spec.state_sets[6].point
        q = spec.frequency_constraint.row_count
        init = StackedUnknowns(rng.standard_normal(10 + 6 + 12 + q) * 2.0, n=2, m=1, horizon=6, q=q)
        result = newton_solve(spec, x0, xf, init=init)
        ok &= result.converged and result.iterations == 1
        ok &= all(step == 1.0 for _, _, step in result.trace[1:])
        ref = lq_transfer_freq_solve(
            spec.dynamics.A, spec.dynamics.B, spec.cost.Q, spec.cost.R, 6, x0, xf,
            spec.frequency_constraint,
        )
        ok &= bool(np.max(np.abs(result.trajectory.controls - ref.trajectory.controls)) <= 1e-6)
        ok &= bool(np.max(np.abs(result.trajectory.states - ref.trajectory.states)) <= 1e-6)
    # control-affine toy, scalar, N = 6
    spec = control_affine_spec(_toy_dynamics(), [[1.0]], [[1.0]], 6, [0.0], [1.0])
    result = newton_solve(spec, [0.0], [1.0])
    ok &= result.converged and result.iterations <= 60
    cert = verify_pmp(result.trajectory, result.lift, spec, tol=1e-6)
    ok &= cert.passed
    cost = trajectory_cost(spec.cost, result.trajectory)
    oracle_cost, _ = direct_transcription_oracle(
        spec.dynamics.step, lambda t, x, u: spec.cost.value(t, x, u), 6, 1, [0.0], [1.0]
    )
    ok &= abs(cost - oracle_cost) <= 1e-6
    _report(6, "shooting correctness", ok)


def test_criterion_7_verifier_soundness_completeness():
    ok = True
    # completeness: every solver output in the batch passes at 1e-7
    for inst in _freq_transfer_batch():
        spec = lti_spec(
            inst["A"], inst["B"], inst["Q"], inst["R"], inst["N"],
            x0=inst["x0"], xf=inst["xf"],
            banned=[list(b) for b in inst["fc"].banned()],
        )
        sol = inst["sol"]
        lift = lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu)
        ok &= verify_pmp(sol.trajectory, lift, spec, tol=1e-7).passed
    # soundness: perturbing any control coordinate by 1e-3 breaks condition (v)
    spec = lti_spec(
        [[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], np.eye(2) * 0.5, [[1.0]], 6,
        x0=[1.0, 0.0], xf=[0.0, 0.0],
    )
    sol = lq_transfer_solve(spec.dynamics.A, spec.dynamics.B, spec.cost.Q, spec.cost.R,
                            6, [1.0, 0.0], [0.0, 0.0])
    lift = lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu)
    for t in range(6):
        for j in range(1):
            controls = sol.trajectory.controls.copy()
            controls[t, j] += 1e-3
            perturbed = rollout(spec.dynamics, [1.0, 0.0], controls)
            cert = verify_pmp(perturbed, lift, spec, tol=1e-7)
            ok &= not cert.condition_passed["v"]
            ok &= not cert.passed
    _report(7, "verifier soundness/completeness", ok)


def test_criterion_8_dft_correctness():
    ok = True
    rng = np.random.default_rng(50_000)
    for size in (1, 2, 3, 5, 8, 16, 33, 64):
        u = rng.standard_normal(size)
        ok &= bool(np.max(np.abs(forward_dft(u) - naive_dft(u))) <= 1e-12)
    for size in range(1, 257):
        phi = build_dft_matrix(size)
        ok &= bool(np.max(np.abs(phi.conj().T @ phi - np.eye(size))) <= 1e-12)
    _report(8, "DFT correctness", ok)


def test_criterion_9_donoho_stark_diagnostic():
    ok = True
    for inst in _freq_transfer_batch():
        for report in uncertainty_check(inst["sol"].trajectory.controls):
            ok &= report.vacuous or report.satisfied
    # the shooting toy's controls as well
    spec = control_affine_spec(_toy_dynamics(), [[1.0]], [[1.0]], 6, [0.0], [1.0], banned=[[3]])
    result = newton_solve(spec, [0.0], [1.0])
    for report in uncertainty_check(result.trajectory.controls):
        ok &= report.vacuous or report.satisfied
    _report(9, "Donoho-Stark diagnostic", ok)
