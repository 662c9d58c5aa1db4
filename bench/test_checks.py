"""The benchmark's checks accept correct solutions and reject planted faults.

    python3 -m pytest bench/test_checks.py -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import bandctrl  # noqa: E402
import bandctrl.cli  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

DI_A, DI_B = (np.array(a) for a in workloads.DOUBLE_INTEGRATOR)
DI = checks.Lti(DI_A, DI_B)
I1, I2 = np.eye(1), np.eye(2)


def _transfer(A, B, Q, R, N, x0, xf, banned):
    spec = bandctrl.lti_spec(A, B, Q, R, N, x0=x0, xf=xf, banned=banned)
    return bandctrl.lq_transfer_freq_solve(A, B, Q, R, N, x0, xf, spec.frequency_constraint)


def _certify_di(x0, xf, banned, states, controls, adjoints, nu=()):
    return checks.certify(DI, I2, I1, x0, xf, banned, states, controls, adjoints, nu)


def _rolled(model, x0, controls):
    states = [np.asarray(x0, dtype=float)]
    for u in controls:
        states.append(model.step(states[-1], u))
    return np.array(states)


@pytest.fixture(scope="module")
def di16():
    """Double integrator, N=16, [0, 0] -> [1, 0], frequency 3 banned."""
    sol = _transfer(DI_A, DI_B, I2, I1, 16, [0.0, 0.0], [1.0, 0.0], [[3]])
    assert sol.status is bandctrl.SolveStatus.SOLVED
    return sol


def _kinds(errors):
    return {e.split(":")[0] for e in errors}


def test_correct_transfer_passes(di16):
    t = di16.trajectory
    assert _certify_di([0, 0], [1, 0], [[3]], t.states, t.controls, di16.adjoints, di16.nu) == []


def test_target_that_verify_pmp_accepts_is_rejected(di16):
    # the same trajectory judged against xf = [5, 0]; bandctrl.verify_pmp
    # compares no endpoint with its fixed point and passes it
    t = di16.trajectory
    errors = _certify_di([0, 0], [5, 0], [[3]], t.states, t.controls, di16.adjoints, di16.nu)
    assert _kinds(errors) == {"endpoint"}


def test_wrong_initial_state_is_rejected(di16):
    t = di16.trajectory
    errors = _certify_di([0.5, 0], [1, 0], [[3]], t.states, t.controls, di16.adjoints, di16.nu)
    assert "x0" in _kinds(errors)


def test_state_off_the_dynamics_is_rejected(di16):
    t = di16.trajectory
    states = t.states.copy()
    states[7, 0] += 1e-3
    errors = _certify_di([0, 0], [1, 0], [[3]], states, t.controls, di16.adjoints, di16.nu)
    assert "dynamics" in _kinds(errors)


def test_banned_component_is_rejected(di16):
    t = di16.trajectory
    controls = t.controls + 1e-4 * np.cos(2 * np.pi * 3 * np.arange(16) / 16)[:, None]
    errors = _certify_di([0, 0], [1, 0], [[3]], _rolled(DI, [0, 0], controls), controls, di16.adjoints, di16.nu)
    assert "bans" in _kinds(errors)


def test_mirror_of_a_banned_component_is_rejected(di16):
    # banning 3 bans 13 as well; a ban given as 13 must be read the same way
    t = di16.trajectory
    controls = t.controls + 1e-4 * np.sin(2 * np.pi * 13 * np.arange(16) / 16)[:, None]
    errors = _certify_di([0, 0], [1, 0], [[13]], _rolled(DI, [0, 0], controls), controls, di16.adjoints, di16.nu)
    assert "bans" in _kinds(errors)


def test_perturbed_adjoint_is_rejected(di16):
    t = di16.trajectory
    adjoints = di16.adjoints.copy()
    adjoints[5, 1] += 1e-4
    errors = _certify_di([0, 0], [1, 0], [[3]], t.states, t.controls, adjoints, di16.nu)
    assert "adjoint" in _kinds(errors)


def test_feasible_but_suboptimal_trajectory_is_rejected(di16):
    # move the controls along a direction that keeps the endpoint and the
    # ban: dynamics, endpoints and bans still hold, optimality does not
    N = 16
    reach = np.hstack([np.linalg.matrix_power(DI_A, N - 1 - t) @ DI_B for t in range(N)])
    rows = np.vstack([reach, checks.ban_matrix([[3]], N, 1)])
    direction = np.linalg.svd(rows)[2][-1]
    controls = di16.trajectory.controls + 1e-3 * direction.reshape(N, 1)
    states = _rolled(DI, [0, 0], controls)
    errors = _certify_di([0, 0], [1, 0], [[3]], states, controls, di16.adjoints, di16.nu)
    assert "stationarity" in _kinds(errors)
    assert not _kinds(errors) & {"dynamics", "x0", "endpoint", "bans"}


def test_free_end_solutions_pass_and_a_nonzero_terminal_adjoint_fails():
    rng = np.random.default_rng(3)
    A, B = workloads._stable_lti(rng, 3, 2)
    Q, R = workloads._weights(rng, 3, 2)
    x0 = rng.uniform(-1, 1, 3)
    model = checks.Lti(A, B)
    sol, traj = bandctrl.riccati_solve(A, B, Q, R, 24, x0)
    adjoints = bandctrl.riccati_adjoints(sol, traj)
    assert checks.certify(model, Q, R, x0, None, None, traj.states, traj.controls, adjoints) == []
    pmp = bandctrl.lq_pmp_solve(A, B, Q, R, 24, x0)
    t = pmp.trajectory
    assert checks.certify(model, Q, R, x0, None, None, t.states, t.controls, pmp.adjoints) == []
    shifted = adjoints.copy()
    shifted[-1] += 1e-3
    errors = checks.certify(model, Q, R, x0, None, None, traj.states, traj.controls, shifted)
    assert "transversality" in _kinds(errors)


def test_affine_toy_jacobians_match_the_dynamics():
    toy = checks.AffineToy()
    h = 1e-6
    for x, u in ((0.3, -0.7), (-2.0, 1.5)):
        xs, us = np.array([x]), np.array([u])
        fd_x = (toy.step(xs + h, us) - toy.step(xs - h, us)) / (2 * h)
        fd_u = (toy.step(xs, us + h) - toy.step(xs, us - h)) / (2 * h)
        assert np.allclose(fd_x, toy.jac_x(xs, us)[0], atol=1e-8)
        assert np.allclose(fd_u, toy.jac_u(xs, us)[0], atol=1e-8)
        builtin = bandctrl.cli.BUILTINS["affine_toy"]()
        assert np.allclose(builtin.step(0, xs, us), toy.step(xs, us), rtol=0, atol=1e-15)


def test_newton_solution_passes_and_fails_against_a_wrong_model():
    toy = bandctrl.cli.BUILTINS["affine_toy"]()
    spec = bandctrl.control_affine_spec(toy, I1, I1, 48, [0.0], [2.0], banned=[[1, 4]])
    shot = bandctrl.newton_solve(spec, [0.0], [2.0], opts=bandctrl.NewtonOptions(tolerance=1e-10))
    assert shot.converged
    args = (I1, I1, [0.0], [2.0], [[1, 4]], shot.trajectory.states, shot.trajectory.controls,
            shot.lift.adjoints, shot.lift.nu)
    assert checks.certify(checks.AffineToy(), *args, newton_tol=1e-10) == []
    # the toy's gain is 1 + 0.1 x, not 1: the LTI look-alike must not pass
    assert checks.certify(checks.Lti(I1, I1), *args, newton_tol=1e-10) != []


def test_rollout_conditioning_sets_the_endpoint_bound():
    # the unstable N=256 plant (rho(A)^256 ~ 2e9) passes although its
    # endpoint gap can exceed a flat 1e-7; judged against a target moved by
    # 1e-2 it fails on the endpoint alone
    plant = workloads.TransferN256(bandctrl)
    inst = plant.instances(seed=5)[0]
    ok, sol = plant.run(inst)
    assert ok and plant.check(inst, sol) == []
    errors = checks.certify(plant.model, plant.Q, plant.R, inst["x0"], inst["xf"] + 1e-2, plant.banned,
                            sol.trajectory.states, sol.trajectory.controls, sol.adjoints, sol.nu)
    assert _kinds(errors) == {"endpoint"}


def test_expected_exit_codes():
    rng = np.random.default_rng(0)
    A, B = workloads._stable_lti(rng, 3, 1)
    x0, xf = np.zeros(3), np.ones(3)
    assert checks.expected_transfer_exit(A, B, 16, x0, xf, [[]]) == 0
    assert checks.expected_transfer_exit(A, B, 16, x0, xf, [[2, 5]]) == 0
    # the last mode is cut off from the input
    Au = np.diag([0.5, 0.7, 0.9])
    Bu = np.array([[1.0], [1.0], [0.0]])
    assert checks.expected_transfer_exit(Au, Bu, 16, x0, xf, [[]]) == 2
    assert checks.expected_transfer_exit(Au, Bu, 16, x0, [1.0, 1.0, 0.0], [[]]) == 0
    # a DC ban fixes the double integrator's final velocity at its initial one
    assert checks.expected_transfer_exit(DI_A, DI_B, 16, [0, 0], [1, 1], [[0]]) == 2
    assert checks.expected_transfer_exit(DI_A, DI_B, 16, [0, 0], [1, 0], [[0]]) == 0
    # q + n > m N: 14 ban rows + 3 states > 16
    assert checks.expected_transfer_exit(A, B, 16, x0, xf, [[xi for xi in range(9) if xi != 3]]) == 3


def test_banned_rows_are_counted_from_mirror_orbits():
    assert checks.banned_row_count([[0]], 16) == 1
    assert checks.banned_row_count([[8]], 16) == 1
    assert checks.banned_row_count([[3]], 16) == 2
    assert checks.banned_row_count([[3, 13]], 16) == 2
    assert checks.banned_row_count([[1], [1, 2]], 7) == 6
    assert checks.ban_matrix([[0, 3, 8]], 16, 1).shape == (4, 16)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    batch = workloads.CliBatch(bandctrl, str(tmp_path_factory.mktemp("cli")))
    insts = batch.instances(seed=0)
    codes = [batch.run(inst) for inst in insts]
    return batch, insts, codes


def test_cli_results_pass_and_verdicts_match(cli_run):
    batch, insts, codes = cli_run
    assert sorted({inst["expected"] for inst in insts}) == [0, 2, 3]
    for inst, (ok, code) in zip(insts, codes):
        assert ok
        assert batch.check(inst, code) == []
    assert batch.rerun_check(insts) == []


def test_cli_wrong_verdict_is_rejected(cli_run):
    batch, insts, codes = cli_run
    unreachable = next(i for i in insts if i["expected"] == 2)
    assert batch.check(unreachable, 0) != []


def test_cli_tampered_result_is_rejected(cli_run, tmp_path):
    import json

    batch, insts, _ = cli_run
    inst = next(i for i in insts if i["doc"]["solver"] == "transfer_freq" and i["expected"] == 0)
    with open(inst["result"], encoding="utf-8") as handle:
        result = json.load(handle)
    doc = inst["doc"]

    tampered = json.loads(json.dumps(result))
    tampered["cost"] *= 1.0 + 1e-9
    assert _kinds(workloads._check_cli_result(doc, tampered)) == {"cost"}

    tampered = json.loads(json.dumps(result))
    tampered["spectra"][0]["magnitude"][1] += 1e-6
    assert _kinds(workloads._check_cli_result(doc, tampered)) == {"spectra"}

    tampered = json.loads(json.dumps(result))
    tampered["multipliers"]["adjoints"][3][0] += 1e-5
    assert "adjoint" in _kinds(workloads._check_cli_result(doc, tampered))
