"""Tests for the exact LQ solvers, frozen against independent oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.testing import assert_allclose

from bandctrl import kkt
from bandctrl.extremal import (
    AbnormalRegimeError,
    NormalityClass,
    classify_normality_classic,
    classify_normality_freq,
    lift_from_solver,
    verify_pmp,
)
from bandctrl.lq import (
    SolveStatus,
    lq_pmp_solve,
    lq_transfer_freq_solve,
    lq_transfer_solve,
    riccati_adjoints,
    riccati_solve,
)
from bandctrl.problem import QuadraticCost, lti_spec
from bandctrl.shooting import StackedUnknowns, assemble_residual
from bandctrl.spectrum import (
    FrequencyConstraint,
    SupportSpec,
    build_frequency_constraint,
    constraint_residual,
    forward_dft,
)

from oracles import (
    dense_blocks,
    dense_first_order_solve,
    dynamics_row_ulps,
    empty_memos,
    loop_closed_loop_rollout,
    random_banned_sets,
    random_lq_matrices,
    stacked_rows,
    transfer_qp_oracle,
    unstable_transfer_plant,
)


# a dynamics row solved to working precision holds to this many ulps of its
# terms (the per-row bound of bench/checks.py)
ROW_ULPS = 30.0


def _path(sol):
    return sol.trajectory.states, sol.trajectory.controls


def _rel_gap(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    scale = 1.0 + max(np.max(np.abs(a), initial=0.0), np.max(np.abs(b), initial=0.0))
    return np.max(np.abs(a - b), initial=0.0) / scale


class TestRiccati:
    def test_zero_state_penalty_means_zero_control(self):
        sol, traj = riccati_solve(np.eye(2) * 0.9, np.eye(2), np.zeros((2, 2)), np.eye(2), 5, [1.0, -2.0])
        assert np.max(np.abs(sol.gains)) == 0.0
        assert np.max(np.abs(traj.controls)) == 0.0
        assert sol.cost == 0.0

    def test_scalar_single_step(self):
        sol, traj = riccati_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]], 1, [1.0])
        assert_allclose(sol.value_matrices[:, 0, 0], [1.0, 0.0])
        assert sol.gains[0, 0, 0] == 0.0
        assert traj.controls[0, 0] == 0.0
        assert sol.cost == pytest.approx(0.5)

    def test_matches_unconstrained_qp_oracle(self):
        rng = np.random.default_rng(10)
        A, B, Q, R = random_lq_matrices(rng, 3, 2)
        x0 = rng.standard_normal(3)
        sol, traj = riccati_solve(A, B, Q, R, 10, x0)
        oracle = transfer_qp_oracle(A, B, Q, R, 10, x0)
        assert abs(sol.cost - oracle["cost"]) <= 1e-7 * (1.0 + abs(oracle["cost"]))
        assert _rel_gap(traj.controls, oracle["controls"]) < 1e-7

    def test_value_function_matches_rolled_cost(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            A, B, Q, R = random_lq_matrices(rng, 3, 1)
            x0 = rng.standard_normal(3)
            sol, traj = riccati_solve(A, B, Q, R, 8, x0)
            value = 0.5 * x0 @ sol.value_matrices[0] @ x0
            assert abs(sol.cost - value) <= 1e-8 * (1.0 + abs(value))
            eigs = np.linalg.eigvalsh(sol.value_matrices.reshape(-1, 3, 3))
            assert np.min(eigs) >= -1e-8
            assert np.max(np.abs(sol.value_matrices[-1])) == 0.0

    def test_singular_guard(self):
        sol, traj = riccati_solve([[1.0]], [[1.0]], [[0.0]], [[0.0]], 3, [1.0])
        assert sol.status is SolveStatus.SINGULAR
        assert traj is None

    @settings(max_examples=60, deadline=None)
    @given(
        plant=st.sampled_from(["stable", "marginal", "double_integrator"]),
        n=st.integers(1, 4),
        m=st.integers(1, 2),
        horizon=st.integers(1, 1024),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rollout_matches_stage_loop(self, plant, n, m, horizon, seed):
        rng = np.random.default_rng(seed)
        if plant == "double_integrator":
            A, B = np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0], [1.0]])
            Q, R = random_lq_matrices(rng, 2, 1)[2:]
        else:
            radius = 0.9 if plant == "stable" else 1.0
            A, B, Q, R = random_lq_matrices(rng, n, m, spectral_radius=radius)
        x0 = rng.standard_normal(B.shape[0])
        sol, traj = riccati_solve(A, B, Q, R, horizon, x0)
        states, controls = loop_closed_loop_rollout(A, B, sol.gains, x0)
        assert traj.states[0].tolist() == list(x0)
        assert _rel_gap(traj.states, states) <= 1e-12
        assert _rel_gap(traj.controls, controls) <= 1e-12


class TestLqPmp:
    def test_zero_state_penalty(self):
        sol = lq_pmp_solve(np.eye(2), np.eye(2), np.zeros((2, 2)), np.eye(2), 4, [1.0, 1.0])
        assert np.max(np.abs(sol.adjoints)) < 1e-12
        assert np.max(np.abs(sol.trajectory.controls)) < 1e-12

    def test_scalar_single_step_matches_riccati(self):
        sol = lq_pmp_solve([[1.0]], [[1.0]], [[1.0]], [[1.0]], 1, [1.0])
        assert sol.trajectory.controls[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert sol.cost == pytest.approx(0.5)

    def test_agrees_with_riccati_on_random_instances(self):
        # the free-end first-order system eliminates to the Riccati recursion,
        # so the two read-outs are one computation: equal to the last bit
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 4))
            horizon = int(rng.integers(1, 16))
            A, B, Q, R = random_lq_matrices(rng, n, m)
            x0 = rng.standard_normal(n)
            ric, traj_dp = riccati_solve(A, B, Q, R, horizon, x0)
            sol = lq_pmp_solve(A, B, Q, R, horizon, x0)
            assert np.array_equal(traj_dp.states, sol.trajectory.states)
            assert np.array_equal(traj_dp.controls, sol.trajectory.controls)
            assert np.array_equal(riccati_adjoints(ric, traj_dp), sol.adjoints)
            assert sol.cost == ric.cost

    def test_criterion_1_instances_match_the_dense_oracle(self):
        # the instances of acceptance criterion 1, which compares riccati_solve
        # with lq_pmp_solve; lq_pmp_solve returns riccati_solve's solution, so
        # here each meets the dense LU of the free-end first-order system
        # (tests/oracles.py) instead
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            horizon = int(rng.integers(1, 21))
            A, B, Q, R = random_lq_matrices(rng, n, m)
            x0 = rng.standard_normal(n)
            z, _, consistent = dense_first_order_solve(
                A, B, Q, R, horizon, x0, None, np.zeros((horizon, 0, m))
            )
            assert consistent
            dense = StackedUnknowns(z, n, m, horizon, 0)
            states = np.vstack([x0, dense.states()])
            states = np.vstack([states, A @ states[-1] + B @ dense.controls()[-1]])
            _, traj_dp = riccati_solve(A, B, Q, R, horizon, x0)
            for traj in (traj_dp, lq_pmp_solve(A, B, Q, R, horizon, x0).trajectory):
                assert _rel_gap(traj.states, states) <= 1e-8, seed
                assert _rel_gap(traj.controls, dense.controls()) <= 1e-8, seed

    def test_adjoints_match_value_matrices(self):
        rng = np.random.default_rng(13)
        A, B, Q, R = random_lq_matrices(rng, 2, 1)
        x0 = rng.standard_normal(2)
        ric, traj = riccati_solve(A, B, Q, R, 6, x0)
        sol = lq_pmp_solve(A, B, Q, R, 6, x0)
        assert _rel_gap(riccati_adjoints(ric, traj), sol.adjoints) < 1e-9

    def test_singular_guard(self):
        # R = 0 violates the precondition; the stacked system is then singular
        sol = lq_pmp_solve([[1.0]], [[1.0]], [[0.0]], [[0.0]], 3, [1.0])
        assert sol.status is SolveStatus.SINGULAR
        assert sol.trajectory is None


class TestTransfer:
    def test_zero_to_zero_is_free(self):
        rng = np.random.default_rng(14)
        A, B, Q, R = random_lq_matrices(rng, 2, 1)
        sol = lq_transfer_solve(A, B, Q, R, 5, np.zeros(2), np.zeros(2))
        assert sol.status is SolveStatus.SOLVED
        assert np.max(np.abs(sol.trajectory.controls)) < 1e-10
        assert sol.cost == pytest.approx(0.0, abs=1e-12)

    def test_minimum_energy_integrator(self):
        sol = lq_transfer_solve([[1.0]], [[1.0]], [[0.0]], [[1.0]], 4, [0.0], [4.0])
        assert sol.status is SolveStatus.SOLVED
        assert_allclose(sol.trajectory.controls.ravel(), [1.0, 1.0, 1.0, 1.0], atol=1e-10)
        oracle = transfer_qp_oracle([[1.0]], [[1.0]], [[0.0]], [[1.0]], 4, [0.0], xf=[4.0])
        assert abs(sol.cost - oracle["cost"]) < 1e-10

    def test_more_states_than_inputs_is_all_abnormal(self):
        # the triple integrator over N = 2: n = 3 > m N = 2, as with bans
        A, B = np.eye(3) + np.eye(3, k=1), [[0.0], [0.0], [1.0]]
        with pytest.raises(AbnormalRegimeError) as info:
            lq_transfer_solve(A, B, np.eye(3), [[1.0]], 2, np.zeros(3), np.ones(3))
        assert info.value.verdict.classification is NormalityClass.ALL_ABNORMAL
        assert info.value.verdict.dims == (3, 1, 2, 0)
        sol = lq_transfer_solve(A, B, np.eye(3), [[1.0]], 3, np.zeros(3), np.ones(3))
        assert sol.status is SolveStatus.SOLVED
        assert sol.normality.classification is NormalityClass.ALL_NORMAL

    @pytest.mark.parametrize("solve", [lq_transfer_solve, lq_transfer_freq_solve])
    def test_inconsistent_shapes_are_named_before_the_verdict(self, solve):
        args = (np.eye(3), [[1.0], [0.0]], np.eye(3), [[1.0]], 4, np.zeros(3), np.ones(3))
        extra = (FrequencyConstraint(4, 1),) if solve is lq_transfer_freq_solve else ()
        with pytest.raises(ValueError, match=r"inconsistent shapes: A\(3, 3\) B\(2, 1\)"):
            solve(*args, *extra)

    def test_zero_horizon_is_named(self):
        A, B = np.eye(2), [[1.0], [0.0]]
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            lq_transfer_solve(A, B, np.eye(2), [[1.0]], 0, np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="horizon must be >= 1, got 0"):
            classify_normality_classic(A, B, 0)

    def test_unreachable_target_is_infeasible(self):
        A = np.zeros((2, 2))
        B = np.array([[1.0], [0.0]])
        sol = lq_transfer_solve(A, B, np.zeros((2, 2)), [[1.0]], 3, [0.0, 0.0], [0.0, 1.0])
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.ls_residual > 1e-3
        assert np.isnan(sol.cost)

    @pytest.mark.parametrize(
        "A, B, Q, R, x0, xf",
        [
            (np.eye(2), np.eye(2), np.eye(2), np.zeros((2, 2)), [1, 0], [0, 1]),
            (np.eye(1), np.eye(1), np.eye(1), [[0.0]], [1], [0]),
        ],
        ids=["m2", "m1"],
    )
    def test_singular_control_weight_solves_through_the_shifted_scan(self, A, B, Q, R, x0, xf):
        # R = 0 has no stationary gain, and the Riccati scan from sigma I
        # shifts its weights (kkt.riccati_scan): the transfer is the dense
        # system's, and it certifies against the spec with R = 0, which
        # validate refuses (R is not positive definite)
        A, B, Q, R = (np.asarray(a, dtype=float) for a in (A, B, Q, R))
        n, m = B.shape
        sol = lq_transfer_solve(A, B, Q, R, 4, x0, xf)
        assert sol.status is SolveStatus.SOLVED
        fc = FrequencyConstraint(4, m)
        z, _, consistent = dense_first_order_solve(A, B, Q, R, 4, x0, xf, dense_blocks(fc))
        assert consistent
        oracle = StackedUnknowns(z, n, m, 4, 0)
        assert _rel_gap(sol.trajectory.controls, oracle.controls()) <= 1e-12
        assert _rel_gap(sol.trajectory.states[1:4], oracle.states()) <= 1e-12
        spec = dataclasses.replace(lti_spec(A, B, Q, np.eye(m), 4, x0, xf), cost=QuadraticCost(Q, R))
        lift = lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu)
        assert verify_pmp(sol.trajectory, lift, spec).passed

    def test_single_step_transfer(self):
        # N = 1: the one control is pinned by the endpoint equation alone
        sol = lq_transfer_solve([[1.0]], [[2.0]], [[1.0]], [[1.0]], 1, [1.0], [5.0])
        assert sol.status is SolveStatus.SOLVED
        assert sol.trajectory.controls[0, 0] == pytest.approx(2.0)
        # x_N = xf is the last dynamics row: A x_0 + B u_0 = 1 + 2 u_0
        assert dynamics_row_ulps([[1.0]], [[2.0]], *_path(sol))[-1] <= ROW_ULPS

    def test_endpoint_hit_on_random_instances(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            A, B, Q, R = random_lq_matrices(rng, n, int(rng.integers(1, 3)))
            horizon = n + int(rng.integers(2, 8))
            xf = rng.standard_normal(n)
            sol = lq_transfer_solve(A, B, Q, R, horizon, rng.standard_normal(n), xf)
            assert sol.status is SolveStatus.SOLVED
            assert sol.trajectory.states[-1].tolist() == xf.tolist()
            # the last dynamics row reaches xf to the rounding of its terms
            assert dynamics_row_ulps(A, B, *_path(sol))[-1] <= ROW_ULPS


class TestStatesOfTheSolve:
    """The returned states are the ones the first-order solve matched, so a
    SOLVED transfer ends at xf and certifies however unstable the plant."""

    @pytest.mark.parametrize("case", ["baseline", "diag"])
    def test_unstable_plant_meets_xf_and_certifies(self, case):
        A, B, banned, N = unstable_transfer_plant(case)
        n, m = B.shape
        x0, xf = np.zeros(n), np.ones(n)
        spec = lti_spec(A, B, np.eye(n), np.eye(m), N, x0, xf, banned=banned)
        sol = lq_transfer_freq_solve(
            A, B, np.eye(n), np.eye(m), N, x0, xf, spec.frequency_constraint
        )
        assert sol.status is SolveStatus.SOLVED
        assert sol.trajectory.states[N].tolist() == xf.tolist()
        assert np.max(dynamics_row_ulps(A, B, *_path(sol))) <= ROW_ULPS
        lift = lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu)
        assert verify_pmp(sol.trajectory, lift, spec).passed


class TestTransferFreq:
    def test_empty_ban_reproduces_plain_transfer(self):
        rng = np.random.default_rng(16)
        A, B, Q, R = random_lq_matrices(rng, 2, 2)
        x0 = rng.standard_normal(2)
        xf = rng.standard_normal(2)
        fc = build_frequency_constraint(SupportSpec.all_allowed(6, 2), 6, 2)
        plain = lq_transfer_solve(A, B, Q, R, 6, x0, xf)
        freq = lq_transfer_freq_solve(A, B, Q, R, 6, x0, xf, fc)
        assert np.max(np.abs(plain.trajectory.controls - freq.trajectory.controls)) <= 1e-10
        assert abs(plain.cost - freq.cost) <= 1e-10

    def test_already_feasible_ban_leaves_solution(self):
        fc = build_frequency_constraint(SupportSpec.from_banned([[2]], 4), 4, 1)
        sol = lq_transfer_freq_solve([[1.0]], [[1.0]], [[0.0]], [[1.0]], 4, [0.0], [4.0], fc)
        assert_allclose(sol.trajectory.controls.ravel(), [1.0, 1.0, 1.0, 1.0], atol=1e-10)
        assert sol.cost == pytest.approx(2.0, abs=1e-10)

    def test_symmetric_ban_against_qp_oracle(self):
        fc = build_frequency_constraint(SupportSpec.from_banned([[1, 3]], 4), 4, 1)
        sol = lq_transfer_freq_solve([[1.0]], [[1.0]], [[0.0]], [[1.0]], 4, [0.0], [4.0], fc)
        oracle = transfer_qp_oracle(
            [[1.0]], [[1.0]], [[0.0]], [[1.0]], 4, [0.0], xf=[4.0], freq_matrix=stacked_rows(fc)
        )
        assert _rel_gap(sol.trajectory.controls, oracle["controls"]) < 1e-9
        assert abs(sol.cost - oracle["cost"]) < 1e-9
        assert sol.cost >= 2.0 - 1e-10  # never cheaper than the unconstrained transfer
        comp = forward_dft(sol.trajectory.controls[:, 0])
        assert max(abs(comp[1]), abs(comp[3])) <= 1e-9

    def test_stationarity_and_nulling_invariants(self):
        rng = np.random.default_rng(17)
        solved = 0
        for seed in range(40):
            rng_i = np.random.default_rng(200 + seed)
            n = int(rng_i.integers(1, 4))
            m = int(rng_i.integers(1, 3))
            horizon = int(rng_i.integers(n + 2, 10))
            A, B, Q, R = random_lq_matrices(rng_i, n, m)
            banned = [[] for _ in range(m)]
            banned[int(rng_i.integers(m))] = [int(rng_i.integers(horizon))]
            fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, m)
            if fc.row_count + n > m * horizon:
                continue
            try:
                sol = lq_transfer_freq_solve(
                    A, B, Q, R, horizon, rng_i.standard_normal(n), rng_i.standard_normal(n), fc
                )
            except AbnormalRegimeError:
                continue
            if sol.status is not SolveStatus.SOLVED:
                continue
            solved += 1
            assert np.max(np.abs(constraint_residual(fc, sol.trajectory.controls))) <= 1e-9
            for t in range(horizon):
                stat = (
                    R @ sol.trajectory.controls[t]
                    - B.T @ sol.adjoints[t]
                    + dense_blocks(fc)[t].T @ sol.nu
                )
                assert np.max(np.abs(stat)) <= 1e-9
            for k, b in enumerate(fc.banned()):
                if b:
                    comp = forward_dft(sol.trajectory.controls[:, k])
                    assert np.max(np.abs(comp[list(b)])) <= 1e-9
        assert solved >= 20

    def test_cost_monotone_in_banned_set(self):
        rng = np.random.default_rng(18)
        A, B, Q, R = random_lq_matrices(rng, 2, 1)
        x0 = rng.standard_normal(2)
        xf = rng.standard_normal(2)
        horizon = 10
        fc_small = build_frequency_constraint(SupportSpec.from_banned([[3]], horizon), horizon, 1)
        fc_large = build_frequency_constraint(SupportSpec.from_banned([[3, 5]], horizon), horizon, 1)
        base = lq_transfer_solve(A, B, Q, R, horizon, x0, xf)
        small = lq_transfer_freq_solve(A, B, Q, R, horizon, x0, xf, fc_small)
        large = lq_transfer_freq_solve(A, B, Q, R, horizon, x0, xf, fc_large)
        assert small.cost >= base.cost - 1e-10
        assert large.cost >= small.cost - 1e-10

    def test_all_abnormal_regime_is_refused(self):
        fc = build_frequency_constraint(SupportSpec.from_banned([[0, 1]], 2), 2, 1)
        with pytest.raises(AbnormalRegimeError):
            lq_transfer_freq_solve([[1.0]], [[1.0]], [[0.0]], [[1.0]], 2, [0.0], [0.0], fc)


class TestFirstOrderSystem:
    """The fixed-end and free-end reductions of the one assembled system."""

    sizes = dict(
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        horizon=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )

    @settings(max_examples=60, deadline=None)
    @given(**sizes)
    def test_transfer_zeroes_the_residual(self, n, m, horizon, seed):
        rng = np.random.default_rng(seed)
        A, B, Q, R = random_lq_matrices(rng, n, m)
        x0, xf = rng.standard_normal(n), rng.standard_normal(n)
        spec = lti_spec(
            A, B, Q, R, horizon, x0=x0, xf=xf, banned=random_banned_sets(rng, horizon, m, 3)
        )
        try:
            sol = lq_transfer_freq_solve(A, B, Q, R, horizon, x0, xf, spec.frequency_constraint)
        except AbnormalRegimeError:
            sol = None
        assume(sol is not None and sol.status is SolveStatus.SOLVED)
        z = StackedUnknowns.pack(
            sol.trajectory.states[1:horizon], sol.trajectory.controls, sol.adjoints, sol.nu
        )
        # relative to the unknowns: nearly dependent rows can make nu as large as 1e9
        scale = 1.0 + np.max(np.abs(z.z))
        assert np.max(np.abs(assemble_residual(z, spec, x0, xf))) <= 1e-9 * scale

    @settings(max_examples=60, deadline=None)
    @given(**sizes)
    def test_free_end_matches_riccati(self, n, m, horizon, seed):
        rng = np.random.default_rng(seed)
        A, B, Q, R = random_lq_matrices(rng, n, m)
        x0 = rng.standard_normal(n)
        _, traj_dp = riccati_solve(A, B, Q, R, horizon, x0)
        sol = lq_pmp_solve(A, B, Q, R, horizon, x0)
        assert _rel_gap(traj_dp.controls, sol.trajectory.controls) < 1e-8
        assert _rel_gap(traj_dp.states, sol.trajectory.states) < 1e-8


def _memo_plant(rng, n, m, horizon, radius):
    A, B, Q, R = random_lq_matrices(rng, n, m, spectral_radius=radius)
    return A, B, Q, R, horizon, random_banned_sets(rng, horizon, m, 3)


def _transfer_record(plant, x0, xf):
    """Everything a fixed-end transfer under bans reports, its certificate
    included, as plain values for a bitwise comparison (the verdict alone
    when it is refused)."""
    A, B, Q, R, horizon, banned = plant
    spec = lti_spec(A, B, Q, R, horizon, x0=x0, xf=xf, banned=banned)
    try:
        sol = lq_transfer_freq_solve(A, B, Q, R, horizon, x0, xf, spec.frequency_constraint)
    except AbnormalRegimeError as exc:
        return ["refused", exc.verdict]
    record = [sol.status, sol.normality, sol.nu, sol.cost, sol.ls_residual, sol.endpoint_gap]
    if sol.status is SolveStatus.SOLVED:
        lift = lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu)
        cert = verify_pmp(sol.trajectory, lift, spec)
        record += [*_path(sol), sol.adjoints, cert.passed, repr(dataclasses.astuple(cert))]
    return record


def _same_record(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x, y, equal_nan=True) if isinstance(x, (np.ndarray, float)) else x == y
        for x, y in zip(a, b)
    )


class TestPlantMemo:
    """A transfer's verdict, solution and certificate do not depend on what
    was solved before, although the verdict and the stationary plan of the
    last plant are kept for the next call."""

    def test_interleaved_plants_give_the_empty_memo_answer(self):
        rng = np.random.default_rng(21)
        plant, other = _memo_plant(rng, 3, 2, 48, 0.9), _memo_plant(rng, 2, 1, 40, 0.9)
        e1, e2, e3 = (rng.standard_normal((2, 3)) for _ in range(3))
        with empty_memos():
            ref = _transfer_record(plant, *e2)
        assert ref[0] is SolveStatus.SOLVED and ref[-2] is True  # a certified solve
        _transfer_record(plant, *e1)
        assert _same_record(_transfer_record(plant, *e2), ref)
        _transfer_record(other, *e3[:, :2])
        assert _same_record(_transfer_record(plant, *e2), ref)

    def test_a_plant_without_a_transfer_map_falls_back_to_least_squares(self):
        # built like the benchmark's "unreachable" plants: a stable plant with
        # one more stable mode that no input reaches, so the border is singular
        # and no transfer map is kept; every solve is a least-squares one
        rng = np.random.default_rng(23)
        A1, B1, Q, R = random_lq_matrices(rng, 2, 1, spectral_radius=0.8)
        A = np.zeros((3, 3))
        A[:2, :2], A[2, 2] = A1, 0.7
        B = np.vstack([B1, np.zeros((1, 1))])
        Q = np.eye(3)
        horizon = 16
        fc = build_frequency_constraint(SupportSpec.from_banned([[3]], horizon), horizon, 1)
        x0 = np.array([0.5, -0.5, 0.0])  # the unreached mode stays at 0

        def solve(xf):
            return lq_transfer_freq_solve(A, B, Q, R, horizon, x0, xf, fc)

        with empty_memos():
            refs = [solve(xf) for xf in ([0.3, 0.2, 0.8], [-0.3, 0.1, -0.6])]
        first = solve([0.3, 0.2, 0.8])
        gain, S, Z = kkt._PLANS._entry[1]
        assert gain is not None and Z is None
        hit = solve([-0.3, 0.1, -0.6])
        for got, ref in [(first, refs[0]), (hit, refs[1])]:
            assert got.status is ref.status is SolveStatus.INFEASIBLE
            assert got.ls_residual == ref.ls_residual > 0.5
            assert np.array_equal(got.nu, ref.nu)
        # a target in the reachable subspace still solves, and certifies
        reachable = solve([0.3, 0.2, 0.0])
        assert reachable.status is SolveStatus.SOLVED and reachable.ls_residual <= 1e-12
        spec = lti_spec(A, B, Q, R, horizon, x0=x0, xf=[0.3, 0.2, 0.0], banned=[[3]])
        lift = lift_from_solver(spec, reachable.trajectory, reachable.adjoints, reachable.nu)
        assert verify_pmp(reachable.trajectory, lift, spec).passed

    def test_mismatched_constraint_raises_where_the_key_would_hit(self):
        rng = np.random.default_rng(22)
        A, B, Q, R, horizon, banned = _memo_plant(rng, 2, 1, 16, 0.9)
        fc = build_frequency_constraint(SupportSpec.from_banned([[3]], horizon), horizon, 1)
        x0, xf = rng.standard_normal(2), rng.standard_normal(2)
        assert lq_transfer_freq_solve(A, B, Q, R, horizon, x0, xf, fc).status is SolveStatus.SOLVED
        # A, B and the rows are those just classified; only the horizon differs
        with pytest.raises(ValueError, match="constraint built for"):
            classify_normality_freq(A, B, horizon + 1, fc)
        with pytest.raises(ValueError, match="constraint built for"):
            lq_transfer_freq_solve(A, B, Q, R, horizon + 1, x0, xf, fc)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        calls=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=2, max_size=10),
    )
    def test_any_sequence_gives_the_empty_memo_answers(self, seed, calls):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        horizon = int(rng.integers(1, 33))
        first = _memo_plant(rng, n, m, horizon, rng.uniform(0.1, 1.2))
        plants = [
            first,
            _memo_plant(rng, n, m, horizon, rng.uniform(0.1, 1.2)),
            first[:2] + (2.0 * first[2],) + first[3:],  # the verdict's key, another plan's
            first[:5] + (random_banned_sets(rng, horizon, m, 3),),  # other rows
            # integrators that Q does not weigh: no stationary gain
            (np.eye(n) + np.eye(n, k=1), first[1], np.zeros((n, n))) + first[3:],
        ]
        ends = rng.standard_normal((5, 3, 2, n))
        for p, e in calls:
            got = _transfer_record(plants[p], *ends[p, e])
            with empty_memos():
                assert _same_record(got, _transfer_record(plants[p], *ends[p, e]))
