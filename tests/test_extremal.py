"""Tests for Hamiltonian evaluation, PMP certificates, and normality classification."""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bandctrl import extremal
from bandctrl._memo import LastValue
from bandctrl.cli import BUILTINS

from bandctrl.extremal import (
    AbnormalRegimeError,
    ExtremalLift,
    NormalityClass,
    adjoint_backward,
    classify_normality_classic,
    classify_normality_freq,
    evaluate_hamiltonian,
    lift_from_solver,
    verify_pmp,
)
from bandctrl.lq import lq_transfer_freq_solve, lq_transfer_solve
from bandctrl.lq import SolveStatus
from bandctrl.problem import (
    FREE,
    Box,
    Fixed,
    Free,
    LtiDynamics,
    Trajectory,
    control_affine_spec,
    general_wrap,
    lti_spec,
    rollout,
    trajectory_cost,
    validate,
)
from bandctrl.shooting import SingularJacobianError, newton_solve
from bandctrl.spectrum import FrequencyConstraint, SupportSpec, build_frequency_constraint

from oracles import (
    DenseRows,
    dense_blocks,
    has_nontrivial_nullspace,
    loop_verify_pmp,
    quadratic_cost,
    random_banned_sets,
    random_lq_matrices,
    reachability_stack,
    stacked_rows,
    stage_stack_verify_pmp,
    svd_classify_normality_freq,
)

EPS = float(np.finfo(float).eps)


def _transfer_setup(seed=0, horizon=8, n=2, m=1, banned=None):
    rng = np.random.default_rng(seed)
    A, B, Q, R = random_lq_matrices(rng, n, m)
    x0 = rng.standard_normal(n)
    xf = rng.standard_normal(n)
    spec = lti_spec(A, B, Q, R, horizon, x0=x0, xf=xf, banned=banned)
    sol = lq_transfer_freq_solve(A, B, Q, R, horizon, x0, xf, spec.frequency_constraint)
    return spec, sol


class TestHamiltonian:
    def test_all_zero_multipliers(self):
        spec = lti_spec(np.eye(2), np.eye(2), np.eye(2), np.eye(2), 3, x0=[0.0, 0.0])
        rng = np.random.default_rng(0)
        for _ in range(5):
            value = evaluate_hamiltonian(
                0.0, np.zeros(0), np.zeros(2), 1, rng.standard_normal(2), rng.standard_normal(2), spec
            )
            assert value == 0.0

    def test_identity_example(self):
        spec = lti_spec(np.eye(2), np.eye(2), np.eye(2), np.eye(2), 3, x0=[1.0, 0.0])
        e1 = np.array([1.0, 0.0])
        value = evaluate_hamiltonian(1.0, np.zeros(0), e1, 0, e1, np.zeros(2), spec)
        assert value == pytest.approx(0.5)

    def test_matches_independent_formula(self):
        spec = lti_spec([[0.8, 0.1], [0.0, 1.1]], [[0.2], [1.0]], np.eye(2), [[2.0]], 6,
                        x0=[0.0, 0.0], xf=[1.0, 0.0], banned=[[2]])
        fc = spec.frequency_constraint
        rng = np.random.default_rng(1)
        for _ in range(25):
            t = int(rng.integers(0, 6))
            x = rng.standard_normal(2)
            u = rng.standard_normal(1)
            p = rng.standard_normal(2)
            nu = rng.standard_normal(fc.row_count)
            eta = float(rng.choice([0.0, 1.0]))
            expected = (
                p @ (spec.dynamics.A @ x + spec.dynamics.B @ u)
                - eta * (0.5 * x @ spec.cost.Q @ x + 0.5 * u @ spec.cost.R @ u)
                - nu @ (dense_blocks(fc)[t] @ u)
            )
            got = evaluate_hamiltonian(eta, nu, p, t, x, u, spec)
            assert abs(got - expected) < 1e-12


class TestAdjointBackward:
    def test_homogeneous_recursion_stays_zero(self):
        spec, sol = _transfer_setup(seed=2)
        p = adjoint_backward(sol.trajectory, 0.0, np.zeros(0), np.zeros(2), None, spec)
        assert np.max(np.abs(p)) == 0.0

    def test_lti_recursion_formula(self):
        spec, sol = _transfer_setup(seed=3)
        terminal = -sol.adjoints[-1]
        p = adjoint_backward(sol.trajectory, 1.0, np.zeros(0), terminal, None, spec)
        A, Q = spec.dynamics.A, spec.cost.Q
        for t in range(spec.horizon - 1, 0, -1):
            expected = A.T @ p[t] - Q @ sol.trajectory.states[t]
            assert_allclose(p[t - 1], expected, atol=1e-12)

    def test_reproduces_transfer_solver_adjoints(self):
        spec, sol = _transfer_setup(seed=4, horizon=10)
        p = adjoint_backward(sol.trajectory, 1.0, sol.nu, -sol.adjoints[-1], None, spec)
        assert np.max(np.abs(p - sol.adjoints)) < 1e-8

    def test_rejects_dynamics_violation(self):
        spec, sol = _transfer_setup(seed=5)
        bad_states = sol.trajectory.states.copy()
        bad_states[1] += 1.0
        from bandctrl.problem import Trajectory

        bad = Trajectory(states=bad_states, controls=sol.trajectory.controls)
        with pytest.raises(ValueError, match="dynamics"):
            adjoint_backward(bad, 1.0, np.zeros(0), np.zeros(2), None, spec)


class TestVerifyPmp:
    def test_solver_output_passes(self):
        spec, sol = _transfer_setup(seed=6, banned=[[2]])
        lift = lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu)
        cert = verify_pmp(sol.trajectory, lift, spec, tol=1e-7)
        assert cert.passed
        assert cert.freq_residual <= 1e-9

    def test_trajectory_of_another_horizon_is_named(self):
        spec, sol = _transfer_setup(seed=6, horizon=5)
        lift = lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu)
        longer, _ = _transfer_setup(seed=6, horizon=8)
        with pytest.raises(ValueError, match="horizon, n, m = 5, 2, 1; spec has 8, 2, 1"):
            verify_pmp(sol.trajectory, lift, longer)

    def test_perturbed_control_fails_condition_v(self):
        spec, sol = _transfer_setup(seed=7, banned=[[2]])
        lift = lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu)
        controls = sol.trajectory.controls.copy()
        controls[3, 0] += 1e-3
        perturbed = rollout(spec.dynamics, sol.trajectory.states[0], controls)
        cert = verify_pmp(perturbed, lift, spec, tol=1e-7)
        assert not cert.condition_passed["v"]
        assert cert.hamiltonian_vi_worst > 1e-4

    @settings(max_examples=200, deadline=None)
    @given(horizon=st.integers(1, 24), data=st.data())
    def test_frequency_threshold_is_the_largest_dense_term(self, horizon, data):
        # rows on channels 0 and 1 at any bin, its mirror N - xi included, or
        # none (q = 0); channel 2 carries no rows and may hold NaN or inf
        drawn = data.draw(st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, horizon - 1), st.booleans()), max_size=8
        ))
        rows = {}
        for c, xi, imag in drawn:
            if not (imag and 2 * xi % horizon == 0):
                rows.setdefault((c, min(xi, -xi % horizon), imag), (c, xi, imag))
        channel, bins, imag = (list(col) for col in zip(*rows.values())) if rows else ([], [], [])
        fc = FrequencyConstraint(horizon, 3, channel, bins, imag)
        spec = lti_spec(np.eye(2), np.ones((2, 3)), np.eye(2), np.eye(3), horizon)
        spec = dataclasses.replace(spec, frequency_constraint=fc)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u = rng.uniform(-1, 1, (horizon, 3)) * 10.0 ** rng.integers(-3, 4, (horizon, 3))
        u[:, 2] = data.draw(st.sampled_from([0.0, 1.0, np.nan, np.inf, -np.inf]))
        lift = ExtremalLift(1.0, np.ones(fc.row_count), np.ones((horizon, 2)), np.zeros((horizon + 1, 2)))
        with np.errstate(all="ignore"):
            cert = verify_pmp(Trajectory(np.zeros((horizon + 1, 2)), u), lift, spec, tol=1e-7)
        rowless = np.where(np.arange(3) == 2, 0.0, u)  # F_t has zero columns there
        largest = np.max(np.abs(DenseRows(dense_blocks(fc)).stage_terms(rowless)), initial=0.0)
        assert cert.thresholds["freq_residual"] == 1e-7 * (1 + largest)

    def test_all_zero_lift_fails_nontriviality(self):
        spec, sol = _transfer_setup(seed=8)
        q = spec.frequency_constraint.row_count
        lift = ExtremalLift(0.0, np.zeros(q), np.zeros((spec.horizon, 2)), np.zeros((spec.horizon + 1, 2)))
        cert = verify_pmp(sol.trajectory, lift, spec)
        assert not cert.nontrivial and not cert.passed

    def test_negative_eta_fails_nonnegativity(self):
        spec, sol = _transfer_setup(seed=9)
        lift = lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu, eta_c=-1.0)
        cert = verify_pmp(sol.trajectory, lift, spec)
        assert not cert.nonneg

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_verdicts_invariant_under_lift_scaling(self, scale):
        spec, sol = _transfer_setup(seed=10, banned=[[1]])
        base = lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu)
        scaled = ExtremalLift(
            base.eta_c * scale,
            base.nu * scale,
            base.adjoints * scale,
            base.state_multipliers * scale,
        )
        ref = verify_pmp(sol.trajectory, base, spec)
        got = verify_pmp(sol.trajectory, scaled, spec)
        assert got.condition_passed == ref.condition_passed
        # a failing certificate stays failing under scaling as well
        controls = sol.trajectory.controls.copy()
        controls[0, 0] += 5e-3
        bad_traj = rollout(spec.dynamics, sol.trajectory.states[0], controls)
        assert (
            verify_pmp(bad_traj, scaled, spec).condition_passed["v"]
            == verify_pmp(bad_traj, base, spec).condition_passed["v"]
            == False  # noqa: E712
        )

    def test_free_start_requires_zero_gradient(self):
        # free initial set: eta_x_0 must vanish, so a nonzero dH/dx at t=0 fails (iv)
        spec, sol = _transfer_setup(seed=11)
        free_spec = lti_spec(
            spec.dynamics.A, spec.dynamics.B, spec.cost.Q, spec.cost.R, spec.horizon,
            x0=None, xf=sol.trajectory.states[-1],
        )
        lift = lift_from_solver(free_spec, sol.trajectory, sol.adjoints, sol.nu)
        cert = verify_pmp(sol.trajectory, lift, free_spec)
        assert not cert.condition_passed["iv"]

    def test_endpoint_off_its_fixed_point_fails_iv(self):
        # solved to xf = [1, 0], judged against the same problem with xf = [5, 0]
        A, B, Q, R = [[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], np.eye(2), [[1.0]]
        specs = [
            lti_spec(A, B, Q, R, 16, x0=[0.0, 0.0], xf=xf, banned=[[3]])
            for xf in ([1.0, 0.0], [5.0, 0.0])
        ]
        sol = lq_transfer_freq_solve(
            A, B, Q, R, 16, [0.0, 0.0], [1.0, 0.0], specs[0].frequency_constraint
        )
        right, wrong = (
            verify_pmp(sol.trajectory, lift_from_solver(s, sol.trajectory, sol.adjoints, sol.nu), s)
            for s in specs
        )
        assert right.passed
        assert not wrong.passed and not wrong.condition_passed["iv"]
        assert wrong.set_violation == pytest.approx(4.0)

    @pytest.mark.parametrize("field, condition", [("state_sets", "iii"), ("control_sets", "v")])
    def test_leaving_a_box_fails(self, field, condition):
        spec, sol = _transfer_setup(seed=12)
        points = sol.trajectory.states if field == "state_sets" else sol.trajectory.controls
        sets = list(getattr(spec, field))
        sets[3] = Box(points[3] + 1.0, points[3] + 2.0)
        boxed = dataclasses.replace(spec, **{field: tuple(sets)})
        lift = lift_from_solver(boxed, sol.trajectory, sol.adjoints, sol.nu)
        cert = verify_pmp(sol.trajectory, lift, boxed)
        assert not cert.condition_passed[condition] and not cert.passed
        assert cert.set_violation == pytest.approx(1.0)

    def test_box_control_set_at_active_bound(self):
        # minimum-energy transfer clipped by the box: at an active upper bound the
        # inequality only needs to hold along the inward direction
        A, B = np.array([[1.0]]), np.array([[1.0]])
        Q, R = np.array([[0.0]]), np.array([[1.0]])
        horizon, x0, xf = 4, np.array([0.0]), np.array([4.0])
        sol = lq_transfer_solve(A, B, Q, R, horizon, x0, xf)
        spec_box = lti_spec(A, B, Q, R, horizon, x0=x0, xf=xf)
        spec_box = spec_box.__class__(
            horizon=horizon,
            dynamics=spec_box.dynamics,
            cost=spec_box.cost,
            state_sets=spec_box.state_sets,
            control_sets=(Box([0.0], [1.0]),) * horizon,
            supports=spec_box.supports,
            frequency_constraint=spec_box.frequency_constraint,
        )
        lift = lift_from_solver(spec_box, sol.trajectory, sol.adjoints, sol.nu)
        cert = verify_pmp(sol.trajectory, lift, spec_box)
        # u = 1 sits exactly on the upper bound; dH/du = p - u = 0 here, so it passes
        assert cert.condition_passed["v"]

    def test_infinite_box_bounds_are_never_active(self):
        # u = 1 is not extremal for the scalar integrator with a free end, and
        # the whole line as a box must be judged like the free set
        one = np.array([[1.0]])
        spec = lti_spec(one, one, one, one, 4, x0=[0.0])
        traj = rollout(spec.dynamics, [0.0], np.ones((4, 1)))
        lift = lift_from_solver(spec, traj, adjoint_backward(traj, 1.0, [], [0.0], None, spec))
        free = verify_pmp(traj, lift, spec)
        line = dataclasses.replace(spec, control_sets=(Box([-np.inf], [np.inf]),) * 4)
        assert not free.passed and free.hamiltonian_vi_worst == pytest.approx(7 / 6)
        assert verify_pmp(traj, lift, line).to_dict() == free.to_dict()

    def test_nan_adjoint_is_reported_not_read_as_zero(self):
        # a NaN control gradient must show in the variational inequality; it
        # used to read as the vacuous 0
        one = np.array([[1.0]])
        spec = lti_spec(one, one, one, one, 4, x0=[0.0])
        traj = rollout(spec.dynamics, [0.0], np.ones((4, 1)))
        lift = lift_from_solver(spec, traj, adjoint_backward(traj, 1.0, [], [0.0], None, spec))
        p = lift.adjoints.copy()
        p[1, 0] = np.nan
        cert = verify_pmp(traj, dataclasses.replace(lift, adjoints=p), spec)
        assert np.isnan(cert.hamiltonian_vi_worst)
        assert not cert.condition_passed["v"] and not cert.passed


def _random_set(rng, point, allow_fixed=True, allow_box=True):
    """Free (a ``Free()`` that is not ``FREE`` half the time), Fixed at the
    point, or a Box with each bound active, 0.5 away or infinite, or
    infinite on every side."""
    kind = rng.choice(["free"] + ["fixed"] * allow_fixed + ["box"] * allow_box)
    if kind == "free":
        return FREE if rng.random() < 0.5 else Free()
    if kind == "fixed":
        return Fixed(point.copy())
    offsets = [0.0, 0.5, np.inf]
    if rng.random() < 0.2:
        offsets = [np.inf]
    return Box(point - rng.choice(offsets, point.size), point + rng.choice(offsets, point.size))


def _certificate_inputs(rng, model, n, m, horizon, eta_c):
    """A spec with random stage sets around a trajectory, and a lift.

    With eta_c = 1 the trajectory and multipliers mostly come from a solver
    (``lq_transfer_freq_solve`` or ``newton_solve``); otherwise the controls
    are random, projected onto the frequency constraint, rolled out, and the
    adjoints come from the backward sweep.  The endpoints are mostly fixed
    where the trajectory ends, so that every condition passes on some draws.
    """
    toy = model.endswith("toy")
    if toy:
        x0, xf = rng.uniform(-0.5, 0.5, 1), rng.uniform(-1.0, 2.0, 1)
    else:
        x0, xf = rng.standard_normal(n), rng.standard_normal(n)
    banned = random_banned_sets(rng, horizon, m, 3)
    if toy:
        spec = control_affine_spec(BUILTINS["affine_toy"](), [[1.0]], [[1.0]], horizon, x0, xf, banned)
    else:
        A, B, Q, R = random_lq_matrices(rng, n, m, spectral_radius=rng.uniform(0.3, 1.1))
        spec = lti_spec(A, B, Q, R, horizon, x0=x0, xf=xf, banned=banned)
    fc = spec.frequency_constraint
    solved = None
    if eta_c == 1.0 and rng.random() < 0.7:
        try:
            if toy:
                shot = newton_solve(spec, x0, xf)
                if shot.converged:
                    solved = shot.trajectory, shot.lift.adjoints, shot.lift.nu
            else:
                sol = lq_transfer_freq_solve(A, B, Q, R, horizon, x0, xf, fc)
                if sol.status is SolveStatus.SOLVED:
                    solved = sol.trajectory, sol.adjoints, sol.nu
        except (AbnormalRegimeError, SingularJacobianError):
            pass
    if model.startswith("wrap"):
        spec = dataclasses.replace(spec, dynamics=general_wrap(spec.dynamics))
    if solved is not None:
        traj, adjoints, nu = solved
    else:
        u = 0.3 * rng.standard_normal(horizon * m)
        if fc.row_count:
            F = stacked_rows(fc)
            u -= F.T @ np.linalg.solve(F @ F.T, F @ u)
        traj = rollout(spec.dynamics, x0, u.reshape(horizon, m))
        nu = rng.standard_normal(fc.row_count)
        adjoints = adjoint_backward(traj, eta_c, nu, rng.standard_normal(n), None, spec)
    boxes = rng.random() < 0.5  # without boxes the certificate reads the fixed stages alone
    state_sets = [
        _random_set(rng, x, allow_box=boxes) if rng.random() < 0.3 else FREE for x in traj.states
    ]
    for t in (0, horizon):
        if rng.random() < 0.75:
            state_sets[t] = Fixed(traj.states[t].copy())
    control_sets = [
        _random_set(rng, u, allow_fixed=False, allow_box=boxes) if rng.random() < 0.3 else FREE
        for u in traj.controls
    ]
    spec = dataclasses.replace(spec, state_sets=tuple(state_sets), control_sets=tuple(control_sets))
    return spec, traj, lift_from_solver(spec, traj, adjoints, nu, eta_c=eta_c)


def _perturbed(rng, traj, lift, size):
    """Each of states, controls, adjoints, nu and the state multipliers moved
    by ``size`` relative noise with probability one half."""
    def move(a):
        a = np.asarray(a, dtype=float)
        if rng.random() < 0.5:
            return a
        return a + size * (1.0 + np.abs(a)) * rng.standard_normal(a.shape)

    traj = Trajectory(states=move(traj.states), controls=move(traj.controls))
    lift = ExtremalLift(lift.eta_c, move(lift.nu), move(lift.adjoints), move(lift.state_multipliers))
    return traj, lift


class TestVerifyPmpAgainstLoopOracle:
    FIELDS = (
        "state_dyn_residual", "adjoint_dyn_residual", "transversality_residual",
        "hamiltonian_vi_worst", "freq_residual", "set_violation",
    )

    @settings(max_examples=200, deadline=None)
    @given(
        model=st.sampled_from(["lti", "wrap_lti", "toy", "wrap_toy"]),
        n=st.integers(1, 4),
        m=st.integers(1, 2),
        horizon=st.integers(1, 64),
        eta_c=st.sampled_from([0.0, 1.0]),
        noise=st.sampled_from([0.0, 1e-10, 1e-7, 1e-4, 1e-1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batched_certificate_matches_stage_loop(self, model, n, m, horizon, eta_c, noise, seed):
        rng = np.random.default_rng(seed)
        if model.endswith("toy"):
            n = m = 1
        spec, traj, lift = _certificate_inputs(rng, model, n, m, horizon, eta_c)
        traj, lift = _perturbed(rng, traj, lift, noise)
        tol = 1e-7
        comparisons = []
        ref = loop_verify_pmp(traj, lift, spec, tol=tol, comparisons=comparisons)
        got = verify_pmp(traj, lift, spec, tol=tol)
        assert (got.nonneg, got.nontrivial) == (ref.nonneg, ref.nontrivial)
        for key, passed in ref.condition_passed.items():
            if got.condition_passed[key] != passed:
                # only a residual within rounding of its threshold may flip a verdict
                assert any(
                    cond == key and abs(value - bound) <= 1e-9 * bound
                    for cond, _, value, bound in comparisons
                ), key
        for field in self.FIELDS:
            # the thresholds are tol * (1 + scale)
            scale = max(bound / tol for _, name, _, bound in comparisons if name == field)
            assert abs(getattr(got, field) - getattr(ref, field)) <= 1e-12 * scale, field
        # the reported thresholds are the oracle's; every state, x_N
        # included, is judged against the one state bound
        expected = {}
        for cond, name, _, bound in comparisons:
            if name == "set_violation":
                name = "control_set_violation" if cond == "v" else "state_set_violation"
            assert expected.setdefault(name, bound) == bound, name
        assert got.thresholds.keys() == expected.keys()
        for name, bound in expected.items():
            assert got.thresholds[name] == pytest.approx(bound, rel=1e-12, abs=0.0), name


class TestVerifyPmpAgainstStageStacks:
    """For LTI dynamics the certificate takes the adjoint products from A and
    B, which moves its fields by rounding; for any other model it is the
    stage-stack form bit for bit, NaN and infinite inputs included."""

    FIELDS = TestVerifyPmpAgainstLoopOracle.FIELDS

    @settings(max_examples=300, deadline=None)
    @given(
        model=st.sampled_from(["lti", "wrap_lti", "toy", "wrap_toy"]),
        n=st.integers(1, 4),
        m=st.integers(1, 2),
        horizon=st.integers(1, 48),
        eta_c=st.sampled_from([0.0, 1.0]),
        noise=st.sampled_from([0.0, 1e-10, 1e-7, 1e-4, 1e-1]),
        special=st.sampled_from([None, np.nan, np.inf, -np.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certificate_matches_the_stage_stack_form(
        self, model, n, m, horizon, eta_c, noise, special, seed
    ):
        rng = np.random.default_rng(seed)
        if model.endswith("toy"):
            n = m = 1
        spec, traj, lift = _certificate_inputs(rng, model, n, m, horizon, eta_c)
        traj, lift = _perturbed(rng, traj, lift, noise)
        if special is not None:  # one entry of a state, control or multiplier
            arrays = [traj.states.copy(), traj.controls.copy(), lift.adjoints.copy(),
                      lift.state_multipliers.copy(), lift.nu.copy()]
            target = arrays[rng.integers(5)]
            if target.size:
                target.flat[rng.integers(target.size)] = special
            traj = Trajectory(arrays[0], arrays[1])
            lift = ExtremalLift(lift.eta_c, arrays[4], arrays[2], arrays[3])
        with np.errstate(all="ignore"):
            got = verify_pmp(traj, lift, spec)
            ref = stage_stack_verify_pmp(traj, lift, spec)
        assert got.passed == ref.passed and got.condition_passed == ref.condition_passed
        if not isinstance(spec.dynamics, LtiDynamics):
            assert _bits(got) == _bits(ref)
            return
        assert (got.nonneg, got.nontrivial) == (ref.nonneg, ref.nontrivial)
        # a product with A or B rounds its n terms in another order, off by up
        # to about n eps of their size, (1 + |A| + |B|) times that of the
        # scaled multipliers and the states; 20000 draws moved by 5 eps at most
        A, B = spec.dynamics.A, spec.dynamics.B
        rounding = 8 * n * EPS * (1.0 + np.linalg.norm(A, np.inf) + np.linalg.norm(B, np.inf))

        def close(a, b, size):
            return a == b or abs(a - b) <= rounding * size or (np.isnan(a) and np.isnan(b))

        for name, bound in ref.thresholds.items():
            assert close(got.thresholds[name], bound, bound), name
        for field in self.FIELDS:  # rounding relative to 1 + scale
            bound = ref.thresholds["state_set_violation" if field == "set_violation" else field]
            assert close(getattr(got, field), getattr(ref, field), bound / ref.tol), field


def _bits(cert) -> str:
    """The certificate with every float written exactly."""
    return json.dumps(cert.to_dict(), sort_keys=True)


class TestSetArrays:
    """A spec carries its stage sets as the arrays that validate built; a
    spec that validate did not return reads them from its own sets."""

    def test_replaced_sets_are_read_afresh(self):
        spec, sol = _transfer_setup(seed=3)
        traj = sol.trajectory
        lift = lift_from_solver(spec, traj, sol.adjoints, sol.nu)
        assert verify_pmp(traj, lift, spec).passed
        boxed = dataclasses.replace(
            spec, control_sets=tuple(Box(u + 1.0, u + 2.0) for u in traj.controls)
        )
        assert boxed.set_arrays is None
        cert = verify_pmp(traj, lift, boxed)
        assert not cert.condition_passed["v"] and cert.set_violation == pytest.approx(1.0)
        assert _bits(cert) == _bits(verify_pmp(traj, lift, validate(boxed)))
        freed = dataclasses.replace(validate(boxed), control_sets=spec.control_sets)
        assert _bits(verify_pmp(traj, lift, freed)) == _bits(verify_pmp(traj, lift, spec))

    def test_a_list_changed_after_validate_leaves_the_spec_as_it_was(self):
        spec, sol = _transfer_setup(seed=3)
        traj = sol.trajectory
        lift = lift_from_solver(spec, traj, sol.adjoints, sol.nu)
        states, controls = list(spec.state_sets), list(spec.control_sets)
        checked = validate(dataclasses.replace(spec, state_sets=states, control_sets=controls))
        states[1] = Fixed(traj.states[1] + 1.0)
        controls[0] = Box(traj.controls[0] + 1.0, traj.controls[0] + 2.0)
        assert type(checked.state_sets) is type(checked.control_sets) is tuple
        assert checked.state_sets[1] is checked.control_sets[0] is FREE
        assert _bits(verify_pmp(traj, lift, checked)) == _bits(verify_pmp(traj, lift, spec))

    @settings(max_examples=60, deadline=None)
    @given(
        model=st.sampled_from(["lti", "wrap_lti", "toy"]),
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        horizon=st.integers(1, 24),
        eta_c=st.sampled_from([0.0, 1.0]),
        noise=st.sampled_from([0.0, 1e-7, 1e-1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unvalidated_spec_certifies_like_its_validated_twin(
        self, model, n, m, horizon, eta_c, noise, seed
    ):
        rng = np.random.default_rng(seed)
        if model.endswith("toy"):
            n = m = 1
        spec, traj, lift = _certificate_inputs(rng, model, n, m, horizon, eta_c)
        traj, lift = _perturbed(rng, traj, lift, noise)
        twin = validate(spec)
        assert spec.set_arrays is None and twin.set_arrays is not None
        assert _bits(verify_pmp(traj, lift, spec)) == _bits(verify_pmp(traj, lift, twin))


class TestStageEvaluationAtLongHorizon:
    def test_lti_certificate_and_cost_make_no_stage_calls(self):
        calls = []

        class CountedLti(LtiDynamics):
            def step(self, t, x, u):
                calls.append("step")
                return super().step(t, x, u)

            def jac_x(self, t, x, u):
                calls.append("jac_x")
                return super().jac_x(t, x, u)

            def jac_u(self, t, x, u):
                calls.append("jac_u")
                return super().jac_u(t, x, u)

        A, B = np.array([[0.9, 0.2], [0.0, 0.8]]), np.array([[0.0], [1.0]])
        Q, R, N = np.eye(2), np.eye(1), 4096
        x0, xf = np.array([1.0, -1.0]), np.array([0.5, 0.0])
        spec = lti_spec(A, B, Q, R, N, x0=x0, xf=xf, banned=[[3, 17, 100]])
        sol = lq_transfer_freq_solve(A, B, Q, R, N, x0, xf, spec.frequency_constraint)
        assert sol.status is SolveStatus.SOLVED
        lift = lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu)
        counted = dataclasses.replace(spec, dynamics=CountedLti(A, B))
        tracemalloc.start()
        try:
            cert = verify_pmp(sol.trajectory, lift, counted)
            cost = trajectory_cost(counted.cost, sol.trajectory)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == []
        assert peak < 64 * 2**20
        assert cert.passed
        states, controls = sol.trajectory.states, sol.trajectory.controls
        assert cost == pytest.approx(quadratic_cost(Q, R, states, controls), rel=1e-12)


class TestNormalityClassic:
    def test_identity_pair(self):
        verdict = classify_normality_classic(np.eye(2), np.eye(2), 2)
        assert verdict.classification is NormalityClass.ALL_NORMAL
        assert verdict.rank_reachability == 2

    def test_chain_integrator(self):
        verdict = classify_normality_classic([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], 3)
        assert verdict.classification is NormalityClass.ALL_NORMAL
        assert verdict.rank_reachability == 2

    def test_uncontrollable_pair(self):
        verdict = classify_normality_classic(np.eye(2), [[1.0], [0.0]], 5)
        assert verdict.classification is NormalityClass.UNDETERMINED
        assert verdict.rank_reachability == 1

    def test_short_horizon_that_reaches_every_state_is_normal(self):
        # N = 2 < n = 3, but [B, AB] = [I, I] reaches every state
        A, B = np.eye(3), np.eye(3)
        verdict = classify_normality_classic(A, B, 2)
        oracle = svd_classify_normality_freq(A, B, 2, FrequencyConstraint(2, 3))
        assert verdict.classification is oracle.classification is NormalityClass.ALL_NORMAL
        assert verdict.rank_reachability == oracle.rank_reachability == 3

    def test_more_states_than_inputs_is_all_abnormal(self):
        # the triple integrator over N = 2: n = 3 > m N = 2
        verdict = classify_normality_classic(np.eye(3) + np.eye(3, k=1), [[0.0], [0.0], [1.0]], 2)
        assert verdict.classification is NormalityClass.ALL_ABNORMAL
        assert (verdict.rank_reachability, verdict.dims) == (2, (3, 1, 2, 0))

    def test_growing_mode_past_the_floating_point_range_is_normal(self):
        # 10^399 overflows, but the classic test raises no power past A^(n-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = classify_normality_classic([[10.0]], [[1.0]], 400)
        assert verdict.classification is NormalityClass.ALL_NORMAL
        assert (verdict.rank_reachability, verdict.rank_augmented, verdict.margin) == (1, 1, 1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 2),
        horizon=st.integers(1, 11),
        radius=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_svd_oracle(self, n, m, horizon, radius, seed):
        # the q = 0 case of the frequency test; about 30 % of the plants
        # leave x_0 undriven: nothing moves it but itself
        rng = np.random.default_rng(seed)
        A, B, _, _ = random_lq_matrices(rng, n, m, spectral_radius=radius)
        if rng.random() < 0.3:
            A[0, 1:] = 0.0
            B[0] = 0.0
        verdict = classify_normality_classic(A, B, horizon)
        oracle = svd_classify_normality_freq(A, B, horizon, FrequencyConstraint(horizon, m))
        assert verdict.classification is oracle.classification
        assert verdict.rank_reachability == oracle.rank_reachability
        assert verdict.rank_augmented == oracle.rank_augmented


# smallest sine of the principal angles on the baseline plant at N = 1024
MARGIN_REFERENCE = 0.48428750941812104


def _baseline_plant(horizon):
    """The ROADMAP baseline instance: n = 4, m = 2, A = I + 0.1 randn,
    channel 0 banning 1..N/8-1 and channel 1 N/4..N/4+N/16-1."""
    rng = np.random.default_rng(0)
    A = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 2))
    banned = [range(1, horizon // 8), range(horizon // 4, horizon // 4 + horizon // 16)]
    spec = SupportSpec.from_banned([list(b) for b in banned], horizon)
    return A, B, build_frequency_constraint(spec, horizon, 2)


class TestNormalityFreq:
    def test_no_rows_reduces_to_classic(self):
        fc = build_frequency_constraint(SupportSpec.all_allowed(4, 1), 4, 1)
        verdict = classify_normality_freq([[1.0]], [[1.0]], 4, fc)
        assert verdict.classification is NormalityClass.ALL_NORMAL
        assert verdict.dims == (1, 1, 4, 0)

    def test_overconstrained_is_all_abnormal(self):
        fc = build_frequency_constraint(SupportSpec.from_banned([[0, 1]], 2), 2, 1)
        assert fc.row_count == 2
        verdict = classify_normality_freq([[1.0]], [[1.0]], 2, fc)
        assert verdict.classification is NormalityClass.ALL_ABNORMAL
        # with everything banned the only feasible control is u = 0
        assert np.linalg.matrix_rank(stacked_rows(fc)) == 2

    def test_single_ban_independent_rows(self):
        fc = build_frequency_constraint(SupportSpec.from_banned([[2]], 4), 4, 1)
        verdict = classify_normality_freq([[1.0]], [[1.0]], 4, fc)
        aug = np.hstack([reachability_stack([[1.0]], [[1.0]], 4), -stacked_rows(fc).T])
        assert np.linalg.matrix_rank(aug) == 2
        assert verdict.classification is NormalityClass.ALL_NORMAL
        assert verdict.rank_augmented == 2

    def test_agrees_with_nullspace_oracle(self):
        agreements = 0
        for seed in range(100):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            horizon = int(rng.integers(2, 8))
            A, B, Q, R = random_lq_matrices(rng, n, m)
            banned = [[] for _ in range(m)]
            for _ in range(int(rng.integers(0, 3))):
                banned[int(rng.integers(m))].append(int(rng.integers(horizon)))
            fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, m)
            verdict = classify_normality_freq(A, B, horizon, fc)
            aug = np.hstack(
                [reachability_stack(A, B, horizon), -stacked_rows(fc).T]
                if fc.row_count
                else [reachability_stack(A, B, horizon)]
            )
            nontrivial = has_nontrivial_nullspace(aug)
            if verdict.classification is NormalityClass.ALL_NORMAL:
                assert not nontrivial
            else:
                assert nontrivial
            agreements += 1
        assert agreements == 100

    @pytest.mark.parametrize(
        "horizon, m, banned",
        [(1, 1, [[0]]), (8, 1, [[]]), (9, 2, [[1, 2], [4]]), (256, 2, [range(1, 32), range(64, 80)])],
    )
    def test_frequency_block_is_the_stacked_transposes(self, monkeypatch, horizon, m, banned):
        spec = SupportSpec.from_banned([list(b) for b in banned], horizon)
        fc = build_frequency_constraint(spec, horizon, m)
        seen = []

        def spy(constraint, basis):
            got = sines(constraint, basis)
            seen.append((constraint, basis, got))
            return got

        sines = extremal._frequency_sines
        monkeypatch.setattr(extremal, "_VERDICTS", LastValue())  # an empty memo: the sines are computed
        monkeypatch.setattr(extremal, "_frequency_sines", spy)
        rng = np.random.default_rng(horizon)
        classify_normality_freq(rng.standard_normal((2, 2)), rng.standard_normal((2, m)), horizon, fc)
        gmat = np.vstack([dense_blocks(fc)[t].T for t in range(horizon)])
        if fc.row_count == 0:
            assert seen == []  # no frequency rows, no angles
        else:
            ((constraint, basis, got),) = seen
            assert constraint is fc
            assert np.array_equal(stacked_rows(constraint).T, gmat)
            # the sines against the dense stacked transposes, normalized numerically
            norms = np.linalg.norm(gmat, axis=0)[:, None]
            cos = gmat.T @ basis / norms
            dense = np.linalg.svd(basis - gmat @ (cos / norms), compute_uv=False)
            assert np.max(np.abs(got - dense)) <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(
        plant=st.sampled_from(["random", "unit_mode", "flip_mode", "uncontrollable"]),
        n=st.integers(1, 4),
        m=st.integers(1, 2),
        horizon=st.integers(1, 64),
        radius=st.floats(0.1, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_svd_oracle(self, plant, n, m, horizon, radius, seed):
        # rho(A) <= 1, where the ranks of the raw stack are reliable; the
        # planted modes make exact abnormal lifts and rank deficiency
        rng = np.random.default_rng(seed)
        A, B, _, _ = random_lq_matrices(rng, n, m, spectral_radius=radius)
        banned = random_banned_sets(rng, horizon, m, 5)
        if plant != "random" and n > 1:
            A[0, :] = 0.0
            A[1:, 0] = 0.0
            A[1:, 1:] = random_lq_matrices(rng, n - 1, m, spectral_radius=radius)[0]
            if plant == "uncontrollable":
                A[0, 0] = rng.uniform(-1.0, 1.0)
                A[1:, 0] = rng.standard_normal(n - 1)  # x_0 drives the rest; nothing drives x_0
                B[0] = 0.0
            else:
                A[0, 0] = 1.0 if plant == "unit_mode" else -1.0
                if rng.random() < 0.7:  # ban the component that the mode makes
                    banned[0].append(0 if plant == "unit_mode" else horizon // 2)
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, m)
        verdict = classify_normality_freq(A, B, horizon, fc)
        oracle = svd_classify_normality_freq(A, B, horizon, fc)
        assert verdict.classification is oracle.classification
        assert verdict.rank_reachability == oracle.rank_reachability
        assert verdict.rank_augmented == oracle.rank_augmented
        assert 0.0 <= verdict.margin <= 1.0 + 1e-12

    @pytest.mark.parametrize("horizon", [64, 256, 400, 1024, 4096])
    def test_unstable_plant_stays_normal(self, horizon):
        # rho(A)^N runs from 4.5e2 to 1e169; the raw-stack ranks gave
        # UNDETERMINED from N = 400 on
        fc = build_frequency_constraint(SupportSpec.from_banned([[1]], horizon), horizon, 1)
        verdict = classify_normality_freq(np.diag([1.1, 0.9]), [[1.0], [1.0]], horizon, fc)
        assert verdict.classification is NormalityClass.ALL_NORMAL
        assert verdict.margin >= 0.5
        assert verdict.rank_augmented == 2 + fc.row_count

    @pytest.mark.parametrize("horizon", [64, 256, 1024, 4096])
    def test_unstable_plant_keeps_an_exact_abnormal_lift(self, horizon):
        # A has the mode 1 beside the growing mode 1.125, and lambda = (1, -1)
        # has lambda'A = lambda' exactly (dyadic entries): the row sequence
        # lambda'B is constant, and the DC ban spans it.  One QR of the whole
        # stack loses that mode under 1.125^N and reads ALL_NORMAL from N = 1024
        fc = build_frequency_constraint(SupportSpec.from_banned([[0, 3]], horizon), horizon, 1)
        A, B = np.array([[0.875, 0.25], [-0.125, 1.25]]), np.array([[1.0], [0.0]])
        verdict = classify_normality_freq(A, B, horizon, fc)
        assert verdict.classification is NormalityClass.UNDETERMINED
        assert verdict.margin < 1e-11
        assert verdict.rank_augmented == 2 + fc.row_count - 1

    @pytest.mark.parametrize("horizon", [64, 256, 1024])
    def test_weakly_reachable_growing_mode_keeps_an_exact_abnormal_lift(self, horizon):
        # e_0'A = e_0' exactly, so the DC ban meets the constant sequence e_0'B;
        # the growing mode 1.25 is reached through a 2^-10 input entry.  Written
        # in the singular basis of the controllability matrix instead of its
        # own, this plant measured margins of 1e-11 to 1e-9 and read ALL_NORMAL
        A = np.array([[1.0, 0.0, 0.0], [0.0625, 0.5, 0.0], [-0.125, 0.0, 1.25]])
        B = np.array([[1.0], [64.0], [2.0**-10]])
        fc = build_frequency_constraint(SupportSpec.from_banned([[0, 5]], horizon), horizon, 1)
        verdict = classify_normality_freq(A, B, horizon, fc)
        assert verdict.classification is NormalityClass.UNDETERMINED
        assert verdict.margin < 1e-12

    def test_baseline_plant_at_long_horizon(self):
        # the baseline instance (rho(A) = 1.088, rho^N = 5e37) at N = 1024;
        # the margin against the smallest sine of a 90-digit Gram-Schmidt
        # basis of the stack (mpmath), taken to double precision
        horizon = 1024
        A, B, fc = _baseline_plant(horizon)
        verdict = classify_normality_freq(A, B, horizon, fc)
        assert verdict.classification is NormalityClass.ALL_NORMAL
        assert verdict.rank_augmented == 4 + fc.row_count
        assert verdict.margin == pytest.approx(MARGIN_REFERENCE, abs=1e-12)

    def test_dc_ban_on_the_integrator_is_abnormal(self):
        fc = build_frequency_constraint(SupportSpec.from_banned([[0]], 16), 16, 1)
        verdict = classify_normality_freq([[1.0]], [[1.0]], 16, fc)
        assert verdict.classification is NormalityClass.UNDETERMINED
        assert verdict.margin < 1e-12
        assert verdict.rank_augmented == 1

    def test_overflowing_rows_are_undetermined_without_a_warning(self):
        # 1.5^2048 = 1e360 is past the floating-point range
        fc = build_frequency_constraint(SupportSpec.from_banned([[1]], 2048), 2048, 1)
        A, B = np.diag([1.5, 0.5]), [[1.0], [1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = classify_normality_freq(A, B, 2048, fc)
            classic = classify_normality_classic(A, B, 2048)
        assert verdict.classification is NormalityClass.UNDETERMINED
        assert (verdict.margin, verdict.rank_augmented) == (0.0, 0)
        # the classic test raises no power past A^(n-1)
        assert classic.classification is NormalityClass.ALL_NORMAL
        assert classic.to_dict()["margin"] == 1.0

    def test_overflowing_controllability_blocks_are_undetermined_without_a_warning(self):
        # A B overflows: 10 * 1.8e307; the SVD of those blocks did not converge
        A, B = np.diag([0.0, 0.0, 10.0]), np.diag([0.0, 0.0, 1.797693134862316e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = classify_normality_freq(A, B, 3, FrequencyConstraint(3, 3))
            classic = classify_normality_classic(A, B, 3)
        for v in (verdict, classic):
            assert v.classification is NormalityClass.UNDETERMINED
            assert (v.margin, v.rank_reachability, v.rank_augmented) == (0.0, 0, 0)

    def test_no_tall_svd_and_linear_memory(self, monkeypatch):
        # the baseline plant at N = 4096 (q = 1534): a dense copy of the
        # 8192 x 1534 frequency block alone is 100 MB
        horizon = 4096
        A, B, fc = _baseline_plant(horizon)
        shapes = []
        svd = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(extremal, "_VERDICTS", LastValue())  # an empty memo: the SVDs run
        monkeypatch.setattr(np.linalg, "svd", spy)
        tracemalloc.start()
        try:
            verdict = classify_normality_freq(A, B, horizon, fc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.classification is NormalityClass.ALL_NORMAL
        assert fc.row_count == 1534
        assert shapes and all(min(shape) <= 4 for shape in shapes)
        assert peak < 64 * 2**20

    def test_rejects_dependent_rows(self):
        fc = build_frequency_constraint(SupportSpec.from_banned([[2]], 4), 4, 1)
        with pytest.raises(ValueError, match="dependent"):
            fc.__class__(
                4, 1,
                row_channel=np.tile(fc.row_channel, 2),
                row_bin=np.tile(fc.row_bin, 2),
                row_imag=np.tile(fc.row_imag, 2),
            )
