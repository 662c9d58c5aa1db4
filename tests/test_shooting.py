"""Tests for the stacked residual system and the damped-Newton BVP solver."""

import numpy as np
import pytest

from bandctrl.extremal import AbnormalRegimeError, verify_pmp
from bandctrl.lq import lq_transfer_freq_solve
from bandctrl.problem import (
    Box,
    ControlAffineDynamics,
    FREE,
    control_affine_spec,
    lti_spec,
    trajectory_cost,
)
from bandctrl.shooting import (
    NewtonOptions,
    _residual_vec,
    SingularJacobianError,
    StackedUnknowns,
    assemble_residual,
    default_initialization,
    newton_solve,
    residual_jacobian,
)
from bandctrl.spectrum import forward_dft

from oracles import (
    direct_transcription_oracle,
    loop_residual_vec,
    random_banned_sets,
    random_lq_matrices,
)


def _toy_dynamics():
    return ControlAffineDynamics(
        n=1,
        m=1,
        drift=lambda t, x: x,
        gain=lambda t, x: np.array([[1.0 + 0.1 * x[0]]]),
        drift_jac=lambda t, x: np.array([[1.0]]),
        gain_jac=lambda t, x: np.array([[[0.1]]]),
    )


def _counted_toy():
    """The toy dynamics with a count of calls per model method."""
    calls = {"step": 0, "jac_x": 0, "jac_u": 0, "gain_state_jacobian": 0}

    class Counted(ControlAffineDynamics):
        def step(self, t, x, u):
            calls["step"] += 1
            return super().step(t, x, u)

        def jac_x(self, t, x, u):
            calls["jac_x"] += 1
            return super().jac_x(t, x, u)

        def jac_u(self, t, x, u):
            calls["jac_u"] += 1
            return super().jac_u(t, x, u)

        def gain_state_jacobian(self, t, x):
            calls["gain_state_jacobian"] += 1
            return super().gain_state_jacobian(t, x)

    toy = _toy_dynamics()
    return calls, Counted(1, 1, toy.drift, toy.gain, toy.drift_jac, toy.gain_jac)


def _toy_spec(banned=None, horizon=6):
    return control_affine_spec(_toy_dynamics(), [[1.0]], [[1.0]], horizon, [0.0], [1.0], banned=banned)


def _lti_setup(seed=0, banned=((2, 4),)):
    rng = np.random.default_rng(seed)
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    B = np.array([[0.0], [1.0]])
    Q = np.eye(2) * 0.5
    R = np.array([[1.0]])
    x0 = rng.standard_normal(2)
    xf = rng.standard_normal(2)
    spec = lti_spec(A, B, Q, R, 6, x0=x0, xf=xf, banned=[list(b) for b in banned])
    return spec, x0, xf


def _pack_from_lq(spec, sol):
    horizon = spec.horizon
    interior = sol.trajectory.states[1:horizon] if horizon > 1 else np.zeros((0, spec.n))
    return StackedUnknowns.pack(interior, sol.trajectory.controls, sol.adjoints, sol.nu)


class TestAssembleResidual:
    def test_exact_lq_solution_has_tiny_residual(self):
        spec, x0, xf = _lti_setup(seed=1)
        sol = lq_transfer_freq_solve(
            spec.dynamics.A, spec.dynamics.B, spec.cost.Q, spec.cost.R, 6, x0, xf,
            spec.frequency_constraint,
        )
        z = _pack_from_lq(spec, sol)
        assert np.max(np.abs(assemble_residual(z, spec, x0, xf))) <= 1e-9

    def test_zero_point_of_trivial_problem(self):
        spec = lti_spec(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), np.eye(2), 4,
                        x0=[0.0, 0.0], xf=[0.0, 0.0])
        z = StackedUnknowns.zeros(2, 2, 4, 0)
        residual = assemble_residual(z, spec, [0.0, 0.0], [0.0, 0.0])
        assert np.max(np.abs(residual)) == 0.0

    def test_control_perturbation_moves_stationarity_row(self):
        spec, x0, xf = _lti_setup(seed=2)
        sol = lq_transfer_freq_solve(
            spec.dynamics.A, spec.dynamics.B, spec.cost.Q, spec.cost.R, 6, x0, xf,
            spec.frequency_constraint,
        )
        z = _pack_from_lq(spec, sol)
        delta = 1e-4
        t_hit = 2
        zp = z.z.copy()
        zp[z.segments["controls"].start + t_hit] += delta
        perturbed = StackedUnknowns(zp, n=z.n, m=z.m, horizon=z.horizon, q=z.q)
        res = assemble_residual(perturbed, spec, x0, xf)
        n, m, N = spec.n, spec.m, spec.horizon
        stat_rows = slice(n * N + n * (N - 1), n * N + n * (N - 1) + m * N)
        stat = res[stat_rows].reshape(N, m)
        # stationarity row t changes by -R*delta in that coordinate
        assert stat[t_hit, 0] == pytest.approx(-spec.cost.R[0, 0] * delta, rel=1e-6)

    def test_unsupported_variant_is_named(self):
        spec, x0, xf = _lti_setup(seed=3)
        boxed = spec.__class__(
            horizon=spec.horizon,
            dynamics=spec.dynamics,
            cost=spec.cost,
            state_sets=spec.state_sets,
            control_sets=(Box([-1.0], [1.0]),) + (FREE,) * (spec.horizon - 1),
            supports=spec.supports,
            frequency_constraint=spec.frequency_constraint,
        )
        z = StackedUnknowns.zeros(2, 1, 6, spec.frequency_constraint.row_count)
        with pytest.raises(ValueError, match="Box"):
            assemble_residual(z, boxed, x0, xf)


class TestBatchedResidual:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_stage_loop(self, seed):
        rng = np.random.default_rng(seed)
        N = int(rng.integers(1, 40))
        if seed % 2:
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
            A, B, Q, R = random_lq_matrices(rng, n, m, spectral_radius=1.05)
            x0, xf = rng.standard_normal(n), rng.standard_normal(n)
            spec = lti_spec(A, B, Q, R, N, x0=x0, xf=xf, banned=random_banned_sets(rng, N, m, 3))
        else:
            n = m = 1
            x0, xf = np.zeros(1), rng.uniform(-1.5, 3.0, 1)
            spec = control_affine_spec(_toy_dynamics(), [[1.0]], [[1.0]], N, x0, xf,
                                       banned=random_banned_sets(rng, N, 1, 3))
        q = spec.frequency_constraint.row_count
        init, _ = default_initialization(spec, x0, xf)
        for z in (init.z, rng.standard_normal(init.z.size), 100.0 * rng.standard_normal(init.z.size)):
            got = _residual_vec(z, spec, x0, xf)
            ref = loop_residual_vec(z, spec, x0, xf)
            # sums regrouped by the batched products differ by rounding of the terms
            scale = 1.0 + np.max(np.abs(z)) * (1.0 + np.max(np.abs(residual_jacobian(
                StackedUnknowns(z, n=n, m=m, horizon=N, q=q), spec, x0, xf))))
            assert np.max(np.abs(got - ref)) <= 1e-14 * scale


class TestJacobian:
    def test_analytic_matches_fd_on_lti(self):
        spec, x0, xf = _lti_setup(seed=0)
        rng = np.random.default_rng(0)
        q = spec.frequency_constraint.row_count
        size = 5 * 2 + 6 * 1 + 6 * 2 + q
        for _ in range(10):
            z = StackedUnknowns(rng.standard_normal(size), n=2, m=1, horizon=6, q=q)
            ja = residual_jacobian(z, spec, x0, xf)
            jf = residual_jacobian(z, spec, x0, xf, fd=True)
            scale = 1.0 + np.max(np.abs(ja))
            assert np.max(np.abs(ja - jf)) / scale < 1e-5

    def test_analytic_matches_fd_on_toy(self):
        spec = _toy_spec(banned=[[3]])
        rng = np.random.default_rng(100)
        q = spec.frequency_constraint.row_count
        for _ in range(10):
            z = StackedUnknowns(rng.standard_normal(5 + 6 + 6 + q) * 0.5, n=1, m=1, horizon=6, q=q)
            ja = residual_jacobian(z, spec, [0.0], [1.0])
            jf = residual_jacobian(z, spec, [0.0], [1.0], fd=True)
            scale = 1.0 + np.max(np.abs(ja))
            assert np.max(np.abs(ja - jf)) / scale < 1e-5


    def test_analytic_jacobian_evaluates_each_stage_once(self):
        calls = {"jac_x": 0, "jac_u": 0, "gain_state_jacobian": 0}

        class Counted(ControlAffineDynamics):
            def jac_x(self, t, x, u):
                calls["jac_x"] += 1
                return super().jac_x(t, x, u)

            def jac_u(self, t, x, u):
                calls["jac_u"] += 1
                return super().jac_u(t, x, u)

            def gain_state_jacobian(self, t, x):
                calls["gain_state_jacobian"] += 1
                return super().gain_state_jacobian(t, x)

        toy = _toy_dynamics()
        dyn = Counted(1, 1, toy.drift, toy.gain, toy.drift_jac, toy.gain_jac)
        spec = control_affine_spec(dyn, [[1.0]], [[1.0]], 10, [0.0], [1.0], banned=[[3]])
        q = spec.frequency_constraint.row_count
        z = StackedUnknowns(np.full(9 + 10 + 10 + q, 0.5), n=1, m=1, horizon=10, q=q)
        residual_jacobian(z, spec, [0.0], [1.0])
        # x_0 is fixed, so stage 0 needs no state derivatives
        assert calls == {"jac_x": 9, "jac_u": 10, "gain_state_jacobian": 9}


    def test_public_jacobian_evaluates_no_dynamics_step(self):
        calls, dyn = _counted_toy()
        spec = control_affine_spec(dyn, [[1.0]], [[1.0]], 10, [0.0], [1.0], banned=[[3]])
        q = spec.frequency_constraint.row_count
        z = StackedUnknowns(np.full(9 + 10 + 10 + q, 0.5), n=1, m=1, horizon=10, q=q)
        residual_jacobian(z, spec, [0.0], [1.0])
        assert calls == {"step": 0, "jac_x": 9, "jac_u": 10, "gain_state_jacobian": 9}


class TestNewtonSolve:
    def test_each_stage_evaluated_once_per_residual(self):
        calls, dyn = _counted_toy()
        N = 24
        spec = control_affine_spec(dyn, [[1.0]], [[1.0]], N, [0.0], [2.5], banned=[[2, 5]])
        init, _ = default_initialization(spec, [0.0], [2.5])
        calls.update(dict.fromkeys(calls, 0))
        result = newton_solve(spec, [0.0], [2.5], init=init)
        assert result.converged and result.iterations >= 2
        # each accepted step of length 2^-k took k + 1 residual evaluations
        evals = 1 + sum(1 + round(-np.log2(alpha)) for _, _, alpha in result.trace[1:])
        # beyond the residuals: the transversality at x_0 of the result's lift
        # (one jac_x); its states are the iterate's, so no step is re-run
        assert calls == {
            "step": N * evals,
            "jac_x": (N - 1) * evals + 1,
            "jac_u": N * evals,
            "gain_state_jacobian": (N - 1) * result.iterations,
        }

    def test_lti_one_undamped_step_from_random_init(self):
        spec, x0, xf = _lti_setup(seed=4)
        rng = np.random.default_rng(4)
        q = spec.frequency_constraint.row_count
        size = 5 * 2 + 6 + 12 + q
        init = StackedUnknowns(rng.standard_normal(size) * 3.0, n=2, m=1, horizon=6, q=q)
        result = newton_solve(spec, x0, xf, init=init)
        assert result.converged
        assert result.iterations == 1
        assert all(step == 1.0 for _, _, step in result.trace[1:])
        ref = lq_transfer_freq_solve(
            spec.dynamics.A, spec.dynamics.B, spec.cost.Q, spec.cost.R, 6, x0, xf,
            spec.frequency_constraint,
        )
        assert np.max(np.abs(result.trajectory.controls - ref.trajectory.controls)) < 1e-6
        assert np.max(np.abs(result.trajectory.states - ref.trajectory.states)) < 1e-6

    def test_lti_default_init_is_already_converged(self):
        spec, x0, xf = _lti_setup(seed=5)
        result = newton_solve(spec, x0, xf)
        assert result.converged and result.iterations == 0

    def test_toy_converges_and_certifies(self):
        spec = _toy_spec()
        result = newton_solve(spec, [0.0], [1.0])
        assert result.converged
        assert result.iterations <= 10
        assert not result.init_warning
        cert = verify_pmp(result.trajectory, result.lift, spec, tol=1e-6)
        assert cert.passed
        cost = trajectory_cost(spec.cost, result.trajectory)
        oracle_cost, _ = direct_transcription_oracle(
            spec.dynamics.step,
            lambda t, x, u: spec.cost.value(t, x, u),
            6, 1, [0.0], [1.0],
        )
        assert abs(cost - oracle_cost) <= 1e-8 * (1.0 + abs(oracle_cost))

    def test_result_carries_the_iterates_states(self):
        # x_0 and x_N are the fixed endpoints exactly, and each dynamics row of
        # the iterate holds to the final residual (no open-loop re-integration)
        # (here an open-loop rollout of the controls would miss xf by 1.3e-11)
        spec = control_affine_spec(_toy_dynamics(), [[1.0]], [[1.0]], 12, [0.0], [-0.7], [[2]])
        result = newton_solve(spec, [0.0], [-0.7])
        assert result.converged and result.iterations >= 2
        states, controls = result.trajectory.states, result.trajectory.controls
        assert states[0].tolist() == [0.0] and states[-1].tolist() == [-0.7]
        steps = np.array([spec.dynamics.step(t, states[t], controls[t]) for t in range(12)])
        assert np.max(np.abs(states[1:] - steps)) <= result.final_residual

    def test_toy_with_ban_nulls_component_and_costs_more(self):
        free = newton_solve(_toy_spec(), [0.0], [1.0])
        spec = _toy_spec(banned=[[3]])
        result = newton_solve(spec, [0.0], [1.0])
        assert result.converged
        comp = forward_dft(result.trajectory.controls[:, 0])
        assert abs(comp[3]) <= 1e-8
        cost = trajectory_cost(spec.cost, result.trajectory)
        free_cost = trajectory_cost(spec.cost, free.trajectory)
        assert cost >= free_cost - 1e-10
        oracle_cost, _ = direct_transcription_oracle(
            spec.dynamics.step,
            lambda t, x, u: spec.cost.value(t, x, u),
            6, 1, [0.0], [1.0],
            freq_matrix=spec.frequency_constraint.stacked,
        )
        assert abs(cost - oracle_cost) <= 1e-8 * (1.0 + abs(oracle_cost))

    def test_monotone_residual_trace(self):
        spec = _toy_spec(banned=[[3]])
        rng = np.random.default_rng(6)
        q = spec.frequency_constraint.row_count
        init = StackedUnknowns(rng.standard_normal(5 + 6 + 6 + q), n=1, m=1, horizon=6, q=q)
        result = newton_solve(spec, [0.0], [1.0], init=init)
        norms = [entry[1] for entry in result.trace]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert result.converged

    def test_abnormal_lti_regime_is_refused(self):
        spec = lti_spec([[1.0]], [[1.0]], [[0.0]], [[1.0]], 2, x0=[0.0], xf=[0.0], banned=[[0, 1]])
        with pytest.raises(AbnormalRegimeError):
            newton_solve(spec, [0.0], [0.0])

    def test_singular_jacobian_reports_diagnostics(self):
        # zero gain: the adjoint columns never enter the dynamics rows
        spec = lti_spec([[1.0]], [[0.0]], [[1.0]], [[1.0]], 3, x0=[0.0], xf=[1.0])
        init = StackedUnknowns(np.ones(2 + 3 + 3), n=1, m=1, horizon=3, q=0)
        with pytest.raises(SingularJacobianError) as err:
            newton_solve(spec, [0.0], [1.0], init=init)
        assert err.value.rank < err.value.size

    def test_non_convergence_reports_trace(self):
        spec = _toy_spec()
        opts = NewtonOptions(max_iterations=1, tolerance=1e-14)
        rng = np.random.default_rng(7)
        init = StackedUnknowns(rng.standard_normal(5 + 6 + 6) * 2.0, n=1, m=1, horizon=6, q=0)
        result = newton_solve(spec, [0.0], [1.0], init=init, opts=opts)
        assert not result.converged
        assert result.iterations == 1
        assert len(result.trace) == 2


class TestDefaultInitialization:
    def test_lti_init_is_exact(self):
        spec, x0, xf = _lti_setup(seed=8)
        z, warned = default_initialization(spec, x0, xf)
        assert not warned
        assert np.max(np.abs(assemble_residual(z, spec, x0, xf))) <= 1e-9

    def test_toy_linearization_gives_good_start(self):
        spec = _toy_spec()
        z, warned = default_initialization(spec, [0.0], [1.0])
        assert not warned
        residual = assemble_residual(z, spec, [0.0], [1.0])
        assert np.max(np.abs(residual)) < 1.0
        result = newton_solve(spec, [0.0], [1.0], init=z)
        assert result.converged and result.iterations <= 10

    def test_zero_linearized_gain_falls_back_with_warning(self):
        dead = ControlAffineDynamics(
            n=1,
            m=1,
            drift=lambda t, x: x,
            gain=lambda t, x: np.array([[x[0]]]),  # vanishes at x0 = 0
            drift_jac=lambda t, x: np.array([[1.0]]),
            gain_jac=lambda t, x: np.array([[[1.0]]]),
        )
        spec = control_affine_spec(dead, [[1.0]], [[1.0]], 4, [0.0], [1.0])
        z, warned = default_initialization(spec, [0.0], [1.0])
        assert warned
        assert np.max(np.abs(z.z)) == 0.0
