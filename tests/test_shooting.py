"""Tests for the stacked residual system and the damped-Newton BVP solver."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandctrl import extremal, lq, shooting
from bandctrl.cli import BUILTINS
from bandctrl.extremal import AbnormalRegimeError, verify_pmp
from bandctrl.lq import lq_transfer_freq_solve
from bandctrl.problem import (
    Box,
    ControlAffineDynamics,
    FREE,
    Fixed,
    GeneralCost,
    QuadraticCost,
    _stage_terms,
    control_affine_spec,
    general_wrap,
    lti_spec,
    trajectory_cost,
    validate,
)
from bandctrl.shooting import (
    NewtonOptions,
    _evaluate,
    _residual_vec,
    _step,
    _unpack,
    SingularJacobianError,
    StackedUnknowns,
    assemble_residual,
    default_initialization,
    newton_solve,
    residual_jacobian,
)
from bandctrl.spectrum import forward_dft

from oracles import (
    dense_fd_newton,
    dense_newton_step,
    direct_transcription_oracle,
    fd_residual_jacobian,
    loop_residual_vec,
    random_banned_sets,
    random_lq_matrices,
    stacked_rows,
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


def _counted(model):
    """``model`` with a count of calls per user callable and the (t, x) of
    each call."""
    calls = dict.fromkeys(("drift", "gain", "drift_jac", "gain_jac"), 0)
    args = {name: [] for name in calls}

    def counted(name):
        fun = getattr(model, name)

        def call(t, x):
            calls[name] += 1
            args[name].append((np.array(t), x.copy()))
            return fun(t, x)

        return call

    dyn = ControlAffineDynamics(1, 1, *map(counted, calls), vectorized=model.vectorized)
    return calls, args, dyn


def _counted_toy():
    """The toy dynamics with a count of calls per user callable."""
    calls, _, dyn = _counted(_toy_dynamics())
    return calls, dyn


def _random_affine(rng, n, m, with_gain_jac, vectorized=False):
    """x_{t+1} = A x + c tanh(x) + (B_0 + sum_l x_l B_l) u with random A, B_0,
    c and B_l (held in the returned array, which scales the gain's state
    dependence when changed in place).  ``vectorized`` gives the same model,
    from the same draws of ``rng``, in the batched form."""
    A, B0, _, _ = random_lq_matrices(rng, n, m, spectral_radius=rng.uniform(0.1, 1.1))
    Bx = rng.standard_normal((n, m, n))
    c = 0.1 * rng.standard_normal(n)
    if vectorized:
        dyn = ControlAffineDynamics(
            n,
            m,
            drift=lambda t, x: x @ A.T + c * np.tanh(x),
            gain=lambda t, x: B0 + np.einsum("ijl,tl->tij", Bx, x),
            drift_jac=lambda t, x: A + (c * (1.0 - np.tanh(x) ** 2))[:, None, :] * np.eye(n),
            gain_jac=(lambda t, x: np.broadcast_to(Bx, (len(t), n, m, n))) if with_gain_jac else None,
            vectorized=True,
        )
        return dyn, Bx
    dyn = ControlAffineDynamics(
        n,
        m,
        drift=lambda t, x: A @ x + c * np.tanh(x),
        gain=lambda t, x: B0 + Bx @ x,
        drift_jac=lambda t, x: A + np.diag(c * (1.0 - np.tanh(x) ** 2)),
        gain_jac=(lambda t, x: Bx) if with_gain_jac else None,
    )
    return dyn, Bx


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


def _count_classifications(monkeypatch):
    """The list to which every call of classify_normality_freq, from any
    bandctrl module, now appends its arguments."""
    calls, original = [], extremal.classify_normality_freq

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (extremal, lq, shooting):
        monkeypatch.setattr(module, "classify_normality_freq", counted)
    return calls


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
        boxed = validate(dataclasses.replace(
            spec, control_sets=(Box([-1.0], [1.0]),) + (FREE,) * (spec.horizon - 1)
        ))
        z = StackedUnknowns.zeros(2, 1, 6, spec.frequency_constraint.row_count)
        with pytest.raises(ValueError, match="Box"):
            assemble_residual(z, boxed, x0, xf)

    @pytest.mark.parametrize("case, message", [
        ("general dynamics", "LTI or control-affine dynamics, got GeneralDynamics"),
        ("not validated", "spec must be validated first"),
        ("interior fixed", r"free interior state sets; state_sets\[2\] is Fixed"),
        ("interior box", r"free interior state sets; state_sets\[5\] is Box"),
        ("free end", r"fixed endpoints; state_sets\[6\] is Free"),
    ])
    def test_unsupported_spec_is_refused_by_every_entry(self, case, message):
        spec, x0, xf = _lti_setup(seed=3)
        states = list(spec.state_sets)
        changes = {
            "general dynamics": {"dynamics": general_wrap(spec.dynamics)},
            "not validated": {},
            "interior fixed": {"state_sets": states[:2] + [Fixed([0.0, 0.0])] + states[3:]},
            "interior box": {
                "state_sets": states[:5] + [Box([-1.0, -1.0], [1.0, 1.0])] + states[6:]
            },
            "free end": {"state_sets": states[:6] + [FREE]},
        }[case]
        bad = dataclasses.replace(spec, **changes)
        if case != "not validated":
            bad = validate(bad)
        z = StackedUnknowns.zeros(2, 1, 6, spec.frequency_constraint.row_count)
        for call in (
            lambda: assemble_residual(z, bad, x0, xf),
            lambda: residual_jacobian(z, bad, x0, xf),
            lambda: default_initialization(bad, x0, xf),
            lambda: newton_solve(bad, x0, xf),
        ):
            with pytest.raises(ValueError, match=message):
                call()


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
        calls, dyn = _counted_toy()
        spec = control_affine_spec(dyn, [[1.0]], [[1.0]], 10, [0.0], [1.0], banned=[[3]])
        q = spec.frequency_constraint.row_count
        z = np.full(9 + 10 + 10 + q, 0.5)
        residual, terms = _evaluate(z, spec, [0.0], [1.0])
        # x_0 is fixed, so stage 0 needs no state derivatives
        assert calls == {"drift": 10, "gain": 10, "drift_jac": 9, "gain_jac": 9}
        calls.update(dict.fromkeys(calls, 0))
        _step(z, residual, spec, [0.0], [1.0], terms, fd=False)
        assert calls == dict.fromkeys(calls, 0)

    def test_public_jacobian_evaluates_no_dynamics_step(self):
        calls, dyn = _counted_toy()
        spec = control_affine_spec(dyn, [[1.0]], [[1.0]], 10, [0.0], [1.0], banned=[[3]])
        q = spec.frequency_constraint.row_count
        z = StackedUnknowns(np.full(9 + 10 + 10 + q, 0.5), n=1, m=1, horizon=10, q=q)
        residual_jacobian(z, spec, [0.0], [1.0])
        assert calls == {"drift": 0, "gain": 10, "drift_jac": 9, "gain_jac": 9}


class TestNewtonSolve:
    def test_each_stage_evaluated_once_per_residual(self):
        calls, dyn = _counted_toy()
        N = 24
        spec = control_affine_spec(dyn, [[1.0]], [[1.0]], N, [0.0], [2.5], banned=[[2, 5]])
        init, _ = default_initialization(spec, [0.0], [2.5])
        calls.update(dict.fromkeys(calls, 0))
        result = newton_solve(spec, [0.0], [2.5], init=init)
        assert result.converged and result.iterations >= 2
        # each accepted step of length 2^-k took k + 1 residual evaluations;
        # the Jacobians reuse the terms of their residual and call nothing
        evals = 1 + sum(1 + round(-np.log2(alpha)) for _, _, alpha in result.trace[1:])
        # beyond the residuals: the transversality at x_0 of the result's lift
        # (one jac_x); its states are the iterate's, so no step is re-run
        assert calls == {
            "drift": N * evals,
            "gain": N * evals,
            "drift_jac": (N - 1) * evals + 1,
            "gain_jac": (N - 1) * evals + 1,
        }

    def test_certificate_evaluates_each_stage_once(self):
        calls, dyn = _counted_toy()
        N = 24
        spec = control_affine_spec(dyn, [[1.0]], [[1.0]], N, [0.0], [2.5], banned=[[2, 5]])
        result = newton_solve(spec, [0.0], [2.5])
        calls.update(dict.fromkeys(calls, 0))
        assert verify_pmp(result.trajectory, result.lift, spec).passed
        assert calls == dict.fromkeys(calls, N)

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
            freq_matrix=stacked_rows(spec.frequency_constraint),
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

    @pytest.mark.parametrize("model", ["lti", "affine_toy"])
    def test_only_an_lti_spec_is_classified(self, monkeypatch, model):
        # the verdict of a control-affine spec's linearized start is not reported
        calls = _count_classifications(monkeypatch)
        if model == "lti":
            spec, x0, xf = _lti_setup(seed=3)
        else:
            x0, xf = [0.0], [1.5]
            spec = control_affine_spec(
                BUILTINS["affine_toy"](), [[1.0]], [[1.0]], 48, x0, xf, banned=[[2, 5]]
            )
        result = newton_solve(spec, x0, xf)
        assert result.converged and not result.init_warning
        assert len(calls) == (model == "lti")
        assert (result.normality is None) == (model != "lti")

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

    def test_singular_fd_jacobian_reports_rank(self):
        spec = lti_spec([[1.0]], [[0.0]], [[1.0]], [[1.0]], 3, x0=[0.0], xf=[1.0])
        init = StackedUnknowns(np.ones(2 + 3 + 3), n=1, m=1, horizon=3, q=0)
        with pytest.raises(SingularJacobianError) as err:
            newton_solve(spec, [0.0], [1.0], init=init, opts=NewtonOptions(fd_jacobian=True))
        assert (err.value.rank, err.value.size, err.value.stage) == (7, 8, None)

    def test_singular_pivot_reports_stage(self):
        # Q = 0 and the cross term C_1 = 0.5 p_1 = 1 give P_1 = -1 from
        # P_2 = sigma = 1, so the pivot H_0 = R + b_0^2 P_1 is exactly zero
        dyn = ControlAffineDynamics(
            n=1,
            m=1,
            drift=lambda t, x: -x,
            gain=lambda t, x: np.array([[1.0 + 0.5 * x[0]]]),
            drift_jac=lambda t, x: np.array([[-1.0]]),
            gain_jac=lambda t, x: np.array([[[0.5]]]),
        )
        spec = control_affine_spec(dyn, [[0.0]], [[1.0]], 2, [0.0], [1.0])
        init = StackedUnknowns.pack([[0.0]], [[0.3], [0.0]], [[0.0], [2.0]], [])
        with pytest.raises(SingularJacobianError) as err:
            newton_solve(spec, [0.0], [1.0], init=init)
        assert (err.value.iteration, err.value.stage, err.value.pivot) == (1, 0, 0.0)
        assert err.value.size == 5 and err.value.rank is None

    def test_non_convergence_reports_trace(self):
        spec = _toy_spec()
        opts = NewtonOptions(max_iterations=1, tolerance=1e-14)
        rng = np.random.default_rng(7)
        init = StackedUnknowns(rng.standard_normal(5 + 6 + 6) * 2.0, n=1, m=1, horizon=6, q=0)
        result = newton_solve(spec, [0.0], [1.0], init=init, opts=opts)
        assert not result.converged
        assert result.iterations == 1
        assert len(result.trace) == 2


class TestNewtonOptions:
    # newton_solve is never called with these: a backtrack_factor of 1 or a
    # min_step of 0 would make its line search loop forever
    @pytest.mark.parametrize(
        "field, value",
        [
            ("backtrack_factor", 1.0),
            ("backtrack_factor", 0.0),
            ("backtrack_factor", 1.5),
            ("backtrack_factor", float("nan")),
            ("min_step", 0.0),
            ("min_step", -1e-3),
            ("min_step", 2.0),
            ("min_step", float("inf")),
            ("min_step", float("nan")),
            ("tolerance", float("nan")),
            ("tolerance", float("inf")),
            ("tolerance", 0.0),
            ("max_iterations", 0),
        ],
    )
    def test_rejects_a_value_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"NewtonOptions.{field}"):
            NewtonOptions(**{field: value})

    def test_accepts_the_edges_of_the_ranges(self):
        opts = NewtonOptions(backtrack_factor=0.999, min_step=1.0, tolerance=1e300)
        assert (opts.backtrack_factor, opts.min_step) == (0.999, 1.0)


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

    def test_over_banned_toy_falls_back_with_warning(self, monkeypatch):
        # q + n > m N: every transfer is abnormal, which needs no classification
        calls = _count_classifications(monkeypatch)
        toy = BUILTINS["affine_toy"]()
        spec = control_affine_spec(toy, [[1.0]], [[1.0]], 4, [0.0], [1.0], banned=[[0, 1, 2]])
        assert spec.frequency_constraint.row_count + 1 > 4
        z, warned = default_initialization(spec, [0.0], [1.0])
        assert warned
        assert np.max(np.abs(z.z)) == 0.0 and z.q == 4
        assert calls == []


class TestStructuredStep:
    """The analytic Newton step, a Riccati scan and a border of size n + q,
    against the dense Jacobian it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        horizon=st.integers(2, 64),
        model=st.sampled_from(["lti", "affine", "affine_gain_jac"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_oracle(self, n, m, horizon, model, seed):
        rng = np.random.default_rng(seed)
        x0, xf = rng.standard_normal(n), rng.standard_normal(n)
        banned = random_banned_sets(rng, horizon, m, 3)
        A, B, Q, R = random_lq_matrices(rng, n, m, spectral_radius=rng.uniform(0.1, 1.1))
        if model == "lti":
            spec = lti_spec(A, B, Q, R, horizon, x0=x0, xf=xf, banned=banned)
        else:
            dyn, Bx = _random_affine(rng, n, m, model == "affine_gain_jac")
            Q = Q + 0.5 * np.eye(n)
            spec = control_affine_spec(dyn, Q, R, horizon, x0, xf, banned=banned)
        q = spec.frequency_constraint.row_count
        init, _ = default_initialization(spec, x0, xf)
        z = StackedUnknowns(init.z + 0.1 * rng.standard_normal(init.z.size), n, m, horizon, q)
        if model == "affine_gain_jac":
            # scale the gain's state dependence so that the cross term
            # C_t = sum_i p_i dB_i/dx leaves Q - C_t'R^-1 C_t >= 3/4 Q at
            # every stage: a convex linearization
            C = np.einsum("ijl,ti->tjl", Bx, z.adjoints())
            room = np.min(np.linalg.eigvalsh(Q)) * np.min(np.linalg.eigvalsh(R))
            Bx *= 0.5 * np.sqrt(room) / max(np.max(np.linalg.norm(C, 2, axis=(1, 2))), 1.0)
        residual, terms = _evaluate(z.z, spec, x0, xf)
        try:
            step = _step(z.z, residual, spec, x0, xf, terms, fd=False)
            dense, jac = dense_newton_step(z, spec, x0, xf)
        except np.linalg.LinAlgError:  # kkt.SingularSystemError is one
            # either side may fail where the other does not only on a
            # numerically singular Jacobian (a ban set that leaves no solution)
            jac = residual_jacobian(z, spec, x0, xf)
            assert np.linalg.cond(jac) > 1e12
            return
        gap = np.max(np.abs(step - dense)) / np.max(np.abs(dense))
        if gap > 1e-10:
            # two backward-stable solves differ by up to about cond(J) eps
            # relative; a numerically singular J has no one step to compare
            cond = np.linalg.cond(jac)
            assert cond > 1e12 or gap <= 10 * np.finfo(float).eps * cond

    def test_long_horizon_converges_in_little_memory(self):
        # the dense Jacobian at N = 1024 is 4098^2, 134 MB, and its LU took
        # about 1.2 s of the solve
        spec = control_affine_spec(
            _toy_dynamics(), [[1.0]], [[1.0]], 1024, [0.0], [1.0], banned=[[3, 1021]]
        )
        tracemalloc.start()
        try:
            result = newton_solve(spec, [0.0], [1.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged and result.iterations == 3
        assert peak < 10e6

    @staticmethod
    def _assert_no_dense_solve(monkeypatch, opts):
        """Newton on the toy at N = 256 converges, and every np.linalg.solve
        or lstsq it makes is of a matrix no larger than the border, n + q."""
        spec = control_affine_spec(
            _toy_dynamics(), [[1.0]], [[1.0]], 256, [0.0], [1.0], banned=[[3, 253]]
        )
        sizes = []

        def recorded(fun):
            def call(a, *args, **kwargs):
                sizes.append(np.shape(a)[-1])
                return fun(a, *args, **kwargs)

            return call

        for name in ("solve", "lstsq"):
            monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
        result = newton_solve(spec, [0.0], [1.0], opts=opts)
        assert result.converged and result.iterations >= 2
        assert sizes and max(sizes) <= spec.n + spec.frequency_constraint.row_count

    def test_no_dense_solve_on_the_analytic_path(self, monkeypatch):
        self._assert_no_dense_solve(monkeypatch, NewtonOptions())

    def test_no_dense_solve_on_the_fd_path(self, monkeypatch):
        self._assert_no_dense_solve(monkeypatch, NewtonOptions(fd_jacobian=True))


def _newton_fields(result):
    """Everything a Newton result reports, for a bitwise comparison."""
    traj, lift = result.trajectory, result.lift
    return [traj.states, traj.controls, lift.adjoints, lift.nu, np.array(result.trace),
            result.iterations, result.final_residual, result.converged]


class TestVectorizedModels:
    """A vectorized control-affine model is called once per evaluation with
    every stage's state, and gives the answers of its per-stage twin."""

    def test_toy_forms_are_bitwise_equal(self):
        toy, batched = _toy_dynamics(), BUILTINS["affine_toy"]()
        assert batched.vectorized and not toy.vectorized
        rng = np.random.default_rng(11)
        states, controls = rng.standard_normal((25, 1)), rng.standard_normal((24, 1))
        cost = QuadraticCost(np.eye(1), np.eye(1))
        for step in (False, True):
            for jx0 in (False, True):
                got = _stage_terms(batched, cost, states, controls, step=step, jx0=jx0)
                ref = _stage_terms(toy, cost, states, controls, step=step, jx0=jx0)
                for a, b in zip(got, ref):
                    assert (a is None and b is None) or np.array_equal(a, b)
        x, u = states[3], controls[3]
        for method in ("step", "jac_x", "jac_u"):
            assert np.array_equal(getattr(batched, method)(3, x, u), getattr(toy, method)(3, x, u))
        for banned, xf in ((None, 1.0), ([[2, 5]], 2.5), ([[1]], -1.5)):
            specs = [control_affine_spec(d, [[1.0]], [[1.0]], 24, [0.0], [xf], banned=banned)
                     for d in (toy, batched)]
            q = specs[0].frequency_constraint.row_count
            z = StackedUnknowns(rng.standard_normal(23 + 24 + 24 + q), n=1, m=1, horizon=24, q=q)
            residuals = [assemble_residual(z, spec, [0.0], [xf]) for spec in specs]
            assert np.array_equal(*residuals)
            results = [newton_solve(spec, [0.0], [xf]) for spec in specs]
            assert results[0].converged
            for a, b in zip(*map(_newton_fields, results)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("step", [False, True])
    @pytest.mark.parametrize("jx0", [False, True])
    def test_each_callable_called_once_per_evaluation(self, step, jx0):
        calls, args, dyn = _counted(BUILTINS["affine_toy"]())
        N = 10
        rng = np.random.default_rng(12)
        states, controls = rng.standard_normal((N + 1, 1)), rng.standard_normal((N, 1))
        _stage_terms(dyn, QuadraticCost(np.eye(1), np.eye(1)), states, controls, step=step, jx0=jx0)
        assert calls == {"drift": int(step), "gain": 1, "drift_jac": 1, "gain_jac": 1}
        # x_N is never passed; stage 0 has its state derivatives only with jx0
        t0 = 0 if jx0 else 1
        for name, first in (("drift", 0), ("gain", 0), ("drift_jac", t0), ("gain_jac", t0)):
            for t, x in args[name]:
                assert t.dtype.kind == "i" and np.array_equal(t, np.arange(first, N))
                assert np.array_equal(x, states[first:N])

    def test_newton_calls_each_callable_once_per_residual(self):
        calls, _, dyn = _counted(BUILTINS["affine_toy"]())
        spec = control_affine_spec(dyn, [[1.0]], [[1.0]], 24, [0.0], [2.5], banned=[[2, 5]])
        init, _ = default_initialization(spec, [0.0], [2.5])
        calls.update(dict.fromkeys(calls, 0))
        result = newton_solve(spec, [0.0], [2.5], init=init)
        assert result.converged and result.iterations >= 2
        evals = 1 + sum(1 + round(-np.log2(alpha)) for _, _, alpha in result.trace[1:])
        # plus the lift's transversality at x_0, one jac_x of a single stage
        assert calls == {"drift": evals, "gain": evals, "drift_jac": evals + 1, "gain_jac": evals + 1}
        calls.update(dict.fromkeys(calls, 0))
        assert verify_pmp(result.trajectory, result.lift, spec).passed
        assert calls == dict.fromkeys(calls, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        horizon=st.integers(2, 32),
        with_gain_jac=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_models_match_the_per_stage_twin(self, n, m, horizon, with_gain_jac, seed):
        twins = []
        for vectorized in (False, True):
            rng = np.random.default_rng(seed)
            dyn, Bx = _random_affine(rng, n, m, with_gain_jac, vectorized)
            Bx *= 0.1  # a mild state dependence, so that Newton mostly converges
            x0, xf = rng.standard_normal(n), rng.standard_normal(n)
            banned = random_banned_sets(rng, horizon, m, 3)
            spec = control_affine_spec(dyn, np.eye(n), np.eye(m), horizon, x0, xf, banned=banned)
            states = rng.standard_normal((horizon + 1, n))
            controls = rng.standard_normal((horizon, m))
            terms = _stage_terms(dyn, spec.cost, states, controls, jx0=True)
            twins.append((spec, x0, xf, terms))
        for a, b in zip(twins[0][3], twins[1][3]):
            if a is None:
                assert b is None
                continue
            # the batched products may sum in another order
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))
        results = []
        for spec, x0, xf, _ in twins:
            try:
                results.append(newton_solve(spec, x0, xf))
            except SingularJacobianError:
                results.append(None)
        ref = results[0]
        if ref is None or not ref.converged or any(alpha < 1.0 for _, _, alpha in ref.trace[1:]):
            # where Newton backtracks it may wander, and rounding can change
            # where to: a draw that fails or stalls here (about 1 in 4) may
            # converge for the twin, and the other way round
            return
        assert results[1] is not None and results[1].converged
        for (spec, _, _, _), result in zip(twins, results):
            assert verify_pmp(result.trajectory, result.lift, spec).passed
        ref, got = _newton_fields(results[0]), _newton_fields(results[1])
        for a, b in zip(ref[:4], got[:4]):
            assert np.max(np.abs(a - b), initial=0.0) <= 1e-9 * max(np.max(np.abs(a), initial=0.0), 1.0)


def _fd_error_bound(jac, z, step, residual):
    """A bound on |J s + r| / |r| for a step s against the central-difference
    Jacobian J of the residual r at z.  An entry (i, j) that the rows'
    sparsity does not force to zero carries a rounding error of about
    2 eps T_i / h_j (a few roundings of row i's terms, of size
    T_i = (|J| (1 + |z|) + |r|)_i, over the step h_j = 1e-6 (1 + |z_j|)), and
    such errors add up as a random sum.  The stage blocks of the step err
    alike, which doubles it.  The solve adds 10 eps cond(J)."""
    eps = np.finfo(float).eps
    h = 1e-6 * (1.0 + np.abs(z))
    size = np.abs(jac) @ (1.0 + np.abs(z)) + np.abs(residual)
    rounding = 4.0 * eps * size * np.sqrt((jac != 0) @ (step / h) ** 2)
    return np.linalg.norm(rounding) / np.linalg.norm(residual) + 10 * eps * np.linalg.cond(jac)


class TestFdStep:
    """The finite-difference step: the structured solve with second-order
    stage blocks from central differences, against the oracle, the dense
    central-difference Jacobian of the whole residual."""

    @staticmethod
    def _gap(spec, x0, xf, z):
        """|J s + r| / |r| of the FD step s at z against the oracle J, and
        its bound."""
        residual, terms = _evaluate(z, spec, x0, xf)
        step = _step(z, residual, spec, x0, xf, terms, fd=True)
        jac = fd_residual_jacobian(z, spec, x0, xf)
        gap = np.linalg.norm(jac @ step + residual) / np.linalg.norm(residual)
        return gap, _fd_error_bound(jac, z, step, residual)

    @pytest.mark.parametrize("seed", [608, 1099])
    def test_residual_within_the_conditioning(self, seed):
        # an LU of the oracle on the row order of kkt.assemble, unrefined,
        # left relative residuals of 4.7e-4 (seed 608, cond 3.8e3) and
        # 1.6e-11 (seed 1099, cond 55) on these draws; the structured step
        # leaves 2.8e-11 and 1.5e-11, the rounding of the differences
        n, m, N = 3, 1, 53
        rng = np.random.default_rng(seed)
        x0, xf = rng.standard_normal(n), rng.standard_normal(n)
        banned = random_banned_sets(rng, N, m, 3)
        A, B, Q, R = random_lq_matrices(rng, n, m, spectral_radius=rng.uniform(0.1, 1.1))
        spec = lti_spec(A, B, Q, R, N, x0=x0, xf=xf, banned=banned)
        init, _ = default_initialization(spec, x0, xf)
        z = init.z + 0.1 * rng.standard_normal(init.z.size)
        gap, bound = self._gap(spec, x0, xf, z)
        assert gap <= bound and gap <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        horizon=st.integers(2, 40),
        model=st.sampled_from(["lti", "affine_constant_gain", "affine_gain_jac"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_draws_within_the_fd_error(self, n, m, horizon, model, seed):
        # convex linearizations only: where Q_t - C_t'R_t^(-1)C_t is
        # indefinite the scan can be far less accurate than the differences,
        # which test_indefinite_draws_converge_where_the_dense_step_does
        # covers at the level of Newton's iterations
        rng = np.random.default_rng(seed)
        x0, xf = rng.standard_normal(n), rng.standard_normal(n)
        banned = random_banned_sets(rng, horizon, m, 3)
        A, B, Q, R = random_lq_matrices(rng, n, m, spectral_radius=rng.uniform(0.1, 1.1))
        if model == "lti":
            spec = lti_spec(A, B, Q, R, horizon, x0=x0, xf=xf, banned=banned)
        else:
            dyn, Bx = _random_affine(rng, n, m, model == "affine_gain_jac")
            Q = Q + 0.5 * np.eye(n)
            spec = control_affine_spec(dyn, Q, R, horizon, x0, xf, banned=banned)
        init, _ = default_initialization(spec, x0, xf)
        z = init.z + 0.1 * rng.standard_normal(init.z.size)
        if model == "affine_constant_gain":
            # a model may leave out gain_jac only when the state does not
            # move its gain (test_state_dependent_gain_needs_a_gain_jac)
            Bx *= 0.0
        elif model == "affine_gain_jac":
            # the gain's state dependence scaled as in TestStructuredStep,
            # for a convex linearization
            C = np.einsum("ijl,ti->tjl", Bx, _unpack(z, spec, x0, xf)[2])
            room = np.min(np.linalg.eigvalsh(Q)) * np.min(np.linalg.eigvalsh(R))
            Bx *= 0.5 * np.sqrt(room) / max(np.max(np.linalg.norm(C, 2, axis=(1, 2))), 1.0)
        try:
            gap, bound = self._gap(spec, x0, xf, z)
        except np.linalg.LinAlgError:  # kkt.SingularSystemError is one
            # a ban set that leaves no solution: the oracle is singular too
            assert np.linalg.cond(fd_residual_jacobian(z, spec, x0, xf)) > 1e12
            return
        assert gap <= bound

    @pytest.mark.xfail(
        strict=True,
        reason="without a gain_jac the step's first-order blocks, like "
        "verify_pmp, take jac_x = drift_jac and miss d(gain u)/dx; nothing "
        "checks that such a model's gain does not depend on x",
    )
    def test_state_dependent_gain_needs_a_gain_jac(self):
        # the gain B0 + Bx x with no gain_jac: the step's Jacobian is not the
        # residual's (relative residual 5.2e-3 against the oracle here, for
        # an FD error bound of 2.4e-9)
        n, m, horizon = 1, 1, 2
        rng = np.random.default_rng(0)
        x0, xf = rng.standard_normal(n), rng.standard_normal(n)
        _, _, Q, R = random_lq_matrices(rng, n, m)
        dyn, _ = _random_affine(rng, n, m, with_gain_jac=False)
        spec = control_affine_spec(dyn, Q + 0.5 * np.eye(n), R, horizon, x0, xf)
        init, _ = default_initialization(spec, x0, xf)
        z = init.z + 0.1 * rng.standard_normal(init.z.size)
        gap, bound = self._gap(spec, x0, xf, z)
        assert gap <= bound

    def test_indefinite_draws_converge_where_the_dense_step_does(self):
        # the gain's state dependence is not scaled down and Q is only
        # positive semidefinite, so Q_t - C_t'R^(-1)C_t is often indefinite.
        # On every draw where Newton with the dense LU step on the
        # whole-residual FD Jacobian converges without backtracking, the
        # structured FD step converges too, in as many iterations, and
        # certifies
        checked, indefinite = 0, 0
        for seed in range(60):
            sizes = np.random.default_rng(1000 + seed)
            n, m, horizon = (int(sizes.integers(lo, hi)) for lo, hi in ((1, 4), (1, 3), (2, 11)))
            rng = np.random.default_rng(seed)
            x0, xf = rng.standard_normal(n), rng.standard_normal(n)
            banned = random_banned_sets(rng, horizon, m, 3)
            _, _, Q, R = random_lq_matrices(rng, n, m)
            dyn, Bx = _random_affine(rng, n, m, True, vectorized=True)
            spec = control_affine_spec(dyn, Q, R, horizon, x0, xf, banned=banned)
            init, _ = default_initialization(spec, x0, xf)
            try:
                z, norm, alphas = dense_fd_newton(spec, x0, xf, init.z, 20, min_step=1.0)
            except np.linalg.LinAlgError:
                continue
            if norm > 1e-10:
                continue
            got = newton_solve(spec, x0, xf, opts=NewtonOptions(fd_jacobian=True))
            assert got.converged and got.iterations == len(alphas)
            assert verify_pmp(got.trajectory, got.lift, spec).passed
            checked += 1
            for iterate in (init.z, z):
                C = np.einsum("ijl,ti->tjl", Bx, _unpack(iterate, spec, x0, xf)[2])
                reduced = Q - C.transpose(0, 2, 1) @ np.linalg.solve(R, C)
                if np.min(np.linalg.eigvalsh(reduced)) < 0.0:
                    indefinite += 1
                    break
        assert checked >= 8 and indefinite >= 4  # 11 and 5 when written

    @pytest.mark.parametrize("horizon", [4, 8])
    def test_general_cost_without_curvature_in_u_certifies(self, horizon):
        # c = 0.5 x'x: every R_t is zero, so the scan runs on P_t - sigma I;
        # the dense LU step took 4 iterations here too
        spec = _toy_spec(banned=[[1]], horizon=horizon)
        spec = validate(dataclasses.replace(spec, cost=GeneralCost(
            lambda t, x, u: 0.5 * float(x @ x),
            lambda t, x, u: x,
            lambda t, x, u: 0.0 * u,
        )))
        got = newton_solve(spec, [0.0], [1.0])
        assert got.converged and got.iterations == 4
        assert verify_pmp(got.trajectory, got.lift, spec).passed

    def test_model_calls_per_step_do_not_grow_with_n(self):
        evaluations = []
        for N in (16, 64):
            calls, dyn = _counted_toy()
            spec = control_affine_spec(dyn, [[1.0]], [[1.0]], N, [0.0], [1.0], banned=[[3]])
            q = spec.frequency_constraint.row_count
            z = np.full((N - 1) + N + N + q, 0.5)
            residual, terms = _evaluate(z, spec, [0.0], [1.0])
            calls.update(dict.fromkeys(calls, 0))
            _step(z, residual, spec, [0.0], [1.0], terms, fd=True)
            # 2 (n + m) evaluations of the stage gradients, each calling the
            # per-stage model once per stage (stage 0 without state
            # derivatives) and never its drift
            evaluations.append({
                "drift": calls["drift"], "gain": calls["gain"] / N,
                "drift_jac": calls["drift_jac"] / (N - 1), "gain_jac": calls["gain_jac"] / (N - 1),
            })
        assert evaluations[0] == evaluations[1] == {
            "drift": 0, "gain": 4.0, "drift_jac": 4.0, "gain_jac": 4.0
        }

    def test_curved_drift_converges_and_certifies(self):
        # the drift 0.5 x + 0.1 x^2 has a Jacobian affine in x, yet the
        # analytic blocks drop its second derivative 0.2 p_t: they are not
        # the Jacobian's, and their Newton converges only linearly
        dyn = ControlAffineDynamics(
            n=1,
            m=1,
            drift=lambda t, x: 0.5 * x + 0.1 * x**2,
            gain=lambda t, x: np.array([[1.0]]),
            drift_jac=lambda t, x: np.array([[0.5 + 0.2 * x[0]]]),
        )
        spec = control_affine_spec(dyn, [[1.0]], [[1.0]], 6, [0.0], [1.0], banned=[[3]])
        init, _ = default_initialization(spec, [0.0], [1.0])
        analytic = residual_jacobian(init, spec, [0.0], [1.0])
        fd = residual_jacobian(init, spec, [0.0], [1.0], fd=True)
        assert np.max(np.abs(analytic - fd)) > 0.1
        oracle = fd_residual_jacobian(init.z, spec, [0.0], [1.0])
        assert np.max(np.abs(fd - oracle)) <= 1e-8
        slow = newton_solve(spec, [0.0], [1.0])
        got = newton_solve(spec, [0.0], [1.0], opts=NewtonOptions(fd_jacobian=True))
        assert got.converged and got.iterations < slow.iterations
        assert verify_pmp(got.trajectory, got.lift, spec).passed

    def test_general_cost_meets_the_quadratic_solution(self):
        # a GeneralCost forces the finite-difference blocks; central
        # differences are exact, to rounding, on its stage gradients, affine
        # in (x_t, u_t)
        quadratic = _toy_spec(banned=[[3]], horizon=16)
        general = validate(dataclasses.replace(quadratic, cost=GeneralCost(
            lambda t, x, u: 0.5 * float(x @ x) + 0.5 * float(u @ u),
            lambda t, x, u: x,
            lambda t, x, u: u,
        )))
        ref = newton_solve(quadratic, [0.0], [1.0])
        got = newton_solve(general, [0.0], [1.0])
        assert ref.converged and got.converged
        assert np.max(np.abs(got.trajectory.controls - ref.trajectory.controls)) <= 1e-12
        assert verify_pmp(got.trajectory, got.lift, general).passed
