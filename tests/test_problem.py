"""Tests for problem validation, model variants, the batched stage terms,
container equality, and derivative checking."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bandctrl import problem
from bandctrl._memo import LastValue
from bandctrl.extremal import ExtremalLift, lift_from_solver, verify_pmp
from bandctrl.lq import lq_transfer_freq_solve, riccati_solve
from bandctrl.problem import (
    Box,
    ControlAffineDynamics,
    FREE,
    Fixed,
    Free,
    GeneralDynamics,
    LtiDynamics,
    ProblemSpec,
    ProblemValidationError,
    QuadraticCost,
    Trajectory,
    _stage_terms,
    check_jacobians,
    general_wrap,
    lti_spec,
    rollout,
    trajectory_cost,
    validate,
)
from bandctrl.shooting import StackedUnknowns, newton_solve
from bandctrl.spectrum import FrequencyConstraint, SupportSpec, build_frequency_constraint

from oracles import dense_blocks, empty_memos, loop_control_affine_terms, loop_validate_errors


def _plain_spec(horizon=4, n=2, m=1, **kwargs):
    A = np.array([[1.0, 1.0], [0.0, 1.0]])[:n, :n]
    B = np.ones((n, m))
    return ProblemSpec(
        horizon=horizon,
        dynamics=LtiDynamics(A, B),
        cost=QuadraticCost(np.eye(n), np.eye(m)),
        state_sets=kwargs.get("state_sets", (FREE,) * (horizon + 1)),
        control_sets=kwargs.get("control_sets", (FREE,) * horizon),
        supports=kwargs.get("supports", SupportSpec.all_allowed(horizon, m)),
    )


class TestValidate:
    def test_well_posed_lti(self):
        spec = validate(_plain_spec())
        assert spec.frequency_constraint is not None
        assert spec.frequency_constraint.row_count == 0

    def test_r_not_positive_definite(self):
        bad = ProblemSpec(
            horizon=4,
            dynamics=LtiDynamics(np.eye(2), np.ones((2, 1))),
            cost=QuadraticCost(np.eye(2), np.zeros((1, 1))),
            state_sets=(FREE,) * 5,
            control_sets=(FREE,) * 4,
            supports=SupportSpec.all_allowed(4, 1),
        )
        with pytest.raises(ProblemValidationError) as err:
            validate(bad)
        assert any("R not positive definite" in e for e in err.value.errors)

    def test_box_lower_above_upper_names_stage_and_coordinate(self):
        sets = [FREE] * 5
        sets[3] = Box(lower=[0.0, 2.0], upper=[1.0, 1.0])
        with pytest.raises(ProblemValidationError) as err:
            validate(_plain_spec(state_sets=tuple(sets)))
        joined = " ".join(err.value.errors)
        assert "state_sets[3]" in joined and "lower[1]" in joined

    def test_nan_box_bound_and_infinite_fixed_point_name_stage_and_coordinate(self):
        sets = [FREE] * 5
        sets[1] = Box(lower=[-np.inf, 0.0], upper=[np.inf, np.inf])  # half-spaces are legal
        sets[2] = Box(lower=[np.nan, 0.0], upper=[1.0, 1.0])
        sets[4] = Fixed([np.inf, 0.0])
        with pytest.raises(ProblemValidationError) as err:
            validate(_plain_spec(state_sets=tuple(sets)))
        assert len(err.value.errors) == 2
        assert "state_sets[2]" in err.value.errors[0] and "lower[0]" in err.value.errors[0]
        assert "state_sets[4].point[0]" in err.value.errors[1]

    def test_collects_every_violation(self):
        sets = [FREE] * 5
        sets[1] = Box(lower=[1.0, 0.0], upper=[0.0, 1.0])
        bad = ProblemSpec(
            horizon=4,
            dynamics=LtiDynamics(np.eye(2), np.ones((2, 1))),
            cost=QuadraticCost(np.eye(2), -np.eye(1)),
            state_sets=tuple(sets),
            control_sets=(FREE,) * 4,
            supports=SupportSpec.all_allowed(4, 1),
        )
        with pytest.raises(ProblemValidationError) as err:
            validate(bad)
        assert len(err.value.errors) >= 2

    def test_fixed_control_set_rejected(self):
        sets = (FREE, Fixed([0.0]), FREE, FREE)
        with pytest.raises(ProblemValidationError) as err:
            validate(_plain_spec(control_sets=sets))
        assert any("control_sets[1]" in e for e in err.value.errors)

    def test_idempotent(self):
        spec = validate(_plain_spec())
        again = validate(spec)
        assert again.horizon == spec.horizon
        assert again.frequency_constraint.row_count == spec.frequency_constraint.row_count
        assert_allclose(dense_blocks(again.frequency_constraint), dense_blocks(spec.frequency_constraint))
        assert again.state_sets == spec.state_sets

    def test_banned_index_out_of_range(self):
        spec = _plain_spec(supports=SupportSpec((frozenset({0, 9}),)))
        with pytest.raises(ProblemValidationError) as err:
            validate(spec)
        assert any("channel 0" in e for e in err.value.errors)


class Ball:
    """A stage set variant that validate does not know."""

    kind = "ball"


def _random_stage_set(rng, dim):
    """One stage set, valid or not, of a random variant."""
    odd = [np.nan, np.inf, -np.inf, -1.0, 0.0, 1.0]
    kind = rng.integers(9)
    if kind == 0:
        return FREE
    if kind == 1:
        return Free()
    if kind == 2:
        return Fixed(rng.standard_normal(dim))
    if kind == 3:
        return Fixed(rng.choice(odd, dim))
    if kind == 4:
        return Fixed(rng.choice(odd, dim + int(rng.choice([-1, 1, 2]))))
    if kind == 5:
        mid, offsets = rng.standard_normal(dim), [0.0, 1.0, np.inf]
        return Box(mid - rng.choice(offsets, dim), mid + rng.choice(offsets, dim))
    if kind == 6:
        return Box(rng.choice(odd, dim), rng.choice(odd, dim))
    if kind == 7:
        wrong = max(dim + int(rng.choice([-1, 1])), 0)
        sizes = [(wrong, dim), (dim, wrong), (wrong, wrong)][rng.integers(3)]
        return Box(rng.choice(odd, sizes[0]), rng.choice(odd, sizes[1]))
    return Ball()


def _random_stage_sets(rng, count, dim):
    """``count`` stage sets, give or take one, FREE but for a random share."""
    share = rng.choice([0.0, 0.1, 0.5, 1.0])
    count += int(rng.choice([0, 0, 0, -1, 1]))
    return tuple(_random_stage_set(rng, dim) if rng.random() < share else FREE for _ in range(count))


class TestSetValidationAgainstLoopOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        horizon=st.integers(1, 12),
        n=st.integers(1, 2),
        m=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_errors_match_the_stage_loop(self, horizon, n, m, seed):
        rng = np.random.default_rng(seed)
        spec = _plain_spec(
            horizon, n, m,
            state_sets=_random_stage_sets(rng, horizon + 1, n),
            control_sets=_random_stage_sets(rng, horizon, m),
        )
        expected = loop_validate_errors(spec)
        if not expected:
            validate(spec)
            return
        with pytest.raises(ProblemValidationError) as err:
            validate(spec)
        assert err.value.errors == expected

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["dynamics.A", "dynamics.B", "cost.Q", "cost.R"])
    def test_non_finite_matrix_is_named(self, field, value):
        mats = {"A": np.eye(2), "B": np.ones((2, 1)), "Q": np.eye(2), "R": np.eye(1)}
        mats[field[-1]][-1, -1] = value  # R = [[inf]] once
        bad = dataclasses.replace(
            _plain_spec(2, 2, 1),
            dynamics=LtiDynamics(mats["A"], mats["B"]),
            cost=QuadraticCost(mats["Q"], mats["R"]),
        )
        with pytest.raises(ProblemValidationError) as err:
            validate(bad)
        assert err.value.errors == [f"{field}: entries must be finite"]


class TestModelVariants:
    def test_lti_matches_general_wrap(self):
        rng = np.random.default_rng(0)
        lti = LtiDynamics(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))
        wrapped = general_wrap(lti)
        for _ in range(100):
            t = int(rng.integers(0, 10))
            x = rng.standard_normal(3)
            u = rng.standard_normal(2)
            assert_allclose(wrapped.step(t, x, u), lti.step(t, x, u), atol=1e-12)
            assert_allclose(wrapped.jac_x(t, x, u), lti.jac_x(t, x, u), atol=1e-12)

    def test_control_affine_matches_direct_evaluation(self):
        dyn = ControlAffineDynamics(
            n=1,
            m=1,
            drift=lambda t, x: x,
            gain=lambda t, x: np.array([[1.0 + 0.1 * x[0]]]),
            drift_jac=lambda t, x: np.array([[1.0]]),
            gain_jac=lambda t, x: np.array([[[0.1]]]),
        )
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.standard_normal(1)
            u = rng.standard_normal(1)
            expected = x + (1.0 + 0.1 * x[0]) * u
            assert_allclose(dyn.step(0, x, u), expected, atol=1e-14)
            assert_allclose(dyn.jac_x(0, x, u), [[1.0 + 0.1 * u[0]]], atol=1e-14)
            assert_allclose(dyn.jac_u(0, x, u), [[1.0 + 0.1 * x[0]]], atol=1e-14)

    def test_trajectory_shape_guard(self):
        with pytest.raises(ValueError):
            Trajectory(states=np.zeros((3, 2)), controls=np.zeros((3, 1)))

    def test_rollout_and_cost(self):
        spec = lti_spec([[1.0]], [[1.0]], [[1.0]], [[1.0]], 2, x0=[1.0])
        traj = rollout(spec.dynamics, [1.0], [[1.0], [0.0]])
        assert_allclose(traj.states.ravel(), [1.0, 2.0, 2.0])
        assert trajectory_cost(spec.cost, traj) == pytest.approx(0.5 + 0.5 + 2.0)


def _random_control_affine(rng, n, m, state_gain):
    """A time-varying control-affine model with nonlinear drift; its gain
    depends on the state (and ``gain_jac`` is given) only if ``state_gain``."""
    D, E = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    G0, G1 = rng.standard_normal((n, m)), rng.standard_normal((n, m, n)) * state_gain
    return ControlAffineDynamics(
        n,
        m,
        drift=lambda t, x: D @ np.tanh(x) + 0.1 * t * E @ x,
        gain=lambda t, x: G0 + G1 @ np.sin(x + t),
        drift_jac=lambda t, x: D * (1.0 - np.tanh(x) ** 2) + 0.1 * t * E,
        gain_jac=(lambda t, x: G1 * np.cos(x + t)) if state_gain else None,
    )


class TestControlAffinePass:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 3),
        m=st.integers(1, 3),
        horizon=st.integers(1, 40),
        state_gain=st.booleans(),
        step=st.booleans(),
        jx0=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_stage_loop(self, n, m, horizon, state_gain, step, jx0, seed):
        rng = np.random.default_rng(seed)
        dyn = _random_control_affine(rng, n, m, state_gain)
        states = rng.standard_normal((horizon + 1, n))
        controls = rng.standard_normal((horizon, m)) * 10.0 ** rng.uniform(-3, 3)
        cost = QuadraticCost(np.eye(n), np.eye(m))
        terms = _stage_terms(dyn, cost, states, controls, step=step, jx0=jx0)
        f, jx, ju, gx = loop_control_affine_terms(dyn, states, controls, step=step, jx0=jx0)
        # the gain and its state Jacobian are stacked, not recomputed
        assert np.array_equal(terms.ju, ju.reshape(horizon, n, m))
        assert (terms.gx is None) == (gx is None)
        if gx is not None:
            assert np.array_equal(terms.gx, gx)
        # f and jx add the same m products per entry, possibly in another
        # order: each entry agrees relative to the magnitude of its terms
        u = np.abs(controls)
        gain_terms = np.einsum("tij,tj->ti", np.abs(terms.ju), u)
        gain_jac_terms = 0.0 if gx is None else np.einsum("tijl,tj->til", np.abs(gx), u)
        for got, ref, products in ((terms.f, f, gain_terms), (terms.jx, jx, gain_jac_terms)):
            if ref is None:
                assert got is None
                continue
            ref = ref.reshape(got.shape)
            assert np.all(np.abs(got - ref) <= 1e-14 * (np.abs(ref) + products))


_SHAPES = {"drift": (2,), "gain": (2, 1), "drift_jac": (2, 2), "gain_jac": (2, 1, 2)}


def _misshapen_model(bad: str, vectorized: bool) -> ControlAffineDynamics:
    """A model with n = 2, m = 1 and zero callables, of which ``bad`` returns
    one entry too many (per stage, or in all for a vectorized model)."""

    def callable_(name):
        def fun(t, x):
            value = np.zeros((len(t), *_SHAPES[name]) if vectorized else _SHAPES[name])
            return np.append(value, 0.0) if name == bad else value

        return fun

    return ControlAffineDynamics(2, 1, *map(callable_, _SHAPES), vectorized=vectorized)


class TestReturnShapes:
    @pytest.mark.parametrize("vectorized", [False, True])
    @pytest.mark.parametrize("bad, shape", _SHAPES.items())
    def test_wrong_size_names_the_callable_and_shape(self, bad, shape, vectorized):
        dyn = _misshapen_model(bad, vectorized)
        states, controls = np.ones((5, 2)), np.ones((4, 1))
        cost = QuadraticCost(np.eye(2), np.eye(1))
        batch = (4,) if vectorized else ()
        message = re.escape(f"expected shape {batch + shape}")
        with pytest.raises(ValueError, match=rf"^{bad} returned shape .*{message}"):
            _stage_terms(dyn, cost, states, controls, jx0=True)
        message = re.escape(f"expected shape {(1,) + shape if vectorized else shape}")
        method = "jac_u" if bad == "gain" else "jac_x" if bad.endswith("jac") else "step"
        with pytest.raises(ValueError, match=rf"^{bad} returned shape .*{message}"):
            getattr(dyn, method)(0, states[0], controls[0])

    def test_per_stage_error_names_the_stage(self):
        gain = lambda t, x: np.ones((2, 1)) if t != 3 else np.ones(3)
        dyn = ControlAffineDynamics(2, 1, lambda t, x: x, gain, lambda t, x: np.eye(2))
        cost = QuadraticCost(np.eye(2), np.eye(1))
        with pytest.raises(ValueError, match=r"^gain returned shape \(3,\) at stage 3, expected"):
            _stage_terms(dyn, cost, np.ones((6, 2)), np.ones((5, 1)))

    def test_matching_size_is_reshaped(self):
        # as before: a gain of any shape with n * m entries is accepted
        dyn = ControlAffineDynamics(2, 1, lambda t, x: x, lambda t, x: [1.0, 2.0],
                                    lambda t, x: np.eye(2))
        terms = _stage_terms(dyn, QuadraticCost(np.eye(2), np.eye(1)), np.ones((4, 2)), np.ones((3, 1)))
        assert np.array_equal(terms.ju, np.broadcast_to([[1.0], [2.0]], (3, 2, 1)))


def _di_spec():
    A, B = np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0], [1.0]])
    return lti_spec(A, B, np.eye(2), np.eye(1), 8, x0=[0.0, 0.0], xf=[1.0, 0.0], banned=[[1]])


def _di_transfer():
    spec = _di_spec()
    d, c = spec.dynamics, spec.cost
    return lq_transfer_freq_solve(d.A, d.B, c.Q, c.R, 8, [0.0, 0.0], [1.0, 0.0], spec.frequency_constraint)


def _di_certificate():
    spec, sol = _di_spec(), _di_transfer()
    return verify_pmp(sol.trajectory, lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu), spec)


_ARRAY_CONTAINERS = {
    "LtiDynamics": lambda: LtiDynamics(np.eye(2), np.ones((2, 1))),
    "QuadraticCost": lambda: QuadraticCost(np.eye(2), np.eye(2)),
    "Fixed": lambda: Fixed([1.0, 2.0]),
    "Box": lambda: Box([0.0, 0.0], [1.0, 1.0]),
    "Trajectory": lambda: Trajectory(np.zeros((3, 2)), np.zeros((2, 2))),
    "ProblemSpec": _di_spec,
    "FrequencyConstraint": lambda: build_frequency_constraint(SupportSpec.from_banned([[1]], 8), 8, 1),
    "StackedUnknowns": lambda: StackedUnknowns.zeros(2, 1, 3, 0),
    "ExtremalLift": lambda: ExtremalLift(1.0, [0.5, 0.5], np.zeros((2, 2)), np.zeros((3, 2))),
    "RiccatiSolution": lambda: riccati_solve(np.eye(2), np.eye(2), np.eye(2), np.eye(2), 3, [1.0, 1.0])[0],
    "LqSolution": _di_transfer,
    "ShootingResult": lambda: newton_solve(_di_spec(), [0.0, 0.0], [1.0, 0.0]),
    "PmpCertificate": _di_certificate,
}


class TestContainerEquality:
    @pytest.mark.parametrize("make", list(_ARRAY_CONTAINERS.values()), ids=list(_ARRAY_CONTAINERS))
    def test_compares_by_identity_and_hashes(self, make):
        a, b = make(), make()
        assert (a == a) is True
        assert (a == b) is False and (a != b) is True
        assert len({a, b, a}) == 2


def _baseline_plant():
    """The n=4, m=2 plant of the transfer_n256 benchmark workload, at N=64."""
    rng = np.random.default_rng(0)
    A = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    return A, rng.standard_normal((4, 2)), np.eye(4), np.eye(2), 64


def _certified_transfer(plant, x0, xf, banned):
    A, B, Q, R, N = plant
    spec = lti_spec(A, B, Q, R, N, x0=x0, xf=xf, banned=banned)
    sol = lq_transfer_freq_solve(A, B, Q, R, N, x0, xf, spec.frequency_constraint)
    return spec, sol, verify_pmp(sol.trajectory, lift_from_solver(spec, sol.trajectory, sol.adjoints, sol.nu), spec)


class TestFrequencyRowsMemo:
    """validate keeps the constraint of the most recent (horizon, m, supports)."""

    @pytest.fixture(autouse=True)
    def _empty(self, monkeypatch):
        monkeypatch.setattr(problem, "_ROWS", LastValue())

    def test_equal_supports_built_afresh_hit(self):
        first = validate(_plain_spec(8, supports=SupportSpec.from_banned([[1, 3]], 8)))
        again = validate(_plain_spec(8, supports=SupportSpec.from_banned([[3, 1]], 8)))
        assert again.frequency_constraint is first.frequency_constraint
        other = validate(_plain_spec(8, supports=SupportSpec.from_banned([[1]], 8)))
        assert other.frequency_constraint.row_key != first.frequency_constraint.row_key

    def test_a_set_changed_in_place_misses(self):
        allowed = set(range(8)) - {1, 7}
        supports = SupportSpec((allowed,))  # the caller's mutable set, not copied
        before = validate(_plain_spec(8, supports=supports)).frequency_constraint
        allowed.discard(2)
        after = validate(_plain_spec(8, supports=supports)).frequency_constraint
        fresh = build_frequency_constraint(SupportSpec((frozenset(allowed),)), 8, 1)
        assert after.row_key == fresh.row_key != before.row_key

    def test_a_failed_build_is_reported_every_time(self):
        bad = _plain_spec(8, supports=SupportSpec((frozenset({0, 9}),)))
        for _ in range(2):
            with pytest.raises(ProblemValidationError, match=r"supports: channel 0: allowed indices \[9\]"):
                validate(bad)
        assert problem._ROWS._entry is None

    def test_results_do_not_depend_on_what_was_validated_before(self):
        # A, B, A gives the A of empty memos: spec, solve and certificate
        plant = _baseline_plant()
        x0, xf = np.zeros(4), np.ones(4)
        ban_a, ban_b = [[1, 2], [16]], [[3], []]
        with empty_memos():
            fresh = _certified_transfer(plant, x0, xf, ban_a)
        _certified_transfer(plant, x0, xf, ban_a)
        _certified_transfer(plant, -xf, x0, ban_b)
        (spec, sol, cert), (ref_spec, ref_sol, ref_cert) = _certified_transfer(plant, x0, xf, ban_a), fresh
        fc, ref_fc = spec.frequency_constraint, ref_spec.frequency_constraint
        assert fc.row_key == ref_fc.row_key and fc.samples.tobytes() == ref_fc.samples.tobytes()
        for got, expected in [(sol.trajectory.states, ref_sol.trajectory.states),
                              (sol.trajectory.controls, ref_sol.trajectory.controls),
                              (sol.adjoints, ref_sol.adjoints), (sol.nu, ref_sol.nu)]:
            assert got.tobytes() == expected.tobytes()
        assert cert.to_dict() == ref_cert.to_dict() and cert.passed

    def test_a_repeated_plant_builds_the_rows_once(self, monkeypatch):
        # lti_spec, lq_transfer_freq_solve and verify_pmp for three endpoint
        # pairs of one plant and ban set: the first validate builds the rows,
        # and nothing builds any after it
        built, init = [], FrequencyConstraint.__post_init__

        def spy(self):
            init(self)
            built.append(self.row_count)

        monkeypatch.setattr(FrequencyConstraint, "__post_init__", spy)
        plant = _baseline_plant()
        for k in range(3):
            _, _, cert = _certified_transfer(plant, np.full(4, k), np.ones(4), [[1, 2], [16]])
            assert cert.passed
        assert built == [6]


class TestMatrixMemo:
    """validate keeps the matrix errors of the most recent dynamics and cost."""

    @pytest.fixture(autouse=True)
    def _empty(self, monkeypatch):
        monkeypatch.setattr(problem, "_MATRICES", LastValue())

    def test_a_repeated_plant_checks_its_matrices_once(self, monkeypatch):
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        plant = _baseline_plant()
        for k in range(3):
            _, _, cert = _certified_transfer(plant, np.full(4, k), np.ones(4), [[1, 2], [16]])
            assert cert.passed
        assert calls == [(4, 4), (2, 2)]

    def test_errors_do_not_depend_on_what_was_validated_before(self):
        good = _plain_spec()
        bad = dataclasses.replace(good, cost=QuadraticCost(np.eye(2), -np.eye(1)))
        for spec, expected in [(good, None), (bad, ["cost.R: R not positive definite"]),
                               (bad, ["cost.R: R not positive definite"]), (good, None)]:
            if expected is None:
                validate(spec)
                continue
            with pytest.raises(ProblemValidationError) as err:
                validate(spec)
            assert err.value.errors == expected


class TestCheckJacobians:
    def test_lti_exact(self):
        rng = np.random.default_rng(2)
        dyn = LtiDynamics(rng.standard_normal((3, 3)), rng.standard_normal((3, 2)))
        cost = QuadraticCost(np.eye(3), np.eye(2))
        samples = [(t, rng.standard_normal(3), rng.standard_normal(2)) for t in range(5)]
        report = check_jacobians(dyn, cost, samples)
        assert report.dynamics_jac_x <= 1e-9
        assert report.dynamics_jac_u <= 1e-9

    def test_quadratic_cost_gradients(self):
        rng = np.random.default_rng(3)
        dyn = LtiDynamics(np.eye(2), np.eye(2))
        Mq = rng.standard_normal((2, 2))
        cost = QuadraticCost(Mq.T @ Mq, np.eye(2))
        samples = [(0, rng.standard_normal(2), rng.standard_normal(2)) for _ in range(5)]
        report = check_jacobians(dyn, cost, samples)
        assert report.cost_grad_x <= 1e-6
        assert report.cost_grad_u <= 1e-6

    def test_corrupted_jacobian_is_reported(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        B = np.array([[0.0], [1.0]])
        bad = A.copy()
        bad[0, 1] += 0.1
        dyn = GeneralDynamics(
            n=2,
            m=1,
            f=lambda t, x, u: A @ x + B @ u,
            f_jac_x=lambda t, x, u: bad,
            f_jac_u=lambda t, x, u: B,
        )
        report = check_jacobians(dyn, QuadraticCost(np.eye(2), np.eye(1)), [(0, [1.0, 2.0], [0.5])])
        assert report.dynamics_jac_x == pytest.approx(0.1, rel=1e-4)

    def test_fd_jacobian_makes_two_evaluations_per_coordinate(self):
        calls = []

        def fun(v):
            calls.append(v.copy())
            return np.array([v[0] * v[1], v[1] ** 2, v[2]])

        v = np.array([1.0, 2.0, -3.0])
        jac = problem._fd_jacobian(fun, v)
        assert len(calls) == 2 * v.size
        assert_allclose(jac, [[2.0, 1.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 1.0]], atol=1e-8)
        # a scalar function gives one row
        assert problem._fd_jacobian(lambda w: float(w @ w), v).shape == (1, 3)

    def test_evaluator_failure_carries_sample_tag(self):
        def boom(t, x, u):
            raise RuntimeError("bad evaluator")

        dyn = GeneralDynamics(n=1, m=1, f=boom, f_jac_x=boom, f_jac_u=boom)
        with pytest.raises(RuntimeError, match="sample 0"):
            check_jacobians(dyn, QuadraticCost(np.eye(1), np.eye(1)), [(0, [0.0], [0.0])])
