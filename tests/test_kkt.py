"""Tests for the structured O(N) solve of the LTI first-order system, against
the dense assembled system it replaces."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandctrl import kkt
from bandctrl.extremal import NormalityClass, classify_normality_freq
from bandctrl.lq import (
    INFEASIBILITY_TOL,
    SolveStatus,
    _first_order_solve,
    lq_transfer_freq_solve,
)
from bandctrl.spectrum import SupportSpec, build_frequency_constraint

from oracles import (
    dense_first_order_solve,
    dense_first_order_system,
    dynamics_row_ulps,
    loop_riccati_sweep,
    random_banned_sets,
    random_lq_matrices,
)

EPS = float(np.finfo(float).eps)


def _baseline_plant():
    """The n=4, m=2 plant of the transfer_n256 benchmark workload."""
    rng = np.random.default_rng(0)
    A = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
    return A, rng.standard_normal((4, 2)), np.eye(4), np.eye(2)


def _dense(A, B, Q, R, blocks, free_end):
    n = A.shape[0]
    xf = None if free_end else np.zeros(n)
    return dense_first_order_system(A, B, Q, R, len(blocks), np.zeros(n), xf, blocks)[0]


class TestProduct:
    def test_equals_assembled_matrix_product_exactly(self):
        # integer data keeps every sum exact, so any layout slip shows as inequality
        rng = np.random.default_rng(0)
        for n, m, N, q in [(1, 1, 1, 0), (2, 1, 5, 3), (3, 2, 7, 4), (4, 2, 2, 1), (2, 3, 6, 0)]:
            A, B = rng.integers(-3, 4, (n, n)), rng.integers(-3, 4, (n, m))
            Q, R = rng.integers(-3, 4, (n, n)), rng.integers(-3, 4, (m, m))
            blocks = rng.integers(-3, 4, (N, q, m)).astype(float)
            z = rng.integers(-9, 10, kkt.segments(n, m, N, q)["nu"].stop).astype(float)
            for free_end in (False, True):
                M = _dense(A.astype(float), B.astype(float), Q, R, blocks, free_end)
                product = kkt.lti_product(A, B, Q, R, blocks, z, free_end)
                assert np.array_equal(product, M @ z)


class TestRiccatiSweep:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 3),
        horizon=st.integers(1, 400),
        radius=st.floats(0.1, 1.1),
        q_rank=st.integers(0, 4),
        sigma=st.one_of(st.none(), st.floats(0.1, 10.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_oracle(self, n, m, horizon, radius, q_rank, sigma, seed):
        rng = np.random.default_rng(seed)
        A, B, _, R = random_lq_matrices(rng, n, m, spectral_radius=radius)
        Mq = rng.standard_normal((min(q_rank, n), n))
        Q = Mq.T @ Mq  # rank-deficient unless q_rank >= n
        terminal = None if sigma is None else sigma * np.eye(n)
        P, K, Hinv = kkt.riccati_sweep(A, B, Q, R, horizon, terminal)
        P_o, K_o, Hinv_o = loop_riccati_sweep(A, B, Q, R, horizon, terminal)
        tol = 1e-12 * (1.0 + np.max(np.abs(P_o)))
        for a, b in [(P, P_o), (K, K_o), (Hinv, Hinv_o)]:
            assert np.max(np.abs(a - b)) <= tol

    def test_slow_convergence_never_stops_early(self):
        # P_t = 1/(N - t + 1): the relative step 1/k stays far above rounding
        N = 2000
        one, zero = np.ones((1, 1)), np.zeros((1, 1))
        P, K, Hinv = kkt.riccati_sweep(one, one, zero, one, N, one)
        assert np.all(P[:-1, 0, 0] < P[1:, 0, 0])
        k = N - np.arange(N + 1) + 1.0
        assert np.max(np.abs(P[:, 0, 0] * k - 1.0)) <= 1e-12
        P_o, K_o, Hinv_o = loop_riccati_sweep(one, one, zero, one, N, one)
        assert np.max(np.abs(P - P_o)) <= 1e-14
        assert np.max(np.abs(K - K_o)) <= 1e-14

    def test_zero_weights_give_exact_zero(self):
        rng = np.random.default_rng(4)
        A, B = rng.standard_normal((3, 3)), rng.standard_normal((3, 2))
        R = np.array([[2.0, 0.5], [0.5, 1.0]])
        P, K, Hinv = kkt.riccati_sweep(A, B, np.zeros((3, 3)), R, 50)
        assert not P.any() and not K.any()
        assert np.allclose(Hinv, np.linalg.inv(R), rtol=1e-15, atol=0.0)

    def test_long_horizon_reaches_its_fixed_point(self):
        A, B, Q, R = _baseline_plant()
        N = 4096
        P, K, Hinv = kkt.riccati_sweep(A, B, Q, R, N, np.eye(4))
        assert np.all(P[:3800] == P[0]) and np.all(K[:3800] == K[0])
        P_o, K_o, Hinv_o = loop_riccati_sweep(A, B, Q, R, N, np.eye(4))
        tol = 1e-12 * (1.0 + np.max(np.abs(P_o)))
        for a, b in [(P, P_o), (K, K_o), (Hinv, Hinv_o)]:
            assert np.max(np.abs(a - b)) <= tol


class TestBorder:
    def _transfer(self, N=256):
        A, B, Q, R = _baseline_plant()
        banned = [list(range(1, N // 8)), list(range(N // 4, N // 4 + N // 16))]
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, N), N, 2)
        rng = np.random.default_rng(1)
        rhs = kkt.boundary_rhs(A @ rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4), 4, 2, N, fc.row_count)
        return A, B, Q, R, fc.blocks, rhs

    def test_frequency_block_is_symmetric_negative_definite(self, monkeypatch):
        A, B, Q, R, blocks, rhs = self._transfer()
        solve, seen = np.linalg.solve, []

        def spy(S, b):
            seen.append(S.copy())
            return solve(S, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        _, residual, consistent = kkt.lti_solve(A, B, Q, R, blocks, rhs)
        monkeypatch.undo()
        assert consistent and residual <= 1e-12
        (S,) = seen
        assert S.shape == (4 + blocks.shape[1],) * 2
        S_nu = S[4:, 4:]
        assert np.max(np.abs(S_nu - S_nu.T)) <= 10 * EPS * np.max(np.abs(S_nu))
        assert np.max(np.linalg.eigvalsh(0.5 * (S_nu + S_nu.T))) < 0.0

    @pytest.mark.parametrize("free_end, banned", [(False, [[3]]), (True, [[]]), (True, [[3]])])
    def test_two_scans_per_solve(self, monkeypatch, free_end, banned):
        # the backward scan carries every column and the border comes from it;
        # the one forward scan carries the solution alone
        A, B, Q, R = _baseline_plant()
        N = 64
        fc = build_frequency_constraint(SupportSpec.from_banned(banned + [[]], N), N, 2)
        rhs = kkt.boundary_rhs(A @ np.ones(4), None if free_end else -np.ones(4), 4, 2, N, fc.row_count)
        scan, calls = kkt._scan, []

        def counted(G, h):
            calls.append(h.shape[-1])
            return scan(G, h)

        monkeypatch.setattr(kkt, "_scan", counted)
        _, residual, consistent = kkt.lti_solve(A, B, Q, R, fc.blocks, rhs, free_end)
        assert consistent and residual <= 1e-12
        lam = 0 if free_end else 4
        assert calls == [1 + lam + fc.row_count, 1]


class TestStructuredSolve:
    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 2),
        horizon=st.integers(1, 40),
        radius=st.floats(0.1, 1.1),
        free_end=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_oracle(self, n, m, horizon, radius, free_end, seed):
        rng = np.random.default_rng(seed)
        A, B, Q, R = random_lq_matrices(rng, n, m, spectral_radius=radius)
        x0 = rng.standard_normal(n)
        xf = None if free_end else rng.standard_normal(n)
        banned = random_banned_sets(rng, horizon, m, 3)
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, m)
        unknowns, residual, consistent = _first_order_solve(A, B, Q, R, horizon, x0, xf, fc.blocks)
        z_dense, _, consistent_dense = dense_first_order_solve(A, B, Q, R, horizon, x0, xf, fc.blocks)
        M, rhs = dense_first_order_system(A, B, Q, R, horizon, x0, xf, fc.blocks)
        if consistent != consistent_dense:
            # only where rounding alone could cross the threshold: the residual a
            # backward-stable solve may leave, d eps |M| |z|, reaches a tenth of it
            rounding = M.shape[0] * EPS * np.linalg.norm(M, np.inf) * np.max(np.abs(z_dense))
            assert rounding >= 0.1 * INFEASIBILITY_TOL * (1.0 + np.max(np.abs(rhs)))
            return
        if not consistent:
            return
        oracle = kkt.StackedUnknowns(z_dense, n, m, horizon, fc.row_count)
        pairs = [(unknowns.states(), oracle.states()), (unknowns.controls(), oracle.controls())]
        # the adjoints are unique unless some extremal is abnormal (never at a free end)
        if free_end or classify_normality_freq(A, B, horizon, fc).classification is NormalityClass.ALL_NORMAL:
            pairs.append((unknowns.adjoints(), oracle.adjoints()))
        scale = 1.0 + max(np.max(np.abs(b), initial=0.0) for _, b in pairs)
        gap = max(np.max(np.abs(a - b), initial=0.0) for a, b in pairs) / scale
        # two backward-stable solves differ by up to about cond(M) eps relative
        assert gap <= 1e-9 or gap <= 10 * EPS * np.linalg.cond(M)

    @pytest.mark.parametrize(
        "A, B, Q, N, x0, xf, banned",
        [
            ([[1.1]], [[1.0]], [[0.0]], 256, [1.0], [0.0], [[]]),
            ([[1.08, 0.2], [0.0, 0.9]], [[0.0], [1.0]], [[0.0, 0.0], [0.0, 1.0]], 300,
             [1.0, -1.0], [0.5, 0.2], [[2, 5]]),
        ],
    )
    def test_unweighted_unstable_mode_over_long_horizon(self, A, B, Q, N, x0, xf, banned):
        # Q leaves an unstable mode unweighted; a sweep from P_N = 0 keeps it open
        # loop, and its rho^N-sized columns cancel to a residual of about rho^N eps
        A, B, Q, R = np.array(A), np.array(B), np.array(Q), np.eye(1)
        x0, xf = np.array(x0), np.array(xf)
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, N), N, 1)
        unknowns, residual, consistent = _first_order_solve(A, B, Q, R, N, x0, xf, fc.blocks)
        z_dense, _, consistent_dense = dense_first_order_solve(A, B, Q, R, N, x0, xf, fc.blocks)
        assert consistent and consistent_dense
        assert residual <= 1e-14
        assert np.max(np.abs(unknowns.z - z_dense)) <= 1e-12 * (1.0 + np.max(np.abs(z_dense)))

    def test_any_right_hand_side(self):
        rng = np.random.default_rng(3)
        for n, m, N, banned in [
            (1, 1, 1, [[]]),
            (2, 1, 9, [[2]]),
            (3, 2, 17, [[1], [3, 4]]),
            (4, 2, 33, [[5, 7], []]),
        ]:
            A, B, Q, R = random_lq_matrices(rng, n, m, spectral_radius=1.05)
            fc = build_frequency_constraint(SupportSpec.from_banned(banned, N), N, m)
            for free_end in (False, True):
                M = _dense(A, B, Q, R, fc.blocks, free_end)
                rhs = rng.standard_normal(M.shape[0])
                z, residual, _ = kkt.lti_solve(A, B, Q, R, fc.blocks, rhs, free_end)
                expected = np.linalg.solve(M, rhs)
                scale = 1.0 + np.max(np.abs(expected))
                assert np.max(np.abs(z - expected)) <= 1e-9 * scale
                assert residual <= 1e-12 * scale
                assert abs(residual - np.max(np.abs(M @ z - rhs))) <= 1e-14 * scale

    def test_singular_pivot_raises(self):
        blocks = np.zeros((3, 0, 1))
        rhs = np.ones(kkt.segments(1, 1, 3, 0)["nu"].stop)
        with pytest.raises(np.linalg.LinAlgError):
            kkt.lti_solve([[1.0]], [[1.0]], [[0.0]], [[0.0]], blocks, rhs, free_end=True)

    def test_non_finite_border_raises(self):
        # |B| = 1e170 overflows the border; LAPACK's least squares would not
        # return on it, so the solve reports a LinAlgError (SINGULAR) instead
        fc = build_frequency_constraint(SupportSpec.from_banned([[7, 8, 14]], 16), 16, 1)
        rhs = kkt.boundary_rhs(np.array([5e-7]), np.array([1.9]), 1, 1, 16, fc.row_count)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(np.linalg.LinAlgError):
                kkt.lti_solve([[1e-7]], [[1.17e170]], [[38.9]], [[1.0]], fc.blocks, rhs)


class TestMemory:
    def test_long_horizon_transfer_stays_linear_in_memory(self):
        # one dense (size x size) matrix at this horizon would take about 850 MB
        N = 2048
        A = np.array([[0.9, 0.2], [-0.1, 0.8]])
        B = np.array([[0.0], [1.0]])
        Q, R = np.eye(2), np.eye(1)
        fc = build_frequency_constraint(SupportSpec.from_banned([[1, 5, 300, 1000]], N), N, 1)
        tracemalloc.start()
        try:
            sol = lq_transfer_freq_solve(A, B, Q, R, N, [1.0, -1.0], [0.5, 0.5], fc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert sol.status is SolveStatus.SOLVED
        assert sol.ls_residual <= 1e-10
        # the last dynamics row reaches xf to the rounding of its terms
        states, controls = sol.trajectory.states, sol.trajectory.controls
        assert dynamics_row_ulps(A, B, states, controls)[-1] <= 30.0
