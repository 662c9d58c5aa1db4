"""Tests for the structured O(N) solve of the LTI first-order system, against
the dense assembled system it replaces."""

import tracemalloc

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
    random_banned_sets,
    random_lq_matrices,
)

EPS = float(np.finfo(float).eps)


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
        assert sol.endpoint_gap <= 1e-10
