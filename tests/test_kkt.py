"""Tests for the structured O(N) solve of the LTI first-order system, against
the dense assembled system it replaces."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bandctrl import kkt
from bandctrl._memo import LastValue
from bandctrl.extremal import NormalityClass, classify_normality_freq
from bandctrl.lq import (
    INFEASIBILITY_TOL,
    SolveStatus,
    lq_pmp_solve,
    lq_transfer_freq_solve,
)
from bandctrl.spectrum import FrequencyConstraint, SupportSpec, build_frequency_constraint

from oracles import (
    DenseRows,
    dense_blocks,
    dense_first_order_solve,
    dense_first_order_system,
    dynamics_row_ulps,
    empty_memos,
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


def _dense(A, B, Q, R, blocks):
    n = A.shape[0]
    return dense_first_order_system(A, B, Q, R, len(blocks), np.zeros(n), np.zeros(n), blocks)[0]


class TestProduct:
    def test_equals_assembled_matrix_product_exactly(self):
        # integer data keeps every sum exact, so any layout slip shows as inequality
        rng = np.random.default_rng(0)
        for n, m, N, q in [(1, 1, 1, 0), (2, 1, 5, 3), (3, 2, 7, 4), (4, 2, 2, 1), (2, 3, 6, 0)]:
            A, B = rng.integers(-3, 4, (n, n)), rng.integers(-3, 4, (n, m))
            Q, R = rng.integers(-3, 4, (n, n)), rng.integers(-3, 4, (m, m))
            blocks = rng.integers(-3, 4, (N, q, m)).astype(float)
            z = rng.integers(-9, 10, kkt.segments(n, m, N, q)["nu"].stop).astype(float)
            M = _dense(A.astype(float), B.astype(float), Q, R, blocks)
            product = kkt.lti_product(A, B, Q, R, DenseRows(blocks), z)
            assert np.array_equal(product, M @ z)


class TestRiccatiSweep:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 3),
        horizon=st.integers(1, 400),
        radius=st.floats(0.1, 1.1),
        q_rank=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_oracle(self, n, m, horizon, radius, q_rank, seed):
        rng = np.random.default_rng(seed)
        A, B, _, R = random_lq_matrices(rng, n, m, spectral_radius=radius)
        Mq = rng.standard_normal((min(q_rank, n), n))
        Q = Mq.T @ Mq  # rank-deficient unless q_rank >= n
        P, K, Hinv = kkt.riccati_sweep(A, B, Q, R, horizon)
        P_o, K_o, Hinv_o = loop_riccati_sweep(A, B, Q, R, horizon)
        tol = 1e-12 * (1.0 + np.max(np.abs(P_o)))
        for a, b in [(P, P_o), (K, K_o), (Hinv, Hinv_o)]:
            assert np.max(np.abs(a - b)) <= tol

    def test_slow_convergence_never_stops_early(self):
        # P_{N-k} = k Q (1 + O(k^2 Q)) for k << Q^(-1/2) = 1e6: the relative
        # step 1/k stays far above rounding, and every stage is swept
        N = 2000
        one, Q = np.ones((1, 1)), np.full((1, 1), 1e-12)
        P, K, Hinv = kkt.riccati_sweep(one, one, Q, one, N)
        assert np.all(P[:-1, 0, 0] > P[1:, 0, 0])
        k = N - np.arange(N + 1.0)
        assert np.max(np.abs(P[:, 0, 0] - k * Q[0, 0])) <= 1e-5 * N * Q[0, 0]
        P_o, K_o, Hinv_o = loop_riccati_sweep(one, one, Q, one, N)
        assert np.max(np.abs(P - P_o)) <= 1e-14 * np.max(np.abs(P_o))
        assert np.max(np.abs(K - K_o)) <= 1e-14 * np.max(np.abs(K_o))

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
        P, K, Hinv = kkt.riccati_sweep(A, B, Q, R, N)
        assert np.all(P[:3800] == P[0]) and np.all(K[:3800] == K[0])
        P_o, K_o, Hinv_o = loop_riccati_sweep(A, B, Q, R, N)
        tol = 1e-12 * (1.0 + np.max(np.abs(P_o)))
        for a, b in [(P, P_o), (K, K_o), (Hinv, Hinv_o)]:
            assert np.max(np.abs(a - b)) <= tol


def _stage_data(rng, n, m, horizon, radius, convex_cross, per_stage=False):
    """Per-stage A_t (spectral radius at most ``radius``) and B_t, Q >= I/2,
    R, and with ``convex_cross`` a cross term C_t small enough that
    Q_t - C_t'R_t^-1 C_t >= Q_t/4.  With ``per_stage`` Q and R are stacks
    (N, n, n) and (N, m, m), Q_t and R_t scaled by factors in [1/2, 2]."""
    A = rng.standard_normal((horizon, n, n))
    A *= radius / np.maximum(np.max(np.abs(np.linalg.eigvals(A)), axis=1), 1e-12)[:, None, None]
    B = rng.standard_normal((horizon, n, m))
    _, _, Q, R = random_lq_matrices(rng, n, m)
    Q = Q + 0.5 * np.eye(n)
    room = np.min(np.linalg.eigvalsh(Q)) * np.min(np.linalg.eigvalsh(R))
    if per_stage:
        Q = Q * rng.uniform(0.5, 2.0, (horizon, 1, 1))
        R = R * rng.uniform(0.5, 2.0, (horizon, 1, 1))
        room /= 4.0
    cross = None
    if convex_cross:
        cross = rng.standard_normal((horizon, m, n))
        cross *= 0.5 * np.sqrt(room) / np.max(np.linalg.norm(cross, 2, axis=(1, 2)))
    return A, B, Q, R, cross


class TestRiccatiScan:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 3),
        horizon=st.integers(1, 300),
        radius=st.floats(0.1, 1.1),
        convex_cross=st.booleans(),
        per_stage=st.booleans(),
        sigma=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_oracle(self, n, m, horizon, radius, convex_cross, per_stage, sigma, seed):
        rng = np.random.default_rng(seed)
        A, B, Q, R, cross = _stage_data(rng, n, m, horizon, radius, convex_cross, per_stage)
        terminal = sigma * np.eye(n)
        P, K, Hinv = kkt.riccati_scan(A, B, Q, R, terminal, cross)
        P_o, K_o, Hinv_o = loop_riccati_sweep(A, B, Q, R, horizon, terminal, cross)
        for a, b in [(P, P_o), (K, K_o), (Hinv, Hinv_o)]:
            assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(b)))

    def test_lti_data_match_the_sweep(self):
        A, B, Q, R = _baseline_plant()
        N = 256
        AN, BN = np.broadcast_to(A, (N, 4, 4)), np.broadcast_to(B, (N, 4, 2))
        # the sweep runs from P_N = 0 only; from P_N = I the loop is the reference
        for terminal, oracle in [
            (np.zeros((4, 4)), kkt.riccati_sweep(A, B, Q, R, N)),
            (np.eye(4), loop_riccati_sweep(A, B, Q, R, N, np.eye(4))),
        ]:
            P, K, Hinv = kkt.riccati_scan(AN, BN, Q, R, terminal)
            for a, b in zip((P, K, Hinv), oracle):
                assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.max(np.abs(b)))

    def test_singular_pivot_names_its_stage(self):
        # H_2 = R + B'P_3 B = 1 - 1 = 0 from P_3 = -1; every earlier P is then
        # not finite, and the last bad stage is the one reported
        one = np.ones((3, 1, 1))
        with pytest.raises(kkt.SingularSystemError) as err:
            kkt.riccati_scan(one, one, np.ones((1, 1)), np.ones((1, 1)), -np.ones((1, 1)))
        assert (err.value.stage, err.value.pivot) == (2, 0.0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_non_finite_weight_names_its_stage(self, m):
        N, stage = 6, 4
        one = np.ones((N, 1, 1))
        B = np.ones((N, 1, m))
        R = np.broadcast_to(np.eye(m), (N, m, m)).copy()
        R[stage] = np.nan
        for weight in (R, R[stage]):  # per stage, and one for every stage
            with pytest.raises(kkt.SingularSystemError) as err:
                kkt.time_varying_solve(one, B, np.eye(1), weight, FrequencyConstraint(N, m),
                                       np.ones(kkt.segments(1, m, N, 0)["nu"].stop))
            assert err.value.stage == (stage if weight.ndim == 3 else N - 1)

    def test_a_weight_the_shift_leaves_singular_names_its_stage(self):
        # R_3 = 0 and B_3'B_3 of rank 1 < m = 2: R_3 + sigma B_3'B_3 is singular
        N, m = 6, 2
        R = np.broadcast_to(np.eye(m), (N, m, m)).copy()
        R[3] = 0.0
        rhs = np.ones(kkt.segments(1, m, N, 0)["nu"].stop)
        with pytest.raises(kkt.SingularSystemError) as err:
            kkt.time_varying_solve(np.ones((N, 1, 1)), np.ones((N, 1, m)), np.eye(1), R,
                                   FrequencyConstraint(N, m), rhs)
        assert err.value.stage == 3

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 3),
        horizon=st.integers(1, 200),
        radius=st.floats(0.1, 1.1),
        weights=st.sampled_from(["zero", "some zero", "rank deficient"]),
        sigma=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_singular_weights_match_loop_oracle(self, n, m, horizon, radius, weights, sigma, seed):
        # R_t without an inverse, exactly or to working precision: the scan
        # runs on P_t - sigma I; the loop inverts only the pivots H_t,
        # positive definite here (Q_t > 0 and B_t of full column rank).
        # With R_t = 0 and m = n, H_t = B_t'P_{t+1}B_t can be ill-conditioned
        # (cond up to 1e8 on 400 draws), and both sides err by about
        # eps cond(H_t): up to 1.2e-10 where cond(H_t) = 4.5e6
        m = min(m, n)
        rng = np.random.default_rng(seed)
        A, B, Q, R, _ = _stage_data(rng, n, m, horizon, radius, False, per_stage=True)
        if weights == "zero":
            R = np.zeros_like(R)
        elif weights == "some zero":
            R[rng.random(horizon) < 0.5] = 0.0
        else:
            v = rng.standard_normal((horizon, m, max(m - 1, 1)))
            R = v @ v.transpose(0, 2, 1) * (m > 1)
        terminal = sigma * np.eye(n)
        P, K, Hinv = kkt.riccati_scan(A, B, Q, R, terminal)
        P_o, K_o, Hinv_o = loop_riccati_sweep(A, B, Q, R, horizon, terminal)
        tol = 1e-12 + 10.0 * np.finfo(float).eps * np.max(np.linalg.cond(Hinv_o))
        for a, b in [(P, P_o), (K, K_o), (Hinv, Hinv_o)]:
            assert np.max(np.abs(a - b)) <= tol * (1.0 + np.max(np.abs(b)))

    def test_a_singular_pivot_leaves_the_others(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((50, 2, 2))
        M[7] = [[1.0, 2.0], [2.0, 4.0]]
        out = kkt._inv_stack(M)
        bad = ~np.isfinite(out).all(axis=(1, 2))
        assert bad.tolist() == [i == 7 for i in range(50)]
        assert np.array_equal(out[8:], np.linalg.inv(M[8:]))


class TestTimeVaryingSolve:
    @pytest.mark.parametrize("n, m, N, banned", [(1, 1, 9, [[2]]), (3, 2, 17, [[1], [3, 4]]), (2, 1, 40, [[]])])
    def test_matches_the_dense_system(self, n, m, N, banned):
        rng = np.random.default_rng(N)
        A, B, Q, R, cross = _stage_data(rng, n, m, N, 1.05, True)
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, N), N, m)
        M = kkt.assemble(A, B, Q, R, fc, cross)
        rhs = rng.standard_normal(M.shape[0])
        z = kkt.time_varying_solve(A, B, Q, R, fc, rhs, cross)
        expected = np.linalg.solve(M, rhs)
        assert np.max(np.abs(z - expected)) <= 1e-10 * (1.0 + np.max(np.abs(expected)))

    def test_per_stage_weights_match_the_dense_system(self):
        N, m = 23, 2
        rng = np.random.default_rng(N)
        A, B, Q, R, cross = _stage_data(rng, 3, m, N, 1.05, True, per_stage=True)
        fc = build_frequency_constraint(SupportSpec.from_banned([[2], [5]], N), N, m)
        M = kkt.assemble(A, B, Q, R, fc, cross)
        # Q_0 and C_0 are not read: x_0 is fixed
        Q0, cross0 = Q.copy(), cross.copy()
        Q0[0], cross0[0] = np.nan, np.nan
        assert np.array_equal(M, kkt.assemble(A, B, Q0, R, fc, cross0))
        rhs = rng.standard_normal(M.shape[0])
        z = kkt.time_varying_solve(A, B, Q0, R, fc, rhs, cross0)
        expected = np.linalg.solve(M, rhs)
        assert np.max(np.abs(z - expected)) <= 1e-10 * (1.0 + np.max(np.abs(expected)))

    @pytest.mark.parametrize("weight", [0.0, 1.0])
    def test_zero_weights_match_the_dense_system(self, weight):
        # R_t = 0 at every stage, or at every other one: a cost with no
        # curvature in u, and a gain-state cross term on top
        N, m = 19, 2
        rng = np.random.default_rng(7)
        A, B, Q, R, cross = _stage_data(rng, 3, m, N, 1.05, True, per_stage=True)
        R[::2] = 0.0
        R[1::2] *= weight
        fc = build_frequency_constraint(SupportSpec.from_banned([[2], [5]], N), N, m)
        M = kkt.assemble(A, B, Q, R, fc, cross)
        rhs = rng.standard_normal(M.shape[0])
        z = kkt.time_varying_solve(A, B, Q, R, fc, rhs, cross)
        expected = np.linalg.solve(M, rhs)
        assert np.max(np.abs(z - expected)) <= 1e-10 * (1.0 + np.max(np.abs(expected)))

    def test_singular_border_reports_its_deficiency(self):
        # B = 0: x_N does not depend on the unknowns, so the w_N block is zero
        N, fc = 3, FrequencyConstraint(3, 1)
        zero = np.zeros((N, 1, 1))
        rhs = np.ones(kkt.segments(1, 1, N, 0)["nu"].stop)
        with pytest.raises(kkt.SingularSystemError) as err:
            kkt.time_varying_solve(np.ones((N, 1, 1)), zero, np.eye(1), np.eye(1), fc, rhs)
        assert err.value.deficiency == 1 and err.value.stage is None

    def test_terminal_weight_is_the_lti_rule(self):
        B, R = np.array([[1.0, 2.0], [0.5, -1.0]]), np.diag([2.0, 3.0])
        assert kkt._terminal_weight(R, B) == np.linalg.norm(R) / np.sum(B * B)
        stages = np.stack([B, 2.0 * B])  # mean |B_t|_F^2 = 2.5 |B|_F^2
        assert kkt._terminal_weight(R, stages) == pytest.approx(np.linalg.norm(R) / (2.5 * np.sum(B * B)))
        assert kkt._terminal_weight(R, np.zeros((3, 2, 2))) == 1.0
        # a stack R_t takes the root mean square of |R_t|_F
        weights = np.stack([R, 7.0 * R])
        assert kkt._terminal_weight(weights, B) == pytest.approx(5.0 * np.linalg.norm(R) / np.sum(B * B))
        assert kkt._terminal_weight(np.full((2, 2), np.inf), B) == 1.0


class TestBorder:
    def _transfer(self, N=256):
        A, B, Q, R = _baseline_plant()
        banned = [list(range(1, N // 8)), list(range(N // 4, N // 4 + N // 16))]
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, N), N, 2)
        rng = np.random.default_rng(1)
        return A, B, Q, R, fc, A @ rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)

    def test_frequency_block_is_symmetric_negative_definite(self, monkeypatch):
        A, B, Q, R, fc, ax0, xf = self._transfer()
        border, seen = kkt._stationary_border, []

        def spy(*args):
            S = border(*args)
            seen.append(S.copy())
            return S

        monkeypatch.setattr(kkt, "_PLANS", LastValue())  # an empty memo: S is formed here
        monkeypatch.setattr(kkt, "_stationary_border", spy)
        _, residual, consistent = kkt.lti_solve(A, B, Q, R, fc, ax0, xf)
        monkeypatch.undo()
        assert consistent and residual <= 1e-12
        (S,) = seen
        assert S.shape == (4 + fc.row_count,) * 2
        S_nu = S[4:, 4:]
        assert np.max(np.abs(S_nu - S_nu.T)) <= 10 * EPS * np.max(np.abs(S_nu))
        assert np.max(np.linalg.eigvalsh(0.5 * (S_nu + S_nu.T))) < 0.0

    def test_a_miss_scans_the_unit_columns_and_a_hit_scans_nothing(self, monkeypatch):
        # a miss carries the 2n unit boundary data through one pass of the
        # scans (a backward and a forward scan for the border's right-hand
        # sides, two more for the transfer map Z) and solves S once; a hit is
        # z = Z v alone: no scan and no LU solve
        A, B, Q, R = _baseline_plant()
        N = 64
        fc = build_frequency_constraint(SupportSpec.from_banned([[3], []], N), N, 2)
        calls, solve = [], np.linalg.solve

        def counted(scan):
            def spy(G, h, *args, **kwargs):
                calls.append((scan.__name__, h.shape))
                return scan(G, h, *args, **kwargs)

            return spy

        def solve_spy(a, b):
            calls.append(("solve", np.shape(b)))
            return solve(a, b)

        monkeypatch.setattr(kkt, "_PLANS", LastValue())
        for scan in (kkt._scan, kkt._scan_stationary):
            monkeypatch.setattr(kkt, scan.__name__, counted(scan))
        monkeypatch.setattr(np.linalg, "solve", solve_spy)
        scans = [("_scan_stationary", (N * 8, 4))] * 2
        miss = scans + [("solve", (4 + fc.row_count, 8))] + scans
        for expected, x0 in [(miss, np.ones(4)), ([], -np.ones(4))]:
            calls.clear()
            _, residual, consistent = kkt.lti_solve(A, B, Q, R, fc, A @ x0, -x0)
            assert consistent and residual <= 1e-12
            assert calls == expected


class TestStructuredSolve:
    @settings(max_examples=240, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 2),
        horizon=st.integers(1, 40),
        radius=st.floats(0.1, 1.1),
        free_end=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        plant=st.sampled_from(["generic", "unweighted", "unreached"]),
        edge_bins=st.booleans(),
    )
    def test_matches_dense_oracle(self, n, m, horizon, radius, free_end, seed, plant, edge_bins):
        rng = np.random.default_rng(seed)
        A, B, Q, R = random_lq_matrices(rng, n, m, spectral_radius=radius)
        x0 = rng.standard_normal(n)
        xf = None if free_end else rng.standard_normal(n)
        banned = random_banned_sets(rng, horizon, m, 3)
        if edge_bins:  # DC, and N/2 at an even horizon
            banned[0].append(0)
            banned[-1].extend([horizon // 2] if horizon % 2 == 0 else [])
        if plant == "unweighted":  # Q = 0 and A unstable, stabilizable through B
            A, Q = A * (1.1 / radius), np.zeros((n, n))
        if plant == "unreached":  # x_t[0] = 1.1^t x0[0]: a mode B does not reach
            A[0], B[0] = 0.0, 0.0
            A[0, 0] = 1.1
            if xf is not None:
                xf[0] = 1.1**horizon * x0[0]
        if free_end:  # the free-end solver, which takes no bans
            fc = FrequencyConstraint(horizon, m)
            sol = lq_pmp_solve(A, B, Q, R, horizon, x0)
            consistent = sol.status is SolveStatus.SOLVED
            if consistent:
                traj = sol.trajectory
                unknowns = kkt.StackedUnknowns.pack(
                    traj.states[1:horizon], traj.controls, sol.adjoints, np.zeros(0)
                )
        else:
            fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, m)
            z, _, consistent = kkt.lti_solve(A, B, Q, R, fc, A @ x0, xf)
            unknowns = kkt.StackedUnknowns(z, n, m, horizon, fc.row_count)
        z_dense, _, consistent_dense = dense_first_order_solve(A, B, Q, R, horizon, x0, xf, dense_blocks(fc))
        M, rhs = dense_first_order_system(A, B, Q, R, horizon, x0, xf, dense_blocks(fc))
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

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 2),
        horizon=st.one_of(st.just(1), st.integers(1, 40)),
        radius=st.floats(0.1, 1.1),
        plant=st.sampled_from(["generic", "unweighted", "unreachable"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reported_residual_is_that_of_the_whole_system_bit_for_bit(
        self, n, m, horizon, radius, plant, seed
    ):
        rng = np.random.default_rng(seed)
        A, B, Q, R = random_lq_matrices(rng, n, m, spectral_radius=radius)
        if plant == "unweighted":  # Q = 0 and A unstable, stabilizable through B
            A, Q = A * (1.1 / radius), np.zeros((n, n))
        if plant == "unreachable":  # a mode that B does not reach: mostly infeasible
            A[0], B[0] = 0.0, 0.0
            A[0, 0] = 1.1
        x0, xf = rng.standard_normal(n), rng.standard_normal(n)
        banned = random_banned_sets(rng, horizon, m, 3)
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, m)
        z, residual, consistent = kkt.lti_solve(A, B, Q, R, fc, A @ x0, xf)
        # the rhs is zero but for A x0 and xf, in one row when N = 1
        rhs = kkt.boundary_rhs(A @ x0, xf, n, m, horizon, fc.row_count)
        whole = float(np.abs(kkt.lti_product(A, B, Q, R, fc, z) - rhs).max())
        assert np.float64(residual).tobytes() == np.float64(whole).tobytes()
        assert consistent == (whole <= INFEASIBILITY_TOL * (1.0 + np.abs(rhs).max()))

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
        z, residual, consistent = kkt.lti_solve(A, B, Q, R, fc, A @ x0, xf)
        z_dense, _, consistent_dense = dense_first_order_solve(A, B, Q, R, N, x0, xf, dense_blocks(fc))
        assert consistent and consistent_dense
        assert residual <= 1e-14
        assert np.max(np.abs(z - z_dense)) <= 1e-12 * (1.0 + np.max(np.abs(z_dense)))

    def test_any_right_hand_side(self):
        # the right-hand sides lti_solve takes: any boundary data (A x0, xf)
        rng = np.random.default_rng(3)
        for n, m, N, banned in [
            (1, 1, 1, [[]]),
            (2, 1, 9, [[2]]),
            (3, 2, 17, [[1], [3, 4]]),
            (4, 2, 33, [[5, 7], []]),
        ]:
            A, B, Q, R = random_lq_matrices(rng, n, m, spectral_radius=1.05)
            fc = build_frequency_constraint(SupportSpec.from_banned(banned, N), N, m)
            M = _dense(A, B, Q, R, dense_blocks(fc))
            ax0, xf = rng.standard_normal((2, n))  # any A x0, not only one of a drawn x0
            rhs = kkt.boundary_rhs(ax0, xf, n, m, N, fc.row_count)
            z, residual, _ = kkt.lti_solve(A, B, Q, R, fc, ax0, xf)
            expected = np.linalg.solve(M, rhs)
            scale = 1.0 + np.max(np.abs(expected))
            assert np.max(np.abs(z - expected)) <= 1e-9 * scale
            assert residual <= 1e-12 * scale
            assert abs(residual - np.max(np.abs(M @ z - rhs))) <= 1e-14 * scale

    def test_singular_pivot_raises(self):
        # Q = -1.5 has no real stationary gain, so the scan runs from
        # P_3 = sigma = 1: P_2 = -1.5 + 1 - 1/2 = -1 and H_1 = 1 + P_2 = 0
        with pytest.raises(np.linalg.LinAlgError):
            kkt.lti_solve([[1.0]], [[1.0]], [[-1.5]], [[1.0]], FrequencyConstraint(3, 1), [1.0], [1.0])

    def test_non_finite_border_raises(self):
        # |B| = 1e170 overflows the border; LAPACK's least squares would not
        # return on it, so the solve reports a LinAlgError (SINGULAR) instead
        fc = build_frequency_constraint(SupportSpec.from_banned([[7, 8, 14]], 16), 16, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(np.linalg.LinAlgError):
                kkt.lti_solve([[1e-7]], [[1.17e170]], [[38.9]], [[1.0]], fc, [5e-7], [1.9])


class TestPlanMemo:
    """``lti_solve`` keeps the plant half of its last stationary fixed-end
    solve (gain, border matrix and transfer map) for the next call with that
    plant; no result depends on what was solved before."""

    @staticmethod
    def _plant(seed, N=32):
        A, B, Q, R = random_lq_matrices(np.random.default_rng(seed), 3, 2)
        fc = build_frequency_constraint(SupportSpec.from_banned([[1, 4], [2]], N), N, 2)
        return [A, B, Q, R, fc]

    @staticmethod
    def _unweighted_plant(N=32):
        """A chain of three integrators with Q = 0: every mode is marginal,
        so there is no stationary gain, and the plan comes from the scan."""
        A, B = np.eye(3) + np.eye(3, k=1), np.eye(3)[:, 1:]
        fc = build_frequency_constraint(SupportSpec.from_banned([[1, 4], [2]], N), N, 2)
        return [A, B, np.zeros((3, 3)), np.eye(2), fc]

    @staticmethod
    def _ends(plant, seed):
        rng = np.random.default_rng(seed)
        return plant[0] @ rng.standard_normal(3), rng.standard_normal(3)

    @staticmethod
    def _fresh(plant, ends):
        with empty_memos():
            return kkt.lti_solve(*plant, *ends)

    @staticmethod
    def _same(got, ref):
        return np.array_equal(got[0], ref[0]) and got[1:] == ref[1:]

    def test_interleaved_plants_give_the_empty_memo_answer(self, monkeypatch):
        plans, planned = kkt._plant_plan, []

        def spy(*args):
            planned.append(args[0])
            return plans(*args)

        monkeypatch.setattr(kkt, "_plant_plan", spy)
        # with a stationary gain, and without one
        for plant, gained in [(self._plant(1), True), (self._unweighted_plant(), False)]:
            other = self._plant(2)
            e1, e2, e3 = (self._ends(plant, seed) for seed in (1, 2, 3))
            ref = self._fresh(plant, e2)
            monkeypatch.setattr(kkt, "_PLANS", LastValue())
            planned.clear()
            kkt.lti_solve(*plant, *e1)
            hit = kkt.lti_solve(*plant, *e2)
            assert (kkt._PLANS._entry[1][0] is not None) == gained
            kkt.lti_solve(*other, *e3)
            miss = kkt.lti_solve(*plant, *e2)
            assert len(planned) == 3  # the second call reused the first one's plan
            assert self._same(hit, ref) and self._same(miss, ref)
            assert ref[2] and ref[1] <= 1e-12

    def test_a_repeated_plant_without_a_stationary_gain_runs_no_recursion(self, monkeypatch):
        # a miss scans the 2n unit boundary data once; a hit is z = Z v alone.
        # No fixed end runs the sweep, which serves the free end
        counted = {"riccati_scan": 0, "_stationary_gain": 0}

        def spy(name):
            function = getattr(kkt, name)

            def call(*args, **kwargs):
                counted[name] += 1
                return function(*args, **kwargs)

            return call

        def sweep(*args, **kwargs):
            raise AssertionError("a fixed-end solve ran riccati_sweep")

        monkeypatch.setattr(kkt, "_PLANS", LastValue())
        for name in counted:
            monkeypatch.setattr(kkt, name, spy(name))
        monkeypatch.setattr(kkt, "riccati_sweep", sweep)
        for plant, misses in [(self._unweighted_plant(), (1, 1)), (self._plant(1), (1, 0))]:
            for seed, hit in [(1, False), (2, True)]:
                for name in counted:
                    counted[name] = 0
                _, residual, consistent = kkt.lti_solve(*plant, *self._ends(plant, seed))
                assert consistent and residual <= 1e-12
                expected = (0, 0) if hit else misses
                assert (counted["_stationary_gain"], counted["riccati_scan"]) == expected

    @pytest.mark.parametrize("changed", [0, 2], ids=["A", "Q"])
    def test_a_plant_changed_in_place_is_planned_again(self, changed):
        plant = self._plant(3)
        ends = self._ends(plant, 4)
        before = kkt.lti_solve(*plant, *ends)
        plant[changed] *= 1.01  # same array object, new content
        after = kkt.lti_solve(*plant, *ends)
        assert self._same(after, self._fresh(plant, ends))
        assert not np.array_equal(after[0], before[0])

    def test_stored_arrays_are_read_only(self, monkeypatch):
        monkeypatch.setattr(kkt, "_PLANS", LastValue())
        plant = self._plant(5)
        kkt.lti_solve(*plant, *self._ends(plant, 6))
        _, (gain, S, Z) = kkt._PLANS._entry
        assert S.shape == (3 + plant[4].row_count,) * 2
        assert Z.shape == (kkt.segments(3, 2, plant[4].horizon, plant[4].row_count)["nu"].stop, 6)
        for a in (*gain, S, Z):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0.0

    def test_threads_sharing_the_memo_get_the_empty_memo_answers(self):
        # every thread alternates two plants, so the slot changes under the others
        plants = [self._plant(7), self._plant(8)]
        jobs = [(p, self._ends(plants[p], seed)) for seed in range(6) for p in (0, 1)]
        refs = [self._fresh(plants[p], ends) for p, ends in jobs]
        wrong, done = [], []

        def work(shift):
            for i in range(len(jobs)):
                k = (i + shift) % len(jobs)
                p, ends = jobs[k]
                if not self._same(kkt.lti_solve(*plants[p], *ends), refs[k]):
                    wrong.append(k)
            done.append(shift)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(shift,)) for shift in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == [0, 1, 2, 3] and wrong == []


def _stationary_gain(A, B, Q, R, horizon=4096):
    """kkt._stationary_gain with the terminal weight of ``lti_solve``."""
    return kkt._stationary_gain(A, B, Q, R, np.linalg.norm(R) / np.sum(B * B), horizon)


class TestStationaryGain:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(1, 2),
        radius=st.floats(0.1, 1.2),
        q_rank=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    # K was once the gain of the P before the last update, off by 1.3e-12
    @example(n=4, m=2, radius=1.0390625, q_rank=1, seed=3134083)
    def test_doubled_fixed_point_solves_the_riccati_equation(self, n, m, radius, q_rank, seed):
        rng = np.random.default_rng(seed)
        A, B, _, R = random_lq_matrices(rng, n, m, spectral_radius=radius)
        Mq = rng.standard_normal((min(q_rank, n), n))
        Q = Mq.T @ Mq  # rank-deficient unless q_rank >= n
        gain = _stationary_gain(A, B, Q, R)
        if gain is None:
            # a plant whose sweep wanders in the last bits never meets the
            # 4 eps test; the time-varying path serves it
            return
        P, K, Hinv, Phi = gain
        BPA = B.T @ P @ A
        riccati = Q + A.T @ P @ A - BPA.T @ np.linalg.solve(R + B.T @ P @ B, BPA)
        scale = np.max(np.abs(Q)) + np.max(np.abs(A.T @ P @ A)) + np.max(np.abs(P))
        assert np.max(np.abs(P - riccati)) <= 64 * EPS * scale
        assert np.allclose(K, -Hinv @ BPA, rtol=1e-12, atol=0.0)
        assert np.max(np.abs(np.linalg.eigvals(Phi))) < 1.0
        assert np.array_equal(Phi, A + B @ K)

    def test_modes_without_a_stabilizing_gain(self):
        # B does not reach the mode 1.1; the integrator with Q = 0 is marginal
        # (P_t -> 0 like 1/t, never reaching its fixed point)
        one, zero = np.eye(1), np.zeros((1, 1))
        A = np.array([[1.1, 0.0], [0.3, 0.5]])
        assert _stationary_gain(A, np.array([[0.0], [1.0]]), np.eye(2), one) is None
        assert _stationary_gain(one, one, zero, one) is None

    def test_unweighted_modes(self):
        # an unstable mode Q does not weigh is stabilized: P = a^2 - 1 solves
        # P = a^2 P / (1 + P), and a + K = 1/a; a stable one needs no
        # feedback: P = 0 exactly
        one, zero = np.eye(1), np.zeros((1, 1))
        P, K, _, Phi = _stationary_gain(1.1 * one, one, zero, one)
        assert abs(P[0, 0] - 0.21) <= 4 * EPS and abs(Phi[0, 0] - 1 / 1.1) <= 4 * EPS
        P, K, _, Phi = _stationary_gain(0.9 * one, one, zero, one)
        assert not P.any() and not K.any() and Phi[0, 0] == 0.9


    def test_slow_closed_loop_over_a_short_horizon_is_solved_by_the_scan(self):
        # an integrator that Q weighs by 1e-6 closes to about 0.999: not decayed
        # over 16 stages, where the closed-form columns would cancel, and
        # decayed over 8192
        one, Q = np.eye(1), np.full((1, 1), 1e-6)
        assert _stationary_gain(one, one, Q, one, 8192) is not None
        assert _stationary_gain(one, one, Q, one, 16) is None
        fc = build_frequency_constraint(SupportSpec.from_banned([[3]], 16), 16, 1)
        ends = (16, np.ones(1), -np.ones(1))
        z, residual, consistent = kkt.lti_solve(one, one, Q, one, fc, one @ ends[1], ends[2])
        z_dense = dense_first_order_solve(one, one, Q, one, *ends, dense_blocks(fc))[0]
        assert consistent and residual <= 1e-14
        assert np.max(np.abs(z - z_dense)) <= 1e-12 * np.max(np.abs(z_dense))


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

    def test_baseline_plant_at_4096_stays_under_64_mb(self):
        # the benchmark plant and bans at N = 4096 (q = 1534): the border is
        # one (n + q)^2 matrix; no (N, q) array is made on the way
        N = 4096
        A, B, Q, R = _baseline_plant()
        banned = [list(range(1, N // 8)), list(range(N // 4, N // 4 + N // 16))]
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, N), N, 2)
        assert fc.row_count == 1534
        tracemalloc.start()
        try:
            sol = lq_transfer_freq_solve(A, B, Q, R, N, np.ones(4), -np.ones(4), fc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert sol.status is SolveStatus.SOLVED
        assert sol.ls_residual <= 1e-10
