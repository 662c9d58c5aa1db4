"""Tests for the DFT machinery and the banned-frequency constraint map."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bandctrl.spectrum import (
    SupportSpec,
    build_dft_matrix,
    build_frequency_constraint,
    constraint_residual,
    forward_dft,
    numerical_rank,
    uncertainty_check,
)

from oracles import naive_dft


class TestDftMatrix:
    def test_size_one(self):
        assert_allclose(build_dft_matrix(1), [[1.0]])

    def test_size_two(self):
        expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        assert_allclose(build_dft_matrix(2), expected, atol=1e-15)

    def test_size_four_entrywise(self):
        phi = build_dft_matrix(4)
        assert abs(phi[1, 1] - (-0.5j)) < 1e-15
        omega = np.exp(-2j * np.pi / 4)
        for xi in range(4):
            for t in range(4):
                assert abs(phi[xi, t] - omega ** (xi * t) / 2.0) < 1e-12

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            build_dft_matrix(0)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 17, 64, 128, 256])
    def test_unitary(self, size):
        phi = build_dft_matrix(size)
        assert np.max(np.abs(phi.conj().T @ phi - np.eye(size))) < 1e-12

    @pytest.mark.parametrize("size", [2, 3, 7, 16])
    def test_symmetric(self, size):
        phi = build_dft_matrix(size)
        assert np.max(np.abs(phi - phi.T)) < 1e-14


class TestForwardDft:
    def test_constant_signal(self):
        comp = forward_dft([2.5, 2.5, 2.5, 2.5])
        assert abs(comp[0] - 5.0) < 1e-12
        assert np.max(np.abs(comp[1:])) < 1e-12

    def test_unit_impulse(self):
        comp = forward_dft([1.0, 0.0, 0.0, 0.0])
        assert_allclose(comp, np.full(4, 0.5), atol=1e-14)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        u = rng.standard_normal(8)
        assert np.max(np.abs(forward_dft(u) - naive_dft(u))) < 1e-12

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            forward_dft([])

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal(9)
        comp = forward_dft(u)
        for xi in range(1, 9):
            assert abs(comp[9 - xi] - np.conj(comp[xi])) < 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(3)
        for size in (1, 4, 13, 50):
            u = rng.standard_normal(size)
            assert abs(np.linalg.norm(forward_dft(u)) - np.linalg.norm(u)) < 1e-10


class TestFrequencyConstraint:
    def test_all_allowed_gives_empty_constraint(self):
        fc = build_frequency_constraint(SupportSpec.all_allowed(6, 2), 6, 2)
        assert fc.row_count == 0
        assert fc.effective_rank == 0
        assert constraint_residual(fc, np.ones((6, 2))).shape == (0,)

    def test_symmetric_pair_nullspace(self):
        # banning {1, 3} for N=4 leaves exactly the span of 1 and (-1)^t
        fc = build_frequency_constraint(SupportSpec.from_banned([[1, 3]], 4), 4, 1)
        assert fc.row_count == 2
        const = np.ones((4, 1))
        alt = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        assert np.max(np.abs(constraint_residual(fc, const))) < 1e-12
        assert np.max(np.abs(constraint_residual(fc, alt))) < 1e-12
        rng = np.random.default_rng(0)
        outside = rng.standard_normal((4, 1))
        assert np.max(np.abs(constraint_residual(fc, outside))) > 1e-3
        # brute-force SVD: null space of the stacked matrix is 2-dimensional
        _, s, _ = np.linalg.svd(fc.stacked)
        assert np.sum(s > 1e-10) == 2

    def test_nyquist_row_real_only(self):
        # xi = 2 of N = 4 has a purely real DFT row, so only one row survives
        fc = build_frequency_constraint(SupportSpec.from_banned([[2]], 4), 4, 1)
        assert fc.row_count == 1
        row = fc.stacked[0]
        assert_allclose(np.abs(row), [0.5, 0.5, 0.5, 0.5], atol=1e-14)
        u = np.array([[1.0], [2.0], [3.0], [4.0]])
        expected = 0.5 * (1.0 - 2.0 + 3.0 - 4.0)
        assert abs(constraint_residual(fc, u)[0] - np.sign(row[0]) * expected) < 1e-12

    def test_symmetrization_closure(self):
        # banning {1} alone must also pin component N-1 = 3
        fc = build_frequency_constraint(SupportSpec.from_banned([[1]], 4), 4, 1)
        assert fc.banned() == ((1, 3),)
        assert fc.row_count == 2
        rng = np.random.default_rng(1)
        # project a random signal onto the constraint null space, check both mirrors vanish
        stacked = fc.stacked
        u = rng.standard_normal(4)
        u -= stacked.T @ np.linalg.solve(stacked @ stacked.T, stacked @ u)
        comp = forward_dft(u)
        assert abs(comp[1]) < 1e-10 and abs(comp[3]) < 1e-10

    def test_residual_matches_banned_components(self):
        rng = np.random.default_rng(5)
        fc = build_frequency_constraint(SupportSpec.from_banned([[3, 5]], 8), 8, 1)
        assert fc.row_count == 2
        u = rng.standard_normal((8, 1))
        comp = forward_dft(u[:, 0])
        resid = constraint_residual(fc, u)
        assert abs(np.linalg.norm(resid) - abs(comp[3])) < 1e-12
        assert abs(abs(comp[5]) - abs(comp[3])) < 1e-12  # conjugate mirror

    def test_full_row_rank_after_reduction(self):
        rng = np.random.default_rng(11)
        for horizon, channels in [(4, 1), (6, 2), (9, 3), (8, 2)]:
            banned = [
                sorted(rng.choice(horizon, size=rng.integers(0, 3), replace=False).tolist())
                for _ in range(channels)
            ]
            fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, channels)
            assert fc.effective_rank == fc.row_count
            if fc.row_count:
                assert numerical_rank(fc.stacked) == fc.row_count

    @pytest.mark.parametrize("channels", [1, 2])
    def test_rows_orthogonal_so_rank_is_row_count(self, channels):
        # effective_rank is set to row_count without an SVD, because F F' is
        # diagonal with entries 1 (cos rows at xi = 0 and N/2) or 1/2
        rng = np.random.default_rng(17 + channels)
        for horizon in list(range(1, 25)) + [64, 255, 256, 1024]:
            for draw in range(3):
                if draw == 0 and horizon <= 24:
                    banned = [list(range(horizon))] * channels  # every frequency
                else:
                    banned = [
                        rng.choice(horizon, size=rng.integers(0, min(horizon, 12) + 1), replace=False)
                        for _ in range(channels)
                    ]
                fc = build_frequency_constraint(
                    SupportSpec.from_banned(banned, horizon), horizon, channels
                )
                assert fc.effective_rank == fc.row_count
                if fc.row_count:
                    assert numerical_rank(fc.stacked) == fc.row_count
                    gram = fc.stacked @ fc.stacked.T
                    diag = np.diag(gram)
                    assert np.all(np.isclose(diag, 1.0) | np.isclose(diag, 0.5))
                    assert np.max(np.abs(gram - np.diag(diag))) < 1e-12

    def test_residual_zero_iff_banned_components_zero(self):
        rng = np.random.default_rng(13)
        fc = build_frequency_constraint(SupportSpec.from_banned([[2], [1, 5]], 6), 6, 2)
        for _ in range(20):
            u = rng.standard_normal((6, 2))
            resid = np.max(np.abs(constraint_residual(fc, u)))
            banned_mag = max(
                np.max(np.abs(forward_dft(u[:, k])[list(b)])) if b else 0.0
                for k, b in enumerate(fc.banned())
            )
            assert (resid <= 1e-10) == (banned_mag <= 1e-10)
        # now force feasibility and re-check the equivalence in the other direction
        stacked = fc.stacked
        w = rng.standard_normal(12)
        w -= stacked.T @ np.linalg.solve(stacked @ stacked.T, stacked @ w)
        u = w.reshape(6, 2)
        assert np.max(np.abs(constraint_residual(fc, u))) <= 1e-10
        for k, b in enumerate(fc.banned()):
            if b:
                assert np.max(np.abs(forward_dft(u[:, k])[list(b)])) <= 1e-10

    def test_channel_count_mismatch(self):
        with pytest.raises(ValueError):
            build_frequency_constraint(SupportSpec.from_banned([[1]], 4), 4, 2)

    @pytest.mark.parametrize(
        "horizon,banned",
        [
            (1, [[0]]),
            (4, [[0, 2], []]),
            (9, [[1, 4], [0], [7]]),
            (16, [[3, 8, 13], [1, 2]]),
            (64, [list(range(1, 8)), [16, 20, 32]]),
            (256, [list(range(1, 32)), list(range(64, 80))]),
        ],
    )
    def test_blocks_byte_equal_to_dense_dft_construction(self, horizon, banned):
        """The rows computed directly equal the rows selected from the N x N
        DFT matrix and column-permuted, as built before, byte for byte."""
        channels = len(banned)
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, channels)
        phi = build_dft_matrix(horizon)
        rows = []
        for k, chan in enumerate(banned):
            reps = sorted({min(xi % horizon, -xi % horizon) for xi in chan})
            for xi in reps:
                row = np.zeros(horizon * channels, dtype=complex)
                row[k * horizon : (k + 1) * horizon] = phi[xi]
                rows.append(row)
        selected = np.array(rows, dtype=complex).reshape(len(rows), horizon * channels)
        stacked = np.vstack([selected.real, selected.imag])
        col_map = np.empty(horizon * channels, dtype=int)
        for t in range(horizon):
            for k in range(channels):
                col_map[t * channels + k] = k * horizon + t
        stacked = stacked[:, col_map]
        reduced = stacked[np.max(np.abs(stacked), axis=1) >= 1e-12]
        expected = reduced.reshape(-1, horizon, channels).transpose(1, 0, 2)
        assert fc.blocks.shape == expected.shape
        assert fc.blocks.tobytes() == expected.tobytes()

    def test_blocks_are_immutable(self):
        fc = build_frequency_constraint(SupportSpec.from_banned([[1]], 4), 4, 1)
        with pytest.raises(ValueError):
            fc.blocks[0, 0, 0] = 1.0


class TestUncertaintyCheck:
    def test_zero_channel_vacuous(self):
        report = uncertainty_check(np.zeros((4, 1)))[0]
        assert report.vacuous and report.satisfied

    def test_constant_channel(self):
        report = uncertainty_check(np.full((4, 1), 3.0))[0]
        assert (report.time_support, report.freq_support) == (4, 1)
        assert report.lower_bound == 4.0
        assert report.satisfied and not report.vacuous

    def test_unit_impulse(self):
        u = np.zeros((4, 1))
        u[0, 0] = 1.0
        report = uncertainty_check(u)[0]
        assert (report.time_support, report.freq_support) == (1, 4)
        assert report.satisfied

    def test_random_channels_never_violate(self):
        rng = np.random.default_rng(8)
        for size in (1, 2, 5, 16):
            reports = uncertainty_check(rng.standard_normal((size, 2)))
            assert all(r.satisfied for r in reports)
