"""Tests for the DFT machinery and the banned-frequency constraint map."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bandctrl.spectrum import (
    FrequencyConstraint,
    SupportSpec,
    build_dft_matrix,
    build_frequency_constraint,
    constraint_residual,
    forward_dft,
    numerical_rank,
    uncertainty_check,
)

from oracles import (
    DenseRows,
    channel_spread_apply,
    channel_spread_apply_transpose,
    dense_blocks,
    naive_dft,
    stacked_rows,
)


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
        _, s, _ = np.linalg.svd(stacked_rows(fc))
        assert np.sum(s > 1e-10) == 2

    def test_nyquist_row_real_only(self):
        # xi = 2 of N = 4 has a purely real DFT row, so only one row survives
        fc = build_frequency_constraint(SupportSpec.from_banned([[2]], 4), 4, 1)
        assert fc.row_count == 1
        row = stacked_rows(fc)[0]
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
        stacked = stacked_rows(fc)
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
                assert numerical_rank(stacked_rows(fc)) == fc.row_count

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
                    assert numerical_rank(stacked_rows(fc)) == fc.row_count
                    gram = stacked_rows(fc) @ stacked_rows(fc).T
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
        stacked = stacked_rows(fc)
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
        assert dense_blocks(fc).shape == expected.shape
        assert dense_blocks(fc).tobytes() == expected.tobytes()

    def test_blocks_are_immutable(self):
        fc = build_frequency_constraint(SupportSpec.from_banned([[1]], 4), 4, 1)
        with pytest.raises(ValueError):
            fc.columns()[0, 0, 0] = 1.0

    @settings(max_examples=300, deadline=None)
    @given(horizon=st.integers(1, 80), m=st.integers(1, 3), data=st.data())
    def test_operations_match_einsum_on_blocks(self, horizon, m, data):
        # DC and N/2, the bins without a sine row, are drawn often
        index = st.one_of(st.sampled_from([0, horizon // 2]), st.integers(0, horizon - 1))
        banned = data.draw(st.lists(st.lists(index, max_size=6), min_size=m, max_size=m))
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, m)
        dense = DenseRows(dense_blocks(fc))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u, basis = rng.uniform(-1, 1, (horizon, m)), rng.uniform(-1, 1, (horizon, m, 3))
        nu, nus = rng.uniform(-1, 1, fc.row_count), rng.uniform(-1, 1, (fc.row_count, 3))
        for got, expected in [
            (fc.apply(u), dense.apply(u)),
            (fc.apply(basis), dense.apply(basis)),
            (constraint_residual(fc, u), dense.apply(u)),
            (fc.apply_transpose(nu), dense.apply_transpose(nu)),
            (fc.apply_transpose(nus), dense.apply_transpose(nus)),
        ]:
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected), initial=0.0) <= 1e-14
        assert np.array_equal(fc.columns(), dense.columns())
        stacked = dense.blocks.transpose(1, 0, 2).reshape(fc.row_count, horizon * m)
        assert np.array_equal(stacked_rows(fc), stacked)
        norms = np.sqrt(np.sum(stacked_rows(fc)**2, axis=1))
        assert np.max(np.abs(fc.row_norms - norms), initial=0.0) <= 1e-14

    @settings(max_examples=300, deadline=None)
    @given(
        horizon=st.one_of(st.integers(1, 80), st.integers(0, 40).map(lambda k: 2 * k + 1)),
        m=st.integers(1, 3),
        columns=st.sampled_from([(), (1,), (3,), (2, 2)]),
        data=st.data(),
    )
    def test_flat_index_kernels_are_the_channel_spread_bit_for_bit(self, horizon, m, columns, data):
        # DC and N/2, the bins without a sine row, are drawn often; odd
        # horizons have no N/2
        index = st.one_of(st.sampled_from([0, horizon // 2]), st.integers(0, horizon - 1))
        banned = data.draw(st.lists(st.lists(index, max_size=6), min_size=m, max_size=m))
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, m)
        dense = DenseRows(dense_blocks(fc))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u = rng.uniform(-1, 1, (horizon, m) + columns)
        nu = rng.uniform(-1, 1, (fc.row_count,) + columns)  # 1-D without columns
        for got, exact, dense_form in [
            (fc.apply(u), channel_spread_apply(fc, u), dense.apply(u)),
            (fc.apply_transpose(nu), channel_spread_apply_transpose(fc, nu), dense.apply_transpose(nu)),
        ]:
            assert got.shape == exact.shape == dense_form.shape
            assert got.tobytes() == exact.tobytes()
            assert np.max(np.abs(got - dense_form), initial=0.0) <= 1e-14

    @pytest.mark.parametrize(
        "rows",
        [
            ([0, 0], [3, 5], [True, True]),  # a bin and its mirror
            ([0], [0], [True]),  # the sine part of DC vanishes
            ([1], [4], [True]),  # and that of N/2
        ],
        ids=["mirror", "dc-sine", "nyquist-sine"],
    )
    def test_dependent_rows_are_rejected(self, rows):
        channel, bins, imag = rows
        with pytest.raises(ValueError, match="dependent"):
            FrequencyConstraint(8, 2, row_channel=channel, row_bin=bins, row_imag=imag)

    @pytest.mark.parametrize(
        "args, field",
        [
            ((0, 1), "horizon"),
            ((-3, 1), "horizon"),
            ((8, 1, [0, 0], [2], [False]), "row_channel, row_bin and row_imag"),
            ((8, 1, [0], [2, 3], [False]), "row_channel, row_bin and row_imag"),
            ((8, 1, [0], [2], [False, True]), "row_channel, row_bin and row_imag"),
            ((8, 1, [1], [2], [False]), "row_channel"),
            ((8, 2, [-1], [2], [False]), "row_channel"),
        ],
        ids=["zero-horizon", "negative-horizon", "more-channels", "more-bins", "more-parts",
             "channel-past-the-last", "negative-channel"],
    )
    def test_malformed_fields_are_named(self, args, field):
        with pytest.raises(ValueError, match=f"^{field}"):
            FrequencyConstraint(*args)

    def test_banned_sets_come_from_the_rows(self):
        fc = FrequencyConstraint(8, 2, row_channel=[1, 0, 1], row_bin=[3, 4, 3], row_imag=[0, 0, 1])
        assert fc.banned() == ((4,), (3, 5))

    @pytest.mark.parametrize("xi", [6, 58, 70, -6, -58])
    def test_banned_bins_are_reduced_mod_the_horizon(self, xi):
        # every bin congruent to 6 or 58 mod 64 is the cos row of bin 6
        fc = FrequencyConstraint(64, 1, [0], [xi], [False])
        reference = build_frequency_constraint(SupportSpec.from_banned([[6]], 64), 64, 1)
        assert fc.banned() == reference.banned() == ((6, 58),)
        assert_allclose(fc.samples[:, 0], reference.samples[:, 0], rtol=0, atol=1e-15)  # its cos row

    @settings(max_examples=300, deadline=None)
    @given(horizon=st.integers(1, 40), m=st.integers(1, 3), data=st.data())
    def test_term_scale_is_the_largest_row_term_bit_for_bit(self, horizon, m, data):
        index = st.one_of(st.sampled_from([0, horizon // 2]), st.integers(0, horizon - 1))
        banned = data.draw(st.lists(st.lists(index, max_size=5), min_size=m, max_size=m))
        fc = build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, m)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        u = rng.uniform(-1, 1, (horizon, m)) * 10.0 ** rng.integers(-300, 300, (horizon, m))
        special = [0.0, -0.0, np.nan, np.inf, -np.inf, np.finfo(float).max]
        for _ in range(data.draw(st.integers(0, 3))):  # anywhere, rows or not
            u[rng.integers(horizon), rng.integers(m)] = special[rng.integers(len(special))]
        with np.errstate(all="ignore"):
            terms = dense_blocks(fc)[:, np.arange(fc.row_count), fc.row_channel] * u[:, fc.row_channel]
            scale = fc.term_scale(u)
        expected = float(np.max(np.abs(terms), initial=0.0))
        assert scale == expected or (np.isnan(scale) and np.isnan(expected))

    def test_row_key_compares_content(self):
        def build(banned, horizon=8, channels=2):
            return build_frequency_constraint(SupportSpec.from_banned(banned, horizon), horizon, channels)

        fc = build([[1], [3]])
        assert build([[1], [3]]).row_key == fc.row_key  # another object, the same rows
        assert build([[7], [5]]).row_key == fc.row_key  # the same mirror-closed bans
        others = [build([[1], [2]]), build([[3], [1]]), build([[1], [3]], horizon=9),
                  build([[1], [3], []], channels=3)]
        assert all(other.row_key != fc.row_key for other in others)


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
