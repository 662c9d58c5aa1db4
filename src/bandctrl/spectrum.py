"""Discrete Fourier transform machinery and banned-frequency control constraints.

A length-N real control channel u has frequency components Phi @ u, where Phi
is the unitary N x N DFT matrix.  Requiring selected components of every
channel to vanish is a linear equality constraint on the time-domain control
trajectory.  It is assembled here the band-stop way: take the banned rows of
the per-channel DFT, split real and imaginary parts, reorder the columns from
channel-stacked to time-stacked controls, and drop rows that are identically
zero.  The result is a family of real blocks F_0 .. F_{N-1} with

    sum_t F_t @ u_t = 0   iff   every banned component of every channel is 0.

Because the controls are real, component N - xi is the complex conjugate of
component xi, so banned sets are closed under the mirror map xi -> N - xi and
only one representative per mirror orbit contributes rows.  This keeps the
stacked constraint matrix full row rank, which the normality tests in
``bandctrl.extremal`` rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZERO_ROW_TOL",
    "SupportSpec",
    "FrequencyConstraint",
    "UncertaintyReport",
    "build_dft_matrix",
    "forward_dft",
    "channel_to_time_permutation",
    "build_frequency_constraint",
    "constraint_residual",
    "uncertainty_check",
    "numerical_rank",
]

# A constructed constraint row counts as identically zero below this magnitude
# (e.g. the imaginary part of the rows at xi = 0 and xi = N/2).
ZERO_ROW_TOL = 1e-12

_RANK_RTOL = 1e-14
_RANK_FLOOR = 1e-12


def _rank_cutoff(largest: float, size: int) -> float:
    """Singular values below this count as zero, for a matrix whose larger
    side is ``size`` and whose largest singular value is ``largest``."""
    return max(size * largest * _RANK_RTOL, _RANK_FLOOR)


def numerical_rank(matrix: np.ndarray) -> int:
    """Rank with singular values below max(shape)*s_max*1e-14 (floor 1e-12)
    counted as zero."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s >= _rank_cutoff(s[0], max(a.shape))))


def build_dft_matrix(size: int) -> np.ndarray:
    """Unitary DFT matrix with entry (xi, t) = exp(-i 2 pi xi t / size) / sqrt(size).

    The matrix is symmetric, and row xi reads off the xi-th frequency
    component of a length-``size`` signal.
    """
    if size < 1:
        raise ValueError(f"horizon must be a positive integer, got {size}")
    idx = np.arange(size)
    # reduce the exponent mod size before exponentiating: keeps the phase
    # argument small so unitarity holds to ~1e-13 even at size 256
    phase = np.outer(idx, idx) % size
    return np.exp((-2j * np.pi / size) * phase) / np.sqrt(size)


def forward_dft(signal) -> np.ndarray:
    """Frequency components of one real control channel, unitary scaling.

    Equals ``build_dft_matrix(N) @ signal`` up to rounding, computed by the
    FFT; for real input the output has conjugate symmetry
    u_hat[N - xi] == conj(u_hat[xi]).
    """
    u = np.atleast_1d(np.asarray(signal, dtype=float))
    if u.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {u.shape}")
    if u.size == 0:
        raise ValueError("signal must contain at least one sample")
    return np.fft.fft(u, norm="ortho")


@dataclass(frozen=True)
class SupportSpec:
    """Per-channel sets of frequency indices where nonzero components are allowed."""

    allowed: tuple[frozenset[int], ...]

    @property
    def channels(self) -> int:
        return len(self.allowed)

    @classmethod
    def all_allowed(cls, horizon: int, channels: int) -> "SupportSpec":
        full = frozenset(range(horizon))
        return cls(tuple(full for _ in range(channels)))

    @classmethod
    def from_banned(cls, banned, horizon: int) -> "SupportSpec":
        """Complement per-channel banned index lists against 0..horizon-1."""
        full = frozenset(range(horizon))
        sets = []
        for k, chan in enumerate(banned):
            idx = {int(i) for i in chan}
            out = sorted(i for i in idx if not 0 <= i < horizon)
            if out:
                raise ValueError(
                    f"channel {k}: banned frequencies {out} outside 0..{horizon - 1}"
                )
            sets.append(full - idx)
        return cls(tuple(sets))

    def banned(self, horizon: int) -> tuple[tuple[int, ...], ...]:
        full = set(range(horizon))
        return tuple(tuple(sorted(full - set(a))) for a in self.allowed)


@dataclass(frozen=True)
class FrequencyConstraint:
    """Real equality constraint sum_t F_t u_t = 0 on a control trajectory.

    ``blocks`` has shape (horizon, row_count, channels); ``stacked`` is the
    row_count x (horizon*channels) matrix acting on time-stacked controls, a
    view of ``blocks`` (which are stored in its row order).
    The constraint vanishes exactly when every banned DFT component of every
    channel vanishes.  By construction the stacked matrix has full row rank
    (one mirror representative per banned orbit, analytically-zero rows
    dropped), so ``effective_rank == row_count``.
    """

    blocks: np.ndarray
    row_count: int
    effective_rank: int
    canonical_supports: SupportSpec

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=float)
        if blocks.ndim != 3:
            raise ValueError(f"blocks must be (horizon, rows, channels), got {blocks.shape}")
        # a copy laid out row by row of the stacked matrix, so that
        # ``stacked`` is a view
        blocks = np.array(blocks.transpose(1, 0, 2), order="C").transpose(1, 0, 2)
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @property
    def horizon(self) -> int:
        return self.blocks.shape[0]

    @property
    def channels(self) -> int:
        return self.blocks.shape[2]

    @property
    def stacked(self) -> np.ndarray:
        horizon, q, m = self.blocks.shape
        return self.blocks.transpose(1, 0, 2).reshape(q, horizon * m)

    def banned(self) -> tuple[tuple[int, ...], ...]:
        return self.canonical_supports.banned(self.horizon)


def channel_to_time_permutation(horizon: int, channels: int) -> np.ndarray:
    """Permutation matrix sending channel-stacked controls (u^(1); ...; u^(m))
    to time-stacked controls (u_0; ...; u_{N-1})."""
    size = horizon * channels
    perm = np.zeros((size, size))
    for t in range(horizon):
        for k in range(channels):
            perm[t * channels + k, k * horizon + t] = 1.0
    return perm


def build_frequency_constraint(
    supports: SupportSpec, horizon: int, channels: int
) -> FrequencyConstraint:
    """Build the banned-frequency equality constraint for the given supports.

    Steps: symmetrize each banned set under xi -> N - xi, compute the DFT rows
    of one representative per mirror orbit for each channel (O(qN), without
    the N x N matrix), place them in time-stacked control coordinates, stack
    real and imaginary parts, drop identically-zero rows, and slice the
    remainder into per-time blocks.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon}")
    if supports.channels != channels:
        raise ValueError(
            f"support spec has {supports.channels} channels, expected {channels}"
        )
    full = frozenset(range(horizon))
    for k, allowed in enumerate(supports.allowed):
        out = sorted(i for i in allowed if not 0 <= i < horizon)
        if out:
            raise ValueError(f"channel {k}: allowed indices {out} outside 0..{horizon - 1}")

    canon_allowed = []
    reps_per_channel = []
    for allowed in supports.allowed:
        sym = set()
        for xi in full - frozenset(int(i) for i in allowed):
            sym.add(xi)
            sym.add((horizon - xi) % horizon)
        canon_allowed.append(full - sym)
        reps_per_channel.append(sorted({min(xi, (horizon - xi) % horizon) for xi in sym}))
    canonical = SupportSpec(tuple(canon_allowed))

    # only the selected rows of build_dft_matrix(horizon), entry for entry
    reps = np.array([xi for chan in reps_per_channel for xi in chan], dtype=int)
    chans = np.array([k for k, chan in enumerate(reps_per_channel) for _ in chan], dtype=int)
    phase = np.outer(reps, np.arange(horizon)) % horizon
    rows = np.exp((-2j * np.pi / horizon) * phase) / np.sqrt(horizon)
    # time-stacked control coordinates: row r acts on channel chans[r] at every t
    selected = np.zeros((reps.size, horizon, channels), dtype=complex)
    selected[np.arange(reps.size), :, chans] = rows
    stacked = np.vstack([selected.real, selected.imag]).reshape(2 * reps.size, horizon * channels)

    if stacked.shape[0]:
        keep = np.max(np.abs(stacked), axis=1) >= ZERO_ROW_TOL
        reduced = stacked[keep]
    else:
        reduced = stacked
    q = reduced.shape[0]
    if q:
        blocks = reduced.reshape(q, horizon, channels).transpose(1, 0, 2)
    else:
        blocks = np.zeros((horizon, 0, channels))
    # The kept rows are the cos and sin parts of distinct DFT rows, one per
    # mirror orbit, so they are orthogonal: F F' is diagonal with entries 1
    # (cos rows at xi = 0 and N/2) or 1/2.  The rank is q without an SVD.
    return FrequencyConstraint(
        blocks=blocks,
        row_count=q,
        effective_rank=q,
        canonical_supports=canonical,
    )


def constraint_residual(constraint: FrequencyConstraint, controls) -> np.ndarray:
    """Evaluate sum_t F_t u_t for a (horizon, channels) control trajectory."""
    u = np.asarray(controls, dtype=float)
    if u.ndim == 1 and constraint.channels == 1:
        u = u[:, None]
    if u.shape != (constraint.horizon, constraint.channels):
        raise ValueError(
            f"controls shape {u.shape} incompatible with constraint "
            f"({constraint.horizon}, {constraint.channels})"
        )
    return np.einsum("tqm,tm->q", constraint.blocks, u)


@dataclass(frozen=True)
class UncertaintyReport:
    """Per-channel time/frequency support count against the 2*sqrt(N) bound."""

    channel: int
    time_support: int
    freq_support: int
    lower_bound: float
    satisfied: bool
    vacuous: bool


def uncertainty_check(controls, zero_tol: float = 1e-10) -> list[UncertaintyReport]:
    """Time-frequency uncertainty diagnostic for each control channel.

    Every nonzero finite signal satisfies |supp(u)| + |supp(u_hat)| >= 2*sqrt(N);
    a channel violating the counted bound signals that its support counting is
    being fooled, or that a requested ban pattern is close to infeasible.
    Entries with magnitude <= zero_tol count as zero.  Identically-zero
    channels are reported as vacuous (the principle excludes them).
    """
    u = np.asarray(controls, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.ndim != 2 or u.shape[0] < 1:
        raise ValueError("controls must be a nonempty (horizon, channels) array")
    horizon = u.shape[0]
    bound = 2.0 * float(np.sqrt(horizon))
    reports = []
    for k in range(u.shape[1]):
        chan = u[:, k]
        if np.max(np.abs(chan)) <= zero_tol:
            reports.append(UncertaintyReport(k, 0, 0, bound, True, True))
            continue
        comp = forward_dft(chan)
        t_supp = int(np.count_nonzero(np.abs(chan) > zero_tol))
        f_supp = int(np.count_nonzero(np.abs(comp) > zero_tol))
        reports.append(
            UncertaintyReport(k, t_supp, f_supp, bound, t_supp + f_supp >= bound, False)
        )
    return reports
