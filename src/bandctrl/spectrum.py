"""Discrete Fourier transform machinery and banned-frequency control constraints.

A length-N real control channel u has frequency components Phi @ u, where Phi
is the unitary N x N DFT matrix.  Requiring selected components of every
channel to vanish is a linear equality constraint on the time-domain control
trajectory, built here the band-stop way: the real (cos) and imaginary (sin)
parts of the banned DFT rows of each channel.  The result is a family of
real blocks F_0 .. F_{N-1} with

    sum_t F_t @ u_t = 0   iff   every banned component of every channel is 0.

Because the controls are real, component N - xi is the complex conjugate of
component xi, so banned sets are closed under the mirror map xi -> N - xi and
only one representative xi <= N/2 per mirror orbit contributes rows; the sin
part of bins 0 and N/2 vanishes and gives none.  This keeps the stacked
constraint matrix full row rank, which the normality tests in
``bandctrl.extremal`` rely on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SupportSpec",
    "FrequencyConstraint",
    "UncertaintyReport",
    "build_dft_matrix",
    "forward_dft",
    "build_frequency_constraint",
    "constraint_residual",
    "uncertainty_check",
    "numerical_rank",
]

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


@dataclass(frozen=True, eq=False)
class FrequencyConstraint:
    """Real equality constraint sum_t F_t u_t = 0 on a control trajectory.

    Row j is the real (cos) part, or where ``row_imag[j]`` the imaginary (sin)
    part, of the unitary DFT row of bin xi = ``row_bin[j]`` on channel
    ``row_channel[j]``; ``samples`` (horizon, q) holds each row's N samples,
    and only the methods below read them; ``row_key`` compares constraints
    by content.  Both are computed once, when the constraint is built, and
    the weights of :meth:`term_scale` and the flat index of :meth:`apply`
    once, when first used.  :meth:`apply` and :meth:`apply_transpose` are one
    matrix product of ``samples`` with every channel, m times the flops of
    the rows' own channels, and a gather from it (a scatter into its
    transpose's input) at each row's channel by that index: a copy of the
    samples split by channel would cost a second (horizon, q) table.
    :meth:`columns` is the one dense copy, the F_t' that :mod:`bandctrl.kkt`
    places in its border columns.  The rows are orthogonal, with
    norms ``row_norms``, so ``effective_rank == row_count``; a repeated
    (channel, bin up to its mirror N - xi, part) or the vanishing sin part
    of bin 0 or N/2 raises a "dependent" ValueError.
    """

    horizon: int
    channels: int
    row_channel: np.ndarray = ()
    row_bin: np.ndarray = ()
    row_imag: np.ndarray = ()
    samples: np.ndarray = field(init=False, repr=False)
    # horizon, channels and the bytes of row_channel, row_bin and row_imag,
    # which determine everything the methods compute: equal keys, equal rows
    row_key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        chan = np.array(self.row_channel, dtype=int).ravel()  # copies, made read-only below
        bins = np.array(self.row_bin, dtype=int).ravel()
        imag = np.array(self.row_imag, dtype=bool).ravel()
        N = self.horizon
        rows = list(zip(chan.tolist(), [min(b % N, -b % N) for b in bins.tolist()], imag.tolist()))
        if len(set(rows)) < len(rows) or any(im and 2 * xi % N == 0 for _, xi, im in rows):
            raise ValueError(
                "frequency constraint rows are dependent; rebuild with build_frequency_constraint"
            )
        # the phase (xi t) mod N takes N values: one exp per value, gathered,
        # equals the exp of every sample bit for bit
        dft = np.exp((-2j * np.pi / N) * np.arange(N)) / math.sqrt(N)
        samples = np.concatenate([dft.real, dft.imag])[np.arange(N)[:, None] * bins % N + N * imag]
        for name, a in dict(row_channel=chan, row_bin=bins, row_imag=imag, samples=samples).items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(
            self, "row_key", (N, self.channels, chan.tobytes(), bins.tobytes(), imag.tobytes())
        )

    @property
    def row_count(self) -> int:
        return self.row_bin.size

    @property
    def effective_rank(self) -> int:
        return self.row_count

    @property
    def row_norms(self) -> np.ndarray:
        """The Euclidean norm of each row: 1 at bins 0 and N/2, else 1/sqrt(2)."""
        return np.where(self.row_bin * 2 % self.horizon == 0, 1.0, np.sqrt(0.5))

    def apply(self, controls) -> np.ndarray:
        """sum_t F_t u_t, (q,) for controls (horizon, channels); (q, r) for
        (horizon, channels, r), one per trailing column."""
        u = np.asarray(controls, dtype=float)
        every = self.samples.T @ u.reshape(len(u), -1)  # every row on every channel
        return every.reshape((-1,) + u.shape[2:])[self._flat_rows]  # each on its own

    def term_scale(self, controls) -> float:
        """max over t and rows i of |F_{t,i} u_{t,c_i}|, the largest term of
        the sum that :meth:`apply` forms, equal to it bit for bit without the
        (horizon, q) terms: |u| times a non-negative weight rounds
        monotonically in the weight, so per stage and channel only the least
        and the largest |F_{t,i}| can give the maximum, or a NaN (0 * inf).
        Channels without rows do not enter; 0.0 when q = 0."""
        if not self.row_count:
            return 0.0
        channels, weights = self._term_weights
        return float((abs(np.asarray(controls, dtype=float).T[channels]) * weights).max())

    @functools.cached_property
    def _term_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The channels that carry rows, and the least and the largest
        |F_{t,i}| over the rows i of each, (2, channels with rows, horizon);
        computed at the first :meth:`term_scale`, then kept."""
        channels = np.unique(self.row_channel)
        rows = [np.abs(self.samples.T[self.row_channel == c]) for c in channels]
        weights = np.array([[r.min(axis=0) for r in rows], [r.max(axis=0) for r in rows]])
        weights.setflags(write=False)
        return channels, weights

    def apply_transpose(self, nu) -> np.ndarray:
        """F_t' nu for every t, (horizon, channels); (horizon, channels, r)
        for nu (q, r), one per trailing column."""
        nu = np.asarray(nu, dtype=float)
        spread = np.zeros((self.row_count * self.channels,) + nu.shape[1:])
        spread[self._flat_rows] = nu  # nu_j on its channel, zero on the others
        flat = spread.reshape(self.row_count, self.channels * math.prod(nu.shape[1:]))
        return (self.samples @ flat).reshape((self.horizon, self.channels) + nu.shape[1:])

    @functools.cached_property
    def _flat_rows(self) -> np.ndarray:
        """Row j on its channel c_j in a (q, channels) array read flat,
        j * channels + c_j: the entries of sum_t F_t u_t in the product of
        ``samples.T`` with every channel, and of nu in its transpose's input."""
        rows = np.arange(self.row_count) * self.channels + self.row_channel
        rows.setflags(write=False)
        return rows

    def columns(self) -> np.ndarray:
        """The dense F_t', (horizon, channels, q), read-only."""
        out = np.zeros((self.horizon, self.channels, self.row_count))
        out[:, self.row_channel, np.arange(self.row_count)] = self.samples
        out.setflags(write=False)
        return out

    def banned(self) -> tuple[tuple[int, ...], ...]:
        sets = [set() for _ in range(self.channels)]
        for k, xi in zip(self.row_channel.tolist(), self.row_bin.tolist()):
            sets[k].update((xi % self.horizon, -xi % self.horizon))
        return tuple(tuple(sorted(s)) for s in sets)


def build_frequency_constraint(
    supports: SupportSpec, horizon: int, channels: int
) -> FrequencyConstraint:
    """Build the banned-frequency equality constraint for the given supports.

    Each channel's banned set is closed under xi -> N - xi; each of its bins
    xi <= N/2 gives a cos row, and a sin row unless xi is 0 or N/2.  Row
    order: the cos rows channel by channel, then the sin rows likewise.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be a positive integer, got {horizon}")
    if supports.channels != channels:
        raise ValueError(
            f"support spec has {supports.channels} channels, expected {channels}"
        )
    full = frozenset(range(horizon))
    banned = np.ones((channels, horizon), dtype=bool)
    for k, allowed in enumerate(supports.allowed):
        out = sorted(allowed - full)
        if out:
            raise ValueError(f"channel {k}: allowed indices {out} outside 0..{horizon - 1}")
        banned[k, np.fromiter(allowed, dtype=int, count=len(allowed))] = False
    banned |= banned[:, -np.arange(horizon) % horizon]  # mirror closure
    chan, bins = np.nonzero(banned[:, : horizon // 2 + 1])
    sin = bins * 2 % horizon != 0
    return FrequencyConstraint(
        horizon,
        channels,
        row_channel=np.concatenate([chan, chan[sin]]),
        row_bin=np.concatenate([bins, bins[sin]]),
        row_imag=np.array([False, True]).repeat([chan.size, np.count_nonzero(sin)]),
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
    return constraint.apply(u)


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
