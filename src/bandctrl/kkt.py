"""The first-order system shared by the linear-quadratic and shooting solvers.

With fixed endpoints, free interior states, free controls and the
banned-frequency constraint, the first-order conditions in normal form
(eta_c = 1) are a square algebraic system in the stacked unknowns

    z = (x_1..x_{N-1}, u_0..u_{N-1}, p_0..p_{N-1}, nu)

whose rows are, in order,

    x_{t+1} - f_t(x_t, u_t) = 0               t = 0..N-1  (x_0, x_N substituted)
    p_{t-1} - (df_t/dx)'p_t + dc_t/dx = 0     t = 1..N-1
    -dc_t/du + (df_t/du)'p_t - F_t'nu = 0     t = 0..N-1
    sum_t F_t u_t = 0.

:func:`assemble` builds the Jacobian of these rows as one dense matrix from
per-stage blocks: df_t/dx, df_t/du and the second-order blocks of the stage
Lagrangians l_t = p_t'f_t - c_t (Q and R, constant or one per stage, and a
cross term).  It is the one place where the blocks are laid out, and no
solver factors it: it serves the public dense ``residual_jacobian`` of
:mod:`bandctrl.shooting`, which the benchmark probes, and the tests.  For
LTI dynamics and quadratic cost the rows are affine in z, and the solution
solves ``assemble(...) @ z = boundary_rhs(ax0, xf, ...)``, whose right-hand
side is zero but for v = (A x0, xf) in the first and last dynamics rows.

:func:`lti_solve` (LTI data) and :func:`time_varying_solve` (per-stage
blocks: the one Newton step of :mod:`bandctrl.shooting`, with analytic or
finite-difference second-order blocks) solve that system without forming
it, in O(N) time and memory for fixed n, m (and O(N + q^2) in the number q
of frequency rows).  The stage rows, with a terminal adjoint parameter w_N
and nu held as parameters, are a two-point LQ problem: a backward Riccati
recursion gives u_t = K_t x_t + k_t and p_{t-1} = -P_t x_t + w_t.  What is
left is the border: the last dynamics row (x_N = xf) and the frequency rows,
a dense system of size n + q in (w_N, nu), where w_N = p_{N-1} at a
solution.  Since the end is fixed, the terminal weight P_N is free.
:func:`time_varying_solve` solves the border by LU; :func:`lti_solve` by
LU once per plant (its plan, below), and by least squares when that leaves
a residual above INFEASIBILITY_TOL * (1 + |rhs|), so non-unique
multipliers come out minimum-norm over (p_{N-1}, nu).  (With a free final
state and no frequency rows, p_{N-1} = 0 is given and there is no border:
the elimination is the Riccati recursion from P_N = 0 itself, which
:func:`bandctrl.lq.riccati_solve` runs by the sweep, :func:`riccati_sweep`.)

An LTI plant takes for P_N the stabilizing fixed point of the recursion,
found by doubling, where there is one: every stage then has the same gain K
and closed loop Phi = A + B K, which must have decayed over the horizon
(|Phi^N|_F <= 1/2, so rho(Phi) < 1).  The border comes in closed form,
blocks by banned DFT bin (DFT orthogonality) plus a term of rank at most 2n
(:func:`_stationary_border`), and its right-hand sides from the solve at
zero border unknowns (:func:`_stationary_columns`), whose
recursive-doubling scans, with one matrix each, carry any number of
boundary data as columns.  Every other fixed-end border (a stage-varying
one, or a plant without such a fixed point: a mode on or outside the unit
circle that B does not reach, overflow, a recursion that wanders in its
last bits, or a closed loop too slow for the horizon) comes from
P_N = sigma I by :func:`_scanned_border`: the recursion of every stage at
once by an associative scan of the Riccati maps (:func:`riccati_scan`;
about sigma I where an R_t has no inverse, so that a cost without curvature
in u is solved too), with the right-hand sides and one unit column per
border unknown carried through a batched backward scan, and the border the
Gram product of those columns (:func:`_time_varying_border`).
:func:`_border` decides which of the two an LTI plant gets.
:func:`lti_product` is ``assemble(...) @ z`` without the matrix, and
:func:`lti_solve` checks its residual block by block.

Every constraint is an equality, so an LTI solution is a linear map of v,
z = Z v (the explicit-LQR observation of Bemporad, Morari, Dua &
Pistikopoulos, Automatica 38, 2002, with no regions): Z (len z, 2n) comes
from one border over the 2n unit boundary data and one LU solve with 2n
right-hand sides.  The gain (or None), the border matrix S and Z depend on
the plant (A, B, Q, R) and the frequency rows, not on v, in which alone the
endpoints appear.  So :func:`lti_solve` keeps those of the most recent
plant (its plan, :func:`_plant_plan`) in one slot
(:class:`bandctrl._memo.LastValue`), keyed by the shapes and float64 bytes
of A, B, Q and R and the constraint's ``row_key``.  Every solve, on a new
plant or a kept one, returns z = Z v once it passes the residual test, with
no recursion and no factorization after the plan; when it fails the test,
or the LU solve of the plan failed and left no Z, the border is formed for
v alone and solved by least squares.  The stored arrays are read-only, and
a hit returns exactly what a fresh computation would, so results do not
depend on what was solved before.  The slot retains
O((n + q)^2 + 2n len z) floats: 20.7 MiB after the baseline plant at
N = 4096 (q = 1534), of which S is 18.1 MiB and Z 2.6 MiB.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from ._memo import LastValue, content_key
from ._norms import largest, max_norms
from .spectrum import numerical_rank

# a first-order residual max-norm above INFEASIBILITY_TOL * (1 + |rhs|)
# means the system has no solution
INFEASIBILITY_TOL = 1e-7

EPS = float(np.finfo(float).eps)

# doublings of the Riccati recursion (2^k stages each) before a fixed point
# counts as not reached
MAX_DOUBLINGS = 50
# stages of the Riccati recursion that may refine the doubled fixed point
MAX_REFINEMENTS = 8

# the plan of the most recent fixed-end LTI plant (lti_solve)
_PLANS = LastValue()

__all__ = [
    "INFEASIBILITY_TOL",
    "SingularSystemError",
    "StackedUnknowns",
    "segments",
    "assemble",
    "boundary_rhs",
    "riccati_sweep",
    "riccati_scan",
    "lti_solve",
    "time_varying_solve",
    "lti_product",
]


class SingularSystemError(np.linalg.LinAlgError):
    """A structured solve met an exactly singular or non-finite (shifted)
    control weight R_t or Riccati pivot H_t (``stage`` t, ``pivot`` its
    smallest |eigenvalue|, NaN when it is not finite) or border
    (``deficiency`` = its size less its numerical rank, None when it is not
    finite)."""

    def __init__(self, message, stage=None, pivot=None, deficiency=None):
        super().__init__(message)
        self.stage, self.pivot, self.deficiency = stage, pivot, deficiency


def segments(n: int, m: int, horizon: int, q: int) -> dict[str, slice]:
    """Slices of the interior states, controls, adjoints and nu in z."""
    ou = (horizon - 1) * n
    op = ou + horizon * m
    ov = op + horizon * n
    return {
        "states": slice(0, ou),
        "controls": slice(ou, op),
        "adjoints": slice(op, ov),
        "nu": slice(ov, ov + q),
    }


@dataclass(frozen=True, eq=False)
class StackedUnknowns:
    """Flat vector of interior states, controls, adjoints, and the frequency
    multiplier, with the layout recorded."""

    z: np.ndarray
    n: int
    m: int
    horizon: int
    q: int

    segments: Mapping[str, slice] = field(init=False, repr=False)  # of this layout, read-only

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).ravel()
        layout = MappingProxyType(segments(self.n, self.m, self.horizon, self.q))
        expected = layout["nu"].stop
        if z.size != expected:
            raise ValueError(f"flat vector has length {z.size}, layout requires {expected}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "segments", layout)

    def states(self) -> np.ndarray:
        return self.z[self.segments["states"]].reshape(self.horizon - 1, self.n)

    def controls(self) -> np.ndarray:
        return self.z[self.segments["controls"]].reshape(self.horizon, self.m)

    def adjoints(self) -> np.ndarray:
        return self.z[self.segments["adjoints"]].reshape(self.horizon, self.n)

    def nu(self) -> np.ndarray:
        return self.z[self.segments["nu"]]

    @classmethod
    def pack(cls, interior_states, controls, adjoints, nu) -> "StackedUnknowns":
        xs = np.atleast_2d(np.asarray(interior_states, dtype=float))
        us = np.atleast_2d(np.asarray(controls, dtype=float))
        ps = np.atleast_2d(np.asarray(adjoints, dtype=float))
        nu = np.atleast_1d(np.asarray(nu, dtype=float))
        N, m = us.shape
        n = ps.shape[1]
        if N == 1:
            xs = np.zeros((0, n))
        flat = np.concatenate([xs.ravel(), us.ravel(), ps.ravel(), nu])
        return cls(flat, n=n, m=m, horizon=N, q=nu.size)

    @classmethod
    def zeros(cls, n: int, m: int, horizon: int, q: int) -> "StackedUnknowns":
        return cls(np.zeros(segments(n, m, horizon, q)["nu"].stop), n=n, m=m, horizon=horizon, q=q)


def _place(M: np.ndarray, row: int, col: int, blocks) -> None:
    """Add blocks[k] (r x c each) to M at (row + k r, col + k c), in place."""
    k, r, c = np.shape(blocks)
    i = np.arange(k)[:, None]
    rows = row + r * i + np.arange(r)
    cols = col + c * i + np.arange(c)
    M[rows[:, :, None], cols[:, None, :]] += blocks


def assemble(jx, ju, Q, R, constraint, cross=None) -> np.ndarray:
    """Jacobian of the first-order rows with respect to z.

    ``jx`` (N, n, n) and ``ju`` (N, n, m) are df_t/dx and df_t/du at each
    stage; ``jx[0]`` is not read, since x_0 is fixed.  ``Q`` and ``R`` are
    -d2l_t/dx2 and -d2l_t/du2 of the stage Lagrangian l_t = p_t'f_t - c_t,
    (n, n) and (m, m) for every stage (a quadratic cost's Hessians) or per
    stage, (N, n, n) and (N, m, m).  ``constraint`` holds F_0..F_{N-1}.
    ``cross`` (N, m, n), when given, holds d2l_t/du dx_t (``cross[0]``, like
    ``Q[0]``, is not read).  Builds one dense matrix and writes every block
    into it.
    """
    N, n, m = np.shape(ju)
    q = constraint.row_count
    seg = segments(n, m, N, q)
    ou, op, ov = seg["controls"].start, seg["adjoints"].start, seg["nu"].start
    r_adj, r_stat = N * n, (2 * N - 1) * n
    r_freq = r_stat + N * m
    M = np.zeros((ov + q, ov + q))

    _place(M, 0, 0, np.broadcast_to(np.eye(n), (N - 1, n, n)))  # x_{t+1}
    _place(M, n, 0, -jx[1:])  # -f_x x_t
    _place(M, 0, ou, -ju)  # -f_u u_t

    _place(M, r_adj, op, np.broadcast_to(np.eye(n), (N - 1, n, n)))  # p_{t-1}
    _place(M, r_adj, op + n, -jx[1:].transpose(0, 2, 1))  # -f_x' p_t
    _place(M, r_adj, 0, np.broadcast_to(Q, (N, n, n))[1:])  # Q x_t

    _place(M, r_stat, ou, -np.broadcast_to(R, (N, m, m)))  # -R u_t
    _place(M, r_stat, op, ju.transpose(0, 2, 1))  # f_u' p_t
    M[r_stat:r_freq, ov:] = -constraint.columns().reshape(N * m, q)  # row t m + i: -F_t'

    if cross is not None:
        _place(M, r_adj, ou + m, -cross[1:].transpose(0, 2, 1))
        _place(M, r_stat + m, 0, cross[1:])

    M[r_freq:, ou:op] = -M[r_stat:r_freq, ov:].T  # F: the nu columns transposed
    return M


def boundary_rhs(ax0, xf, n: int, m: int, horizon: int, q: int) -> np.ndarray:
    """Right-hand side -r(0) of an LTI system.  At z = 0 every row vanishes
    but the first dynamics row, r = -A x_0 (``ax0`` is A x_0), and the last
    one, r = x_N = ``xf`` (the same row when N = 1): see :func:`_boundary_rows`.
    ``ax0`` and ``xf`` (c, n) give c right-hand sides, the columns of a
    (len z, c) array."""
    first, last = _boundary_rows(np.asarray(ax0, dtype=float), np.asarray(xf, dtype=float), horizon)
    rhs = np.zeros((segments(n, m, horizon, q)["nu"].stop,) + first.shape[:-1])
    rhs[:n] = first.T
    rhs[(horizon - 1) * n : horizon * n] = last.T
    return rhs


def _boundary_rows(ax0, xf, horizon: int):
    """The first and the last dynamics rows of :func:`boundary_rhs`, A x0
    and 0 - xf, or A x0 - xf twice when N = 1 and they are one row."""
    if horizon == 1:
        first = ax0 - xf
        return first, first
    return ax0, 0.0 - xf


def riccati_sweep(A, B, Q, R, horizon: int):
    """Backward Riccati recursion of x_{t+1} = A x_t + B u_t under stage cost
    0.5 x'Qx + 0.5 u'Ru from P_N = 0, the free end of
    :func:`bandctrl.lq.riccati_solve`:

        H_t = R + B'P_{t+1}B,   K_t = -H_t^(-1) B'P_{t+1}A,
        P_t = Q + A'P_{t+1}(A + B K_t),

    with P_t symmetrized at every step (without it the antisymmetric rounding
    part grows by a constant factor per stage).  Returns P (N+1, n, n), K
    (N, m, n) and the inverse pivots H_t^(-1) (N, m, m).  Raises
    ``numpy.linalg.LinAlgError`` when a pivot is singular or the recursion
    leaves the finite range.

    The data are the same at every stage, so the recursion is a fixed map of
    P.  Once |P_t - P_{t+1}|_max <= 4 eps |P_t|_max it has reached its
    floating-point fixed point, and every earlier stage is filled with stage t
    instead of being swept; the test runs at every eighth stage (not at t = 0,
    where nothing is left to fill), since it costs about half a stage.  Per stage, numpy's call overhead is the
    cost, not the arithmetic: one product W = [A B]'P[A B] gives H, B'PA and
    A'PA as blocks, a pivot with m <= 2 is inverted in closed form, and
    finiteness is checked once after the loop.
    """
    n, m = np.shape(B)
    P = np.empty((horizon + 1, n, n))
    P[horizon] = 0.0
    K = np.empty((horizon, m, n))
    Hinv = np.empty((horizon, m, m))  # holds -H_t^(-1) until after the loop
    AB = np.concatenate([A, B], axis=1)
    ABt = AB.T.copy()
    r = R.tolist()
    amax = np.maximum.reduce  # ndarray.max adds a Python-level call
    Pt = P[horizon]
    t = 0
    # ndarray.dot: half the call overhead of @ on matrices this small
    try:
        with np.errstate(all="ignore"):  # an overflowing pivot ends in the check below
            for t in range(horizon - 1, -1, -1):
                W = ABt.dot(Pt).dot(AB)  # [A'PA, A'PB; B'PA, B'PB]
                BPA = W[n:, :n]
                if m == 1:
                    nhinv = -1.0 / (r[0][0] + W.item(n, n))
                    Kt = BPA * nhinv
                else:
                    nhinv = -_inv(R + W[n:, n:])
                    Kt = nhinv.dot(BPA)
                Pn = Pt
                Pt = Q + W[:n, :n] + BPA.T.dot(Kt)
                Pt = 0.5 * (Pt + Pt.T)
                P[t], K[t], Hinv[t] = Pt, Kt, nhinv
                if t % 8 == 0 < t and amax(abs(Pt - Pn), None) <= 4.0 * EPS * amax(abs(Pt), None):
                    break
    except ZeroDivisionError:
        raise np.linalg.LinAlgError("singular Riccati pivot") from None
    P[:t], K[:t], Hinv[:t] = P[t], K[t], Hinv[t]
    np.negative(Hinv, out=Hinv)
    if not (np.isfinite(P).all() and np.isfinite(Hinv).all()):
        raise np.linalg.LinAlgError("singular Riccati pivot or non-finite recursion")
    return P, K, Hinv


def _inv_stack(M):
    """Inverses of a stack of small square matrices (..., k, k), a single
    one included.  An exactly singular or non-finite one comes out non-finite
    (NaN or inf) instead of raising; the others are unaffected."""
    if M.shape[-1] == 1:
        return 1.0 / M
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError:  # one singular matrix fails the whole batch
        out = np.full_like(M, np.nan)
        for i in np.ndindex(M.shape[:-2]):
            try:
                out[i] = np.linalg.inv(M[i])
            except np.linalg.LinAlgError:
                pass
        return out


def _check_stages(name: str, M, Minv) -> None:
    """Raise :class:`SingularSystemError` at the last stage t of a stack
    (N, k, k) whose ``name`` M_t or its inverse Minv_t is not finite."""
    bad = ~(np.isfinite(M).all(axis=(1, 2)) & np.isfinite(Minv).all(axis=(1, 2)))
    if bad.any():
        t = int(np.flatnonzero(bad)[-1])
        pivot = np.nan
        if np.isfinite(M[t]).all():
            pivot = float(np.min(np.abs(np.linalg.eigvalsh(0.5 * (M[t] + M[t].T)))))
        raise SingularSystemError(
            f"singular {name} at stage {t} (smallest |eigenvalue| {pivot:.3e})",
            stage=t, pivot=pivot,
        )


def riccati_scan(A, B, Q, R, terminal, cross=None):
    """The Riccati recursion of stage-varying dynamics x_{t+1} = A_t x_t +
    B_t u_t under stage cost 0.5 x'Q_tx + 0.5 u'R_tu - u'C_t x, from P_N =
    ``terminal``:

        H_t = R_t + B_t'P_{t+1}B_t,   K_t = -H_t^(-1) (B_t'P_{t+1}A_t - C_t),
        P_t = Q_t + A_t'P_{t+1}A_t - K_t'H_tK_t,

    where ``A`` (N, n, n), ``B`` (N, n, m) and ``cross`` (N, m, n, zero when
    None) hold A_t, B_t and C_t, and ``Q``, ``R`` are constant or per stage.
    Returns P (N+1, n, n), K (N, m, n) and H_t^(-1) (N, m, m), as
    :func:`riccati_sweep` does.

    No stage loop: with Abar_t = A_t + B_t R_t^(-1) C_t, G_t = B_t R_t^(-1)
    B_t' and Hbar_t = Q_t - C_t'R_t^(-1) C_t a stage is the map
    P -> Hbar + Abar'P(I + G P)^(-1) Abar, and two such maps compose into one
    of the same form (the doubling of :func:`_doubled_fixed_point`, with two
    different maps).  An outer element o (stage t) and an inner one i (stage
    t + s) combine through W = (I + G_o H_i)^(-1) into

        A = A_i W A_o,   G = G_i + A_i W G_o A_i',   H = H_o + A_o'H_i W A_o,

    and P_N is the constant map (0, 0, P_N).  A Hillis-Steele scan of the
    suffixes takes log2(N + 1) batched steps (Sarkka & Garcia-Fernandez, IEEE
    TAC 2023); H of every suffix is then P_t.  Raises
    :class:`SingularSystemError` at the last stage t whose weight R_t (or
    its shift below), or else whose pivot H_t, is exactly singular or not
    finite.

    The stage maps need R_t^(-1), but the pivots need not: a cost with no
    curvature in u has R_t = 0.  When an R_t is singular to working
    precision (|R_t|_F |R_t^(-1)|_F above eps^(-1/2), or not finite), the
    scan runs on D_t = P_t - sigma I instead, with sigma of
    :func:`_terminal_weight` (1.0 where every R_t is zero).
    D_t has the recursion of the same form with

        Q_t + sigma (A_t'A_t - I),   R_t + sigma B_t'B_t,   C_t - sigma B_t'A_t

    and D_N = P_N - sigma I (the centre of :func:`_doubled_fixed_point`),
    the same pivots H_t and gains K_t; the shifted weight is invertible
    wherever B_t has full column rank and R_t is positive semidefinite.
    """
    N, n, m = np.shape(B)
    BT = B.transpose(0, 2, 1)
    Q_scan, R_scan, cross_scan, shift = Q, R, cross, 0.0
    with np.errstate(all="ignore"):  # a singular R_t ends in the check below
        Rinv = _inv_stack(R)
        # (|R_t|_F |R_t^(-1)|_F)^2, NaN or inf where either is not finite
        kappa2 = np.sum(R * R, axis=(-2, -1)) * np.sum(Rinv * Rinv, axis=(-2, -1))
        if not (kappa2 <= 1.0 / EPS).all():  # scan D_t = P_t - sigma I
            shift = _terminal_weight(R, B)
            Q_scan = Q + shift * (A.transpose(0, 2, 1) @ A - np.eye(n))
            R_scan = R + shift * (BT @ B)
            cross_scan = (0.0 if cross is None else cross) - shift * (BT @ A)
            Rinv = _inv_stack(R_scan)
            _check_stages("control weight", R_scan, Rinv)
    Am, Gm, Hm = np.empty((3, N + 1, n, n))
    Am[:N], Gm[:N], Hm[:N] = A, B @ Rinv @ BT, Q_scan
    if cross_scan is not None:
        Am[:N] += B @ (Rinv @ cross_scan)
        Hm[:N] -= cross_scan.transpose(0, 2, 1) @ Rinv @ cross_scan
    eye, s = np.eye(n), 1
    Am[N], Gm[N], Hm[N] = 0.0, 0.0, terminal
    if shift:
        Hm[N] -= shift * eye
    mul = np.multiply if n == 1 else np.matmul  # 1 x 1: a third of matmul's call cost
    with np.errstate(all="ignore"):  # a singular W or overflow ends in the pivot check
        while s <= N:
            Ao, Go, Ho = Am[:-s], Gm[:-s], Hm[:-s]
            Ai, Gi, Hi = Am[s:], Gm[s:], Hm[s:]
            W = _inv_stack(eye + mul(Go, Hi))
            AiW = mul(Ai, W)
            H = Ho + mul(Ao.transpose(0, 2, 1), mul(mul(Hi, W), Ao))
            G = Gi + mul(mul(AiW, Go), Ai.transpose(0, 2, 1))
            Am[:-s] = mul(AiW, Ao)
            if n > 1:  # symmetric in exact arithmetic
                G, H = 0.5 * (G + G.transpose(0, 2, 1)), 0.5 * (H + H.transpose(0, 2, 1))
            Gm[:-s], Hm[:-s] = G, H
            s *= 2
        P = Hm
        if shift:
            P += shift * eye
        PB = P[1:] @ B
        H = R + BT @ PB
        Hinv = _inv_stack(H)
        K = -Hinv @ (PB.transpose(0, 2, 1) @ A - (0.0 if cross is None else cross))
    _check_stages("Riccati pivot", H, Hinv)
    return P, K, Hinv


def _scan(G, h):
    """y_t = G_t y_{t-1} + h_t for t = 0..T-1 with y_{-1} = 0, by recursive
    doubling: log2(T) batched products instead of T small ones.  G (T, n, n)
    and h (T, n, c) are overwritten; returns y in h."""
    T, s = len(h), 1
    while s < T:
        h[s:] += G[s:] @ h[:-s]
        if 2 * s < T:
            G[s:] = G[s:] @ G[:-s]
        s *= 2
    return h


def _scan_stationary(G, h, columns: int, backward: bool = False):
    """:func:`_scan` with one G (n, n) at every stage, or with ``backward``
    its mirror y_t = G y_{t+1} + h_t from y_{T-1} = h_{T-1}.  h (T c, n)
    holds the c = ``columns`` columns of stage t as its rows t c..t c + c - 1,
    so a shift by s stages is a shift by s c rows, and G's powers come by
    squaring: each step is one 2-D product over every column.  h is
    overwritten; returns y in h."""
    T, s = len(h) // columns, 1
    GT = G.T.copy()  # a contiguous right factor halves the cost of each product
    while s < T:
        k = s * columns
        if backward:
            h[:-k] += h[k:].dot(GT)
        else:
            h[k:] += h[:-k].dot(GT)
        if 2 * s < T:
            GT = GT.dot(GT)
        s *= 2
    return h


def _inv(M):
    """Inverse of a small square matrix, in closed form for sizes 1 and 2,
    where numpy's call overhead would be most of the cost.  Raises
    ZeroDivisionError on an exactly singular 2 x 2 matrix."""
    k = len(M)
    if k == 1:
        return 1.0 / M
    if k == 2:
        (a, b), (c, d) = M.tolist()
        det = a * d - b * c
        return np.array([[d / det, -b / det], [-c / det, a / det]])
    return np.linalg.inv(M)


def _doubled_fixed_point(A, G, Q, centre: float):
    """Fixed point of the Riccati recursion P -> Q + A'P(I + G P)^(-1) A
    (G = B R^(-1) B'), by doubling (Lin & Xu, SIAM J. Matrix Anal. Appl. 28,
    2006) about centre I; None when it is not reached.

    About c I, with M = (I + c G)^(-1), one stage is c I + D ->
    c I + H_0 + A_0'D(I + G_0 D)^(-1) A_0 for A_0 = M A, G_0 = M G and
    H_0 = Q + c (A'M A - I); with W_k = (I + G_k H_k)^(-1),

        A_{k+1} = A_k W_k A_k,   G_{k+1} = G_k + A_k W_k G_k A_k',
        H_{k+1} = H_k + A_k' H_k W_k A_k,

    c I + H_k is the recursion 2^k stages from c I.  Stops once H_k moves by
    at most 4 eps of c I + H_k, the sweep's own test.
    """
    n = len(A)
    M = _inv(np.eye(n) + centre * G)
    Ak, Gk, Hk = M.dot(A), M.dot(G), Q + centre * (A.T.dot(M).dot(A) - np.eye(n))
    if n == 1:  # Python floats: numpy's call overhead would be the whole cost
        Ak, Gk, Hk, one = Ak.item(), Gk.item(), Hk.item(), 1.0
        dot, tr, inv, size = operator.mul, float, one.__truediv__, abs
    else:
        one, dot, tr, inv = np.eye(n), np.ndarray.dot, operator.attrgetter("T"), _inv
        size = lambda a: np.maximum.reduce(abs(a), None)  # noqa: E731
    for _ in range(MAX_DOUBLINGS):
        W = inv(one + dot(Gk, Hk))
        WA = dot(W, Ak)
        step = dot(dot(tr(Ak), Hk), WA)
        Gk = Gk + dot(dot(dot(Ak, W), Gk), tr(Ak))
        Hk, Ak = Hk + step, dot(Ak, WA)
        P = Hk + centre * one
        moved = size(step)
        if moved <= 4.0 * EPS * size(P):
            return 0.5 * (P + tr(P)) if n > 1 else np.array([[P]])
        if not moved < np.inf:  # NaN or overflow: no finite fixed point
            return None
    return None


def _stationary_gain(A, B, Q, R, sigma: float, horizon: int):
    """The stabilizing fixed point P of the Riccati recursion of
    :func:`riccati_sweep`, with K = -H^(-1) B'P A, H = R + B'P B.  Returns
    (P, K, H^(-1), A + B K), or None when no such finite fixed point is found
    with a closed loop that has decayed over the horizon, |Phi^N|_F <= 1/2
    (so rho(Phi) < 1): a mode on or outside the unit circle that B does not
    reach, a marginal mode, overflow, or a slow closed loop over a short
    horizon, where the closed-form border of :func:`_stationary_border`
    would subtract two terms of one size.

    Doubling about 0 (:func:`_doubled_fixed_point`) is exact where the fixed
    point is 0, but leaves open loop an unstable mode that Q does not weigh;
    about sigma I, B'P B of the size of R, it stabilizes that mode, with an
    absolute rounding of about eps sigma.  So it doubles about 0 and, if that
    closed loop has not decayed, about sigma I.  The doubling's rounding
    grows with the conditioning of I + G_k H_k, so P is taken only once one
    stage of the sweep's own recursion moves it by at most 4 eps of its size,
    as the sweep stops at its fixed point (:func:`_confirmed_gain`).
    """
    with np.errstate(all="ignore"):  # overflow ends in the checks below
        try:
            G = B.dot(_inv(R)).dot(B.T)
        except (np.linalg.LinAlgError, ZeroDivisionError):  # a singular R
            return None
        if not np.isfinite(G).all():
            return None
        for centre in (0.0, sigma):
            try:
                P = _doubled_fixed_point(A, G, Q, centre)
                gain = None if P is None else _confirmed_gain(A, B, Q, R, P, horizon)
            except (np.linalg.LinAlgError, ZeroDivisionError):  # a singular W or pivot
                gain = None
            if gain is not None:
                return gain
    return None


def _confirmed_gain(A, B, Q, R, P, horizon: int):
    """(P, K, H^(-1), A + B K) once a stage of the sweep's recursion from P
    moves it by at most 4 eps of its size, within MAX_REFINEMENTS stages,
    and the closed loop is finite and |Phi^N|_F <= 1/2; else None.  K, H^(-1)
    and Phi are those of the P returned, not of the stage's update of it."""
    amax = np.maximum.reduce  # ndarray.max adds a Python-level call
    for _ in range(MAX_REFINEMENTS):
        pivot = R + B.T.dot(P).dot(B)
        Hinv = _inv(pivot)
        BPA = B.T.dot(P).dot(A)
        K = -Hinv.dot(BPA)
        Pn = Q + A.T.dot(P).dot(A) + BPA.T.dot(K)
        Pn = 0.5 * (Pn + Pn.T)
        if amax(abs(Pn - P), None) <= 4.0 * EPS * amax(abs(Pn), None):
            break
        P = Pn
    else:
        return None
    Phi = A + B.dot(K)
    if not all(np.isfinite(a).all() for a in (P, pivot, Hinv, Phi)):
        return None
    power, F, s = np.eye(len(A)), Phi, horizon  # Phi^N by squaring
    while s:
        power, F, s = power.dot(F) if s & 1 else power, F.dot(F), s >> 1
    return (P, K, Hinv, Phi) if np.sum(power * power) <= 0.25 else None


def _split_rows(rhs, n: int, m: int, horizon: int):
    """Dynamics (N, n, r), adjoint (N-1, n, r), stationarity (N, m, r) and
    frequency (q, r) parts of r columns (len z, r) in the row layout of
    :func:`assemble`."""
    N, r = horizon, rhs.shape[1]
    r_adj, r_stat = N * n, (2 * N - 1) * n
    r_freq = r_stat + N * m
    return (
        rhs[:r_adj].reshape(N, n, r),
        rhs[r_adj:r_stat].reshape(N - 1, n, r),
        rhs[r_stat:r_freq].reshape(N, m, r),
        rhs[r_freq:],
    )


def _plant_plan(A, B, Q, R, constraint):
    """The half of a fixed-end solve that depends on the plant alone, not on
    the endpoints: (gain, S, Z), with ``gain`` = (P, K, H^(-1), Phi) of
    :func:`_stationary_gain` (None when there is none), S the border matrix
    of :func:`_border` and Z (len z, 2n) the transfer map: column k is the
    solution z for the boundary data v = (A x0, xf) = e_k, so that any v has
    z = Z v.  Z comes from one border over the 2n unit columns and one LU
    solve of S with 2n right-hand sides; it is None when that solve fails
    or is not finite.  Every array is read-only.  Raises
    ``numpy.linalg.LinAlgError`` when a Riccati pivot is singular."""
    gain = _stationary_gain(A, B, Q, R, _terminal_weight(R, B), constraint.horizon)
    n = len(A)
    unit = np.eye(2 * n)
    S, b, stacked = _border(A, B, Q, R, constraint, gain, unit[:, :n], unit[:, n:])
    try:
        with np.errstate(all="ignore"):  # overflow ends in the check below
            Z = stacked(np.linalg.solve(S, b))
    except np.linalg.LinAlgError:
        Z = None
    if Z is not None and not np.isfinite(Z).all():
        Z = None
    for a in (*(gain or ()), S, Z):
        if a is not None:
            a.setflags(write=False)
    return gain, S, Z


def _border(A, B, Q, R, constraint, gain, ax0, xf, S=None):
    """Border matrix S, right-hand sides b (n + q, c) and the map theta -> z
    (``stacked``, (n + q, c) to (len z, c)) of a fixed-end LTI transfer, for
    c boundary data at once: row k of ``ax0`` and of ``xf`` (c, n) holds the
    A x0 and xf of column k.  At a stationary ``gain``, S is that of
    :func:`_stationary_border` (``S`` when given: it does not depend on the
    data) and b and ``stacked`` are those of :func:`_stationary_columns`;
    without one, all three come from :func:`_scanned_border` on broadcast A
    and B, with the columns of :func:`boundary_rhs` as right-hand sides."""
    if gain is None:
        N, n = constraint.horizon, len(A)
        rhs = boundary_rhs(ax0, xf, n, constraint.channels, N, constraint.row_count)
        A, B = np.broadcast_to(A, (N, n, n)), np.broadcast_to(B, (N,) + B.shape)
        return _scanned_border(A, B, Q, R, constraint, rhs)
    if S is None:
        S = _stationary_border(A, B, constraint, gain)
    return (S, *_stationary_columns(B, constraint, gain, ax0, xf))


def _stationary_columns(B, constraint, gain, ax0, xf):
    """Border right-hand sides b and the map theta -> z of a fixed end, for
    c boundary data at once: row k of ``ax0`` and of ``xf`` (c, n) holds the
    A x0 and xf of column k, the only rows of :func:`boundary_rhs` that are
    not zero.  ``gain`` = (P, K, H^(-1), Phi) of :func:`_stationary_gain` and
    P_N = P, so that P_t = P, K_t = K and Phi_t = Phi for every t.  b
    (n + q, c) is the border at theta = 0: x_N and sum_t F_t u_t of the solve
    with w_N = 0 and nu = 0; ``stacked`` maps theta (n + q, c) to z
    (len z, c).  A sequence over the stages is one (N c, k) array with the c
    columns of stage t in rows t c..t c + c - 1, so that every product is
    one 2-D product (ndarray.dot of a 3-D array leaves BLAS)."""
    P, K, Hinv, Phi = gain
    N = constraint.horizon
    c, n = np.shape(ax0)
    BT, KT, HinvT = B.T.copy(), K.T.copy(), Hinv.T.copy()
    d = np.zeros((N * c, n))  # the dynamics rows: A x0 at t = 0, less xf at t = N-1
    d[:c] = ax0
    d[-c:] -= xf
    Pd = d.dot(P)  # P d_t, as rows (P is symmetric)
    BPd = Pd.dot(B)
    drive = -Pd[c:].dot(Phi)  # -Phi'P d_t for t = 1..N-1

    def solve(w_end, g):
        """x_1..x_N, u and w_1..w_N from w_N and g_t = F_t'nu (None: zero):
        backward w_t = Phi'(w_{t+1} - P d_t) - K'g_t, k_t = H^(-1) e_t, then
        forward x_{t+1} = Phi x_t + B k_t + d_t from x_0 = 0 (A x0 is in d_0)."""
        w = np.empty((N * c, n))  # w_{t+1} at stage t
        w[:-c] = drive
        w[-c:] = w_end
        if g is not None:
            w[:-c] -= g[c:].dot(K)
        _scan_stationary(Phi.T, w, c, backward=True)
        e = w.dot(B) - BPd
        if g is not None:
            e -= g
        u = e.dot(HinvT)
        x_next = _scan_stationary(Phi, u.dot(BT) + d, c)
        u[c:] += x_next[:-c].dot(KT)
        return x_next, u, w

    def column_major(a):  # (T c, k) -> (T k, c), in the order of z
        return a.reshape(-1, c, a.shape[1]).transpose(0, 2, 1).reshape(-1, c)

    def stacked(theta):
        nu = theta[n:]
        g = constraint.apply_transpose(nu).transpose(0, 2, 1).reshape(N * c, -1)
        x_next, u, w = solve(theta[:n].T, g)
        p = w - x_next.dot(P)
        return np.concatenate(
            [column_major(x_next[:-c]), column_major(u), column_major(p), nu]
        )

    x_next, u, _ = solve(0.0, None)
    freq = constraint.apply(u.reshape(N, c, -1).transpose(0, 2, 1))
    return np.concatenate([-x_next[-c:].T, -freq]), stacked


def _stationary_border(A, B, constraint, gain):
    """Border matrix S in (w_N, nu) of a fixed end, for the one gain of
    :func:`_stationary_gain`; it does not depend on the right-hand side.

    The w_N columns of the backward pass are w_t = Phi'^(N-t), so
    e_t = T_t = B'Phi'^(N-1-t), with Gram matrix G = sum_t T_t'H^(-1)T_t.
    Row j of the constraint is Re(alpha_j z_j^t) on channel c_j, with
    z_j = exp(-2 pi i xi_j / N) and alpha_j = 1/sqrt(N) (cos) or
    -i/sqrt(N) (sin).  Its column is w_t = Re(W_j z_j^t) - Phi'^(N-t) Re W_j
    with W_j = -(I - z_j Phi')^(-1) K'e_(c_j) alpha_j, so
    e_t = Re(beta_j z_j^t) - T_t Re W_j with beta_j = z_j B'W_j - e_(c_j) alpha_j.
    The border is therefore V (.) V', V = [I; -Re W], of the Gram matrix of
    the columns T_t and Re(beta_j z_j^t): by DFT orthogonality the sums of two
    of the latter vanish across bins and are (N/2) Re(beta_i'H^(-1)conj(beta_j))
    on one bin (N Re(...) at bins 0 and N/2), and the cross sums take
    sum_t z^t T_t = conj(z) B'(I - Phi'^N)(I - conj(z) Phi')^(-1), a geometric
    sum.  Nothing of size N q is formed.
    """
    _, K, Hinv, Phi = gain
    N, q = constraint.horizon, constraint.row_count
    n = len(A)
    # G = sum_{s<N} Phi^s C Phi'^s, C = B H^(-1) B', in blocks of 2^k stages
    # over the binary digits of N; power ends at Phi^N
    C, F, G, power, s = B.dot(Hinv).dot(B.T), Phi, np.zeros((n, n)), np.eye(n), N
    while s:
        if s & 1:
            G += power.dot(C).dot(power.T)
            power = power.dot(F)
        C, F, s = C + F.dot(C).dot(F.T), F.dot(F), s >> 1
    if not q:
        return G

    # each row on its canonical bin xi <= N/2 (alpha conjugated if mirrored)
    xi = constraint.row_bin % N
    mirrored = 2 * xi > N
    xi = np.where(mirrored, N - xi, xi)
    alpha = np.where(constraint.row_imag, np.where(mirrored, 1j, -1j), 1.0) / math.sqrt(N)
    z, c = np.exp(-2j * np.pi * xi / N), constraint.row_channel
    resolvent = np.eye(n) - z[:, None, None] * Phi.T  # (I - z_j Phi')^(-1) below
    resolvent = 1.0 / resolvent if n == 1 else np.linalg.inv(resolvent)
    W = -np.einsum("jab,jb->ja", resolvent, K[c] * alpha[:, None])
    beta = z[:, None] * W.dot(B)
    beta[np.arange(q), c] -= alpha
    # sum_t z^t T_t = conj(z) B'(I - Phi'^N)(I - conj(z) Phi')^(-1)
    T_hat = z.conj()[:, None, None] * ((B.T - B.T.dot(power.T)) @ resolvent.conj())

    # S = V [G, right'; left, D] V' with the cross sums of T_t and Re(beta_j z^t)
    bH = beta.dot(Hinv)
    left, right = np.zeros((n + q, n)), np.zeros((n + q, n))
    left[n:] = np.einsum("jm,jmn->jn", bH, T_hat).real  # sum_t Re(beta_j z^t)'H^(-1)T_t
    right[n:] = np.einsum("jm,jmn->jn", beta.dot(Hinv.T), T_hat).real  # sum_t T_t'H^(-1)Re(...)
    V = np.concatenate([np.eye(n), -W.real])
    S = np.concatenate([V.dot(G) + left, V], axis=1).dot(np.concatenate([V, right], axis=1).T)
    bH *= np.where(2 * xi % N == 0, N, 0.5 * N)[:, None]
    i, j = np.nonzero(xi[:, None] == xi[None, :])
    S[n + i, n + j] += np.einsum("pk,pk->p", bH[i], beta[j].conj()).real
    # the rows x_N = 0 and sum_t F_t u_t = f: diag(I, -I) times the border
    S[n:] *= -1.0
    return S


def lti_product(A, B, Q, R, constraint, z) -> np.ndarray:
    """``assemble(...) @ z`` for LTI dynamics, without forming the matrix."""
    n = np.shape(A)[0]
    z = StackedUnknowns(z, n, constraint.channels, constraint.horizon, constraint.row_count).z
    return np.concatenate([b.ravel() for b in _product_blocks(A, B, Q, R, constraint, z)])


def _product_blocks(A, B, Q, R, constraint, z):
    """The dynamics (N, n), adjoint (N-1, n), stationarity (N, m) and
    frequency (q,) blocks of :func:`lti_product`, for a z of its length."""
    N, m = constraint.horizon, constraint.channels
    n = len(A)
    ou = (N - 1) * n
    op = ou + N * m
    ov = op + N * n
    X = np.zeros((N + 1, n))
    X[1:N] = z[:ou].reshape(N - 1, n)
    U, P, nu = z[ou:op].reshape(N, m), z[op:ov].reshape(N, n), z[ov:]
    dyn = X[1:] - X[:-1] @ A.T - U @ B.T
    adj = P[:-1] - P[1:] @ A + X[1:N] @ Q.T
    stat = P @ B - U @ R.T - constraint.apply_transpose(nu)
    return dyn, adj, stat, constraint.apply(U)


def _time_varying_border(A, B, constraint, rhs, recursion):
    """Border (S, b) and the map theta -> z of stage-varying dynamics, from
    a Riccati ``recursion`` = (P, K, H^(-1)) of :func:`riccati_scan`,
    for the r right-hand sides that are the columns of ``rhs`` (len z, r):
    they and one column per border unknown are carried through the backward
    scan.  ``A`` (N, n, n) and ``B`` (N, n, m) are the stage derivatives
    (broadcast views for LTI data).  b is (n + q, r), and ``stacked`` maps
    theta (n + q, r) to z (len z, r).

    With e_t = B_t'w_{t+1} - g_t (less B_t'P_{t+1}d_t in the right-hand-side
    columns) and k_t = H_t^(-1) e_t, the border rows as affine functions of
    theta are diag(I, -I) (E'K + W'd): the sum over stages of e_t'k_t, plus
    w_{t+1}'d_t in the right-hand-side columns only.  Over the theta columns
    this is the Schur complement J H^(-1) J' that the recursion has factored
    stage by stage; in a right-hand-side column it is the border value at
    theta = 0, the cross term of the LQ value function.  So the border needs
    no forward pass: theta is folded into k_t and w_t, and one forward scan
    with r columns gives x, u and p.  A gain-state cross term enters only
    through the recursion's P_t and K_t.
    """
    N, q, m = constraint.horizon, constraint.row_count, constraint.channels
    n, r = A.shape[1], rhs.shape[1]
    P, K, Hinv = recursion
    Phi = A + B @ K
    PhiT = Phi.transpose(0, 2, 1)
    BT = B.transpose(0, 2, 1)

    # backward columns: the right-hand sides, then w_N, then nu
    c = r + n + q
    d, adj, stat, freq = _split_rows(rhs, n, m, N)
    g = np.zeros((N, m, c))  # F_t'nu + s_t: R u_t = B_t'p_t - g_t
    g[:, :, :r] = stat
    g[:, :, r + n :] = constraint.columns()
    wr = np.empty((N, n, c))  # w_N, w_{N-1}, ..., w_1: the scan order
    wr[0] = 0.0  # w_N = p_{N-1} + P_N x_N
    wr[0, :, r : r + n] = np.eye(n)
    Pd = P[1:] @ d  # P_{t+1} d_t

    # backward: w_t = Phi_t'(w_{t+1} - P_{t+1} d_t) - K_t' g_t + a_t from w_N,
    # for t = N-1..1; the G of w_N is never read
    wr[1:] = (K[1:].transpose(0, 2, 1) @ -g[1:])[::-1]
    wr[1:, :, :r] += (adj - PhiT[1:] @ Pd[1:])[::-1]
    G = np.empty((N, n, n))
    G[0] = 0.0
    G[1:] = PhiT[:0:-1]
    _scan(G, wr)
    w = wr[::-1]  # w_1..w_N
    e = BT @ w - g
    e[:, :, :r] -= BT @ Pd
    k = Hinv @ e

    def stacked(theta):
        """z for the parameters theta, by one forward scan of
        x_{t+1} = Phi_t x_t + B_t k_t + d_t from x_0 = 0 (A x0 is in rhs)."""
        kt = k[:, :, :r] + k[:, :, r:] @ theta
        x_next = _scan(Phi.copy(), B @ kt + d)  # x_1..x_N
        u = kt
        u[1:] += K[1:] @ x_next[:-1]
        p = w[:, :, :r] + w[:, :, r:] @ theta - P[1:] @ x_next
        return np.concatenate(
            [x_next[:-1].reshape(-1, r), u.reshape(-1, r), p.reshape(-1, r), theta[n:]]
        )

    # border rows x_N = 0 and sum_t F_t u_t = f, as functions of every
    # column: diag(I, -I) (E'K + W'd), W'd in the rhs columns only
    border = e.reshape(N * m, c).T @ k.reshape(N * m, c)
    border[:, :r] += wr.reshape(N * n, c).T @ np.ascontiguousarray(d[::-1]).reshape(N * n, r)
    border = border[r:]
    border[n:] *= -1.0
    b = -border[:, :r]
    b[n:] += freq
    return border[:, r:].copy(), b, stacked


def _scanned_border(A, B, Q, R, constraint, rhs, cross=None):
    """:func:`_time_varying_border` of the Riccati recursion of
    :func:`riccati_scan` from the terminal weight P_N = sigma I
    (:func:`_terminal_weight`): the border of every fixed end without a
    stationary gain.  P_N = 0 would leave H_{N-1} = R_{N-1}, singular where
    R is."""
    sigma = _terminal_weight(R, B)
    recursion = riccati_scan(A, B, Q, R, sigma * np.eye(A.shape[1]), cross)
    return _time_varying_border(A, B, constraint, rhs, recursion)


def _terminal_weight(R, B) -> float:
    """sigma of the fixed-end terminal weight sigma I: |R|_F / |B|_F^2, so that
    B'P B is of the size of R (1.0 at a zero weight or gain, or a ratio that
    is not finite).  A stack B (N, n, m) takes the mean of |B_t|_F^2 over its
    stages, a stack R (N, m, m) the root mean square of |R_t|_F."""
    bb = float(np.sum(B * B))
    if np.ndim(B) == 3:
        bb /= len(B)
    r = np.linalg.norm(R)
    if np.ndim(R) == 3:
        r /= math.sqrt(len(R))
    sigma = r / bb if bb > 0.0 else 1.0
    return sigma if 0.0 < sigma < np.inf else 1.0


def time_varying_solve(A, B, Q, R, constraint, rhs, cross=None) -> np.ndarray:
    """Solve ``assemble(A, B, Q, R, constraint, cross) @ z = rhs`` at a fixed
    end in O(N) time and memory, without forming the matrix.

    ``A`` (N, n, n), ``B`` (N, n, m), ``Q``, ``R`` and ``cross`` (N, m, n)
    are the stage blocks of :func:`assemble`, ``Q`` and ``R`` constant or per
    stage.  The border in (w_N, nu) is that of :func:`_scanned_border`,
    solved by LU.  Raises :class:`SingularSystemError` when a (shifted) R_t,
    a pivot or the border is exactly singular or the solution is not finite:
    with block elimination the matrix has rank ``len(rhs) - deficiency``.
    """
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    S, b, stacked = _scanned_border(A, B, Q, R, constraint, rhs[:, None], cross)
    try:
        with np.errstate(all="ignore"):  # overflow ends in the check below
            z = stacked(np.linalg.solve(S, b)).ravel()
        if np.isfinite(z).all():
            return z
    except np.linalg.LinAlgError:
        pass
    deficiency = len(b) - numerical_rank(S) if np.isfinite(S).all() else None
    raise SingularSystemError(
        f"singular or non-finite border of size {len(b)}", deficiency=deficiency
    )


def lti_solve(A, B, Q, R, constraint, ax0, xf):
    """Solve ``assemble(...) @ z = boundary_rhs(ax0, xf, ...)`` for LTI
    dynamics in O(N): the fixed-end transfer from A x0 = ``ax0`` to
    x_N = ``xf``.

    ``A``, ``B``, ``Q``, ``R`` and ``constraint`` are as in :func:`assemble`
    with constant stage derivatives.  Returns ``(z, residual, consistent)``:
    the residual max-norm of the returned z and whether it is within
    INFEASIBILITY_TOL * (1 + |rhs|).  Raises ``numpy.linalg.LinAlgError``
    when a Riccati pivot is singular, or when the border system that least
    squares would take is not finite.

    The border unknown is w_N = p_{N-1} + P_N x_N, where x_N is the residual
    of the last dynamics row (zero at a solution, so w_N = p_{N-1} there),
    and the terminal weight P_N is free.  From P_N = 0 the closed loop
    A + B K_t is open loop in every mode Q does not weigh, and an unstable
    such mode makes the right-hand-side and p_{N-1} columns grow like
    rho(A)^N and cancel in x_t; a stabilizing weight avoids that.  So P_N is
    the stabilizing fixed point of the recursion (:func:`_stationary_gain`,
    doubling about 0 and then about sigma I, with B'P B of the size of R)
    where there is one, and sigma I where there is none
    (:func:`_scanned_border`).  Either way the solution is a fixed linear map
    of v = (ax0, xf), z = Z v (:func:`_plant_plan`, kept for the next call
    with the same plant).  When that z fails the residual test, or there is
    no Z, the border is formed for v alone (:func:`_border`) and solved by
    least squares.

    The residual test is |``assemble(...) @ z`` - rhs|_max with the blocks of
    :func:`lti_product` reduced where they are computed, the rhs subtracted
    only in the first and the last dynamics rows, where v enters: the same
    operations in the same order as on the whole vector, so the same bits,
    without a vector of the length of z.
    """
    A, B, Q, R, ax0, xf = (np.asarray(a, dtype=float) for a in (A, B, Q, R, ax0, xf))
    N = constraint.horizon
    first, last = _boundary_rows(ax0, xf, N)  # the rows of the rhs that are not zero
    threshold = INFEASIBILITY_TOL * (1.0 + abs(np.concatenate([first, last])).max(initial=0.0))
    gain, S, Z = _PLANS.get(
        (content_key(A, B, Q, R), constraint.row_key),
        lambda: _plant_plan(A, B, Q, R, constraint),
    )

    def residual(z):
        if not np.isfinite(z).all():
            return np.inf
        dyn, adj, stat, freq = _product_blocks(A, B, Q, R, constraint, z)
        dyn[0] -= first
        if N > 1:
            dyn[-1] -= last
        return largest(*max_norms(dyn, adj, stat, freq))

    z = None if Z is None else Z.dot(np.concatenate([ax0, xf]))
    res = np.inf if z is None else residual(z)
    if not res <= threshold:  # least squares on the border of this v alone
        S, b, stacked = _border(A, B, Q, R, constraint, gain, ax0[None], xf[None], S)
        if not (np.isfinite(S).all() and np.isfinite(b).all()):
            # LAPACK's least squares need not return on non-finite input
            raise np.linalg.LinAlgError("border system is not finite")
        z = stacked(np.linalg.lstsq(S, b, rcond=None)[0]).ravel()
        res = residual(z)
    return z, res, res <= threshold
