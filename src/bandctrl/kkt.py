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

With a free final state the layout is the same: x_N enters no row but the
last dynamics row, which becomes the transversality condition p_{N-1} = 0.

:func:`assemble` builds the Jacobian of these rows from per-stage derivative
arrays; it is the one place where the blocks are laid out.  For LTI dynamics
and quadratic cost the rows are affine in z, and the solution solves
``assemble(...) @ z = boundary_rhs(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StackedUnknowns", "segments", "assemble", "boundary_rhs"]


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


@dataclass(frozen=True)
class StackedUnknowns:
    """Flat vector of interior states, controls, adjoints, and the frequency
    multiplier, with the layout recorded."""

    z: np.ndarray
    n: int
    m: int
    horizon: int
    q: int

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).ravel()
        expected = self.segments["nu"].stop
        if z.size != expected:
            raise ValueError(f"flat vector has length {z.size}, layout requires {expected}")
        object.__setattr__(self, "z", z)

    @property
    def segments(self) -> dict[str, slice]:
        return segments(self.n, self.m, self.horizon, self.q)

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


def assemble(jx, ju, Q, R, blocks, cross=None, free_end: bool = False) -> np.ndarray:
    """Jacobian of the first-order rows with respect to z.

    ``jx`` (N, n, n) and ``ju`` (N, n, m) are df_t/dx and df_t/du at each
    stage; ``jx[0]`` is not read, since x_0 is fixed.  ``Q`` (n, n) and ``R``
    (m, m) are the stage-cost Hessians; ``blocks`` (N, q, m) holds F_0..F_{N-1}.
    ``cross`` (N, m, n), when given, holds d((df_t/du)'p_t)/dx_t, the state
    derivative of the gain-adjoint product of control-affine dynamics
    (``cross[0]`` is not read).  ``free_end`` replaces the last dynamics row
    by p_{N-1} = 0.  Builds one dense matrix and writes every block into it.
    """
    N, n, m = np.shape(ju)
    q = np.shape(blocks)[1]
    seg = segments(n, m, N, q)
    ou, op, ov = seg["controls"].start, seg["adjoints"].start, seg["nu"].start
    r_adj, r_stat = N * n, (2 * N - 1) * n
    r_freq = r_stat + N * m
    M = np.zeros((ov + q, ov + q))
    last = N - 1 if free_end else N  # dynamics rows kept

    _place(M, 0, 0, np.broadcast_to(np.eye(n), (N - 1, n, n)))  # x_{t+1}
    _place(M, n, 0, -jx[1:last])  # -f_x x_t
    _place(M, 0, ou, -ju[:last])  # -f_u u_t
    if free_end:
        M[r_adj - n : r_adj, op + (N - 1) * n : ov] = np.eye(n)

    _place(M, r_adj, op, np.broadcast_to(np.eye(n), (N - 1, n, n)))  # p_{t-1}
    _place(M, r_adj, op + n, -jx[1:].transpose(0, 2, 1))  # -f_x' p_t
    _place(M, r_adj, 0, np.broadcast_to(Q, (N - 1, n, n)))  # Q x_t

    _place(M, r_stat, ou, np.broadcast_to(-np.asarray(R), (N, m, m)))  # -R u_t
    _place(M, r_stat, op, ju.transpose(0, 2, 1))  # f_u' p_t
    M[r_stat:r_freq, ov:] = -np.asarray(blocks).transpose(0, 2, 1).reshape(N * m, q)

    if cross is not None:
        _place(M, r_adj, ou + m, -cross[1:].transpose(0, 2, 1))
        _place(M, r_stat + m, 0, cross[1:])

    M[r_freq:, ou:op] = np.asarray(blocks).transpose(1, 0, 2).reshape(q, N * m)
    return M


def boundary_rhs(ax0, xf, n: int, m: int, horizon: int, q: int) -> np.ndarray:
    """Right-hand side -r(0) of an LTI system.  At z = 0 every row vanishes
    but the first dynamics row, r = -A x_0 (``ax0`` is A x_0), and at a fixed
    end (``xf`` not None) the last one, r = x_N."""
    rhs = np.zeros(segments(n, m, horizon, q)["nu"].stop)
    rhs[:n] = ax0
    last = slice((horizon - 1) * n, horizon * n)
    rhs[last] = 0.0 if xf is None else rhs[last] - xf
    return rhs
