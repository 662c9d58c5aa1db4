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

For LTI systems :func:`lti_solve` solves that system without forming it, in
O(N) time and memory for fixed n, m, q.  The stage rows, with a terminal
adjoint parameter w_N (fixed end only) and nu held as parameters, are a
two-point LQ problem: a backward Riccati sweep (:func:`riccati_sweep`, from a
positive terminal weight P_N at a fixed end, so that the closed loop is
stable even in modes Q does not weigh) gives u_t = K_t x_t + k_t and
p_{t-1} = -P_t x_t + w_t.  The sweep stops once P_t reaches its
floating-point fixed point and repeats that stage for the rest.  The
right-hand side and one unit column per parameter are carried through the
backward affine part (w_t, k_t) as a batched recursive-doubling scan over the
stage axis.  What is left is the border: the last dynamics row (x_N = xf) and
the frequency rows, a dense system of size n + q in (w_N, nu), where
w_N = p_{N-1} at a solution.  Its matrix and right-hand side are Gram
products of the backward columns, with no forward pass.  It is solved by LU,
or by least squares when LU fails or leaves a residual above
INFEASIBILITY_TOL * (1 + |rhs|), so non-unique multipliers come out
minimum-norm over (p_{N-1}, nu).  One single-column forward scan then gives
the states, controls and adjoints.
:func:`lti_product` is ``assemble(...) @ z`` without the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# a first-order residual max-norm above INFEASIBILITY_TOL * (1 + |rhs|)
# means the system has no solution
INFEASIBILITY_TOL = 1e-7

EPS = float(np.finfo(float).eps)

__all__ = [
    "INFEASIBILITY_TOL",
    "StackedUnknowns",
    "segments",
    "assemble",
    "boundary_rhs",
    "riccati_sweep",
    "lti_solve",
    "lti_product",
]


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


def assemble(jx, ju, Q, R, constraint, cross=None, free_end: bool = False) -> np.ndarray:
    """Jacobian of the first-order rows with respect to z.

    ``jx`` (N, n, n) and ``ju`` (N, n, m) are df_t/dx and df_t/du at each
    stage; ``jx[0]`` is not read, since x_0 is fixed.  ``Q`` (n, n) and ``R``
    (m, m) are the stage-cost Hessians; ``constraint`` holds F_0..F_{N-1}.
    ``cross`` (N, m, n), when given, holds d((df_t/du)'p_t)/dx_t, the state
    derivative of the gain-adjoint product of control-affine dynamics
    (``cross[0]`` is not read).  ``free_end`` replaces the last dynamics row
    by p_{N-1} = 0.  Builds one dense matrix and writes every block into it.
    """
    N, n, m = np.shape(ju)
    q = constraint.row_count
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
    M[r_stat:r_freq, ov:] = -constraint.columns().reshape(N * m, q)  # row t m + i: -F_t'

    if cross is not None:
        _place(M, r_adj, ou + m, -cross[1:].transpose(0, 2, 1))
        _place(M, r_stat + m, 0, cross[1:])

    M[r_freq:, ou:op] = -M[r_stat:r_freq, ov:].T  # F: the nu columns transposed
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


def riccati_sweep(A, B, Q, R, horizon: int, terminal=None):
    """Backward Riccati recursion of x_{t+1} = A x_t + B u_t under stage cost
    0.5 x'Qx + 0.5 u'Ru, from P_N = ``terminal`` (zero when None):

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
    P[horizon] = 0.0 if terminal is None else terminal
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
                    if m == 2:
                        (a, b), (c, d) = W[n:, n:].tolist()
                        a, b, c, d = a + r[0][0], b + r[0][1], c + r[1][0], d + r[1][1]
                        det = b * c - a * d
                        nhinv = np.array([[d / det, -b / det], [-c / det, a / det]])
                    else:
                        nhinv = -np.linalg.inv(R + W[n:, n:])
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


def _split_rows(rhs, n: int, m: int, horizon: int):
    """Dynamics (N, n), adjoint (N-1, n), stationarity (N, m) and frequency
    parts of a vector in the row layout of :func:`assemble`."""
    N = horizon
    r_adj, r_stat = N * n, (2 * N - 1) * n
    r_freq = r_stat + N * m
    return (
        rhs[:r_adj].reshape(N, n),
        rhs[r_adj:r_stat].reshape(N - 1, n),
        rhs[r_stat:r_freq].reshape(N, m),
        rhs[r_freq:],
    )


def lti_product(A, B, Q, R, constraint, z, free_end: bool = False) -> np.ndarray:
    """``assemble(...) @ z`` for LTI dynamics, without forming the matrix."""
    N, q, m = constraint.horizon, constraint.row_count, constraint.channels
    n = np.shape(A)[0]
    un = StackedUnknowns(z, n, m, N, q)
    X = np.zeros((N + 1, n))
    X[1:N] = un.states()
    U, P, nu = un.controls(), un.adjoints(), un.nu()
    dyn = X[1:] - X[:-1] @ A.T - U @ B.T
    if free_end:
        dyn[-1] = P[-1]
    adj = P[:-1] - P[1:] @ A + X[1:N] @ Q.T
    stat = P @ B - U @ R.T - constraint.apply_transpose(nu)
    freq = constraint.apply(U)
    return np.concatenate([dyn.ravel(), adj.ravel(), stat.ravel(), freq])


def lti_solve(A, B, Q, R, constraint, rhs, free_end: bool = False):
    """Solve ``assemble(...) @ z = rhs`` for LTI dynamics in O(N).

    ``A``, ``B``, ``Q``, ``R`` and ``constraint`` are as in :func:`assemble`
    with constant stage derivatives; ``rhs`` is any vector in
    its row layout.  The border system in (w_N, nu) (nu alone at a free end)
    is solved by LU; when that fails, gives non-finite values or leaves a
    residual max-norm above INFEASIBILITY_TOL * (1 + |rhs|), by least
    squares.  Returns ``(z, residual, consistent)``: the residual max-norm of
    the returned z and whether it is within that threshold.  Raises
    ``numpy.linalg.LinAlgError`` when a Riccati pivot is singular, or when
    the border system that least squares would take is not finite.

    At a fixed end the sweep starts from P_N = sigma I with B'P_N B of the
    size of R, and the border unknown is w_N = p_{N-1} + P_N x_N, where x_N
    is the residual of the last dynamics row (zero at a solution, so
    w_N = p_{N-1} there).  From P_N = 0 the closed loop A + B K_t is open
    loop in every mode Q does not weigh, and an unstable such mode makes the
    right-hand-side and p_{N-1} columns grow like rho(A)^N and cancel in x_t;
    a positive terminal weight stabilizes the closed loop instead.

    Only the backward scan carries the parameters theta = (w_N, nu), one
    column each beside the right-hand side.  With e_t = B'w_{t+1} - g_t (less
    B'P_{t+1}d_t in the right-hand-side column) and k_t = H_t^(-1) e_t, the
    border rows as affine functions of theta are diag(I, -I) (E'K + W'd):
    the sum over stages of e_t'k_t, plus w_{t+1}'d_t in the right-hand-side
    column only.  Over the theta columns this is the Schur complement
    J H^(-1) J' that the sweep has factored stage by stage; in the
    right-hand-side column it is the border value at theta = 0, the cross
    term of the LQ value function.  So the border needs no forward pass:
    theta is folded into k_t and w_t, and one single-column forward scan
    gives x, u and p (a second one only if the least-squares fallback runs).
    """
    A, B, Q, R = (np.asarray(a, dtype=float) for a in (A, B, Q, R))
    rhs = np.asarray(rhs, dtype=float)
    N, q, m = constraint.horizon, constraint.row_count, constraint.channels
    n = A.shape[0]
    threshold = INFEASIBILITY_TOL * (1.0 + abs(rhs).max(initial=0.0))
    terminal = None
    if not free_end:
        bb = float(np.sum(B * B))
        terminal = (np.linalg.norm(R) / bb if bb > 0.0 else 1.0) * np.eye(n)
    P, K, Hinv = riccati_sweep(A, B, Q, R, N, terminal)
    Phi = A + B @ K
    PhiT = Phi.transpose(0, 2, 1)

    # backward columns: the right-hand side, then w_N (fixed end), then nu
    lam = 0 if free_end else n
    c = 1 + lam + q
    dyn, adj, stat, freq = _split_rows(rhs, n, m, N)
    d = dyn
    g = np.zeros((N, m, c))  # F_t'nu + s_t: R u_t = B'p_t - g_t
    g[:, :, 0] = stat
    g[:, :, 1 + lam :] = constraint.columns()
    wr = np.empty((N, n, c))  # w_N, w_{N-1}, ..., w_1: the scan order
    wr[0] = 0.0  # w_N = p_{N-1} + P_N x_N
    if free_end:
        wr[0, :, 0] = dyn[-1]
        d = np.concatenate([dyn[:-1], np.zeros((1, n))])
    else:
        wr[0, :, 1 : 1 + lam] = np.eye(n)
    Pd = (P[1:] @ d[:, :, None])[:, :, 0]  # P_{t+1} d_t

    # backward: w_t = Phi_t'(w_{t+1} - P_{t+1} d_t) - K_t' g_t + a_t from w_N,
    # for t = N-1..1; the G of w_N is never read
    wr[1:] = (K[1:].transpose(0, 2, 1) @ -g[1:])[::-1]
    wr[1:, :, 0] += (adj - (PhiT[1:] @ Pd[1:, :, None])[:, :, 0])[::-1]
    G = np.empty((N, n, n))
    G[0] = 0.0
    G[1:] = PhiT[:0:-1]
    _scan(G, wr)
    w = wr[::-1]  # w_1..w_N
    e = (B.T @ wr)[::-1] - g
    e[:, :, 0] -= Pd @ B
    k = Hinv @ e

    def stacked(theta):
        """z for the parameters theta, by one forward scan of
        x_{t+1} = Phi_t x_t + B k_t + d_t from x_0 = 0 (A x0 is in rhs)."""
        kt = k[:, :, 0] + k[:, :, 1:] @ theta
        x_next = _scan(Phi.copy(), (kt @ B.T + d)[:, :, None])[:, :, 0]  # x_1..x_N
        u = kt
        u[1:] += (K[1:] @ x_next[:-1, :, None])[:, :, 0]
        p = w[:, :, 0] + w[:, :, 1:] @ theta - (P[1:] @ x_next[:, :, None])[:, :, 0]
        return np.concatenate([x_next[:-1].ravel(), u.ravel(), p.ravel(), theta[lam:]])

    def residual(z):
        return float(abs(lti_product(A, B, Q, R, constraint, z, free_end) - rhs).max())

    S, b = np.zeros((0, 0)), np.zeros(0)
    if c > 1:
        # border rows x_N = 0 (fixed end) and sum_t F_t u_t = f, as functions
        # of every column: diag(I, -I) (E'K + W'd), W'd in the rhs column only
        border = e.reshape(N * m, c).T @ k.reshape(N * m, c)
        border[:, 0] += d[::-1].ravel() @ wr.reshape(N * n, c)
        border = border[1:]
        border[lam:] *= -1.0
        S, b = border[:, 1:], -border[:, 0]
        b[lam:] += freq
    try:
        z = stacked(np.linalg.solve(S, b) if b.size else b)
        res = residual(z) if np.isfinite(z).all() else np.inf
    except np.linalg.LinAlgError:
        res = np.inf
    if b.size and not res <= threshold:
        if not (np.isfinite(S).all() and np.isfinite(b).all()):
            # LAPACK's least squares need not return on non-finite input
            raise np.linalg.LinAlgError("border system is not finite")
        z = stacked(np.linalg.lstsq(S, b, rcond=None)[0])
        res = residual(z)
    return z, res, res <= threshold
