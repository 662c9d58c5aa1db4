"""Independent optimality checks for solutions returned by bandctrl.

Written against the problem definition with plain numpy and ``np.fft``; no
bandctrl code runs here.  A solution is a trajectory (states x_0..x_N,
controls u_0..u_{N-1}) with adjoints p_0..p_{N-1}.  The conditions checked are

* dynamics:      x_{t+1} = f(x_t, u_t) and x_0 = x0;
* endpoint:      x_N = xf (fixed end) or p_{N-1} = 0 (free end);
* bans:          every banned DFT component of every control channel is 0;
* adjoint:       p_{t-1} = f_x(x_t, u_t)' p_t - Q x_t,  t = 1..N-1;
* stationarity:  r_t = R u_t - f_u(x_t, u_t)' p_t has, channel by channel,
                 DFT support only on the mirror-closed banned set (r = -F'nu).

For LTI dynamics and quadratic cost these are the KKT conditions of a convex
QP, so they certify global optimality.

Tolerances come from conditioning, never from a solver's output.  A
backward-stable solve of the d x d first-order system M z = b leaves a
residual ||b - M z|| <= RESIDUAL_RATIO * d * eps * ||M|| ||z||, with 30 the
ratio LAPACK's own tests accept; that bounds the adjoint, stationarity and
ban conditions.  The returned states are an open-loop rollout of the
solver's controls.  A solve accurate to working precision leaves each
dynamics row exact to RESIDUAL_RATIO ulps of its own terms, and the rollout
amplifies that row error by the transition matrices: the state deviation at
step t is bounded by row * sum_{j<t} ||Phi(t, t-j)||, which on an unstable
plant (rho(A)^N ~ 1e9) is far above a flat tolerance.  Newton solves add
their stopping tolerance to every row.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)
RESIDUAL_RATIO = 30.0


class Lti:
    """x_{t+1} = A x_t + B u_t."""

    gain_slope = 0.0  # |d f_u / d x|

    def __init__(self, A, B):
        self.A = np.atleast_2d(np.asarray(A, dtype=float))
        self.B = np.atleast_2d(np.asarray(B, dtype=float))
        self.n, self.m = self.B.shape

    def step(self, x, u):
        return self.A @ x + self.B @ u

    def jac_x(self, x, u):
        return self.A

    def jac_u(self, x, u):
        return self.B

    def amplification(self, controls):
        """sum_{j<t} ||A^j||_inf for t = 0..N (element t bounds how a unit
        error in every step's row grows by step t)."""
        horizon = controls.shape[0]
        out = np.zeros(horizon + 1)
        power = np.eye(self.n)
        for t in range(horizon):
            out[t + 1] = out[t] + _norm(power)
            power = self.A @ power
        return out


class AffineToy:
    """The scalar control-affine toy x_{t+1} = x + (1 + 0.1 x) u, with its
    Jacobians written out: f_x = 1 + 0.1 u, f_u = 1 + 0.1 x."""

    n = 1
    m = 1
    gain_slope = 0.1  # |d f_u / d x|

    def step(self, x, u):
        return x + (1.0 + 0.1 * x) * u

    def jac_x(self, x, u):
        return np.array([[1.0 + 0.1 * u[0]]])

    def jac_u(self, x, u):
        return np.array([[1.0 + 0.1 * x[0]]])

    def amplification(self, controls):
        """e_{t+1} = |f_x(t)| e_t + 1 from e_0 = 0; exact for a scalar model
        to first order."""
        horizon = controls.shape[0]
        out = np.zeros(horizon + 1)
        for t in range(horizon):
            out[t + 1] = abs(1.0 + 0.1 * controls[t, 0]) * out[t] + 1.0
        return out


def _norm(mat) -> float:
    """Matrix infinity norm (max row sum), consistent with vector max-norms."""
    mat = np.atleast_2d(mat)
    return float(np.max(np.sum(np.abs(mat), axis=1))) if mat.size else 0.0


def _inf(vec) -> float:
    vec = np.asarray(vec)
    return float(np.max(np.abs(vec))) if vec.size else 0.0


def mirror_closed(banned, horizon: int) -> list[set[int]]:
    """Per-channel banned sets closed under xi -> N - xi (mod N)."""
    return [{int(xi) % horizon for xi in chan} | {(-int(xi)) % horizon for xi in chan}
            for chan in banned]


def banned_row_count(banned, horizon: int) -> int:
    """Real rows q of the ban constraint, counted from mirror orbits: an orbit
    {xi, N - xi} of two indices gives a real and an imaginary row, a
    self-mirrored index (0, or N/2 for even N) gives one real row."""
    q = 0
    for chan in mirror_closed(banned, horizon):
        for xi in chan:
            partner = (-xi) % horizon
            if partner == xi:
                q += 1
            elif xi < partner:
                q += 2
    return q


def ban_matrix(banned, horizon: int, m: int) -> np.ndarray:
    """Real (q, N*m) matrix over time-stacked controls whose null space is the
    set of control trajectories with every banned component zero."""
    rows = []
    t = np.arange(horizon)
    for k, chan in enumerate(mirror_closed(banned, horizon)):
        for xi in sorted(chan):
            partner = (-xi) % horizon
            if xi > partner:
                continue
            wave = np.exp(-2j * np.pi * xi * t / horizon)
            for part in ((wave.real,) if partner == xi else (wave.real, wave.imag)):
                row = np.zeros((horizon, m))
                row[:, k] = part
                rows.append(row.ravel())
    return np.array(rows).reshape(len(rows), horizon * m)


def _rank(mat: np.ndarray) -> int:
    """Singular values below 1e3 ulps of max(shape, 1) * s_max count as zero;
    callers scale their matrices to unit norm."""
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(s > max(mat.shape) * EPS * 1e3 * max(s[0], 1.0)))


def expected_transfer_exit(A, B, horizon: int, x0, xf, banned) -> int:
    """Exit code a correct fixed-endpoint LQ solver must give: 3 when the
    bans leave no normal extremal (q + n > m N), 2 when xf is unreachable
    from x0 by controls obeying the bans, else 0."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n, m = B.shape
    q = banned_row_count(banned, horizon)
    if q + n > m * horizon:
        return 3
    # x_N = A^N x0 + G w over time-stacked controls w
    blocks = []
    power = np.eye(n)
    for _ in range(horizon):
        blocks.append(power @ B)
        power = A @ power
    gmat = np.hstack(blocks[::-1])
    target = np.asarray(xf, dtype=float) - power @ np.asarray(x0, dtype=float)
    if q:
        null_basis = np.linalg.svd(ban_matrix(banned, horizon, m))[2][q:]
        gmat = gmat @ null_basis.T
    scale = max(_norm(gmat), 1.0)
    reach = _rank(gmat / scale)
    return 0 if _rank(np.column_stack([gmat / scale, target / scale])) == reach else 2


def certify(model, Q, R, x0, xf, banned, states, controls, adjoints, nu=(),
            newton_tol: float = 0.0) -> list[str]:
    """Check the first-order conditions; returns the violations found (empty
    when every condition holds).  ``xf`` None means a free final state.
    ``nu`` enters only the scale of the solver's system, never a condition."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    x = np.atleast_2d(np.asarray(states, dtype=float))
    u = np.atleast_2d(np.asarray(controls, dtype=float))
    p = np.atleast_2d(np.asarray(adjoints, dtype=float))
    nu = np.asarray(nu, dtype=float)
    horizon = u.shape[0]
    n, m = model.n, model.m
    if x.shape != (horizon + 1, n) or u.shape != (horizon, m) or p.shape != (horizon, n):
        return [f"shapes: states {x.shape}, controls {u.shape}, adjoints {p.shape}"]
    if not all(np.all(np.isfinite(a)) for a in (x, u, p, nu)):
        return ["non-finite entries in the solution"]
    banned = banned or [[] for _ in range(m)]
    closed = mirror_closed(banned, horizon)
    jx = [model.jac_x(x[t], u[t]) for t in range(horizon)]
    ju = [model.jac_u(x[t], u[t]) for t in range(horizon)]

    # conditions on the solver's own unknowns: normwise backward error of its
    # d x d system M z = b (a ban row has norm <= sqrt(N))
    size = horizon * (2 * n + m) + banned_row_count(banned, horizon)
    system_norm = (
        1.0 + max(_norm(jx[t]) + _norm(ju[t]) for t in range(horizon)) + _norm(Q) + _norm(R)
        + (np.sqrt(horizon) if any(closed) else 0.0)
    )
    unknowns = 1.0 + max(_inf(x), _inf(u), _inf(p), _inf(nu))
    rho = RESIDUAL_RATIO * size * EPS * system_norm * unknowns + newton_tol
    # the states are a rollout of the controls; a dynamics row solved to
    # working precision is exact to RESIDUAL_RATIO ulps of its own terms, and
    # that error grows along the rollout
    row = RESIDUAL_RATIO * EPS * (1.0 + max(
        _norm(jx[t]) * _inf(x[t]) + _norm(ju[t]) * _inf(u[t]) + _inf(x[t + 1])
        for t in range(horizon)
    )) + newton_tol
    drift = row * model.amplification(u)

    errors = []
    for t in range(horizon):
        gap = _inf(x[t + 1] - model.step(x[t], u[t]))
        if gap > row:
            errors.append(f"dynamics: step {t} off by {gap:.3e}")
            break
    x0 = np.asarray(x0, dtype=float).reshape(n)
    if _inf(x[0] - x0) > RESIDUAL_RATIO * EPS * (1.0 + _inf(x0)):
        errors.append(f"x0: off by {_inf(x[0] - x0):.3e}")
    if xf is not None:
        xf = np.asarray(xf, dtype=float).reshape(n)
        gap = _inf(x[horizon] - xf)
        if gap > drift[horizon] + row:
            errors.append(f"endpoint: x_N off xf by {gap:.3e} (bound {drift[horizon] + row:.3e})")
    elif _inf(p[horizon - 1]) > rho:
        errors.append(f"transversality: p_(N-1) = {_inf(p[horizon - 1]):.3e} on a free end")

    # a banned component is a complex pair of ban rows
    spectra = np.fft.fft(u, axis=0, norm="ortho")
    freq_tol = np.sqrt(2.0) * rho
    for k in range(m):
        worst = _inf(spectra[sorted(closed[k]), k])
        if worst > freq_tol:
            errors.append(f"bans: channel {k} banned component {worst:.3e} (tol {freq_tol:.3e})")

    # f_x of both models is independent of x, so only Q x_t sees the drift
    for t in range(1, horizon):
        res = _inf(p[t - 1] - jx[t].T @ p[t] + Q @ x[t])
        tol = rho + _norm(Q) * drift[t]
        if res > tol:
            errors.append(f"adjoint: step {t} residual {res:.3e} (tol {tol:.3e})")
            break

    # r_t = -F_t' nu up to row errors e_t; |DFT(e)| <= sqrt(N) max|e|
    resid = np.array([R @ u[t] - ju[t].T @ p[t] for t in range(horizon)])
    stat_tol = np.sqrt(horizon) * (rho + model.gain_slope * _inf(drift) * _inf(p))
    resid_hat = np.fft.fft(resid, axis=0, norm="ortho")
    for k in range(m):
        worst = _inf(resid_hat[sorted(set(range(horizon)) - closed[k]), k])
        if worst > stat_tol:
            errors.append(
                f"stationarity: channel {k} residual has allowed-frequency content "
                f"{worst:.3e} (tol {stat_tol:.3e})"
            )
    return errors


def quadratic_cost(Q, R, states, controls) -> float:
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    x = np.asarray(states, dtype=float)[:-1]
    u = np.asarray(controls, dtype=float)
    return 0.5 * float(np.einsum("ti,ij,tj->", x, Q, x) + np.einsum("ti,ij,tj->", u, R, u))


def cost_matches(reported: float, Q, R, states, controls) -> str | None:
    """None when a reported cost equals the recomputed one to rounding."""
    cost = quadratic_cost(Q, R, states, controls)
    horizon = len(controls)
    if abs(reported - cost) > RESIDUAL_RATIO * EPS * horizon * (1.0 + abs(cost)):
        return f"cost: reported {reported!r}, recomputed {cost!r}"
    return None
