"""Independent oracles used to freeze expected values.

Each oracle is written against the problem definition directly, not against
the library's solution path: the DFT oracle is the naive double sum, the LQ
oracle is a dense KKT factorization over stacked controls obtained by
eliminating the states with explicit matrix powers, and the nonlinear oracle
is a generic constrained optimizer over the raw control vector started from
several seeds.  The dense first-order oracle is the solve path that the
structured solver of ``bandctrl.kkt`` replaced: the matrix of
``kkt.assemble`` factored whole.  The loop oracles are the stage-by-stage
forms of the PMP certificate and of the Newton residual that the batched
evaluation replaced: they call the model once per stage and term.  The loop
Riccati sweep is the recursion that ``kkt.riccati_sweep`` shortcuts: every
stage swept, with a general inverse of every pivot.  The SVD normality
classifier is the test that the principal-angle classifier of
``bandctrl.extremal`` replaced: the ranks of the raw reachability stack
[B'(A')^(N-1); ...; B'] and of that stack bordered by the frequency rows.
The closed-loop rollout is the stage-by-stage form of ``riccati_solve``'s
scan.  ``dynamics_row_ulps`` measures how well each row x_{t+1} = A x_t +
B u_t of a returned trajectory holds, in units of the rounding of its terms.
"""

import numpy as np

from bandctrl import kkt
from bandctrl.extremal import (
    NormalityClass,
    NormalityVerdict,
    PmpCertificate,
    _dual_cone_violation,
    _feasible_directions,
    _freq_blocks,
    _inf,
    _set_violation,
    reachability_stack,
)
from bandctrl.lq import INFEASIBILITY_TOL
from bandctrl.shooting import _unpack
from bandctrl.spectrum import numerical_rank


def naive_dft(signal):
    """O(N^2) double-sum DFT with the unitary 1/sqrt(N) scaling."""
    u = np.asarray(signal, dtype=float)
    size = len(u)
    out = np.zeros(size, dtype=complex)
    for xi in range(size):
        acc = 0.0 + 0.0j
        for t in range(size):
            acc += u[t] * np.exp(-2j * np.pi * xi * t / size)
        out[xi] = acc / np.sqrt(size)
    return out


def lti_rollout(A, B, x0, controls):
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    u = np.atleast_2d(np.asarray(controls, float))
    states = np.zeros((u.shape[0] + 1, A.shape[0]))
    states[0] = np.asarray(x0, float).ravel()
    for t in range(u.shape[0]):
        states[t + 1] = A @ states[t] + B @ u[t]
    return states


def dynamics_row_ulps(A, B, states, controls):
    """Defect of each row x_{t+1} = A x_t + B u_t, in ulps of its terms
    ||A|| |x_t| + ||B|| |u_t| + |x_{t+1}| (max-norms), stage by stage."""
    A = np.atleast_2d(np.asarray(A, float))
    B = np.atleast_2d(np.asarray(B, float))
    eps = np.finfo(float).eps
    ulps = []
    for t in range(len(controls)):
        x, u, x_next = states[t], controls[t], states[t + 1]
        defect = _inf(x_next - A @ x - B @ u)
        terms = (
            np.linalg.norm(A, np.inf) * _inf(x) + np.linalg.norm(B, np.inf) * _inf(u)
            + _inf(x_next)
        )
        ulps.append(defect / (eps * terms) if defect else 0.0)
    return np.array(ulps)


def quadratic_cost(Q, R, states, controls):
    Q = np.asarray(Q, float)
    R = np.asarray(R, float)
    total = 0.0
    for t in range(len(controls)):
        total += 0.5 * states[t] @ Q @ states[t] + 0.5 * controls[t] @ R @ controls[t]
    return float(total)


def transfer_qp_oracle(A, B, Q, R, horizon, x0, xf=None, freq_matrix=None):
    """Dense equality-constrained QP over the time-stacked control vector.

    States are eliminated with explicit powers of A (x_t = A^t x0 + G_t w),
    the endpoint and frequency constraints become linear rows on w, and the
    KKT system [[H, E'], [E, 0]] is factorized by least squares.  Returns a
    dict with the controls, cost, states, and a feasibility flag based on the
    constraint residual of the recovered point.
    """
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    Q = np.asarray(Q, float)
    R = np.asarray(R, float)
    n, m = B.shape
    N = horizon
    x0 = np.asarray(x0, float).ravel()

    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(A @ powers[-1])
    # x_t = powers[t] x0 + G[t] w with w = (u_0; ...; u_{N-1})
    G = [np.zeros((n, N * m)) for _ in range(N + 1)]
    for t in range(1, N + 1):
        for s in range(t):
            G[t][:, s * m : (s + 1) * m] = powers[t - 1 - s] @ B
    H = np.kron(np.eye(N), R)
    g = np.zeros(N * m)
    for t in range(N):
        H += G[t].T @ Q @ G[t]
        g += G[t].T @ Q @ (powers[t] @ x0)

    rows = []
    rhs = []
    if xf is not None:
        rows.append(G[N])
        rhs.append(np.asarray(xf, float).ravel() - powers[N] @ x0)
    if freq_matrix is not None and np.asarray(freq_matrix).size:
        fm = np.asarray(freq_matrix, float)
        rows.append(fm)
        rhs.append(np.zeros(fm.shape[0]))
    if rows:
        E = np.vstack(rows)
        b = np.concatenate(rhs)
        kkt = np.block([[H, E.T], [E, np.zeros((E.shape[0], E.shape[0]))]])
        vec = np.concatenate([-g, b])
        sol = np.linalg.lstsq(kkt, vec, rcond=None)[0]
        w = sol[: N * m]
        feasible = np.max(np.abs(E @ w - b)) <= 1e-8 * (1.0 + np.max(np.abs(b), initial=0.0))
    else:
        w = np.linalg.lstsq(H, -g, rcond=None)[0]
        feasible = True
    controls = w.reshape(N, m)
    states = lti_rollout(A, B, x0, controls)
    return {
        "controls": controls,
        "states": states,
        "cost": quadratic_cost(Q, R, states, controls),
        "feasible": bool(feasible),
    }


def dense_first_order_system(A, B, Q, R, N, x0, xf, blocks):
    """First-order system of the LQ problem as (J, -r(0)); xf None frees the
    final state."""
    n, m = B.shape
    M = kkt.assemble(
        np.broadcast_to(A, (N, n, n)), np.broadcast_to(B, (N, n, m)), Q, R, blocks,
        free_end=xf is None,
    )
    return M, kkt.boundary_rhs(A @ x0, xf, n, m, N, blocks.shape[1])


def dense_solve_stacked(M, rhs):
    """Solve a square stacked system, falling back to least squares.

    Returns (z, residual, consistent); residual is the max-norm of M z - rhs
    and consistency uses INFEASIBILITY_TOL * (1 + |rhs|).
    """
    threshold = INFEASIBILITY_TOL * (1.0 + np.max(np.abs(rhs), initial=0.0))
    try:
        z = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        z = np.full(rhs.size, np.nan)
    if not np.all(np.isfinite(z)) or np.max(np.abs(M @ z - rhs), initial=0.0) > threshold:
        z = np.linalg.lstsq(M, rhs, rcond=None)[0]
    # one step of iterative refinement sharpens consistent solves to machine level
    try:
        z = z + np.linalg.solve(M, rhs - M @ z)
    except np.linalg.LinAlgError:
        z = z + np.linalg.lstsq(M, rhs - M @ z, rcond=None)[0]
    residual = np.max(np.abs(M @ z - rhs), initial=0.0)
    return z, residual, residual <= threshold


def dense_first_order_solve(A, B, Q, R, N, x0, xf, blocks):
    """The LQ first-order system assembled densely and solved by LU, with a
    least-squares fallback and one refinement step; xf None frees the final
    state.  Returns (z, residual, consistent)."""
    A, B, Q, R = (np.asarray(a, float) for a in (A, B, Q, R))
    x0 = np.asarray(x0, float).ravel()
    xf = None if xf is None else np.asarray(xf, float).ravel()
    M, rhs = dense_first_order_system(A, B, Q, R, N, x0, xf, np.asarray(blocks, float))
    return dense_solve_stacked(M, rhs)


def direct_transcription_oracle(step, stage_cost, horizon, m, x0, xf, freq_matrix=None, seeds=(0, 1, 2)):
    """Minimize the rolled-out cost over the raw control vector with a generic
    SQP solver from several starts; endpoint (and optional frequency) rows are
    equality constraints.  Returns the best (cost, controls) found."""
    from scipy.optimize import minimize

    x0 = np.asarray(x0, float).ravel()
    xf = np.asarray(xf, float).ravel()
    n = x0.size

    def roll(w):
        u = w.reshape(horizon, m)
        states = np.zeros((horizon + 1, n))
        states[0] = x0
        for t in range(horizon):
            states[t + 1] = step(t, states[t], u[t])
        return states, u

    def objective(w):
        states, u = roll(w)
        return sum(stage_cost(t, states[t], u[t]) for t in range(horizon))

    constraints = [{"type": "eq", "fun": lambda w: roll(w)[0][horizon] - xf}]
    if freq_matrix is not None and np.asarray(freq_matrix).size:
        fm = np.asarray(freq_matrix, float)
        constraints.append({"type": "eq", "fun": lambda w: fm @ w})

    best = None
    rng_starts = [np.zeros(horizon * m), np.full(horizon * m, 0.2)]
    for seed in seeds:
        rng_starts.append(np.random.default_rng(seed).standard_normal(horizon * m) * 0.3)
    for w0 in rng_starts:
        res = minimize(
            objective,
            w0,
            method="SLSQP",
            constraints=constraints,
            options={"ftol": 1e-14, "maxiter": 600},
        )
        if not res.success:
            continue
        if best is None or res.fun < best[0]:
            best = (float(res.fun), res.x.reshape(horizon, m))
    assert best is not None, "direct transcription oracle failed from every start"
    return best


def has_nontrivial_nullspace(matrix):
    """Brute-force null-space test by SVD."""
    M = np.atleast_2d(np.asarray(matrix, float))
    if M.shape[1] == 0:
        return False
    if M.shape[0] < M.shape[1]:
        return True
    s = np.linalg.svd(M, compute_uv=False)
    return bool(s[-1] <= max(M.shape) * s[0] * 1e-12 + 1e-12)


def random_lq_matrices(rng, n, m, spectral_radius=0.95):
    """Generic LQ data: A scaled to the given spectral radius, Q psd, R pd."""
    A = rng.standard_normal((n, n))
    radius = np.max(np.abs(np.linalg.eigvals(A)))
    if radius > 1e-12:
        A *= spectral_radius / radius
    B = rng.standard_normal((n, m))
    Mq = rng.standard_normal((n, n))
    Q = Mq.T @ Mq / n
    Mr = rng.standard_normal((m, m))
    R = Mr.T @ Mr / m + (0.2 + rng.random()) * np.eye(m)
    return A, B, Q, R


def unstable_transfer_plant(case):
    """(A, B, banned, N) of two unstable plants whose open-loop rollouts drift
    off xf: "baseline", the ROADMAP instance (n = 4, m = 2, A = I + 0.1 randn
    from seed 0, rho(A) = 1.088, bans growing with N) at N = 1024, and
    "diag", A = diag(1.1, 0.9), B = [1; 1], ban {1}, at N = 400."""
    if case == "baseline":
        N, rng = 1024, np.random.default_rng(0)
        A = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        B = rng.standard_normal((4, 2))
        return A, B, [list(range(1, N // 8)), list(range(N // 4, N // 4 + N // 16))], N
    return np.diag([1.1, 0.9]), np.array([[1.0], [1.0]]), [[1]], 400


def random_banned_sets(rng, horizon, channels, max_total=2):
    """Small random banned sets, at most ``max_total`` seed frequencies overall."""
    banned = [[] for _ in range(channels)]
    for _ in range(int(rng.integers(0, max_total + 1))):
        banned[int(rng.integers(channels))].append(int(rng.integers(horizon)))
    return banned


def loop_verify_pmp(traj, lift, spec, tol=1e-7, active_tol=1e-8, comparisons=None):
    """The PMP certificate of ``bandctrl.extremal.verify_pmp`` evaluated stage
    by stage.  When ``comparisons`` is a list, every threshold test is
    appended to it as (condition, name, value, threshold), the test being
    value <= threshold."""
    horizon, n, m = traj.horizon, traj.n, traj.m
    blocks = _freq_blocks(spec)
    q = blocks.shape[1]
    eta_c = float(lift.eta_c)
    nu = lift.nu if lift.nu.size else np.zeros(q)
    if nu.shape != (q,):
        raise ValueError(f"lift.nu has shape {nu.shape}, expected ({q},)")
    p = lift.adjoints
    etax = lift.state_multipliers
    if p.shape != (horizon, n) or etax.shape != (horizon + 1, n):
        raise ValueError("lift dimensions do not match the trajectory")

    nonneg = bool(eta_c >= 0.0)
    nontrivial = bool(max(abs(eta_c), _inf(nu), _inf(p)) > 0.0)

    mu = max(abs(eta_c), _inf(nu), _inf(p), _inf(etax))
    if mu > 0.0:
        eta_s, nu_s, p_s, etax_s = eta_c / mu, nu / mu, p / mu, etax / mu
    else:
        eta_s, nu_s, p_s, etax_s = eta_c, nu, p, etax

    f_all = np.array(
        [spec.dynamics.step(t, traj.states[t], traj.controls[t]) for t in range(horizon)]
    )
    state_res = _inf(traj.states[1:] - f_all)
    state_scale = max(_inf(traj.states), _inf(f_all))

    jx = [spec.dynamics.jac_x(t, traj.states[t], traj.controls[t]) for t in range(horizon)]
    adj_res = 0.0
    adj_scale = _inf(p_s)
    for t in range(1, horizon):
        x, u = traj.states[t], traj.controls[t]
        jxp = jx[t].T @ p_s[t]
        cgrad = eta_s * spec.cost.grad_x(t, x, u)
        adj_res = max(adj_res, _inf(p_s[t - 1] - (jxp - cgrad - etax_s[t])))
        adj_res = max(
            adj_res, _dual_cone_violation(spec.state_sets[t], x, etax_s[t], active_tol)
        )
        adj_scale = max(adj_scale, _inf(jxp), _inf(cgrad), _inf(etax_s[t]))

    x0, u0 = traj.states[0], traj.controls[0]
    dh_dx0 = jx[0].T @ p_s[0] - eta_s * spec.cost.grad_x(0, x0, u0)
    trans_res = max(
        _inf(dh_dx0 - etax_s[0]),
        _inf(p_s[horizon - 1] + etax_s[horizon]),
        _dual_cone_violation(spec.state_sets[0], x0, etax_s[0], active_tol),
        _dual_cone_violation(
            spec.state_sets[horizon], traj.states[horizon], etax_s[horizon], active_tol
        ),
    )
    trans_scale = max(_inf(dh_dx0), _inf(etax_s[0]), _inf(p_s[horizon - 1]), _inf(etax_s[horizon]))

    ju = [spec.dynamics.jac_u(t, traj.states[t], traj.controls[t]) for t in range(horizon)]
    vi_worst = -np.inf
    vi_scale = 0.0
    for t in range(horizon):
        x, u = traj.states[t], traj.controls[t]
        grad = ju[t].T @ p_s[t] - eta_s * spec.cost.grad_u(t, x, u)
        if q:
            grad = grad - blocks[t].T @ nu_s
        vi_scale = max(vi_scale, _inf(grad))
        for sign, j in _feasible_directions(spec.control_sets[t], u, active_tol):
            vi_worst = max(vi_worst, sign * grad[j])
    if not np.isfinite(vi_worst):
        vi_worst = 0.0

    freq_terms = np.einsum("tqm,tm->tq", blocks, traj.controls) if q else np.zeros((horizon, 0))
    freq_res = _inf(freq_terms.sum(axis=0)) if q else 0.0
    freq_scale = _inf(freq_terms)

    state_tol = tol * (1 + state_scale)
    interior_gap = max(
        (_set_violation(spec.state_sets[t], traj.states[t]) for t in range(1, horizon)),
        default=0.0,
    )
    start_gap = _set_violation(spec.state_sets[0], traj.states[0])
    end_gap = _set_violation(spec.state_sets[horizon], traj.states[horizon])
    control_gap = max(
        _set_violation(spec.control_sets[t], traj.controls[t]) for t in range(horizon)
    )
    control_tol = tol * (1 + _inf(traj.controls))

    if comparisons is not None:
        comparisons += [
            ("iii", "state_dyn_residual", state_res, state_tol),
            ("iii", "adjoint_dyn_residual", adj_res, tol * (1 + adj_scale)),
            ("iii", "set_violation", interior_gap, state_tol),
            ("iv", "transversality_residual", trans_res, tol * (1 + trans_scale)),
            ("iv", "set_violation", start_gap, state_tol),
            ("iv", "set_violation", end_gap, state_tol),
            ("v", "hamiltonian_vi_worst", vi_worst, tol * (1 + vi_scale)),
            ("v", "set_violation", control_gap, control_tol),
            ("vi", "freq_residual", freq_res, tol * (1 + freq_scale)),
        ]
    condition_passed = {
        "i": bool(nonneg),
        "ii": bool(nontrivial),
        "iii": bool(
            state_res <= state_tol and adj_res <= tol * (1 + adj_scale) and interior_gap <= state_tol
        ),
        "iv": bool(trans_res <= tol * (1 + trans_scale) and start_gap <= state_tol and end_gap <= state_tol),
        "v": bool(vi_worst <= tol * (1 + vi_scale) and control_gap <= control_tol),
        "vi": bool(freq_res <= tol * (1 + freq_scale)),
    }
    return PmpCertificate(
        nonneg=nonneg,
        nontrivial=nontrivial,
        state_dyn_residual=state_res,
        adjoint_dyn_residual=adj_res,
        transversality_residual=trans_res,
        hamiltonian_vi_worst=float(vi_worst),
        freq_residual=freq_res,
        set_violation=max(interior_gap, start_gap, end_gap, control_gap),
        tol=tol,
        condition_passed=condition_passed,
        passed=all(condition_passed.values()),
    )


def loop_residual_vec(zvec, spec, x0, xf):
    """The stacked first-order residual of ``bandctrl.shooting`` assembled
    stage by stage."""
    n, m, N = spec.n, spec.m, spec.horizon
    states, controls, adjoints, nu = _unpack(zvec, spec, x0, xf)
    blocks = spec.frequency_constraint.blocks
    dyn, cost = spec.dynamics, spec.cost

    res = np.zeros(zvec.size)
    row = 0
    for t in range(N):  # (a) state dynamics
        res[row : row + n] = states[t + 1] - dyn.step(t, states[t], controls[t])
        row += n
    for t in range(1, N):  # (b) adjoint dynamics, eta_c = 1
        res[row : row + n] = (
            adjoints[t - 1]
            - dyn.jac_x(t, states[t], controls[t]).T @ adjoints[t]
            + cost.grad_x(t, states[t], controls[t])
        )
        row += n
    for t in range(N):  # (c) stationarity dH/du
        res[row : row + m] = (
            -cost.grad_u(t, states[t], controls[t])
            + dyn.jac_u(t, states[t], controls[t]).T @ adjoints[t]
            - blocks[t].T @ nu
        )
        row += m
    res[row:] = np.einsum("tqm,tm->q", blocks, controls)  # (d) frequency residual
    return res


def loop_riccati_sweep(A, B, Q, R, horizon, terminal=None):
    """Backward Riccati recursion from P_N = ``terminal`` (zero when None),
    every stage swept and every pivot inverted by ``numpy.linalg.inv``:

        H_t = R + B'P_{t+1}B,   K_t = -H_t^(-1) B'P_{t+1}A,
        P_t = Q + A'P_{t+1}(A + B K_t),   symmetrized.

    Returns P (N+1, n, n), K (N, m, n) and H_t^(-1) (N, m, m)."""
    A, B, Q, R = (np.asarray(a, float) for a in (A, B, Q, R))
    n, m = B.shape
    P = np.zeros((horizon + 1, n, n))
    if terminal is not None:
        P[horizon] = terminal
    K = np.zeros((horizon, m, n))
    Hinv = np.zeros((horizon, m, m))
    for t in range(horizon - 1, -1, -1):
        Hinv[t] = np.linalg.inv(R + B.T @ P[t + 1] @ B)
        K[t] = -Hinv[t] @ B.T @ P[t + 1] @ A
        Pt = Q + A.T @ P[t + 1] @ (A + B @ K[t])
        P[t] = 0.5 * (Pt + Pt.T)
    return P, K, Hinv


def svd_classify_normality_freq(A, B, horizon, constraint):
    """Fixed-endpoint LQ transfer with frequency constraints.

    Stacks the transposed reachability blocks against the transposed frequency
    blocks: an abnormal lift exists iff [R_stack | -G] has a nontrivial null
    space.  With q + n > m*N that null space is guaranteed (all trajectories
    abnormal); with full column rank n + q it is trivial (all normal);
    otherwise undetermined.  It measures no principal angle: its margin is NaN.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    if constraint.horizon != horizon or constraint.channels != m:
        raise ValueError(
            f"constraint built for ({constraint.horizon}, {constraint.channels}) controls, "
            f"expected ({horizon}, {m})"
        )
    q = constraint.row_count
    if constraint.effective_rank != q:
        raise ValueError(
            "frequency constraint rows are dependent; rebuild with build_frequency_constraint"
        )
    r_stack = reachability_stack(A, B, horizon)
    gmat = constraint.blocks.transpose(0, 2, 1).reshape(m * horizon, q)  # rows t*m + i: F_t'
    augmented = np.hstack([r_stack, -gmat])
    rank_aug = numerical_rank(augmented)
    rank_reach = numerical_rank(r_stack)
    if q + n > m * horizon:
        cls = NormalityClass.ALL_ABNORMAL
    elif rank_aug == n + q:
        cls = NormalityClass.ALL_NORMAL
    else:
        cls = NormalityClass.UNDETERMINED
    return NormalityVerdict(cls, rank_reach, rank_aug, (n, m, horizon, q), float("nan"))


def loop_closed_loop_rollout(A, B, gains, x0):
    """x_{t+1} = A x_t + B u_t with u_t = K_t x_t, stage by stage."""
    A = np.asarray(A, float)
    B = np.asarray(B, float)
    horizon, m, n = np.shape(gains)
    states = np.zeros((horizon + 1, n))
    controls = np.zeros((horizon, m))
    states[0] = np.asarray(x0, float).ravel()
    for t in range(horizon):
        controls[t] = gains[t] @ states[t]
        states[t + 1] = A @ states[t] + B @ controls[t]
    return states, controls
