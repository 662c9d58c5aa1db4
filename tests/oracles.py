"""Independent oracles used to freeze expected values.

Each oracle is written against the problem definition directly, not against
the library's solution path: the DFT oracle is the naive double sum, the LQ
oracle is a dense KKT factorization over stacked controls obtained by
eliminating the states with explicit matrix powers, and the nonlinear oracle
is a generic constrained optimizer over the raw control vector started from
several seeds.  The dense first-order oracle is the solve path that the
structured solver of ``bandctrl.kkt`` replaced: the matrix of
``kkt.assemble`` factored whole.  At a free end it writes the transversality
row p_{N-1} = 0 into that matrix itself, in place of the last dynamics row;
it is the reference for ``lq.lq_pmp_solve``, which is the Riccati recursion
of ``lq.riccati_solve``.  The loop oracles are the stage-by-stage forms of
the PMP certificate and of the Newton residual that the batched evaluation
replaced: they call the model once per stage and term, and the certificate's
reference checks each stage set in its own form (dual cone, distance and
feasible directions of a fixed point or a box, one stage at a time) where
``verify_pmp`` reduces bound arrays over all stages.  The loop validation
errors are the stage-set checks of ``bandctrl.problem.validate`` made on
every stage, where ``validate`` visits only the stages that are not
``FREE``.  The loop control-affine terms are the stage-by-stage form of the one-pass evaluation
of a control-affine model in ``bandctrl.problem._stage_terms``.  The loop
Riccati sweep is the recursion that ``kkt.riccati_sweep`` shortcuts and
``kkt.riccati_scan`` reorders: every stage swept, with a general inverse of
every pivot.  The SVD normality classifier is the test that the
principal-angle classifier of ``bandctrl.extremal`` replaced: the ranks of
the raw reachability stack [B'(A')^(N-1); ...; B'] and of that stack
bordered by the frequency rows.  The closed-loop rollout is the
stage-by-stage form of ``riccati_solve``'s scan.  The dense Newton step is
the step of ``newton_solve`` from the dense Jacobian, which the Riccati scan
and border of ``kkt.time_varying_solve`` replaced.  The finite-difference
residual Jacobian is the matrix that ``newton_solve``'s finite-difference
step factored before it became the same structured solve: central
differences of the whole residual, first-order blocks included; the dense
finite-difference Newton iteration factors it by LU with one refinement
step, as that step did.  The stage-stack certificate is ``verify_pmp`` as
it was before it took LTI products from A and B and fused its max-norms:
einsums over the broadcast stage stacks, one reduction per norm, the set
gaps of every stage.  The channel-spread kernels are ``apply`` and
``apply_transpose`` of ``FrequencyConstraint`` before its flat index: a 2-D
fancy index and a (q, channels) zero spread.  ``dynamics_row_ulps``
measures how well each row x_{t+1} = A x_t + B u_t of a returned trajectory
holds, in units of the rounding of its terms.  Inside ``empty_memos`` the
one-plant memos of ``bandctrl.kkt`` and ``bandctrl.extremal`` start empty,
so what is solved there is computed afresh.
"""

import contextlib
import math

import numpy as np

from bandctrl import extremal, kkt, problem
from bandctrl._memo import LastValue
from bandctrl._norms import largest, max_norm as _inf
from bandctrl.extremal import NormalityClass, NormalityVerdict, PmpCertificate
from bandctrl.lq import INFEASIBILITY_TOL
from bandctrl.problem import Box, Fixed, Free
from bandctrl.shooting import _residual_vec, _unpack, assemble_residual, residual_jacobian
from bandctrl.spectrum import FrequencyConstraint, numerical_rank


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


@contextlib.contextmanager
def empty_memos():
    """Run a block with empty plant memos (the stationary plan of
    ``kkt.lti_solve``, the verdict of ``classify_normality_freq`` and the
    frequency rows and matrix errors of ``problem.validate``); the memos
    outside the block are restored after it, untouched."""
    saved = kkt._PLANS, extremal._VERDICTS, problem._ROWS, problem._MATRICES
    kkt._PLANS, extremal._VERDICTS = LastValue(), LastValue()
    problem._ROWS, problem._MATRICES = LastValue(), LastValue()
    try:
        yield
    finally:
        kkt._PLANS, extremal._VERDICTS, problem._ROWS, problem._MATRICES = saved


class DenseRows:
    """The operations of ``bandctrl.spectrum.FrequencyConstraint`` as einsums
    on dense blocks F_0..F_{N-1} (N, q, m), the storage that the sample table
    replaced.  Any blocks will do, so it also stands in for a constraint with
    integer rows."""

    def __init__(self, blocks):
        self.blocks = np.asarray(blocks, float)
        self.horizon, self.row_count, self.channels = self.blocks.shape

    def apply(self, controls):
        return np.einsum("tqm,tm...->q...", self.blocks, controls)

    def stage_terms(self, controls):
        return np.einsum("tqm,tm->tq", self.blocks, controls)

    def apply_transpose(self, nu):
        return np.einsum("tqm,q...->tm...", self.blocks, nu)

    def columns(self):
        return self.blocks.transpose(0, 2, 1)


def dense_blocks(constraint):
    """The F_t of a ``FrequencyConstraint`` as dense blocks, (N, q, m)."""
    return constraint.columns().transpose(0, 2, 1)


def stacked_rows(rows):
    """[F_0 ... F_{N-1}], (q, N m), of a ``FrequencyConstraint`` or ``DenseRows``."""
    return rows.columns().reshape(rows.horizon * rows.channels, rows.row_count).T


def dense_first_order_system(A, B, Q, R, N, x0, xf, blocks):
    """First-order system of the LQ problem as (J, -r(0)).  xf None frees the
    final state: the last dynamics row, the only one x_N enters, becomes the
    transversality condition p_{N-1} = 0 with a zero right-hand side."""
    n, m = B.shape
    M = kkt.assemble(
        np.broadcast_to(A, (N, n, n)), np.broadcast_to(B, (N, n, m)), Q, R, DenseRows(blocks)
    )
    rhs = kkt.boundary_rhs(A @ x0, np.zeros(n) if xf is None else xf, n, m, N, blocks.shape[1])
    if xf is None:
        last = slice((N - 1) * n, N * n)
        p_end = kkt.segments(n, m, N, blocks.shape[1])["adjoints"].stop
        M[last] = 0.0
        M[last, p_end - n : p_end] = np.eye(n)
        rhs[last] = 0.0
    return M, rhs


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


def _near(value, bound, active_tol):
    """Whether a finite bound is active at ``value``; an infinite one never is."""
    return bool(np.isfinite(bound) and abs(value - bound) <= active_tol * (1.0 + abs(bound)))


def _dual_cone_violation(stage_set, point, mult, active_tol):
    """Distance-to-membership of a multiplier in the dual cone of the stage
    set's supporting cone at ``point``."""
    if isinstance(stage_set, Fixed):
        return 0.0
    if isinstance(stage_set, Box):
        worst = 0.0
        for i in range(mult.size):
            at_lo = _near(point[i], stage_set.lower[i], active_tol)
            at_hi = _near(point[i], stage_set.upper[i], active_tol)
            if at_lo and at_hi:
                continue
            if at_lo:
                worst = max(worst, max(mult[i], 0.0))
            elif at_hi:
                worst = max(worst, max(-mult[i], 0.0))
            else:
                worst = max(worst, abs(mult[i]))
        return worst
    # free set: dual cone is {0}
    return _inf(mult)


def _set_violation(stage_set, point):
    """Max-norm distance by which ``point`` lies outside the stage set."""
    if isinstance(stage_set, Fixed):
        return _inf(point - stage_set.point)
    if isinstance(stage_set, Box):
        outside = np.maximum(stage_set.lower - point, point - stage_set.upper)
        return max(float(np.max(outside)), 0.0)
    return 0.0


def _feasible_directions(control_set, point, active_tol):
    """Signed coordinate directions inside the supporting cone at ``point``.

    These generate the cone for free and box sets, so checking the variational
    inequality on them is equivalent to checking it on the whole cone; a fixed
    set has none.
    """
    m = point.size
    if isinstance(control_set, Fixed):
        return []
    if isinstance(control_set, Box):
        dirs = []
        for j in range(m):
            if not _near(point[j], control_set.upper[j], active_tol):
                dirs.append((+1.0, j))
            if not _near(point[j], control_set.lower[j], active_tol):
                dirs.append((-1.0, j))
        return dirs
    return [(s, j) for j in range(m) for s in (+1.0, -1.0)]


def loop_verify_pmp(traj, lift, spec, tol=1e-7, active_tol=1e-8, comparisons=None):
    """The PMP certificate of ``bandctrl.extremal.verify_pmp`` evaluated stage
    by stage.  When ``comparisons`` is a list, every threshold test is
    appended to it as (condition, name, value, threshold), the test being
    value <= threshold."""
    horizon, n, m = traj.horizon, traj.n, traj.m
    fc = spec.frequency_constraint
    blocks = np.zeros((horizon, 0, m)) if fc is None else dense_blocks(fc)
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


def stage_stack_verify_pmp(traj, lift, spec, tol=1e-7, active_tol=1e-8):
    """``verify_pmp`` in the form that LTI products and fused norms replaced:
    every model term over the (N, n, n) and (N, n, m) stage stacks of
    ``problem._stage_terms`` (broadcast views of A and B for LTI dynamics),
    the adjoint products as einsums over them, each max-norm its own
    reduction, and the set gaps of every stage."""
    def size(a):
        return float(abs(np.asarray(a)).max(initial=0.0))

    def worst(a):
        return float(a.max(initial=0.0)) + 0.0

    def set_gaps(points, sets):
        return np.maximum(sets.bounds[0] - points, points - sets.bounds[1])

    horizon = traj.horizon
    fc = spec.frequency_constraint or FrequencyConstraint(horizon, traj.m)
    eta_c = float(lift.eta_c)
    nu = lift.nu if lift.nu.size else np.zeros(fc.row_count)
    p, etax = lift.adjoints, lift.state_multipliers
    states, controls = traj.states, traj.controls
    nu_size, p_size, inner_size = size(nu), size(p), size(etax[1:horizon])
    first_size, last_size, p_last_size = size(etax[0]), size(etax[horizon]), size(p[horizon - 1])
    mu = largest(abs(eta_c), nu_size, p_size, inner_size, first_size, last_size)
    unit = mu if mu > 0.0 else 1.0
    eta_s, nu_s, p_s, etax_s = eta_c / unit, nu / unit, p / unit, etax / unit
    terms = problem._stage_terms(spec.dynamics, spec.cost, states, controls, jx0=True)
    state_sets, control_sets = spec.sets_as_arrays()

    state_res = size(states[1:] - terms.f)
    state_scale = max(size(states), size(terms.f))
    jxp = np.einsum("tij,ti->tj", terms.jx[1:], p_s[1:])
    cgrad = eta_s * terms.cx[1:]
    adj_res = size(p_s[:-1] - (jxp - cgrad - etax_s[1:horizon]))
    adj_scale = max(p_size / unit, size(jxp), size(cgrad), inner_size / unit)
    cone_gap = extremal._cone_gaps(states, etax_s, state_sets, active_tol)
    adj_res = max(adj_res, worst(cone_gap[1:horizon]))
    set_gap = set_gaps(states, state_sets)
    interior_gap = worst(set_gap[1:horizon])
    dh_dx0 = terms.jx[0].T @ p_s[0] - eta_s * terms.cx[0]
    start_res, end_res = size(dh_dx0 - etax_s[0]), size(p_s[horizon - 1] + etax_s[horizon])
    trans_res = max(start_res, end_res, worst(cone_gap[[0, horizon]]))
    trans_scale = max(size(dh_dx0), first_size / unit, p_last_size / unit, last_size / unit)
    endpoint_gap = worst(set_gap[[0, horizon]])
    grad = np.einsum("tij,ti->tj", terms.ju, p_s) - eta_s * terms.cu - fc.apply_transpose(nu_s)
    vi_scale = size(grad)
    vi_worst = float(extremal._slopes(controls, grad, control_sets, active_tol).max())
    vi_worst = 0.0 if vi_worst == -np.inf else vi_worst + 0.0
    control_gap = worst(set_gaps(controls, control_sets))
    freq_res = size(fc.apply(controls))

    state_tol = tol * (1 + state_scale)
    thresholds = {
        "state_dyn_residual": state_tol,
        "adjoint_dyn_residual": tol * (1 + adj_scale),
        "transversality_residual": tol * (1 + trans_scale),
        "hamiltonian_vi_worst": tol * (1 + vi_scale),
        "freq_residual": tol * (1 + fc.term_scale(controls)),
        "state_set_violation": state_tol,
        "control_set_violation": tol * (1 + size(controls)),
    }
    condition_passed = {
        "i": eta_c >= 0.0,
        "ii": max(abs(eta_c), nu_size, p_size) > 0.0,
        "iii": bool(
            state_res <= state_tol
            and adj_res <= thresholds["adjoint_dyn_residual"]
            and interior_gap <= state_tol
        ),
        "iv": bool(trans_res <= thresholds["transversality_residual"] and endpoint_gap <= state_tol),
        "v": bool(
            vi_worst <= thresholds["hamiltonian_vi_worst"]
            and control_gap <= thresholds["control_set_violation"]
        ),
        "vi": bool(freq_res <= thresholds["freq_residual"]),
    }
    return PmpCertificate(
        nonneg=condition_passed["i"],
        nontrivial=condition_passed["ii"],
        state_dyn_residual=state_res,
        adjoint_dyn_residual=adj_res,
        transversality_residual=trans_res,
        hamiltonian_vi_worst=vi_worst,
        freq_residual=freq_res,
        set_violation=max(interior_gap, endpoint_gap, control_gap),
        tol=tol,
        condition_passed=condition_passed,
        passed=all(condition_passed.values()),
        thresholds=thresholds,
    )


def channel_spread_apply(constraint, controls):
    """``FrequencyConstraint.apply`` in the form that the flat index
    replaced: the product with every channel, then each row's own channel
    gathered by a 2-D fancy index."""
    u = np.asarray(controls, dtype=float)
    q = constraint.row_count
    every = (constraint.samples.T @ u.reshape(len(u), -1)).reshape((q,) + u.shape[1:])
    return every[np.arange(q), constraint.row_channel]


def channel_spread_apply_transpose(constraint, nu):
    """``FrequencyConstraint.apply_transpose`` in the form that the flat
    index replaced: nu spread over a (q, channels, ...) zero array by a 2-D
    fancy index, then the product with the samples."""
    nu = np.asarray(nu, dtype=float)
    q = constraint.row_count
    spread = np.zeros((q, constraint.channels) + nu.shape[1:])
    spread[np.arange(q), constraint.row_channel] = nu
    flat = spread.reshape(q, math.prod(spread.shape[1:]))
    return (constraint.samples @ flat).reshape((constraint.horizon,) + spread.shape[1:])


def _loop_check_box(name, box, dim, errors):
    if box.lower.shape != (dim,) or box.upper.shape != (dim,):
        errors.append(f"{name}: box bounds must have dimension {dim}")
        return
    for side, bound in (("lower", box.lower), ("upper", box.upper)):
        for i in np.flatnonzero(np.isnan(bound)):
            errors.append(f"{name}: box {side}[{i}] is NaN")
    for i in np.flatnonzero(box.lower > box.upper):
        errors.append(f"{name}: box lower[{i}]={box.lower[i]} > upper[{i}]={box.upper[i]}")


def loop_validate_errors(spec):
    """The errors that ``bandctrl.problem.validate`` reports for the stage
    sets of ``spec``, checked stage by stage and set by set."""
    errors = []
    n, m, horizon = spec.n, spec.m, int(spec.horizon)
    if len(spec.state_sets) != horizon + 1:
        errors.append(f"state_sets: expected {horizon + 1} entries, got {len(spec.state_sets)}")
    for t, s in enumerate(spec.state_sets):
        if isinstance(s, Free):
            continue
        if isinstance(s, Fixed):
            if s.point.shape != (n,):
                errors.append(f"state_sets[{t}].point: expected dimension {n}, got {s.point.shape}")
            for i in np.flatnonzero(~np.isfinite(s.point)):
                errors.append(f"state_sets[{t}].point[{i}]: must be finite, got {s.point[i]}")
        elif isinstance(s, Box):
            _loop_check_box(f"state_sets[{t}]", s, n, errors)
        else:
            errors.append(f"state_sets[{t}]: unknown set variant {type(s).__name__}")
    if len(spec.control_sets) != horizon:
        errors.append(f"control_sets: expected {horizon} entries, got {len(spec.control_sets)}")
    for t, s in enumerate(spec.control_sets):
        if isinstance(s, Free):
            continue
        if isinstance(s, Box):
            _loop_check_box(f"control_sets[{t}]", s, m, errors)
        else:
            errors.append(f"control_sets[{t}]: {type(s).__name__} is not an admissible control set")
    return errors


def loop_residual_vec(zvec, spec, x0, xf):
    """The stacked first-order residual of ``bandctrl.shooting`` assembled
    stage by stage."""
    n, m, N = spec.n, spec.m, spec.horizon
    states, controls, adjoints, nu = _unpack(zvec, spec, x0, xf)
    blocks = dense_blocks(spec.frequency_constraint)
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


def dense_newton_step(z, spec, x0, xf):
    """The Newton step of ``bandctrl.shooting.newton_solve`` before the
    structured solve replaced it: the dense analytic Jacobian of
    ``residual_jacobian`` factored whole, ``np.linalg.solve(J, -r)``, plus one
    step of iterative refinement with the same matrix.  Without the refinement
    partial pivoting on this row order can leave a residual of 1e-8 at a
    condition number of 20, and the oracle would be the less accurate side."""
    jac = residual_jacobian(z, spec, x0, xf)
    rhs = -assemble_residual(z, spec, x0, xf)
    step = np.linalg.solve(jac, rhs)
    return step + np.linalg.solve(jac, rhs - jac @ step), jac


def fd_residual_jacobian(zvec, spec, x0, xf):
    """Central differences of the whole stacked residual at ``zvec``, one
    column per unknown (2 len(z) residual evaluations), step
    1e-6 (1 + |z_j|)."""
    return problem._fd_jacobian(lambda v: _residual_vec(v, spec, x0, xf), zvec)


def dense_fd_newton(spec, x0, xf, z, max_iterations=60, tolerance=1e-10, min_step=2.0**-30):
    """The damped Newton iteration of ``bandctrl.shooting.newton_solve`` with
    the finite-difference step it took before the structured solve: the
    Jacobian of :func:`fd_residual_jacobian`, factored whole by LU, plus one
    step of iterative refinement.  Returns the final iterate, the residual
    max-norm and the accepted step lengths, one per iteration; with
    ``min_step`` = 1 it stops at the first full step that does not lower the
    residual."""
    z = np.array(z, dtype=float)
    residual = _residual_vec(z, spec, x0, xf)
    norm, alphas = np.max(np.abs(residual)), []
    while norm > tolerance and len(alphas) < max_iterations:
        jac = fd_residual_jacobian(z, spec, x0, xf)
        step = np.linalg.solve(jac, -residual)
        step += np.linalg.solve(jac, -residual - jac @ step)
        alpha = 1.0
        while alpha >= min_step:
            r_try = _residual_vec(z + alpha * step, spec, x0, xf)
            if np.max(np.abs(r_try)) < norm:
                break
            alpha *= 0.5
        else:
            break
        z, residual = z + alpha * step, r_try
        norm = np.max(np.abs(residual))
        alphas.append(alpha)
    return z, norm, alphas


def loop_control_affine_terms(dynamics, states, controls, step=True, jx0=False):
    """(f, jx, ju, gx) of ``bandctrl.problem._stage_terms`` for a control-affine
    model, stage by stage from its per-stage ``step``, ``jac_x`` and ``jac_u``
    and its ``gain_jac``.  ``f`` is None unless ``step``; the state derivatives
    of stage 0 are zero unless ``jx0``; ``gx`` is None without a ``gain_jac``."""
    N = controls.shape[0]
    n, m = dynamics.n, dynamics.m
    f = np.array([dynamics.step(t, states[t], controls[t]) for t in range(N)]) if step else None
    ju = np.array([dynamics.jac_u(t, states[t], controls[t]) for t in range(N)])
    jx = np.zeros((N, n, n))
    gx = None if dynamics.gain_jac is None else np.zeros((N, n, m, n))
    for t in range(0 if jx0 else 1, N):
        jx[t] = dynamics.jac_x(t, states[t], controls[t])
        if gx is not None:
            gx[t] = np.reshape(dynamics.gain_jac(t, states[t]), (n, m, n))
    return f, jx, ju, gx


def loop_riccati_sweep(A, B, Q, R, horizon, terminal=None, cross=None):
    """Backward Riccati recursion from P_N = ``terminal`` (zero when None),
    every stage swept and every pivot inverted by ``numpy.linalg.inv``:

        H_t = R + B_t'P_{t+1}B_t,   K_t = -H_t^(-1) (B_t'P_{t+1}A_t - C_t),
        P_t = Q + A_t'P_{t+1}(A_t + B_t K_t) - C_t'K_t,   symmetrized.

    ``A`` and ``B`` are one matrix or one per stage ((N, n, n), (N, n, m)),
    and so are ``Q`` and ``R`` ((N, n, n), (N, m, m)); ``cross`` holds C_t
    (N, m, n), zero when None.  Returns P (N+1, n, n), K (N, m, n) and
    H_t^(-1) (N, m, m)."""
    A, B, Q, R = (np.asarray(a, float) for a in (A, B, Q, R))
    n, m = B.shape[-2:]
    P = np.zeros((horizon + 1, n, n))
    if terminal is not None:
        P[horizon] = terminal
    K = np.zeros((horizon, m, n))
    Hinv = np.zeros((horizon, m, m))
    for t in range(horizon - 1, -1, -1):
        At, Bt = (A[t], B[t]) if B.ndim == 3 else (A, B)
        Qt, Rt = (Q[t], R[t]) if R.ndim == 3 else (Q, R)
        Ct = 0.0 if cross is None else cross[t]
        Hinv[t] = np.linalg.inv(Rt + Bt.T @ P[t + 1] @ Bt)
        K[t] = -Hinv[t] @ (Bt.T @ P[t + 1] @ At - Ct)
        Pt = Qt + At.T @ P[t + 1] @ (At + Bt @ K[t])
        if cross is not None:
            Pt -= cross[t].T @ K[t]
        P[t] = 0.5 * (Pt + Pt.T)
    return P, K, Hinv


def reachability_stack(A, B, horizon: int) -> np.ndarray:
    """Row-stacked transposed reachability matrix over the horizon:
    [B'(A')^(N-1); ...; B'] of shape (m*N, n)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    powers = [np.eye(A.shape[0])]
    for _ in range(horizon - 1):
        powers.append(A @ powers[-1])
    return np.vstack([B.T @ powers[horizon - 1 - t].T for t in range(horizon)])


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
    gmat = constraint.columns().reshape(m * horizon, q)  # rows t*m + i: F_t'
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
