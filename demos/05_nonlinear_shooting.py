#!/usr/bin/env python3
"""Newton shooting on a nonlinear control-affine system with a banned frequency.

The toy dynamics x+ = x + (1 + 0.1 x) u has a state-dependent gain, so the
first-order system is genuinely nonlinear.  The solver initializes from the
LTI problem linearized at (x0, 0), iterates damped Newton on the stacked
residual, and the converged result is certified against the first-order
conditions.

The model is written twice: stage by stage, and vectorized, where each
callable gets the int array ``t`` of stage indices and the (T, n) states of
those stages and returns all of them at once (one call per evaluation
instead of one per stage).  Both forms give the same numbers.
"""

import numpy as np

from bandctrl import (
    ControlAffineDynamics,
    control_affine_spec,
    forward_dft,
    newton_solve,
    trajectory_cost,
    verify_pmp,
)

toy = ControlAffineDynamics(
    n=1,
    m=1,
    drift=lambda t, x: x,
    gain=lambda t, x: np.array([[1.0 + 0.1 * x[0]]]),
    drift_jac=lambda t, x: np.array([[1.0]]),
    gain_jac=lambda t, x: np.array([[[0.1]]]),
)

toy_vectorized = ControlAffineDynamics(
    n=1,
    m=1,
    drift=lambda t, x: x,  # (T, 1)
    gain=lambda t, x: (1.0 + 0.1 * x)[:, :, None],  # (T, 1, 1)
    drift_jac=lambda t, x: np.ones((len(t), 1, 1)),
    gain_jac=lambda t, x: np.full((len(t), 1, 1, 1), 0.1),
    vectorized=True,
)


def solve(dynamics, banned):
    spec = control_affine_spec(dynamics, [[1.0]], [[1.0]], 6, [0.0], [1.0], banned=banned)
    return spec, newton_solve(spec, [0.0], [1.0])


for banned in (None, [[3]]):
    spec, result = solve(toy, banned)
    label = "no banned frequencies" if banned is None else f"banned {banned[0]}"
    print(f"\n=== {label} ===")
    print("  iter  residual      step")
    for it, residual, step in result.trace:
        print(f"  {it:4d}  {residual:.3e}  {step:.3f}" if it else f"  {it:4d}  {residual:.3e}     -")
    print(f"  converged: {result.converged} in {result.iterations} Newton steps")
    cert = verify_pmp(result.trajectory, result.lift, spec, tol=1e-6)
    print(f"  certificate passed: {cert.passed} "
          f"(worst directional derivative {cert.hamiltonian_vi_worst:.2e})")
    print(f"  cost: {trajectory_cost(spec.cost, result.trajectory):.8f}")
    print("  u =", np.round(result.trajectory.controls.ravel(), 6))
    if banned:
        comp = forward_dft(result.trajectory.controls[:, 0])
        print(f"  |u_hat[3]| = {abs(comp[3]):.2e}")
    _, batched = solve(toy_vectorized, banned)
    same = np.array_equal(batched.trajectory.controls, result.trajectory.controls) and np.array_equal(
        batched.lift.adjoints, result.lift.adjoints
    )
    print(f"  vectorized form: same controls and adjoints: {same}, "
          f"{batched.iterations} Newton steps")
