#!/usr/bin/env python3
"""Solve the free-endpoint LQ regulator two ways and confirm they coincide.

The Bellman recursion produces value matrices and feedback gains; the
first-order (adjoint) route reads the coupled state/adjoint/stationarity
system.  Both characterize the same optimum.  At a free end that system has
no border, and its block elimination is the backward Riccati recursion
itself, so lq_pmp_solve returns riccati_solve's solution with the adjoints
p_t = -S_{t+1} x_{t+1}: the two read-outs are one computation, and the gaps
printed below are exactly zero.  The independent check is the dense
factorization of the whole first-order system in tests/test_lq.py
(TestLqPmp::test_criterion_1_instances_match_the_dense_oracle).
"""

import numpy as np

from bandctrl import lq_pmp_solve, riccati_adjoints, riccati_solve

A = np.array([[1.0, 1.0], [0.0, 1.0]])  # double integrator
B = np.array([[0.0], [1.0]])
Q = np.eye(2)
R = np.array([[1.0]])
N = 12
x0 = np.array([2.0, 0.0])

ric, traj_dp = riccati_solve(A, B, Q, R, N, x0)
pmp = lq_pmp_solve(A, B, Q, R, N, x0)

print("Free-endpoint LQ regulator, double integrator, N = 12")
print(f"  Bellman cost:     {ric.cost:.12f}")
print(f"  value function:   {0.5 * x0 @ ric.value_matrices[0] @ x0:.12f}  (0.5 x0'S0 x0)")
print(f"  first-order cost: {pmp.cost:.12f}")

gap_states = np.max(np.abs(traj_dp.states - pmp.trajectory.states))
gap_controls = np.max(np.abs(traj_dp.controls - pmp.trajectory.controls))
print(f"  trajectory gap:   states {gap_states:.2e}, controls {gap_controls:.2e}")

# the value recursion and the adjoints are two views of the same object:
# p_t = -S_{t+1} x_{t+1}
gap_adjoint = np.max(np.abs(riccati_adjoints(ric, traj_dp) - pmp.adjoints))
print(f"  adjoint relation p_t = -S_(t+1) x_(t+1): gap {gap_adjoint:.2e}")

print("\n  t    x1        x2        u")
for t in range(N):
    x1, x2 = traj_dp.states[t]
    print(f"  {t:2d}  {x1:+.5f}  {x2:+.5f}  {traj_dp.controls[t, 0]:+.5f}")
