#!/usr/bin/env python3
"""Walk through the DFT machinery and the banned-frequency constraint map.

Shows how a per-channel banned set becomes a real linear equality constraint
on the time-domain control trajectory, and why banning a frequency silently
bans its mirror for real-valued controls.
"""

import numpy as np

from bandctrl import (
    SupportSpec,
    build_dft_matrix,
    build_frequency_constraint,
    constraint_residual,
    forward_dft,
    uncertainty_check,
)

N = 8

print(f"Unitary DFT matrix for N = {N}:")
phi = build_dft_matrix(N)
print(f"  max |Phi* Phi - I| = {np.max(np.abs(phi.conj().T @ phi - np.eye(N))):.2e}")
print(f"  symmetric: max |Phi - Phi^T| = {np.max(np.abs(phi - phi.T)):.2e}")

print("\nSpectra of two simple signals (unitary scaling):")
print("  constant 1s ->", np.round(np.abs(forward_dft(np.ones(N))), 6))
impulse = np.zeros(N)
impulse[0] = 1.0
print("  unit impulse ->", np.round(np.abs(forward_dft(impulse)), 6))

print("\nBanning frequency 3 of a single channel:")
fc = build_frequency_constraint(SupportSpec.from_banned([[3]], N), N, 1)
print(f"  enforced banned set (mirror-closed): {fc.banned()[0]}")
print(f"  constraint rows q = {fc.row_count}, effective rank = {fc.effective_rank}")
# the rows F, read off by applying the constraint to every unit impulse, are
# the real and imaginary parts of row 3 of the unitary DFT matrix
rows = fc.apply(np.eye(N)[:, None, :])
dft_row = np.fft.fft(np.eye(N), norm="ortho")[3]
print(f"  rows = Re, Im of DFT row 3: max gap "
      f"{np.max(np.abs(rows - np.array([dft_row.real, dft_row.imag]))):.1e}")

rng = np.random.default_rng(0)
u = rng.standard_normal((N, 1))
print("\nA random control violates the constraint:")
print(f"  |residual| = {np.max(np.abs(constraint_residual(fc, u))):.3f}")
print(f"  |u_hat[3]|, |u_hat[5]| = "
      f"{abs(forward_dft(u[:, 0])[3]):.3f}, {abs(forward_dft(u[:, 0])[5]):.3f}")

# project onto the constraint null space: residual and banned components vanish together
u_feasible = u - (rows.T @ np.linalg.solve(rows @ rows.T, fc.apply(u)))[:, None]
comp = forward_dft(u_feasible[:, 0])
print("After projecting onto the feasible subspace:")
print(f"  |residual| = {np.max(np.abs(constraint_residual(fc, u_feasible))):.2e}")
print(f"  |u_hat[3]|, |u_hat[5]| = {abs(comp[3]):.2e}, {abs(comp[5]):.2e}")

print("\nTime-frequency uncertainty diagnostic (bound 2*sqrt(N)):")
for report in uncertainty_check(u_feasible):
    print(
        f"  channel {report.channel}: |supp(u)| + |supp(u_hat)| = "
        f"{report.time_support} + {report.freq_support} >= {report.lower_bound:.2f}"
        f" -> satisfied = {report.satisfied}"
    )
