#!/usr/bin/env python3
"""When do frequency constraints break the usual normality of LQ transfers?

For the fixed-endpoint LQ transfer, an abnormal lift (cost multiplier zero)
exists exactly when some nonzero (lambda, nu) has R_stack lambda = G nu, where
R_stack stacks B'(A')^k and G stacks the transposed frequency blocks: when
R_stack is rank deficient, or its range meets the range of G.  Counting rows
already settles one direction: with q + n > m*N every feasible trajectory is
abnormal.  Otherwise the classifier measures the principal angles between the
two ranges with orthonormal bases; the smallest sine is the verdict's margin,
and a zero angle (margin at rounding level) means an abnormal lift exists.
Because the bases are built from orthonormal factors, the verdict does not
change when A^N grows huge.  The classic test without frequency constraints
is the case q = 0: there are no angles, n > m*N is all abnormal, and
otherwise the transfer is normal when the horizon reaches every state.
"""

import numpy as np

from bandctrl import (
    FrequencyConstraint,
    SupportSpec,
    build_frequency_constraint,
    classify_normality_classic,
    classify_normality_freq,
)

print("Classic transfers (no frequency constraints, the q = 0 case):")
cases = [
    ("double integrator, N = 6", [[1.0, 1.0], [0.0, 1.0]], [[0.0], [1.0]], 6),
    ("uncontrollable pair, N = 5", np.eye(2), [[1.0], [0.0]], 5),
    ("N = 2 < n = 3, but m*N >= n", np.eye(3), np.eye(3), 2),
    ("triple integrator, n > m*N", np.eye(3, k=1) + np.eye(3), [[0.0], [0.0], [1.0]], 2),
]
for name, A, B, N in cases:
    verdict = classify_normality_classic(A, B, N)
    same = verdict == classify_normality_freq(A, B, N, FrequencyConstraint(N, np.shape(B)[1]))
    print(f"  {name:30s} -> {verdict.classification.value} "
          f"(rank {verdict.rank_reachability}; frequency test with q = 0 agrees: {same})")

print("\nScalar integrator with growing banned sets, N = 4 (m*N = 4):")
for banned in ([], [2], [1], [1, 2], [0, 1, 2]):
    fc = build_frequency_constraint(SupportSpec.from_banned([banned], 4), 4, 1)
    verdict = classify_normality_freq([[1.0]], [[1.0]], 4, fc)
    n, _, _, q = verdict.dims
    print(f"  ban {str(banned):12s} -> q = {q}, q + n = {q + n} vs m*N = 4: "
          f"{verdict.classification.value} (augmented rank {verdict.rank_augmented}, "
          f"margin {verdict.margin:.2g})")

print("\nBanning everything leaves only u = 0; with q + n > m*N the classifier")
print("reports ALL_ABNORMAL and the frequency-constrained solver refuses to run.")

print("\nA DC ban on the scalar integrator, N = 16: the constant input sequence is")
print("both reachable and banned, so the angle is zero and the lift is abnormal:")
fc = build_frequency_constraint(SupportSpec.from_banned([[0]], 16), 16, 1)
verdict = classify_normality_freq([[1.0]], [[1.0]], 16, fc)
print(f"  -> {verdict.classification.value} (margin {verdict.margin:.1e})")

print("\nThe unstable plant A = diag(1.1, 0.9), B = [1; 1], frequency 1 banned:")
for N in (64, 400, 1024, 4096):
    fc = build_frequency_constraint(SupportSpec.from_banned([[1]], N), N, 1)
    verdict = classify_normality_freq(np.diag([1.1, 0.9]), [[1.0], [1.0]], N, fc)
    print(f"  N = {N:4d} (1.1^N = {1.1 ** N:8.1e}) -> {verdict.classification.value} "
          f"(margin {verdict.margin:.3f})")
