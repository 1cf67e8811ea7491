"""Quadratic-cost degradation: re-optimized vs fixed-gain control.

Two different questions about an LQR loop over a lossy channel: the
worst cost when the controller re-optimizes for each dropout pattern
(a signal-gated Riccati recursion), and the worst cost when gains
designed for the ideal loop are replayed blindly.  The first is provably
worst on a minimal signal; the second is not, so exhaustive mode is the
certified answer there.
"""

import numpy as np

from dropctrl import (
    LqrWeights,
    Signal,
    SwitchedLinearSystem,
    degraded_cost,
    lti_gains,
    riccati_backward,
    worst_fixed_input_lqr,
    worst_lqr,
)

rng = np.random.default_rng(4)
n, m, T = 3, 1, 6
A = 1.1 * rng.standard_normal((n, n))
sys = SwitchedLinearSystem(A, rng.standard_normal((n, m)), np.eye(n))
weights = LqrWeights.identity(n, m, T)
x0 = np.ones(n)

P = riccati_backward(sys, Signal.ones(T), weights)  # P(0..T), shape (T+1, n, n)
nominal = float(x0 @ P[0] @ x0)
print(f"nominal (no dropouts) optimal cost: {nominal:.4f}")

rep = worst_lqr(sys, 1, weights, x0, mode="minimal")
print(f"worst re-optimized cost over k=1 patterns: {rep.worst_value:.4f} at {rep.argmax_signal}")
print(f"  degradation factor {rep.worst_value / nominal:.2f}x")

gains = lti_gains(sys, weights)  # K(0..T-1), shape (T, m, n)
print("\nfixed ideal-loop gains replayed through the channel:")
for word in ("111111", "010101", "011011"):
    cost = degraded_cost(sys, gains, Signal(word), weights, x0)
    print(f"  {word}: {cost:.4f}")

certified = worst_fixed_input_lqr(sys, 1, weights, x0, mode="exhaustive")
heuristic = worst_fixed_input_lqr(sys, 1, weights, x0, mode="minimal")
print(f"\nworst fixed-gain cost, exhaustive: {certified.worst_value:.4f} at {certified.argmax_signal}")
print(f"worst fixed-gain cost, minimal-only: {heuristic.worst_value:.4f} "
      f"(heuristic; report carries a warning: {bool(heuristic.info.get('warning'))})")
