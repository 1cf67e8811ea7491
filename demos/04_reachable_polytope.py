"""Unit-energy reachable sets under dropouts, and polytope containment.

With at most unit input energy, the reachable set at horizon T is the
ellipsoid of the signal's reachability Gramian.  Dropping packets only
shrinks the ellipsoid, so a polytope is reachable under every admissible
pattern exactly when its vertices pass the quadratic-form test against
every minimal signal.
"""

import numpy as np

from dropctrl import (
    Automaton,
    Polytope,
    SwitchedLinearSystem,
    build_k_constraint_automaton,
    controllability_matrix,
    minimal_admissible,
    polytope_reachable,
)

sys = SwitchedLinearSystem(np.eye(2), np.eye(2), np.eye(2))
T = 3

print("Gramians for the k=1 minimal signals (identity plant):")
for s in minimal_admissible(build_k_constraint_automaton(1), T):
    C = controllability_matrix(sys, s)
    W = C @ C.T
    print(f"  {s}: W = diag({W[0,0]:.0f}, {W[1,1]:.0f})")

square = Polytope(0.7 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float))
ok, rep = polytope_reachable(sys, 1, T, square)
print(f"\n0.7-square reachable under every k=1 pattern? {ok} "
      f"(worst quadratic form {rep.worst_value:.3f} at {rep.argmax_signal})")

big = Polytope(1.1 * np.array([[1.0, 0.0], [0.0, 1.0]]))
ok, rep = polytope_reachable(sys, 1, T, big)
print(f"1.1-cross reachable? {ok} (worst form {rep.worst_value:.3f})")

# scanning every k=1 pattern, not only the minimal ones, gives the same verdict
ok, rep = polytope_reachable(sys, 1, T, big, mode="exhaustive")
print(f"exhaustive scan agrees: {ok}")

# without dropouts (a channel that admits only 111) the same vertices fit easily
lossless = Automaton([0], [(0, 0, "1")], [0])
ok, rep = polytope_reachable(sys, lossless, T, big)
print(f"1.1-cross reachable without dropouts? {ok} (worst form {rep.worst_value:.3f})")

# an uncontrollable direction makes any off-axis vertex unreachable
skewed = SwitchedLinearSystem(np.eye(2), np.array([[1.0], [0.0]]), np.eye(2))
ok, rep = polytope_reachable(skewed, 1, T, Polytope(np.array([[0.0, 0.3]])))
print(f"vertex outside the Gramian range: reachable={ok}, "
      f"worst form={rep.worst_value}")
