"""Worst-case fuel (1-norm) and energy (2-norm) of a state transfer.

For a fixed dropout pattern the cheapest input reaching a target is a
small convex problem: a linear program for fuel, a least-norm solve for
energy, and for the weighted mix a Newton solve of its dual polished on
the support it suggests.  Fuel and the mix are certified by a residual,
a dual point and a gap.  The worst pattern is found on the minimal signals.
"""

import numpy as np

from dropctrl import (
    Signal,
    controllability_matrix,
    min_energy,
    min_fuel,
    min_fuel_energy,
    SwitchedLinearSystem,
    worst_energy,
    worst_fuel,
    worst_fuel_energy,
)

# the scalar doubling plant makes the trade-offs easy to read
sys = SwitchedLinearSystem([[2.0]], [[1.0]], [[1.0]])
xf = [1.0]

print("per-signal input design, T=4, target x(4) = 1:")
for word in ("1111", "0101", "0110", "1010"):
    C = controllability_matrix(sys, Signal(word))
    fuel = min_fuel(C, xf)
    energy = min_energy(C, xf)
    both = min_fuel_energy(C, xf, 1.0, 1.0)
    print(f"  {word}: fuel {fuel.value:.4f} (gap {fuel.duality_gap:.1e}), "
          f"energy {energy.value:.4f}, 1:1 mix {both.value:.4f} (gap {both.duality_gap:.1e})")

for name, rep in (
    ("fuel", worst_fuel(sys, 1, 4, xf)),
    ("energy", worst_energy(sys, 1, 4, xf)),
    ("fuel+energy", worst_fuel_energy(sys, 1, 4, xf, 1.0, 1.0)),
):
    print(f"worst {name}: {rep.worst_value:.6f} at {rep.argmax_signal}")

# a bound on every input entry can push a pattern into infeasibility
bounded = min_fuel(controllability_matrix(sys, Signal("0101")), xf, input_bound=0.15)
print("\nfuel with |u_i| <= 0.15 on 0101:", bounded.status)
bounded = min_fuel(controllability_matrix(sys, Signal("0101")), xf, input_bound=0.5)
print("fuel with |u_i| <= 0.50 on 0101:", bounded.status, f"value {bounded.value:.4f}")
