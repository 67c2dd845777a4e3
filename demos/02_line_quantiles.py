"""Measures on the line: quantile calculus, transport distance, barycenters.

The measure class (atoms + piecewise-constant densities) is closed under
quantile averaging, which makes every computation here exact: the quadratic
transport distance is the L2 distance of quantile functions, and the
barycenter's quantile is their weighted average.
"""

import math

from mgbary import (
    barycenter_line,
    cdf_eval,
    dispersion,
    line_measure,
    measure_from_quantile,
    quantile,
    support_bounds,
    w2_line,
    w2_line_squared,
)

uniform01 = line_measure(pieces=[(0.0, 1.0, 1.0)])
dirac0 = line_measure(atoms=[(0.0, 1.0)])
mix = line_measure(atoms=[(0.0, 0.5)], pieces=[(0.0, 1.0, 0.5)])

print("CDF of the atom/density mix at 0.5:", cdf_eval(mix, 0.5))
print("support of the mix:", support_bounds(mix))

# Quantile functions are piecewise linear: flats are atoms, ramps are
# densities, jumps are support gaps. They round-trip with the measure.
q = quantile(mix)
breakpoints = tuple((t0, v0, (v1 - v0) / (t1 - t0)) for t0, t1, v0, v1 in q.segments)
print("quantile breakpoints (t, value, right-slope):", breakpoints)
print("round-trip equals the original:", measure_from_quantile(q).isclose(mix))

# Distance examples with known closed forms.
print("\nW2(uniform[0,1], shifted uniform[1,2]) =", w2_line(uniform01, line_measure(pieces=[(1.0, 2.0, 1.0)])))
print("W2(uniform[0,1], point mass at 0) =", w2_line(uniform01, dirac0), "=", math.sqrt(1 / 3))

# The barycenter of two disjoint uniforms is the uniform in the middle, and
# its objective value equals the integrated quantile variance.
problem = [(0.5, uniform01), (0.5, line_measure(pieces=[(2.0, 3.0, 1.0)]))]
center = barycenter_line(problem)
print("\nbarycenter of uniform[0,1] and uniform[2,3]:", center.pieces)
objective = sum(lam * w2_line_squared(center, m) for lam, m in problem)
print("objective at the barycenter:", objective)
print("dispersion of the family:   ", dispersion(problem))

# Averaging with a point mass halves the spread instead of adding an atom:
# one strictly increasing quantile keeps the average strictly increasing.
halved = barycenter_line([(0.5, dirac0), (0.5, uniform01)])
print("\nbarycenter of a Dirac and uniform[0,1]:", halved.pieces, "atoms:", halved.atoms)
