"""Stability of an abelian gauged model is a cone question: the vector

    sigma = tau Vol(M) - (2 pi m / e^2) slope_vol

must be a strictly positive combination of the weights supporting the
section.  The engine decides this with an exact simplex: rational
tableau, Q[pi] right-hand side, Bland's rule.

Run:  python demos/02_stability_cones.py
"""

from fractions import Fraction

from vortexmoduli import (
    WeightSystem,
    check_C1,
    check_C2,
    constant_sigma,
    in_cone_closed,
    in_cone_interior,
    minimal_support,
    sigma_vector,
    stability_threshold,
)

# A rank-2 torus acting on C^3 with charges (1,0), (0,1), (1,1).
ws = WeightSystem.from_rows([[1, 0, 1], [0, 1, 1]])
level = constant_sigma([2, 3])

print("weights columns:", [ws.column(j) for j in range(1, 4)])
print("(2,3) in closed cone:         ", in_cone_closed(ws, ws.full_set(), level))
print("(2,3) interior (full support):", in_cone_interior(ws, ws.full_set(), level))
print("(1,0) interior (full support):", in_cone_interior(ws, ws.full_set(), constant_sigma([1, 0])))
print("genericity (C1):", check_C1(ws, level), "  lattice condition (C2):", check_C2(ws))
print("minimal support of (2,3):", sorted(minimal_support(ws, level)))

# A degree-1 bundle on the projective line: sigma = tau - 2 pi / e^2.
sigma = sigma_vector([2], Fraction(100), 1, 1, [1])
print("\nline, tau=2, e^2=100: sigma =", sigma[0], "->",
      "stable" if in_cone_interior(WeightSystem.from_rows([[1]]), {1}, sigma) else "unstable")

# The coupling threshold below which stability holds, exactly.
threshold = stability_threshold(WeightSystem.from_rows([[1]]), [1], 1, 1, [1], {1})
print("threshold for tau=1, slope=1:", threshold.describe())
