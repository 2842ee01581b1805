"""Balanced valuations: the min-cut checker, an exhaustive loop, and the
flow correspondence.

A vertex weighting is balanced when no vertex subset's weight sum exceeds
its cut size.  For cubic graphs, a nowhere-zero 5-flow exists exactly when
some +-5/3 weighting is balanced, and the flow's orientation encodes it.

Run: python3 demos/05_balanced_valuations.py
"""

from itertools import combinations

from nzflow import (
    Valuation,
    check_balanced_mincut,
    flow_to_valuation,
    solve_nowhere_zero_flow,
    subset_margin,
    valuation_to_flow,
    verify_flow,
)
from nzflow.catalog import k4, petersen


def worst_subset(g, val):
    """The subset of largest margin over all 2**n, fewest vertices first."""
    subsets = (s for size in range(g.n + 1) for s in combinations(range(g.n), size))
    return max(subsets, key=lambda s: subset_margin(g, val, s))


print("== an unbalanced weighting ==")
allpos = Valuation(denominator=3, numerators=(5, 5, 5, 5))
rep = check_balanced_mincut(k4(), allpos)
print(f"  min-cut   : balanced={rep.balanced}, violator={rep.violator}, margin={rep.margin}")
worst = worst_subset(k4(), allpos)
print(f"  all 16 subsets: worst={worst}, margin={subset_margin(k4(), allpos, worst)}")

print("\n== valuation of a real 5-flow is balanced ==")
g = petersen()
f = solve_nowhere_zero_flow(g, 5)
val = flow_to_valuation(g, f, 5)
print(f"  numerators over 3: {val.numerators}")
print(f"  min-cut check: balanced={check_balanced_mincut(g, val).balanced}")
print(f"  largest margin over all {2**g.n} subsets: "
      f"{subset_margin(g, val, worst_subset(g, val))}")

print("\n== and the correspondence runs backwards ==")
back = valuation_to_flow(g, val, 5)
print(f"  realized flow verifies: {verify_flow(g, back) == []}")
print(f"  its induced valuation equals the input: {flow_to_valuation(g, back, 5) == val}")
