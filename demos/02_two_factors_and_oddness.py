"""2-factors of cubic graphs and the oddness invariant.

Run: python3 demos/02_two_factors_and_oddness.py
"""

from nzflow import compute_oddness, enumerate_two_factors
from nzflow.catalog import blanusa_snarks, flower_snark, k4, oddness4_snark, petersen

print("== every 2-factor of the Petersen graph ==")
for i, tf in enumerate(enumerate_two_factors(petersen())):
    lengths = sorted(len(c) for c in tf.circuits)
    print(f"  matching {sorted(tf.matching)} -> circuit lengths {lengths}")

print("\n== oddness: how far from 3-edge-colorable ==")
for name, g in [
    ("K4", k4()),
    ("Petersen", petersen()),
    ("Blanusa (first)", blanusa_snarks()[0]),
    ("flower snark J5", flower_snark(5)),
    ("flower snark J17", flower_snark(17)),
    ("four-block snark", oddness4_snark()),
]:
    res = compute_oddness(g)
    lengths = sorted(len(c) for c in res.witness.circuits)
    print(f"  {name:18s} n={g.n:3d}  oddness={res.oddness}  witness circuits {lengths}")
