"""Regenerate ``data/fixed.json``: the two fixed-catalog workloads.

Run from the repository root:  python3 perfbench/make_data.py

The graphs come from ``nzflow.catalog`` (generating the corpus takes tens of
seconds of networkx isomorphism tests, which is why it is stored).  Expected
values come from :mod:`oracle` for the corpus and from the literature for
the snarks; the literature values are re-checked by the oracles wherever an
exhaustive check takes seconds rather than hours.
"""

from __future__ import annotations

import json
import os
import sys
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from nzflow import catalog  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402

# (oddness, cyclic edge-connectivity).  Snarks have oddness >= 2; Blanusa
# snarks and flower snarks have oddness exactly 2.  Blanusa snarks are
# cyclically 4-edge-connected, J5 cyclically 5-edge-connected and J_k for
# k >= 7 cyclically 6-edge-connected.  The 36-vertex snark has four
# Petersen-minus-a-vertex blocks, each cut off by 3 edges, and oddness 4.
SNARKS = {
    "blanusa-1": (2, 4),
    "blanusa-2": (2, 4),
    "flower-J5": (2, 5),
    "flower-J7": (2, 6),
    "flower-J9": (2, 6),
    "oddness4-36": (4, 3),
}
EXHAUSTIVE_LIMIT = 2_000_000  # edge subsets the cyclic cross-check may try


def _snark_graphs():
    b1, b2 = catalog.blanusa_snarks()
    return [
        ("blanusa-1", b1),
        ("blanusa-2", b2),
        ("flower-J5", catalog.flower_snark(5)),
        ("flower-J7", catalog.flower_snark(7)),
        ("flower-J9", catalog.flower_snark(9)),
        ("oddness4-36", catalog.oddness4_snark()),
    ]


def _checked_snark(name, g) -> dict:
    odd, cyc = SNARKS[name]
    edges = list(g.edges)
    if oracle.oddness_by_matchings(g.n, edges) != odd:
        raise SystemExit(f"{name}: oddness disagrees with the literature")
    # largest cut size whose exhaustive check stays within the limit
    size = max(
        s for s in range(cyc + 1)
        if sum(comb(len(edges), t) for t in range(1, s + 1)) <= EXHAUSTIVE_LIMIT
    )
    found = oracle.cyclic_by_edge_subsets(g.n, edges, size)
    if found != (cyc if size == cyc else None):
        raise SystemExit(f"{name}: cyclic connectivity disagrees")
    return workloads.record(name, g.n, edges, odd, cyc)


def main() -> None:
    corpus = [
        workloads.record(
            name,
            g.n,
            g.edges,
            oracle.oddness(g.n, list(g.edges)),
            oracle.cyclic_by_vertex_subsets(g.n, list(g.edges)),
        )
        for name, g in catalog.corpus()
    ]
    snarks = [_checked_snark(name, g) for name, g in _snark_graphs()]
    flowers = [
        # flower snarks have oddness 2; these are too large to re-check
        workloads.record(f"flower-J{k}", 4 * k, catalog.flower_snark(k).edges, 2, None)
        for k in (11, 13, 15, 17)
    ]
    data = {"snark-corpus": corpus + snarks, "flower-oddness": flowers}
    with open(workloads.FIXED_DATA, "w", encoding="ascii") as fh:
        json.dump(data, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {len(corpus) + len(snarks)} + {len(flowers)} records")


if __name__ == "__main__":
    main()
