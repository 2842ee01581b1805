"""Catalog tests: pinned graphs, and the canonical form against VF2."""

import hashlib
import json
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

from helpers import isomorphic, shuffled

from nzflow import MultiGraph
from nzflow.catalog import (
    blanusa_snarks,
    canonical_form,
    dot_product,
    flower_snark,
    k33,
    oddness4_snark,
    petersen,
    prism,
)
from nzflow.structure import enumerate_two_factors

# digests of the graphs as networkx VF2 deduplicated them
CORPUS_SHA256 = "4704c4885a3a311c7dfe274cc33671537e20527ddc8105a8aa367f3e559c8e98"
BLANUSA_SHA256 = "a73578d842c3c0589c6c2bb83640b135817fad2ddbc7ba64e10ab354f42f4efb"


def _sha256(obj, **kw) -> str:
    return hashlib.sha256(json.dumps(obj, **kw).encode()).hexdigest()


def test_corpus_matches_pinned_digest(corpus):
    records = [[name, g.n, g.edges] for name, g in corpus]
    assert len(records) == 109
    assert _sha256(records, separators=(",", ":")) == CORPUS_SHA256


def test_blanusa_snarks_match_pinned_digest():
    assert _sha256([g.edges for g in blanusa_snarks()]) == BLANUSA_SHA256
    # each 2-factor is the complement of one perfect matching
    counts = [sum(1 for _ in enumerate_two_factors(g)) for g in blanusa_snarks()]
    assert counts == [19, 20]


def test_canonical_form_ignores_labels(corpus):
    rng = random.Random(8)
    graphs = [g for _, g in corpus]
    graphs += [*blanusa_snarks(), flower_snark(5), oddness4_snark()]
    for g in graphs:
        assert canonical_form(shuffled(g, rng)) == canonical_form(g)


def test_canonical_form_prunes_by_automorphisms():
    # without pruning every automorphism costs a leaf: prism(40) has 160
    # and three disjoint copies of K3,3 have 72**3 * 6
    three_k33 = MultiGraph(
        18, [(a + 6 * c, b + 6 * c) for c in range(3) for a, b in k33().edges]
    )
    for g in (prism(40), three_k33):
        started = time.perf_counter()
        form = canonical_form(g)
        assert time.perf_counter() - started < 1.0
        assert form == canonical_form(shuffled(g, random.Random(2)))


def _dot_product_candidates() -> list[MultiGraph]:
    """16 Petersen dot products, among them the two of ``blanusa_snarks``:
    the second removed edge over the first four edges independent of edge
    {0, 1}, each with all four reconnections."""
    p = petersen()
    e1 = next(e for e, (u, v) in enumerate(p.edges) if {u, v} == {0, 1})
    second = [e for e, (u, v) in enumerate(p.edges) if not {u, v} & {0, 1}][:4]
    return [
        dot_product(p, p, (e1, e2), 0, sw1, sw2)
        for e2 in second
        for sw1 in (False, True)
        for sw2 in (False, True)
    ]


def test_canonical_form_agrees_with_vf2_on_dot_products():
    graphs = _dot_product_candidates()
    forms = [canonical_form(g) for g in graphs]
    for i, j in combinations(range(len(graphs)), 2):
        assert (forms[i] == forms[j]) == isomorphic(graphs[i], graphs[j]), (i, j)
    # both Blanusa snarks occur, and some equal forms come from distinct
    # edge lists
    assert len(set(forms)) == 2
    assert len({g.edges for g in graphs}) > 2
    assert {canonical_form(g) for g in blanusa_snarks()} == set(forms)


def test_runtime_imports_neither_numpy_nor_networkx():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import nzflow, nzflow.cli, nzflow.catalog; nzflow.catalog.corpus(); "
        "print(sorted({'numpy', 'networkx'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(src)],
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"
