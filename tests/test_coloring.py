import pytest

from nzflow import (
    canonical_coloring,
    compute_oddness,
    cut_color_profile,
    edge_cut,
    enumerate_two_factors,
    two_factor_from_matching,
)
from nzflow.catalog import k4, k33, petersen, triangle_ring


def ring_two_factor():
    """The 4-triangle 2-factor of the triangle ring fixture."""
    g = triangle_ring(4)
    triangles = {
        e
        for e, (u, v) in enumerate(g.edges)
        if u // 3 == v // 3
    }
    matching = frozenset(range(g.m)) - triangles
    return g, two_factor_from_matching(g, matching)


def check_coloring_invariants(g, tf, c):
    # matching edges all color 1
    assert all(c.colors[e] == 1 for e in tf.matching)
    # circuits: even ones alternate 2/3, odd ones have exactly one 0
    for circ in tf.circuits:
        cols = [c.colors[e] for e in circ]
        if len(circ) % 2 == 0:
            assert set(cols) == {2, 3} if len(circ) else True
            assert all(cols[i] != cols[(i + 1) % len(cols)] for i in range(len(cols)))
        else:
            assert cols.count(0) == 1
    # proper on colors 1..3; color 0 never adjacent to color 0 is not required
    for v in range(g.n):
        seen = [c.colors[e] for e, _ in g.incident(v)]
        nonzero = [x for x in seen if x != 0]
        assert len(nonzero) == len(set(nonzero))
    # missing-2 vertices are exactly those with no incident color 2
    missing = {
        v
        for v in range(g.n)
        if all(c.colors[e] != 2 for e, _ in g.incident(v))
    }
    assert set(c.missing2) == missing
    assert len(c.missing2) == tf.odd_count
    # one missing-2 vertex per odd circuit
    for circ in tf.circuits:
        on = set()
        for e in circ:
            on.update(g.endpoints(e))
        inside = missing & on
        assert len(inside) == (1 if len(circ) % 2 else 0)
    # paths: odd length, alternate colors 1/2, join consecutive missing2 pairs
    for i, path in enumerate(c.paths):
        assert len(path) % 2 == 1
        cols = [c.colors[e] for e in path]
        assert cols[0] == 1 and cols[-1] == 1
        assert all(cols[j] != cols[j + 1] for j in range(len(cols) - 1))
        assert set(cols) <= {1, 2}
        ends = {c.missing2[2 * i], c.missing2[2 * i + 1]}
        first, last = path[0], path[-1]
        touched = set(g.endpoints(first)) | set(g.endpoints(last))
        assert ends <= touched


def test_all_even_two_factor_has_no_zero_edges():
    g = k4()
    tf = next(iter(enumerate_two_factors(g)))
    c = canonical_coloring(g, tf)
    check_coloring_invariants(g, tf, c)
    assert 0 not in c.colors
    assert c.missing2 == ()
    assert c.paths == ()


def test_petersen_witness_coloring():
    g = petersen()
    tf = compute_oddness(g).witness
    c = canonical_coloring(g, tf)
    check_coloring_invariants(g, tf, c)
    assert sum(1 for x in c.colors if x == 0) == 2
    assert len(c.missing2) == 2
    assert len(c.paths) == 1


def test_four_odd_circuits_give_four_missing_and_two_paths():
    g, tf = ring_two_factor()
    assert tf.odd_count == 4
    c = canonical_coloring(g, tf)
    check_coloring_invariants(g, tf, c)
    assert len(c.missing2) == 4
    assert len(c.paths) == 2


def test_coloring_deterministic():
    g = petersen()
    tf = compute_oddness(g).witness
    assert canonical_coloring(g, tf) == canonical_coloring(g, tf)


def test_coloring_all_corpus_two_factors(corpus):
    for name, g in corpus:
        if g.n > 10:
            continue
        for tf in enumerate_two_factors(g):
            c = canonical_coloring(g, tf)
            check_coloring_invariants(g, tf, c)


def test_color12_components_shapes():
    g = k33()
    tf = next(iter(enumerate_two_factors(g)))
    c = canonical_coloring(g, tf)
    circuits, paths = c.circuits, c.paths
    assert paths == ()
    assert all(len(circ) % 2 == 0 for circ in circuits)
    covered = set()
    for circ in circuits:
        for e in circ:
            covered.update(g.endpoints(e))
    assert covered == set(range(g.n))

    g = petersen()
    c = canonical_coloring(g, compute_oddness(g).witness)
    circuits, paths = c.circuits, c.paths
    assert len(paths) == 1
    assert all(len(circ) % 2 == 0 for circ in circuits)
    # every component edge set is exactly the color-{1,2} subgraph
    h_edges = {e for e in range(g.m) if c.colors[e] in (1, 2)}
    assert set().union(*[set(x) for x in circuits + paths]) == h_edges


def test_cut_color_profile():
    g = petersen()
    c = canonical_coloring(g, compute_oddness(g).witness)
    assert cut_color_profile(c, frozenset()) == (0, 0, 0, 0)
    for v in range(g.n):
        profile = cut_color_profile(c, edge_cut(g, [v]))
        assert sum(profile) == 3
        if v not in c.missing2:
            assert profile[1] == 1 and profile[2] == 1
        else:
            assert profile[1] == 1 and profile[2] == 0
    full = cut_color_profile(c, frozenset(range(g.m)))
    assert sum(full) == g.m


def test_inconsistent_two_factor_rejected():
    g = petersen()
    tf = compute_oddness(g).witness
    other = next(iter(enumerate_two_factors(k4())))
    with pytest.raises(ValueError):
        canonical_coloring(g, other)


def _with_circuit(tf, index, circuit):
    circuits = list(tf.circuits)
    circuits[index] = circuit
    return tf._replace(circuits=tuple(circuits))


def _witness(g):
    return g, compute_oddness(g).witness


@pytest.mark.parametrize(
    "make",
    [lambda: _witness(petersen()), lambda: _witness(k33()), ring_two_factor],
    ids=["petersen", "k33", "triangle-ring"],
)
def test_coloring_rejects_circuits_out_of_canonical_order(make):
    # later stages read tails off the stored order instead of re-tracing,
    # so a rotated or reversed circuit is an error, not re-canonicalised
    g, tf = make()
    canonical_coloring(g, tf)
    for i, circ in enumerate(tf.circuits):
        for bad in (circ[1:] + circ[:1], circ[::-1]):
            with pytest.raises(ValueError, match="canonical order|closed walk"):
                canonical_coloring(g, _with_circuit(tf, i, bad))


def test_coloring_rejects_a_circuit_that_does_not_close():
    g = petersen()
    tf = compute_oddness(g).witness
    circ = tf.circuits[0]
    with pytest.raises(ValueError, match="closed walk"):
        canonical_coloring(g, _with_circuit(tf, 0, circ[:-1]))
    # an edge of another circuit in place of the last one
    other = tf.circuits[1][0]
    with pytest.raises(ValueError, match="closed walk"):
        canonical_coloring(g, _with_circuit(tf, 0, circ[:-1] + (other,)))


def test_coloring_rejects_a_matching_side_that_is_not_perfect():
    # the cover count reads each matching edge's ends off the edge array;
    # the error keeps its message
    g, tf = _witness(petersen())
    a, b = sorted(tf.matching)[:2]
    c = next(e for e in sorted(tf.factor) if set(g.edges[e]) & set(g.edges[a]))
    # swap a matching edge with an adjacent 2-factor edge: still a partition
    bad = tf._replace(matching=tf.matching - {a} | {c}, factor=tf.factor - {c} | {a})
    with pytest.raises(ValueError, match="^matching side is not a perfect matching$"):
        canonical_coloring(g, bad)
    with pytest.raises(ValueError, match="^two-factor does not partition the edge set$"):
        canonical_coloring(g, tf._replace(matching=tf.matching - {b}))
