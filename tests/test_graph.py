import random

import networkx as nx
import pytest

from nzflow import (
    MultiGraph,
    basic_checks,
    edge_cut,
    pair_cut,
    trace_circuit,
)
from nzflow.catalog import k4, k33, petersen


def test_multigraph_rejects_loops_and_bad_ids():
    with pytest.raises(ValueError, match="loops"):
        MultiGraph(2, [(0, 0)])
    with pytest.raises(ValueError, match="out of range"):
        MultiGraph(2, [(0, 5)])


def test_multigraph_allows_parallel_edges():
    g = MultiGraph(2, [(0, 1), (0, 1)])
    assert g.m == 2
    assert g.degree(0) == 2
    assert [eid for eid, _ in g.incident(0)] == [0, 1]


def test_incidence_is_every_vertex_incident_pairs_read_only():
    for g in (k4(), petersen(), MultiGraph(3, [(0, 1), (0, 1), (1, 2)])):
        assert g.incidence == tuple(g.incident(v) for v in range(g.n))
        assert all(g.incidence[v] is g.incident(v) for v in range(g.n))
        with pytest.raises(AttributeError):
            g.incidence = ()


def test_degree_sum_is_twice_edge_count():
    for g in (k4(), k33(), petersen(), MultiGraph(3, [(0, 1), (0, 1), (1, 2)])):
        assert sum(g.degrees()) == 2 * g.m


def test_json_round_trip():
    g = petersen()
    assert MultiGraph.from_json(g.to_json()).edges == g.edges


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 2, "edges": [[0]]},
        {"n": 2, "edges": [[0, 1, 1]]},
        {"n": 2, "edges": [[0, None]]},
        {"n": 2, "edges": 5},
        {"n": "2", "edges": []},
        {"n": 2.0, "edges": []},
        # as large as graph6 refuses; the check runs before any allocation
        {"n": 2**18, "edges": []},
    ],
)
def test_from_json_raises_only_value_error(doc):
    with pytest.raises(ValueError):
        MultiGraph.from_json(doc)


def test_edge_cut_whole_vertex_set_is_empty():
    g = k4()
    assert edge_cut(g, range(4)).edges == frozenset()


def test_edge_cut_single_vertex_of_cubic_graph():
    g = petersen()
    for v in range(g.n):
        assert len(edge_cut(g, [v]).edges) == 3


def test_edge_cut_petersen_outer_cycle():
    g = petersen()
    cut = edge_cut(g, range(5))
    assert len(cut.edges) == 5
    # exactly the five spokes
    assert {tuple(sorted(g.endpoints(e))) for e in cut.edges} == {
        (v, v + 5) for v in range(5)
    }


def test_edge_cut_symmetric_in_complement():
    g = petersen()
    for s in ([0], [0, 1, 2], [1, 3, 5, 7]):
        comp = [v for v in range(g.n) if v not in s]
        assert edge_cut(g, s).edges == edge_cut(g, comp).edges


def test_edge_cut_rejects_bad_vertex():
    with pytest.raises(ValueError):
        edge_cut(k4(), [0, 9])


def test_pair_cut_empty_and_complete_bipartite():
    g = k33()
    assert pair_cut(g, [0, 1], []) == frozenset()
    assert len(pair_cut(g, [0, 1, 2], [3, 4, 5])) == 9


def test_pair_cut_petersen_spokes():
    g = petersen()
    spokes = pair_cut(g, range(5), range(5, 10))
    assert len(spokes) == 5


def test_pair_cut_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        pair_cut(k4(), [0, 1], [1, 2])


def test_pair_cut_subset_of_both_cuts():
    g = petersen()
    u, w = [0, 1, 2], [5, 6]
    pc = pair_cut(g, u, w)
    assert pc <= edge_cut(g, u).edges
    assert pc <= edge_cut(g, w).edges


def test_basic_checks_k4():
    chk = basic_checks(k4())
    assert chk.is_cubic and chk.is_connected and chk.is_bridgeless
    assert chk.components == ((0, 1, 2, 3),)


def test_basic_checks_two_disjoint_k4():
    base = k4()
    edges = list(base.edges) + [(u + 4, v + 4) for (u, v) in base.edges]
    g = MultiGraph(8, edges)
    chk = basic_checks(g)
    assert not chk.is_connected
    assert len(chk.components) == 2


def test_basic_checks_bridge_fixture():
    # two K4-minus-an-edge blocks joined by a single edge
    block = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]  # K4 minus (0,3)
    edges = block + [(u + 4, v + 4) for (u, v) in block] + [(0, 4)]
    g = MultiGraph(8, edges)
    chk = basic_checks(g)
    assert chk.is_connected
    assert not chk.is_bridgeless
    bridge = next(iter(chk.bridges))
    assert g.endpoints(bridge) == (0, 4)
    # removing the bridge really disconnects: brute confirmation
    sides = edge_cut(g, [0, 1, 2, 3])
    assert sides.edges == {bridge}


def test_basic_checks_parallel_edges_are_not_bridges():
    g = MultiGraph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 1)])
    chk = basic_checks(g)
    assert chk.is_bridgeless


def test_basic_checks_match_networkx_on_random_multigraphs():
    # an edge is a bridge when deleting that one edge id adds a component;
    # the graphs have parallel edges, isolated vertices, several components
    # and pendant paths
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(0, 13)
        edges = []
        for _ in range(rng.randrange(0, 2 * n + 1) if n >= 2 else 0):
            u, v = rng.sample(range(n), 2)
            edges.append((u, v))
            if rng.random() < 0.2:
                edges.append((v, u))  # a parallel copy
        for _ in range(rng.randrange(0, 3) if n else 0):
            tip = rng.randrange(n)
            for _ in range(rng.randrange(1, 5)):  # a pendant path from tip
                edges.append((tip, n))
                tip, n = n, n + 1
        g = MultiGraph(n, edges)
        h = nx.MultiGraph()
        h.add_nodes_from(range(n))
        h.add_edges_from((u, v, eid) for eid, (u, v) in enumerate(edges))
        expected = sorted(tuple(sorted(c)) for c in nx.connected_components(h))
        bridges = set()
        for eid, (u, v) in enumerate(edges):
            h.remove_edge(u, v, key=eid)
            if not nx.has_path(h, u, v):
                bridges.add(eid)
            h.add_edge(u, v, key=eid)
        # nx.bridges takes simple graphs: a bridge there is one of g unless
        # its pair carries a parallel copy
        pairs = [frozenset(e) for e in edges]
        simple = {frozenset(e) for e in nx.bridges(nx.Graph(h))}
        assert bridges == {e for e, p in enumerate(pairs) if p in simple and pairs.count(p) == 1}
        chk = basic_checks(g)
        assert chk.components == tuple(expected), edges
        assert chk.bridges == bridges, edges
        assert chk.is_connected == (len(expected) <= 1)
        assert chk.is_bridgeless == (not bridges)
        assert chk.is_cubic == all(d == 3 for _, d in h.degree())


def test_trace_circuit_canonical_start():
    g = k4()
    cycle_edges = [e for e, (u, v) in enumerate(g.edges) if {u, v} != {0, 3} and {u, v} != {1, 2}]
    vertices, edges, tails = trace_circuit(g, cycle_edges)
    assert vertices[0] == 0
    assert tails[0] == 0
    assert len(edges) == 4
    # moves toward the smaller neighbor first
    assert vertices[1] == min(v for v in vertices[1:])


def test_trace_circuit_rejects_non_circuit():
    g = k4()
    with pytest.raises(ValueError):
        trace_circuit(g, [0, 1])
