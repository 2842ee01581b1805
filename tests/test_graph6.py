"""Codec tests, cross-checked against networkx as the reference codec."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from helpers import bit_stream_graph6_edges, to_networkx

from nzflow import Graph6Error, MultiGraph, parse_graph6, serialize_graph6
from nzflow.catalog import _moebius_ladder, generalized_petersen, k4, petersen


def test_k4_is_c_tilde():
    g = parse_graph6("C~")
    assert g.n == 4 and g.m == 6
    assert serialize_graph6(g) == "C~"


def test_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.m == 0


def test_empty_graph_zero_vertices():
    g = parse_graph6("?")
    assert g.n == 0 and g.m == 0


def test_header_is_stripped():
    assert parse_graph6(">>graph6<<C~").m == 6


def test_illegal_character_reports_offset():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C" + chr(30))
    assert err.value.offset == 1


def test_truncated_record():
    # K4 needs one data byte after the size; give none
    with pytest.raises(Graph6Error, match="truncated"):
        parse_graph6("C")


def test_trailing_data_rejected():
    with pytest.raises(Graph6Error, match="trailing"):
        parse_graph6("C~~")


def test_incremental_sparse6_unsupported():
    with pytest.raises(Graph6Error, match="incremental"):
        parse_graph6(";C~")


def test_matches_networkx_on_named_graphs():
    for g in (k4(), petersen()):
        ours = serialize_graph6(g)
        theirs = nx.to_graph6_bytes(
            nx.Graph(to_networkx(g)), header=False
        ).decode().strip()
        assert ours == theirs
        back = parse_graph6(theirs)
        assert sorted(map(tuple, map(sorted, back.edges))) == sorted(
            map(tuple, map(sorted, g.edges))
        )


def test_sparse6_round_trip_via_networkx():
    g = petersen()
    rec = nx.to_sparse6_bytes(nx.Graph(to_networkx(g)), header=False).decode().strip()
    back = parse_graph6(rec)
    assert back.n == g.n
    assert sorted(map(tuple, map(sorted, back.edges))) == sorted(
        map(tuple, map(sorted, g.edges))
    )


def test_sparse6_multigraph():
    h = nx.MultiGraph()
    h.add_nodes_from(range(3))
    h.add_edges_from([(0, 1), (0, 1), (1, 2)])
    rec = nx.to_sparse6_bytes(h, header=False).decode().strip()
    g = parse_graph6(rec)
    assert g.n == 3 and g.m == 3
    pairs = sorted(tuple(sorted(e)) for e in g.edges)
    assert pairs == [(0, 1), (0, 1), (1, 2)]


def test_sparse6_loop_rejected():
    h = nx.MultiGraph()
    h.add_nodes_from(range(2))
    h.add_edge(0, 0)
    rec = nx.to_sparse6_bytes(h, header=False).decode().strip()
    with pytest.raises(Graph6Error, match="loop"):
        parse_graph6(rec)


def test_serialize_rejects_parallel_edges():
    with pytest.raises(ValueError, match="parallel"):
        serialize_graph6(MultiGraph(2, [(0, 1), (0, 1)]))


@st.composite
def random_simple_graph(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return MultiGraph(n, [p for p, keep in zip(pairs, mask) if keep])


@settings(max_examples=60, deadline=None)
@given(random_simple_graph())
def test_round_trip_and_networkx_equivalence(g):
    rec = serialize_graph6(g)
    back = parse_graph6(rec)
    assert back.n == g.n
    assert sorted(map(tuple, map(sorted, back.edges))) == sorted(
        map(tuple, map(sorted, g.edges))
    )
    nx_rec = nx.to_graph6_bytes(nx.Graph(to_networkx(g)), header=False).decode().strip()
    assert rec == nx_rec


def test_large_vertex_count_form():
    n = 100
    g = MultiGraph(n, [(i, i + 1) for i in range(n - 1)])
    rec = serialize_graph6(g)
    assert rec.startswith("~")
    back = parse_graph6(rec)
    assert back.n == n and back.m == n - 1


def test_vertex_count_overflow_rejected():
    with pytest.raises(Graph6Error, match="overflow"):
        parse_graph6("~~" + "?" * 10)


def _encode(n, edges):
    """graph6 record of a simple graph, one pass over its edges."""
    if n < 63:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    chunks = [0] * ((n * (n - 1) // 2 + 5) // 6)
    for u, v in edges:
        i, j = min(u, v), max(u, v)
        k = j * (j - 1) // 2 + i
        chunks[k // 6] |= 32 >> (k % 6)
    return head + "".join(chr(63 + c) for c in chunks)


def _assert_decoders_agree(rec):
    g = parse_graph6(rec)
    assert list(g.edges) == bit_stream_graph6_edges(rec), rec[:20]
    return g


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 258])
def test_set_bit_decoder_matches_bit_stream_decoder(n):
    rng = random.Random(n)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for density in (0.0, 0.03, 0.5, 1.0):
        rec = _encode(n, [p for p in pairs if rng.random() < density])
        g = _assert_decoders_agree(rec)
        assert g.n == n
        if len(rec) > (1 if n < 63 else 4):
            # all-zero and all-one final bytes; set padding bits are ignored
            _assert_decoders_agree(rec[:-1] + "?")
            _assert_decoders_agree(rec[:-1] + "~")


def test_set_bit_decoder_on_ladder_families():
    # every family member on 100..398 vertices, the ladder benchmark's range,
    # decodes to its edges in graph6 order; the bit-stream decoder, about 20x
    # slower, checks one size in each 12-vertex stratum
    for v in range(100, 400, 2):
        for g in (
            generalized_petersen(v // 2, 1),
            _moebius_ladder(v),
            generalized_petersen(v // 2, 2),
            generalized_petersen(v // 2, 3),
        ):
            rec = _encode(g.n, g.edges)
            expected = sorted(
                ((min(e), max(e)) for e in g.edges), key=lambda e: (e[1], e[0])
            )
            if v % 12 == 4:
                assert bit_stream_graph6_edges(rec) == expected
            assert list(parse_graph6(rec).edges) == expected


def test_graph6_errors_keep_their_offsets():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("~??A" + chr(127))
    assert err.value.offset == 4
    with pytest.raises(Graph6Error) as err:
        parse_graph6(">>graph6<<C" + chr(62))
    assert err.value.offset == 11
    with pytest.raises(Graph6Error, match="need 1 data bytes, have 0") as err:
        parse_graph6("C")
    assert err.value.offset == 1
    with pytest.raises(Graph6Error, match="trailing") as err:
        parse_graph6("C~~")
    assert err.value.offset == 2
