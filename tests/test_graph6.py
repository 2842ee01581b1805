"""Codec tests, cross-checked against networkx as the reference codec."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from helpers import bit_stream_graph6_edges, matrix_serialize_graph6, to_networkx

from nzflow import Graph6Error, MultiGraph, parse_graph6, serialize_graph6
from nzflow.graph import _MAX_N
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
    assert parse_graph6(">>sparse6<<:Bc").edges == ((0, 1), (0, 2))


@pytest.mark.parametrize(
    "record, offset",
    [(">>graph6<<:Bc", 10), (">>sparse6<<Bw", 11)],
    ids=["sparse6-under-graph6", "graph6-under-sparse6"],
)
def test_header_naming_the_other_format_is_rejected(record, offset):
    # both bodies parse on their own; the header names the other format
    parse_graph6(record[offset:])
    with pytest.raises(Graph6Error, match="header") as err:
        parse_graph6(record)
    assert err.value.offset == offset


def test_illegal_character_reports_offset():
    # chr(30) is not ASCII whitespace, so it is not stripped as such
    with pytest.raises(Graph6Error) as err:
        parse_graph6("C" + chr(30))
    assert err.value.offset == 1
    assert str(err.value) == "illegal character '\\x1e' (byte offset 1)"


@pytest.mark.parametrize(
    "record",
    [
        "C" + chr(1), "C !", ":Fa@x^\x7f", "Dé??", "C~\u2603", "~?@c" + "~" * 20 + "> ~",
        # str.strip() treats these as whitespace; only ASCII whitespace is
        # stripped from a record's ends
        "C~\x1c", "\x85C~",
    ],
)
def test_first_illegal_character_is_reported_at_its_offset(record):
    # a character outside '?'..'~' (63..126), ASCII or not; sparse6 data
    # starts after the ':'
    start = 1 if record.startswith(":") else 0
    offset = next(
        i for i in range(start, len(record)) if not 63 <= ord(record[i]) <= 126
    )
    with pytest.raises(Graph6Error) as err:
        parse_graph6(record)
    assert err.value.offset == offset
    assert str(err.value) == (
        f"illegal character {record[offset]!r} (byte offset {offset})"
    )


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


@pytest.mark.parametrize("header, offset", [("", 17), (">>sparse6<<", 28)])
def test_sparse6_loop_is_reported_at_its_byte(header, offset):
    # a 20-vertex path with a loop at vertex 15, as networkx writes it: the
    # loop's unit is bits 90-95 of the data, all in its 16th byte
    h = nx.path_graph(20, create_using=nx.MultiGraph)
    h.add_edge(15, 15)
    rec = nx.to_sparse6_bytes(h, header=False).decode().strip()
    assert rec == ":S_`abcdefghijklmNnopq"
    with pytest.raises(Graph6Error, match="loop at vertex 15") as info:
        parse_graph6(header + rec)
    assert info.value.offset == offset


def test_serialize_rejects_parallel_edges():
    with pytest.raises(ValueError, match="parallel"):
        serialize_graph6(MultiGraph(2, [(0, 1), (0, 1)]))


def test_serialize_matches_the_matrix_encoder():
    # every padding length a record can have: n(n-1)/2 mod 6 is 0, 1, 3 or 4
    rng = random.Random(5)
    sizes = [0, 1, 2, 62, 63, 64, 258, *range(3, 15)]
    paddings = set()
    for n in sizes:
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for density in (0.0, 0.1, 0.5, 1.0):
            edges = [(j, i) if rng.random() < 0.5 else (i, j)
                     for i, j in pairs if rng.random() < density]
            rng.shuffle(edges)
            g = MultiGraph(n, edges)
            assert serialize_graph6(g) == matrix_serialize_graph6(g), (n, density)
        paddings.add(-(n * (n - 1) // 2) % 6)
    assert paddings == {0, 2, 3, 5}


def test_serialize_errors_match_the_matrix_encoder():
    g = MultiGraph(70, [(0, 69), (5, 6), (69, 0)])
    for encode in (serialize_graph6, matrix_serialize_graph6):
        with pytest.raises(ValueError, match="^graph6 cannot encode parallel edges$"):
            encode(g)
    with pytest.raises(ValueError, match=f"^vertex count {_MAX_N} too large for this encoder$"):
        serialize_graph6(MultiGraph(_MAX_N, []))


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
