import random
from itertools import combinations

import networkx as nx
import pytest

from dyncolor.errors import LoopRequested, ParseError
from dyncolor.families import (
    complete,
    cycle,
    path,
    petersen,
    random_connected_graph,
    stacked_triangulation,
)
from dyncolor.graph import (
    Graph,
    add_edges,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph,
    parse_graph6,
)


def test_handshake_on_random_graphs():
    rng = random.Random(0)
    for _ in range(50):
        g = random_connected_graph(rng.randrange(2, 12), 0.3, rng)
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.m


def test_add_edges_cases():
    g = add_edges(path(3), [(0, 2)])
    assert g.m == 3
    c4 = cycle(4)
    assert add_edges(c4, [(0, 1)]).m == 4
    p = petersen()
    assert add_edges(p, [(0, 1)]).m == 15
    with pytest.raises(LoopRequested):
        add_edges(c4, [(1, 1)])


# -- formats ------------------------------------------------------------------


def test_graph6_known_strings():
    # validated against the networkx reference codec
    assert parse_graph6("A_") == complete(2)
    assert parse_graph6("Bw") == complete(3)
    assert emit_graph6(complete(2)) == "A_"
    assert emit_graph6(complete(3)) == "Bw"


def test_graph6_roundtrip_against_networkx():
    rng = random.Random(4)
    for i in range(110):
        n = rng.randrange(1, 21)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph(n, edges)
        mine = emit_graph6(g)
        ref_graph = nx.Graph()
        ref_graph.add_nodes_from(range(n))
        ref_graph.add_edges_from(edges)
        ref = nx.to_graph6_bytes(ref_graph, header=False).decode().strip()
        assert mine == ref
        assert parse_graph6(mine) == g
        # and the reference parser agrees with ours
        back = nx.from_graph6_bytes(mine.encode())
        assert back.number_of_edges() == g.m


def test_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<A_") == complete(2)
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("A")  # missing data byte
    with pytest.raises(ParseError):
        parse_graph6("A_~")  # trailing garbage


def test_graph6_parse_of_2000_vertices_equals_the_edge_list_parse():
    # the parser decodes only the set bits, byte by byte; padding bits after
    # the last pair are ignored, as the format allows
    g = stacked_triangulation(2000, random.Random(0))
    text = emit_graph6(g)
    assert parse_graph6(text) == parse_edge_list(emit_edge_list(g)) == g
    assert parse_graph6("Bx") == parse_graph6("Bw") == complete(3)


def test_edge_list_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_graph(rng.randrange(2, 15), 0.3, rng)
        assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_comments_and_errors():
    g = parse_edge_list("# triangle\n0 1\n1 2\n\n0 2  # closing\n")
    assert g == complete(3)
    with pytest.raises(ParseError):
        parse_edge_list("0 0\n")
    with pytest.raises(ParseError):
        parse_edge_list("0 x\n")


def test_parse_graph_auto():
    assert parse_graph("0 1\n1 2\n") == path(3)
    assert parse_graph("Bw") == complete(3)


def test_graph6_long_form():
    rng = random.Random(6)
    n = 80
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.05]
    g = Graph(n, edges)
    text = emit_graph6(g)
    assert text.startswith("~")  # long size field
    assert parse_graph6(text) == g
    ref = nx.from_graph6_bytes(text.encode())
    assert ref.number_of_edges() == g.m


def test_edge_list_roundtrip_100():
    rng = random.Random(9)
    for _ in range(100):
        g = random_connected_graph(rng.randrange(2, 21), 0.25, rng)
        assert parse_edge_list(emit_edge_list(g)) == g
