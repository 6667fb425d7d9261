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
    delete_vertices,
    emit_graph6,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    payload_lines,
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


def test_surgery_equals_a_rebuild_from_the_edge_list():
    # delete_vertices filters the rows and add_edges patches the rows it
    # touches; both must give the graph that Graph(n, edges) builds
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 16)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.35])
        doomed = set(rng.sample(range(n), rng.randrange(n + 1)))
        h, remap = delete_vertices(g, doomed)
        image = remap.image
        assert [v for v in range(n) if image[v] is None] == sorted(doomed)
        assert [image[v] for v in range(n) if v not in doomed] == list(range(n - len(doomed)))
        assert h == Graph(n - len(doomed), [(image[u], image[v]) for u, v in g.edges()
                                            if u not in doomed and v not in doomed])
        if n < 2:
            continue
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(4))]
        pairs += g.edges()[:1] + pairs[:1] + [p[::-1] for p in pairs[:1]]
        rng.shuffle(pairs)
        assert add_edges(g, pairs) == Graph(n, g.edges() + pairs)


def test_add_edges_refuses_loops_and_vertices_out_of_range():
    c4 = cycle(4)
    with pytest.raises(LoopRequested):
        add_edges(c4, [(0, 2), (3, 3)])
    for bad in [(0, 4), (-1, 2)]:
        with pytest.raises(ValueError, match="out of range"):
            add_edges(c4, [bad])
    assert add_edges(c4, []) == c4


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


def edge_list_text(g: Graph) -> str:
    """The edge-list file of a graph, one 'u v' line per edge."""
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def per_pair_graph6(g: Graph) -> str:
    """The graph6 writer as first written: one has_edge call per vertex pair."""
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    bits = [1 if g.has_edge(u, v) else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = bytearray()
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i:i + 6]:
            x = (x << 1) | b
        body.append(x + 63)
    return (head + bytes(body)).decode("ascii")


def test_graph6_writer_equals_the_per_pair_writer():
    rng = random.Random(12)
    for _ in range(150):
        n = rng.randrange(0, 71)
        p = rng.random()
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        assert emit_graph6(g) == per_pair_graph6(g)
    long_form = random_connected_graph(100, 0.1, rng)
    text = emit_graph6(long_form)
    assert text.startswith("~") and text == per_pair_graph6(long_form)


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
    assert parse_graph6(text) == parse_edge_list(edge_list_text(g)) == g
    assert parse_graph6("Bx") == parse_graph6("Bw") == complete(3)


def test_edge_list_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_graph(rng.randrange(2, 15), 0.3, rng)
        assert parse_edge_list(edge_list_text(g)) == g


def test_edge_list_comments_and_errors():
    g = parse_edge_list("# triangle\n0 1\n1 2\n\n0 2  # closing\n")
    assert g == complete(3)
    with pytest.raises(ParseError):
        parse_edge_list("0 0\n")
    with pytest.raises(ParseError):
        parse_edge_list("0 x\n")


def test_edge_list_ids_are_bounded_by_twice_the_edge_count():
    # ids on no line are isolated vertices, up to twice the edge count
    assert parse_edge_list("0 2\n") == Graph(3, [(0, 2)])
    assert parse_edge_list("2 1\n") == Graph(3, [(1, 2)])
    with pytest.raises(ParseError, match=r"vertex id 3 exceeds .* \(1\) \(byte 0\)"):
        parse_edge_list("0 3\n")
    with pytest.raises(ParseError, match=r"\(byte 4\)"):
        parse_edge_list("0 1\n1 7\n2 3\n")


def test_payload_lines_yields_each_payload_at_its_line_offset():
    text = "# head\n\n0 1  # note\n   \r\n2 3\r\n  #\n4 5"
    assert list(payload_lines(text)) == [("0 1", 8), ("2 3", 25), ("4 5", 34)]
    assert list(payload_lines("")) == list(payload_lines("# only\n \n")) == []


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
        assert parse_edge_list(edge_list_text(g)) == g
