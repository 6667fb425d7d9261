import hashlib
import random
from collections import Counter, defaultdict
from functools import cache

import pytest

from dyncolor.families import (
    _certificate,
    _refined_colours,
    all_connected_graphs,
    complete,
    complete_bipartite,
    cube,
    cycle,
    octahedron,
    prism,
    star,
)
from dyncolor.graph import Graph, emit_graph6

# connected graphs on n vertices up to isomorphism, OEIS A001349
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@cache
def connected(n: int) -> list[Graph]:
    return all_connected_graphs(n)


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def mobius_ladder(n: int) -> Graph:
    """The n-cycle plus its n/2 long diagonals."""
    return Graph(n, [(i, (i + 1) % n) for i in range(n)] + [(i, i + n // 2) for i in range(n // 2)])


def disjoint_union(*parts: Graph) -> Graph:
    edges, base = [], 0
    for g in parts:
        edges += [(base + u, base + v) for u, v in g.edges()]
        base += g.n
    return Graph(base, edges)


@pytest.mark.parametrize("n", sorted(A001349))
def test_counts_match_oeis(n):
    graphs = connected(n)
    assert len(graphs) == A001349[n]
    assert all(g.n == n and g.is_connected() for g in graphs)


@pytest.mark.slow
def test_counts_match_oeis_at_8():
    # opt-in (pytest -m slow): about 9 s on 2 CPUs
    graphs = all_connected_graphs(8)
    assert len(graphs) == 11_117
    assert all(g.n == 8 and g.is_connected() for g in graphs)


def test_output_pinned():
    # the graphs, their labels and their order for n = 1..7, taken from the
    # degree-class brute-force certificate; any complete invariant keeps them
    h = hashlib.sha256()
    for n in range(1, 8):
        for g in connected(n):
            h.update(emit_graph6(g).encode() + b"\n")
    assert h.hexdigest()[:16] == "5b14b04ffd940836"


def test_each_class_is_one_atlas_graph():
    nx = pytest.importorskip("networkx")

    # the atlas covers every graph on <= 7 vertices; bucketing by degrees
    # and triangles keeps the isomorphism tests few
    def bucket(h):
        return h.number_of_nodes(), tuple(sorted((d, nx.triangles(h, v)) for v, d in h.degree()))

    atlas = defaultdict(list)
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() in A001349 and nx.is_connected(h):
            atlas[bucket(h)].append(h)
    hits = Counter()
    for n in A001349:
        for g in connected(n):
            x = nx.Graph(g.edges())
            x.add_nodes_from(range(n))
            key = bucket(x)
            matches = [i for i, h in enumerate(atlas[key]) if nx.is_isomorphic(x, h)]
            assert len(matches) == 1
            hits[key, matches[0]] += 1
    assert sum(map(len, atlas.values())) == len(hits) == sum(A001349.values())
    assert set(hits.values()) == {1}


# regular graphs colour refinement cannot split, and graphs made of twins
UNSPLIT = {"C6": cycle(6), "C7": cycle(7), "C8": cycle(8), "prism": prism(),
           "K3,3": complete_bipartite(3, 3), "cube": cube(), "Mobius8": mobius_ladder(8),
           "2C3": disjoint_union(cycle(3), cycle(3)), "2C4": disjoint_union(cycle(4), cycle(4)),
           "C5+C3": disjoint_union(cycle(5), cycle(3))}
TWINNED = {f"K{n}": complete(n) for n in range(1, 9)}
TWINNED |= {f"K1,{k}": star(k) for k in range(1, 8)}
TWINNED |= {"K2,3": complete_bipartite(2, 3), "K2,2,2": octahedron(),
            "K2,6": complete_bipartite(2, 6), "K4,4": complete_bipartite(4, 4)}


def test_certificate_is_invariant_and_separating():
    rng = random.Random(0)
    for n in range(1, 8):
        graphs = connected(n)
        certs = [_certificate(g) for g in graphs]
        assert len(set(certs)) == len(certs)
        for g, cert in zip(graphs, certs):
            for _ in range(3):
                assert _certificate(relabel(g, rng)) == cert


@cache
def named_certificate(name: str) -> int:
    return _certificate((UNSPLIT | TWINNED)[name])


@pytest.mark.parametrize("name", sorted(UNSPLIT | TWINNED))
def test_certificate_survives_relabeling(name):
    rng = random.Random(name)
    for _ in range(2):
        assert _certificate(relabel((UNSPLIT | TWINNED)[name], rng)) == named_certificate(name)


@pytest.mark.parametrize("a, b", [("K3,3", "prism"), ("cube", "Mobius8"), ("C6", "2C3"),
                                  ("C8", "2C4"), ("C8", "C5+C3"), ("2C4", "C5+C3")])
def test_certificate_separates_what_refinement_cannot(a, b):
    g, h = UNSPLIT[a], UNSPLIT[b]
    assert len(set(_refined_colours(g.adj))) == len(set(_refined_colours(h.adj))) == 1
    assert named_certificate(a) != named_certificate(b)


def test_refined_partition_is_equitable_and_invariant():
    rng = random.Random(1)
    for g in connected(7)[::7] + list(UNSPLIT.values()) + list(TWINNED.values()):
        colour = _refined_colours(g.adj)
        # every vertex of a cell sees each cell the same number of times
        for c in set(colour):
            seen = {tuple(sorted(colour[w] for w in g.adj[v])) for v in g.vertices()
                    if colour[v] == c}
            assert len(seen) == 1
        # the cells and their ranks follow the vertices under a relabeling
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert _refined_colours(h.adj) == [colour[perm.index(v)] for v in h.vertices()]


def test_enumeration_is_capped():
    assert all_connected_graphs(0) == []
    with pytest.raises(ValueError):
        all_connected_graphs(9)
