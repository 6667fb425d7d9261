import random

import pytest

from dyncolor.families import _certificate, all_connected_graphs
from dyncolor.graph import Graph

# connected graphs on n vertices up to isomorphism, OEIS A001349
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}


def relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@pytest.mark.parametrize("n", sorted(A001349))
def test_counts_match_oeis(n):
    graphs = all_connected_graphs(n)
    assert len(graphs) == A001349[n]
    assert all(g.n == n and g.is_connected() for g in graphs)


def test_each_class_is_one_atlas_graph():
    nx = pytest.importorskip("networkx")
    atlas = {n: [] for n in A001349}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() in atlas and nx.is_connected(h):
            atlas[h.number_of_nodes()].append(h)
    for n, want in atlas.items():
        hits = [0] * len(want)
        for g in all_connected_graphs(n):
            x = nx.Graph(g.edges())
            x.add_nodes_from(range(n))
            matches = [i for i, h in enumerate(want) if nx.is_isomorphic(x, h)]
            assert len(matches) == 1
            hits[matches[0]] += 1
        assert hits == [1] * len(want)


def test_certificate_is_invariant_and_separating():
    rng = random.Random(0)
    for n in range(1, 7):
        graphs = all_connected_graphs(n)
        certs = [_certificate(g) for g in graphs]
        assert len(set(certs)) == len(certs)
        for g, cert in zip(graphs, certs):
            for _ in range(3):
                assert _certificate(relabel(g, rng)) == cert


def test_enumeration_is_capped():
    assert all_connected_graphs(0) == []
    with pytest.raises(ValueError):
        all_connected_graphs(7)
