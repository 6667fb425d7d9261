import hashlib
import math
import random
from collections import Counter, defaultdict
from functools import cache
from itertools import combinations, permutations

import pytest

from dyncolor import families
from dyncolor.families import (
    _least_mask,
    _refined_colours,
    all_connected_graphs,
    automorphisms,
    complete,
    complete_bipartite,
    cube,
    cycle,
    octahedron,
    petersen,
    prism,
    star,
    wheel,
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


def pentagonal_prism() -> Graph:
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
                 + [(i, 5 + i) for i in range(5)])


def graph6_digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update(emit_graph6(g).encode() + b"\n")
    return h.hexdigest()[:16]


def degrees(g: Graph) -> list[int]:
    return [len(a) for a in g.adj]


@pytest.mark.parametrize("n", sorted(A001349))
def test_counts_match_oeis(n):
    graphs = connected(n)
    assert len(graphs) == A001349[n]
    assert all(g.n == n and g.is_connected() for g in graphs)


@pytest.mark.slow
def test_counts_match_oeis_at_8():
    # opt-in (pytest -m slow): about 5 s on 2 CPUs; the digest is taken as
    # test_output_pinned's, over the graph6 lines
    graphs = all_connected_graphs(8)
    assert len(graphs) == 11_117
    assert all(g.n == 8 and g.is_connected() for g in graphs)
    assert graph6_digest(graphs) == "95a2c004264a5ff0"


def test_output_pinned():
    # the graphs, their labels and their order for n = 1..7, taken from the
    # degree-class brute-force certificate; any complete invariant keeps them
    assert graph6_digest(g for n in range(1, 8) for g in connected(n)) == "5b14b04ffd940836"


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
        certs = [_least_mask(g.adj) for g in graphs]
        assert len(set(certs)) == len(certs)
        for g, cert in zip(graphs, certs):
            for _ in range(3):
                assert _least_mask(relabel(g, rng).adj) == cert


@cache
def named_certificate(name: str) -> int:
    return _least_mask((UNSPLIT | TWINNED)[name].adj)


@pytest.mark.parametrize("name", sorted(UNSPLIT | TWINNED))
def test_certificate_survives_relabeling(name):
    rng = random.Random(name)
    for _ in range(2):
        assert _least_mask(relabel((UNSPLIT | TWINNED)[name], rng).adj) == named_certificate(name)


@pytest.mark.parametrize("a, b", [("K3,3", "prism"), ("cube", "Mobius8"), ("C6", "2C3"),
                                  ("C8", "2C4"), ("C8", "C5+C3"), ("2C4", "C5+C3")])
def test_certificate_separates_what_refinement_cannot(a, b):
    g, h = UNSPLIT[a], UNSPLIT[b]
    assert len(set(_refined_colours(g.adj, degrees(g)))) == 1
    assert len(set(_refined_colours(h.adj, degrees(h)))) == 1
    assert named_certificate(a) != named_certificate(b)


def test_refined_partition_is_equitable_and_invariant():
    rng = random.Random(1)
    for g in connected(7)[::7] + list(UNSPLIT.values()) + list(TWINNED.values()):
        # from degrees, and from the refined colouring with a vertex of its
        # largest cell put ahead of the rest of that cell, as the search does
        starts = [degrees(g)]
        base = _refined_colours(g.adj, degrees(g))
        x = max(g.vertices(), key=lambda v: base.count(base[v]))
        if base.count(base[x]) > 1:
            starts.append([c + (c > base[x] or c == base[x] and w != x) for w, c in enumerate(base)])
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        for start in starts:
            colour = _refined_colours(g.adj, start)
            assert sorted(set(colour)) == list(range(len(set(colour))))
            # every vertex of a cell sees each cell the same number of times
            for c in set(colour):
                seen = {tuple(sorted(colour[w] for w in g.adj[v])) for v in g.vertices()
                        if colour[v] == c}
                assert len(seen) == 1
            # the cells and their ranks follow the vertices under a relabeling
            moved = [start[perm.index(v)] for v in h.vertices()]
            assert _refined_colours(h.adj, moved) == [colour[perm.index(v)] for v in h.vertices()]


# past the enumeration's cap: vertex-transitive graphs without twins, which
# refinement cannot split, so the search branches at every level
BEYOND = {"C9": cycle(9), "C10": cycle(10), "C12": cycle(12), "Petersen": petersen(),
          "prism5": pentagonal_prism(), "Mobius10": mobius_ladder(10),
          "Mobius12": mobius_ladder(12), "2C5": disjoint_union(cycle(5), cycle(5))}


@pytest.mark.parametrize("name", sorted(BEYOND))
def test_certificate_past_the_cap_survives_relabeling(name):
    rng = random.Random(name)
    g = BEYOND[name]
    cert = _least_mask(g.adj)
    for _ in range(3):
        assert _least_mask(relabel(g, rng).adj) == cert


@pytest.mark.parametrize("a, b", [("Petersen", "prism5"), ("C10", "2C5"), ("C10", "Mobius10"),
                                  ("C12", "Mobius12")])
def test_certificate_past_the_cap_separates(a, b):
    assert _least_mask(BEYOND[a].adj) != _least_mask(BEYOND[b].adj)


def test_certificate_agrees_with_networkx_on_regular_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2)
    pairs = equal = 0
    for d, n in ((3, 10), (3, 12), (4, 11), (5, 10), (5, 12)):
        graphs = [Graph(n, nx.random_regular_graph(d, n, seed=rng.randrange(1 << 30)).edges())
                  for _ in range(6)]
        graphs += [relabel(g, rng) for g in graphs]
        certs = [_least_mask(g.adj) for g in graphs]
        for (g, x), (h, y) in combinations(zip(graphs, certs), 2):
            same = nx.is_isomorphic(nx.Graph(g.edges()), nx.Graph(h.edges()))
            assert (x == y) == same
            pairs, equal = pairs + 1, equal + same
    assert pairs == 330 and equal >= 30


def test_enumeration_is_capped():
    assert all_connected_graphs(0) == []
    with pytest.raises(ValueError):
        all_connected_graphs(9)


def test_levels_are_built_once(monkeypatch):
    # every level up to 7 is kept, so later calls run no certificate at all
    all_connected_graphs(7)

    def refuse(adj):
        raise AssertionError("a kept level was built again")

    monkeypatch.setattr(families, "_least_mask", refuse)
    graphs = [g for n in range(1, 8) for g in all_connected_graphs(n)]
    assert graph6_digest(graphs) == "5b14b04ffd940836"
    # each call hands out a list of its own
    first = all_connected_graphs(3)
    first.clear()
    assert len(all_connected_graphs(3)) == 2


# -- automorphisms -------------------------------------------------------------


def group_order(gens, n: int) -> int:
    """Order of the permutation group the tuples `gens` generate: the product
    of the orbit lengths along the stabiliser chain of 0, 1, ..., n-1, each
    stabiliser generated by its Schreier generators (Schreier's lemma)."""
    identity = tuple(range(n))

    def compose(p, q):  # p after q
        return tuple(p[x] for x in q)

    def inverse(p):
        q = [0] * n
        for x, y in enumerate(p):
            q[y] = x
        return tuple(q)

    order, gens = 1, set(gens) - {identity}
    for point in range(n):
        coset = {point: identity}  # image of point -> an element taking point there
        queue = [point]
        for x in queue:
            for s in gens:
                if s[x] not in coset:
                    coset[s[x]] = compose(s, coset[x])
                    queue.append(s[x])
        order *= len(coset)
        gens = {compose(inverse(coset[s[x]]), compose(s, t))
                for x, t in coset.items() for s in gens} - {identity}
    return order


def is_automorphism(g: Graph, p) -> bool:
    edges = set(g.edges())
    return sorted(p) == list(g.vertices()) and all(
        (min(p[u], p[v]), max(p[u], p[v])) in edges for u, v in edges)


def test_group_order_helper_counts_known_groups():
    # S_4 from a transposition and a 4-cycle, the cyclic group C_5, the trivial group
    assert group_order([(1, 0, 2, 3), (1, 2, 3, 0)], 4) == 24
    assert group_order([(1, 2, 3, 4, 0)], 5) == 5
    assert group_order([], 3) == 1


def test_automorphisms_generate_the_whole_group_on_small_graphs():
    # every connected graph on up to six vertices (143), against a count of
    # the vertex permutations that keep the edge set
    checked = 0
    for n in range(1, 7):
        for g in connected(n):
            gens = automorphisms(g)
            assert all(is_automorphism(g, p) for p in gens)
            brute = sum(is_automorphism(g, p) for p in permutations(g.vertices()))
            assert group_order(gens, g.n) == brute, g.edges()
            checked += 1
    assert checked == 143


@pytest.mark.parametrize("name, g, order", [
    ("Petersen", petersen(), 120), ("cube", cube(), 48), ("C8", cycle(8), 16),
    ("W5", wheel(5), 10), ("K3,3", complete_bipartite(3, 3), 72), ("C10", cycle(10), 20),
    ("Mobius10", mobius_ladder(10), 20), ("prism5", pentagonal_prism(), 20)])
def test_automorphism_group_orders(name, g, order):
    rng = random.Random(name)
    for h in (g, relabel(g, rng)):
        gens = automorphisms(h)
        assert all(is_automorphism(h, p) for p in gens)
        assert group_order(gens, h.n) == order


def test_twins_give_the_symmetric_group_without_a_search():
    # K1,8: the eight leaves are twins, so the generators are the seven swaps
    # of consecutive leaves and the search has a single leaf
    gens = automorphisms(star(8))
    assert len(gens) == 7
    assert all(sum(p[v] != v for v in range(9)) == 2 for p in gens)
    assert group_order(gens, 9) == math.factorial(8)
