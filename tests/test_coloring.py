import math
import random
from collections import deque
from itertools import product

import pytest

from dyncolor.coloring import (
    Searcher,
    chi_r_exact,
    emit_coloring,
    is_L_colorable_r_dynamic,
    parse_coloring,
    parse_lists,
    verify_r_dynamic,
)
from dyncolor.errors import BudgetExceeded, PartialInput
from dyncolor.families import (
    all_connected_graphs,
    complete,
    cycle,
    grid_torus,
    path,
    petersen,
    random_connected_graph,
    star,
    subdivided_k4,
)
from dyncolor.graph import Graph


def graph_power(g: Graph, k: int) -> Graph:
    """Oracle: an edge between u and v iff their distance in g is 1 to k."""
    edges = []
    for s in g.vertices():
        dist = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        edges += [(s, t) for t, d in dist.items() if s < t and d <= k]
    return Graph(g.n, edges)


def test_graph_power():
    assert graph_power(cycle(5), 2) == complete(5)
    assert graph_power(petersen(), 2) == complete(10)
    assert graph_power(subdivided_k4(), 2) == complete(7)
    assert graph_power(path(3), 2) == complete(3)


def test_graph_power_identity_and_monotone():
    rng = random.Random(3)
    for _ in range(20):
        g = random_connected_graph(rng.randrange(2, 10), 0.3, rng)
        assert graph_power(g, 1) == g
        prev = set()
        for k in range(1, 5):
            cur = set(graph_power(g, k).edges())
            assert prev <= cur
            prev = cur


def test_verify_rainbow_petersen():
    assert verify_r_dynamic(petersen(), {v: v + 1 for v in range(10)}, 3).ok


def test_verify_c5_bad_2_dynamic():
    # 1,2,1,2,3 around the cycle: the vertices between equal colors see one color
    rep = verify_r_dynamic(cycle(5), {0: 1, 1: 2, 2: 1, 3: 2, 4: 3}, 2)
    assert rep.proper and not rep.ok
    assert set(rep.violations) == {1, 2}


def test_verify_improper():
    rep = verify_r_dynamic(Graph(2, [(0, 1)]), {0: 1, 1: 1}, 1)
    assert not rep.proper and not rep.ok


def test_verify_partial_input():
    with pytest.raises(PartialInput):
        verify_r_dynamic(cycle(3), {0: 1}, 1)


def test_verify_matches_the_definition_on_random_colorings():
    # every report field against the definition, written out pair by pair,
    # on colorings from few colors (improper, deficient) to many (rainbow)
    rng = random.Random(11)
    kinds = set()
    for _ in range(400):
        n = rng.randrange(0, 9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.4])
        coloring = {v: rng.randrange(1, rng.randrange(1, n + 2) + 1) for v in range(n)}
        r = rng.randrange(1, 5)
        rep = verify_r_dynamic(g, coloring, r)
        nbrs = [[w for w in range(n) if g.has_edge(v, w)] for v in range(n)]
        seen = tuple(len({coloring[w] for w in nbrs[v]}) for v in range(n))
        required = tuple(min(r, len(nbrs[v])) for v in range(n))
        improper = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                         if g.has_edge(u, v) and coloring[u] == coloring[v])
        assert rep.r == r
        assert rep.improper_edges == improper
        assert rep.proper == (not improper)
        assert rep.seen == seen
        assert rep.required == required
        assert rep.violations == tuple(v for v in range(n) if seen[v] < required[v])
        assert rep.ok == (not improper and rep.violations == ())
        kinds.add((rep.proper, bool(rep.violations)))
    assert kinds == {(True, False), (True, True), (False, False), (False, True)}
    with pytest.raises(PartialInput, match=r"vertices without a color: \[2, 3, 4\]"):
        verify_r_dynamic(cycle(5), {0: 1, 1: 2}, 2)
    with pytest.raises(PartialInput, match=r"colors for vertices not in the graph: \[9\]"):
        verify_r_dynamic(cycle(3), {0: 1, 1: 2, 2: 3, 9: 1}, 2)


def test_chi_small_cases():
    assert chi_r_exact(cycle(5), 1).value == 3
    assert chi_r_exact(cycle(4), 1).value == 2
    assert chi_r_exact(cycle(5), 2).value == 5
    assert chi_r_exact(complete(4), 1).value == 4
    assert chi_r_exact(star(5), 2).value == 3  # leaves need 1, center needs 2


def test_chi_witness_always_verifies():
    rng = random.Random(0)
    for _ in range(25):
        g = random_connected_graph(rng.randrange(2, 9), 0.4, rng)
        r = rng.randrange(1, 4)
        res = chi_r_exact(g, r)
        assert verify_r_dynamic(g, res.witness, r).ok
        assert res.value <= g.n  # rainbow upper bound
        assert Searcher(g, r, math.inf).solve(res.value - 1) is None or res.value == 1


def test_chi_monotone_in_r():
    rng = random.Random(1)
    for _ in range(20):
        g = random_connected_graph(rng.randrange(2, 9), 0.4, rng)
        values = [chi_r_exact(g, r).value for r in (1, 2, 3)]
        assert values == sorted(values)


def test_square_equivalence_cross_oracle():
    rng = random.Random(2)
    for _ in range(50):
        g = random_connected_graph(rng.randrange(2, 10), 0.35, rng)
        delta = max(map(len, g.adj))
        direct = chi_r_exact(g, max(delta, 1)).value
        squared = chi_r_exact(graph_power(g, 2), 1).value
        assert direct == squared


def test_chi_via_square():
    # values that once pinned the graph-power route, now checked directly
    assert chi_r_exact(cycle(5), 2).value == 5
    assert chi_r_exact(petersen(), 3).value == 10
    assert chi_r_exact(path(3), 2).value == 3


def test_chi_budget_cap():
    with pytest.raises(BudgetExceeded):
        chi_r_exact(random_connected_graph(17, 0.3, random.Random(3)), 1)


def test_list_coloring_cases():
    assert is_L_colorable_r_dynamic(
        cycle(5), {v: {1, 2, 3, 4} for v in range(5)}, 2) is None
    assert is_L_colorable_r_dynamic(
        Graph(2, [(0, 1)]), {0: {1}, 1: {2}}, 1) == {0: 1, 1: 2}
    witness = is_L_colorable_r_dynamic(cycle(4), {v: {1, 2} for v in range(4)}, 1)
    assert witness == {0: 1, 1: 2, 2: 1, 3: 2}


def test_list_witness_respects_lists():
    rng = random.Random(4)
    for _ in range(25):
        g = random_connected_graph(rng.randrange(2, 8), 0.4, rng)
        lists = {v: set(rng.sample(range(1, 9), rng.randrange(2, 5)))
                 for v in g.vertices()}
        w = is_L_colorable_r_dynamic(g, lists, 2)
        if w is not None:
            assert all(w[v] in lists[v] for v in g.vertices())
            assert verify_r_dynamic(g, w, 2).ok


def test_ch_lower_bound_refuter():
    # identical 4-lists refute, so ch_2(C5) >= 5; identical 5-lists do not
    assert is_L_colorable_r_dynamic(
        cycle(5), {v: {1, 2, 3, 4} for v in range(5)}, 2) is None
    assert is_L_colorable_r_dynamic(
        cycle(5), {v: {1, 2, 3, 4, 5} for v in range(5)}, 2) is not None


def test_subdivided_k4():
    assert chi_r_exact(subdivided_k4(), 3).value == 7


def test_coloring_file_roundtrip():
    c = {0: 3, 1: 1, 5: 2}
    assert parse_coloring(emit_coloring(c)) == c
    lists = parse_lists("0: 1 2 3\n1: 2 4\n")
    assert lists == {0: {1, 2, 3}, 1: {2, 4}}


def brute_chi_r(g, r):
    """Independent oracle: scan every coloring by increasing palette size."""
    for k in range(1, g.n + 1):
        for assignment in product(range(1, k + 1), repeat=g.n):
            coloring = dict(enumerate(assignment))
            if verify_r_dynamic(g, coloring, r).ok:
                return k
    raise AssertionError("rainbow always works")


def test_chi_against_full_scan():
    rng = random.Random(11)
    for _ in range(15):
        g = random_connected_graph(rng.randrange(2, 6), 0.45, rng)
        r = rng.randrange(1, 4)
        assert chi_r_exact(g, r).value == brute_chi_r(g, r)


def brute_bases(g, r, k):
    """Every r-dynamic coloring with <= k colors in first-appearance form."""
    out = []
    for assignment in product(range(1, k + 1), repeat=g.n):
        if all(c <= max(assignment[:i], default=0) + 1 for i, c in enumerate(assignment)):
            coloring = dict(enumerate(assignment))
            if verify_r_dynamic(g, coloring, r).ok:
                out.append(coloring)
    return out


def core_bases(g, r, k):
    """The leaves of the search core under the canonical palette."""
    out = []

    def keep(coloring):
        out.append(dict(coloring))
        return False

    assert Searcher(g, r, math.inf).solve(k, accept=keep) is None
    return out


def partition(coloring):
    classes = {}
    for v, c in coloring.items():
        classes.setdefault(c, set()).add(v)
    return frozenset(frozenset(cls) for cls in classes.values())


def test_core_enumerates_each_base_once():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randrange(1, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = Graph(n, edges)
        r, k = rng.randrange(1, 4), rng.randrange(1, 6)
        found = core_bases(g, r, k)
        assert all(verify_r_dynamic(g, c, r).ok for c in found)
        assert len({partition(c) for c in found}) == len(found)
        want = brute_bases(g, r, k)
        assert len(found) == len(want), (g.edges(), r, k)
        assert {partition(c) for c in found} == {partition(c) for c in want}


def test_precoloring_is_kept_or_refused():
    g = path(4)  # 0-1-2-3
    improper = Searcher(g, 2, math.inf)
    assert improper.solve(3, {0: 1, 1: 1}) is None
    assert improper.nodes == 0
    dead = Searcher(g, 2, math.inf)  # vertex 1 sees only color 1
    assert dead.solve(3, {0: 1, 2: 1}) is None
    assert dead.nodes == 0
    live = Searcher(g, 2, math.inf).solve(3, {0: 1, 2: 2})
    assert live is not None and live[0] == 1 and live[2] == 2
    assert verify_r_dynamic(g, live, 2).ok
    complete_ok = {0: 1, 1: 2, 2: 3, 3: 1}
    assert Searcher(g, 2, math.inf).solve(3, complete_ok) == complete_ok


def test_accept_takes_the_first_acceptable_leaf():
    g = cycle(5)
    seen = []

    def third(coloring):
        seen.append(dict(coloring))
        return len(seen) == 3

    got = Searcher(g, 1, math.inf).solve(3, accept=third)
    assert got == seen[2] and len(seen) == 3


def test_chi_against_full_scan_on_every_small_graph():
    for n in range(1, 6):
        for g in all_connected_graphs(n):
            for r in range(1, 5):
                assert chi_r_exact(g, r).value == brute_chi_r(g, r), (g.edges(), r)


def brute_list_colorable(g, lists, r):
    """Independent oracle: scan the whole product of the lists."""
    ordered = [sorted(lists[v]) for v in g.vertices()]
    return any(verify_r_dynamic(g, dict(enumerate(assignment)), r).ok
               for assignment in product(*ordered))


def test_list_colorability_against_full_scan():
    # lists drawn from a wide range, so most colors closed to a vertex lie
    # outside its own list: a wipeout judged by counting closed colors
    # would refuse colorable instances here
    rng = random.Random(17)
    for _ in range(300):
        g = random_connected_graph(rng.randrange(2, 7), 0.45, rng)
        r = rng.randrange(1, 4)
        lists = {v: set(rng.sample(range(1, 7), rng.randrange(1, 4))) for v in g.vertices()}
        w = is_L_colorable_r_dynamic(g, lists, r)
        assert (w is not None) == brute_list_colorable(g, lists, r), (g.edges(), lists, r)


# chi_r of the toroidal grid C_m x C_n at r = 2, 3, 4; the benchmark pins
# the same values
GRID_CHI = {
    (4, 4): (4, 4, 8), (4, 5): (4, 4, 7), (4, 6): (3, 4, 6),
    (5, 5): (4, 5, 5), (5, 6): (3, 5, 6), (6, 6): (3, 4, 6),
    (4, 7): (4, 4, 7), (5, 7): (4, 5, 7), (6, 7): (3, 5, 6), (7, 7): (4, 5, 7),
}


def grid_chi_checked(m, n, r):
    res = chi_r_exact(grid_torus(m, n), r, force=True)
    assert res.value == GRID_CHI[m, n][r - 2], (m, n, r)
    assert verify_r_dynamic(grid_torus(m, n), res.witness, r).ok
    assert len(set(res.witness.values())) == res.value
    return res


def test_grids_up_to_c6_and_their_search_nodes():
    # the 18 grids of the coloring benchmark; before forced-rainbow
    # propagation their searches took 28,295 nodes together
    total = 0
    for m, n in GRID_CHI:
        if n <= 6:
            total += sum(grid_chi_checked(m, n, r).nodes for r in (2, 3, 4))
    assert total <= 4_000


@pytest.mark.parametrize("m,r", [
    pytest.param(m, r, marks=[pytest.mark.slow] if (m, r) == (7, 4) else [])
    for m in range(4, 8) for r in (2, 3, 4)
])
def test_grids_with_a_side_of_7(m, r):
    grid_chi_checked(m, 7, r)


def test_c5xc6_refutation_at_k4_is_small():
    # chi_3(C5 x C6) = 5; refuting k = 4 took 13,393 nodes before
    # forced-rainbow propagation
    searcher = Searcher(grid_torus(5, 6), 3, math.inf)
    assert searcher.solve(4) is None
    assert searcher.nodes <= 2_000
