import hashlib
import random
from dataclasses import replace
from itertools import combinations, permutations

import pytest

from dyncolor import configs
from dyncolor.coloring import verify_r_dynamic
from dyncolor.configs import (
    CATALOG,
    KP_KINDS,
    TORUS_KINDS,
    ConfigKind,
    ConfigMatch,
    build_reduction,
    check_budget,
    check_extendable,
    find_configs,
    reduction_without_added_edges,
    reduction_without_rules,
    structural_budget,
    suggested_tokens,
)
from dyncolor.embedding import (
    c3c3_torus,
    emit_rotation,
    find_embedding,
    k5_torus,
    parse_rotation,
    petersen_torus,
)
from dyncolor.errors import BudgetExceeded, DynColorError, EmbeddingRequired
from dyncolor.families import (
    complete,
    cube,
    cycle,
    diamond,
    petersen,
    random_connected_graph,
    random_tree,
    star,
    subdivision,
)
from dyncolor.gadgets import catalog_instances, notsubgraph_instance
from dyncolor.graph import Graph
from tori import SIX_STEPS, SQUARE_STEPS, embed_rotation, lattice_torus, split_triangles


def test_embedding_required():
    # a triangle with a tail: every kind that reads no faces matches in it;
    # a kind whose detector or builder reads the embedding is refused up
    # front, before its builder looks at the match
    g = Graph(6, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5)])
    for kind in ConfigKind:
        entry = CATALOG[kind]
        if entry.reads_faces:
            with pytest.raises(EmbeddingRequired, match=f"{kind.value} needs face information"):
                find_configs(g, [kind])
        else:
            matches = find_configs(g, [kind])
            assert matches and matches == find_configs(find_embedding(g), [kind])
        if entry.reads_faces or entry.builder_reads_rotation:
            with pytest.raises(EmbeddingRequired,
                               match=f"{kind.value} reduction needs an embedding"):
                build_reduction(g, ConfigMatch(kind, {}))
            continue
        try:
            build_reduction(g, matches[0])
        except (ValueError, DynColorError) as exc:
            # a builder may refuse the match, but the face check does not apply
            assert "reduction needs an embedding" not in str(exc)
    assert [kind for kind in ConfigKind if CATALOG[kind].builder_reads_rotation] == [
        ConfigKind.FOUR_WITH_3_NBR, ConfigKind.LIGHT_TRIANGLE]
    # the flag is exact: on its catalog instance, a flagged builder reads the
    # rotation, and any other kind that detects on the bare graph reduces
    # there as on the embedding
    for kind, (emb, match) in catalog_instances().items():
        entry = CATALOG[kind]
        if entry.builder_reads_rotation:
            with pytest.raises(AttributeError):
                entry.build(emb.graph, None, match)
        elif not entry.reads_faces:
            bare, embedded = build_reduction(emb.graph, match), build_reduction(emb, match)
            assert bare.render() == embedded.render() and bare.gprime == embedded.gprime


def test_the_catalog_has_one_entry_per_kind_in_enum_order():
    assert list(CATALOG) == list(ConfigKind)
    assert TORUS_KINDS + KP_KINDS == tuple(ConfigKind)
    # the order is behaviour: the driver reports the first kind with a
    # match, and the KP peel ranks its steps by kind
    assert [kind.value for kind in TORUS_KINDS] == [
        "deg<=2", "adjacent-3s", "many-3-neighbors", "4-with-3-neighbor",
        "light-triangle", "twin-triangles", "triangle-and-4-vertex",
        "three-triangle-fan", "expensive-4-meets-3-face", "all-4s-quad-face"]
    assert [kind.value for kind in KP_KINDS] == [
        "kp-pendant", "kp-two-two", "kp-three-with-twos"]


def test_named_graph_matches():
    p = petersen_torus()
    adj3 = find_configs(p, [ConfigKind.ADJACENT_3S])
    assert len(adj3) == 15  # every edge of a 3-regular graph
    k5 = k5_torus()
    assert find_configs(k5, [ConfigKind.LIGHT_TRIANGLE])
    grid = c3c3_torus()
    assert len(find_configs(grid, [ConfigKind.ALL4S_QUAD_FACE])) == 9
    assert not find_configs(grid, [ConfigKind.ADJACENT_3S])
    assert not find_configs(grid, [ConfigKind.DEG_LE_2])


def test_kp_detectors():
    g = star(3)
    assert len(find_configs(g, [ConfigKind.KP_PENDANT])) == 3
    p6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    two_two = find_configs(p6, [ConfigKind.KP_TWO_TWO])
    assert not two_two  # path interiors are 2-2 but no anchor of degree >= 3
    spider = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
    m = find_configs(spider, [ConfigKind.KP_THREE_WITH_TWOS])
    assert m and m[0].role("u") == 0 and set(m[0].role("T")) == {1, 2, 3}


# -- naive cross-checks for the detectors ---------------------------------------


def naive_deg_le_2(g):
    return {v for v in g.vertices() if g.degree(v) <= 2}


def naive_adjacent_3s(g):
    return {(u, v) for u, v in g.edges()
            if g.degree(u) <= 3 and g.degree(v) <= 3}


def naive_light_triangles(g):
    out = set()
    for a, b, c in combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            if sum(1 for x in (a, b, c) if g.degree(x) >= 5) <= 1:
                out.add((a, b, c))
    return out


def scan_face_of_dart(emb, dart):
    return next(f for f in emb.faces if dart in f.darts)


def naive_all4s_quads(emb):
    g = emb.graph
    out = set()
    for f in emb.faces:
        b = f.boundary_vertices()
        if f.length == 4 and len(set(b)) == 4 and all(g.degree(v) <= 4 for v in b):
            out.add(frozenset(b))
    return out


def naive_twin_triangles(emb):
    g = emb.graph
    out = set()
    for f1, f2 in combinations(emb.faces, 2):
        if f1.length != 3 or f2.length != 3:
            continue
        shared = f1.vertex_set() & f2.vertex_set()
        if len(shared) != 2:
            continue
        u, w = sorted(shared)
        if not g.has_edge(u, w):
            continue
        # must actually be the two faces bordering that edge
        if {scan_face_of_dart(emb, (u, w)), scan_face_of_dart(emb, (w, u))} != {f1, f2}:
            continue
        y = next(iter(f1.vertex_set() - shared))
        z = next(iter(f2.vertex_set() - shared))
        for uu, vv in ((u, w), (w, u)):
            off = set(g.neighbors(vv)) - {uu, y, z}
            if g.degree(vv) <= 5 and all(g.degree(x) >= 4 for x in off):
                out.add(vv)
    return out


def naive_kp_pendants(g):
    return {(v, u) for v, u in permutations(range(g.n), 2)
            if g.has_edge(v, u) and g.degree(v) == 1}


def naive_kp_two_twos(g):
    out = set()
    for u, v in permutations(range(g.n), 2):
        if g.has_edge(u, v) and g.degree(u) == g.degree(v) == 2:
            (up,) = set(g.neighbors(u)) - {v}
            (vp,) = set(g.neighbors(v)) - {u}
            if g.degree(up) >= 3:
                out.add((u, v, up, vp))
    return out


def naive_kp_three_with_twos(g):
    out = set()
    for u in range(g.n):
        t = tuple(w for w in range(g.n) if g.has_edge(u, w) and g.degree(w) == 2)
        if g.degree(u) == 3 and t:
            (vp,) = set(g.neighbors(t[0])) - {u}
            out.add((u, t, t[0], vp))
    return out


def test_detectors_against_naive_enumerations():
    rng = random.Random(0)
    graphs = [random_connected_graph(rng.randrange(3, 9), 0.45, rng)
              for _ in range(30)]
    graphs += [petersen(), complete(5), cube(), diamond(), cycle(6)]
    graphs += [subdivision(random_connected_graph(rng.randrange(3, 8), 0.4, rng))
               for _ in range(10)]
    graphs += [random_tree(rng.randrange(2, 12), rng) for _ in range(10)]
    for g in graphs:
        got = {m.role("v") for m in find_configs(g, [ConfigKind.DEG_LE_2])}
        assert got == naive_deg_le_2(g)
        got = {(m.role("v1"), m.role("v2"))
               for m in find_configs(g, [ConfigKind.ADJACENT_3S])}
        assert got == naive_adjacent_3s(g)
        got = {m.role("cycle") for m in find_configs(g, [ConfigKind.LIGHT_TRIANGLE])}
        assert got == naive_light_triangles(g)
        got = [(m.role("v"), m.role("u")) for m in find_configs(g, [ConfigKind.KP_PENDANT])]
        assert set(got) == naive_kp_pendants(g) and got == sorted(got)
        got = [tuple(m.role(n) for n in ("u", "v", "u'", "v'"))
               for m in find_configs(g, [ConfigKind.KP_TWO_TWO])]
        assert set(got) == naive_kp_two_twos(g)
        assert got == sorted(got)  # listed in (u, v) order, the order the peel takes
        got = [tuple(m.role(n) for n in ("u", "T", "v", "v'"))
               for m in find_configs(g, [ConfigKind.KP_THREE_WITH_TWOS])]
        assert set(got) == naive_kp_three_with_twos(g) and got == sorted(got)


def test_face_detectors_against_naive(toroidal_corpus):
    rng = random.Random(1)
    sample = rng.sample(toroidal_corpus.embeddings, 40)
    for emb in sample:
        got = {frozenset(m.role("face"))
               for m in find_configs(emb, [ConfigKind.ALL4S_QUAD_FACE])}
        assert got == naive_all4s_quads(emb)
        got = {m.role("v") for m in find_configs(emb, [ConfigKind.TWIN_TRIANGLES])}
        assert got == naive_twin_triangles(emb)


def test_many_3_nbrs_requires_threshold():
    # a degree-4 vertex with two 3-neighbors fires: 4 + 2 - 0 - 0 < 10
    inst = catalog_instances()[ConfigKind.MANY_3_NBRS]
    emb, match = inst
    assert match.role("e3") == 0 and match.role("e4") == 0
    # a high-degree center with the same two 3-neighbors must not fire:
    # d + k = 8 + 2 = 10 is no longer below the threshold
    g = Graph(13, [(0, 1), (0, 2), (1, 5), (1, 6), (2, 7), (2, 8)]
              + [(0, x) for x in (3, 4, 9, 10, 11, 12)])
    emb2 = find_embedding(g)
    assert not [m for m in find_configs(emb2, [ConfigKind.MANY_3_NBRS])
                if m.role("v") == 0]


def test_reduction_invariants():
    inst = catalog_instances()
    for kind, (emb, match) in inst.items():
        red = build_reduction(emb, match)
        g = emb.graph
        assert set(red.s_order) == set(red.s_order)  # no repeats
        assert len(red.gprime_vertices) == g.n - len(red.s_order)
        assert red.gprime.n < g.n
        for u, v in red.added_edges:
            assert not g.has_edge(u, v)
            assert u in red.gprime_vertices and v in red.gprime_vertices
        if red.gprime_embedding is not None:
            assert red.gprime_embedding.genus <= emb.genus
            assert red.gprime is red.gprime_embedding.graph
            for u, v in red.added_edges:
                du = red.remap[u]
                dv = red.remap[v]
                assert red.gprime.has_edge(du, dv)
        for t in red.s_order:
            assert t in red.budgets


def test_budget_arithmetic_matches_paper_counts():
    # two adjacent 3-vertices on the cube: trigger sizes 4+2+2 and 9
    q3 = cube()
    emb = find_embedding(q3, max_genus=1)
    match = next(m for m in find_configs(emb, [ConfigKind.ADJACENT_3S])
                 if "y1" in m.roles
                 and len({m.role("y1"), m.role("z1"), m.role("y2"), m.role("z2")}) == 4)
    red = build_reduction(emb, match)
    v1, v2 = match.role("v1"), match.role("v2")
    assert structural_budget(red, v1) == 8  # 4 + 2 + 2
    assert structural_budget(red, v2) == 9
    assert red.budgets[v1] == 8 and red.budgets[v2] == 9


def test_extendability_all_ten_lemmas():
    for kind, (emb, match) in catalog_instances().items():
        red = build_reduction(emb, match)
        rep = check_extendable(emb.graph, red, 3, k=10)
        assert rep.extendable, (kind, rep.render())


def test_extension_searches_pinned():
    # (bases, bases whose extension was searched) at r=3, k=10: every other
    # base took the previous extension's colors on S, passed by the verifier
    reports = {kind.value: check_extendable(emb.graph, build_reduction(emb, match), 3, k=10)
               for kind, (emb, match) in catalog_instances().items()}
    counts = {kind: (rep.colorings_checked, rep.extensions_searched)
              for kind, rep in reports.items()}
    assert counts == {
        "deg<=2": (1, 1), "adjacent-3s": (1, 1), "many-3-neighbors": (114, 25),
        "4-with-3-neighbor": (27, 14), "light-triangle": (1, 1),
        "twin-triangles": (2, 2), "triangle-and-4-vertex": (1, 1),
        "three-triangle-fan": (2, 2), "expensive-4-meets-3-face": (6256, 183),
        "all-4s-quad-face": (5, 5),
    }
    assert (reports["expensive-4-meets-3-face"].render()
            == "extendable: all 6256 base colorings extend (183 searched)")


def test_every_extension_is_verified(monkeypatch):
    # each base that extends is counted once, for a coloring of all of G that
    # the verifier passed, whether the extension was searched or reused
    log = []

    def counting(h, coloring, r):
        rep = verify_r_dynamic(h, coloring, r)
        log.append((h, rep.ok))
        return rep
    monkeypatch.setattr(configs, "verify_r_dynamic", counting)
    cases = [(emb.graph, build_reduction(emb, match), 3)
             for emb, match in catalog_instances().values()]
    g, match = notsubgraph_instance()
    red = build_reduction(find_embedding(g), match)
    cases += [(g, red, 2), (g, reduction_without_added_edges(g, red), 2)]
    for g, red, r in cases:
        log.clear()
        rep = check_extendable(g, red, r, k=10)
        passed_on_g = sum(ok for h, ok in log if h is g)
        if rep.extendable:
            assert passed_on_g == rep.colorings_checked
        else:
            # the last base does not extend, and it is verified on G'
            assert passed_on_g == rep.colorings_checked - 1
            assert [(h, ok) for h, ok in log if h is not g] == [(red.gprime, True)]
    assert not rep.extendable  # the stripped control, last, took the "no" branch


def test_a_counterexample_is_verified_on_gprime(monkeypatch):
    g, match = notsubgraph_instance()
    stripped = reduction_without_added_edges(g, build_reduction(find_embedding(g), match))

    def refuse_on_gprime(h, coloring, r):
        rep = verify_r_dynamic(h, coloring, r)
        return replace(rep, proper=False) if h is stripped.gprime else rep
    monkeypatch.setattr(configs, "verify_r_dynamic", refuse_on_gprime)
    with pytest.raises(AssertionError, match="bad counterexample"):
        check_extendable(g, stripped, 2, k=10)


def test_notsubgraph_negative_control():
    g, match = notsubgraph_instance()
    emb = find_embedding(g)
    red = build_reduction(emb, match)
    assert check_extendable(g, red, 2, k=10).extendable
    stripped = reduction_without_added_edges(g, red)
    rep = check_extendable(g, stripped, 2, k=10)
    assert not rep.extendable
    y, z = match.role("y"), match.role("z")
    assert rep.counterexample[y] == rep.counterexample[z]
    assert rep.render() == ("NOT extendable: counterexample after 1 colorings:"
                            " {2: 1, 3: 2, 1: 3, 4: 3} (1 searched)")


def test_check_budget_small_instance():
    inst = catalog_instances()
    emb, match = inst[ConfigKind.DEG_LE_2]
    red = build_reduction(emb, match)
    rep = check_budget(emb, red, 3, 10)
    assert rep.ok
    assert max(rep.certification.max_rejections.values()) <= 9
    ablated = reduction_without_rules(emb.graph, red)
    rep2 = check_budget(emb, ablated, 3, 10, tokens=rep.tokens)
    assert not rep2.ok


def test_check_budget_holds_each_role_to_its_budget():
    inst = catalog_instances()
    for kind in (ConfigKind.DEG_LE_2, ConfigKind.ADJACENT_3S):
        emb, match = inst[kind]
        red = build_reduction(emb, match)
        rep = check_budget(emb, red, 3, 10)
        assert rep.ok
        for t in red.s_order:
            worst = rep.certification.max_rejections[t]
            assert worst <= red.budgets[t]
            tight = replace(red, budgets={**red.budgets, t: worst - 1})
            below = check_budget(emb, tight, 3, 10, tokens=rep.tokens)
            assert below.certification.ok and not below.ok, (kind, t)


def test_suggested_tokens_cover_structural_budget():
    inst = catalog_instances()
    emb, match = inst[ConfigKind.ADJACENT_3S]
    red = build_reduction(emb, match)
    toks = suggested_tokens(emb.graph, red, 3, 10)
    for t in red.s_order:
        assert toks[t] >= structural_budget(red, t) + 1 or toks[t] == 10


def test_unavoidability_on_corpus_sample(toroidal_corpus):
    rng = random.Random(2)
    for emb in rng.sample(toroidal_corpus.embeddings, 50):
        assert find_configs(emb, TORUS_KINDS)


def naive_many_3_nbr_centers(emb):
    """Center -> (e3, e4), each a count of distinct faces through it."""
    g = emb.graph
    out = {}
    threes_by_face = {}
    for f in emb.faces:
        b = f.boundary_vertices()
        threes_by_face[f] = sum(1 for v in b if g.degree(v) == 3)
    for v in g.vertices():
        k = sum(1 for w in g.neighbors(v) if g.degree(w) == 3)
        if k < 2:
            continue
        e3 = sum(1 for f in emb.faces
                 if f.length == 3 and v in f.vertex_set() and threes_by_face[f] >= 1)
        e4 = sum(1 for f in emb.faces
                 if f.length == 4 and v in f.vertex_set() and threes_by_face[f] >= 2)
        if g.degree(v) + k - e3 - e4 < 10:
            out[v] = (e3, e4)
    return out


def naive_four_with_three(g):
    return {frozenset((u, v)) for u, v in g.edges()
            if min(g.degree(u), g.degree(v)) <= 3
            and max(g.degree(u), g.degree(v)) <= 4}


def naive_triangle_and_4vtx_pairs(emb):
    g = emb.graph
    out = set()
    for v in g.vertices():
        if g.degree(v) > 7:
            continue
        if sum(1 for f in emb.faces if f.length == 3 and v in f.vertex_set()) <= 1:
            continue
        threes = {w for w in g.neighbors(v) if g.degree(w) == 3}
        for x in g.neighbors(v):
            if not 3 <= g.degree(x) <= 4:
                continue
            if threes - {x}:
                continue
            out.add((v, x))
    return out


def naive_fan_centers(emb):
    g = emb.graph
    sets3 = {f.vertex_set() for f in emb.faces if f.length == 3}
    out = set()
    for v in g.vertices():
        if not 4 <= g.degree(v) <= 6:
            continue
        rot = emb.rotation[v]
        d = len(rot)
        for i in range(d):
            quad = [rot[(i + j) % d] for j in range(4)]
            if len(set(quad)) != 4:
                continue
            needed = [frozenset({v, quad[j], quad[j + 1]}) for j in range(3)]
            if all(s in sets3 for s in needed):
                # the corner faces must actually be those triangles: the
                # corner after position i is the face through (rot[i], v)
                if all(scan_face_of_dart(emb, (rot[(i + j) % d], v)).vertex_set()
                       == needed[j] for j in range(3)):
                    out.add(v)
    return out


def naive_exp4_shared_edges(emb):
    g = emb.graph
    out = set()
    for u, w in g.edges():
        f1 = scan_face_of_dart(emb, (u, w))
        f2 = scan_face_of_dart(emb, (w, u))
        for f4, f3 in ((f1, f2), (f2, f1)):
            if f4.length != 4 or f3.length != 3 or f4 is f3:
                continue
            b = f4.boundary_vertices()
            pos3 = [i for i in range(4) if g.degree(b[i]) == 3]
            if len(pos3) != 2 or (pos3[1] - pos3[0]) % 4 != 2:
                continue
            if g.degree(u) == 3 or g.degree(w) == 3:
                out.add(frozenset((u, w)))
    return out


def test_remaining_face_detectors_against_naive(toroidal_corpus):
    rng = random.Random(3)
    for emb in rng.sample(toroidal_corpus.embeddings, 40):
        got = {m.role("v"): (m.role("e3"), m.role("e4"))
               for m in find_configs(emb, [ConfigKind.MANY_3_NBRS])}
        assert got == naive_many_3_nbr_centers(emb)
        got = {frozenset((m.role("v1"), m.role("v2")))
               for m in find_configs(emb.graph, [ConfigKind.FOUR_WITH_3_NBR])}
        assert got == naive_four_with_three(emb.graph)
        got = {(m.role("v"), m.role("x"))
               for m in find_configs(emb, [ConfigKind.TRIANGLE_AND_4VTX])}
        assert got == naive_triangle_and_4vtx_pairs(emb)
        got = {m.role("v") for m in find_configs(emb, [ConfigKind.THREE_TRIANGLE_FAN])}
        assert got == naive_fan_centers(emb)
        got = {frozenset((m.role("v"), m.role("u1")))
               for m in find_configs(emb, [ConfigKind.EXP4_MEETS_3FACE])}
        assert got == naive_exp4_shared_edges(emb)


def test_c5_added_edge_reduction_plays_at_r2():
    # the five-cycle's degree-2 configuration: G' gains the edge between the
    # deleted vertex's neighbors, and the composite strategy stays 2-dynamic
    # on every line of the exhaustive game
    g, match = notsubgraph_instance()
    emb = find_embedding(g)
    red = build_reduction(emb, match)
    assert red.added_edges == ((1, 4),)
    rep = check_budget(g, red, 2, 10, tokens={0: 5, 1: 4, 2: 4, 3: 4, 4: 4})
    assert rep.ok
    assert rep.certification.max_rejections[0] <= 4


def test_many_3_neighbors_refuses_edge_into_deleted_vertex():
    # a 5-vertex corpus embedding: the 3-neighbors 0 and 1 of v=2 are adjacent,
    # so x=0 asks for the E' edge 4-1 and 1 is deleted with it
    emb = parse_rotation("rot 5\n0: 1 2 4\n1: 0 2 3\n2: 0 1\n3: 1\n4: 0\n")
    (match,) = find_configs(emb, [ConfigKind.MANY_3_NBRS])
    assert match.roles["xs"] == (0, 1)
    with pytest.raises(ValueError, match="reduce the adjacent 3-vertices first"):
        build_reduction(emb, match)


def brute_bases(g, r, k):
    """Every r-dynamic coloring with <= k colors in first-appearance form,
    vertex by vertex with only properness pruned, judged at the leaf."""
    def rec(coloring):
        v = len(coloring)
        if v == g.n:
            full = dict(enumerate(coloring))
            if verify_r_dynamic(g, full, r).ok:
                yield full
            return
        for c in range(1, min(k, max(coloring, default=0) + 1) + 1):
            if all(coloring[w] != c for w in g.neighbors(v) if w < v):
                yield from rec(coloring + [c])
    return list(rec([]))


def brute_extends(g, coloring, s, r, k):
    if not s:
        return verify_r_dynamic(g, coloring, r).ok
    v = s[0]
    return any(brute_extends(g, {**coloring, v: c}, s[1:], r, k)
               for c in range(1, k + 1)
               if all(coloring.get(w) != c for w in g.neighbors(v)))


def brute_extendable(g, red, r, k):
    """(number of bases, the bases that do not extend), bases in G's labels."""
    inverse = {d: v for v, d in enumerate(red.remap) if d is not None}
    bases = [{inverse[d]: c for d, c in b.items()} for b in brute_bases(red.gprime, r, k)]
    return len(bases), [b for b in bases if not brute_extends(g, b, red.s_order, r, k)]


def assert_matches_brute_force(g, red, r, k):
    count, failing = brute_extendable(g, red, r, k)
    rep = check_extendable(g, red, r, k=k)
    assert rep.extendable == (not failing)
    if rep.extendable:
        assert rep.colorings_checked == count
    else:
        image = red.remap
        base = {image[v]: c for v, c in rep.counterexample.items()}
        assert verify_r_dynamic(red.gprime, base, r).ok
        assert not brute_extends(g, rep.counterexample, red.s_order, r, k)
    return rep


def test_extendability_matches_brute_force_on_catalog():
    for kind, (emb, match) in catalog_instances().items():
        assert_matches_brute_force(emb.graph, build_reduction(emb, match), 3, 10)
    g, match = notsubgraph_instance()
    red = build_reduction(find_embedding(g), match)
    assert_matches_brute_force(g, red, 2, 10).extendable
    assert not assert_matches_brute_force(
        g, reduction_without_added_edges(g, red), 2, 10).extendable


def test_extendability_matches_brute_force_on_random_reductions():
    graph_kinds = (ConfigKind.DEG_LE_2, ConfigKind.ADJACENT_3S,
                   ConfigKind.FOUR_WITH_3_NBR, ConfigKind.LIGHT_TRIANGLE) + KP_KINDS
    rng = random.Random(4)
    verdicts = []
    while len(verdicts) < 60:
        g = random_connected_graph(rng.randrange(4, 8), 0.3, rng)
        matches = find_configs(g, graph_kinds)
        if not matches:
            continue
        try:
            red = build_reduction(g, rng.choice(matches))
        except (ValueError, DynColorError):
            continue
        if rng.random() < 0.5:
            red = reduction_without_added_edges(g, red)
        rep = assert_matches_brute_force(g, red, rng.randrange(1, 4), rng.randrange(2, 6))
        reused = rep.colorings_checked - rep.extensions_searched
        verdicts.append((rep.extendable, reused > 0))
    # a "no" reached after some base took the previous extension's colors
    assert {(True, False), (True, True), (False, True)} <= set(verdicts)


def test_coloring_limit_below_base_count(monkeypatch):
    emb, match = catalog_instances()[ConfigKind.FOUR_WITH_3_NBR]
    red = build_reduction(emb, match)
    count = check_extendable(emb.graph, red, 3, k=10).colorings_checked
    assert count == 27
    monkeypatch.setattr(configs, "EXTEND_MAX_COLORINGS", count)
    assert check_extendable(emb.graph, red, 3, k=10).extendable
    monkeypatch.setattr(configs, "EXTEND_MAX_COLORINGS", count - 1)
    with pytest.raises(BudgetExceeded) as info:
        check_extendable(emb.graph, red, 3, k=10)
    assert str(info.value) == ("more than EXTEND_MAX_COLORINGS=26 base colorings of G': "
                               "13 extensions searched, 13 reused")


def _configs_digest(embs, stride: int) -> str:
    """Hash of every match's render and, for every stride-th match of each
    kind, its reduction: render, G' edges and G' rotation, or the refusal."""
    h = hashlib.sha256()
    for emb in embs:
        seen: dict[ConfigKind, int] = {}
        for m in find_configs(emb):
            h.update(m.render().encode())
            seen[m.kind] = seen.get(m.kind, -1) + 1
            if seen[m.kind] % stride:
                continue
            try:
                red = build_reduction(emb, m)
            except (ValueError, TypeError, DynColorError) as exc:
                h.update(f"{type(exc).__name__}: {exc}".encode())
                continue
            h.update(red.render().encode())
            h.update(repr(sorted(red.gprime_edges)).encode())
            if red.gprime_embedding is not None:
                h.update(emit_rotation(red.gprime_embedding).encode())
    return h.hexdigest()[:16]


def test_configs_and_reductions_output_pinned(toroidal_corpus):
    # hashed before the detectors read degree and corner-length tables and
    # before G' surgery stopped rebuilding graphs from edge lists
    split = split_triangles(lattice_torus(8, 8, SIX_STEPS), 64, random.Random(3))
    assert _configs_digest(toroidal_corpus, 1) == "b8e316ca5b65b109"
    assert _configs_digest([embed_rotation(lattice_torus(20, 20, SIX_STEPS))], 40) == "2e7d41bfa352c81a"
    assert _configs_digest([embed_rotation(lattice_torus(30, 30, SQUARE_STEPS))], 40) == "d0505d270aba9e2b"
    assert _configs_digest([embed_rotation(split)], 1) == "8a8af746ddcd973c"


@pytest.mark.slow
def test_every_match_on_the_lattice_tori_pinned():
    # opt-in (pytest -m slow): every match reduced, not every 40th, in about
    # 9 s and 5 s on 2 CPUs; the values were taken before the surgery worked
    # in G's labels, when the two took 15 s and 9.5 s
    assert _configs_digest([embed_rotation(lattice_torus(20, 20, SIX_STEPS))], 1) == "0ede1bab5ccce42c"
    assert _configs_digest([embed_rotation(lattice_torus(30, 30, SQUARE_STEPS))], 1) == "52dcdd46a5c8502b"
