import random
import tracemalloc
from itertools import combinations
from math import factorial, prod

import pytest

from dyncolor import embedding
from dyncolor.configs import (
    TORUS_KINDS,
    ConfigKind,
    ConfigMatch,
    _assemble,
    build_reduction,
    find_configs,
)
from dyncolor.embedding import (
    Face,
    all_rotation_systems,
    c3c3_torus,
    cofacial,
    embed,
    emit_rotation,
    find_embedding,
    k5_torus,
    k7_torus,
    parse_rotation,
    petersen_torus,
    surgery,
)
from dyncolor.errors import (
    DisconnectedGraph,
    DynColorError,
    EmbeddingSurgeryFailed,
    MalformedRotation,
    NotCofacial,
    ParseError,
    WouldDisconnect,
)
from dyncolor.families import (
    all_connected_graphs,
    complete,
    cube,
    cycle,
    path,
    random_connected_graph,
    random_tree,
    wheel,
)
from dyncolor.graph import Graph, add_edges, delete_vertices, subgraph

from tori import (
    SIX_STEPS,
    SQUARE_STEPS,
    embed_rotation,
    lattice_torus,
    random_embedding,
    split_triangles,
)


def c5_embedding():
    return embed(cycle(5), [(4, 1), (0, 2), (1, 3), (2, 4), (3, 0)])


def test_cycle_two_faces():
    emb = c5_embedding()
    assert emb.genus == 0
    assert emb.face_multiset() == (5, 5)


def test_k4_exhaustive_search_finds_planar():
    # brute force over all rotation systems of K4 reaches F=4
    g = complete(4)
    best = max(len(embed(g, rot).faces) for rot in all_rotation_systems(g))
    assert best == 4
    emb = find_embedding(complete(4))
    assert emb.genus == 0 and emb.face_multiset() == (3, 3, 3, 3)


def test_k5_torus_embedding():
    emb = k5_torus()
    assert emb.genus == 1
    assert len(emb.faces) == 5  # 2 - 2*1 - 5 + 10


def test_k7_and_petersen_named_embeddings():
    assert k7_torus().genus == 1
    assert k7_torus().face_multiset() == (3,) * 14
    assert petersen_torus().genus == 1


def test_dart_partition_and_euler_integrality():
    rng = random.Random(0)
    checked = 0
    while checked < 1000:
        n = rng.randrange(2, 11)
        g = random_connected_graph(n, 0.35, rng)
        emb = random_embedding(g, rng)
        darts = [d for f in emb.faces for d in f.darts]
        assert len(darts) == 2 * g.m
        assert len(set(darts)) == 2 * g.m
        assert emb.genus >= 0
        checked += 1


def test_malformed_rotation_rejected():
    g = cycle(3)
    with pytest.raises(MalformedRotation):
        embed(g, [(1, 1), (0, 2), (1, 0)])
    with pytest.raises(MalformedRotation, match="^rotation has wrong number of vertices$"):
        embed(cycle(4), [(1, 3), (0, 2), (1, 3)])
    with pytest.raises(DisconnectedGraph):
        embed(Graph(4, [(0, 1), (2, 3)]), [(1,), (0,), (3,), (2,)])


def test_embedding_search_refuses_a_disconnected_graph():
    with pytest.raises(DisconnectedGraph, match="embedding search requires a connected graph"):
        find_embedding(Graph(4, [(0, 1), (2, 3)]))


def test_cofacial_c5_and_cube():
    emb = c5_embedding()
    for u in range(5):
        for v in range(u + 1, 5):
            ok, face = cofacial(emb, u, v)
            assert ok and {u, v} <= face.vertex_set()
    # adjacency implies cofaciality everywhere on K4
    emb4 = find_embedding(complete(4))
    assert all(cofacial(emb4, u, v)[0] for u in range(4) for v in range(u + 1, 4))
    # antipodal cube corners share no face in a planar embedding
    embq = find_embedding(cube())
    assert embq.genus == 0
    assert not cofacial(embq, 0, 7)[0]


def test_cofacial_grid_all_pairs():
    # tracing the nine 4-faces shows every vertex pair of C3xC3 is cofacial
    emb = c3c3_torus()
    assert all(f.length == 4 for f in emb.faces)
    for u in range(9):
        for v in range(u + 1, 9):
            assert cofacial(emb, u, v)[0]


def test_add_chord_splits_face():
    emb = c5_embedding()
    out = surgery(emb, (), [(0, 2)]).embedding
    assert out.genus == 0
    assert out.face_multiset() == (3, 4, 5)
    assert sum(f.length for f in out.faces) == 2 * out.graph.m == 12


def test_add_grid_diagonal_keeps_genus():
    emb = c3c3_torus()
    out = surgery(emb, (), [(0, 4)]).embedding  # diagonal of the face 0,1,4,3
    assert out.genus == 1
    assert out.graph.m == 19


def test_add_not_cofacial_raises():
    embq = find_embedding(cube())
    with pytest.raises(NotCofacial):
        surgery(embq, (), [(0, 7)])


def test_induced_embedding_cases():
    # deleting the hub of a wheel leaves the rim cycle with two faces
    w5 = wheel(5)
    emb = find_embedding(w5, max_genus=0)
    assert emb.genus == 0
    out = surgery(emb, {0}).embedding
    assert out.face_multiset() == (5, 5)
    assert out.genus == 0
    # deleting one K5 vertex keeps genus <= 1
    out2 = surgery(k5_torus(), {4}).embedding
    assert out2.graph == complete(4)
    assert out2.genus <= 1
    # degree-1 vertex attached to C4
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    emb3 = find_embedding(g)
    out3 = surgery(emb3, {4}).embedding
    assert out3.graph == cycle(4)
    assert out3.genus == 0


def test_induced_embedding_never_raises_genus():
    rng = random.Random(1)
    for _ in range(60):
        g = random_connected_graph(rng.randrange(4, 9), 0.5, rng)
        emb = random_embedding(g, rng)
        v = rng.randrange(g.n)
        try:
            out = surgery(emb, {v}).embedding
        except WouldDisconnect:
            continue
        assert out.genus <= emb.genus


def test_would_disconnect():
    g = Graph(3, [(0, 1), (1, 2)])
    emb = find_embedding(g)
    with pytest.raises(WouldDisconnect):
        surgery(emb, {1})


def test_surgery_refuses_a_loop_and_an_edge_to_a_deleted_vertex():
    emb = c3c3_torus()
    with pytest.raises(ValueError, match="cannot add a loop"):
        surgery(emb, {0}, [(1, 1)])
    with pytest.raises(ValueError, match="edge 0-4 meets a deleted vertex"):
        surgery(emb, {0}, [(0, 4)])
    # an edge G - S has, or one that E' lists twice, is refused too
    with pytest.raises(ValueError, match="edge 0-1 is already present"):
        surgery(emb, (), [(0, 1)])
    with pytest.raises(ValueError, match="edge 0-4 is already present"):
        surgery(emb, (), [(0, 4), (0, 4)])
    with pytest.raises(ValueError, match="edge 1-2 is already present"):
        surgery(c5_embedding(), (), [(1, 2)])


def test_rotation_format_roundtrip():
    for emb in (c5_embedding(), c3c3_torus(), k5_torus()):
        again = parse_rotation(emit_rotation(emb))
        assert again.rotation == emb.rotation
        assert again.genus == emb.genus


def test_rotation_format_rejects_bad_input():
    with pytest.raises(ParseError):
        parse_rotation("")
    with pytest.raises(ParseError):
        parse_rotation("rot x\n")
    with pytest.raises(ParseError):
        parse_rotation("rot 2\n0: 1 1\n1: 0\n")
    with pytest.raises(MalformedRotation):
        parse_rotation("rot 3\n0: 1\n1: 0 2\n2:\n")
    with pytest.raises(MalformedRotation, match="vertex 1 lists 2 but 2 does not list 1"):
        parse_rotation("rot 3\n0: 1 2\n1: 2 0\n2: 0\n")


def test_an_oversized_rotation_header_is_refused_before_it_sizes_anything():
    # 22 bytes declaring two million vertices, two of them with a line: the
    # rest are isolated, so the file is refused as disconnected, in little
    # memory
    tracemalloc.start()
    try:
        with pytest.raises(DisconnectedGraph, match="requires a connected"):
            parse_rotation("rot 2000000\n0: 1\n1: 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert parse_rotation("rot 1\n").graph.n == 1  # one vertex needs no line


def test_parsed_graph_equals_a_rebuild_from_the_edge_list(toroidal_corpus):
    for emb in toroidal_corpus:
        again = parse_rotation(emit_rotation(emb))
        assert again.graph == Graph(emb.graph.n, emb.graph.edges())
        assert again.rotation == emb.rotation and again.faces == emb.faces


def test_faces_are_canonical_cycles():
    emb = c3c3_torus()
    for f in emb.faces:
        assert f.darts[0] == min(f.darts)


def is_planar(g) -> bool:
    import networkx as nx

    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges())
    return nx.check_planarity(ref)[0]


def test_min_genus_agrees_with_planarity_oracle():
    rng = random.Random(12)
    for _ in range(60):
        g = random_connected_graph(rng.randrange(2, 8), 0.45, rng)
        emb = find_embedding(g)
        assert (emb.genus == 0) == is_planar(g)


def rotation_count(g) -> int:
    return prod(factorial(max(g.degree(v) - 1, 0)) for v in g.vertices())


def test_the_search_returns_the_first_rotation_in_enumeration_order():
    # every graph on <= 7 vertices is toroidal (K7 is), so its minimum genus
    # is 0 when it is planar and 1 otherwise; the search must return the
    # first rotation system within the target, as enumerating them does
    rng = random.Random(7)
    graphs = [g for n in range(1, 7) for g in all_connected_graphs(n)]
    graphs += [random_connected_graph(rng.randrange(2, 8), rng.random(), rng)
               for _ in range(80)]
    checked = 0
    for g in graphs:
        if rotation_count(g) > 20000:
            continue
        lowest = 0 if is_planar(g) else 1
        for max_genus, target in ((1, 1), (None, lowest)):
            want = next(rot for rot in all_rotation_systems(g)
                        if embed(g, rot).genus <= target)
            assert find_embedding(g, max_genus=max_genus).rotation == want
        checked += 1
    assert checked > 150


def test_a_genus_out_of_reach_is_refused():
    # K8 needs 20 faces on the torus, but its 56 darts make at most 18
    # triangles; the bound refuses it before any branching
    assert find_embedding(complete(8), max_genus=1) is None
    assert find_embedding(complete(5), max_genus=0) is None
    assert find_embedding(cycle(4), max_genus=-1) is None
    assert find_embedding(Graph(1), max_genus=0).faces == (Face(()),)
    assert find_embedding(path(2)).face_multiset() == (2,)


def g7_graphs(p):
    return [random_connected_graph(7, p, random.Random(1000 + i)) for i in range(30)]


@pytest.mark.parametrize("p, i", [(0.85, 14), (0.85, 29), (0.95, 29)])
def test_the_graphs_a_local_search_missed_are_toroidal(p, i):
    # a seeded local search returned None on these three, so they dropped
    # out of any corpus built from it; each takes well under a second here
    g = g7_graphs(p)[i]
    emb = find_embedding(g, max_genus=1)
    assert emb.genus == 1 and not is_planar(g)


@pytest.mark.slow
@pytest.mark.parametrize("p", [0.85, 0.95])
def test_every_seeded_g7_graph_is_toroidal(p):
    # opt-in (pytest -m slow): 5 to 9 s per density on 2 CPUs
    for g in g7_graphs(p):
        emb = find_embedding(g, max_genus=1)
        assert emb.genus <= 1
        assert (emb.genus == 0) == is_planar(g)


def scan_face_of_dart(emb, dart):
    return next(f for f in emb.faces if dart in f.darts)


def scan_corner_faces(emb, v):
    # the corner after rotation position i is entered along dart (rot[i], v)
    return [scan_face_of_dart(emb, (a, v)) for a in emb.rotation[v]]


def scan_first_common_face(emb, u, v):
    for f in emb.faces:
        tails = {x for x, _ in f.darts}
        if u in tails and v in tails:
            return f
    return None


def test_face_index_matches_linear_scans(toroidal_corpus):
    rng = random.Random(5)
    # trees and paths have one face that visits most vertices more than once
    trees = [find_embedding(path(n)) for n in range(2, 9)]
    trees += [find_embedding(random_tree(n, rng)) for n in range(3, 13)]
    revisits = 0
    for emb in list(toroidal_corpus) + trees:
        g = emb.graph
        for u, w in g.edges():
            for dart in ((u, w), (w, u)):
                assert emb.face_of_dart(dart) is scan_face_of_dart(emb, dart)
        with pytest.raises(KeyError):
            emb.face_of_dart((0, 0))
        for v in g.vertices():
            corners, scanned = emb.faces_at(v), scan_corner_faces(emb, v)
            assert len(corners) == len(scanned)
            assert all(f is h for f, h in zip(corners, scanned))
            assert set(corners) == {f for f in emb.faces if v in f.vertex_set()}
            revisits += len(set(corners)) < len(corners)
        for u in g.vertices():
            for v in range(u + 1, g.n):
                ok, face = cofacial(emb, u, v)
                want = scan_first_common_face(emb, u, v)
                assert ok == (want is not None) and face is want
    assert revisits > 0


# -- local surgery against a full retrace ------------------------------------


def full_induced_embedding(emb, delete):
    """G - delete with the rotations restricted and every face traced anew."""
    doomed = set(delete)
    g2, remap = delete_vertices(emb.graph, doomed)
    if g2.n == 0 or not g2.is_connected():
        raise WouldDisconnect("deletion disconnects (or empties) the graph")
    rot = tuple(tuple(remap[w] for w in order if w not in doomed)
                for v, order in enumerate(emb.rotation) if v not in doomed)
    return embed(g2, rot), remap


def full_add_cofacial_edge(emb, u, v):
    """uv drawn after the entering darts' tails at u and v on the first common
    face, and every face traced anew."""
    g = emb.graph
    if g.has_edge(u, v):
        return emb
    ok, face = cofacial(emb, u, v)
    if not ok:
        raise NotCofacial(u, v)
    a = next(t for t, h in face.darts if h == u)
    c = next(t for t, h in face.darts if h == v)
    rot = [list(order) for order in emb.rotation]
    rot[u].insert(rot[u].index(a) + 1, v)
    rot[v].insert(rot[v].index(c) + 1, u)
    return embed(Graph(g.n, g.edges() + [(u, v)]), rot)


def full_surgery(emb, delete, add):
    """G - delete + add by full retraces, each edge drawn by
    `full_add_cofacial_edge` with its ends remapped: the oracle for `surgery`."""
    out, remap = full_induced_embedding(emb, delete)
    for u, v in add:
        if u == v:
            raise ValueError("cannot add a loop")
        out = full_add_cofacial_edge(out, remap[u], remap[v])
    return out, remap


def local_surgery(emb, delete, add):
    cut = surgery(emb, delete, add)
    return cut.embedding, cut.remap


def outcome(f, *args):
    """The value of f(*args), or the type of the program error it raised."""
    try:
        return f(*args)
    except (ValueError, DynColorError) as exc:
        return type(exc)


def large_tori():
    split = split_triangles(lattice_torus(8, 8, SIX_STEPS), 64, random.Random(3))
    return [embed_rotation(lattice_torus(20, 20, SIX_STEPS)),
            embed_rotation(lattice_torus(30, 30, SQUARE_STEPS)),
            embed_rotation(split)]


def test_local_surgery_matches_a_full_retrace(toroidal_corpus):
    rng = random.Random(11)
    trees = [find_embedding(path(n)) for n in range(2, 7)]
    trees += [find_embedding(random_tree(n, rng)) for n in range(3, 10)]
    small = list(toroidal_corpus) + trees
    seen = {"n=1": 0, "n=2": 0, "revisit": 0, WouldDisconnect: 0, NotCofacial: 0}
    # delete-then-insert outcomes: drawn, drawn at an end that a face visits
    # twice, and each refusal
    drawn = {"drawn": 0, "revisit": 0, WouldDisconnect: 0, NotCofacial: 0, ValueError: 0}

    def delete(emb, doomed):
        got = outcome(local_surgery, emb, doomed, ())
        assert got == outcome(full_induced_embedding, emb, doomed)
        if isinstance(got, type):
            seen[got] += 1
            return
        seen["n=1"] += got[0].graph.n == 1
        seen["n=2"] += got[0].graph.n == 2
        seen["revisit"] += any(f.boundary_vertices().count(x) > 1
                               for f in emb.faces for x in doomed)

    def delete_then_insert(emb, doomed):
        # one or two E' edges among the neighbours of S, or a loop at one
        near = sorted({w for x in doomed for w in emb.graph.neighbors(x)} - doomed)
        pairs = [e for e in combinations(near, 2) if not emb.graph.has_edge(*e)]
        cases = [rng.sample(pairs, k) for k in (1, 2) if len(pairs) >= k]
        cases += [[(near[0], near[0])]] if near else []
        for add in cases:
            got = outcome(local_surgery, emb, doomed, add)
            assert got == outcome(full_surgery, emb, doomed, add)
            if isinstance(got, type):
                drawn[got] += 1
                continue
            drawn["drawn"] += 1
            out, remap = got
            ends = {remap[x] for e in add for x in e}
            drawn["revisit"] += any(
                f.boundary_vertices().count(x) > 1 for f in out.faces for x in ends)

    def insert_chain(emb, steps):
        for _ in range(steps):
            if emb.graph.n < 2:
                return
            u, v = rng.sample(range(emb.graph.n), 2)
            got = outcome(local_surgery, emb, (), [(u, v)])
            if emb.graph.has_edge(u, v):
                assert got is ValueError  # surgery refuses an edge G has
                continue
            want = outcome(full_add_cofacial_edge, emb, u, v)
            if isinstance(got, type):
                assert got == want
                seen[got] += 1
            else:
                assert got[0] == want
                emb = got[0]

    for emb in small:
        for v in emb.graph.vertices():
            delete(emb, {v})
            delete_then_insert(emb, {v})
        if emb.graph.n > 2:
            for _ in range(3):
                doomed = set(rng.sample(range(emb.graph.n), 2))
                delete(emb, doomed)
                delete_then_insert(emb, doomed)
        insert_chain(emb, 4)
    for emb in large_tori():
        for _ in range(8):
            delete(emb, {rng.randrange(emb.graph.n)})
            doomed = set(rng.sample(range(emb.graph.n), 2))
            delete(emb, doomed)
            delete_then_insert(emb, doomed)
            delete_then_insert(emb, {rng.randrange(emb.graph.n)})
        insert_chain(emb, 4)
        insert_chain(surgery(emb, {0}).embedding, 4)
    assert all(seen.values()), seen
    assert all(drawn.values()), drawn


def first_reductions(emb):
    """The first match of every torus kind in emb, and its reduction or the
    type of the error that refused it."""
    first = {}
    for m in find_configs(emb, TORUS_KINDS):
        first.setdefault(m.kind, m)
    return {kind: (m, outcome(build_reduction, emb, m)) for kind, m in first.items()}


def test_reductions_match_a_full_retrace():
    # the first match of every kind, with G' built from subgraph and
    # add_edges and its embedding from full retraces
    quad = embed_rotation(lattice_torus(30, 30, SQUARE_STEPS))
    split = embed_rotation(split_triangles(lattice_torus(16, 16, SIX_STEPS), 64,
                                           random.Random(1)))
    built = set()
    for emb in (quad, split):
        g = emb.graph
        for kind, (m, red) in first_reductions(emb).items():
            # a reduction equals another build by value, embedding included
            assert red == outcome(build_reduction, emb, m)
            if isinstance(red, type):
                continue
            want = full_surgery(emb, red.s_order, red.added_edges)
            assert (red.gprime_embedding, red.remap) == want
            dense, image = subgraph(g, red.gprime_vertices)
            assert red.remap == image
            assert red.gprime == add_edges(
                dense, [(image[u], image[v]) for u, v in red.added_edges])
            assert red.gprime is red.gprime_embedding.graph
            built.add((kind, bool(red.added_edges)))
    assert len({kind for kind, _ in built}) >= 6
    assert (ConfigKind.ALL4S_QUAD_FACE, False) in built
    assert any(has_added for _, has_added in built)


def test_a_reduction_relabels_no_face_until_its_embedding_is_read(monkeypatch):
    # building a reduction on the 30 x 30 quadrangulation constructs no face
    # of G': the surgery works in G's labels, on the faces S and E' touch;
    # the first read of gprime_embedding relabels them all, once.  Only
    # all-4s-quad-face reduces there, adding no edge, so a deletion that
    # draws a chord of the merged 8-face joins it
    emb = embed_rotation(lattice_torus(30, 30, SQUARE_STEPS))
    built = []

    def counted(darts):
        built.append(darts)
        return Face(darts)

    monkeypatch.setattr(embedding, "Face", counted)
    reds = [red for _, red in first_reductions(emb).values() if not isinstance(red, type)]
    match = ConfigMatch(ConfigKind.DEG_LE_2, {"v": 0})
    reds.append(_assemble(emb.graph, match, (0,), ((1, 29),), {}, {0: 0}, emb))
    assert [bool(red.added_edges) for red in reds] == [False, True] and built == []
    for red in reds:
        out = red.gprime_embedding
        assert red.gprime_embedding is out and len(built) == len(out.faces)
        assert (out, red.remap) == full_surgery(emb, red.s_order, red.added_edges)
        built.clear()


def test_an_added_edge_with_no_common_face_fails_the_surgery():
    # on C4 x C4, deleting (0,2) merges its four squares into one 8-face that
    # passes neither (0,0) nor (2,2), which share no square
    emb = embed_rotation(lattice_torus(4, 4, SQUARE_STEPS))
    match = ConfigMatch(ConfigKind.DEG_LE_2, {"v": 2})
    with pytest.raises(EmbeddingSurgeryFailed, match="E' edge 0-10 not cofacial"):
        _assemble(emb.graph, match, (2,), ((0, 10),), {}, {2: 0}, emb)
    # the diagonal (0,0)-(1,1) of a square still splits it
    red = _assemble(emb.graph, match, (2,), ((0, 5),), {}, {2: 0}, emb)
    du, dv = red.remap[0], red.remap[5]
    out = red.gprime_embedding
    assert red.gprime.has_edge(du, dv)
    assert out.face_of_dart((du, dv)) is not out.face_of_dart((dv, du))
    assert out.genus == emb.genus


def test_an_embedding_search_tests_connectivity_once(monkeypatch):
    # the search tests connectivity once and traces only the rotation it
    # returns: K5 (7,776 rotations) and a dense 7-vertex graph (about 1.8
    # billion) each test it once
    calls = []
    is_connected = Graph.is_connected

    def counted(g):
        calls.append(g.n)
        return is_connected(g)

    monkeypatch.setattr(Graph, "is_connected", counted)
    for g in (complete(5), random_connected_graph(7, 0.85, random.Random(0))):
        calls.clear()
        assert find_embedding(g, max_genus=1).genus == 1
        assert calls == [g.n]


def test_an_embedded_reduction_builds_its_gprime_once(monkeypatch):
    # G' is the surgery's graph, and the surgery tests connectivity once:
    # on deleting S; neither the tracer nor the added edge tests it again
    emb = embed_rotation(lattice_torus(4, 4, SQUARE_STEPS))
    match = ConfigMatch(ConfigKind.DEG_LE_2, {"v": 2})
    calls = []
    is_connected = Graph.is_connected

    def counted(g):
        calls.append(g.n)
        return is_connected(g)

    monkeypatch.setattr(Graph, "is_connected", counted)
    red = _assemble(emb.graph, match, (2,), ((0, 5),), {}, {2: 0}, emb)
    assert calls == [15]
    assert red.gprime is red.gprime_embedding.graph
    assert red.added_edges == ((0, 5),)


def test_surgery_builds_no_graph_from_an_edge_list(monkeypatch):
    # G' comes from filtered and patched adjacency rows, on an embedding and
    # on a bare graph alike: Graph.__init__ never runs
    emb = embed_rotation(lattice_torus(6, 6, SQUARE_STEPS))
    match = ConfigMatch(ConfigKind.DEG_LE_2, {"v": 2})
    built = []
    init = Graph.__init__

    def counted(g, n, edges=()):
        built.append(n)
        init(g, n, edges)

    monkeypatch.setattr(Graph, "__init__", counted)
    for target in (emb, None):
        red = _assemble(emb.graph, match, (2, 20), ((0, 7), (1, 8), (7, 0)), {}, {2: 0}, target)
        assert red.added_edges == ((0, 7), (1, 8))
        assert red.gprime.m == emb.graph.m - 8 + 2
    assert built == []


def test_corner_lengths_equal_the_faces_at_each_corner(toroidal_corpus):
    rng = random.Random(8)
    embs = list(toroidal_corpus)
    # random rotations of dense graphs land at genus 2 and above
    for n in (6, 7, 8, 9):
        embs += [random_embedding(random_connected_graph(n, 0.8, rng), rng)
                 for _ in range(10)]
    # a path's one face visits each inner vertex twice
    embs += [find_embedding(path(5)), find_embedding(random_tree(9, rng))]
    assert max(emb.genus for emb in embs) >= 2
    revisits = 0
    for emb in embs:
        assert len(emb.corner_lengths) == emb.graph.n
        for v in emb.graph.vertices():
            at_v = emb.faces_at(v)
            assert emb.corner_lengths[v] == tuple(f.length for f in at_v)
            revisits += len(set(at_v)) < len(at_v)
    assert revisits > 0
