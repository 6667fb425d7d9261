"""Combinatorial (orientable) embeddings as rotation systems.

A rotation system lists each vertex's neighbors in clockwise order.  Faces are
traced with the next-dart rule: after dart (u -> v), turn to (v -> w) where w is
the successor of u in the rotation at v.  The Euler genus of the traced
embedding is (2 - V + E - F) / 2.

Every face lookup (the face of a dart, the faces at the corners of a vertex,
a common face of two vertices) goes through one dart -> face index, built on
an embedding's first lookup.  `corner_lengths` tabulates, once, the length of
the face at every corner, for callers that need only lengths.

`embed(g, rotation)` is the one way in for rows from outside: it tests
that g is connected and each row a permutation of its neighbourhood, then
walks every dart.  Surgery is local, in G's own labels: `surgery` deletes
vertices and draws new edges in faces, retracing only the faces through the
deleted vertices and those the edges split, and relabels the result when it
is first read.  It is the one way to change an embedding; it refuses a
loop, an edge to a deleted vertex and an edge already present.  One walk
serves it and `embed`.

`find_embedding` is an exact branch and bound over partial rotations (after
Brinkmann, arXiv:2005.13066), exponential in the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, permutations, product

from .errors import (
    DisconnectedGraph,
    MalformedRotation,
    NotCofacial,
    ParseError,
    WouldDisconnect,
)
from .graph import Graph, add_edges, delete_vertices, payload_lines

Dart = tuple[int, int]


@dataclass(frozen=True)
class Face:
    """Closed boundary walk, stored as its lexicographically least dart rotation."""

    darts: tuple[Dart, ...]

    @property
    def length(self) -> int:
        return len(self.darts)

    def boundary_vertices(self) -> tuple[int, ...]:
        """Vertex sequence along the walk (tails of the darts), with repeats."""
        return tuple(u for u, _ in self.darts)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(u for u, _ in self.darts)


def _canonical_cycle(darts: list[Dart]) -> tuple[Dart, ...]:
    k = darts.index(min(darts))
    return tuple(darts[k:] + darts[:k])


@dataclass(frozen=True)
class EmbeddedGraph:
    """A connected graph drawn on an orientable surface: `rotation[v]` lists
    v's neighbours clockwise, `faces` are the boundary walks it traces, in
    order of their least darts, and `genus` is the surface's."""

    graph: Graph
    rotation: tuple[tuple[int, ...], ...]
    faces: tuple[Face, ...]
    genus: int

    @cached_property
    def _face_index(self) -> dict[Dart, int]:
        """Position in `faces` of the face through each dart."""
        return {d: i for i, f in enumerate(self.faces) for d in f.darts}

    def face_of_dart(self, dart: Dart) -> Face:
        """The face whose boundary walk uses dart; KeyError for a non-dart."""
        return self.faces[self._face_index[dart]]

    def faces_at(self, v: int) -> tuple[Face, ...]:
        """Face at each corner of v in rotation order: corner i, between
        rotation positions i and i+1, is the face entering v along dart
        (rotation[v][i], v)."""
        return tuple(self.face_of_dart((a, v)) for a in self.rotation[v])

    @cached_property
    def corner_lengths(self) -> tuple[tuple[int, ...], ...]:
        """The length of the face at each corner of each vertex, in
        `faces_at` order: corner_lengths[v][i] == faces_at(v)[i].length."""
        index = self._face_index
        length = [len(f.darts) for f in self.faces]
        return tuple(tuple([length[index[a, v]] for a in order])
                     for v, order in enumerate(self.rotation))

    def face_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(f.length for f in self.faces))


def _euler_genus(n: int, m: int, faces: int) -> int:
    euler = n - m + faces
    if euler > 2 or euler % 2 != 0:
        raise MalformedRotation(f"impossible Euler characteristic {euler}")
    return (2 - euler) // 2


def _walk(start: Dart, rotation, succ_at: list) -> tuple[Dart, ...]:
    """The canonical boundary walk through start; succ_at caches each row's
    successor map, or holds None."""
    walk: list[Dart] = []
    dart = start
    while True:
        walk.append(dart)
        u, v = dart
        succ = succ_at[v]
        if succ is None:
            order = rotation[v]
            succ = succ_at[v] = dict(zip(order, order[1:] + order[:1]))
        dart = (v, succ[u])
        if dart == start:
            return _canonical_cycle(walk)


def embed(g: Graph, rotation) -> EmbeddedGraph:
    """g drawn by `rotation`, one clockwise neighbour order per vertex: every
    face, by walking each dart, and the genus.  g must be connected and
    non-empty, and each order a permutation of its vertex's neighbourhood."""
    if not g.is_connected() or g.n == 0:
        raise DisconnectedGraph("face tracing requires a connected, non-empty graph")
    return _trace(g, tuple(map(tuple, rotation)))


def _trace(g: Graph, rotation: tuple[tuple[int, ...], ...]) -> EmbeddedGraph:
    """`embed` once g is known to be connected and non-empty."""
    if len(rotation) != g.n:
        raise MalformedRotation("rotation has wrong number of vertices")
    for v in range(g.n):
        if sorted(rotation[v]) != list(g.adj[v]):
            raise MalformedRotation(
                f"rotation at {v} is not a permutation of its neighborhood"
            )
    if g.n == 1:
        # a lone vertex on the sphere: one face with an empty boundary walk
        return EmbeddedGraph(g, rotation, (Face(()),), 0)
    succ_at: list[dict[int, int] | None] = [None] * g.n
    traced: set[Dart] = set()
    faces = []
    for u, order in enumerate(rotation):
        for v in order:
            if (u, v) not in traced:
                walk = _walk((u, v), rotation, succ_at)
                traced.update(walk)
                faces.append(Face(walk))
    faces.sort(key=lambda f: f.darts)
    return EmbeddedGraph(g, rotation, tuple(faces), _euler_genus(g.n, g.m, len(faces)))


def cofacial(emb: EmbeddedGraph, u: int, v: int) -> tuple[bool, Face | None]:
    """Whether some face boundary visits both u and v; returns a witness face."""
    if u == v:
        raise ValueError("cofacial requires distinct vertices")
    rot, index = emb.rotation, emb._face_index
    common = ({index[(a, u)] for a in rot[u]}
              & {index[(a, v)] for a in rot[v]})
    if not common:
        return False, None
    # the first common face in `faces` order: an added edge splits it
    return True, emb.faces[min(common)]


class Surgery:
    """G' = G - delete + add on G's surface, held in G's labels: `graph`,
    `remap` and `genus` are G''s, and `embedding`, relabelled, is built on
    first read.  Two surgeries are equal when their embeddings are."""

    def __init__(self, emb, graph, remap, rows, gone, walks, genus):
        self._emb, self._rows, self._gone, self._walks = emb, rows, gone, walks
        self.graph, self.remap, self.genus = graph, remap, genus

    @cached_property
    def embedding(self) -> EmbeddedGraph:
        image = self.remap
        rot = tuple(tuple([image[w] for w in row])
                    for v, row in enumerate(self._rows) if image[v] is not None)
        # the remap is monotone: the walks keep their least darts and order
        walks = sorted([f.darts for i, f in enumerate(self._emb.faces)
                        if i not in self._gone] + list(self._walks.values()))
        faces = tuple(Face(tuple([(image[u], image[v]) for u, v in w])) for w in walks)
        return EmbeddedGraph(self.graph, rot, faces, self.genus)

    def __eq__(self, other) -> bool:
        return isinstance(other, Surgery) and self.embedding == other.embedding


def surgery(emb: EmbeddedGraph, delete=(), add=()) -> Surgery:
    """emb restricted to G - delete, then each added edge, new to G - delete
    and to the edges before it, drawn in the first face common to its ends,
    after the tails of the darts entering them at their first visits.  Only
    the faces through deleted vertices and those the edges split are
    retraced; every other face is found in emb's dart index.  The remap is
    monotone, so least darts, the face order and the first common face are
    the same in G's labels as in G''s."""
    doomed = set(delete)
    g2, image = delete_vertices(emb.graph, doomed)
    if g2.n == 0 or not g2.is_connected():
        raise WouldDisconnect("deletion disconnects (or empties) the graph")
    faces, index, m = emb.faces, emb._face_index, g2.m
    rows = list(emb.rotation)
    changed = {w for x in doomed for w in rows[x] if w not in doomed}
    gone = {index[w, x] for x in doomed for w in rows[x]}
    for w in changed:
        rows[w] = tuple([a for a in rows[w] if a not in doomed])
    # the faces that are not faces of emb, by least dart, and the face of
    # each of their darts
    walks: dict[Dart, tuple[Dart, ...]] = {}
    face_of: dict[Dart, tuple[Dart, ...]] = {}
    succ_at: list[dict[int, int] | None] = [None] * len(rows)

    def retrace(start: Dart) -> tuple[Dart, ...]:
        walk = _walk(start, rows, succ_at)
        walks[walk[0]] = walk
        face_of.update(dict.fromkeys(walk, walk))
        return walk

    for i in gone:
        for d in faces[i].darts:
            if d not in face_of and d[0] not in doomed and d[1] not in doomed:
                retrace(d)
    if g2.n == 1:
        walks[()] = ()  # a lone vertex on the sphere: one face, no darts
    genus = _euler_genus(g2.n, m, len(faces) - len(gone) + len(walks))
    if genus > emb.genus:
        raise AssertionError("induced embedding raised genus")

    def face_at(d: Dart) -> tuple[Dart, ...]:
        return face_of.get(d) or faces[index[d]].darts

    for u, v in add:
        if u == v:
            raise ValueError("cannot add a loop")
        if image[u] is None or image[v] is None:
            raise ValueError(f"edge {u}-{v} meets a deleted vertex")
        if v in rows[u]:
            raise ValueError(f"edge {u}-{v} is already present")
        common = ({face_at((a, u))[0] for a in rows[u]}
                  & {face_at((c, v))[0] for c in rows[v]})
        if not common:
            raise NotCofacial(u, v)
        face = face_at(min(common))
        if walks.pop(face[0], None) is None:
            gone.add(index[face[0]])
        for x, y in ((u, v), (v, u)):
            k = rows[x].index(next(t for t, h in face if h == x)) + 1
            rows[x] = rows[x][:k] + (y,) + rows[x][k:]
            succ_at[x] = None
            changed.add(x)
        # the face splits in two, one through each new dart, and the genus
        # check fails if it does not
        if (v, u) not in retrace((u, v)):
            retrace((v, u))
        m += 1
        if _euler_genus(g2.n, m, len(faces) - len(gone) + len(walks)) != genus:
            raise AssertionError("face split changed genus; corner bookkeeping bug")
    gprime = add_edges(g2, [(image[u], image[v]) for u, v in add]) if add else g2
    for w in changed:
        if sorted(image[a] for a in rows[w]) != list(gprime.adj[image[w]]):
            raise MalformedRotation(
                f"rotation at {image[w]} is not a permutation of its neighborhood")
    return Surgery(emb, gprime, image, rows, gone, walks, genus)


# -- rotation-system search ------------------------------------------------------

def all_rotation_systems(g: Graph):
    """The rows of every rotation system of g, one per choice of cyclic
    orders: each vertex keeps its least neighbour first and runs through
    `permutations` of the rest, the last vertex fastest."""
    return product(*[[order[:1] + rest for rest in permutations(order[1:])]
                     for order in g.adj])


def _first_rotation(g: Graph, genus: int) -> tuple[tuple[int, ...], ...] | None:
    """The first rotation in `all_rotation_systems` order of genus at most
    `genus`, or None.

    Vertices take their orders by id, one neighbour at a time in that order;
    placing b after a at v links dart a -> v to v -> b.  Links close faces and join the other
    darts into chains, and each open face will be one or more chains.  On 3+
    vertices every face has 3+ darts (with fewer, no order is chosen), so a
    branch is cut when its closed faces, plus one per chain of 3+ darts and
    one per group of shorter chains with 3+ darts, fall short of the
    2 - 2·genus - V + E faces of that genus.
    """
    n = g.n
    need = 2 - 2 * genus - n + g.m
    dart = {d: i for i, d in enumerate((v, w) for v in range(n) for w in g.adj[v])}
    # a chain is kept at its ends: first[e] starts the chain ending with dart
    # e, last[s] ends the one starting with s, and size[s] counts its darts;
    # tally holds the closed faces (a lone vertex has one, with no darts),
    # then the chains of 1, 2 and 3+ darts
    first, last, size = list(range(len(dart))), list(range(len(dart))), [1] * len(dart)
    tally = [int(n == 1), len(dart), 0, 0]

    def link(a: int, v: int, b: int) -> None:
        head, s = first[dart[a, v]], dart[v, b]
        x, y = size[head], size[s]
        tally[min(x, 3)] -= 1
        if head == s:
            tally[0] += 1
        else:
            tally[min(y, 3)] -= 1
            tally[min(x + y, 3)] += 1
            tail = last[s]
            last[head], first[tail], size[head] = tail, head, x + y

    def feasible() -> bool:
        closed, ones, twos, longs = tally
        return closed + longs + min((2 * twos + ones) // 3, (twos + ones) // 2) >= need

    rot = [list(order[:1]) for order in g.adj]
    free = [list(order[1:]) for order in g.adj]
    for v, order in enumerate(g.adj):  # orders of degree <= 2 are forced
        if len(order) <= 2:
            rot[v], free[v] = list(order), []
            for a, b in zip(order, order[1:] + order[:1]):
                link(a, v, b)
    # slot k places one more neighbour of vertex slots[k]: it tries the free
    # ones in increasing order, tried[k] counts those tried so far, and
    # saved[k] is the chain state before the first
    slots = [v for v in range(n) for _ in free[v]]
    tried, saved = [0] * len(slots), [None] * len(slots)
    k = 0 if feasible() else -1
    while 0 <= k < len(slots):
        v, i = slots[k], tried[k]
        opts = free[v]
        if i:  # take back the neighbour placed here last
            opts.insert(i - 1, rot[v].pop())
            first[:], last[:], size[:], tally[:] = saved[k]
        else:
            saved[k] = first[:], last[:], size[:], tally[:]
        if i == len(opts):
            tried[k] = 0
            k -= 1
            continue
        b = opts.pop(i)
        tried[k] = i + 1
        link(rot[v][-1], v, b)
        rot[v].append(b)
        if not opts:  # the order is complete: b is followed by the first
            link(b, v, rot[v][0])
        if feasible():
            k += 1
    return tuple(map(tuple, rot)) if k >= 0 else None


def find_embedding(g: Graph, *, max_genus: int | None = None,
                   seed: int = 0) -> EmbeddedGraph | None:
    """The first embedding in `all_rotation_systems` order of genus at most
    max_genus, or None; with max_genus=None, the first of minimum genus,
    found by trying genus 0, 1, 2, ... in turn.

    Exact and deterministic, but exponential in the worst case: C4 x C4 at
    max_genus=None takes about 40 s.  `seed` is unused, kept for callers.
    """
    if not g.is_connected() or g.n == 0:
        raise DisconnectedGraph("embedding search requires a connected graph")
    for genus in count() if max_genus is None else (max_genus,):
        rot = _first_rotation(g, genus)
        if rot is not None:
            return _trace(g, rot)
    return None


# -- rotation-system text format --------------------------------------------------

def parse_rotation(text: str) -> EmbeddedGraph:
    lines = payload_lines(text)
    header, off = next(lines, (None, 0))
    if header is None:
        raise ParseError("empty rotation file", 0)
    parts = header.split()
    if len(parts) != 2 or parts[0] != "rot":
        raise ParseError("expected header 'rot <n>'", off)
    try:
        n = int(parts[1])
    except ValueError:
        raise ParseError("bad vertex count in header", off)
    if n <= 0:
        raise ParseError("vertex count must be positive", off)
    orders: dict[int, list[int]] = {}
    # the neighbours each vertex lists, as a set, for the symmetry check
    listed: dict[int, set[int]] = {}
    for line, off in lines:
        if ":" not in line:
            raise ParseError("expected '<v>: w1 w2 ...'", off)
        head, _, tail = line.partition(":")
        try:
            v = int(head.strip())
            nbrs = list(map(int, tail.split()))
        except ValueError:
            raise ParseError("non-integer vertex id", off)
        if not 0 <= v < n:
            raise ParseError(f"vertex {v} out of range", off)
        if v in orders:
            raise ParseError(f"duplicate line for vertex {v}", off)
        listed[v] = set(nbrs)
        if len(listed[v]) != len(nbrs):
            raise ParseError(f"repeated neighbor at vertex {v}", off)
        if v in listed[v]:
            raise ParseError(f"loop at vertex {v}", off)
        if nbrs and (min(nbrs) < 0 or max(nbrs) >= n):
            raise ParseError(f"neighbor out of range at vertex {v}", off)
        orders[v] = nbrs
    for v in sorted(orders):
        for w in orders[v]:
            if v not in listed.get(w, ()):
                raise MalformedRotation(
                    f"vertex {v} lists {w} but {w} does not list {v}")
    # the orders are symmetric, so a vertex without a line is isolated: with
    # more than one vertex the graph is disconnected, refused here before the
    # header's n sizes anything
    if n > max(1, len(orders)):
        raise DisconnectedGraph("face tracing requires a connected, non-empty graph")
    rotation = tuple(tuple(orders.get(v, ())) for v in range(n))
    # the orders are checked loop-free, repeat-free, in range and symmetric
    g = Graph._from_adj(tuple(tuple(sorted(order)) for order in rotation))
    return embed(g, rotation)


def emit_rotation(emb: EmbeddedGraph) -> str:
    lines = [f"rot {emb.graph.n}"]
    for v in range(emb.graph.n):
        lines.append(f"{v}: " + " ".join(str(w) for w in emb.rotation[v]))
    return "\n".join(lines) + "\n"


# -- known toroidal embeddings ------------------------------------------------------

def c3c3_torus() -> EmbeddedGraph:
    """C3 x C3 quadrangulation of the torus: 9 vertices, 9 square faces."""
    from .families import grid_torus

    # each vertex's neighbours to the right, below, to the left and above
    rot = [(i * 3 + (j + 1) % 3, (i + 1) % 3 * 3 + j, i * 3 + (j + 2) % 3, (i + 2) % 3 * 3 + j)
           for i in range(3) for j in range(3)]
    emb = embed(grid_torus(3, 3), rot)
    if emb.genus != 1 or emb.face_multiset() != (4,) * 9:
        raise AssertionError("C3xC3 torus rotation is wrong")
    return emb


def k7_torus() -> EmbeddedGraph:
    """Triangular embedding of K7 on the torus (14 triangles)."""
    from .families import complete

    g = complete(7)
    rot = tuple(
        tuple((i + d) % 7 for d in (1, 3, 2, 6, 4, 5))
        for i in range(7)
    )
    emb = embed(g, rot)
    if emb.genus != 1:
        raise AssertionError("K7 torus rotation is wrong")
    return emb


def k5_torus() -> EmbeddedGraph:
    """A genus-1 embedding of K5 (5 faces)."""
    from .families import complete

    return find_embedding(complete(5), max_genus=1)  # K5 is not planar


def petersen_torus() -> EmbeddedGraph:
    """A genus-1 embedding of the Petersen graph (5 faces)."""
    from .families import petersen

    return find_embedding(petersen(), max_genus=1)  # nor is Petersen
