"""Named graphs, generators, and small-graph enumeration used across the suite.

The enumeration lists every connected graph on n <= 8 vertices, one per
isomorphism class, told apart by the canonical edge mask that an
individualisation-refinement search finds.
"""

from __future__ import annotations

import random
from itertools import chain, combinations

from .graph import Graph


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(k: int) -> Graph:
    """K_{1,k}: center 0 with k leaves."""
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def wheel(k: int) -> Graph:
    """Hub 0 joined to a k-cycle 1..k."""
    edges = [(0, i) for i in range(1, k + 1)]
    edges += [(i, i % k + 1) for i in range(1, k + 1)]
    return Graph(k + 1, edges)


def diamond() -> Graph:
    """K4 minus one edge; 0,1 are the degree-3 vertices."""
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def cube() -> Graph:
    """Q3; vertex i is the 3-bit string of i, edges between bit-flips."""
    edges = []
    for v in range(8):
        for b in (1, 2, 4):
            if v < v ^ b:
                edges.append((v, v ^ b))
    return Graph(8, edges)


def octahedron() -> Graph:
    """K_{2,2,2}; antipodal pairs (0,1),(2,3),(4,5) are the non-edges."""
    edges = [
        (u, v)
        for u, v in combinations(range(6), 2)
        if not (u // 2 == v // 2)
    ]
    return Graph(6, edges)


def prism() -> Graph:
    """Triangular prism K3 x K2."""
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                     (0, 3), (1, 4), (2, 5)])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]            # outer C5
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]   # inner pentagram
    edges += [(i, 5 + i) for i in range(5)]                 # spokes
    return Graph(10, edges)


def subdivided_k4() -> Graph:
    """K4 with the three edges at one vertex subdivided once.

    Vertex 0 is the subdivided hub; 1,2,3 form the triangle; 4,5,6 are the
    subdivision vertices on the hub edges.  Maximum degree 3, diameter 2.
    """
    edges = [(1, 2), (1, 3), (2, 3)]
    edges += [(0, 4), (4, 1), (0, 5), (5, 2), (0, 6), (6, 3)]
    return Graph(7, edges)


def grid_torus(rows: int, cols: int) -> Graph:
    """Cartesian product C_rows x C_cols; vertex (i,j) has id i*cols + j."""
    edges = set()
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            for ni, nj in ((i, (j + 1) % cols), ((i + 1) % rows, j)):
                w = ni * cols + nj
                if v != w:
                    edges.add((min(v, w), max(v, w)))
    return Graph(rows * cols, edges)


def subdivision(g: Graph) -> Graph:
    """Subdivide every edge of g once."""
    edges = []
    nxt = g.n
    for u, v in g.edges():
        edges.append((u, nxt))
        edges.append((nxt, v))
        nxt += 1
    return Graph(nxt, edges)


# -- generators ----------------------------------------------------------------

def random_tree(n: int, rng: random.Random) -> Graph:
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    return Graph(n, edges)


def random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Random spanning tree plus each non-tree pair independently with prob p."""
    g = random_tree(n, rng)
    edges = set(g.edges())
    for u, v in combinations(range(n), 2):
        if (u, v) not in edges and rng.random() < p:
            edges.add((u, v))
    return Graph(n, edges)


def stacked_triangulation(n: int, rng: random.Random) -> Graph:
    """Random planar stacked triangulation (Apollonian growth) on n >= 3 vertices.

    Start from a triangle; repeatedly pick a face and put a new vertex inside,
    joined to its three corners.  Always planar with minimum degree 3 for n >= 4.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2), (0, 1, 2)]  # inner and outer copies of the start face
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces.pop(i)
        for x in (a, b, c):
            edges.add((min(x, v), max(x, v)))
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return Graph(n, edges)


# -- exhaustive small-graph enumeration ----------------------------------------

def _refined_colours(adj, colour) -> list[int]:
    """Colour refinement from `colour`, whose colours lie below n, repeated
    until no class splits or every vertex has a class of its own.

    A vertex's next colour is the rank of its signature, (colour, multiset of
    neighbour colours), among all signatures, so the colours stay below n; a
    discrete start comes back as it is.  Ranks never look at vertex ids, so
    the ordered partition is isomorphism-invariant whenever the start is;
    the stable one is equitable.
    """
    n = len(adj)
    # a multiset of colours below n, as counts below n in fields this wide
    width = n.bit_length()
    classes = len(set(colour))
    while classes < n:
        weight = [1 << width * c for c in colour]
        sig = [c << width * n | sum(map(weight.__getitem__, a)) for c, a in zip(colour, adj)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = list(map(rank.__getitem__, sig))
        if len(rank) == classes:
            break
        classes = len(rank)
    return colour


def _twin_classes(adj, cell: list[int]) -> list[list[int]]:
    """The cell split into classes of twins, u ~ v iff N(u) - v == N(v) - u,
    each in id order.  Twinship is an equivalence, so a vertex is tested
    against each class's first member only."""
    rows = {v: sum(1 << w for w in adj[v]) for v in cell}
    twins: list[list[int]] = []
    for v in cell:
        for t in twins:
            if rows[t[0]] & ~(1 << v) == rows[v] & ~(1 << t[0]):
                t.append(v)
                break
        else:
            twins.append([v])
    return twins


def _least_mask(adj) -> int:
    """Least upper-triangle edge bitmask over the leaves of an
    individualisation-refinement search (McKay and Piperno, Practical graph
    isomorphism II, 2014).

    A node refines its colouring.  If every cell is one class of twins, the
    node is a leaf, and its mask labels the vertices in colour order, twins
    by id.  Otherwise the search branches on the first cell in rank order
    that holds two or more twin classes: it puts each class's first vertex
    ahead of the rest of the cell, in turn, and recurses.  Every choice is
    isomorphism-invariant, and swapping twins is an automorphism that keeps
    the colouring, so the least leaf mask is a complete invariant.
    """
    n = len(adj)
    edges = [(u, v) for u, a in enumerate(adj) for v in a if u < v]

    def search(colour) -> int:
        colour = _refined_colours(adj, colour)
        if max(colour, default=-1) < n - 1:
            cells: list[list[int]] = [[] for _ in range(max(colour) + 1)]
            for v, c in enumerate(colour):
                cells[c].append(v)
            for cell in cells:
                if len(cell) > 1 and len(twins := _twin_classes(adj, cell)) > 1:
                    # t[0] keeps its colour and every vertex after it in rank
                    # order moves up one: the colours stay dense, below n
                    return min(search([c + (c > colour[t[0]] or c == colour[t[0]] and v != t[0])
                                       for v, c in enumerate(colour)]) for t in twins)
            # every cell is one class of twins: list each in id order
            for i, v in enumerate(chain.from_iterable(cells)):
                colour[v] = i
        mask = 0
        for u, v in edges:
            a, b = colour[u], colour[v]
            mask |= 1 << (a * n + b if a < b else b * n + a)
        return mask

    return search([len(a) for a in adj])


def all_connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n <= 8 vertices, one per isomorphism class.

    Built level by level: deleting a leaf of a spanning tree leaves a
    connected graph, so every connected graph on m + 1 vertices is one on m
    vertices plus a new vertex joined to a nonempty set.  Candidates come
    parent by parent in the level's order, each parent's neighbour masks
    ascending, and the first of each class is kept, so any complete
    invariant gives the same graphs, labels and order.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n == 0:
        return []
    if n > 8:
        raise ValueError("exhaustive enumeration supported only for n <= 8")
    level: list[tuple[tuple[int, ...], ...]] = [((),)]
    for m in range(1, n):
        seen: set[int] = set()
        nxt = []
        for adj in level:
            for mask in range(1, 1 << m):
                h = tuple(a + (m,) if mask >> v & 1 else a for v, a in enumerate(adj))
                h += (tuple(v for v in range(m) if mask >> v & 1),)
                cert = _least_mask(h)
                if cert not in seen:
                    seen.add(cert)
                    nxt.append(h)
        level = nxt
    return [Graph._from_adj(adj) for adj in level]
