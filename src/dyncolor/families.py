"""Named graphs, generators, and small-graph enumeration used across the suite."""

from __future__ import annotations

import random
from itertools import chain, combinations, groupby, permutations, product

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

def _certificate(g: Graph) -> int:
    """Least edge bitmask over the relabelings that sort vertices by degree.

    Constraining the images to a degree-sorted order keeps the certificate
    isomorphism-invariant while shrinking the permutation set to the product
    of the degree-class symmetric groups.
    """
    n = g.n
    order = sorted(range(n), key=lambda v: -g.degree(v))
    classes = [tuple(c) for _, c in groupby(order, key=g.degree)]
    edges = g.edges()
    best = None
    for perms in product(*(permutations(c) for c in classes)):
        image = {v: i for i, v in enumerate(chain.from_iterable(perms))}
        mask = 0
        for u, v in edges:
            a, b = sorted((image[u], image[v]))
            mask |= 1 << (a * n + b)
        if best is None or mask < best:
            best = mask
    return best


def all_connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n <= 6 vertices, one per isomorphism class.

    Built level by level: deleting a leaf of a spanning tree leaves a
    connected graph, so every connected graph on m + 1 vertices is one on m
    vertices plus a new vertex joined to a nonempty set.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n == 0:
        return []
    if n > 6:
        raise ValueError("exhaustive enumeration supported only for n <= 6")
    level = [Graph(1)]
    for m in range(1, n):
        seen: set[int] = set()
        nxt = []
        for g in level:
            for mask in range(1, 1 << m):
                h = Graph(m + 1, g.edges() + [(v, m) for v in range(m) if mask >> v & 1])
                cert = _certificate(h)
                if cert not in seen:
                    seen.add(cert)
                    nxt.append(h)
        level = nxt
    return level
