"""Torus embeddings built from explicit rotations, shared by the test modules:
the six-regular triangulation and C_m x C_n quadrangulation of the m x n
lattice, and triangulations refined by splitting faces; and seeded random
rotation systems of any graph."""

import random

from dyncolor.embedding import RotationSystem, embed
from dyncolor.graph import Graph

SIX_STEPS = ((0, 1), (-1, 0), (-1, -1), (0, -1), (1, 0), (1, 1))
SQUARE_STEPS = ((0, 1), (1, 0), (0, -1), (-1, 0))


def lattice_torus(m: int, n: int, steps) -> list[tuple[int, ...]]:
    """Rotation of the m x n torus lattice whose neighbors follow `steps`:
    SIX_STEPS gives the six-regular triangulation, SQUARE_STEPS C_m x C_n."""
    return [tuple(((i + di) % m) * n + (j + dj) % n for di, dj in steps)
            for i in range(m) for j in range(n)]


def split_triangles(rot, splits: int, rng: random.Random) -> list[tuple[int, ...]]:
    """Put a new vertex inside `splits` random triangles, joined to the corners.

    A face a->b->c has c after a at b, a after b at c and b after c at a; the
    new vertex goes right after those predecessors, with rotation (b, a, c).
    """
    faces = [tuple(u for u, _ in f.darts) for f in embed_rotation(rot).faces]
    rot = [list(r) for r in rot]
    for _ in range(splits):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        v = len(rot)
        for x, before in ((b, a), (c, b), (a, c)):
            rot[x].insert(rot[x].index(before) + 1, v)
        rot.append([b, a, c])
        faces += [(a, b, v), (b, c, v), (c, a, v)]
    return [tuple(r) for r in rot]


def embed_rotation(rot):
    edges = [(v, w) for v in range(len(rot)) for w in rot[v] if v < w]
    return embed(Graph(len(rot), edges), rot)



def random_rotation(g: Graph, rng: random.Random) -> RotationSystem:
    """A rotation system with each vertex's neighbours in seeded random order."""
    rot = []
    for v in range(g.n):
        order = list(g.neighbors(v))
        rng.shuffle(order)
        rot.append(tuple(order))
    return RotationSystem(g, tuple(rot))
