"""Seeded input generators owned by the benchmark.

Everything here is plain Python on edge lists and rotation dictionaries, so a
later change to the program's own families or gadgets cannot change what the
benchmark feeds it.  Graphs are handed to the program as graph6 or edge-list
text, embeddings as rotation-system text, exactly as the CLI would read them.
"""

from __future__ import annotations

import random
from itertools import combinations


def graph6(n: int, edges) -> str:
    """graph6 text for a simple graph on 0..n-1 (n <= 62)."""
    if not 0 <= n <= 62:
        raise ValueError("short graph6 form only")
    es = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (u, v) in es else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return bytes([n + 63] + body).decode("ascii")


def graph6_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) from short-form graph6 text."""
    data = text.encode("ascii")
    n = data[0] - 63
    bits = [(b - 63) >> k & 1 for b in data[1:] for k in range(5, -1, -1)]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return n, sorted(p for p, bit in zip(pairs, bits) if bit)


def edge_list_text(edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


def rotation_text(rot: dict[int, list[int]]) -> str:
    n = len(rot)
    return f"rot {n}\n" + "".join(
        f"{v}: {' '.join(map(str, rot[v]))}\n" for v in range(n))


def parse_rotation_text(text: str) -> dict[int, list[int]]:
    """The rotation dictionary of rotation-system text ("rot n", then "v: ..." lines)."""
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    rot = {}
    for line in lines[1:]:
        v, _, rest = line.partition(":")
        rot[int(v)] = [int(w) for w in rest.split()]
    if sorted(rot) != list(range(n)):
        raise ValueError("rotation text does not list every vertex once")
    return rot


def rotation_edges(rot: dict[int, list[int]]) -> list[tuple[int, int]]:
    return sorted((v, w) for v in rot for w in rot[v] if v < w)


# -- named graphs -----------------------------------------------------------------

def cycle_edges(n: int):
    return [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n: int):
    return list(combinations(range(n), 2))


def wheel_edges(k: int):
    """Hub 0 joined to the rim cycle 1..k."""
    return [(0, i) for i in range(1, k + 1)] + [
        (i, i % k + 1) for i in range(1, k + 1)]


def prism_edges():
    return cycle_edges(3) + [(a + 3, b + 3) for a, b in cycle_edges(3)] + [
        (i, i + 3) for i in range(3)]


def subdivide(n: int, edges):
    """Every edge split once, in sorted edge order; subdivision vertices
    follow the originals."""
    out, nxt = [], n
    for u, v in sorted((min(e), max(e)) for e in edges):
        out += [(u, nxt), (nxt, v)]
        nxt += 1
    return nxt, out


def grid_torus_edges(m: int, n: int):
    """C_m x C_n with vertex i*n + j."""
    out = set()
    for i in range(m):
        for j in range(n):
            v = i * n + j
            for w in (i * n + (j + 1) % n, ((i + 1) % m) * n + j):
                out.add((min(v, w), max(v, w)))
    return sorted(out)


# -- seeded random graphs ---------------------------------------------------------

def random_tree_edges(n: int, rng: random.Random):
    return [(i, rng.randrange(i)) for i in range(1, n)]


def random_connected_edges(n: int, p: float, rng: random.Random):
    """A random spanning tree plus each other pair with probability p."""
    edges = {(min(a, b), max(a, b)) for a, b in random_tree_edges(n, rng)}
    for pair in combinations(range(n), 2):
        if pair not in edges and rng.random() < p:
            edges.add(pair)
    return sorted(edges)


def stacked_triangulation_edges(n: int, rng: random.Random):
    """Apollonian growth from a triangle: planar, minimum degree 3 for n >= 4."""
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return sorted(edges)


# -- torus rotation systems -------------------------------------------------------

def triangulated_torus(m: int, n: int) -> dict[int, list[int]]:
    """6-regular triangulation of the torus on an m x n grid (m, n >= 3)."""
    def at(i, j):
        return (i % m) * n + (j % n)
    # lattice directions in angular order: right, up, up-left, left, down,
    # down-right, so consecutive neighbours span a triangle
    steps = ((0, 1), (-1, 0), (-1, -1), (0, -1), (1, 0), (1, 1))
    return {at(i, j): [at(i + di, j + dj) for di, dj in steps]
            for i in range(m) for j in range(n)}


def quadrangulated_torus(m: int, n: int) -> dict[int, list[int]]:
    """C_m x C_n on the torus with every face a square (m, n >= 3)."""
    def at(i, j):
        return (i % m) * n + (j % n)
    steps = ((0, 1), (1, 0), (0, -1), (-1, 0))
    return {at(i, j): [at(i + di, j + dj) for di, dj in steps]
            for i in range(m) for j in range(n)}


def triangles_of(rot: dict[int, list[int]]) -> list[tuple[int, int, int]]:
    """Triangular faces a->b->c under the next-dart rule, each listed once."""
    out = set()
    for a in rot:
        for b in rot[a]:
            rb = rot[b]
            c = rb[(rb.index(a) + 1) % len(rb)]
            rc, ra = rot[c], rot[a]
            if rc[(rc.index(b) + 1) % len(rc)] == a and ra[(ra.index(c) + 1) % len(ra)] == b:
                k = min((a, b, c), (b, c, a), (c, a, b))
                out.add(k)
    return sorted(out)


def face_split(rot: dict[int, list[int]], splits: int, rng: random.Random):
    """Insert `splits` new vertices, each inside a random triangular face and
    joined to its three corners (a stacked 3-vertex)."""
    rot = {v: list(ns) for v, ns in rot.items()}
    faces = triangles_of(rot)
    for _ in range(splits):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        v = len(rot)
        # face a->b->c means c follows a at b, a follows b at c, b follows c at a
        for x, before in ((b, a), (c, b), (a, c)):
            rx = rot[x]
            rx.insert(rx.index(before) + 1, v)
        rot[v] = [b, a, c]
        faces += [(a, b, v), (b, c, v), (c, a, v)]
    return rot
