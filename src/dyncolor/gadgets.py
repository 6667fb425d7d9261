"""Constructed instances: wheel gadgets for the vertex-charge case analysis and
one small certified instance per reducible configuration.

The wheel gadget realizes a center w of prescribed degree whose ring neighbors
have prescribed degrees, with 3-faces exactly at the requested corners; spare
degree is absorbed by pendant vertices placed away from the ring corners.
"""

from __future__ import annotations

from .configs import ConfigKind, ConfigMatch, find_configs
from .embedding import (
    EmbeddedGraph,
    RotationSystem,
    c3c3_torus,
    embed,
    find_embedding,
    trace_faces,
)
from .families import cycle, diamond, octahedron
from .graph import Graph


def wheel_gadget(
    ring_degrees: list[int], triangle_corners: set[int]
) -> tuple[EmbeddedGraph, int]:
    """Center 0 with ring 1..d; corner c in triangle_corners (1-based, between
    ring vertices c and c+1 cyclically) becomes a 3-face.  Returns (emb, center)."""
    d = len(ring_degrees)
    if any(not 1 <= c <= d for c in triangle_corners):
        raise ValueError("corner indices are 1..d")
    ring = list(range(1, d + 1))
    edges = [(0, x) for x in ring]
    for c in triangle_corners:
        a, b = ring[c - 1], ring[c % d]
        edges.append((a, b))
    rotations: dict[int, list[int]] = {0: ring[:]}
    next_id = d + 1
    for i in range(1, d + 1):
        prev_ring = ring[(i - 2) % d]
        next_ring = ring[i % d]
        order: list[int] = []
        if i in triangle_corners:
            order.append(next_ring)
        order.append(0)
        if (i - 1 if i > 1 else d) in triangle_corners:
            order.append(prev_ring)
        want = ring_degrees[i - 1]
        if len(order) > want:
            raise ValueError(f"ring vertex {i} cannot have degree {want}")
        while len(order) < want:
            edges.append((i, next_id))
            rotations[next_id] = [i]
            order.append(next_id)
            next_id += 1
        rotations[i] = order
    g = Graph(next_id, edges)
    emb = trace_faces(RotationSystem(
        g, tuple(tuple(rotations[v]) for v in range(next_id))
    ))
    # faces_at(0)[c - 1] is the corner between ring vertices c and c + 1
    for c, face in enumerate(emb.faces_at(0), start=1):
        if (face.length == 3) != (c in triangle_corners):
            raise AssertionError(f"corner {c}: 3-face is {face.length == 3}")
    return emb, 0


# ---------------------------------------------------------------------------
# one embedded instance per configuration kind


def _star_of_stars() -> EmbeddedGraph:
    # 0 has neighbors 1,2,3,4; vertices 1 and 2 are 3-vertices with leaf pairs
    g = Graph(9, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 7), (2, 8)])
    return find_embedding(g)


def _double_star() -> EmbeddedGraph:
    # 0 has degree 4 with its only 3-neighbor 1; leaves elsewhere
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6)])
    return find_embedding(g)


def _expensive4_with_triangle() -> EmbeddedGraph:
    """A 3-face 0,1,2 sharing edge 0-1 with the 4-face 0,3,4,1; d(0)=d(4)=3,
    the other 4-face corners padded to degree 5."""
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4), (4, 5),
             (1, 6), (1, 7), (3, 8), (3, 9), (3, 10)]
    g = Graph(11, edges)
    rotations = [
        (2, 1, 3),          # 0 = v
        (4, 0, 2, 6, 7),    # 1 = u1
        (1, 0),             # 2 = z
        (0, 4, 8, 9, 10),   # 3 = y
        (3, 1, 5),          # 4 = u2
        (4,), (1,), (1,), (3,), (3,), (3,),
    ]
    return trace_faces(RotationSystem(g, tuple(rotations)))


def _first(matches, pred=lambda m: True) -> ConfigMatch:
    for m in matches:
        if pred(m):
            return m
    raise LookupError("intended match not found")


def catalog_instances() -> dict[ConfigKind, tuple[EmbeddedGraph, ConfigMatch]]:
    """A small embedded instance and the intended match for each torus kind."""
    out: dict[ConfigKind, tuple[EmbeddedGraph, ConfigMatch]] = {}

    c4 = find_embedding(cycle(4))
    out[ConfigKind.DEG_LE_2] = (
        c4, _first(find_configs(c4, [ConfigKind.DEG_LE_2])))

    dia = find_embedding(diamond())
    out[ConfigKind.ADJACENT_3S] = (
        dia, _first(find_configs(dia, [ConfigKind.ADJACENT_3S]),
                    lambda m: "y1" in m.roles))

    sos = _star_of_stars()
    out[ConfigKind.MANY_3_NBRS] = (
        sos, _first(find_configs(sos, [ConfigKind.MANY_3_NBRS]),
                    lambda m: m.role("v") == 0))

    ds = _double_star()
    out[ConfigKind.FOUR_WITH_3_NBR] = (
        ds, _first(find_configs(ds, [ConfigKind.FOUR_WITH_3_NBR]),
                   lambda m: m.role("v1") == 0 and m.role("v2") == 1))

    octa = embed(octahedron(), ((5, 2, 4, 3), (2, 5, 3, 4), (4, 0, 5, 1),
                                (5, 0, 4, 1), (2, 1, 3, 0), (2, 0, 3, 1)))
    out[ConfigKind.LIGHT_TRIANGLE] = (
        octa, _first(find_configs(octa, [ConfigKind.LIGHT_TRIANGLE])))
    out[ConfigKind.TWIN_TRIANGLES] = (
        octa, _first(find_configs(octa, [ConfigKind.TWIN_TRIANGLES])))
    out[ConfigKind.TRIANGLE_AND_4VTX] = (
        octa, _first(find_configs(octa, [ConfigKind.TRIANGLE_AND_4VTX])))
    out[ConfigKind.THREE_TRIANGLE_FAN] = (
        octa, _first(find_configs(octa, [ConfigKind.THREE_TRIANGLE_FAN])))

    e4 = _expensive4_with_triangle()
    out[ConfigKind.EXP4_MEETS_3FACE] = (
        e4, _first(find_configs(e4, [ConfigKind.EXP4_MEETS_3FACE])))

    grid = c3c3_torus()
    out[ConfigKind.ALL4S_QUAD_FACE] = (
        grid, _first(find_configs(grid, [ConfigKind.ALL4S_QUAD_FACE])))
    return out


def notsubgraph_instance() -> tuple[Graph, ConfigMatch]:
    """C5 with its degree-2 configuration at vertex 0 (the r=2 boundary case)."""
    g = cycle(5)
    emb = find_embedding(g)
    match = _first(find_configs(emb, [ConfigKind.DEG_LE_2]),
                   lambda m: m.role("v") == 0)
    return g, match
