"""Reducible-configuration catalog: detection, reduction construction, and
certification of extendability (on the exact coloring search) and of
rejection budgets (against the exhaustive adversary).

The first ten kinds target 3-dynamic 10-paintability on the torus; the three
KP kinds target 2-dynamic 4-paintability of sparse graphs.  Each kind is
stated once, by its `CATALOG` entry: detector, builder, role budgets, and
whether it reads faces.  Detectors match
the catalog statements; they read degrees from one list per call, face
lengths at a vertex's corners from the embedding's `corner_lengths` table,
and faces through its dart -> face index (`face_of_dart`, `faces_at`) only
where a match needs them.  Reduction builders transcribe the proof
constructions as data: the deletion set S with each vertex's role, the added
edges E', the per-vertex rejection triggers and any roles they derive;
`build_reduction` reads the budgets of the roles from the catalog and
assembles G' = G - S + E'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Callable

from .coloring import Searcher, verify_r_dynamic
from .embedding import EmbeddedGraph, Surgery, surgery
from .errors import (
    BudgetExceeded,
    EmbeddingRequired,
    EmbeddingSurgeryFailed,
    NotCofacial,
    WouldDisconnect,
)
from .graph import Graph, VertexRemap, add_edges, delete_vertices
from .paintgame import (
    CertificationReport,
    RejectionRule,
    dull_rule,
    run_gprime_first,
    xp_r_number,
)


class ConfigKind(Enum):
    DEG_LE_2 = "deg<=2"
    ADJACENT_3S = "adjacent-3s"
    MANY_3_NBRS = "many-3-neighbors"
    FOUR_WITH_3_NBR = "4-with-3-neighbor"
    LIGHT_TRIANGLE = "light-triangle"
    TWIN_TRIANGLES = "twin-triangles"
    TRIANGLE_AND_4VTX = "triangle-and-4-vertex"
    THREE_TRIANGLE_FAN = "three-triangle-fan"
    EXP4_MEETS_3FACE = "expensive-4-meets-3-face"
    ALL4S_QUAD_FACE = "all-4s-quad-face"
    KP_PENDANT = "kp-pendant"
    KP_TWO_TWO = "kp-two-two"
    KP_THREE_WITH_TWOS = "kp-three-with-twos"

    @property
    def target(self) -> tuple[int, int]:
        """(r, k) the kind certifies."""
        if self in KP_KINDS:
            return (2, 4)
        return (3, 10)


# The enum's order is behaviour: the driver reports the first torus kind with
# a match, and the KP peel ranks its steps by kind.
KP_KINDS = tuple(kind for kind in ConfigKind if kind.name.startswith("KP_"))
TORUS_KINDS = tuple(kind for kind in ConfigKind if kind not in KP_KINDS)


@dataclass(frozen=True)
class ConfigMatch:
    kind: ConfigKind
    roles: dict

    def role(self, name: str):
        return self.roles[name]

    def render(self) -> str:
        parts = []
        for name, val in self.roles.items():
            if isinstance(val, int):
                parts.append(f"{name}={val}")
            else:
                parts.append(f"{name}=({','.join(map(str, val))})")
        return f"{self.kind.value}: " + " ".join(parts)


# ---------------------------------------------------------------------------
# detectors: each reads the degrees once, as a list, and the face lengths at
# the corners of a vertex from `corner_lengths`


def _detect_deg_le_2(g: Graph):
    out = []
    for v in g.vertices():
        nbrs = g.neighbors(v)
        if len(nbrs) == 0:
            out.append(ConfigMatch(ConfigKind.DEG_LE_2, {"v": v, "nbrs": ()}))
        elif len(nbrs) == 1:
            out.append(ConfigMatch(ConfigKind.DEG_LE_2,
                                   {"v": v, "u": nbrs[0], "nbrs": nbrs}))
        elif len(nbrs) == 2:
            out.append(ConfigMatch(ConfigKind.DEG_LE_2,
                                   {"v": v, "y": nbrs[0], "z": nbrs[1], "nbrs": nbrs}))
    return out


def _detect_adjacent_3s(g: Graph):
    adj = g.adj
    deg = [len(a) for a in adj]
    out = []
    for u, row in enumerate(adj):
        if deg[u] > 3:
            continue
        for v in row:
            if v > u and deg[v] <= 3:
                roles = {"v1": u, "v2": v}
                if deg[u] == 3 and deg[v] == 3:
                    y1, z1 = (w for w in row if w != v)
                    y2, z2 = (w for w in adj[v] if w != u)
                    roles.update({"y1": y1, "z1": z1, "y2": y2, "z2": z2})
                out.append(ConfigMatch(ConfigKind.ADJACENT_3S, roles))
    return out


def _detect_many_3_nbrs(emb: EmbeddedGraph):
    g = emb.graph
    deg = [len(a) for a in g.adj]
    rotation = emb.rotation.rotation
    out = []
    for v, order in enumerate(rotation):
        xs = [x for x in order if deg[x] == 3]
        k = len(xs)
        if k < 2:
            continue
        # expensive faces at v, each counted once: a 4-face can visit v twice
        e3 = e4 = 0
        for f in set(emb.faces_at(v)):
            threes = sum(1 for u, _ in f.darts if deg[u] == 3)
            if len(f.darts) == 3:
                e3 += threes >= 1
            elif len(f.darts) == 4:
                e4 += threes >= 2
        if deg[v] + k - e3 - e4 < 10:
            pairs = []
            for x in xs:
                rot = rotation[x]
                i = rot.index(v)
                pairs.append((rot[(i + 1) % 3], rot[(i + 2) % 3]))
            out.append(ConfigMatch(ConfigKind.MANY_3_NBRS, {
                "v": v, "xs": tuple(xs),
                "ys": tuple(p[0] for p in pairs),
                "zs": tuple(p[1] for p in pairs),
                "e3": e3, "e4": e4,
            }))
    return out


def _detect_four_with_3_nbr(g: Graph):
    deg = [len(a) for a in g.adj]
    out = []
    for u, row in enumerate(g.adj):
        if deg[u] > 4:
            continue  # a match needs one end of degree 4 and the other <= 3
        for v in row:
            if v < u:
                continue
            for v1, v2 in ((u, v), (v, u)):
                if deg[v1] == 4 and deg[v2] <= 3:
                    out.append(ConfigMatch(ConfigKind.FOUR_WITH_3_NBR, {"v1": v1, "v2": v2}))
            if deg[u] <= 3 and deg[v] <= 3:
                # both small: still within the statement; canonical orientation
                out.append(ConfigMatch(ConfigKind.FOUR_WITH_3_NBR, {"v1": u, "v2": v}))
    return out


def _detect_light_triangle(g: Graph):
    adj = g.adj
    heavy = [len(a) >= 5 for a in adj]
    out = []
    for a, row in enumerate(adj):
        # rows are sorted: the pairs b < c after a, in the order of the row
        for b, c in combinations([w for w in row if w > a], 2):
            if c in adj[b] and heavy[a] + heavy[b] + heavy[c] <= 1:
                out.append(ConfigMatch(ConfigKind.LIGHT_TRIANGLE, {"cycle": (a, b, c)}))
    return out


def _detect_twin_triangles(emb: EmbeddedGraph):
    g = emb.graph
    adj = g.adj
    deg = [len(a) for a in adj]
    out = []
    for u, w in g.edges():
        if deg[u] > 5 and deg[w] > 5:
            continue
        f1 = emb.face_of_dart((u, w))
        f2 = emb.face_of_dart((w, u))
        if f1 is f2 or len(f1.darts) != 3 or len(f2.darts) != 3:
            continue
        y = next(iter(f1.vertex_set() - {u, w}))
        z = next(iter(f2.vertex_set() - {u, w}))
        for uu, vv in ((u, w), (w, u)):
            if deg[vv] > 5:
                continue
            if all(deg[x] >= 4 for x in adj[vv] if x not in (uu, y, z)):
                out.append(ConfigMatch(ConfigKind.TWIN_TRIANGLES,
                                       {"u": uu, "v": vv, "y": y, "z": z}))
    return out


def _consecutive_pair_avoiding(emb: EmbeddedGraph, x: int, avoid: int):
    """Two neighbors of x consecutive in its rotation, neither equal to avoid."""
    rot = emb.rotation.rotation[x]
    d = len(rot)
    for i in range(d):
        a, b = rot[i], rot[(i + 1) % d]
        if a != avoid and b != avoid and a != b:
            return a, b
    return None


def _detect_triangle_and_4vtx(emb: EmbeddedGraph):
    adj = emb.graph.adj
    deg = [len(a) for a in adj]
    lengths = emb.corner_lengths
    out = []
    for v, row in enumerate(adj):
        if deg[v] > 7 or lengths[v].count(3) <= 1:
            continue
        threes = [w for w in row if deg[w] == 3]
        if len(threes) > 1:
            continue
        # a lone 3-neighbor is the candidate, else every 4-neighbor is; lower
        # degree is its own configuration
        for x in threes or [w for w in row if deg[w] == 4]:
            pair = _consecutive_pair_avoiding(emb, x, v)
            if pair is None:
                continue
            y, z = pair
            out.append(ConfigMatch(ConfigKind.TRIANGLE_AND_4VTX,
                                   {"v": v, "x": x, "y": y, "z": z}))
    return out


def _detect_three_triangle_fan(emb: EmbeddedGraph):
    out = []
    for v, (rot, ells) in enumerate(zip(emb.rotation.rotation, emb.corner_lengths)):
        d = len(rot)
        if not 4 <= d <= 6:
            continue
        # with d >= 4, four consecutive rotation entries are distinct
        ells += ells[:2]
        rot += rot[:3]
        for i in range(d):
            if ells[i] == ells[i + 1] == ells[i + 2] == 3:
                z, x, y, u = rot[i:i + 4]
                out.append(ConfigMatch(ConfigKind.THREE_TRIANGLE_FAN,
                                       {"v": v, "z": z, "x": x, "y": y, "u": u}))
    return out


def _detect_exp4_meets_3face(emb: EmbeddedGraph):
    deg = [len(a) for a in emb.graph.adj]
    out = []
    for f4 in emb.faces:
        if len(f4.darts) != 4:
            continue
        b = f4.boundary_vertices()
        three_pos = [i for i in range(4) if deg[b[i]] == 3]
        if len(three_pos) != 2 or (three_pos[1] - three_pos[0]) % 4 != 2:
            continue
        for i in range(4):
            u, w = f4.darts[i]
            other = emb.face_of_dart((w, u))
            if other is f4 or len(other.darts) != 3:
                continue
            if deg[u] == 3:
                v, u1 = u, w
            elif deg[w] == 3:
                v, u1 = w, u
            else:
                continue
            pos_v = b.index(v)
            u2 = b[(pos_v + 2) % 4]
            nbrs_on_face = {b[(pos_v + 1) % 4], b[(pos_v + 3) % 4]}
            y = next(iter(nbrs_on_face - {u1}))
            z = next(iter(other.vertex_set() - {v, u1}))
            out.append(ConfigMatch(ConfigKind.EXP4_MEETS_3FACE,
                                   {"v": v, "u1": u1, "u2": u2, "y": y, "z": z}))
    return out


def _detect_all4s_quad_face(emb: EmbeddedGraph):
    deg = [len(a) for a in emb.graph.adj]
    out = []
    for f in emb.faces:
        if len(f.darts) != 4:
            continue
        b = f.boundary_vertices()
        if len(set(b)) == 4 and all(deg[v] <= 4 for v in b):
            out.append(ConfigMatch(ConfigKind.ALL4S_QUAD_FACE, {"face": b}))
    return out


def kp_matches(adj, kind: ConfigKind, roots):
    """The matches of a KP kind at each root in turn, neighbours in sorted
    order; `adj[v]` is any collection of v's neighbours."""
    d = KP_KINDS.index(kind) + 1  # the kinds are rooted at degrees 1, 2, 3
    for u in roots:
        if len(adj[u]) != d:
            continue
        if d == 1:
            (w,) = adj[u]
            yield ConfigMatch(kind, {"v": u, "u": w})
        elif d == 2:
            for v in sorted(adj[u]):
                (up,) = (w for w in adj[u] if w != v)
                if len(adj[v]) == 2 and len(adj[up]) >= 3:
                    (vp,) = (w for w in adj[v] if w != u)
                    yield ConfigMatch(kind, {"u": u, "v": v, "u'": up, "v'": vp})
        else:
            t = tuple(sorted(w for w in adj[u] if len(adj[w]) == 2))
            if t:
                (vp,) = (w for w in adj[t[0]] if w != u)
                yield ConfigMatch(kind, {"u": u, "T": t, "v": t[0], "v'": vp})


def kp_deleted(match: ConfigMatch) -> tuple[int, ...]:
    """The vertices a KP reduction deletes, in the order Painter colors them."""
    if match.kind is ConfigKind.KP_PENDANT:
        return (match.role("v"),)
    if match.kind is ConfigKind.KP_TWO_TWO:
        return (match.role("u"), match.role("v"))
    return (match.role("u"),) + match.role("T")


def _graph_and_embedding(target):
    if isinstance(target, EmbeddedGraph):
        return target.graph, target
    return target, None


def find_configs(target, kinds=TORUS_KINDS) -> list[ConfigMatch]:
    """Exhaustive matches of the requested kinds in a Graph or EmbeddedGraph."""
    g, emb = _graph_and_embedding(target)
    out: list[ConfigMatch] = []
    for kind in kinds:
        entry = CATALOG[kind]
        if entry.reads_faces and emb is None:
            raise EmbeddingRequired(f"{kind.value} needs face information")
        out.extend(entry.detect(emb if entry.reads_faces else g))
    return out


# ---------------------------------------------------------------------------
# reductions


@dataclass
class Reduction:
    match: ConfigMatch
    s_order: tuple[int, ...]
    added_edges: tuple[tuple[int, int], ...]
    gprime_vertices: frozenset[int]
    triggers: dict[int, tuple[RejectionRule, ...]]
    budgets: dict[int, int]
    gprime: Graph
    remap: VertexRemap
    surgery: Surgery | None = field(default=None, repr=False)

    @property
    def gprime_embedding(self) -> EmbeddedGraph | None:
        """G''s embedding, relabelled from the surgery on first read."""
        return None if self.surgery is None else self.surgery.embedding

    @cached_property
    def gprime_edges(self) -> frozenset[tuple[int, int]]:
        """G''s edges in G's labels: by the monotone remap, G' vertex i is
        the i-th kept vertex of G."""
        outer = [v for v, dv in enumerate(self.remap.image) if dv is not None]
        return frozenset((outer[a], outer[b]) for a, b in self.gprime.edges())

    def render(self) -> str:
        lines = [f"reduction for {self.match.render()}",
                 f"  S = {list(self.s_order)}",
                 f"  E' = {[tuple(e) for e in self.added_edges] or '(none)'}"]
        for t in self.s_order:
            lines.append(f"  triggers for {t} (budget {self.budgets[t]}):")
            for rule in self.triggers.get(t, ()):
                lines.append(f"    - {rule.render()}")
        return "\n".join(lines)


def _colored_any(watch, note=""):
    return RejectionRule("colored_any", frozenset(watch), note=note)


def _colored_all(watch, note=""):
    return RejectionRule("colored_all", frozenset(watch), note=note)


def _assemble(g: Graph, match, s_order, wanted_edges, triggers, budgets,
              emb: EmbeddedGraph | None) -> Reduction:
    """G' = G - S + E', built once.  With an embedding, G' is the graph of
    the `surgery` that draws E' in faces of G - S, in G's labels; G''s own
    embedding is relabelled when `gprime_embedding` is first read."""
    s = set(s_order)
    added = tuple(
        (min(u, v), max(u, v))
        for u, v in dict.fromkeys(tuple(sorted(e)) for e in wanted_edges)
        if not g.has_edge(u, v)
    )
    cut = None
    if emb is not None:
        try:
            cut = surgery(emb, s, added)
        except WouldDisconnect:
            pass  # G - S is empty or disconnected: G' is a graph only
        except NotCofacial as exc:
            raise EmbeddingSurgeryFailed(
                "E' edge {}-{} not cofacial after deleting S".format(*exc.ends)) from None
    if cut is not None:
        gprime, remap = cut.graph, cut.remap
    else:
        gprime, remap = delete_vertices(g, s)
        if added:
            gprime = add_edges(gprime, [(remap.image[u], remap.image[v]) for u, v in added])
    kept = frozenset(v for v, dv in enumerate(remap.image) if dv is not None)
    return Reduction(match, tuple(s_order), added, kept, triggers, budgets,
                     gprime, remap, cut)


def build_reduction(emb_or_graph, match: ConfigMatch) -> Reduction:
    """Transcribe the proof construction for a detected configuration.

    The kind's builder returns S as {vertex: role} in the order Painter
    decides its vertices, the wanted E', the triggers and, optionally, the
    roles it derives, which join the match.  A role names a budget in the
    catalog, or is the budget itself."""
    g, emb = _graph_and_embedding(emb_or_graph)
    entry = CATALOG[match.kind]
    if (entry.reads_faces or entry.builder_reads_rotation) and emb is None:
        raise EmbeddingRequired(f"{match.kind.value} reduction needs an embedding")
    s, wanted, triggers, *derived = entry.build(g, emb, match)
    if derived:
        match = replace(match, roles={**match.roles, **derived[0]})
    budgets = {t: role if isinstance(role, int) else entry.budgets[role]
               for t, role in s.items()}
    return _assemble(g, match, tuple(s), wanted, triggers, budgets, emb)


def _build_deg_le_2(g, emb, match):
    v = match.role("v")
    nbrs = g.neighbors(v)
    if len(nbrs) <= 1:
        return {v: "deg1"}, (), {v: tuple(
            [_colored_any({u}, f"{u} colored") for u in nbrs]
            + [dull_rule(g, u) for u in nbrs]
        )}
    y, z = nbrs
    return {v: "deg2"}, ((y, z),), {v: (
        _colored_any({y}, f"{y} colored"),
        _colored_any({z}, f"{z} colored"),
        dull_rule(g, y),
        dull_rule(g, z),
    )}


def _build_adjacent_3s(g, emb, match):
    if "y1" not in match.roles:
        raise ValueError("construction needs two vertices of degree exactly 3; "
                         "reduce lower degrees with the deg<=2 configuration first")
    v1, v2 = match.role("v1"), match.role("v2")
    y1, z1, y2, z2 = (match.role(n) for n in ("y1", "z1", "y2", "z2"))
    outer = {y1, z1, y2, z2}
    triggers = {
        v1: tuple([_colored_any(outer, "y/z colored"),
                   dull_rule(g, y1), dull_rule(g, z1)]),
        v2: tuple([_colored_any(outer, "y/z colored"),
                   dull_rule(g, y2), dull_rule(g, z2),
                   _colored_any({v1}, "partner colored")]),
    }
    return {v1: "v1", v2: "v2"}, ((y1, z1), (y2, z2)), triggers


def _build_many_3_nbrs(g, emb, match):
    v = match.role("v")
    xs, ys, zs = match.role("xs"), match.role("ys"), match.role("zs")
    triggers = {}
    reject_v = (set(g.neighbors(v)) - set(xs)) | set(ys) | set(zs)
    triggers[v] = (_colored_any(reject_v, "guard neighborhood colored"),)
    for i, x in enumerate(xs):
        rules = [
            _colored_any({v, ys[i], zs[i]}, "v/y/z colored"),
            dull_rule(g, ys[i]),
            dull_rule(g, zs[i]),
        ]
        # only the second and third 3-neighbors watch their predecessors;
        # three mutually distinct rounds already feed the center's count
        if i == 1:
            rules.append(_colored_any({xs[0]}, "earlier x colored"))
        elif i == 2:
            rules.append(_colored_any({xs[0], xs[1]}, "earlier xs colored"))
        triggers[x] = tuple(rules)
    wanted = tuple((ys[i], zs[i]) for i in range(len(xs)))
    for y, z in wanted:
        if {y, z} & ({v} | set(xs)) and not g.has_edge(y, z):
            raise ValueError(f"E' edge {y}-{z} meets a deleted 3-neighbor; "
                             "reduce the adjacent 3-vertices first")
    # the center's budget is the size of its guard set, not a catalog role
    return {v: len(reject_v), **dict.fromkeys(xs, "x")}, wanted, triggers


def _build_four_with_3_nbr(g, emb, match):
    v1, v2 = match.role("v1"), match.role("v2")
    if g.degree(v1) != 4 or g.degree(v2) != 3:
        raise ValueError("construction needs degrees exactly (4, 3); smaller "
                         "degrees reduce through other configurations")
    threes = [w for w in g.neighbors(v1) if g.degree(w) == 3]
    if threes != [v2] and set(threes) != {v2}:
        raise ValueError("construction expects v2 to be v1's only 3-neighbor")
    pair = _consecutive_pair_avoiding(emb, v1, v2)
    y1, z1 = pair
    (w,) = set(g.neighbors(v1)) - {v2, y1, z1}
    y2, z2 = (x for x in g.neighbors(v2) if x != v1)
    outer = {y1, z1, y2, z2}
    triggers = {
        v1: tuple([_colored_any(outer, "y/z colored"),
                   dull_rule(g, y1), dull_rule(g, z1),
                   _colored_any({w}, "fourth neighbor colored")]),
        v2: tuple([_colored_any(outer, "y/z colored"),
                   dull_rule(g, y2), dull_rule(g, z2),
                   _colored_any({v1}, "partner colored")]),
    }
    return ({v1: "v1", v2: "v2"}, ((y1, z1), (y2, z2)), triggers,
            {"y1": y1, "z1": z1, "y2": y2, "z2": z2, "w": w})


def _build_light_triangle(g, emb, match):
    a, b, c = match.role("cycle")
    fours = [x for x in (a, b, c) if g.degree(x) == 4]
    if len(fours) < 2:
        raise ValueError("construction needs two degree-4 vertices on the cycle; "
                         "a 3-vertex reduces through the 4-with-3-neighbor kind")
    v1, v2 = fours[:2]
    (z,) = {a, b, c} - {v1, v2}
    ys = {}
    for vi, vother in ((v1, v2), (v2, v1)):
        rot = emb.rotation.rotation[vi]
        d = len(rot)
        y = None
        for i in range(d):
            # y, vi, z consecutive on a face <=> y right before z around vi
            if rot[i] == z:
                cand = rot[(i - 1) % d]
                if cand != vother:
                    y = cand
                cand2 = rot[(i + 1) % d]
                if y is None and cand2 != vother:
                    y = cand2
        if y is None:
            raise ValueError("no admissible y_i next to the shared neighbor")
        ys[vi] = y
    y1, y2 = ys[v1], ys[v2]
    triggers = {
        v1: tuple([_colored_any({y1, y2, z}, "y/z colored"), dull_rule(g, y1)]),
        v2: tuple([_colored_any({y1, y2, z}, "y/z colored"), dull_rule(g, y2),
                   _colored_any({v1}, "partner colored")]),
    }
    return ({v1: "v1", v2: "v2"}, ((y1, z), (y2, z)), triggers,
            {"v1": v1, "v2": v2, "z": z, "y1": y1, "y2": y2})


def _build_twin_triangles(g, emb, match):
    v, y, z = match.role("v"), match.role("y"), match.role("z")
    return {v: "v"}, ((y, z),), {v: tuple([
        _colored_any(set(g.neighbors(v)), "neighborhood colored"),
        dull_rule(g, y), dull_rule(g, z)])}


def _build_triangle_and_4vtx(g, emb, match):
    v, x, y, z = (match.role(n) for n in ("v", "x", "y", "z"))
    triggers = {
        v: (_colored_any(set(g.neighbors(v)) | {y, z}, "N(v)+y+z colored"),),
        x: tuple([_colored_any(set(g.neighbors(x)), "N(x) colored"),
                  dull_rule(g, v), dull_rule(g, y), dull_rule(g, z)]),
    }
    return {v: "v", x: "x"}, ((y, z),), triggers


def _build_three_triangle_fan(g, emb, match):
    v, x, y, z = (match.role(n) for n in ("v", "x", "y", "z"))
    ny = frozenset(set(g.neighbors(y)) - {v, x})
    nz = frozenset(set(g.neighbors(z)) - {v, x})
    rules = [_colored_any(set(g.neighbors(v)) | {x}, "N(v)+x colored")]
    if ny:
        rules.append(RejectionRule("few_colors", watch=ny, observe=ny,
                                   threshold=1, note="N(y)-{v,x} still colorless"))
    if nz:
        rules.append(RejectionRule("few_colors", watch=nz, observe=nz,
                                   threshold=1, note="N(z)-{v,x} still colorless"))
    return {v: "v"}, ((y, z),), {v: tuple(rules)}


def _build_exp4_meets_3face(g, emb, match):
    v, y, z = match.role("v"), match.role("y"), match.role("z")
    return {v: "v"}, ((y, z),), {v: tuple([
        _colored_any(set(g.neighbors(v)), "N(v) colored"),
        dull_rule(g, y), dull_rule(g, z)])}


def _build_all4s_quad_face(g, emb, match):
    face = match.role("face")
    if any(g.degree(v) != 4 for v in face):
        raise ValueError("construction needs all four face vertices of degree 4")
    v1, v2, v3, v4 = face
    ext: dict[int, tuple[int, int]] = {}
    for idx, vi in enumerate(face):
        off = [w for w in emb.rotation.rotation[vi] if w not in face]
        if len(off) != 2:
            raise ValueError("face vertex with a chord; reduce via the triangle kinds")
        ext[vi] = (off[0], off[1])
    y = {i + 1: ext[face[i]][0] for i in range(4)}
    z = {i + 1: ext[face[i]][1] for i in range(4)}
    keep = frozenset(g.vertices()) - set(face)

    def gp_degree(w: int) -> int:
        return sum(1 for q in g.neighbors(w) if q in keep)

    def low_degree_rules(i: int):
        rules = []
        for w in (y[i], z[i]):
            if gp_degree(w) == 2:
                gp_nbrs = frozenset(q for q in g.neighbors(w) if q in keep)
                rules.append(_colored_any(gp_nbrs, f"reduced-degree {w} support"))
        return rules

    triggers = {
        v1: tuple([_colored_any({y[1], z[1]}, "own y/z colored")]
                  + low_degree_rules(1)
                  + [_colored_all({y[2], z[2]}, "next pair monochrome"),
                     _colored_all({y[4], z[4]}, "previous pair monochrome")]),
        v2: tuple([_colored_any({v1, y[2], z[2]}, "v1/own y/z colored")]
                  + low_degree_rules(2)
                  + [_colored_all({y[1], z[1]}, "pair 1 monochrome"),
                     _colored_all({y[3], z[3]}, "pair 3 monochrome")]),
        v3: (_colored_any({v1, v2, y[2], z[2], y[3], z[3], y[4], z[4]},
                          "listed set colored"),),
        v4: (_colored_any({v1, v2, v3, y[1], z[1], y[3], z[3], y[4], z[4]},
                          "listed set colored"),),
    }
    return dict.fromkeys(face, "v"), (), triggers


def _build_kp_pendant(g, emb, match):
    v, u = match.role("v"), match.role("u")
    others = frozenset(set(g.neighbors(u)) - {v})
    rules = [_colored_any({u}, "u colored")]
    if others:
        rules.append(_colored_all(others, "all other neighbors of u colored"))
    return dict.fromkeys(kp_deleted(match), "v"), (), {v: tuple(rules)}


def _deficient_rule(g, w: int, watch, r: int, note: str):
    nbrs = frozenset(g.neighbors(w))
    return RejectionRule("few_colors", watch=frozenset(watch), observe=nbrs,
                         threshold=min(r, g.degree(w)), note=note)


def _build_kp_two_two(g, emb, match):
    u, v = match.role("u"), match.role("v")
    up, vp = match.role("u'"), match.role("v'")
    triggers = {
        u: tuple([_colored_any({v, up}, "v or u' colored"),
                  _deficient_rule(g, v, {vp}, 2, "v not yet 2-dynamic")]),
        v: tuple([_colored_any({vp}, "v' colored"),
                  _deficient_rule(g, u, {up}, 2, "u not yet 2-dynamic"),
                  _deficient_rule(g, vp, set(g.neighbors(vp)) - {v}, 2,
                                  "v' not yet 2-dynamic")]),
    }
    return dict(zip(kp_deleted(match), ("u", "v"))), (), triggers


def _build_kp_three_with_twos(g, emb, match):
    u, t, vp = match.role("u"), match.role("T"), match.role("v'")
    other = {w: next(q for q in g.neighbors(w) if q != u) for w in t}
    triggers = {u: (_colored_any(set(other.values()), "a T-partner colored"),)}
    for w in t:
        triggers[w] = (_colored_any({u, other[w], vp}, "u/w'/v' colored"),)
    return dict(zip(kp_deleted(match), ("u",) + ("w",) * len(t))), (), triggers


@dataclass(frozen=True)
class Entry:
    """One kind's statement: its detector (run on the embedding when the kind
    reads faces, else on the graph), its reduction builder (the data that
    `build_reduction` assembles; it needs an embedding when the kind reads
    faces or the builder reads the rotation), and its certified rejection
    bounds by role."""
    detect: Callable
    build: Callable
    budgets: dict[str, int]
    reads_faces: bool = False
    builder_reads_rotation: bool = False


def _kp_detector(kind: ConfigKind):
    return lambda g: kp_matches(g.adj, kind, g.vertices())


CATALOG: dict[ConfigKind, Entry] = {
    ConfigKind.DEG_LE_2: Entry(_detect_deg_le_2, _build_deg_le_2, {"deg1": 3, "deg2": 6}),
    ConfigKind.ADJACENT_3S: Entry(_detect_adjacent_3s, _build_adjacent_3s,
                                  {"v1": 8, "v2": 9}),
    ConfigKind.MANY_3_NBRS: Entry(_detect_many_3_nbrs, _build_many_3_nbrs,
                                  {"x": 9, "v": 9}, reads_faces=True),
    ConfigKind.FOUR_WITH_3_NBR: Entry(_detect_four_with_3_nbr, _build_four_with_3_nbr,
                                      {"v1": 9, "v2": 9}, builder_reads_rotation=True),
    ConfigKind.LIGHT_TRIANGLE: Entry(_detect_light_triangle, _build_light_triangle,
                                     {"v1": 8, "v2": 8}, builder_reads_rotation=True),
    ConfigKind.TWIN_TRIANGLES: Entry(_detect_twin_triangles, _build_twin_triangles,
                                     {"v": 9}, reads_faces=True),
    ConfigKind.TRIANGLE_AND_4VTX: Entry(_detect_triangle_and_4vtx, _build_triangle_and_4vtx,
                                        {"v": 9, "x": 9}, reads_faces=True),
    ConfigKind.THREE_TRIANGLE_FAN: Entry(_detect_three_triangle_fan,
                                         _build_three_triangle_fan,
                                         {"v": 9}, reads_faces=True),
    ConfigKind.EXP4_MEETS_3FACE: Entry(_detect_exp4_meets_3face, _build_exp4_meets_3face,
                                       {"v": 7}, reads_faces=True),
    ConfigKind.ALL4S_QUAD_FACE: Entry(_detect_all4s_quad_face, _build_all4s_quad_face,
                                      {"v": 9}, reads_faces=True),
    ConfigKind.KP_PENDANT: Entry(_kp_detector(ConfigKind.KP_PENDANT), _build_kp_pendant,
                                 {"v": 2}),
    ConfigKind.KP_TWO_TWO: Entry(_kp_detector(ConfigKind.KP_TWO_TWO), _build_kp_two_two,
                                 {"u": 3, "v": 3}),
    ConfigKind.KP_THREE_WITH_TWOS: Entry(_kp_detector(ConfigKind.KP_THREE_WITH_TWOS),
                                         _build_kp_three_with_twos, {"u": 3, "w": 3}),
}


# ---------------------------------------------------------------------------
# certification


@dataclass
class ExtendabilityReport:
    extendable: bool
    colorings_checked: int
    counterexample: dict[int, int] | None
    extensions_searched: int  # bases whose extension needed a search on G

    def render(self) -> str:
        searched = f" ({self.extensions_searched} searched)"
        if self.extendable:
            return f"extendable: all {self.colorings_checked} base colorings extend" + searched
        return (f"NOT extendable: counterexample after "
                f"{self.colorings_checked} colorings: {self.counterexample}" + searched)


# check_extendable's cap on base colorings of G'
EXTEND_MAX_COLORINGS = 200_000


def check_extendable(
    g: Graph,
    reduction: Reduction,
    r: int,
    *,
    k: int,
) -> ExtendabilityReport:
    """r-extendability: every r-dynamic k-coloring of G' must extend to an
    r-dynamic coloring of G on the deleted vertices.

    The coloring search on G' meets each base coloring once up to renaming,
    and stops at the first base that does not extend.  Each base first tries
    the colors S took in the latest extension found: unless one of them sits
    on a G-neighbor of its vertex in the base, the base plus those colors is
    taken if `verify_r_dynamic` passes it on all of G.  Otherwise the
    extension is searched: G precolored with the base, S over 1..k
    (canonically: the unused colors above the base's largest are
    interchangeable), and the witness verified the same way.  Every
    extension is thus a verified coloring of G, and a counterexample is
    verified r-dynamic on G' before it is reported.
    """
    inverse = sorted(reduction.gprime_vertices)  # the remap is monotone
    extender = Searcher(g, r, math.inf)
    s, adj = reduction.s_order, g.adj
    last: dict[int, int] | None = None  # the latest extension searched
    checked = searched = 0

    def fails_to_extend(base: dict[int, int]) -> bool:
        nonlocal checked, searched, last
        checked += 1
        if checked > EXTEND_MAX_COLORINGS:
            raise BudgetExceeded(
                f"more than EXTEND_MAX_COLORINGS={EXTEND_MAX_COLORINGS} base colorings "
                f"of G': {searched} extensions searched, "
                f"{EXTEND_MAX_COLORINGS - searched} reused")
        fixed = {inverse[dv]: c for dv, c in base.items()}
        # the base already colors every vertex outside S, so last | fixed
        # keeps only last's colors on S
        if last is not None and all(fixed.get(w) != last[t] for t in s for w in adj[t]):
            if verify_r_dynamic(g, last | fixed, r).ok:
                return False
        searched += 1
        witness = extender.solve(k, fixed)
        if witness is None:
            return True
        if not verify_r_dynamic(g, witness, r).ok:
            raise AssertionError("extension search returned a bad witness")
        last = witness
        return False

    bad = Searcher(reduction.gprime, r, math.inf).solve(k, accept=fails_to_extend)
    if bad is None:
        return ExtendabilityReport(True, checked, None, searched)
    if not verify_r_dynamic(reduction.gprime, bad, r).ok:
        raise AssertionError("base coloring search returned a bad counterexample")
    return ExtendabilityReport(False, checked, {inverse[dv]: c for dv, c in bad.items()},
                               searched)


def reduction_without_added_edges(g: Graph, reduction: Reduction) -> Reduction:
    """Ablated copy with E' dropped (the not-a-subgraph negative control)."""
    return _assemble(g, reduction.match, reduction.s_order,
                     (), reduction.triggers, reduction.budgets, None)


def reduction_without_rules(g: Graph, reduction: Reduction, kinds=("few_colors",)) -> Reduction:
    """Ablated copy with the named trigger kinds stripped (budget control)."""
    triggers = {
        t: tuple(rule for rule in rules if rule.kind not in kinds)
        for t, rules in reduction.triggers.items()
    }
    return replace(reduction, triggers=triggers)


def structural_budget(reduction: Reduction, t: int) -> int:
    """Upper bound on rejections of t implied by its trigger list alone."""
    total = 0
    for rule in reduction.triggers.get(t, ()):
        if rule.kind == "colored_any":
            total += len(rule.watch)
        elif rule.kind == "colored_all":
            total += 1
        else:
            total += max(rule.threshold, 0)
    return total


def suggested_tokens(g: Graph, reduction: Reduction, r: int, k: int) -> dict[int, int]:
    """Reduced per-vertex tokens: trigger budget + 1 on T, and on G' its paint
    number, the least uniform count with which Painter wins there."""
    tokens = {}
    for t in reduction.s_order:
        tokens[t] = min(k, structural_budget(reduction, t) + 1)
    need = xp_r_number(reduction.gprime, r, max_n=reduction.gprime.n).value
    for v in reduction.gprime_vertices:
        tokens[v] = need
    return tokens


@dataclass
class BudgetReport:
    ok: bool
    certification: CertificationReport
    tokens: dict[int, int]
    k: int

    def render(self) -> str:
        return (f"budget check {'PASS' if self.ok else 'FAIL'} (k={self.k}) | "
                + self.certification.render())


def check_budget(
    g_or_emb,
    reduction: Reduction,
    r: int,
    k: int,
    *,
    tokens=None,
) -> BudgetReport:
    """Play the composite strategy against the exhaustive Lister.

    Passes iff Painter survives every line with an r-dynamic final coloring and
    every deleted vertex t stays within min(reduction.budgets[t], k - 1)
    rejections.
    """
    g, _ = _graph_and_embedding(g_or_emb)
    if tokens is None:
        tokens = suggested_tokens(g, reduction, r, k)
    f = [tokens[v] for v in g.vertices()]
    report = run_gprime_first(
        g, r, reduction.gprime_vertices, reduction.gprime_edges,
        reduction.triggers, f, "exhaustive", s_order=reduction.s_order,
    )
    ok = report.ok and all(
        report.max_rejections.get(t, 0) <= min(reduction.budgets[t], k - 1)
        for t in reduction.s_order
    )
    return BudgetReport(ok, report, dict(tokens), k)
