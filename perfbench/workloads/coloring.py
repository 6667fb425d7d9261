"""coloring: exact r-dynamic chromatic numbers and the constructive bound.

`chi_r_exact` (forced) runs on the toroidal grids C_m x C_n, 4 <= m <= n <= 6,
at r = 2..4 and on 400 random connected graphs with n <= 28 (n <= 18 at
r = 3), drawn from a fixed stream and relabelled by the seed.
`color_by_contraction` at r = 11 and genus 0 runs on stacked triangulations
with n = 50..400 (one fixed shape per size), each followed by
`replay_contraction` of its trace.  Without this workload the chromatic search
and `bounds` would go unmeasured.
"""

from __future__ import annotations

import random

import generators as gen
from harness import Query

from . import graph6_checks, load, parse_graph

# up to C6 x C6: with a side of 7 the grids take 1-3 s a solve, too long to
# repeat often enough in a run to time steadily (see data/exclusions.json)
GRIDS = [(m, n) for m in range(4, 7) for n in range(m, 7)]
RADII = (2, 3, 4)
RANDOM_GRAPHS = 400  # enough that their median cost barely moves with the seed
# the random graphs come from this fixed stream and their chi_r values are
# pinned; --seed only relabels them and reorders the queries
RANDOM_STREAM = 0
# a fine ramp of sizes puts the p90 among many similar contractions
STACKED = tuple(range(50, 251, 5)) + (300, 350, 400)
CONTRACTION_R, GENUS = 11, 0
PALETTE = (GENUS + 5) * (CONTRACTION_R + 1) + 3  # ell(g, r) for genus <= 2


def dynamic_ok(edges, coloring, r) -> bool:
    """The r-dynamic condition, written independently of the program."""
    nbrs: dict[int, set[int]] = {v: set() for v in coloring}
    for u, v in edges:
        if coloring[u] == coloring[v]:
            return False
        nbrs[u].add(v)
        nbrs[v].add(u)
    return all(len({coloring[w] for w in ns}) >= min(r, len(ns))
               for ns in nbrs.values())


def random_graphs():
    """(n, edges, r) per random graph: a fixed schedule of sizes, densities and
    r.  At r=3 sparse graphs above 18 vertices can make the exact search run
    for minutes, so r=3 stops at n=18."""
    rng = random.Random(RANDOM_STREAM)
    out = []
    for i in range(RANDOM_GRAPHS):
        r = 2 + (i // 4) % 2
        n, p = 10 + (i % 19 if r == 2 else i % 9), (0.1, 0.15, 0.2, 0.3)[i % 4]
        out.append((n, gen.random_connected_edges(n, p, rng), r))
    return out


def build(dc, seed, call, scale):
    G, Col, B, F = dc.graph, dc.coloring, dc.bounds, dc.families
    pinned = load("expected.json")["coloring"]
    rng = random.Random(seed)
    checks = []
    cases = []  # (label, text, edges, r, pinned value)
    for m, n in GRIDS:
        edges = gen.grid_torus_edges(m, n)
        text = gen.graph6(m * n, edges)
        fam = call("families", F.grid_torus, m, n)
        checks.append((f"families C{m}xC{n} matches the benchmark grid",
                       lambda fam=fam, text=text: None if G.emit_graph6(fam) == text
                       else "different labelled graph"))
        for r in RADII:
            cases.append((f"C{m}xC{n}:r{r}", text, edges, r, pinned[f"C{m}xC{n}"][r - 2]))
    pinned_random = load("expected.json")["coloring_random"]
    for i, (n, edges, r) in enumerate(random_graphs()):
        text, want_r, value = pinned_random[i]
        checks.append((f"random graph {i} is the pinned one",
                       lambda n=n, edges=edges, r=r, text=text, want_r=want_r:
                       None if (gen.graph6(n, edges), r) == (text, want_r)
                       else "the fixed stream made another graph"))
        perm = list(range(n))
        rng.shuffle(perm)
        edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
        cases.append((f"rand{i}", gen.edge_list_text(edges), edges, r, value))
    # one fixed shape per size: the contractions hold the p90, and the shape
    # alone moves a contraction's cost by up to a third
    stacked = [(n, gen.stacked_triangulation_edges(n, random.Random(n))) for n in STACKED]
    if scale == "tiny":
        cases, stacked = cases[:2] + cases[-2:], stacked[:1]

    groups = []  # run in a seeded order; a replay stays right after its contraction
    for label, text, edges, r, value in cases:
        def chi(call, text=text, r=r):
            res = call("coloring", Col.chi_r_exact, parse_graph(dc, call, text), r, force=True)
            return res.value, res.witness

        def check(v, edges=edges, r=r, value=value):
            k, witness = v
            if k != value:
                return f"chi_{r} = {k}, pinned {value}"
            g = G.parse_graph(gen.edge_list_text(edges))
            if not Col.verify_r_dynamic(g, witness, r).ok or not dynamic_ok(edges, witness, r):
                return "witness is not r-dynamic"
            # a witness with fewer colors would contradict the failed smaller k
            if len(set(witness.values())) != k:
                return f"witness uses {len(set(witness.values()))} colors, value {k}"
            if k < max(min(r, g.degree(x)) + 1 for x in g.vertices()):
                return "value below the trivial lower bound"
            return None
        groups.append([Query(f"chi:{label}", chi, check)])

    made: dict[int, tuple[dict, str]] = {}  # coloring and trace text per n, for replay
    for n, edges in stacked:
        text = gen.edge_list_text(edges)

        def contract(call, n=n, text=text):
            res = call("bounds", B.color_by_contraction, parse_graph(dc, call, text),
                       CONTRACTION_R, GENUS)
            call.count("bounds.contraction_steps", len(res.trace.steps))
            made[n] = (res.coloring, res.trace.render())
            return res.coloring, res.max_forbidden, made[n][1]

        def replay(call, n=n, text=text):
            g = parse_graph(dc, call, text)
            trace = call("bounds", B.ContractionTrace.parse, made[n][1])
            res = call("bounds", B.replay_contraction, g, trace)
            call.count("bounds.contraction_steps", len(trace.steps))
            return res.coloring, res.max_forbidden, trace.render()

        def check(v, edges=edges, n=n):
            coloring, forbidden, trace_text = v
            if (coloring, trace_text) != made[n]:
                return "replay or trace round trip differs from the contraction"
            if not dynamic_ok(edges, coloring, CONTRACTION_R):
                return f"coloring is not {CONTRACTION_R}-dynamic"
            if max(coloring.values()) > PALETTE or forbidden > PALETTE - 1:
                return f"palette {max(coloring.values())} / forbidden {forbidden} over {PALETTE}"
            return None
        groups.append([Query(f"contract:n{n}", contract, check),
                       Query(f"replay:n{n}", replay, check)])
    rng.shuffle(groups)
    queries = [q for group in groups for q in group]
    grid_texts = [text for label, text, _, _, _ in cases if label.startswith("C")]
    return queries, checks + graph6_checks(G, grid_texts)
