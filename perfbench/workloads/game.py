"""game: paint numbers by exhaustive Lister/Painter minimax.

Named graphs (C4-C6, K4, the wheels W4 and W5, the prism) get `xp_r_number`
plus `solve_xp_r` at the token counts just below and at the paint number; so
does every connected graph on 4 and 5 vertices, each at a fixed r and under a
seeded relabelling.  C7 (r=1) gets the two solves around its paint number
and C8 (r=2) the one just below it; they are the memo-bound cases.  The
subdivided K4 and prism and seeded random trees go through `kp_pipeline`.
Minimax does almost all the work, so memo-bound time and memory show here.
"""

from __future__ import annotations

import random
from fractions import Fraction

import generators as gen
from harness import Query

from . import graph6_checks, load, parse_graph

# (name, vertex count, edges, r values)
NAMED = [
    ("C4", 4, gen.cycle_edges(4), (1, 2, 3)),
    ("C5", 5, gen.cycle_edges(5), (1, 2, 3)),
    ("C6", 6, gen.cycle_edges(6), (1, 2, 3)),
    ("K4", 4, gen.complete_edges(4), (1, 2, 3)),
    ("W4", 5, gen.wheel_edges(4), (1, 2, 3)),
    ("W5", 6, gen.wheel_edges(5), (1, 2)),
    ("prism", 6, gen.prism_edges(), (1, 2)),
]
# (name, vertex count, edges, r, token counts): solves around the paint number
# only, since the paint-number search would repeat them.  C8 at r=2 runs at
# k=3 only: k=4 is one 6 s solve that a run cannot repeat often enough to time
# steadily (see data/exclusions.json)
SOLVED = [
    ("C7", 7, gen.cycle_edges(7), 1, (2, 3)),
    ("C8", 8, gen.cycle_edges(8), 2, (3,)),
]
KP_NAMED = [
    ("sK4", *gen.subdivide(4, gen.complete_edges(4))),
    ("sPrism", *gen.subdivide(6, gen.prism_edges())),
]
TREE_SIZES = (5, 7, 9, 11, 12, 12)


def closed_form_xp(name: str, r: int):
    """Paint numbers known without search: xp_1 of a cycle is 2 when even and
    3 when odd, and K_n needs n colors for every r."""
    if name.startswith("C") and r == 1:
        return 2 if int(name[1:]) % 2 == 0 else 3
    if name.startswith("K"):
        return int(name[1:])
    return None


def build(dc, seed, call, scale):
    expected = load("expected.json")["game"]
    rng = random.Random(seed)
    named_g6 = {name: gen.graph6(n, edges) for name, n, edges, *_ in NAMED + SOLVED}
    kp_g6 = {name: gen.graph6(n, edges) for name, n, edges in KP_NAMED}

    # the program's own constructions must give the same labelled graphs
    F = dc.families
    built = {
        "C4": call("families", F.cycle, 4), "C5": call("families", F.cycle, 5),
        "C6": call("families", F.cycle, 6), "C7": call("families", F.cycle, 7),
        "C8": call("families", F.cycle, 8), "K4": call("families", F.complete, 4),
        "W4": call("families", F.wheel, 4), "W5": call("families", F.wheel, 5),
        "prism": call("families", F.prism),
        "sK4": call("families", F.subdivision, call("families", F.complete, 4)),
        "sPrism": call("families", F.subdivision, call("families", F.prism)),
    }
    checks = [(f"families {name} matches the benchmark graph",
               lambda name=name: None if dc.graph.emit_graph6(built[name]) ==
               {**named_g6, **kp_g6}[name] else "different labelled graph")
              for name in built]

    cases = []  # (label, graph6, r, expected paint number)
    for name, _, _, rs in NAMED:
        cases += [(name, named_g6[name], r, expected["named"][name][str(r)]) for r in rs]
    solved = [(name, named_g6[name], r, expected["named"][name][str(r)])
              for name, _, _, r, _ in SOLVED]
    tokens = {name: ks for name, _, _, _, ks in SOLVED}
    for name, _, r, pinned in cases + solved:
        if (cf := closed_form_xp(name, r)) is not None:
            checks.append((f"pinned xp_{r}({name}) equals the closed form",
                           lambda cf=cf, pinned=pinned: None if cf == pinned
                           else f"pinned {pinned}, closed form {cf}"))
    # the whole 4- and 5-vertex pool, so the seed changes labels, not the mix
    for i, (key, xps) in enumerate(sorted(expected["small"].items())):
        n, edges = gen.graph6_decode(key)
        perm = list(range(n))
        rng.shuffle(perm)
        r = i % 3 + 1
        cases.append((f"pool{i}", gen.graph6(n, [(perm[u], perm[v]) for u, v in edges]),
                      r, xps[r - 1]))
    if scale == "tiny":
        cases, solved = cases[:2] + cases[-2:], []

    queries = []
    for label, text, r, xp in cases:
        queries.append(_xp_query(dc, f"xp:{label}:r{r}", text, r, xp))
    for label, text, r, xp in cases + solved:
        for k in tokens.get(label, (xp - 1, xp)):
            if k >= 1:
                queries.append(_solve_query(dc, f"solve:{label}:r{r}:k{k}",
                                            text, r, k, k == xp))
    kp_cases = [(name, kp_g6[name], expected["kp"][name]) for name, _, _ in KP_NAMED]
    for i, n in enumerate(TREE_SIZES):
        tree = gen.random_tree_edges(n, rng)
        # a tree peels to one vertex by pendant deletions and mad(T) = 2(n-1)/n
        kp_cases.append((f"tree{i}", gen.graph6(n, tree),
                         {"certified": True, "hypothesis": f"mad {Fraction(2 * (n - 1), n)} < 8/3",
                          "steps": n - 1, "remainders": ["game-pass"]}))
    if scale == "tiny":
        kp_cases = kp_cases[:1] + kp_cases[-1:]
    for label, text, want in kp_cases:
        queries.append(_kp_query(dc, f"kp:{label}", text, want))
    # a seeded order spreads the small queries over the whole pass, so their
    # percentiles sample the machine's speed over all of it
    rng.shuffle(queries)
    texts = [c[1] for c in cases + solved + kp_cases]
    return queries, checks + graph6_checks(dc.graph, texts)


def _xp_query(dc, qid, text, r, xp):
    def run(call):
        res = call("paintgame", dc.paintgame.xp_r_number, parse_graph(dc, call, text), r, max_n=8)
        return res.exact, res.lower, res.upper

    def check(v):
        return None if v == (True, xp, xp) else f"got {v}, want exact {xp}"
    return Query(qid, run, check)


def _solve_query(dc, qid, text, r, k, painter):
    def run(call):
        g = parse_graph(dc, call, text)
        verdict = call("paintgame", dc.paintgame.solve_xp_r, g, r, k, max_n=8)
        call.count("paintgame.nodes", verdict.solver.nodes)
        call.count("paintgame.memo_states", len(verdict.solver.memo))
        call.count("paintgame.painter_wins" if verdict.painter_wins
                   else "paintgame.lister_wins", 1)
        return verdict.painter_wins

    def check(v):
        return None if v == painter else f"painter_wins {v}, want {painter}"
    return Query(qid, run, check)


def _kp_query(dc, qid, text, want):
    def run(call):
        cert = call("bounds", dc.bounds.kp_pipeline, parse_graph(dc, call, text))
        call.count("bounds.kp_steps", len(cert.steps))
        call.count("bounds.kp_remainders", len(cert.remainders))
        return {"certified": cert.certified, "hypothesis": cert.hypothesis,
                "steps": len(cert.steps),
                "remainders": [rem.verdict for rem in cert.remainders]}

    def check(v):
        return None if v == want else f"got {v}, want {want}"
    return Query(qid, run, check)

