"""certify: reduction certification on the frozen catalog instances.

Every frozen match is reduced and checked for extendability; each certified
kind gets `suggested_tokens` and a budget check, in which the exhaustive
Lister drives `GPrimeFirstPainter` and its inner `PaintSolver` answers many
`winning_response` calls.  The rule-ablation and edge-stripped C5 controls
must fail.  A minimax change that helps `game` but hurts this usage shows here.
The inputs are frozen, so `--seed` changes nothing in this workload.

The budget check is `configs.check_budget` split into its public parts
(`suggested_tokens` pinned, `paintgame.run_gprime_first`, then the k-1
rejection rule) so the adversary's time is charged to `paintgame`; an input
check per budget kind confirms the split gives the same verdict as
`check_budget` itself.
"""

from __future__ import annotations

import random

from harness import Query

from . import load, parse_embedding, parse_graph, reduce

R, K = 3, 10
# budget checks out of reach; see exclusions.json
EXCLUDED_BUDGETS = ("expensive-4-meets-3-face", "all-4s-quad-face")
# budget verdicts left open by the catalog audit: run and recorded, never scored
UNSCORED_BUDGETS = ("many-3-neighbors", "three-triangle-fan", "light-triangle")
# rule kinds stripped by the ablation controls (each must then fail)
ABLATIONS = {"deg<=2": ("few_colors",), "adjacent-3s": ("colored_any",),
             "4-with-3-neighbor": ("colored_any",)}


def _match(cfg, kind: str, roles: dict):
    return cfg.ConfigMatch(cfg.ConfigKind(kind), {
        k: tuple(v) if isinstance(v, list) else v for k, v in roles.items()})


def build(dc, seed, call, scale):
    catalog = load("certify_catalog.json")
    expected = load("expected.json")["certify"]
    E, C, P = dc.embedding, dc.configs, dc.paintgame
    instances = catalog["instances"]
    if scale == "tiny":
        instances = instances[:2]
    queries = []
    budget_verdicts = {}  # kind -> the split budget verdict of the latest pass

    def extend(call, g, red, r):
        rep = call("configs", C.check_extendable, g, red, r, k=K)
        call.count("configs.extend_colorings", rep.colorings_checked)
        return rep.extendable

    def gprime_first(call, g, red, tokens):
        f = [tokens[v] for v in g.vertices()]
        rep = call("paintgame", P.run_gprime_first, g, R, red.gprime_vertices,
                   red.gprime_edges, red.triggers, f, "exhaustive", s_order=red.s_order)
        call.count("paintgame.adversary_states", rep.states)
        ok = rep.ok and all(rep.max_rejections.get(t, 0) <= K - 1 for t in red.s_order)
        return "PASS" if ok else f"FAIL: {rep.reason or 'rejections over k-1'}"

    for inst in instances:
        kind, text, frozen = inst["kind"], inst["rotation"], inst["matches"]
        want = expected[kind]

        def find(call, kind=kind, text=text):
            emb = parse_embedding(dc, call, text)
            ms = call("configs", C.find_configs, emb, [C.ConfigKind(kind)])
            call.count("configs.matches", len(ms))
            return [m.roles for m in ms]
        frozen_roles = [_match(C, kind, m).roles for m in frozen]
        queries.append(Query(f"find:{kind}", find,
                             lambda v, f=frozen_roles: None if v == f
                             else "matches differ from the frozen list"))

        for i, roles in enumerate(frozen):
            def reduce_extend(call, kind=kind, text=text, roles=roles):
                emb = parse_embedding(dc, call, text)
                red = reduce(dc, call, emb, _match(C, kind, roles))
                return "refused" if red is None else (
                    "extendable" if extend(call, emb.graph, red, R) else "not extendable")
            queries.append(Query(f"extend:{kind}:{i}", reduce_extend,
                                 lambda v, w=want["matches"][i]: None if v == w
                                 else f"got {v}, want {w}"))

        intended = frozen[inst["intended"]]
        if kind in EXCLUDED_BUDGETS:
            continue
        tokens = {int(v): t for v, t in want["tokens"].items()}

        def tokens_q(call, kind=kind, text=text, roles=intended):
            emb = parse_embedding(dc, call, text)
            red = reduce(dc, call, emb, _match(C, kind, roles))
            return call("configs", C.suggested_tokens, emb.graph, red, R, K)
        queries.append(Query(f"tokens:{kind}", tokens_q,
                             lambda v, w=tokens: None if v == w else f"got {v}, want {w}"))

        def budget(call, kind=kind, text=text, roles=intended, tokens=tokens):
            emb = parse_embedding(dc, call, text)
            red = reduce(dc, call, emb, _match(C, kind, roles))
            budget_verdicts[kind] = gprime_first(call, emb.graph, red, tokens)
            return budget_verdicts[kind]
        queries.append(Query(f"budget:{kind}", budget,
                             lambda v, w=want["budget"]: None if v == w else f"got {v}, want {w}",
                             scored=kind not in UNSCORED_BUDGETS))

        if kind in ABLATIONS:
            def ablated(call, kind=kind, text=text, roles=intended, tokens=tokens):
                emb = parse_embedding(dc, call, text)
                red = reduce(dc, call, emb, _match(C, kind, roles))
                red = call("configs", C.reduction_without_rules, emb.graph, red,
                           kinds=ABLATIONS[kind])
                return gprime_first(call, emb.graph, red, tokens)
            queries.append(Query(f"ablation:{kind}", ablated,
                                 lambda v: None if v.startswith("FAIL")
                                 else "ablated triggers still pass"))

    c5 = catalog["c5_control"]

    def c5_control(call, stripped):
        g = parse_graph(dc, call, c5["graph6"])
        emb = parse_embedding(dc, call, c5["rotation"])
        red = reduce(dc, call, emb, _match(C, c5["kind"], c5["roles"]))
        if stripped:
            red = call("configs", C.reduction_without_added_edges, g, red)
        return extend(call, g, red, 2)
    queries.append(Query("c5:full", lambda call: c5_control(call, False),
                         lambda v: None if v else "C5 reduction not extendable at r=2"))
    queries.append(Query("c5:stripped", lambda call: c5_control(call, True),
                         lambda v: None if not v else "edge-stripped C5 control extends"))

    def split_matches_check_budget(inst):
        kind = inst["kind"]
        emb = E.parse_rotation(inst["rotation"])
        red = C.build_reduction(emb, _match(C, kind, inst["matches"][inst["intended"]]))
        tokens = {int(v): t for v, t in expected[kind]["tokens"].items()}
        whole = C.check_budget(emb, red, R, K, tokens=tokens)
        want = "PASS" if whole.ok else f"FAIL: {whole.certification.reason or 'rejections over k-1'}"
        split = budget_verdicts.get(kind)
        return None if split == want else f"split gives {split!r}, check_budget {want!r}"

    def round_trip(text):
        return None if E.emit_rotation(E.parse_rotation(text)) == text else "differs"
    checks = [(f"rotation round trip {inst['kind']}", lambda t=inst["rotation"]: round_trip(t))
              for inst in instances + [c5]]
    checks += [(f"budget split agrees with check_budget on {inst['kind']}",
                lambda inst=inst: split_matches_check_budget(inst))
               for inst in instances if inst["kind"] not in EXCLUDED_BUDGETS]
    # a fixed shuffle spreads the small queries over the pass; it does not
    # follow the seed, since the order alone moves peak memory by up to a tenth
    random.Random(0).shuffle(queries)
    return queries, checks

