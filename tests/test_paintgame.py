import hashlib
import json
import random
from typing import NamedTuple

import pytest

from dyncolor import paintgame
from dyncolor.coloring import verify_r_dynamic
from dyncolor.errors import (
    ApplicabilityError,
    BudgetViolated,
    IllegalMark,
    IllegalResponse,
    InnerLost,
)
from dyncolor.families import complete, cycle, path, random_connected_graph, star, wheel
from dyncolor.graph import Graph
from dyncolor.paintgame import (
    Fields,
    GPrimeFirstPainter,
    PaintSolver,
    Position,
    RejectionRule,
    TreePainter,
    advance,
    certify_painter,
    dull_rule,
    field_width,
    normalize_tokens,
    respond_at,
    run_gprime_first,
    run_transcript,
    solve_xp_r,
    start_position,
    strategy_tree,
    xp_r_number,
)


class OnPositions:
    """A test painter written on `Position`s (`respond(pos, marked)`),
    answering the packed protocol: each packed position is unpacked for it.
    Subclasses set `g`."""

    watch = ()
    _w = field_width(0)

    def fit(self, largest):
        self._w = max(self._w, field_width(largest))
        return self._w

    def respond_packed(self, tokens, res, uncolored, marked):
        lay = Fields(self.g.n + len(self.watch), self._w)
        pos = Position(lay.unpack(tokens)[:self.g.n], lay.unpack(res),
                       frozenset(lay.items(uncolored)))
        return lay.mask(self.respond(pos, frozenset(lay.items(marked))))


def test_play_round_mechanics():
    g = complete(2)
    watched, pos = start_position(g, 1, normalize_tokens(g, 2))
    p1 = advance(g, watched, pos, {0, 1}, {0})
    assert p1 == Position((0, 1), (1, 0), frozenset({1}))
    # marking the other vertex again: spends its last token, gets colored
    p2 = advance(g, watched, p1, {1}, {1})
    assert p2 == Position((0, 0), (0, 0), frozenset())


def test_play_round_zero_token_mark_loses():
    g = complete(2)
    # Lister marks the token-less vertex 0; a lister transcript is pinned below
    assert not PaintSolver(g, 1).painter_wins(Position((0, 1), (1, 1), frozenset({0, 1})))


def test_play_round_empty_response_allowed():
    g = complete(2)
    watched, pos = start_position(g, 1, (2, 2))
    out = advance(g, watched, pos, {0}, set())
    assert out == Position((1, 2), (1, 1), frozenset({0, 1}))


def test_play_round_validation():
    g = complete(3)
    watched, pos = start_position(g, 1, (2, 2, 2))
    with pytest.raises(IllegalMark):
        advance(g, watched, pos, set(), set())
    with pytest.raises(IllegalResponse):
        advance(g, watched, pos, {0, 1}, {0, 1})  # adjacent pair
    with pytest.raises(IllegalResponse):
        advance(g, watched, pos, {0}, {1})  # not a subset
    colored = advance(g, watched, pos, {0}, {0})
    with pytest.raises(IllegalMark):
        advance(g, watched, colored, {0}, set())


def test_solver_known_values():
    assert solve_xp_r(cycle(4), 1, 2).painter_wins
    assert not solve_xp_r(cycle(5), 1, 2).painter_wins
    assert solve_xp_r(cycle(5), 1, 3).painter_wins
    assert not solve_xp_r(complete(2), 1, 1).painter_wins
    assert solve_xp_r(complete(2), 1, 2).painter_wins


def test_xp_numbers():
    assert xp_r_number(cycle(4), 1).value == 2
    assert xp_r_number(cycle(5), 1).value == 3
    assert xp_r_number(complete(3), 2).value == 3
    assert xp_r_number(cycle(5), 2).value == 5


def test_token_monotonicity():
    rng = random.Random(1)
    for _ in range(15):
        g = random_connected_graph(rng.randrange(2, 6), 0.5, rng)
        r = rng.randrange(1, 3)
        k = rng.randrange(1, 4)
        if solve_xp_r(g, r, k).painter_wins:
            assert solve_xp_r(g, r, k + 1).painter_wins


def test_strategies_survive_exhaustive_lister():
    for g, r, k in ((cycle(4), 1, 2), (cycle(5), 1, 3), (complete(3), 2, 3)):
        verdict = solve_xp_r(g, r, k)
        assert verdict.painter_wins
        report = certify_painter(g, r, k, verdict.strategy())
        assert report.ok, report.reason


def test_exhaustive_lister_finds_wins_below_threshold():
    # against one fewer token everywhere the adversary beats even the solver
    g = cycle(5)
    verdict = solve_xp_r(g, 1, 3)
    painter = verdict.strategy()

    class Stubborn(OnPositions):
        g = painter.g

        def respond(self, state, marked):
            try:
                return respond_at(painter, state, marked)
            except Exception:
                return frozenset()

    report = certify_painter(g, 1, 2, Stubborn())
    assert not report.ok
    assert report.losing_line


def test_transcript_format_and_rejections():
    g = path(3)  # 0 - 1 - 2
    verdict = solve_xp_r(g, 1, 2)
    assert verdict.painter_wins
    tr = run_transcript(g, 1, verdict.strategy(), [{0, 1, 2}, {1}, {2}], 2)
    text = tr.render()
    assert text.splitlines()[0].startswith("round 1 | marked: 0 1 2 | colored:")
    data = json.loads(tr.to_json())
    assert data["outcome"] in ("painter", "unfinished")
    assert tr.rejections  # somebody was rejected in round one


def _rounds(*rows):
    return [{"index": i, "marked": m, "colored": c, "tokens": t, "rejected": x}
            for i, (m, c, t, x) in enumerate(rows, start=1)]


PINNED_TRANSCRIPTS = [
    # the solver colors all of P3; a third mark is never played
    (path(3), 1, "solver", [{0, 1, 2}, {1}, {2}], 2,
     "round 1 | marked: 0 1 2 | colored: 0 2 | tokens: 1 1 1\n"
     "round 2 | marked: 1 | colored: 1 | tokens: 1 0 1\n"
     "outcome: painter",
     _rounds(([0, 1, 2], [0, 2], [1, 1, 1], [1]), ([1], [1], [1, 0, 1], [])),
     "painter", {"1": 1}),
    # vertex 1 is marked with no token left; a colored vertex keeps its tokens
    (complete(2), 1, "greedy", [{0, 1}, {1}], 1,
     "round 1 | marked: 0 1 | colored: 0 | tokens: 0 0\n"
     "round 2 | marked: 1 | colored: - | tokens: 0 -1\n"
     "outcome: lister",
     _rounds(([0, 1], [0], [0, 0], [1]), ([1], [], [0, -1], [])),
     "lister", {"1": 1}),
    (cycle(4), 1, "solver", [{0, 1, 2, 3}], 2,
     "round 1 | marked: 0 1 2 3 | colored: 0 2 | tokens: 1 1 1 1\n"
     "outcome: unfinished",
     _rounds(([0, 1, 2, 3], [0, 2], [1, 1, 1, 1], [1, 3])),
     "unfinished", {"1": 1, "3": 1}),
    # round 1 puts one color on both neighbours of 1, which needs two
    (cycle(5), 2, "greedy", [{0, 2}, {1, 3}, {4}], 5,
     "round 1 | marked: 0 2 | colored: 0 2 | tokens: 4 5 4 5 5\n"
     "round 2 | marked: 1 3 | colored: 1 3 | tokens: 4 4 4 4 5\n"
     "round 3 | marked: 4 | colored: 4 | tokens: 4 4 4 4 4\n"
     "outcome: painter-coloring-not-dynamic",
     _rounds(([0, 2], [0, 2], [4, 5, 4, 5, 5], []), ([1, 3], [1, 3], [4, 4, 4, 4, 5], []),
             ([4], [4], [4, 4, 4, 4, 4], [])),
     "painter-coloring-not-dynamic", {}),
]


@pytest.mark.parametrize("g, r, kind, marks, f, text, rounds, outcome, rejections",
                         PINNED_TRANSCRIPTS, ids=[p[7] for p in PINNED_TRANSCRIPTS])
def test_transcript_render_and_json_are_pinned(g, r, kind, marks, f, text, rounds,
                                               outcome, rejections):
    painter = solve_xp_r(g, r, f).strategy() if kind == "solver" else Greedy(g)
    tr = run_transcript(g, r, painter, marks, f)
    assert tr.render() == text
    assert tr.to_json() == json.dumps(
        {"rounds": rounds, "outcome": outcome, "rejections": rejections}, indent=2)


def test_strategy_tree_roundtrip():
    g = cycle(4)
    verdict = solve_xp_r(g, 1, 2)
    tree = strategy_tree(g, 1, 2, verdict.solver)
    blob = json.dumps(tree)
    painter = TreePainter(json.loads(blob))
    report = certify_painter(g, 1, 2, painter)
    assert report.ok, report.reason


def test_gprime_first_pendant_example():
    # pendant 0 on the edge 1-2; the inner game runs on the edge
    g = Graph(3, [(0, 1), (1, 2)])
    triggers = {0: (RejectionRule("colored_any", frozenset({1}), note="u colored"),
                    dull_rule(g, 1))}
    report = run_gprime_first(g, 1, {1, 2}, {(1, 2)}, triggers, 3,
                              s_order=[0])
    assert report.ok
    assert report.max_rejections[0] <= 2


def test_gprime_first_empty_t_behaves_as_inner():
    g = complete(2)
    report = run_gprime_first(g, 1, {0, 1}, {(0, 1)}, {}, 2, s_order=[])
    assert report.ok


def test_gprime_first_truncated_triggers_fail():
    g = Graph(3, [(0, 1), (1, 2)])
    triggers = {0: (RejectionRule("colored_any", frozenset({1}), note="u colored"),)}
    report = run_gprime_first(g, 3, {1, 2}, {(1, 2)}, triggers, 3,
                              s_order=[0])
    assert not report.ok


def test_gprime_final_colorings_dynamic_on_all_lines():
    g = Graph(3, [(0, 1), (1, 2)])
    triggers = {0: (RejectionRule("colored_any", frozenset({1}), note="u colored"),
                    dull_rule(g, 1))}
    report = run_gprime_first(g, 3, {1, 2}, {(1, 2)}, triggers, 3,
                              s_order=[0])
    assert report.ok  # certify checks verify_r_dynamic on every complete line


class Partition(NamedTuple):
    """A game as the references record it: every vertex's tokens left and the
    color class of each round, with no residual needs."""

    tokens: tuple[int, ...]
    classes: tuple[frozenset[int], ...] = ()

    @property
    def colored(self):
        return frozenset().union(*self.classes)

    def uncolored(self, g):
        return frozenset(g.vertices()) - self.colored

    def coloring(self):
        return {v: i + 1 for i, cls in enumerate(self.classes) for v in cls}

    def play(self, g, marked, response):
        assert marked and marked <= self.uncolored(g) and response <= marked
        assert not any(g.has_edge(u, v) for u in response for v in response)
        tokens = tuple(t - 1 if v in marked else t for v, t in enumerate(self.tokens))
        return Partition(tokens, self.classes + (frozenset(response),))

    def position(self, g, r, watch=()):
        """The position painters see: tokens on uncolored vertices and each
        residual need counted from the classes."""
        uncolored = self.uncolored(g)
        sets = [(g.neighbors(v), min(r, g.degree(v))) for v in g.vertices()] + list(watch)
        res = tuple(max(0, need - sum(1 for cls in self.classes if cls & set(s)))
                    for s, need in sets)
        tokens = tuple(t if v in uncolored else 0 for v, t in enumerate(self.tokens))
        return Position(tokens, res, uncolored)


def random_classes(g, rng, colored, palette=None):
    """Color classes of a random proper coloring of the vertex set `colored`,
    from `palette` colors where possible (a small palette repeats colors)."""
    color = {}
    for v in rng.sample(sorted(colored), len(colored)):
        taken = {color[u] for u in g.neighbors(v) if u in color}
        free = [c for c in range(palette or g.n) if c not in taken]
        color[v] = rng.choice(free) if free else max(color.values()) + 1
    return tuple(frozenset(v for v in color if color[v] == c)
                 for c in sorted(set(color.values())))


def test_final_partition_checked_with_verifier():
    g = cycle(5)
    solver = PaintSolver(g, 1)
    bad = (frozenset({0, 2}), frozenset({1, 3}), frozenset({4}))
    coloring = {v: i + 1 for i, cls in enumerate(bad) for v in cls}
    assert (solver.painter_wins(Partition((0,) * g.n, bad).position(g, 1))
            == verify_r_dynamic(g, coloring, 1).ok)


def test_residual_terminal_condition_matches_verifier():
    # a fully colored position is a Painter win exactly when every residual
    # need is zero; that must agree with the independent verifier
    rng = random.Random(11)
    agree = set()
    for _ in range(300):
        g = random_connected_graph(rng.randrange(2, 7), rng.random(), rng)
        r = rng.randrange(1, 4)
        classes = random_classes(g, rng, g.vertices())
        coloring = {v: i + 1 for i, cls in enumerate(classes) for v in cls}
        ok = verify_r_dynamic(g, coloring, r).ok
        full = Partition((0,) * g.n, classes).position(g, r)
        assert PaintSolver(g, r).painter_wins(full) == ok
        agree.add(ok)
    assert agree == {True, False}


def test_sandwich_chromatic_below_paint():
    rng = random.Random(7)
    for _ in range(12):
        g = random_connected_graph(rng.randrange(2, 6), 0.5, rng)
        r = rng.randrange(1, 3)
        from dyncolor.coloring import chi_r_exact

        chromatic = chi_r_exact(g, r).value
        paint = xp_r_number(g, r).value
        assert chromatic <= paint


def test_exhaustive_adversary_deterministic():
    g = cycle(4)
    verdict = solve_xp_r(g, 1, 2)
    a = certify_painter(g, 1, 2, verdict.strategy())
    b = certify_painter(g, 1, 2, verdict.strategy())
    assert (a.ok, a.states, a.max_rejections) == (b.ok, b.states, b.max_rejections)
    bad = certify_painter(g, 1, 1, verdict.strategy())
    bad2 = certify_painter(g, 1, 1, verdict.strategy())
    assert bad.losing_line == bad2.losing_line


def test_scripted_gprime_budget_violation():
    from dyncolor.errors import BudgetViolated

    g = Graph(3, [(0, 1), (1, 2)])
    # vetoes on every round: vertex 0 can never be colored
    always = RejectionRule("few_colors", watch=frozenset({0, 1, 2}),
                           observe=frozenset({0, 1, 2}), threshold=99)
    with pytest.raises(BudgetViolated):
        run_gprime_first(g, 1, {1, 2}, {(1, 2)}, {0: (always,)}, 2,
                         lister=[{0, 1}, {0, 2}, {0}], s_order=[0])


def test_solver_single_vertex():
    assert solve_xp_r(Graph(1), 1, 1).painter_wins


def test_token_monotonicity_pointwise():
    rng = random.Random(8)
    for _ in range(12):
        g = random_connected_graph(rng.randrange(2, 5), 0.6, rng)
        r = rng.randrange(1, 3)
        base = [rng.randrange(1, 4) for _ in g.vertices()]
        if solve_xp_r(g, r, list(base)).painter_wins:
            bumped = list(base)
            bumped[rng.randrange(g.n)] += 1
            assert solve_xp_r(g, r, bumped).painter_wins


def test_time_limit_budget():
    from dyncolor.errors import BudgetExceeded

    g = random_connected_graph(7, 0.5, random.Random(9))
    with pytest.raises(BudgetExceeded):
        solve_xp_r(g, 2, 5, time_limit=0.0)


def reference_game_value(g, r, tokens, classes=()):
    """Independent definition: round i colors its class with color i, and the
    final coloring is checked with verify_r_dynamic.  Positions are memoized
    on the tokens of uncolored vertices and the unordered color partition
    only (color names never matter); there is no residual-need abstraction.
    `classes` is an optional start position: the color classes so far."""
    from itertools import combinations as combos

    from dyncolor.coloring import verify_r_dynamic

    memo = {}

    def independent_subsets(marked):
        out = [frozenset()]
        for v in marked:
            nv = set(g.neighbors(v))
            out.extend(s | {v} for s in list(out) if not (s & nv))
        return out

    def painter_wins(tokens, classes):
        colored = frozenset().union(*classes)
        uncolored = [v for v in g.vertices() if v not in colored]
        if not uncolored:
            coloring = {v: i + 1 for i, cls in enumerate(classes) for v in cls}
            return verify_r_dynamic(g, coloring, r).ok
        if any(tokens[v] == 0 for v in uncolored):
            return False  # Lister marks that vertex
        key = (tuple(tokens[v] for v in uncolored), frozenset(c for c in classes if c))
        if key not in memo:
            memo[key] = lister_cannot_win(tokens, classes, uncolored)
        return memo[key]

    def lister_cannot_win(tokens, classes, uncolored):
        for size in range(1, len(uncolored) + 1):
            for marked in combos(uncolored, size):
                nt = list(tokens)
                for v in marked:
                    nt[v] -= 1
                # largest responses first: the empty one first is far slower
                responses = sorted(independent_subsets(marked), key=len, reverse=True)
                if not any(painter_wins(tuple(nt), classes + (resp,))
                           for resp in responses):
                    return False
        return True

    return painter_wins(tuple(tokens), tuple(classes))


def test_solver_against_round_indexed_reference():
    rng = random.Random(10)
    for _ in range(15):
        g = random_connected_graph(rng.randrange(2, 5), 0.6, rng)
        r = rng.randrange(1, 3)
        k = rng.randrange(1, 3)
        assert (solve_xp_r(g, r, k).painter_wins
                == reference_game_value(g, r, [k] * g.n))


def test_solver_matches_reference_on_every_small_graph():
    # every connected graph on up to five vertices, r in 1..3, k in 1..4
    from dyncolor.families import all_connected_graphs

    for n in range(1, 6):
        for g in all_connected_graphs(n):
            for r in (1, 2, 3):
                for k in (1, 2, 3, 4):
                    assert (solve_xp_r(g, r, k).painter_wins
                            == reference_game_value(g, r, [k] * g.n)), (g.edges(), r, k)


def test_mid_game_positions_and_dead_state_prune():
    # random positions part-way through a game; when some vertex needs more
    # new colors than it has uncolored neighbors, the prune declares a Lister
    # win and the reference must agree
    rng = random.Random(12)
    pruned = 0
    for i in range(300):
        g = random_connected_graph(rng.randrange(2, 6), rng.random(), rng)
        r = rng.randrange(1, 4)
        # every other position is near the end of the game and reuses one
        # color wherever it can, so dead positions are common
        near_end = i % 2
        left = rng.randrange(1, 3) if near_end else rng.randrange(1, g.n + 1)
        colored = rng.sample(g.vertices(), max(0, g.n - left))
        classes = random_classes(g, rng, colored, 1 if near_end else None)
        tokens = tuple(rng.randrange(1, 4) for _ in g.vertices())
        state = Partition(tokens, classes)
        uncolored = state.uncolored(g)
        dead = any(
            min(r, g.degree(v)) - sum(1 for cls in classes if cls & set(g.neighbors(v)))
            > len(uncolored & set(g.neighbors(v)))
            for v in g.vertices()
        )
        want = reference_game_value(g, r, tokens, classes)
        assert PaintSolver(g, r).painter_wins(state.position(g, r)) == want
        if dead:
            pruned += 1
            assert not want
    assert pruned >= 15


def test_shared_solver_paint_numbers_match_fresh_solves():
    rng = random.Random(13)
    for _ in range(20):
        g = random_connected_graph(rng.randrange(2, 7), rng.random(), rng)
        r = rng.randrange(1, 4)
        k = 1
        while not solve_xp_r(g, r, k).painter_wins:
            k += 1
        assert xp_r_number(g, r).value == k


def test_extracted_strategies_pass_exhaustive_lister():
    rng = random.Random(14)
    for _ in range(30):
        g = random_connected_graph(rng.randrange(2, 7), rng.random(), rng)
        r = rng.randrange(1, 4)
        k = rng.randrange(2, 5)
        verdict = solve_xp_r(g, r, k)
        if verdict.painter_wins:
            report = certify_painter(g, r, k, verdict.strategy())
            assert report.ok, (g.edges(), r, k, report.reason)


def test_paint_number_keeps_the_game_lower_bound():
    # K3,3 is bipartite (chi_1 = 2) but not 2-paintable; with the node budget
    # of the k=2 solve, the k=3 solve runs out and the sandwich must keep xp >= 3
    from dyncolor.families import complete_bipartite

    g = complete_bipartite(3, 3)
    refuted = solve_xp_r(g, 1, 2)
    assert not refuted.painter_wins
    res = xp_r_number(g, 1, node_budget=refuted.solver.nodes)
    assert (res.exact, res.lower, res.upper) == (False, 3, 6)
    assert res.provenance[0] == "game minimax: Lister wins with 2 tokens"
    assert xp_r_number(g, 1).value == 3


def test_a_declared_genus_below_the_lower_end_is_refused():
    # K8 is not planar: the planar bound 5 sits below chi_2(K8) = 8
    with pytest.raises(ApplicabilityError) as info:
        xp_r_number(complete(8), 2, genus=0)
    assert str(info.value) == (
        "declared genus 0 leaves no paint number: upper end 5 (planar 2-dynamic"
        " paintability bound) is below lower end 8 (exact chromatic side of the"
        " sandwich)")
    # ends in order still print as a sandwich
    res = xp_r_number(complete(8), 2, genus=1)
    assert res.render() == "8  (exact chromatic side of the sandwich; rainbow bound)"


# -- the one position: reference adversary on colour partitions ------------------


def reference_certify(g, r, f, painter, track=()):
    """The exhaustive Lister on colour partitions: positions are memoized on
    (tokens of uncolored vertices, colour partition), every complete line is
    checked with verify_r_dynamic, and the painter is shown a position whose
    residuals are counted from the classes."""
    f = normalize_tokens(g, f)
    track = tuple(sorted(set(track)))
    watch = getattr(painter, "watch", ())
    memo, max_rej = {}, {v: 0 for v in track}
    out = {"states": 0, "losing": None, "reason": ""}

    def rejections(state, v):
        return f[v] - state.tokens[v] - (1 if v in state.colored else 0)

    def explore(state, line):
        uncolored = state.uncolored(g)
        for v in track:
            max_rej[v] = max(max_rej[v], rejections(state, v))
        if not uncolored:
            if verify_r_dynamic(g, state.coloring(), r).ok:
                return True
            out["losing"], out["reason"] = list(line), "final coloring not r-dynamic"
            return False
        if any(state.tokens[v] == 0 for v in uncolored):
            v = min(v for v in uncolored if state.tokens[v] == 0)
            out["losing"], out["reason"] = list(line) + [(v,)], "marked a token-less vertex"
            return False
        key = (tuple(state.tokens[v] if v in uncolored else 0 for v in g.vertices()),
               frozenset(cls for cls in state.classes if cls))
        if key in memo:
            return memo[key]
        out["states"] += 1
        verts = sorted(uncolored)
        ok = True
        for mask in range(1, 1 << len(verts)):
            marked = frozenset(v for i, v in enumerate(verts) if (mask >> i) & 1)
            step = list(line) + [tuple(sorted(marked))]
            try:
                response = respond_at(painter, state.position(g, r, watch), marked)
            except (IllegalResponse, InnerLost, BudgetViolated) as exc:
                out["losing"], out["reason"] = step, f"{type(exc).__name__}: {exc}"
                ok = False
                break
            child = state.play(g, marked, response)
            drained = [t for t in track if rejections(child, t) >= f[t]
                       and t in child.uncolored(g)]
            if drained:
                t = drained[0]
                out["losing"] = step
                out["reason"] = (f"vertex {t} drained: {rejections(child, t)} rejections"
                                 f" with {f[t]} tokens")
                ok = False
                break
            if not explore(child, step):
                ok = False
                break
        memo[key] = ok
        return ok

    ok = explore(Partition(f), [])
    return ok, "" if ok else out["reason"], out["losing"], max_rej, out["states"]


def assert_same_certification(g, r, f, painter, track=()):
    new = certify_painter(g, r, f, painter, track=track)
    ok, reason, losing, max_rej, states = reference_certify(g, r, f, painter, track)
    assert (new.ok, new.reason, new.losing_line, new.max_rejections) == (
        ok, reason, losing, max_rej)
    assert new.states <= states
    return new


def composite(g, red):
    return GPrimeFirstPainter(g, 3, red.gprime_vertices, red.gprime_edges,
                              red.s_order, red.triggers)


def test_adversary_matches_partition_reference_on_catalog_budgets():
    from dyncolor.configs import (
        ConfigKind,
        build_reduction,
        reduction_without_rules,
        suggested_tokens,
    )
    from dyncolor.gadgets import catalog_instances

    inst = catalog_instances()
    reasons = set()
    fast = ("deg<=2", "adjacent-3s", "many-3-neighbors", "light-triangle",
            "twin-triangles", "triangle-and-4-vertex", "three-triangle-fan")
    ablations = {"deg<=2": ("few_colors",), "adjacent-3s": ("colored_any",),
                 "4-with-3-neighbor": ("colored_any",)}
    for name in fast + tuple(ablations):
        emb, match = inst[ConfigKind(name)]
        g = emb.graph
        red = build_reduction(emb, match)
        tokens = suggested_tokens(g, red, 3, 10)
        f = [tokens[v] for v in g.vertices()]
        cases = [red] if name in fast else []
        if name in ablations:
            cases.append(reduction_without_rules(g, red, kinds=ablations[name]))
        for case in cases:
            rep = assert_same_certification(g, 3, f, composite(g, case), case.s_order)
            reasons.add(rep.reason.split(":")[0])
    # passes, both kinds of loss at a leaf and an illegal composite response
    assert {"", "final coloring not r-dynamic", "IllegalResponse"} <= reasons


def test_adversary_matches_partition_reference_on_random_composites():
    # random G' splits with random triggers, few_colors rules included on
    # vertex sets other than a neighbourhood, and random tokens
    rng = random.Random(15)
    reasons = set()
    for _ in range(120):
        n = rng.randrange(3, 7)
        g = random_connected_graph(n, rng.uniform(0.3, 0.8), rng)
        r = rng.randrange(1, 4)
        s = rng.sample(g.vertices(), rng.randrange(1, 3))
        gv = frozenset(g.vertices()) - set(s)
        edges = {e for e in g.edges() if set(e) <= gv}
        if rng.random() < 0.5 and len(gv) > 1:
            edges.add(tuple(sorted(rng.sample(sorted(gv), 2))))
        triggers = {}
        for t in s:
            rules = []
            for _ in range(rng.randrange(0, 3)):
                kind = rng.choice(("colored_any", "colored_all", "few_colors"))
                watch = frozenset(rng.sample(g.vertices(), rng.randrange(1, n)))
                observe = frozenset(rng.sample(g.vertices(), rng.randrange(1, n)))
                rules.append(RejectionRule(kind, watch, observe, rng.randrange(0, 4)))
            triggers[t] = tuple(rules)
        if rng.random() < 0.5:
            f = [rng.randrange(1, 4) for _ in g.vertices()]
        else:  # a winning token count on G', a roomy one on S
            inner = PaintSolver(Graph(n, edges), r)
            k = 1
            while not inner.painter_wins(start_position(inner.g, r, (k,) * n)[1]):
                k += 1
            f = [rng.randrange(3, 6) if v in s else k for v in g.vertices()]
        painter = GPrimeFirstPainter(g, r, gv, frozenset(edges), s, triggers)
        rep = assert_same_certification(g, r, f, painter, s)
        reasons.add(rep.reason.split(":")[0].split(" ")[0])
    assert {"", "final", "InnerLost", "IllegalResponse", "vertex"} <= reasons


def test_scripted_mark_of_a_colored_vertex_is_illegal():
    g = path(3)
    solver = solve_xp_r(g, 1, 2).strategy()
    with pytest.raises(IllegalMark):
        run_transcript(g, 1, solver, [{0, 1, 2}, {0}], 2)

    # a deleted vertex of the composite strategy, colored and marked again
    def composite_run(marks):
        return run_gprime_first(g, 1, {1, 2}, {(1, 2)}, {0: ()}, 3,
                                lister=marks, s_order=[0])

    assert composite_run([{0}]).rounds[0].colored == (0,)
    with pytest.raises(IllegalMark):
        composite_run([{0}, {0, 1}])


class Greedy(OnPositions):
    """Colors the marked vertices in order, skipping neighbours of those taken;
    it reads no residual."""

    def __init__(self, g):
        self.g = g

    def respond(self, pos, marked):
        taken = set()
        for v in sorted(marked):
            if not taken & set(self.g.neighbors(v)):
                taken.add(v)
        return frozenset(taken)


def test_leaf_verdict_is_confirmed_by_replay(monkeypatch):
    from dyncolor import paintgame

    g = complete(2)
    assert certify_painter(g, 1, 2, Greedy(g)).ok
    # a true loss at a leaf survives the replay check: greedy colors C5 with
    # the first mark's {0, 2}, and 1 then sees one color at r=2
    lost = certify_painter(cycle(5), 2, 5, Greedy(cycle(5)))
    assert lost.reason == "final coloring not r-dynamic"
    # a residual update that never lowers res(0) makes the terminal test
    # call a good coloring bad; the replay through verify_r_dynamic refuses it
    real = paintgame.start_position

    def mutated(*args):
        slots, start = real(*args)
        return [tuple(i for i in s if i != 0) for s in slots], start

    monkeypatch.setattr(paintgame, "start_position", mutated)
    with pytest.raises(AssertionError, match="replay ends 'painter'"):
        certify_painter(g, 1, 2, Greedy(g))


def test_few_colors_rule_reads_its_residual():
    # deleted vertex 0 is rejected while 1 is being colored and no color sits
    # on {2, 3} yet
    rule = RejectionRule("few_colors", frozenset({1}), frozenset({2, 3}), 1)
    g = Graph(4, [(0, 3), (1, 2), (2, 3)])

    def rejected(marks):
        tr = run_gprime_first(g, 1, {1, 2, 3}, {(1, 2), (2, 3)}, {0: (rule,)}, 3,
                              lister=marks, s_order=[0])
        return tr.rounds[-1].rejected

    assert rejected([{0, 1}]) == (0,)
    assert rejected([{2}, {0, 1}]) == ()


# -- the token-free adversary ------------------------------------------------------

PASSING_KINDS = ("deg<=2", "adjacent-3s", "4-with-3-neighbor", "twin-triangles",
                 "triangle-and-4-vertex")


def passing_catalog_budgets():
    from dyncolor.configs import ConfigKind, build_reduction, suggested_tokens
    from dyncolor.gadgets import catalog_instances

    inst = catalog_instances()
    for name in PASSING_KINDS:
        emb, match = inst[ConfigKind(name)]
        red = build_reduction(emb, match)
        yield name, emb.graph, red, suggested_tokens(emb.graph, red, 3, 10)


def gprime_first(g, red, tokens, lister="exhaustive"):
    return run_gprime_first(g, 3, red.gprime_vertices, red.gprime_edges, red.triggers,
                            [tokens[v] for v in g.vertices()], lister,
                            s_order=red.s_order)


def token_free_positions(g, r, painter, f, track):
    """The uncolored positions a game can reach, counted up to the tokens on
    `track`; a painter that never reads those tokens maps each such class of
    positions to one class of children."""
    slots, start = start_position(g, r, f, painter.watch)

    def key(pos):
        tokens = tuple(0 if v in track else t for v, t in enumerate(pos.tokens))
        return tokens, pos.res, pos.uncolored & set(track)

    seen, todo = {key(start)}, [start]
    while todo:
        pos = todo.pop()
        verts = sorted(pos.uncolored)
        for mask in range(1, 1 << len(verts)):
            marked = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
            child = advance(g, slots, pos, marked, respond_at(painter, pos, marked))
            if child.uncolored and key(child) not in seen:
                seen.add(key(child))
                todo.append(child)
    return len(seen)


def test_adversary_key_ignores_tokens_on_the_deleted_set():
    # the adversary searches each position once up to the tokens of S, so
    # raising them to k changes neither the states searched nor the maxima;
    # the maxima stay within the bound that the trigger lists alone imply
    from dyncolor.configs import structural_budget

    for name, g, red, tokens in passing_catalog_budgets():
        rep = gprime_first(g, red, tokens)
        roomy = gprime_first(g, red, {**tokens, **dict.fromkeys(red.s_order, 10)})
        assert rep.ok and roomy.ok, name
        assert roomy.states == rep.states, name
        assert roomy.max_rejections == rep.max_rejections, name
        f = [tokens[v] for v in g.vertices()]
        painter = composite(g, red)
        assert rep.states == token_free_positions(g, 3, painter, f, red.s_order), name
        for t in red.s_order:
            assert rep.max_rejections[t] <= structural_budget(red, t), (name, t)


def test_adversary_maxima_are_tight():
    # with f(t) at its reported maximum, t drains, and the losing line
    # replays as a scripted Lister that rejects t f(t) times
    for name, g, red, tokens in passing_catalog_budgets():
        maxima = gprime_first(g, red, tokens).max_rejections
        for t in red.s_order:
            tight = {**tokens, t: maxima[t]}
            rep = gprime_first(g, red, tight)
            assert not rep.ok and rep.reason.startswith(f"vertex {t} drained"), (name, t)
            replayed = f"vertex {t} rejected {maxima[t]} times"
            with pytest.raises(BudgetViolated, match=replayed):
                gprime_first(g, red, tight, lister=rep.losing_line)


class RejectsLoneMark(Greedy):
    """Greedy, but vertex 0 is rejected whenever it is marked alone: the mark
    {0} repeats the token-free position while 0 is tracked."""

    def respond(self, pos, marked):
        return frozenset() if marked == {0} else super().respond(pos, marked)


@pytest.mark.parametrize("g, r, f, track", [
    (path(3), 1, (30, 2, 2), (0,)),
    (cycle(4), 2, (3, 2, 2, 2), (0, 2)),
    (complete(3), 2, 3, (0,)),
])
def test_repeated_token_free_position_drains_like_the_reference(g, r, f, track):
    rep = assert_same_certification(g, r, f, RejectsLoneMark(g), track)
    assert rep.reason.startswith("vertex 0 drained")


@pytest.mark.parametrize("max_states", [10_000_000, 1])
def test_certification_frees_its_painter_without_a_cycle_collection(max_states, monkeypatch):
    # the adversary's memo, the painter and its inner solver and response
    # cache go with the call, on the BudgetExceeded path too, not at the
    # next cyclic collection
    import gc
    import weakref

    from dyncolor.errors import BudgetExceeded

    (name, g, red, tokens), *_ = passing_catalog_budgets()
    f = [tokens[v] for v in g.vertices()]
    painter = composite(g, red)
    alive = weakref.ref(painter)
    monkeypatch.setattr(paintgame, "CERTIFY_MAX_STATES", max_states)
    gc.disable()
    try:
        try:
            ok = certify_painter(g, 3, f, painter, track=red.s_order).ok
        except BudgetExceeded:
            ok = None
        assert ok is (None if max_states == 1 else True), name
        del painter
        assert alive() is None
    finally:
        gc.enable()


# -- the packed adversary ----------------------------------------------------------


SMALL_PAINTERS = {
    "solver": lambda g, r, k: solve_xp_r(g, r, k).solver,
    "tree": lambda g, r, k: TreePainter(strategy_tree(g, r, k, solve_xp_r(g, r, k).solver)),
}


@pytest.mark.parametrize("kind", SMALL_PAINTERS)
@pytest.mark.parametrize("g, r, k", [(cycle(4), 1, 2), (cycle(5), 1, 3),
                                     (complete(3), 2, 3), (path(4), 2, 3)])
def test_packed_and_position_painters_match_the_reference(kind, g, r, k):
    # k is the paint number: a strategy for k tokens passes; with k - 1 the
    # solver finds no winning response and the tree meets a position it lacks
    painter = SMALL_PAINTERS[kind](g, r, k)
    assert assert_same_certification(g, r, k, painter).ok
    short = k - 1
    lost = assert_same_certification(g, r, short, painter)
    assert lost.reason.startswith("InnerLost")


# states the token-free adversary searches with suggested_tokens on each
# catalog budget and ablation control
CATALOG_STATES = {
    "deg<=2": 29, "adjacent-3s": 19, "4-with-3-neighbor": 279, "twin-triangles": 455,
    "triangle-and-4-vertex": 207, "many-3-neighbors": 256, "three-triangle-fan": 350,
    "light-triangle": 20, "ablation:deg<=2": 19, "ablation:adjacent-3s": 8,
    "ablation:4-with-3-neighbor": 71,
}
ABLATIONS = {"deg<=2": ("few_colors",), "adjacent-3s": ("colored_any",),
             "4-with-3-neighbor": ("colored_any",)}
_references: dict = {}


def catalog_case(name):
    """Graph, reduction and suggested tokens of a catalog budget or ablation
    control, with the partition reference's certification (computed once)."""
    from dyncolor.configs import (
        ConfigKind,
        build_reduction,
        reduction_without_rules,
        suggested_tokens,
    )
    from dyncolor.gadgets import catalog_instances

    if name not in _references:
        kind = name.removeprefix("ablation:")
        emb, match = catalog_instances()[ConfigKind(kind)]
        g = emb.graph
        red = build_reduction(emb, match)
        tokens = suggested_tokens(g, red, 3, 10)
        if name != kind:
            red = reduction_without_rules(g, red, kinds=ABLATIONS[kind])
        f = [tokens[v] for v in g.vertices()]
        _references[name] = g, red, f, reference_certify(g, 3, f, composite(g, red),
                                                         red.s_order)
    return _references[name]


CATALOG_CASES = PASSING_KINDS + tuple(f"ablation:{k}" for k in ABLATIONS)


# "native": the composite painter certified on its own packed answers
@pytest.mark.parametrize("name", CATALOG_CASES, ids=[f"{c}-native" for c in CATALOG_CASES])
def test_composite_certification_matches_the_reference(name):
    g, red, f, (ok, reason, losing, max_rej, _) = catalog_case(name)
    rep = certify_painter(g, 3, f, composite(g, red), track=red.s_order)
    assert (rep.ok, rep.reason, rep.losing_line, rep.max_rejections) == (
        ok, reason, losing, max_rej)
    assert rep.ok == (name in PASSING_KINDS)
    assert rep.states == CATALOG_STATES[name]


@pytest.mark.parametrize("name", ["many-3-neighbors", "three-triangle-fan", "light-triangle"])
def test_failing_catalog_budgets_search_the_pinned_states(name):
    from dyncolor.configs import ConfigKind, build_reduction, check_budget
    from dyncolor.gadgets import catalog_instances

    emb, match = catalog_instances()[ConfigKind(name)]
    rep = check_budget(emb, build_reduction(emb, match), 3, 10)
    assert not rep.ok and rep.certification.states == CATALOG_STATES[name]


# search size at the change that packed the dead test: equal counts tell a
# faster inner loop from a smaller search
SEARCH_SIZES = [
    ("C7", cycle(7), 1, 3, 526, True),
    ("C8", cycle(8), 2, 3, 145, False),
    ("C8", cycle(8), 2, 4, 4_770, True),
    ("W5", wheel(5), 2, 4, 697, True),
    ("K1,8", star(8), 2, 3, 4_640, True),  # degree 8: five-bit fields
    ("W8", wheel(8), 3, 4, 659, False),
]


@pytest.mark.parametrize("name, g, r, k, nodes, wins", SEARCH_SIZES,
                         ids=[f"{c[0]}-r{c[2]}-k{c[3]}" for c in SEARCH_SIZES])
def test_search_size_is_pinned(name, g, r, k, nodes, wins):
    verdict = solve_xp_r(g, r, k, max_n=9)
    assert verdict.painter_wins == wins
    assert verdict.solver.nodes == nodes
    assert len(verdict.solver.memo) == nodes


def test_packed_dead_test_and_free_counts_match_a_recount():
    rng = random.Random(15)
    graphs = [star(8), wheel(8)]
    graphs += [random_connected_graph(rng.randrange(2, 10), rng.random(), rng)
               for _ in range(40)]
    dead_seen = live_seen = 0
    for g in graphs:
        solver = PaintSolver(g, 3)
        lay = solver._lay
        assert lay.field >> 1 >= max(g.degree(v) for v in g.vertices())

        def recount(uncolored):
            return tuple(len(set(g.neighbors(v)) & uncolored) for v in g.vertices())

        for _ in range(20):
            uncolored = {v for v in g.vertices() if rng.random() < 0.6}
            free = solver._free(lay.mask(uncolored))
            counts = recount(uncolored)
            assert lay.unpack(free) == counts
            res = [rng.randrange(g.degree(v) + 1) for v in g.vertices()]
            packed = ((free | lay.high) - lay.pack(res)) & lay.high != lay.high
            dead = any(need > count for need, count in zip(res, counts))
            assert packed == dead
            dead_seen += dead
            live_seen += not dead
        # lower the counts along a line of independent responses
        uncolored = set(g.vertices())
        free = solver._free(lay.mask(uncolored))
        while uncolored:
            marked = lay.mask(rng.sample(sorted(uncolored), rng.randrange(1, len(uncolored) + 1)))
            colored, _, _, lost = rng.choice(solver._responses(marked))
            free -= lost
            uncolored -= set(lay.items(colored))
            assert free == solver._free(lay.mask(uncolored))
            assert lay.unpack(free) == recount(uncolored)
    assert dead_seen >= 100 and live_seen >= 100


def test_strategy_tree_response_order_is_pinned():
    # the response order fixes strategy trees, GPrimeFirstPainter's answers
    # and the budget maxima; this is the C5 tree at r = 2, k = xp = 5
    g = cycle(5)
    tree = strategy_tree(g, 2, 5, PaintSolver(g, 2))
    assert len(tree["nodes"]) == 202
    digest = hashlib.sha256(json.dumps(tree, sort_keys=True).encode()).hexdigest()
    assert digest == "76ae52d9aaee9bb3487c6fc2e38e1cd6a04858d450953103f1a953d60dd7533a"


# -- one painter protocol ------------------------------------------------------------


def test_every_painter_answers_packed_positions_only():
    g = cycle(4)
    solver = solve_xp_r(g, 1, 2).solver
    painters = (solver,
                GPrimeFirstPainter(g, 1, frozenset(g.vertices()), frozenset(g.edges()), (), {}),
                TreePainter(strategy_tree(g, 1, 2, solver)))
    for painter in painters:
        assert callable(painter.fit) and callable(painter.respond_packed)
        assert not hasattr(painter, "respond"), type(painter).__name__


def test_certification_refuses_a_painter_without_the_packed_protocol():
    # a painter with neither `fit` nor `respond_packed` fails before the
    # adversary searches a state: no mark is ever shown to it
    shown = []

    class OnlyRespond:
        def respond(self, pos, marked):
            shown.append(marked)
            return frozenset()

    with pytest.raises(AttributeError, match="fit"):
        certify_painter(cycle(4), 1, 2, OnlyRespond())
    assert shown == []


def test_respond_at_refuses_a_colored_vertex_as_advance_does():
    g = path(3)
    painters = (solve_xp_r(g, 1, 2).solver,
                GPrimeFirstPainter(g, 1, frozenset({1, 2}), frozenset({(1, 2)}), (0,), {0: ()}))
    for painter in painters:
        slots, start = start_position(g, 1, (2, 2, 2), getattr(painter, "watch", ()))
        pos = advance(g, slots, start, {0}, {0})
        with pytest.raises(IllegalMark) as want:
            advance(g, slots, pos, {0, 1}, ())
        with pytest.raises(IllegalMark) as got:
            respond_at(painter, pos, {0, 1})
        assert str(got.value) == str(want.value) == "colored vertices marked: [0]"
