"""The Lister/Painter token game with the r-dynamic winning condition.

Lister marks a nonempty set of uncolored vertices each round (each marked
vertex spends a token; marking a token-less vertex wins for Lister) and
Painter colors an independent subset of the marked set with that round's
color.  Painter wins if the final coloring is r-dynamic.  Each round's color
is fresh, so the past matters only through residual needs: a `Position` holds
the tokens on uncolored vertices and one residual per watched vertex set,
which `advance` lowers whenever a response meets the set.  The first n sets
are N(v) with need min(r, d(v)), so Painter has won once all is colored and
those residuals are 0; a painter may watch more sets (its `watch` attribute).
Painters answer `respond(position, marked)` from the tokens and residuals
alone, so the minimax solver, the exhaustive adversary and strategy trees all
key positions on them.  The adversary may track a vertex set whose tokens its
painter never reads (the deleted set of a reduction): it then keys positions
on the other tokens, the residuals and the uncolored tracked vertices, and
stores with each the most rejections every tracked vertex can still get.
The solver declares a position lost when some res(v) exceeds the uncolored
neighbors of v, as each round adds at most one color there.  A scripted game
is played with `advance` too; its transcript keeps the round in which each
vertex was colored, for `verify_r_dynamic`.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .coloring import chi_r_exact, verify_r_dynamic
from .errors import (
    BudgetExceeded,
    BudgetViolated,
    IllegalMark,
    IllegalResponse,
    InnerLost,
)
from .graph import Graph


def normalize_tokens(g: Graph, f) -> tuple[int, ...]:
    """Accept an int (uniform), sequence, or mapping; initial tokens must be positive."""
    if isinstance(f, int):
        tokens = tuple([f] * g.n)
    elif isinstance(f, dict):
        tokens = tuple(f[v] for v in g.vertices())
    else:
        tokens = tuple(f)
    if len(tokens) != g.n:
        raise ValueError("token assignment has wrong length")
    if any(t < 1 for t in tokens):
        raise ValueError("initial tokens must be positive")
    return tokens


class Position(NamedTuple):
    """A position as painters see it: tokens on uncolored vertices (0 on
    colored ones), one residual need per watched set, and the uncolored set."""

    tokens: tuple[int, ...]
    res: tuple[int, ...]
    uncolored: frozenset[int]


def start_position(g: Graph, r: int, tokens: Sequence[int], watch=()):
    """The watched sets and the position before the first round: N(v) with need
    min(r, d(v)) for each vertex, then the (set, need) pairs of `watch`.

    The watched sets come indexed by vertex: entry v lists the residual slots
    whose set contains v, the slots a response coloring v lowers."""
    sets = [g.neighbors(v) for v in g.vertices()] + [s for s, _ in watch]
    slots: list[list[int]] = [[] for _ in g.vertices()]
    for i, s in enumerate(sets):
        for v in s:
            slots[v].append(i)
    res = [min(r, g.degree(v)) for v in g.vertices()] + [max(0, need) for _, need in watch]
    return ([tuple(s) for s in slots],
            Position(tuple(tokens), tuple(res), frozenset(g.vertices())))


def advance(g: Graph, slots: Sequence[Sequence[int]], pos: Position,
            marked: Iterable[int], response: Iterable[int]) -> Position:
    """The position after one round: Lister marks a nonempty set of uncolored
    vertices (IllegalMark otherwise) and Painter colors an independent subset
    of it (IllegalResponse otherwise).  `slots` is the vertex index of the
    watched sets from `start_position`."""
    marked = frozenset(marked)
    response = frozenset(response)
    if not marked:
        raise IllegalMark("Lister must mark a nonempty set")
    if not marked <= pos.uncolored:
        raise IllegalMark(f"colored vertices marked: {sorted(marked - pos.uncolored)}")
    if not response <= marked:
        raise IllegalResponse("response must be a subset of the marked set")
    for u, v in combinations(sorted(response), 2):
        if g.has_edge(u, v):
            raise IllegalResponse(f"response contains adjacent pair {u},{v}")
    tokens = list(pos.tokens)
    for v in marked:
        tokens[v] = 0 if v in response else tokens[v] - 1
    res = list(pos.res)
    for i in {i for v in response for i in slots[v]}:  # a set meets a response once
        if res[i]:
            res[i] -= 1
    return Position(tuple(tokens), tuple(res), pos.uncolored - response)


# -- exact minimax solver -----------------------------------------------------------


class PaintSolver:
    """Minimax oracle for one (graph, r) pair; memo shared across queries.

    Token and residual-need vectors are ints with a w-bit field per vertex (v
    at bit v*w); a vertex set is the int with the low bit of each member's
    field set, so marking a set subtracts it from the tokens.  Top field bits
    stay clear, which lets `_nonzero` test all fields at once.
    """

    def __init__(self, g: Graph, r: int, *, node_budget: int | None = None,
                 deadline: float | None = None):
        self.g = g
        self.r = r
        self.memo: dict[int, bool] = {}
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0
        self._need = [min(r, g.degree(v)) for v in g.vertices()]
        self._layout(max(self._need, default=0))

    def _layout(self, largest: int) -> None:
        # fields hold values up to `largest`; packed keys change, so start over
        self._w = w = max(4, largest.bit_length() + 1)
        self._field = (1 << w) - 1
        low = self._mask(self.g.vertices())
        self._high = low << (w - 1)
        self._half = self._high - low
        self._nbr = [self._mask(self.g.neighbors(v)) for v in self.g.vertices()]
        self._tables: dict[int, list] = {}
        self.memo.clear()

    def _mask(self, vertices: Iterable[int]) -> int:
        return sum(1 << (v * self._w) for v in vertices)

    def _vertices(self, mask: int) -> frozenset[int]:
        return frozenset(v for v in self.g.vertices() if mask >> (v * self._w) & 1)

    def _nonzero(self, packed: int) -> int:
        """The set of vertices whose field in `packed` is not zero."""
        return ((packed + self._half) & self._high) >> (self._w - 1)

    def _responses(self, marked: int) -> list:
        """Painter's answers to a mark, largest first, then by vertex list, as
        (set colored, set whose neighborhood it meets, mask clearing its fields)."""
        table = self._tables.get(marked)
        if table is None:
            subs = [()]
            for v in sorted(self._vertices(marked)):
                subs += [s + (v,) for s in subs if not self._mask(s) & self._nbr[v]]
            subs.sort(key=lambda s: (-len(s), s))
            table = self._tables[marked] = []
            for s in subs:
                colored = self._mask(s)
                touched = self._mask({u for v in s for u in self.g.neighbors(v)})
                table.append((colored, touched, ~(colored * self._field)))
        return table

    def _pack(self, pos: Position) -> tuple[int, int, int]:
        """Packed (tokens, residual needs, uncolored set) of a position whose
        first n residuals are this solver's neighborhoods; one call starts one
        solve for the node budget."""
        self._limit = self.nodes + (self.node_budget if self.node_budget is not None
                                    else float("inf"))
        largest = max((pos.tokens[v] for v in pos.uncolored), default=0)
        if largest > self._field >> 1:
            self._layout(max(largest, *self._need))
        w = self._w
        tokens = sum(pos.tokens[v] << (v * w) for v in pos.uncolored)
        res = sum(x << (v * w) for v, x in enumerate(pos.res[:self.g.n]))
        return tokens, res, self._mask(pos.uncolored)

    def _wins(self, tokens: int, res: int, uncolored: int) -> bool:
        """Verdict of a position in which every uncolored vertex has a token
        (the memo key leaves the uncolored set implicit in the tokens)."""
        if not uncolored:
            return not res
        key = res << (self.g.n * self._w) | tokens
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        # dead: a vertex needs more new colors than it has uncolored
        # neighbors, and each round adds at most one color to a neighborhood
        if any(res >> (v * self._w) & self._field > (nb & uncolored).bit_count()
               for v, nb in enumerate(self._nbr)):
            return False
        self.nodes += 1
        if self.nodes > self._limit:
            raise BudgetExceeded(f"game search exceeded {self.node_budget} nodes")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("game search hit the time limit")
        needy = self._nonzero(res)
        verdict = True
        marked = uncolored  # subsets in descending order: big marks refute fastest
        while verdict and marked:
            left = tokens - marked
            spent = marked & ~self._nonzero(left)
            for colored, touched, clear in self._responses(marked):
                if not spent & ~colored and self._wins(
                        left & clear, res - (needy & touched), uncolored ^ colored):
                    break
            else:
                verdict = False
            marked = (marked - 1) & uncolored
        self.memo[key] = verdict
        return verdict

    # -- play interfaces ---------------------------------------------------------

    def painter_wins(self, pos: Position) -> bool:
        """Exact verdict of the game from `pos`; Lister has won if an uncolored
        vertex has no token."""
        tokens, res, uncolored = self._pack(pos)
        return (self._nonzero(tokens) & uncolored == uncolored
                and self._wins(tokens, res, uncolored))

    def winning_response(self, pos: Position, marked: Iterable[int]) -> frozenset[int]:
        """First winning response in the solver's deterministic order."""
        marked = frozenset(marked)
        if not marked <= pos.uncolored:
            raise IllegalMark(f"colored vertices marked: {sorted(marked - pos.uncolored)}")
        if any(pos.tokens[v] == 0 for v in marked):
            raise InnerLost("a marked vertex had no tokens")
        tokens, res, uncolored = self._pack(pos)
        mask = self._mask(marked)
        needy = self._nonzero(res)
        for colored, touched, clear in self._responses(mask):
            left, rest = (tokens - mask) & clear, uncolored ^ colored
            if (self._nonzero(left) & rest == rest
                    and self._wins(left, res - (needy & touched), rest)):
                return self._vertices(colored)
        raise InnerLost("no winning response from this position")

    respond = winning_response  # the solver is itself a Painter


@dataclass
class GameVerdict:
    painter_wins: bool
    solver: PaintSolver
    tokens: tuple[int, ...]

    def strategy(self) -> PaintSolver:
        if not self.painter_wins:
            raise ValueError("Painter does not win; no strategy to extract")
        return self.solver


def solve_xp_r(
    g: Graph,
    r: int,
    f,
    *,
    max_n: int = 7,
    force: bool = False,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> GameVerdict:
    """Exact minimax verdict of the r-dynamic paintability game with tokens f."""
    if g.n > max_n and not force:
        raise BudgetExceeded(f"n={g.n} above game solver cap {max_n}")
    tokens = normalize_tokens(g, f)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    solver = PaintSolver(g, r, node_budget=node_budget, deadline=deadline)
    _, start = start_position(g, r, tokens)
    return GameVerdict(solver.painter_wins(start), solver, tokens)


# -- painter strategies --------------------------------------------------------------


@dataclass(frozen=True)
class RejectionRule:
    """Veto rule for one T-vertex: reject while the condition holds this round.

    kind 'colored_any': fires when the response-so-far touches `watch`.
    kind 'colored_all': fires when all of `watch` is being colored this round.
    kind 'few_colors' : fires when fewer than `threshold` distinct colors sit on
                        `observe` (colors from earlier rounds) and the
                        response-so-far touches `watch`; `fires` reads the
                        residual of `observe` watched with need `threshold`.
    """

    kind: str
    watch: frozenset[int]
    observe: frozenset[int] = frozenset()
    threshold: int = 0
    note: str = ""

    def fires(self, residual: int, being_colored: frozenset[int]) -> bool:
        if self.kind == "colored_any":
            return bool(being_colored & self.watch)
        if self.kind == "colored_all":
            return bool(self.watch) and self.watch <= being_colored
        if self.kind == "few_colors":
            return residual > 0 and bool(being_colored & self.watch)
        raise ValueError(f"unknown rule kind {self.kind}")

    def render(self) -> str:
        if self.kind == "colored_any":
            body = f"any of {sorted(self.watch)} is being colored"
        elif self.kind == "colored_all":
            body = f"all of {sorted(self.watch)} are being colored"
        else:
            body = (f"{sorted(self.observe)} shows < {self.threshold} colors and "
                    f"any of {sorted(self.watch)} is being colored")
        tag = f" [{self.note}]" if self.note else ""
        return f"reject while {body}{tag}"


def dull_rule(g: Graph, w: int) -> RejectionRule:
    """Veto while w is dull (< min(3, d(w)) - 1 colors on N(w), at the torus
    catalog's r = 3) and a neighbor of w is being colored."""
    nbrs = frozenset(g.neighbors(w))
    return RejectionRule(
        "few_colors",
        watch=nbrs,
        observe=nbrs,
        threshold=min(3, g.degree(w)) - 1,
        note=f"dull({w})",
    )


class GPrimeFirstPainter:
    """Composite Painter: a winning strategy on G' plus trigger-vetoed S-vertices.

    The inner solver plays on G' in the outer labels, with S left isolated.
    The painter watches N_G'(v) for every vertex (the inner solver's
    residuals) and the observed set of each few_colors rule, so it is a
    function of the residuals and the tokens on G'; it reads no token of S,
    so the exhaustive adversary tracking S keys positions without them.
    """

    def __init__(
        self,
        g: Graph,
        r: int,
        gprime_vertices: frozenset[int],
        gprime_edges: frozenset[tuple[int, int]],
        s_order: Sequence[int],
        triggers: dict[int, tuple[RejectionRule, ...]],
    ):
        self.g = g
        self.gv = frozenset(gprime_vertices)
        self.s_order = tuple(s_order)
        if self.gv & set(self.s_order):
            raise ValueError("S overlaps V(G')")
        self.triggers = triggers
        gprime = Graph(g.n, gprime_edges)
        self.inner = PaintSolver(gprime, r)
        few = dict.fromkeys(rule for rules in triggers.values() for rule in rules
                            if rule.kind == "few_colors")
        # residual n + v watches N_G'(v); residual 2n + i the i-th few_colors rule
        self._slot = {rule: 2 * g.n + i for i, rule in enumerate(few)}
        self.watch = [(gprime.neighbors(v), min(r, gprime.degree(v)))
                      for v in g.vertices()]
        self.watch += [(rule.observe, rule.threshold) for rule in few]
        self._gorder = sorted(self.gv)
        # inner winning responses by (G' tokens and residuals, inner mark); an
        # uncolored vertex of G' keeps a token under the inner strategy, so
        # the tokens give the uncolored part of G'
        self._inner_responses: dict = {}
        self._sets: dict = {}  # one copy of each mark and response, to keep the cache small

    def respond(self, pos: Position, marked: frozenset[int]) -> frozenset[int]:
        n = self.g.n
        inner_marked = self.gv.intersection(marked)
        response: set[int] = set()
        if inner_marked:
            inner_marked = self._sets.setdefault(inner_marked, inner_marked)
            res = pos.res[n:2 * n]
            key = tuple(map(pos.tokens.__getitem__, self._gorder)) + res, inner_marked
            inner = self._inner_responses.get(key)
            if inner is None:
                inner = self.inner.winning_response(
                    Position(pos.tokens, res, pos.uncolored & self.gv), inner_marked)
                inner = self._inner_responses[key] = self._sets.setdefault(inner, inner)
            response |= inner
        for t in self.s_order:
            if t not in marked or t not in pos.uncolored:
                continue
            being_colored = frozenset(response)
            vetoed = any(
                rule.fires(pos.res[self._slot[rule]] if rule in self._slot else 0,
                           being_colored)
                for rule in self.triggers.get(t, ())
            )
            if not vetoed:
                response.add(t)
        for u, v in combinations(sorted(response), 2):
            if self.g.has_edge(u, v):
                raise IllegalResponse(
                    f"triggers allowed adjacent pair {u},{v} in one round"
                )
        return frozenset(response)


# -- transcripts and adversaries -------------------------------------------------------


@dataclass
class RoundRecord:
    index: int
    marked: tuple[int, ...]
    colored: tuple[int, ...]
    tokens: tuple[int, ...]
    rejected: tuple[int, ...]


@dataclass
class Transcript:
    rounds: list[RoundRecord]
    final: dict[int, int]  # vertex -> round in which it was colored
    outcome: str   # 'painter', 'lister', or a failure note
    rejections: dict[int, int]

    def render(self) -> str:
        lines = []
        for rec in self.rounds:
            lines.append(
                f"round {rec.index} | marked: {' '.join(map(str, rec.marked)) or '-'}"
                f" | colored: {' '.join(map(str, rec.colored)) or '-'}"
                f" | tokens: {' '.join(map(str, rec.tokens))}"
            )
        lines.append(f"outcome: {self.outcome}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "rounds": [
                {"index": r.index, "marked": list(r.marked),
                 "colored": list(r.colored), "tokens": list(r.tokens),
                 "rejected": list(r.rejected)}
                for r in self.rounds
            ],
            "outcome": self.outcome,
            "rejections": {str(k): v for k, v in sorted(self.rejections.items())},
        }, indent=2)


def run_transcript(
    g: Graph,
    r: int,
    painter,
    marks: Iterable[Iterable[int]],
    f,
) -> Transcript:
    """Play a scripted sequence of Lister marks against a painter.

    Each round records every vertex's tokens left, a colored vertex keeping
    those it had when colored."""
    tokens = normalize_tokens(g, f)
    slots, pos = start_position(g, r, tokens, getattr(painter, "watch", ()))
    coloring: dict[int, int] = {}
    rejections: Counter[int] = Counter()
    rounds: list[RoundRecord] = []
    outcome = "painter"
    for i, marked in enumerate(marks, start=1):
        marked = frozenset(marked)
        tokens = tuple(t - 1 if v in marked else t for v, t in enumerate(tokens))
        if any(pos.tokens[v] == 0 for v in marked & pos.uncolored):
            outcome = "lister"
            advance(g, slots, pos, marked, ())  # marking a colored vertex still raises
            rounds.append(RoundRecord(i, tuple(sorted(marked)), (), tokens, ()))
            break
        response = painter.respond(pos, marked)
        pos = advance(g, slots, pos, marked, response)
        coloring.update(dict.fromkeys(response, i))
        rejected = tuple(sorted(marked - response))
        rejections.update(rejected)
        rounds.append(RoundRecord(i, tuple(sorted(marked)),
                                  tuple(sorted(response)), tokens, rejected))
        if not pos.uncolored:
            break
    if outcome == "painter":
        if pos.uncolored:
            outcome = "unfinished"
        elif not verify_r_dynamic(g, coloring, r).ok:
            outcome = "painter-coloring-not-dynamic"
    return Transcript(rounds, coloring, outcome, dict(rejections))


@dataclass
class CertificationReport:
    ok: bool
    reason: str
    losing_line: list[tuple[int, ...]] | None
    max_rejections: dict[int, int]
    states: int

    def render(self) -> str:
        head = "PASS" if self.ok else f"FAIL: {self.reason}"
        rej = " ".join(f"{v}:{c}" for v, c in sorted(self.max_rejections.items()))
        return f"{head} | states {self.states} | max rejections {rej or '-'}"


def certify_painter(
    g: Graph,
    r: int,
    f,
    painter,
    *,
    node_cap: int = 10_000_000,
    track: Iterable[int] = (),
) -> CertificationReport:
    """Exhaustive Lister: every mark sequence is played against the painter.

    The painter must be a function of the residuals it watches and of the
    tokens off the tracked set; it must not read a tracked vertex's tokens.
    Positions are memoized on (tokens off the tracked set, residuals,
    uncolored part of the tracked set).  A vertex's rejections are its spent
    tokens while it is uncolored and stay fixed once it is colored, so an
    entry holds, for each uncolored tracked t, the most rejections t can
    still get below the position: a longest path over rounds.  States and
    maxima are therefore the same for every choice of tracked tokens under
    which no line drains.  An entry is written once its subtree has passed,
    so a key still on the current line is a miss; meeting it again means
    rounds that marked tracked vertices only and colored none, and the line
    drains in the end.  A hit whose prefix plus future rejections of t
    reaches f(t) is searched again, in mark order, down to the first drain,
    so the verdict, reason, losing line and maxima are those a search
    without the memo gives.  A line whose final residuals call the coloring
    not r-dynamic is replayed and the verdict confirmed with
    `verify_r_dynamic`.
    """
    f = normalize_tokens(g, f)
    track = tuple(sorted(set(track)))
    slots, start = start_position(g, r, f, getattr(painter, "watch", ()))
    # in a key a tracked vertex reads 1 while uncolored (it has a token then)
    # and 0 once colored
    cap = [1 if v in track else f[v] for v in g.vertices()]
    memo: dict = {}  # key -> most future rejections of each uncolored tracked vertex
    max_rej = {v: 0 for v in track}
    states = 0
    losing: list[tuple[int, ...]] | None = None
    reason = ""

    def explore(pos: Position, line: list[tuple[int, ...]]) -> dict[int, int] | None:
        """The most future rejections of each uncolored tracked vertex below
        `pos`, or None once a line is lost."""
        nonlocal states, losing, reason
        uncolored = pos.uncolored
        for v in track:
            if v in uncolored:
                max_rej[v] = max(max_rej[v], f[v] - pos.tokens[v])
        if not uncolored:
            if not any(pos.res[:g.n]):
                return {}
            losing, reason = list(line), "final coloring not r-dynamic"
            return None
        if any(pos.tokens[v] == 0 for v in uncolored):
            v = min(v for v in uncolored if pos.tokens[v] == 0)
            losing, reason = list(line) + [(v,)], "marked a token-less vertex"
            return None
        key = tuple(map(min, pos.tokens, cap)), pos.res
        future = memo.get(key)
        if future is not None and all(n < pos.tokens[t] for t, n in future.items()):
            for t, n in future.items():
                max_rej[t] = max(max_rej[t], f[t] - pos.tokens[t] + n)
            return future
        states += 1  # a miss, or a hit with a drain below it
        if states > node_cap:
            raise BudgetExceeded(f"exhaustive adversary exceeded {node_cap} states")
        verts = sorted(uncolored)
        future = {t: 0 for t in track if t in uncolored}
        for mask in range(1, 1 << len(verts)):
            step = tuple(v for i, v in enumerate(verts) if mask >> i & 1)
            marked = frozenset(step)
            try:
                response = painter.respond(pos, marked)
            except (IllegalResponse, InnerLost, BudgetViolated) as exc:
                losing, reason = line + [step], f"{type(exc).__name__}: {exc}"
                return None
            child = advance(g, slots, pos, marked, response)
            drained = next((t for t in track
                            if t in child.uncolored and not child.tokens[t]), None)
            if drained is not None:
                losing = line + [step]
                reason = (f"vertex {drained} drained: {f[drained]} rejections"
                          f" with {f[drained]} tokens")
                return None
            line.append(step)
            below = explore(child, line)
            line.pop()
            if below is None:
                return None
            for t, n in below.items():  # t was uncolored and, if marked, rejected
                future[t] = max(future[t], (t in marked) + n)
        memo[key] = future
        return future

    try:
        ok = explore(start, []) is not None
    finally:
        explore = None  # explore's closure holds explore: free the memo now
    if reason == "final coloring not r-dynamic":
        replay = run_transcript(g, r, painter, losing, f)
        if replay.outcome != "painter-coloring-not-dynamic":
            raise AssertionError(
                f"the residuals call the final coloring of {losing} not r-dynamic, "
                f"but its replay ends {replay.outcome!r}"
            )
    return CertificationReport(ok, "" if ok else reason, losing, max_rej, states)


def run_gprime_first(
    g: Graph,
    r: int,
    gprime_vertices,
    gprime_edges,
    triggers: dict[int, tuple[RejectionRule, ...]],
    f,
    lister="exhaustive",
    *,
    s_order: Sequence[int] | None = None,
    node_cap: int = 10_000_000,
):
    """Drive the composite strategy; exhaustive lister or a scripted mark list.

    With the exhaustive adversary the result is a CertificationReport whose
    max_rejections must stay at or below f(v)-1 for every T-vertex; a scripted
    adversary yields a single Transcript.
    """
    gv = frozenset(gprime_vertices)
    order = tuple(s_order) if s_order is not None else tuple(
        sorted(set(g.vertices()) - gv)
    )
    painter = GPrimeFirstPainter(
        g, r, gv, frozenset(tuple(e) for e in gprime_edges), order, triggers
    )
    if lister == "exhaustive":
        return certify_painter(g, r, f, painter, node_cap=node_cap, track=order)
    transcript = run_transcript(g, r, painter, lister, f)
    tokens = normalize_tokens(g, f)
    for t in order:
        if transcript.rejections.get(t, 0) > tokens[t] - 1:
            raise BudgetViolated(
                f"vertex {t} rejected {transcript.rejections[t]} times with "
                f"{tokens[t]} tokens; the trigger set is wrong"
            )
    return transcript


# -- paint number -------------------------------------------------------------------


@dataclass(frozen=True)
class XpResult:
    lower: int
    upper: int
    exact: bool
    provenance: tuple[str, ...]

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("only an interval is known")
        return self.lower

    def render(self) -> str:
        if self.exact:
            return f"{self.lower}  ({'; '.join(self.provenance)})"
        return f"[{self.lower}, {self.upper}]  ({'; '.join(self.provenance)})"


def xp_r_number(
    g: Graph,
    r: int,
    *,
    max_n: int = 7,
    force: bool = False,
    node_budget: int | None = None,
    genus: int | None = None,
) -> XpResult:
    """Exact paint number by ascending uniform-token solves; interval fallback.

    When the game is out of reach, returns the sandwich between the exact (or
    partially-bounded) chromatic side and the best applicable structural upper
    bound, each tagged with its provenance.
    """
    if g.n == 0:
        return XpResult(0, 0, True, ("empty graph",))
    refuted = 0  # largest token count at which the game found a Lister win
    if g.n <= max_n or force:
        # one solver for every k: the memo key holds the tokens
        solver = PaintSolver(g, r, node_budget=node_budget)
        k = max(min(r, g.degree(v)) + 1 for v in g.vertices()) if g.m else 1
        try:
            while not solver.painter_wins(start_position(g, r, (k,) * g.n)[1]):
                refuted, k = k, k + 1
            return XpResult(k, k, True, ("exhaustive game minimax",))
        except BudgetExceeded:
            pass
    lower, lower_note = 1, "trivial"
    try:
        lower = chi_r_exact(g, r).value
        lower_note = "exact chromatic side of the sandwich"
    except BudgetExceeded as exc:
        if exc.lower:
            lower, lower_note = exc.lower, "partial chromatic search"
    if refuted + 1 > lower:
        lower, lower_note = refuted + 1, f"game minimax: Lister wins with {refuted} tokens"
    upper, upper_note = g.n, "rainbow bound"
    if genus is not None:
        if genus <= 1 and r == 3 and 10 < upper:
            upper, upper_note = 10, "toroidal 3-dynamic paintability bound"
        if genus == 0 and r == 2 and 5 < upper:
            upper, upper_note = 5, "planar 2-dynamic paintability bound"
        from .bounds import bound_profile

        prof = bound_profile(genus, r)
        if prof.applicable and prof.ell < upper:
            upper, upper_note = prof.ell, "genus contraction bound"
    return XpResult(lower, upper, lower == upper, (lower_note, upper_note))


# -- strategy trees -------------------------------------------------------------------


def strategy_tree(g: Graph, r: int, f, solver: PaintSolver) -> dict:
    """Materialized winning strategy: every Lister mark mapped to the response.

    Nodes are positions shared by (tokens, residual needs), so the tree is a
    DAG in memory and in the serialized form (nodes table plus root).
    """
    f = normalize_tokens(g, f)
    slots, start = start_position(g, r, f)
    names: dict = {}
    nodes: dict = {}

    def build(pos: Position) -> str:
        key = pos.tokens, pos.res
        if key in names:
            return names[key]
        if len(nodes) > 200_000:
            raise BudgetExceeded("strategy tree too large to materialize")
        name = names[key] = str(len(nodes))
        entry = {"tokens": list(pos.tokens), "res": list(pos.res), "moves": {}}
        nodes[name] = entry
        uncolored = sorted(pos.uncolored)
        for mask in range(1, 1 << len(uncolored)):
            marked = frozenset(v for i, v in enumerate(uncolored) if (mask >> i) & 1)
            resp = solver.winning_response(pos, marked)
            child = advance(g, slots, pos, marked, resp)
            entry["moves"][" ".join(map(str, sorted(marked)))] = {
                "color": sorted(resp),
                "next": build(child) if child.uncolored else None,
            }
        return name

    root = build(start)
    return {"graph_n": g.n, "edges": g.edges(), "r": r,
            "tokens": list(f), "root": root, "nodes": nodes}


class TreePainter:
    """Painter replaying a serialized strategy tree."""

    def __init__(self, tree: dict):
        self.tree = tree
        self._nodes = {(tuple(node["tokens"]), tuple(node["res"])): node
                       for node in tree["nodes"].values()}

    def respond(self, pos: Position, marked: frozenset[int]) -> frozenset[int]:
        node = self._nodes.get((pos.tokens, pos.res))
        if node is None:
            raise InnerLost("position not in strategy tree")
        move = node["moves"].get(" ".join(map(str, sorted(marked))))
        if move is None:
            raise InnerLost("mark not in strategy tree")
        return frozenset(move["color"])
