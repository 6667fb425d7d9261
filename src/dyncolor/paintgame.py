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
Positions are packed into ints of bit fields (`Fields`): tokens with one
field per vertex, residuals with one per watched set, vertex sets as masks.
Every painter answers packed positions: `fit(largest)` returns a field width
that holds values up to `largest`, and `respond_packed(tokens, res,
uncolored, marked)` returns the colored set from the tokens and residuals
alone, so the minimax solver and the exhaustive adversary both key
positions on them.  `respond_at` is the one place that packs a
`Position` for a painter and unpacks its answer.  The adversary may track a
vertex set whose tokens its painter never reads (the deleted set of a
reduction): its memo key is then the int `res << (n*w) | tokens` with each
tracked vertex's token field replaced by its uncolored bit, and it stores
with each key the most rejections every tracked vertex can still get.
The solver declares a position lost when some res(v) exceeds the uncolored
neighbors of v, as each round adds at most one color there; it packs each
vertex's count of uncolored neighbors in one more int, in fields wide enough
for the maximum degree, so the test is one subtraction.  A scripted game,
for any painter, the composite G'-first one included, is played by
`run_transcript` with `advance` too; its transcript keeps the round in which
each vertex was colored, for `verify_r_dynamic`, and each vertex's
rejections.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .coloring import chi_r_exact, verify_r_dynamic
from .errors import (
    ApplicabilityError,
    BudgetExceeded,
    IllegalMark,
    IllegalResponse,
    InnerLost,
)
from .graph import Graph


def normalize_tokens(g: Graph, f) -> tuple[int, ...]:
    """Accept an int (uniform) or a sequence; initial tokens must be positive."""
    tokens = tuple([f] * g.n) if isinstance(f, int) else tuple(f)
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


# -- packed positions -----------------------------------------------------------------


def field_width(largest: int) -> int:
    """Bits per field for values up to `largest`, with the top bit clear."""
    return max(4, largest.bit_length() + 1)


class Fields:
    """`count` bit fields of width w in one int, item i at bit i*w.

    A set of items is the int with the low bit of each member's field set, so
    subtracting a set lowers each member's field by one.  Values stay below
    the top field bit, which lets `nonzero` test all fields at once.  The
    solver packs tokens, residual needs and counts of uncolored neighbors
    this way (one field per vertex), the exhaustive adversary its residuals
    (one field per watched set).
    """

    __slots__ = ("count", "w", "field", "high", "half")

    def __init__(self, count: int, w: int):
        self.count, self.w = count, w
        self.field = (1 << w) - 1
        low = sum(1 << (i * w) for i in range(count))
        self.high = low << (w - 1)
        self.half = self.high - low

    def mask(self, items: Iterable[int]) -> int:
        return sum(1 << (i * self.w) for i in items)

    def items(self, mask: int) -> list[int]:
        """The members of a set, in increasing order."""
        return [i for i in range(self.count) if mask >> (i * self.w) & 1]

    def nonzero(self, packed: int) -> int:
        """The set of items whose field in `packed` is not zero."""
        return ((packed + self.half) & self.high) >> (self.w - 1)

    def pack(self, values: Iterable[int]) -> int:
        return sum(x << (i * self.w) for i, x in enumerate(values))

    def unpack(self, packed: int) -> tuple[int, ...]:
        return tuple(packed >> (i * self.w) & self.field for i in range(self.count))


def _pack(lay: Fields, pos: Position) -> tuple[int, int, int]:
    """Packed (tokens on uncolored vertices, first `lay.count` residuals,
    uncolored set) of a position in the fields of `lay`."""
    return (sum(pos.tokens[v] << (v * lay.w) for v in pos.uncolored),
            lay.pack(pos.res[:lay.count]), lay.mask(pos.uncolored))


def respond_at(painter, pos: Position, marked: Iterable[int]) -> frozenset[int]:
    """The painter's response to `marked` at `pos`: the position is packed at
    the width `painter.fit` returns and the answer unpacked.  A mark holding
    a colored vertex raises IllegalMark, as in `advance`."""
    marked = frozenset(marked)
    if not marked <= pos.uncolored:
        raise IllegalMark(f"colored vertices marked: {sorted(marked - pos.uncolored)}")
    lay = Fields(len(pos.res), painter.fit(max(pos.tokens + pos.res, default=0)))
    colored = painter.respond_packed(*_pack(lay, pos), lay.mask(marked))
    return frozenset(lay.items(colored))


# -- exact minimax solver -----------------------------------------------------------


class PaintSolver:
    """Minimax oracle for one (graph, r) pair; memo shared across queries.

    Tokens and residual needs are packed in `Fields` with one field per
    vertex, and so are vertex sets, so marking a set subtracts it from the
    tokens.  A third packed int, `free`, holds each vertex's count of
    uncolored neighbors; fields are wide enough for the maximum degree, so
    one subtraction compares every residual need with its count.  As a
    painter it answers packed positions laid out by `fit` (`respond_packed`).
    """

    def __init__(self, g: Graph, r: int, *, node_budget: int | None = None,
                 deadline: float | None = None):
        self.g = g
        self.r = r
        self.memo: dict[int, bool] = {}
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0
        self._layout(0)

    def _layout(self, largest: int) -> None:
        # fields hold values up to `largest` and every degree; packed keys
        # change, so start over
        g = self.g
        self._lay = lay = Fields(g.n, field_width(max([largest, *map(g.degree, g.vertices())])))
        self._span = g.n * lay.w
        self._nbr = [lay.mask(g.neighbors(v)) for v in g.vertices()]
        self._nbr_at = {1 << (v * lay.w): nb for v, nb in enumerate(self._nbr)}
        self._tables: dict[int, list] = {}
        self.memo.clear()

    def fit(self, largest: int) -> int:
        """Widen the fields to hold values up to `largest` if they do not;
        returns the field width."""
        if largest > self._lay.field >> 1:
            self._layout(largest)
        return self._lay.w

    def _start(self) -> None:
        """Start one solve for the node budget."""
        self._limit = self.nodes + (self.node_budget if self.node_budget is not None
                                    else float("inf"))

    def _free(self, uncolored: int) -> int:
        """Each vertex's count of uncolored neighbors, one field per vertex:
        the sum of the neighborhood masks of the uncolored vertices."""
        free, nbr_at = 0, self._nbr_at
        while uncolored:
            low = uncolored & -uncolored
            free += nbr_at[low]
            uncolored ^= low
        return free

    def _responses(self, marked: int) -> list:
        """Build and cache in `_tables` Painter's answers to a mark, largest
        first, then by vertex list, as (set colored, set whose neighborhood it
        meets, mask clearing its fields, per-vertex count of its members among
        the neighbors); callers look in `_tables` first."""
        lay, nbr = self._lay, self._nbr
        subs = [((), 0, 0, 0)]  # (vertices, colored, touched, lost)
        for v in lay.items(marked):
            bit, nb = 1 << (v * lay.w), nbr[v]
            # lost is a sum, not an OR: two colored vertices may share a neighbor
            subs += [(s + (v,), c | bit, t | nb, lost + nb)
                     for s, c, t, lost in subs if not c & nb]
        subs.sort(key=lambda e: (-len(e[0]), e[0]))
        field = lay.field
        table = self._tables[marked] = [(c, t, ~(c * field), lost)
                                        for _, c, t, lost in subs]
        return table

    def _wins(self, tokens: int, res: int, uncolored: int, free: int) -> bool:
        """Verdict of a position in which every uncolored vertex has a token;
        `free` holds each vertex's count of uncolored neighbors (the memo key
        leaves the uncolored set, and so `free`, implicit in the tokens)."""
        if not uncolored:
            return not res
        key = res << self._span | tokens
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        # dead: a vertex needs more new colors than it has uncolored
        # neighbors, and each round adds at most one color to a neighborhood;
        # a field of free | high minus its need keeps its top bit iff need <= free
        lay = self._lay
        high = lay.high
        if ((free | high) - res) & high != high:
            return False
        self.nodes += 1
        if self.nodes > self._limit:
            raise BudgetExceeded(f"game search exceeded {self.node_budget} nodes")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceeded("game search hit the time limit")
        half, top = lay.half, lay.w - 1
        needy = ((res + half) & high) >> top  # Fields.nonzero, inlined
        tables, wins = self._tables, self._wins
        verdict = True
        marked = uncolored  # subsets in descending order: big marks refute fastest
        while verdict and marked:
            left = tokens - marked
            spent = marked & ~(((left + half) & high) >> top)
            table = tables.get(marked) or self._responses(marked)
            for colored, touched, clear, lost in table:
                if not spent & ~colored and wins(
                        left & clear, res - (needy & touched), uncolored ^ colored,
                        free - lost):
                    break
            else:
                verdict = False
            marked = (marked - 1) & uncolored
        self.memo[key] = verdict
        return verdict

    # -- play interfaces ---------------------------------------------------------

    def painter_wins(self, pos: Position) -> bool:
        """Exact verdict of the game from `pos`, whose first n residuals are
        this solver's neighborhoods; Lister has won if an uncolored vertex has
        no token."""
        self._start()
        self.fit(max((pos.tokens[v] for v in pos.uncolored), default=0))
        tokens, res, uncolored = _pack(self._lay, pos)
        return (self._lay.nonzero(tokens) & uncolored == uncolored
                and self._wins(tokens, res, uncolored, self._free(uncolored)))

    def respond_packed(self, tokens: int, res: int, uncolored: int, marked: int) -> int:
        """First winning response, in the solver's deterministic order, at a
        packed position: tokens and the n neighborhood residuals at the width
        `fit` returned, vertex sets as masks."""
        nonzero = self._lay.nonzero
        if marked & ~nonzero(tokens):
            raise InnerLost("a marked vertex had no tokens")
        self._start()
        needy, free = nonzero(res), self._free(uncolored)
        for colored, touched, clear, lost in self._tables.get(marked) or self._responses(marked):
            left, rest = (tokens - marked) & clear, uncolored ^ colored
            if nonzero(left) & rest == rest and self._wins(
                    left, res - (needy & touched), rest, free - lost):
                return colored
        raise InnerLost("no winning response from this position")


@dataclass
class GameVerdict:
    painter_wins: bool
    solver: PaintSolver


def solve_xp_r(
    g: Graph,
    r: int,
    f,
    *,
    max_n: int = 7,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> GameVerdict:
    """Exact minimax verdict of the r-dynamic paintability game with tokens f."""
    if g.n > max_n:
        raise BudgetExceeded(f"n={g.n} above game solver cap {max_n}")
    tokens = normalize_tokens(g, f)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    solver = PaintSolver(g, r, node_budget=node_budget, deadline=deadline)
    _, start = start_position(g, r, tokens)
    return GameVerdict(solver.painter_wins(start), solver)


# -- painter strategies --------------------------------------------------------------


@dataclass(frozen=True)
class RejectionRule:
    """Veto rule for one T-vertex: reject while the condition holds this round.

    kind 'colored_any': fires when the response-so-far touches `watch`.
    kind 'colored_all': fires when all of `watch` is being colored this round.
    kind 'few_colors' : fires when fewer than `threshold` distinct colors sit on
                        `observe` (colors from earlier rounds) and the
                        response-so-far touches `watch`; the painter reads
                        the residual of `observe` watched with need `threshold`.
    """

    kind: str
    watch: frozenset[int]
    observe: frozenset[int] = frozenset()
    threshold: int = 0
    note: str = ""

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


def _fires(kind: str, residual: int, hit, watch) -> bool:
    """Whether a rule of `kind` fires, given the part `hit` of its packed
    watched set `watch` being colored."""
    if kind == "colored_any":
        return bool(hit)
    if kind == "colored_all":
        return bool(watch) and hit == watch
    if kind == "few_colors":
        return residual > 0 and bool(hit)
    raise ValueError(f"unknown rule kind {kind}")


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
    It answers packed positions at its inner solver's field width: the
    inner solver sees the G' token fields and the N_G'(v) residual block.
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
        # inner winning responses by (N_G' residuals, G' tokens, inner mark);
        # an uncolored vertex of G' keeps a token under the inner strategy, so
        # the tokens give the uncolored part of G'
        self._inner_responses: dict[int, int] = {}
        self._w = 0
        self.fit(0)

    def fit(self, largest: int) -> int:
        """Widen the fields to hold values up to `largest` if they do not;
        returns the field width."""
        w = self.inner.fit(largest)
        if w != self._w:
            lay = self._lay = self.inner._lay
            self._w, n = w, self.g.n
            self._span = n * w
            self._gmask = lay.mask(self.gv)
            self._gfields = self._gmask * lay.field
            self._block = (1 << self._span) - 1
            # per S-vertex in s_order: its bit and its rules as (kind,
            # watched mask, shift of the residual it reads or None)
            self._s_rules = [
                (lay.mask((t,)), tuple(
                    (rule.kind, lay.mask(rule.watch),
                     self._slot[rule] * w if rule in self._slot else None)
                    for rule in self.triggers.get(t, ())))
                for t in self.s_order]
            self._nbr = [lay.mask(self.g.neighbors(v)) for v in self.g.vertices()]
            self._independent = {0}
            self._inner_responses.clear()
        return w

    def respond_packed(self, tokens: int, res: int, uncolored: int, marked: int) -> int:
        """The response at a packed position laid out at the width `fit`
        returned: the inner solver's on G', then each S-vertex no rule vetoes."""
        colored = 0
        inner_marked = marked & self._gmask
        if inner_marked:
            span = self._span
            block, gtokens = res >> span & self._block, tokens & self._gfields
            key = (block << span | gtokens) << span | inner_marked
            colored = self._inner_responses.get(key)
            if colored is None:
                colored = self._inner_responses[key] = self.inner.respond_packed(
                    gtokens, block, uncolored & self._gmask, inner_marked)
        field = self._lay.field
        for bit, rules in self._s_rules:
            if marked & bit and not any(
                    _fires(kind, 0 if shift is None else res >> shift & field,
                           colored & watch, watch)
                    for kind, watch, shift in rules):
                colored |= bit
        if colored not in self._independent:
            pair = _adjacent_pair(self._lay, self._nbr, colored)
            if pair:
                raise IllegalResponse(
                    f"triggers allowed adjacent pair {pair[0]},{pair[1]} in one round"
                )
            self._independent.add(colored)
        return colored


def _adjacent_pair(lay: Fields, nbr: Sequence[int], colored: int):
    """The first pair (u, v), u < v, of adjacent vertices in the set
    `colored`, or None; `nbr` holds each vertex's neighborhood mask."""
    for u in lay.items(colored):
        if nbr[u] & colored:
            return u, lay.items(nbr[u] & colored)[0]
    return None


# -- transcripts and adversaries -------------------------------------------------------


@dataclass
class RoundRecord:
    marked: tuple[int, ...]
    colored: tuple[int, ...]
    rejected: tuple[int, ...]


@dataclass
class Transcript:
    rounds: list[RoundRecord]
    final: dict[int, int]  # vertex -> round in which it was colored
    outcome: str   # 'painter', 'lister', or a failure note
    rejections: dict[int, int]


def run_transcript(
    g: Graph,
    r: int,
    painter,
    marks: Iterable[Iterable[int]],
    f,
) -> Transcript:
    """Play a scripted sequence of Lister marks against a painter.

    Each round records its marked, colored and rejected sets; a round that
    marks a token-less vertex ends the game for Lister and colors nothing."""
    slots, pos = start_position(g, r, normalize_tokens(g, f),
                                getattr(painter, "watch", ()))
    coloring: dict[int, int] = {}
    rejections: Counter[int] = Counter()
    rounds: list[RoundRecord] = []
    outcome = "painter"
    for i, marked in enumerate(marks, start=1):
        marked = frozenset(marked)
        if any(pos.tokens[v] == 0 for v in marked & pos.uncolored):
            outcome = "lister"
            advance(g, slots, pos, marked, ())  # marking a colored vertex still raises
            rounds.append(RoundRecord(tuple(sorted(marked)), (), ()))
            break
        response = respond_at(painter, pos, marked)
        pos = advance(g, slots, pos, marked, response)
        coloring.update(dict.fromkeys(response, i))
        rejected = tuple(sorted(marked - response))
        rejections.update(rejected)
        rounds.append(RoundRecord(tuple(sorted(marked)), tuple(sorted(response)), rejected))
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


# the exhaustive adversary's cap on searched states
CERTIFY_MAX_STATES = 10_000_000


def certify_painter(
    g: Graph,
    r: int,
    f,
    painter,
    *,
    track: Iterable[int] = (),
) -> CertificationReport:
    """Exhaustive Lister: every mark sequence is played against the painter.

    The painter must be a function of the residuals it watches and of the
    tokens off the tracked set; it must not read a tracked vertex's tokens.
    A position is three ints in `Fields` of one width: tokens (one field per
    vertex), residuals (one field per watched set) and the uncolored set.
    Positions are memoized on the int `res << (n*w) | tokens`, with each
    tracked vertex's token field replaced by its uncolored bit.  A vertex's
    rejections are its spent tokens while it is uncolored and stay fixed once
    it is colored, so an entry holds, for each uncolored tracked t, the most
    rejections t can still get below the position: a longest path over
    rounds.  States and maxima are therefore the same for every choice of
    tracked tokens under which no line drains.  An entry is written once its
    subtree has passed, so a key still on the current line is a miss;
    meeting it again means rounds that marked tracked vertices only and
    colored none, and the line drains in the end.  A hit whose prefix plus
    future rejections of t reaches f(t) is searched again, in mark order,
    down to the first drain, so the verdict, reason, losing line and maxima
    are those a search without the memo gives.

    Marks are the nonempty subsets of the uncolored set in increasing order
    of their masks, which is the order of their indicator words over the
    sorted uncolored vertices.  The painter answers packed marks at the
    width its `fit` returns.
    A line whose final residuals call the coloring not r-dynamic is replayed
    with `run_transcript`, and the verdict confirmed with `verify_r_dynamic`.
    """
    f = normalize_tokens(g, f)
    track = tuple(sorted(set(track)))
    slots, start = start_position(g, r, f, getattr(painter, "watch", ()))
    lay = Fields(len(start.res), painter.fit(max(f + start.res)))
    respond = painter.respond_packed
    w, field, nonzero = lay.w, lay.field, lay.nonzero
    span = g.n * w
    neighborhoods = (1 << span) - 1  # the residual fields of the N(v)
    track_bits = lay.mask(track)
    untracked = ~(track_bits * field)
    tracked = [(t, t * w, 1 << (t * w)) for t in track]
    meets = {0: 0}  # independent response -> the residual slots it meets
    slot_masks = [lay.mask(s) for s in slots]
    nbr = [lay.mask(g.neighbors(v)) for v in g.vertices()]
    memo: dict[int, dict[int, int]] = {}  # key -> most future rejections
    max_rej = {v: 0 for v in track}
    states = 0
    losing: list[tuple[int, ...]] | None = None
    reason = ""

    def lowest(mask: int) -> int:
        return ((mask & -mask).bit_length() - 1) // w

    def spell(line: list[int]) -> list[tuple[int, ...]]:
        return [tuple(lay.items(m)) for m in line]

    def explore(tokens: int, res: int, uncolored: int, line: list[int]):
        """The most future rejections of each uncolored tracked vertex below
        the position, or None once a line is lost."""
        nonlocal states, losing, reason
        for t, shift, bit in tracked:
            if uncolored & bit and f[t] - (tokens >> shift & field) > max_rej[t]:
                max_rej[t] = f[t] - (tokens >> shift & field)
        if not uncolored:
            if not res & neighborhoods:
                return {}
            losing, reason = spell(line), "final coloring not r-dynamic"
            return None
        dry = uncolored & ~nonzero(tokens)
        if dry:
            losing = spell(line) + [(lowest(dry),)]
            reason = "marked a token-less vertex"
            return None
        key = res << span | tokens & untracked | uncolored & track_bits
        future = memo.get(key)
        if future is not None and all(
                k < tokens >> (t * w) & field for t, k in future.items()):
            for t, k in future.items():
                if f[t] - (tokens >> (t * w) & field) + k > max_rej[t]:
                    max_rej[t] = f[t] - (tokens >> (t * w) & field) + k
            return future
        states += 1  # a miss, or a hit with a drain below it
        if states > CERTIFY_MAX_STATES:
            raise BudgetExceeded(
                f"exhaustive adversary exceeded {CERTIFY_MAX_STATES} states")
        future = {t: 0 for t, _, bit in tracked if uncolored & bit}
        needy = nonzero(res)
        marked = 0
        while True:
            marked = ((marked | ~uncolored) + 1) & uncolored
            if not marked:
                break
            try:
                colored = respond(tokens, res, uncolored, marked)
            except (IllegalResponse, InnerLost) as exc:
                losing, reason = spell(line + [marked]), f"{type(exc).__name__}: {exc}"
                return None
            if colored & ~marked:
                raise IllegalResponse("response must be a subset of the marked set")
            touched = meets.get(colored)
            if touched is None:
                pair = _adjacent_pair(lay, nbr, colored)
                if pair:
                    raise IllegalResponse(
                        f"response contains adjacent pair {pair[0]},{pair[1]}")
                touched = 0
                for v in lay.items(colored):
                    touched |= slot_masks[v]
                meets[colored] = touched
            left = (tokens - marked) & ~(colored * field)
            rest = uncolored ^ colored
            dry = rest & track_bits & ~nonzero(left)
            if dry:
                drained = lowest(dry)
                losing = spell(line + [marked])
                reason = (f"vertex {drained} drained: {f[drained]} rejections"
                          f" with {f[drained]} tokens")
                return None
            line.append(marked)
            below = explore(left, res - (needy & touched), rest, line)
            line.pop()
            if below is None:
                return None
            for t, k in below.items():  # t was uncolored and, if marked, rejected
                k += marked >> (t * w) & 1
                if k > future[t]:
                    future[t] = k
        memo[key] = future
        return future

    try:
        ok = explore(lay.pack(f), lay.pack(start.res), lay.mask(g.vertices()), []) is not None
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
    s_order: Sequence[int],
) -> CertificationReport:
    """Certify the composite strategy against the exhaustive Lister.

    `s_order` is the deleted set S in the order in which the painter decides
    its vertices each round.  The report's max_rejections must stay at or
    below f(v)-1 for every vertex of S.  `lister` admits only "exhaustive";
    scripted play is `run_transcript` with a `GPrimeFirstPainter`.
    """
    if lister != "exhaustive":
        raise ValueError("run_gprime_first only certifies; play a scripted "
                         "Lister with run_transcript")
    painter = GPrimeFirstPainter(
        g, r, frozenset(gprime_vertices), frozenset(tuple(e) for e in gprime_edges),
        s_order, triggers
    )
    return certify_painter(g, r, f, painter, track=s_order)


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
    node_budget: int | None = None,
    genus: int | None = None,
) -> XpResult:
    """Exact paint number by ascending uniform-token solves; interval fallback.

    When the game is out of reach, returns the sandwich between the exact (or
    partially-bounded) chromatic side and the best applicable structural upper
    bound, each tagged with its provenance.  A declared genus whose bound lies
    below the lower end raises ApplicabilityError: the graph is not on it.
    """
    if g.n == 0:
        return XpResult(0, 0, True, ("empty graph",))
    refuted = 0  # largest token count at which the game found a Lister win
    if g.n <= max_n:
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
    if upper < lower:  # only a declared genus bounds below the rainbow n
        raise ApplicabilityError(
            f"declared genus {genus} leaves no paint number: upper end {upper}"
            f" ({upper_note}) is below lower end {lower} ({lower_note})"
        )
    return XpResult(lower, upper, lower == upper, (lower_note, upper_note))

