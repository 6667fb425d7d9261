"""r-dynamic coloring: verification, exact chromatic search, list colorability.

An r-dynamic coloring is a proper coloring where every vertex v sees at least
min(r, d(v)) distinct colors on its open neighborhood.  `verify_r_dynamic`
judges every finished coloring: each witness a search returns, and each
extension `configs.check_extendable` takes, whether searched or reused from
the previous base.  Its all-clear path builds no edge or vertex lists.

One backtracker answers every exact question: chromatic search, list
colorability, and, through its precoloring and leaf predicate, the
enumeration and extension of base colorings in `configs.check_extendable`.
It has two sound prunes: a partial coloring dies as soon as some vertex's
distinct-colored-neighbor count plus its uncolored-neighbor count drops
below its requirement, and forced rainbows (a vertex whose uncolored
neighbors must all take colors new to its neighborhood) close those colors
to them.  It branches fail-first, on the vertex with the fewest open colors,
with ties broken by DSATUR's key.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import add, lt
from typing import Mapping

from .errors import BudgetExceeded, ParseError, PartialInput
from .graph import Graph, payload_lines


@dataclass(frozen=True)
class DynamicReport:
    r: int
    proper: bool
    improper_edges: tuple[tuple[int, int], ...]
    seen: tuple[int, ...]       # distinct colors on N(v)
    required: tuple[int, ...]   # min(r, d(v))
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.proper and not self.violations

    def render(self) -> str:
        lines = [f"r={self.r} verdict={'PASS' if self.ok else 'FAIL'}"]
        if self.improper_edges:
            lines.append("improper edges: " +
                         " ".join(f"{u}-{v}" for u, v in self.improper_edges))
        for v in range(len(self.seen)):
            mark = "" if self.seen[v] >= self.required[v] else "  <-- deficient"
            lines.append(f"vertex {v}: sees {self.seen[v]} of {self.required[v]}{mark}")
        return "\n".join(lines)


def _refuse_unknown_vertices(g: Graph, assignment: Mapping, what: str) -> None:
    """Raise PartialInput for keys outside V; every vertex is a key already."""
    if len(assignment) > g.n:
        unknown = sorted(set(assignment).difference(g.vertices()))
        raise PartialInput(f"{what} for vertices not in the graph: {unknown[:10]}")


def verify_r_dynamic(g: Graph, coloring: Mapping[int, int], r: int) -> DynamicReport:
    try:
        colors = [coloring[v] for v in g.vertices()]
    except KeyError:
        missing = [v for v in g.vertices() if v not in coloring]
        raise PartialInput(f"vertices without a color: {missing[:10]}") from None
    _refuse_unknown_vertices(g, coloring, "colors")
    # each neighborhood's color set, read once for both conditions; the
    # offending edges and vertices are listed only when there are some
    on_nbrs = [set(map(colors.__getitem__, nbrs)) for nbrs in g.adj]
    improper = ()
    if any(map(set.__contains__, on_nbrs, colors)):
        improper = tuple((u, v) for u, v in g.edges() if colors[u] == colors[v])
    seen = tuple(map(len, on_nbrs))
    required = tuple([d if d < r else r for d in map(len, g.adj)])
    violations = ()
    if any(map(lt, seen, required)):
        violations = tuple(v for v in g.vertices() if seen[v] < required[v])
    return DynamicReport(r, not improper, improper, seen, required, violations)


# -- exact search ----------------------------------------------------------------


class Searcher:
    """The r-dynamic backtracker behind every exact coloring question.

    Each vertex w keeps the multiset of colors on N(w) and its count of
    uncolored neighbors, so a partial coloring dies as soon as some w can no
    longer reach min(r, d(w)) distinct neighbor colors.  Forced rainbows
    prune further: w is *tight* when its uncolored neighbors are exactly as
    many as the distinct colors it still needs, and then each of them must
    take a color new to N(w), so every color on N(w) is closed to them.  A
    free vertex's closed colors are its proper conflicts plus the colors of
    its tight neighbors; a node dies as soon as some free vertex has no open
    color left.  The search branches on the free vertex with the most closed
    colors (fewest open ones; Haralick and Elliott's fail-first), ties broken
    by the DSATUR key (distinct neighbor colors, residual need, degree, -v).

    Both prunes are sound, so every leaf is a proper r-dynamic coloring and
    no leaf is lost: with the canonical palette the leaves are the r-dynamic
    colorings with <= k colors, one per renaming class.
    """

    def __init__(self, g: Graph, r: int, node_budget: float,
                 deadline: float | None = None):
        self.g = g
        self.r = r
        self.degree = [len(nbrs) for nbrs in g.adj]
        self.need = [min(r, d) for d in self.degree]
        self.node_budget = node_budget
        self.deadline = deadline
        self.nodes = 0
        # the branch key (closed, sat, need - sat, degree, -v) as one int:
        # digits of base n + r + 1 above degree * n + (n - 1 - v) < n * n
        n = g.n
        unit = n * n
        base = n + r + 1
        self._sat_step = (base - 1) * unit  # one more color on N(v): sat up, need - sat down
        self._closed_unit = base * base * unit
        self._prio = [(self.need[v] + n) * unit + self.degree[v] * n + n - 1 - v
                      for v in range(n)]

    def solve(self, k: int | None = None, fixed: Mapping[int, int] | None = None,
              accept=None, *, lists: Mapping[int, tuple[int, ...]] | None = None,
              ) -> dict[int, int] | None:
        """The first completion of the precoloring `fixed` that `accept` takes.

        The palette is either k, colors 1..k under the canonical rule (the
        only fresh color tried is one above the largest in use, so each
        coloring is met once up to renaming and, with `fixed`, no completion
        is lost; `fixed` must stay within 1..k), or `lists`, each vertex's
        candidates in ascending order.  accept(coloring) ->
        bool sees each complete r-dynamic coloring in search order, as the
        live dict (default: take the first).  An improper or already dead
        precoloring gives None at once.  The node budget holds per call.
        """
        if (k is None) == (lists is None):
            raise TypeError("give exactly one of k and lists")
        adj, need = self.g.adj, self.need
        n = len(adj)
        color: dict[int, int] = dict(fixed or {})
        used_max = max(color.values(), default=0)
        if k is not None and used_max > k:
            raise ValueError(f"precoloring uses a color above k={k}")
        nbr_colors: list[dict[int, int]] = [{} for _ in adj]
        uncolored_nbrs = list(self.degree)
        for v, c in color.items():
            for w in adj[v]:
                if color.get(w) == c:
                    return None
                uncolored_nbrs[w] -= 1
                nbr_colors[w][c] = nbr_colors[w].get(c, 0) + 1
        if any(map(lt, map(add, map(len, nbr_colors), uncolored_nbrs), need)):
            return None
        free = set(range(n)).difference(color)
        # barred[x] for free x: color -> tight neighbors of x with that color
        # on their neighborhood (precolored vertices share one empty dict that
        # nothing writes to); prio[x] // closed_unit is the number of colors
        # closed to x, on N(x) or barred.  The entries of a colored vertex are
        # left as they were until it is free again.
        barred: list[dict[int, int]] = [{} for _ in adj] if not color else [{}] * n
        prio = list(self._prio)
        sat_step, closed_unit = self._sat_step, self._closed_unit
        new_unit = sat_step + closed_unit  # a color new to N(x) and not barred
        width = k if lists is None else min((len(lists[x]) for x in free), default=0)
        wipe_at = width * closed_unit  # prio from here on: width colors closed

        def wiped(x: int) -> bool:
            """x has no open color, given at least `width` closed colors: with
            k every closed color lies in 1..k, so the count decides."""
            if lists is None:
                return True
            seen, bars = nbr_colors[x], barred[x]
            return all(c in seen or c in bars for c in lists[x])

        # with nothing colored nothing is closed yet; a lone free vertex has
        # no choice to make, and a barred color would fail the deficiency
        # check as soon as it is tried
        if color and len(free) > 1:
            for x in free:
                bars = barred[x] = {}
                for w in adj[x]:
                    if len(nbr_colors[w]) + uncolored_nbrs[w] == need[w]:  # w is tight
                        for c in nbr_colors[w]:
                            bars[c] = bars.get(c, 0) + 1
                seen = nbr_colors[x]
                prio[x] += len(seen) * sat_step + len(seen.keys() | bars.keys()) * closed_unit
                if prio[x] >= wipe_at and wiped(x):
                    return None
        log: list[int] = []  # x, c for each bar, undone from the end

        def bar_around(w: int, colors) -> bool:
            """Bar `colors` to each free neighbor of the tight vertex w; False
            as soon as one of them has no open color."""
            for x in adj[w]:
                if x in free:
                    bars, seen = barred[x], nbr_colors[x]
                    for c in colors:
                        log.append(x)
                        log.append(c)
                        m = bars.get(c)
                        if m:
                            bars[c] = m + 1
                            continue
                        bars[c] = 1
                        if c not in seen:
                            prio[x] += closed_unit
                            if prio[x] >= wipe_at and wiped(x):
                                return False
            return True

        nodes, limit = self.nodes, self.nodes + self.node_budget
        deadline = self.deadline

        def rec(used_max: int) -> bool:
            nonlocal nodes
            if not free:
                return accept is None or accept(color)
            nodes += 1
            if nodes > limit:
                raise BudgetExceeded(f"coloring search exceeded {self.node_budget} nodes")
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded("coloring search hit the time limit")
            v = max(free, key=prio.__getitem__)
            free.remove(v)
            seen_v, bars_v = nbr_colors[v], barred[v]
            for c in range(1, min(k, used_max + 1) + 1) if lists is None else lists[v]:
                if c in seen_v or c in bars_v:
                    continue
                color[v] = c
                mark = len(log)
                ok = True
                for w in adj[v]:
                    left = uncolored_nbrs[w] - 1
                    uncolored_nbrs[w] = left
                    seen = nbr_colors[w]
                    m = seen.get(c)
                    if m:
                        seen[c] = m + 1
                        residual = need[w] - len(seen)
                        if left < residual:
                            ok = False
                        elif ok and left == residual > 0:
                            ok = bar_around(w, seen)  # w turns tight
                    else:
                        seen[c] = 1
                        if w in free:
                            if c in barred[w]:
                                prio[w] += sat_step
                            else:
                                prio[w] += new_unit
                                if prio[w] >= wipe_at and wiped(w):
                                    ok = False
                        if ok and left == need[w] - len(seen) > 0:
                            ok = bar_around(w, (c,))  # w stays tight
                if ok and rec(max(used_max, c)):
                    return True
                del color[v]
                while len(log) > mark:
                    c_bar = log.pop()
                    x = log.pop()
                    bars = barred[x]
                    m = bars[c_bar]
                    if m > 1:
                        bars[c_bar] = m - 1
                        continue
                    del bars[c_bar]
                    if c_bar not in nbr_colors[x]:
                        prio[x] -= closed_unit
                for w in adj[v]:
                    uncolored_nbrs[w] += 1
                    seen = nbr_colors[w]
                    m = seen[c]
                    if m > 1:
                        seen[c] = m - 1
                        continue
                    del seen[c]
                    if w in free:
                        prio[w] -= sat_step if c in barred[w] else new_unit
            free.add(v)
            return False

        try:
            found = rec(used_max)
        finally:
            self.nodes = nodes
        return dict(color) if found else None


def _verified(g: Graph, r: int, witness: dict[int, int] | None) -> dict[int, int] | None:
    if witness is not None and not verify_r_dynamic(g, witness, r).ok:
        raise AssertionError("solver returned a bad witness")
    return witness


@dataclass(frozen=True)
class ChiResult:
    value: int
    witness: dict[int, int]
    nodes: int  # search nodes over every k tried


def chi_r_exact(
    g: Graph,
    r: int,
    *,
    max_n: int = 16,
    force: bool = False,
    node_budget: int = 5_000_000,
    time_limit: float | None = None,
) -> ChiResult:
    """Exact r-dynamic chromatic number with a verifying witness.

    One search per k from the trivial lower bound max(min(r, d(v)) + 1) up;
    the first k with a coloring is the value, each smaller k refuted.  The
    node budget holds per k.
    """
    if g.n > max_n and not force:
        raise BudgetExceeded(
            f"n={g.n} above the vertex cap max_n={max_n}; "
            "raise max_n (--max-n on the command line)",
            lower=None, upper=g.n,
        )
    if g.n == 0:
        return ChiResult(0, {}, 0)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    searcher = Searcher(g, r, node_budget, deadline)
    lower = max(min(r, g.degree(v)) + 1 for v in g.vertices())
    for k in range(lower, g.n + 1):
        try:
            witness = _verified(g, r, searcher.solve(k))
        except BudgetExceeded as exc:
            raise BudgetExceeded(str(exc), lower=k, upper=g.n) from exc
        if witness is not None:
            return ChiResult(k, witness, searcher.nodes)
    raise AssertionError("rainbow coloring must succeed at k=n")


def is_L_colorable_r_dynamic(
    g: Graph,
    lists: Mapping[int, set[int]],
    r: int,
) -> dict[int, int] | None:
    """A witness r-dynamic coloring drawn from the lists, or None if
    unsatisfiable; BudgetExceeded past 5,000,000 search nodes."""
    for v in g.vertices():
        if v not in lists or not lists[v]:
            raise PartialInput(f"vertex {v} has no list")
    _refuse_unknown_vertices(g, lists, "lists")
    ordered = {v: tuple(sorted(lists[v])) for v in g.vertices()}
    witness = _verified(g, r, Searcher(g, r, 5_000_000).solve(lists=ordered))
    if witness is not None and any(witness[v] not in lists[v] for v in g.vertices()):
        raise AssertionError("solver returned a bad witness")
    return witness


# -- coloring file io -------------------------------------------------------------


def parse_coloring(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for line, offset in payload_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected '<vertex> <color>', got {line!r}", offset)
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer in {line!r}", offset)
        if c <= 0:
            raise ParseError("colors are positive integers", offset)
        if v in out:
            raise ParseError(f"duplicate line for vertex {v}", offset)
        out[v] = c
    return out


def emit_coloring(coloring: Mapping[int, int]) -> str:
    return "".join(f"{v} {coloring[v]}\n" for v in sorted(coloring))


def parse_lists(text: str) -> dict[int, set[int]]:
    """Lines '<v>: c1 c2 ...' defining a list assignment."""
    out: dict[int, set[int]] = {}
    for line, offset in payload_lines(text):
        if ":" not in line:
            raise ParseError("expected '<v>: c1 c2 ...'", offset)
        head, _, tail = line.partition(":")
        try:
            v = int(head.strip())
            colors = {int(t) for t in tail.split()}
        except ValueError:
            raise ParseError(f"non-integer in {line!r}", offset)
        if not colors:
            raise ParseError(f"empty list for vertex {v}", offset)
        if min(colors) <= 0:
            raise ParseError("colors are positive integers", offset)
        if v in out:
            raise ParseError(f"duplicate line for vertex {v}", offset)
        out[v] = colors
    return out
