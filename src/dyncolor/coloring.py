"""r-dynamic coloring: verification, exact chromatic search, list colorability.

An r-dynamic coloring is a proper coloring where every vertex v sees at least
min(r, d(v)) distinct colors on its open neighborhood.  One DSATUR-style
backtracker with a sound dynamic-deficiency prune (a partial coloring dies as
soon as some vertex's distinct-colored-neighbor count plus its
uncolored-neighbor count drops below its requirement) answers every exact
question: chromatic search, list colorability, and, through its precoloring
and leaf predicate, the enumeration and extension of base colorings in
`configs.check_extendable`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from .errors import BudgetExceeded, ParseError, PartialInput
from .graph import Graph


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
    missing = [v for v in g.vertices() if v not in coloring]
    if missing:
        raise PartialInput(f"vertices without a color: {missing[:10]}")
    _refuse_unknown_vertices(g, coloring, "colors")
    improper = tuple(
        (u, v) for u, v in g.edges() if coloring[u] == coloring[v]
    )
    seen = tuple(len({coloring[w] for w in g.neighbors(v)}) for v in g.vertices())
    required = tuple(min(r, g.degree(v)) for v in g.vertices())
    violations = tuple(v for v in g.vertices() if seen[v] < required[v])
    return DynamicReport(r, not improper, improper, seen, required, violations)


# -- exact search ----------------------------------------------------------------


class _Searcher:
    """The r-dynamic backtracker behind every exact coloring question.

    DSATUR-style order over the uncolored vertices; each vertex keeps the
    multiset of colors on its neighborhood and its count of uncolored
    neighbors, so a partial coloring dies as soon as some vertex can no longer
    reach min(r, d(v)) distinct neighbor colors.  Every leaf is therefore a
    proper r-dynamic coloring, and with the canonical palette the leaves are
    the r-dynamic colorings with <= k colors, one per renaming class.
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

    def solve(self, allowed, fixed: Mapping[int, int] | None = None,
              accept=None) -> dict[int, int] | None:
        """The first completion of the precoloring `fixed` that `accept` takes.

        allowed(v, used_max) -> candidate colors in ascending order, where
        used_max is the largest color in use; accept(coloring) -> bool sees
        each complete r-dynamic coloring in search order, as the live dict
        (default: take the first).  An improper or already dead precoloring
        gives None at once.
        """
        adj, degree, need = self.g.adj, self.degree, self.need
        color: dict[int, int] = dict(fixed or {})
        nbr_colors: list[dict[int, int]] = [{} for _ in adj]
        uncolored_nbrs = list(degree)
        for v, c in color.items():
            for w in adj[v]:
                if color.get(w) == c:
                    return None
                uncolored_nbrs[w] -= 1
                nbr_colors[w][c] = nbr_colors[w].get(c, 0) + 1
        # dead: some vertex can no longer reach need[w] distinct colors
        if any(len(nbr_colors[w]) + uncolored_nbrs[w] < need[w] for w in range(len(adj))):
            return None
        free = set(range(len(adj))) - color.keys()

        def key(v: int):
            sat = len(nbr_colors[v])
            return (sat, need[v] - sat, degree[v], -v)

        def rec(used_max: int) -> bool:
            if not free:
                return accept is None or accept(color)
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise BudgetExceeded(f"coloring search exceeded {self.node_budget} nodes")
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise BudgetExceeded("coloring search hit the time limit")
            v = max(free, key=key)
            free.remove(v)
            forbidden = nbr_colors[v]
            for c in allowed(v, used_max):
                if c in forbidden:
                    continue
                color[v] = c
                ok = True
                for w in adj[v]:
                    uncolored_nbrs[w] -= 1
                    seen = nbr_colors[w]
                    seen[c] = seen.get(c, 0) + 1
                    if len(seen) + uncolored_nbrs[w] < need[w]:
                        ok = False
                if ok and rec(max(used_max, c)):
                    return True
                del color[v]
                for w in adj[v]:
                    uncolored_nbrs[w] += 1
                    seen = nbr_colors[w]
                    if seen[c] == 1:
                        del seen[c]
                    else:
                        seen[c] -= 1
            free.add(v)
            return False

        if rec(max(color.values(), default=0)):
            return dict(color)
        return None


def canonical_palette(k: int):
    """Colors 1..k, a fresh color only after all smaller ones are in use, so
    the search sees each coloring once up to renaming."""
    def allowed(v: int, used_max: int):
        return range(1, min(k, used_max + 1) + 1)
    return allowed


def r_dynamic_coloring(
    g: Graph, r: int, k: int, *, node_budget: int = 5_000_000,
    deadline: float | None = None,
) -> dict[int, int] | None:
    """A witness r-dynamic coloring with colors in 1..k, or None."""
    searcher = _Searcher(g, r, node_budget, deadline)
    witness = searcher.solve(canonical_palette(k))
    if witness is not None:
        report = verify_r_dynamic(g, witness, r)
        if not report.ok:
            raise AssertionError("solver returned a bad witness")
    return witness


@dataclass(frozen=True)
class ChiResult:
    value: int
    witness: dict[int, int]


def chi_r_exact(
    g: Graph,
    r: int,
    *,
    max_n: int = 16,
    force: bool = False,
    node_budget: int = 5_000_000,
    time_limit: float | None = None,
) -> ChiResult:
    """Exact r-dynamic chromatic number with a verifying witness."""
    if g.n > max_n and not force:
        raise BudgetExceeded(
            f"n={g.n} above the vertex cap max_n={max_n}; "
            "raise max_n (--max-n on the command line)",
            lower=None, upper=g.n,
        )
    if g.n == 0:
        return ChiResult(0, {})
    deadline = None if time_limit is None else time.monotonic() + time_limit
    lower = max(min(r, g.degree(v)) + 1 for v in g.vertices())
    for k in range(lower, g.n + 1):
        try:
            witness = r_dynamic_coloring(g, r, k, node_budget=node_budget,
                                         deadline=deadline)
        except BudgetExceeded as exc:
            raise BudgetExceeded(str(exc), lower=k, upper=g.n) from exc
        if witness is not None:
            return ChiResult(k, witness)
    raise AssertionError("rainbow coloring must succeed at k=n")


def is_L_colorable_r_dynamic(
    g: Graph,
    lists: Mapping[int, set[int]],
    r: int,
    *,
    node_budget: int = 5_000_000,
) -> dict[int, int] | None:
    """A witness r-dynamic coloring drawn from the lists, or None if unsatisfiable."""
    for v in g.vertices():
        if v not in lists or not lists[v]:
            raise PartialInput(f"vertex {v} has no list")
    _refuse_unknown_vertices(g, lists, "lists")
    ordered = {v: tuple(sorted(lists[v])) for v in g.vertices()}
    searcher = _Searcher(g, r, node_budget)
    witness = searcher.solve(lambda v, used_max: ordered[v])
    if witness is not None:
        report = verify_r_dynamic(g, witness, r)
        if not report.ok or any(witness[v] not in lists[v] for v in g.vertices()):
            raise AssertionError("solver returned a bad witness")
    return witness


# -- coloring file io -------------------------------------------------------------


def parse_coloring(text: str) -> dict[int, int]:
    out: dict[int, int] = {}
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            parts = stripped.split()
            if len(parts) != 2:
                raise ParseError(f"expected '<vertex> <color>', got {stripped!r}", offset)
            try:
                v, c = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"non-integer in {stripped!r}", offset)
            if c <= 0:
                raise ParseError("colors are positive integers", offset)
            out[v] = c
        offset += len(line)
    return out


def emit_coloring(coloring: Mapping[int, int]) -> str:
    return "".join(f"{v} {coloring[v]}\n" for v in sorted(coloring))


def parse_lists(text: str) -> dict[int, set[int]]:
    """Lines '<v>: c1 c2 ...' defining a list assignment."""
    out: dict[int, set[int]] = {}
    offset = 0
    for line in text.splitlines(keepends=True):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            if ":" not in stripped:
                raise ParseError("expected '<v>: c1 c2 ...'", offset)
            head, _, tail = stripped.partition(":")
            try:
                v = int(head.strip())
                colors = {int(t) for t in tail.split()}
            except ValueError:
                raise ParseError(f"non-integer in {stripped!r}", offset)
            if not colors:
                raise ParseError(f"empty list for vertex {v}", offset)
            out[v] = colors
        offset += len(line)
    return out
