"""Genus-parameterized bounds and the constructive coloring pipeline.

The constructive algorithm peels a graph down to at most four vertices by
deleting low-degree vertices and contracting light edges (weight bounded by
the genus-dependent threshold), rainbow-colors the base, then replays the
peeling in reverse, choosing each reinserted vertex's color outside an
explicitly counted forbidden set.  The counting argument caps the forbidden
set at one below the palette, so a color always exists; the result is checked
by the verifier on every run.  The peel is one forward pass that takes its
steps from two lazy heaps, pushed again only where a degree changed or an
edge was added, and keeps an undo record per step; the reverse pass undoes
the steps in turn, so no step copies the adjacency.  It keeps, for each
vertex, a count of each color on its colored neighbors, so a step reads only
the reinserted vertex's d neighbors and their counts and costs O(d r).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import isqrt

from .coloring import verify_r_dynamic
from .configs import CATALOG, KP_KINDS, ConfigKind, kp_deleted, kp_matches
from .errors import (
    ApplicabilityError,
    BudgetExceeded,
    CertificateRefuted,
    DisconnectedGraph,
    HypothesisFail,
    IsC5,
    NoLightEdge,
    ParseError,
)
from .graph import Graph, payload_lines, subgraph
from .paintgame import solve_xp_r


def heawood_number(genus: int) -> int:
    if genus < 0:
        raise ValueError("genus must be non-negative")
    return (7 + isqrt(1 + 48 * genus)) // 2


@dataclass(frozen=True)
class BoundProfile:
    genus: int
    r: int
    omega: int
    ell: int
    heawood: int
    r_threshold: int
    applicable: bool

    def render(self) -> str:
        tag = "applicable" if self.applicable else f"needs r >= {self.r_threshold}"
        return (f"genus {self.genus}, r {self.r}: omega {self.omega}, "
                f"palette {self.ell}, heawood {self.heawood} ({tag})")


def bound_profile(genus: int, r: int) -> BoundProfile:
    if genus < 0 or r < 1:
        raise ValueError("need genus >= 0 and r >= 1")
    if genus <= 2:
        omega = 2 * genus + 13
        ell = (genus + 5) * (r + 1) + 3
        threshold = 2 * genus + 11
    else:
        omega = 4 * genus + 7
        ell = (2 * genus + 2) * (r + 1) + 3
        threshold = 4 * genus + 5
    return BoundProfile(genus, r, omega, ell, heawood_number(genus),
                        threshold, r >= threshold)


def _below_threshold(prof: BoundProfile) -> str:
    return f"r={prof.r} below the threshold {prof.r_threshold} for genus {prof.genus}"


# ---------------------------------------------------------------------------
# contraction-based constructive coloring


@dataclass(frozen=True)
class DeleteStep:
    vertex: int


@dataclass(frozen=True)
class ContractStep:
    u: int  # absorbed endpoint (lower degree)
    v: int  # absorber
    weight: int


@dataclass
class ContractionTrace:
    r: int
    genus: int
    steps: list
    base: list[int]

    def render(self) -> str:
        lines = [f"contraction-trace", f"r {self.r}", f"genus {self.genus}"]
        for s in self.steps:
            if isinstance(s, DeleteStep):
                lines.append(f"delete {s.vertex}")
            else:
                lines.append(f"contract {s.u} {s.v} {s.weight}")
        lines.append("base " + " ".join(map(str, self.base)))
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> "ContractionTrace":
        lines = [(line.split(), off) for line, off in payload_lines(text)]
        if not lines or lines[0][0] != ["contraction-trace"]:
            raise ParseError("not a contraction trace", 0)
        header: dict[str, list[int]] = {}  # the r, genus and base lines
        steps: list = []
        arity = {"r": 1, "genus": 1, "delete": 1, "contract": 3}
        for parts, off in lines[1:]:
            word, args = parts[0], parts[1:]
            if word != "base" and arity.get(word) != len(args):
                raise ParseError(f"bad trace line {' '.join(parts)!r}", off)
            try:
                values = [int(x) for x in args]
            except ValueError:
                raise ParseError(f"non-integer in trace line {' '.join(parts)!r}", off)
            if word == "r" and values[0] < 1 or word == "genus" and values[0] < 0:
                raise ParseError(f"trace line {' '.join(parts)!r} needs r >= 1 "
                                 f"and genus >= 0", off)
            if word in header:
                raise ParseError(f"second {word} line {' '.join(parts)!r} in the trace", off)
            if word == "delete":
                steps.append(DeleteStep(*values))
            elif word == "contract":
                steps.append(ContractStep(*values))
            else:
                header[word] = values
        if "r" not in header or "genus" not in header:
            raise ParseError("trace missing r/genus header", len(text))
        return ContractionTrace(header["r"][0], header["genus"][0], steps,
                                header.get("base", []))


def _adjacency(g: Graph) -> dict[int, set[int]]:
    return {v: set(g.neighbors(v)) for v in g.vertices()}


def _apply(adj: dict[int, set[int]], step) -> tuple[int, set[int], list]:
    """Apply one peeling step to the adjacency in place.  The undo record is
    (removed vertex, its neighbor set, the edges the step added)."""
    if isinstance(step, DeleteStep):
        x = step.vertex
        nbrs = adj.pop(x)
        # a suppressed 2-vertex leaves the edge between its neighbors, so
        # the reduced coloring keeps them distinct (genus is preserved)
        pairs = [tuple(nbrs)] if len(nbrs) == 2 else []
    else:
        x, v = step.u, step.v
        nbrs = adj.pop(x)
        pairs = [(w, v) for w in nbrs if w != v]
    for w in nbrs:
        adj[w].discard(x)
    added = [(a, b) for a, b in pairs if b not in adj[a]]
    for a, b in added:
        adj[a].add(b)
        adj[b].add(a)
    return x, nbrs, added


def _peel(g: Graph, omega: int) -> tuple[ContractionTrace, dict[int, set[int]], list]:
    """Forward pass: the trace, the peeled adjacency and each step's undo
    record.  Deletions take the lowest id of degree <= 2 and contractions
    the least (weight, a, b), each from a lazy heap.  After a step only the
    neighbors whose degree changed and the edges it added are pushed again:
    every other entry still holds, and stale ones are dropped when they
    surface.  Once the minimum degree is >= 3, an edge of weight <= omega
    has both ends of degree <= omega - 3."""
    adj = _adjacency(g)
    steps: list = []
    undo: list = []
    cap = omega - 3
    low = [a for a in adj if len(adj[a]) <= 2]
    light = [(len(adj[a]) + len(adj[b]), a, b) for a in adj if len(adj[a]) <= cap
             for b in adj[a] if a < b and len(adj[b]) <= cap]
    heapify(low)
    heapify(light)

    def push(around) -> None:
        for a in around:
            da = len(adj[a])
            if da <= 2:
                heappush(low, a)
            if da <= cap:
                for b in adj[a]:
                    db = len(adj[b])
                    if db <= cap:
                        heappush(light, (da + db, a, b) if a < b else (da + db, b, a))

    while len(adj) > 4:
        while low and (low[0] not in adj or len(adj[low[0]]) > 2):
            heappop(low)
        while light:
            w, a, b = light[0]
            if a in adj and b in adj[a] and len(adj[a]) + len(adj[b]) == w:
                break
            heappop(light)
        if low:
            step = DeleteStep(low[0])
        elif not light or light[0][0] > omega:
            w = min(len(adj[a]) + len(adj[b]) for a in adj for b in adj[a])
            raise NoLightEdge(
                f"minimum edge weight {w} exceeds omega {omega}; the declared "
                f"genus is too small for this graph"
            )
        else:
            w, a, b = light[0]
            # absorber = higher-degree endpoint, ties to the lower id
            if len(adj[a]) > len(adj[b]):
                step = ContractStep(b, a, w)
            elif len(adj[b]) > len(adj[a]):
                step = ContractStep(a, b, w)
            else:
                step = ContractStep(max(a, b), min(a, b), w)
        undo.append(_apply(adj, step))
        steps.append(step)
        _, nbrs, added = undo[-1]
        # a neighbor's degree is unchanged exactly when it ends one added
        # edge, so its other edges' entries still hold; the added edges are new
        gained = dict.fromkeys(nbrs, 0)
        for a, b in added:
            gained[a] += 1
            gained[b] += 1
            if len(adj[a]) <= cap and len(adj[b]) <= cap:
                heappush(light, (len(adj[a]) + len(adj[b]), min(a, b), max(a, b)))
        push([w for w, k in gained.items() if k != 1])
    return ContractionTrace(0, 0, steps, sorted(adj)), adj, undo


@dataclass
class ContractionResult:
    coloring: dict[int, int]
    trace: ContractionTrace
    colors_used: int
    max_forbidden: int

    def render(self) -> str:
        return (f"colored with {self.colors_used} colors; "
                f"largest forbidden set {self.max_forbidden}")


def _reverse_color(
    r: int, ell: int, trace: ContractionTrace, adj: dict[int, set[int]], undo: list,
) -> tuple[dict[int, int], int]:
    """Color the peeled graph `adj` back up, undoing each step before its
    vertex is colored; `adj` ends as the input graph again.  Every vertex
    in `adj` but the one being reinserted is colored, and `seen[w]` counts
    the colors on w's colored neighbors (color -> count), so a step reads
    its vertex's neighbors and their counts only: O(d r)."""
    color = {v: i + 1 for i, v in enumerate(trace.base)}
    seen: dict[int, dict[int, int]] = {v: {} for v in adj}
    for v, counts in seen.items():
        for w in adj[v]:
            counts[color[w]] = counts.get(color[w], 0) + 1
    max_forbidden = 0
    for step, (x, nbrs, added) in zip(reversed(trace.steps), reversed(undo)):
        # undo the step: drop the edges it added, then put x back
        for a, b in added:
            adj[a].discard(b)
            adj[b].discard(a)
            for p, c in ((a, color[b]), (b, color[a])):
                seen[p][c] -= 1
                if not seen[p][c]:
                    del seen[p][c]
        adj[x] = nbrs
        counts = seen[x] = {}
        forbidden: set[int] = set()
        for w in nbrs:
            adj[w].add(x)
            counts[color[w]] = counts.get(color[w], 0) + 1
            # x is not colored yet, so w shows the seen[w] colors, at most
            # d(w) - 1: w is deficient, short of min(r, d(w)), exactly when
            # it shows fewer than r
            if len(seen[w]) < r:
                forbidden.update(seen[w])
        forbidden.update(counts)
        if isinstance(step, DeleteStep):
            limit = len(nbrs) * r
        else:
            forbidden.update(seen[step.v])
            du, dv = len(nbrs), len(adj[step.v])
            limit = du + dv - 1 + (r - 1) * (du - 1)
        if len(forbidden) > min(limit, ell - 1):
            raise AssertionError(
                f"forbidden set of size {len(forbidden)} exceeds the counting "
                f"bound min({limit}, {ell - 1}); the guarantee failed"
            )
        max_forbidden = max(max_forbidden, len(forbidden))
        c = 1
        while c in forbidden:
            c += 1
        if c > ell:
            raise AssertionError("needed more colors than the palette bound")
        color[x] = c
        for w in nbrs:
            seen[w][c] = seen[w].get(c, 0) + 1
    return color, max_forbidden


def color_by_contraction(
    g: Graph, r: int, declared_genus: int
) -> ContractionResult:
    """An r-dynamic coloring with at most ell(genus, r) colors, plus its trace."""
    prof = bound_profile(declared_genus, r)
    if not prof.applicable:
        raise ApplicabilityError(_below_threshold(prof))
    if g.n == 0:
        return ContractionResult({}, ContractionTrace(r, declared_genus, [], []), 0, 0)
    # the counting chain behind the forbidden-set cap closes exactly at ell - 1
    assert (prof.omega - 3) * (r + 1) // 2 + 2 == prof.ell - 1
    trace, adj, undo = _peel(g, prof.omega)
    trace.r, trace.genus = r, declared_genus
    color, max_forbidden = _reverse_color(r, prof.ell, trace, adj, undo)
    report = verify_r_dynamic(g, color, r)
    if not report.ok:
        raise AssertionError("constructive coloring failed verification")
    used = len(set(color.values()))
    if max(color.values()) > prof.ell:
        raise AssertionError("palette bound exceeded")
    return ContractionResult(color, trace, used, max_forbidden)


def replay_contraction(g: Graph, trace: ContractionTrace) -> ContractionResult:
    """Re-run the coloring from a recorded trace, verifying each step is legal."""
    prof = bound_profile(trace.genus, trace.r)
    if not prof.applicable:
        # below the threshold the counting bound does not hold, so a
        # successful replay would certify nothing
        raise CertificateRefuted(_below_threshold(prof))
    adj = _adjacency(g)
    undo = []
    for step in trace.steps:
        if isinstance(step, DeleteStep):
            if step.vertex not in adj or len(adj[step.vertex]) > 2:
                raise CertificateRefuted(f"illegal delete of {step.vertex}")
        else:
            u, v = step.u, step.v
            if u not in adj or v not in adj[u]:
                raise CertificateRefuted(f"illegal contraction {u},{v}")
            w = len(adj[u]) + len(adj[v])
            if w != step.weight or w > prof.omega:
                raise CertificateRefuted(f"contraction {u},{v} has weight {w}, not light")
        undo.append(_apply(adj, step))
    if sorted(adj) != trace.base or len(adj) > 4:
        raise CertificateRefuted("trace base does not match the peeled graph")
    color, max_forbidden = _reverse_color(trace.r, prof.ell, trace, adj, undo)
    report = verify_r_dynamic(g, color, trace.r)
    if not report.ok:
        raise AssertionError("replayed coloring failed verification")
    return ContractionResult(color, trace, len(set(color.values())), max_forbidden)


# ---------------------------------------------------------------------------
# maximum average degree (exact, by parametric min cuts)


def _densest_side(n: int, edges: list[tuple[int, int]], p: int, q: int) -> set[int]:
    """The least H maximizing q e(H) - p |H|: the vertices on the source side
    of the least minimum cut of the Picard-Queyranne network (source -> each
    edge, capacity q; edge -> both its ends, capacity q; vertex -> sink,
    capacity p), found by Dinic's blocking flows."""
    source, sink = n + len(edges), n + len(edges) + 1
    head: list[list[int]] = [[] for _ in range(sink + 1)]
    to: list[int] = []
    cap: list[int] = []
    for a, b, c in ([(source, n + i, q) for i in range(len(edges))]
                    + [(n + i, w, q) for i, e in enumerate(edges) for w in e]
                    + [(v, sink, p) for v in range(n)]):
        head[a].append(len(to))
        to.append(b)
        cap.append(c)
        head[b].append(len(to))  # the reverse arc is the arc's id ^ 1
        to.append(a)
        cap.append(0)
    while True:
        level = [-1] * (sink + 1)
        level[source] = 0
        frontier = [source]
        for x in frontier:
            for a in head[x]:
                if cap[a] and level[to[a]] < 0:
                    level[to[a]] = level[x] + 1
                    frontier.append(to[a])
        if level[sink] < 0:
            return {v for v in range(n) if level[v] >= 0}
        # blocking flow along level-increasing arcs, by an explicit stack
        # (a path can outgrow the recursion limit); a node that reaches no
        # further is taken out of the level graph
        nxt = [0] * (sink + 1)
        path: list[int] = []
        x = source
        while True:
            if x == sink:
                push = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                path.clear()
                x = source
            arcs = head[x]
            while nxt[x] < len(arcs):
                a = arcs[nxt[x]]
                if cap[a] and level[to[a]] == level[x] + 1:
                    break
                nxt[x] += 1
            if nxt[x] < len(arcs):
                path.append(a)
                x = to[a]
            elif x == source:
                break
            else:
                level[x] = -1
                x = to[path.pop() ^ 1]


def mad(g: Graph) -> Fraction:
    """Exact max over non-empty vertex subsets of 2 e(H) / |H|.

    Dinkelbach's iteration (Management Science, 1967) on Goldberg's min-cut
    formulation: at density p/q the least H maximizing q e(H) - p |H| is
    empty exactly when no subgraph is denser, and is otherwise strictly
    denser, so its density is the next p/q.
    """
    if g.n == 0:
        raise DisconnectedGraph("mad requires a non-empty graph")
    edges = g.edges()
    density = Fraction(0)
    while True:
        dense = _densest_side(g.n, edges, density.numerator, density.denominator)
        if not dense:
            return 2 * density
        density = Fraction(sum(u in dense and v in dense for u, v in edges), len(dense))


# ---------------------------------------------------------------------------
# KP pipeline: 2-dynamic 4-paintability certificates for sparse graphs


GIRTH7_HYPOTHESIS = "planar-girth-7 (asserted by caller)"
# the remainder game's vertex cap and node budget
KP_GAME_MAX_N = 8
KP_GAME_NODE_BUDGET = 4_000_000
# the peel's ranks, each a kind (None: an isolated vertex) and its case: a
# pendant first, then an isolated vertex, then the rest in `KP_KINDS` order
_KP_RANKS = ((ConfigKind.KP_PENDANT, "1"), (None, "1"),
             (ConfigKind.KP_TWO_TWO, "2a"), (ConfigKind.KP_THREE_WITH_TWOS, "2b"))


def _is_c5(g: Graph) -> bool:
    """Whether a connected graph is the five-cycle."""
    return g.n == 5 and all(g.degree(v) == 2 for v in g.vertices())


@dataclass
class KpStep:
    case: str          # "1", "2a", "2b"
    removed: tuple[int, ...]
    roles: dict
    budget: int


@dataclass
class KpRemainder:
    component: tuple[int, ...]
    verdict: str       # "game-pass", "game-fail", "is-c5", "too-large"


@dataclass
class KpCertificate:
    hypothesis: str
    steps: list[KpStep]
    remainders: list[KpRemainder]

    @property
    def certified(self) -> bool:
        return all(r.verdict == "game-pass" for r in self.remainders)

    def render(self) -> str:
        lines = ["kp-chain", f"hypothesis {self.hypothesis}"]
        for s in self.steps:
            roles = " ".join(f"{k}={v}" for k, v in sorted(s.roles.items()))
            lines.append(f"case{s.case} remove {' '.join(map(str, s.removed))}"
                         f" budget {s.budget} | {roles}")
        for rem in self.remainders:
            lines.append(
                f"remainder {' '.join(map(str, rem.component))} -> {rem.verdict}"
            )
        lines.append(f"certified {self.certified}")
        return "\n".join(lines) + "\n"


def kp_pipeline(g: Graph, *, girth7_planar: bool = False) -> KpCertificate:
    """Reduction chain certifying 2-dynamic 4-paintability of a sparse graph.

    Checks the density hypothesis mad < 8/3 exactly, at any size (or accepts
    the caller's planar-girth-7 assertion instead), peels the catalog's KP
    configurations, each step the first kind in `KP_KINDS` order that matches
    at its least root (an isolated vertex ranks after the pendants), and
    closes the low-degree remainder with the game solver.  The steps come
    from one lazy heap of (rank, root), refreshed around each removed set,
    so the peel is near-linear.
    """
    if not g.is_connected():
        raise DisconnectedGraph("the pipeline requires a connected graph")
    if g.n == 0:
        raise DisconnectedGraph("the pipeline requires a non-empty graph")
    if _is_c5(g):
        raise IsC5("the five-cycle is the excluded graph")
    if girth7_planar:
        hypothesis = GIRTH7_HYPOTHESIS
    else:
        density = mad(g)
        if density >= Fraction(8, 3):
            raise HypothesisFail(f"mad = {density} >= 8/3")
        hypothesis = f"mad {density} < 8/3"

    adj = _adjacency(g)
    budgets = {kind: max(CATALOG[kind].budgets.values()) for kind in KP_KINDS}

    def step_at(rank: int, u: int) -> KpStep | None:
        """The step of rank `rank` rooted at u, or None."""
        if u not in adj:
            return None
        kind, case = _KP_RANKS[rank]
        if kind is None:  # an isolated vertex, while another vertex remains
            return KpStep(case, (u,), {"v": u}, 0) if not adj[u] and len(adj) > 1 else None
        match = next(kp_matches(adj, kind, (u,)), None)
        if match is None:
            return None
        return KpStep(case, kp_deleted(match), match.roles, budgets[kind])

    # One lazy heap of (rank, root).  Removing vertices lowers the degrees of
    # their neighbours.  A root's match reads its own degree and, for each
    # neighbour, only whether that degree is 2 or at least 3 (and a
    # 2-neighbour's other neighbour); so a lowered degree can change the
    # steps only at that vertex and, when the new degree is at most 2, at its
    # neighbours.  Those are pushed again after every step; stale entries are
    # dropped when they surface.
    heap: list[tuple[int, int]] = []

    def push(around) -> None:
        for u in around:
            # the ranks are rooted at distinct degrees: at most one applies
            for rank in range(len(_KP_RANKS)):
                if step_at(rank, u) is not None:
                    heappush(heap, (rank, u))
                    break

    push(adj)
    steps: list[KpStep] = []
    while heap:
        step = step_at(*heappop(heap))
        if step is None:
            continue
        steps.append(step)
        lowered: set[int] = set()
        for x in step.removed:
            for w in adj.pop(x):
                adj[w].discard(x)
                lowered.add(w)
        lowered.difference_update(step.removed)
        push(lowered.union(*(adj[w] for w in lowered if len(adj[w]) <= 2)))
    if any(len(ns) >= 3 for ns in adj.values()):
        if girth7_planar:
            raise HypothesisFail(
                "a remainder of maximum degree >= 3 without a KP configuration "
                f"refutes the assertion {GIRTH7_HYPOTHESIS}")
        raise AssertionError(
            "no unavoidable configuration in a max-degree->=3 remainder; "
            "the density hypothesis should make this impossible")

    r, k = KP_KINDS[0].target
    remainders: list[KpRemainder] = []
    rest, _ = subgraph(g, adj)
    label = sorted(adj)  # subgraph keeps the survivors in order
    for part in rest.components():
        comp = tuple(label[i] for i in part)
        sub, _ = subgraph(rest, part)
        if _is_c5(sub):
            remainders.append(KpRemainder(comp, "is-c5"))
            continue
        try:
            verdict = solve_xp_r(sub, r, k, max_n=KP_GAME_MAX_N,
                                 node_budget=KP_GAME_NODE_BUDGET)
            remainders.append(KpRemainder(
                comp, "game-pass" if verdict.painter_wins else "game-fail"
            ))
        except BudgetExceeded:
            remainders.append(KpRemainder(comp, "too-large"))
    return KpCertificate(hypothesis, steps, remainders)
