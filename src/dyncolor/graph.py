"""Simple undirected graphs on dense integer vertex ids, plus graph6 / edge-list io.

Graphs are immutable values: vertex deletion returns a new graph together
with its remap, the tuple of each old vertex's new id (None for a deleted
one), so callers holding vertex references can re-address them after
surgery.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from math import isqrt

from .errors import LoopRequested, ParseError


class Graph:
    """Simple undirected graph; vertices are exactly 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise LoopRequested(f"loop requested at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in nbrs)

    @classmethod
    def _from_adj(cls, adj: tuple[tuple[int, ...], ...]) -> Graph:
        """The graph with these rows; the caller vouches that each row is
        sorted, loop-free and in range, and that the rows are symmetric."""
        g = cls.__new__(cls)
        g.n, g.adj = len(adj), adj
        return g

    # -- queries ------------------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def vertices(self) -> range:
        return range(self.n)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in self.adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n

    def components(self) -> list[list[int]]:
        seen: set[int] = set()
        comps = []
        for s in range(self.n):
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self.adj[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def delete_vertices(g: Graph, doomed) -> tuple[Graph, tuple[int | None, ...]]:
    """G - doomed and its remap: the new id of each old vertex, None for a
    deleted one.  The remap is monotone, so the filtered rows stay sorted."""
    doomed = set(doomed)
    kept = count()
    image = tuple([None if v in doomed else next(kept) for v in range(g.n)])
    adj = tuple(
        tuple([image[w] for w in row if w not in doomed])
        for v, row in enumerate(g.adj) if v not in doomed
    )
    return Graph._from_adj(adj), image


def add_edges(g: Graph, new_edges) -> Graph:
    """Union with the given pairs; already-present edges are silently kept single.
    Only the rows of the pairs' ends are rebuilt."""
    added: dict[int, set[int]] = {}
    for u, v in new_edges:
        if u == v:
            raise LoopRequested(f"loop requested at vertex {u}")
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ValueError(f"edge ({u},{v}) out of range for n={g.n}")
        added.setdefault(u, set()).add(v)
        added.setdefault(v, set()).add(u)
    adj = list(g.adj)
    for v, new in added.items():
        adj[v] = tuple(sorted(new.union(adj[v])))
    return Graph._from_adj(tuple(adj))


def subgraph(g: Graph, keep) -> tuple[Graph, tuple[int | None, ...]]:
    keep = set(keep)
    return delete_vertices(g, set(g.vertices()) - keep)


# -- graph6 ------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"
# the set bits of each 6-bit graph6 data value, counted from its high bit
_SET_BITS = [tuple(j for j in range(6) if x >> (5 - j) & 1) for x in range(64)]


def _g6_decode_n(data: bytes) -> tuple[int, int]:
    """Return (n, bytes consumed) from the graph6 size field."""
    if not data:
        raise ParseError("empty graph6 string", 0)
    b0 = data[0]
    if b0 != 126:
        if not 63 <= b0 <= 125:
            raise ParseError(f"bad size byte {b0}", 0)
        return b0 - 63, 1
    if len(data) < 4:
        raise ParseError("truncated long size field", len(data))
    if data[1] != 126:
        vals = [data[i] - 63 for i in (1, 2, 3)]
        for i, x in enumerate(vals):
            if not 0 <= x <= 63:
                raise ParseError(f"bad size byte {data[i + 1]}", i + 1)
        return (vals[0] << 12) | (vals[1] << 6) | vals[2], 4
    if len(data) < 8:
        raise ParseError("truncated very long size field", len(data))
    vals = [data[i] - 63 for i in range(2, 8)]
    for i, x in enumerate(vals):
        if not 0 <= x <= 63:
            raise ParseError(f"bad size byte {data[i + 2]}", i + 2)
    n = 0
    for x in vals:
        n = (n << 6) | x
    return n, 8


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):].strip()
    data = s.encode("ascii", errors="replace")
    n, off = _g6_decode_n(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - off < nbytes:
        raise ParseError(
            f"need {nbytes} data bytes for n={n}, found {len(data) - off}", len(data)
        )
    if len(data) - off > nbytes:
        raise ParseError("trailing bytes after graph6 data", off + nbytes)
    edges = []
    for i in range(nbytes):
        b = data[off + i]
        if not 63 <= b <= 126:
            raise ParseError(f"data byte {b} out of graph6 range", off + i)
        # bit k is the pair (u, v) with k = v(v-1)/2 + u; bits past the last
        # pair pad the final byte
        for k in _SET_BITS[b - 63]:
            k += 6 * i
            if k < nbits:
                v = (1 + isqrt(8 * k + 1)) // 2
                edges.append((k - v * (v - 1) // 2, v))
    return Graph(n, edges)


def emit_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        raise ValueError("graph too large for this graph6 writer")
    # bit k = v(v-1)/2 + u stands for the pair u < v, six to a byte from its
    # high bit; zero bits pad the last byte
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for v, row in enumerate(g.adj):
        base = v * (v - 1) // 2
        for u in row:
            if u >= v:
                break  # rows are sorted
            k = base + u
            body[k // 6] |= 32 >> k % 6
    return (head + bytes(x + 63 for x in body)).decode("ascii")


# -- line-oriented text -----------------------------------------------------------

def payload_lines(text: str):
    """Yield (payload, offset) for each line of `text` with something before
    its '#': that part stripped, and the byte offset where the line starts.
    Every line-oriented format reads its lines here, so blank lines and
    comments mean the same in all of them."""
    offset = 0
    for line in text.splitlines(keepends=True):
        payload = line.partition("#")[0].strip()
        if payload:
            yield payload, offset
        offset += len(line)


# -- edge list ----------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Vertices 0 to the largest id, one edge per 'u v' line.  An id above
    twice the number of lines is refused: one number must not size the graph."""
    edges = []
    max_v, max_at = -1, 0
    for line, offset in payload_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", offset)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex in {line!r}", offset)
        if u < 0 or v < 0:
            raise ParseError("negative vertex id", offset)
        if u == v:
            raise ParseError(f"loop at vertex {u}", offset)
        edges.append((u, v))
        if max(u, v) > max_v:
            max_v, max_at = max(u, v), offset
    if max_v > 2 * len(edges):
        raise ParseError(f"vertex id {max_v} exceeds twice the number of edges ({len(edges)})", max_at)
    return Graph(max_v + 1, edges)


def parse_graph(text: str, fmt: str = "auto") -> Graph:
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt == "edge-list":
        return parse_edge_list(text)
    if fmt == "auto":
        body = text.strip()
        if body.startswith(_G6_HEADER):
            return parse_graph6(text)
        # an edge list's first non-blank line holds two whitespace-separated
        # fields or a comment; graph6 has neither whitespace nor '#'.  The raw
        # line is read, not payload_lines, which would drop the '#'
        first = next((ln for ln in body.splitlines() if ln.strip()), "")
        if len(first.split()) > 1 or "#" in first:
            return parse_edge_list(text)
        return parse_graph6(text)
    raise ValueError(f"unknown format {fmt!r}")
