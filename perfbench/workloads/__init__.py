"""The four workloads.  Each module exposes

    build(dc, seed, call, scale) -> (queries, input_checks)

where `dc` holds the freshly imported dyncolor modules, `call` is the
untraced or traced caller used for set-up work, and `input_checks` is a list
of (name, zero-argument check) pairs run once, after the timed passes.
"""

import json
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "data"


def load(name: str):
    with open(DATA / name, encoding="ascii") as fh:
        return json.load(fh)


def parse_graph(dc, call, text):
    """One graph file read as the CLI reads it (graph6 or edge list)."""
    call.count("graph.bytes_parsed", len(text))
    return call("graph", dc.graph.parse_graph, text)


def parse_embedding(dc, call, text):
    """One rotation-system file read as the CLI reads it."""
    emb = call("embedding", dc.embedding.parse_rotation, text)
    call.count("embedding.faces_traced", len(emb.faces))
    return emb


def reduce(dc, call, emb, match):
    """build_reduction, or None when the builder refuses the match."""
    call.count("configs.reductions_attempted", 1)
    try:
        red = call("configs", dc.configs.build_reduction, emb, match)
    except (ValueError, dc.errors.DynColorError):
        return None  # builders refuse matches whose degrees are not exact
    call.count("configs.reductions_built", 1)
    return red


def graph6_checks(G, texts):
    """Bit-exact graph6 round trips through the program's reader and writer,
    with networkx's reader as an independent oracle when it is installed.
    networkx is imported by the first check, after the timed part of the run."""
    def check(text):
        g = G.parse_graph6(text)
        if G.emit_graph6(g) != text:
            return "graph6 does not round-trip"
        try:
            import networkx as nx
        except ImportError:
            return None
        ref = sorted(tuple(sorted(e)) for e in nx.from_graph6_bytes(text.encode()).edges())
        return None if ref == g.edges() else "networkx reads different edges"
    return [(f"graph6 round trip {text!r}", lambda t=text: check(t))
            for text in dict.fromkeys(texts)]
