"""Command-line entry point: solve, verify, detect, reduce, discharge, bound, replay.

Exit codes: 0 success / true verdict, 1 false verdict, 2 usage error,
3 budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds, configs, coloring, discharge, embedding, paintgame
from .errors import (BudgetExceeded, CertificateRefuted, DisconnectedGraph,
                     DynColorError, MalformedRotation, ParseError, PartialInput,
                     TooLargeForExhaustive)
from .graph import Graph, parse_graph

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not ASCII", exc.start) from exc


def _load_graph(path: str, fmt: str) -> Graph:
    return parse_graph(_read(path), fmt)


def _load_embedding(path: str) -> embedding.EmbeddedGraph:
    return embedding.parse_rotation(_read(path))


def _at_least(text: str, low: int, number=int):
    value = number(text)
    if not value >= low:  # a NaN is refused too
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive(text: str) -> int:
    return _at_least(text, 1)


def _nonnegative(text: str) -> int:
    return _at_least(text, 0)


def _nonnegative_float(text: str) -> float:
    return _at_least(text, 0, float)


def _resolve_kinds(spec: str):
    if spec == "torus":
        return configs.TORUS_KINDS
    if spec == "kp":
        return configs.KP_KINDS
    if spec == "all":
        return configs.TORUS_KINDS + configs.KP_KINDS
    chosen = []
    by_name = {k.value: k for k in configs.ConfigKind}
    for name in spec.split(","):
        if name not in by_name:
            raise argparse.ArgumentTypeError(f"unknown configuration kind {name!r}")
        chosen.append(by_name[name])
    return tuple(chosen)


def _add_graph_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="graph file (graph6 or edge list), '-' for stdin")
    p.add_argument("--format", choices=["auto", "graph6", "edge-list"],
                   default="auto")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="dyncolor",
        description="Exact r-dynamic coloring, paintability games, reducible "
                    "configurations, and discharging on embedded graphs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chi-r", help="exact r-dynamic chromatic number")
    _add_graph_arg(p)
    p.add_argument("--r", type=_positive, required=True)
    p.add_argument("--max-n", type=_nonnegative, default=16)
    p.add_argument("--max-nodes", type=_nonnegative, default=5_000_000)
    p.add_argument("--time-limit", type=_nonnegative_float, default=None,
                   help="wall-clock cap in seconds")
    p.add_argument("--witness", action="store_true")

    p = sub.add_parser("verify", help="check a coloring for the r-dynamic property")
    _add_graph_arg(p)
    p.add_argument("--r", type=_positive, required=True)
    p.add_argument("--coloring", required=True, help="file of '<vertex> <color>' lines")

    p = sub.add_parser("paint", help="paint number (game solve or sandwich)")
    _add_graph_arg(p)
    p.add_argument("--r", type=_positive, required=True)
    p.add_argument("--tokens", type=_positive,
                   help="solve one game at this uniform token count")
    p.add_argument("--max-n", type=_nonnegative, default=7)
    p.add_argument("--max-nodes", type=_nonnegative, default=None)
    p.add_argument("--time-limit", type=_nonnegative_float, default=None,
                   help="wall-clock cap in seconds for one game solve")
    p.add_argument("--genus", type=_nonnegative, default=None,
                   help="declared genus enabling structural upper bounds")

    p = sub.add_parser("list-check", help="r-dynamic colorability from lists")
    _add_graph_arg(p)
    p.add_argument("--r", type=_positive, required=True)
    p.add_argument("--lists", required=True, help="file of '<v>: c1 c2 ...' lines")

    p = sub.add_parser("find-config", help="detect reducible configurations")
    p.add_argument("rotation", help="rotation-system file ('rot <n>' header)")
    p.add_argument("--kinds", type=_resolve_kinds, default="torus",
                   help="'torus', 'kp', 'all', or comma-separated kind names")

    p = sub.add_parser("reduce", help="build the reduction for the first match")
    p.add_argument("rotation")
    p.add_argument("--kind", type=_resolve_kinds, default=None,
                   help="restrict to one kind name")

    p = sub.add_parser("discharge", help="run the charging rules on an embedding")
    p.add_argument("rotation")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("unavoidable",
                       help="find a configuration or the discharging witness")
    p.add_argument("rotation")

    p = sub.add_parser("genus", help="trace faces and report the Euler genus")
    p.add_argument("rotation")

    p = sub.add_parser("bound", help="genus/r bound profile")
    p.add_argument("--genus", type=_nonnegative, required=True)
    p.add_argument("--r", type=_positive, required=True)

    p = sub.add_parser("mad", help="exact maximum average degree")
    _add_graph_arg(p)
    p.add_argument("--max-n", type=_nonnegative, default=20)

    p = sub.add_parser("kp-check", help="2-dynamic 4-paintability certificate")
    _add_graph_arg(p)
    p.add_argument("--girth7-planar", action="store_true",
                   help="assert planarity with girth >= 7 instead of checking mad")
    p.add_argument("--max-n", type=_nonnegative, default=20, help="mad exhaustive cap")
    p.add_argument("--out", default=None, help="write the certificate here")

    p = sub.add_parser("contract-color",
                       help="constructive r-dynamic coloring via light edges")
    _add_graph_arg(p)
    p.add_argument("--r", type=_positive, required=True)
    p.add_argument("--genus", type=_nonnegative, required=True)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--coloring-out", default=None)

    p = sub.add_parser("replay", help="replay a certificate against its graph")
    _add_graph_arg(p)
    p.add_argument("--certificate", required=True)

    return top


def _cmd_chi_r(args) -> int:
    g = _load_graph(args.graph, args.format)
    res = coloring.chi_r_exact(g, args.r, max_n=args.max_n,
                               force=args.max_n >= g.n,
                               node_budget=args.max_nodes,
                               time_limit=args.time_limit)
    print(res.value)
    if args.witness:
        sys.stdout.write(coloring.emit_coloring(res.witness))
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph, args.format)
    c = coloring.parse_coloring(_read(args.coloring))
    report = coloring.verify_r_dynamic(g, c, args.r)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_FALSE


def _cmd_paint(args) -> int:
    g = _load_graph(args.graph, args.format)
    if args.tokens is not None:
        verdict = paintgame.solve_xp_r(g, args.r, args.tokens, max_n=args.max_n,
                                       force=args.max_n >= g.n,
                                       node_budget=args.max_nodes,
                                       time_limit=args.time_limit)
        print("painter wins" if verdict.painter_wins else "lister wins")
        return EXIT_OK if verdict.painter_wins else EXIT_FALSE
    res = paintgame.xp_r_number(g, args.r, max_n=args.max_n,
                                node_budget=args.max_nodes, genus=args.genus)
    print(res.render())
    return EXIT_OK if res.exact else EXIT_BUDGET


def _cmd_list_check(args) -> int:
    g = _load_graph(args.graph, args.format)
    lists = coloring.parse_lists(_read(args.lists))
    witness = coloring.is_L_colorable_r_dynamic(g, lists, args.r)
    if witness is None:
        print("unsatisfiable")
        return EXIT_FALSE
    sys.stdout.write(coloring.emit_coloring(witness))
    return EXIT_OK


def _cmd_find_config(args) -> int:
    emb = _load_embedding(args.rotation)
    matches = configs.find_configs(emb, args.kinds)
    for m in matches:
        print(m.render())
    print(f"{len(matches)} matches")
    return EXIT_OK if matches else EXIT_FALSE


def _cmd_reduce(args) -> int:
    emb = _load_embedding(args.rotation)
    kinds = args.kind or configs.TORUS_KINDS + configs.KP_KINDS
    for m in configs.find_configs(emb, kinds):
        try:
            red = configs.build_reduction(emb, m)
        except (ValueError, DynColorError):
            continue
        print(red.render())
        return EXIT_OK
    print("no reducible configuration with a buildable reduction")
    return EXIT_FALSE


def _cmd_discharge(args) -> int:
    emb = _load_embedding(args.rotation)
    ledger = discharge.run_discharge(emb)
    if args.json:
        print(ledger.to_json())
    else:
        print(discharge.final_report(ledger).render())
    return EXIT_OK


def _cmd_unavoidable(args) -> int:
    emb = _load_embedding(args.rotation)
    out = discharge.unavoidability_driver(emb)
    print(out.render())
    return EXIT_OK if out.found else EXIT_FALSE


def _cmd_genus(args) -> int:
    emb = _load_embedding(args.rotation)
    print(f"V {emb.graph.n}  E {emb.graph.m}  F {len(emb.faces)}  genus {emb.genus}")
    for i, f in enumerate(emb.faces):
        print(f"face {i}: length {f.length}: " +
              " ".join(str(u) for u, _ in f.darts))
    return EXIT_OK


def _cmd_bound(args) -> int:
    print(bounds.bound_profile(args.genus, args.r).render())
    return EXIT_OK


def _cmd_mad(args) -> int:
    g = _load_graph(args.graph, args.format)
    print(bounds.mad(g, max_n=args.max_n))
    return EXIT_OK


def _cmd_kp_check(args) -> int:
    g = _load_graph(args.graph, args.format)
    cert = bounds.kp_pipeline(g, girth7_planar=args.girth7_planar,
                              mad_max_n=args.max_n)
    sys.stdout.write(cert.render())
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(cert.render())
    return EXIT_OK if cert.certified else EXIT_FALSE


def _cmd_contract_color(args) -> int:
    g = _load_graph(args.graph, args.format)
    res = bounds.color_by_contraction(g, args.r, args.genus)
    print(res.render())
    if args.trace_out:
        with open(args.trace_out, "w", encoding="ascii") as fh:
            fh.write(res.trace.render())
    if args.coloring_out:
        with open(args.coloring_out, "w", encoding="ascii") as fh:
            fh.write(coloring.emit_coloring(res.coloring))
    return EXIT_OK


def _cmd_replay(args) -> int:
    g = _load_graph(args.graph, args.format)
    text = _read(args.certificate)
    head = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
    if head == "contraction-trace":
        trace = bounds.ContractionTrace.parse(text)
        try:
            res = bounds.replay_contraction(g, trace)
        except CertificateRefuted as exc:
            print(f"certificate refuted: {exc}")
            return EXIT_FALSE
        print(f"replayed: {res.render()}")
        return EXIT_OK
    if head == "kp-chain":
        recorded = [ln for ln in text.splitlines() if ln.strip()]
        girth7 = f"hypothesis {bounds.GIRTH7_HYPOTHESIS}" in recorded
        fresh = bounds.kp_pipeline(g, girth7_planar=girth7)
        if recorded != fresh.render().splitlines():
            print("certificate does not match a fresh pipeline run")
            return EXIT_FALSE
        print(f"replayed: chain of {len(fresh.steps)} steps matches; "
              f"certified {fresh.certified}")
        return EXIT_OK if fresh.certified else EXIT_FALSE
    print("unknown certificate header", file=sys.stderr)
    return EXIT_USAGE


_COMMANDS = {
    "chi-r": _cmd_chi_r,
    "verify": _cmd_verify,
    "paint": _cmd_paint,
    "list-check": _cmd_list_check,
    "find-config": _cmd_find_config,
    "reduce": _cmd_reduce,
    "discharge": _cmd_discharge,
    "unavoidable": _cmd_unavoidable,
    "genus": _cmd_genus,
    "bound": _cmd_bound,
    "mad": _cmd_mad,
    "kp-check": _cmd_kp_check,
    "contract-color": _cmd_contract_color,
    "replay": _cmd_replay,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no option but -h: refuse one here, or argparse
    # takes the option's value for the command and names that instead
    if argv and argv[0].startswith("-") and argv[0] not in ("-h", "--help", "--"):
        parser.error(f"unrecognized arguments: {argv[0]}")
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (BudgetExceeded, TooLargeForExhaustive) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ParseError, MalformedRotation) as exc:
        # MalformedRotation comes only from an input rotation file
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DisconnectedGraph, PartialInput) as exc:
        # input the command does not take: a disconnected graph or rotation
        # file, a coloring or list file that misses a vertex or names one
        # the graph does not have
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DynColorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except OSError as exc:
        # an input that cannot be read or an output that cannot be written:
        # a missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
