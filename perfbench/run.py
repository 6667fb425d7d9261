"""dyncolor benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload game --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  Query passes repeat while the next is likely to end within
`--seconds`, at least three times.  Set-up (a fresh import of the package
plus input generation) runs before each of the first three passes, repeated
for at least 0.5 s, and `setup_s` is the median.  Every time is scaled to the
reference speed (see harness.py), and a query's time is its median over the
untraced passes.  With `--trace 1` passes alternate untraced and traced (at
least two of each), per-layer figures are given per set-up plus one pass, and
spans are written to `.bench_spans/`.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from harness import COUNTERS, LAYERS, Caller, Tracer, median, nearest_rank  # noqa: E402

# set-up runs before each of the first SETUP_PASSES passes, once and then
# again until SETUP_SLOT seconds have gone; every query runs in at least
# MIN_PASSES untraced passes
SETUP_PASSES, SETUP_SLOT, MIN_PASSES = 3, 0.5, 3
MODULES = LAYERS + ("errors",)
WORKLOADS = ("game", "certify", "torus", "coloring")


def load_program(src: Path) -> SimpleNamespace:
    """Import a fresh copy of every dyncolor module from `src`."""
    for name in [m for m in sys.modules if m == "dyncolor" or m.startswith("dyncolor.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dyncolor")
    if Path(pkg.__file__).resolve().parent != (src / "dyncolor").resolve():
        raise ImportError(f"dyncolor imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"dyncolor.{m}") for m in MODULES})


def per_layer_metrics(tracer: Tracer, untraced: list[harness.PassResult],
                      traced: list[harness.PassResult]) -> dict:
    units = tracer.per_unit()
    names = [f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "self_s", "errors")]
    names += [c for c in COUNTERS if not c.startswith("configs.reductions_")]
    out = {}
    for name in names:
        setup = median([t.get(name, 0) for phase, t in units if phase == "setup"])
        query = median([t.get(name, 0) for phase, t in units if phase == "query"])
        if name.endswith("_s"):
            out[name] = {"value": setup + query, "unit": "s"}
        else:
            out[name] = {"value": int(setup + query), "unit": "count"}
    built = median([t.get("configs.reductions_built", 0) for p, t in units if p == "query"])
    tried = median([t.get("configs.reductions_attempted", 0) for p, t in units if p == "query"])
    out["configs.reduction_yield"] = {"value": built / tried if tried else 0.0, "unit": "ratio"}
    overhead = (sum(harness.query_times(traced).values())
                - sum(harness.query_times(untraced).values()))
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


def run_all(args) -> int:
    """Each workload in a process of its own, one after another, so that
    peak_rss_mb belongs to one workload; the metric lines are prefixed with
    the workload name and the last line combines the four results."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale], capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(ln if ln.startswith("workload ") else f"{w}: {ln}" for ln in lines))
        res = json.loads(last)
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="'tiny' shrinks every input list for the smoke test")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = Path.cwd() / "src"
    if not (src / "dyncolor" / "__init__.py").is_file():
        print(f"error: no dyncolor sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = importlib.import_module(f"workloads.{args.workload}")

    caller: Caller = Tracer() if args.trace else Caller()
    least = 4 if caller.enabled else MIN_PASSES
    plain = Caller()
    setup_times, raw_setup, passes, traced_passes = [], [], [], []
    start = time.perf_counter()
    cycles = 0
    # cycles of set-up and one pass, while the next is likely to end within
    # --seconds, and at least `least` of them; a pass runs the queries of the
    # set-up just before it
    while cycles < least or (time.perf_counter() - start) * (cycles + 1) / cycles <= args.seconds:
        slot, slot_times = time.perf_counter(), []
        # set-up runs before each of the first SETUP_PASSES passes, repeated
        # until it has taken SETUP_SLOT seconds
        while cycles < SETUP_PASSES:
            if caller.enabled:
                caller.unit("setup")
            t = time.perf_counter()
            try:
                dc = load_program(src)
            except ImportError as exc:
                print(f"error: cannot import dyncolor: {exc}", file=sys.stderr)
                return 2
            queries, input_checks = workload.build(dc, args.seed, caller, args.scale)
            slot_times.append(time.perf_counter() - t)
            # the replaced copy of the program is garbage now; collected
            # outside the timed region, so peak memory does not depend on
            # how many set-ups ran
            gc.collect()
            if args.scale == "tiny" or time.perf_counter() - slot >= SETUP_SLOT:
                break
        # garbage left by the last pass is collected outside the timed
        # region, so every pass starts from the same heap
        gc.collect()
        if caller.enabled and cycles % 2:
            caller.unit("query")
            result = harness.run_pass(queries, caller)
            traced_passes.append(result)
        else:
            result = harness.run_pass(queries, plain)
            passes.append(result)
        # a set-up is scaled to the reference speed by the pass just after it
        setup_times += [t * result.reference_scale() for t in slot_times]
        raw_setup += slot_times
        cycles += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # after the memory reading: the checks may import networkx
    failures = [f"input {name}: {why}" for name, check in input_checks
                if (why := check()) is not None]
    for p in passes + traced_passes:
        failures += p.failures
    attempted = len(input_checks) + len(queries) * len(passes + traced_passes)
    failed = len(failures)
    samples = list(harness.query_times(passes).values())
    raw = sorted(harness.query_times(passes, scaled=False).values())

    print(f"workload {args.workload} seed {args.seed}: {len(setup_times)} set-ups, "
          f"{len(queries)} queries x {len(passes)} untraced passes; "
          f"{len(samples)} samples, each a query's median over the passes")
    for qid, verdict in sorted(passes[0].unscored.items()):
        print(f"unscored {qid}: {verdict}")
    for note, qids in passes[0].notes.items():
        print(f"known defect in {len(qids)} queries (first {qids[0]}): {note}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(f"unscaled: setup_s {median(raw_setup):.6g} wall_s {sum(raw):.6g} "
          f"query_p50_ms {1000 * nearest_rank(raw, 0.5):.6g} "
          f"query_p90_ms {1000 * nearest_rank(raw, 0.9):.6g}")
    error_ratio = failed / attempted
    print(f"error_ratio {error_ratio:.6f} ratio ({failed}/{attempted})")

    if args.trace:
        metrics = per_layer_metrics(caller, passes, traced_passes)
        out_dir = Path.cwd() / ".bench_spans"
        out_dir.mkdir(exist_ok=True)
        caller.dump(out_dir / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "wall_s": {"value": sum(samples), "unit": "s"},
            "query_p50_ms": {"value": 1000 * nearest_rank(samples, 0.50), "unit": "ms"},
            "query_p90_ms": {"value": 1000 * nearest_rank(samples, 0.90), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
