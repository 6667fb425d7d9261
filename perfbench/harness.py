"""Measurement core: queries, passes, spans and the metric record.

A workload is a list of `Query` objects built during set-up.  A query is one
user-level call (one paint number, one budget check, one torus embedding
analysed); its `run` function talks to the program only through `call`, so
the same code runs untimed-direct or traced.  Verdicts are checked after each
pass, outside the timed region.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

LAYERS = ("graph", "embedding", "families", "coloring", "paintgame",
          "configs", "discharge", "bounds")

# work counters read from public return values, per layer
COUNTERS = (
    "graph.bytes_parsed",
    "embedding.faces_traced",
    "families.graphs_enumerated",
    "paintgame.nodes",
    "paintgame.memo_states",
    "paintgame.adversary_states",
    "paintgame.painter_wins",
    "paintgame.lister_wins",
    "configs.matches",
    "configs.extend_colorings",
    "configs.reductions_attempted",
    "configs.reductions_built",
    "discharge.transfers",
    "bounds.contraction_steps",
    "bounds.kp_steps",
    "bounds.kp_remainders",
)


# Times are scaled to a reference speed.  The machine's speed swings by up to
# 1.7x over milliseconds (a two-state pattern, as when a sibling hardware
# thread is busy or idle) and drifts over minutes; reference_work runs before
# every query and after the last, and its time moves with the machine's speed
# while the program's own cost is what remains after scaling.
# REF_SECONDS is reference_work's typical time on the machine the benchmark
# was tuned on (2 CPUs, Python 3.11.7), so scaled times read close to the
# seconds seen there; REF_WINDOW reference times on each side of a query give
# its local speed.
REF_SECONDS, REF_WINDOW = 2.1e-4, 8


@dataclass
class Query:
    """One scored call.  `run(call)` returns a verdict; `check(verdict)`
    returns None when it matches the expected answer, else a reason."""

    qid: str
    run: Callable[["Caller"], Any]
    check: Callable[[Any], str | None]
    scored: bool = True
    # reports a known program defect seen in the verdict; printed, not scored
    note: Callable[[Any], str | None] | None = None


class Caller:
    """Direct calls into the program; the untraced path."""

    enabled = False

    def __call__(self, layer: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: int) -> None:
        pass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    query: str | None
    phase: str
    error: bool = False


class Tracer(Caller):
    """Records a span around every call the benchmark makes into a layer.

    Spans and counts stay in memory; `unit()` starts a new accounting unit
    (one set-up or one query pass) so per-layer figures can be given per unit.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.query: str | None = None
        self.counts: dict[str, int] = {}
        self.units: list[tuple[str, int, dict[str, int]]] = []

    def unit(self, phase: str) -> None:
        self.phase = phase
        self.counts = {}
        self.units.append((phase, len(self.spans), self.counts))

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self.query, self.phase))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int, error: bool = False) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        self.stack.pop()

    def __call__(self, layer: str, fn, *args, **kwargs):
        idx = self.open(f"{layer}.{fn.__name__}")
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            self.close(idx, error=True)
            raise
        self.close(idx)
        return out

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def layer_totals(self, first: int, last: int) -> dict[str, float]:
        """calls / self seconds / errors per layer over spans[first:last]."""
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.spans[i].parent
            if p is not None and p >= first:
                child[p - first] += self.spans[i].end - self.spans[i].start
        out: dict[str, float] = {}
        for i in range(first, last):
            s = self.spans[i]
            layer = s.name.split(".", 1)[0]
            if layer not in LAYERS:
                continue
            dur = s.end - s.start - child[i - first]
            out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + dur
            out[f"{layer}.errors"] = out.get(f"{layer}.errors", 0) + int(s.error)
        return out

    def per_unit(self) -> list[tuple[str, dict[str, float]]]:
        bounds = [u[1] for u in self.units] + [len(self.spans)]
        out = []
        for k, (phase, first, counts) in enumerate(self.units):
            totals = self.layer_totals(first, bounds[k + 1])
            totals.update(counts)
            out.append((phase, totals))
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, query, phase)."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start - t0,
                    "end": s.end - t0, "parent": s.parent, "query": s.query,
                    "phase": s.phase, "error": s.error}) + "\n")


def reference_work(steps: int = 400) -> int:
    """A fixed piece of pure-Python work that belongs to the benchmark: tuple
    keys, dict look-ups and small arithmetic, as the program's searches do.
    Its time follows the machine's speed and nothing of the program."""
    memo: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(steps):
        key = (i % 37, i % 11)
        v = memo.get(key)
        if v is None:
            v = memo[key] = sum(divmod(i, 7))
        acc += v
    return acc


def reference_time() -> float:
    """The time of one reference_work, with the collector paused so that a
    collection of the program's garbage is never charged to it."""
    was_enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    reference_work()
    t = time.perf_counter() - t
    if was_enabled:
        gc.enable()
    return t


@dataclass
class PassResult:
    times: dict[str, float]
    ref: list[float]  # reference_time before each query and after the last
    failures: list[str] = field(default_factory=list)
    unscored: dict[str, Any] = field(default_factory=dict)
    notes: dict[str, list[str]] = field(default_factory=dict)  # note -> query ids

    def reference_scale(self) -> float:
        """The factor that brings a time taken next to this pass to the
        reference speed: REF_SECONDS over the pass's mean reference time."""
        return REF_SECONDS / statistics.mean(self.ref)

    def scaled(self) -> dict[str, float]:
        """Each query's time at the reference speed: times REF_SECONDS over
        the mean of the REF_WINDOW reference times on either side of it."""
        out = {}
        for i, (qid, t) in enumerate(self.times.items()):
            near = self.ref[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW]
            out[qid] = t * REF_SECONDS / statistics.mean(near)
        return out


def run_pass(queries: list[Query], caller: Caller) -> PassResult:
    """Run every query once, timing each between two reference_work runs;
    check verdicts after the pass."""
    times: dict[str, float] = {}
    ref = [reference_time()]
    verdicts: list[tuple[Query, Any, BaseException | None]] = []
    clock = time.perf_counter
    for q in queries:
        if caller.enabled:
            caller.query = q.qid
            idx = caller.open(f"query.{q.qid.split(':', 1)[0]}")
        t = clock()
        try:
            out, exc = q.run(caller), None
        except Exception as e:  # an unexpected failure is scored, not fatal
            out, exc = None, e
        times[q.qid] = clock() - t
        if caller.enabled:
            caller.close(idx, error=exc is not None)
            caller.query = None
        ref.append(reference_time())
        verdicts.append((q, out, exc))
    res = PassResult(times, ref)
    for q, out, exc in verdicts:
        if q.note and exc is None and (note := q.note(out)):
            res.notes.setdefault(note, []).append(q.qid)
        if not q.scored:
            res.unscored[q.qid] = repr(exc) if exc else out
            continue
        reason = f"raised {exc!r}" if exc else q.check(out)
        if reason:
            res.failures.append(f"{q.qid}: {reason}")
    return res


def query_times(passes: list[PassResult], scaled: bool = True) -> dict[str, float]:
    """Each query's median time over the passes, at the reference speed
    unless `scaled` is False."""
    per_pass = [p.scaled() if scaled else p.times for p in passes]
    return {qid: median([t[qid] for t in per_pass]) for qid in per_pass[0]}


def nearest_rank(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def median(values) -> float:
    return statistics.median(values)
