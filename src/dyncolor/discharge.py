"""Mechanical discharging on embedded graphs: face charging with exact quarters.

Initial charges are c(v) = 2d(v) - 6 and c(f) = len(f) - 6, summing to
-6(2 - 2g).  Nine rules move charge from vertices to faces; `face_rule`
states them all as one function of a face's boundary degrees, and exactly one
applies to each face.  All amounts are quarter-integers, so conservation is
checked as exact integer equality.  Degrees are read once per call as a
list, and the vertex case analysis reads the lengths of the faces at a
vertex's corners from the embedding's `corner_lengths` table.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .configs import TORUS_KINDS, ConfigMatch, find_configs
from .embedding import EmbeddedGraph
from .errors import GenusTooLarge


class Transfer(NamedTuple):
    """One gift of charge; a named tuple, since a ledger holds one per gift."""

    rule: str
    vertex: int
    face: int
    amount_q: int  # quarter units


def face_rule(degs: Sequence[int]) -> tuple[str, tuple[tuple[int, int], ...]]:
    """The rule that charges a face whose boundary walk has these vertex
    degrees, and its gifts as (boundary position, quarters) pairs.

    A vertex is light when its degree is at most 3; light vertices never give.
    The guards split faces by length and by the number t of light vertices, so
    exactly one rule applies to every face:
      length < 3: none (a walk around a pendant edge keeps its charge);
      length 3: R1 if t >= 1 (each 5+ vertex gives 3/2); else R2 if some vertex
        has degree 4 (4-vertices give 1/2, 5+ vertices 5/4); else R3 (each gives 1);
      length 4: R4 if t >= 2 (each 6+ vertex gives 1); R5 if t = 1 (the vertex
        opposite the light one gives 1/2, then its two neighbors 3/4 each);
        R6 if t = 0 (each gives 1/2);
      length 5: R7 if t = 2 with the light vertices two apart (their common
        neighbor gives 1/2 first, the other two 1/4 each); else R8 (each 4+
        vertex gives 1/4);
      length >= 6: R9 (each 4+ vertex gives 1/4).
    """
    ell = len(degs)
    light = [i for i, d in enumerate(degs) if d <= 3]
    if ell < 3:
        return "none", ()
    if ell == 3:
        if light:
            return "R1", tuple((i, 6) for i, d in enumerate(degs) if d >= 5)
        if 4 in degs:
            return "R2", tuple((i, 2 if d == 4 else 5) for i, d in enumerate(degs))
        return "R3", ((0, 4), (1, 4), (2, 4))
    if ell == 4:
        if len(light) >= 2:
            return "R4", tuple((i, 4) for i, d in enumerate(degs) if d >= 6)
        if light:
            p = light[0]
            return "R5", (((p + 2) % 4, 2), ((p + 1) % 4, 3), ((p + 3) % 4, 3))
        return "R6", ((0, 2), (1, 2), (2, 2), (3, 2))
    if ell == 5 and len(light) == 2 and light[1] - light[0] in (2, 3):
        a, b = light
        common = (a + 1) % 5 if b - a == 2 else (b + 1) % 5
        return "R7", ((common, 2),) + tuple(
            (i, 1) for i in range(5) if i not in (a, b, common))
    rule = "R8" if ell == 5 else "R9"
    return rule, tuple((i, 1) for i, d in enumerate(degs) if d >= 4)


@dataclass
class ChargeLedger:
    emb: EmbeddedGraph
    vertex_initial_q: tuple[int, ...]
    face_initial_q: tuple[int, ...]
    transfers: tuple[Transfer, ...]
    face_rules: tuple[str, ...]

    def vertex_final_q(self) -> list[int]:
        out = list(self.vertex_initial_q)
        for t in self.transfers:
            out[t.vertex] -= t.amount_q
        return out

    def face_final_q(self) -> list[int]:
        out = list(self.face_initial_q)
        for t in self.transfers:
            out[t.face] += t.amount_q
        return out

    def total_initial(self) -> Fraction:
        return Fraction(sum(self.vertex_initial_q) + sum(self.face_initial_q), 4)

    def total_final(self) -> Fraction:
        return Fraction(sum(self.vertex_final_q()) + sum(self.face_final_q()), 4)

    def vertex_final(self, v: int) -> Fraction:
        return Fraction(self.vertex_final_q()[v], 4)

    def to_json(self) -> str:
        return json.dumps({
            "vertex_initial": [str(Fraction(q, 4)) for q in self.vertex_initial_q],
            "face_initial": [str(Fraction(q, 4)) for q in self.face_initial_q],
            "vertex_final": [str(Fraction(q, 4)) for q in self.vertex_final_q()],
            "face_final": [str(Fraction(q, 4)) for q in self.face_final_q()],
            "face_rules": list(self.face_rules),
            "transfers": [
                {"rule": t.rule, "vertex": t.vertex, "face": t.face,
                 "amount": str(Fraction(t.amount_q, 4))}
                for t in self.transfers
            ],
            "total": str(self.total_final()),
        }, indent=2)

    def render(self) -> str:
        lines = ["element        initial     final   detail"]
        vf = self.vertex_final_q()
        moved: list[list[str]] = [[] for _ in range(self.emb.graph.n)]
        for t in self.transfers:
            moved[t.vertex].append(f"{t.rule}->f{t.face}:{Fraction(t.amount_q, 4)}")
        for v in range(self.emb.graph.n):
            det = " ".join(moved[v])
            lines.append(f"vertex {v:<6} {Fraction(self.vertex_initial_q[v], 4)!s:>8} "
                         f"{Fraction(vf[v], 4)!s:>9}   {det}")
        ff = self.face_final_q()
        for i, face in enumerate(self.emb.faces):
            rule = self.face_rules[i] if self.face_rules else "-"
            lines.append(
                f"face {i:<8} {Fraction(self.face_initial_q[i], 4)!s:>8} "
                f"{Fraction(ff[i], 4)!s:>9}   len {face.length} {rule}"
            )
        lines.append(f"total initial {self.total_initial()}  total final {self.total_final()}")
        return "\n".join(lines)


def initial_charges(emb: EmbeddedGraph) -> ChargeLedger:
    v_q = tuple(4 * (2 * len(a) - 6) for a in emb.graph.adj)
    f_q = tuple(4 * (len(f.darts) - 6) for f in emb.faces)
    return ChargeLedger(emb, v_q, f_q, (), ())


def run_discharge(emb: EmbeddedGraph) -> ChargeLedger:
    degree = [len(a) for a in emb.graph.adj]
    start = initial_charges(emb)
    transfers: list[Transfer] = []
    rules: list[str] = []
    for i, face in enumerate(emb.faces):
        boundary = [u for u, _ in face.darts]
        rule, gifts = face_rule([degree[v] for v in boundary])
        rules.append(rule)
        transfers.extend(Transfer(rule, boundary[p], i, q) for p, q in gifts)
    return ChargeLedger(emb, start.vertex_initial_q, start.face_initial_q,
                        tuple(transfers), tuple(rules))


# ---------------------------------------------------------------------------
# final report with the case labels of the vertex analysis


def _three_face_runs(emb: EmbeddedGraph, v: int) -> tuple[int, int]:
    """(number of corner 3-faces around v, number of maximal cyclic runs)."""
    flags = [ell == 3 for ell in emb.corner_lengths[v]]
    count = sum(flags)
    if count == 0:
        return 0, 0
    if all(flags):
        return count, 1
    # flags[-1] closes the cycle: a run starting at corner 0 needs a gap before it
    runs = sum(1 for i in range(len(flags)) if flags[i] and not flags[i - 1])
    return count, runs


def vertex_case(emb: EmbeddedGraph, v: int) -> str:
    adj = emb.graph.adj
    d = len(adj[v])
    if d <= 2:
        return "low degree (reducible outright)"
    t3 = sum(1 for w in adj[v] if len(adj[w]) == 3)
    if d == 3:
        return "Case 1"
    if d == 4:
        return "Case 2"
    if d == 5:
        return {0: "Case 3a", 1: "Case 3b", 5: "Case 3c"}.get(
            t3, f"degree 5 with {t3} 3-neighbors (configuration present)")
    if d == 6:
        return {0: "Case 4a", 1: "Case 4b", 4: "Case 4c", 5: "Case 4d",
                6: "Case 4e"}.get(
            t3, f"degree 6 with {t3} 3-neighbors (configuration present)")
    if d == 7:
        return {0: "Case 5a", 1: "Case 5b", 3: "Case 5c", 4: "Case 5d",
                5: "Case 5e", 6: "Case 5f", 7: "Case 5g"}.get(
            t3, f"degree 7 with {t3} 3-neighbors (configuration present)")
    if d == 8:
        count, runs = _three_face_runs(emb, v)
        if count <= 4:
            return "Case 6a"
        # runs never outnumber the 8 - count gaps between them, so three
        # runs here are five corners in three runs
        return "Case 6b" if runs <= 2 else "Case 6c"
    return "Case 7"


@dataclass
class DischargeReport:
    ledger: ChargeLedger
    vertex_cases: tuple[str, ...]
    negative_vertices: tuple[int, ...]
    negative_faces: tuple[int, ...]
    four_regular: bool
    all_faces_len5: bool

    def render(self) -> str:
        lines = [self.ledger.render(), ""]
        vf = self.ledger.vertex_final_q()
        for v in range(self.ledger.emb.graph.n):
            sign = "negative" if vf[v] < 0 else ("zero" if vf[v] == 0 else "positive")
            lines.append(f"vertex {v}: final {Fraction(vf[v], 4)} ({sign}; {self.vertex_cases[v]})")
        ff = self.ledger.face_final_q()
        for i in range(len(self.ledger.emb.faces)):
            sign = "negative" if ff[i] < 0 else ("zero" if ff[i] == 0 else "positive")
            lines.append(f"face {i}: final {Fraction(ff[i], 4)} ({sign})")
        lines.append(f"endgame: 4-regular={self.four_regular} all-5-faces={self.all_faces_len5}")
        return "\n".join(lines)


def final_report(ledger: ChargeLedger) -> DischargeReport:
    emb = ledger.emb
    g = emb.graph
    vf = ledger.vertex_final_q()
    ff = ledger.face_final_q()
    cases = tuple(vertex_case(emb, v) for v in g.vertices())
    neg_v = tuple(v for v in g.vertices() if vf[v] < 0)
    neg_f = tuple(i for i in range(len(emb.faces)) if ff[i] < 0)
    degs = {len(a) for a in g.adj}
    return DischargeReport(
        ledger, cases, neg_v, neg_f,
        four_regular=degs == {4},
        all_faces_len5=all(len(f.darts) == 5 for f in emb.faces),
    )


# ---------------------------------------------------------------------------
# unavoidability driver


@dataclass
class DriverOutcome:
    config: ConfigMatch | None
    report: DischargeReport | None

    @property
    def found(self) -> bool:
        return self.config is not None

    def render(self) -> str:
        if self.config is not None:
            return f"configuration found: {self.config.render()}"
        report = self.report
        negative = ([f"vertex {v}" for v in report.negative_vertices]
                    + [f"face {i}" for i in report.negative_faces])
        # the total charge is at most 0 on genus <= 1: none negative, all 0
        case = (f"{', '.join(negative)} end negative" if negative
                else "every vertex and face ends at 0")
        return f"SOUNDNESS ALARM: no configuration found; {case}\n" + report.render()


def unavoidability_driver(emb: EmbeddedGraph) -> DriverOutcome:
    """Find a reducible configuration, or raise the alarm with the discharging
    report: on genus <= 1 the catalog is unavoidable, so a miss means either
    some element ends negative (the rules as transcribed fail) or every
    element ends at 0 (the endgame the paper excludes).
    """
    if emb.genus > 1:
        raise GenusTooLarge(f"driver handles genus <= 1, got {emb.genus}")
    for kind in TORUS_KINDS:  # the first match of the first kind found
        matches = find_configs(emb, (kind,))
        if matches:
            return DriverOutcome(matches[0], None)
    report = final_report(run_discharge(emb))
    return DriverOutcome(None, report)
