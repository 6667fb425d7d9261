"""Mechanical discharging on embedded graphs: face charging with exact quarters.

Initial charges are c(v) = 2d(v) - 6 and c(f) = len(f) - 6, summing to
-6(2 - 2g).  Nine rules move charge from vertices to short faces; every face
of length 3..5 triggers exactly one of R1..R8 and longer faces draw quarter
charges through R9.  All amounts are quarter-integers, so conservation is
checked as exact integer equality.  The vertex case analysis reads the faces
at a vertex's corners from the embedding's face index (`faces_at`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .configs import TORUS_KINDS, ConfigMatch, find_configs
from .embedding import EmbeddedGraph
from .errors import GenusTooLarge, RuleAmbiguity


@dataclass(frozen=True)
class Transfer:
    rule: str
    vertex: int
    face: int
    amount_q: int  # quarter units


def _census(g, face):
    boundary = face.boundary_vertices()
    degs = tuple(g.degree(v) for v in boundary)
    t3 = sum(1 for d in degs if d <= 3)
    return boundary, degs, t3


def _rule_predicates(census) -> list[str]:
    """Names of rules whose guard matches the face with this census; must be
    exactly one."""
    boundary, degs, t3 = census
    ell = len(boundary)
    out = []
    if ell < 3:
        out.append("none")  # a walk around a pendant edge; keeps its charge
    elif ell == 3:
        if t3 >= 1:
            out.append("R1")
        if t3 == 0 and any(d == 4 for d in degs):
            out.append("R2")
        if t3 == 0 and all(d >= 5 for d in degs):
            out.append("R3")
    elif ell == 4:
        if t3 >= 2:
            out.append("R4")
        if t3 == 1:
            out.append("R5")
        if t3 == 0:
            out.append("R6")
    elif ell == 5:
        pos3 = [i for i in range(5) if degs[i] <= 3]
        spread = len(pos3) == 2 and (pos3[1] - pos3[0]) % 5 in (2, 3)
        if spread:
            out.append("R7")
        else:
            out.append("R8")
    elif ell >= 6:
        out.append("R9")
    return out


def _transfers_for(census, face_idx: int, rule: str) -> list[Transfer]:
    boundary, degs, _ = census
    ell = len(boundary)
    out: list[Transfer] = []

    def give(i: int, q: int):
        out.append(Transfer(rule, boundary[i], face_idx, q))

    if rule == "none":
        return out
    if rule == "R1":
        for i in range(ell):
            if degs[i] >= 5:
                give(i, 6)
    elif rule == "R2":
        for i in range(ell):
            if degs[i] == 4:
                give(i, 2)
            elif degs[i] >= 5:
                give(i, 5)
    elif rule == "R3":
        for i in range(ell):
            give(i, 4)
    elif rule == "R4":
        for i in range(ell):
            if degs[i] >= 6:
                give(i, 4)
    elif rule == "R5":
        p = next(i for i in range(4) if degs[i] <= 3)
        give((p + 2) % 4, 2)
        give((p + 1) % 4, 3)
        give((p + 3) % 4, 3)
    elif rule == "R6":
        for i in range(ell):
            give(i, 2)
    elif rule == "R7":
        pos3 = [i for i in range(5) if degs[i] <= 3]
        a, b = pos3
        common = (a + 1) % 5 if (b - a) % 5 == 2 else (b + 1) % 5
        give(common, 2)
        for i in range(5):
            if i not in (a, b, common):
                give(i, 1)
    elif rule == "R8":
        for i in range(ell):
            if degs[i] >= 4:
                give(i, 1)
    elif rule == "R9":
        for i in range(ell):
            if degs[i] >= 4:
                give(i, 1)
    return out


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
        for v in range(self.emb.graph.n):
            moved = [t for t in self.transfers if t.vertex == v]
            det = " ".join(f"{t.rule}->f{t.face}:{Fraction(t.amount_q, 4)}" for t in moved)
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
    g = emb.graph
    v_q = tuple(4 * (2 * g.degree(v) - 6) for v in g.vertices())
    f_q = tuple(4 * (f.length - 6) for f in emb.faces)
    return ChargeLedger(emb, v_q, f_q, (), ())


def apply_rules(ledger: ChargeLedger) -> ChargeLedger:
    emb = ledger.emb
    g = emb.graph
    transfers: list[Transfer] = []
    rules: list[str] = []
    for i, face in enumerate(emb.faces):
        census = _census(g, face)
        matched = _rule_predicates(census)
        if len(matched) != 1:
            raise RuleAmbiguity(
                f"face {i} (len {face.length}) matched rules {matched}"
            )
        rules.append(matched[0])
        transfers.extend(_transfers_for(census, i, matched[0]))
    return ChargeLedger(emb, ledger.vertex_initial_q, ledger.face_initial_q,
                        tuple(transfers), tuple(rules))


def run_discharge(emb: EmbeddedGraph) -> ChargeLedger:
    return apply_rules(initial_charges(emb))


# ---------------------------------------------------------------------------
# final report with the case labels of the vertex analysis


def _three_face_runs(emb: EmbeddedGraph, v: int) -> tuple[int, int]:
    """(number of corner 3-faces around v, number of maximal cyclic runs)."""
    flags = [f.length == 3 for f in emb.faces_at(v)]
    count = sum(flags)
    if count == 0:
        return 0, 0
    if all(flags):
        return count, 1
    # flags[-1] closes the cycle: a run starting at corner 0 needs a gap before it
    runs = sum(1 for i in range(len(flags)) if flags[i] and not flags[i - 1])
    return count, runs


def vertex_case(emb: EmbeddedGraph, v: int) -> str:
    g = emb.graph
    d = g.degree(v)
    if d <= 2:
        return "low degree (reducible outright)"
    t3 = sum(1 for w in g.neighbors(v) if g.degree(w) == 3)
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
        if runs <= 2:
            return "Case 6b"
        if count == 5 and runs == 3:
            return "Case 6c"
        return f"degree 8 with {count} corner 3-faces in {runs} runs"
    return "Case 7"


@dataclass
class DischargeReport:
    ledger: ChargeLedger
    vertex_cases: tuple[str, ...]
    negative_vertices: tuple[int, ...]
    negative_faces: tuple[int, ...]
    four_regular: bool
    all_faces_len5: bool

    @property
    def all_nonnegative(self) -> bool:
        return not self.negative_vertices and not self.negative_faces

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
    degs = {g.degree(v) for v in g.vertices()}
    return DischargeReport(
        ledger, cases, neg_v, neg_f,
        four_regular=degs == {4},
        all_faces_len5=all(f.length == 5 for f in emb.faces),
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
        assert self.report is not None
        head = ("SOUNDNESS ALARM: no configuration and no discharging contradiction"
                if self.report.all_nonnegative and self.report.four_regular
                and self.report.all_faces_len5
                else "no configuration found; discharging contradiction witness below")
        return head + "\n" + self.report.render()


def unavoidability_driver(emb: EmbeddedGraph) -> DriverOutcome:
    """Find a reducible configuration, or expose the discharging contradiction.

    On genus <= 1 embeddings, the catalog is unavoidable, so falling through to
    the discharging branch signals a detector soundness problem.
    """
    if emb.genus > 1:
        raise GenusTooLarge(f"driver handles genus <= 1, got {emb.genus}")
    matches = find_configs(emb, TORUS_KINDS)
    if matches:
        return DriverOutcome(matches[0], None)
    report = final_report(run_discharge(emb))
    return DriverOutcome(None, report)
