import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from dyncolor import discharge
from dyncolor.cli import main
from dyncolor.configs import ConfigKind, find_configs
from dyncolor.discharge import (
    face_rule,
    final_report,
    initial_charges,
    run_discharge,
    unavoidability_driver,
    vertex_case,
)
from dyncolor.embedding import c3c3_torus, emit_rotation, find_embedding, k5_torus, k7_torus, petersen_torus
from dyncolor.errors import GenusTooLarge
from dyncolor.families import complete, cycle, random_connected_graph
from dyncolor.gadgets import wheel_gadget
from tori import SIX_STEPS, SQUARE_STEPS, embed_rotation, lattice_torus, random_embedding, split_triangles


def test_initial_charges_formulas():
    emb = c3c3_torus()
    led = initial_charges(emb)
    # every vertex has degree 4: charge 2; every face is a 4-face: charge -2
    assert all(q == 4 * 2 for q in led.vertex_initial_q)
    assert all(q == 4 * -2 for q in led.face_initial_q)
    assert led.total_initial() == 0
    k4 = find_embedding(complete(4))
    assert initial_charges(k4).total_initial() == -12


def test_vertex_and_face_charge_units():
    # a 3-vertex starts at 0, a 5-face at -1
    emb, _ = wheel_gadget([3, 4, 4, 4, 4], set())
    led = initial_charges(emb)
    three_vertex = next(v for v in emb.graph.vertices() if emb.graph.degree(v) == 3)
    assert Fraction(led.vertex_initial_q[three_vertex], 4) == 0
    c5 = find_embedding(cycle(5))
    led5 = initial_charges(c5)
    assert Fraction(led5.face_initial_q[0], 4) == -1


def test_grid_discharges_to_zero_everywhere():
    led = run_discharge(c3c3_torus())
    assert set(led.vertex_final_q()) == {0}
    assert set(led.face_final_q()) == {0}
    assert set(led.face_rules) == {"R6"}
    assert led.total_final() == 0


def test_expensive_triangle_rule_amounts():
    # degrees (3,5,5) around a 3-face: two transfers of 3/2, face ends at 0
    emb, w = wheel_gadget([3, 5, 5, 5, 5], {1})
    led = run_discharge(emb)
    tri = next(i for i, f in enumerate(emb.faces) if f.length == 3)
    assert led.face_rules[tri] == "R1"
    inflow = [t for t in led.transfers if t.face == tri]
    assert sorted(t.amount_q for t in inflow) == [6, 6]
    assert led.face_final_q()[tri] == 0


def test_conservation_on_random_embeddings():
    rng = random.Random(0)
    for _ in range(1000):
        g = random_connected_graph(rng.randrange(2, 9), 0.4, rng)
        emb = random_embedding(g, rng)
        led = run_discharge(emb)
        assert led.total_final() == led.total_initial()
        assert led.total_initial() == Fraction(-6 * (2 - 2 * emb.genus))


def test_rule_exclusivity_and_totality():
    rng = random.Random(1)
    for _ in range(1000):
        g = random_connected_graph(rng.randrange(2, 9), 0.5, rng)
        emb = random_embedding(g, rng)
        led = run_discharge(emb)
        assert len(led.face_rules) == len(emb.faces)
        for rule, face in zip(led.face_rules, emb.faces):
            if face.length < 3:
                assert rule == "none"
            elif face.length == 3:
                assert rule in ("R1", "R2", "R3")
            elif face.length == 4:
                assert rule in ("R4", "R5", "R6")
            elif face.length == 5:
                assert rule in ("R7", "R8")
            else:
                assert rule == "R9"


# quarters a boundary vertex of degree d gives under the rules that pay by degree
PAY_BY_DEGREE = {
    "R1": lambda d: 6 if d >= 5 else 0,  # 3/2 from each 5+ vertex
    "R2": lambda d: 2 if d == 4 else 5,  # 1/2 from 4-vertices, 5/4 from 5+ vertices
    "R3": lambda d: 4,                   # 1 from each vertex
    "R4": lambda d: 4 if d >= 6 else 0,  # 1 from each 6+ vertex
    "R6": lambda d: 2,                   # 1/2 from each vertex
    "R8": lambda d: 1 if d >= 4 else 0,  # 1/4 from each 4+ vertex
    "R9": lambda d: 1 if d >= 4 else 0,
}


def test_face_rule_exhaustive_over_degree_classes():
    # one degree per class (<= 3, 4, 5, >= 6), every length 0..7
    for ell in range(8):
        for degs in itertools.product((3, 4, 5, 6), repeat=ell):
            light = [i for i, d in enumerate(degs) if d <= 3]
            t = len(light)
            rule, gifts = face_rule(degs)
            if ell < 3:
                want = "none"
            elif ell == 3:
                want = "R1" if t else "R2" if 4 in degs else "R3"
            elif ell == 4:
                want = {0: "R6", 1: "R5"}.get(t, "R4")
            elif ell == 5:
                spread = t == 2 and (light[1] - light[0]) % 5 in (2, 3)
                want = "R7" if spread else "R8"
            else:
                want = "R9"
            assert rule == want, degs
            positions = [i for i, _ in gifts]
            assert len(set(positions)) == len(positions)
            assert all(0 <= i < ell and degs[i] >= 4 for i in positions), degs
            if rule == "none":
                assert gifts == ()
            elif rule == "R5":
                # the opposite vertex gives 1/2, then the light vertex's
                # neighbors 3/4 each
                p = light[0]
                assert gifts == (((p + 2) % 4, 2), ((p + 1) % 4, 3), ((p + 3) % 4, 3))
            elif rule == "R7":
                # the common neighbor of the light pair gives 1/2 first, the
                # other two 1/4 each
                common = next(i for i in range(5)
                              if {(i - 1) % 5, (i + 1) % 5} == set(light))
                assert gifts[0] == (common, 2)
                assert sorted(gifts[1:]) == [(i, 1) for i in range(5)
                                             if i not in (*light, common)]
            else:
                pay = PAY_BY_DEGREE[rule]
                assert gifts == tuple((i, pay(d)) for i, d in enumerate(degs) if pay(d))


def _discharge_digest(embs) -> str:
    h = hashlib.sha256()
    for emb in embs:
        led = run_discharge(emb)
        h.update(led.to_json().encode())
        h.update(final_report(led).render().encode())
    return h.hexdigest()[:16]


def test_discharge_output_pinned(toroidal_corpus):
    # the ledger JSON and rendered report, hashed when the rules were still
    # stated as guard and transfer switches keyed by name; the corpus digest
    # was taken again when the exact embedding search replaced a seeded local
    # search on 16 corpus graphs, with those rules' code unchanged
    split = split_triangles(lattice_torus(8, 8, SIX_STEPS), 64, random.Random(3))
    assert _discharge_digest(toroidal_corpus) == "b2f2c898f9977814"
    assert _discharge_digest([embed_rotation(lattice_torus(20, 20, SIX_STEPS))]) == "595f3163d1b9487e"
    assert _discharge_digest([embed_rotation(lattice_torus(30, 30, SQUARE_STEPS))]) == "bb39004b6f82b8ea"
    assert _discharge_digest([embed_rotation(split)]) == "374c8ae9134ad7e9"


def test_six_face_draws_quarters():
    emb, w = wheel_gadget([4, 4, 4, 4], set())
    led = run_discharge(emb)
    big = [i for i, f in enumerate(emb.faces) if f.length >= 6]
    assert big
    for i in big:
        inflow = [t for t in led.transfers if t.face == i]
        assert inflow and all(t.amount_q == 1 for t in inflow)
        assert led.face_final_q()[i] > 0


def test_three_vertex_neither_gives_nor_receives():
    emb, w = wheel_gadget([3, 4, 4, 5, 5], {4})
    led = run_discharge(emb)
    g = emb.graph
    for v in g.vertices():
        if g.degree(v) == 3:
            assert not [t for t in led.transfers if t.vertex == v]
            assert led.vertex_final_q()[v] == led.vertex_initial_q[v] == 0


def test_degree4_gives_at_most_half_each():
    # outside R5's 3-adjacent seats (which only exist next to a reducible
    # adjacent-3-and-4 configuration), a 4-vertex never gives more than 1/2
    rng = random.Random(2)
    for _ in range(200):
        g = random_connected_graph(rng.randrange(3, 9), 0.5, rng)
        emb = random_embedding(g, rng)
        led = run_discharge(emb)
        for t in led.transfers:
            if emb.graph.degree(t.vertex) == 4 and t.rule != "R5":
                assert t.amount_q <= 2


# -- the seven vertex-case gadgets -----------------------------------------------

GADGETS = {
    # name: (ring degrees, triangle corners, certified lower bound, strict)
    "3b-with-x": ([3, 5, 4, 4, 4], {1}, Fraction(1, 4), True),
    "3b-without-x": ([3, 4, 4, 5, 4], {3}, Fraction(1, 4), True),
    "4a": ([5, 5, 5, 5, 5, 5], {1, 2, 4, 5}, Fraction(1), True),
    "4b": ([3, 5, 5, 5, 5, 5], {1}, Fraction(7, 4), True),
    "5a": ([4, 5, 4, 4, 5, 4, 4], {1, 2, 4, 5}, Fraction(1, 2), True),
    "5b": ([3, 5, 4, 4, 5, 4, 4], {1, 2, 4, 5}, Fraction(0), False),
    "5c": ([3, 4, 5, 4, 3, 4, 3], {2, 3}, Fraction(1, 2), True),
    "6a": ([3, 5, 5, 3, 3, 5, 3, 5], {1, 3, 5, 7}, Fraction(1, 4), True),
    "6b": ([3, 5, 5, 3, 3, 5, 3, 4], {1, 2, 3, 5, 6}, Fraction(1, 4), True),
}

EXPECTED_CASE = {
    "3b-with-x": "Case 3b", "3b-without-x": "Case 3b", "4a": "Case 4a",
    "4b": "Case 4b", "5a": "Case 5a", "5b": "Case 5b", "5c": "Case 5c",
    "6a": "Case 6a", "6b": "Case 6b",
}


@pytest.mark.parametrize("name", sorted(GADGETS))
def test_case_gadget_inequalities(name):
    ring, corners, bound, strict = GADGETS[name]
    emb, w = wheel_gadget(ring, corners)
    assert vertex_case(emb, w) == EXPECTED_CASE[name]
    led = run_discharge(emb)
    final = led.vertex_final(w)
    assert final >= bound
    if strict:
        assert final > 0


def test_every_degree_8_corner_pattern_gets_a_case_label():
    # at most four corner 3-faces is Case 6a and at most two runs 6b; runs
    # never outnumber the gaps, so the rest are five corners in three runs,
    # Case 6c: three pairwise non-adjacent gaps on the 8-cycle, 16 ways
    cases = []
    for pattern in range(256):
        emb, w = wheel_gadget([5] * 8, {c for c in range(1, 9) if pattern >> (c - 1) & 1})
        cases.append(vertex_case(emb, w))
    assert {case: cases.count(case) for case in set(cases)} == {
        "Case 6a": 163, "Case 6b": 77, "Case 6c": 16}
    emb, w = wheel_gadget([5] * 8, {1, 2, 4, 6, 7})
    assert vertex_case(emb, w) == "Case 6c"


def test_driver_on_named_embeddings():
    assert unavoidability_driver(petersen_torus()).config.kind == ConfigKind.ADJACENT_3S
    assert unavoidability_driver(k5_torus()).config.kind == ConfigKind.LIGHT_TRIANGLE
    assert unavoidability_driver(k7_torus()).found
    grid_matches = unavoidability_driver(c3c3_torus())
    assert grid_matches.found


def test_driver_rejects_high_genus():
    # K7 with a random rotation generally lands well above the torus
    rng = random.Random(3)
    emb = random_embedding(complete(7), rng)
    if emb.genus > 1:
        with pytest.raises(GenusTooLarge):
            unavoidability_driver(emb)


@pytest.mark.parametrize("emb, case", [
    (c3c3_torus(), "every vertex and face ends at 0"),
    (find_embedding(complete(4)), "face 0, face 1, face 2, face 3 end negative"),
], ids=["c3c3-torus", "planar-k4"])
def test_every_driver_miss_is_a_soundness_alarm(emb, case, monkeypatch, tmp_path, capsys):
    # with the detectors stubbed out, neither embedding yields a configuration;
    # on genus <= 1 that contradicts the paper whichever way the charge ends
    monkeypatch.setattr(discharge, "find_configs", lambda emb, kinds: [])
    out = unavoidability_driver(emb)
    assert not out.found
    head, body = out.render().split("\n", 1)
    assert head == f"SOUNDNESS ALARM: no configuration found; {case}"
    assert body == final_report(run_discharge(emb)).render()
    path = tmp_path / "emb.rot"
    path.write_text(emit_rotation(emb))
    assert main(["unavoidable", str(path)]) == 1
    assert capsys.readouterr().out.split("\n", 1)[0] == head


def test_final_report_sign_classes():
    report = final_report(run_discharge(c3c3_torus()))
    assert not report.negative_vertices and not report.negative_faces
    assert report.four_regular and not report.all_faces_len5
    assert all(case == "Case 2" for case in report.vertex_cases)


def test_ledger_json_export():
    import json as _json

    led = run_discharge(c3c3_torus())
    data = _json.loads(led.to_json())
    assert data["total"] == "0"
    assert set(data["face_rules"]) == {"R6"}
    assert all(t["amount"] == "1/2" for t in data["transfers"])


def test_driver_found_on_corpus_sample(toroidal_corpus):
    rng = random.Random(5)
    for emb in rng.sample(toroidal_corpus.embeddings, 30):
        assert unavoidability_driver(emb).found


def test_driver_reports_the_first_match_of_all_kinds(toroidal_corpus):
    # the driver stops at the first kind with a match, in TORUS_KINDS order
    for emb in toroidal_corpus:
        assert unavoidability_driver(emb).config == find_configs(emb)[0]
