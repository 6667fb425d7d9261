"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (run with `pytest -s tests/test_acceptance.py` to see them
as they complete)."""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from dyncolor.bounds import (
    bound_profile,
    color_by_contraction,
    heawood_number,
    kp_pipeline,
    mad,
    replay_contraction,
)
from dyncolor.cli import main
from dyncolor.coloring import (
    chi_r_exact,
    is_L_colorable_r_dynamic,
    verify_r_dynamic,
)
from dyncolor.configs import (
    TORUS_KINDS,
    ConfigKind,
    build_reduction,
    check_budget,
    check_extendable,
    find_configs,
    reduction_without_added_edges,
    reduction_without_rules,
)
from dyncolor.discharge import run_discharge, vertex_case
from dyncolor.embedding import find_embedding
from dyncolor.families import (
    all_connected_graphs,
    complete,
    complete_bipartite,
    cycle,
    grid_torus,
    path,
    prism,
    random_tree,
    stacked_triangulation,
    subdivided_k4,
    subdivision,
)
from dyncolor.gadgets import catalog_instances, notsubgraph_instance, wheel_gadget
from dyncolor.graph import Graph, emit_graph6
from dyncolor.paintgame import certify_painter, solve_xp_r, xp_r_number

from tori import SIX_STEPS, SQUARE_STEPS, embed_rotation, lattice_torus, split_triangles


class Clock:
    def __init__(self, limit: float, label: str):
        self.limit = limit
        self.label = label
        self.start = time.monotonic()

    def done(self, extra: float = 0.0) -> float:
        elapsed = time.monotonic() - self.start + extra
        assert elapsed < self.limit, (
            f"{self.label}: {elapsed:.1f}s over the {self.limit:.0f}s budget"
        )
        return elapsed


def report(n: int, ok: bool, detail: str, seconds: float) -> None:
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {detail} ({seconds:.1f}s)")
    assert ok, detail


def test_criterion_01_chi3_petersen(tmp_path, capsys):
    clock = Clock(120, "criterion 1")
    gfile = tmp_path / "petersen.g6"
    gfile.write_text(emit_graph6(__import__("dyncolor.families", fromlist=["petersen"]).petersen()))
    code = main(["chi-r", "--r", "3", str(gfile)])
    out = capsys.readouterr().out.strip()
    elapsed = clock.done()
    with capsys.disabled():
        report(1, code == 0 and out == "10",
               f"chi_3(Petersen) = {out} via the CLI, exact", elapsed)


def test_criterion_02_chi3_subdivided_k4(capsys):
    clock = Clock(10, "criterion 2")
    value = chi_r_exact(subdivided_k4(), 3).value
    elapsed = clock.done()
    with capsys.disabled():
        report(2, value == 7, f"chi_3(subdivided K4) = {value}, exact", elapsed)


def test_criterion_03_ch2_c5_refuter(capsys):
    clock = Clock(5, "criterion 3")
    witness = is_L_colorable_r_dynamic(cycle(5), {v: {1, 2, 3, 4} for v in range(5)}, 2)
    chromatic = chi_r_exact(cycle(5), 2).value
    lower = 5 if witness is None else 0
    elapsed = clock.done()
    with capsys.disabled():
        report(3, witness is None and max(lower, chromatic) >= 5,
               "identical 4-lists refute C5 at r=2, so ch_2(C5) >= 5 "
               f"(chromatic side {chromatic})", elapsed)


def test_criterion_04_game_solver(capsys):
    results = []
    total = 0.0
    for g, r, expect in ((cycle(4), 1, 2), (cycle(5), 1, 3), (complete(3), 2, 3)):
        clock = Clock(60, "criterion 4 instance")
        res = xp_r_number(g, r)
        verdict = solve_xp_r(g, r, res.value)
        cert = certify_painter(g, r, res.value, verdict.strategy())
        elapsed = clock.done()
        total += elapsed
        results.append(res.value == expect and cert.ok)
    # the torus case is covered by the sandwich interval, not a full solve
    clock = Clock(120, "criterion 4 sandwich")
    pet = __import__("dyncolor.families", fromlist=["petersen"]).petersen()
    sandwich = xp_r_number(pet, 3, genus=1)
    total += clock.done()
    ok = all(results) and sandwich.exact and sandwich.value == 10
    with capsys.disabled():
        report(4, ok,
               "xp_1(C4)=2, xp_1(C5)=3, xp_2(K3)=3 by minimax with surviving "
               "strategies; xp_3(Petersen) closed as the interval [10,10] via "
               "the toroidal bound substitution", total)


def test_criterion_05_unavoidability(toroidal_corpus, capsys):
    clock = Clock(600, "criterion 5")
    matched = 0
    for emb in toroidal_corpus:
        assert emb.genus <= 1
        if find_configs(emb, TORUS_KINDS):
            matched += 1
    elapsed = clock.done(extra=toroidal_corpus.build_seconds)
    size = len(toroidal_corpus)
    with capsys.disabled():
        report(5, size >= 200 and matched == size,
               f"every one of {size} toroidal embeddings contains a "
               "configuration from the ten-kind catalog", elapsed)


def test_criterion_06_discharging_exactness(toroidal_corpus, capsys):
    clock = Clock(600, "criterion 6")
    ok = True
    for emb in toroidal_corpus:
        led = run_discharge(emb)
        if led.total_final() != led.total_initial():
            ok = False
        if led.total_initial() != Fraction(-6 * (2 - 2 * emb.genus)):
            ok = False
    elapsed = clock.done()
    with capsys.disabled():
        report(6, ok,
               f"charge conservation and the Euler total -6(2-2g) hold exactly "
               f"on all {len(toroidal_corpus)} embeddings", elapsed)


def test_criteria_05_06_on_every_7_vertex_graph(capsys):
    nx = pytest.importorskip("networkx")
    clock = Clock(60, "criteria 5 and 6 on every 7-vertex graph")
    genera = Counter()
    ok = True
    for g in all_connected_graphs(7):
        emb = find_embedding(g, max_genus=None)
        # K7 is toroidal and deleting an edge never raises the genus
        planar, _ = nx.check_planarity(nx.Graph(g.edges()))
        ok &= emb.genus == (0 if planar else 1)
        ok &= bool(find_configs(emb, TORUS_KINDS))
        led = run_discharge(emb)
        ok &= led.total_initial() == led.total_final() == -6 * (2 - 2 * emb.genus)
        genera[emb.genus] += 1
    elapsed = clock.done()
    with capsys.disabled():
        # 646 planar connected graphs on 7 vertices: OEIS A003094
        report(5, ok and genera == {0: 646, 1: 207},
               f"all {genera.total()} connected 7-vertex graphs at exact genus "
               f"({genera[0]} planar, {genera[1]} toroidal): each contains a catalog "
               "configuration and keeps the Euler total -6(2-2g) exactly", elapsed)


def test_criteria_05_06_at_toroidal_scale(capsys):
    clock = Clock(15, "criteria 5 and 6 at scale")
    split = split_triangles(lattice_torus(20, 20, SIX_STEPS), 800, random.Random(5))
    cases = {
        "triangulation": (embed_rotation(lattice_torus(40, 40, SIX_STEPS)),
                          ConfigKind.THREE_TRIANGLE_FAN),
        "quadrangulation": (embed_rotation(lattice_torus(40, 40, SQUARE_STEPS)),
                            ConfigKind.ALL4S_QUAD_FACE),
        "face-split": (embed_rotation(split), None),
    }
    ok = True
    for emb, kind in cases.values():
        matches = find_configs(emb, TORUS_KINDS)
        ok &= emb.genus == 1 and bool(matches)
        if kind is ConfigKind.THREE_TRIANGLE_FAN:
            fans = Counter(m.role("v") for m in matches if m.kind is kind)
            ok &= len(fans) == emb.graph.n and set(fans.values()) == {6}
        if kind is ConfigKind.ALL4S_QUAD_FACE:
            quads = Counter(frozenset(m.role("face")) for m in matches if m.kind is kind)
            ok &= quads == Counter(f.vertex_set() for f in emb.faces)
        led = run_discharge(emb)
        ok &= led.total_initial() == led.total_final() == -6 * (2 - 2 * emb.genus)
    elapsed = clock.done()
    sizes = ", ".join(f"{name} n={emb.graph.n}" for name, (emb, _) in cases.items())
    with capsys.disabled():
        report(5, ok, f"at scale ({sizes}): genus 1, six fans at every "
               "triangulation vertex, one all-4s match per square, a match "
               "after face splitting, and the Euler total exact before and "
               "after discharging", elapsed)


CASE_GADGETS = {
    "3b-with-x": ([3, 5, 4, 4, 4], {1}, Fraction(1, 4), "Case 3b"),
    "3b-without-x": ([3, 4, 4, 5, 4], {3}, Fraction(1, 4), "Case 3b"),
    "4a": ([5, 5, 5, 5, 5, 5], {1, 2, 4, 5}, Fraction(1), "Case 4a"),
    "4b": ([3, 5, 5, 5, 5, 5], {1}, Fraction(7, 4), "Case 4b"),
    "5a": ([4, 5, 4, 4, 5, 4, 4], {1, 2, 4, 5}, Fraction(1, 2), "Case 5a"),
    "5b": ([3, 5, 4, 4, 5, 4, 4], {1, 2, 4, 5}, Fraction(0), "Case 5b"),
    "5c": ([3, 4, 5, 4, 3, 4, 3], {2, 3}, Fraction(1, 2), "Case 5c"),
    "6a": ([3, 5, 5, 3, 3, 5, 3, 5], {1, 3, 5, 7}, Fraction(1, 4), "Case 6a"),
    "6b": ([3, 5, 5, 3, 3, 5, 3, 4], {1, 2, 3, 5, 6}, Fraction(1, 4), "Case 6b"),
}


def test_criterion_07_case_gadgets(capsys):
    clock = Clock(120, "criterion 7")
    ok = True
    details = []
    for name, (ring, corners, bound, case) in sorted(CASE_GADGETS.items()):
        emb, w = wheel_gadget(ring, corners)
        if vertex_case(emb, w) != case:
            ok = False
        final = run_discharge(emb).vertex_final(w)
        details.append(f"{name}:{final}>={bound}")
        if final < bound or (bound > 0 and final <= 0):
            ok = False
    elapsed = clock.done()
    with capsys.disabled():
        report(7, ok, "constructed vertex-case gadgets meet the exact charge "
               "inequalities: " + " ".join(details), elapsed)


def test_criterion_08_extendability(capsys):
    clock = Clock(300, "criterion 8")
    ok = True
    names = []
    for kind, (emb, match) in catalog_instances().items():
        red = build_reduction(emb, match)
        rep = check_extendable(emb.graph, red, 3, k=10)
        names.append(kind.value)
        if not rep.extendable:
            ok = False
    g, match = notsubgraph_instance()
    emb = find_embedding(g)
    red = build_reduction(emb, match)
    stripped = reduction_without_added_edges(g, red)
    if check_extendable(g, stripped, 2, k=10).extendable:
        ok = False
    if not check_extendable(g, red, 2, k=10).extendable:
        ok = False
    elapsed = clock.done()
    with capsys.disabled():
        report(8, ok,
               f"all ten catalog instances are fully extendable at r=3, k=10; "
               "the edge-stripped five-cycle control fails", elapsed)


def test_criterion_09_rejection_budgets(capsys):
    clock = Clock(600, "criterion 9")
    inst = catalog_instances()
    ok = True
    notes = []
    ablations = {
        ConfigKind.DEG_LE_2: ("few_colors",),
        ConfigKind.ADJACENT_3S: ("colored_any",),
        ConfigKind.FOUR_WITH_3_NBR: ("colored_any",),
    }
    for kind, drop in ablations.items():
        emb, match = inst[kind]
        red = build_reduction(emb, match)
        rep = check_budget(emb, red, 3, 10)
        worst = max(rep.certification.max_rejections.values())
        notes.append(f"{kind.value}: max rejections {worst}")
        if not rep.ok or worst > 9:
            ok = False
        ablated = reduction_without_rules(emb.graph, red, kinds=drop)
        rep2 = check_budget(emb, ablated, 3, 10, tokens=rep.tokens)
        if rep2.ok:
            ok = False
    elapsed = clock.done()
    with capsys.disabled():
        report(9, ok, "; ".join(notes) + "; all ablation controls fail", elapsed)


def test_criterion_09_all_4s_quad_face_budget(capsys):
    # in reach only because the adversary keys positions without the tokens
    # of S: with them this check ran for over 150 s
    clock = Clock(30, "criterion 9, all-4s-quad-face")
    emb, match = catalog_instances()[ConfigKind.ALL4S_QUAD_FACE]
    red = build_reduction(emb, match)
    rep = check_budget(emb, red, 3, 10)  # with suggested_tokens
    maxima = rep.certification.max_rejections
    elapsed = clock.done()
    with capsys.disabled():
        report(9, rep.ok and maxima == {0: 5, 1: 6, 6: 7, 7: 6}
               and rep.certification.states == 4_238,
               f"all-4s-quad-face: {rep.render()}", elapsed)


@pytest.mark.slow
def test_criterion_09_expensive_4_budget(capsys):
    # opt-in (pytest -m slow): 40 to 60 s on 2 CPUs, too slow for Tier-1
    clock = Clock(100, "criterion 9, expensive-4-meets-3-face")
    emb, match = catalog_instances()[ConfigKind.EXP4_MEETS_3FACE]
    red = build_reduction(emb, match)
    rep = check_budget(emb, red, 3, 10)  # with suggested_tokens
    elapsed = clock.done()
    with capsys.disabled():
        report(9, rep.ok and rep.certification.max_rejections == {v: 5 for v in red.s_order}
               and rep.certification.states == 141_073,
               f"expensive-4-meets-3-face: {rep.render()}", elapsed)


def test_criterion_10_constructive_bound(capsys):
    clock = Clock(120, "criterion 10")
    ok = True
    worst_colors = worst_forbidden = 0
    for i in range(100):
        rng = random.Random(1000 + i)
        n = rng.randrange(5, 51)
        if i % 3 == 0:
            g = stacked_triangulation(max(n, 4), rng)
        elif i % 3 == 1:
            g = random_tree(n, rng)
        else:
            full = stacked_triangulation(max(n, 4), rng)
            g = Graph(full.n, [e for e in full.edges() if rng.random() > 0.3])
        res = color_by_contraction(g, 11, 0)
        if not verify_r_dynamic(g, res.coloring, 11).ok:
            ok = False
        worst_colors = max(worst_colors, max(res.coloring.values(), default=0))
        worst_forbidden = max(worst_forbidden, res.max_forbidden)
    if worst_colors > 63 or worst_forbidden > 62:
        ok = False
    elapsed = clock.done()
    with capsys.disabled():
        report(10, ok,
               f"100 planar graphs (n <= 50, r=11): palette max {worst_colors} "
               f"<= 63, forbidden sets max {worst_forbidden} <= 62, all verified",
               elapsed)


def test_criterion_10_contraction_at_scale(capsys):
    # one heap-driven peel and undo records keep the peel and its reverse
    # pass near-linear; with a full scan and an adjacency copy per step
    # this graph took about 20 s
    clock = Clock(5, "criterion 10 at scale")
    g = stacked_triangulation(2000, random.Random(2000))
    res = color_by_contraction(g, 11, 0)
    replayed = replay_contraction(g, res.trace)
    elapsed = clock.done()
    ok = (verify_r_dynamic(g, res.coloring, 11).ok and res.colors_used <= 63
          and replayed.coloring == res.coloring
          and replayed.max_forbidden == res.max_forbidden)
    with capsys.disabled():
        report(10, ok, f"2000-vertex stacked triangulation (r=11): "
               f"{len(res.trace.steps)} steps, {res.colors_used} colors, replayed", elapsed)


def test_criterion_11_formula_tables(capsys):
    clock = Clock(60, "criterion 11")
    ok = heawood_number(1) == 7
    for genus in range(6):
        for r in range(1, 31):
            prof = bound_profile(genus, r)
            if genus <= 2:
                omega = 2 * genus + 13
                ell = (r + 1) * (genus + 5) + 3
            else:
                omega = 4 * genus + 7
                ell = (r + 1) * (2 * genus + 2) + 3
            h = int((7 + (1 + 48 * genus) ** 0.5) // 2)
            if (prof.omega, prof.ell, prof.heawood) != (omega, ell, h):
                ok = False
    elapsed = clock.done()
    with capsys.disabled():
        report(11, ok, "omega/ell/heawood tables match the independent "
               "derivation for genus <= 5, r <= 30; h(1) = 7", elapsed)


def test_criterion_12_kp_chain_at_scale(capsys):
    # the peel runs the matcher on its live adjacency, not on a Graph rebuilt
    # at every step; the clock leaves wide room for a slow machine
    clock = Clock(2, "criterion 12 at scale")
    cert = kp_pipeline(random_tree(1000, random.Random(1000)), girth7_planar=True)
    elapsed = clock.done()
    ok = cert.certified and len(cert.steps) == 999
    # the roots come from lazy heaps, not a sort and scan per step: this tree
    # peels in about 0.3 s, and took 1.7 s with the scans
    clock = Clock(1.5, "criterion 12 at scale, 8000 vertices")
    big = kp_pipeline(random_tree(8000, random.Random(8000)), girth7_planar=True)
    elapsed += clock.done()
    ok = ok and big.certified and len(big.steps) == 7999
    with capsys.disabled():
        report(12, ok, f"1000- and 8000-vertex trees under the girth-7 assertion: "
               f"{len(cert.steps)} and {len(big.steps)} steps, certified "
               f"{cert.certified and big.certified}", elapsed)


def test_criterion_12_mad_at_scale(capsys):
    # mad is exact by min cuts at any size; each graph takes well under 1 s
    clock = Clock(5, "criterion 12, mad at scale")
    tree = kp_pipeline(random_tree(2000, random.Random(2000)))
    grid = subdivision(subdivision(grid_torus(40, 20)))  # 5,600 vertices
    checked = kp_pipeline(grid).render().splitlines()
    asserted = kp_pipeline(grid, girth7_planar=True).render().splitlines()
    elapsed = clock.done()
    ok = (tree.certified and tree.hypothesis == "mad 1999/1000 < 8/3"
          and checked[1] == "hypothesis mad 16/7 < 8/3"
          and checked[:1] + checked[2:] == asserted[:1] + asserted[2:])
    with capsys.disabled():
        report(12, ok, "2000-vertex tree certified under mad 1999/1000; the "
               "5600-vertex double subdivision of C40 x C20 has mad 16/7 and "
               "the chain of the girth-7 assertion", elapsed)


def test_criterion_12_mad_and_kp(capsys):
    clock = Clock(300, "criterion 12")
    ok = (mad(cycle(5)) == 2 and mad(complete(4)) == 3
          and mad(path(4)) == Fraction(3, 2))
    certified = 0
    instances = [random_tree(4 + i % 16, random.Random(40 + i)) for i in range(17)]
    instances += [subdivision(complete(4)), subdivision(complete_bipartite(3, 3)),
                  subdivision(prism())]
    for g in instances:
        cert = kp_pipeline(g)
        if cert.certified:
            certified += 1
    rejected = False
    try:
        kp_pipeline(cycle(5))
    except Exception:
        rejected = True
    ok = ok and certified == len(instances) and rejected
    elapsed = clock.done()
    with capsys.disabled():
        report(12, ok,
               f"mad values exact; {certified}/20 tree and subdivided-cubic "
               "certificates; the five-cycle is rejected", elapsed)
