import io
import json

import pytest

from dyncolor.bounds import (ContractionTrace, bound_profile, color_by_contraction,
                             kp_pipeline, replay_contraction)
from dyncolor.cli import main
from dyncolor.coloring import emit_coloring, parse_coloring, parse_lists
from dyncolor.embedding import c3c3_torus, emit_rotation, parse_rotation
from dyncolor.families import (complete, cycle, path, petersen, random_tree,
                               stacked_triangulation, subdivision)
from dyncolor.graph import emit_graph6, parse_graph

import random


@pytest.fixture()
def petersen_file(tmp_path):
    p = tmp_path / "petersen.g6"
    p.write_text(emit_graph6(petersen()) + "\n")
    return str(p)


@pytest.fixture()
def grid_rot(tmp_path):
    p = tmp_path / "grid.rot"
    p.write_text(emit_rotation(c3c3_torus()))
    return str(p)


def test_chi_r_petersen(petersen_file, capsys):
    assert main(["chi-r", "--r", "3", petersen_file]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_verify_exit_codes(tmp_path, petersen_file, capsys):
    good = tmp_path / "good.col"
    good.write_text(emit_coloring({v: v + 1 for v in range(10)}))
    assert main(["verify", "--r", "3", "--coloring", str(good), petersen_file]) == 0
    bad = tmp_path / "bad.col"
    bad.write_text(emit_coloring({v: 1 + (v % 2) for v in range(10)}))
    assert main(["verify", "--r", "3", "--coloring", str(bad), petersen_file]) == 1


def test_paint_game_and_sandwich(tmp_path, capsys):
    c5 = tmp_path / "c5.g6"
    c5.write_text(emit_graph6(cycle(5)))
    assert main(["paint", "--r", "1", str(c5)]) == 0
    assert capsys.readouterr().out.startswith("3")
    assert main(["paint", "--r", "1", "--tokens", "2", str(c5)]) == 1
    assert main(["paint", "--r", "1", "--tokens", "3", str(c5)]) == 0


def test_paint_interval_for_large_graph(petersen_file, capsys):
    code = main(["paint", "--r", "3", "--genus", "1", petersen_file])
    out = capsys.readouterr().out
    assert code == 0  # the sandwich closes: chromatic 10 meets the torus bound
    assert out.startswith("10")


def test_list_check(tmp_path, capsys):
    c5 = tmp_path / "c5.g6"
    c5.write_text(emit_graph6(cycle(5)))
    lists = tmp_path / "lists.txt"
    lists.write_text("".join(f"{v}: 1 2 3 4\n" for v in range(5)))
    assert main(["list-check", "--r", "2", "--lists", str(lists), str(c5)]) == 1
    assert capsys.readouterr().out.strip() == "unsatisfiable"


def test_find_config_and_reduce(grid_rot, capsys):
    assert main(["find-config", grid_rot]) == 0
    out = capsys.readouterr().out
    assert "all-4s-quad-face" in out
    assert main(["reduce", "--kind", "all-4s-quad-face", grid_rot]) == 0
    out = capsys.readouterr().out
    assert "S = " in out and "triggers" in out


def test_auto_detection_reads_a_tab_separated_edge_list(tmp_path, capsys):
    path = tmp_path / "p3.txt"
    path.write_text("0\t1\n1\t2\n")
    for fmt in ("auto", "edge-list"):
        assert main(["chi-r", "--r", "1", "--format", fmt, str(path)]) == 0
        assert capsys.readouterr().out == "2\n"


def test_discharge_and_unavoidable(grid_rot, capsys):
    assert main(["discharge", grid_rot]) == 0
    capsys.readouterr()
    assert main(["discharge", "--json", grid_rot]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["total"] == "0"
    assert set(data["vertex_final"]) == {"0"}
    assert main(["unavoidable", grid_rot]) == 0


def test_genus_command(grid_rot, capsys):
    assert main(["genus", grid_rot]) == 0
    assert "genus 1" in capsys.readouterr().out


def test_bound_and_mad(tmp_path, capsys):
    assert main(["bound", "--genus", "1", "--r", "3"]) == 0
    assert "omega 15" in capsys.readouterr().out
    p4 = tmp_path / "p4.txt"
    p4.write_text("0 1\n1 2\n2 3\n")
    assert main(["mad", str(p4)]) == 0
    assert capsys.readouterr().out.strip() == "3/2"


def test_kp_check_and_replay(tmp_path, capsys):
    g = subdivision(complete(4))
    gf = tmp_path / "sub.g6"
    gf.write_text(emit_graph6(g))
    cert = tmp_path / "cert.txt"
    assert main(["kp-check", "--out", str(cert), str(gf)]) == 0
    capsys.readouterr()
    assert main(["replay", "--certificate", str(cert), str(gf)]) == 0
    assert "matches" in capsys.readouterr().out


@pytest.mark.parametrize("old, new", [
    ("hypothesis mad 12/5 < 8/3", "hypothesis mad 1/1 < 8/3"),
    ("-> game-pass", "-> game-fail"),
    ("certified True", "certified False"),
])
def test_replay_checks_every_kp_chain_line(tmp_path, capsys, old, new):
    g = subdivision(complete(4))
    gf = tmp_path / "sub.g6"
    gf.write_text(emit_graph6(g))
    cert = tmp_path / "cert.txt"
    assert main(["kp-check", "--out", str(cert), str(gf)]) == 0
    assert old in cert.read_text()
    cert.write_text(cert.read_text().replace(old, new))
    capsys.readouterr()
    assert main(["replay", "--certificate", str(cert), str(gf)]) == 1
    assert "does not match" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--girth7-planar"], []], ids=["girth7", "mad"])
def test_replay_of_a_kp_certificate_on_25_vertices(tmp_path, capsys, flags):
    # without the assertion, replay recomputes mad, which has no vertex cap
    tree = random_tree(25, random.Random(0))
    gf = tmp_path / "tree.el"
    gf.write_text("".join(f"{u} {v}\n" for u, v in tree.edges()))
    cert = tmp_path / "cert.txt"
    assert main(["kp-check", *flags, "--out", str(cert), str(gf),
                 "--format", "edge-list"]) == 0
    capsys.readouterr()
    assert main(["replay", "--certificate", str(cert), str(gf),
                 "--format", "edge-list"]) == 0
    assert "matches; certified True" in capsys.readouterr().out


def test_contract_color_and_replay(tmp_path, capsys):
    tree = random_tree(20, random.Random(0))
    gf = tmp_path / "tree.el"
    gf.write_text("".join(f"{u} {v}\n" for u, v in tree.edges()))
    trace = tmp_path / "trace.txt"
    col = tmp_path / "col.txt"
    assert main(["contract-color", "--r", "11", "--genus", "0",
                 "--trace-out", str(trace), "--coloring-out", str(col),
                 str(gf), "--format", "edge-list"]) == 0
    capsys.readouterr()
    assert main(["replay", "--certificate", str(trace), str(gf),
                 "--format", "edge-list"]) == 0


def test_replay_refuses_a_trace_below_the_threshold(tmp_path, capsys):
    gf, trace = tmp_path / "g.g6", tmp_path / "trace.txt"
    gf.write_text(emit_graph6(stacked_triangulation(60, random.Random(5))) + "\n")
    assert main(["contract-color", "--r", "11", "--genus", "0",
                 "--trace-out", str(trace), str(gf)]) == 0
    trace.write_text(trace.read_text().replace("\nr 11\n", "\nr 3\n"))
    capsys.readouterr()
    assert main(["replay", "--certificate", str(trace), str(gf)]) == 1
    assert capsys.readouterr().out == ("certificate refuted: "
                                       "r=3 below the threshold 11 for genus 0\n")
    assert main(["contract-color", "--r", "3", "--genus", "0", str(gf)]) == 1
    assert capsys.readouterr().err == "error: r=3 below the threshold 11 for genus 0\n"


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_contract_color_and_replay_at_2000_vertices(tmp_path, capsys, genus):
    r = bound_profile(genus, 1).r_threshold
    ell = bound_profile(genus, r).ell
    g = stacked_triangulation(2000, random.Random(genus))
    gf, trace, col = tmp_path / "g.el", tmp_path / "trace.txt", tmp_path / "col.txt"
    gf.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    graph = [str(gf), "--format", "edge-list"]
    assert main(["contract-color", "--r", str(r), "--genus", str(genus),
                 "--trace-out", str(trace), "--coloring-out", str(col), *graph]) == 0
    summary = capsys.readouterr().out
    assert main(["replay", "--certificate", str(trace), *graph]) == 0
    replayed_summary = capsys.readouterr().out
    assert replayed_summary == f"replayed: {summary}"
    assert int(replayed_summary.split()[-1]) <= ell - 1  # the largest forbidden set
    replayed = replay_contraction(g, ContractionTrace.parse(trace.read_text()))
    assert replayed.coloring == parse_coloring(col.read_text())
    assert replayed.max_forbidden <= ell - 1


def test_budget_exit_code(tmp_path):
    big = tmp_path / "big.el"
    tree = random_tree(30, random.Random(1))
    big.write_text("".join(f"{u} {v}\n" for u, v in tree.edges()))
    assert main(["chi-r", "--r", "2", "--max-n", "16", str(big)]) == 3


def test_chi_r_cap_message_names_the_cli_option(tmp_path, capsys):
    big = tmp_path / "big.el"
    tree = random_tree(30, random.Random(1))
    big.write_text("".join(f"{u} {v}\n" for u, v in tree.edges()))
    assert main(["chi-r", "--r", "2", str(big), "--format", "edge-list"]) == 3
    err = capsys.readouterr().err
    assert err.strip() == ("budget exceeded: n=30 above the vertex cap max_n=16; "
                           "raise max_n (--max-n on the command line)")


def test_paint_refuses_an_empty_sandwich(tmp_path, capsys):
    k8 = tmp_path / "k8.g6"
    k8.write_text(emit_graph6(complete(8)) + "\n")
    assert main(["paint", "--r", "2", "--genus", "0", str(k8)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: declared genus 0 leaves no paint number: upper end 5"
                       " (planar 2-dynamic paintability bound) is below lower end 8"
                       " (exact chromatic side of the sandwich)\n")


def test_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("A")
    assert main(["chi-r", "--r", "1", str(bad)]) == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["--seed", "3", "chi-r", "--r", "1", str(bad)])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["paint", "--r", "1", "--tokens", "0", "G"],
    ["paint", "--r", "1", "--tokens", "-2", "G"],
    ["paint", "--r", "0", "G"],
    ["chi-r", "--r", "0", "G"],
    ["verify", "--r", "-1", "--coloring", "c.col", "G"],
    ["list-check", "--r", "0", "--lists", "l.txt", "G"],
    ["contract-color", "--r", "0", "--genus", "0", "G"],
    ["bound", "--genus", "1", "--r", "0"],
])
def test_nonpositive_r_and_tokens_are_usage_errors(tmp_path, capsys, argv):
    c5 = tmp_path / "c5.g6"
    c5.write_text(emit_graph6(cycle(5)))
    with pytest.raises(SystemExit) as info:
        main([str(c5) if a == "G" else a for a in argv])
    assert info.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


TRACE_HEAD = "contraction-trace\nr 11\ngenus 0\n"
ASYMMETRIC_ROT = "rot 3\n0: 1\n1: 0\n2: 1\n"
DISCONNECTED_ROT = "rot 4\n0: 1\n1: 0\n2: 3\n3: 2\n"
GENUS2_K5_ROT = "rot 5\n0: 1 2 3 4\n1: 0 2 3 4\n2: 0 1 3 4\n3: 0 1 2 4\n4: 0 1 2 3\n"
ROTATION_COMMANDS = ("genus", "find-config", "reduce", "discharge", "unavoidable")


@pytest.mark.parametrize("argv, text, message", [
    (["chi-r", "--r", "1", "F"], "0 1\n1 2 \u00e9\n", "not ASCII"),
    (["bound", "--genus", "-1", "--r", "3"], None, "must be at least 0"),
    (["contract-color", "--r", "3", "--genus", "-1", "G"], None, "must be at least 0"),
    (["paint", "--r", "1", "--genus", "-2", "G"], None, "must be at least 0"),
    (["replay", "--certificate", "F", "G"],
     TRACE_HEAD + "frobnicate 1\nbase 0\n", "bad trace line 'frobnicate 1'"),
    (["replay", "--certificate", "F", "G"],
     "contraction-trace\nr\ngenus 0\nbase 0\n", "bad trace line 'r'"),
    (["replay", "--certificate", "F", "G"],
     TRACE_HEAD + "contract 1 x 2\n", "non-integer"),
    (["find-config", "--kinds", "bogus", "F"], None, "unknown configuration kind 'bogus'"),
    (["reduce", "--kind", "deg<=2,bogus", "F"], None, "unknown configuration kind 'bogus'"),
] + [
    ([cmd, "F"], ASYMMETRIC_ROT, "vertex 2 lists 1 but 1 does not list 2")
    for cmd in ROTATION_COMMANDS
] + [
    ([cmd, "F"], DISCONNECTED_ROT, "requires a connected")
    for cmd in ROTATION_COMMANDS
] + [
    (["list-check", "--r", "2", "--lists", "F", "G"], "0: 1 2\n2: 1 2\n3: 1 2\n4: 3\n",
     "vertex 1 has no list"),
    (["kp-check", "F"], "0 1\n2 3\n", "requires a connected graph"),
    (["verify", "--r", "1", "--coloring", "F", "G"], "0 1\n1 2\n",
     "vertices without a color: [2, 3, 4]"),
    (["verify", "--r", "1", "--coloring", "F", "G"], "0 1\n1 2\n2 1\n3 2\n4 3\n9 1\n",
     "colors for vertices not in the graph: [9]"),
    (["list-check", "--r", "2", "--lists", "F", "G"],
     "0: 1 2 3\n1: 1 2 3\n2: 1 2 3\n3: 1 2 3\n4: 1 2 3\n7: 1\n",
     "lists for vertices not in the graph: [7]"),
    (["replay", "--certificate", "F", "G"],
     "contraction-trace\nr 0\ngenus 0\nbase 0\n", "trace line 'r 0' needs r >= 1"),
    (["replay", "--certificate", "F", "G"],
     "contraction-trace\nr 11\ngenus -1\nbase 0\n", "trace line 'genus -1' needs r >= 1"),
    (["replay", "--certificate", "F", "G"],
     TRACE_HEAD + "r 3\nbase 0\n", "second r line 'r 3' in the trace (byte 31)"),
    (["replay", "--certificate", "F", "G"],
     TRACE_HEAD + "base 0\ngenus 1\n", "second genus line 'genus 1' in the trace (byte 38)"),
    (["replay", "--certificate", "F", "G"],
     TRACE_HEAD + "base 0\nbase 1\n", "second base line 'base 1' in the trace (byte 38)"),
    (["paint", "--r", "2", "--time-limit", "0", "G"], None,
     "--time-limit applies only with --tokens"),
    (["paint", "--r", "1", "--tokens", "3", "--genus", "0", "G"], None,
     "--genus does not apply with --tokens"),
    (["mad", "F"], "# nothing\n", "mad requires a non-empty graph"),
    (["kp-check", "F"], "# nothing\n", "the pipeline requires a non-empty graph"),
    (["kp-check", "--girth7-planar", "F"], "# nothing\n",
     "the pipeline requires a non-empty graph"),
    (["list-check", "--r", "1", "--lists", "F", "G"], "0: 1 2\n1: 0 -1\n",
     "colors are positive integers (byte 7)"),
    (["list-check", "--r", "1", "--lists", "F", "G"], "0: 1 2\n0: 3\n",
     "duplicate line for vertex 0 (byte 7)"),
    (["verify", "--r", "1", "--coloring", "F", "G"], "0 1\n0 2\n",
     "duplicate line for vertex 0 (byte 4)"),
    (["unavoidable", "F"], GENUS2_K5_ROT, "input error: driver handles genus <= 1, got 2"),
    # one large id would size the graph: 300,001 rows from 14 bytes, or 10^9
    (["chi-r", "--r", "2", "F"], "0 1\n1 300000\n",
     "vertex id 300000 exceeds twice the number of edges (2) (byte 4)"),
    (["chi-r", "--r", "2", "--format", "edge-list", "F"], "0 999999999\n",
     "vertex id 999999999 exceeds twice the number of edges (1) (byte 0)"),
    # each remaining refusal of the input readers, one row each
    (["genus", "F"], "# rotation\nrot 3 3\n", "expected header 'rot <n>' (byte 11)"),
    (["genus", "F"], "rot 0\n", "vertex count must be positive (byte 0)"),
    (["genus", "F"], "rot 2\n0: 1\n1 0\n", "expected '<v>: w1 w2 ...' (byte 11)"),
    (["genus", "F"], "rot 2\n0: 1\n1: x\n", "non-integer vertex id (byte 11)"),
    (["genus", "F"], "rot 2\n0: 1\n5: 0\n", "vertex 5 out of range (byte 11)"),
    (["genus", "F"], "rot 2\n0: 1\n1: 0\n0: 1\n", "duplicate line for vertex 0 (byte 16)"),
    (["genus", "F"], "rot 2\n0: 1\n1: 1\n", "loop at vertex 1 (byte 11)"),
    (["genus", "F"], "rot 2\n0: 1 2\n", "neighbor out of range at vertex 0 (byte 6)"),
    (["chi-r", "--r", "1", "--format", "edge-list", "F"], "0 1\n1 2 3\n",
     "expected 'u v', got '1 2 3' (byte 4)"),
    (["chi-r", "--r", "1", "--format", "edge-list", "F"], "0 1\n1 -2\n",
     "negative vertex id (byte 4)"),
    (["chi-r", "--r", "1", "--format", "graph6", "F"], "!\n", "bad size byte 33 (byte 0)"),
    (["chi-r", "--r", "1", "--format", "graph6", "F"], "~?!?\n", "bad size byte 33 (byte 2)"),
    (["chi-r", "--r", "1", "--format", "graph6", "F"], "~~??!???\n",
     "bad size byte 33 (byte 4)"),
    (["chi-r", "--r", "1", "--format", "graph6", "F"], "~??\n",
     "truncated long size field (byte 3)"),
    (["chi-r", "--r", "1", "--format", "graph6", "F"], "~~???\n",
     "truncated very long size field (byte 5)"),
    (["chi-r", "--r", "1", "--format", "graph6", "F"], "B!\n",
     "data byte 33 out of graph6 range (byte 1)"),
    (["verify", "--r", "1", "--coloring", "F", "G"], "0 1\n1\n",
     "expected '<vertex> <color>', got '1' (byte 4)"),
    (["verify", "--r", "1", "--coloring", "F", "G"], "0 1\n1 x\n",
     "non-integer in '1 x' (byte 4)"),
    (["verify", "--r", "1", "--coloring", "F", "G"], "0 1\n1 0\n",
     "colors are positive integers (byte 4)"),
    (["list-check", "--r", "1", "--lists", "F", "G"], "0: 1 2\n1 2\n",
     "expected '<v>: c1 c2 ...' (byte 7)"),
    (["list-check", "--r", "1", "--lists", "F", "G"], "0: 1 2\n1: x\n",
     "non-integer in '1: x' (byte 7)"),
    (["list-check", "--r", "1", "--lists", "F", "G"], "0: 1 2\n1:\n",
     "empty list for vertex 1 (byte 7)"),
    (["replay", "--certificate", "F", "G"], "contraction-trace\nr 11\nbase 0\n",
     "trace missing r/genus header (byte 30)"),
    (["replay", "--certificate", "F", "G"], "frobnicate\n", "unknown certificate header"),
    # eight bytes declaring 2^36 - 1 vertices and no edge data
    (["chi-r", "--r", "1", "--format", "graph6", "F"], "~~~~~~~~\n",
     "need 393530540221957231958 data bytes for n=68719476735, found 0 (byte 8)"),
])
def test_malformed_input_is_a_usage_error(tmp_path, capsys, argv, text, message):
    paths = {"G": tmp_path / "c5.g6", "F": tmp_path / "input.txt"}
    paths["G"].write_text(emit_graph6(cycle(5)))
    if text is not None:
        paths["F"].write_bytes(text.encode("utf-8"))
    try:
        code = main([str(paths[a]) if a in paths else a for a in argv])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert message in capsys.readouterr().err


def test_an_oversized_rotation_header_is_an_input_error(tmp_path, capsys):
    rot = tmp_path / "big.rot"
    rot.write_text("rot 1000000000\n0: 1\n1: 0\n")
    assert main(["genus", str(rot)]) == 2
    assert capsys.readouterr().err == ("input error: face tracing requires a "
                                       "connected, non-empty graph\n")


def _annotated(text):
    """`text` with a leading comment line, a blank line and a note after
    every line."""
    return "# comment\n\n" + "".join(f"{line}  # note\n" for line in text.splitlines())


P6_EDGES = "".join(f"{u} {v}\n" for u, v in path(6).edges())


@pytest.mark.parametrize("argv, text, parse", [
    (["chi-r", "--r", "2", "F"], P6_EDGES, parse_graph),
    (["mad", "--format", "edge-list", "F"], P6_EDGES,
     lambda text: parse_graph(text, "edge-list")),
    (["verify", "--r", "2", "--coloring", "F", "G"],
     emit_coloring({v: v % 3 + 1 for v in range(6)}), parse_coloring),
    (["list-check", "--r", "2", "--lists", "F", "G"],
     "".join(f"{v}: 1 2 3\n" for v in range(6)), parse_lists),
    (["genus", "F"], emit_rotation(c3c3_torus()), lambda text: parse_rotation(text).rotation),
    (["replay", "--certificate", "F", "G"],
     color_by_contraction(path(6), 11, 0).trace.render(), ContractionTrace.parse),
    (["replay", "--certificate", "F", "G"], kp_pipeline(path(6)).render(), None),
], ids=["edge-list", "edge-list-format", "coloring", "lists", "rotation",
        "contraction-trace", "kp-chain"])
def test_every_line_format_ignores_comments_and_blank_lines(tmp_path, capsys, argv,
                                                            text, parse):
    paths = {"G": tmp_path / "p6.g6", "F": tmp_path / "input.txt"}
    paths["G"].write_text(emit_graph6(path(6)))
    runs = []
    for body in (text, _annotated(text)):
        paths["F"].write_text(body)
        code = main([str(paths[a]) if a in paths else a for a in argv])
        runs.append((code, capsys.readouterr()))
    assert runs[0][0] == 0 and runs[0] == runs[1]
    if parse is not None:
        assert parse(_annotated(text)) == parse(text)


@pytest.mark.parametrize("argv, out", [
    (["chi-r", "--r", "2", "F"], "0\n"),
    (["paint", "--r", "2", "F"], "0  (empty graph)\n"),
    (["contract-color", "--r", "11", "--genus", "0", "F", "--format", "edge-list"],
     "colored with 0 colors; largest forbidden set 0\n"),
])
def test_the_empty_graph_has_trivial_numbers(tmp_path, capsys, argv, out):
    path = tmp_path / "empty.el"
    path.write_text("# nothing\n")
    assert main([str(path) if a == "F" else a for a in argv]) == 0
    assert capsys.readouterr().out == out


K4_EDGES = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


@pytest.mark.parametrize("argv, message", [
    (["kp-check", "G"], "error: mad = 3 >= 8/3\n"),
    (["kp-check", "--girth7-planar", "G"],
     "error: a remainder of maximum degree >= 3 without a KP configuration "
     "refutes the assertion planar-girth-7 (asserted by caller)\n"),
    (["replay", "--certificate", "F", "G"],
     "error: a remainder of maximum degree >= 3 without a KP configuration "
     "refutes the assertion planar-girth-7 (asserted by caller)\n"),
])
def test_a_refuted_kp_hypothesis_is_a_false_verdict(tmp_path, capsys, argv, message):
    paths = {"G": tmp_path / "k4.el", "F": tmp_path / "cert.txt"}
    paths["G"].write_text(K4_EDGES)
    paths["F"].write_text("kp-chain\nhypothesis planar-girth-7 (asserted by caller)\n"
                          "certified True\n")
    assert main([str(paths[a]) if a in paths else a for a in argv]) == 1
    assert capsys.readouterr().err == message


def test_replay_of_an_illegal_contraction_trace_is_refuted(tmp_path, capsys):
    c5, trace = tmp_path / "c5.g6", tmp_path / "trace.txt"
    c5.write_text(emit_graph6(cycle(5)))
    trace.write_text(TRACE_HEAD + "contract 0 1 9\nbase 0\n")  # C5 edges weigh 4
    assert main(["replay", "--certificate", str(trace), str(c5)]) == 1
    assert capsys.readouterr().out == "certificate refuted: contraction 0,1 has weight 4, not light\n"


def test_witness_roundtrips_through_verify(tmp_path, capsys):
    c5 = tmp_path / "c5.g6"
    c5.write_text(emit_graph6(cycle(5)))
    assert main(["chi-r", "--r", "2", "--witness", str(c5)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "5"
    wfile = tmp_path / "w.col"
    wfile.write_text("\n".join(out[1:]) + "\n")
    assert main(["verify", "--r", "2", "--coloring", str(wfile), str(c5)]) == 0


def test_time_limit_flag(tmp_path):
    from dyncolor.families import random_connected_graph

    big = tmp_path / "big.el"
    g = random_connected_graph(16, 0.5, random.Random(2))
    big.write_text("".join(f"{u} {v}\n" for u, v in g.edges()))
    assert main(["chi-r", "--r", "3", "--time-limit", "0.0", str(big)]) == 3


@pytest.mark.parametrize("argv", [
    ["chi-r", "--r", "2", "--max-nodes", "-5", "G"],
    ["chi-r", "--r", "2", "--max-n", "-1", "G"],
    ["chi-r", "--r", "2", "--time-limit", "-1", "G"],
    ["chi-r", "--r", "2", "--time-limit", "nan", "G"],
    ["paint", "--r", "1", "--max-n", "-1", "G"],
    ["paint", "--r", "1", "--max-nodes", "-1", "G"],
    ["paint", "--r", "1", "--tokens", "3", "--time-limit", "-0.5", "G"],
])
def test_negative_caps_are_usage_errors(tmp_path, capsys, argv):
    c5 = tmp_path / "c5.g6"
    c5.write_text(emit_graph6(cycle(5)))
    with pytest.raises(SystemExit) as info:
        main([str(c5) if a == "G" else a for a in argv])
    assert info.value.code == 2
    assert "must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mad", "kp-check"])
def test_mad_takes_no_vertex_cap(tmp_path, capsys, command):
    c5 = tmp_path / "c5.g6"
    c5.write_text(emit_graph6(cycle(5)))
    with pytest.raises(SystemExit) as info:
        main([command, "--max-n", "-1", str(c5)])
    assert info.value.code == 2
    assert "unrecognized arguments: --max-n" in capsys.readouterr().err


def test_an_unknown_top_level_option_is_named(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--seed", "3", "chi-r", "--r", "1", "G"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["chi-r", "--r", "2", "D"],
    ["verify", "--r", "1", "--coloring", "D", "G"],
    ["kp-check", "--out", "D", "G"],
    ["contract-color", "--r", "11", "--genus", "0", "--trace-out", "D", "G"],
    ["contract-color", "--r", "11", "--genus", "0", "--coloring-out", "D", "G"],
])
def test_a_directory_for_a_file_is_a_usage_error(tmp_path, capsys, argv):
    p5 = tmp_path / "p5.g6"
    p5.write_text(emit_graph6(path(5)))
    paths = {"G": str(p5), "D": str(tmp_path)}
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


P3_ROT = "rot 3\n0: 1\n1: 0 2\n2: 1\n"


def test_a_coloring_node_cap_is_a_budget_exit(petersen_file, capsys):
    assert main(["chi-r", "--r", "3", "--max-nodes", "1", petersen_file]) == 3
    assert "coloring search exceeded 1 nodes" in capsys.readouterr().err


def test_reduce_without_a_configuration_is_a_false_verdict(tmp_path, capsys):
    p3 = tmp_path / "p3.rot"
    p3.write_text(P3_ROT)
    assert main(["reduce", "--kind", "adjacent-3s", str(p3)]) == 1
    assert capsys.readouterr().out == "no reducible configuration with a buildable reduction\n"


@pytest.mark.parametrize("kinds, rotation, head, count", [
    ("kp", P3_ROT, "kp-pendant: v=0 u=1", 2),
    ("all", None, "light-triangle: cycle=(0,1,2)", 15),
])
def test_find_config_kind_groups(tmp_path, grid_rot, capsys, kinds, rotation, head, count):
    path = grid_rot
    if rotation is not None:
        path = tmp_path / "input.rot"
        path.write_text(rotation)
    assert main(["find-config", "--kinds", kinds, str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert (out[0], out[-1], len(out)) == (head, f"{count} matches", count + 1)


def test_a_graph_is_read_from_stdin_for_a_dash(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("Dhc\n"))  # C5
    assert main(["chi-r", "-", "--r", "2"]) == 0
    assert capsys.readouterr().out == "5\n"
