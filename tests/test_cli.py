"""End-to-end command-line behavior, including the exit-code contract.

Exit codes: 0 = success, 1 = mathematical negative (REFUSED/UNSAT/UNBALANCED),
2 = usage or file errors, 3 = internal error.  Tests drive ``run`` directly so
the suite stays in one process.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nbcolor
from nbcolor import (
    EssInstance,
    Refusal,
    coloring_from_text,
    coloring_to_text,
    cycle_nbc,
    graph_from_text,
    graph_to_text,
    hamming_nbc,
    hypercube_nbc,
    is_nbkc,
    product_nbc,
    reduce_ess_to_nbc,
    roles_to_text,
    solve,
)
from helpers import bowtie, compiled_count, naive_balanced
from nbcolor.balance import _balanced
from nbcolor.cli import run
from nbcolor.graph import complete_graph, cycle_graph


def write_graph(path, g):
    path.write_text(graph_to_text(g))
    return str(path)


@pytest.fixture
def c8(tmp_path):
    return write_graph(tmp_path / "c8.graph", cycle_graph(8))


@pytest.fixture
def k4(tmp_path):
    return write_graph(tmp_path / "k4.graph", complete_graph(4))


# ---------------------------------------------------------------------------
# construct / verify
# ---------------------------------------------------------------------------


def test_construct_then_verify_pipeline(tmp_path, capsys):
    prefix = tmp_path / "ring"
    assert run(["construct", "cycle", "8", "-k", "2", "-o", str(prefix)]) == 0
    graph_file = str(prefix) + ".graph"
    coloring_file = str(prefix) + ".coloring"
    g = graph_from_text(Path(graph_file).read_text())
    c = coloring_from_text(Path(coloring_file).read_text())
    assert is_nbkc(g, c).balanced

    assert run(["verify", graph_file, coloring_file]) == 0
    out = capsys.readouterr().out
    assert "BALANCED" in out


def test_construct_refusal_exits_one(capsys):
    code = run(["construct", "cycle", "6", "-k", "2"])
    assert code == 1
    out = capsys.readouterr().out
    assert out.startswith("REFUSED regular-size")


def test_construct_writes_to_stdout_without_output(capsys):
    assert run(["construct", "cycle", "8", "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "p 8 8" in out
    assert "k 2" in out


def test_construct_circulant_and_hamming(tmp_path):
    assert run(["construct", "circulant", "18", "1,3,5", "-k", "3", "-o", str(tmp_path / "a")]) == 0
    assert run(["construct", "hamming", "4", "-k", "2", "-o", str(tmp_path / "b")]) == 0
    assert run(["construct", "hypercube", "4", "-k", "2", "-o", str(tmp_path / "c")]) == 0
    assert run(["construct", "multipartite", "2,2,4", "-k", "2", "-o", str(tmp_path / "d")]) == 0


def test_construct_unknown_family_is_usage_error(capsys):
    assert run(["construct", "moebius", "8", "-k", "2"]) == 2


@pytest.mark.parametrize(
    "argv,code,first",
    [
        ("complete 5 -k 2", 1, "REFUSED order-conflict"),
        ("complete 5", 2, "error: construct complete requires -k"),
        ("hamming 4", 2, "error: construct hamming requires -k"),
        ("cycle 8 -k 3", 2, "error: cycle colorings use k=2"),
        ("hypercube 4 -k 3", 2, "error: hypercube colorings use k=2"),
        ("multipartite 2,2", 2, "error: construct multipartite requires -k"),
        ("circulant 36 1,2,4,5 -k 2", 0, "p 36 144"),
        ("circulant 12 1,2,5 -k 2", 1, "REFUSED arity"),
        ("circulant 12 1,x", 2, "error: connections must be comma-separated integers: '1,x'"),
        ("circulant 8 1 -k 1", 2, "error: palette size must be at least 2, got 1"),
        ("circulant 8 1", 0, "p 8 8"),
    ],
)
def test_construct_routes_keep_the_exit_code_contract(capsys, argv, code, first):
    assert run(["construct", *argv.split()]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err.splitlines()[0] == first
    else:
        assert captured.out.splitlines()[0] == first


@pytest.mark.parametrize(
    "argv,err",
    [
        ("circulant x 1,2", "circulant order n must be an integer: 'x'"),
        ("cycle x", "cycle length must be an integer: 'x'"),
        ("hamming x -k 2", "word length d must be an integer: 'x'"),
        ("hypercube 2.5", "dimension d must be an integer: '2.5'"),
        ("complete five -k 2", "vertex count must be an integer: 'five'"),
    ],
)
def test_construct_non_integer_parameter_is_named(capsys, argv, err):
    assert run(["construct", *argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize(
    "argv,usage",
    [
        ("cycle", "one parameter: the cycle length"),
        ("cycle 8 9", "one parameter: the cycle length"),
        ("circulant 12", "two parameters: n and the comma-separated connections"),
        ("hamming -k 3", "one parameter: the word length d (the alphabet size is -k)"),
        ("hypercube 2 3", "one parameter: the dimension d"),
        ("multipartite -k 2", "one parameter: comma-separated part sizes"),
        ("complete 4 5 -k 2", "one parameter: the vertex count"),
    ],
)
def test_construct_wrong_parameter_count_is_a_usage_error(capsys, argv, usage):
    family = argv.split()[0]
    assert run(["construct", *argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: construct {family} expects {usage}\n"


def test_construct_circulant_with_k_at_the_arity_takes_the_residue_route(tmp_path, capsys):
    """C20(1,3,6,8) is no progression mod 4, yet it has one connection in
    each residue class mod 4, so ``-k 4`` colors it while the progression
    route (no ``-k``) refuses it."""
    assert run(["construct", "circulant", "20", "1,3,6,8"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "REFUSED progression"
    prefix = tmp_path / "c20"
    assert run(["construct", "circulant", "20", "1,3,6,8", "-k", "4", "-o", str(prefix)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        f"wrote {prefix}.graph and {prefix}.coloring"
    )
    assert run(["verify", f"{prefix}.graph", f"{prefix}.coloring"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "BALANCED"


def test_verify_unbalanced_exits_one(tmp_path, capsys):
    g = cycle_graph(8)
    gf = write_graph(tmp_path / "g.graph", g)
    cf = tmp_path / "bad.coloring"
    cf.write_text("k 2\n" + "".join(f"v {v} {1 + v % 2}\n" for v in range(8)))
    assert run(["verify", gf, str(cf)]) == 1
    out = capsys.readouterr().out
    assert "UNBALANCED" in out


def test_verify_json(tmp_path, capsys, c8):
    cf = tmp_path / "c.coloring"
    cf.write_text("k 2\n" + "".join(f"v {v} {1 + (v // 2) % 2}\n" for v in range(8)))
    assert run(["verify", c8, str(cf), "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["balanced"] is True
    assert blob["class_sizes"] == [4, 4]


def test_verify_closed_flag(tmp_path, capsys):
    gf = write_graph(tmp_path / "k3.graph", complete_graph(3))
    cf = tmp_path / "k3.coloring"
    cf.write_text("k 3\nv 0 1\nv 1 2\nv 2 3\n")
    assert run(["verify", gf, str(cf), "--closed"]) == 0
    assert run(["verify", gf, str(cf)]) == 1


def test_verify_lists_ten_violations_then_a_tally(tmp_path, capsys):
    gf = write_graph(tmp_path / "c24.graph", cycle_graph(24))
    cf = tmp_path / "alt.coloring"
    cf.write_text("k 2\n" + "".join(f"v {v} {1 + v % 2}\n" for v in range(24)))
    assert run(["verify", gf, str(cf)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "UNBALANCED"
    assert len(out) == 12
    assert out[-1] == "... and 14 more violations"


def test_verify_reports_unused_colors(tmp_path, capsys, c8):
    cf = tmp_path / "c.coloring"
    cf.write_text("k 3\n" + "".join(f"v {v} {1 + (v // 2) % 2}\n" for v in range(8)))
    assert run(["verify", c8, str(cf)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "UNBALANCED"
    assert out[-1] == "unused colors: [3]"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_refusal(k4, capsys):
    assert run(["analyze", k4, "-k", "2"]) == 1
    out = capsys.readouterr().out
    assert "REFUSED degree-divisibility" in out


def test_analyze_pass(c8, capsys):
    assert run(["analyze", c8, "-k", "2"]) == 0
    assert "possibly-colorable" in capsys.readouterr().out


def test_analyze_json(k4, capsys):
    assert run(["analyze", k4, "-k", "2", "--format", "json"]) == 1
    blob = json.loads(capsys.readouterr().out)
    assert blob["failed_rule"] == "degree-divisibility"


@pytest.mark.parametrize(
    "g,rule,detail",
    [
        (complete_graph(3), "min-order", "n=3 < 2k=4 with no isolated vertices"),
        (cycle_graph(5), "regular-order", "2-regular graph: n mod k = 1, |E| mod k^2 = 1"),
        (cycle_graph(6), "regular-size", "2-regular graph: n mod k = 0, |E| mod k^2 = 2"),
        (bowtie(), "size-divisibility", "|E| = 6 is not a multiple of k^2 = 4"),
    ],
)
def test_analyze_refusal_texts(tmp_path, capsys, g, rule, detail):
    gf = write_graph(tmp_path / "g.graph", g)
    assert run(["analyze", gf, "-k", "2"]) == 1
    assert capsys.readouterr().out.splitlines() == [f"REFUSED {rule}", detail]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_sat_writes_witness(tmp_path, c8, capsys):
    wf = tmp_path / "w.coloring"
    assert run(["solve", c8, "-k", "2", "-o", str(wf)]) == 0
    assert "SAT" in capsys.readouterr().out
    c = coloring_from_text(wf.read_text())
    assert is_nbkc(cycle_graph(8), c).balanced


def test_solve_unsat_exits_one(tmp_path, capsys):
    gf = write_graph(tmp_path / "c6.graph", cycle_graph(6))
    assert run(["solve", gf, "-k", "2"]) == 1
    out = capsys.readouterr().out
    assert "UNSAT" in out


def test_solve_count_mode(c8, capsys):
    assert run(["solve", c8, "-k", "2", "--mode", "count"]) == 0
    out = capsys.readouterr().out
    assert "4" in out


def test_solve_budget_exceeded(tmp_path, capsys):
    gf = write_graph(tmp_path / "c24.graph", cycle_graph(24))
    assert run(["solve", gf, "-k", "2", "--budget", "3"]) == 1
    assert capsys.readouterr().out == "BUDGET_EXCEEDED\nexplored 3 nodes\n"


@pytest.mark.parametrize(
    "m,extra,code,status,count",
    [
        (8, [], 0, "SAT", None),
        (6, [], 1, "UNSAT", None),
        (8, ["--mode", "count"], 0, "SAT", 4),
        (24, ["--budget", "3"], 1, "BUDGET_EXCEEDED", None),
    ],
)
def test_solve_json(tmp_path, capsys, m, extra, code, status, count):
    gf = write_graph(tmp_path / "c.graph", cycle_graph(m))
    assert run(["solve", gf, "-k", "2", "--format", "json", *extra]) == code
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "{"
    blob = json.loads(out)
    assert (blob["status"], blob["count"]) == (status, count)


def test_solve_json_writes_the_witness(tmp_path, capsys, c8):
    wf = tmp_path / "w.coloring"
    assert run(["solve", c8, "-k", "2", "--format", "json", "-o", str(wf)]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["status"] == "SAT"
    assert list(coloring_from_text(wf.read_text()).colors) == blob["witness"]["colors"]
    assert run(["verify", c8, str(wf)]) == 0
    assert capsys.readouterr().out.startswith("BALANCED\n")


def test_solve_deep_graph(tmp_path, capsys):
    gf = write_graph(tmp_path / "q10.graph", hypercube_nbc(10)[0])
    assert run(["solve", gf, "-k", "2"]) == 0
    assert capsys.readouterr().out.startswith("SAT")


def test_solve_refuses_a_palette_above_the_vertex_count(tmp_path, capsys):
    """The witness would be a coloring that ``verify`` refuses to read."""
    gf = tmp_path / "one.graph"
    gf.write_text("p 1 0\n")
    wf = tmp_path / "e1.coloring"
    assert run(["solve", str(gf), "-k", "2", "-o", str(wf)]) == 2
    assert not wf.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {gf}: palette size 2 exceeds the 1 vertices\n"


@pytest.mark.parametrize(
    "text,k",
    [
        ("p 2 0\n", 2),
        ("p 3 0\n", 3),
        ("p 5 4\ne 0 1\ne 1 2\ne 2 3\ne 0 3\n", 2),
        (graph_to_text(cycle_graph(8)), 2),
    ],
)
def test_solve_witness_reads_back_in_verify(tmp_path, capsys, text, k):
    gf = tmp_path / "in.graph"
    gf.write_text(text)
    wf = tmp_path / "w.coloring"
    assert run(["solve", str(gf), "-k", str(k), "-o", str(wf)]) == 0
    capsys.readouterr()
    assert run(["verify", str(gf), str(wf)]) == 0
    assert capsys.readouterr().out.startswith("BALANCED\n")


# ---------------------------------------------------------------------------
# compose commands
# ---------------------------------------------------------------------------


def test_product_with_colorings(tmp_path, capsys):
    run(["construct", "cycle", "4", "-k", "2", "-o", str(tmp_path / "a")])
    run(["construct", "cycle", "8", "-k", "2", "-o", str(tmp_path / "b")])
    code = run(
        [
            "product", "cartesian",
            str(tmp_path / "a.graph"), str(tmp_path / "b.graph"),
            "--cg", str(tmp_path / "a.coloring"), "--ch", str(tmp_path / "b.coloring"),
            "-o", str(tmp_path / "p"),
        ]
    )
    assert code == 0
    g = graph_from_text((tmp_path / "p.graph").read_text())
    c = coloring_from_text((tmp_path / "p.coloring").read_text())
    assert g.n == 32
    assert is_nbkc(g, c).balanced


def test_product_graph_only(tmp_path, capsys):
    run(["construct", "cycle", "4", "-k", "2", "-o", str(tmp_path / "a")])
    code = run(
        ["product", "direct", str(tmp_path / "a.graph"), str(tmp_path / "a.graph"),
         "-o", str(tmp_path / "q")]
    )
    assert code == 0
    assert (tmp_path / "q.graph").exists()
    assert not (tmp_path / "q.coloring").exists()


def test_join_command(tmp_path):
    run(["construct", "cycle", "4", "-k", "2", "-o", str(tmp_path / "a")])
    run(["construct", "cycle", "8", "-k", "2", "-o", str(tmp_path / "b")])
    code = run(
        ["join", str(tmp_path / "a.graph"), str(tmp_path / "a.coloring"),
         str(tmp_path / "b.graph"), str(tmp_path / "b.coloring"),
         "-o", str(tmp_path / "j")]
    )
    assert code == 0
    g = graph_from_text((tmp_path / "j.graph").read_text())
    c = coloring_from_text((tmp_path / "j.coloring").read_text())
    assert is_nbkc(g, c).balanced


def test_embed_command(tmp_path, k4, capsys):
    assert run(["embed", k4, "-k", "2", "-o", str(tmp_path / "host")]) == 0
    out = capsys.readouterr().out
    assert "embedding: 0,1,2,3" in out
    g = graph_from_text((tmp_path / "host.graph").read_text())
    c = coloring_from_text((tmp_path / "host.coloring").read_text())
    assert g.n == 8
    assert is_nbkc(g, c).balanced


def test_vertex_add_command(tmp_path, capsys):
    run(["construct", "multipartite", "2,2", "-k", "2", "-o", str(tmp_path / "m")])
    code = run(
        ["vertex-add", str(tmp_path / "m.graph"), str(tmp_path / "m.coloring"),
         "--pairs", "0:2,1:3", "-o", str(tmp_path / "grown")]
    )
    assert code == 0
    c = coloring_from_text((tmp_path / "grown.coloring").read_text())
    assert c.class_sizes() == (3, 4)


def test_vertex_add_refusal(tmp_path, capsys):
    run(["construct", "multipartite", "2,2", "-k", "2", "-o", str(tmp_path / "m")])
    code = run(
        ["vertex-add", str(tmp_path / "m.graph"), str(tmp_path / "m.coloring"),
         "--pairs", "0:3,1:2"]
    )
    assert code == 1
    assert "REFUSED pair-color-mismatch" in capsys.readouterr().out


def test_vertex_add_malformed_pairs_is_usage_error(tmp_path, capsys):
    run(["construct", "multipartite", "2,2", "-k", "2", "-o", str(tmp_path / "m")])
    capsys.readouterr()
    code = run(
        ["vertex-add", str(tmp_path / "m.graph"), str(tmp_path / "m.coloring"),
         "--pairs", "0:2,1"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --pairs expects u:v pairs separated by commas, got '1'\n"


@pytest.mark.parametrize("pairs,bad", [("0:a", "a"), ("b:2", "b")])
def test_vertex_add_non_integer_pair_names_the_option(tmp_path, capsys, pairs, bad):
    run(["construct", "multipartite", "2,2", "-k", "2", "-o", str(tmp_path / "m")])
    capsys.readouterr()
    code = run(
        ["vertex-add", str(tmp_path / "m.graph"), str(tmp_path / "m.coloring"),
         "--pairs", pairs]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --pairs vertex must be an integer: {bad!r}\n"


# ---------------------------------------------------------------------------
# union
# ---------------------------------------------------------------------------


def test_union_cycle_route(tmp_path, capsys):
    code = run(["union", "--cycle", "8", "--set", "0,1,2", "--copies", "3",
                "-o", str(tmp_path / "u")])
    assert code == 0
    g = graph_from_text((tmp_path / "u.graph").read_text())
    c = coloring_from_text((tmp_path / "u.coloring").read_text())
    assert g.n == 18
    assert is_nbkc(g, c).balanced


def test_union_cycle_refusal(capsys):
    assert run(["union", "--cycle", "8", "--set", "0,1", "--copies", "3"]) == 1
    assert "REFUSED not-ideal" in capsys.readouterr().out


@pytest.mark.parametrize(
    "glue,copies", [("0,1", "0"), ("0,1", "-1"), ("0,9", "2")]
)
def test_union_cycle_bad_input_is_an_error_not_a_refusal(capsys, glue, copies):
    assert run(["union", "--cycle", "8", "--set", glue, "--copies", copies]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_union_cycle_independent_set_matches_the_file_route(tmp_path, capsys):
    """``--cycle 8`` stands for C8 with its 1,1,2,2 coloring, so an
    independent glue set copies that coloring exactly as ``--coloring`` does."""
    assert run(["union", "--cycle", "8", "--set", "0,2", "--copies", "3",
                "-o", str(tmp_path / "u")]) == 0
    run(["construct", "cycle", "8", "-k", "2", "-o", str(tmp_path / "c8")])
    assert run(["union", str(tmp_path / "c8.graph"), "--set", "0,2", "--copies", "3",
                "--coloring", str(tmp_path / "c8.coloring"),
                "-o", str(tmp_path / "v")]) == 0
    g = graph_from_text((tmp_path / "u.graph").read_text())
    c = coloring_from_text((tmp_path / "u.coloring").read_text())
    assert g.n == 2 + 3 * 6
    assert naive_balanced(g, c.colors, 2)
    for suffix in ("graph", "coloring"):
        assert ((tmp_path / f"u.{suffix}").read_bytes()
                == (tmp_path / f"v.{suffix}").read_bytes())


def test_union_cycle_independent_set_without_a_cycle_coloring_refused(capsys):
    assert run(["union", "--cycle", "6", "--set", "0,3", "--copies", "3"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "REFUSED regular-size"


@pytest.mark.parametrize(
    "m,glue,copies", [("8", "0,2", "0"), ("8", "0,2", "-1"), ("8", "0,2,9", "2"),
                      ("6", "0,3", "0")]
)
def test_union_cycle_independent_bad_input_is_an_error(capsys, m, glue, copies):
    assert run(["union", "--cycle", m, "--set", glue, "--copies", copies]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_union_cycle_congruence_matches_the_file_route(c8, capsys, fmt):
    assert run(["union", "--cycle", "8", "--set", "0,1", "--congruence", "-k", "2",
                "--format", fmt]) == 0
    from_cycle = capsys.readouterr().out
    assert run(["union", c8, "--set", "0,1", "--congruence", "-k", "2",
                "--format", fmt]) == 0
    assert from_cycle == capsys.readouterr().out != ""


@pytest.mark.parametrize("extra", ["graph", "coloring"])
def test_union_cycle_with_a_graph_file_or_coloring_is_an_error(tmp_path, capsys, extra):
    run(["construct", "cycle", "8", "-k", "2", "-o", str(tmp_path / "c8")])
    argv = ["union", "--cycle", "8", "--set", "0,1,2", "--copies", "3"]
    if extra == "graph":
        argv.insert(1, str(tmp_path / "c8.graph"))
    else:
        argv += ["--coloring", str(tmp_path / "c8.coloring")]
    capsys.readouterr()
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_union_congruence_route(c8, capsys):
    assert run(["union", c8, "--set", "0,1", "--congruence", "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "modulus" in out and "4" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        ("--set 0,1 --copies 2", "union needs a graph file unless --cycle is given"),
        ("{c8} --set 0,1 --congruence", "union --congruence requires -k"),
        ("{c8} --set 0,1", "union requires --copies"),
        ("--cycle 8 --set 0,1", "union --cycle requires --copies"),
        ("--cycle 8 --set 0,4 --copies 3 -k 3",
         "union takes -k and --format json only with --congruence"),
        ("--cycle 8 --set 0,4 --copies 3 --format json",
         "union takes -k and --format json only with --congruence"),
    ],
)
def test_union_missing_input_is_usage_error(c8, capsys, argv, message):
    assert run(["union", *argv.format(c8=c8).split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_union_congruence_json(c8, capsys):
    assert run(["union", c8, "--set", "0,1", "--congruence", "-k", "2",
                "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["modulus"] == 4
    assert blob["q"] == [1, 1]


@pytest.mark.parametrize(
    "argv,code,digest",
    [
        ("verify {c8} {c8c}", 0,
         "6b5d029406335ee5eeae110c1b70f5d90e9399f10ba081737255a8172b5bedff"),
        ("analyze {k4} -k 2", 1,
         "7b0f45cc7b09a95d3ad1e643455d2bf5b89785346c3db1395ad8df232fab82fe"),
        ("analyze {c8} -k 2", 0,
         "613665c7ca745dbfe5b851dfb3239a620ef8ddd750dfd9d46e7e94bfc25da8a7"),
        ("solve {c8} -k 2", 0,
         "861f0d598ce891312d5d36bd3b485de92b5665af0cd09c39f48d2531fbd128e4"),
        ("solve {c8} -k 2 --mode count", 0,
         "04669c2876d0bca555bae96936158cd00cd795e43c2475fbddb8044594c69b46"),
        ("union {c8} --set 0,1 --congruence -k 2", 0,
         "15ebc32c0f6ded36c8caab26332532cc5fb6625537c9b107ea972d64175d2141"),
    ],
)
def test_json_stdout_is_pinned(tmp_path, capsys, c8, k4, argv, code, digest):
    """Each command's ``--format json`` stdout, pinned by sha256: harnesses
    parse it."""
    c8c = tmp_path / "c8.coloring"
    c8c.write_text(coloring_to_text(cycle_nbc(8)[1]))
    argv = argv.format(c8=c8, c8c=c8c, k4=k4).split()
    assert run([*argv, "--format", "json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_union_plain_route_with_coloring(tmp_path, capsys):
    run(["construct", "cycle", "8", "-k", "2", "-o", str(tmp_path / "base")])
    code = run(
        ["union", str(tmp_path / "base.graph"), "--set", "0,2", "--copies", "3",
         "--coloring", str(tmp_path / "base.coloring"), "-o", str(tmp_path / "u")]
    )
    assert code == 0
    g = graph_from_text((tmp_path / "u.graph").read_text())
    c = coloring_from_text((tmp_path / "u.coloring").read_text())
    assert is_nbkc(g, c).balanced


def test_union_dependent_set_with_coloring_refused(tmp_path, capsys):
    run(["construct", "cycle", "8", "-k", "2", "-o", str(tmp_path / "base")])
    code = run(
        ["union", str(tmp_path / "base.graph"), "--set", "0,1", "--copies", "3",
         "--coloring", str(tmp_path / "base.coloring")]
    )
    assert code == 1
    assert "REFUSED dependent-set" in capsys.readouterr().out


def test_union_graph_only(tmp_path, capsys):
    run(["construct", "cycle", "8", "-k", "2", "-o", str(tmp_path / "base")])
    code = run(["union", str(tmp_path / "base.graph"), "--set", "0,1",
                "--copies", "2", "-o", str(tmp_path / "u")])
    assert code == 0
    assert (tmp_path / "u.graph").exists()


# ---------------------------------------------------------------------------
# reduce / decode
# ---------------------------------------------------------------------------


def test_reduce_solve_decode_pipeline(tmp_path, capsys):
    gf = tmp_path / "red.graph"
    assert run(["reduce", "--ess", "1,2,3", "-k", "2", "-o", str(gf)]) == 0
    assert gf.exists()
    assert (tmp_path / "red.roles").exists()

    wf = tmp_path / "red.coloring"
    assert run(["solve", str(gf), "-k", "2", "-o", str(wf)]) == 0
    capsys.readouterr()

    assert run(["decode", str(gf), str(wf)]) == 0
    out = capsys.readouterr().out
    assert "equal subset sums: 3" in out
    assert "T_1" in out and "T_2" in out


def test_reduce_then_count_a_compiled_instance(tmp_path, capsys):
    """Count mode weights each twin class by its composition, so this count
    finishes in a few hundred nodes; it took over 300,000 when every
    permutation inside a twin class was its own branch."""
    gf = tmp_path / "ess.graph"
    assert run(["reduce", "--ess", "1,2,3,4,5", "-k", "3", "-o", str(gf)]) == 0
    capsys.readouterr()
    assert run(["solve", str(gf), "-k", "3", "--mode", "count", "--budget", "2000"]) == 0
    assert "colorings: 541653102231552" in capsys.readouterr().out
    assert compiled_count((1, 2, 3, 4, 5), 3) == 541653102231552


def test_decode_unbalanced_exits_one(tmp_path, capsys):
    gf = tmp_path / "red.graph"
    run(["reduce", "--ess", "1,1", "-k", "2", "-o", str(gf)])
    g = graph_from_text(gf.read_text())
    cf = tmp_path / "flat.coloring"
    cf.write_text("k 2\n" + "".join(f"v {v} 1\n" for v in range(g.n)))
    assert run(["decode", str(gf), str(cf)]) == 1
    assert "UNBALANCED" in capsys.readouterr().out


def _count_calls(monkeypatch, fn):
    """Route every nbcolor module's binding of ``fn`` through a call log."""
    calls = []

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "nbcolor" or name.startswith("nbcolor."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return calls


def test_decode_verifies_the_coloring_once(tmp_path, monkeypatch, capsys):
    gf = tmp_path / "red.graph"
    assert run(["reduce", "--ess", "1,2,3", "-k", "2", "-o", str(gf)]) == 0
    wf = tmp_path / "red.coloring"
    assert run(["solve", str(gf), "-k", "2", "-o", str(wf)]) == 0
    n = graph_from_text(gf.read_text()).n
    cf = tmp_path / "flat.coloring"
    cf.write_text("k 2\n" + "".join(f"v {v} 1\n" for v in range(n)))
    capsys.readouterr()

    # The balance check runs once; the full report only for an imbalance.
    checks = _count_calls(monkeypatch, _balanced)
    reports = _count_calls(monkeypatch, is_nbkc)
    assert run(["decode", str(gf), str(wf)]) == 0
    assert (len(checks), len(reports)) == (1, 0)
    assert capsys.readouterr().out.startswith("equal subset sums: 3\n")

    checks.clear()
    assert run(["decode", str(gf), str(cf)]) == 1
    assert (len(checks), len(reports)) == (1, 1)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "UNBALANCED"
    assert out[1].endswith(" vertices violate balance")


def test_union_cycle_independent_set_builds_the_union_once(tmp_path, monkeypatch):
    # The expected files are built before the counter goes in: reading a
    # package name while it is patched would cache the counter in the package.
    g8, c8 = cycle_nbc(8)
    spec = nbcolor.UnionSpec(g8, frozenset({0, 2}), 3)
    union, _ = nbcolor.union_over_set(spec)
    coloring = nbcolor.union_nbc_independent(g8, c8, frozenset({0, 2}), 3)
    builds = _count_calls(monkeypatch, nbcolor.unions.union_over_set)
    assert run(["union", "--cycle", "8", "--set", "0,2", "--copies", "3",
                "-o", str(tmp_path / "u")]) == 0
    assert len(builds) == 1
    assert (tmp_path / "u.graph").read_text() == graph_to_text(union)
    assert (tmp_path / "u.coloring").read_text() == coloring_to_text(coloring)


def test_gates_build_no_balance_report(monkeypatch):
    """Builders and the solver gate what they return with the balance check
    alone; the full report is built only where it is printed or returned."""
    checks = _count_calls(monkeypatch, _balanced)
    reports = _count_calls(monkeypatch, is_nbkc)
    g, c = cycle_nbc(8)
    assert solve(g, 2).status == "SAT"
    assert not isinstance(product_nbc("cartesian", g, g, c, c), Refusal)
    assert checks and not reports


@pytest.mark.parametrize("command", ["verify", "decode"])
def test_palette_header_cannot_size_the_verifier(tmp_path, capsys, command):
    """A ``k`` header above the coloring's vertex count exits 2 before any
    k-by-k report is allocated (k = 2000 would take ~60 MiB)."""
    gf = tmp_path / "one.graph"
    gf.write_text("p 1 0\n")
    (tmp_path / "one.roles").write_text("r 0 base 1\n")
    cf = tmp_path / "wide.coloring"
    cf.write_text("k 2000\nv 0 1\n")
    tracemalloc.start()
    try:
        code = run([command, str(gf), str(cf)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 4 * 2**20
    assert "palette size 2000 exceeds the 1 colored vertices" in capsys.readouterr().err


def test_decode_reports_imbalance_before_a_bad_sidecar(tmp_path, capsys):
    gf = tmp_path / "red.graph"
    assert run(["reduce", "--ess", "1,1", "-k", "2", "-o", str(gf)]) == 0
    n = graph_from_text(gf.read_text()).n
    cf = tmp_path / "flat.coloring"
    cf.write_text("k 2\n" + "".join(f"v {v} 1\n" for v in range(n)))
    (tmp_path / "red.roles").write_text("r 0 base\n")  # labels one vertex only
    capsys.readouterr()
    assert run(["decode", str(gf), str(cf)]) == 1
    assert capsys.readouterr().out.startswith("UNBALANCED\n")


def test_reduce_rejects_bad_multiset(capsys):
    assert run(["reduce", "--ess", "1,0,3", "-k", "2", "-o", "/tmp/never.graph"]) == 2


@pytest.mark.parametrize(
    "output,roles",
    [("x.roles", None), ("x.graph", "x.graph"), ("x.graph", "sub/../x.graph")],
)
def test_reduce_refuses_to_write_graph_and_roles_to_one_file(tmp_path, capsys, output, roles):
    """``-o x.roles`` makes the default roles path the graph's own path, and
    ``--roles`` may name it too; either way nothing is written."""
    (tmp_path / "sub").mkdir()
    argv = ["reduce", "--ess", "1,2,3", "-k", "2", "-o", str(tmp_path / output)]
    if roles is not None:
        argv += ["--roles", str(tmp_path / roles)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the graph and its roles would both be written")
    assert not (tmp_path / output).exists()


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_export_dot(tmp_path, c8, capsys):
    run(["construct", "cycle", "8", "-k", "2", "-o", str(tmp_path / "x")])
    capsys.readouterr()
    assert run(["export-dot", str(tmp_path / "x.graph"),
                "--coloring", str(tmp_path / "x.coloring")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph nbc {")
    assert "fillcolor" in out


def test_export_dot_rejects_a_short_coloring(tmp_path, c8, capsys):
    short = tmp_path / "short.coloring"
    short.write_text("k 2\nv 0 1\nv 1 2\n")
    assert run(["export-dot", c8, "--coloring", str(short)]) == 2
    assert capsys.readouterr().err == "error: coloring covers 2 vertices, graph has 8\n"


def test_export_cnf(tmp_path, c8, capsys):
    assert run(["export-cnf", c8, "-k", "2", "-o", str(tmp_path / "f.cnf")]) == 0
    text = (tmp_path / "f.cnf").read_text()
    assert "p cnf " in text


def test_export_cnf_streams_in_bounded_memory(tmp_path, capsys):
    """H(6,3), k=3 is 237,654 clauses and 4.2 MB of text; neither is held
    in memory (a document that kept the 355,023 clauses and 6.3 MB of the
    encoding with a counter for every color peaked at ~52 MiB)."""
    gf = write_graph(tmp_path / "h63.graph", hamming_nbc(6, 3)[0])
    out = tmp_path / "h63.cnf"
    tracemalloc.start()
    try:
        code = run(["export-cnf", gf, "-k", "3", "-o", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2**20
    assert capsys.readouterr().out.endswith(" clauses)\n")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "16d985a309428cf1fea3107de43ee94b6b43c3ebb41f47502a95d214cf3bb30b"
    )


def test_export_cnf_stdout_matches_the_file(tmp_path, c8, capsys):
    out = tmp_path / "f.cnf"
    assert run(["export-cnf", c8, "-k", "2", "-o", str(out)]) == 0
    summary = capsys.readouterr().out
    text = out.read_text()
    header = text.splitlines()[3].split()
    assert summary == f"wrote {out} ({header[2]} vars, {header[3]} clauses)\n"
    assert run(["export-cnf", c8, "-k", "2"]) == 0
    assert capsys.readouterr().out == text


def test_export_cnf_refusal_writes_no_file(tmp_path, c8, capsys):
    out = tmp_path / "f.cnf"
    assert run(["export-cnf", c8, "-k", "1", "-o", str(out)]) == 2
    assert not out.exists()
    assert "palette size must be at least 2" in capsys.readouterr().err


def test_export_cnf_refuses_a_palette_above_the_vertex_count(tmp_path, capsys):
    """The bound ``solve`` applies: an edgeless graph would otherwise pass
    every screen and export n*k selectors for any k."""
    gf = tmp_path / "three.graph"
    gf.write_text("p 3 0\n")
    out = tmp_path / "f.cnf"
    assert run(["export-cnf", str(gf), "-k", "4", "-o", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {gf}: palette size 4 exceeds the 3 vertices\n"


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def test_missing_file_is_usage_error(capsys):
    assert run(["verify", "/nonexistent/g.graph", "/nonexistent/c.coloring"]) == 2


def test_unreadable_file_is_usage_error(tmp_path, c8, capsys):
    assert run(["verify", str(tmp_path), c8]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_internal_error_exits_three(monkeypatch, k4, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("nbcolor.cli._cmd_analyze", crash)
    assert run(["analyze", k4, "-k", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


def test_malformed_graph_reports_location(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("p 3 1\ne 0 9\n")
    assert run(["analyze", str(bad), "-k", "2"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def run_child(argv, preexec_fn=None):
    """Run ``python -m nbcolor.cli argv`` in a child process on this source."""
    src = str(Path(nbcolor.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    return subprocess.run([sys.executable, "-m", "nbcolor.cli", *argv],
                          capture_output=True, text=True, env=env, preexec_fn=preexec_fn)


def run_child_in_1gb(argv):
    """``run_child`` with the child's address space capped at 1 GB (POSIX)."""
    resource = pytest.importorskip("resource")

    def cap():
        limit = 2**30
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    return run_child(argv, preexec_fn=cap)


def test_module_entry_point_runs_the_cli(tmp_path, c8, capsys):
    """``python -m nbcolor.cli`` behaves like ``run``."""
    run(["construct", "cycle", "8", "-k", "2", "-o", str(tmp_path / "ring")])
    argv = ["verify", str(tmp_path / "ring.graph"), str(tmp_path / "ring.coloring")]
    capsys.readouterr()
    code = run(argv)
    expected = capsys.readouterr().out
    proc = run_child(argv)
    assert (proc.returncode, proc.stdout) == (code, expected)
    assert code == 0 and expected.startswith("BALANCED\n")


def test_solve_runs_a_large_sparse_graph_in_1gb(tmp_path, capsys):
    """300,000 isolated vertices: the search state is linear in n + m, where
    a table of one n-bit mask per vertex needs ~5.6 GB."""
    gf, cf = tmp_path / "p300k.graph", tmp_path / "w.coloring"
    gf.write_text("p 300000 0\n")
    proc = run_child_in_1gb(["solve", str(gf), "-k", "2", "--mode", "canonical-min",
                             "-o", str(cf)])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("SAT\n")
    assert run(["verify", str(gf), str(cf)]) == 0
    assert capsys.readouterr().out.startswith("BALANCED\n")


def test_out_of_memory_is_an_input_error(tmp_path):
    """A 14-byte header that asks for 300,000,000 vertices exits 2 with one
    line on stderr, not 3 (an internal error)."""
    gf = tmp_path / "p300m.graph"
    gf.write_text("p 300000000 0\n")
    proc = run_child_in_1gb(["solve", str(gf), "-k", "2"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 2


def test_no_arguments(capsys):
    assert run([]) == 2


# ---------------------------------------------------------------------------
# Fuzzed graph and coloring files
# ---------------------------------------------------------------------------

NEGATIVE_FIRST_WORDS = {"REFUSED", "UNSAT", "UNBALANCED", "BUDGET_EXCEEDED"}

fuzz_tokens = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["p", "e", "k", "v", "c", "#", "x", "1.5", "-", "0x3", "٣", ""]),
    st.text(alphabet="pekvc019 -#\t", max_size=4),
)
fuzz_line = st.lists(fuzz_tokens, max_size=4).map(" ".join)
ROLE_NAMES = ["base", "support", "index", "distributive", "numeric"]
role_label = st.tuples(
    st.sampled_from(ROLE_NAMES), st.one_of(st.none(), st.integers(-1, 6))
).map(lambda t: " ".join(str(x) for x in t if x is not None))
role_line = st.tuples(st.integers(-1, 40), role_label).map(lambda t: f"r {t[0]} {t[1]}")


@st.composite
def mutated(draw, lines, new_lines=fuzz_line):
    """Insert, delete or replace a few lines of a well-formed file."""
    lines = list(lines)
    for op, where, line in draw(
        st.lists(st.tuples(st.sampled_from("idr"), st.integers(0, 40), new_lines), max_size=3)
    ):
        at = where % (len(lines) + 1)
        if op == "i":
            lines.insert(at, line)
        elif lines:
            at %= len(lines)
            if op == "d":
                del lines[at]
            else:
                lines[at] = line
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


@st.composite
def graph_and_coloring_texts(draw):
    """A graph file and a coloring file, mostly of the same vertex count."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = [f"p {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    k = draw(st.integers(1, 4))
    size = draw(st.one_of(st.just(n), st.integers(0, 9)))
    colors = draw(st.lists(st.integers(1, k), min_size=size, max_size=size))
    coloring = [f"k {k}"] + [f"v {v} {c}" for v, c in enumerate(colors)]
    return draw(mutated(graph)), draw(mutated(coloring))


@functools.cache
def compiled_files(values, k):
    """Graph, balanced coloring and role lines of a satisfiable reduction."""
    rinst = reduce_ess_to_nbc(EssInstance(values, k))
    witness = solve(rinst.graph, k).witness
    return (
        graph_to_text(rinst.graph),
        coloring_to_text(witness),
        tuple(roles_to_text(rinst.roles()).splitlines()),
    )


@st.composite
def compiled_texts_with_mutated_roles(draw):
    """A compiled instance, a balanced coloring of it and a mutated sidecar.

    The graph and coloring stay intact so that ``decode`` gets past its
    balance check to the role checks.  The sidecar either has lines
    inserted, deleted or replaced, or one to three lines relabeled in place.
    """
    graph, coloring, roles = compiled_files(
        *draw(st.sampled_from([((1, 1), 2), ((1, 2, 3), 2), ((1, 1, 1), 3)]))
    )
    if draw(st.booleans()):
        return graph, coloring, draw(mutated(roles, role_line))
    roles = list(roles)
    relabels = st.lists(st.tuples(st.integers(0, 40), role_label), min_size=1, max_size=3)
    for at, label in draw(relabels):
        at %= len(roles)
        roles[at] = f"r {roles[at].split()[1]} {label}"
    return graph, coloring, "\n".join(roles) + "\n"


FUZZ_COMMANDS = [
    ["verify", "{g}", "{c}"],
    ["verify", "{g}", "{c}", "--closed"],
    ["analyze", "{g}", "-k", "2"],
    ["solve", "{g}", "-k", "2", "--budget", "300"],
    ["solve", "{g}", "-k", "3", "--mode", "canonical-min", "--budget", "300"],
    ["solve", "{g}", "-k", "2", "--mode", "count", "--budget", "300"],
    ["export-cnf", "{g}", "-k", "2", "-o", "{out}"],
    ["export-dot", "{g}", "--coloring", "{c}", "-o", "{out}"],
    ["product", "cartesian", "{g}", "{g}", "--cg", "{c}", "--ch", "{c}", "-o", "{out}"],
    ["join", "{g}", "{c}", "{g}", "{c}", "-o", "{out}"],
    ["decode", "{g}", "{c}", "--roles", "{r}"],
    ["export-dot", "{g}", "--roles", "{r}", "--coloring", "{c}", "-o", "{out}"],
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_COMMANDS), st.data())
def test_fuzzed_files_keep_the_exit_code_contract(command, data):
    if "{r}" in command:
        graph, coloring, roles = data.draw(compiled_texts_with_mutated_roles())
    else:
        (graph, coloring), roles = data.draw(graph_and_coloring_texts()), ""
    with tempfile.TemporaryDirectory() as tmp:
        g, c, r = Path(tmp, "in.graph"), Path(tmp, "in.coloring"), Path(tmp, "in.roles")
        g.write_text(graph)
        c.write_text(coloring)
        r.write_text(roles)
        argv = [arg.format(g=g, c=c, r=r, out=Path(tmp, "out")) for arg in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    assert code in (0, 1, 2), err.getvalue()
    if code == 1:
        first = out.getvalue().split("\n", 1)[0].split()
        assert first and first[0] in NEGATIVE_FIRST_WORDS, out.getvalue()
