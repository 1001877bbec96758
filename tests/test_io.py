"""Text formats: edge lists, colorings, role sidecars, DOT, JSON reports."""

import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_graph
from nbcolor import (
    Coloring,
    Graph,
    ParseError,
    SolveConfig,
    check_necessary,
    coloring_from_text,
    coloring_to_text,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    cycle_nbc,
    graph_from_text,
    graph_to_text,
    is_nbkc,
    report_to_json,
    roles_from_text,
    roles_to_text,
    solve,
    to_dot,
    union_congruence,
)


# ---------------------------------------------------------------------------
# Graph files
# ---------------------------------------------------------------------------


def test_graph_round_trip_c4():
    g, _ = cycle_nbc(4)
    text = graph_to_text(g)
    assert text == "p 4 4\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n"
    assert graph_from_text(text) == g


def test_graph_text_ignores_comments_and_blanks():
    text = "c a ring\n\np 3 2\ne 0 1\nc middle\ne 1 2\n"
    g = graph_from_text(text)
    assert g.n == 3
    assert g.m == 2


def test_graph_comment_needs_a_lone_c_field():
    assert graph_from_text("  c a ring\np 2 1\ne 0 1\n").m == 1
    with pytest.raises(ParseError) as err:
        graph_from_text("cat food\np 2 1\ne 0 1\n")
    assert (err.value.line, err.value.column) == (1, 1)
    assert err.value.reason == "unknown record type 'cat'"


@settings(max_examples=80)
@given(st.integers(0, 10**6))
def test_graph_round_trip_random(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 12), 0.4)
    assert graph_from_text(graph_to_text(g)) == g


def test_graph_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        graph_from_text("p 3\ne 0 1\n")
    assert err.value.line == 1

    with pytest.raises(ParseError) as err:
        graph_from_text("p 3 1\ne 0 5\n")
    assert err.value.line == 2
    assert err.value.column == 5

    with pytest.raises(ParseError):
        graph_from_text("p 3 2\ne 0 1\n")  # header promises 2 edges

    with pytest.raises(ParseError) as err:
        graph_from_text("c hi\np 2 2\ne 0 1\n")
    assert (err.value.line, err.value.column) == (2, 5)  # the declared count

    with pytest.raises(ParseError):
        graph_from_text("p 3 1\nq 0 1\n")  # unknown record

    with pytest.raises(ParseError):
        graph_from_text("e 0 1\n")  # edge before header


def test_graph_parse_rejects_non_numeric_fields():
    with pytest.raises(ParseError) as err:
        graph_from_text("p 3 1\ne zero 1\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text,where",
    [
        ("p 2 1\np 2 1\ne 0 1\n", (2, 1, "duplicate 'p' header")),
        ("p -1 0\n", (1, 3, "vertex count is negative")),
        ("p  -3   0\n", (1, 4, "vertex count is negative")),
        ("p 2 1\ne 1 1\n", (2, 3, "self-loop at vertex 1")),
        ("p 3 1\n  e  2   2\n", (2, 6, "self-loop at vertex 2")),
    ],
)
def test_graph_parse_error_positions(text, where):
    with pytest.raises(ParseError) as err:
        graph_from_text(text)
    assert (err.value.line, err.value.column, err.value.reason) == where


# ---------------------------------------------------------------------------
# Coloring files
# ---------------------------------------------------------------------------


def test_coloring_round_trip():
    c = Coloring(3, (1, 3, 2, 2))
    assert coloring_from_text(coloring_to_text(c)) == c


def test_coloring_text_shape():
    _, c = cycle_nbc(4)
    assert coloring_to_text(c) == "k 2\nv 0 1\nv 1 1\nv 2 2\nv 3 2\n"


def test_coloring_parse_errors():
    with pytest.raises(ParseError):
        coloring_from_text("v 0 1\n")  # values before the palette line
    with pytest.raises(ParseError):
        coloring_from_text("k 2\nv 0 1\nv 0 2\n")  # duplicate vertex
    with pytest.raises(ParseError):
        coloring_from_text("k 2\nv 1 2\n")  # vertex 0 never colored
    with pytest.raises(ParseError):
        coloring_from_text("k 2\nv 0 3\n")  # color above palette


@pytest.mark.parametrize(
    "text,where",
    [
        ("k 2\nk 2\n", (2, 1, "duplicate 'k' header")),
        ("k 2 3\n", (1, 1, "'k' header needs exactly 1 number")),
        ("k 0\n", (1, 3, "palette size 0 < 1")),
        ("k  -1\n", (1, 4, "palette size -1 < 1")),
        ("k 2\nv 0\n", (2, 1, "'v' line needs a vertex and a color")),
        ("k 2\nv 0 1 2\n", (2, 1, "'v' line needs a vertex and a color")),
        ("k 2\nv -1 1\n", (2, 3, "vertex -1 is negative")),
        ("k 2\n v  -4 1\n", (2, 5, "vertex -4 is negative")),
    ],
)
def test_coloring_parse_error_positions(text, where):
    with pytest.raises(ParseError) as err:
        coloring_from_text(text)
    assert (err.value.line, err.value.column, err.value.reason) == where


@settings(max_examples=40)
@given(st.integers(2, 5), st.data())
def test_coloring_round_trip_random(k, data):
    colors = tuple(data.draw(st.integers(1, k)) for _ in range(data.draw(st.integers(0, 10))))
    c = Coloring(k, colors)
    assert coloring_from_text(coloring_to_text(c)) == c


# ---------------------------------------------------------------------------
# Role sidecars
# ---------------------------------------------------------------------------


def test_roles_round_trip():
    roles = {0: ("base", 2), 1: ("support", 2), 2: ("index", 2), 3: ("distributive", None)}
    assert roles_from_text(roles_to_text(roles)) == roles


def test_roles_parse_is_permissive_about_vocabulary():
    # the file layer records whatever role names appear; semantic checks
    # happen when the sidecar is actually used for decoding
    out = roles_from_text("r 0 zebra 1\n")
    assert out == {0: ("zebra", 1)}


def test_roles_parse_errors():
    with pytest.raises(ParseError):
        roles_from_text("r 0\n")  # role name missing
    with pytest.raises(ParseError):
        roles_from_text("r 0 base 1\nr 0 index 1\n")  # duplicate vertex


@pytest.mark.parametrize(
    "text,where",
    [
        ("x 0 base 1\n", (1, 1, "unknown record type 'x'")),
        ("r 0 base 1\ne 0 1\n", (2, 1, "unknown record type 'e'")),
    ],
)
def test_roles_parse_error_positions(text, where):
    with pytest.raises(ParseError) as err:
        roles_from_text(text)
    assert (err.value.line, err.value.column, err.value.reason) == where


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------


def test_dot_with_coloring():
    g, c = cycle_nbc(8)
    dot = to_dot(g, c)
    assert dot.startswith("graph nbc {")
    assert dot.count(" -- ") == 8
    node_lines = [l for l in dot.splitlines() if "fillcolor" in l]
    assert len(node_lines) == 8
    fills = set(re.findall(r'fillcolor="(#[0-9a-f]{6})"', dot))
    assert len(fills) == 2


def test_dot_without_coloring_has_no_fills():
    g, _ = cycle_nbc(8)
    dot = to_dot(g)
    assert "fillcolor" not in dot
    assert dot.count(" -- ") == 8


def test_dot_roles_become_shapes():
    from nbcolor import EssInstance, reduce_ess_to_nbc

    rinst = reduce_ess_to_nbc(EssInstance((1, 1), 2))
    out = solve(rinst.graph, 2)
    dot = to_dot(rinst.graph, out.witness, dict(rinst.roles()))
    assert "shape=box" in dot  # bases
    assert "shape=ellipse" in dot  # supports
    assert "shape=diamond" in dot  # indexes
    assert "shape=hexagon" in dot  # distributive


def test_dot_large_palette_falls_back_to_labels():
    c = Coloring(13, tuple((i % 13) + 1 for i in range(13)))
    dot = to_dot(Graph(13, []), c)
    assert "fillcolor" not in dot
    assert 'label="0:1"' in dot


def test_dot_deterministic():
    g, c = cycle_nbc(8)
    assert to_dot(g, c) == to_dot(g, c)


# ---------------------------------------------------------------------------
# JSON reports
# ---------------------------------------------------------------------------


def test_balance_report_to_json():
    g, c = cycle_nbc(8)
    blob = json.loads(report_to_json(is_nbkc(g, c)))
    assert blob["balanced"] is True
    assert blob["k"] == 2
    assert blob["class_sizes"] == [4, 4]


def test_necessity_report_to_json():
    blob = json.loads(report_to_json(check_necessary(complete_graph(4), 2)))
    assert blob["verdict"] == "provably-uncolorable"
    assert blob["failed_rule"] == "degree-divisibility"
    assert blob["regularity"]["degree"] == 3
    assert blob["size_ok"] is False  # |E| = 6 is not a multiple of 4


def pin(name, build, digest):
    return pytest.param(build, digest, id=name)


C8, C8_COLORING = cycle_nbc(8)

JSON_PINS = [
    pin("balance-balanced", lambda: is_nbkc(C8, C8_COLORING),
        "2dc2ba056d74438102fc03257743ced306f118319e60e8709d3004dd0403715b"),
    pin("balance-unbalanced",
        lambda: is_nbkc(cycle_graph(6), Coloring(3, (1, 1, 2, 2, 1, 1))),
        "c4df8c894858f6cae61188399ea5cd5d51889d1442501f66aed0b5a7a6dd4a9d"),
    pin("necessity-with-regularity", lambda: check_necessary(complete_graph(4), 2),
        "02e8ee58526f1a2b38970b498493d2f35a80090f2599384b4ca6da9ff29310ed"),
    pin("necessity-without-regularity",
        lambda: check_necessary(complete_multipartite_graph((1, 2)), 2),
        "113e0b00b8b9c015484393b612d9ce2585b06546c5d8b9f09615605d55b499ee"),
    pin("solve-sat-witness", lambda: solve(C8, 2),
        "bb1a6616ce734f182272cd1a6c8cbc9d79b3e0e21841f7ad6c9f7830c8feb227"),
    pin("solve-count", lambda: solve(C8, 2, SolveConfig(mode="count")),
        "453654befd36eb7ac4789bab22d9bff2c28765cd9d3e3f0b8e68fb92285f2c81"),
    pin("solve-budget-exceeded",
        lambda: solve(cycle_graph(24), 2, SolveConfig(node_budget=3)),
        "f9e5432abc88dddda91f7454f0997f9218870056777a3477ffd6bc30459967b8"),
    pin("congruence", lambda: union_congruence(C8, {0, 1}, 2),
        "ce7939dd40a1d6bd9dcab21a9d207159f77f0d38f614b737dc36262c7cdabe00"),
]


@pytest.mark.parametrize("build,digest", JSON_PINS)
def test_report_json_bytes_are_pinned(build, digest):
    """Each report's JSON bytes, pinned by sha256: tools parse this output."""
    text = report_to_json(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("indent,column", [("  ", 3), ("\t", 2)], ids=["spaces", "tab"])
@pytest.mark.parametrize(
    "parse,text,line,reason",
    [
        (graph_from_text, "p 2 0\n{}p 3 0\n", 2, "duplicate 'p' header"),
        (graph_from_text, "{}p 2\n", 1, "'p' header needs 2 numbers, got 1"),
        (graph_from_text, "{}e 0 1\np 2 1\n", 1, "'e' line before the 'p' header"),
        (graph_from_text, "p 2 1\n{}e 0\n", 2, "'e' line needs 2 endpoints, got 1"),
        (graph_from_text, "p 2 0\n\n{}q 1\n", 3, "unknown record type 'q'"),
        (coloring_from_text, "k 2\n{}k 2\n", 2, "duplicate 'k' header"),
        (coloring_from_text, "{}k 2 3\n", 1, "'k' header needs exactly 1 number"),
        (coloring_from_text, "{}v 0 1\nk 2\n", 1, "'v' line before the 'k' header"),
        (coloring_from_text, "k 2\n{}v 0\n", 2, "'v' line needs a vertex and a color"),
        (coloring_from_text, "k 2\n{}q 1\n", 2, "unknown record type 'q'"),
        (roles_from_text, "\n{}q 1\n", 2, "unknown record type 'q'"),
        (
            roles_from_text,
            "r 0 base 1\n{}r 1\n",
            2,
            "'r' line needs a vertex, a role, and an optional element",
        ),
    ],
)
def test_record_errors_point_at_an_indented_tag(parse, text, line, reason, indent, column):
    with pytest.raises(ParseError) as err:
        parse(text.format(indent))
    assert (err.value.line, err.value.column, err.value.reason) == (line, column, reason)
