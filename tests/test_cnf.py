"""CNF export checked against an independent DPLL solver."""

import hashlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bowtie, complete_model, dpll, naive_balanced, petersen, random_graph
from nbcolor import (
    CnfDocument,
    Graph,
    brute_force,
    complete_graph,
    complete_multipartite_graph,
    count_colorings,
    cycle_graph,
    hamming_nbc,
    hypercube_nbc,
    to_cnf,
)


def test_selector_numbering():
    doc = to_cnf(cycle_graph(4), 2)
    assert doc.var(0, 1) == 1
    assert doc.var(0, 2) == 2
    assert doc.var(3, 2) == 8
    # registers come after the n*k selectors
    assert doc.num_vars >= 8


def test_dimacs_shape():
    doc = to_cnf(cycle_graph(4), 2)
    lines = doc.to_dimacs().splitlines()
    comments = [l for l in lines if l.startswith("c ")]
    assert comments
    header = next(l for l in lines if l.startswith("p "))
    _, _, nv, nc = header.split()
    assert int(nv) == doc.num_vars
    assert int(nc) == len(doc.clauses)
    # every clause line is zero-terminated
    clause_lines = [l for l in lines if not l.startswith(("c ", "p "))]
    assert all(l.endswith(" 0") for l in clause_lines)
    assert len(clause_lines) == len(doc.clauses)


def test_degree_screen_becomes_empty_clause():
    doc = to_cnf(complete_graph(4), 2)
    assert doc.clauses == ((),)
    assert dpll(doc.clauses) is None


def _cnf_status(g, k):
    doc = to_cnf(g, k)
    model = dpll(doc.clauses)
    if model is None:
        return "UNSAT", None, None
    coloring = doc.decode_model(complete_model(model, doc.num_vars))
    return "SAT", coloring, doc


@pytest.mark.parametrize(
    "g,k",
    [
        (cycle_graph(4), 2),
        (cycle_graph(6), 2),
        (cycle_graph(8), 2),
        (bowtie(), 2),
        (complete_multipartite_graph((2, 2)), 2),
        (complete_multipartite_graph((3, 3)), 3),
        (petersen(), 2),
        (Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]), 2),
    ],
)
def test_cnf_status_matches_enumeration(g, k):
    status, coloring, doc = _cnf_status(g, k)
    assert status == brute_force(g, k).status
    if status == "SAT":
        assert naive_balanced(g, coloring.colors, k)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_cnf_random_round_trip(seed):
    """Solving the exported CNF with DPLL reproduces the brute-force verdict."""
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 6), 0.5)
    status, coloring, _ = _cnf_status(g, 2)
    assert status == brute_force(g, 2).status
    if coloring is not None:
        assert naive_balanced(g, coloring.colors, 2)


def test_decode_model_rejects_ambiguous_assignments():
    doc = to_cnf(cycle_graph(4), 2)
    broken = [1, 2] + [-v for v in range(3, doc.num_vars + 1)]
    with pytest.raises(ValueError):
        doc.decode_model(broken)  # vertex 0 selects two colors


def test_isolated_vertices_encode_fine():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    status, coloring, _ = _cnf_status(g, 2)
    assert status == "SAT"
    assert naive_balanced(g, coloring.colors, 2)


def _mixed_degrees():
    """K(3,6) plus two isolated vertices: degrees 6, 3 and 0, so three templates."""
    return Graph(11, complete_multipartite_graph((3, 6)).edges)


@pytest.mark.parametrize(
    "build,k,digest",
    [
        pytest.param(lambda: hamming_nbc(3, 3)[0], 3,
                     "8ad1b62d2be27a06e12b93ddfbabeabf807e632c03fac111449be366c2e1fe30",
                     id="H(3,3)"),
        pytest.param(lambda: hypercube_nbc(4)[0], 2,
                     "c73a36bc18d99cddc5483ebc78ee7293c2304da4159307357876744ba8d35ae1",
                     id="Q4"),
        pytest.param(lambda: cycle_graph(8), 2,
                     "167250acf933d8880ec0ed6379c8a8654490ba4dd3f06390321e3d2712e4a139",
                     id="C8"),
        pytest.param(lambda: hamming_nbc(6, 3)[0], 3,
                     "16d985a309428cf1fea3107de43ee94b6b43c3ebb41f47502a95d214cf3bb30b",
                     id="H(6,3)"),
        pytest.param(_mixed_degrees, 3,
                     "32644b02057f120aaefb4664dcfc13e34da65051d6d5ecc9a9a39824f08e47e1",
                     id="K(3,6)+2"),
    ],
)
def test_dimacs_bytes_are_pinned(build, k, digest):
    text = to_cnf(build(), k).to_dimacs()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_refused_instance_document_is_pinned():
    assert to_cnf(complete_graph(4), 2).to_dimacs() == (
        "c balanced 2-coloring of a graph with 4 vertices, 6 edges\n"
        "c selector variable for vertex v (0-based) and color c (1..2): v*2 + c\n"
        "c selectors occupy 1..8; counter registers follow\n"
        "c vertex 0 has degree 3, not a multiple of 2: the instance is trivially "
        "unsatisfiable\n"
        "p cnf 8 1\n"
        " 0\n"
    )


def test_empty_and_edgeless_documents_are_pinned():
    assert to_cnf(Graph(0), 2).to_dimacs() == (
        "c balanced 2-coloring of a graph with 0 vertices, 0 edges\n"
        "c selector variable for vertex v (0-based) and color c (1..2): v*2 + c\n"
        "c selectors occupy 1..0; counter registers follow\n"
        "p cnf 0 0\n"
    )
    assert to_cnf(Graph(3), 3).to_dimacs() == (
        "c balanced 3-coloring of a graph with 3 vertices, 0 edges\n"
        "c selector variable for vertex v (0-based) and color c (1..3): v*3 + c\n"
        "c selectors occupy 1..9; counter registers follow\n"
        "p cnf 9 12\n"
        "1 2 3 0\n-1 -2 0\n-1 -3 0\n-2 -3 0\n"
        "4 5 6 0\n-4 -5 0\n-4 -6 0\n-5 -6 0\n"
        "7 8 9 0\n-7 -8 0\n-7 -9 0\n-8 -9 0\n"
    )


DOCUMENT_CASES = [
    (Graph(0), 2),
    (Graph(4), 2),
    (complete_graph(4), 2),
    (cycle_graph(8), 2),
    (_mixed_degrees(), 3),
    (complete_multipartite_graph((2, 4, 6)), 2),
    (hamming_nbc(3, 3)[0], 3),
]


@pytest.mark.parametrize("g,k", DOCUMENT_CASES)
def test_clauses_agree_with_the_text(g, k):
    """``clauses``, built on first access, the returned text and the
    streamed text are one document: same count, same literals, same order.
    Streaming returns the counts of the header it wrote."""
    doc = to_cnf(g, k)
    assert len(doc.clauses) == doc.num_clauses
    sink = io.StringIO()
    assert doc.to_dimacs(sink) == (doc.num_vars, doc.num_clauses)
    assert sink.getvalue() == doc.to_dimacs()
    lines = sink.getvalue().splitlines()[len(doc.comments) + 1:]
    assert [tuple(map(int, line.split()[:-1])) for line in lines] == list(doc.clauses)


@pytest.mark.parametrize("g,k", DOCUMENT_CASES + [(Graph(4, [(0, 1)]), 2), (cycle_graph(4), 2)])
def test_header_counts_the_clauses_and_every_literal(g, k):
    """The ``p cnf V C`` header states the document's own sizes: C clause
    lines follow it and none names a variable above V, for refused instances
    and for documents built by hand from k, comments and a graph."""
    for doc in (to_cnf(g, k), CnfDocument(k, ("c",), g)):
        lines = doc.to_dimacs().splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("p "))
        _, _, num_vars, num_clauses = lines[start].split()
        clauses = lines[start + 1:]
        assert len(clauses) == int(num_clauses)
        assert all(abs(int(lit)) <= int(num_vars) for line in clauses for lit in line.split())


def _models(clauses, num_vars, limit):
    """The models of ``clauses`` over variables 1..num_vars, at most
    ``limit`` of them, found by DPLL with each full model blocked before
    the next search."""
    clauses, found = list(clauses), []
    while len(found) < limit and (model := dpll(clauses)) is not None:
        full = complete_model(model, num_vars)
        found.append(full)
        clauses.append(tuple(-lit for lit in full))
    return found


@pytest.mark.parametrize(
    "g,k",
    [
        (cycle_graph(4), 2),
        (cycle_graph(8), 2),
        (Graph(5, cycle_graph(4).edges), 2),
        (complete_multipartite_graph((3, 3)), 3),
    ],
    ids=["C4", "C8", "C4+1", "K(3,3)"],
)
def test_one_model_per_balanced_coloring(g, k):
    """The registers are fully defined and color k's count is implied, so
    the formula has exactly one model per balanced coloring, each decoding
    to a distinct balanced coloring."""
    doc, count = to_cnf(g, k), count_colorings(g, k)
    models = _models(doc.clauses, doc.num_vars, count + 1)
    assert len(models) == count
    colorings = {doc.decode_model(model).colors for model in models}
    assert len(colorings) == len(models)
    assert all(naive_balanced(g, colors, k) for colors in colorings)


def test_cnf_document_refuses_a_palette_of_one_under_python_O():
    """``to_cnf``'s palette check holds for a document built by hand, and is
    no ``assert``, so ``python -O`` keeps it (``tests/test_input_checks.py``
    tries k = 1, 0 and 2.5 in-process)."""
    root = Path(__file__).resolve().parent.parent
    code = (
        "from nbcolor import CnfDocument, cycle_graph\n"
        "try:\n"
        "    print(CnfDocument(1, ('c',), cycle_graph(4)).to_dimacs())\n"
        "except ValueError as exc:\n"
        "    print('refused', exc)\n"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "refused palette size must be at least 2, got 1\n"
