"""Verifier, signed weights, arithmetic screens, recoloring maps."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    bowtie,
    naive_balanced,
    naive_report,
    petersen,
    random_graph,
    subdivided_k5,
)
from nbcolor import (
    Coloring,
    EssInstance,
    Graph,
    Refusal,
    UnbalancedColoring,
    UnionSpec,
    brute_force,
    check_necessary,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    cyclic_shift,
    cycle_nbc,
    decode,
    divisor_recolor,
    embed_in_nbkc,
    hamming_nbc,
    is_closed_nbkc,
    is_nbkc,
    permute_colors,
    product_nbc,
    reduce_ess_to_nbc,
    signed_color_value,
    solve,
    union_over_set,
    weight,
)
from nbcolor.balance import _balanced, _balanced_output, _screen

C8 = cycle_graph(8)
C8_COLORING = Coloring(2, (1, 1, 2, 2, 1, 1, 2, 2))


# ---------------------------------------------------------------------------
# Coloring container
# ---------------------------------------------------------------------------


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring(0, ())  # empty palette
    with pytest.raises(ValueError):
        Coloring(2, (0, 1))  # colors are 1-based
    with pytest.raises(ValueError):
        Coloring(2, (1, 3))  # above palette


def test_coloring_stores_a_list_as_a_tuple():
    c = Coloring(2, [1, 2, 2])
    assert c.colors == (1, 2, 2)
    assert c == Coloring(2, (1, 2, 2))


def test_refusal_str_names_rule_and_detail():
    refusal = Refusal("regular-size", "C_6 has 6 edges")
    assert str(refusal) == "refused (regular-size): C_6 has 6 edges"


def test_coloring_class_sizes_and_used():
    c = Coloring(3, (1, 1, 3, 1))
    assert c.class_sizes() == (3, 0, 1)
    assert c.used_colors() == frozenset({1, 3})


def test_coloring_is_hashable_value_object():
    assert Coloring(2, (1, 2)) == Coloring(2, (1, 2))
    assert hash(Coloring(2, (1, 2))) == hash(Coloring(2, (1, 2)))


# ---------------------------------------------------------------------------
# Signed color values and weights
# ---------------------------------------------------------------------------


def test_signed_values_odd_palettes():
    assert [signed_color_value(i, 3) for i in (1, 2, 3)] == [-1, 0, 1]
    assert [signed_color_value(i, 5) for i in (1, 2, 3, 4, 5)] == [-2, -1, 0, 1, 2]


def test_signed_values_even_palettes_skip_zero():
    assert [signed_color_value(i, 2) for i in (1, 2)] == [-1, 1]
    assert [signed_color_value(i, 4) for i in (1, 2, 3, 4)] == [-2, -1, 1, 2]


@settings(max_examples=40)
@given(st.integers(2, 9))
def test_signed_values_sum_to_zero(k):
    """The palette encoding is antisymmetric, so a balanced neighborhood nets zero."""
    assert sum(signed_color_value(i, k) for i in range(1, k + 1)) == 0


def test_weight_zero_on_balanced_coloring():
    assert [weight(C8, C8_COLORING, v) for v in range(8)] == [0] * 8


def test_weight_detects_imbalance_for_two_colors():
    c = Coloring(2, (1, 2, 1, 2))
    g = cycle_graph(4)
    # each vertex sees two neighbors of one color: +/-2 under the +/-1 encoding
    assert [weight(g, c, v) for v in range(4)] == [2, -2, 2, -2]


def test_zero_weight_is_not_sufficient_for_three_colors():
    """A 3-coloring of C_6 where every signed weight vanishes but counts differ."""
    g = cycle_graph(6)
    c = Coloring(3, (2, 2, 2, 2, 2, 2))  # color 2 has signed value 0
    assert all(weight(g, c, v) == 0 for v in range(6))
    assert not is_nbkc(g, c).balanced


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------


def test_c8_balanced_report():
    rep = is_nbkc(C8, C8_COLORING)
    assert rep.balanced
    assert rep.k == 2
    assert not rep.closed
    assert rep.violations == ()
    assert rep.class_sizes == (4, 4)
    assert rep.unused_colors == ()
    assert rep.weights == (0,) * 8


def test_unbalanced_report_lists_offenders():
    c = Coloring(2, (1, 2, 1, 2, 1, 2, 1, 2))
    rep = is_nbkc(C8, c)
    assert not rep.balanced
    assert len(rep.violations) == 8
    v, counts = rep.violations[0]
    assert v == 0
    assert sorted(counts) == [0, 2]


def test_edge_class_counts_symmetric():
    rep = is_nbkc(C8, C8_COLORING)
    k = rep.k
    for i in range(k):
        for j in range(k):
            assert rep.edge_class_counts[i][j] == rep.edge_class_counts[j][i]
    # theorem: off-diagonal 2|E|/k^2, diagonal |E|/k^2
    assert rep.edge_class_counts[0][1] == 2 * C8.m // 4
    assert rep.edge_class_counts[0][0] == C8.m // 4


def test_isolated_vertices_are_vacuously_balanced():
    g = Graph(3, [])
    rep = is_nbkc(g, Coloring(2, (1, 1, 1)))
    assert rep.balanced
    assert rep.unused_colors == (2,)


def test_isolated_vertex_beside_balanced_cycle():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c = Coloring(2, (1, 1, 2, 2, 1))
    rep = is_nbkc(g, c)
    assert rep.balanced
    assert rep.unused_colors == ()


def test_closed_neighborhood_variant():
    # K_3 rainbow: every closed neighborhood is {1,2,3} exactly once each
    g = complete_graph(3)
    c = Coloring(3, (1, 2, 3))
    assert is_closed_nbkc(g, c).balanced
    assert not is_nbkc(g, c).balanced  # open neighborhoods have only 2 vertices


def test_coloring_length_must_match_order():
    with pytest.raises(ValueError):
        is_nbkc(C8, Coloring(2, (1, 2)))


@settings(max_examples=120)
@given(st.data())
def test_verifier_agrees_with_naive_recount(data):
    n = data.draw(st.integers(1, 8))
    g = random_graph(random.Random(data.draw(st.integers(0, 10**6))), n, 0.5)
    k = data.draw(st.integers(2, 4))
    colors = tuple(data.draw(st.integers(1, k)) for _ in range(n))
    closed = data.draw(st.booleans())
    rep = is_closed_nbkc(g, Coloring(k, colors)) if closed else is_nbkc(g, Coloring(k, colors))
    assert rep.balanced == naive_balanced(g, colors, k, closed=closed)
    # The gates' yes/no check agrees on open neighbourhoods.
    assert _balanced(map(g.neighbors, range(n)), colors, k) == naive_balanced(g, colors, k)
    # The weight diagnostic is over the open neighbourhood in both variants.
    assert rep.weights == tuple(weight(g, Coloring(k, colors), v) for v in range(n))
    assert rep == naive_report(g, colors, k, closed)


def test_reports_match_an_edge_walk():
    """Whole reports, open and closed, equal ``naive_report`` on builder
    graphs and on random graphs with isolated vertices: under each graph's
    balanced coloring if it has one, random colorings, and colorings that
    leave colors unused."""
    rng = random.Random(2602)
    (g8, c8), (g4, c4) = cycle_nbc(8), cycle_nbc(4)
    cases = [(g8, c8), hamming_nbc(3, 3)[:2], hamming_nbc(4, 2)[:2],
             product_nbc("lexicographic", g8, g4, c8, c4)[:2]]
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 15), rng.random())
        cases.append((Graph(g.n + rng.randint(0, 3), g.edges), None))
    checked = 0
    for g, balanced in cases:
        colorings = [balanced] if balanced else []
        for k in (2, 3, 5):
            colorings.append(Coloring(k, [rng.randint(1, k) for _ in range(g.n)]))
            colorings.append(Coloring(k, [rng.randint(1, k - 1) for _ in range(g.n)]))
        for c in colorings:
            for closed, verify in ((False, is_nbkc), (True, is_closed_nbkc)):
                assert verify(g, c) == naive_report(g, c.colors, c.k, closed)
                checked += 1
    assert checked == 2 * (4 * 7 + 20 * 6)


# ---------------------------------------------------------------------------
# Shared rows: the yes/no check reads a repeated row object once
# ---------------------------------------------------------------------------


def _shares_rows(adj):
    return any(a is b for a, b in zip(adj, adj[1:]))


def _shared_row_cases():
    """(name, graph, balanced coloring, whether consecutive rows share) for
    builder graphs that hand one row tuple to several vertices."""
    cases = []
    for values, k in (((1, 2, 3), 2), ((1, 1, 2, 2), 2), ((1, 1, 1), 3), ((2, 2, 2), 3)):
        g = reduce_ess_to_nbc(EssInstance(values, k)).graph
        cases.append((f"reduction of {values}, k={k}", g, solve(g, k).witness, True))
    for sizes, k in (((3, 3, 3), 3), ((4, 4, 4), 2), ((2, 2, 4), 2)):
        g = complete_multipartite_graph(sizes)
        cases.append((f"K{sizes}, k={k}", g, solve(g, k).witness, True))
    # The three copies of C4's vertex 3 see only glued vertices: one row.
    union, _ = union_over_set(UnionSpec(cycle_graph(4), frozenset({0, 1, 2}), 3))
    cases.append(("C4 x3 glued on {0,1,2}", union, solve(union, 2).witness, True))
    # The k copies of a vertex share one row, n places apart.
    for g, k in ((complete_multipartite_graph((2, 3)), 2), (cycle_graph(5), 3)):
        host, c, _ = embed_in_nbkc(g, k)
        cases.append((f"{g} embedded, k={k}", host, c, False))
    return cases


def _one_vertex_recolorings(colors, k, rng, cap=150):
    cells = [(v, c) for v in range(len(colors)) for c in range(1, k + 1) if c != colors[v]]
    if len(cells) > cap:
        cells = rng.sample(cells, cap)
    for v, c in cells:
        yield colors[:v] + (c,) + colors[v + 1:]


def _check_rows_against_the_recount(g, colors, k):
    """``_balanced`` on the whole table and on every two consecutive rows
    equals ``naive_report``'s per-vertex verdicts; so a row right after a
    shared run, and the last row, are each checked on their own."""
    adj = g.adjacency
    bad = {v for v, _ in naive_report(g, colors, k).violations}
    assert _balanced(adj, colors, k) == naive_balanced(g, colors, k) == (not bad)
    for v in range(1, g.n):
        assert _balanced(adj[v - 1:v + 1], colors, k) == (not {v - 1, v} & bad), v
    return bad


def test_shared_rows_agree_with_the_recount():
    rng = random.Random(2790)
    unbalanced_after_a_run = unbalanced_last = 0
    for name, g, c, consecutive in _shared_row_cases():
        adj, k = g.adjacency, c.k
        assert len(set(map(id, adj))) < g.n, name
        assert _shares_rows(adj) == consecutive, name
        assert not _check_rows_against_the_recount(g, c.colors, k), name
        for colors in _one_vertex_recolorings(c.colors, k, rng):
            bad = _check_rows_against_the_recount(g, colors, k)
            assert bad, name
            unbalanced_last += g.n - 1 in bad
            unbalanced_after_a_run += any(
                adj[v - 2] is adj[v - 1] is not adj[v] and v in bad and v - 1 not in bad
                for v in range(2, g.n)
            )
    assert unbalanced_after_a_run and unbalanced_last


def test_recolored_compiled_witness_is_refused():
    """Every one-vertex recoloring of a compiled witness fails the output
    gate and the decoder."""
    rinst = reduce_ess_to_nbc(EssInstance((1, 1, 1), 3))
    g = rinst.graph
    assert _shares_rows(g.adjacency)
    witness = solve(g, 3).witness
    for colors in _one_vertex_recolorings(witness.colors, 3, random.Random(0)):
        c = Coloring(3, colors)
        assert not naive_balanced(g, colors, 3)
        with pytest.raises(AssertionError):
            _balanced_output(g, c, "recolored witness")
        with pytest.raises(UnbalancedColoring):
            decode(rinst, c)


# ---------------------------------------------------------------------------
# Necessity screens
# ---------------------------------------------------------------------------


def test_degree_divisibility_fails_first():
    rep = check_necessary(complete_graph(4), 2)
    assert rep.verdict == "provably-uncolorable"
    assert rep.failed_rule == "degree-divisibility"
    assert rep.degree_offender == 0
    # K_4 is 3-regular, so the regularity sub-report is still filled in
    assert rep.regularity is not None
    assert rep.regularity.degree == 3


def test_min_order_rule():
    rep = check_necessary(cycle_graph(3), 2)
    assert rep.failed_rule == "min-order"
    assert rep.verdict == "provably-uncolorable"


def test_min_order_skipped_when_isolated_vertices_exist():
    rep = check_necessary(Graph(2, []), 2)
    assert rep.verdict == "possibly-colorable"
    assert rep.failed_rule is None


def test_regular_order_rule():
    rep = check_necessary(cycle_graph(5), 2)
    assert rep.failed_rule == "regular-order"
    assert rep.regularity.order_residue == 1


def test_regular_size_rule():
    # C_6: n = 6 is even but |E| = 6 is not a multiple of 4
    rep = check_necessary(cycle_graph(6), 2)
    assert rep.failed_rule == "regular-size"
    assert rep.regularity.size_residue == 2


def test_regularity_skipped_for_irregular_graphs():
    rep = check_necessary(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]), 2)
    assert rep.regularity is None


def test_screens_pass_on_c8():
    rep = check_necessary(C8, 2)
    assert rep.verdict == "possibly-colorable"
    assert rep.failed_rule is None
    assert rep.regularity.order_ok and rep.regularity.size_ok


def test_size_divisibility_rule_on_irregular_graphs():
    # the bowtie: degrees 2 and 4, n = 5 >= 2k, but |E| = 6 is not a multiple of 4
    rep = check_necessary(bowtie(), 2)
    assert rep.failed_rule == "size-divisibility"
    assert rep.degree_ok and rep.order_ok and rep.regularity is None
    assert not rep.size_ok


def test_size_divisibility_rule_with_isolated_vertices():
    # C_6 plus an isolated vertex: the order rules are vacuous, the size rule is not
    g = Graph(7, cycle_graph(6).edges)
    rep = check_necessary(g, 2)
    assert rep.order_detail == "vacuous: isolated vertex present"
    assert rep.failed_rule == "size-divisibility"
    assert brute_force(g, 2).status == "UNSAT"


def test_screens_are_not_sufficient():
    """K_5 with one edge subdivided twice passes every screen yet admits no
    balanced 2-coloring."""
    g = subdivided_k5()
    rep = check_necessary(g, 2)
    assert rep.verdict == "possibly-colorable"
    assert rep.size_ok
    assert brute_force(g, 2).status == "UNSAT"


def _even_graphs(n):
    """Every labelled graph on n >= 1 vertices with all degrees even: each
    graph on the first n - 1 vertices, with vertex n - 1 joined to its
    odd-degree vertices."""
    pairs = list(itertools.combinations(range(n - 1), 2))
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        edges = list(itertools.compress(pairs, chosen))
        odd = set()
        for e in edges:
            odd ^= set(e)
        yield Graph(n, edges + [(v, n - 1) for v in sorted(odd)])


def test_screens_decide_two_colorability_up_to_six_vertices():
    """On every graph with n <= 6 and even degrees (the degree rule refuses
    the rest), k = 2, the screens refuse exactly the graphs that
    ``brute_force`` finds UNSAT, and every balanced one has |E| ≡ 0 (mod 4).
    So the 7-vertex graph of the test above is a smallest example."""
    for n in range(1, 7):
        for g in _even_graphs(n):
            sat = brute_force(g, 2).status == "SAT"
            assert (_screen(g.adjacency, g.m, 2) is None) == sat, g
            assert not sat or g.m % 4 == 0, g


def test_petersen_screens():
    # 3-regular with k=2: degree divisibility fails immediately
    rep = check_necessary(petersen(), 2)
    assert rep.failed_rule == "degree-divisibility"


def test_check_necessary_trivial_palette():
    # k=1 makes every divisibility vacuous: one color is always balanced
    rep = check_necessary(C8, 1)
    assert rep.verdict == "possibly-colorable"


def _circulant(n, jumps):
    return Graph(n, {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in jumps})


def _screen_cases():
    """(graph, k) pairs over which the yes/no screen must agree with the report."""
    rng = random.Random(1906)
    for _ in range(600):
        n = rng.randint(0, 10)
        yield random_graph(rng, n, rng.choice((0.0, 0.2, 0.5, 0.8, 1.0))), rng.randint(1, 5)
    for _ in range(200):  # a graph plus isolated vertices
        n, extra = rng.randint(1, 8), rng.randint(1, 3)
        core = random_graph(rng, n, rng.choice((0.3, 0.7, 1.0)))
        yield Graph(n + extra, core.edges), rng.randint(1, 5)
    for n in range(1, 17):  # circulants: every jump set, so every residue case
        jumps = range(1, n // 2 + 1)
        for size in range(len(jumps) + 1):
            for chosen in itertools.combinations(jumps, size):
                g = _circulant(n, chosen)
                for k in range(1, 5):
                    yield g, k
    for values, k in (((1, 2, 3), 2), ((1, 1, 2), 2), ((1, 2, 3), 3), ((2, 2, 2), 3),
                      ((1, 1, 1, 1), 2), ((1, 2, 4), 3), ((3, 3, 3, 3), 4)):
        yield reduce_ess_to_nbc(EssInstance(values, k)).graph, k


RULES = (
    "degree-divisibility", "min-order", "regular-order", "regular-size", "size-divisibility",
)


def test_screen_agrees_with_the_report():
    seen = set()
    for g, k in _screen_cases():
        rule = check_necessary(g, k).failed_rule
        assert _screen(g.adjacency, g.m, k) == rule, (g, k)
        seen.add(rule)
    assert seen == {None, *RULES}


def test_failed_rule_is_the_first_failing_field():
    """The report's fields say why: its rule is the first check they fail."""
    for g, k in _screen_cases():
        rep = check_necessary(g, k)
        reg = rep.regularity
        checks = (
            rep.degree_ok,
            rep.order_ok,
            reg is None or reg.order_ok,
            reg is None or reg.size_ok,
            rep.size_ok,
        )
        first = next((rule for rule, ok in zip(RULES, checks) if not ok), None)
        assert rep.failed_rule == first, (g, k)
        assert rep.possibly_colorable == (first is None)


# ---------------------------------------------------------------------------
# Recoloring maps
# ---------------------------------------------------------------------------


def test_divisor_recolor_collapses_palette():
    c = Coloring(4, (1, 2, 3, 4, 1, 2, 3, 4))
    out = divisor_recolor(c, 2)
    assert out.k == 2
    assert out.colors == (1, 2, 1, 2, 1, 2, 1, 2)


def test_divisor_recolor_requires_proper_divisor():
    c = Coloring(4, (1, 2, 3, 4))
    with pytest.raises(ValueError):
        divisor_recolor(c, 3)
    with pytest.raises(ValueError):
        divisor_recolor(c, 1)


def test_divisor_recolor_preserves_balance():
    from nbcolor import CirculantSpec, circulant_progression_nbc

    spec = CirculantSpec(24, (1, 4, 7, 10))
    g, c4 = circulant_progression_nbc(spec)
    assert is_nbkc(g, c4).balanced
    halved = divisor_recolor(c4, 2)
    assert halved.k == 2
    assert is_nbkc(g, halved).balanced


def test_cyclic_shift_and_permute_preserve_balance():
    shifted = cyclic_shift(C8_COLORING, 1)
    assert shifted.colors == (2, 2, 1, 1, 2, 2, 1, 1)
    assert is_nbkc(C8, shifted).balanced

    swapped = permute_colors(C8_COLORING, {1: 2, 2: 1})
    assert is_nbkc(C8, swapped).balanced
    assert swapped.colors == shifted.colors


def test_cyclic_shift_rejects_out_of_range():
    with pytest.raises(ValueError):
        cyclic_shift(C8_COLORING, 2)


def test_permute_colors_accepts_a_sequence():
    c = Coloring(3, (1, 2, 3, 3))
    assert permute_colors(c, [2, 3, 1]) == permute_colors(c, {1: 2, 2: 3, 3: 1})
    assert permute_colors(c, (2, 3, 1)).colors == (2, 3, 1, 1)


def test_permute_colors_accepts_any_mapping():
    """Any ``collections.abc.Mapping`` is a table, not only a dict."""
    c = Coloring(3, (1, 2, 3, 3))
    proxy = MappingProxyType({1: 2, 2: 3, 3: 1})
    assert permute_colors(c, proxy) == permute_colors(c, [2, 3, 1])


def test_permute_colors_requires_bijection():
    with pytest.raises(ValueError):
        permute_colors(C8_COLORING, {1: 1, 2: 1})


@settings(max_examples=60)
@given(st.integers(0, 10**6), st.integers(0, 3))
def test_shift_of_balanced_stays_balanced(seed, shift):
    """Adding a constant mod k to every color never disturbs balance."""
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 7), 0.5)
    k = 4
    colors = tuple(rng.randint(1, k) for _ in range(g.n))
    c = Coloring(k, colors)
    before = is_nbkc(g, c).balanced
    after = is_nbkc(g, cyclic_shift(c, shift)).balanced
    assert before == after


# ---------------------------------------------------------------------------
# Built colorings are checked also with asserts stripped
# ---------------------------------------------------------------------------

BROKEN_BUILDERS = """
import nbcolor.families as families
import nbcolor.solver as solver
from nbcolor import Graph, brute_force, cycle_graph, cycle_nbc, solve

assert not __debug__, "asserts must be stripped"


def stop_at_all_ones(adj, k, order, cfg):
    return True, [1] * len(adj), 0, {}, 0


solver._search = stop_at_all_ones
solver._balanced = lambda adj, assignment, k: True
families.cycle_graph = lambda m: Graph(m, [(v, v + 1) for v in range(m - 1)])
for call in (
    lambda: solve(cycle_graph(8), 2),
    lambda: brute_force(cycle_graph(8), 2),
    lambda: cycle_nbc(8),
):
    try:
        print("returned", call())
    except AssertionError as exc:
        print("raised", exc)
"""


def test_unbalanced_built_colorings_raise_under_python_O():
    """A solver that stops at an unbalanced coloring, an enumerator that
    takes any assignment for balanced, and a cycle builder handed a path each
    raise ``AssertionError`` instead of returning the coloring, even though
    ``python -O`` strips every ``assert`` statement."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_BUILDERS], cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3 and all(line.startswith("raised") for line in lines), lines
