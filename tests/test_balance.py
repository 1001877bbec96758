"""Verifier, signed weights, arithmetic screens, recoloring maps."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bowtie, naive_balanced, petersen, random_graph
from nbcolor import (
    Coloring,
    EssInstance,
    Graph,
    Refusal,
    check_necessary,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    cyclic_shift,
    divisor_recolor,
    is_closed_nbkc,
    is_nbkc,
    permute_colors,
    reduce_ess_to_nbc,
    signed_color_value,
    weight,
)
from nbcolor.balance import _balanced, _screen

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


def test_screens_are_not_sufficient():
    """The bowtie passes every screen yet admits no balanced 2-coloring."""
    rep = check_necessary(bowtie(), 2)
    assert rep.verdict == "possibly-colorable"


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


RULES = ("degree-divisibility", "min-order", "regular-order", "regular-size")


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
