"""Glued unions, the congruence screen, and ideal sets on cycles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_balanced
from nbcolor import (
    Graph,
    Refusal,
    UnionSpec,
    brute_force,
    cycle_graph,
    cycle_nbc,
    cycle_union_nbc,
    is_ideal_dependent_set,
    is_nbkc,
    union_congruence,
    union_nbc_independent,
    union_over_set,
)


# ---------------------------------------------------------------------------
# The union construction itself
# ---------------------------------------------------------------------------


def test_union_counts():
    g = cycle_graph(8)
    spec = UnionSpec(g, frozenset({0, 2}), 3)
    big, maps = union_over_set(spec)
    # |S| + n(|V|-|S|) vertices and, with an independent S, n|E| edges
    assert big.n == 2 + 3 * 6
    assert big.m == 3 * 8


def test_union_maps_are_embeddings():
    g = cycle_graph(8)
    s = frozenset({0, 2})
    big, maps = union_over_set(UnionSpec(g, s, 3))
    assert len(maps) == 3
    for copy in maps:
        # every original edge survives under the copy's relabeling
        for a, b in g.edges:
            assert big.has_edge(copy[a], copy[b])
    # glued vertices share labels across copies; free vertices don't
    assert maps[0][0] == maps[1][0] == maps[2][0]
    assert len({m[1] for m in maps}) == 3


def test_union_glued_edges_counted_once():
    g = cycle_graph(8)
    s = frozenset({0, 1, 2})  # induces 2 edges of the cycle
    big, _ = union_over_set(UnionSpec(g, s, 3))
    assert big.n == 3 + 3 * 5
    assert big.m == 2 + 3 * (8 - 2)


def test_union_spec_validation():
    g = cycle_graph(8)
    with pytest.raises(ValueError):
        UnionSpec(g, frozenset(), 2)  # empty glue
    with pytest.raises(ValueError):
        UnionSpec(g, frozenset(range(8)), 2)  # glue must be proper
    with pytest.raises(ValueError):
        UnionSpec(g, frozenset({0}), 0)  # at least one copy
    with pytest.raises(ValueError):
        UnionSpec(g, frozenset({9}), 2)  # out of range


# ---------------------------------------------------------------------------
# Independent glue: balance transfers for every odd number of copies
# ---------------------------------------------------------------------------


def test_independent_union_keeps_balance():
    g, c = cycle_nbc(8)
    for n in (1, 3, 5):
        out = union_nbc_independent(g, c, frozenset({0, 2}), n)
        big, _ = union_over_set(UnionSpec(g, frozenset({0, 2}), n))
        assert is_nbkc(big, out).balanced
        assert naive_balanced(big, out.colors, 2)


def test_independent_union_rejects_dependent_glue():
    g, c = cycle_nbc(8)
    with pytest.raises(ValueError):
        union_nbc_independent(g, c, frozenset({0, 1}), 3)


def test_independent_union_rejects_unbalanced_coloring():
    from nbcolor import Coloring

    g = cycle_graph(8)
    with pytest.raises(ValueError):
        union_nbc_independent(g, Coloring(2, (1, 2) * 4), frozenset({0, 2}), 3)


# ---------------------------------------------------------------------------
# Congruence screen for dependent glue
# ---------------------------------------------------------------------------


def test_one_edge_congruence_is_k_squared():
    g = cycle_graph(8)
    for k in (2, 3, 4):
        rep = union_congruence(g, {0, 1}, k)
        assert rep.q == (1, 1)
        assert rep.p == 1
        assert rep.modulus == k * k
        assert rep.admissible(1)
        assert rep.admissible(k * k + 1)
        assert not rep.admissible(2)


def test_path_glue_congruence():
    # S = three consecutive cycle vertices: degrees inside S are (1, 2, 1)
    rep = union_congruence(cycle_graph(12), {0, 1, 2}, 2)
    assert rep.q == (1, 2, 1)
    assert rep.p == 2
    assert rep.L == 2
    assert rep.M == 2
    assert rep.modulus == 2
    assert rep.admissible(1) and rep.admissible(3)
    assert not rep.admissible(2)


def test_congruence_requires_dependent_glue():
    with pytest.raises(ValueError):
        union_congruence(cycle_graph(8), {0, 2}, 2)


def test_congruence_screen_agrees_with_solver_on_small_cases():
    """For one glued edge of C_8 at k=2 the screen is exact over n = 1..4."""
    g = cycle_graph(8)
    rep = union_congruence(g, {0, 1}, 2)
    for n in (1, 2, 3, 4):
        big, _ = union_over_set(UnionSpec(g, frozenset({0, 1}), n))
        status = brute_force(big, 2).status if big.n <= 22 else None
        if status is None:
            continue
        assert rep.admissible(n) == (status == "SAT"), n


# ---------------------------------------------------------------------------
# Ideal dependent sets on cycles
# ---------------------------------------------------------------------------


def test_ideal_examples():
    ok, why = is_ideal_dependent_set(8, frozenset({0, 1, 2}))
    assert ok
    # a wrapping run is still one component
    ok, _ = is_ideal_dependent_set(8, frozenset({7, 0, 1}))
    assert ok


def test_non_ideal_examples():
    # single path component with an odd number of edges
    ok, why = is_ideal_dependent_set(8, frozenset({0, 1}))
    assert not ok
    ok, _ = is_ideal_dependent_set(8, frozenset({0, 1, 2, 3}))
    assert not ok
    # two components separated by an even gap on one side
    ok, _ = is_ideal_dependent_set(8, frozenset({0, 1, 4, 5}))
    assert not ok


def test_ideal_rejects_independent_sets():
    with pytest.raises(ValueError):
        is_ideal_dependent_set(8, frozenset({0, 2, 4}))
    with pytest.raises(ValueError):
        is_ideal_dependent_set(8, frozenset())


def test_multi_component_ideal_set():
    # components {0,1} and {3,4}: gaps {2} and {5,6,7} both odd
    ok, why = is_ideal_dependent_set(8, frozenset({0, 1, 3, 4}))
    assert ok


# ---------------------------------------------------------------------------
# Balanced unions over ideal sets
# ---------------------------------------------------------------------------


def test_cycle_union_fixture():
    out = cycle_union_nbc(8, frozenset({0, 1, 2}), 3)
    assert not isinstance(out, Refusal)
    g, c = out
    assert g.n == 3 + 3 * 5
    assert is_nbkc(g, c).balanced
    assert naive_balanced(g, c.colors, 2)


def test_cycle_union_refusal_order():
    out = cycle_union_nbc(6, frozenset({0, 1, 2}), 3)
    assert isinstance(out, Refusal) and out.rule == "cycle-order"

    out = cycle_union_nbc(8, frozenset({0, 1, 2}), 2)
    assert isinstance(out, Refusal) and out.rule == "glue-degree"

    out = cycle_union_nbc(8, frozenset({0, 1}), 3)
    assert isinstance(out, Refusal) and out.rule == "not-ideal"

    with pytest.raises(ValueError):
        cycle_union_nbc(8, frozenset({0, 2}), 3)


@pytest.mark.parametrize(
    "m,glue,copies",
    [(8, {0, 1}, 0), (8, {0, 1}, -1), (6, {0, 1, 2}, 0), (8, {0, 9}, 2), (6, {0, 2}, 3)],
)
def test_cycle_union_checks_input_before_refusing(m, glue, copies):
    """Bad copies or glue sets raise even where a refusal rule also applies."""
    with pytest.raises(ValueError):
        cycle_union_nbc(m, frozenset(glue), copies)


def _ideal_sets(m):
    found = []
    for r in range(2, m):
        for s in itertools.combinations(range(m), r):
            fs = frozenset(s)
            try:
                ok, _ = is_ideal_dependent_set(m, fs)
            except ValueError:
                continue
            if ok:
                found.append(fs)
    return found


def test_every_ideal_set_of_c8_yields_balanced_unions():
    """The construction must succeed on all ideal sets, not just the fixture."""
    sets = _ideal_sets(8)
    assert len(sets) == 44  # enumerated once and pinned
    for fs in sets:
        for n in (1, 3):
            out = cycle_union_nbc(8, fs, n)
            assert not isinstance(out, Refusal), (fs, n, out)
            g, c = out
            assert is_nbkc(g, c).balanced, (fs, n)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_ideal_sets(12)), st.sampled_from([1, 3, 5]))
def test_ideal_sets_of_c12_yield_balanced_unions(fs, n):
    out = cycle_union_nbc(12, fs, n)
    assert not isinstance(out, Refusal)
    g, c = out
    assert is_nbkc(g, c).balanced


def test_non_ideal_union_is_genuinely_uncolorable():
    """Brute force confirms the refusal for a small non-ideal case."""
    big, _ = union_over_set(UnionSpec(cycle_graph(8), frozenset({0, 1}), 2))
    assert big.n == 14
    assert brute_force(big, 2).status == "UNSAT"
