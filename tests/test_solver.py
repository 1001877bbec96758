"""Exact search: statuses, counting, canonical witnesses, budgets, deep graphs."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bowtie, naive_balanced, random_graph
from nbcolor import (
    CirculantSpec,
    EssInstance,
    Graph,
    SolveConfig,
    brute_force,
    check_necessary,
    complete_graph,
    count_colorings,
    cycle_graph,
    hypercube_nbc,
    reduce_ess_to_nbc,
    solve,
)


# ---------------------------------------------------------------------------
# Statuses on pinned instances
# ---------------------------------------------------------------------------


def test_c8_sat():
    out = solve(cycle_graph(8), 2)
    assert out.status == "SAT"
    assert naive_balanced(cycle_graph(8), out.witness.colors, 2)


def test_c6_unsat_via_screen():
    out = solve(cycle_graph(6), 2)
    assert out.status == "UNSAT"
    assert out.nodes_explored == 0
    assert out.pruned_by == {"regular-size": 1}


def test_k4_unsat_via_screen():
    out = solve(complete_graph(4), 2)
    assert out.status == "UNSAT"
    assert out.pruned_by == {"degree-divisibility": 1}


def test_bowtie_needs_real_search():
    """All screens pass on the bowtie, so UNSAT must come from backtracking."""
    g = bowtie()
    assert check_necessary(g, 2).verdict == "possibly-colorable"
    out = solve(g, 2)
    assert out.status == "UNSAT"
    assert out.nodes_explored > 0


def test_empty_and_edgeless_graphs_are_trivially_sat():
    assert solve(Graph(0, []), 2).status == "SAT"
    out = solve(Graph(3, []), 2)
    assert out.status == "SAT"
    assert len(out.witness.colors) == 3


def test_palette_validation():
    with pytest.raises(ValueError):
        solve(cycle_graph(8), 1)
    with pytest.raises(ValueError):
        SolveConfig(mode="everything")
        solve(cycle_graph(8), 2, SolveConfig(mode="everything"))


def test_witness_is_always_verified_sat():
    g = CirculantSpec(8, (1, 3)).graph()
    out = solve(g, 2)
    assert out.status == "SAT"
    assert naive_balanced(g, out.witness.colors, 2)


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------


def test_brute_force_matches_pinned_statuses():
    assert brute_force(cycle_graph(8), 2).status == "SAT"
    assert brute_force(cycle_graph(6), 2).status == "UNSAT"
    assert brute_force(bowtie(), 2).status == "UNSAT"


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force(Graph(25, []), 2)
    # a custom cap loosens the limit
    assert brute_force(Graph(25, []), 2, cap_bits=25).status == "SAT"


def test_brute_force_witness_is_valid():
    out = brute_force(cycle_graph(4), 2)
    assert naive_balanced(cycle_graph(4), out.witness.colors, 2)


# ---------------------------------------------------------------------------
# Oracle agreement
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3))
def test_solver_agrees_with_enumeration(seed, k):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.8))
    fast = solve(g, k)
    slow = brute_force(g, k)
    assert fast.status == slow.status
    if fast.status == "SAT":
        assert naive_balanced(g, fast.witness.colors, k)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "graph,k,expected",
    [
        (cycle_graph(4), 2, 4),
        (cycle_graph(8), 2, 4),
        (cycle_graph(12), 2, 4),
        (CirculantSpec(8, (1, 3)).graph(), 2, 36),
        (Graph(3, []), 2, 8),
        (complete_graph(4), 2, 0),
    ],
)
def test_pinned_counts(graph, k, expected):
    assert count_colorings(graph, k) == expected
    out = solve(graph, k, SolveConfig(mode="count"))
    assert out.count == expected


def test_k33_count():
    from nbcolor import complete_multipartite_graph

    g = complete_multipartite_graph((3, 3))
    assert count_colorings(g, 3) == 36
    assert solve(g, 3, SolveConfig(mode="count")).count == 36


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3))
def test_count_mode_agrees_with_enumeration(seed, k):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 7), 0.5)
    assert solve(g, k, SolveConfig(mode="count")).count == count_colorings(g, k)


# ---------------------------------------------------------------------------
# Canonical minimum witness
# ---------------------------------------------------------------------------


def test_canonical_min_pinned():
    out = solve(cycle_graph(8), 2, SolveConfig(mode="canonical-min"))
    assert out.witness.colors == (1, 1, 2, 2, 1, 1, 2, 2)
    out = solve(CirculantSpec(8, (1, 3)).graph(), 2, SolveConfig(mode="canonical-min"))
    assert out.witness.colors == (1, 1, 1, 1, 2, 2, 2, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_canonical_min_is_lexicographic_minimum(seed):
    import itertools

    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 6), 0.6)
    out = solve(g, 2, SolveConfig(mode="canonical-min"))
    all_balanced = [
        assignment
        for assignment in itertools.product((1, 2), repeat=g.n)
        if naive_balanced(g, assignment, 2)
    ]
    if not all_balanced:
        assert out.status == "UNSAT"
    else:
        assert out.status == "SAT"
        assert out.witness.colors == min(all_balanced)


# ---------------------------------------------------------------------------
# Same-color constraints
# ---------------------------------------------------------------------------


def test_same_color_restricts_count():
    g = cycle_graph(8)
    assert solve(g, 2, SolveConfig(mode="count", same_color=((0, 1),))).count == 2
    assert solve(g, 2, SolveConfig(mode="count", same_color=((0, 2),))).count == 0


def test_same_color_witness_respects_groups():
    g = CirculantSpec(8, (1, 3)).graph()
    out = solve(g, 2, SolveConfig(same_color=((0, 5), (5, 7))))
    assert out.status == "SAT"
    c = out.witness.colors
    assert c[0] == c[5] == c[7]
    assert naive_balanced(g, c, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_same_color_count_matches_filtered_enumeration(seed):
    import itertools

    rng = random.Random(seed)
    n = rng.randint(2, 6)
    g = random_graph(rng, n, 0.5)
    u, v = rng.sample(range(n), 2)
    got = solve(g, 2, SolveConfig(mode="count", same_color=((u, v),))).count
    want = sum(
        1
        for assignment in itertools.product((1, 2), repeat=n)
        if assignment[u] == assignment[v] and naive_balanced(g, assignment, 2)
    )
    assert got == want


def test_same_color_vertex_validation():
    with pytest.raises(ValueError):
        solve(cycle_graph(4), 2, SolveConfig(same_color=((0, 9),)))


# ---------------------------------------------------------------------------
# Budgets and statistics
# ---------------------------------------------------------------------------


def test_budget_exceeded():
    g = CirculantSpec(24, (1, 4, 7, 10)).graph()
    out = solve(g, 4, SolveConfig(node_budget=5))
    assert out.status == "BUDGET_EXCEEDED"
    assert out.witness is None


def test_budget_generous_enough_solves():
    out = solve(cycle_graph(8), 2, SolveConfig(node_budget=10**6))
    assert out.status == "SAT"


def test_pruned_by_keys_are_known():
    out = solve(bowtie(), 2)
    assert set(out.pruned_by) <= {"quota", "deficit", "symmetry"}
    assert out.nodes_explored > 0


# ---------------------------------------------------------------------------
# Deep graphs and the explored tree
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "g", [cycle_graph(1200), hypercube_nbc(10)[0]], ids=["C1200", "Q10"]
)
def test_search_depth_is_not_bounded_by_the_call_stack(g):
    out = solve(g, 2)
    assert out.status == "SAT"
    assert naive_balanced(g, out.witness.colors, 2)


def test_explored_tree_is_pinned_on_a_reduction_instance():
    g = reduce_ess_to_nbc(EssInstance((1, 2, 3, 4), 2)).graph
    out = solve(g, 2)
    assert out.status == "SAT"
    assert out.nodes_explored == 223
    assert out.pruned_by == {"symmetry": 1, "quota": 159, "deficit": 23}
    out = solve(g, 2, SolveConfig(mode="count"))
    assert out.count == 4096
    assert out.nodes_explored == 8453
    assert out.pruned_by == {"symmetry": 1, "quota": 4298, "deficit": 30}
