"""Exact search: statuses, counting, canonical witnesses, budgets, deep graphs,
twin-class symmetry breaking, the dynamic vertex choice of first-witness."""

import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nbcolor.balance
from helpers import bowtie, dpll, naive_balanced, random_graph, subdivided_k5
from nbcolor import (
    CirculantSpec,
    EssInstance,
    Graph,
    SolveConfig,
    UnionSpec,
    brute_force,
    check_necessary,
    circulant_progression_nbc,
    circulant_residue_nbc,
    complete_graph,
    complete_multipartite_graph,
    complete_multipartite_nbc,
    count_colorings,
    cycle_graph,
    cycle_nbc,
    cycle_union_nbc,
    hamming_nbc,
    hypercube_nbc,
    product_nbc,
    reduce_ess_to_nbc,
    solve,
    to_cnf,
    union_over_set,
)
from nbcolor.solver import _connected_order, _vertex_order


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


MODES = ("first-witness", "canonical-min", "count")

# One graph refused by each screen at k=2, in rule order.
SCREENED = (
    ("degree-divisibility", complete_graph(4)),
    ("min-order", cycle_graph(3)),
    ("regular-order", cycle_graph(5)),
    ("regular-size", cycle_graph(6)),
    ("size-divisibility", bowtie()),
)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rule,g", SCREENED)
def test_screen_refusal_outcome(rule, g, mode):
    out = solve(g, 2, SolveConfig(mode=mode))
    assert out.status == "UNSAT"
    assert out.witness is None
    assert out.count == (0 if mode == "count" else None)
    assert out.nodes_explored == 0
    assert list(out.pruned_by.items()) == [(rule, 1)]


def test_solve_builds_no_necessity_report(monkeypatch):
    """The gate answers yes or no; only ``check_necessary`` builds reports."""
    made = []

    class CountingReport(nbcolor.balance.NecessityReport):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(nbcolor.balance, "NecessityReport", CountingReport)
    graphs = [g for _, g in SCREENED] + [cycle_graph(8)]
    for g in graphs:
        for mode in MODES:
            solve(g, 2, SolveConfig(mode=mode))
    assert solve(cycle_graph(8), 2).status == "SAT"
    assert not made
    check_necessary(cycle_graph(8), 2)  # the counter does see a report
    assert made == [1]


def test_subdivided_k5_needs_real_search():
    """All screens pass on K_5 with one edge subdivided twice, so UNSAT must
    come from backtracking."""
    g = subdivided_k5()
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
    assert brute_force(subdivided_k5(), 2).status == "UNSAT"


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force(Graph(25, []), 2)


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
        # parts are twin classes, which count mode must not weight
        (complete_multipartite_graph((3, 3, 3)), 3, 216),
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
@example(1776)
@example(8983)
def test_canonical_min_is_lexicographic_minimum(seed):
    # The minimum is taken in the solver's vertex order, not in index order:
    # seeds 1776 and 8983 are graphs where the two differ.
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(2, 6), 0.6)
    out = solve(g, 2, SolveConfig(mode="canonical-min"))
    want = lex_min_under_search_order(g, 2)
    if want is None:
        assert out.status == "UNSAT"
    else:
        assert out.status == "SAT"
        assert out.witness.colors == want


# ---------------------------------------------------------------------------
# Budgets and statistics
# ---------------------------------------------------------------------------


def test_budget_exceeded():
    g = CirculantSpec(24, (1, 4, 7, 10)).graph()
    for mode in ("first-witness", "canonical-min", "count"):
        out = solve(g, 4, SolveConfig(mode=mode, node_budget=5))
        assert out.status == "BUDGET_EXCEEDED"
        assert out.witness is None
        assert out.count is None
        assert out.nodes_explored == 5  # assignments made, the budget exactly


def test_budget_generous_enough_solves():
    out = solve(cycle_graph(8), 2, SolveConfig(node_budget=10**6))
    assert out.status == "SAT"


SEARCH_KEYS = {"quota", "deficit", "symmetry", "twin"}


def test_pruned_by_keys_are_known():
    """A search tallies only search rules; a refusal is one screen rule
    with no nodes.  Every rule name turns up over these graphs."""
    out = solve(subdivided_k5(), 2)
    assert set(out.pruned_by) <= SEARCH_KEYS
    assert out.nodes_explored > 0
    screens = {rule for rule, _ in SCREENED}
    seen = set()
    for k, g in [(2, g) for _, g in SCREENED] + seeded_random_graphs():
        for mode in MODES:
            out = solve(g, k, SolveConfig(mode=mode, node_budget=5000))
            keys = set(out.pruned_by)
            if keys & screens:
                assert len(keys) == 1 and out.nodes_explored == 0, (g, k)
            else:
                assert keys <= SEARCH_KEYS, (g, k)
            seen |= keys
    assert seen == screens | SEARCH_KEYS


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


def test_search_state_is_linear_in_the_graph():
    """A table of one n-bit mask per vertex made this peak 21.9 MB; the
    search state is O(n + m) words plus k + 1 masks of n bits."""
    g = cycle_graph(16000)
    tracemalloc.start()
    try:
        out = solve(g, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.status == "SAT"
    assert peak < 8 * 10**6


def test_explored_tree_is_pinned_on_a_reduction_instance():
    g = reduce_ess_to_nbc(EssInstance((1, 2, 3, 4), 2)).graph
    out = solve(g, 2)
    assert out.status == "SAT"
    assert out.nodes_explored == 46
    assert out.pruned_by == {"symmetry": 1, "quota": 20, "deficit": 4}
    out = solve(g, 2, SolveConfig(mode="count"))
    assert out.count == 4096
    assert out.nodes_explored == 8232
    assert out.pruned_by == {"symmetry": 1, "quota": 4123, "deficit": 7}


@pytest.mark.parametrize(
    "values,k,status,nodes,pruned_by",
    [
        ((1, 2, 3, 4), 2, "SAT", 223, {"symmetry": 1, "quota": 159, "deficit": 23}),
        ((4, 4, 4, 6, 6), 3, "UNSAT", 12300,
         {"symmetry": 4, "quota": 21322, "deficit": 729, "twin": 1090}),
    ],
)
def test_canonical_min_tree_is_pinned(values, k, status, nodes, pruned_by):
    g = reduce_ess_to_nbc(EssInstance(values, k)).graph
    out = solve(g, k, SolveConfig(mode="canonical-min"))
    assert out.status == status
    assert out.nodes_explored == nodes
    assert list(out.pruned_by.items()) == list(pruned_by.items())


SWEEP_TREES = {
    "first-witness": (
        33563,
        {"degree-divisibility": 532, "symmetry": 754, "quota": 31836,
         "deficit": 3581, "twin": 5306},
        "50e1d7d774754b3a09ce3e4f840572e47316541cbe5dd4b1a29c06f6968c6fc4",
    ),
    "canonical-min": (
        151440,
        {"degree-divisibility": 532, "symmetry": 758, "quota": 173229,
         "deficit": 13649, "twin": 7982},
        "50052ded88e0e91a029d907b5edac83a699990c7c1ebbf8192d67aeb3cdaa3c7",
    ),
    "count": (
        123534,
        {"degree-divisibility": 532, "symmetry": 754, "quota": 97210, "deficit": 8530},
        "c326e54ca91d230e8b95e5ddcaadcf1c444241d6c62de4894457111a3e2f8305",
    ),
}


@pytest.mark.parametrize("mode", list(SWEEP_TREES))
def test_reduction_sweep_trees_are_pinned(mode):
    """Every search tree of the 922 reduction instances of acceptance
    criterion 06, cut at 500 nodes: the node and prune totals, and a digest
    over each instance's status, witness, count, nodes and prune tallies in
    key order."""
    cfg = SolveConfig(mode=mode, node_budget=500)
    digest = hashlib.sha256()
    nodes, pruned, instances = 0, {}, 0
    for size in range(1, 6):
        for values in itertools.combinations_with_replacement(range(1, 7), size):
            for k in (2, 3):
                out = solve(reduce_ess_to_nbc(EssInstance(values, k)).graph, k, cfg)
                nodes += out.nodes_explored
                for rule, times in out.pruned_by.items():
                    pruned[rule] = pruned.get(rule, 0) + times
                witness = None if out.witness is None else out.witness.colors
                record = (out.status, witness, out.count, out.nodes_explored,
                          list(out.pruned_by.items()))
                digest.update(repr(record).encode())
                instances += 1
    assert instances == 922
    assert (nodes, pruned, digest.hexdigest()) == SWEEP_TREES[mode]


def family_witness_graphs():
    """(k, graph) for every graph of the family-witness benchmark workload:
    its 21 first-witness graphs and C30(1,2,3), the one graph it only counts,
    each built through ``families``, ``products`` or ``unions``."""
    spec = CirculantSpec
    (g4, c4), (g8, c8) = cycle_nbc(4), cycle_nbc(8)
    glue = frozenset({0, 4})
    built = [
        (4, circulant_progression_nbc(spec(48, (1, 4, 7, 10)))),
        (2, circulant_residue_nbc(spec(48, (1, 4, 7, 10)), 2)),
        (2, circulant_residue_nbc(spec(36, (1, 2, 4, 5)), 2)),
        (3, circulant_progression_nbc(spec(60, (1, 2, 3)))),
        *((2, hypercube_nbc(d)) for d in (4, 6, 8, 10)),
        (3, hamming_nbc(3, 3)),
        (3, complete_multipartite_nbc((3, 3, 3), 3)),
        (2, complete_multipartite_nbc((4, 4, 4), 2)),
        *((2, product_nbc(kind, g4, g8, c4, c8)) for kind in ("cartesian", "direct", "strong")),
        (2, product_nbc("lexicographic", g8, g4, c8, c4)),
        (2, cycle_union_nbc(8, frozenset({0, 1, 2}), 3)),
        (2, cycle_union_nbc(12, frozenset({0, 1, 2}), 5)),
        (2, union_over_set(UnionSpec(g8, glue, 3))),
        *((2, cycle_nbc(n)) for n in (400, 600, 800)),
        (3, circulant_progression_nbc(spec(30, (1, 2, 3)))),
    ]
    return [(k, graph) for k, (graph, *_) in built]


def seeded_random_graphs():
    """(k, graph) for 216 seeded draws of the three random kinds the oracle
    tests use: degree-divisible, cloned twins and regular."""
    out = []
    for seed in range(72):
        rng = random.Random(seed)
        k = 2 + seed % 3
        out.append((k, degree_divisible_graph(rng, rng.randint(4, 14), k)))
        n = rng.randint(2, 6)
        out.append((k, graph_with_cloned_twins(rng, n, rng.randint(1, 12 - n))))
        out.append((k, random_regular_graph(rng, k, {2: 16, 3: 12, 4: 16}[k], seed % 2 == 0)))
    return out


FAMILY_TREES = {
    "first-witness": (
        42342,
        {"symmetry": 555, "quota": 60140, "deficit": 11430, "twin": 64,
         "degree-divisibility": 93, "min-order": 2, "regular-order": 2, "regular-size": 1,
         "size-divisibility": 24},
        "404c3ba5e9b7cbc3cab2b2a77809678a55e1b16c837999510b90870dd0ff476b",
    ),
    "canonical-min": (
        58204,
        {"symmetry": 605, "quota": 72493, "deficit": 16671, "twin": 153,
         "degree-divisibility": 93, "min-order": 2, "regular-order": 2, "regular-size": 1,
         "size-divisibility": 24},
        "bf1b5ee58437c513e017b85354ca5247dea3891e71bb157060a1d5d4904a2e8e",
    ),
    "count": (
        116906,
        {"symmetry": 583, "quota": 121193, "deficit": 18045,
         "degree-divisibility": 93, "min-order": 2, "regular-order": 2, "regular-size": 1,
         "size-divisibility": 24},
        "8743de5536d789875cdab1e6cd6e8e09cf2255eba150ab09f05f09307312277e",
    ),
}


@pytest.mark.parametrize("mode", list(FAMILY_TREES))
def test_family_and_random_trees_are_pinned(mode):
    """Every search tree of the family-witness graphs and of the seeded random
    graphs, cut at 5,000 nodes: the node and prune totals, and a digest over
    each graph's status, witness, count, nodes and prune tallies in key
    order.  Regular graphs (searched in connected order) and count mode have
    no other pinned trees."""
    cfg = SolveConfig(mode=mode, node_budget=5000)
    digest = hashlib.sha256()
    nodes, pruned = 0, {}
    for k, g in family_witness_graphs() + seeded_random_graphs():
        out = solve(g, k, cfg)
        nodes += out.nodes_explored
        for rule, times in out.pruned_by.items():
            pruned[rule] = pruned.get(rule, 0) + times
        witness = None if out.witness is None else out.witness.colors
        record = (out.status, witness, out.count, out.nodes_explored,
                  list(out.pruned_by.items()))
        digest.update(repr(record).encode())
    assert (nodes, pruned, digest.hexdigest()) == FAMILY_TREES[mode]


# ---------------------------------------------------------------------------
# Twin-class symmetry breaking
# ---------------------------------------------------------------------------


def graph_with_cloned_twins(rng, n, clones):
    """A random graph on n vertices plus `clones` vertices, each copying the
    open neighbourhood of an earlier vertex (so the two are false twins)."""
    adj = [set() for _ in range(n)]
    for u, v in random_graph(rng, n, rng.uniform(0.3, 0.8)).edges:
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(clones):
        new = len(adj)
        adj.append(set(adj[rng.randrange(new)]))
        for u in adj[new]:
            adj[u].add(new)
    return Graph(len(adj), [(u, v) for u in range(len(adj)) for v in adj[u] if u < v])


def lex_min_under_search_order(g, k, order=None):
    """Smallest balanced assignment, comparing colors in ``order`` (by default
    the fixed vertex order of canonical-min); None when there is none."""
    order = order or _vertex_order(g)
    balanced = (
        a for a in itertools.product(range(1, k + 1), repeat=g.n)
        if naive_balanced(g, a, k)
    )
    return min(balanced, key=lambda a: [a[v] for v in order], default=None)


def assert_canonical_witness(g, k):
    """canonical-min returns the lex-min coloring under the fixed order, and
    first-witness the lex-min under the order it searches in: the connected
    order on regular graphs, the fixed order otherwise."""
    want = lex_min_under_search_order(g, k)
    for mode in ("first-witness", "canonical-min"):
        out = solve(g, k, SolveConfig(mode=mode))
        if want is None:
            assert out.status == "UNSAT"
        else:
            assert out.status == "SAT"
            if mode == "first-witness" and check_necessary(g, k).regularity is not None:
                order = _connected_order(g)
                assert out.witness.colors == lex_min_under_search_order(g, k, order)
            else:
                assert out.witness.colors == want


MULTIPARTITE_CASES = [
    (parts, k)
    for r in (2, 3)
    for parts in itertools.combinations_with_replacement(range(1, 5), r)
    for k in (2, 3, 4)
    if k ** sum(parts) <= 2**12
]


@pytest.mark.parametrize("parts,k", MULTIPARTITE_CASES)
def test_twin_rule_on_complete_multipartite_graphs(parts, k):
    """Every part of a complete multipartite graph is one twin class."""
    g = complete_multipartite_graph(parts)
    assert_canonical_witness(g, k)
    assert solve(g, k).status == brute_force(g, k).status


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 3))
def test_twin_rule_on_graphs_with_cloned_neighbourhoods(seed, k):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    g = graph_with_cloned_twins(rng, n, rng.randint(1, 8 - n if k == 3 else 11 - n))
    assert_canonical_witness(g, k)
    assert solve(g, k).status == brute_force(g, k).status


def test_twin_rule_prunes_a_hard_reduction_instance():
    g = reduce_ess_to_nbc(EssInstance((4, 4, 4, 6, 6), 3)).graph
    out = solve(g, 3)
    assert out.status == "UNSAT"
    assert out.nodes_explored == 340
    assert out.pruned_by == {"symmetry": 4, "quota": 457, "twin": 99, "deficit": 41}


# ---------------------------------------------------------------------------
# Dynamic vertex choice in first-witness
# ---------------------------------------------------------------------------


def degree_divisible_graph(rng, n, k):
    """A random graph on n vertices repaired toward every degree being a
    multiple of k, by toggling edges between vertices with a nonzero residue,
    so that most draws pass the degree screen and reach the search."""
    adj = [set() for _ in range(n)]
    for u, v in random_graph(rng, n, rng.uniform(0.25, 0.75)).edges:
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(4 * n):
        wrong = [x for x in range(n) if len(adj[x]) % k]
        if len(wrong) < 2:
            break
        x, y = rng.sample(wrong, 2)
        adj[x] ^= {y}
        adj[y] ^= {x}
    return Graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])


def oracle_status(g, k):
    """SAT or UNSAT by code that shares no theory with the solver:
    ``brute_force`` when k^n is small, the DPLL in helpers on the CNF export
    otherwise."""
    if k**g.n <= 2**14:
        return brute_force(g, k).status
    return "SAT" if dpll(to_cnf(g, k).clauses) is not None else "UNSAT"


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((2, 3, 4)), st.booleans())
def test_dynamic_first_witness_agrees_with_oracles(seed, k, cloned):
    rng = random.Random(seed)
    if cloned:
        g = graph_with_cloned_twins(rng, rng.randint(2, 6), rng.randint(1, 8))
    else:
        g = degree_divisible_graph(rng, rng.randint(2, 10), k)
    out = solve(g, k)
    assert out.status == oracle_status(g, k)
    if out.status == "SAT":
        assert naive_balanced(g, out.witness.colors, k)


PART_SIZES = ((1, 3), (2, 2), (2, 4), (3, 3), (4, 4), (1, 1, 4), (2, 2, 2), (2, 2, 4))


def size_rule_cases():
    """(k, graph) for 300 seeded graphs on at most 9 vertices, k = 2, 3, 4:
    degree-divisible, cloned-twin and complete multipartite cores, each
    padded with isolated vertices, so that many are irregular or have
    isolated vertices and reach the size rule."""
    for seed in range(300):
        rng = random.Random(seed)
        k, kind = 2 + seed % 3, seed // 3 % 3
        if kind == 0:
            core = degree_divisible_graph(rng, rng.randint(2, 8), k)
        elif kind == 1:
            n = rng.randint(2, 5)
            core = graph_with_cloned_twins(rng, n, rng.randint(1, 8 - n))
        else:
            core = complete_multipartite_graph(rng.choice(PART_SIZES))
        yield k, Graph(core.n + rng.randint(0, 9 - core.n), core.edges)


def test_size_rule_agrees_with_oracles():
    """k² divides |E| wherever an oracle finds a balanced coloring, so every
    graph that the size rule refuses is UNSAT by ``brute_force`` or, where
    k^n is too large for it, by the DPLL in helpers."""
    balanced, refused = set(), set()
    for k, g in size_rule_cases():
        status = oracle_status(g, k)
        rule = check_necessary(g, k).failed_rule
        if status == "SAT":
            assert g.m % (k * k) == 0 and rule is None, (g, k)
            if g.m:
                balanced.add(k)
        if rule == "size-divisibility":
            assert status == "UNSAT", (g, k)
            refused.add(k)
    assert balanced == refused == {2, 3, 4}


def test_dynamic_order_bounds_family_searches():
    """Both searches took over 25,000 nodes in the fixed vertex order."""
    g, _ = circulant_progression_nbc(CirculantSpec(48, (1, 4, 7, 10)))
    out = solve(g, 4)
    assert out.status == "SAT"
    assert out.nodes_explored <= 2000
    (g4, c4), (g8, c8) = cycle_nbc(4), cycle_nbc(8)
    g, _, _ = product_nbc("strong", g4, g8, c4, c8)
    out = solve(g, 2)
    assert out.status == "SAT"
    assert out.nodes_explored <= 5000


# ---------------------------------------------------------------------------
# Connected order on regular graphs, fail-first in count mode
# ---------------------------------------------------------------------------


def strong_cycle_product(a, b):
    (ga, ca), (gb, cb) = cycle_nbc(a), cycle_nbc(b)
    return product_nbc("strong", ga, gb, ca, cb)[0]


@pytest.mark.parametrize(
    "g,k,mode,status,ceiling",
    [
        # 95,418 nodes with fail-first ties broken by vertex labels
        (strong_cycle_product(4, 12), 2, "first-witness", "SAT", 1000),
        # over 200,000 nodes with ties broken by vertex labels
        (strong_cycle_product(16, 16), 2, "first-witness", "SAT", 5000),
        # 1,121 nodes with ties broken by vertex labels
        (complete_multipartite_graph((4, 4, 4, 4)), 4, "first-witness", "SAT", 100),
        # 1,811 nodes in the fixed order
        (reduce_ess_to_nbc(EssInstance((1, 4, 4), 3)).graph, 3, "count", "UNSAT", 100),
    ],
    ids=["C4xC12", "C16xC16", "K(4,4,4,4)", "ESS(1,4,4) count"],
)
def test_connected_order_and_count_fail_first_bound_searches(g, k, mode, status, ceiling):
    out = solve(g, k, SolveConfig(mode=mode, node_budget=ceiling))
    assert out.status == status
    assert out.nodes_explored <= ceiling
    if mode == "count":
        assert out.count == 0
    else:
        assert naive_balanced(g, out.witness.colors, k)


def regular_shapes(k, n_max):
    """(n, r) with n <= n_max for which r-regular graphs on n vertices pass
    every screen for k, so that they reach the search."""
    return [
        (n, r)
        for n in range(2 * k, n_max + 1, k)
        for r in range(k, n, k)
        if n * r % 2 == 0 and n * r // 2 % (k * k) == 0
    ]


def random_regular_graph(rng, k, n_max, circulant):
    """A random circulant of a shape from ``regular_shapes`` (odd degree
    adds the chords v, v + n/2), labelled as built; or, unless
    ``circulant``, that circulant scrambled by random double-edge swaps
    (which keep every degree) and relabelled at random."""
    n, r = rng.choice(regular_shapes(k, n_max))
    conns = tuple(sorted(rng.sample(range(1, (n + 1) // 2), r // 2)))
    edges = list(CirculantSpec(n, conns).graph().edges) if conns else []
    if r % 2:
        edges += [(v, v + n // 2) for v in range(n // 2)]
    g = Graph(n, edges)
    if circulant:
        return g
    adj = [set(g.neighbors(v)) for v in range(n)]
    edges = list(g.edges)
    for _ in range(4 * len(edges)):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) == 4 and c not in adj[a] and d not in adj[b]:
            adj[a] ^= {b, c}
            adj[b] ^= {a, d}
            adj[c] ^= {a, d}
            adj[d] ^= {b, c}
            edges[i], edges[j] = (a, c), (b, d)
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from((2, 3, 4)), st.booleans())
def test_connected_first_witness_agrees_with_oracles(seed, k, circulant):
    rng = random.Random(seed)
    # small enough that oracle_status enumerates or runs DPLL on a small CNF
    g = random_regular_graph(rng, k, {2: 12, 3: 6, 4: 8}[k], circulant)
    assert check_necessary(g, k).regularity is not None
    out = solve(g, k)
    assert out.status == oracle_status(g, k)
    if out.status == "SAT":
        assert naive_balanced(g, out.witness.colors, k)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from((2, 3, 4)),
    st.sampled_from(("random", "cloned", "regular")),
)
def test_fail_first_count_agrees_with_enumeration(seed, k, kind):
    rng = random.Random(seed)
    n_max = {2: 12, 3: 9, 4: 8}[k]  # k^n <= 2^16 assignments to enumerate
    if kind == "random":
        g = degree_divisible_graph(rng, rng.randint(1, n_max - 2), k)
    elif kind == "cloned":
        n = rng.randint(2, 4)
        g = graph_with_cloned_twins(rng, n, rng.randint(1, n_max - 2 - n))
    else:
        g = random_regular_graph(rng, k, n_max, rng.random() < 0.5)
    assert solve(g, k, SolveConfig(mode="count")).count == count_colorings(g, k)
