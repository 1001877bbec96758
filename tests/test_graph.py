"""Graph container and small named constructions."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbcolor import (
    EssInstance,
    Graph,
    SolveConfig,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    decode,
    graph_from_text,
    induced_subgraph,
    is_nbkc,
    reduce_ess_to_nbc,
    solve,
    to_cnf,
)


def test_empty_graph():
    g = Graph(0, [])
    assert g.n == 0
    assert g.m == 0
    assert g.edges == ()


def test_basic_adjacency():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.neighbors(1) == (0, 2)
    assert g.degree(0) == 1
    assert g.degree(1) == 2
    assert g.has_edge(2, 1)
    assert g.has_edge(1, 2)
    assert not g.has_edge(0, 3)
    assert g.degrees() == (1, 2, 2, 1)


@settings(max_examples=80)
@given(st.integers(2, 30), st.data())
def test_adjacency_matches_edges_sparse_or_dense(n, data):
    """Adjacency agrees with the edges on sparse graphs (isolated vertices
    sharing the empty tuple) and dense ones alike."""
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = data.draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=40))
    g = Graph(n, edges)
    for v in range(n):
        expected = sorted({b for a, b in edges if a == v} | {a for a, b in edges if b == v})
        assert g.neighbors(v) == tuple(expected)


def naive_graph(n, edges):
    """Reference construction: edges, adjacency and degrees from sets."""
    pairs = sorted({(min(u, v), max(u, v)) for u, v in edges})
    around = [set() for _ in range(n)]
    for a, b in pairs:
        around[a].add(b)
        around[b].add(a)
    adj = tuple(tuple(sorted(nb)) for nb in around)
    return tuple(pairs), adj, tuple(len(nb) for nb in adj)


def naive_error(n, edges):
    """The message for the first offending edge in input order, or None.

    An endpoint outside 0..n-1 is reported before a self-loop, so (n, n)
    is out of range, not a loop."""
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}"
        if u == v:
            return f"self-loop at vertex {u} is not representable"
    return None


@st.composite
def edge_lists(draw):
    """An order, a density and an edge list in one of several presentations:
    as drawn, sorted, reversed, shuffled or with every edge twice in both
    orientations.  Isolated vertices come free with sparse draws."""
    n = draw(st.integers(1, 24))
    p = draw(st.sampled_from((0.0, 0.05, 0.3, 0.9, 1.0)))
    rng = draw(st.randoms(use_true_random=False))
    chosen = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    shape = draw(st.sampled_from(("sorted", "reversed", "shuffled", "doubled", "flipped")))
    if shape == "reversed":
        chosen.reverse()
    elif shape == "shuffled":
        rng.shuffle(chosen)
    elif shape == "doubled":
        chosen += [(v, u) for u, v in chosen]
        rng.shuffle(chosen)
    elif shape == "flipped":
        chosen = [(v, u) for u, v in chosen]
    return n, chosen


@settings(max_examples=150, deadline=None)
@given(edge_lists(), st.booleans())
def test_construction_matches_naive_reference(case, as_generator):
    """Edges, every neighbour tuple and the degrees equal the reference's,
    whatever order or multiplicity the edges come in, from a list or a
    one-shot generator."""
    n, edges = case
    source = (e for e in edges) if as_generator else edges
    g = Graph(n, source)
    expected_edges, expected_adj, expected_degrees = naive_graph(n, edges)
    assert g.edges == expected_edges
    assert tuple(g.neighbors(v) for v in range(n)) == expected_adj
    assert g.degrees() == expected_degrees


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.data())
def test_first_offending_edge_is_reported(n, data):
    """Bad edges anywhere in the list: the first one in input order names the
    error, out-of-range before self-loop, exactly as the reference says."""
    endpoint = st.integers(-2, n + 1)
    edges = data.draw(st.lists(st.tuples(endpoint, endpoint), max_size=12))
    expected = naive_error(n, edges)
    if expected is None:
        assert Graph(n, edges).edges == naive_graph(n, edges)[0]
        return
    with pytest.raises(ValueError) as err:
        Graph(n, iter(edges))
    assert str(err.value) == expected


def test_out_of_range_is_checked_before_self_loop():
    with pytest.raises(ValueError, match=r"edge \(3, 3\) has an endpoint outside 0..2"):
        Graph(3, [(3, 3)])
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph(3, [(0, 1), (1, 1), (0, 5)])


def test_isolated_vertices_cost_no_list_each():
    """The header must not set the memory a parse takes: 500,000 vertices
    and one edge stay below three machine words per vertex."""
    n = 500_000
    tracemalloc.start()
    try:
        g = graph_from_text(f"p {n} 1\ne 3 {n - 1}\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n
    assert g.neighbors(3) == (n - 1,) and g.neighbors(n - 1) == (3,)
    assert g.neighbors(0) == () and g.degree(n - 2) == 0


def test_duplicate_and_reversed_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.m == 2
    assert g.edges == ((0, 1), (1, 2))


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(-1, 0)])


def test_negative_order_rejected():
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_edges_sorted_and_normalized():
    g = Graph(4, [(3, 2), (1, 0)])
    assert g.edges == ((0, 1), (2, 3))


def test_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0)])
    c = Graph(3, [(0, 2)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_graph_is_not_equal_to_other_types():
    g = Graph(3, [(0, 1)])
    assert g != object()
    assert g != (3, ((0, 1),))


def test_has_edge_is_false_outside_the_vertex_range():
    g = Graph(3, [(0, 1), (1, 2)])
    assert not g.has_edge(1, 3)
    assert not g.has_edge(-1, 0)


def test_iteration_yields_the_vertices():
    assert list(Graph(3, [(0, 1)])) == [0, 1, 2]
    assert list(Graph(0)) == []


def test_repr_names_order_and_size():
    assert repr(cycle_graph(5)) == "Graph(n=5, m=5)"


def test_is_regular():
    assert cycle_graph(5).is_regular()
    assert complete_graph(4).is_regular()
    assert not Graph(3, [(0, 1)]).is_regular()
    # every vertex isolated still counts as 0-regular
    assert Graph(3, []).is_regular()


def test_cycle_graph():
    g = cycle_graph(5)
    assert g.n == 5
    assert g.m == 5
    assert g.neighbors(0) == (1, 4)
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_complete_graph():
    g = complete_graph(4)
    assert g.n == 4
    assert g.m == 6
    assert all(g.degree(v) == 3 for v in range(4))


def test_complete_multipartite_blocks_are_consecutive():
    g = complete_multipartite_graph((2, 3))
    assert g.n == 5
    assert g.m == 6
    # part {0,1} has no internal edge, all cross edges present
    assert not g.has_edge(0, 1)
    assert not g.has_edge(2, 3)
    assert g.has_edge(0, 2) and g.has_edge(1, 4)


def test_induced_subgraph_small():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    sub, members = induced_subgraph(g, {1, 2, 4})
    assert members == (1, 2, 4)
    assert sub.n == 3
    # of the three candidate pairs only 1-2 is an edge of C_5
    assert sub.edges == ((0, 1),)


@settings(max_examples=60)
@given(st.integers(2, 9), st.data())
def test_induced_subgraph_preserves_exactly_internal_edges(n, data):
    edges = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            ),
            max_size=20,
        )
    )
    g = Graph(n, edges)
    keep = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    sub, members = induced_subgraph(g, keep)
    back = {i: v for i, v in enumerate(members)}
    rebuilt = {tuple(sorted((back[a], back[b]))) for a, b in sub.edges}
    expected = {
        (a, b) for a, b in g.edges if a in keep and b in keep
    }
    assert rebuilt == expected


# ---------------------------------------------------------------------------
# The adjacency table
# ---------------------------------------------------------------------------


def assert_adjacency_is_the_neighbour_table(g):
    adj = g.adjacency
    assert adj == tuple(map(g.neighbors, range(g.n)))
    assert type(adj) is tuple
    assert all(type(nb) is tuple for nb in adj)


@pytest.mark.parametrize(
    "g",
    [Graph(0), Graph(5), Graph(6, [(1, 4), (4, 2)]), cycle_graph(5)],
    ids=["empty", "edgeless", "isolated-vertices", "cycle"],
)
def test_adjacency_is_the_neighbour_table(g):
    assert_adjacency_is_the_neighbour_table(g)


@settings(max_examples=60, deadline=None)
@given(edge_lists())
def test_adjacency_is_the_neighbour_table_on_random_graphs(case):
    assert_adjacency_is_the_neighbour_table(Graph(*case))


def test_whole_graph_walks_read_the_adjacency_table(monkeypatch):
    """Solving, verifying, decoding and CNF export read ``Graph.adjacency``;
    none of them goes through the range-checked ``neighbors`` per vertex."""
    regular = cycle_graph(8)
    irregular = complete_multipartite_graph([2, 4])  # degrees 4 and 2
    rinst = reduce_ess_to_nbc(EssInstance((1, 1, 2), 2))
    witness = solve(rinst.graph, 2).witness
    calls = []
    neighbors = Graph.neighbors

    def counted(self, v):
        calls.append(v)
        return neighbors(self, v)

    monkeypatch.setattr(Graph, "neighbors", counted)
    for g in (regular, irregular):
        for mode in ("first-witness", "canonical-min", "count"):
            out = solve(g, 2, SolveConfig(mode=mode))
            assert out.status == "SAT"
            if out.witness is not None:
                assert is_nbkc(g, out.witness).balanced
        assert to_cnf(g, 2).to_dimacs().startswith("c balanced 2-coloring")
    assert sorted(map(sum, decode(rinst, witness))) == [2, 2]
    assert calls == []
