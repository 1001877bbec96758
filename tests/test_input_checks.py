"""Malformed library input raises ValueError naming what is wrong.

One case per check, across the modules; each case's message pins the check
that fired, so a case cannot pass on an earlier, unrelated refusal.
"""

import pytest

from nbcolor import (
    CirculantSpec,
    Coloring,
    EssInstance,
    Graph,
    HammingSpec,
    SolveConfig,
    VertexPairIndex,
    check_necessary,
    complete_graph_nbc,
    complete_multipartite_graph,
    complete_multipartite_nbc,
    count_colorings,
    cycle_graph,
    cycle_nbc,
    embed_in_nbkc,
    flawed_gadget,
    house,
    induced_subgraph,
    signed_color_value,
    to_cnf,
    union_congruence,
    vertex_addition,
    weight,
)

C4 = cycle_graph(4)
H23 = HammingSpec(2, 3)


def _vertex_addition_isolated():
    g = Graph(5, C4.edges)  # C4 plus the isolated vertex 4
    return vertex_addition(g, Coloring(2, (1, 1, 2, 2, 1)), (0, 2), (1, 3))


def case(name, message, call):
    return pytest.param(call, message, id=name)


CASES = [
    # families
    case("circulant-connection", "connections must be positive, got 0",
         lambda: CirculantSpec(8, (0, 2))),
    case("hamming-d", "word length must be at least 1, got 0",
         lambda: HammingSpec(0, 2)),
    case("hamming-k", "alphabet size must be at least 2, got 1",
         lambda: HammingSpec(2, 1)),
    case("index-of-length", "word length 3 != d=2",
         lambda: H23.index_of((1, 2, 3))),
    case("index-of-letter", r"letter 4 outside 1\.\.3",
         lambda: H23.index_of((1, 4))),
    case("word-of-range", r"index 9 outside 0\.\.8",
         lambda: H23.word_of(9)),
    case("multipartite-nbc-k", "palette size must be at least 2, got 1",
         lambda: complete_multipartite_nbc((2, 2), 1)),
    case("complete-nbc-n", "need at least 2 vertices for a complete graph, got 1",
         lambda: complete_graph_nbc(1, 2)),
    case("complete-nbc-k", "palette size must be at least 2, got 1",
         lambda: complete_graph_nbc(4, 1)),
    # graph
    case("neighbors-range", r"vertex 4 outside 0\.\.3",
         lambda: C4.neighbors(4)),
    case("induced-range", r"vertex 7 outside 0\.\.3",
         lambda: induced_subgraph(C4, (0, 7))),
    case("multipartite-part", r"part sizes must be positive, got \[2, 0\]",
         lambda: complete_multipartite_graph((2, 0))),
    # products
    case("pair-index", r"pair \(2, 0\) outside 2x3",
         lambda: VertexPairIndex(2, 3).index(2, 0)),
    case("pair-of-index", "index 6 outside the product vertex range",
         lambda: VertexPairIndex(2, 3).pair(6)),
    case("embed-k", "palette size must be at least 2, got 1",
         lambda: embed_in_nbkc(C4, 1)),
    case("embed-empty", "cannot embed the empty graph",
         lambda: embed_in_nbkc(Graph(0), 2)),
    case("vertex-addition-k", "palette size must be at least 2, got 1",
         lambda: vertex_addition(C4, Coloring(1, (1,) * 4), (0,), (1,))),
    case("vertex-addition-isolated", "base graph must have no isolated vertices",
         _vertex_addition_isolated),
    case("vertex-addition-range", r"vertex 99 outside 0\.\.7",
         lambda: vertex_addition(*cycle_nbc(8), (0, 2), (1, 99))),
    # reduction
    case("ess-empty", "the multiset must be nonempty",
         lambda: EssInstance((), 2)),
    case("ess-float-element", "element must be an integer, got 1.5",
         lambda: EssInstance((1.5, 1.5), 2)),
    case("ess-float-k", "subset count must be an integer, got 2.0",
         lambda: EssInstance((2, 2), 2.0)),
    case("house-float-k", "k must be an integer, got 2.5",
         lambda: house(2.5, 3)),
    case("house-float-n", "n must be an integer, got 3.0",
         lambda: house(2, 3.0)),
    case("flawed-empty", "the multiset must be nonempty",
         lambda: flawed_gadget(())),
    case("flawed-nonpositive", "all elements must be positive integers",
         lambda: flawed_gadget((2, 0))),
    case("flawed-float-element", "element must be an integer, got 1.5",
         lambda: flawed_gadget((1.5, 2))),
    # solver
    case("solve-budget", "node budget must be positive, got 0",
         lambda: SolveConfig(node_budget=0)),
    case("count-k", "palette size must be at least 2, got 1",
         lambda: count_colorings(C4, 1)),
    # unions
    case("congruence-k", "palette size must be at least 2, got 1",
         lambda: union_congruence(C4, {0, 1}, 1)),
    case("congruence-glue", r"glue vertex 9 outside 0\.\.3",
         lambda: union_congruence(C4, {0, 9}, 2)),
    # cnf
    case("cnf-var-vertex", r"vertex 4 outside 0\.\.3",
         lambda: to_cnf(C4, 2).var(4, 1)),
    case("cnf-var-color", r"color 3 outside 1\.\.2",
         lambda: to_cnf(C4, 2).var(0, 3)),
    # balance
    case("signed-value", r"color 0 outside palette 1\.\.3",
         lambda: signed_color_value(0, 3)),
    case("weight-length", "coloring covers 2 vertices, graph has 4",
         lambda: weight(C4, Coloring(2, (1, 2)), 0)),
    case("necessary-k", "palette size must be at least 1, got 0",
         lambda: check_necessary(C4, 0)),
]


@pytest.mark.parametrize("call,message", CASES)
def test_malformed_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
