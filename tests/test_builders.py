"""The package's builders against plain edge-list references.

Every builder derives its adjacency rows from its structure and skips the
validating constructor, so each is checked here against ``Graph(n, edges)``
on the edges its construction's definition gives (``tests/helpers.py``),
and for what its graphs cost: memory, and reads of ``edges``.
"""

import random
import tracemalloc

from helpers import (
    count_edge_reads,
    naive_circulant,
    naive_complete_multipartite,
    naive_cycle,
    naive_embed,
    naive_flawed_gadget,
    naive_hamming,
    naive_induced,
    naive_join,
    naive_product,
    naive_union,
    naive_vertex_addition,
    random_graph,
)
from nbcolor import (
    CirculantSpec,
    Coloring,
    Graph,
    HammingSpec,
    UnionSpec,
    cartesian_product,
    complete_graph,
    complete_multipartite_graph,
    cycle_graph,
    cycle_nbc,
    direct_product,
    embed_in_nbkc,
    flawed_gadget,
    graph_from_text,
    hamming_nbc,
    induced_subgraph,
    is_closed_nbkc,
    is_nbkc,
    join_graph,
    lexicographic_product,
    product_nbc,
    strong_product,
    union_over_set,
    vertex_addition,
)
from nbcolor.cli import run

PRODUCTS = {
    "cartesian": cartesian_product,
    "direct": direct_product,
    "strong": strong_product,
    "lexicographic": lexicographic_product,
}


def _rainbow_pairs(c, rng):
    """Two distinct vertices of every color of ``c``, as ``vertex_addition``'s
    u_list and v_list, in a shuffled color order."""
    order = list(range(1, c.k + 1))
    rng.shuffle(order)
    picks = [rng.sample([v for v, x in enumerate(c.colors) if x == color], 2)
             for color in order]
    return tuple(p[0] for p in picks), tuple(p[1] for p in picks)


def _builds(rng):
    """(label, builder's graph, (n, reference edges)): the edge cases, then a
    seeded sweep of every builder."""
    yield "C3", cycle_graph(3), naive_cycle(3)
    yield "K(1,1)", complete_multipartite_graph([1, 1]), naive_complete_multipartite([1, 1])
    for k in (2, 3, 5):
        yield f"H(1,{k})", HammingSpec(1, k).graph(), naive_hamming(1, k)
    for n in range(0, 8):
        yield f"K{n}", complete_graph(n), naive_complete_multipartite([1] * n)
    factors = [Graph(0), Graph(1), Graph(3), cycle_graph(3), complete_graph(2),
               cycle_graph(5)]
    factors += [random_graph(rng, rng.randint(1, 6), 0.5) for _ in range(4)]
    for g in factors:
        for h in factors:
            for kind, build in PRODUCTS.items():
                yield f"{kind} {g} {h}", build(g, h), naive_product(kind, g, h)
            yield f"join {g} {h}", join_graph(g, h), naive_join(g, h)
    c8 = cycle_graph(8)
    for glue, copies in [({7, 0, 1}, 3), ({0, 1}, 4), ({0, 1}, 1), ({0, 4}, 3),
                         ({1, 2, 3, 5, 6}, 2)]:
        union, _ = union_over_set(UnionSpec(c8, glue, copies))
        yield f"{copies} C8 on {glue}", union, naive_union(c8, glue, copies)
    for _ in range(30):
        m = rng.randint(3, 30)
        yield f"C{m}", cycle_graph(m), naive_cycle(m)
        sizes = [rng.randint(1, 4) for _ in range(rng.randint(0, 5))]
        yield f"K{sizes}", complete_multipartite_graph(sizes), naive_complete_multipartite(sizes)
        n = rng.randint(3, 40)
        conns = sorted(rng.sample(range(1, (n + 1) // 2), rng.randint(1, (n - 1) // 2)))
        yield f"C{n}{conns}", CirculantSpec(n, conns).graph(), naive_circulant(n, conns)
        d, k = rng.choice([(2, 2), (3, 2), (5, 2), (6, 2), (2, 3), (3, 3), (2, 4), (3, 4)])
        yield f"H({d},{k})", HammingSpec(d, k).graph(), naive_hamming(d, k)
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        s = rng.sample(range(g.n), rng.randint(0, g.n))
        yield f"{g} induced on {s}", induced_subgraph(g, s)[0], naive_induced(g, s)
        k = rng.randint(2, 4)
        yield f"{g} embedded, k={k}", embed_in_nbkc(g, k)[0], naive_embed(g, k)
        glue = set(rng.sample(range(g.n), rng.randint(1, g.n - 1)))
        copies = rng.randint(1, 4)
        union, _ = union_over_set(UnionSpec(g, glue, copies))
        yield f"{copies} {g} on {glue}", union, naive_union(g, glue, copies)
        values = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
        yield f"gadget {values}", flawed_gadget(values).graph, naive_flawed_gadget(values)
    grown = [cycle_nbc(8), cycle_nbc(12), hamming_nbc(3, 3)[:2]]
    for g, c in grown:
        for _ in range(2):  # the second round grows the grown graph
            u_list, v_list = _rainbow_pairs(c, rng)
            reference = naive_vertex_addition(g, u_list, v_list)
            g, c = vertex_addition(g, c, u_list, v_list)
            yield f"{g} grown at {u_list} {v_list}", g, reference


def test_builders_match_the_validating_constructor():
    """Equal graph, hash and edges, and canonical rows: ascending, without
    the vertex itself, and symmetric."""
    builds = 0
    for label, built, (n, edges) in _builds(random.Random(26)):
        rebuilt = Graph(n, edges)
        assert built == rebuilt and rebuilt == built, label
        assert (built.m, hash(built)) == (rebuilt.m, hash(rebuilt)), label
        assert built.edges == rebuilt.edges, label
        adj = built.adjacency
        assert len(adj) == built.n, label
        for v, row in enumerate(adj):
            assert all(a < b for a, b in zip(row, row[1:])), label
            assert v not in row and all(v in adj[u] for u in row), label
        builds += 1
    assert builds == 2 + 3 + 8 + 10 * 10 * 5 + 5 + 30 * 8 + 3 * 2


def test_cartesian_product_stores_rows_only():
    """Q8 x C200 (n 51,200, m 256,000): its edge list, sorted copy and edge
    tuple beside the rows peaked at 72.5 MiB."""
    q8, c200 = HammingSpec(8, 2).graph(), cycle_graph(200)
    tracemalloc.start()
    try:
        g = cartesian_product(q8, c200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (g.n, g.m) == (51_200, 256_000)
    assert peak < 40 * 2**20


def test_builder_graphs_are_verified_without_their_edges(monkeypatch):
    reads = count_edge_reads(monkeypatch)
    g8, c8 = cycle_nbc(8)
    g, c, _ = hamming_nbc(3, 3)
    prod, pc, _ = product_nbc("strong", g8, g8, c8, c8)
    union, _ = union_over_set(UnionSpec(g8, {0, 1, 2}, 3))
    for graph, coloring in ((g8, c8), (g, c), (prod, pc), (union, Coloring(2, (1,) * union.n))):
        for report in (is_nbkc(graph, coloring), is_closed_nbkc(graph, coloring)):
            counts, k = report.edge_class_counts, coloring.k
            assert sum(counts[i][j] for i in range(k) for j in range(i, k)) == graph.m
    assert reads == []


def test_construct_product_and_union_never_read_edges(tmp_path, monkeypatch, capsys):
    reads = count_edge_reads(monkeypatch)
    a, p, u = tmp_path / "a", tmp_path / "p", tmp_path / "u"
    assert run(["construct", "hypercube", "4", "-k", "2", "-o", str(a)]) == 0
    assert run(["product", "strong", f"{a}.graph", f"{a}.graph",
                "--cg", f"{a}.coloring", "--ch", f"{a}.coloring", "-o", str(p)]) == 0
    assert run(["union", "--cycle", "8", "--set", "0,1,2", "--copies", "3",
                "-o", str(u)]) == 0
    assert reads == []
    monkeypatch.undo()
    assert graph_from_text((tmp_path / "p.graph").read_text()).m == 2 * 16 * 32 + 2 * 32 * 32
