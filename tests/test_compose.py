"""Products, joins, host embeddings, and the unequal-class augmentation."""

import random

import pytest

from helpers import naive_balanced, random_graph
from nbcolor import (
    Coloring,
    Graph,
    Refusal,
    VertexPairIndex,
    cartesian_product,
    complete_graph,
    complete_multipartite_nbc,
    cycle_graph,
    cycle_nbc,
    cyclic_shift,
    direct_product,
    embed_in_nbkc,
    induced_subgraph,
    is_nbkc,
    join_graph,
    join_nbc,
    lexicographic_product,
    product_graph,
    product_nbc,
    strong_product,
    vertex_addition,
)

C4G, C4 = cycle_nbc(4)
C8G, C8 = cycle_nbc(8)
C8_SHIFTED = cyclic_shift(C8, 1)  # vertex 0 has color 2, so the cartesian anchor shows


# ---------------------------------------------------------------------------
# Product graphs
# ---------------------------------------------------------------------------


def test_vertex_pair_index_round_trip():
    idx = VertexPairIndex(4, 8)
    for u in range(4):
        for v in range(8):
            assert idx.pair(idx.index(u, v)) == (u, v)


def test_k2_box_k2_is_c4():
    k2 = complete_graph(2)
    p = cartesian_product(k2, k2)
    assert p.n == 4
    assert p.m == 4
    assert all(p.degree(v) == 2 for v in range(4))


def test_product_edge_counts():
    # standard counting identities for simple factors
    assert cartesian_product(C4G, C8G).m == 4 * 8 + 8 * 4
    assert direct_product(C4G, C8G).m == 2 * 4 * 8
    assert strong_product(C4G, C8G).m == (4 * 8 + 8 * 4) + 2 * 4 * 8
    assert lexicographic_product(C4G, C8G).m == 4 * 8 * 8 + 4 * 8


def _to_networkx(nx, g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


@pytest.mark.parametrize("kind", ["cartesian", "direct", "strong", "lexicographic"])
def test_products_match_networkx(kind):
    """Every product edge, pinned against networkx on random factors with
    0-6 vertices (edgeless ones included), pairs relabelled u*|V(H)| + v."""
    nx = pytest.importorskip("networkx")
    reference = {
        "cartesian": nx.cartesian_product,
        "direct": nx.tensor_product,
        "strong": nx.strong_product,
        "lexicographic": nx.lexicographic_product,
    }[kind]
    rng = random.Random(4417)
    for _ in range(80):
        g, h = (
            random_graph(rng, rng.randint(0, 6), rng.choice((0.0, 0.3, 0.6, 1.0)))
            for _ in range(2)
        )
        expected = reference(_to_networkx(nx, g), _to_networkx(nx, h))
        assert product_graph(kind, g, h) == Graph(
            g.n * h.n,
            [(u * h.n + v, x * h.n + y) for (u, v), (x, y) in expected.edges()],
        ), (kind, g.n, g.edges, h.n, h.edges)


def test_product_graph_dispatch():
    assert product_graph("cartesian", C4G, C8G) == cartesian_product(C4G, C8G)
    message = (
        "unknown product kind 'zigzag'; expected one of "
        "['cartesian', 'direct', 'lexicographic', 'strong']"
    )
    for call in (
        lambda: product_graph("zigzag", C4G, C8G),
        lambda: product_nbc("zigzag", C4G, C8G, C4, C8),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


def test_direct_product_of_k2s_is_disconnected_perfect_matching():
    k2 = complete_graph(2)
    p = direct_product(k2, k2)
    assert p.n == 4
    assert p.m == 2
    assert p.degrees() == (1, 1, 1, 1)


# ---------------------------------------------------------------------------
# Product colorings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cartesian", "direct", "strong", "lexicographic"])
def test_products_of_balanced_factors_balance(kind):
    out = product_nbc(kind, C4G, C8G, C4, C8)
    assert not isinstance(out, Refusal)
    g, c, idx = out
    assert g.n == 32
    assert is_nbkc(g, c).balanced
    assert naive_balanced(g, c.colors, c.k)


@pytest.mark.parametrize(
    "kind, g, h, cg, ch, colors",
    [
        ("cartesian", C4G, C8G, C4, C8_SHIFTED, "11221122112211222211221122112211"),
        ("strong", C4G, C8G, C4, C8_SHIFTED, "11221122112211222211221122112211"),
        ("direct", C4G, C8G, C4, C8_SHIFTED, "11111111111111112222222222222222"),
        ("direct", C4G, C8G, None, C8_SHIFTED, "22112211221122112211221122112211"),
        ("lexicographic", C4G, C8G, C4, C8_SHIFTED, "22112211221122111122112211221122"),
        ("lexicographic", C8G, C4G, None, C4, "11221122112211221122112211221122"),
    ],
    ids=["cartesian", "strong", "direct-cg", "direct-ch", "lexicographic", "fiber-copy"],
)
def test_product_transfer_colors_are_pinned(kind, g, h, cg, ch, colors):
    prod, c, idx = product_nbc(kind, g, h, cg, ch)
    assert prod == product_graph(kind, g, h)
    assert c.colors == tuple(int(x) for x in colors)
    assert idx == VertexPairIndex(g.n, h.n)


@pytest.mark.parametrize(
    "kind, cg, ch, detail",
    [
        ("direct", None, None, "direct product transfer needs a balanced coloring"),
        ("lexicographic", C4, None, "lexicographic transfer needs either both"),
    ],
)
def test_missing_factor_coloring_refused(kind, cg, ch, detail):
    out = product_nbc(kind, C4G, C8G, cg, ch)
    assert isinstance(out, Refusal)
    assert out.rule == "missing-factor-coloring"
    assert detail in out.detail


@pytest.mark.parametrize("kind", ["cartesian", "strong", "direct", "lexicographic"])
def test_product_with_an_empty_factor_is_empty(kind):
    empty = Coloring(2, ())
    for g, h, cg, ch in ((C4G, Graph(0), C4, empty), (Graph(0), C4G, empty, C4)):
        prod, c, _ = product_nbc(kind, g, h, cg, ch)
        assert prod.n == 0
        assert c.colors == ()


def test_direct_product_needs_only_one_factor():
    for cg, ch in ((C4, None), (None, C8)):
        g, c, _ = product_nbc("direct", C4G, C8G, cg, ch)
        assert is_nbkc(g, c).balanced


def test_cartesian_product_requires_both_colorings():
    out = product_nbc("cartesian", C4G, C8G, C4, None)
    assert isinstance(out, Refusal)
    assert out.rule == "missing-factor-coloring"


def test_palette_mismatch_refused():
    from nbcolor import CirculantSpec, circulant_progression_nbc

    g3, c3 = circulant_progression_nbc(CirculantSpec(12, (1, 2, 3)))
    out = product_nbc("cartesian", C4G, g3, C4, c3)
    assert isinstance(out, Refusal)
    assert out.rule == "palette-mismatch"


def test_lexicographic_second_factor_alone_needs_equal_classes():
    # C_4 has classes (2,2): fine
    g, c, _ = product_nbc("lexicographic", C8G, C4G, None, C4)
    assert is_nbkc(g, c).balanced

    # an unequal-class balanced coloring (3,4) is refused
    kg, kc = complete_multipartite_nbc((2, 2), 2)
    grown, grown_c = vertex_addition(kg, kc, (0, 1), (2, 3))
    assert grown_c.class_sizes() == (3, 4)
    out = product_nbc("lexicographic", C4G, grown, None, grown_c)
    assert isinstance(out, Refusal)
    assert out.rule == "unequal-classes"


def test_unbalanced_input_coloring_is_an_error_not_a_refusal():
    bad = Coloring(2, (1, 2, 1, 2))  # alternating around C_4 is unbalanced
    with pytest.raises(ValueError):
        product_nbc("cartesian", C4G, C8G, bad, C8)


# ---------------------------------------------------------------------------
# Join
# ---------------------------------------------------------------------------


def test_join_graph_structure():
    j = join_graph(C4G, C4G)
    assert j.n == 8
    assert j.m == 4 + 4 + 16


def test_join_of_equal_class_colorings_balances():
    g, c = join_nbc(C4G, C4, C8G, C8)
    assert g.n == 12
    assert is_nbkc(g, c).balanced


def test_join_refuses_unequal_classes():
    kg, kc = complete_multipartite_nbc((2, 2), 2)
    grown, grown_c = vertex_addition(kg, kc, (0, 1), (2, 3))
    out = join_nbc(C4G, C4, grown, grown_c)
    assert isinstance(out, Refusal)
    assert out.rule == "unequal-classes"


def test_join_refuses_palette_mismatch():
    from nbcolor import CirculantSpec, circulant_progression_nbc

    g3, c3 = circulant_progression_nbc(CirculantSpec(12, (1, 2, 3)))
    out = join_nbc(C4G, C4, g3, c3)
    assert isinstance(out, Refusal)
    assert out.rule == "palette-mismatch"


def test_join_checks_balance_before_palettes():
    """An unbalanced factor is an input error, as in ``product_nbc``, not a
    palette refusal."""
    k33, c3 = complete_multipartite_nbc((3, 3), 3)
    with pytest.raises(ValueError, match="first coloring is not balanced"):
        join_nbc(C4G, Coloring(2, (1, 1, 1, 1)), k33, c3)
    with pytest.raises(ValueError, match="second coloring covers 3 vertices"):
        join_nbc(C4G, C4, k33, Coloring(3, (1, 2, 3)))


# ---------------------------------------------------------------------------
# Embedding into a balanced host
# ---------------------------------------------------------------------------


def test_every_graph_embeds_into_a_balanced_host():
    g = complete_graph(4)
    host, c, emb = embed_in_nbkc(g, 2)
    assert host.n == 8
    assert is_nbkc(host, c).balanced
    # copy 0 is the identity embedding
    assert emb == (0, 1, 2, 3)
    sub, members = induced_subgraph(host, set(emb))
    assert members == emb
    assert sub.m == g.m


def test_embed_k3():
    host, c, emb = embed_in_nbkc(cycle_graph(3), 3)
    assert host.n == 9
    assert is_nbkc(host, c).balanced
    assert c.class_sizes() == (3, 3, 3)
    sub, _ = induced_subgraph(host, set(emb))
    assert sub.m == 3


def test_embed_cross_edges():
    # every original edge spans all k^2 copy pairs
    g = Graph(2, [(0, 1)])
    host, c, _ = embed_in_nbkc(g, 2)
    assert host.n == 4
    assert host.m == 4  # 2x2 cross pairs of the single edge


# ---------------------------------------------------------------------------
# (2k-1)-vertex addition
# ---------------------------------------------------------------------------


def test_single_addition_shifts_class_sizes():
    g, c = complete_multipartite_nbc((2, 2), 2)
    grown, grown_c = vertex_addition(g, c, (0, 1), (2, 3))
    assert grown.n == g.n + 3
    assert grown_c.class_sizes() == (3, 4)
    assert is_nbkc(grown, grown_c).balanced


def test_addition_new_vertices_form_independent_set():
    g, c = complete_multipartite_nbc((2, 2), 2)
    grown, _ = vertex_addition(g, c, (0, 1), (2, 3))
    new = range(g.n, grown.n)
    for a in new:
        for b in new:
            if a != b:
                assert not grown.has_edge(a, b)


def test_triple_addition_from_k22():
    g, c = complete_multipartite_nbc((2, 2), 2)
    for pairs in (((0, 1), (2, 3)), ((0, 5), (4, 6)), ((0, 8), (7, 9))):
        out = vertex_addition(g, c, *pairs)
        assert not isinstance(out, Refusal), out
        g, c = out
        assert is_nbkc(g, c).balanced
    sizes = c.class_sizes()
    assert sizes == (5, 8)
    assert sizes[1] - sizes[0] == 3


def test_addition_refusals():
    g, c = complete_multipartite_nbc((2, 2), 2)
    # colors (1, 2, 1, 2): pairing 0 with 3 mismatches 1 vs 2
    out = vertex_addition(g, c, (0, 1), (3, 2))
    assert isinstance(out, Refusal)
    assert out.rule == "pair-color-mismatch"

    # all four chosen vertices share color 1 on C_8: not a rainbow of pairs
    out = vertex_addition(C8G, C8, (0, 1), (4, 5))
    assert isinstance(out, Refusal)
    assert out.rule == "pair-rainbow"


def test_addition_input_validation():
    g, c = complete_multipartite_nbc((2, 2), 2)
    with pytest.raises(ValueError):
        vertex_addition(g, c, (0, 1), (2,))  # length mismatch
    with pytest.raises(ValueError):
        vertex_addition(g, c, (0, 1), (2, 0))  # vertex reused
    alternating = Coloring(2, (1, 2, 1, 2, 1, 2, 1, 2))  # unbalanced on C_8
    with pytest.raises(ValueError):
        vertex_addition(C8G, alternating, (0, 1), (2, 3))
