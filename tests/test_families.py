"""Constructive generators: circulants, Hamming graphs, multipartite, cycles.

Every generator either hands back a verified balanced coloring or a Refusal
naming the hypothesis that failed.  Tests cross-check the positive outputs
with the independent recount in helpers and, at small sizes, check refusals
against exhaustive search.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import naive_balanced
from nbcolor import (
    CirculantSpec,
    HammingSpec,
    Refusal,
    brute_force,
    circulant_progression_nbc,
    circulant_residue_nbc,
    complete_graph_nbc,
    complete_multipartite_nbc,
    cycle_nbc,
    hamming_nbc,
    hypercube_nbc,
    is_nbkc,
)


# ---------------------------------------------------------------------------
# Circulant scaffolding
# ---------------------------------------------------------------------------


def test_circulant_spec_builds_expected_graph():
    g = CirculantSpec(8, (1, 3)).graph()
    assert g.n == 8
    assert g.m == 16
    assert g.neighbors(0) == (1, 3, 5, 7)
    assert g.is_regular()


def test_circulant_spec_validation():
    with pytest.raises(ValueError):
        CirculantSpec(8, ())  # no connections
    with pytest.raises(ValueError):
        CirculantSpec(8, (3, 1))  # not increasing
    with pytest.raises(ValueError):
        CirculantSpec(8, (1, 4))  # 4 = n/2 is out of range
    with pytest.raises(ValueError):
        CirculantSpec(2, (1,))  # order too small


# ---------------------------------------------------------------------------
# Progression route (k = number of connections)
# ---------------------------------------------------------------------------


def test_c18_progression():
    """C_18(1,3,5): differences constant at 2, odd arity 3."""
    g, c = circulant_progression_nbc(CirculantSpec(18, (1, 3, 5)))
    assert c.k == 3
    assert is_nbkc(g, c).balanced
    assert naive_balanced(g, c.colors, 3)


def test_c24_progression():
    """C_24(1,4,7,10): differences constant at 3, even arity 4."""
    g, c = circulant_progression_nbc(CirculantSpec(24, (1, 4, 7, 10)))
    assert c.k == 4
    assert is_nbkc(g, c).balanced


def test_progression_refusals():
    out = circulant_progression_nbc(CirculantSpec(12, (1, 2, 4)))
    assert isinstance(out, Refusal) and out.rule == "progression"

    # differences constant but congruent to 0 mod s: (1, 3) has step 2 = s
    out = circulant_progression_nbc(CirculantSpec(12, (1, 3)))
    assert isinstance(out, Refusal) and out.rule == "progression"

    # order not a multiple of the arity
    out = circulant_progression_nbc(CirculantSpec(9, (1, 2)))
    assert isinstance(out, Refusal) and out.rule == "order"

    # even arity needs the step coprime to s: step 2, s = 4
    out = circulant_progression_nbc(CirculantSpec(20, (1, 3, 5, 7)))
    assert isinstance(out, Refusal) and out.rule == "progression-step"

    # odd arity needs it too: step 3, s = 9
    spec = CirculantSpec(54, (1, 4, 7, 10, 13, 16, 19, 22, 25))
    out = circulant_progression_nbc(spec)
    assert isinstance(out, Refusal) and out.rule == "progression-step"


@pytest.mark.parametrize(
    "n,connections",
    [
        (8, (1, 2)),
        (16, (1, 2)),
        (12, (1, 2, 3)),
        (15, (1, 3, 5)),
        (18, (1, 3, 5)),
        (24, (1, 4, 7, 10)),
    ],
)
def test_progression_grid_verifies(n, connections):
    out = circulant_progression_nbc(CirculantSpec(n, connections))
    assert not isinstance(out, Refusal), out
    g, c = out
    assert is_nbkc(g, c).balanced
    # every class has the same size on these vertex-transitive graphs
    assert len(set(c.class_sizes())) == 1


# ---------------------------------------------------------------------------
# Residue route (k divides the number of connections)
# ---------------------------------------------------------------------------


def test_residue_route_balanced():
    # connections 2 and 5 hit both residue classes mod 2 exactly once
    g, c = circulant_residue_nbc(CirculantSpec(12, (2, 5)), 2)
    assert c.colors == tuple(1 + (v % 2) for v in range(12))
    assert is_nbkc(g, c).balanced


def test_residue_route_refusals():
    out = circulant_residue_nbc(CirculantSpec(9, (2, 3)), 2)
    assert isinstance(out, Refusal) and out.rule == "order"

    out = circulant_residue_nbc(CirculantSpec(12, (1, 2, 5)), 2)
    assert isinstance(out, Refusal) and out.rule == "arity"

    # both connections odd: residue class 0 gets no connection
    out = circulant_residue_nbc(CirculantSpec(12, (1, 5)), 2)
    assert isinstance(out, Refusal) and out.rule == "residue-spread"


# ---------------------------------------------------------------------------
# Hamming graphs
# ---------------------------------------------------------------------------


def test_hamming_2_2_is_c4():
    g, c, spec = hamming_nbc(2, 2)
    assert g.n == 4
    assert g.m == 4
    assert is_nbkc(g, c).balanced


def test_hamming_4_4_spot_cells():
    """Words (1,1,1,c) must receive color c for every c in 1..4."""
    g, c, spec = hamming_nbc(4, 4)
    assert g.n == 256
    for last in (1, 2, 3, 4):
        assert c.colors[spec.index_of((1, 1, 1, last))] == last
    assert is_nbkc(g, c).balanced


def test_hamming_refusal_when_k_does_not_divide_d():
    out = hamming_nbc(3, 2)
    assert isinstance(out, Refusal)
    assert out.rule == "length-divisibility"


def test_hypercube_wrapper():
    g, c, _ = hypercube_nbc(4)
    assert g.n == 16
    assert is_nbkc(g, c).balanced
    assert isinstance(hypercube_nbc(5), Refusal)


def test_word_index_round_trip_small():
    spec = HammingSpec(3, 3)
    for idx in range(27):
        assert spec.index_of(spec.word_of(idx)) == idx


@settings(max_examples=50)
@given(st.integers(1, 4), st.integers(2, 4), st.data())
def test_word_index_round_trip(d, k, data):
    spec = HammingSpec(d, k)
    word = tuple(data.draw(st.integers(1, k)) for _ in range(d))
    assert spec.word_of(spec.index_of(word)) == word


def word_by_word_hamming(spec):
    """Oracle: H(d, k) and its coloring built one word at a time through
    ``word_of``/``index_of``, as the construction reads on paper."""
    d, k = spec.d, spec.k
    edges = []
    for idx in range(spec.n):
        word = spec.word_of(idx)
        for pos in range(d):
            for letter in range(word[pos] + 1, k + 1):
                other = list(word)
                other[pos] = letter
                edges.append((idx, spec.index_of(tuple(other))))
    colors = tuple(
        1 + sum(a - 1 for j, a in enumerate(spec.word_of(i)) if j % k != 0) % k
        for i in range(spec.n)
    )
    return edges, colors


HAMMING_SHAPES = [(d, k) for d in range(1, 7) for k in range(2, 5) if k**d <= 4096]


@pytest.mark.parametrize("d,k", HAMMING_SHAPES)
def test_hamming_builder_matches_word_by_word_oracle(d, k):
    """Graph edges (in order) and, where d ≡ 0 (mod k), the coloring equal the
    oracle's; word and index convert back and forth on every vertex."""
    spec = HammingSpec(d, k)
    edges, colors = word_by_word_hamming(spec)
    g = spec.graph()
    assert g.edges == tuple(sorted(edges))
    for i in range(spec.n):
        assert spec.index_of(spec.word_of(i)) == i
    built = hamming_nbc(d, k)
    if d % k:
        assert isinstance(built, Refusal)
        return
    g2, c, _ = built
    assert g2 == g
    assert c.k == k and c.colors == colors


def test_hamming_graph_structure():
    # H(2,3): 9 vertices, each adjacent to 2(3-1) = 4 others
    g = HammingSpec(2, 3).graph()
    assert g.n == 9
    assert all(g.degree(v) == 4 for v in range(9))


# ---------------------------------------------------------------------------
# Complete multipartite and complete graphs
# ---------------------------------------------------------------------------


def test_multipartite_balanced_when_parts_divisible():
    g, c = complete_multipartite_nbc((2, 4), 2)
    assert is_nbkc(g, c).balanced
    g, c = complete_multipartite_nbc((3, 3, 6), 3)
    assert is_nbkc(g, c).balanced


def test_multipartite_refusal_names_offending_part():
    out = complete_multipartite_nbc((2, 3), 2)
    assert isinstance(out, Refusal)
    assert out.rule == "part-divisibility"
    assert "part 1" in out.detail


def test_multipartite_validation():
    with pytest.raises(ValueError):
        complete_multipartite_nbc((4,), 2)  # a single part has no edges
    with pytest.raises(ValueError):
        complete_multipartite_nbc((0, 2), 2)


def test_multipartite_refusal_matches_exhaustive_search():
    """At tiny sizes the part-divisibility rule is exactly right."""
    for sizes in itertools.combinations_with_replacement(range(1, 5), 2):
        made = complete_multipartite_nbc(sizes, 2)
        from nbcolor import complete_multipartite_graph

        oracle = brute_force(complete_multipartite_graph(sizes), 2)
        assert isinstance(made, Refusal) == (oracle.status == "UNSAT"), sizes


def test_complete_graph_never_balances():
    out = complete_graph_nbc(8, 2)
    assert out.rule == "degree-divisibility"
    out = complete_graph_nbc(9, 2)
    assert out.rule == "order-conflict"
    # cross-check one of each against brute force
    from nbcolor import complete_graph

    assert brute_force(complete_graph(5), 2).status == "UNSAT"
    assert brute_force(complete_graph(6), 3).status == "UNSAT"


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------


def test_cycle_family_characterization():
    for m in range(3, 17):
        out = cycle_nbc(m)
        if m % 4 == 0:
            g, c = out
            assert is_nbkc(g, c).balanced, m
        elif m % 2 == 1:
            assert isinstance(out, Refusal) and out.rule == "regular-order", m
        else:
            assert isinstance(out, Refusal) and out.rule == "regular-size", m


def test_cycle_coloring_pattern():
    _, c = cycle_nbc(8)
    assert c.colors == (1, 1, 2, 2, 1, 1, 2, 2)
