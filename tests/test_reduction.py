"""Equal-sum-subsets reduction: gadgets, compilation, decoding, regression."""

import copy
import hashlib
import itertools
import pickle
import random
import tracemalloc

import pytest

from helpers import compiled_count, count_edge_reads, naive_balanced, same_color_witness
from nbcolor import (
    Coloring,
    EssInstance,
    Graph,
    Refusal,
    SolveConfig,
    UnbalancedColoring,
    brute_force,
    count_colorings,
    decode,
    decode_from_roles,
    ess_brute_force,
    flawed_gadget,
    graph_from_text,
    graph_to_text,
    house,
    house_scheme_coloring,
    induced_subgraph,
    is_nbkc,
    reduce_ess_to_nbc,
    roles_to_text,
    solve,
)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def test_instance_validation():
    with pytest.raises(ValueError):
        EssInstance((0, 1), 2)  # values must be positive
    with pytest.raises(ValueError):
        EssInstance((1, 2), 1)  # at least two subsets


def test_bools_count_as_integers():
    assert EssInstance((True, 1), 2).total == 2
    assert house(2, True).graph == house(2, 1).graph


def test_instance_arithmetic():
    inst = EssInstance((1, 2, 3), 2)
    assert inst.total == 6
    assert inst.divisible
    assert not EssInstance((1, 2, 4), 2).divisible


def test_ess_brute_force_pinned():
    assert ess_brute_force(EssInstance((1, 2, 3), 2)) == ((1, 2), (3,))
    assert ess_brute_force(EssInstance((1, 2, 4), 2)) is None
    assert ess_brute_force(EssInstance((2, 2, 2), 3)) == ((2,), (2,), (2,))
    assert ess_brute_force(EssInstance((6, 5, 4, 3, 2), 2)) == ((6, 4), (5, 3, 2))
    # divisible total is not enough
    assert ess_brute_force(EssInstance((1, 1, 4), 2)) is None


def test_ess_brute_force_cap():
    with pytest.raises(ValueError):
        ess_brute_force(EssInstance((1,) * 13, 3))


def test_ess_witness_sums_are_equal():
    witness = ess_brute_force(EssInstance((6, 5, 4, 3, 2, 4), 2))
    assert witness is not None
    sums = {sum(part) for part in witness}
    assert len(sums) == 1
    assert sorted(v for part in witness for v in part) == [2, 3, 4, 4, 5, 6]


# ---------------------------------------------------------------------------
# House gadgets
# ---------------------------------------------------------------------------


def test_house_structure():
    h = house(2, 3)
    assert len(h.bases) == 1
    assert len(h.supports) == 6
    assert len(h.indexes) == 3
    assert h.graph.m == 4 * 3  # k^2 * n
    # every base-support pair is wired; supports attach to their own index
    assert all(h.graph.has_edge(h.bases[0], s) for s in h.supports)
    assert h.graph.degree(h.indexes[0]) == 2


def test_house_scheme_coloring_balances():
    for k, n in ((2, 1), (2, 3), (3, 2), (3, 4)):
        h = house(k, n)
        c = house_scheme_coloring(h)
        assert is_nbkc(h.graph, c).balanced, (k, n)
        assert {c.colors[i] for i in h.indexes} == {k}


def test_house_forces_monochromatic_indexes():
    """Every balanced 2-coloring of a house keeps its index vertices aligned."""
    h = house(2, 2)
    found = 0
    for assignment in itertools.product((1, 2), repeat=h.graph.n):
        if not naive_balanced(h.graph, assignment, 2):
            continue
        found += 1
        index_colors = {assignment[v] for v in h.indexes}
        assert len(index_colors) == 1, assignment
    assert found > 0


def test_house_validation():
    with pytest.raises(ValueError):
        house(1, 2)
    with pytest.raises(ValueError):
        house(2, 0)


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def test_reduction_layout():
    inst = EssInstance((1, 2, 3), 2)
    rinst = reduce_ess_to_nbc(inst)
    assert [p.element for p in rinst.houses] == [1, 2, 3]
    assert len(rinst.distributive) == 2
    # distributive vertices see every index vertex and nothing else
    all_indexes = [v for p in rinst.houses for v in p.indexes()]
    for d in rinst.distributive:
        assert sorted(rinst.graph.neighbors(d)) == sorted(all_indexes)


def test_reduction_roles_cover_graph():
    rinst = reduce_ess_to_nbc(EssInstance((2, 2, 4), 2))
    roles = rinst.roles()
    assert set(roles) == set(range(rinst.graph.n))
    names = {r for r, _ in roles.values()}
    assert names == {"base", "support", "index", "distributive"}


def test_decode_builds_the_role_table_once(monkeypatch):
    """Decodes of one instance share its role table; ``roles()`` hands out copies."""
    from nbcolor import reduction

    rinst = reduce_ess_to_nbc(EssInstance((1, 2, 3), 2))
    witness = solve(rinst.graph, 2).witness
    layouts = []
    layout = reduction._house_layout
    monkeypatch.setattr(reduction, "_house_layout",
                        lambda *args: layouts.append(args) or layout(*args))
    first = decode(rinst, witness)
    assert decode(rinst, witness) == first == ((1, 2), (3,))
    assert len(layouts) == len(rinst.houses)
    roles = rinst.roles()
    assert roles is not rinst.roles()
    roles.clear()
    assert len(rinst.roles()) == rinst.graph.n
    assert decode(rinst, witness) == first
    assert len(layouts) == len(rinst.houses)


@pytest.mark.parametrize("read_roles", [False, True])
def test_reduction_instance_survives_pickle_and_copy(read_roles):
    """The role table slot is unset until ``roles()`` is first read; pickles
    and copies carry the fields only and rebuild the table on their own."""
    rinst = reduce_ess_to_nbc(EssInstance((1, 2, 3), 2))
    if read_roles:
        rinst.roles()
    for twin in (pickle.loads(pickle.dumps(rinst)), copy.copy(rinst), copy.deepcopy(rinst)):
        assert type(twin) is type(rinst)
        assert twin == rinst and hash(twin) == hash(rinst)
        assert twin.roles() == rinst.roles()


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("values", [(1,), (2, 2), (3, 1, 3), (1, 2, 2, 4), (4, 4, 4, 1, 1)])
def test_placements_are_shifted_isolated_houses(k, values):
    """Each compiled house is the isolated house(k, a), moved to its offset."""
    rinst = reduce_ess_to_nbc(EssInstance(values, k))
    roles = rinst.roles()
    assert [p.element for p in rinst.houses] == list(values)
    offset = 0
    for p in rinst.houses:
        h = house(k, p.element)
        assert p.offset == offset
        sub, _ = induced_subgraph(rinst.graph, range(offset, offset + h.graph.n))
        assert sub == h.graph
        assert p.bases() == tuple(offset + b for b in h.bases)
        assert p.supports() == tuple(offset + s for s in h.supports)
        assert p.indexes() == tuple(offset + i for i in h.indexes)
        for role, labels in (("base", h.bases), ("support", h.supports), ("index", h.indexes)):
            assert all(roles[offset + v] == (role, p.element) for v in labels)
        offset += h.graph.n
    assert rinst.distributive == tuple(range(offset, offset + k))
    assert all(roles[d] == ("distributive", None) for d in rinst.distributive)
    assert len(roles) == rinst.graph.n == offset + k
    # no edge leaves a house except index-distributive ones
    assert rinst.graph.m == sum(p.element * (k * k + k) for p in rinst.houses)


def test_reduction_graph_size_formula():
    inst = EssInstance((1, 2, 2, 3, 4), 3)
    rinst = reduce_ess_to_nbc(inst)
    total = inst.total
    per_house_vertices = sum((3 - 1) + 3 * n + n for n in inst.values)
    assert rinst.graph.n == per_house_vertices + 3
    assert rinst.graph.m == 9 * total + 3 * total


# ---------------------------------------------------------------------------
# Compiled tables
# ---------------------------------------------------------------------------


def _criterion_06_instances():
    for size in range(1, 6):
        for values in itertools.combinations_with_replacement(range(1, 7), size):
            for k in (2, 3):
                yield EssInstance(values, k)


def _compiled_graphs():
    """Every graph the compilers build in the sweep, random instances, houses."""
    for inst in _criterion_06_instances():
        yield reduce_ess_to_nbc(inst).graph
    rng = random.Random(20)
    for _ in range(150):
        values = [rng.randint(1, 30) for _ in range(rng.randint(1, 8))]
        yield reduce_ess_to_nbc(EssInstance(values, rng.randint(2, 6))).graph
    for k in range(2, 7):
        for n in range(1, 13):
            yield house(k, n).graph


def test_compiled_tables_match_the_validating_constructor():
    """The tables the compilers derive are the ones ``Graph`` would build."""
    rng = random.Random(21)
    graphs = 0
    for g in _compiled_graphs():
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
        rng.shuffle(edges)
        rebuilt = Graph(g.n, edges)
        assert rebuilt.edges == g.edges
        assert rebuilt.adjacency == g.adjacency
        assert (rebuilt.m, hash(rebuilt)) == (g.m, hash(g))
        graphs += 1
    assert graphs == 922 + 150 + 60


COMPILED_FILES_SHA256 = "7b165b5ea62a527f1ced993b3a1d4e20e352c4cf10a683982adf526d840b7a33"


def test_compiled_files_are_pinned():
    """``nbcolor reduce`` writes ``graph_to_text`` and ``roles_to_text`` of
    these compilations; the digest also covers the role table's order."""
    digest = hashlib.sha256()
    for inst in _criterion_06_instances():
        rinst = reduce_ess_to_nbc(inst)
        roles = rinst.roles()
        digest.update(graph_to_text(rinst.graph).encode())
        digest.update(roles_to_text(roles).encode())
        digest.update(repr(list(roles.items())).encode())
    assert digest.hexdigest() == COMPILED_FILES_SHA256


def test_compilers_skip_the_validating_constructor(monkeypatch):
    calls = []
    validating = Graph.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        validating(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted)
    rinst = reduce_ess_to_nbc(EssInstance((1, 2, 3), 3))
    h = house(3, 4)
    assert calls == []
    assert (rinst.graph.m, h.graph.m) == (72, 36)


def _small_compilations():
    """Compiled graphs built afresh on each call, edges not yet read."""
    yield reduce_ess_to_nbc(EssInstance((1, 2, 3), 2)).graph
    yield reduce_ess_to_nbc(EssInstance((2, 2, 4, 4), 3)).graph
    yield reduce_ess_to_nbc(EssInstance((5,), 4)).graph
    yield house(2, 1).graph
    yield house(3, 4).graph


@pytest.mark.parametrize(
    "build",
    [
        lambda: reduce_ess_to_nbc(EssInstance((300,) * 30, 4)).graph,
        lambda: house(6, 5000).graph,
    ],
    ids=["reduce", "house"],
)
def test_compiled_graphs_store_one_table(build):
    """Rows alone: with the edge tuple as well, the compiled instance
    (n 45,094, m 180,000) peaked at 20.5 MB and the house (n 35,005,
    m 180,000) at 18.3 MB."""
    tracemalloc.start()
    try:
        g = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == 180_000
    assert peak < 10 * 10**6


def test_compiled_edges_are_derived_on_first_read_only(monkeypatch):
    reads = count_edge_reads(monkeypatch)
    inst = EssInstance((1, 2, 3), 2)
    rinst = reduce_ess_to_nbc(inst)
    g = rinst.graph
    out = solve(g, 2)
    assert decode(rinst, out.witness)
    fresh = reduce_ess_to_nbc(inst).graph
    assert (g.m, g == fresh, hash(g) == hash(fresh)) == (36, True, True)
    assert reads == []
    monkeypatch.undo()
    first = g.edges
    assert g.edges is first
    assert len(first) == g.m


def test_compiled_graphs_equal_their_rebuilt_copies():
    for g, fresh in zip(_small_compilations(), _small_compilations()):
        for other in (Graph(g.n, g.edges), graph_from_text(graph_to_text(g))):
            assert fresh == other and other == fresh
            assert hash(fresh) == hash(other)
            assert fresh.edges == other.edges


@pytest.mark.parametrize("read_edges", [False, True])
def test_compiled_graphs_survive_pickle_and_copy(read_edges):
    for g in _small_compilations():
        if read_edges:
            g.edges
        for twin in (
            pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)
        ):
            assert twin == g and g == twin
            assert hash(twin) == hash(g)
            assert (twin.m, twin.edges, twin.adjacency) == (g.m, g.edges, g.adjacency)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "values,k,expect_sat",
    [
        ((1, 2, 3), 2, True),
        ((1, 1, 4), 2, False),
        ((2, 2, 2), 3, True),
        ((1, 2, 4), 2, False),
        ((3, 3), 2, True),
    ],
)
def test_reduction_agrees_with_direct_search(values, k, expect_sat):
    inst = EssInstance(values, k)
    assert (ess_brute_force(inst) is not None) == expect_sat
    rinst = reduce_ess_to_nbc(inst)
    out = solve(rinst.graph, k)
    assert (out.status == "SAT") == expect_sat
    if expect_sat:
        subsets = decode(rinst, out.witness)
        sums = {sum(part) for part in subsets}
        assert len(sums) == 1
        assert sorted(v for part in subsets for v in part) == sorted(values)


# The 922 instances of acceptance criterion 06.
CRITERION_06 = [
    (values, k)
    for size in range(1, 6)
    for values in itertools.combinations_with_replacement(range(1, 7), size)
    for k in (2, 3)
]


def test_compiled_count_matches_enumeration():
    enumerated = 0
    for values, k in CRITERION_06:
        g = reduce_ess_to_nbc(EssInstance(values, k)).graph
        if k**g.n <= 2**18:
            assert count_colorings(g, k) == compiled_count(values, k), (values, k)
            enumerated += 1
    assert enumerated == 13


def test_compiled_count_matches_count_mode_on_criterion_06():
    """Every criterion-06 count finishes within the budget and is exact."""
    cfg = SolveConfig(mode="count", node_budget=20_000)
    answered = 0
    for values, k in CRITERION_06:
        out = solve(reduce_ess_to_nbc(EssInstance(values, k)).graph, k, cfg)
        if out.status != "BUDGET_EXCEEDED":
            assert out.count == compiled_count(values, k), (values, k)
            answered += 1
    assert answered >= 922


@pytest.mark.parametrize("values", [(2, 2, 2), (3, 3, 3), (1, 2, 3, 4, 5)])
def test_count_mode_finishes_the_frontier_reductions(values):
    """Each took over 300,000 nodes before count mode weighted twin classes
    by their composition."""
    out = solve(reduce_ess_to_nbc(EssInstance(values, 3)).graph, 3,
                SolveConfig(mode="count", node_budget=2000))
    assert out.status == "SAT"
    assert out.count == compiled_count(values, 3)


def test_compiled_count_matches_count_mode_on_random_instances():
    rng = random.Random(2203)
    cfg = SolveConfig(mode="count", node_budget=20_000)
    answered = nonzero = 0
    for _ in range(60):
        k = rng.choice((2, 3, 4))
        values = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        values.append(k - sum(values) % k)  # so that k divides the total
        out = solve(reduce_ess_to_nbc(EssInstance(tuple(values), k)).graph, k, cfg)
        if out.status != "BUDGET_EXCEEDED":
            assert out.count == compiled_count(values, k), (values, k)
            answered += 1
            nonzero += out.count > 0
    assert answered >= 55 and nonzero >= 18


def test_decode_from_roles_matches_trusted_decode():
    inst = EssInstance((1, 2, 3), 2)
    rinst = reduce_ess_to_nbc(inst)
    out = solve(rinst.graph, 2)
    trusted = decode(rinst, out.witness)
    untrusted = decode_from_roles(rinst.graph, dict(rinst.roles()), out.witness)
    assert untrusted == trusted


def test_decode_from_roles_validates_sidecar():
    inst = EssInstance((1, 2, 3), 2)
    rinst = reduce_ess_to_nbc(inst)
    out = solve(rinst.graph, 2)
    roles = dict(rinst.roles())

    incomplete = dict(roles)
    del incomplete[0]
    with pytest.raises(ValueError):
        decode_from_roles(rinst.graph, incomplete, out.witness)

    alien = dict(roles)
    alien[0] = ("gazebo", None)
    with pytest.raises(ValueError):
        decode_from_roles(rinst.graph, alien, out.witness)

    lying = dict(roles)
    for v, (r, e) in roles.items():
        if r == "index" and e == 3:
            lying[v] = ("index", 5)
    with pytest.raises(ValueError):
        decode_from_roles(rinst.graph, lying, out.witness)

    flat = Coloring(2, (1,) * rinst.graph.n)
    with pytest.raises(UnbalancedColoring) as caught:
        decode_from_roles(rinst.graph, incomplete, flat)  # balance is checked first
    assert caught.value.report.violations


def _lie_no_index(rinst, roles, colors):
    """The first house's index vertices relabeled as supports."""
    first = rinst.houses[0]
    for v in first.indexes():
        roles[v] = ("support", first.element)


def _lie_two_index_colors(rinst, roles, colors):
    """An index vertex of the element-2 house swaps labels with a support of
    another color."""
    two = rinst.houses[2]
    i = two.indexes()[0]
    s = next(s for s in two.supports() if colors[s] != colors[i])
    roles[i], roles[s] = roles[s], roles[i]


def _lie_one_distributive(rinst, roles, colors):
    """One of the two distributive vertices relabeled as a base."""
    v = next(v for v, (role, _) in roles.items() if role == "distributive")
    roles[v] = ("base", None)


def _lie_short_house(rinst, roles, colors):
    """The element-2 house loses an index vertex and claims element 1."""
    two = rinst.houses[2]
    for v in two.bases() + two.supports() + two.indexes():
        roles[v] = (roles[v][0], 1)
    roles[two.indexes()[0]] = ("support", 1)


@pytest.mark.parametrize(
    "lie,reason",
    [
        (_lie_no_index, "has no index vertices"),
        (_lie_two_index_colors, "carry colors"),
        (_lie_short_house, r"decoded subset sums \[2, 1\] differ"),
        (_lie_one_distributive, "lists 1 distributive vertices; need at least 2"),
    ],
)
def test_decode_from_roles_refuses_a_lying_sidecar(lie, reason):
    """A balanced witness with a sidecar that lies about the houses: each lie
    is a ``ValueError`` about the sidecar, not an unbalanced coloring."""
    rinst = reduce_ess_to_nbc(EssInstance((1, 1, 2), 2))
    assert [p.element for p in rinst.houses] == [1, 1, 2]
    witness = solve(rinst.graph, 2).witness
    roles = rinst.roles()
    lie(rinst, roles, witness.colors)
    with pytest.raises(ValueError, match=reason) as caught:
        decode_from_roles(rinst.graph, roles, witness)
    assert not isinstance(caught.value, UnbalancedColoring)


def test_decode_rejects_unbalanced_coloring():
    rinst = reduce_ess_to_nbc(EssInstance((1, 2, 3), 2))
    with pytest.raises(ValueError):
        decode(rinst, Coloring(2, (1,) * rinst.graph.n))


# ---------------------------------------------------------------------------
# The appendix regression: a gadget that fails to separate its hubs
# ---------------------------------------------------------------------------


def test_flawed_gadget_structure():
    fg = flawed_gadget({4, 3, 1})
    # one pack per distinct value, each numeric vertex has degree 4
    assert len(fg.packs) == 3
    for value, supports, numerics, base in fg.packs:
        assert len(supports) == 2 * value
        assert len(numerics) == value
        for t in numerics:
            assert fg.graph.degree(t) == 4
            assert fg.graph.has_edge(t, fg.v1) and fg.graph.has_edge(t, fg.v2)


def test_flawed_gadget_is_colorable():
    fg = flawed_gadget({4, 3, 1})
    out = solve(fg.graph, 2)
    assert out.status == "SAT"


def test_flawed_gadget_fails_to_force_hub_disagreement():
    """The intended constraint c(u1) != c(u2) is not actually enforced."""
    fg = flawed_gadget({4, 3, 1})
    c = same_color_witness(fg.graph, 2, fg.u1, fg.u2)
    assert c is not None
    assert c[fg.u1] == c[fg.u2]
    assert naive_balanced(fg.graph, c, 2)


def test_flawed_gadget_roles_cover_graph():
    fg = flawed_gadget({2, 1})
    roles = fg.roles()
    assert set(roles) == set(range(fg.graph.n))
