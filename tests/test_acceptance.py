"""Acceptance gate: ten pinned criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Each criterion enforces its own wall-clock budget, so this module
doubles as a coarse performance regression net.
"""

import itertools
import random
import time
from functools import lru_cache

import pytest

from helpers import naive_balanced, random_graph, same_color_witness
from nbcolor import (
    CirculantSpec,
    EssInstance,
    Refusal,
    UnionSpec,
    brute_force,
    check_necessary,
    circulant_progression_nbc,
    complete_graph,
    complete_multipartite_graph,
    complete_multipartite_nbc,
    cycle_graph,
    cycle_nbc,
    cycle_union_nbc,
    decode,
    embed_in_nbkc,
    ess_brute_force,
    flawed_gadget,
    hamming_nbc,
    house,
    house_scheme_coloring,
    hypercube_nbc,
    induced_subgraph,
    is_nbkc,
    join_nbc,
    product_nbc,
    reduce_ess_to_nbc,
    solve,
    union_congruence,
    union_nbc_independent,
    union_over_set,
    vertex_addition,
)


def _report(num, label, elapsed, budget, ok, detail=""):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"criterion {num:02d} {label}: {status} ({elapsed:.2f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {num} ({label}): {detail}"
    assert elapsed <= budget, f"criterion {num} ({label}): {elapsed:.2f}s over budget {budget}s"


# ---------------------------------------------------------------------------
# 1. Pinned figure constructions
# ---------------------------------------------------------------------------


def test_criterion_01_figure_reproductions():
    cases = [
        ("C_8", lambda: cycle_nbc(8)),
        ("C_18(1,3,5)", lambda: circulant_progression_nbc(CirculantSpec(18, (1, 3, 5)))),
        ("C_24(1,4,7,10)", lambda: circulant_progression_nbc(CirculantSpec(24, (1, 4, 7, 10)))),
    ]
    worst = 0.0
    ok, detail = True, ""
    for name, make in cases:
        t0 = time.perf_counter()
        out = make()
        if isinstance(out, Refusal) or not is_nbkc(*out).balanced:
            ok, detail = False, f"{name} did not produce a balanced coloring"
            break
        worst = max(worst, time.perf_counter() - t0)
    _report(1, "figure-reproductions", worst, 1.0, ok, detail)


# ---------------------------------------------------------------------------
# 2. Hamming fixtures and spot cells
# ---------------------------------------------------------------------------


def test_criterion_02_hamming_fixtures():
    t0 = time.perf_counter()
    ok, detail = True, ""

    out = hamming_nbc(4, 4)
    if isinstance(out, Refusal):
        ok, detail = False, "H(4,4) refused"
    else:
        g, c, spec = out
        if not is_nbkc(g, c).balanced:
            ok, detail = False, "H(4,4) coloring unbalanced"
        for last in (1, 2, 3, 4):
            if c.colors[spec.index_of((1, 1, 1, last))] != last:
                ok, detail = False, f"spot cell (1,1,1,{last}) miscolored"

    for d, k in ((3, 3), (4, 2), (8, 2)):
        out = hamming_nbc(d, k)
        if isinstance(out, Refusal) or not is_nbkc(out[0], out[1]).balanced:
            ok, detail = False, f"H({d},{k}) failed"

    _report(2, "hamming-fixtures", time.perf_counter() - t0, 10.0, ok, detail)


# ---------------------------------------------------------------------------
# 3. Edge-class counts on every balanced coloring the suite produces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _corpus():
    """Every producer in the package contributes at least one (graph, coloring)."""
    pairs = []

    def add(g, c):
        pairs.append((g, c))

    for m in (4, 8, 12, 16):
        add(*cycle_nbc(m))
    add(*circulant_progression_nbc(CirculantSpec(8, (1, 2))))
    add(*circulant_progression_nbc(CirculantSpec(18, (1, 3, 5))))
    add(*circulant_progression_nbc(CirculantSpec(24, (1, 4, 7, 10))))
    from nbcolor import circulant_residue_nbc

    add(*circulant_residue_nbc(CirculantSpec(12, (2, 5)), 2))
    for d, k in ((2, 2), (4, 2), (4, 4), (3, 3), (6, 2)):
        g, c, _ = hamming_nbc(d, k)
        add(g, c)
    add(*complete_multipartite_nbc((2, 2), 2))
    add(*complete_multipartite_nbc((4, 2, 2), 2))
    add(*complete_multipartite_nbc((3, 6), 3))

    c4g, c4 = cycle_nbc(4)
    c8g, c8 = cycle_nbc(8)
    for kind in ("cartesian", "direct", "strong", "lexicographic"):
        g, c, _ = product_nbc(kind, c4g, c8g, c4, c8)
        add(g, c)
    add(*join_nbc(c4g, c4, c8g, c8))

    host, hc, _ = embed_in_nbkc(complete_graph(4), 2)
    add(host, hc)
    host, hc, _ = embed_in_nbkc(cycle_graph(5), 3)
    add(host, hc)

    g, c = complete_multipartite_nbc((2, 2), 2)
    for pairs_ in (((0, 1), (2, 3)), ((0, 5), (4, 6)), ((0, 8), (7, 9))):
        g, c = vertex_addition(g, c, *pairs_)
        add(g, c)

    big, _ = union_over_set(UnionSpec(c8g, frozenset({0, 2}), 3))
    add(big, union_nbc_independent(c8g, c8, frozenset({0, 2}), 3))
    add(*cycle_union_nbc(8, frozenset({0, 1, 2}), 3))
    add(*cycle_union_nbc(12, frozenset({0, 1, 3, 4}), 5))

    for k, n in ((2, 3), (3, 2)):
        h = house(k, n)
        add(h.graph, house_scheme_coloring(h))
    rinst = reduce_ess_to_nbc(EssInstance((1, 2, 3), 2))
    witness = solve(rinst.graph, 2).witness
    add(rinst.graph, witness)

    fg = flawed_gadget({4, 3, 1})
    add(fg.graph, solve(fg.graph, 2).witness)
    return tuple(pairs)


def test_criterion_03_edge_class_counts_exact():
    t0 = time.perf_counter()
    ok, detail = True, ""
    checked = 0
    for g, c in _corpus():
        rep = is_nbkc(g, c)
        if not rep.balanced:
            ok, detail = False, f"corpus entry unbalanced ({g.n} vertices)"
            break
        k, m = rep.k, g.m
        for i in range(k):
            for j in range(k):
                want_times_k2 = m if i == j else 2 * m
                if rep.edge_class_counts[i][j] * k * k != want_times_k2:
                    ok = False
                    detail = f"counts off at ({i},{j}) on {g.n}-vertex graph: {rep.edge_class_counts}"
        checked += 1
    if ok and checked < 30:
        ok, detail = False, f"corpus too thin: {checked} colorings"
    _report(3, "edge-class-counts", time.perf_counter() - t0, 60.0, ok, detail)


# ---------------------------------------------------------------------------
# 4. Solver equals enumeration
# ---------------------------------------------------------------------------


def test_criterion_04_oracle_equivalence():
    nx = pytest.importorskip("networkx")
    t0 = time.perf_counter()
    ok, detail = True, ""
    checked = 0
    for G in nx.graph_atlas_g()[1:]:
        if G.number_of_nodes() == 0 or not nx.is_connected(G):
            continue
        from nbcolor import Graph

        g = Graph(G.number_of_nodes(), list(G.edges()))
        if solve(g, 2).status != brute_force(g, 2).status:
            ok, detail = False, f"atlas disagreement on {tuple(g.edges)}"
            break
        checked += 1

    rng = random.Random(90121)
    for _ in range(200):
        if not ok:
            break
        n = rng.randint(2, 9)
        g = random_graph(rng, n, rng.uniform(0.1, 0.9))
        for k in (2, 3):
            if solve(g, k).status != brute_force(g, k).status:
                ok, detail = False, f"random disagreement n={n} k={k} edges={g.edges}"
                break
        checked += 1
    if ok and checked < 1000:
        ok, detail = False, f"only {checked} instances checked"
    _report(4, "oracle-equivalence", time.perf_counter() - t0, 300.0, ok, detail)


# ---------------------------------------------------------------------------
# 5. Family characterizations are exact biconditionals
# ---------------------------------------------------------------------------


def test_criterion_05_family_biconditionals():
    t0 = time.perf_counter()
    ok, detail = True, ""

    for nparts in (2, 3):
        for sizes in itertools.combinations_with_replacement(range(1, 7), nparts):
            for k in (2, 3):
                refused = isinstance(complete_multipartite_nbc(sizes, k), Refusal)
                unsat = solve(complete_multipartite_graph(sizes), k).status == "UNSAT"
                if refused != unsat:
                    ok, detail = False, f"multipartite mismatch {sizes} k={k}"

    for m in range(3, 17):
        refused = isinstance(cycle_nbc(m), Refusal)
        unsat = brute_force(cycle_graph(m), 2).status == "UNSAT"
        if refused != unsat:
            ok, detail = False, f"cycle mismatch m={m}"

    for d in range(1, 7):
        out = hypercube_nbc(d)
        if isinstance(out, Refusal):
            from nbcolor import HammingSpec

            if solve(HammingSpec(d, 2).graph(), 2).status != "UNSAT":
                ok, detail = False, f"hypercube d={d} refused but solvable"
        else:
            g, c, _ = out
            if not is_nbkc(g, c).balanced:
                ok, detail = False, f"hypercube d={d} coloring unbalanced"

    _report(5, "family-biconditionals", time.perf_counter() - t0, 300.0, ok, detail)


# ---------------------------------------------------------------------------
# 6. Reduction round trip across every small multiset
# ---------------------------------------------------------------------------


def test_criterion_06_reduction_round_trip():
    t0 = time.perf_counter()
    ok, detail = True, ""
    total = 0
    for size in range(1, 6):
        for values in itertools.combinations_with_replacement(range(1, 7), size):
            for k in (2, 3):
                inst = EssInstance(values, k)
                yes = ess_brute_force(inst) is not None
                rinst = reduce_ess_to_nbc(inst)
                out = solve(rinst.graph, k)
                if yes != (out.status == "SAT"):
                    ok, detail = False, f"T={values} k={k}: ess={yes} solver={out.status}"
                    break
                if out.status == "SAT":
                    subsets = decode(rinst, out.witness)
                    if len({sum(part) for part in subsets}) != 1:
                        ok, detail = False, f"decode sums unequal for T={values} k={k}"
                        break
                    if sorted(v for part in subsets for v in part) != sorted(values):
                        ok, detail = False, f"decode lost values for T={values} k={k}"
                        break
                total += 1
            if not ok:
                break
        if not ok:
            break
    if ok and total != 922:
        ok, detail = False, f"expected 922 instances, swept {total}"
    _report(6, "reduction-round-trip", time.perf_counter() - t0, 600.0, ok, detail)


# ---------------------------------------------------------------------------
# 7. Union suite
# ---------------------------------------------------------------------------


def test_criterion_07_union_suite():
    t0 = time.perf_counter()
    ok, detail = True, ""

    edge_host = cycle_graph(8)
    for k in (2, 3, 4):
        rep = union_congruence(edge_host, {0, 1}, k)
        if rep.modulus != k * k:
            ok, detail = False, f"one-edge modulus {rep.modulus} != {k * k}"

    out = cycle_union_nbc(8, frozenset({0, 1, 2}), 3)
    if isinstance(out, Refusal) or not is_nbkc(*out).balanced:
        ok, detail = False, "three-copy union over {0,1,2} failed"

    big, _ = union_over_set(UnionSpec(cycle_graph(8), frozenset({0, 1}), 5))
    if big.n != 32:
        ok, detail = False, f"expected 32-vertex union, built {big.n}"
    elif solve(big, 2).status != "UNSAT":
        ok, detail = False, "non-ideal 5-copy union unexpectedly colorable"

    _report(7, "union-suite", time.perf_counter() - t0, 120.0, ok, detail)


# ---------------------------------------------------------------------------
# 8. Colorability is not hereditary
# ---------------------------------------------------------------------------


def test_criterion_08_non_heredity_witness():
    t0 = time.perf_counter()
    g = complete_graph(4)
    host, c, emb = embed_in_nbkc(g, 2)
    sub, _ = induced_subgraph(host, set(emb))
    ok = (
        check_necessary(g, 2).verdict == "provably-uncolorable"
        and is_nbkc(host, c).balanced
        and sub.m == g.m
        and sub.n == g.n
    )
    _report(8, "non-heredity", time.perf_counter() - t0, 5.0, ok,
            "host unbalanced or induced copy damaged")


# ---------------------------------------------------------------------------
# 9. The appendix gadget really is flawed
# ---------------------------------------------------------------------------


def test_criterion_09_flawed_gadget_regression():
    t0 = time.perf_counter()
    fg = flawed_gadget({4, 3, 1})
    free = solve(fg.graph, 2)
    colors = same_color_witness(fg.graph, 2, fg.u1, fg.u2)
    ok = free.status == "SAT" and colors is not None
    detail = f"free={free.status} pinned={'UNSAT' if colors is None else 'SAT'}"
    if ok:
        ok = colors[fg.u1] == colors[fg.u2] and naive_balanced(fg.graph, colors, 2)
        detail = "pinned witness broken"
    _report(9, "flawed-gadget", time.perf_counter() - t0, 30.0, ok, detail)


# ---------------------------------------------------------------------------
# 10. Unequal classes by iterated vertex addition
# ---------------------------------------------------------------------------


def test_criterion_10_unequal_classes():
    t0 = time.perf_counter()
    g, c = complete_multipartite_nbc((2, 2), 2)
    ok, detail = True, ""
    for pairs in (((0, 1), (2, 3)), ((0, 5), (4, 6)), ((0, 8), (7, 9))):
        out = vertex_addition(g, c, *pairs)
        if isinstance(out, Refusal):
            ok, detail = False, f"addition refused: {out}"
            break
        g, c = out
        if not is_nbkc(g, c).balanced:
            ok, detail = False, "intermediate coloring unbalanced"
            break
    if ok:
        sizes = c.class_sizes()
        gaps = {other - sizes[0] for other in sizes[1:]}
        ok = gaps == {3}
        detail = f"class sizes {sizes}"
    _report(10, "unequal-classes", time.perf_counter() - t0, 5.0, ok, detail)
