"""Shared test utilities.

Everything here is deliberately independent of the package internals: the
balance checker below recounts neighbor colors with a plain dict, and the SAT
solver is a ~40-line DPLL.  They exist so the package can be tested against
code that shares none of its logic.
"""

import itertools
import math
from collections import Counter

from nbcolor import BalanceReport, Graph, to_cnf


def naive_balanced(g, colors, k, closed=False):
    """Recount neighbor colors from scratch; True iff every vertex is balanced.

    ``colors`` is any sequence of ints in 1..k, one per vertex.  Vertices with
    no neighbors count as balanced.
    """
    for v in range(g.n):
        seen = list(g.neighbors(v))
        if closed:
            seen.append(v)
        if not seen:
            continue
        tally = Counter(colors[u] for u in seen)
        counts = {tally.get(c, 0) for c in range(1, k + 1)}
        if len(counts) != 1:
            return False
    return True


def naive_report(g, colors, k, closed=False):
    """The report ``is_nbkc`` (``is_closed_nbkc`` if ``closed``) should give,
    recounted by walking ``g.edges`` with one Counter per vertex."""
    seen = [Counter() for _ in range(g.n)]
    edge_counts = [[0] * k for _ in range(k)]
    for u, v in g.edges:
        seen[u][colors[v]] += 1
        seen[v][colors[u]] += 1
        i, j = colors[u] - 1, colors[v] - 1
        edge_counts[i][j] += 1
        if i != j:
            edge_counts[j][i] += 1
    half = k // 2  # palette values: -half..half, skipping 0 when k is even
    value = {c: c - 1 - half if k % 2 or c <= half else c - half for c in range(1, k + 1)}
    weights = tuple(sum(value[c] * x for c, x in tally.items()) for tally in seen)
    violations = []
    for v, tally in enumerate(seen):
        counts = tuple(tally[c] + (closed and colors[v] == c) for c in range(1, k + 1))
        if len(set(counts)) != 1:
            violations.append((v, counts))
    return BalanceReport(
        not violations, k, closed, tuple(violations),
        tuple(colors.count(c) for c in range(1, k + 1)),
        tuple(map(tuple, edge_counts)), weights,
        tuple(c for c in range(1, k + 1) if c not in colors),
    )


def count_edge_reads(monkeypatch):
    """Patch ``Graph.edges`` to record every graph it is read on, and return
    the record (a list that grows as reads happen)."""
    reads = []
    derive = Graph.edges.fget

    def counted(g):
        reads.append(g)
        return derive(g)

    monkeypatch.setattr(Graph, "edges", property(counted))
    return reads


def _simplify(clauses, lit):
    """Condition a clause list on *lit* being true; None signals a conflict."""
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        reduced = tuple(x for x in clause if x != -lit)
        if not reduced:
            return None
        out.append(reduced)
    return out


def dpll(clauses):
    """Return a set of true literals satisfying *clauses*, or None.

    Plain DPLL with unit propagation.  The returned model may leave don't-care
    variables unmentioned.
    """
    clauses = [tuple(c) for c in clauses]
    if any(not c for c in clauses):
        return None
    model = set()
    while True:
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        model.add(unit)
        clauses = _simplify(clauses, unit)
        if clauses is None:
            return None
    if not clauses:
        return model
    branch = clauses[0][0]
    for choice in (branch, -branch):
        reduced = _simplify(clauses, choice)
        if reduced is None:
            continue
        sub = dpll(reduced)
        if sub is not None:
            return model | {choice} | sub
    return None


def complete_model(model, num_vars):
    """Extend a partial DPLL model to a total literal list (missing = false)."""
    return [v if v in model else -v for v in range(1, num_vars + 1)]


def same_color_witness(g, k, u, v):
    """Colors of a balanced k-coloring of g with c(u) == c(v), or None.

    Solves the CNF export plus the clauses "u has color c implies v has
    color c" with the DPLL above, so no search code of the package is used.
    """
    doc = to_cnf(g, k)
    pins = [(-doc.var(u, c), doc.var(v, c)) for c in range(1, k + 1)]
    model = dpll(list(doc.clauses) + pins)
    if model is None:
        return None
    return doc.decode_model(complete_model(model, doc.num_vars)).colors


def bowtie():
    """Two triangles sharing vertex 2: all degrees even, but its 6 edges are
    not a multiple of 2² = 4, so there is no balanced 2-coloring."""
    return Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def subdivided_k5():
    """K_5 on {0, 2, 3, 4, 5} with its edge 0-2 replaced by the path 0-6-1-2.

    Degrees 4 and 2, n = 7, |E| = 12: every screen passes at k = 2, yet there
    is no balanced 2-coloring.  No graph on 6 or fewer vertices is like that.
    """
    return Graph(7, [(0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 6),
                     (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def compiled_count(values, k):
    """Balanced k-colorings of the equal-sum-subsets graph compiled from
    ``values``, in closed form, without building the graph.

    With S = sum(values), the count is k! * ((k-1)!)^|T| * (k!)^S * E, where
    E counts the maps from elements to the k colors under which every color's
    elements sum to S/k (0 when k does not divide S).  A support sees its
    house's k-1 bases and one index, so those form a rainbow: every index of a
    house takes the one color its bases miss, in (k-1)! ways per house.  An
    index then needs its k supports and the k distributive vertices to hold
    two of each color, which makes both rainbows (k! ways each), and balance
    at a distributive vertex is the equal-sum condition on the house colors.
    """
    total = sum(values)
    if total % k:
        return 0
    share = total // k
    equal_sum_maps = 0
    for assignment in itertools.product(range(k), repeat=len(values)):
        sums = [0] * k
        for value, color in zip(values, assignment):
            sums[color] += value
        equal_sum_maps += all(s == share for s in sums)
    rainbows = math.factorial(k) * math.factorial(k - 1) ** len(values)
    return rainbows * math.factorial(k) ** total * equal_sum_maps


# ---------------------------------------------------------------------------
# Plain edge-list references for the package's builders.  Each returns
# (n, edges) straight from the construction's definition, for comparison
# with the builder through the validating ``Graph(n, edges)``.  Graphs given
# as input are read through ``n`` and ``edges`` only.
# ---------------------------------------------------------------------------


def _pairs_where(n, adjacent):
    return [(u, v) for u, v in itertools.combinations(range(n), 2) if adjacent(u, v)]


def naive_cycle(m):
    return m, [(i, (i + 1) % m) for i in range(m)]


def naive_complete_multipartite(sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return len(part), _pairs_where(len(part), lambda u, v: part[u] != part[v])


def naive_circulant(n, connections):
    return n, _pairs_where(n, lambda u, v: (v - u) % n in connections
                           or (u - v) % n in connections)


def naive_hamming(d, k):
    words = list(itertools.product(range(k), repeat=d))  # first letter most significant
    differ = lambda u, v: sum(a != b for a, b in zip(words[u], words[v])) == 1
    return len(words), _pairs_where(len(words), differ)


def naive_product(kind, g, h):
    """The product of ``g`` and ``h``; pair (u, v) is vertex u * h.n + v."""
    ge = {frozenset(e) for e in g.edges}
    he = {frozenset(e) for e in h.edges}
    pairs = [(u, v) for u in range(g.n) for v in range(h.n)]

    def adjacent(i, j):
        (u, v), (x, y) = pairs[i], pairs[j]
        gu, hv = frozenset((u, x)) in ge, frozenset((v, y)) in he
        return {
            "cartesian": (u == x and hv) or (v == y and gu),
            "direct": gu and hv,
            "strong": (u == x or gu) and (v == y or hv),
            "lexicographic": gu or (u == x and hv),
        }[kind]

    return len(pairs), _pairs_where(len(pairs), adjacent)


def naive_join(g, h):
    edges = list(g.edges) + [(a + g.n, b + g.n) for a, b in h.edges]
    edges += [(u, g.n + v) for u in range(g.n) for v in range(h.n)]
    return g.n + h.n, edges


def naive_embed(g, k):
    n = g.n
    return k * n, [(p * n + u, q * n + v) for u, v in g.edges
                   for p in range(k) for q in range(k)]


def naive_vertex_addition(g, u_list, v_list):
    """Hub w = n next to all 2k chosen vertices; a_j = n + 2j - 1 next to
    every u_i and b_j = n + 2j next to every v_i, for j = 1..k-1."""
    n, k = g.n, len(u_list)
    edges = list(g.edges) + [(x, n) for x in (*u_list, *v_list)]
    for j in range(1, k):
        edges += [(u, n + 2 * j - 1) for u in u_list]
        edges += [(v, n + 2 * j) for v in v_list]
    return n + 2 * k - 1, edges


def naive_induced(g, s):
    members = sorted(set(s))
    return len(members), [(members.index(u), members.index(v)) for u, v in g.edges
                          if u in members and v in members]


def naive_union(g, glue, copies):
    """Glued vertices first, ascending; then each copy's other vertices in a
    block, ascending; every copy's edges mapped through its labels."""
    glued = sorted(glue)
    free = [v for v in range(g.n) if v not in glue]
    edges = []
    for j in range(copies):
        label = {v: i for i, v in enumerate(glued)}
        label.update((v, len(glued) + j * len(free) + i) for i, v in enumerate(free))
        edges += [(label[u], label[v]) for u, v in g.edges]
    return len(glued) + copies * len(free), edges


def naive_flawed_gadget(values):
    """K_{2,2} on v1, v2 | u1, u2 = 0, 1 | 2, 3, then per element a: a base
    next to 2a supports, and numeric t next to supports 2t-1, 2t, v1, v2."""
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    offset = 4
    for a in values:
        supports = range(offset + 1, offset + 1 + 2 * a)
        edges += [(offset, s) for s in supports]
        for t in range(a):
            numeric = offset + 1 + 2 * a + t
            edges += [(numeric, supports[2 * t]), (numeric, supports[2 * t + 1]),
                      (numeric, 0), (numeric, 1)]
        offset += 1 + 3 * a
    return offset, edges
