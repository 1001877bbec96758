"""Unions of n copies of a graph glued along a vertex subset.

Write nG_S for the graph obtained from n disjoint copies of G by identifying
the copies of every vertex in S.  For independent S a balanced coloring of G
survives the gluing untouched; for dependent S there is an arithmetic
congruence every balanced union must satisfy, and for cycles the dependent
sets that work are characterized exactly ("ideal" sets below).

``UnionSpec`` checks every glue set.  The ``nbcolor union`` command alone
picks the theorem, from ``UnionSpec.inside_edges``: independent sets go to
:func:`union_nbc_independent` (through ``_independent_union``, which also
returns the union it builds), dependent sets to :func:`cycle_union_nbc` under
``--cycle M``; with a graph file and ``--coloring`` they are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .balance import Coloring, Refusal, _balanced_input, _balanced_output, cyclic_shift
from .families import cycle_nbc
from .graph import Graph, _require_int, _require_vertex, cycle_graph


@dataclass(frozen=True)
class UnionSpec:
    """n copies of ``base`` glued along the vertex set ``glue``.

    ``glue`` must be a nonempty proper subset of the base's vertices;
    ``copies`` must be at least 1.
    """

    base: Graph
    glue: frozenset[int]
    copies: int

    def __post_init__(self) -> None:
        glue = frozenset(self.glue)
        object.__setattr__(self, "glue", glue)
        _require_int(self.copies, "copy count")
        if self.copies < 1:
            raise ValueError(f"need at least one copy, got {self.copies}")
        if not glue:
            raise ValueError("glue set must be nonempty")
        for v in glue:
            _require_vertex(v, self.base.n, "glue vertex")
        if len(glue) == self.base.n:
            raise ValueError("glue set must be a proper subset of the vertices")

    @property
    def inside_edges(self) -> list[tuple[int, int]]:
        """Base edges with both ends glued; empty iff the glue set is independent."""
        return _inside_edges(self.base, self.glue)


def _inside_edges(g: Graph, s: frozenset[int]) -> list[tuple[int, int]]:
    return [(u, v) for u, v in g.edges if u in s and v in s]


def union_over_set(spec: UnionSpec) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Materialize nG_S with deterministic labels.

    Glued vertices come first, in ascending original label (union index i is
    the i-th smallest member of S).  Copy j (1-based) then occupies a block
    of the non-glued vertices, again in ascending original label.  Returns
    the union graph and one map per copy: ``maps[j-1][v]`` is the union index
    of original vertex v inside copy j.  All maps agree on S.

    Vertex and edge counts obey |V| = |S| + n(|V(G)| - |S|) and
    |E| = p + n(|E(G)| - p), where p counts edges inside S.
    """
    g, s, n = spec.base, spec.glue, spec.copies
    glued = sorted(s)
    free = [v for v in range(g.n) if v not in s]
    glue_index = {v: i for i, v in enumerate(glued)}
    free_index = {v: i for i, v in enumerate(free)}
    block = len(free)
    maps = []
    for j in range(n):
        offset = len(glued) + j * block
        table = tuple(
            glue_index[v] if v in s else offset + free_index[v] for v in range(g.n)
        )
        maps.append(table)
    edges = []
    for table in maps:
        for u, v in g.edges:
            edges.append((table[u], table[v]))
    union = Graph(len(glued) + n * block, edges)
    return union, tuple(maps)


def union_nbc_independent(
    g: Graph, c: Coloring, s: frozenset[int] | set[int], n: int
) -> Coloring:
    """Balanced coloring of nG_S when S is independent: every copy reuses c.

    A glued vertex's union neighborhood is n copies of its original one (S
    independent means none of its neighbors were glued), so the original
    per-color counts simply scale by n; other vertices keep their exact
    original neighborhoods.
    """
    return _independent_union(UnionSpec(g, s, n), c)[1]


def _independent_union(spec: UnionSpec, c: Coloring) -> tuple[Graph, Coloring]:
    """The union of ``spec`` and the copied coloring of
    :func:`union_nbc_independent`, building the union once."""
    inside = spec.inside_edges
    if inside:
        raise ValueError(
            f"glue set is not independent: edge {inside[0]} lies inside it"
        )
    _balanced_input(spec.base, c, "base")
    union, maps = union_over_set(spec)
    colors = [0] * union.n
    for table in maps:
        for v in range(spec.base.n):
            colors[table[v]] = c.colors[v]
    out = Coloring(c.k, tuple(colors))
    return union, _balanced_output(union, out, "independent-set union")


@dataclass(frozen=True)
class CongruenceReport:
    """Necessary congruence on the copy count for balanced dependent unions.

    ``q`` lists the degrees of the glued vertices inside the induced glue
    subgraph and ``p`` its edge count.  A balanced k-coloring of nG_S forces
    n ≡ 1 modulo lcm(L, M), where L = lcm over glued vertices of k/gcd(q_i, k)
    and M = k²/gcd(p, k²).  The condition is necessary, not sufficient.
    """

    k: int
    q: tuple[int, ...]
    p: int
    L: int
    M: int
    modulus: int

    def admissible(self, n: int) -> bool:
        return n % self.modulus == 1 % self.modulus


def union_congruence(g: Graph, s: frozenset[int] | set[int], k: int) -> CongruenceReport:
    """Compute the dependent-set congruence data for gluing along S."""
    _require_int(k, "palette size", 2)
    s = frozenset(s)
    for v in s:
        _require_vertex(v, g.n, "glue vertex")
    inside = _inside_edges(g, s)
    if not inside:
        raise ValueError(
            "glue set is independent; the congruence test only concerns "
            "dependent sets"
        )
    glued = sorted(s)
    q = tuple(
        sum(1 for u in g.neighbors(v) if u in s) for v in glued
    )
    p = len(inside)
    L = reduce(math.lcm, (k // math.gcd(qi, k) for qi in q), 1)
    M = (k * k) // math.gcd(p, k * k)
    return CongruenceReport(k=k, q=q, p=p, L=L, M=M, modulus=math.lcm(L, M))


# ---------------------------------------------------------------------------
# Cycles: ideal dependent sets and the full characterization
# ---------------------------------------------------------------------------


def _cycle_arcs(m: int, s: frozenset[int]) -> list[tuple[tuple[int, ...], int]]:
    """Maximal runs of cyclically consecutive members of S, sorted by start.

    Each run is listed in increasing cyclic order (a wrap run like {7, 0, 1}
    in a cycle of length 8 comes out as (7, 0, 1)) and paired with its gap:
    the number of non-members between it and the next run.  S must be a
    proper subset of 0..m-1.
    """
    starts = [v for v in sorted(s) if (v - 1) % m not in s]
    arcs = []
    for start in starts:
        arc = [start]
        nxt = (start + 1) % m
        while nxt in s:
            arc.append(nxt)
            nxt = (nxt + 1) % m
        arcs.append(tuple(arc))
    return [
        (arc, (nxt[0] - arc[-1] - 1) % m)
        for arc, nxt in zip(arcs, arcs[1:] + arcs[:1])
    ]


def is_ideal_dependent_set(m: int, s: frozenset[int] | set[int]) -> tuple[bool, str]:
    """Decide whether S is an ideal dependent set in the cycle C_m.

    Ideal means the induced subgraph C_m⟨S⟩ has (i) no single-vertex
    components, (ii) an odd number of cycle vertices strictly between any two
    consecutive components, and (iii) if there is only one component, it is a
    path with an even number of edges — equivalently, for even m, the
    wrap-around gap also has an odd vertex count.
    """
    return _ideality(UnionSpec(cycle_graph(m), s, 1))


def _ideality(spec: UnionSpec) -> tuple[bool, str]:
    m = spec.base.n
    arcs = _cycle_arcs(m, spec.glue)
    if all(len(a) == 1 for a, _ in arcs):
        raise ValueError(
            "glue set is independent in the cycle; ideality concerns "
            "dependent sets"
        )
    trivial = [a[0] for a, _ in arcs if len(a) == 1]
    if trivial:
        return False, f"single-vertex component at {trivial[0]}"
    if len(arcs) == 1:
        ((arc, gap),) = arcs
        edge_count = len(arc) - 1
        if edge_count % 2 == 1:
            return False, (
                f"lone component is a path with {edge_count} edges (odd); "
                f"an even path is required"
            )
        return True, (
            f"lone component is an even path with {edge_count} edges; "
            f"wrap gap has {gap} vertices (odd)"
        )
    for arc, gap in arcs:
        if gap % 2 == 0:
            return False, (
                f"gap between components ending at {arc[-1]} and starting "
                f"at {(arc[-1] + gap + 1) % m} has {gap} vertices (even); "
                f"odd is required"
            )
    return True, f"{len(arcs)} components, all gaps odd"


def cycle_union_nbc(
    m: int, s: frozenset[int] | set[int], n: int
) -> tuple[Graph, Coloring] | Refusal:
    """Balanced 2-coloring of the union of n copies of C_m glued along S.

    For odd n and m ≡ 0 (mod 4), the union admits a balanced 2-coloring if
    and only if S is an ideal dependent set.  The coloring keeps the base
    block pattern on S and on even gap offsets; on odd gap offsets the first
    (n+1)/2 copies keep the base pattern while the rest use its shift, so
    each component endpoint picks up (n-1)/2 extra neighbors of each color.

    Even n is refused outright: a component endpoint would have degree n + 1,
    which is odd, violating degree divisibility for k = 2.  Inputs are checked
    before any refusal: n < 1, or an S that is not a dependent proper subset
    of 0..m-1, raises ``ValueError``.
    """
    spec = UnionSpec(cycle_graph(m), s, n)
    ideal, reason = _ideality(spec)  # raises if S is independent
    if m % 4 != 0:
        return Refusal(
            "cycle-order",
            f"m={m} is not a multiple of 4, so even a single copy of C_{m} "
            f"has no balanced 2-coloring",
        )
    if n % 2 == 0:
        return Refusal(
            "glue-degree",
            f"with n={n} copies each component endpoint has degree n+1={n + 1}, "
            f"odd, so degree divisibility by 2 fails",
        )
    if not ideal:
        return Refusal(
            "not-ideal",
            f"{reason}; unions over non-ideal dependent sets admit no "
            f"balanced 2-coloring",
        )

    _, c = cycle_nbc(m)  # not a refusal: m is a multiple of 4 here
    c_bar = cyclic_shift(c, 1)
    odd_offsets = {
        (arc[-1] + offset) % m
        for arc, gap in _cycle_arcs(m, spec.glue)
        for offset in range(1, gap + 1, 2)
    }
    half = (n + 1) // 2
    union, maps = union_over_set(spec)
    colors = [0] * union.n
    for j, table in enumerate(maps):
        for x in range(m):
            chosen = c_bar if j >= half and x in odd_offsets else c
            colors[table[x]] = chosen.colors[x]
    candidate = Coloring(2, tuple(colors))
    what = f"union of {n} copies of C_{m} glued on {sorted(spec.glue)}"
    return union, _balanced_output(union, candidate, what)


__all__ = [
    "UnionSpec",
    "CongruenceReport",
    "union_over_set",
    "union_nbc_independent",
    "union_congruence",
    "is_ideal_dependent_set",
    "cycle_union_nbc",
]
