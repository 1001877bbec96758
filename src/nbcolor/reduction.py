"""Hardness machinery: equal-sum-subsets instances compiled to coloring ones.

The compiler attaches one (k, a)-house per multiset element a plus k shared
"distributive" vertices.  House structure forces, in any balanced coloring
of the compiled graph, all of a house's index vertices to share one color —
so each element effectively picks a subset — and balance at the distributive
vertices forces the k subset sums equal.  ``_house_layout`` alone states the
house layout; ``house`` and ``reduce_ess_to_nbc`` take their tables from it,
the sorted edge tuple and the adjacency rows alike, and hand them to the
graph without a second normalizing pass.
``decode_from_roles`` validates a balanced coloring and its role table and
reads the partition back out; ``ess_brute_force`` is the independent ground
truth for the partition problem.

``flawed_gadget`` reproduces, as a regression artifact, an earlier
construction from the literature whose correctness argument breaks: its
hub pair u1, u2 may legally share a color, which desynchronizes the
numeric-vertex split the argument relied on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product, repeat

from .balance import (
    BalanceReport, Coloring, _balanced, _balanced_output, _require_fit, is_nbkc
)
from .graph import Graph, _require_int


@dataclass(frozen=True)
class EssInstance:
    """A k-equal-sum-subsets question: split T into k parts of equal sum.

    An instance whose total is not divisible by k is representable — it is
    simply unsatisfiable — so divisibility is reported, not enforced.
    """

    values: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("the multiset must be nonempty")
        for a in values:
            _require_int(a, "element")
        _require_int(self.k, "subset count", 2)
        if any(a < 1 for a in values):
            raise ValueError(f"all elements must be positive integers: {values}")

    @property
    def total(self) -> int:
        return sum(self.values)

    @property
    def divisible(self) -> bool:
        return self.total % self.k == 0


def _house_layout(k: int, n: int, offset: int = 0) -> tuple[range, range, range]:
    """The (k, n)-house at ``offset``: its (bases, supports, indexes) ranges.

    Local labels: bases 0..k-2, then kn supports, then n indexes.  Every
    base is adjacent to every support; support number j is adjacent to index
    number j // k (consecutive blocks of k supports per index).  So a support
    has degree exactly k, which is what forces rainbow neighborhoods around
    supports and, from there, a single shared color on all indexes.

    ``house`` and ``reduce_ess_to_nbc`` take their tables from these ranges,
    the sorted edges and the adjacency rows alike, through ``_house_tables``.
    """
    bases = range(offset, offset + k - 1)
    supports = range(bases.stop, bases.stop + k * n)
    indexes = range(supports.stop, supports.stop + n)
    return bases, supports, indexes


def _house_tables(
    k: int, bases: range, supports: range, indexes: range, hub: tuple[int, ...]
) -> tuple[chain, chain]:
    """The (edges, rows) of the house on ``_house_layout``'s ranges.

    Every index is also adjacent to every ``hub`` vertex, and the hub lies
    above the house.  ``edges`` yields (low, high) pairs in sorted order and
    ``rows`` each house vertex's ascending neighbours in label order: the
    k-1 bases share one row, as do the k supports of one index.
    """
    index_of_support = chain.from_iterable(map(repeat, indexes, repeat(k)))
    edges = chain(
        product(bases, supports),
        zip(supports, index_of_support),
        product(indexes, hub),
    )
    support_rows = map(tuple(bases).__add__, zip(indexes))  # bases, then (i,)
    rows = chain(
        repeat(tuple(supports), len(bases)),
        chain.from_iterable(map(repeat, support_rows, repeat(k))),
        map(tuple.__add__, zip(*[iter(supports)] * k), repeat(hub)),
    )
    return edges, rows


@dataclass(frozen=True)
class HouseGadget:
    """An isolated (k, n)-house as ``_house_layout`` lays it out at offset 0."""

    k: int
    n: int
    graph: Graph
    bases: tuple[int, ...]
    supports: tuple[int, ...]
    indexes: tuple[int, ...]


def house(k: int, n: int) -> HouseGadget:
    """Build a (k, n)-house: k-1 bases, kn supports and n indexes."""
    _require_int(k, "k", 2)
    _require_int(n, "n", 1)
    bases, supports, indexes = _house_layout(k, n)
    edges, rows = _house_tables(k, bases, supports, indexes, ())
    graph = Graph._from_tables(indexes.stop, tuple(edges), tuple(rows))
    return HouseGadget(k=k, n=n, graph=graph, bases=tuple(bases),
                       supports=tuple(supports), indexes=tuple(indexes))


def house_scheme_coloring(gadget: HouseGadget) -> Coloring:
    """The proof-scheme coloring of an isolated house.

    Bases take the k-1 distinct colors 1..k-1, every index takes color k,
    and each index's block of k supports is a rainbow.  The coloring has
    passed the balance check (``AssertionError`` otherwise).
    """
    k = gadget.k
    colors = [0] * gadget.graph.n
    for i, b in enumerate(gadget.bases):
        colors[b] = i + 1
    for idx in gadget.indexes:
        colors[idx] = k
    for pos, s in enumerate(gadget.supports):
        colors[s] = (pos % k) + 1
    what = f"scheme coloring of the ({k},{gadget.n})-house"
    return _balanced_output(gadget.graph, Coloring(k, tuple(colors)), what)


@dataclass(frozen=True)
class HousePlacement:
    """One compiled house; its vertices are read off ``_house_layout``."""

    element: int
    k: int
    offset: int

    def bases(self) -> tuple[int, ...]:
        return tuple(_house_layout(self.k, self.element, self.offset)[0])

    def supports(self) -> tuple[int, ...]:
        return tuple(_house_layout(self.k, self.element, self.offset)[1])

    def indexes(self) -> tuple[int, ...]:
        return tuple(_house_layout(self.k, self.element, self.offset)[2])


@dataclass(frozen=True)
class ReductionInstance:
    """A compiled equal-sum-subsets question.

    ``houses[i]`` hosts element ``instance.values[i]``; ``distributive`` are
    the k vertices adjacent to every index vertex of every house.
    """

    instance: EssInstance
    graph: Graph
    houses: tuple[HousePlacement, ...]
    distributive: tuple[int, ...]

    def roles(self) -> dict[int, tuple[str, int | None]]:
        """Vertex -> (role, element) table; distributive vertices carry None."""
        table: dict[int, tuple[str, int | None]] = {}
        for p in self.houses:
            layout = _house_layout(p.k, p.element, p.offset)
            for role, labels in zip(("base", "support", "index"), layout):
                table.update(dict.fromkeys(labels, (role, p.element)))
        table.update(dict.fromkeys(self.distributive, ("distributive", None)))
        return table


def reduce_ess_to_nbc(inst: EssInstance) -> ReductionInstance:
    """Compile an equal-sum-subsets instance to a balanced-coloring instance.

    One (k, a)-house per element a, in input order, followed by k mutually
    nonadjacent distributive vertices each adjacent to every index vertex.
    Total vertex count: sum over elements of ((k+1)a + k-1), plus k.
    """
    k = inst.k
    n = sum((k + 1) * a + k - 1 for a in inst.values)
    distributive = tuple(range(n, n + k))
    placements: list[HousePlacement] = []
    edges: list[tuple[int, int]] = []
    rows: list[tuple[int, ...]] = []
    all_indexes: list[int] = []
    offset = 0
    for a in inst.values:
        placements.append(HousePlacement(element=a, k=k, offset=offset))
        bases, supports, indexes = _house_layout(k, a, offset)
        house_edges, house_rows = _house_tables(k, bases, supports, indexes, distributive)
        edges.extend(house_edges)
        rows.extend(house_rows)
        all_indexes.extend(indexes)
        offset = indexes.stop
    # Houses occupy ascending label blocks below the distributive vertices,
    # so the concatenated tables are already the sorted, canonical ones.
    rows.extend(repeat(tuple(all_indexes), k))
    return ReductionInstance(
        instance=inst,
        graph=Graph._from_tables(n + k, tuple(edges), tuple(rows)),
        houses=tuple(placements),
        distributive=distributive,
    )


def decode(rinst: ReductionInstance, c: Coloring) -> tuple[tuple[int, ...], ...]:
    """Read the equal-sum partition out of a balanced coloring of ``rinst``.

    :func:`decode_from_roles` on the instance's own role table: element a
    joins subset i when its house's index vertices carry color i, and a
    coloring that is unbalanced or does not fit raises ``ValueError``.
    """
    return decode_from_roles(rinst.graph, rinst.roles(), c)


class UnbalancedColoring(ValueError):
    """The coloring handed to a decoder is not balanced; ``report`` says where."""

    def __init__(self, report: BalanceReport) -> None:
        super().__init__(
            f"coloring is not balanced on the compiled graph: "
            f"{len(report.violations)} vertices violate balance"
        )
        self.report = report


def decode_from_roles(
    g: Graph,
    roles: dict[int, tuple[str, int | None]],
    c: Coloring,
) -> tuple[tuple[int, ...], ...]:
    """Decode a partition from a graph plus an untrusted role sidecar.

    Everything read is validated.  The coloring is checked first, and an
    unbalanced one raises :class:`UnbalancedColoring`.  The sidecar must
    label every vertex, houses are recovered as connected components after
    removing the distributive vertices, each house's element is its
    index-vertex count (cross-checked against the sidecar's element labels),
    and any inconsistency raises ``ValueError``.
    """
    _require_fit(g, c)
    adj = g.adjacency
    if not _balanced(adj, c.colors, c.k):
        raise UnbalancedColoring(is_nbkc(g, c))
    if set(roles) != set(range(g.n)):
        missing = sorted(set(range(g.n)) - set(roles))
        extra = sorted(set(roles) - set(range(g.n)))
        raise ValueError(
            f"role sidecar does not label the graph exactly: missing "
            f"{missing[:5]}, extraneous {extra[:5]}"
        )
    entries = [roles[v] for v in range(g.n)]
    kinds = [role for role, _ in entries]
    known = {"base", "support", "index", "distributive"}
    alien = [v for v, role in enumerate(kinds) if role not in known]
    if alien:
        raise ValueError(
            f"sidecar assigns roles outside {sorted(known)} to vertices {alien[:5]}"
        )
    k = kinds.count("distributive")
    if k < 2:
        raise ValueError(f"sidecar lists {k} distributive vertices; need at least 2")
    if c.k != k:
        raise ValueError(
            f"coloring palette {c.k} does not match the {k} distributive vertices"
        )

    # Distributive vertices start out seen, so no house reaches across them.
    seen = [role == "distributive" for role in kinds]
    subsets: list[list[int]] = [[] for _ in range(k)]
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for v in component:  # grows while it is walked
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    component.append(u)
        indexes = [v for v in component if kinds[v] == "index"]
        if not indexes:
            raise ValueError(
                f"component containing vertex {start} has no index vertices"
            )
        elements = {entries[v][1] for v in component} - {None}
        if elements != {len(indexes)}:
            raise ValueError(
                f"component containing vertex {start} has {len(indexes)} index "
                f"vertices but sidecar element labels {sorted(elements)}"
            )
        colors = {c.colors[v] for v in indexes}
        if len(colors) != 1:
            raise ValueError(
                f"index vertices of the house at {start} carry colors "
                f"{sorted(colors)}; a balanced coloring of a well-formed "
                f"instance cannot do that"
            )
        subsets[colors.pop() - 1].append(len(indexes))
    sums = [sum(part) for part in subsets]
    if len(set(sums)) != 1:
        raise ValueError(f"decoded subset sums {sums} differ; sidecar is inconsistent")
    return tuple(tuple(part) for part in subsets)


_ESS_CAP = 3**12


def ess_brute_force(inst: EssInstance) -> tuple[tuple[int, ...], ...] | None:
    """Ground-truth partition search by plain enumeration.

    Assigns each element to one of k subsets (all k^|T| ways, first hit in
    odometer order) and demands every subset sum equal sum(T)/k.  Subsets
    partition the whole multiset — nothing may be left out.
    """
    k = inst.k
    values = inst.values
    if k ** len(values) > _ESS_CAP:
        raise ValueError(
            f"instance too large to enumerate: k^|T| = {k}^{len(values)} "
            f"exceeds the cap {_ESS_CAP}"
        )
    if not inst.divisible:
        return None
    share = inst.total // k
    for assignment in product(range(k), repeat=len(values)):
        sums = [0] * k
        for value, bucket in zip(values, assignment):
            sums[bucket] += value
        if all(s == share for s in sums):
            subsets: list[list[int]] = [[] for _ in range(k)]
            for value, bucket in zip(values, assignment):
                subsets[bucket].append(value)
            return tuple(tuple(part) for part in subsets)
    return None


@dataclass(frozen=True)
class FlawedGadget:
    """The appendix regression artifact: a 2-coloring gadget that leaks.

    ``v1, v2`` form the side A every numeric vertex attaches to; ``u1, u2``
    form side B.  The broken argument assumed a balanced coloring splits the
    numeric vertices evenly; taking u1 and u2 monochromatic shifts that
    split by two, which is exactly what the regression test exhibits.
    """

    graph: Graph
    v1: int
    v2: int
    u1: int
    u2: int
    packs: tuple[tuple[int, tuple[int, ...], tuple[int, ...], int], ...]
    # each pack: (element, supports, numerics, base)

    def roles(self) -> dict[int, tuple[str, int | None]]:
        table: dict[int, tuple[str, int | None]] = {
            self.v1: ("hub-A", None),
            self.v2: ("hub-A", None),
            self.u1: ("hub-B", None),
            self.u2: ("hub-B", None),
        }
        for element, supports, numerics, base in self.packs:
            table[base] = ("base", element)
            for s in supports:
                table[s] = ("support", element)
            for t in numerics:
                table[t] = ("numeric", element)
        return table


def flawed_gadget(values: tuple[int, ...] | list[int]) -> FlawedGadget:
    """Build the appendix construction for a multiset of positive integers.

    Start from K_{2,2} on A = {v1, v2}, B = {u1, u2}.  For each element a,
    add an a-pack: a base adjacent to 2a supports, numeric vertex t adjacent
    to supports 2t-1 and 2t, and every numeric vertex adjacent to both
    vertices of A.  Numeric vertices end up with degree 4.
    """
    values = tuple(values)
    if not values:
        raise ValueError("the multiset must be nonempty")
    for a in values:
        _require_int(a, "element")
    if any(a < 1 for a in values):
        raise ValueError(f"all elements must be positive integers: {values}")
    v1, v2, u1, u2 = 0, 1, 2, 3
    edges = [(v1, u1), (v1, u2), (v2, u1), (v2, u2)]
    packs = []
    offset = 4
    for a in values:
        base = offset
        supports = tuple(range(offset + 1, offset + 1 + 2 * a))
        numerics = tuple(range(offset + 1 + 2 * a, offset + 1 + 3 * a))
        for s in supports:
            edges.append((base, s))
        for t_pos, t in enumerate(numerics):
            edges.append((t, supports[2 * t_pos]))
            edges.append((t, supports[2 * t_pos + 1]))
            edges.append((t, v1))
            edges.append((t, v2))
        packs.append((a, supports, numerics, base))
        offset += 1 + 3 * a
    graph = Graph(offset, edges)
    return FlawedGadget(
        graph=graph, v1=v1, v2=v2, u1=u1, u2=u2, packs=tuple(packs)
    )


__all__ = [
    "EssInstance",
    "HouseGadget",
    "HousePlacement",
    "ReductionInstance",
    "FlawedGadget",
    "house",
    "house_scheme_coloring",
    "reduce_ess_to_nbc",
    "decode",
    "decode_from_roles",
    "UnbalancedColoring",
    "ess_brute_force",
    "flawed_gadget",
]
