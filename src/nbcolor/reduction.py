"""Hardness machinery: equal-sum-subsets instances compiled to coloring ones.

The compiler attaches one (k, a)-house per multiset element a plus k shared
"distributive" vertices.  House structure forces, in any balanced coloring
of the compiled graph, all of a house's index vertices to share one color —
so each element effectively picks a subset — and balance at the distributive
vertices forces the k subset sums equal.  ``_house_layout`` alone states the
house layout and ``_layouts`` alone places an instance's houses, one after
another; ``_house_rows`` writes the rows of ``house`` and ``reduce_ess_to_nbc``
from a layout, and the graph takes them without a normalizing pass.  One
reader takes the partition back out of a balanced coloring: ``decode`` feeds
it the compiled houses, ``decode_from_roles`` the houses it recovers from an
untrusted role sidecar.  ``ess_brute_force`` is the independent ground truth
for the partition problem.

``flawed_gadget`` reproduces, as a regression artifact, an earlier
construction from the literature whose correctness argument breaks: its
hub pair u1, u2 may legally share a color, which desynchronizes the
numeric-vertex split the argument relied on.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import product

from . import _EXPORTS
from .balance import (
    BalanceReport, Coloring, _balanced, _balanced_output, _require_fit, is_nbkc
)
from .graph import Graph, _Record, _require_int

__all__ = list(_EXPORTS["reduction"])


class EssInstance(_Record):
    """A k-equal-sum-subsets question: split T into k parts of equal sum.

    An instance whose total is not divisible by k is representable — it is
    simply unsatisfiable — so divisibility is reported, not enforced.
    """

    __slots__ = _fields = ("values", "k")
    values: tuple[int, ...]
    k: int

    def __init__(self, values: Iterable[int], k: int) -> None:
        values = tuple(values)
        if not values:
            raise ValueError("the multiset must be nonempty")
        _require_int(k, "subset count", 2)
        for a in values:
            _require_int(a, "element", 1)
        self._store(values, k)

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
    """
    bases = range(offset, offset + k - 1)
    supports = range(bases.stop, bases.stop + k * n)
    indexes = range(supports.stop, supports.stop + n)
    return bases, supports, indexes


def _house_rows(k: int, layout: tuple[range, ...], hub: tuple[int, ...]) -> list:
    """The adjacency rows of the k-house laid out as ``layout``.

    The rows are each house vertex's ascending neighbours in label order:
    every index is also adjacent to every ``hub`` vertex, which lies above
    the house.  The k-1 bases share one row, as do the k supports of one
    index.  No edge list is made; the graph derives one if it is read.
    """
    bases, supports, indexes = layout
    base_row = tuple(bases)
    rows = [tuple(supports)] * len(bases)
    for i in indexes:
        rows += [base_row + (i,)] * k
    rows += [block + hub for block in zip(*[iter(supports)] * k)]
    return rows


class HouseGadget(_Record):
    """An isolated (k, n)-house as ``_house_layout`` lays it out at offset 0."""

    __slots__ = _fields = ("k", "n", "graph", "bases", "supports", "indexes")
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
    layout = _house_layout(k, n)
    graph = Graph._from_tables(layout[2].stop, tuple(_house_rows(k, layout, ())))
    return HouseGadget(k, n, graph, *map(tuple, layout))


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


class HousePlacement(_Record):
    """One compiled house; its vertices are read off ``_house_layout``."""

    __slots__ = _fields = ("element", "k", "offset")
    element: int
    k: int
    offset: int

    def bases(self) -> tuple[int, ...]:
        return tuple(_house_layout(self.k, self.element, self.offset)[0])

    def supports(self) -> tuple[int, ...]:
        return tuple(_house_layout(self.k, self.element, self.offset)[1])

    def indexes(self) -> tuple[int, ...]:
        return tuple(_house_layout(self.k, self.element, self.offset)[2])


def _house_span(inst: EssInstance) -> int:
    """How many vertices the houses of ``inst`` take: (k+1)·ΣT + (k-1)·|T|."""
    return (inst.k + 1) * inst.total + (inst.k - 1) * len(inst.values)


def _layouts(inst: EssInstance) -> Iterator[tuple[int, tuple[range, range, range]]]:
    """Each element of ``inst`` with its house's (bases, supports, indexes),
    in order, each house starting where the one before it ends."""
    k, offset = inst.k, 0
    for a in inst.values:
        layout = _house_layout(k, a, offset)
        yield a, layout
        offset = layout[2].stop


class ReductionInstance(_Record):
    """A compiled equal-sum-subsets question: the instance and its graph.

    ``houses[i]`` hosts element ``instance.values[i]``, each house starting
    where the one before it ends; ``distributive`` are the k vertices after
    the houses, adjacent to every index vertex of every house.  Both are
    derived from the instance on each read.
    """

    __slots__ = _fields = ("instance", "graph")
    instance: EssInstance
    graph: Graph

    @property
    def houses(self) -> tuple[HousePlacement, ...]:
        k = self.instance.k
        return tuple(HousePlacement(a, k, lay[0].start) for a, lay in _layouts(self.instance))

    @property
    def distributive(self) -> tuple[int, ...]:
        start = _house_span(self.instance)
        return tuple(range(start, start + self.instance.k))

    def roles(self) -> dict[int, tuple[str, int | None]]:
        """A fresh vertex -> (role, element) table; distributive vertices carry None."""
        table: dict[int, tuple[str, int | None]] = {}
        for a, layout in _layouts(self.instance):
            for role, labels in zip(("base", "support", "index"), layout):
                table.update(dict.fromkeys(labels, (role, a)))
        table.update(dict.fromkeys(self.distributive, ("distributive", None)))
        return table


def reduce_ess_to_nbc(inst: EssInstance) -> ReductionInstance:
    """Compile an equal-sum-subsets instance to a balanced-coloring instance.

    One (k, a)-house per element a, in input order, followed by k mutually
    nonadjacent distributive vertices each adjacent to every index vertex.
    Total vertex count: (k+1)·ΣT + (k-1)·|T| + k.
    """
    k, n = inst.k, _house_span(inst)
    distributive = tuple(range(n, n + k))
    rows: list[tuple[int, ...]] = []
    all_indexes: list[int] = []
    for _, layout in _layouts(inst):
        rows += _house_rows(k, layout, distributive)
        all_indexes += layout[2]
    # Houses occupy ascending label blocks below the distributive vertices,
    # so the concatenated rows are already the canonical ones.
    rows += [tuple(all_indexes)] * k
    graph = Graph._from_tables(n + k, tuple(rows))
    return ReductionInstance(inst, graph)


class UnbalancedColoring(ValueError):
    """The coloring handed to a decoder is not balanced; ``report`` says where."""

    def __init__(self, report: BalanceReport) -> None:
        super().__init__(
            f"coloring is not balanced on the compiled graph: "
            f"{len(report.violations)} vertices violate balance"
        )
        self.report = report


def _require_balanced(g: Graph, c: Coloring) -> None:
    """Both decoders' first gate: ``c`` fits ``g`` and is balanced on it."""
    _require_fit(g, c)
    if not _balanced(g.adjacency, c.colors, c.k):
        raise UnbalancedColoring(is_nbkc(g, c))


def _read_houses(
    houses: Iterable[tuple[int, Sequence[int]]], c: Coloring
) -> tuple[tuple[int, ...], ...]:
    """The partition ``c`` spells on (element, index vertices) houses: element a
    joins subset i when its index vertices carry color i.  A house of two
    colors or unequal subset sums raise ``ValueError``."""
    colors = c.colors
    subsets: list[list[int]] = [[] for _ in range(c.k)]
    for element, indexes in houses:
        seen = {colors[v] for v in indexes}
        if len(seen) != 1:
            raise ValueError(
                f"index vertices of the house at {indexes[0]} carry colors "
                f"{sorted(seen)}; a balanced coloring of a well-formed "
                f"instance cannot do that"
            )
        subsets[seen.pop() - 1].append(element)
    sums = [sum(part) for part in subsets]
    if len(set(sums)) != 1:
        raise ValueError(f"decoded subset sums {sums} differ; the houses are inconsistent")
    return tuple(map(tuple, subsets))


def decode(rinst: ReductionInstance, c: Coloring) -> tuple[tuple[int, ...], ...]:
    """Read the equal-sum partition out of a balanced coloring of ``rinst``.

    The trusted door.  After the balance gate (:class:`UnbalancedColoring`),
    ``c`` must use the instance's k colors and the graph must have the
    vertex count the instance compiles to (``ValueError``); the reader takes
    each house's index vertices from ``_house_layout``.
    """
    _require_balanced(rinst.graph, c)
    inst, n = rinst.instance, rinst.graph.n
    if c.k != inst.k:
        raise ValueError(
            f"coloring palette {c.k} does not match the instance's k = {inst.k}"
        )
    expected = _house_span(inst) + inst.k
    if n != expected:
        raise ValueError(
            f"the graph has {n} vertices, not the {expected} that {inst} compiles to"
        )
    return _read_houses([(a, layout[2]) for a, layout in _layouts(inst)], c)


def decode_from_roles(
    g: Graph, roles: dict[int, tuple[str, int | None]], c: Coloring
) -> tuple[tuple[int, ...], ...]:
    """Decode a partition from a graph plus an untrusted role sidecar.

    The sidecar door: everything read is validated, the balance gate first.
    The sidecar must label every vertex, houses are recovered as connected
    components after removing the distributive vertices, each house's
    element is its index-vertex count (cross-checked against the sidecar's
    element labels), and ``decode``'s reader takes them from there.  Any
    inconsistency raises ``ValueError``.
    """
    _require_balanced(g, c)
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
    adj = g.adjacency
    seen = [role == "distributive" for role in kinds]
    houses: list[tuple[int, list[int]]] = []
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
        houses.append((len(indexes), indexes))
    return _read_houses(houses, c)


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


class FlawedGadget(_Record):
    """The appendix regression artifact: a 2-coloring gadget that leaks.

    ``v1, v2`` form the side A every numeric vertex attaches to; ``u1, u2``
    form side B.  The broken argument assumed a balanced coloring splits the
    numeric vertices evenly; taking u1 and u2 monochromatic shifts that
    split by two, which is exactly what the regression test exhibits.
    """

    __slots__ = _fields = ("graph", "v1", "v2", "u1", "u2", "packs")
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
            table.update(dict.fromkeys(supports, ("support", element)))
            table.update(dict.fromkeys(numerics, ("numeric", element)))
        return table


def flawed_gadget(values: tuple[int, ...] | list[int]) -> FlawedGadget:
    """Build the appendix construction for a multiset of positive integers.

    Start from K_{2,2} on A = {v1, v2}, B = {u1, u2}.  For each element a,
    add an a-pack: a base adjacent to 2a supports, numeric vertex t adjacent
    to supports 2t-1 and 2t, and every numeric vertex adjacent to both
    vertices of A.  Numeric vertices end up with degree 4.
    """
    values = EssInstance(values, 2).values  # checked as a two-way partition question
    v1, v2, u1, u2 = 0, 1, 2, 3
    rows: list[tuple[int, ...]] = [(), (), (v1, v2), (v1, v2)]  # v1's, v2's: below
    packs = []
    offset = 4
    for a in values:
        base = offset
        supports = tuple(range(offset + 1, offset + 1 + 2 * a))
        numerics = tuple(range(offset + 1 + 2 * a, offset + 1 + 3 * a))
        rows.append(supports)
        rows += [(base, numerics[pos // 2]) for pos in range(2 * a)]
        rows += [(v1, v2, s, s + 1) for s in supports[::2]]
        packs.append((a, supports, numerics, base))
        offset += 1 + 3 * a
    # v1 and v2 are adjacent to B and to every numeric vertex, in label order.
    rows[v1] = rows[v2] = (u1, u2, *[t for p in packs for t in p[2]])
    graph = Graph._from_tables(offset, tuple(rows))
    return FlawedGadget(
        graph=graph, v1=v1, v2=v2, u1=u1, u2=u2, packs=tuple(packs)
    )
