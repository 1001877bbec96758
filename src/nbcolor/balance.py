"""Colorings, balance verification, and arithmetic necessary conditions.

A coloring of a graph on n vertices assigns each vertex a color from
``1..k``.  It is *neighborhood-balanced* when every vertex sees every color
equally often among its neighbors; the closed variant includes the vertex
itself in its own neighborhood.  This module provides the exact verifier,
a signed-weight diagnostic, the divisibility-based impossibility checks,
and the two palette operations (divisor recoloring, cyclic shift) that
preserve balance.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from operator import add, mul

from . import _EXPORTS
from .graph import Graph, _Record, _require_int

__all__ = list(_EXPORTS["balance"])


class Coloring(_Record):
    """An assignment of colors ``1..k`` to the vertices of a graph.

    ``colors[v]`` is the color of vertex ``v``.  ``k`` is the palette size;
    every entry must lie in ``1..k`` but not every color needs to be used
    (unused colors simply make balance unattainable on any vertex with
    neighbors, which the verifier reports rather than rejects).
    """

    __slots__ = _fields = ("k", "colors")
    k: int
    colors: tuple[int, ...]

    def __init__(self, k: int, colors: Sequence[int]) -> None:
        _require_int(k, "palette size", 1)
        if not isinstance(colors, tuple):
            colors = tuple(colors)
        for v, c in enumerate(colors):
            if not (isinstance(c, int) and 1 <= c <= k):
                _require_int(c, f"color of vertex {v}")
                raise ValueError(
                    f"vertex {v} has color {c}, outside the palette 1..{k}"
                )
        self._store(k, colors)

    def __len__(self) -> int:
        return len(self.colors)

    def used_colors(self) -> frozenset[int]:
        return frozenset(self.colors)

    def class_sizes(self) -> tuple[int, ...]:
        sizes = [0] * self.k
        for c in self.colors:
            sizes[c - 1] += 1
        return tuple(sizes)


class Refusal(_Record):
    """A constructive operation declining because a hypothesis fails.

    ``rule`` is a stable machine-readable identifier; ``detail`` explains the
    specific arithmetic that failed, in terms of the inputs at hand.
    Refusals signal mathematical impossibility, not malformed input —
    malformed input raises ``ValueError``.
    """

    __slots__ = _fields = ("rule", "detail")
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"refused ({self.rule}): {self.detail}"


class BalanceReport(_Record):
    """Outcome of exact balance verification.

    ``violations`` lists, for each unbalanced vertex, the per-color neighbor
    counts it actually sees.  ``class_sizes[c-1]`` counts vertices of color c.
    ``edge_class_counts[i][j]`` counts edges joining color i+1 to color j+1
    (each undirected edge counted once; diagonal = monochromatic edges).
    ``weights[v]`` is the signed neighborhood weight diagnostic.
    """

    __slots__ = _fields = (
        "balanced", "k", "closed", "violations", "class_sizes", "edge_class_counts",
        "weights", "unused_colors",
    )
    balanced: bool
    k: int
    closed: bool
    violations: tuple[tuple[int, tuple[int, ...]], ...]
    class_sizes: tuple[int, ...]
    edge_class_counts: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    unused_colors: tuple[int, ...]


def signed_color_value(color: int, k: int) -> int:
    """Map a color in 1..k to its signed palette value.

    Odd k = 2t+1 maps onto {-t..t} (color t+1 ↦ 0); even k = 2t maps onto
    {-t..-1, 1..t} with no zero.  Either way the palette values sum to zero,
    so a balanced neighborhood always has zero total weight.
    """
    _require_int(color, "color")
    _require_int(k, "palette size", 1)
    if not 1 <= color <= k:
        raise ValueError(f"color {color} outside palette 1..{k}")
    if k % 2 == 1:
        t = (k - 1) // 2
        return color - 1 - t
    t = k // 2
    return color - t - 1 if color <= t else color - t


def _require_fit(g: Graph, c: Coloring, prefix: str = "") -> None:
    """Raise ValueError unless ``c`` colors exactly the vertices of ``g``.

    ``prefix`` names the coloring in the message, e.g. ``"base "``.
    """
    if len(c.colors) != g.n:
        raise ValueError(
            f"{prefix}coloring covers {len(c.colors)} vertices, graph has {g.n}"
        )


def weight(g: Graph, c: Coloring, v: int) -> int:
    """Signed neighborhood weight of v: sum of signed values of its neighbors.

    Zero weight is necessary for balance at v but not sufficient once k >= 3,
    so this is a diagnostic, never a substitute for exact counting.
    """
    _require_fit(g, c)
    return sum(signed_color_value(c.colors[u], c.k) for u in g.neighbors(v))


def _verify(g: Graph, c: Coloring, closed: bool) -> BalanceReport:
    _require_fit(g, c)
    k, colors = c.k, c.colors
    values = [signed_color_value(color, k) for color in range(1, k + 1)]
    violations: list[tuple[int, tuple[int, ...]]] = []
    weights: list[int] = []
    # Row i sums the counts of the vertices of color i+1: an edge between
    # two colors lands once in each of their rows, a monochromatic edge
    # twice on the diagonal.
    edge_counts = [[0] * k for _ in range(k)]
    for v, nb in enumerate(g.adjacency):
        counts = [0] * k
        for u in nb:
            counts[colors[u] - 1] += 1
        # The weight diagnostic and the edge classes stay over the open
        # neighbourhood.
        weights.append(sum(map(mul, counts, values)))
        own = colors[v] - 1
        edge_counts[own] = list(map(add, edge_counts[own], counts))
        if closed:
            counts[own] += 1
        # An empty neighbourhood has share 0 in every color: vacuously balanced.
        share, rem = divmod(len(nb) + closed, k)
        if rem or counts.count(share) != k:
            violations.append((v, tuple(counts)))
    for i in range(k):
        edge_counts[i][i] //= 2
    unused = tuple(sorted(set(range(1, k + 1)) - set(colors)))
    return BalanceReport(
        balanced=not violations,
        k=k,
        closed=closed,
        violations=tuple(violations),
        class_sizes=c.class_sizes(),
        edge_class_counts=tuple(tuple(row) for row in edge_counts),
        weights=tuple(weights),
        unused_colors=unused,
    )


def is_nbkc(g: Graph, c: Coloring) -> BalanceReport:
    """Check that every vertex sees each color equally often among neighbors."""
    return _verify(g, c, closed=False)


def is_closed_nbkc(g: Graph, c: Coloring) -> BalanceReport:
    """Closed-neighborhood variant: each vertex counts itself as well."""
    return _verify(g, c, closed=True)


def _balanced(
    adj: Iterable[Sequence[int]], assignment: Sequence[int], k: int
) -> bool:
    """Whether every neighbourhood in ``adj`` sees colors 1..k equally often.

    The one yes/no balance check: it stops at the first unbalanced vertex and
    builds no report.  ``_verify`` answers the same question at length.

    A row that is the same object as the row before it is checked once.
    Builders hand one row tuple to consecutive vertices with the same
    neighbourhood (a part of a multipartite graph, the supports and the
    distributive vertices of a reduction), and a tuple cannot change between
    the two reads, so its verdict is the one just given.
    """
    last = None
    for nb in adj:
        if nb is last or not nb:
            continue
        last = nb
        share, rem = divmod(len(nb), k)
        if rem:
            return False
        # counts[0] is seeded with the share, so the row is balanced
        # exactly when all k + 1 entries equal it.
        counts = [0] * (k + 1)
        counts[0] = share
        for u in nb:
            counts[assignment[u]] += 1
        if counts.count(share) <= k:
            return False
    return True


def _degree_offender(degrees: Sequence[int], k: int) -> int | None:
    """The first vertex whose degree is not a multiple of k, or None."""
    return next((v for v, d in enumerate(degrees) if d % k), None)


def _screen(adj: Sequence[Sequence[int]], m: int, k: int) -> str | None:
    """The first necessary condition that a graph with neighbourhoods ``adj``
    and ``m`` edges fails for k colors, or None if it passes them all.

    The one yes/no screen: it reads only the distinct degrees, checks the
    rules in ``check_necessary``'s order and builds no report.
    ``check_necessary`` takes its ``failed_rule`` from here.

    The last rule, size-divisibility (k² divides m), holds for every graph
    with a balanced k-coloring, isolated vertices or not; ``check_necessary``
    gives the proof.  On a regular graph regular-size, the same test, fires
    first and keeps its name.
    """
    degrees = set(map(len, adj))
    for d in degrees:
        if d % k:
            return "degree-divisibility"
    n = len(adj)
    if n and 0 not in degrees:  # isolated vertices make the order rules vacuous
        if n < 2 * k:
            return "min-order"
        if len(degrees) == 1:  # r-regular with r >= 1
            if n % k:
                return "regular-order"
            if m % (k * k):
                return "regular-size"
    return "size-divisibility" if m % (k * k) else None


def _balanced_input(g: Graph, c: Coloring, name: str) -> Coloring:
    """Return a caller's coloring of g if it is balanced; else raise ValueError."""
    _require_fit(g, c, f"{name} ")
    if not _balanced(g.adjacency, c.colors, c.k):
        raise ValueError(f"{name} coloring is not balanced")
    return c


def _balanced_output(g: Graph, c: Coloring, what: str) -> Coloring:
    """Return a coloring of g the package built if it is balanced.

    An unbalanced one contradicts the proof behind ``what``, so this raises
    ``AssertionError`` explicitly: the check also holds under ``python -O``.
    """
    if len(c.colors) != g.n or not _balanced(g.adjacency, c.colors, c.k):
        raise AssertionError(f"{what} is unbalanced, contradicting its proof")
    return c


class RegularityChecks(_Record):
    """Sub-checks that apply only to r-regular graphs with r >= 1."""

    __slots__ = _fields = (
        "degree", "order_residue", "size_residue", "order_ok", "size_ok",
    )
    degree: int
    order_residue: int  # n mod k
    size_residue: int  # |E| mod k^2
    order_ok: bool
    size_ok: bool


class NecessityReport(_Record):
    """Outcome of the arithmetic screening for k-balanceability.

    ``verdict`` is ``"possibly-colorable"`` or ``"provably-uncolorable"``;
    in the latter case ``failed_rule`` names the first rule that failed.
    The screening is sound but *incomplete*: a graph can pass every check
    and still admit no balanced coloring.
    """

    __slots__ = _fields = (
        "k", "degree_ok", "degree_offender", "order_ok", "order_detail", "regularity",
        "size_ok", "verdict", "failed_rule",
    )
    k: int
    degree_ok: bool
    degree_offender: int | None  # first vertex whose degree is not divisible by k
    order_ok: bool
    order_detail: str
    regularity: RegularityChecks | None
    size_ok: bool  # |E| ≡ 0 (mod k²), checked on every graph
    verdict: str
    failed_rule: str | None

    @property
    def possibly_colorable(self) -> bool:
        return self.verdict == "possibly-colorable"


def check_necessary(g: Graph, k: int) -> NecessityReport:
    """Run the divisibility and order screens, in fixed rule order.

    Rules, in the order they are checked and reported:

    1. degree-divisibility: every degree must be a multiple of k.
    2. min-order: a nonempty graph without isolated vertices needs n >= 2k.
    3. regular-order: an r-regular graph (r >= 1) needs n ≡ 0 (mod k).
    4. regular-size: an r-regular graph (r >= 1) needs |E| ≡ 0 (mod k²).
    5. size-divisibility: every graph needs |E| ≡ 0 (mod k²).  Rule 4 is
       its regular case, kept first so a regular graph's refusal keeps its
       name.  Proof: let V_1..V_k be the classes of a balanced coloring and
       S_i = Σ_{v∈V_i} d(v)/k.  Each v in V_i has d(v)/k neighbours in
       every class, so for i ≠ j, e(V_i, V_j) = S_i, and by symmetry
       S_i = S_j; within one class, 2·e(V_i) = S_i.  So every S_i is one
       even number S and |E| = k·S/2 + C(k,2)·S = k²·S/2.

    The regularity sub-report is populated whenever it applies, even if an
    earlier rule already failed, so callers can always read off the residues.
    ``failed_rule`` (and so ``verdict``) comes from ``_screen``, the yes/no
    screen ``solve`` gates through; the other fields explain it.
    """
    _require_int(k, "palette size", 1)
    degrees = g.degrees()
    degree_offender = _degree_offender(degrees, k)

    if g.n >= 1 and 0 not in degrees:
        order_ok = g.n >= 2 * k
        order_detail = (
            f"n={g.n} >= 2k={2 * k}"
            if order_ok
            else f"n={g.n} < 2k={2 * k} with no isolated vertices"
        )
    else:
        order_ok = True
        order_detail = (
            "vacuous: empty graph" if g.n == 0 else "vacuous: isolated vertex present"
        )

    regularity: RegularityChecks | None = None
    if g.m and g.is_regular():
        regularity = RegularityChecks(
            degree=degrees[0],
            order_residue=g.n % k,
            size_residue=g.m % (k * k),
            order_ok=g.n % k == 0,
            size_ok=g.m % (k * k) == 0,
        )

    failed_rule = _screen(g.adjacency, g.m, k)
    verdict = "provably-uncolorable" if failed_rule else "possibly-colorable"
    return NecessityReport(
        k=k,
        degree_ok=degree_offender is None,
        degree_offender=degree_offender,
        order_ok=order_ok,
        order_detail=order_detail,
        regularity=regularity,
        size_ok=g.m % (k * k) == 0,
        verdict=verdict,
        failed_rule=failed_rule,
    )


def divisor_recolor(c: Coloring, p: int) -> Coloring:
    """Collapse a balanced k-coloring onto p colors, for any divisor p of k.

    Color i becomes 1 + ((i-1) mod p).  Because the k classes merge into p
    groups of k/p classes each, every balanced neighborhood stays balanced.
    """
    _require_int(p, "target palette")
    if p < 2:
        raise ValueError(f"target palette must have at least 2 colors, got {p}")
    if c.k % p != 0:
        raise ValueError(f"{p} does not divide the palette size {c.k}")
    return Coloring(p, tuple(1 + ((col - 1) % p) for col in c.colors))


def cyclic_shift(c: Coloring, i: int) -> Coloring:
    """Rotate the palette by i positions: color j becomes 1 + ((j-1+i) mod k).

    A shift permutes color classes, so balance is preserved exactly.
    """
    _require_int(i, "shift")
    if not 0 <= i < c.k:
        raise ValueError(f"shift must lie in 0..{c.k - 1}, got {i}")
    return Coloring(c.k, tuple(1 + ((col - 1 + i) % c.k) for col in c.colors))


def permute_colors(c: Coloring, perm: Mapping[int, int] | Sequence[int]) -> Coloring:
    """Apply an arbitrary palette permutation (1-based); balance is preserved."""
    if isinstance(perm, Mapping):
        table = dict(perm)
    else:
        table = {i + 1: p for i, p in enumerate(perm)}
    if sorted(table) != list(range(1, c.k + 1)) or sorted(table.values()) != list(
        range(1, c.k + 1)
    ):
        raise ValueError(f"not a permutation of 1..{c.k}: {table}")
    return Coloring(c.k, tuple(table[col] for col in c.colors))
