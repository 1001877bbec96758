"""Balanced-coloring constructions for standard graph families.

Each generator either returns a graph/coloring pair or a
:class:`~nbcolor.balance.Refusal` naming the hypothesis that fails.  Every
coloring handed back has passed the package's balance check, also under
``python -O``; one that fails contradicts its construction's proof and raises
``AssertionError`` (exit 3 in the CLI) instead of being returned.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from . import _EXPORTS
from .balance import Coloring, Refusal, _balanced_output
from .graph import (
    Graph, _Record, _require_int, _require_vertex,
    complete_multipartite_graph, cycle_graph,
)

__all__ = list(_EXPORTS["families"])


# ---------------------------------------------------------------------------
# Circulants
# ---------------------------------------------------------------------------


class CirculantSpec(_Record):
    """A circulant graph C_n(a_1, ..., a_s) with strictly increasing connections.

    Vertex v is adjacent to v ± a_i (mod n) for each connection a_i.  We
    require 1 <= a_1 < ... < a_s < n/2 so the graph is simple and 2s-regular.
    """

    __slots__ = _fields = ("n", "connections")
    n: int
    connections: tuple[int, ...]

    def __init__(self, n: int, connections: Iterable[int]) -> None:
        _require_int(n, "circulant order", 3)
        conns = tuple(connections)
        if not conns:
            raise ValueError("at least one connection is required")
        for i, a in enumerate(conns):
            _require_int(a, "connection", 1)
            if i > 0 and conns[i - 1] >= a:
                raise ValueError(f"connections must be strictly increasing: {conns}")
        if conns[-1] * 2 >= n:
            raise ValueError(f"largest connection {conns[-1]} must be < n/2 = "
                             f"{n // 2}{'.5' if n % 2 else ''}")
        self._store(n, conns)

    @property
    def arity(self) -> int:
        return len(self.connections)

    def graph(self) -> Graph:
        n = self.n
        # Connections below n/2 make the 2s offsets distinct mod n.
        offsets = self.connections + tuple(n - a for a in self.connections)
        rows = tuple(
            tuple(sorted([(v + a) % n for a in offsets])) for v in range(n)
        )
        return Graph._from_tables(n, rows)


def circulant_progression_nbc(spec: CirculantSpec) -> tuple[Graph, Coloring] | Refusal:
    """Balanced coloring of a circulant whose connections form a progression.

    With s connections, the palette size is k = s.  Hypotheses: consecutive
    connection differences are congruent to a common p (mod s) with p not a
    multiple of s, n ≡ 0 (mod s), and gcd(p, s) = 1.  Then a_i ≡ a_1 + (i-1)p
    (mod s) puts a_1..a_s in distinct residue classes mod s, one connection
    per class, which is :func:`circulant_residue_nbc`'s hypothesis at k = s;
    its coloring 1 + (v mod s) is returned (all ones when s = 1).
    """
    s = spec.arity
    conns = spec.connections
    n = spec.n

    diffs = [(conns[i + 1] - conns[i]) % s for i in range(s - 1)]
    if s >= 2:
        p = diffs[0]
        if any(d != p for d in diffs):
            return Refusal(
                "progression",
                f"connection differences mod {s} are {diffs}, not constant",
            )
        if p == 0:
            return Refusal(
                "progression",
                f"common difference ≡ 0 (mod {s}); connections collapse onto one residue",
            )
    else:
        p = 1  # single connection: trivially a progression

    if n % s != 0:
        return Refusal("order", f"n={n} is not a multiple of the arity s={s}")
    if math.gcd(p, s) != 1:
        return Refusal(
            "progression-step",
            f"step p={p} shares a factor with the arity s={s} "
            f"(gcd={math.gcd(p, s)}), so the residue walk cannot cover "
            f"all classes",
        )
    return _residue_coloring(spec, s)


def circulant_residue_nbc(
    spec: CirculantSpec, k: int
) -> tuple[Graph, Coloring] | Refusal:
    """Balanced k-coloring of a circulant via residue-uniform connections.

    Hypotheses: n ≡ 0 (mod k), arity ≡ 0 (mod k), and the connection values
    fall evenly across the k residue classes mod k (class k meaning ≡ 0).
    Then coloring vertex v with 1 + (v mod k) balances every neighborhood.
    """
    _require_int(k, "palette size", 2)
    n, conns, s = spec.n, spec.connections, spec.arity
    if n % k != 0:
        return Refusal("order", f"n={n} is not a multiple of k={k}")
    if s % k != 0:
        return Refusal("arity", f"arity s={s} is not a multiple of k={k}")
    per_class = [0] * k
    for a in conns:
        per_class[a % k] += 1
    want = s // k
    if any(x != want for x in per_class):
        observed = {i if i != 0 else k: per_class[i] for i in range(k)}
        return Refusal(
            "residue-spread",
            f"connections per residue class mod {k} are {observed}, "
            f"need exactly {want} in each class",
        )
    return _residue_coloring(spec, k)


def _residue_coloring(spec: CirculantSpec, k: int) -> tuple[Graph, Coloring]:
    g = spec.graph()
    candidate = Coloring(k, tuple(1 + (v % k) for v in range(spec.n)))
    return g, _balanced_output(g, candidate, f"residue {k}-coloring of {spec}")


# ---------------------------------------------------------------------------
# Hamming graphs and hypercubes
# ---------------------------------------------------------------------------


class HammingSpec(_Record):
    """The Hamming graph H(d, k): words of length d over {1..k}, adjacency
    = differ in exactly one coordinate.  d(k-1)-regular on k^d vertices.

    Vertex indices are mixed-radix with the first coordinate most
    significant, so index 0 is (1,...,1) and index k^d - 1 is (k,...,k).
    """

    __slots__ = _fields = ("d", "k")
    d: int
    k: int

    def __init__(self, d: int, k: int) -> None:
        _require_int(d, "word length", 1)
        _require_int(k, "alphabet size", 2)
        self._store(d, k)

    @property
    def n(self) -> int:
        return self.k**self.d

    def index_of(self, word: tuple[int, ...]) -> int:
        if len(word) != self.d:
            raise ValueError(f"word length {len(word)} != d={self.d}")
        idx = 0
        for a in word:
            _require_int(a, "letter")
            if not 1 <= a <= self.k:
                raise ValueError(f"letter {a} outside 1..{self.k}")
            idx = idx * self.k + (a - 1)
        return idx

    def word_of(self, index: int) -> tuple[int, ...]:
        _require_vertex(index, self.n, "index")
        letters = []
        for _ in range(self.d):
            letters.append(index % self.k + 1)
            index //= self.k
        return tuple(reversed(letters))

    def graph(self) -> Graph:
        # H(j + 1, k) from H(j, k), one new most significant coordinate with
        # place value w = k^j: vertex lo + x, with lo = a * w, has the
        # neighbours b * w + x for every digit b != a, around lo plus x's own
        # neighbours.  The b < a ones lie below lo and the b > a ones above
        # lo + w, so every row comes out ascending.
        rows: list[tuple[int, ...]] = [()]
        w = 1
        for _ in range(self.d):
            top = self.k * w
            rows = [
                (*range(x, lo, w), *map(lo.__add__, row), *range(lo + w + x, top, w))
                for lo in range(0, top, w)
                for x, row in enumerate(rows)
            ]
            w = top
        return Graph._from_tables(w, tuple(rows))


def hamming_nbc(d: int, k: int) -> tuple[Graph, Coloring, HammingSpec] | Refusal:
    """Balanced k-coloring of the Hamming graph H(d, k).

    Exists iff d ≡ 0 (mod k).  The coloring sums, mod k, the letters of every
    coordinate except positions 1, k+1, 2k+1, ...; with d = qk coordinates
    that leaves q "silent" positions.  Changing a silent coordinate keeps the
    color (contributing k-1 same-colored neighbors per silent position);
    changing a contributing coordinate walks through all other colors once.
    """
    spec = HammingSpec(d, k)
    if d % k != 0:
        return Refusal(
            "length-divisibility",
            f"word length d={d} is not a multiple of the alphabet size k={k}",
        )
    g = spec.graph()
    # Letter sums of the contributing coordinates, one coordinate at a time
    # from the most significant: a prefix at index p extended by digit a
    # sits at index p * k + a.
    totals = [0]
    for j in range(d):
        digits = range(k) if j % k else (0,) * k  # silent iff j ≡ 0 (mod k)
        totals = [t + a for t in totals for a in digits]
    colors = tuple(1 + t % k for t in totals)
    return g, _balanced_output(g, Coloring(k, colors), f"coloring of {spec}"), spec


def hypercube_nbc(d: int) -> tuple[Graph, Coloring, HammingSpec] | Refusal:
    """Balanced 2-coloring of the d-cube Q_d = H(d, 2); exists iff d is even."""
    return hamming_nbc(d, 2)


# ---------------------------------------------------------------------------
# Complete multipartite, complete, cycles
# ---------------------------------------------------------------------------


def complete_multipartite_nbc(
    sizes: tuple[int, ...] | list[int], k: int
) -> tuple[Graph, Coloring] | Refusal:
    """Balanced k-coloring of a complete multipartite graph.

    Exists iff every part size is a multiple of k; then splitting each part
    evenly across the k colors works, since every neighborhood is a union of
    whole parts.
    """
    sizes = tuple(sizes)
    _require_int(k, "palette size", 2)
    if len(sizes) < 2:
        raise ValueError(f"need at least 2 parts, got {len(sizes)}")
    for s in sizes:
        _require_int(s, "part size", 1)
    for i, s in enumerate(sizes):
        if s % k != 0:
            return Refusal(
                "part-divisibility",
                f"part {i} has size {s}, not a multiple of k={k}",
            )
    g = complete_multipartite_graph(sizes)
    colors: list[int] = []
    for s in sizes:
        per = s // k
        for c in range(1, k + 1):
            colors.extend([c] * per)
    candidate = Coloring(k, tuple(colors))
    return g, _balanced_output(g, candidate, f"{k}-coloring of parts {sizes}")


def complete_graph_nbc(n: int, k: int) -> Refusal:
    """Complete graphs admit no balanced coloring for any k >= 2: every vertex
    has degree n-1, so balance needs k | n-1, while the color classes seen
    from any vertex force k | n as well — impossible for k >= 2.
    """
    _require_int(n, "vertex count", 2)
    _require_int(k, "palette size", 2)
    if (n - 1) % k != 0:
        return Refusal(
            "degree-divisibility",
            f"degree n-1={n - 1} is not a multiple of k={k}",
        )
    return Refusal(
        "order-conflict",
        f"k={k} divides the degree n-1={n - 1}, so it cannot also divide "
        f"the order n={n}; yet a balanced coloring of K_n forces both",
    )


def cycle_nbc(m: int) -> tuple[Graph, Coloring] | Refusal:
    """Balanced 2-coloring of the cycle C_m; exists iff m ≡ 0 (mod 4).

    The repeating pattern 1,1,2,2 gives every vertex one neighbor of each
    color.  m odd fails the order condition (2 ∤ m); m ≡ 2 (mod 4) has
    m edges with m ≢ 0 (mod 4), failing the size condition.
    """
    g = cycle_graph(m)
    if m % 2 == 1:
        return Refusal("regular-order", f"m={m} is odd, not a multiple of k=2")
    if m % 4 != 0:
        return Refusal(
            "regular-size",
            f"C_{m} has {m} edges, not a multiple of k²=4",
        )
    pattern = (1, 1, 2, 2)
    candidate = Coloring(2, tuple(pattern[v % 4] for v in range(m)))
    return g, _balanced_output(g, candidate, f"coloring of C_{m}")
