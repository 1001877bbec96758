"""Composition operations: products, joins, embeddings, vertex addition.

The four standard graph products share one vertex indexing: the pair (u, v)
with u from the first factor G and v from the second factor H maps to index
``u * |V(H)| + v``.  :class:`VertexPairIndex` packages that correspondence so
callers can relate product vertices back to factor coordinates.  Every
builder here makes the adjacency rows of its result from its factors' rows
by index arithmetic; no edge list is made.

Color-transfer rules turn balanced colorings of factors into balanced
colorings of products, and small surgery operations (join, host embedding,
balanced vertex addition) extend colorings in controlled ways.  A coloring
handed in must be balanced (else ``ValueError``).  As in
:mod:`nbcolor.families`, every coloring handed back has passed the balance
check, also under ``python -O``; one that fails raises ``AssertionError``
(exit 3 in the CLI) instead of being returned.
"""

from __future__ import annotations

from bisect import bisect_left

from . import _EXPORTS
from .balance import Coloring, Refusal, _balanced_input, _balanced_output
from .graph import Graph, _Record, _require_int, _require_vertex

__all__ = list(_EXPORTS["products"])


class VertexPairIndex(_Record):
    """Bijection between product vertices and factor coordinate pairs."""

    __slots__ = _fields = ("g_order", "h_order")
    g_order: int
    h_order: int

    def __init__(self, g_order: int, h_order: int) -> None:
        _require_int(g_order, "g_order")
        _require_int(h_order, "h_order")
        self._store(g_order, h_order)

    def index(self, u: int, v: int) -> int:
        _require_int(u, "first coordinate")
        _require_int(v, "second coordinate")
        if not (0 <= u < self.g_order and 0 <= v < self.h_order):
            raise ValueError(f"pair ({u}, {v}) outside {self.g_order}x{self.h_order}")
        return u * self.h_order + v

    def pair(self, idx: int) -> tuple[int, int]:
        _require_int(idx, "index")
        if not 0 <= idx < self.g_order * self.h_order:
            raise ValueError(f"index {idx} outside the product vertex range")
        return divmod(idx, self.h_order)


def _product(g: Graph, h: Graph, within, across) -> Graph:
    """The product of g and h in which (u, v) is adjacent to (u, y) for y in
    ``within[v]`` and to (x, y) for x ~ u and y in ``across[v]``.

    Each of the two is, per v, an ascending set of H's vertices, and a
    symmetric relation (y in within[v] iff v in within[y]); v is never in
    within[v].  With (u, v) at index u * |V(H)| + v, a row lists the x < u
    part, then the u part, then the x > u part, so it comes out canonical.
    """
    nh = h.n
    rows = []
    for u, gu in enumerate(g.adjacency):
        base, cut = u * nh, bisect_left(gu, u)
        below, above = [x * nh for x in gu[:cut]], [x * nh for x in gu[cut:]]
        rows += [
            (*[x + y for x in below for y in ys], *map(base.__add__, hv),
             *[x + y for x in above for y in ys])
            for hv, ys in zip(within, across)
        ]
    return Graph._from_tables(g.n * nh, tuple(rows))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Box product: (u,v) ~ (u',v') iff u=u' and v~v', or v=v' and u~u'."""
    return _product(g, h, h.adjacency, [(v,) for v in range(h.n)])


def direct_product(g: Graph, h: Graph) -> Graph:
    """Tensor product: (u,v) ~ (u',v') iff u~u' and v~v'."""
    return _product(g, h, [()] * h.n, h.adjacency)


def strong_product(g: Graph, h: Graph) -> Graph:
    """Strong product: edge union of the box and tensor products."""
    closed = [tuple(sorted((v, *hv))) for v, hv in enumerate(h.adjacency)]
    return _product(g, h, h.adjacency, closed)


def lexicographic_product(g: Graph, h: Graph) -> Graph:
    """Lexicographic product: (u,v) ~ (u',v') iff u~u', or u=u' and v~v'."""
    return _product(g, h, h.adjacency, [range(h.n)] * h.n)


_PRODUCT_BUILDERS = {
    "cartesian": cartesian_product,
    "direct": direct_product,
    "strong": strong_product,
    "lexicographic": lexicographic_product,
}


def _builder(kind: str):
    try:
        return _PRODUCT_BUILDERS[kind]
    except KeyError:
        raise ValueError(
            f"unknown product kind {kind!r}; expected one of "
            f"{sorted(_PRODUCT_BUILDERS)}"
        ) from None


def product_graph(kind: str, g: Graph, h: Graph) -> Graph:
    return _builder(kind)(g, h)


def product_nbc(
    kind: str,
    g: Graph,
    h: Graph,
    cg: Coloring | None,
    ch: Coloring | None,
) -> tuple[Graph, Coloring, VertexPairIndex] | Refusal:
    """Transfer balanced colorings of the factors onto a product.

    Requirements by product kind:

    - ``cartesian`` / ``strong``: both factors balanced with the same k.
      Row u of the product uses ch shifted so that column vertex 0 lands on
      cg(u); rows then agree with cg on column 0 and every neighborhood mixes
      shifted copies evenly.
    - ``direct``: at least one factor balanced (prefer the first if both);
      copy that factor's coloring across the other coordinate.
    - ``lexicographic``: either both balanced with the same k (colors add
      mod k), or the second factor alone balanced with all color classes the
      same size (copy it down each fiber).

    Each rule picks k and the color of every pair (u, v); one tail builds it.
    """
    build = _builder(kind)
    if cg is not None:
        _balanced_input(g, cg, "first-factor")
    if ch is not None:
        _balanced_input(h, ch, "second-factor")

    if kind == "direct":
        if cg is not None:
            k, color = cg.k, lambda u, v: cg.colors[u]
        elif ch is not None:
            k, color = ch.k, lambda u, v: ch.colors[v]
        else:
            return Refusal(
                "missing-factor-coloring",
                "direct product transfer needs a balanced coloring of at "
                "least one factor",
            )
    elif kind == "lexicographic" and (cg is None or ch is None):
        if ch is None:
            return Refusal(
                "missing-factor-coloring",
                "lexicographic transfer needs either both factors colored or a "
                "second-factor coloring with equal class sizes",
            )
        sizes = ch.class_sizes()
        if len(set(sizes)) != 1:
            return Refusal(
                "unequal-classes",
                f"second-factor color classes have sizes {sizes}; copying a "
                f"fiber coloring requires them all equal",
            )
        k, color = ch.k, lambda u, v: ch.colors[v]
    else:
        if cg is None or ch is None:
            return Refusal(
                "missing-factor-coloring",
                f"{kind} product transfer needs balanced colorings of both factors",
            )
        if cg.k != ch.k:
            return Refusal(
                "palette-mismatch",
                f"factor palettes differ: {cg.k} vs {ch.k}",
            )
        # An empty second factor makes an empty product; any anchor will do.
        anchor = ch.colors[0] if kind != "lexicographic" and h.n else 1
        k, color = cg.k, lambda u, v: 1 + (ch.colors[v] - 1 + cg.colors[u] - anchor) % k

    prod = build(g, h)
    candidate = Coloring(
        k, tuple(color(u, v) for u in range(g.n) for v in range(h.n))
    )
    _balanced_output(prod, candidate, f"{kind} product transfer")
    return prod, candidate, VertexPairIndex(g.n, h.n)


def join_graph(g: Graph, h: Graph) -> Graph:
    """Join: disjoint union of g and h plus every cross edge.

    Vertices of g keep their labels; vertices of h are shifted by g.n.
    """
    gn = g.n
    first, second = tuple(range(gn)), tuple(range(gn, gn + h.n))
    rows = [gu + second for gu in g.adjacency]
    rows += [first + tuple(map(gn.__add__, hv)) for hv in h.adjacency]
    return Graph._from_tables(gn + h.n, tuple(rows))


def join_nbc(
    g: Graph, cg: Coloring, h: Graph, ch: Coloring
) -> tuple[Graph, Coloring] | Refusal:
    """Balanced coloring of the join of two balanced-colored graphs.

    Beyond balance of both factors with the same palette, every color class
    within each factor must have the same size: each g-vertex sees all of h,
    so h's classes must be uniform, and vice versa.
    """
    _balanced_input(g, cg, "first")
    _balanced_input(h, ch, "second")
    if cg.k != ch.k:
        return Refusal("palette-mismatch", f"palettes differ: {cg.k} vs {ch.k}")
    for name, coloring in (("first", cg), ("second", ch)):
        sizes = coloring.class_sizes()
        if len(set(sizes)) != 1:
            return Refusal(
                "unequal-classes",
                f"{name} factor has color class sizes {sizes}; the join "
                f"requires all classes equal within each factor",
            )
    joined = join_graph(g, h)
    candidate = Coloring(cg.k, cg.colors + ch.colors)
    return joined, _balanced_output(joined, candidate, "join coloring")


def embed_in_nbkc(
    g: Graph, k: int
) -> tuple[Graph, Coloring, tuple[int, ...]]:
    """Embed any graph as an induced subgraph of a balanced k-colorable host.

    The host takes k copies of g's vertex set; copy j (1-based) is colored j.
    For every edge of g, all k² cross-copy pairs (including same-copy) become
    host edges.  Copy 1 keeps g's own labels 0..n-1, so the returned
    embedding is the identity on the original vertices.
    """
    _require_int(k, "palette size", 2)
    if g.n == 0:
        raise ValueError("cannot embed the empty graph")
    n = g.n
    # Copy p of u is adjacent to every copy of every neighbour of u, so all
    # k copies of u share one row.
    rows = [tuple([q + v for q in range(0, k * n, n) for v in gu]) for gu in g.adjacency]
    host = Graph._from_tables(k * n, tuple(rows) * k)
    candidate = Coloring(k, tuple(1 + (idx // n) for idx in range(k * n)))
    _balanced_output(host, candidate, "host coloring")
    return host, candidate, tuple(range(n))


def vertex_addition(
    g: Graph,
    c: Coloring,
    u_list: tuple[int, ...] | list[int],
    v_list: tuple[int, ...] | list[int],
) -> tuple[Graph, Coloring] | Refusal:
    """Grow a balanced k-colored graph by 2k-1 vertices, skewing class sizes.

    Pick 2k distinct vertices u_1..u_k, v_1..v_k with c(u_i) = c(v_i) for
    each pair and the k pair colors covering the palette exactly once (a
    rainbow).  Add a hub w adjacent to all 2k chosen vertices, plus vertices
    a_1..a_{k-1} each adjacent to every u_i, and b_1..b_{k-1} each adjacent
    to every v_i.  The hub takes color 1 and the pair a_j, b_j takes color
    j+1.  Every chosen vertex then gains exactly one neighbor of each color,
    the hub sees each color twice (by the rainbow), and the new outer
    vertices see one of each — so balance survives.

    New labels: hub w = n, then a_j = n + 2j - 1 and b_j = n + 2j.

    Each application adds one vertex of color 1 and two of every other
    color, so iterating drives the color-1 class arbitrarily far below the
    rest — balanced colorings do not need equal class sizes.
    """
    k = c.k
    _require_int(k, "palette size", 2)
    _balanced_input(g, c, "base")
    if any(d == 0 for d in g.degrees()):
        raise ValueError("base graph must have no isolated vertices")
    u_list = tuple(u_list)
    v_list = tuple(v_list)
    if len(u_list) != k or len(v_list) != k:
        raise ValueError(f"need exactly k={k} pairs, got {len(u_list)}/{len(v_list)}")
    chosen = list(u_list) + list(v_list)
    if len(set(chosen)) != 2 * k:
        raise ValueError(f"the 2k chosen vertices must be distinct: {chosen}")
    for x in chosen:
        _require_vertex(x, g.n)
    for i in range(k):
        if c.colors[u_list[i]] != c.colors[v_list[i]]:
            return Refusal(
                "pair-color-mismatch",
                f"pair {i} has colors {c.colors[u_list[i]]} and "
                f"{c.colors[v_list[i]]}; each pair must share a color",
            )
    pair_colors = [c.colors[u] for u in u_list]
    if sorted(pair_colors) != list(range(1, k + 1)):
        return Refusal(
            "pair-rainbow",
            f"pair colors are {pair_colors}; the k pairs must cover each "
            f"color exactly once for the hub's neighborhood to balance",
        )

    n = g.n
    a_labels = tuple(range(n + 1, n + 2 * k - 1, 2))  # a_j = n + 2j - 1
    b_labels = tuple(range(n + 2, n + 2 * k, 2))  # b_j = n + 2j
    rows = list(g.adjacency)
    for u in u_list:
        rows[u] += (n, *a_labels)
    for v in v_list:
        rows[v] += (n, *b_labels)
    rows.append(tuple(sorted(chosen)))  # the hub w = n
    rows += [tuple(sorted(u_list)), tuple(sorted(v_list))] * (k - 1)
    new_colors = list(c.colors) + [1]
    for j in range(1, k):
        new_colors.extend([j + 1, j + 1])

    grown = Graph._from_tables(n + 2 * k - 1, tuple(rows))
    candidate = Coloring(k, tuple(new_colors))
    return grown, _balanced_output(grown, candidate, "vertex addition")
