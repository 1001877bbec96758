"""Immutable simple undirected graphs on vertices 0..n-1.

Everything else in the package builds on this representation, so it is kept
deliberately small: dense integer vertices, adjacency precomputed once,
deterministic iteration order everywhere.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def _require_int(value: object, what: str, least: int | None = None) -> None:
    """Raise ValueError unless ``value`` is an int, and at least ``least`` if given."""
    if not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")


def _require_vertex(v: object, n: int, what: str = "vertex") -> None:
    """Raise ValueError unless ``v`` is an int in 0..n-1."""
    if not (isinstance(v, int) and 0 <= v < n):
        raise ValueError(f"{what} {v} outside 0..{n - 1}")


class Graph:
    """A simple undirected graph.

    Vertices are the integers ``0..n-1``.  Self-loops are rejected outright;
    duplicate edges are deduplicated silently.  Instances are immutable and
    hashable, and may be shared freely between threads.

    ``adjacency`` is the same table that ``neighbors`` indexes: entry v is the
    ascending tuple of v's neighbours.  Code that walks every vertex reads it
    once instead of range-checking each vertex.

    The constructor validates and normalizes everything it is given.  The
    private ``Graph._from_tables`` skips that for tables the package derives
    itself (the compiled reduction instances): it trusts the caller that the
    edges are already canonical and the rows match them.
    """

    __slots__ = ("_n", "_edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not (isinstance(n, int) and n >= 0):
            _require_int(n, "vertex count")
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        # A dict dedupes in input order, and sorting input that is already in
        # order (the builders' and most files') is one linear pass.
        normalized: dict[tuple[int, int], None] = {}
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u} is not representable")
            normalized[(u, v) if u < v else (v, u)] = None
        self._n = n
        self._edges: tuple[tuple[int, int], ...] = tuple(sorted(normalized))
        # A vertex gets a list at its first edge; isolated vertices share the
        # empty tuple, so a graph of n vertices and no edges costs one slot each.
        adj: list = [()] * n
        for u, v in self._edges:  # in edge order, every list grows ascending
            nb = adj[u]
            if nb:
                nb.append(v)
            else:
                adj[u] = [v]
            nb = adj[v]
            if nb:
                nb.append(u)
            else:
                adj[v] = [u]
        self._adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))

    @classmethod
    def _from_tables(
        cls,
        n: int,
        edges: tuple[tuple[int, int], ...],
        adj: tuple[tuple[int, ...], ...],
    ) -> Graph:
        """A graph whose tables the caller guarantees are canonical.

        ``edges`` must be sorted (min, max) pairs with both ends in 0..n-1,
        no self-loops and no duplicates; ``adj[v]`` must be v's neighbours in
        ascending order, exactly as ``edges`` lists them.  Nothing is checked:
        only builders that derive both tables from one layout may call this.
        """
        g = cls.__new__(cls)
        g._n, g._edges, g._adj = n, edges, adj
        return g

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (min, max) pairs in lexicographic order."""
        return self._edges

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        _require_vertex(v, self._n)
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self._adj))

    def has_edge(self, u: int, v: int) -> bool:
        # Membership in the sorted neighbor tuple is fine at these sizes and
        # avoids carrying a side set around.
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self._adj[u]

    def is_regular(self) -> bool:
        degs = self.degrees()
        return self._n == 0 or all(d == degs[0] for d in degs)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"


def induced_subgraph(g: Graph, s: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by the vertex set ``s``, relabeled to 0..|s|-1.

    Returns the subgraph together with the remapping table: entry ``i`` of the
    table is the original label of new vertex ``i`` (members in ascending order).
    """
    members = sorted(set(s))
    for v in members:
        _require_vertex(v, g.n)
    position = {v: i for i, v in enumerate(members)}
    member_set = set(members)
    edges = [
        (position[u], position[v])
        for u, v in g.edges
        if u in member_set and v in member_set
    ]
    return Graph(len(members), edges), tuple(members)


def cycle_graph(m: int) -> Graph:
    _require_int(m, "cycle length")
    if m < 3:
        raise ValueError(f"a cycle needs at least 3 vertices, got {m}")
    return Graph(m, [(i, (i + 1) % m) for i in range(m)])


def complete_graph(n: int) -> Graph:
    _require_int(n, "vertex count")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_multipartite_graph(part_sizes: Iterable[int]) -> Graph:
    """Complete multipartite graph; part ``i`` occupies a consecutive index block."""
    sizes = list(part_sizes)
    for s in sizes:
        _require_int(s, "part size")
    if any(s < 1 for s in sizes):
        raise ValueError(f"part sizes must be positive, got {sizes}")
    starts = [0]
    for s in sizes:
        starts.append(starts[-1] + s)
    n = starts[-1]
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for u in range(starts[i], starts[i + 1]):
                for v in range(starts[j], starts[j + 1]):
                    edges.append((u, v))
    return Graph(n, edges)
