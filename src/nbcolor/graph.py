"""Immutable simple undirected graphs on vertices 0..n-1.

Everything else in the package builds on this representation, so it is kept
deliberately small: dense integer vertices, adjacency precomputed once,
deterministic iteration order everywhere.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import repeat
from operator import attrgetter

from . import _EXPORTS

__all__ = list(_EXPORTS["graph"])


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


def _edge_pairs(adj: Iterable[Iterable[int]]) -> list[tuple[int, int]]:
    """Every edge of the canonical rows ``adj`` once, as (u, v) with u < v,
    in lexicographic order: each row's neighbours above its vertex."""
    return [(u, v) for u, row in enumerate(adj) for v in row if u < v]


class _Record:
    """Base of the package's value records, immutable like ``Graph``.

    A subclass names its two or more fields once, in constructor order, in
    ``_fields``, which is also its ``__slots__``.  It gets a method
    ``_store``, compiled from ``_fields`` alone, that takes those fields in
    that order and stores each unchanged through its slot's own setter, past
    ``__setattr__``.  A record that writes no ``__init__`` takes ``_store``
    as its constructor.  One writes its own, ending in a ``_store`` call,
    when it checks or normalises its arguments (``Coloring``,
    ``CnfDocument``, ``SolveConfig``, ``CirculantSpec``, ``HammingSpec``,
    ``VertexPairIndex``, ``EssInstance``, ``UnionSpec``) or needs a fresh
    ``{}`` default per instance (``SolveOutcome``).  Equality, hash, repr and pickling work over
    ``_fields``.  Records of different classes never compare equal.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # Reads the tuple of field values off the record given as argument.
    _values: attrgetter

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:  # else all three are inherited with the fields
            cls._values = attrgetter(*cls._fields)
            # Compiled as namedtuple does.  A bound slot setter takes about
            # 0.6 of the time of object.__setattr__; solve builds one per call.
            names = ", ".join(cls._fields)
            body = "".join([f"\n    _set_{f}(self, {f})" for f in cls._fields])
            space = {f"_set_{f}": cls.__dict__[f].__set__ for f in cls._fields}
            space["__name__"] = cls.__module__
            exec(f"def _store(self, {names}):{body}", space)
            cls._store = store = space["_store"]
            if "__init__" not in cls.__dict__:
                cls.__init__ = store
                store.__qualname__ = f"{cls.__qualname__}.__init__"  # named in TypeErrors

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        return type(self), self._values(self)


class Graph:
    """A simple undirected graph.

    Vertices are the integers ``0..n-1``.  Self-loops are rejected outright;
    duplicate edges are deduplicated silently.  Instances are immutable and
    hashable, and may be shared freely between threads.

    ``adjacency`` is the one stored table, and the one ``neighbors``
    indexes: entry v is the ascending tuple of v's neighbours.  Code that
    walks every vertex reads it once instead of range-checking each vertex.
    A graph stores n, m and the rows only.  ``m``, equality and hashing read
    the rows and the stored edge count; ``edges`` is derived from the rows
    on every read.

    The constructor is the one validating front door, for edge lists from
    outside the package (parsed files, user code): it validates and
    normalizes everything it is given and builds the rows from it.  The
    package's own builders derive their rows from their structure and hand
    them to the private ``Graph._from_tables``, which checks nothing.
    """

    __slots__ = ("_n", "_m", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not (isinstance(n, int) and n >= 0):
            _require_int(n, "vertex count", 0)
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
        self._m = len(normalized)
        # A vertex gets a list at its first edge; isolated vertices share the
        # empty tuple, so a graph of n vertices and no edges costs one slot each.
        adj: list = [()] * n
        try:
            for u, v in sorted(normalized):  # in edge order, every list grows ascending
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
        except TypeError:  # a float endpoint passes the range test, indexes nothing
            raise ValueError(f"edge ({u}, {v}) has a non-integer endpoint") from None
        self._adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))

    @classmethod
    def _from_tables(cls, n: int, adj: tuple[tuple[int, ...], ...]) -> Graph:
        """A graph on the rows ``adj``, which the caller guarantees are canonical.

        ``adj`` has n rows, and ``adj[v]`` is v's neighbours in ascending
        order, with no v itself, no duplicates and every edge in both ends'
        rows.  Nothing is checked.  Only a builder whose rows are derived
        from parameters it has checked, or from the canonical rows of graphs
        it was given, may call this; edge lists from anywhere else go
        through the constructor.
        """
        g = cls.__new__(cls)
        g._n, g._m, g._adj = n, sum(map(len, adj)) // 2, adj
        return g

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (min, max) pairs in lexicographic order."""
        return tuple(_edge_pairs(self._adj))

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
        _require_int(u, "vertex")
        _require_int(v, "vertex")
        # Membership in the sorted neighbor tuple is fine at these sizes and
        # avoids carrying a side set around.
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self._adj[u]

    def is_regular(self) -> bool:
        """Whether every vertex has the same degree; true with no vertices
        and on an edgeless graph (0-regular)."""
        return len(set(map(len, self._adj))) < 2

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self._n, self._adj))

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
    adj = g.adjacency
    # Relabeling keeps the order, so each member's row stays ascending.
    rows = tuple(
        tuple([position[u] for u in adj[v] if u in position]) for v in members
    )
    return Graph._from_tables(len(members), rows), tuple(members)


def cycle_graph(m: int) -> Graph:
    _require_int(m, "cycle length", 3)
    rows = [(v - 1, v + 1) for v in range(m)]
    rows[0], rows[-1] = (1, m - 1), (0, m - 2)
    return Graph._from_tables(m, tuple(rows))


def complete_graph(n: int) -> Graph:
    _require_int(n, "vertex count", 0)
    full = tuple(range(n))
    return Graph._from_tables(n, tuple([full[:v] + full[v + 1:] for v in range(n)]))


def complete_multipartite_graph(part_sizes: Iterable[int]) -> Graph:
    """Complete multipartite graph; part ``i`` occupies a consecutive index block."""
    sizes = list(part_sizes)
    for s in sizes:
        _require_int(s, "part size", 1)
    full = tuple(range(sum(sizes)))
    rows: list[tuple[int, ...]] = []
    for s in sizes:  # every vertex of a part has the one row: all other parts
        start = len(rows)
        rows += repeat(full[:start] + full[start + s:], s)
    return Graph._from_tables(len(full), tuple(rows))
