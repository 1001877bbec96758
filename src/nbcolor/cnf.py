"""CNF export of balanced-coloring instances for external SAT solvers.

Variables 1..n*k are the selector literals: variable ``v*k + c`` says vertex
v takes color c.  Each vertex carries an exactly-one constraint, and each
(vertex, color c < k) pair an exact-cardinality constraint "exactly deg(v)/k
neighbors of v have color c", encoded with sequential counters.  Color k
needs none: every neighbor has one color, so the k-1 counts force its count.

The counter registers are fully defined (both implication directions), so a
model's register values are forced by the selector values: each balanced
coloring is one model, and decoding needs only the selectors.  The at-least
side reads off the final register, the at-most side forbids incrementing
past the quota.

A counter's clauses depend only on the degree and the quota, so a document
encodes one template per distinct degree, over numbered slots, and every
counted (vertex, color) pair fills a template's slots with its neighbors'
selectors and its own registers.  ``_plan`` decides the constraints, none
past a vertex ``balance._degree_offender`` finds.  The document keeps the
graph and k, not the clauses or the templates; each read of ``clauses`` and
each ``to_dimacs`` builds the templates afresh, and ``to_dimacs`` streams the
text one constraint at a time.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from io import StringIO, TextIOBase

from . import _EXPORTS
from .balance import Coloring, _degree_offender
from .graph import Graph, _Record, _require_int, _require_vertex

__all__ = list(_EXPORTS["cnf"])


class _Template(_Record):
    """Clauses over slots 1, 2, ...; a negative number is a negated slot.

    ``text`` is their DIMACS lines with a format field per slot (``{i}`` or
    ``-{i}`` for slot i + 1), so ``text.format(*values)`` renders the clauses
    with slot i + 1 standing for ``values[i]``.  ``registers`` counts the
    trailing slots that are the constraint's own fresh variables.
    """

    __slots__ = _fields = ("clauses", "text", "registers")
    clauses: tuple[tuple[int, ...], ...]
    text: str
    registers: int


def _template(clauses: list[tuple[int, ...]], registers: int = 0) -> _Template:
    fields = [
        " ".join([f"{{{s - 1}}}" if s > 0 else f"-{{{-s - 1}}}" for s in clause])
        for clause in clauses
    ]
    text = "".join(line + " 0\n" for line in fields)
    return _Template(tuple(clauses), text, registers)


# A refused instance's one clause: empty, so every solver answers UNSAT at once.
_EMPTY = _template([()])


class CnfDocument(_Record):
    """A propositional encoding of one balanced-coloring instance.

    ``clauses`` hold signed DIMACS-style literals.  ``var(v, c)`` maps a
    vertex/color pair to its selector variable; auxiliary counter variables
    live above ``n * k``.  The document stores k (at least 2), its comments
    and the graph; n, the counts and the clauses follow from them on each read.
    """

    __slots__ = _fields = ("k", "comments", "graph")
    k: int
    comments: tuple[str, ...]
    graph: Graph

    n = property(lambda self: self.graph.n)
    num_vars = property(lambda self: self._sizes(self._counters)[0])
    num_clauses = property(lambda self: self._sizes(self._counters)[1])
    _counters = property(lambda self: _plan(self.graph, self.k))

    def __init__(self, k: int, comments: tuple[str, ...], graph: Graph) -> None:
        _require_int(k, "palette size", 2)
        self._store(k, comments, graph)

    def var(self, v: int, c: int) -> int:
        _require_vertex(v, self.n)
        _require_int(c, "color")
        if not 1 <= c <= self.k:
            raise ValueError(f"color {c} outside 1..{self.k}")
        return v * self.k + c

    def decode_model(self, model: Iterable[int]) -> Coloring:
        """Read a satisfying assignment (signed literals) back into a coloring."""
        true_vars = {lit for lit in model if lit > 0}
        colors = []
        for v in range(self.n):
            chosen = [c for c in range(1, self.k + 1) if self.var(v, c) in true_vars]
            if len(chosen) != 1:
                raise ValueError(
                    f"model assigns vertex {v} colors {chosen}; expected exactly one"
                )
            colors.append(chosen[0])
        return Coloring(self.k, tuple(colors))

    def _sizes(self, counters: dict | None) -> tuple[int, int]:
        """The DIMACS header's variable and clause counts for ``_plan``'s counters."""
        g, k = self.graph, self.k
        if counters is None:
            return g.n * k, 1
        num_vars, num_clauses = g.n * k, g.n * len(_exactly_one(k).clauses)
        for d, count in Counter(g.degrees()).items():
            for counter in counters[d]:
                num_vars += count * counter.registers
                num_clauses += count * len(counter.clauses)
        return num_vars, num_clauses

    def _blocks(self, counters: dict | None) -> Iterator[tuple[_Template, Sequence[int]]]:
        """Each constraint's template and slot values, in clause order, for the counters."""
        g, k = self.graph, self.k
        if counters is None:
            yield _EMPTY, ()
            return
        one = _exactly_one(k)
        for v in range(g.n):
            yield one, range(v * k + 1, v * k + k + 1)
        next_var = g.n * k + 1
        for nb in g.adjacency:
            for c, counter in enumerate(counters[len(nb)], 1):
                values = [u * k + c for u in nb]
                values.extend(range(next_var, next_var + counter.registers))
                next_var += counter.registers
                yield counter, values

    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        """Every clause, built from the templates on each read."""
        out: list[tuple[int, ...]] = []
        for template, values in self._blocks(self._counters):
            # lookup[s] is slot s's number and lookup[-s] its negation.
            lookup = [0, *values, *(-x for x in reversed(values))]
            out.extend(tuple(map(lookup.__getitem__, c)) for c in template.clauses)
        return tuple(out)

    def to_dimacs(self, out: TextIOBase | None = None) -> str | None:
        """The DIMACS text, returned when ``out`` is None.

        Given a text stream, writes the same text to it one constraint at a
        time and returns None, so neither the text nor the clauses are held.
        """
        sink = StringIO() if out is None else out
        write = sink.write
        for text in self.comments:
            write(f"c {text}\n")
        counters = self._counters
        write("p cnf {} {}\n".format(*self._sizes(counters)))
        for template, values in self._blocks(counters):
            write(template.text.format(*map(str, values)))
        return sink.getvalue() if out is None else None


def _exactly_one(k: int) -> _Template:
    """Exactly one of slots 1..k, one vertex's selectors, is true."""
    return _template(
        [tuple(range(1, k + 1))]
        + [(-a, -b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    )


def _counter(d: int, q: int) -> _Template:
    """Sequential counter (Sinz 2005) forcing exactly q of slots 1..d true.

    Register R(i, j) ⟺ "at least j of slots 1..i are true", for
    1 <= j <= min(i, q), is slot ``row + j`` where row i's registers follow
    row i - 1's, the first row starting after slot d.
    """
    assert 0 < q < d
    clauses: list[tuple[int, ...]] = []
    prev, top = 0, d  # R(i-1, j) is slot prev + j; top is the last slot used
    for x in range(1, d + 1):
        row, width, below = top, min(x, q), min(x - 1, q)
        for j in range(1, width + 1):
            r = row + j
            # Forward: why the count reaches j.
            clauses.append((-x, r) if j == 1 else (-x, -(prev + j - 1), r))
            if j <= below:  # R(i-1, j) exists
                clauses.append((-(prev + j), r))
                # Backward: the count cannot reach j without a reason.
                clauses.append((-r, prev + j, x))
                if j > 1:  # j == 1 would pair with the always-true R(i-1, 0)
                    clauses.append((-r, prev + j, prev + j - 1))
            else:
                clauses.append((-r, x))
                if j > 1:
                    clauses.append((-r, prev + j - 1))
        # Overflow: once q are already true among the first i-1, forbid more.
        if below == q:
            clauses.append((-x, -(prev + q)))
        prev, top = row, row + width
    clauses.append((prev + q,))
    return _template(clauses, top - d)


def _plan(g: Graph, k: int) -> dict[int, tuple[_Template, ...]] | None:
    """Decide the constraints: None if some degree is not a multiple of k,
    else, per degree d, the counters of colors 1..k-1 of a vertex of degree
    d, one template "exactly d/k of d"."""
    degrees = g.degrees()
    if _degree_offender(degrees, k) is not None:
        return None
    return {d: (_counter(d, d // k),) * (k - 1) if d else () for d in set(degrees)}


def to_cnf(g: Graph, k: int) -> CnfDocument:
    """Encode "g has a balanced k-coloring" as CNF.

    When some degree is not a multiple of k the instance is trivially
    unsatisfiable; the document then consists of the single empty clause
    (plus a comment naming the offending vertex) so downstream solvers agree
    immediately.
    """
    _require_int(k, "palette size", 2)
    base_comments = [
        f"balanced {k}-coloring of a graph with {g.n} vertices, {g.m} edges",
        f"selector variable for vertex v (0-based) and color c (1..{k}): v*{k} + c",
        f"selectors occupy 1..{g.n * k}; counter registers follow",
    ]
    offender = _degree_offender(g.degrees(), k)
    if offender is not None:
        base_comments.append(
            f"vertex {offender} has degree {g.degree(offender)}, not a "
            f"multiple of {k}: the instance is trivially unsatisfiable"
        )
    return CnfDocument(k, tuple(base_comments), g)
