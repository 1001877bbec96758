"""CNF export of balanced-coloring instances for external SAT solvers.

Variables 1..n*k are the selector literals: variable ``v*k + c`` says vertex
v takes color c.  Each vertex carries an exactly-one constraint, and every
(vertex, color) pair carries an exact-cardinality constraint "exactly
deg(v)/k neighbors of v have color c", encoded with sequential counters.

The counter registers are fully defined (both implication directions), so a
model's register values are forced by the selector values; decoding needs
only the selectors.  The at-least side reads off the final register, the
at-most side forbids incrementing past the quota.

A counter's clauses depend only on the degree and the quota, so ``to_cnf``
encodes one template per distinct degree, over numbered slots, and every
(vertex, color) constraint fills a template's slots with its neighbors'
selectors and its own registers.  The document keeps the templates and the
graph rather than the clauses: ``clauses`` is built on first access, and
``to_dimacs`` streams the text one constraint at a time, so exporting needs
memory for neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from io import StringIO
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .balance import Coloring
from .graph import Graph, _require_int, _require_vertex


@dataclass(frozen=True)
class _Template:
    """Clauses over slots 1, 2, ...; a negative number is a negated slot.

    ``text`` is their DIMACS lines with a format field per slot (``{i}`` or
    ``-{i}`` for slot i + 1), so ``text.format(*values)`` renders the clauses
    with slot i + 1 standing for ``values[i]``.  ``registers`` counts the
    trailing slots that are the constraint's own fresh variables.
    """

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


@dataclass(frozen=True)
class CnfDocument:
    """A propositional encoding of one balanced-coloring instance.

    ``clauses`` hold signed DIMACS-style literals.  ``var(v, c)`` maps a
    vertex/color pair to its selector variable; auxiliary counter variables
    live above ``n * k``.  The clauses expand from ``graph``, the
    exactly-one template and one counter template per degree (``counters``);
    a refused instance has no graph and the single empty clause.
    """

    n: int
    k: int
    num_vars: int
    num_clauses: int
    comments: tuple[str, ...]
    graph: Graph | None = field(default=None, repr=False)
    exactly_one: _Template | None = field(default=None, repr=False, compare=False)
    counters: Mapping[int, _Template] = field(
        default_factory=dict, repr=False, compare=False
    )

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

    def _blocks(self) -> Iterator[tuple[_Template, Sequence[int]]]:
        """Each constraint's template and its slot values, in clause order."""
        g, k, one = self.graph, self.k, self.exactly_one
        if g is None or one is None:
            yield _EMPTY, ()
            return
        for v in range(self.n):
            yield one, range(v * k + 1, v * k + k + 1)
        next_var = self.n * k + 1
        for nb in g.adjacency:
            if not nb:
                continue
            counter = self.counters[len(nb)]
            width = counter.registers
            for c in range(1, k + 1):
                values = [u * k + c for u in nb]
                values.extend(range(next_var, next_var + width))
                next_var += width
                yield counter, values

    @cached_property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        """Every clause, built from the templates on first access."""
        out: list[tuple[int, ...]] = []
        for template, values in self._blocks():
            # lookup[s] is slot s's number and lookup[-s] its negation.
            lookup = [0, *values, *(-x for x in reversed(values))]
            out.extend(tuple(map(lookup.__getitem__, c)) for c in template.clauses)
        return tuple(out)

    def to_dimacs(self, out: TextIO | None = None) -> str | None:
        """The DIMACS text, returned when ``out`` is None.

        Given a text stream, writes the same text to it one constraint at a
        time and returns None, so neither the text nor the clauses are held.
        """
        sink = StringIO() if out is None else out
        write = sink.write
        for text in self.comments:
            write(f"c {text}\n")
        write(f"p cnf {self.num_vars} {self.num_clauses}\n")
        for template, values in self._blocks():
            write(template.text.format(*values))
        return sink.getvalue() if out is None else None


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


def to_cnf(g: Graph, k: int) -> CnfDocument:
    """Encode "g has a balanced k-coloring" as CNF.

    When some degree is not a multiple of k the instance is trivially
    unsatisfiable; the document then consists of the single empty clause
    (plus a comment naming the offending vertex) so downstream solvers agree
    immediately.
    """
    _require_int(k, "palette size", 2)
    n = g.n
    base_comments = [
        f"balanced {k}-coloring of a graph with {n} vertices, {g.m} edges",
        f"selector variable for vertex v (0-based) and color c (1..{k}): v*{k} + c",
        f"selectors occupy 1..{n * k}; counter registers follow",
    ]
    degrees = g.degrees()
    offender = next((v for v, d in enumerate(degrees) if d % k != 0), None)
    if offender is not None:
        return CnfDocument(
            n=n,
            k=k,
            num_vars=n * k,
            num_clauses=1,
            comments=tuple(
                base_comments
                + [
                    f"vertex {offender} has degree {degrees[offender]}, not a "
                    f"multiple of {k}: the instance is trivially unsatisfiable",
                ]
            ),
        )

    # Slots 1..k are one vertex's selectors.
    exactly_one = _template(
        [tuple(range(1, k + 1))]
        + [(-a, -b) for a in range(1, k + 1) for b in range(a + 1, k + 1)]
    )
    num_vars = n * k
    num_clauses = n * len(exactly_one.clauses)
    # Slots 1..d are a degree-d vertex's neighbors' selectors of one color,
    # and the registers follow them.
    counters: dict[int, _Template] = {}
    for d in degrees:
        if not d:
            continue
        counter = counters.get(d)
        if counter is None:
            counter = counters[d] = _counter(d, d // k)
        num_vars += k * counter.registers
        num_clauses += k * len(counter.clauses)

    return CnfDocument(
        n=n,
        k=k,
        num_vars=num_vars,
        num_clauses=num_clauses,
        comments=tuple(base_comments),
        graph=g,
        exactly_one=exactly_one,
        counters=counters,
    )


__all__ = ["CnfDocument", "to_cnf"]
