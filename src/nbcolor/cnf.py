"""CNF export of balanced-coloring instances for external SAT solvers.

Variables 1..n*k are the selector literals: variable ``v*k + c`` says vertex
v takes color c.  Each vertex carries an exactly-one constraint, and every
(vertex, color) pair carries an exact-cardinality constraint "exactly
deg(v)/k neighbors of v have color c", encoded with sequential counters.

The counter registers are fully defined (both implication directions), so a
model's register values are forced by the selector values; decoding needs
only the selectors.  The at-least side reads off the final register, the
at-most side forbids incrementing past the quota.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .balance import Coloring
from .graph import Graph


@dataclass(frozen=True)
class CnfDocument:
    """A propositional encoding of one balanced-coloring instance.

    ``clauses`` hold signed DIMACS-style literals.  ``var(v, c)`` maps a
    vertex/color pair to its selector variable; auxiliary counter variables
    live above ``n * k``.
    """

    n: int
    k: int
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]
    comments: tuple[str, ...]

    def var(self, v: int, c: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
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

    def to_dimacs(self) -> str:
        lines = [f"c {text}" for text in self.comments]
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        if self.clauses:
            # One "%d ... %d 0" format per clause length (" 0" for the empty
            # clause), filled with all of the document's literals at once.
            longest = max(map(len, self.clauses))
            formats = [" ".join(["%d"] * size) + " 0" for size in range(longest + 1)]
            body = "\n".join([formats[len(clause)] for clause in self.clauses])
            lines.append(body % tuple(chain.from_iterable(self.clauses)))
        return "\n".join(lines) + "\n"


def _exact_count(
    literals: list[int], q: int, next_var: int, clauses: list[tuple[int, ...]]
) -> int:
    """Append clauses forcing exactly q of the literals true.

    Sequential-counter registers R[i][j] ⟺ "at least j of the first i
    literals are true", for 1 <= j <= min(i, q).  Returns the next free
    variable number.
    """
    m = len(literals)
    assert 0 <= q <= m
    if q == 0:
        clauses.extend((-lit,) for lit in literals)
        return next_var
    if q == m:
        clauses.extend((lit,) for lit in literals)
        return next_var

    # rows[i][j - 1] is R[i][j] and neg[i][j - 1] is its negation, so every
    # register's number and literal is one int object shared by its clauses.
    rows: list[list[int]] = [[]]
    for i in range(1, m + 1):
        width = min(i, q)
        rows.append(list(range(next_var, next_var + width)))
        next_var += width
    neg = [[-r for r in row] for row in rows]

    for i in range(1, m + 1):
        x = literals[i - 1]
        nx = -x
        row, nrow, prev, nprev = rows[i], neg[i], rows[i - 1], neg[i - 1]
        for j in range(len(row)):  # row[j] is R[i][j + 1]
            r, nr = row[j], nrow[j]
            # Forward: why the count reaches j + 1.
            clauses.append((nx, r) if j == 0 else (nx, nprev[j - 1], r))
            if j < len(prev):  # R[i-1][j + 1] exists
                below = prev[j]
                clauses.append((nprev[j], r))
                # Backward: the count cannot reach j + 1 without a reason.
                clauses.append((nr, below, x))
                if j:  # j == 0 would pair with the always-true R[i-1][0]
                    clauses.append((nr, below, prev[j - 1]))
            else:
                clauses.append((nr, x))
                if j:
                    clauses.append((nr, prev[j - 1]))
        # Overflow: once q are already true among the first i-1, forbid more.
        if i - 1 >= q:
            clauses.append((nx, nprev[q - 1]))
    clauses.append((rows[m][q - 1],))
    return next_var


def to_cnf(g: Graph, k: int) -> CnfDocument:
    """Encode "g has a balanced k-coloring" as CNF.

    When some degree is not a multiple of k the instance is trivially
    unsatisfiable; the document then consists of the single empty clause
    (plus a comment naming the offending vertex) so downstream solvers agree
    immediately.
    """
    if k < 2:
        raise ValueError(f"palette size must be at least 2, got {k}")
    n = g.n
    base_comments = [
        f"balanced {k}-coloring of a graph with {n} vertices, {g.m} edges",
        f"selector variable for vertex v (0-based) and color c (1..{k}): v*{k} + c",
        f"selectors occupy 1..{n * k}; counter registers follow",
    ]
    offender = next((v for v in range(n) if g.degree(v) % k != 0), None)
    if offender is not None:
        return CnfDocument(
            n=n,
            k=k,
            num_vars=n * k,
            clauses=((),),
            comments=tuple(
                base_comments
                + [
                    f"vertex {offender} has degree {g.degree(offender)}, not a "
                    f"multiple of {k}: the instance is trivially unsatisfiable",
                ]
            ),
        )

    clauses: list[tuple[int, ...]] = []
    selectors = [list(range(v * k + 1, v * k + k + 1)) for v in range(n)]
    for sel in selectors:
        clauses.append(tuple(sel))
        negated = [-lit for lit in sel]
        for a in range(k):
            for b in range(a + 1, k):
                clauses.append((negated[a], negated[b]))

    next_var = n * k + 1
    for v in range(n):
        nb = g.neighbors(v)
        if not nb:
            continue
        q = len(nb) // k
        for c in range(k):
            literals = [selectors[u][c] for u in nb]
            next_var = _exact_count(literals, q, next_var, clauses)

    return CnfDocument(
        n=n,
        k=k,
        num_vars=next_var - 1,
        clauses=tuple(clauses),
        comments=tuple(base_comments),
    )


__all__ = ["CnfDocument", "to_cnf"]
