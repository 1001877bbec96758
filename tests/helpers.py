"""Shared test utilities.

Everything here is deliberately independent of the package internals: the
balance checker below recounts neighbor colors with a plain dict, and the SAT
solver is a ~40-line DPLL.  They exist so the package can be tested against
code that shares none of its logic.
"""

from collections import Counter

from nbcolor import Graph, to_cnf


def naive_balanced(g, colors, k, closed=False):
    """Recount neighbor colors from scratch; True iff every vertex is balanced.

    ``colors`` is any sequence of ints in 1..k, one per vertex.  Vertices with
    no neighbors count as balanced.
    """
    for v in range(g.n):
        seen = list(g.neighbors(v))
        if closed:
            seen.append(v)
        if not seen:
            continue
        tally = Counter(colors[u] for u in seen)
        counts = {tally.get(c, 0) for c in range(1, k + 1)}
        if len(counts) != 1:
            return False
    return True


def _simplify(clauses, lit):
    """Condition a clause list on *lit* being true; None signals a conflict."""
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        reduced = tuple(x for x in clause if x != -lit)
        if not reduced:
            return None
        out.append(reduced)
    return out


def dpll(clauses):
    """Return a set of true literals satisfying *clauses*, or None.

    Plain DPLL with unit propagation.  The returned model may leave don't-care
    variables unmentioned.
    """
    clauses = [tuple(c) for c in clauses]
    if any(not c for c in clauses):
        return None
    model = set()
    while True:
        unit = next((c[0] for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        model.add(unit)
        clauses = _simplify(clauses, unit)
        if clauses is None:
            return None
    if not clauses:
        return model
    branch = clauses[0][0]
    for choice in (branch, -branch):
        reduced = _simplify(clauses, choice)
        if reduced is None:
            continue
        sub = dpll(reduced)
        if sub is not None:
            return model | {choice} | sub
    return None


def complete_model(model, num_vars):
    """Extend a partial DPLL model to a total literal list (missing = false)."""
    return [v if v in model else -v for v in range(1, num_vars + 1)]


def same_color_witness(g, k, u, v):
    """Colors of a balanced k-coloring of g with c(u) == c(v), or None.

    Solves the CNF export plus the clauses "u has color c implies v has
    color c" with the DPLL above, so no search code of the package is used.
    """
    doc = to_cnf(g, k)
    pins = [(-doc.var(u, c), doc.var(v, c)) for c in range(1, k + 1)]
    model = dpll(list(doc.clauses) + pins)
    if model is None:
        return None
    return doc.decode_model(complete_model(model, doc.num_vars)).colors


def bowtie():
    """Two triangles sharing vertex 2: all degrees even yet no balanced 2-coloring."""
    return Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(10, outer + inner + spokes)


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)
