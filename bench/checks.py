"""Independent checkers for the benchmark's outputs.

Nothing here imports ``nbcolor``: every check recounts from plain edge
lists, color lists and text, so a fault in the package cannot hide behind
the same fault in its checker.
"""

from __future__ import annotations

from io import StringIO
from math import factorial


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def recount_balanced(n: int, edges, colors, k: int) -> bool:
    """True iff every vertex sees each of the k colors equally often."""
    if len(colors) != n or any(not 1 <= c <= k for c in colors):
        return False
    seen = [[0] * (k + 1) for _ in range(n)]
    for u, v in edges:
        seen[u][colors[v]] += 1
        seen[v][colors[u]] += 1
    for row in seen:
        if len(set(row[1:])) != 1:
            return False
    return True


def count_balanced(n: int, edges, k: int, stop_at: int | None = None) -> int:
    """Number of balanced k-colorings with labeled colors, by enumeration.

    Vertices are colored in index order.  A branch is cut as soon as some
    vertex sees more than deg/k neighbors of one color; a full assignment
    that survives sees exactly deg/k of each, so it is balanced.  Counting
    stops early once ``stop_at`` colorings are found.
    """
    adj = adjacency(n, edges)
    if any(len(nb) % k for nb in adj):
        return 0
    if n == 0:
        return 1
    quota = [len(nb) // k for nb in adj]
    seen = [[0] * (k + 1) for _ in range(n)]
    colors = [0] * n
    found = 0
    # Explicit stack of (vertex, next color to try) keeps deep inputs safe.
    stack = [[0, 1]]
    while stack:
        frame = stack[-1]
        i, c = frame
        if colors[i]:
            for u in adj[i]:
                seen[u][colors[i]] -= 1
            colors[i] = 0
        if c > k:
            stack.pop()
            continue
        frame[1] = c + 1
        colors[i] = c
        ok = True
        for u in adj[i]:
            seen[u][c] += 1
            if seen[u][c] > quota[u]:
                ok = False
        if not ok:
            continue
        if i + 1 == n:
            found += 1
            if stop_at is not None and found >= stop_at:
                return found
            continue
        stack.append([i + 1, 1])
    return found


def expected_count(n: int, edges, k: int, count: int, limit: int = 1 << 18) -> int | None:
    """The count a later pass must repeat, or None when ``count`` is wrong.

    When k^n is small it is the enumerated count, whatever ``count`` says.
    Otherwise ``count`` must be a positive multiple of k!: every balanced
    coloring of a graph with an edge uses all k colors, so permuting the
    palette gives k! distinct colorings of each orbit.
    """
    if k**n <= limit:
        return count_balanced(n, edges, k)
    return count if count > 0 and count % factorial(k) == 0 else None


def ess_split(values, k: int) -> bool:
    """Can the multiset be split into k parts of equal sum?"""
    total = sum(values)
    if total % k:
        return False
    share = total // k
    items = sorted(values, reverse=True)
    if items and items[0] > share:
        return False
    bins = [0] * k

    def place(i: int) -> bool:
        if i == len(items):
            return True
        tried = set()
        for b in range(k):
            if bins[b] in tried or bins[b] + items[i] > share:
                continue
            tried.add(bins[b])
            bins[b] += items[i]
            if place(i + 1):
                return True
            bins[b] -= items[i]
        return False

    return place(0)


def partition_ok(values, parts, k: int) -> bool:
    """k parts of equal sum that together are exactly the input multiset."""
    if len(parts) != k:
        return False
    if len({sum(p) for p in parts}) != 1:
        return False
    return sorted(x for p in parts for x in p) == sorted(values)


def reduction_order(values, k: int) -> int:
    """Vertex count of the compiled instance: one (k, a)-house per element
    (k-1 bases, ka supports, a indexes) plus k distributive vertices."""
    return sum((k + 1) * a + k - 1 for a in values) + k


# ---------------------------------------------------------------------------
# Text formats, parsed without the package's own readers
# ---------------------------------------------------------------------------


def parse_graph_text(text: str) -> tuple[int, list[tuple[int, int]]]:
    n = None
    declared = None
    edges = []
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "p":
            n, declared = int(fields[1]), int(fields[2])
        elif fields[0] == "e":
            edges.append((int(fields[1]), int(fields[2])))
        else:
            raise ValueError(f"unexpected graph line {line!r}")
    if n is None or declared != len(edges):
        raise ValueError("graph header missing or edge count wrong")
    return n, edges


def parse_coloring_text(text: str) -> tuple[int, list[int]]:
    k = None
    assignment = {}
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        if fields[0] == "k":
            k = int(fields[1])
        elif fields[0] == "v":
            assignment[int(fields[1])] = int(fields[2])
        else:
            raise ValueError(f"unexpected coloring line {line!r}")
    if k is None or sorted(assignment) != list(range(len(assignment))):
        raise ValueError("coloring header missing or coloring not total")
    return k, [assignment[v] for v in range(len(assignment))]


def dimacs_ok(text: str, n: int, k: int) -> bool:
    """Header counts match the clause lines; literals stay in range; the
    selector block covers n*k variables.  Literals are parsed a block of
    lines at a time, so the check holds little memory."""
    header = None
    clauses = zeros = top = 0
    block: list[str] = []

    def parse_block() -> None:
        nonlocal zeros, top
        literals = list(map(int, " ".join(block).split()))
        zeros += literals.count(0)
        top = max(top, max(map(abs, literals), default=0))
        block.clear()

    for line in StringIO(text):
        line = line.rstrip("\n")
        if not line or line.startswith("c"):
            continue
        if header is None:
            header = line.split()
            if len(header) != 4 or header[:2] != ["p", "cnf"]:
                return False
            continue
        # A clause line ends in its only 0, so the zeros count the clauses.
        if not (line == "0" or line.endswith(" 0")):
            return False
        clauses += 1
        block.append(line)
        if len(block) == 4096:
            parse_block()
    parse_block()
    if header is None:
        return False
    num_vars, num_clauses = int(header[2]), int(header[3])
    return zeros == clauses == num_clauses and top <= num_vars and num_vars >= n * k


def dot_ok(text: str, n: int, m: int) -> bool:
    """One node statement per vertex and one ``--`` line per edge."""
    lines = [line.strip() for line in text.splitlines()]
    if not lines or not lines[0].startswith("graph") or lines[-1] != "}":
        return False
    edges = sum(1 for line in lines if " -- " in line)
    nodes = sum(
        1 for line in lines[1:-1]
        if " -- " not in line and line.split(" ", 1)[0].rstrip(";").isdigit()
    )
    return edges == m and nodes == n
