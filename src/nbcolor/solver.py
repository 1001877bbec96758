"""Exact decision procedure for balanced k-colorability.

``solve`` runs pruned backtracking with six devices:

(a) the arithmetic necessity screens, ``balance._screen``: degree and order
    divisibility, and k² dividing |E| on every graph (any failure is
    immediate UNSAT, with no search),
(b) per-vertex color quotas deg(v)/k enforced incrementally,
(c) forward checking — saturating a color in some neighborhood bans it on
    the uncolored vertices adjacent to that neighborhood's center, and a
    vertex left with no feasible color kills the branch; each vertex keeps
    its bans in one word, undone from a trail of the bans each assignment
    set (Schulte 1999), so for a fixed k the search state is linear in n + m,
(d) color-symmetry breaking — a vertex may use at most one color beyond the
    largest color used so far,
(e) twin-class symmetry breaking — a vertex takes no color below that of the
    previous vertex in the search order with the same open neighbourhood (a
    false twin), since swapping the colors of false twins keeps every
    neighbourhood's color counts,
(f) fail-first vertex choice — ``first-witness`` and count mode color next
    the uncolored vertex with the fewest eligible colors, the earliest in the
    search order on ties; ``canonical-min`` follows the search order.  Count
    mode colors the rest of a twin class before any other vertex.

The search order is fixed before the search starts.  ``canonical-min`` and
every irregular graph use descending degree with index as tiebreak.  On a
regular graph (every degree the same r >= 1) that order is just the labels a
builder assigned, so ``first-witness`` and count mode use a connected order
there instead: maximum-cardinality search, where each next vertex has the
most neighbours already placed.  Fail-first ties then follow the graph's
structure rather than an arbitrary walk through it.

(d) and (e) are lex-leader constraints over the search order, so the
lexicographically smallest balanced coloring under that order satisfies both
and the ordered search still finds it first.

(f) keeps (d) and (e) sound, whichever fixed order it breaks ties by.  False
twins have the same open neighbourhood, so while both are uncolored they
carry identical bans and eligible counts; the (eligible, order) choice
therefore colors each twin class in class order, twins being defined
relative to the order the search uses, and a vertex's previous twin is
always colored before it.  For (d), take any solution that extends the
current node and is sorted within each twin class.  If the vertex's color in
it is unused so far, swap that color with maxused+1 and sort the classes
again.  The result still extends the node, because every uncolored class
member's color is at least the colors of the class's colored prefix, and the
vertex now takes maxused+1.

Count mode weights each leaf by the colorings it stands for.  It colors a
twin class of s vertices in consecutive frames, in class order, so under (e)
the class's colors are nondecreasing and the search branches once per
composition: a_c twins of each color c.  The colors above the ``maxused``
m0 that a class starts at are new; by (d) they come as m0+1, m0+2, ..., and
nothing colored before tells them apart, so a new color may not run longer
than the new color before it.  A leaf using colors 1..m adds P(k, m) times
the product, over the classes, of s!/(∏ a_c! · ∏ mult!), where mult counts
the new colors of the class that share one run length.  On a twin-free graph
every class has one vertex and weight 1, so the tree is that of (d) alone.

Why the sum is exact.  The vertex choice reads only eligible counts, the
order and the twin table.  Relabelling colors leaves them unchanged, and so
does permuting colors inside a finished class, whose twins have one
neighbourhood.  So a coloring, its relabellings and its twin permutations
color the same class sequence.  Exactly one leaf stands for each twin orbit:
sorting each class is the one twin permutation that makes every class
nondecreasing, so the s!/∏ a_c! colorings with a leaf's class compositions
form that leaf's twin orbit and no other leaf's.  For the colors, take the
composition sequence Y of a balanced coloring that uses m colors.  Of the k!
relabellings, exactly (k−m)! · ∏ mult! turn Y into a leaf: the unused colors
go anywhere, and the new colors of one class that tie in run length may
swap, but no other relabelling keeps first-use order with nonincreasing new
runs.  Each leaf Z arises from k! pairs (Y, σ) with σY = Z, so counting the
pairs both ways gives Σ_Y 1 = Σ_Z k!/((k−m)! · ∏ mult!) = Σ_Z P(k, m)/∏ mult!;
weighting both sides by the twin-orbit size, which relabelling keeps, gives
the count.  Ties need the division: in C4 with k=2 both twin pairs take
colors 1 and 2, swapping the two colors gives the same leaf, and without it
the count would be 8 instead of 4.  On a twin-free graph a coloring's color
orbit reaches exactly one leaf, the relabelling whose colors appear in
first-use order.

``brute_force`` is the deliberately theory-free oracle: it enumerates every
assignment and checks balance by counting.  It shares no search or pruning
code with ``solve``, only the graph type and ``balance._balanced``, the one
balance check that also gates every witness either of them returns, so the
two can legitimately cross-check each other's search.  The tests' recount
(``naive_balanced``) stays independent of that check.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterator

from .balance import Coloring, _balanced, _balanced_output, _screen
from .graph import Graph, _Record, _require_int, _setfield

_MODES = ("first-witness", "canonical-min", "count")


class SolveConfig(_Record):
    """Search configuration.

    ``mode`` selects what to produce: any witness, the canonical
    (lexicographically smallest under the fixed vertex order) witness, or the
    number of balanced colorings.  ``first-witness`` and ``count`` color the
    most constrained vertex next (fewest eligible colors), breaking ties by a
    connected order on regular graphs and by the fixed order otherwise;
    ``canonical-min`` keeps the fixed order.  ``node_budget`` caps
    assignments made before giving up.
    """

    __slots__ = _fields = ("mode", "node_budget")
    mode: str
    node_budget: int | None

    def __init__(
        self, mode: str = "first-witness", node_budget: int | None = None
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if node_budget is not None:
            _require_int(node_budget, "node budget")
            if node_budget <= 0:
                raise ValueError(f"node budget must be positive, got {node_budget}")
        _setfield(self, "mode", mode)
        _setfield(self, "node_budget", node_budget)


_DEFAULT_CONFIG = SolveConfig()


class SolveOutcome(_Record):
    """Result of a solve or brute-force run.

    ``status`` is SAT, UNSAT, or BUDGET_EXCEEDED.  ``witness`` is present
    exactly when SAT (and has been verified balanced before being returned).
    ``count`` is present in count mode.  ``nodes_explored`` counts the
    assignments made (tried, by brute force), so under BUDGET_EXCEEDED it
    equals the budget.  ``pruned_by`` tallies how often each pruning rule
    fired, keyed by rule name: ``symmetry`` and ``twin`` count candidate
    colors skipped by (d) and (e) in every mode (``symmetry`` also counts
    the colors count mode skips because a new color's run in a twin class
    may not outgrow the one before it), ``quota`` candidates banned by
    forward checking, and ``deficit`` assignments that left some uncolored
    vertex without a feasible color.  When the necessity gate refuses, the only key
    is the failed screen's rule name (for example ``regular-size``).

    The one mutable record: the solver fills it in after the search, so its
    fields take assignment and it has no hash.
    """

    __slots__ = _fields = ("status", "witness", "count", "nodes_explored", "pruned_by")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    status: str
    witness: Coloring | None
    count: int | None
    nodes_explored: int
    pruned_by: dict[str, int]

    def __init__(
        self,
        status: str,
        witness: Coloring | None = None,
        count: int | None = None,
        nodes_explored: int = 0,
        pruned_by: dict[str, int] | None = None,
    ) -> None:
        self.status = status
        self.witness = witness
        self.count = count
        self.nodes_explored = nodes_explored
        self.pruned_by = {} if pruned_by is None else pruned_by


def _search(
    adj: tuple[tuple[int, ...], ...], k: int, order: tuple[int, ...], cfg: SolveConfig
) -> tuple[bool | None, list[int], int, dict[str, int], int]:
    """One backtracking run over neighbourhoods ``adj`` in the search order
    ``order``, which fixes twin classes and breaks fail-first ties (module
    docstring, (e) and (f)).

    Depth-first, colors in increasing order, one frame per depth.  Frame d
    colors ``vert[d]``: the next vertex of the order in ``canonical-min``,
    else the uncolored vertex with the fewest eligible colors, earliest in
    the order on ties; in count mode, the next twin of ``vert[d - 1]`` if it
    has one.  A frame keeps only that vertex and ``below[d]``, the largest
    color used before it.  The vertex is uncolored only on the frame's first
    visit, whose first candidate is the twin lower bound (one above it in
    count mode once the twin's run has reached its cap).
    Every later visit undoes the held color ``color[vert[d]]``, which
    restores ``maxused = below[d]``, and scans on from the next color.  So
    every candidate scan has ``maxused == below[d]`` and the top candidate
    ``min(k, maxused + 1)``.

    State, O(kn + m) words plus k + 1 bucket ints of n bits: ``room[c][u]``
    counts the neighbours of u that may still take color c; ``ban[w]`` has
    bit c set while c is banned on w and bit 0 while w is colored, so a ban
    sweep skips both with one test; ``trail`` holds the vertices whose ban
    bit an assignment set, popped back to the frame's ``mark[d]`` on undo;
    ``masks[e]`` has bit ``rank[v]`` (the position in the order) set for
    each uncolored vertex v with e eligible colors.

    An assignment is dead once it leaves some vertex with no eligible color.
    It then makes no further ban, since the branch is cut whatever else is
    banned, but it still takes its color from the room of every neighbour.
    The undo therefore stays one loop over the trail and one over ``adj[v]``.

    Returns ``(found, color, nodes, pruned, count)``.  ``found`` is True when
    stopped at a witness (left in ``color``); False once the tree is
    exhausted, count mode having added every leaf's weight into ``count``;
    None when the node budget runs out, ``nodes`` then being the budget.
    """
    n = len(order)
    budget = cfg.node_budget or math.inf
    counting = cfg.mode == "count"
    dynamic = cfg.mode != "canonical-min"
    # twin[v]: the previous vertex in the order with the same open
    # neighbourhood, -1 if none.
    twin = [-1] * n
    seen: dict[tuple[int, ...], int] = {}
    for v in order:
        nb = adj[v]
        twin[v] = seen.get(nb, -1)
        seen[nb] = v
    if counting:
        # Count mode colors a twin class in consecutive frames: nxt[v] is
        # the twin colored after v (-1 if none), place[v] v's 1-based place
        # in its class (0 if v has no twin).  Frame d keeps run[d], the
        # length of its color's run within the class so far; cap[d], the
        # longest that run may grow (0 for no bound); tie[d], the tie place
        # of the class's previous new color (0 before the first new color,
        # -1 for a color used before the class); and weight[d + 1], the
        # composition weight of frames 0..d (module docstring, count mode).
        nxt = [-1] * n
        place = [0] * n
        for v in order:
            t = twin[v]
            if t >= 0:
                nxt[t] = v
                place[t] = place[t] or 1
                place[v] = place[t] + 1
        run = [0] * n
        cap = [0] * n
        tie = [0] * n
        weight = [1] * (n + 1)
    color = [0] * n
    pruned: dict[str, int] = {}
    count = 0
    quota = [d // k for d in map(len, adj)]
    room = [quota[:] for _ in range(k + 1)]
    ban = [0] * n
    trail: list[int] = []
    mark = [0] * n
    eligible = [k] * n
    rank = [0] * n
    for r, v in enumerate(order):
        rank[v] = r
    masks = [0] * k + [(1 << n) - 1]
    # Symmetry breaking makes a leaf use exactly colors 1..maxused; a leaf
    # using 1..m stands for the k(k-1)...(k-m+1) colorings that relabel it,
    # times its composition weight.
    orbit = [1] * (k + 1)
    for m in range(1, k + 1):
        orbit[m] = orbit[m - 1] * (k - m + 1)
    vert = [0] * n
    below = [0] * n
    maxused = 0
    nodes = 0
    d = 0
    while True:
        if d == n:
            if not counting:
                return True, color, nodes, pruned, count
            count += orbit[maxused] * weight[n]
            d -= 1
        else:
            if dynamic:
                for m in masks:
                    if m:
                        break
                v = order[(m & -m).bit_length() - 1]
            else:
                v = order[d]
            vert[d] = v
            below[d] = maxused
            if maxused + 1 < k:
                pruned["symmetry"] = pruned.get("symmetry", 0) + k - maxused - 1
            t = twin[v]
            c = color[t] if t >= 0 else 1
            if c > 1:
                pruned["twin"] = pruned.get("twin", 0) + c - 1
        while d >= 0:
            v = vert[d]
            held = color[v]
            if held:
                # Undo the held color: pop the bans it set, restore its room.
                flag = 1 << held
                for w in trail[mark[d]:]:
                    ban[w] ^= flag
                    e = eligible[w]
                    eligible[w] = e + 1
                    b = 1 << rank[w]
                    masks[e] ^= b
                    masks[e + 1] ^= b
                del trail[mark[d]:]
                row = room[held]
                for u in adj[v]:
                    row[u] += 1
                color[v] = 0
                ban[v] ^= 1
                masks[eligible[v]] ^= 1 << rank[v]
                maxused = below[d]
                c = held + 1
            hi = maxused + 1 if maxused < k else k
            bv = ban[v]
            while c <= hi and bv >> c & 1:
                pruned["quota"] = pruned.get("quota", 0) + 1
                c += 1
            if c > hi:
                d -= 1
                continue
            if nodes == budget:
                return None, color, nodes, pruned, count
            nodes += 1
            if c > maxused:
                maxused = c
            # Assign c to v and forward-check: a neighbourhood that
            # saturates c bans it on its center's uncolored neighbours.
            # A vertex left with no eligible color kills the branch: no
            # further ban is made, but every room still falls, so the undo
            # above restores exactly what was done.
            color[v] = c
            ban[v] = bv | 1
            masks[eligible[v]] ^= 1 << rank[v]
            mark[d] = len(trail)
            flag = 1 << c
            skip = flag | 1
            row = room[c]
            ok = True
            for u in adj[v]:
                r = row[u] - 1
                row[u] = r
                if not r and ok:
                    for w in adj[u]:
                        bw = ban[w]
                        if not bw & skip:
                            ban[w] = bw | flag
                            trail.append(w)
                            e = eligible[w]
                            eligible[w] = e - 1
                            b = 1 << rank[w]
                            masks[e] ^= b
                            masks[e - 1] ^= b
                            if e == 1:
                                ok = False
                                break
            if not ok:
                pruned["deficit"] = pruned.get("deficit", 0) + 1
                continue
            if counting:
                i = place[v]
                if not i:
                    weight[d + 1] = weight[d]
                else:
                    # Extend the class's run of c, or start a new run; a run
                    # that reaches its cap ties with the new color before it.
                    new = c > below[d]
                    if i > 1 and c == color[vert[d - 1]]:
                        r, lim, tp = run[d - 1] + 1, cap[d - 1], tie[d - 1]
                    elif i > 1 and new and tie[d - 1] >= 0:
                        r, lim = 1, run[d - 1]
                        tp = tie[d - 1] + 1 if lim == cap[d - 1] else 1
                    else:
                        r, lim, tp = 1, 0, 0 if new else -1
                    run[d], cap[d], tie[d] = r, lim, tp
                    w = weight[d] * i // r
                    weight[d + 1] = w // (tp + 1) if r == lim else w
                    u = nxt[v]
                    if u >= 0:
                        # The next frame colors the next twin, from c up, and
                        # from c + 1 once c's run has reached its cap.
                        d += 1
                        vert[d] = u
                        below[d] = maxused
                        if r == lim:
                            c += 1
                            pruned["symmetry"] = pruned.get("symmetry", 0) + 1
                        if maxused + 1 < k:
                            pruned["symmetry"] = pruned.get("symmetry", 0) + k - maxused - 1
                        if c > 1:
                            pruned["twin"] = pruned.get("twin", 0) + c - 1
                        continue
            d += 1
            break
        else:
            return False, color, nodes, pruned, count


def _vertex_order(g: Graph) -> tuple[int, ...]:
    """Fixed search order: descending degree, index as tiebreak (the sort is
    stable, also in reverse)."""
    return tuple(sorted(range(g.n), key=g.degrees().__getitem__, reverse=True))


def _connected_order(g: Graph) -> tuple[int, ...]:
    """Maximum-cardinality search order (Tarjan & Yannakakis 1984): vertex 0
    first, then always a vertex with the most neighbours already placed, the
    one that reached that count last on ties; a new component starts at its
    lowest index.  O(n + m): stack c holds the vertices pushed when they had
    c placed neighbours, and entries left behind by a later count are
    skipped."""
    adj = g.adjacency
    placed = [0] * g.n  # placed neighbours; -1 once the vertex is placed
    stacks = [[] for _ in range(max(map(len, adj), default=0) + 1)]
    stacks[0] = list(range(g.n - 1, -1, -1))
    push = [stack.append for stack in stacks]
    top = 0
    order = []
    for _ in range(g.n):
        while True:
            stack = stacks[top]
            if stack:
                v = stack.pop()
                if placed[v] == top:
                    break
            else:
                top -= 1
        placed[v] = -1
        order.append(v)
        for u in adj[v]:
            c = placed[u] + 1
            if c:
                placed[u] = c
                push[c](u)
                if c > top:
                    top = c
    return tuple(order)


def solve(g: Graph, k: int, cfg: SolveConfig | None = None) -> SolveOutcome:
    """Decide balanced k-colorability of g exactly.

    Runs the necessity gate first, then backtracking search.  In
    ``canonical-min`` mode the witness is the lexicographically smallest
    color vector under the fixed vertex order (descending degree, index
    tiebreak); because candidate colors are tried in increasing order and
    every balanced coloring can be palette-permuted into the symmetry-broken
    form, the first witness the ordered search finds *is* that minimum.  The
    other modes search a regular graph in connected order.
    """
    _require_int(k, "palette size", 2)
    cfg = cfg or _DEFAULT_CONFIG
    rule = _screen(g.adjacency, g.m, k)
    if rule is not None:
        return SolveOutcome(
            status="UNSAT",
            count=0 if cfg.mode == "count" else None,
            nodes_explored=0,
            pruned_by={rule: 1},
        )
    # g.m >= 1 makes a regular graph's degree at least 1.
    if cfg.mode != "canonical-min" and g.m and g.is_regular():
        order = _connected_order(g)
    else:
        order = _vertex_order(g)
    found, color, nodes, pruned, count = _search(g.adjacency, k, order, cfg)
    out = SolveOutcome("UNSAT", nodes_explored=nodes, pruned_by=pruned)
    if found is None:
        out.status = "BUDGET_EXCEEDED"
    elif cfg.mode == "count":
        out.status = "SAT" if count else "UNSAT"
        out.count = count
    elif found:
        out.status = "SAT"
        out.witness = _balanced_output(g, Coloring(k, tuple(color)), "solver witness")
    return out


_CAP_BITS = 24


def _enumerate_balanced(g: Graph, k: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (assignments tried so far, assignment) for every balanced one,
    enumerating all k^n in lexicographic order (vertex 0 varies slowest)."""
    _require_int(k, "palette size", 2)
    if k**g.n > 2**_CAP_BITS:
        total_bits = g.n * max(1, (k - 1).bit_length())
        raise ValueError(
            f"instance too large for exhaustive enumeration: k^n = {k}^{g.n} "
            f"exceeds 2^{_CAP_BITS} (≈{total_bits} assignment bits)"
        )
    for tried, assignment in enumerate(product(range(1, k + 1), repeat=g.n), 1):
        if _balanced(g.adjacency, assignment, k):
            yield tried, assignment


def brute_force(g: Graph, k: int) -> SolveOutcome:
    """Exhaustive ground-truth check, sharing no pruning theory with solve.

    Takes the first balanced assignment in lexicographic order, testing
    balance by direct counting.  No degree gate, no symmetry breaking —
    deliberately, so this oracle cannot inherit a bug from the clever path.
    """
    for tried, assignment in _enumerate_balanced(g, k):
        witness = _balanced_output(g, Coloring(k, assignment), "brute-force witness")
        return SolveOutcome(status="SAT", witness=witness, nodes_explored=tried)
    return SolveOutcome(status="UNSAT", nodes_explored=k**g.n)


def count_colorings(g: Graph, k: int) -> int:
    """Number of balanced k-colorings with labeled colors, by enumeration."""
    return sum(1 for _ in _enumerate_balanced(g, k))


__all__ = [
    "SolveConfig",
    "SolveOutcome",
    "solve",
    "brute_force",
    "count_colorings",
]
