"""Exact decision procedure for balanced k-colorability.

``solve`` runs pruned backtracking over a fixed vertex order with five
pruning devices:

(a) the arithmetic necessity gate (any failure is immediate UNSAT),
(b) per-vertex color quotas deg(v)/k enforced incrementally,
(c) forward checking — saturating a color in some neighborhood bans it on
    the uncolored vertices adjacent to that neighborhood's center, and a
    vertex left with no feasible color kills the branch,
(d) color-symmetry breaking — a vertex may use at most one color beyond the
    largest color used so far,
(e) twin-class symmetry breaking — a vertex takes no color below that of the
    previous vertex in the order with the same open neighbourhood (a false
    twin), since swapping the colors of false twins keeps every
    neighbourhood's color counts.  Vertices named in a same-color pair stay
    out of twin classes, as a swap could break the pin.

(d) and (e) are lex-leader constraints over the same vertex order, so the
lexicographically smallest balanced coloring satisfies both and the ordered
search still finds it first.  Count mode skips (e): it weights each leaf by
its color orbit, and a twin-orbit weighting would overcount, because (d) and
(e) can both accept two colorings of one combined orbit (C4 with k=2 would
count 8 instead of 4).

``brute_force`` is the deliberately theory-free oracle: it enumerates every
assignment and checks balance by counting, sharing no code path with
``solve`` beyond the graph type, so the two can legitimately cross-check
each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

from .balance import Coloring, check_necessary, is_nbkc
from .graph import Graph

_MODES = ("first-witness", "canonical-min", "count")


@dataclass(frozen=True)
class SolveConfig:
    """Search configuration.

    ``mode`` selects what to produce: any witness, the canonical
    (lexicographically smallest under the fixed vertex order) witness, or the
    number of balanced colorings.  ``node_budget`` caps assignments made
    before giving up.  ``same_color`` adds pairwise equal-color side
    constraints (used by gadget analysis); these are color-permutation
    invariant, so symmetry breaking stays sound.
    """

    mode: str = "first-witness"
    node_budget: int | None = None
    same_color: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError(f"node budget must be positive, got {self.node_budget}")


@dataclass
class SolveOutcome:
    """Result of a solve or brute-force run.

    ``status`` is SAT, UNSAT, or BUDGET_EXCEEDED.  ``witness`` is present
    exactly when SAT (and has been verified balanced before being returned).
    ``count`` is present in count mode.  ``pruned_by`` tallies how often each
    pruning rule fired, keyed by rule name: ``symmetry`` and ``twin`` count
    candidate colors skipped by (d) and (e), ``quota`` candidates banned by
    forward checking, and ``deficit`` assignments that left some uncolored
    vertex without a feasible color.  When the necessity gate refuses, the
    only key is the failed screen's rule name (for example ``regular-size``).
    """

    status: str
    witness: Coloring | None = None
    count: int | None = None
    nodes_explored: int = 0
    pruned_by: dict[str, int] = field(default_factory=dict)


class _Budget(Exception):
    """Raised internally when the node budget runs out."""


class _Search:
    """One backtracking run over a fixed vertex order."""

    def __init__(
        self,
        g: Graph,
        k: int,
        cfg: SolveConfig,
        order: tuple[int, ...],
    ) -> None:
        self.k = k
        self.cfg = cfg
        self.order = order
        self.adj = tuple(g.neighbors(v) for v in range(g.n))
        self.quota = tuple(g.degree(v) // k for v in range(g.n))
        self.color = [0] * g.n
        self.counts = [[0] * (k + 1) for _ in range(g.n)]  # counts[v][c]
        self.bans = [[0] * (k + 1) for _ in range(g.n)]  # bans[v][c]
        self.eligible = [k] * g.n
        self.nodes = 0
        self.pruned: dict[str, int] = {}
        self.count = 0
        # Union the same-color pairs into groups; each group forces one color.
        leader = list(range(g.n))

        def find(x: int) -> int:
            while leader[x] != x:
                leader[x] = leader[leader[x]]
                x = leader[x]
            return x

        for a, b in cfg.same_color:
            if not (0 <= a < g.n and 0 <= b < g.n):
                raise ValueError(f"same-color pair ({a}, {b}) out of range")
            leader[find(a)] = find(b)
        self.group = tuple(find(v) for v in range(g.n))
        # twin[d]: depth of the previous vertex in the order with the same
        # open neighbourhood, -1 if none.  Count mode weights leaves by color
        # orbits only, and a pinned vertex cannot swap with its twin.
        twin = [-1] * len(order)
        if cfg.mode != "count":
            pinned = {v for pair in cfg.same_color for v in pair}
            seen: dict[tuple[int, ...], int] = {}
            for d, v in enumerate(order):
                if v not in pinned:
                    nb = self.adj[v]
                    twin[d] = seen.get(nb, -1)
                    seen[nb] = d
        self.twin = twin

    def _tally(self, rule: str, amount: int = 1) -> None:
        self.pruned[rule] = self.pruned.get(rule, 0) + amount

    def _assign(self, v: int, c: int) -> bool:
        """Apply an assignment; returns False when forward checking wipes out
        some uncolored vertex (the assignment still stands and must be undone).
        """
        self.nodes += 1
        budget = self.cfg.node_budget
        if budget is not None and self.nodes > budget:
            raise _Budget
        self.color[v] = c
        ok = True
        for u in self.adj[v]:
            cu = self.counts[u]
            cu[c] += 1
            if cu[c] == self.quota[u]:
                for w in self.adj[u]:
                    if self.color[w] == 0:
                        bw = self.bans[w]
                        bw[c] += 1
                        if bw[c] == 1:
                            self.eligible[w] -= 1
                            if self.eligible[w] == 0:
                                ok = False
        return ok

    def _unassign(self, v: int, c: int) -> None:
        for u in self.adj[v]:
            cu = self.counts[u]
            if cu[c] == self.quota[u]:
                for w in self.adj[u]:
                    if self.color[w] == 0:
                        bw = self.bans[w]
                        bw[c] -= 1
                        if bw[c] == 0:
                            self.eligible[w] += 1
            cu[c] -= 1
        self.color[v] = 0

    def run(self) -> bool:
        """Search depth-first, colors in increasing order, with one frame per
        depth of the vertex order.  Returns True when stopped at a witness
        (left in ``color``); in count mode, tallies every leaf into ``count``
        and returns False once the tree is exhausted.
        """
        order, k, n = self.order, self.k, len(self.order)
        group, bans, twin = self.group, self.bans, self.twin
        assign, unassign, tally = self._assign, self._unassign, self._tally
        counting = self.cfg.mode == "count"
        # Symmetry breaking makes a leaf use exactly colors 1..maxused; a leaf
        # using 1..m stands for the k(k-1)...(k-m+1) colorings that relabel it.
        orbit = [1] * (k + 1)
        for m in range(1, k + 1):
            orbit[m] = orbit[m - 1] * (k - m + 1)
        group_color: dict[int, int] = {}
        # Frame d: next and last candidate color, the color held (0: none),
        # whether it fixed its group's color, and maxused before it.
        nxt = [0] * n
        last = [0] * n
        held = [0] * n
        owns = [False] * n
        below = [0] * n
        maxused = 0
        d = 0
        while True:
            if d == n:
                if not counting:
                    return True
                self.count += orbit[maxused]
                d -= 1
            else:
                forced = group_color.get(group[order[d]])
                cap = min(k, maxused + 1)
                if forced is None:
                    if cap < k:
                        tally("symmetry", k - cap)
                    t = twin[d]
                    lo = held[t] if t >= 0 else 1
                    if lo > 1:
                        tally("twin", lo - 1)
                    nxt[d], last[d] = lo, cap
                else:
                    nxt[d], last[d] = forced, forced if forced <= cap else 0
                owns[d] = forced is None
                below[d] = maxused
            while d >= 0:
                v = order[d]
                c = held[d]
                if c:
                    unassign(v, c)
                    if owns[d]:
                        del group_color[group[v]]
                    maxused = below[d]
                    held[d] = 0
                c, hi, bv = nxt[d], last[d], bans[v]
                while c <= hi and bv[c]:
                    tally("quota")
                    c += 1
                if c > hi:
                    d -= 1
                    continue
                nxt[d] = c + 1
                held[d] = c
                if c > maxused:
                    maxused = c
                if owns[d]:
                    group_color[group[v]] = c
                if assign(v, c):
                    d += 1
                    break
                tally("deficit")
            else:
                return False


def _vertex_order(g: Graph) -> tuple[int, ...]:
    """Fixed search order: descending degree, index as tiebreak."""
    return tuple(sorted(range(g.n), key=lambda v: (-g.degree(v), v)))


def solve(g: Graph, k: int, cfg: SolveConfig | None = None) -> SolveOutcome:
    """Decide balanced k-colorability of g exactly.

    Runs the necessity gate first, then backtracking search.  In
    ``canonical-min`` mode the witness is the lexicographically smallest
    color vector under the fixed vertex order (descending degree, index
    tiebreak); because candidate colors are tried in increasing order and
    every balanced coloring can be palette-permuted into the symmetry-broken
    form, the first witness the ordered search finds *is* that minimum.
    """
    if k < 2:
        raise ValueError(f"palette size must be at least 2, got {k}")
    cfg = cfg or SolveConfig()
    gate = check_necessary(g, k)
    if not gate.possibly_colorable:
        assert gate.failed_rule is not None
        return SolveOutcome(
            status="UNSAT",
            count=0 if cfg.mode == "count" else None,
            nodes_explored=0,
            pruned_by={gate.failed_rule: 1},
        )
    search = _Search(g, k, cfg, _vertex_order(g))
    try:
        found = search.run()
    except _Budget:
        return SolveOutcome(
            status="BUDGET_EXCEEDED",
            nodes_explored=search.nodes,
            pruned_by=search.pruned,
        )
    if cfg.mode == "count":
        return SolveOutcome(
            status="SAT" if search.count > 0 else "UNSAT",
            count=search.count,
            nodes_explored=search.nodes,
            pruned_by=search.pruned,
        )
    if not found:
        return SolveOutcome(
            status="UNSAT",
            nodes_explored=search.nodes,
            pruned_by=search.pruned,
        )
    witness = Coloring(k, tuple(search.color))
    assert is_nbkc(g, witness).balanced, "solver returned an unbalanced witness"
    return SolveOutcome(
        status="SAT",
        witness=witness,
        nodes_explored=search.nodes,
        pruned_by=search.pruned,
    )


_DEFAULT_CAP_BITS = 24


def _enumeration_cap(n: int, k: int, cap_bits: int) -> None:
    total_bits = n * max(1, (k - 1).bit_length())
    if k**n > 2**cap_bits:
        raise ValueError(
            f"instance too large for exhaustive enumeration: k^n = {k}^{n} "
            f"exceeds 2^{cap_bits} (≈{total_bits} assignment bits)"
        )


def _balanced_assignments(
    g: Graph, k: int, cap_bits: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (assignments tried so far, assignment) for every balanced one,
    enumerating all k^n in lexicographic order (vertex 0 varies slowest)."""
    if k < 2:
        raise ValueError(f"palette size must be at least 2, got {k}")
    _enumeration_cap(g.n, k, cap_bits)
    adj = tuple(g.neighbors(v) for v in range(g.n))
    for tried, assignment in enumerate(product(range(1, k + 1), repeat=g.n), 1):
        if _balanced(adj, assignment, k):
            yield tried, assignment


def brute_force(g: Graph, k: int, cap_bits: int = _DEFAULT_CAP_BITS) -> SolveOutcome:
    """Exhaustive ground-truth check, sharing no pruning theory with solve.

    Takes the first balanced assignment in lexicographic order, testing
    balance by direct counting.  No degree gate, no symmetry breaking —
    deliberately, so this oracle cannot inherit a bug from the clever path.
    """
    for tried, assignment in _balanced_assignments(g, k, cap_bits):
        witness = Coloring(k, assignment)
        assert is_nbkc(g, witness).balanced
        return SolveOutcome(status="SAT", witness=witness, nodes_explored=tried)
    return SolveOutcome(status="UNSAT", nodes_explored=k**g.n)


def count_colorings(g: Graph, k: int, cap_bits: int = _DEFAULT_CAP_BITS) -> int:
    """Number of balanced k-colorings with labeled colors, by enumeration."""
    return sum(1 for _ in _balanced_assignments(g, k, cap_bits))


def _balanced(
    adj: tuple[tuple[int, ...], ...], assignment: tuple[int, ...], k: int
) -> bool:
    for nb in adj:
        if not nb:
            continue
        share, rem = divmod(len(nb), k)
        if rem:
            return False
        counts = [0] * (k + 1)
        for u in nb:
            counts[assignment[u]] += 1
        for c in range(1, k + 1):
            if counts[c] != share:
                return False
    return True


__all__ = [
    "SolveConfig",
    "SolveOutcome",
    "solve",
    "brute_force",
    "count_colorings",
]
