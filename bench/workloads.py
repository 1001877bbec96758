"""The four workloads: seeded inputs, one pass over them, and their checks.

A workload object is built from a seed (its set-up) and then runs whole
passes over the same input list.  ``Pass.call`` times each call into
nbcolor and hands the time to a ``Timing``; the checks from :mod:`checks`
run between calls, outside the timed region.  Calls go through module
attributes (``solver.solve``, not a name bound at import), so a traced run
sees them through its wrappers.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class OpFailed(Exception):
    """A call into the program raised; the operation counts as failed."""


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop (3 ms on the build host at
    its fastest)."""
    start = perf_counter()
    table = [0] * 64
    tally: dict[int, int] = {}
    acc = 0
    for i in range(20000):
        j = i & 63
        table[j] += i % 7
        if table[j] > 100:
            table[j] -= 100
            tally[j] = tally.get(j, 0) + 1
        acc += len((i, j))
    return perf_counter() - start


# Timed program time between two runs of the reference loop.
SEGMENT_S = 0.05
# The reference loop's time at the speed all figures are reported at: about
# its fastest time on the build host.
NOMINAL_LOOP_S = 0.003


class Timing:
    """Call timings over whole passes, corrected for the host's speed.

    The host's speed swings by up to a factor of two, within seconds and
    between minutes.  On the build host the reference loop's fastest time
    over 300 repetitions in one process ranged from 2.8 to 5.3 ms between
    processes, on either CPU, while process time tracked wall time: the work
    did not change, the speed did.  So after every ``SEGMENT_S`` of timed
    calls the reference loop runs once, and each call's time is multiplied
    by ``NOMINAL_LOOP_S`` over the loop's mean time around its segment.
    Figures so read as seconds at the speed where the loop takes 3 ms.

    ``passes`` keeps each pass's corrected time per step.  ``per_call``
    averages each call over passes: every pass makes the same calls in the
    same order, so the i-th call of a step is the same operation each time.
    """

    def __init__(self) -> None:
        self.sums: dict[str, list[float]] = {}
        self.pending: list[tuple[Pass, str, int, float]] = []
        self.pending_s = 0.0
        self.last_loop = reference_loop()
        self.passes: list[dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = defaultdict(int)
        self.pass_times: list[float] = []

    def reference(self) -> float:
        """Mean reference-loop time around the calls since the last one."""
        loop = reference_loop()
        around = (self.last_loop + loop) / 2
        self.last_loop = loop
        return around

    def record(self, p: Pass, step: str, index: int, seconds: float) -> None:
        self.pending.append((p, step, index, seconds))
        self.pending_s += seconds
        if self.pending_s >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        scale = NOMINAL_LOOP_S / self.reference()
        for p, step, index, seconds in self.pending:
            corrected = seconds * scale
            sums = self.sums.setdefault(step, [])
            if index == len(sums):
                sums.append(0.0)
            sums[index] += corrected
            p.corrected[step] += corrected
        self.pending.clear()
        self.pending_s = 0.0

    def add(self, p: Pass) -> None:
        self.flush()
        self.passes.append(dict(p.corrected))
        self.attempted += p.attempted
        self.failed += p.failed
        for what, count in p.failures.items():
            self.failures[what] += count
        self.pass_times.append(p.raw_s)

    def per_call(self, prefix: str | None = None) -> list[float]:
        """Mean corrected time of each call of the steps named ``prefix``
        (``solve`` covers ``solve:ess``), or of every call."""
        n = len(self.passes)
        return [x / n for step, sums in self.sums.items()
                if prefix is None or step.split(":")[0] == prefix for x in sums]

    def median_pass(self, *steps: str) -> float:
        """Median over passes of the corrected time in the named steps (all
        steps when none are named)."""
        return statistics.median(
            sum(t for step, t in c.items() if not steps or step in steps)
            for c in self.passes
        )


class Pass:
    """One whole pass over a workload's operations."""

    def __init__(self, timing: Timing) -> None:
        self.timing = timing
        self.index: dict[str, int] = defaultdict(int)
        self.corrected: dict[str, float] = defaultdict(float)
        self.raw_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = defaultdict(int)

    def call(self, step: str, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            raise OpFailed(f"{step}: {type(exc).__name__}") from exc
        finally:
            elapsed = perf_counter() - start
            self.raw_s += elapsed
            self.timing.record(self, step, self.index[step], elapsed)
            self.index[step] += 1

    def run(self, ops, errors: list[str]) -> None:
        for label, op in ops:
            self.attempted += 1
            try:
                op(self, _Checker(label, errors))
            except OpFailed as exc:
                self.failed += 1
                self.failures[f"{label}: {exc}"] += 1


class _Checker:
    def __init__(self, label: str, errors: list[str]) -> None:
        self.label = label
        self.errors = errors

    def __call__(self, ok: bool, what: str) -> None:
        if not ok and len(self.errors) < 20:
            self.errors.append(f"{self.label}: {what}")


def rotated(items: list, seed: int) -> list:
    """The fixed list, started at a seeded position.  A rotation keeps every
    call's neighbours (and so the cache state it meets) the same across
    seeds, where a shuffle would move the timings of the smallest calls."""
    start = random.Random(seed).randrange(len(items))
    return items[start:] + items[:start]


# ---------------------------------------------------------------------------
# ess-sweep
# ---------------------------------------------------------------------------

# Criterion 06 sweeps every multiset of sizes 1-5 over values 1..6 with
# k in {2, 3}: 922 instances, 19.5 M search nodes.  The k=3 blocks of sizes
# 4 and 5 whose sum is a multiple of 3 pass the screens and hold 99% of the
# nodes, so a pass keeps only this fixed sample of them, picked across the
# reference sweep's node counts (SAT and UNSAT, 89 to 294,451 nodes).
K3_SAMPLE = (
    (1, 1, 2, 2), (2, 2, 4, 4), (2, 2, 3, 5), (6, 6, 6, 6),
    (1, 2, 3, 4, 5), (2, 2, 4, 4, 6), (1, 1, 2, 3, 5), (1, 2, 4, 4, 4),
    (3, 3, 3, 3, 3),
)


def ess_instances() -> list[tuple[tuple[int, ...], int]]:
    out = []
    for size in range(1, 6):
        for values in itertools.combinations_with_replacement(range(1, 7), size):
            for k in (2, 3):
                if (k == 2 or size <= 3 or sum(values) % 3
                        or values in K3_SAMPLE):
                    out.append((values, k))
    return out


class EssSweep:
    """reduce_ess_to_nbc -> solve -> decode on criterion-06 multisets."""

    def __init__(self, seed: int) -> None:
        from nbcolor import reduction, solver

        self.reduction, self.solver = reduction, solver
        items = rotated(ess_instances(), seed)
        self.ops = [(f"T={values} k={k}", self._op(values, k)) for values, k in items]
        self.expected: dict[tuple, bool] = {}

    def _op(self, values, k):
        def op(p: Pass, check) -> None:
            reduction, solver = self.reduction, self.solver
            inst = reduction.EssInstance(values, k)
            rinst = p.call("reduce", reduction.reduce_ess_to_nbc, inst)
            out = p.call("solve", solver.solve, rinst.graph, k)
            parts = None
            if out.status == "SAT":
                parts = p.call("decode", reduction.decode, rinst, out.witness)
            key = (values, k)
            if key not in self.expected:
                self.expected[key] = checks.ess_split(values, k)
            yes = self.expected[key]
            g = rinst.graph
            check(g.n == checks.reduction_order(values, k), "compiled vertex count")
            check(out.status == ("SAT" if yes else "UNSAT"), f"verdict {out.status}")
            if parts is not None:
                check(checks.recount_balanced(g.n, g.edges, out.witness.colors, k),
                      "witness not balanced on recount")
                check(checks.partition_ok(values, parts, k), f"decoded {parts}")
        return op

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# family-witness
# ---------------------------------------------------------------------------


class FamilyWitness:
    """Build family/product/union colorings, verify, strip, solve or count."""

    def __init__(self, seed: int) -> None:
        from nbcolor import balance, families, products, solver, unions

        self.balance, self.solver = balance, solver
        self.f, self.pr, self.u = families, products, unions
        self.counts: dict[str, int | None] = {}
        items = rotated(self._items(), seed)
        self.ops = [(label, self._op(label, *rest)) for label, *rest in items]

    def _items(self):
        f, pr, u = self.f, self.pr, self.u

        def circulant(route, n, conns, k=None):
            def build():
                spec = f.CirculantSpec(n, conns)
                if route == "progression":
                    return f.circulant_progression_nbc(spec)
                return f.circulant_residue_nbc(spec, k)
            return build

        def cube(d):
            return lambda: f.hypercube_nbc(d)

        def product(kind):
            def build():
                g4, c4 = f.cycle_nbc(4)
                g8, c8 = f.cycle_nbc(8)
                if kind == "lexicographic":
                    # C4[C8] needs 935k nodes for a first witness; C8[C4] 1k.
                    return pr.product_nbc(kind, g8, g4, c8, c4)
                return pr.product_nbc(kind, g4, g8, c4, c8)
            return build

        def cycle_union(m, copies):
            return lambda: u.cycle_union_nbc(m, frozenset({0, 1, 2}), copies)

        def independent_union():
            g, c = f.cycle_nbc(8)
            glue = frozenset({0, 4})
            union, _ = u.union_over_set(u.UnionSpec(g, glue, 3))
            return union, u.union_nbc_independent(g, c, glue, 3)

        # (label, k, build, n, m, mode)
        items = [
            ("C48(1,4,7,10) progression", 4, circulant("progression", 48, (1, 4, 7, 10)), 48, 192),
            ("C48(1,4,7,10) residue", 2, circulant("residue", 48, (1, 4, 7, 10), 2), 48, 192),
            ("C36(1,2,4,5) residue", 2, circulant("residue", 36, (1, 2, 4, 5), 2), 36, 144),
            ("C60(1,2,3) progression", 3, circulant("progression", 60, (1, 2, 3)), 60, 180),
            ("Q4", 2, cube(4), 16, 32),
            ("Q6", 2, cube(6), 64, 192),
            ("Q8", 2, cube(8), 256, 1024),
            ("Q10", 2, cube(10), 1024, 5120),
            ("H(3,3)", 3, lambda: f.hamming_nbc(3, 3), 27, 81),
            ("K(3,3,3)", 3, lambda: f.complete_multipartite_nbc((3, 3, 3), 3), 9, 27),
            ("K(4,4,4)", 2, lambda: f.complete_multipartite_nbc((4, 4, 4), 2), 12, 48),
            ("C4 cartesian C8", 2, product("cartesian"), 32, 64),
            ("C4 direct C8", 2, product("direct"), 32, 64),
            ("C4 strong C8", 2, product("strong"), 32, 128),
            ("C8 lexicographic C4", 2, product("lexicographic"), 32, 160),
            ("3 C8 glued on {0,1,2}", 2, cycle_union(8, 3), 18, 20),
            ("5 C12 glued on {0,1,2}", 2, cycle_union(12, 5), 48, 52),
            ("3 C8 glued on {0,4}", 2, independent_union, 20, 24),
            ("C400", 2, lambda: f.cycle_nbc(400), 400, 400),
            ("C600", 2, lambda: f.cycle_nbc(600), 600, 600),
            ("C800", 2, lambda: f.cycle_nbc(800), 800, 800),
        ]
        out = [(label, k, build, n, m, "first-witness") for label, k, build, n, m in items]
        counted = {"Q4", "H(3,3)", "K(3,3,3)", "K(4,4,4)", "3 C8 glued on {0,1,2}"}
        out += [(f"{label} count", k, build, n, m, "count")
                for label, k, build, n, m in items if label in counted]
        out.append(("C30(1,2,3) progression count", 3,
                    circulant("progression", 30, (1, 2, 3)), 30, 90, "count"))
        return out

    def _op(self, label, k, build, n, m, mode):
        def op(p: Pass, check) -> None:
            built = p.call("build", build)
            if not isinstance(built, tuple):
                check(False, f"construction refused: {built}")
                return
            g, c = built[0], built[1]
            check(g.n == n and g.m == m, f"built n={g.n} m={g.m}, expected {n}, {m}")
            report = p.call("verify", self.balance.is_nbkc, g, c)
            check(report.balanced, "constructed coloring reported unbalanced")
            check(checks.recount_balanced(g.n, g.edges, c.colors, c.k),
                  "constructed coloring unbalanced on recount")
            if mode == "count":
                cfg = self.solver.SolveConfig(mode="count")
                out = p.call("solve", self.solver.solve, g, k, cfg)
                if label not in self.counts:
                    self.counts[label] = checks.expected_count(g.n, g.edges, k, out.count)
                expected = self.counts[label]
                check(out.status == "SAT" and expected is not None and out.count == expected,
                      f"count {out.count}, expected {expected}")
                return
            out = p.call("solve", self.solver.solve, g, k)
            check(out.status == "SAT", f"solver says {out.status}")
            if out.witness is not None:
                check(checks.recount_balanced(g.n, g.edges, out.witness.colors, k),
                      "solver witness unbalanced on recount")
        return op

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# small-screen
# ---------------------------------------------------------------------------

# Graphs per (n, k) in a pass, n in 6..12 and k in {2, 3}: degree-divisible
# and unconstrained, 14 * (108 + 36) = 2016 graphs.  Nearly every
# unconstrained graph is refused by the degree screen in ~15 us, while a
# degree-divisible one mostly reaches search; with equal shares the median
# solve would sit on the edge between the two and jump with the seed.
DIVISIBLE_PER_STRATUM = 108
UNCONSTRAINED_PER_STRATUM = 36


def divisible_graph(rng: random.Random, n: int, k: int) -> list[tuple[int, int]]:
    """Random graph on n vertices, at least one edge, every degree a multiple
    of k: a G(n, p) draw repaired by toggling edges between vertices whose
    degree residues both move toward 0."""
    while True:
        p = rng.uniform(0.25, 0.75)
        adj = [[False] * n for _ in range(n)]
        deg = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u][v] = adj[v][u] = True
                    deg[u] += 1
                    deg[v] += 1

        def closer(x: int, y: int) -> bool:
            r = deg[x] % k
            after = (r + (-1 if adj[x][y] else 1)) % k
            return min(after, k - after) < min(r, k - r)

        for _ in range(4 * n):
            wrong = [x for x in range(n) if deg[x] % k]
            if not wrong:
                break
            x = rng.choice(wrong)
            partners = [y for y in wrong if y != x and closer(x, y) and closer(y, x)]
            if not partners:
                partners = [y for y in range(n) if y != x and closer(x, y)]
            if not partners:
                break
            y = rng.choice(partners)
            step = -1 if adj[x][y] else 1
            adj[x][y] = adj[y][x] = step == 1
            deg[x] += step
            deg[y] += step
        if any(deg) and not any(d % k for d in deg):
            return [(a, b) for a in range(n) for b in range(a + 1, n) if adj[a][b]]


def random_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    p = rng.uniform(0.2, 0.8)
    return [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p]


class SmallScreen:
    """Thousands of 6-12 vertex graphs: Graph construction, then solve."""

    def __init__(self, seed: int) -> None:
        from nbcolor import graph, solver

        self.graph, self.solver = graph, solver
        rng = random.Random(seed)
        inputs = []
        for n, k in itertools.product(range(6, 13), (2, 3)):
            inputs += [(n, k, divisible_graph(rng, n, k))
                       for _ in range(DIVISIBLE_PER_STRATUM)]
            inputs += [(n, k, random_graph(rng, n))
                       for _ in range(UNCONSTRAINED_PER_STRATUM)]
        self.inputs = inputs
        self.expected: list[bool | None] = [None] * len(inputs)
        self.ops = [(f"graph {i} n={n} k={k}", self._op(i, n, k, edges))
                    for i, (n, k, edges) in enumerate(inputs)]

    def _op(self, i, n, k, edges):
        def op(p: Pass, check) -> None:
            g = p.call("graph", self.graph.Graph, n, edges)
            out = p.call("solve", self.solver.solve, g, k)
            if self.expected[i] is None:
                self.expected[i] = checks.count_balanced(n, edges, k, stop_at=1) > 0
            check(out.status == ("SAT" if self.expected[i] else "UNSAT"),
                  f"verdict {out.status}")
            if out.witness is not None:
                check(checks.recount_balanced(n, edges, out.witness.colors, k),
                      "witness unbalanced on recount")
        return op

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

CLI_MAIN = "from nbcolor.cli import main; main()"


class CommandFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class CliPipeline:
    """The nbcolor CLI as one subprocess after another, on real files."""

    def __init__(self, seed: int, traced: bool = False) -> None:
        rng = random.Random(seed)
        # Two multisets of seven values that split in two (k=2): their
        # compiled instances solve in milliseconds.
        self.multisets: list[list[int]] = []
        while len(self.multisets) < 2:
            values = [rng.randint(1, 6) for _ in range(7)]
            if checks.ess_split(values, 2):
                self.multisets.append(values)
        self.work = OUT / f"cli-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = child_env()
        self.traced = traced
        self.spans: list[Path] = []
        self.count_expected: int | None = None
        # Warm the bytecode cache so the first timed command does not compile.
        subprocess.run([sys.executable, "-c", "import nbcolor.cli"], env=self.env,
                       check=True, cwd=ROOT)
        self.ops = self._ops()

    def _cmd(self, args: list[str], expect: int):
        if self.traced:
            span = self.work / f"spans-{len(self.spans)}.json"
            self.spans.append(span)
            argv = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                    str(span), *args]
        else:
            argv = [sys.executable, "-c", CLI_MAIN, *args]
        proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != expect:
            raise CommandFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc

    def _read(self, name: str) -> str:
        try:
            return (self.work / name).read_text()
        except OSError:
            return ""

    def _balanced_files(self, stem: str, coloring: str | None = None) -> bool:
        n, edges = checks.parse_graph_text(self._read(f"{stem}.graph"))
        k, colors = checks.parse_coloring_text(self._read(f"{coloring or stem}.coloring"))
        return checks.recount_balanced(n, edges, colors, k)

    def _ops(self):
        w = lambda name: str(self.work / name)  # noqa: E731

        def step(name, args, expect, verify, outputs=()):
            """One command; the files it is to write are deleted first, so its
            checks read only what this pass wrote."""
            def op(p: Pass, check) -> None:
                for out in outputs:
                    (self.work / out).unlink(missing_ok=True)
                proc = p.call(name, self._cmd, args, expect)
                lines = proc.stdout.splitlines()
                try:
                    verify(lines[0] if lines else "", lines, check)
                except (ValueError, IndexError) as exc:
                    check(False, f"unreadable output: {exc}")
            return (f"nbcolor {' '.join(args)}", op)

        def first(expected):
            def verify(head, lines, check):
                check(head.startswith(expected), f"first line {head!r}")
            return verify

        def wrote(stem, colored=True):
            def verify(head, lines, check):
                check(head.startswith(f"wrote {w(stem)}.graph"), f"first line {head!r}")
                if colored:
                    check(self._balanced_files(stem), f"{stem} coloring unbalanced on recount")
            return verify

        def cnf(head, lines, check):
            check(head.startswith(f"wrote {w('h63.cnf')}"), f"first line {head!r}")
            check(checks.dimacs_ok(self._read("h63.cnf"), 729, 3), "DIMACS header or literals")

        def count(head, lines, check):
            check(head == "SAT", f"first line {head!r}")
            if self.count_expected is None:
                n, edges = checks.parse_graph_text(self._read("u.graph"))
                self.count_expected = checks.count_balanced(n, edges, 2)
            check(f"colorings: {self.count_expected}" in lines, f"count lines {lines}")

        def solved(stem, witness=None):
            def verify(head, lines, check):
                check(head == "SAT", f"first line {head!r}")
                check(self._balanced_files(stem, witness),
                      f"{witness or stem} witness unbalanced on recount")
            return verify

        def decoded(values):
            def verify(head, lines, check):
                check(head.startswith("equal subset sums: "), f"first line {head!r}")
                parts = [[int(x) for x in line.split("= ")[1].strip("[]").split(",") if x.strip()]
                         for line in lines[1:]]
                check(checks.partition_ok(values, parts, 2), f"decoded {parts}")
            return verify

        def round_trip(i, values):
            stem = f"ess{i}"
            return [
                step("reduce", ["reduce", "--ess", ",".join(map(str, values)), "-k", "2",
                                "-o", w(f"{stem}.graph")], 0, first(f"wrote {w(stem)}.graph"),
                     [f"{stem}.graph"]),
                step("solve:ess", ["solve", w(f"{stem}.graph"), "-k", "2",
                                   "-o", w(f"{stem}.coloring")], 0, solved(stem),
                     [f"{stem}.coloring"]),
                step("decode", ["decode", w(f"{stem}.graph"), w(f"{stem}.coloring")], 0,
                     decoded(values)),
            ]

        def dot(head, lines, check):
            check(head.startswith(f"wrote {w('c48.dot')}"), f"first line {head!r}")
            check(checks.dot_ok(self._read("c48.dot"), 48, 192), "DOT node or edge lines")

        def pair(stem):
            return [f"{stem}.graph", f"{stem}.coloring"]

        return [
            step("construct", ["construct", "hamming", "6", "-k", "3", "-o", w("h63")], 0,
                 wrote("h63"), pair("h63")),
            step("construct", ["construct", "hypercube", "10", "-o", w("q10")], 0, wrote("q10"),
                 pair("q10")),
            step("construct", ["construct", "circulant", "48", "1,4,7,10", "-o", w("c48")], 0,
                 wrote("c48"), pair("c48")),
            step("construct", ["construct", "cycle", "4", "-o", w("c4")], 0, wrote("c4"),
                 pair("c4")),
            step("construct", ["construct", "cycle", "8", "-o", w("c8")], 0, wrote("c8"),
                 pair("c8")),
            step("construct", ["construct", "cycle", "10"], 1, first("REFUSED regular-size")),
            step("verify", ["verify", w("h63.graph"), w("h63.coloring")], 0, first("BALANCED")),
            step("verify", ["verify", w("q10.graph"), w("q10.coloring")], 0, first("BALANCED")),
            step("analyze", ["analyze", w("h63.graph"), "-k", "3"], 0, first("possibly-colorable")),
            step("export-cnf", ["export-cnf", w("h63.graph"), "-k", "3", "-o", w("h63.cnf")], 0,
                 cnf, ["h63.cnf"]),
            step("product", ["product", "cartesian", w("c4.graph"), w("c8.graph"),
                             "--cg", w("c4.coloring"), "--ch", w("c8.coloring"), "-o", w("prod")],
                 0, wrote("prod"), pair("prod")),
            step("verify", ["verify", w("prod.graph"), w("prod.coloring")], 0, first("BALANCED")),
            step("union", ["union", "--cycle", "8", "--set", "0,1,2", "--copies", "3",
                           "-o", w("u")],
                 0, wrote("u"), pair("u")),
            step("solve", ["solve", w("u.graph"), "-k", "2", "--mode", "count"], 0, count),
            step("solve", ["solve", w("prod.graph"), "-k", "2", "-o", w("prodw.coloring")], 0,
                 solved("prod", "prodw"), ["prodw.coloring"]),
            step("solve", ["solve", w("c48.graph"), "-k", "2", "-o", w("c48w.coloring")], 0,
                 solved("c48", "c48w"), ["c48w.coloring"]),
            *round_trip(1, self.multisets[0]),
            *round_trip(2, self.multisets[1]),
            step("export-dot", ["export-dot", w("c48.graph"), "--coloring", w("c48.coloring"),
                                "-o", w("c48.dot")], 0, dot, ["c48.dot"]),
        ]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {
    "ess-sweep": EssSweep,
    "family-witness": FamilyWitness,
    "small-screen": SmallScreen,
    "cli-pipeline": CliPipeline,
}
