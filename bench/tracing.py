"""Spans and counters recorded around calls into nbcolor's public functions.

``Tracer.install`` swaps each traced function for a wrapper in every loaded
``nbcolor`` module that binds it, so calls through names that callers
imported (``nbcolor.solver.check_necessary``, ``nbcolor.cli.solve``, ...)
are caught as well as calls through the defining module.  Spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  A dotted attribute names a method.
TARGETS = (
    ("nbcolor.solver", "solve", "solver.solve"),
    ("nbcolor.balance", "check_necessary", "balance.check_necessary"),
    ("nbcolor.balance", "is_nbkc", "balance.is_nbkc"),
    ("nbcolor.balance", "is_closed_nbkc", "balance.is_nbkc"),
    ("nbcolor.reduction", "reduce_ess_to_nbc", "reduction.reduce"),
    ("nbcolor.reduction", "decode", "reduction.decode"),
    ("nbcolor.reduction", "decode_from_roles", "reduction.decode"),
    ("nbcolor.families", "circulant_progression_nbc", "families.build"),
    ("nbcolor.families", "circulant_residue_nbc", "families.build"),
    ("nbcolor.families", "hamming_nbc", "families.build"),
    ("nbcolor.families", "hypercube_nbc", "families.build"),
    ("nbcolor.families", "complete_multipartite_nbc", "families.build"),
    ("nbcolor.families", "cycle_nbc", "families.build"),
    ("nbcolor.products", "product_graph", "products.build"),
    ("nbcolor.products", "product_nbc", "products.build"),
    ("nbcolor.products", "join_nbc", "products.build"),
    ("nbcolor.unions", "union_over_set", "unions.build"),
    ("nbcolor.unions", "union_nbc_independent", "unions.build"),
    ("nbcolor.unions", "cycle_union_nbc", "unions.build"),
    ("nbcolor.cnf", "to_cnf", "cnf.to_cnf"),
    ("nbcolor.cnf", "CnfDocument.to_dimacs", "cnf.dimacs"),
    ("nbcolor.io", "graph_from_text", "io.parse"),
    ("nbcolor.io", "coloring_from_text", "io.parse"),
    ("nbcolor.io", "roles_from_text", "io.parse"),
    ("nbcolor.io", "graph_to_text", "io.emit"),
    ("nbcolor.io", "coloring_to_text", "io.emit"),
    ("nbcolor.io", "roles_to_text", "io.emit"),
    ("nbcolor.io", "to_dot", "io.emit"),
    ("nbcolor.io", "report_to_json", "io.emit"),
    ("nbcolor.graph", "Graph.__init__", "graph.init"),
)

# Spans kept for the output file; aggregates always cover every span.
MAX_KEPT_SPANS = 50_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stack: list[list] = []  # [span id, start, time in child spans]
        self.depth: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.next_id = 0

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "nbcolor" or name.startswith("nbcolor."))]
        for module_name, attr, span in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self._wrap(getattr(cls, method), span))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, span)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [tracer.next_id, perf_counter(), 0.0]
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.stack.append(frame)
            tracer.depth[name] += 1
            result, done = None, False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.depth[name] -= 1
                duration = end - frame[1]
                if tracer.stack:
                    tracer.stack[-1][2] += duration
                if tracer.depth[name] == 0:
                    tracer.inclusive[name] += duration
                tracer.self_time[name] += duration - frame[2]
                tracer.calls[name] += 1
                if len(tracer.spans) < MAX_KEPT_SPANS:
                    tracer.spans.append((frame[0], parent, name, frame[1], end))
                else:
                    tracer.dropped += 1
                if done:
                    tracer._count(name, args, result)

        return traced

    def _count(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "solver.solve":
            key = "solver.count_nodes" if result.count is not None else "solver.nodes"
            c[key] += result.nodes_explored
            for rule in ("symmetry", "quota", "deficit"):
                c[f"solver.pruned.{rule}"] += result.pruned_by.get(rule, 0)
        elif name == "balance.check_necessary":
            if not result.possibly_colorable:
                c["balance.screen_refusals"] += 1
        elif name == "balance.is_nbkc":
            c["balance.verified_edges"] += args[0].m
        elif name == "reduction.reduce":
            c["reduction.vertices"] += result.graph.n
        elif name == "graph.init":
            c["graph.edges_built"] += args[0].m
        elif name == "cnf.to_cnf":
            c["cnf.vars"] += result.num_vars
            c["cnf.clauses"] += len(result.clauses)
        elif name == "io.parse":
            c["io.bytes"] += len(args[0])
        elif name == "io.emit":
            c["io.bytes"] += len(result)

    def totals(self) -> dict:
        """Layer times (inclusive of nested calls into other layers) in
        seconds, self times, call counts and counters."""
        return {
            "inclusive_s": dict(self.inclusive),
            "self_s": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "dropped": self.dropped,
                       "totals": self.totals()}, fh)


def merge_totals(into: dict, other: dict) -> None:
    for section, values in other.items():
        bucket = into.setdefault(section, {})
        for key, value in values.items():
            bucket[key] = bucket.get(key, 0) + value


def layer_metrics(totals: dict, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from merged tracer totals."""
    inc = totals.get("inclusive_s", {})
    self_s = totals.get("self_s", {})
    calls = totals.get("calls", {})
    counts = totals.get("counts", {})

    def ms(name: str) -> float:
        return 1000.0 * inc.get(name, 0.0) / passes

    def per_pass(value) -> float:
        return value / passes

    search_s = self_s.get("solver.solve", 0.0)
    nodes = counts.get("solver.nodes", 0) + counts.get("solver.count_nodes", 0)
    verify_s = inc.get("balance.is_nbkc", 0.0)
    return {
        "solver.solve_ms": ms("solver.solve"),
        "solver.search_ms": 1000.0 * search_s / passes,
        "solver.nodes": per_pass(counts.get("solver.nodes", 0)),
        "solver.nodes_per_s": nodes / search_s if search_s > 0 else 0.0,
        "solver.pruned.symmetry": per_pass(counts.get("solver.pruned.symmetry", 0)),
        "solver.pruned.quota": per_pass(counts.get("solver.pruned.quota", 0)),
        "solver.pruned.deficit": per_pass(counts.get("solver.pruned.deficit", 0)),
        "solver.count_nodes": per_pass(counts.get("solver.count_nodes", 0)),
        "balance.check_necessary_ms": ms("balance.check_necessary"),
        "balance.check_necessary_calls": per_pass(calls.get("balance.check_necessary", 0)),
        "balance.screen_refusals": per_pass(counts.get("balance.screen_refusals", 0)),
        "balance.is_nbkc_ms": ms("balance.is_nbkc"),
        "balance.is_nbkc_calls": per_pass(calls.get("balance.is_nbkc", 0)),
        "balance.verified_edges_per_s": (
            counts.get("balance.verified_edges", 0) / verify_s if verify_s > 0 else 0.0
        ),
        "reduction.reduce_ms": ms("reduction.reduce"),
        "reduction.decode_ms": ms("reduction.decode"),
        "reduction.vertices": per_pass(counts.get("reduction.vertices", 0)),
        "families.build_ms": ms("families.build"),
        "products.build_ms": ms("products.build"),
        "unions.build_ms": ms("unions.build"),
        "graph.edges_built": per_pass(counts.get("graph.edges_built", 0)),
        "cnf.to_cnf_ms": ms("cnf.to_cnf"),
        "cnf.dimacs_ms": ms("cnf.dimacs"),
        "cnf.vars": per_pass(counts.get("cnf.vars", 0)),
        "cnf.clauses": per_pass(counts.get("cnf.clauses", 0)),
        "io.parse_ms": ms("io.parse"),
        "io.emit_ms": ms("io.emit"),
        "io.bytes": per_pass(counts.get("io.bytes", 0)),
    }
