"""Command-line interface.

Exit codes follow one contract everywhere: 0 for success, 1 for a
mathematical negative (a refusal, an unsatisfiable instance, an unbalanced
coloring) with a machine-readable first line such as ``REFUSED <rule>`` or
``UNSAT``, 2 for usage, input-format and file errors, and 3 for an internal
error.  Shell harnesses can therefore assert theorems directly on exit codes.
"""

from __future__ import annotations

import argparse
import sys

# The package registers its submodules lazily, so binding them here runs
# none of them: a command runs only the modules its handler reads.
from . import cnf, families, io, products, reduction, solver, unions
from .balance import Coloring, Refusal, check_necessary, is_closed_nbkc, is_nbkc
from .graph import Graph, cycle_graph


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _read_graph(path: str) -> Graph:
    return io.graph_from_text(_read(path))


def _require_palette_fits(path: str, k: int, n: int, vertices: str) -> None:
    """Raise ValueError unless the palette size k is at most the n ``vertices``.

    On a graph with an edge, a balanced coloring uses every color, so k <= n.
    The bound keeps a ``k`` header from sizing the verifier's k-by-k report,
    ``solve`` from writing a witness that ``verify`` refuses to read, and
    ``export-cnf`` from writing n*k selectors for an edgeless graph.
    """
    if k > n:
        raise ValueError(f"{path}: palette size {k} exceeds the {n} {vertices}")


def _read_coloring(path: str) -> Coloring:
    """Read a coloring file whose palette is no larger than its vertex count."""
    c = io.coloring_from_text(_read(path))
    _require_palette_fits(path, c.k, len(c.colors), "colored vertices")
    return c


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _emit_pair(prefix: str | None, g: Graph, c: Coloring | None) -> None:
    """Write PREFIX.graph / PREFIX.coloring, or dump both to stdout."""
    if prefix:
        _write(f"{prefix}.graph", io.graph_to_text(g))
        if c is not None:
            _write(f"{prefix}.coloring", io.coloring_to_text(c))
        print(f"wrote {prefix}.graph" + (f" and {prefix}.coloring" if c else ""))
    else:
        sys.stdout.write(io.graph_to_text(g))
        if c is not None:
            sys.stdout.write(io.coloring_to_text(c))


def _finish(args: argparse.Namespace, result: tuple | Refusal) -> int:
    """Print a refusal (exit 1) or emit ``result[0]`` and ``result[1]`` (exit 0)."""
    if isinstance(result, Refusal):
        print(f"REFUSED {result.rule}")
        print(result.detail)
        return 1
    _emit_pair(args.output, result[0], result[1])
    return 0


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} must be an integer: {text!r}") from None


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(_parse_int(part, what) for part in text.split(",") if part != "")
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers: {text!r}") from None


def _circulant(params: list[str], k: int | None) -> tuple | Refusal:
    """The progression theorem (k = arity) without -k, the residue theorem with it."""
    n = _parse_int(params[0], "circulant order n")
    spec = families.CirculantSpec(n, _parse_int_list(params[1], "connections"))
    if k is None:
        return families.circulant_progression_nbc(spec)
    return families.circulant_residue_nbc(spec, k)


# family: (parameter count, their usage, the -k it takes, builder of (params, k)).
# The -k is "2" (absent or 2), "required" or "optional".  Each builder reads
# ``families.<name>`` only when it runs, so importing the CLI runs no family code.
_FAMILIES = {
    "cycle": (1, "one parameter: the cycle length", "2",
              lambda p, k: families.cycle_nbc(_parse_int(p[0], "cycle length"))),
    "circulant": (2, "two parameters: n and the comma-separated connections", "optional",
                  _circulant),
    "hamming": (1, "one parameter: the word length d (the alphabet size is -k)", "required",
                lambda p, k: families.hamming_nbc(_parse_int(p[0], "word length d"), k)),
    "hypercube": (1, "one parameter: the dimension d", "2",
                  lambda p, k: families.hypercube_nbc(_parse_int(p[0], "dimension d"))),
    "multipartite": (1, "one parameter: comma-separated part sizes", "required",
                     lambda p, k: families.complete_multipartite_nbc(
                         _parse_int_list(p[0], "part sizes"), k)),
    "complete": (1, "one parameter: the vertex count", "required",
                 lambda p, k: families.complete_graph_nbc(_parse_int(p[0], "vertex count"), k)),
}


def _cmd_construct(args: argparse.Namespace) -> int:
    family, params, k = args.family, args.params, args.k
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {', '.join(_FAMILIES)}")
    count, usage, takes_k, build = _FAMILIES[family]
    if len(params) != count:
        raise ValueError(f"construct {family} expects {usage}")
    if takes_k == "2" and k not in (None, 2):
        raise ValueError(f"{family} colorings use k=2")
    if takes_k == "required" and k is None:
        raise ValueError(f"construct {family} requires -k")
    return _finish(args, build(params, k))


def _cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    c = _read_coloring(args.coloring)
    report = is_closed_nbkc(g, c) if args.closed else is_nbkc(g, c)
    if args.format == "json":
        print(io.report_to_json(report))
        return 0 if report.balanced else 1
    if report.balanced:
        print("BALANCED")
        print(f"class sizes: {list(report.class_sizes)}")
        return 0
    print("UNBALANCED")
    for v, counts in report.violations[:10]:
        print(f"vertex {v} sees per-color counts {list(counts)}")
    if len(report.violations) > 10:
        print(f"... and {len(report.violations) - 10} more violations")
    if report.unused_colors:
        print(f"unused colors: {list(report.unused_colors)}")
    return 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    report = check_necessary(g, args.k)
    if args.format == "json":
        print(io.report_to_json(report))
        return 0 if report.possibly_colorable else 1
    if report.possibly_colorable:
        print("possibly-colorable")
        if report.regularity:
            r = report.regularity
            print(
                f"{r.degree}-regular: n mod k = {r.order_residue}, "
                f"|E| mod k^2 = {r.size_residue}"
            )
        return 0
    print(f"REFUSED {report.failed_rule}")
    if report.failed_rule == "degree-divisibility":
        v = report.degree_offender
        print(f"vertex {v} has degree {g.degree(v)}, not a multiple of {args.k}")
    elif report.failed_rule == "min-order":
        print(report.order_detail)
    elif report.failed_rule == "size-divisibility":
        print(f"|E| = {g.m} is not a multiple of k^2 = {args.k * args.k}")
    elif report.regularity is not None:
        r = report.regularity
        print(
            f"{r.degree}-regular graph: n mod k = {r.order_residue}, "
            f"|E| mod k^2 = {r.size_residue}"
        )
    return 1


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    _require_palette_fits(args.graph, args.k, g.n, "vertices")
    cfg = solver.SolveConfig(mode=args.mode, node_budget=args.budget)
    outcome = solver.solve(g, args.k, cfg)
    if args.output and outcome.witness is not None:
        _write(args.output, io.coloring_to_text(outcome.witness))
    if args.format == "json":
        print(io.report_to_json(outcome))
    else:
        print(outcome.status)
        if outcome.status == "BUDGET_EXCEEDED":
            print(f"explored {outcome.nodes_explored} nodes")
        if outcome.count is not None:
            print(f"colorings: {outcome.count}")
        if outcome.witness is not None:
            if args.output:
                print(f"wrote {args.output}")
            else:
                sys.stdout.write(io.coloring_to_text(outcome.witness))
    return 0 if outcome.status == "SAT" else 1


def _cmd_product(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    h = _read_graph(args.other)
    if args.cg is None and args.ch is None:
        prod = products.product_graph(args.kind, g, h)
        _emit_pair(args.output, prod, None)
        return 0
    cg = _read_coloring(args.cg) if args.cg else None
    ch = _read_coloring(args.ch) if args.ch else None
    return _finish(args, products.product_nbc(args.kind, g, h, cg, ch))


def _cmd_join(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    cg = _read_coloring(args.g_coloring)
    h = _read_graph(args.other)
    ch = _read_coloring(args.h_coloring)
    return _finish(args, products.join_nbc(g, cg, h, ch))


def _cmd_embed(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    host, coloring, embedding = products.embed_in_nbkc(g, args.k)
    _emit_pair(args.output, host, coloring)
    print("embedding: " + ",".join(str(v) for v in embedding))
    return 0


def _cmd_vertex_add(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    c = _read_coloring(args.coloring)
    u_list, v_list = [], []
    for chunk in args.pairs.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise ValueError(
                f"--pairs expects u:v pairs separated by commas, got {chunk!r}"
            )
        u_list.append(_parse_int(parts[0], "--pairs vertex"))
        v_list.append(_parse_int(parts[1], "--pairs vertex"))
    return _finish(args, products.vertex_addition(g, c, tuple(u_list), tuple(v_list)))


def _cmd_union(args: argparse.Namespace) -> int:
    """Glue copies of a graph file, or of C_M with its 1,1,2,2 coloring (--cycle)."""
    glue = frozenset(_parse_int_list(args.set, "--set"))
    if args.cycle is not None:
        if args.graph is not None or args.coloring_file is not None:
            raise ValueError("union --cycle takes no graph file or --coloring")
        g = cycle_graph(args.cycle)
    elif args.graph is None:
        raise ValueError("union needs a graph file unless --cycle is given")
    else:
        g = _read_graph(args.graph)
    if args.congruence:
        if args.k is None:
            raise ValueError("union --congruence requires -k")
        report = unions.union_congruence(g, glue, args.k)
        if args.format == "json":
            print(io.report_to_json(report))
        else:
            print(
                f"q={list(report.q)} p={report.p} L={report.L} M={report.M} "
                f"modulus={report.modulus}"
            )
            print(f"admissible copy counts: n ≡ 1 (mod {report.modulus})")
        return 0
    if args.k is not None or args.format == "json":
        raise ValueError("union takes -k and --format json only with --congruence")
    if args.copies is None:
        route = "union --cycle" if args.cycle is not None else "union"
        raise ValueError(f"{route} requires --copies")
    spec = unions.UnionSpec(g, glue, args.copies)
    if args.cycle is None and args.coloring_file is None:
        return _finish(args, (unions.union_over_set(spec)[0], None))
    base = _read_coloring(args.coloring_file) if args.coloring_file else None
    inside = spec.inside_edges
    if inside and args.cycle is not None:
        return _finish(args, unions.cycle_union_nbc(args.cycle, glue, args.copies))
    if inside:
        return _finish(args, Refusal(
            "dependent-set",
            f"edge {inside[0]} lies inside the glue set; the copied "
            f"coloring theorem needs an independent set (try --congruence "
            f"or solve)",
        ))
    if base is None:
        cycle = families.cycle_nbc(args.cycle)
        if isinstance(cycle, Refusal):
            return _finish(args, cycle)
        base = cycle[1]
    return _finish(args, unions._independent_union(spec, base))


def _roles_path(roles: str | None, graph_path: str) -> str:
    """The role sidecar: ``--roles``, else the graph's path with suffix ``.roles``."""
    if roles:
        return roles
    from pathlib import Path  # unlike os.path, names out.'s sidecar out..roles

    return str(Path(graph_path).with_suffix(".roles"))


def _cmd_reduce(args: argparse.Namespace) -> int:
    from pathlib import Path

    values = _parse_int_list(args.ess, "--ess")
    graph_path = args.output
    roles_path = _roles_path(args.roles, graph_path)
    if Path(graph_path).resolve() == Path(roles_path).resolve():
        raise ValueError(
            f"the graph and its roles would both be written to {roles_path}; "
            f"choose another -o or --roles"
        )
    inst = reduction.EssInstance(values=values, k=args.k)
    rinst = reduction.reduce_ess_to_nbc(inst)
    _write(graph_path, io.graph_to_text(
        rinst.graph,
        comments=(
            f"compiled equal-sum-subsets instance: T={list(values)}, k={args.k}",
        ),
    ))
    _write(roles_path, io.roles_to_text(rinst.roles()))
    print(f"wrote {graph_path} and {roles_path}")
    print(f"vertices: {rinst.graph.n}, edges: {rinst.graph.m}")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    c = _read_coloring(args.coloring)
    roles = io.roles_from_text(_read(_roles_path(args.roles, args.graph)))
    try:
        partition = reduction.decode_from_roles(g, roles, c)
    except reduction.UnbalancedColoring as exc:
        print("UNBALANCED")
        print(f"{len(exc.report.violations)} vertices violate balance")
        return 1
    share = sum(partition[0])
    print(f"equal subset sums: {share}")
    for i, part in enumerate(partition, start=1):
        print(f"T_{i} = {sorted(part)}")
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    c = _read_coloring(args.coloring) if args.coloring else None
    roles = io.roles_from_text(_read(args.roles)) if args.roles else None
    text = io.to_dot(g, c, roles)
    if args.output:
        _write(args.output, text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_export_cnf(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    _require_palette_fits(args.graph, args.k, g.n, "vertices")
    # Built before the file is opened, so a refused input writes no file.
    doc = cnf.to_cnf(g, args.k)
    if args.output:
        with open(args.output, "w") as f:
            num_vars, num_clauses = doc.to_dimacs(f)
        print(f"wrote {args.output} ({num_vars} vars, {num_clauses} clauses)")
    else:
        doc.to_dimacs(sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbcolor",
        description=(
            "Neighborhood-balanced k-colorings: constructions, verification, "
            "exact solving, and hardness reductions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a family graph and coloring")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("-k", type=int, default=None,
                   help="palette size; circulants use the residue theorem with "
                        "-k and the progression theorem (k = arity) without it")
    p.add_argument("-o", "--output", default=None, metavar="PREFIX")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("verify", help="check a coloring for balance")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--closed", action="store_true",
                   help="use closed neighborhoods N[v]")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("analyze", help="run the arithmetic necessity screens")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("solve", help="decide balanced k-colorability exactly")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--mode", choices=("first-witness", "canonical-min", "count"),
                   default="first-witness")
    p.add_argument("--budget", type=int, default=None, help="search-node cap")
    p.add_argument("-o", "--output", default=None, metavar="FILE")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("product", help="build a graph product, optionally colored")
    p.add_argument("kind", choices=("cartesian", "direct", "strong", "lexicographic"))
    p.add_argument("graph")
    p.add_argument("other")
    p.add_argument("--cg", default=None, help="coloring of the first factor")
    p.add_argument("--ch", default=None, help="coloring of the second factor")
    p.add_argument("-o", "--output", default=None, metavar="PREFIX")
    p.set_defaults(handler=_cmd_product)

    p = sub.add_parser("join", help="join two balanced-colored graphs")
    p.add_argument("graph")
    p.add_argument("g_coloring")
    p.add_argument("other")
    p.add_argument("h_coloring")
    p.add_argument("-o", "--output", default=None, metavar="PREFIX")
    p.set_defaults(handler=_cmd_join)

    p = sub.add_parser("embed", help="embed a graph in a balanced-colorable host")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output", default=None, metavar="PREFIX")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("vertex-add",
                       help="grow a balanced coloring by one 2k-1 vertex addition")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--pairs", required=True,
                   help="color-matched vertex pairs, e.g. 0:2,1:3")
    p.add_argument("-o", "--output", default=None, metavar="PREFIX")
    p.set_defaults(handler=_cmd_vertex_add)

    p = sub.add_parser("union", help="glue n copies of a graph along a vertex set")
    p.add_argument("graph", nargs="?", default=None)
    p.add_argument("--set", required=True, help="comma-separated glue vertices")
    p.add_argument("--copies", type=int, default=None)
    p.add_argument("--cycle", type=int, default=None, metavar="M",
                   help="use the cycle C_M with its 1,1,2,2 coloring as the "
                        "base, in place of a graph file and --coloring")
    p.add_argument("--congruence", action="store_true",
                   help="report the dependent-set congruence instead of building")
    p.add_argument("-k", type=int, default=None, help="palette size, with --congruence")
    p.add_argument("--coloring", dest="coloring_file", default=None,
                   help="balanced base coloring to copy across an "
                        "independent glue set")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", default=None, metavar="PREFIX")
    p.set_defaults(handler=_cmd_union)

    p = sub.add_parser("reduce",
                       help="compile an equal-sum-subsets instance to a graph")
    p.add_argument("--ess", required=True, help="comma-separated multiset, e.g. "
                                                "1,2,2,3,4")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    p.add_argument("--roles", default=None,
                   help="role sidecar path (default: output with .roles suffix)")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("decode",
                       help="read the equal-sum partition out of a balanced "
                            "coloring of a compiled instance")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--roles", default=None,
                   help="role sidecar path (default: graph with .roles suffix)")
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("export-dot", help="render a graph (and coloring) as DOT")
    p.add_argument("graph")
    p.add_argument("--coloring", default=None)
    p.add_argument("--roles", default=None)
    p.add_argument("-o", "--output", default=None, metavar="FILE")
    p.set_defaults(handler=_cmd_export_dot)

    p = sub.add_parser("export-cnf", help="export the instance as DIMACS CNF")
    p.add_argument("graph")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output", default=None, metavar="FILE")
    p.set_defaults(handler=_cmd_export_cnf)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with its own code (2 on usage errors); normalize.
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large for this machine",
              file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit 1 means a mathematical negative, so a crash must not reach it.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


__all__ = ["run", "main"]


if __name__ == "__main__":
    main()
