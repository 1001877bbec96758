"""Text formats: edge lists, colorings, role sidecars, DOT, JSON reports.

All formats are line-oriented.  Blank lines are ignored; lines whose first
field is ``c`` are comments.  Parsers raise :class:`ParseError` carrying line
and column numbers (both 1-based) so the CLI can print usable diagnostics.

Formats:

- graph: header ``p <n> <m>``, then m lines ``e <u> <v>`` with 0-based
  endpoints;
- coloring: header ``k <k>``, then one line ``v <vertex> <color>`` per
  vertex;
- roles sidecar: lines ``r <vertex> <role> [element]``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from . import _EXPORTS
from .balance import Coloring, _require_fit
from .graph import Graph, _Record, _edge_pairs

__all__ = list(_EXPORTS["io"])


class ParseError(ValueError):
    """A malformed input file, with a 1-based line/column position."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


def _records(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """Yield (lineno, raw line, fields) for every non-comment, non-blank line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] == "c":
            continue
        yield lineno, raw, fields


def _column_of(raw: str, fields: list[str], index: int) -> int:
    """1-based column of the index-th field of ``raw.split()`` in ``raw``."""
    pos = 0
    for field in fields[:index]:
        pos = raw.find(field, pos) + len(field)
    return raw.find(fields[index], pos) + 1


def _record_error(lineno: int, raw: str, message: str) -> ParseError:
    """An error about the record on line ``raw`` as a whole, placed at its tag."""
    return ParseError(lineno, _column_of(raw, raw.split(), 0), message)


def _int_field(
    raw: str, fields: list[str], index: int, lineno: int, what: str
) -> int:
    try:
        return int(fields[index])
    except ValueError:
        column = _column_of(raw, fields, index)
        raise ParseError(lineno, column, f"expected {what}, got {fields[index]!r}") from None


# ---------------------------------------------------------------------------
# Graph edge-list format
# ---------------------------------------------------------------------------


def graph_to_text(g: Graph, comments: tuple[str, ...] = ()) -> str:
    lines = [f"c {text}" for text in comments]
    lines.append(f"p {g.n} {g.m}")
    for u, v in _edge_pairs(g.adjacency):
        lines.append(f"e {u} {v}")
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    n: int | None = None
    declared_m: int | None = None
    header_at = (1, 1)
    edges: list[tuple[int, int]] = []
    for lineno, raw, fields in _records(text):
        tag = fields[0]
        if tag == "p":
            if n is not None:
                raise _record_error(lineno, raw, "duplicate 'p' header")
            if len(fields) != 3:
                raise _record_error(
                    lineno, raw, f"'p' header needs 2 numbers, got {len(fields) - 1}"
                )
            n = _int_field(raw, fields, 1, lineno, "a vertex count")
            declared_m = _int_field(raw, fields, 2, lineno, "an edge count")
            header_at = (lineno, _column_of(raw, fields, 2))
            if n < 0:
                raise ParseError(
                    lineno, _column_of(raw, fields, 1), "vertex count is negative"
                )
        elif tag == "e":
            if n is None:
                raise _record_error(lineno, raw, "'e' line before the 'p' header")
            if len(fields) != 3:
                raise _record_error(
                    lineno, raw, f"'e' line needs 2 endpoints, got {len(fields) - 1}"
                )
            u = _int_field(raw, fields, 1, lineno, "a vertex index")
            v = _int_field(raw, fields, 2, lineno, "a vertex index")
            for idx, x in ((1, u), (2, v)):
                if not 0 <= x < n:
                    raise ParseError(
                        lineno,
                        _column_of(raw, fields, idx),
                        f"vertex {x} outside 0..{n - 1}",
                    )
            if u == v:
                raise ParseError(
                    lineno, _column_of(raw, fields, 1), f"self-loop at vertex {u}"
                )
            edges.append((u, v))
        else:
            raise _record_error(lineno, raw, f"unknown record type {tag!r}")
    if n is None:
        raise ParseError(1, 1, "missing 'p <n> <m>' header")
    if declared_m != len(edges):
        raise ParseError(
            *header_at, f"header declares {declared_m} edges but {len(edges)} follow"
        )
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Coloring format
# ---------------------------------------------------------------------------


def coloring_to_text(c: Coloring) -> str:
    lines = [f"k {c.k}"]
    for v, color in enumerate(c.colors):
        lines.append(f"v {v} {color}")
    return "\n".join(lines) + "\n"


def coloring_from_text(text: str) -> Coloring:
    k: int | None = None
    assignment: dict[int, int] = {}
    for lineno, raw, fields in _records(text):
        tag = fields[0]
        if tag == "k":
            if k is not None:
                raise _record_error(lineno, raw, "duplicate 'k' header")
            if len(fields) != 2:
                raise _record_error(lineno, raw, "'k' header needs exactly 1 number")
            k = _int_field(raw, fields, 1, lineno, "a palette size")
            if k < 1:
                raise ParseError(
                    lineno, _column_of(raw, fields, 1), f"palette size {k} < 1"
                )
        elif tag == "v":
            if k is None:
                raise _record_error(lineno, raw, "'v' line before the 'k' header")
            if len(fields) != 3:
                raise _record_error(lineno, raw, "'v' line needs a vertex and a color")
            vertex = _int_field(raw, fields, 1, lineno, "a vertex index")
            color = _int_field(raw, fields, 2, lineno, "a color")
            if vertex < 0:
                raise ParseError(
                    lineno, _column_of(raw, fields, 1), f"vertex {vertex} is negative"
                )
            if vertex in assignment:
                raise ParseError(
                    lineno,
                    _column_of(raw, fields, 1),
                    f"vertex {vertex} colored twice",
                )
            if not 1 <= color <= k:
                raise ParseError(
                    lineno,
                    _column_of(raw, fields, 2),
                    f"color {color} outside 1..{k}",
                )
            assignment[vertex] = color
        else:
            raise _record_error(lineno, raw, f"unknown record type {tag!r}")
    if k is None:
        raise ParseError(1, 1, "missing 'k <k>' header")
    n = len(assignment)
    missing = [v for v in range(n) if v not in assignment]
    if missing:
        raise ParseError(
            1, 1, f"coloring is not total: vertex {missing[0]} has no color"
        )
    return Coloring(k, tuple(assignment[v] for v in range(n)))


# ---------------------------------------------------------------------------
# Role sidecar format
# ---------------------------------------------------------------------------


def roles_to_text(roles: Mapping[int, tuple[str, int | None]]) -> str:
    lines = []
    for vertex in sorted(roles):
        role, element = roles[vertex]
        if element is None:
            lines.append(f"r {vertex} {role}")
        else:
            lines.append(f"r {vertex} {role} {element}")
    return "\n".join(lines) + "\n"


def roles_from_text(text: str) -> dict[int, tuple[str, int | None]]:
    roles: dict[int, tuple[str, int | None]] = {}
    for lineno, raw, fields in _records(text):
        if fields[0] != "r":
            raise _record_error(lineno, raw, f"unknown record type {fields[0]!r}")
        if len(fields) not in (3, 4):
            raise _record_error(
                lineno, raw, "'r' line needs a vertex, a role, and an optional element"
            )
        vertex = _int_field(raw, fields, 1, lineno, "a vertex index")
        role = fields[2]
        element = (
            _int_field(raw, fields, 3, lineno, "an element value")
            if len(fields) == 4
            else None
        )
        if vertex in roles:
            raise ParseError(
                lineno, _column_of(raw, fields, 1), f"vertex {vertex} labeled twice"
            )
        roles[vertex] = (role, element)
    return roles


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_DOT_FILLS = (
    "#a6cee3", "#1f78b4", "#b2df8a", "#33a02c", "#fb9a99", "#e31a1c",
    "#fdbf6f", "#ff7f00", "#cab2d6", "#6a3d9a", "#ffff99", "#b15928",
)

_DOT_SHAPES = {
    "base": "box",
    "support": "ellipse",
    "index": "diamond",
    "distributive": "hexagon",
    "hub-A": "triangle",
    "hub-B": "invtriangle",
    "numeric": "trapezium",
}


def to_dot(
    g: Graph,
    c: Coloring | None = None,
    roles: Mapping[int, tuple[str, int | None]] | None = None,
) -> str:
    """Render the graph for graphviz.

    With a coloring and k <= 12, color classes become fills from a fixed
    palette; larger palettes fall back to numeric labels so the output stays
    legible.  Role labels, when given, select node shapes.
    """
    if c is not None:
        _require_fit(g, c)
    lines = ["graph nbc {"]
    use_fills = c is not None and c.k <= len(_DOT_FILLS)
    if use_fills:
        lines.append("  node [style=filled];")
    for v in range(g.n):
        attrs = []
        if c is not None:
            color = c.colors[v]
            if use_fills:
                attrs.append(f'fillcolor="{_DOT_FILLS[color - 1]}"')
                attrs.append(f'label="{v}"')
            else:
                attrs.append(f'label="{v}:{color}"')
        if roles is not None and v in roles:
            shape = _DOT_SHAPES.get(roles[v][0], "ellipse")
            attrs.append(f"shape={shape}")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {v}{suffix};")
    for u, v in _edge_pairs(g.adjacency):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON report serialization
# ---------------------------------------------------------------------------


def _plain(value: object) -> object:
    """``value`` with each record made a dict of its fields and each tuple a list."""
    if isinstance(value, _Record):
        return {name: _plain(getattr(value, name)) for name in value._fields}
    if isinstance(value, (tuple, list)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def report_to_json(report: object) -> str:
    """Serialize any of the package's report records to stable JSON."""
    import json  # only --format json needs it; text commands start without it

    return json.dumps(_plain(report), indent=2, sort_keys=True)
