"""The input layer pinned by one digest: the three line formats under
mutation of every record, ``construct`` over every family and parameter
shape, each command's help, and ``export-cnf -o`` summaries.

A refactor of the parsers or the CLI must keep each accepted text's
re-emitted form, each refusal's (line, column, reason), and each command's
(exit code, stdout, stderr) as they are, and so this digest.
"""

import hashlib
import random

from nbcolor import (
    ParseError,
    coloring_from_text,
    coloring_to_text,
    complete_graph,
    cycle_graph,
    graph_from_text,
    graph_to_text,
    hypercube_nbc,
    roles_from_text,
    roles_to_text,
)
from nbcolor.cli import run


def seeded_texts(rng):
    """(parse, emit, text, header tag, tag swaps, n) for one seeded file of
    each format; roles have no header, so their tag swaps to a foreign one."""
    n = 6
    pairs = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(6)})
    graph = "c seeded\n" + f"p {n} {len(pairs)}\n" + "".join(f"e {u} {v}\n" for u, v in pairs)
    coloring = "k 3\n" + "".join(f"v {v} {rng.randint(1, 3)}\n" for v in range(n))
    roles = "".join(
        f"r {v} {rng.choice(['base', 'index', 'hub-A'])}"
        + (f" {rng.randint(1, 9)}" if rng.random() < 0.5 else "") + "\n"
        for v in range(n)
    )
    yield graph_from_text, graph_to_text, graph, "p", {"p": "e", "e": "p"}, n
    yield coloring_from_text, coloring_to_text, coloring, "k", {"k": "v", "v": "k"}, n
    yield roles_from_text, roles_to_text, roles, None, {"r": "v"}, n


def mutations(text, header, swap, n):
    """The text itself; each record deleted, duplicated, a field dropped or
    added, each number made ``x``, ``-1`` or ``n``, indented by spaces or a
    tab, its tag swapped or made unknown, a comment or blank line put before
    it; and the header moved after the first body record."""
    lines = text.splitlines()
    yield text
    records = [i for i, line in enumerate(lines) if line.split()[0] != "c"]
    for i in records:
        fields = lines[i].split()

        def put(*new):
            return "\n".join(lines[:i] + list(new) + lines[i + 1:]) + "\n"

        yield put()
        yield put(lines[i], lines[i])
        yield put(" ".join(fields[:-1]))
        yield put(" ".join(fields + ["0"]))
        for j, field in enumerate(fields[1:], 1):
            if field.lstrip("-").isdigit():
                for new in ("x", "-1", str(n)):
                    yield put(" ".join(fields[:j] + [new] + fields[j + 1:]))
        yield put("   " + lines[i])
        yield put("\t" + lines[i])
        for tag in (swap[fields[0]], "q"):
            yield put(" ".join([tag] + fields[1:]))
        yield put("c inserted", lines[i])
        yield put("", lines[i])
    if header is not None:
        h = next(i for i in records if lines[i].split()[0] == header)
        moved = lines[:h] + lines[h + 1:]
        after = next(j for j, line in enumerate(moved) if line.split()[0] not in ("c", header))
        yield "\n".join(moved[:after + 1] + [lines[h]] + moved[after + 1:]) + "\n"


def parse_record(parse, emit, text):
    try:
        return ("ok", emit(parse(text)))
    except ParseError as err:
        return ("error", err.line, err.column, err.reason)


def command_record(capsys, argv):
    code = run(argv)
    out, err = capsys.readouterr()
    return (argv, code, out, err)


FAMILIES = ("cycle", "circulant", "hamming", "hypercube", "multipartite", "complete", "wheel")
COMMANDS = (
    "construct", "verify", "analyze", "solve", "product", "join", "embed",
    "vertex-add", "union", "reduce", "decode", "export-dot", "export-cnf",
)
INPUT_LAYER = "ef942e9a9d4f5b53187ac9211e256f36bda443855af6a4fc4c2ae3cbc543b4ea"


def test_input_layer_digest(tmp_path, capsys, monkeypatch):
    """One sha256 over every parse record and every command record."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    records = []
    rng = random.Random(3801)
    for _ in range(3):
        for parse, emit, text, header, swap, n in seeded_texts(rng):
            for mutated in mutations(text, header, swap, n):
                records.append((mutated, parse_record(parse, emit, mutated)))
    for family in FAMILIES:
        for first in ("6", "2,2,2"):
            for count in range(4):
                params = (first, "1,2", "3")[:count]
                for k in ((), ("-k", "2"), ("-k", "3")):
                    records.append(command_record(capsys, ["construct", family, *params, *k]))
    records.append(command_record(capsys, ["--help"]))
    for command in COMMANDS:
        records.append(command_record(capsys, [command, "--help"]))
    out = tmp_path / "f.cnf"
    for name, g, k in (("c8", cycle_graph(8), "2"), ("k4", complete_graph(4), "2"),
                       ("q4", hypercube_nbc(4)[0], "2")):
        path = tmp_path / f"{name}.graph"
        path.write_text(graph_to_text(g))
        code, stdout = run(["export-cnf", str(path), "-k", k, "-o", str(out)]), capsys.readouterr()
        records.append((name, k, code, stdout.out.replace(str(out), "OUT"), stdout.err))
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode())
    assert len(records) == 1092
    assert digest.hexdigest() == INPUT_LAYER
