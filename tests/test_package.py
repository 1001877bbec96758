"""The package surface: public names, and submodules that load on first use."""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nbcolor

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(nbcolor.__path__))


def run_fresh(code: str, *args: str, parse=json.loads, flags=()):
    """Run ``code`` in a new interpreter on ``src/``, started with ``flags``;
    its last line is one value that ``parse`` reads (JSON by default)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return parse(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", nbcolor.__all__)
def test_public_name_is_its_home_modules_object(name):
    obj = getattr(nbcolor, name)
    home = sys.modules[obj.__module__]
    assert home.__name__.startswith("nbcolor.")
    assert getattr(home, name) is obj


def test_dir_lists_every_public_name():
    listed = dir(nbcolor)
    assert set(nbcolor.__all__) <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        nbcolor.no_such_name  # noqa: B018
    assert not hasattr(nbcolor, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from nbcolor import *", namespace)
    assert set(nbcolor.__all__) <= set(namespace)
    assert namespace["solve"] is nbcolor.solver.solve


def test_public_names_are_read_from_their_home_on_every_read(monkeypatch):
    """The package binds no public name, so a function patched in its home
    module is what ``nbcolor`` returns while the patch lasts, and no longer."""
    original = nbcolor.solve
    assert "solve" not in vars(nbcolor)

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(nbcolor.solver, "solve", patched)
    assert nbcolor.solve is patched
    monkeypatch.undo()
    assert nbcolor.solve is original
    assert "solve" not in vars(nbcolor)


def test_every_submodule_is_registered_after_importing_the_cli():
    """Tools that patch functions in place (the benchmark's tracer) look each
    ``nbcolor.<module>`` up in ``sys.modules`` right after ``import nbcolor.cli``."""
    present = run_fresh(
        "import json, sys; import nbcolor.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('nbcolor.'))))"
    )
    assert present == [f"nbcolor.{m}" for m in SUBMODULES]


@pytest.fixture
def c4_files(tmp_path):
    g, c = nbcolor.cycle_nbc(4)
    graph, coloring = tmp_path / "c4.graph", tmp_path / "c4.coloring"
    graph.write_text(nbcolor.graph_to_text(g))
    coloring.write_text(nbcolor.coloring_to_text(c))
    return str(graph), str(coloring)


def test_verify_runs_only_the_modules_it_needs(c4_files):
    graph, coloring = c4_files
    ran = run_fresh(
        "import json, sys, types\n"
        "import nbcolor.cli\n"
        "code = nbcolor.cli.run(['verify', sys.argv[1], sys.argv[2]])\n"
        "print(json.dumps({'code': code, 'ran': sorted(\n"
        "    m for m, mod in sys.modules.items()\n"
        "    if m.startswith('nbcolor.') and type(mod) is types.ModuleType)}))",
        graph, coloring,
    )
    assert ran["code"] == 0
    assert {"nbcolor.balance", "nbcolor.graph", "nbcolor.io"} <= set(ran["ran"])
    for idle in ("cnf", "families", "products", "unions", "reduction", "solver"):
        assert f"nbcolor.{idle}" not in ran["ran"]


def test_text_commands_load_neither_dataclasses_nor_json(c4_files, tmp_path):
    """Every command pays for each module it imports at start-up.  Text output
    needs neither ``dataclasses`` (which imports ``inspect``) nor ``json``, which
    only ``--format json`` loads.  The snapshot is printed with ``repr``, since
    ``json`` must not be imported before it is taken.  Nor does the package
    import ``typing``, nor the CLI ``pathlib`` outside ``reduce`` and
    ``decode``: a child started without ``site`` (``-S``), which otherwise
    may load both, runs five commands that between them run every module that
    once imported ``typing``, and leaves both unloaded."""
    graph, coloring = c4_files
    ran = run_fresh(
        "import sys\n"
        "from nbcolor.cli import run\n"
        "g, c, out = sys.argv[1:]\n"
        "codes = [run(['verify', g, c]), run(['solve', g, '-k', '2']),\n"
        "         run(['construct', 'cycle', '8', '-k', '2', '-o', out]),\n"
        "         run(['reduce', '--ess', '1,1', '-k', '2', '-o', out + '.ess'])]\n"
        "loaded = sorted(sys.modules)\n"
        "codes.append(run(['verify', g, c, '--format', 'json']))\n"
        "print(repr((codes, loaded, 'json' in sys.modules)))",
        graph, coloring, str(tmp_path / "c8"), parse=ast.literal_eval,
    )
    codes, loaded, json_after = ran
    assert codes == [0, 0, 0, 0, 0]
    for heavy in ("dataclasses", "inspect", "json"):
        assert heavy not in loaded
    assert json_after
    bare = run_fresh(
        "import sys\n"
        "from nbcolor.cli import run\n"
        "g, c, out = sys.argv[1:]\n"
        "codes = [run(['verify', g, c]), run(['solve', g, '-k', '2']),\n"
        "         run(['analyze', g, '-k', '2']), run(['export-cnf', g, '-k', '2', '-o', out]),\n"
        "         run(['union', '--cycle', '8', '--set', '0,4', '--copies', '3', '-o', out])]\n"
        "print(repr((codes, 'typing' in sys.modules, 'pathlib' in sys.modules)))",
        graph, coloring, str(tmp_path / "c4.cnf"), parse=ast.literal_eval, flags=["-S"],
    )
    assert bare == ([0, 0, 0, 0, 0], False, False)


DECLARING = [m for m in nbcolor._EXPORTS if hasattr(getattr(nbcolor, m), "__all__")]


def test_export_check_covers_every_module_with_all():
    assert DECLARING == list(nbcolor._EXPORTS) and len(DECLARING) == 9


@pytest.mark.parametrize("name", DECLARING)
def test_export_table_matches_the_modules_all(name):
    """A star-import of a module binds its row of ``nbcolor._EXPORTS``."""
    assert set(getattr(nbcolor, name).__all__) == set(nbcolor._EXPORTS[name])


def test_no_module_with_an_export_row_spells_out_its_all():
    """Each module with a row in ``nbcolor._EXPORTS`` reads its ``__all__``
    from that row, so no public name is listed twice."""
    found = []
    for name in nbcolor._EXPORTS:
        path = ROOT / "src" / "nbcolor" / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            if any(getattr(t, "id", None) == "__all__" for t in targets) and any(
                isinstance(n, (ast.List, ast.Tuple, ast.Set)) for n in ast.walk(node.value)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
