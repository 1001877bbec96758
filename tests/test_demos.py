"""Every Python demo runs to completion against the package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


# Every demo runs on a plain interpreter and once more with asserts stripped.
RUNS = [pytest.param(demo, (), id=demo.name) for demo in DEMOS] + [
    pytest.param(demo, ("-O",), id=f"{demo.name}-O") for demo in DEMOS
]


@pytest.mark.parametrize("demo,flags", RUNS)
def test_demo_exits_zero(demo, flags):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *flags, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_cli_tour_runs(tmp_path):
    """``05_cli_tour.sh`` runs to completion, with ``nbcolor`` on ``PATH``
    running the package in ``src/``; its refusal step exits 1 on C6."""
    shim = tmp_path / "nbcolor"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m nbcolor.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(
        os.environ, PYTHONPATH=str(ROOT / "src"),
        PATH=f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}",
    )
    done = subprocess.run(
        ["sh", str(ROOT / "demos" / "05_cli_tour.sh")], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "equal subset sums: 6" in lines
    refused = lines.index("== a refusal exits nonzero and names its rule ==")
    assert lines[refused + 1].startswith("REFUSED ") and lines[refused + 3] == "exit 1"
