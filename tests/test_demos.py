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
