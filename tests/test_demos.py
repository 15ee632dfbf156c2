"""Smoke tests of the public surface: every demo script runs to completion
against ``src``, and ``mwis.__all__`` lists what the package binds."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mwis

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_all_names_every_public_binding():
    # A name removed from the package but left in __all__ breaks
    # ``from mwis import *``; a new one left out of it is not exported.
    public = {name for name, value in vars(mwis).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(mwis.__all__) == sorted(public)
