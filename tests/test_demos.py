"""Smoke test: every demo script runs to completion in a fresh interpreter.

The demos call the library the way a reader would, so a signature change
that breaks one of them shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankmatch

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


def test_all_demos_are_collected():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06", "07"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(tmp_path, demo):
    src = str(Path(rankmatch.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
