"""Every demo script runs to completion against the package's source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import casimir_impedance

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    src = str(Path(casimir_impedance.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(demo)], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
