"""Every demo script runs to completion against the source tree and prints
exactly the recorded output in ``demo_outputs/``, byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
OUTPUTS = Path(__file__).resolve().parent / "demo_outputs"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=300)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (OUTPUTS / f"{demo.stem}.txt").read_bytes()
