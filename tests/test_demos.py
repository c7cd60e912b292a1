"""Every demo script runs to completion against the source tree and prints
exactly the recorded output in ``demo_outputs/``, byte for byte; README's
python blocks run as written; the chain-word search in demo 03 still finds
the committed catalog words first."""

import os
import re
import runpy
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


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_search_chain_words_reproduces_committed_entries():
    search_chain_words = runpy.run_path(str(ROOT / "demos" / "03_convex_chains.py"))["search_chain_words"]
    hits_c = search_chain_words(4, death_order=(2, 3, 1), lengths=(4,))
    assert hits_c[0] == ((-2, -1, -3, -1), (2, 3, 4))
    hits_b = search_chain_words(4, death_order=(2, 1, 3), lengths=(4,))
    assert hits_b[0] == ((3, 4, -1, -3), (2, 3, 4))
