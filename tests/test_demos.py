"""Every demo, and README's quick-start block, runs to completion against the
package in this checkout.

Each runs in its own process with a temporary working directory, so files a
demo writes (demo 04's ``mcts_tree.dot``) stay out of the repository.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def quick_start() -> str:
    """README's quick-start block: the first Python block under its heading."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", [*DEMOS, README], ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    if demo == README:
        demo = tmp_path / "quick_start.py"
        demo.write_text(quick_start(), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
