"""Every demo script, and the README's quick start, runs to completion in a
fresh interpreter with warnings as errors, as the tests themselves run
(pyproject's filterwarnings)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr


def test_readme_quick_start_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    # the variance, the density's mass and point-mass flag, the mean loss
    out = done.stdout.splitlines()
    assert len(out) == 3 and out[1].endswith(" False")
