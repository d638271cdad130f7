"""Smoke test of tools/ab_inprocess.py, the in-process A/B timer.

Core claim:
    - an A/A run of this checkout against itself exits 0 and prints
      each side and the per-pass ratio line, on both workloads, and
      writes nothing outside its own temporary directory
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_inprocess.py"


@pytest.mark.parametrize(
    "args",
    [["--workload", "mbh-suite", "--passes", "1"],
     ["--workload", "cat-session", "--sessions", "1", "--passes", "1"]],
    ids=["mbh-suite", "cat-session"],
)
def test_an_a_a_run_prints_its_ratio(args, tmp_path):
    cwd, tmp = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp))
    run = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT), *args],
                         cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].startswith(f"workload {args[1]} seed 1 ")
    assert lines[1].startswith("parent ") and lines[2].startswith("change ")
    assert lines[3].startswith("ratio change/parent per pass: median ")
    assert list(cwd.iterdir()) == [] and list(tmp.iterdir()) == []
