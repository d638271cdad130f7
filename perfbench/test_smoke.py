"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench

Each workload runs its smallest operation set (``--seconds 0.1``: one
instance, three passes; mbh-suite's fixed case list takes about 20 s)
in both modes; every metric BENCHMARK.json names must come out with its
unit, and no operation may fail.  A copy of the benchmark without the package
sources must refuse to produce a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Every workload, with the names the report gives its own figures.
OWN_NAMES = {
    "cat-session": ["none.query_ms_p50", "none.query_ms_p90", "factorize.query_ms_p50",
                    "factorize.query_ms_p90", "queries_per_s"],
    "mbh-suite": ["mbh.solve_s", "mbh.proved", "mbh.hidden_states"],
}


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, cwd=root,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(OWN_NAMES))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert "error_rate 0.0 failed/attempted" in lines
    printed = {line.split(" ")[0] for line in lines[:-1]}
    assert set(OWN_NAMES[workload]) <= printed


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
