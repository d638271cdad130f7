"""Triangulation goldens: the `cliques` command must keep its output.

Core claim:
    - on seeded student models with tasks (60 nodes/12 tasks and 120
      nodes/20 tasks) under every transform, `factorbn cliques` prints
      the same cliques, sizes, totals and elimination order, byte for
      byte, as the recorded goldens in cliques_goldens.json

The goldens were recorded from the set-based min-fill, before it ran on
integer bitsets; any change to them is a change of elimination order.
Regenerate only for a deliberate change of the heuristic:

    PYTHONPATH=src python tests/test_cliques_goldens.py
"""

import json
import sys
from pathlib import Path

import pytest

from factorbn import write_network
from factorbn.benchcat import (
    StudentModelSpec,
    canonical_tasks,
    connect_tasks,
    generate_student_model,
)
from factorbn.cli import run_cli
from factorbn.inference import METHODS

GOLDENS = Path(__file__).with_name("cliques_goldens.json")

MODELS = [(60, 12, 3), (120, 20, 5)]  # (student nodes, tasks, seed)
CASES = [f"{n}/{t}/seed{s}/{m}" for n, t, s in MODELS for m in METHODS]


def record(case: str, workdir: Path) -> str:
    """The `cliques` output for one case, as written to ``--out``."""
    n, t, seed, transform = case.split("/")
    seed = int(seed.removeprefix("seed"))
    spec = StudentModelSpec(seed=seed, node_count=int(n))
    net = connect_tasks(generate_student_model(spec), canonical_tasks(spec, int(t), seed))
    net_path, out_path = workdir / "net.json", workdir / "cliques.txt"
    net_path.write_text(write_network(net))
    argv = ["cliques", "--net", str(net_path), "--transform", transform]
    assert run_cli(argv + ["--out", str(out_path)]) == 0
    return out_path.read_text()


@pytest.mark.parametrize("case", CASES)
def test_cliques_output_matches_golden(case, tmp_path):
    assert record(case, tmp_path) == json.loads(GOLDENS.read_text())[case]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        goldens = {case: record(case, Path(workdir)) for case in CASES}
    GOLDENS.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(goldens)} goldens to {GOLDENS}\n")
