"""Program goldens: a query must keep compiling to the same einsums.

Core claim:
    - on seeded student models (two of 40 nodes and 8 tasks, whose
      layouts keep their plan, and one of 60 nodes and 12 tasks, whose
      queries each plan their own elimination), under ``none`` and
      ``factorize``, with the answers observed one by one in a seeded
      order, every query compiles to the program recorded in
      programs_goldens.json: the same steps, each with the same operand
      slots, operand labels, output labels and result rank mask

After each answer the model is asked for a seeded skill, and for that
skill with the answer just observed, so an observed query variable keeps
its axis.  Each program is stored as the SHA-256 of its JSON text, read
from ``inference._program``, where every query becomes the program that
``variable_elimination`` runs.  A program fixes every einsum and its
operand order, so the posteriors stay bitwise equal while it does.  Regenerate only for a deliberate change of
the elimination:

    PYTHONPATH=src python tests/test_program_goldens.py
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from factorbn import inference
from factorbn.benchcat import (
    StudentModelSpec,
    canonical_tasks,
    connect_tasks,
    generate_student_model,
)
from factorbn.core import Evidence

GOLDENS = Path(__file__).with_name("programs_goldens.json")

MODELS = [(40, 8, 1), (40, 8, 2), (60, 12, 3)]  # (student nodes, tasks, seed)
CASES = [f"{n}/{t}/seed{s}/{m}" for n, t, s in MODELS for m in ("none", "factorize")]


def digest(program) -> str:
    """SHA-256 of a program's steps: operand slots, operand labels, output
    labels and result mask."""
    steps = [[list(args[0:-1:2]), [list(map(int, a)) for a in args[1:-1:2]],
              list(map(int, args[-1])), int(mask)] for args, mask in program]
    return hashlib.sha256(json.dumps(steps).encode()).hexdigest()


def record(case: str) -> list[str]:
    """The digest of every query's program for one case, in the order asked."""
    n, t, seed, method = case.split("/")
    seed = int(seed.removeprefix("seed"))
    spec = StudentModelSpec(seed=seed, node_count=int(n))
    net = connect_tasks(generate_student_model(spec), canonical_tasks(spec, int(t), seed))
    net = inference.transform_network(net, method)
    assert (net.layout.plan is None) == (int(n) == 60)  # both layouts are covered
    rng = random.Random(seed)
    answers = [v.id for v in net.variables if v.name.endswith("_answer")]
    rng.shuffle(answers)
    digests = []
    found: dict[int, tuple[int, int]] = {}
    for a in answers:
        found[a] = (0, 1) if rng.random() < 0.5 else (1, 0)
        skill = rng.choice(spec.skill_ids)
        for query in ([skill], [skill, a]):
            _, _, program, _ = inference._program(net, Evidence(dict(found)), query)
            digests.append(digest(program))
    assert len(digests) == 2 * len(answers)
    return digests


@pytest.mark.parametrize("case", CASES)
def test_programs_match_golden(case):
    assert record(case) == json.loads(GOLDENS.read_text())[case]


if __name__ == "__main__":
    goldens = {case: record(case) for case in CASES}
    GOLDENS.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(goldens)} goldens to {GOLDENS}\n")
