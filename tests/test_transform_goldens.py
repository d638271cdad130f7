"""Rewrite goldens: every transform must keep writing the same network.

Core claim:
    - on two seeded student models with tasks (40 nodes/8 tasks, seed 1
      and 120 nodes/20 tasks, seed 3) and on a hand-built network mixing
      an AND of four literals, an ADD of three ternary parents, a MAX
      3x3x3 and a two-parent node, ``write_network(transform_network(net,
      m))`` is byte-identical to the recorded golden for ``none``,
      ``factorize`` and ``divorce``: same variables, names, ids, node
      order and potential tables

The hand-built network also holds variables named like the ones the
rewrites mint (``and4_pd0``, ``B_sum``), so the goldens pin how a name
that is taken is replaced.  Regenerate only for a deliberate change of
the rewrites:

    PYTHONPATH=src python tests/test_transform_goldens.py
"""

import json
import sys
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest

from factorbn import Cpt, DeterministicFunction, Factor, Network, Variable, write_network
from factorbn.benchcat import (
    StudentModelSpec,
    canonical_tasks,
    connect_tasks,
    generate_student_model,
)
from factorbn.cli import TRANSFORMS
from factorbn.inference import transform_network

GOLDENS = Path(__file__).with_name("transform_goldens.json")

MODELS = [(40, 8, 1), (120, 20, 3)]  # (student nodes, tasks, seed)
CASES = [f"{n}/{t}/seed{s}/{m}" for n, t, s in MODELS for m in TRANSFORMS] + [
    f"mixed/{m}" for m in TRANSFORMS
]


def _root(i, card):
    return Cpt(i, (), Factor((i,), (card,), np.full(card, 1.0 / card)))


def mixed_network() -> Network:
    """AND of four literals, a two-parent AND, ADD and MAX of three
    ternary parents, a CPT below the sum, and two roots whose names
    collide with the names the rewrites would pick first."""
    binary, ternary = ("no", "yes"), ("0", "1", "2")
    variables = (
        *(Variable(i, f"x{i}", binary) for i in range(4)),
        Variable(4, "and4", binary),
        Variable(5, "both", binary),
        *(Variable(6 + i, name, ternary) for i, name in enumerate("abc")),
        Variable(9, "sum", tuple("0123456")),
        Variable(10, "max", ternary),
        Variable(11, "obs", binary),
        Variable(12, "and4_pd0", binary),
        Variable(13, "B_sum", binary),
    )
    and4 = DeterministicFunction(
        (0, 1, 2, 3), 4, (2,) * 4, 2,
        tuple(int(cfg == (1, 0, 1, 1)) for cfg in iproduct(range(2), repeat=4)),
    )
    both = DeterministicFunction((0, 1), 5, (2, 2), 2, (0, 0, 0, 1))
    add3 = DeterministicFunction.from_callable((6, 7, 8), 9, (3, 3, 3), 7, lambda *x: sum(x))
    max3 = DeterministicFunction.from_callable((6, 7, 8), 10, (3, 3, 3), 3, max)
    obs = Cpt(11, (9,), Factor((9, 11), (7, 2), np.array([[0.9 - k / 10, 0.1 + k / 10]
                                                         for k in range(7)])))
    cpts = tuple(_root(i, 2) for i in range(4)) + tuple(_root(i, 3) for i in (6, 7, 8))
    cpts += (obs, _root(12, 2), _root(13, 2))
    return Network(variables, cpts, (and4, both, add3, max3))


def network(case: str) -> Network:
    if case.startswith("mixed/"):
        return mixed_network()
    n, t, seed, _ = case.split("/")
    seed = int(seed.removeprefix("seed"))
    spec = StudentModelSpec(seed=seed, node_count=int(n))
    return connect_tasks(generate_student_model(spec), canonical_tasks(spec, int(t), seed))


def record(case: str) -> str:
    return write_network(transform_network(network(case), case.rsplit("/", 1)[1]))


@pytest.mark.parametrize("case", CASES)
def test_transform_output_matches_golden(case):
    assert record(case) == json.loads(GOLDENS.read_text())[case]


if __name__ == "__main__":
    goldens = {case: record(case) for case in CASES}
    GOLDENS.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(goldens)} goldens to {GOLDENS}\n")
