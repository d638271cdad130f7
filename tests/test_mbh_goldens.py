"""Solver goldens: the minimal-base search must make the same decisions.

Core claim:
    - for seven worked functions under three labelings each, solve_mbh
      returns the same base with the same witness expressions (the
      exact bytes of write_base) and expands, prunes and checks the same
      number of subsets as the recorded goldens in mbh_goldens.json

The goldens were last recorded when every base size came to run one
depth-first search, which changed the node, prune and check counters
and no base; any change to them is a change of search behaviour.
Regenerate only for a deliberate change of the search:

    PYTHONPATH=src python tests/test_mbh_goldens.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

from factorbn import DeterministicFunction, solve_mbh, write_base

GOLDENS = Path(__file__).with_name("mbh_goldens.json")

# name: (parent cardinalities, child cardinality, function)
FUNCTIONS = {
    "add2x3": ((2, 3), 4, lambda a, b: a + b),
    "add3x3": ((3, 3), 5, lambda a, b: a + b),
    "diff3x3": ((3, 3), 5, lambda a, b: a - b + 2),
    "maj3": ((2, 2, 2), 2, lambda *x: int(sum(x) >= 2)),
    "max3x3x3": ((3, 3, 3), 3, lambda *x: max(x)),
    "and4": ((2, 2, 2, 2), 2, lambda *x: int(all(x))),
    "add2x2x2": ((2, 2, 2), 4, lambda *x: sum(x)),
}
LABELINGS = 3  # the identity, then two seeded relabelings


def relabeled(name: str, k: int) -> DeterministicFunction:
    """Labeling k of a function: its parents reordered (new position j
    holds old parent order[j]) and every parent's and the child's states
    permuted, drawn from a generator seeded by the name."""
    cards, child_card, f = FUNCTIONS[name]
    n = len(cards)
    order, perms, child = list(range(n)), [list(range(c)) for c in cards], list(
        range(child_card)
    )
    rng = random.Random(f"mbh-golden:{name}")
    for _ in range(k):
        order = rng.sample(range(n), n)
        perms = [rng.sample(range(c), c) for c in cards]
        child = rng.sample(range(child_card), child_card)
    inverse = [{new: old for old, new in enumerate(p)} for p in perms]

    def g(*xs):
        old = [0] * n
        for j, x in enumerate(xs):
            old[order[j]] = inverse[order[j]][x]
        return child[f(*old)]

    new_cards = tuple(cards[i] for i in order)
    return DeterministicFunction.from_callable(range(n), n, new_cards, child_card, g)


def record(d: DeterministicFunction) -> dict:
    sol = solve_mbh(d)
    s = sol.stats
    return {
        "base": write_base(sol.base, extra={"proved_minimal": sol.proved_minimal}),
        "nodes": s.nodes_expanded,
        "pruned": s.pruned,
        "checked": s.subsets_checked,
    }


CASES = [f"{name}/{k}" for name in FUNCTIONS for k in range(LABELINGS)]


@pytest.mark.parametrize("case", CASES)
def test_solver_matches_golden(case):
    name, k = case.split("/")
    assert record(relabeled(name, int(k))) == json.loads(GOLDENS.read_text())[case]


if __name__ == "__main__":
    goldens = {}
    for case in CASES:
        name, k = case.split("/")
        goldens[case] = record(relabeled(name, int(k)))
    GOLDENS.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(goldens)} goldens to {GOLDENS}\n")
