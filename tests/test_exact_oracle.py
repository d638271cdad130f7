"""An exact runner for a query's program, and float VE against it.

Core claims:
    - the program a query compiles to (``inference._program``), run by the
      unchanged ``inference._run`` on object arrays of ``fractions.Fraction``,
      one per float64 entry of the tables it keeps, gives the exact
      posterior of those tables: no step rounds
    - float VE is within 1e-12 of that exact answer on every variable of
      the 200 random networks of test_acceptance under ``none``,
      ``divorce`` (where it accepts the network) and ``factorize``, and on
      one 40-node, 8-task CAT query under each method, every answer
      observed
    - on a binary root with 1072 children observed at state 0 (rows
      [0.5, 0.5] and [0.4999, 0.5001]), where the float64 product of the
      likelihoods leaves the normal range, the exact program's P(x0) is
      the closed form built in Fraction from the same float rows

The tests skip where ``np.einsum`` rejects object arrays, which a
one-line probe decides.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from factorbn import (
    Cpt,
    Evidence,
    Factor,
    Network,
    ValidationError,
    Variable,
    variable_elimination,
)
from factorbn import inference
from factorbn.benchcat import (
    StudentModelSpec,
    canonical_tasks,
    connect_tasks,
    generate_student_model,
)
from test_acceptance import consistent_evidence, random_network


def einsum_takes_objects() -> bool:
    try:
        np.einsum(np.array([Fraction(1)], dtype=object), [0], [])
    except (TypeError, ValueError):
        return False
    return True


pytestmark = pytest.mark.skipif(
    not einsum_takes_objects(), reason="np.einsum rejects object arrays on this numpy"
)


def exact(values: np.ndarray) -> np.ndarray:
    """An object array of the exact rational value of each float64 entry."""
    return np.array([Fraction(x) for x in values.ravel().tolist()], dtype=object).reshape(values.shape)


def exact_posterior(net, evidence, query) -> np.ndarray:
    """The query's posterior as an object array of Fractions: its program,
    run by ``inference._run`` on the exact values of the tables it keeps,
    then normalized."""
    kept, _, program, _ = inference._program(net, evidence, query)
    values = inference._run(program, [exact(t[3]) for t in kept])
    return values / values.sum()


def distance(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want.astype(np.float64)).max())


def test_float_ve_matches_the_exact_program_on_the_acceptance_networks():
    worst, queries, rejected = 0.0, 0, 0
    for seed in range(200):
        rng = random.Random(seed)
        net = random_network(rng)
        ev = consistent_evidence(net, rng)
        for method in inference.METHODS:
            try:
                t = inference.transform_network(net, method)
            except ValidationError:  # divorce splits no other function of three parents or more
                assert method == "divorce"
                rejected += 1
                continue
            for v in net.variables:
                want = exact_posterior(t, ev, [v.id])
                worst = max(worst, distance(variable_elimination(t, ev, [v.id]).values, want))
                queries += 1
    assert worst < 1e-12
    assert (queries, rejected) == (2934, 42)


@pytest.mark.parametrize("method", inference.METHODS)
def test_float_ve_matches_the_exact_program_on_a_cat_query(method):
    spec = StudentModelSpec(seed=1, node_count=40)
    net = connect_tasks(generate_student_model(spec), canonical_tasks(spec, 8, 1))
    net = inference.transform_network(net, method)
    ids = {v.name: v.id for v in net.variables}
    ev = Evidence({ids[f"task{i}_answer"]: (0, 1) if i % 3 else (1, 0) for i in range(1, 9)})
    query = [ids["skill_03"]]
    assert distance(variable_elimination(net, ev, query).values, exact_posterior(net, ev, query)) < 1e-12


def test_the_exact_program_answers_a_star_past_float64s_range():
    n = 1072
    prior, rows = [0.5, 0.5], [[0.5, 0.5], [0.4999, 0.5001]]
    variables = tuple(Variable(i, f"x{i}", ("s0", "s1")) for i in range(n + 1))
    cpts = (Cpt(0, (), Factor((0,), (2,), np.array(prior))),)
    cpts += tuple(Cpt(i, (0,), Factor((0, i), (2, 2), np.array(rows))) for i in range(1, n + 1))
    got = exact_posterior(Network(variables, cpts), Evidence(dict.fromkeys(range(1, n + 1), (1, 0))), [0])
    joint = [Fraction(p) * Fraction(row[0]) ** n for p, row in zip(prior, rows)]
    assert got.tolist() == [x / sum(joint) for x in joint]
    assert float(got[0]) == 0.5534009181345985
