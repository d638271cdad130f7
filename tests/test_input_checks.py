"""Every input check raises its own error class with its own message.

Core claims:
    - each library precondition on variables, factors, functions, CPTs,
      networks, rectangles, bases, expressions, factorized forms,
      closed-form bases, inference calls, the star family and the CAT
      benchmark's task draws and ordering counts raises exactly its
      class with exactly its message
    - an id or state that the int cast would change is one of those
      errors, at each entry point that casts; an integral float or a
      numpy int is taken as its int
    - the file readers' checks are pinned with their inputs in
      test_fileio
"""

import numpy as np
import pytest

from factorbn import (
    Base,
    Cpt,
    DeterministicFunction,
    Evidence,
    Expression,
    Factor,
    FactorizedForm,
    Hyperrectangle,
    Network,
    ParseError,
    ValidationError,
    Variable,
    evaluate_expression,
    known_base_conjunction,
    known_base_max,
    parse_expression,
    solve_mbh,
    variable_elimination,
    verify_factorization,
)
from factorbn.benchcat import (
    StudentModelSpec,
    TaskSpec,
    canonical_tasks,
    run_clique_benchmark,
    star_family,
)

BIT = ("no", "yes")
HALF = np.array([0.5, 0.5])
POINT = Hyperrectangle(((0,), (0,)))
AND2 = DeterministicFunction((0, 1), 2, (2, 2), 2, (0, 0, 0, 1))
NET = Network(
    (Variable(0, "a", BIT), Variable(1, "b", BIT)),
    (Cpt(0, (), Factor((0,), (2,), HALF)), Cpt(1, (), Factor((1,), (2,), HALF))),
)

# (id, call that raises, error class, its whole message)
CASES = [
    ("variable-name", lambda: Variable(0, "", BIT), ValidationError,
     "variable name must be non-empty"),
    ("factor-cards", lambda: Factor((0,), (2, 2), HALF), ValidationError,
     "cards must be parallel to scope"),
    ("factor-card-zero", lambda: Factor((0,), (0,), np.zeros(0)), ValidationError,
     "cardinalities must be positive, got (0,)"),
    ("function-parents", lambda: DeterministicFunction((0, 0), 1, (2, 2), 2, (0,) * 4),
     ValidationError, "duplicate parent ids"),
    ("function-cards", lambda: DeterministicFunction((0,), 1, (2, 2), 2, (0,) * 4),
     ValidationError, "parent_cards must be parallel to parents"),
    ("function-no-parent", lambda: DeterministicFunction((), 1, (), 2, (0,)),
     ValidationError, "a deterministic node needs at least one parent"),
    ("function-card-zero", lambda: DeterministicFunction((0,), 1, (0,), 2, ()),
     ValidationError, "cardinalities must be positive"),
    ("function-fraction", lambda: DeterministicFunction((0,), 1, (2,), 2, (0.7, 1.2)),
     ValidationError, "output table entries must be integers that fit in 64 bits"),
    ("function-strings", lambda: DeterministicFunction((0,), 1, (2,), 2, ("0", "1")),
     ValidationError, "output table entries must be integers that fit in 64 bits"),
    ("function-size", lambda: DeterministicFunction((0,), 1, (2,), 2, (0, 1, 1)),
     ValidationError, "output table has 3 entries, expected 2"),
    ("function-range", lambda: DeterministicFunction((0,), 1, (2,), 2, (0, 2)),
     ValidationError, "output state 2 outside child range"),
    ("cpt-own-parent", lambda: Cpt(0, (0,), Factor((0,), (2,), HALF)), ValidationError,
     "a CPT child cannot be its own parent"),
    ("cpt-parents", lambda: Cpt(0, (1, 1), Factor((0, 1), (2, 2), np.full((2, 2), 0.5))),
     ValidationError, "duplicate CPT parents"),
    ("cpt-scope", lambda: Cpt(0, (1,), Factor((0,), (2,), HALF)), ValidationError,
     "CPT factor scope (0,) must be the family (0, 1)"),
    ("cpt-dtype", lambda: Cpt(0, (), Factor((0,), (2,), np.array([True, False]))),
     ValidationError, "CPT table for variable 0 must hold real numbers"),
    ("network-ids", lambda: Network((Variable(1, "a", BIT),)), ValidationError,
     "variable ids must be 0..n-1 in order; position 0 has id 1"),
    ("network-names", lambda: Network((Variable(0, "a", BIT), Variable(1, "a", BIT))),
     ValidationError, "duplicate variable names"),
    ("rectangle-dims", lambda: Hyperrectangle(((0,),)).check_within((2, 2)), ValidationError,
     "rectangle has 1 dimensions, space has 2"),
    ("expression-index", lambda: evaluate_expression(Expression.rect(1), [POINT]),
     ValidationError, "rectangle index 1 out of range"),
    ("base-empty", lambda: Base((), {}), ValidationError, "a base needs at least one rectangle"),
    ("base-state", lambda: Base((POINT,), {-1: Expression.rect(0)}), ValidationError,
     "negative child state -1"),
    ("expression-paren", lambda: parse_expression("(- R1 R2 R3)"), ParseError,
     "missing ')' in '(- R1 R2 R3)'"),
    ("form-h", lambda: FactorizedForm((2,), 2, np.zeros((3, 1)), (np.zeros((2, 1)),)),
     ValidationError, "h has shape (3, 1), expected (2, k)"),
    ("form-g-count", lambda: FactorizedForm((2,), 2, np.zeros((2, 1)), ()), ValidationError,
     "need one g table per parent"),
    ("form-g-shape", lambda: FactorizedForm((2,), 2, np.zeros((2, 1)), (np.zeros((3, 1)),)),
     ValidationError, "g[0] table has shape (3, 1), expected (2, 1)"),
    ("form-g-binary",
     lambda: FactorizedForm((2, 2), 2, np.eye(2), (np.eye(2), [[2, 0], [0, 1]])),
     ValidationError, "g[1] entries must be 0/1"),
    ("verify-shape",
     lambda: verify_factorization(AND2, FactorizedForm((2,), 2, np.zeros((2, 1)),
                                                       (np.zeros((2, 1)),))),
     ValidationError, "factorized form does not match the function's shape"),
    ("conjunction-empty", lambda: known_base_conjunction([]), ValidationError,
     "a conjunction needs at least one literal"),
    ("max-empty", lambda: known_base_max([]), ValidationError, "MAX needs at least one parent"),
    ("evidence-unknown", lambda: variable_elimination(NET, Evidence({9: (1,)}), [0]),
     ValidationError, "evidence names unknown variable id 9"),
    ("evidence-binary", lambda: variable_elimination(NET, Evidence({0: (0, 2)}), [1]),
     ValidationError, "evidence vector for 'a' must be 0/1"),
    ("query-unknown", lambda: variable_elimination(NET, None, [9]), ValidationError,
     "query names unknown variable id 9"),
    ("query-fraction", lambda: variable_elimination(NET, None, [0.5]), ValidationError,
     "query entries must be integers that fit in 64 bits"),
    ("evidence-fraction", lambda: Evidence({1.7: (0, 1)}), ValidationError,
     "evidence variable id entries must be integers that fit in 64 bits"),
    ("rectangle-fraction", lambda: Hyperrectangle(((0, 1.7),)), ValidationError,
     "rectangle dimension entries must be integers that fit in 64 bits"),
    ("conjunction-fraction", lambda: known_base_conjunction([1.9, 0.2]), ValidationError,
     "conjunction literal entries must be integers that fit in 64 bits"),
    ("max-fraction", lambda: known_base_max([2.5, 2.2]), ValidationError,
     "parent card entries must be integers that fit in 64 bits"),
    ("star-blocks", lambda: star_family(0), ValidationError, "need at least one block"),
    ("star-parents", lambda: star_family(1, 1), ValidationError,
     "need at least two parents per block"),
    ("tasks-skills", lambda: canonical_tasks(StudentModelSpec(1, node_count=4), 3, 1),
     ValidationError, "a task needs 4 skills; the model has 3"),
    ("orderings-type", lambda: run_clique_benchmark(NET, [TaskSpec((0,))], "sample:3"),
     ValidationError, "orderings must be 'all' or an int, got 'sample:3'"),
]


@pytest.mark.parametrize("call, cls, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_each_input_check_raises_its_class_and_message(call, cls, message):
    with pytest.raises(ValidationError) as e:
        call()
    assert type(e.value) is cls
    assert str(e.value) == message


@pytest.mark.parametrize("one", [1.0, np.int64(1), np.float64(1.0)])
def test_integral_floats_and_numpy_ints_are_taken_as_ints(one):
    ints = [
        *Evidence({one: (0, 1)}).findings,
        *variable_elimination(NET, Evidence({one: (0, 1)}), [one]).scope,
        *Hyperrectangle(((0, one),)).dims[0],
        *(r for rect in known_base_conjunction([one, 0]).rectangles for d in rect.dims for r in d),
        *(r for rect in known_base_max([one + 1] * 2).rectangles for d in rect.dims for r in d),
    ]
    assert ints == [1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 1, 0, 1]
    assert {type(x) for x in ints} == {int}


def test_a_child_of_more_states_than_int64_holds_keeps_an_int64_table():
    """A child card of 2^63 or more (library input only) would take an
    object array as its smallest type; every entry fits in 64 bits, so
    the table is int64, and the base search reads it like any other."""
    for card in (1 << 63, 10**30):
        d = DeterministicFunction((0,), 1, (2,), card, (0, 1))
        assert d.outputs.dtype == np.int64 and d.outputs.tolist() == [0, 1]
        solution = solve_mbh(d)
        assert solution.proved_minimal and solution.base.size == 2
