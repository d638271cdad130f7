"""Every input check raises its own error class with its own message.

Core claims:
    - each library precondition on variables, factors, functions, CPTs,
      networks, rectangles, bases, expressions, factorized forms,
      closed-form bases, inference calls, the star family and the CAT
      benchmark's task draws and ordering counts raises exactly its
      class with exactly its message
    - an id or state that the int cast would change is one of those
      errors, at each entry point that casts; an integral float or a
      numpy int, alone or in a 0-d array, is taken as its int, and an int
      past 2^53 beside a float keeps its value
    - a list of integers is a sequence or a 1-d array: a set, bytes or a
      generator is refused
    - a child card is read as an int with no 64-bit cap
    - every integer field of the library's constructors, given a numpy
      int, an integral float, a fraction, a string, None, an int beyond
      64 bits, True or a seeded draw of these, either builds an object
      whose fields are plain Python ints or raises a ValidationError
      that names the field
    - the file readers' checks are pinned with their inputs in
      test_fileio
"""

import random
import re

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
from factorbn.network import Star

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
    ("variable-id-fraction", lambda: Variable(0.5, "a", BIT), ValidationError,
     "variable id entries must be integers that fit in 64 bits"),
    ("variable-id-string", lambda: Variable("a", "a", BIT), ValidationError,
     "variable id entries must be integers that fit in 64 bits"),
    ("variable-states-string", lambda: Variable(0, "a", "xy"), ValidationError,
     "variable 'a' states must be a sequence, not a string"),
    ("factor-scope-fraction", lambda: Factor((0.5,), (2,), HALF), ValidationError,
     "scope and card entries must be integers that fit in 64 bits"),
    ("factor-card-fraction", lambda: Factor((0,), (2.5,), HALF), ValidationError,
     "scope and card entries must be integers that fit in 64 bits"),
    ("factor-scope-set", lambda: Factor({1, 0}, (2, 2), np.full((2, 2), 0.25)), ValidationError,
     "scope and card entries must be integers that fit in 64 bits"),
    ("factor-scope-bytes", lambda: Factor(b"\x00", (2,), HALF), ValidationError,
     "scope and card entries must be integers that fit in 64 bits"),
    ("factor-cards", lambda: Factor((0,), (2, 2), HALF), ValidationError,
     "cards must be parallel to scope"),
    ("factor-card-zero", lambda: Factor((0,), (0,), np.zeros(0)), ValidationError,
     "cardinalities must be positive, got (0,)"),
    ("function-ids-fraction", lambda: DeterministicFunction((0.5,), 1.5, (2,), 2, (0, 1)),
     ValidationError, "parent entries must be integers that fit in 64 bits"),
    ("function-parents", lambda: DeterministicFunction((0, 0), 1, (2, 2), 2, (0,) * 4),
     ValidationError, "duplicate parent ids"),
    ("function-cards", lambda: DeterministicFunction((0,), 1, (2, 2), 2, (0,) * 4),
     ValidationError, "parent_cards must be parallel to parents"),
    ("function-no-parent", lambda: DeterministicFunction((), 1, (), 2, (0,)),
     ValidationError, "a deterministic node needs at least one parent"),
    ("function-card-zero", lambda: DeterministicFunction((0,), 1, (0,), 2, ()),
     ValidationError, "cardinalities must be positive"),
    ("function-child-card-fraction", lambda: DeterministicFunction((0,), 1, (2,), 2.5, (0, 1)),
     ValidationError, "child card must be an integer"),
    ("function-child-card-string", lambda: DeterministicFunction((0,), 1, (2,), "2", (0, 1)),
     ValidationError, "child card must be an integer"),
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
    ("rectangle-generator", lambda: Hyperrectangle(((x for x in (0, 1)),)), ValidationError,
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
    # inference indexes by a CPT's child, so its integral float id must be an int
    root = Network((Variable(0, "a", BIT),), (Cpt(one - 1, (), Factor((0,), (2,), HALF)),))
    assert variable_elimination(root, None, [0]).values.tolist() == [0.5, 0.5]


def test_a_child_of_more_states_than_int64_holds_keeps_an_int64_table():
    """A child card of 2^63 or more (library input only) would take an
    object array as its smallest type; every entry fits in 64 bits, so
    the table is int64, and the base search reads it like any other."""
    for card in (1 << 63, 10**30):
        d = DeterministicFunction((0,), 1, (2,), card, (0, 1))
        assert d.outputs.dtype == np.int64 and d.outputs.tolist() == [0, 1]
        solution = solve_mbh(d)
        assert solution.proved_minimal and solution.base.size == 2


@pytest.mark.parametrize("two", [2, 2.0, np.int64(2), np.float32(2.0)])
def test_a_child_card_is_read_as_its_int(two):
    d = DeterministicFunction((0,), 1, (2,), two, (0, 1))
    assert type(d.child_card) is int and d.child_card == 2
    assert d.outputs.dtype == np.int8


def test_a_0_d_array_entry_is_read_as_its_int():
    one, two = np.array(1), np.array(2.0)
    built = (Factor((0, one), (2, two), np.ones((2, 2))).scope,
             Hyperrectangle(((0, one),)).dims,
             DeterministicFunction((one,), 0, (2,), two, (0, 1)).parents)
    assert built == ((0, 1), ((0, 1),), (1,)) and all(type(x) is int for x in leaves(built))


BEYOND = 2**53 + 1  # the first int that a float64 rounds


@pytest.mark.parametrize("build, read, want", [
    (lambda: Factor((0, BEYOND), (2, 2.0), np.ones((2, 2))), lambda o: o.scope, (0, BEYOND)),
    (lambda: Hyperrectangle(((1.0, BEYOND),)), lambda o: o.dims, ((1, BEYOND),)),
    (lambda: DeterministicFunction((0,), 1, (2,), BEYOND + 1, (1.0, BEYOND)),
     lambda o: o.outputs.tolist(), [1, BEYOND]),
    (lambda: FactorizedForm((2,), 2, [[0.0, BEYOND], [1, 2]], (np.eye(2),)),
     lambda o: o.h.tolist(), [[0, BEYOND], [1, 2]]),
], ids=["Factor.scope", "Hyperrectangle", "DeterministicFunction.outputs", "FactorizedForm.h"])
def test_an_int_past_2_53_beside_a_float_keeps_its_value(build, read, want):
    """An int that a float64 would round, in a list beside a float, is read
    as given: no entry goes through a float array on its way in."""
    got = read(build())
    assert got == want and all(type(x) is int for x in leaves(got))


# The sweep over every integer field.  FORM is a valid form for one binary
# parent; PAIR a CPT table over the family (0, 1).
FORM = FactorizedForm((2,), 2, np.eye(2), (np.eye(2),))
PAIR = Factor((0, 1), (2, 2), np.full((2, 2), 0.5))


def _dims(base):
    return [r.dims for r in base.rectangles]


# (id, the field as its error names it, its valid value v, a build taking the
# field's value x, the read-back of the built object, that read-back at x = v)
SWEEP = [
    ("Variable.id", "variable id", 1, lambda x: Variable(x, "a", list(BIT)),
     lambda o: (o.id, o.states), (1, BIT)),
    ("Factor.scope", "scope and card", 1, lambda x: Factor((0, x), (2, 2), np.eye(2)),
     lambda o: (o.scope, o.cards), ((0, 1), (2, 2))),
    ("Factor.cards", "scope and card", 1, lambda x: Factor((0,), (x,), [1.0]),
     lambda o: (o.scope, o.cards), ((0,), (1,))),
    ("Cpt.child", "CPT child", 1, lambda x: Cpt(x, (0,), PAIR),
     lambda o: (o.child, o.parents), (1, (0,))),
    ("Cpt.parents", "CPT parent", 1, lambda x: Cpt(0, (x,), PAIR),
     lambda o: (o.child, o.parents), (0, (1,))),
    ("DeterministicFunction.parents", "parent", 1,
     lambda x: DeterministicFunction((x,), 0, (2,), 2, (0, 1)),
     lambda o: (o.parents, o.child, o.parent_cards), ((1,), 0, (2,))),
    ("DeterministicFunction.child", "child", 1,
     lambda x: DeterministicFunction((0,), x, (2,), 2, (0, 1)),
     lambda o: (o.parents, o.child, o.parent_cards), ((0,), 1, (2,))),
    ("DeterministicFunction.parent_cards", "parent card", 1,
     lambda x: DeterministicFunction((0,), 1, (x,), 2, (0,)),
     lambda o: (o.parents, o.child, o.parent_cards), ((0,), 1, (1,))),
    ("Star.child", "star child", 1, lambda x: Star(x, (0,), 2, FORM),
     lambda o: (o.child, o.parents, o.hidden), (1, (0,), 2)),
    ("Star.parents", "star parent", 1, lambda x: Star(0, (x,), 2, FORM),
     lambda o: (o.child, o.parents, o.hidden), (0, (1,), 2)),
    ("Star.hidden", "star hidden", 1, lambda x: Star(0, (2,), x, FORM),
     lambda o: (o.child, o.parents, o.hidden), (0, (2,), 1)),
    ("FactorizedForm.parent_cards", "parent card", 1,
     lambda x: FactorizedForm((x,), 2, [[1], [0]], ([[1]],)),
     lambda o: (o.parent_cards, o.child_card), ((1,), 2)),
    ("FactorizedForm.child_card", "child card", 1,
     lambda x: FactorizedForm((2,), x, [[1, 1]], (np.eye(2),)),
     lambda o: (o.parent_cards, o.child_card), ((2,), 1)),
    ("TaskSpec.required_skills", "skill", 1, lambda x: TaskSpec((x,), 0),
     lambda o: (o.required_skills, o.misconception), ((1,), 0)),
    ("TaskSpec.misconception", "misconception", 1, lambda x: TaskSpec((0,), x),
     lambda o: (o.required_skills, o.misconception), ((0,), 1)),
    ("StudentModelSpec.node_count", "node_count", 2, lambda x: StudentModelSpec(1, x),
     lambda o: o.node_count, 2),
    ("Evidence", "evidence variable id", 1, lambda x: Evidence({x: (0, 1)}),
     lambda o: tuple(o.findings), (1,)),
    ("query", "query", 1, lambda x: variable_elimination(NET, None, [x]),
     lambda o: o.scope, (1,)),
    ("Hyperrectangle", "rectangle dimension", 1, lambda x: Hyperrectangle(((0, x),)),
     lambda o: o.dims, ((0, 1),)),
    ("known_base_conjunction", "conjunction literal", 1,
     lambda x: known_base_conjunction([x, 0]), _dims, _dims(known_base_conjunction([1, 0]))),
    ("known_base_max", "parent card", 1, lambda x: known_base_max([x, 1]), _dims,
     _dims(known_base_max([1, 1]))),
]


def spellings(v: int, rng: random.Random) -> list[tuple[object, bool]]:
    """(value, whether it is v): a numpy int, an integral float, a fraction,
    a string, None, an int beyond 64 bits and True, then a seeded draw of a
    numpy scalar of v, a fraction and an int beyond 64 bits of either sign."""
    kind = rng.choice([np.int8, np.uint16, np.int32, np.uint64, np.float32, np.float64])
    big = rng.randrange(2**63 + 1, 2**80) * rng.choice([1, -1])
    return [(np.int64(v), True), (float(v), True), (v - 0.5, False), (str(v), False),
            (None, False), (2**70, False), (True, v == 1),
            (kind(v), True), (v + rng.uniform(0.01, 0.99), False), (big, False)]


def leaves(x):
    return [y for item in x for y in leaves(item)] if isinstance(x, (tuple, list)) else [x]


@pytest.mark.parametrize("case", SWEEP, ids=[c[0] for c in SWEEP])
def test_every_integer_field_takes_its_int_or_names_itself(case):
    """A spelling of the field's valid value builds the object that value
    builds, its fields plain Python ints; anything else raises a
    ValidationError whose message begins with the field's name."""
    label, name, v, build, read, want = case
    for value, exact in spellings(v, random.Random(label)):
        if value is None and label == "TaskSpec.misconception":  # a task without one
            continue
        try:
            got = read(build(value))
        except ValidationError as e:
            assert not exact, (value, str(e))
            assert re.fullmatch(f"{re.escape(name)} (entries must be integers that fit in 64 "
                                "bits|must be at least 2)", str(e)), (value, str(e))
            continue
        assert exact, (value, got)
        assert got == want and all(type(x) in (int, str) for x in leaves(got)), (value, got)
