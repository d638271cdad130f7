"""Deterministic tables and the Boolean formula front end.

Core claims:
    - tables are total, validated, and evaluate positionally; a node holds
      them as one read-only array of its own and compares by value
    - the indicator table puts exactly one 1 per parent config
    - the formula parser honours precedence !, &, |, =>, <=> and
      left-associativity, and tabulation matches direct evaluation
    - the one recognizer, ``kind_of``, reports a conjunction, ADD and MAX
      only on the real thing, and every kind a function has, so that a
      one-parent identity keeps the MAX closed form and an unequal-scale
      MAX the greedy cover
"""

import random
from itertools import product as iproduct

import numpy as np
import pytest

from factorbn import (
    Cpt,
    DeterministicFunction,
    Factor,
    Network,
    ParseError,
    ValidationError,
    Variable,
    build_factorized_form,
    function_from_formula,
    parse_formula,
)
from factorbn.functions import (
    _evaluate,
    formula_variables,
    indicator_table,
    kind_of,
)
from factorbn.factorization import known_base_max
from factorbn.inference import transform_network
from factorbn.mbh import greedy_cover_base


def mk(cards, fn, child_card):
    n = len(cards)
    return DeterministicFunction.from_callable(
        tuple(range(n)), n, tuple(cards), child_card, fn
    )


def factorized_form(d):
    """The form of the star that ``factorize`` makes of ``d`` (from
    ``mk``), under uniform roots."""
    cards = (*d.parent_cards, d.child_card)
    variables = tuple(Variable(i, f"v{i}", tuple(map(str, range(c)))) for i, c in enumerate(cards))
    cpts = tuple(Cpt(i, (), Factor((i,), (c,), np.full(c, 1.0 / c))) for i, c in enumerate(cards[:-1]))
    (star,) = transform_network(Network(variables, cpts, (d,)), "factorize").stars
    return star.form


# -- tables ------------------------------------------------------------------


def test_outputs_row_major_first_parent_slowest():
    d = mk((2, 3), lambda a, b: (a * 3 + b) % 4, 4)
    assert d.outputs.ravel().tolist() == [0, 1, 2, 3, 0, 1]
    assert d.outputs[1, 2] == 1
    # one read-only array, equal to a node built from any integer sequence
    assert d.outputs.shape == (2, 3) and not d.outputs.flags.writeable
    given = np.array([0, 1, 2, 3, 0, 1], dtype=np.int8)
    assert d == DeterministicFunction((0, 1), 2, (2, 3), 4, given)
    given[0] = 3  # the node keeps its own copy
    assert d.outputs[0, 0] == 0
    assert d != DeterministicFunction((0, 1), 2, (2, 3), 4, given)
    assert d != DeterministicFunction((0, 1), 2, (3, 2), 4, [0, 1, 2, 3, 0, 1])
    with pytest.raises(TypeError):  # an array does not hash
        hash(d)


def test_output_out_of_range_rejected():
    with pytest.raises(ValidationError):
        DeterministicFunction((0,), 1, (2,), 2, (0, 2))


def test_wrong_table_length_rejected():
    with pytest.raises(ValidationError):
        DeterministicFunction((0, 1), 2, (2, 2), 2, (0, 1, 1))


def test_child_among_parents_rejected():
    with pytest.raises(ValidationError):
        DeterministicFunction((0, 1), 1, (2, 2), 2, (0, 0, 0, 1))


def test_indicator_potential_one_hot_rows():
    d = mk((2, 2), lambda a, b: a ^ b, 2)
    table = indicator_table(d)
    assert table.shape == (2, 2, 2)
    assert table.dtype == np.int64
    # summing out the child leaves all-ones
    assert np.array_equal(table.sum(axis=2), np.ones((2, 2), dtype=np.int64))
    assert table[1, 0, 1] == 1
    assert table[1, 0, 0] == 0


def test_indicator_potential_child_id_between_parents():
    d = DeterministicFunction((0, 3), 1, (2, 2), 2, (0, 0, 0, 1))
    table = indicator_table(d)
    # axis order is the parents', then the child's, whatever the ids:
    # (x0, x3, y)
    assert table[1, 1, 1] == 1
    assert table[1, 1, 0] == 0
    assert table[1, 0, 1] == 0


# -- formula parsing ---------------------------------------------------------


@pytest.mark.parametrize(
    "text,assignment,expected",
    [
        ("a & b | c", {"a": 0, "b": 1, "c": 1}, 1),  # & binds tighter than |
        ("a & (b | c)", {"a": 0, "b": 1, "c": 1}, 0),
        ("!a & b", {"a": 0, "b": 1}, 1),  # ! binds tighter than &
        ("!(a & b)", {"a": 1, "b": 1}, 0),
        ("a | b => c", {"a": 1, "b": 0, "c": 0}, 0),  # | binds tighter than =>
        ("a => b => c", {"a": 1, "b": 0, "c": 1}, 1),  # left-assoc: (a=>b)=>c
        ("a <=> b", {"a": 0, "b": 0}, 1),
        ("a <=> b <=> c", {"a": 1, "b": 1, "c": 0}, 0),
        ("!!a", {"a": 1}, 1),
    ],
)
def test_formula_precedence(text, assignment, expected):
    assert _evaluate(parse_formula(text), assignment.__getitem__) == expected


def test_formula_variables_collected():
    assert formula_variables(parse_formula("(x1 | x2) => (x2 & x3)")) == {
        "x1",
        "x2",
        "x3",
    }


@pytest.mark.parametrize("bad", ["", "a &", "& a", "(a", "a b", "a ! b", "a <= b"])
def test_formula_syntax_errors(bad):
    with pytest.raises(ParseError):
        parse_formula(bad)


def test_formula_nesting_is_unbounded():
    # a left-associative chain is as deep as it is long
    deep = {
        "negations": (lambda n: "!" * n + "a", lambda n: 1 - n % 2),
        "parentheses": (lambda n: "(" * n + "a" + ")" * n, lambda n: 1),
        "chain": (lambda n: " & ".join(["a"] * (n + 1)), lambda n: 1),
    }
    for make, value in deep.values():
        for n in (64, 65, 5000):
            assert _evaluate(parse_formula(make(n)), {"a": 1}.__getitem__) == value(n)


def test_a_long_cnf_tabulates_like_python():
    # 70 three-literal clauses over 10 parents, each satisfied by two
    # planted assignments, so the table holds both values
    rng = random.Random(11)
    names = [f"x{i}" for i in range(10)]
    planted = [[rng.randrange(2) for _ in names] for _ in range(2)]
    clauses = []
    while len(clauses) < 70:
        clause = [(rng.randrange(10), rng.randrange(2)) for _ in range(3)]
        if all(any(p[v] != neg for v, neg in clause) for p in planted):
            clauses.append(clause)
    text = " & ".join(
        "(" + " | ".join("!" * neg + names[v] for v, neg in clause) + ")"
        for clause in clauses
    )
    d = function_from_formula(tuple(range(10)), 10, (2,) * 10, names, text)
    assert 0 < np.count_nonzero(d.outputs) < 1 << 10
    for cfg, y in zip(d.configurations(), d.outputs.ravel().tolist()):
        assert y == all(any(cfg[v] != neg for v, neg in clause) for clause in clauses)


def test_unbound_variable_rejected():
    with pytest.raises(ValidationError, match=r"unknown variables: \['b'\]"):
        function_from_formula((0,), 1, (2,), ["a"], "a & b")


def test_implication_tabulation_matches_paper_example():
    d = function_from_formula(
        (0, 1, 2), 3, (2, 2, 2), ["X1", "X2", "X3"], "(X1 | X2) => (X2 & X3)"
    )
    assert d.outputs.ravel().tolist() == [1, 1, 0, 1, 0, 0, 0, 1]
    alt = function_from_formula(
        (0, 1, 2), 3, (2, 2, 2), ["X1", "X2", "X3"], "(!X1 & !X2) | (X2 & X3)"
    )
    assert np.array_equal(alt.outputs, d.outputs)


def test_formula_requires_binary_parents():
    with pytest.raises(ValidationError):
        function_from_formula((0,), 1, (3,), ["a"], "a")


def test_formula_tabulation_matches_eval():
    rng = random.Random(5)
    names = ["p", "q", "r", "s"]
    exprs = [
        "p & q | !r & s",
        "(p => q) <=> (r | !s)",
        "!(p | q) & (r => s)",
    ]
    # seeded random formulas: literals joined pairwise by the four binary
    # operators, each join parenthesized (and maybe negated) or left bare
    # for the precedence rules to parse
    for _ in range(150):
        parts = [rng.choice(("", "!")) + rng.choice(names) for _ in range(rng.randint(1, 9))]
        while len(parts) > 1:
            i = rng.randrange(len(parts) - 1)
            text = f"{parts[i]} {rng.choice(('&', '|', '=>', '<=>'))} {parts[i + 1]}"
            if rng.random() < 0.6:
                text = rng.choice(("", "!")) + f"({text})"
            parts[i:i + 2] = [text]
        exprs.append(parts[0])
    operators = {tok for text in exprs for tok in parse_formula(text) if isinstance(tok, str)}
    assert operators == {"!", "&", "|", "=>", "<=>"}
    for text in exprs:
        # the one-pass table against one scalar evaluation per configuration
        d = function_from_formula((0, 1, 2, 3), 4, (2,) * 4, names, text)
        node = parse_formula(text)
        for cfg in iproduct((0, 1), repeat=4):
            value = _evaluate(node, dict(zip(names, cfg)).__getitem__)
            assert type(value) is int and d.outputs[cfg] == value


# -- recognizers -------------------------------------------------------------


def test_kind_of_finds_accepting_config():
    d = mk((2, 2, 2), lambda a, b, c: int(a == 1 and b == 0 and c == 1), 2)
    assert kind_of(d) == ((1, 0, 1), False, False)


def test_kind_of_rejects_non_conjunction():
    d = mk((2, 2), lambda a, b: a | b, 2)
    assert kind_of(d)[0] is None
    d = mk((2, 2), lambda a, b: a + b, 3)  # not binary-valued
    assert kind_of(d)[0] is None


def test_kind_of_add_and_max():
    assert kind_of(mk((3, 3), lambda a, b: a + b, 5)) == (None, True, False)
    assert kind_of(mk((3, 3), lambda a, b: max(a, b), 5)) == (None, False, True)
    assert kind_of(mk((3, 3, 3), lambda *x: max(x), 3)) == (None, False, True)
    assert kind_of(mk((2, 2), lambda a, b: a & b, 2)) == ((1, 1), False, False)


def test_kind_of_one_parent_identity_keeps_the_max_form():
    """A one-parent identity is ADD and MAX at once, and over a binary
    parent a conjunction too; over a ternary one it takes MAX's
    downsets."""
    assert kind_of(mk((2,), lambda a: a, 2)) == ((1,), True, True)
    d = mk((3,), lambda a: a, 3)
    assert kind_of(d) == (None, True, True)
    assert factorized_form(d) == build_factorized_form(d, known_base_max((3,)))


def test_kind_of_unequal_scale_max_is_still_greedy():
    d = mk((2, 3), lambda a, b: max(a, b), 3)
    assert kind_of(d) == (None, False, True)
    assert factorized_form(d) == build_factorized_form(d, greedy_cover_base(d))


def test_kind_of_multi_state_conjunction_is_none():
    """1 on exactly one configuration is a conjunction only over binary
    parents and a binary child."""
    assert kind_of(mk((3, 3), lambda a, b: int(a == 2 and b == 1), 2)) == (None, False, False)
    assert kind_of(mk((2, 2), lambda a, b: int(a == 1 and b == 0), 3))[0] is None


def test_single_state_cardinalities_allowed():
    d = DeterministicFunction((0,), 1, (1,), 2, (1,))
    assert d.outputs[0] == 1
