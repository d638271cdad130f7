"""Hyperrectangles and the two-operation set algebra.

Core claims:
    - proper difference needs nesting, disjunctive union needs
      disjointness, and both report the right illegal kind
    - the worked difference chain over {0,1,2}^2 lands on the two
      off-diagonal cells
    - signed leaf counts follow the +/- flip rule through nesting
    - the prefix text form round-trips, at any nesting depth
    - no walk of an expression or a formula recurses
"""

import sys
from contextlib import contextmanager

import pytest

from factorbn import (
    Expression,
    Hyperrectangle,
    IllegalExpressionError,
    ParseError,
    ValidationError,
    evaluate_expression,
    format_expression,
    full_space,
    parse_expression,
    parse_formula,
)
from factorbn.functions import _evaluate
from factorbn.rectangles import Base

R1 = Hyperrectangle(((0, 1, 2), (0, 1, 2)))
R2 = Hyperrectangle(((0, 1), (0, 1)))
R3 = Hyperrectangle(((1, 2), (1, 2)))
R4 = Hyperrectangle(((0,), (0,)))
R5 = Hyperrectangle(((1,), (1,)))
R6 = Hyperrectangle(((2,), (2,)))
RECTS = (R1, R2, R3, R4, R5, R6)


# -- rectangles --------------------------------------------------------------


def test_rectangle_points_and_size():
    r = Hyperrectangle(((0, 2), (1,)))
    assert len(set(r.points())) == 2
    assert set(r.points()) == {(0, 1), (2, 1)}


def test_rectangle_dims_must_be_ascending_nonempty():
    with pytest.raises(ValidationError):
        Hyperrectangle(((1, 0), (0,)))
    with pytest.raises(ValidationError):
        Hyperrectangle(((0,), ()))
    with pytest.raises(ValidationError):
        Hyperrectangle(())


def test_full_space():
    r = full_space((2, 3))
    assert r.dims == ((0, 1), (0, 1, 2))
    assert len(set(r.points())) == 6


def test_check_within_bounds():
    r = Hyperrectangle(((0, 3), (1,)))
    with pytest.raises(ValidationError):
        r.check_within((3, 2))
    r.check_within((4, 2))


# -- expression evaluation ---------------------------------------------------


def test_difference_chain_hits_offdiagonal_cells():
    # (R3 - R6) - R5 over the 3x3 grid
    e = Expression.diff(
        Expression.diff(Expression.rect(2), Expression.rect(5)), Expression.rect(4)
    )
    assert evaluate_expression(e, RECTS) == {(1, 2), (2, 1)}


def test_difference_requires_nesting_both_ways():
    # R5 is inside R3, so R5 - R3 is the illegal direction
    e = Expression.diff(Expression.rect(4), Expression.rect(2))
    with pytest.raises(IllegalExpressionError) as exc:
        evaluate_expression(e, RECTS)
    assert exc.value.kind == "ILLEGAL_DIFFERENCE"


def test_difference_of_incomparable_sets_rejected():
    e = Expression.diff(Expression.rect(1), Expression.rect(2))  # R2 vs R3 overlap
    with pytest.raises(IllegalExpressionError):
        evaluate_expression(e, RECTS)


def test_union_requires_disjoint():
    e = Expression.union(Expression.rect(1), Expression.rect(2))  # share (1,1)
    with pytest.raises(IllegalExpressionError) as exc:
        evaluate_expression(e, RECTS)
    assert exc.value.kind == "ILLEGAL_UNION"


def test_self_difference_is_empty():
    e = Expression.diff(Expression.rect(3), Expression.rect(3))
    assert evaluate_expression(e, RECTS) == frozenset()


def test_union_of_disjoint_cells():
    e = Expression.union(Expression.rect(3), Expression.rect(5))
    assert evaluate_expression(e, RECTS) == {(0, 0), (2, 2)}


def test_nested_legal_expression():
    # ((R1 - R2) - (R3 - R5)) + R5: the anti-diagonal of the grid
    e = Expression.union(
        Expression.diff(
            Expression.diff(Expression.rect(0), Expression.rect(1)),
            Expression.diff(Expression.rect(2), Expression.rect(4)),
        ),
        Expression.rect(4),
    )
    assert evaluate_expression(e, RECTS) == {(0, 2), (1, 1), (2, 0)}


# -- signed counts -----------------------------------------------------------


def test_signed_counts_flip_right_side_of_difference():
    e = Expression.diff(
        Expression.diff(Expression.rect(0), Expression.rect(1)),
        Expression.diff(Expression.rect(2), Expression.rect(4)),
    )
    # R1 + ... - R2 ... - (R3 - R5) => R5 flipped back to +1
    assert e.signed_counts() == {0: 1, 1: -1, 2: -1, 4: 1}


def test_signed_counts_sum_repeated_leaf():
    e = Expression.union(
        Expression.diff(
            Expression.diff(Expression.rect(0), Expression.rect(1)),
            Expression.diff(Expression.rect(2), Expression.rect(4)),
        ),
        Expression.rect(4),
    )
    assert e.signed_counts()[4] == 2


def test_leaves_collects_indices():
    e = Expression.diff(Expression.rect(2), Expression.rect(5))
    assert sorted(t for t in e.tokens if isinstance(t, int)) == [2, 5]


# -- base validation ---------------------------------------------------------


def test_base_rejects_duplicate_rectangles():
    with pytest.raises(ValidationError):
        Base((R5, R5), {})


def test_base_rejects_mixed_dimension_counts():
    r3d = Hyperrectangle(((0,), (0,), (0,)))
    with pytest.raises(ValidationError):
        Base((R5, r3d), {})


def test_base_rejects_out_of_range_leaf():
    e = Expression.rect(7)
    with pytest.raises(ValidationError):
        Base((R5,), {0: e})


@pytest.mark.parametrize(
    "tokens", [(), ("+",), ("-", 0), (0, 0), ("+", 0, 0, 0), ("*", 0, 0), (-1,), ("0",)]
)
def test_base_rejects_malformed_token_sequences(tokens):
    with pytest.raises(ValidationError, match="not a prefix sequence"):
        Base((R5,), {0: Expression(tokens)})


# -- text form ---------------------------------------------------------------


def test_format_uses_one_based_leaves():
    e = Expression.diff(
        Expression.diff(Expression.rect(1), Expression.rect(3)), Expression.rect(4)
    )
    assert format_expression(e) == "(- (- R2 R4) R5)"


def test_parse_format_round_trip():
    texts = [
        "R1",
        "(- R1 R2)",
        "(+ (- R2 R4) R5)",
        "(- (- (- R1 R2) R3) (+ R4 R5))",
    ]
    for text in texts:
        e = parse_expression(text)
        assert format_expression(e) == text


@pytest.mark.parametrize("bad", ["", "R0", "Rx", "(- R1)", "(* R1 R2)", "(- R1 R2", "R1 R2"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(Exception) as exc:
        parse_expression(bad)
    assert exc.type.__name__ in ("ParseError", "ValidationError")


def nested_union(depth):
    text = "R1"
    for _ in range(depth):
        text = f"(+ {text} R1)"
    return text


def test_parse_accepts_any_nesting_depth():
    for depth in (512, 513, 3000):
        text = nested_union(depth)
        expr = parse_expression(text)
        assert [t for t in expr.tokens if isinstance(t, int)] == [0] * (depth + 1)
        assert format_expression(expr) == text


@contextmanager
def frames_to_spare(spare):
    """Lower the recursion limit to ``spare`` frames above the caller."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + spare)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def test_no_walk_of_expressions_or_formulas_recurses():
    # X -> (- (+ X R2) R2) keeps the set {(0,)} and adds four tokens
    text = "R1"
    for _ in range(5000):
        text = f"(- (+ {text} R2) R2)"
    rects = (Hyperrectangle(((0,),)), Hyperrectangle(((1,),)))
    deep_not = "!" * 20000 + "a"
    with frames_to_spare(40):
        a, b = parse_expression(text), parse_expression(text)
        assert len(a.tokens) == 20001
        assert format_expression(a) == text
        assert evaluate_expression(a, rects) == {(0,)}
        assert a.signed_counts() == {0: 1, 1: 0}
        assert a == b and hash(a) == hash(b)
        assert a != parse_expression(text.replace("R1", "R2", 1))
        assert _evaluate(parse_formula(deep_not), {"a": 0}.__getitem__) == 0


def test_equality_hash_and_repr_follow_the_tree():
    a = parse_expression("(- R3 (+ R2 R1))")
    assert a == parse_expression("(- R3 (+ R2 R1))")
    assert hash(a) == hash(parse_expression("(- R3 (+ R2 R1))"))
    assert a != parse_expression("(- R3 (+ R1 R2))")
    assert a != parse_expression("(+ R3 (+ R2 R1))")
    assert a != "(- R3 (+ R2 R1))"
    assert repr(a) == "<Expression (- R3 (+ R2 R1))>"


def test_deep_trees_compare_hash_and_print():
    def chain(depth, first):
        expr = Expression.rect(first)
        for _ in range(depth):
            expr = Expression.union(expr, Expression.rect(0))
        return expr

    a, b, c = chain(5000, 0), chain(5000, 0), chain(5000, 1)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert repr(a) == f"<Expression {format_expression(a)}>"
    assert format_expression(a).count("(+ ") == 5000
    assert [t for t in a.tokens if isinstance(t, int)] == [0] * 5001
