"""Hyperrectangles over a configuration space and the two-operator set
algebra (proper difference, disjunctive union) used to express level
sets in terms of a rectangle base.

An expression is its flat prefix token sequence, the order of its text
form, so parsing, printing, evaluating and counting are each one loop
over the tokens, with no nesting limit."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Any, Callable, Iterable, Mapping, Sequence

from .core import _int_tuple
from .errors import IllegalExpressionError, ParseError, ValidationError

Config = tuple[int, ...]


@dataclass(frozen=True)
class Hyperrectangle:
    """A product of per-dimension state subsets: D1 x D2 x ... x Dn.

    Each ``dims`` entry is a non-empty, strictly ascending tuple of
    state indices for one parent.
    """

    dims: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        dims = tuple(_int_tuple(d, "rectangle dimension") for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValidationError("a hyperrectangle needs at least one dimension")
        for d in dims:
            if not d:
                raise ValidationError("every dimension subset must be non-empty")
            if list(d) != sorted(set(d)) or d[0] < 0:
                raise ValidationError(
                    f"dimension subset must be strictly ascending non-negative, got {d}"
                )

    def points(self) -> Iterable[Config]:
        return iproduct(*self.dims)

    def check_within(self, cards: Sequence[int]) -> None:
        if len(cards) != len(self.dims):
            raise ValidationError(
                f"rectangle has {len(self.dims)} dimensions, space has {len(cards)}"
            )
        for d, c in zip(self.dims, cards):
            if d[-1] >= c:
                raise ValidationError(f"state {d[-1]} outside cardinality {c}")


def full_space(cards: Sequence[int]) -> Hyperrectangle:
    """The rectangle covering every configuration."""
    return Hyperrectangle(tuple(tuple(range(c)) for c in cards))


@dataclass(frozen=True, repr=False)
class Expression:
    """A set expression over rectangle leaves, stored as its prefix
    token sequence: an ``int`` is a leaf (an index into a rectangle
    list), ``"-"`` a proper difference (its left operand must contain
    its right) and ``"+"`` a disjunctive union (its operands must be
    disjoint), each operator followed by its left and then its right
    operand.  That is the order of the text form, so equality and
    hashing are those of the tuple and every walk is one loop over it,
    at any depth.  ``Base`` checks that the sequence is well formed.
    """

    tokens: tuple[int | str, ...]

    @staticmethod
    def rect(index: int) -> "Expression":
        return Expression((index,))

    @staticmethod
    def diff(left: "Expression", right: "Expression") -> "Expression":
        return Expression(("-",) + left.tokens + right.tokens)

    @staticmethod
    def union(left: "Expression", right: "Expression") -> "Expression":
        return Expression(("+",) + left.tokens + right.tokens)

    def __repr__(self) -> str:
        return f"<Expression {format_expression(self)}>"

    def signed_counts(self) -> dict[int, int]:
        """Net coefficient of each rectangle index: +1 at the root, both
        signs kept by a union, the right operand of a difference flipped."""
        counts: dict[int, int] = {}
        signs = [1]  # the sign of each operand still to come, the next on top
        for tok in self.tokens:
            sign = signs.pop()
            if tok == "-":
                signs += (-sign, sign)
            elif tok == "+":
                signs += (sign, sign)
            else:
                counts[tok] = counts.get(tok, 0) + sign
        return counts


def balanced_union(parts: list[Expression]) -> Expression:
    """The disjunctive union of ``parts``, which must be disjoint, built
    as unions of neighbours: concatenating the token tuples copies
    n log n tokens over n parts, where a left fold would copy n^2."""
    while len(parts) > 1:
        pairs = [Expression.union(a, b) for a, b in zip(parts[::2], parts[1::2])]
        parts = pairs + parts[2 * len(pairs):]
    return parts[0]


def _denoted(expr: Expression, n_leaves: int, leaf: Callable[[int], Any]):
    """What an expression over ``n_leaves`` rectangles denotes, from ``leaf(i)``
    (a cell mask or a configuration set) for each leaf it names.  Raises
    IllegalExpressionError on a difference not nested or an overlapping union."""
    done: list = []  # finished operands, the next left one on top
    for tok in reversed(expr.tokens):
        if tok == "-" or tok == "+":
            left, right = done.pop(), done.pop()
            if tok == "-" and left | right != left:
                raise IllegalExpressionError(
                    "ILLEGAL_DIFFERENCE", "right operand is not contained in the left"
                )
            if tok == "+" and left & right:
                raise IllegalExpressionError("ILLEGAL_UNION", "operands of a union overlap")
            done.append(left ^ right)  # the difference or the disjoint union
        elif tok >= n_leaves:
            raise ValidationError(f"rectangle index {tok} out of range")
        else:
            done.append(leaf(tok))
    return done[0]


def evaluate_expression(
    expr: Expression, rectangles: Sequence[Hyperrectangle]
) -> frozenset[Config]:
    """The configuration set an expression denotes (see :func:`_denoted`)."""
    return _denoted(expr, len(rectangles), lambda i: frozenset(rectangles[i].points()))


@dataclass(frozen=True)
class Base:
    """A list of rectangles plus one expression per child state in the
    image of the function, mapping that state's level set onto the
    rectangle algebra."""

    rectangles: tuple[Hyperrectangle, ...]
    expressions: Mapping[int, Expression]

    def __post_init__(self):
        object.__setattr__(self, "rectangles", tuple(self.rectangles))
        object.__setattr__(
            self, "expressions", dict(sorted(dict(self.expressions).items()))
        )
        if not self.rectangles:
            raise ValidationError("a base needs at least one rectangle")
        n = len(self.rectangles[0].dims)
        for r in self.rectangles:
            if len(r.dims) != n:
                raise ValidationError("all base rectangles must share the dimension count")
        if len({r.dims for r in self.rectangles}) != len(self.rectangles):
            raise ValidationError("duplicate rectangle in base")
        for state, expr in self.expressions.items():
            if state < 0:
                raise ValidationError(f"negative child state {state}")
            missing = 1  # operands still owed: an operator adds one, a leaf pays one
            for tok in expr.tokens:
                if isinstance(tok, int) and tok >= len(self.rectangles):
                    raise ValidationError(
                        f"expression for state {state} references rectangle {tok + 1}, "
                        f"but the base has only {len(self.rectangles)}"
                    )
                if missing and (tok == "-" or tok == "+"):
                    missing += 1
                elif missing and isinstance(tok, int) and tok >= 0:
                    missing -= 1
                else:  # not a token, or one past the end of the expression
                    missing = -1
                    break
            if missing:
                raise ValidationError(
                    f"expression for state {state} is not a prefix sequence of "
                    f"rectangle indices and '-' / '+' operators"
                )

    @property
    def size(self) -> int:
        return len(self.rectangles)


# ---------------------------------------------------------------------------
# Textual expression form: prefix notation with 1-based rectangle leaves,
# e.g. "(- (- R2 R4) R5)".  "-" is the proper difference, "+" the
# disjunctive union.


def format_expression(expr: Expression) -> str:
    parts = []
    owed = []  # for each open operator, the operands it still lacks
    for tok in expr.tokens:
        if tok == "-" or tok == "+":
            parts.append(f"({tok} ")
            owed.append(2)
            continue
        parts.append(f"R{tok + 1}")
        while owed:  # a finished operand: close every operator it completes
            owed[-1] -= 1
            if owed[-1]:
                parts.append(" ")
                break
            owed.pop()
            parts.append(")")
    return "".join(parts)


def parse_expression(text: str) -> Expression:
    """One pass over the words that counts the operands still missing;
    each ``(`` records the count at which its ``)`` must come."""
    words = iter(text.replace("(", " ( ").replace(")", " ) ").split())
    tokens: list[int | str] = []
    missing = 1
    closes: list[int] = []  # for each open '(', the count that closes it
    for word in words:
        if word == ")":
            if not closes or closes[-1] != missing:
                raise ParseError(f"unexpected ')' in {text!r}")
            closes.pop()
            continue
        # the innermost open operator, or the whole expression, is complete
        if missing == (closes[-1] if closes else 0):
            if closes:
                raise ParseError(f"missing ')' in {text!r}")
            raise ParseError(f"trailing tokens in expression {text!r}")
        missing -= 1
        if word == "(":
            op = next(words, None)
            if op not in ("-", "+"):
                raise ParseError(f"expected an operator after '(' in {text!r}")
            tokens.append(op)
            closes.append(missing)
            missing += 2
        elif word.startswith("R") and word[1:].isdecimal() and int(word[1:]) >= 1:
            tokens.append(int(word[1:]) - 1)
        else:
            raise ParseError(f"unexpected token {word!r} in expression {text!r}")
    if missing:
        raise ParseError(f"unexpected end of expression {text!r}")
    if closes:
        raise ParseError(f"missing ')' in {text!r}")
    return Expression(tuple(tokens))
