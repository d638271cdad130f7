"""Hyperrectangles over a configuration space and the two-operator set
algebra (proper difference, disjunctive union) used to express level
sets in terms of a rectangle base."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterable, Iterator, Mapping, Sequence

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
        dims = tuple(tuple(int(x) for x in d) for d in self.dims)
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

    @property
    def n_dims(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        n = 1
        for d in self.dims:
            n *= len(d)
        return n

    def contains(self, config: Sequence[int]) -> bool:
        return all(x in d for x, d in zip(config, self.dims))

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


@dataclass(frozen=True, eq=False, repr=False)
class Expression:
    """A binary tree over rectangle leaves.

    ``kind`` is ``"rect"`` (leaf; ``index`` points into a rectangle
    list), ``"diff"`` (proper difference: left must contain right), or
    ``"union"`` (disjunctive union: operands must be disjoint).

    Equality, hashing, repr and every other walk of the tree run in a
    loop, not by recursion, so they work at any depth.
    """

    kind: str
    index: int | None = None
    left: "Expression | None" = None
    right: "Expression | None" = None

    def __post_init__(self):
        if self.kind == "rect":
            if self.index is None or self.index < 0 or self.left or self.right:
                raise ValidationError("malformed rectangle leaf")
        elif self.kind in ("diff", "union"):
            if self.left is None or self.right is None or self.index is not None:
                raise ValidationError(f"{self.kind} node needs two children")
        else:
            raise ValidationError(f"unknown expression kind {self.kind!r}")

    @staticmethod
    def rect(index: int) -> "Expression":
        return Expression("rect", index=index)

    @staticmethod
    def diff(left: "Expression", right: "Expression") -> "Expression":
        return Expression("diff", left=left, right=right)

    @staticmethod
    def union(left: "Expression", right: "Expression") -> "Expression":
        return Expression("union", left=left, right=right)

    def _preorder(self) -> Iterator["Expression"]:
        """Every node, each before its operands, left operand first."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            if node.kind != "rect":
                stack += (node.right, node.left)

    def _key(self) -> tuple[tuple[str, int | None], ...]:
        # every operator has two operands, so the preorder of
        # (kind, index) pairs determines the tree
        return tuple((node.kind, node.index) for node in self._preorder())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"<Expression {format_expression(self)}>"

    def leaves(self) -> tuple[int, ...]:
        """Rectangle indices in leaf order, repeats kept."""
        return tuple(node.index for node in self._preorder() if node.kind == "rect")

    def signed_counts(self) -> dict[int, int]:
        """Net coefficient of each rectangle index: +1 at the root, both
        signs kept by a union, the right operand of a difference flipped."""
        counts: dict[int, int] = {}
        stack = [(self, 1)]
        while stack:
            node, sign = stack.pop()
            if node.kind == "rect":
                counts[node.index] = counts.get(node.index, 0) + sign
            else:
                flip = -1 if node.kind == "diff" else 1
                stack += ((node.right, flip * sign), (node.left, sign))
        return counts


def evaluate_expression(
    expr: Expression, rectangles: Sequence[Hyperrectangle]
) -> frozenset[Config]:
    """The configuration set an expression denotes, built operands
    first in a loop, so it works at any depth.

    Raises IllegalExpressionError when a difference's operands are not
    nested (left must contain right) or a union's operands overlap.
    """
    done: list[frozenset[Config]] = []  # the sets of finished operands
    stack: list[tuple[Expression, bool]] = [(expr, False)]
    while stack:
        node, ready = stack.pop()
        if node.kind == "rect":
            if node.index >= len(rectangles):
                raise ValidationError(f"rectangle index {node.index} out of range")
            done.append(frozenset(rectangles[node.index].points()))
        elif not ready:  # come back once both operands are done
            stack += ((node, True), (node.right, False), (node.left, False))
        else:
            right = done.pop()
            left = done.pop()
            if node.kind == "diff":
                if not right <= left:
                    raise IllegalExpressionError(
                        "ILLEGAL_DIFFERENCE", "right operand is not contained in the left"
                    )
                done.append(left - right)
            elif left & right:
                raise IllegalExpressionError("ILLEGAL_UNION", "operands of a union overlap")
            else:
                done.append(left | right)
    return done[0]


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
        n = self.rectangles[0].n_dims
        for r in self.rectangles:
            if r.n_dims != n:
                raise ValidationError("all base rectangles must share the dimension count")
        if len({r.dims for r in self.rectangles}) != len(self.rectangles):
            raise ValidationError("duplicate rectangle in base")
        for state, expr in self.expressions.items():
            if state < 0:
                raise ValidationError(f"negative child state {state}")
            for leaf in expr.leaves():
                if leaf >= len(self.rectangles):
                    raise ValidationError(
                        f"expression for state {state} references rectangle {leaf + 1}, "
                        f"but the base has only {len(self.rectangles)}"
                    )

    @property
    def size(self) -> int:
        return len(self.rectangles)


# ---------------------------------------------------------------------------
# Textual expression form: prefix notation with 1-based rectangle leaves,
# e.g. "(- (- R2 R4) R5)".  "-" is the proper difference, "+" the
# disjunctive union.

# Operators may nest at most this deep in a parsed expression, so that
# the recursive parser below stays well inside Python's default
# recursion limit.  The solver's witnesses nest a few levels; the greedy
# cover, which is also the answer whenever a cap stops the search, joins
# the parts of a level set in a balanced union tree, ceil(log2 parts)
# deep, so that even a level set of one part per configuration stays
# far below the limit.
MAX_EXPRESSION_DEPTH = 512


def format_expression(expr: Expression) -> str:
    parts = []
    stack: list[Expression | str] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            parts.append(node)
        elif node.kind == "rect":
            parts.append(f"R{node.index + 1}")
        else:
            parts.append("(- " if node.kind == "diff" else "(+ ")
            stack += (")", node.right, " ", node.left)
    return "".join(parts)


def parse_expression(text: str) -> Expression:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse(depth: int) -> Expression:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if depth == MAX_EXPRESSION_DEPTH:
                raise ParseError(
                    f"expression nests deeper than {MAX_EXPRESSION_DEPTH} operators"
                )
            if pos >= len(tokens) or tokens[pos] not in ("-", "+"):
                raise ParseError(f"expected an operator after '(' in {text!r}")
            op = tokens[pos]
            pos += 1
            left = parse(depth + 1)
            right = parse(depth + 1)
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ParseError(f"missing ')' in {text!r}")
            pos += 1
            return Expression.diff(left, right) if op == "-" else Expression.union(left, right)
        if tok.startswith("R") and tok[1:].isdigit() and int(tok[1:]) >= 1:
            return Expression.rect(int(tok[1:]) - 1)
        raise ParseError(f"unexpected token {tok!r} in expression {text!r}")

    expr = parse(0)
    if pos != len(tokens):
        raise ParseError(f"trailing tokens in expression {text!r}")
    return expr
