"""Deterministic nodes: total functions from parent configurations to a
child state, Boolean formulas, and the 0/1 indicator view.

A formula is parsed in one shunting-yard pass into its postfix token
tuple, and evaluated in one loop over it, so neither has a nesting
limit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import product as iproduct
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import _int64_copy
from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class DeterministicFunction:
    """A child state determined by the parents: y = f(x1, ..., xn).

    ``outputs`` is given as the child state of every parent configuration,
    in row-major order with the first parent varying slowest, and is kept
    as one read-only array of shape ``parent_cards`` in the smallest
    signed type, up to int64, that holds a child state.  The table must be total
    and every entry an integer that is a valid child state.  ``formula`` keeps
    the source text when the function came from a Boolean expression.
    """

    parents: tuple[int, ...]
    child: int
    parent_cards: tuple[int, ...]
    child_card: int
    outputs: np.ndarray
    formula: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "parent_cards", tuple(self.parent_cards))
        if len(self.parents) != len(set(self.parents)):
            raise ValidationError("duplicate parent ids")
        if self.child in self.parents:
            raise ValidationError("child cannot be its own parent")
        if len(self.parent_cards) != len(self.parents):
            raise ValidationError("parent_cards must be parallel to parents")
        if not self.parents:
            raise ValidationError("a deterministic node needs at least one parent")
        if any(c < 1 for c in self.parent_cards) or self.child_card < 1:
            raise ValidationError("cardinalities must be positive")
        outputs = _int64_copy(self.outputs, "output table")
        size = math.prod(self.parent_cards)
        if outputs.size != size:
            raise ValidationError(f"output table has {outputs.size} entries, expected {size}")
        # one reduction: a negative entry reads as 2^63 or more unsigned
        if not outputs.view(np.uint64).max() < min(self.child_card, 1 << 63):
            bad = outputs[(outputs < 0) | (outputs >= self.child_card)][0]
            raise ValidationError(f"output state {bad} outside child range")
        outputs = outputs.astype(np.min_scalar_type(-min(self.child_card, 1 << 63)))
        outputs.flags.writeable = False
        object.__setattr__(self, "outputs", outputs.reshape(self.parent_cards))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeterministicFunction):
            return NotImplemented
        # the outputs' shape holds the parent cards
        return (self.parents, self.child, self.child_card, self.formula) == (
            other.parents, other.child, other.child_card, other.formula
        ) and np.array_equal(self.outputs, other.outputs)

    def configurations(self) -> Iterable[tuple[int, ...]]:
        """All parent configurations in table order."""
        return iproduct(*(range(c) for c in self.parent_cards))

    @classmethod
    def from_callable(
        cls,
        parents: Sequence[int],
        child: int,
        parent_cards: Sequence[int],
        child_card: int,
        fn: Callable[..., int],
    ) -> "DeterministicFunction":
        outputs = [fn(*cfg) for cfg in iproduct(*(range(c) for c in parent_cards))]
        return cls(tuple(parents), child, tuple(parent_cards), child_card, outputs)


def indicator_table(d: DeterministicFunction) -> np.ndarray:
    """The indicator [y == f(x)] as exact integers, axes (x1, ..., xn, y)."""
    return (d.outputs[..., None] == np.arange(d.child_card)).astype(np.int64)


# ---------------------------------------------------------------------------
# Boolean formulas.
#
# Precedence, tightest first: !  &  |  =>  <=>, with & | => <=> all
# left-associative and parentheses for grouping.  Variables are the
# parent names; every variable mentioned must be bound.


_SYMBOLS = ("<=>", "=>", "!", "&", "|", "(", ")")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((sym, i))
                i += len(sym)
                break
        else:
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(("name", i, text[i:j]))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r} in formula", column=i + 1)
    tokens.append(("end", len(text)))
    return tokens


# Binary operators: precedence (tighter binds higher) and truth function,
# in bit operations so that they apply to 0/1 ints and arrays alike.
_BINARY = {
    "<=>": (1, lambda a, b: 1 - (a ^ b)),
    "=>": (2, lambda a, b: (1 - a) | b),
    "|": (3, lambda a, b: a | b),
    "&": (4, lambda a, b: a & b),
}


def parse_formula(text: str) -> tuple:
    """Parse a Boolean formula into its postfix token tuple: a variable
    is ``("var", name)``, an operator its symbol.  One shunting-yard
    pass; ``!`` is pushed only where an operand starts, and it binds
    tighter than every binary operator."""
    out: list = []
    pending: list[str] = []  # operators and open parentheses not yet emitted
    operand = True  # whether the next token must start an operand
    for tok in _tokenize(text):
        kind = tok[0]
        if operand:
            if kind == "name":
                out.append(("var", tok[2]))
                operand = False
            elif kind in ("!", "("):
                pending.append(kind)
            else:
                raise ParseError(f"unexpected {kind!r} in formula", column=tok[1] + 1)
            continue
        # a binary operator, ')' or the end pops every tighter operator
        prec = _BINARY[kind][0] if kind in _BINARY else 0
        while pending and pending[-1] != "(" and (
            pending[-1] == "!" or _BINARY[pending[-1]][0] >= prec
        ):
            out.append(pending.pop())
        if kind in _BINARY:
            pending.append(kind)
            operand = True
        elif kind == ")" and pending:
            pending.pop()
        elif kind == "end" and not pending:
            return tuple(out)
        elif pending:
            raise ParseError(f"expected ')', found {kind!r} in formula", column=tok[1] + 1)
        else:
            raise ParseError(f"trailing {kind!r} in formula", column=tok[1] + 1)


def formula_variables(postfix: Sequence) -> set[str]:
    return {tok[1] for tok in postfix if isinstance(tok, tuple)}


def _evaluate(postfix: Sequence, operand: Callable[[str], object]):
    """The postfix loop.  ``operand(name)`` is a variable's value, a 0/1
    int or a 0/1 array, and each operator applies to whole values."""
    stack: list = []
    for tok in postfix:
        if isinstance(tok, tuple):
            stack.append(operand(tok[1]))
        elif tok == "!":
            stack.append(1 - stack.pop())
        else:  # a binary operator
            b = stack.pop()
            stack.append(_BINARY[tok][1](stack.pop(), b))
    return stack[0]


def function_from_formula(
    parents: Sequence[int],
    child: int,
    parent_cards: Sequence[int],
    names: Sequence[str],
    text: str,
) -> DeterministicFunction:
    """Tabulate a Boolean formula over binary parents."""
    if any(c != 2 for c in parent_cards):
        raise ValidationError("formula-defined functions require binary parents")
    postfix = parse_formula(text)
    # one pass over every configuration: parent i is the 0/1 column along
    # axis i, and the operators broadcast to the full table
    n = len(parents)
    columns = {
        name: np.arange(2, dtype=np.uint8).reshape([2 if j == i else 1 for j in range(n)])
        for i, name in zip(range(n), names)
    }
    unbound = formula_variables(postfix) - set(columns)
    if unbound:
        raise ValidationError(f"formula mentions unknown variables: {sorted(unbound)}")
    table = np.broadcast_to(_evaluate(postfix, columns.__getitem__), (2,) * n)
    return DeterministicFunction(tuple(parents), child, tuple(parent_cards), 2, table, formula=text)


# ---------------------------------------------------------------------------
# The structure recognizer, used to pick canonical bases and to divorce parents.


def kind_of(d: DeterministicFunction) -> tuple[tuple[int, ...] | None, bool, bool]:
    """The closed forms f has, ``(conjunction, add, max)``, by whole-array tests on
    ``d.outputs``: the cell where f is 1 if f is a conjunction of literals over binary
    parents, else None; whether f(x) is x1 + ... + xn; whether it is max(x1, ..., xn).
    f can be several (a one-parent identity is ADD and MAX), so callers pick in order."""
    table, cards = d.outputs, d.parent_cards
    single = d.child_card == 2 and set(cards) == {2} and np.count_nonzero(table) == 1
    conj = tuple(int(x) for x in np.unravel_index(table.argmax(), cards)) if single else None
    if conj and len(cards) > 1:  # 1 on one cell of several: neither a sum nor a max
        return conj, False, False
    axes = np.ix_(*(range(c) for c in cards))  # parent i's states along axis i
    add = d.child_card > sum(c - 1 for c in cards) and np.array_equal(table, sum(axes))
    maximum = d.child_card >= max(cards) and np.array_equal(table, reduce(np.maximum, axes))
    return conj, bool(add), bool(maximum)
