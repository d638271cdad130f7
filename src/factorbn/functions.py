"""Deterministic nodes: total functions from parent configurations to a
child state, Boolean formula parsing, and the 0/1 potential view."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import Factor
from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class DeterministicFunction:
    """A child state determined by the parents: y = f(x1, ..., xn).

    ``outputs`` lists the child state for every parent configuration in
    row-major order with the first parent varying slowest.  The table
    must be total and every entry must be a valid child state.
    ``formula`` keeps the source text when the function came from a
    Boolean expression.
    """

    parents: tuple[int, ...]
    child: int
    parent_cards: tuple[int, ...]
    child_card: int
    outputs: tuple[int, ...]
    formula: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        object.__setattr__(self, "parent_cards", tuple(self.parent_cards))
        object.__setattr__(self, "outputs", tuple(int(o) for o in self.outputs))
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
        size = 1
        for c in self.parent_cards:
            size *= c
        if len(self.outputs) != size:
            raise ValidationError(
                f"output table has {len(self.outputs)} entries, expected {size}"
            )
        for o in self.outputs:
            if not 0 <= o < self.child_card:
                raise ValidationError(f"output state {o} outside child range")

    @property
    def n_parents(self) -> int:
        return len(self.parents)

    def configurations(self) -> Iterable[tuple[int, ...]]:
        """All parent configurations in table order."""
        return iproduct(*(range(c) for c in self.parent_cards))

    def value(self, config: Sequence[int]) -> int:
        idx = 0
        for x, c in zip(config, self.parent_cards):
            idx = idx * c + x
        return self.outputs[idx]

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
        return cls(tuple(parents), child, tuple(parent_cards), child_card, tuple(outputs))


def deterministic_to_potential(d: DeterministicFunction) -> Factor:
    """The indicator factor [y == f(x)] over the family, as exact integers."""
    outputs = np.asarray(d.outputs, dtype=np.int64).reshape(d.parent_cards)
    # axes (x1, ..., xn, y), then permuted into ascending id order
    table = (outputs[..., None] == np.arange(d.child_card)).astype(np.int64)
    ids = d.parents + (d.child,)
    perm = sorted(range(len(ids)), key=ids.__getitem__)
    scope = tuple(ids[i] for i in perm)
    return Factor(scope, tuple(table.shape[i] for i in perm), table.transpose(perm))


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


# Binary operators, loosest first.
_BINARY = (("<=>", "iff"), ("=>", "implies"), ("|", "or"), ("&", "and"))

# A formula may nest at most this deep, counting operators on any path
# from the root to a variable and, separately, open parentheses, so that
# parsing and evaluating stay well inside Python's default recursion
# limit (each open parenthesis costs the parser seven frames).
MAX_FORMULA_DEPTH = 64


class _FormulaParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open_parens = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok[0]!r} in formula", column=tok[1] + 1
            )
        self.pos += 1
        return tok

    @staticmethod
    def check_depth(depth: int, tok) -> int:
        if depth > MAX_FORMULA_DEPTH:
            raise ParseError(
                f"formula nests deeper than {MAX_FORMULA_DEPTH} levels", column=tok[1] + 1
            )
        return depth

    def parse(self):
        node, _ = self.binary(0)
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing {tok[0]!r} in formula", column=tok[1] + 1)
        return node

    # Each method returns (node, depth), the depth counting operators.

    def binary(self, level: int):
        """Operators of _BINARY[level] and tighter, left-associative."""
        if level == len(_BINARY):
            return self.negation()
        symbol, name = _BINARY[level]
        node, depth = self.binary(level + 1)
        while self.peek()[0] == symbol:
            tok = self.take()
            right, rdepth = self.binary(level + 1)
            node, depth = (name, node, right), self.check_depth(1 + max(depth, rdepth), tok)
        return node, depth

    def negation(self):
        nots = 0
        while self.peek()[0] == "!":
            self.check_depth(nots + 1, self.take())
            nots += 1
        tok = self.peek()
        node, depth = self.atom()
        for _ in range(nots):
            node = ("not", node)
        return node, self.check_depth(depth + nots, tok)

    def atom(self):
        tok = self.peek()
        if tok[0] == "(":
            self.take()
            self.open_parens = self.check_depth(self.open_parens + 1, tok)
            node = self.binary(0)
            self.take(")")
            self.open_parens -= 1
            return node
        if tok[0] == "name":
            self.take()
            return ("var", tok[2]), 0
        raise ParseError(f"unexpected {tok[0]!r} in formula", column=tok[1] + 1)


def parse_formula(text: str):
    """Parse a Boolean formula into a nested-tuple syntax tree."""
    return _FormulaParser(text).parse()


def formula_variables(node) -> set[str]:
    if node[0] == "var":
        return {node[1]}
    return set().union(*(formula_variables(c) for c in node[1:]))


def eval_formula(node, assignment: Mapping[str, int]) -> int:
    """Evaluate a parsed formula under a 0/1 assignment."""
    op = node[0]
    if op == "var":
        name = node[1]
        if name not in assignment:
            raise ValidationError(f"formula variable {name!r} is not bound")
        return int(assignment[name])
    if op == "not":
        return 1 - eval_formula(node[1], assignment)
    a = eval_formula(node[1], assignment)
    b = eval_formula(node[2], assignment)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "implies":
        return (1 - a) | b
    if op == "iff":
        return int(a == b)
    raise ValidationError(f"unknown formula node {op!r}")


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
    node = parse_formula(text)
    unbound = formula_variables(node) - set(names)
    if unbound:
        raise ValidationError(f"formula mentions unknown variables: {sorted(unbound)}")
    outputs = [
        eval_formula(node, dict(zip(names, cfg)))
        for cfg in iproduct(*(range(2) for _ in parents))
    ]
    return DeterministicFunction(
        tuple(parents), child, tuple(parent_cards), 2, tuple(outputs), formula=text
    )


# ---------------------------------------------------------------------------
# Structure recognizers, used to pick canonical bases and to divorce parents.


def as_conjunction(d: DeterministicFunction) -> tuple[int, ...] | None:
    """If f is 1 on exactly one configuration of binary parents (a
    conjunction of literals), return that configuration, else None."""
    if d.child_card != 2 or any(c != 2 for c in d.parent_cards):
        return None
    ones = [cfg for cfg, y in zip(d.configurations(), d.outputs) if y == 1]
    if len(ones) != 1:
        return None
    return ones[0]


def is_add(d: DeterministicFunction) -> bool:
    """True when f(x) = x1 + ... + xn on state indices."""
    top = sum(c - 1 for c in d.parent_cards)
    if d.child_card < top + 1:
        return False
    return all(y == sum(cfg) for cfg, y in zip(d.configurations(), d.outputs))


def is_max(d: DeterministicFunction) -> bool:
    """True when f(x) = max(x1, ..., xn) on state indices."""
    if d.child_card < max(d.parent_cards):
        return False
    return all(y == max(cfg) for cfg, y in zip(d.configurations(), d.outputs))
