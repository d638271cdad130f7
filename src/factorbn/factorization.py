"""Multiplicative factorization of a deterministic table through one
hidden variable.

The indicator [y == f(x1, ..., xn)] is rewritten as

    sum_b  h(y, b) * g_1(x1, b) * ... * g_n(xn, b)

where b ranges over the states of a hidden variable, one per base
rectangle.  Each g_i(x, b) is 1 exactly when x lies in rectangle b's
i-th dimension subset, and h collects signed counts read off the level
set expressions.  All tables here are exact integers; h may carry
negative entries, which is fine because only the sum must match the
indicator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _int64_copy
from .errors import InternalConsistencyError, ValidationError
from .functions import DeterministicFunction, indicator_table
from .mbh import _cells, _level_masks, _rectangle_masks, _strides
from .rectangles import (
    Base, Config, Expression, Hyperrectangle, _denoted, balanced_union, full_space,
)


@dataclass(frozen=True)
class FactorizedForm:
    """The pair (h, g) produced by a factorization.

    ``h`` has shape (child_card, n_hidden); each ``g[i]`` has shape
    (parent_cards[i], n_hidden) with 0/1 entries.  Rows must have one
    length, and entries be integers that fit in 64 bits (an integral
    float is accepted); both are stored as int64.
    """

    parent_cards: tuple[int, ...]
    child_card: int
    h: np.ndarray
    g: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "parent_cards", tuple(self.parent_cards))
        h = _int64_copy(self.h, "h")
        g = tuple(_int64_copy(gi, f"g[{i}]") for i, gi in enumerate(self.g))
        if h.ndim != 2 or h.shape[0] != self.child_card:
            raise ValidationError(f"h has shape {h.shape}, expected ({self.child_card}, k)")
        k = h.shape[1]
        if len(g) != len(self.parent_cards):
            raise ValidationError("need one g table per parent")
        for i, (gi, c) in enumerate(zip(g, self.parent_cards)):
            if gi.shape != (c, k):
                raise ValidationError(f"g[{i}] table has shape {gi.shape}, expected ({c}, {k})")
            if (gi & ~1).any():  # a bit other than the lowest is set
                raise ValidationError(f"g[{i}] entries must be 0/1")
        h.flags.writeable = False
        for gi in g:
            gi.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)

    @property
    def n_hidden(self) -> int:
        return self.h.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactorizedForm):
            return NotImplemented
        # h's shape holds the child card, so the parent cards remain
        pairs = zip((self.h, *self.g), (other.h, *other.g))
        return self.parent_cards == other.parent_cards and all(
            np.array_equal(a, b) for a, b in pairs
        )


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exact reconstruction check.  ``violation`` is the
    first failing (child_state, parent_configuration) in table order."""

    ok: bool
    violation: tuple[int, Config] | None = None

    def __bool__(self) -> bool:
        return self.ok


def level_sets(d: DeterministicFunction) -> dict[int, frozenset[Config]]:
    """Partition the parent configurations by child state; only states
    in the image of f appear: the function's level masks, decoded."""
    return {y: frozenset(_cells(m, d.parent_cards)) for y, m in _level_masks(d).items()}


def membership_tables(
    rectangles: Sequence[Hyperrectangle], parent_cards: Sequence[int]
) -> tuple[np.ndarray, ...]:
    """Per-parent 0/1 tables g[i][x, b] = [x in rectangle b's dim i]."""
    k = len(rectangles)
    g = []
    for i, c in enumerate(parent_cards):
        gi = np.zeros((c, k), dtype=np.int64)
        for b, r in enumerate(rectangles):
            for x in r.dims[i]:
                gi[x, b] = 1
        g.append(gi)
    return tuple(g)


def build_factorized_form(d: DeterministicFunction, base: Base) -> FactorizedForm:
    """Turn a base into explicit (h, g) tables, verified against ``d``.

    Every rectangle is checked against the parent cardinalities, every
    expression is evaluated on cell bitmasks (raising on an illegal
    difference or union), and each one must denote its level mask
    exactly.  :func:`verify_factorization` then checks the form as a
    self-check of this builder.
    """
    for r in base.rectangles:
        r.check_within(d.parent_cards)
    targets = _level_masks(d)
    extra = set(base.expressions) - set(targets)
    if extra:
        raise ValidationError(
            f"expressions given for child states {sorted(extra)} outside the image of f"
        )
    missing = set(targets) - set(base.expressions)
    if missing:
        raise ValidationError(f"no expression for child states {sorted(missing)}")

    strides = _strides(d.parent_cards)
    masks = [_rectangle_masks([[dim] for dim in r.dims], strides)[0] for r in base.rectangles]
    h = np.zeros((d.child_card, base.size), dtype=np.int64)
    for state, expr in base.expressions.items():
        denoted, target = _denoted(expr, len(masks), masks.__getitem__), targets[state]
        if denoted != target:
            extra = _cells(denoted & ~target, d.parent_cards, 3)
            lacks = _cells(target & ~denoted, d.parent_cards, 3)
            raise ValidationError(
                f"expression for child state {state} does not denote its level "
                f"set (spurious: {extra}, missing: {lacks})"
            )
        for idx, coeff in expr.signed_counts().items():
            h[state, idx] += coeff

    form = FactorizedForm(
        d.parent_cards, d.child_card, h, membership_tables(base.rectangles, d.parent_cards)
    )
    # a form that does not reconstruct ``d`` is a defect of this builder
    verdict = verify_factorization(d, form)
    if not verdict:
        raise InternalConsistencyError(
            f"factorized form fails reconstruction at {verdict.violation}"
        )
    return form


def verify_factorization(d: DeterministicFunction, form: FactorizedForm) -> Verdict:
    """Exactly compare sum_b h(y,b) prod_i g_i(x_i,b) with [y == f(x)].

    The products over the parents are built a block of hidden states at
    a time, as the row-wise Kronecker product of the g columns, so the
    memory stays bounded whatever the table size.  A row of |h| that
    sums to 2**63 or more raises, since int64 sums could then wrap."""
    if form.parent_cards != d.parent_cards or form.child_card != d.child_card:
        raise ValidationError("factorized form does not match the function's shape")
    if any(sum(map(abs, row)) >= 1 << 63 for row in form.h.tolist()):
        raise ValidationError("a row of |h| sums to 2**63 or more, beyond exact int64 sums")
    ncells = d.outputs.size
    width = max(1, (1 << 20) // ncells)  # a block holds about 2**20 products at most
    recon = np.zeros((d.child_card, ncells), dtype=np.int64)
    for lo in range(0, form.n_hidden, width):
        h = form.h[:, lo:lo + width]
        block = np.ones((1, h.shape[1]), dtype=np.int64)
        for gi in form.g:  # rows in table order, the first parent slowest
            block = (block[:, None] * gi[:, lo:lo + width]).reshape(-1, h.shape[1])
        recon += h @ block.T
    recon = recon.reshape(d.child_card, *d.parent_cards)  # (child, x1, ..., xn)
    mismatch = recon != np.moveaxis(indicator_table(d), -1, 0)
    if not mismatch.any():
        return Verdict(True)
    first = np.argwhere(mismatch)[0]
    return Verdict(False, (int(first[0]), tuple(int(x) for x in first[1:])))


def trivial_factorization(d: DeterministicFunction) -> FactorizedForm:
    """One hidden state per parent configuration: the base of point
    rectangles in table order, each level set the disjunctive union of
    its points.  Always exact, never smaller than the table itself;
    useful as a correctness baseline."""
    rects = tuple(Hyperrectangle(tuple((x,) for x in cfg)) for cfg in d.configurations())
    points: dict[int, list[Expression]] = {}
    for b, y in enumerate(d.outputs.ravel().tolist()):
        points.setdefault(y, []).append(Expression.rect(b))
    return build_factorized_form(d, Base(rects, {y: balanced_union(p) for y, p in points.items()}))


# ---------------------------------------------------------------------------
# Closed-form bases for common function shapes.


def known_base_conjunction(required: Sequence[int]) -> Base:
    """Base of size 2 for a conjunction of literals over binary parents.

    ``required`` is the single accepting configuration.  The base is
    the full space plus the one accepting point; the false level set is
    their proper difference.
    """
    required = tuple(_int64_copy(required, "conjunction literal").tolist())
    if not required:
        raise ValidationError("a conjunction needs at least one literal")
    if any(r not in (0, 1) for r in required):
        raise ValidationError("conjunction literals must be over binary parents")
    rects = (
        full_space([2] * len(required)),
        Hyperrectangle(tuple((r,) for r in required)),
    )
    point = Expression.rect(1)
    return Base(rects, {0: Expression.diff(Expression.rect(0), point), 1: point})


def known_base_max(parent_cards: Sequence[int]) -> Base:
    """Base of size s for MAX over n parents with a shared scale s.

    Rectangle k is the downset {0..k} in every dimension; level set k
    is the difference of consecutive downsets.
    """
    cards = tuple(_int64_copy(parent_cards, "parent card").tolist())
    if not cards:
        raise ValidationError("MAX needs at least one parent")
    if len(set(cards)) != 1:
        raise ValidationError(f"MAX base needs one shared scale, got cardinalities {cards}")
    s = cards[0]
    rects = tuple(
        Hyperrectangle(tuple(tuple(range(k + 1)) for _ in cards)) for k in range(s)
    )
    exprs: dict[int, Expression] = {0: Expression.rect(0)}
    for k in range(1, s):
        exprs[k] = Expression.diff(Expression.rect(k), Expression.rect(k - 1))
    return Base(rects, exprs)
