"""Discrete variables, factor tables over them, and hard evidence.

A Factor is the validated, read-only table that CPTs, potentials and
returned marginals are stored in; inference multiplies and sums raw
arrays itself.  A factor's scope is always kept sorted by variable id,
and its value table is an ndarray whose axes follow the scope.
Flattened in C order this is the row-major layout with the first scope
variable varying slowest, which is also the on-disk table layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ValidationError


def _int64_copy(values, name: str) -> np.ndarray:
    """An int64 copy of ``values``, so the caller's array stays
    writeable.  A ragged table, a non-numeric one, or an entry the cast
    would change (a fraction, a NaN, an infinity, a float beyond 64
    bits), raises."""
    try:
        values = np.array(values)
    except ValueError:  # nested rows of different lengths
        raise ValidationError(f"{name} rows must all have the same length") from None
    if values.dtype.kind in "bi":  # casts exactly
        return values.astype(np.int64, copy=False)
    if values.dtype.kind in "uf":
        with np.errstate(invalid="ignore"):  # a NaN or inf casts to garbage, caught below
            out = values.astype(np.int64)
        if np.array_equal(out, values):
            return out
    raise ValidationError(f"{name} entries must be integers that fit in 64 bits")


@dataclass(frozen=True)
class Variable:
    """A finite-domain variable: an integer id, a name, and state labels."""

    id: int
    name: str
    states: tuple[str, ...]

    def __post_init__(self):
        if self.id < 0:
            raise ValidationError(f"variable id must be non-negative, got {self.id}")
        if not self.name:
            raise ValidationError("variable name must be non-empty")
        if not self.states:
            raise ValidationError(f"variable {self.name!r} needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValidationError(f"variable {self.name!r} has duplicate state labels")

    @property
    def card(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Factor:
    """A real-valued table over a scope of variables.

    Parameters
    ----------
    scope : tuple of int
        Variable ids, strictly ascending.
    cards : tuple of int
        Cardinality of each scope variable, parallel to ``scope``.
    values : ndarray
        Table with ``values.shape == cards``.  Stored read-only.
    """

    scope: tuple[int, ...]
    cards: tuple[int, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        scope = tuple(self.scope)
        cards = tuple(self.cards)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "cards", cards)
        if list(scope) != sorted(set(scope)):
            raise ValidationError(f"scope must be strictly ascending ids, got {scope}")
        if len(cards) != len(scope):
            raise ValidationError("cards must be parallel to scope")
        if any(c < 1 for c in cards):
            raise ValidationError(f"cardinalities must be positive, got {cards}")
        values = np.asarray(self.values)
        if values.shape != cards:
            if values.ndim == 1 and values.size == int(np.prod(cards, dtype=np.int64)):
                values = values.reshape(cards)
            else:
                raise ValidationError(
                    f"value table shape {values.shape} does not match cards {cards}"
                )
        # np.ascontiguousarray would turn 0-d scalars into 1-d arrays
        values = np.array(values, order="C")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def flat(self) -> np.ndarray:
        """The table flattened in the on-disk row-major order."""
        return self.values.reshape(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Factor):
            return NotImplemented
        return (
            self.scope == other.scope
            and self.cards == other.cards
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class Evidence:
    """Hard findings: per observed variable id, a 0/1 vector over its
    states, kept as a tuple as given; inference checks it.

    A configuration is consistent with the evidence when every observed
    variable in it sits on a state flagged 1.  The empty mapping means
    no observations.
    """

    findings: Mapping[int, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        ids = _int64_copy(list(self.findings), "evidence variable id").tolist()
        findings = dict(zip(ids, map(tuple, self.findings.values())))
        object.__setattr__(self, "findings", findings)
