"""The network model: variables, CPTs, deterministic nodes, and the
extra potentials a transformation may introduce."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .core import Factor, Variable
from .errors import ValidationError
from .functions import DeterministicFunction

ROW_SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Cpt:
    """A conditional probability table, stored as a factor over the
    family scope (parents and child, sorted by id).

    Entries must be finite and non-negative reals, and the entries for
    each parent configuration must sum to 1 within 1e-9.  Inference
    relies on this when it drops families that cannot affect a query.
    """

    child: int
    parents: tuple[int, ...]
    factor: Factor

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        if self.child in self.parents:
            raise ValidationError("a CPT child cannot be its own parent")
        if len(set(self.parents)) != len(self.parents):
            raise ValidationError("duplicate CPT parents")
        expected = tuple(sorted(self.parents + (self.child,)))
        if self.factor.scope != expected:
            raise ValidationError(
                f"CPT factor scope {self.factor.scope} must be the family {expected}"
            )
        values = self.factor.values
        where = f"CPT table for variable {self.child}"
        if values.dtype.kind not in "iuf":
            raise ValidationError(f"{where} must hold real numbers")
        sums = values.sum(axis=expected.index(self.child)).reshape(-1)
        off = np.abs(sums - 1.0)
        # a NaN fails both comparisons, so only a valid table returns here
        if values.min() >= 0 and off.max() <= ROW_SUM_TOLERANCE:
            return
        if not np.isfinite(values).all():
            raise ValidationError(f"{where} has a non-finite entry")
        if values.min() < 0:
            raise ValidationError(f"{where} has a negative entry")
        raise ValidationError(f"{where} has a row summing to {sums[off.argmax()]:.12g}, not 1")


@dataclass(frozen=True)
class Network:
    """A directed model over discrete variables.

    Every variable is either the head of exactly one CPT or exactly one
    deterministic node, except when ``potentials`` is non-empty: a
    transformed network may carry headless variables (the hidden ones)
    as long as each appears in some potential.  Potential entries must
    be finite reals.  The directed part must be acyclic.
    """

    variables: tuple[Variable, ...]
    cpts: tuple[Cpt, ...] = ()
    deterministic: tuple[DeterministicFunction, ...] = ()
    potentials: tuple[Factor, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "cpts", tuple(self.cpts))
        object.__setattr__(self, "deterministic", tuple(self.deterministic))
        object.__setattr__(self, "potentials", tuple(self.potentials))
        self._validate()

    def _validate(self) -> None:
        for i, v in enumerate(self.variables):
            if v.id != i:
                raise ValidationError(
                    f"variable ids must be 0..n-1 in order; position {i} has id {v.id}"
                )
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate variable names")
        n = len(self.variables)
        cards = self.cards

        def check_var(i: int, where: str) -> None:
            if not 0 <= i < n:
                raise ValidationError(f"unknown variable id {i} in {where}")

        heads: set[int] = set()
        arcs: list[tuple[int, int]] = []
        for cpt in self.cpts:
            check_var(cpt.child, "a CPT")
            for p in cpt.parents:
                check_var(p, "a CPT")
            family = sorted(cpt.parents + (cpt.child,))
            expected_cards = tuple(cards[v] for v in family)
            if cpt.factor.cards != expected_cards:
                raise ValidationError(
                    f"CPT table for variable {cpt.child} has cards {cpt.factor.cards}, "
                    f"expected {expected_cards}"
                )
            if cpt.child in heads:
                raise ValidationError(f"variable {cpt.child} is the head of two nodes")
            heads.add(cpt.child)
            arcs += [(p, cpt.child) for p in cpt.parents]
        for det in self.deterministic:
            check_var(det.child, "a deterministic node")
            for p in det.parents:
                check_var(p, "a deterministic node")
            if det.parent_cards != tuple(cards[p] for p in det.parents):
                raise ValidationError(
                    f"deterministic node for variable {det.child} disagrees with "
                    "the declared parent cardinalities"
                )
            if det.child_card != cards[det.child]:
                raise ValidationError(
                    f"deterministic node for variable {det.child} disagrees with "
                    "the declared child cardinality"
                )
            if det.child in heads:
                raise ValidationError(f"variable {det.child} is the head of two nodes")
            heads.add(det.child)
            arcs += [(p, det.child) for p in det.parents]
        for pot in self.potentials:
            for v in pot.scope:
                check_var(v, "a potential")
            if pot.cards != tuple(cards[v] for v in pot.scope):
                raise ValidationError("potential cards disagree with the variables")
            if pot.values.dtype.kind not in "iuf" or not np.isfinite(pot.values).all():
                raise ValidationError(f"potential over {pot.scope} has a non-finite entry")

        if self.potentials:
            covered = heads | {v for pot in self.potentials for v in pot.scope}
            covered |= {p for c in self.cpts for p in c.parents}
            covered |= {p for d in self.deterministic for p in d.parents}
            missing = set(range(n)) - covered
            if missing:
                raise ValidationError(f"variables {sorted(missing)} appear in no node")
        else:
            missing = set(range(n)) - heads
            if missing:
                raise ValidationError(
                    f"variables {sorted(missing)} have neither a CPT nor a "
                    "deterministic node"
                )

        self._check_acyclic(arcs)

    def _check_acyclic(self, arcs: Iterable[tuple[int, int]]) -> None:
        out: dict[int, list[int]] = {}
        indeg = {v.id: 0 for v in self.variables}
        for a, b in arcs:
            out.setdefault(a, []).append(b)
            indeg[b] += 1
        queue = [v for v, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in out.get(v, ()):
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        if seen != len(self.variables):
            raise ValidationError("cycle detected in the directed structure")

    @property
    def cards(self) -> tuple[int, ...]:
        return tuple(v.card for v in self.variables)

    def variable_by_name(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise ValidationError(f"unknown variable name {name!r}")


def fresh_name(stem: str, taken: set[str]) -> str:
    """``stem``, or ``stem_2``, ``stem_3``, ... : the first not in
    ``taken``, which is added to ``taken``."""
    name, i = stem, 2
    while name in taken:
        name, i = f"{stem}_{i}", i + 1
    taken.add(name)
    return name
