"""The network model: variables, CPTs, deterministic nodes, and the
extra potentials a transformation may introduce, grouped into stars by
their hidden variable where they replace a deterministic node."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import Factor, Variable
from .errors import ValidationError
from .functions import DeterministicFunction, deterministic_to_potential

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
class Star:
    """A factorized node: the deterministic family of ``child`` over
    ``parents``, held as potentials through the hidden variable B
    (``hidden``).

    The star owns exactly the potentials of the network whose scope
    holds B: h(child, B) and one g_i(parent_i, B) per parent.  Summed
    over B their product is the family's 0/1 indicator, so, like a CPT,
    the star sums to 1 over the child and B for every parent
    configuration, and inference drops it by the same barren rule.
    ``transform_network`` verifies every form before it records a star;
    ``Network`` checks only the star's shape.
    """

    child: int
    parents: tuple[int, ...]
    hidden: int

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))


@dataclass(frozen=True)
class Network:
    """A directed model over discrete variables.

    Every variable is either the head of exactly one CPT or exactly one
    deterministic node, except when ``potentials`` is non-empty: a
    transformed network may carry headless variables (the hidden ones)
    as long as each appears in some potential.  Potential entries must
    be finite reals.  The directed part must be acyclic.

    ``stars`` records which deterministic nodes the potentials replace
    (see :class:`Star`).  A star's child counts as a head, and its
    hidden variable B appears in no family, only in the star's own
    potentials: exactly one over (child, B) and one over each
    (parent_i, B).
    Only :func:`~factorbn.inference.transform_network` records stars:
    the file format has no field for them, so a parsed network has none
    and inference keeps every one of its potentials.  Stars are left
    out of equality, so a transformed network equals its parsed copy.

    Query-independent data is built on first use and kept for the
    network's lifetime: ``cards``, ``parent_map``, ``ancestor_masks``
    (each variable's ancestors as a bitmask), ``scope_masks`` (each
    table's scope as a bitmask), and ``tables``.  Inference reads only
    these, so a query rebuilds nothing that depends on the network
    alone.
    """

    variables: tuple[Variable, ...]
    cpts: tuple[Cpt, ...] = ()
    deterministic: tuple[DeterministicFunction, ...] = ()
    potentials: tuple[Factor, ...] = ()
    stars: tuple[Star, ...] = field(default=(), compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "cpts", tuple(self.cpts))
        object.__setattr__(self, "deterministic", tuple(self.deterministic))
        object.__setattr__(self, "potentials", tuple(self.potentials))
        object.__setattr__(self, "stars", tuple(self.stars))
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

        families = [(c.child, c.parents, "a CPT") for c in self.cpts]
        families += [(d.child, d.parents, "a deterministic node") for d in self.deterministic]
        families += [(s.child, s.parents, f"the star of variable {s.child}") for s in self.stars]
        heads: set[int] = set()
        for child, parents, where in families:
            for v in (child, *parents):
                check_var(v, where)
            if child in heads:
                raise ValidationError(f"variable {child} is the head of two nodes")
            heads.add(child)
        for cpt in self.cpts:
            family = sorted(cpt.parents + (cpt.child,))
            expected_cards = tuple(cards[v] for v in family)
            if cpt.factor.cards != expected_cards:
                raise ValidationError(
                    f"CPT table for variable {cpt.child} has cards {cpt.factor.cards}, "
                    f"expected {expected_cards}"
                )
        for det in self.deterministic:
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
        for pot in self.potentials:
            for v in pot.scope:
                check_var(v, "a potential")
            if pot.cards != tuple(cards[v] for v in pot.scope):
                raise ValidationError("potential cards disagree with the variables")
            if pot.values.dtype.kind not in "iuf" or not np.isfinite(pot.values).all():
                raise ValidationError(f"potential over {pot.scope} has a non-finite entry")

        over: dict[int, list[tuple[int, ...]]] = {}  # potential scopes per hidden variable
        for star in self.stars:
            check_var(star.hidden, f"the star of variable {star.child}")
            over[star.hidden] = []
        members = {v for child, parents, _ in families for v in (child, *parents)}
        if len(over) < len(self.stars) or not members.isdisjoint(over):
            raise ValidationError("a star's hidden variable appears outside its star")
        for pot in self.potentials:
            for v in pot.scope:
                if v in over:
                    over[v].append(pot.scope)
        for star in self.stars:
            b = star.hidden
            shape = sorted(tuple(sorted((m, b))) for m in (star.child, *star.parents))
            if sorted(over[b]) != shape:
                raise ValidationError(
                    f"the star of variable {star.child}: the potentials over variable "
                    f"{b} must have the scopes {shape}"
                )

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

        self._parents_first()

    def _parents_first(self) -> list[int]:
        """Every variable id, each after its parents (Kahn's algorithm).
        Raises ValidationError when the directed part has a cycle."""
        waiting = [0] * len(self.variables)
        children: dict[int, list[int]] = {}
        for child, parents in self.parent_map.items():
            waiting[child] = len(parents)
            for p in parents:
                children.setdefault(p, []).append(child)
        order = [v for v, w in enumerate(waiting) if not w]
        for v in order:  # grows while it is walked
            for c in children.get(v, ()):
                waiting[c] -= 1
                if not waiting[c]:
                    order.append(c)
        if len(order) != len(waiting):
            raise ValidationError("cycle detected in the directed structure")
        return order

    @cached_property
    def cards(self) -> tuple[int, ...]:
        return tuple(v.card for v in self.variables)

    @cached_property
    def parent_map(self) -> dict[int, tuple[int, ...]]:
        """The parents of each head: CPT, deterministic node or star."""
        out = {c.child: c.parents for c in self.cpts}
        out.update((d.child, d.parents) for d in self.deterministic)
        out.update((s.child, s.parents) for s in self.stars)
        return out

    @cached_property
    def ancestor_masks(self) -> tuple[int, ...]:
        """For each variable id v, the bitmask of v and its ancestors (bit
        u for variable u), built parents first, without recursion."""
        parents = self.parent_map
        masks = [1 << v for v in range(len(self.variables))]
        for v in self._parents_first():
            for p in parents.get(v, ()):
                masks[v] |= masks[p]
        return tuple(masks)

    @cached_property
    def scope_masks(self) -> tuple[int, ...]:
        """The scope of each entry of ``tables``, in the same order, as a
        bitmask (bit v for variable v), built without a table: a CPT's
        family, a deterministic node's family, a potential's scope."""
        scopes = [(c.child, *c.parents) for c in self.cpts]
        scopes += [(d.child, *d.parents) for d in self.deterministic]
        scopes += [p.scope for p in self.potentials]
        return tuple(sum(1 << v for v in scope) for scope in scopes)

    @cached_property
    def tables(self) -> tuple[tuple[int | None, tuple[int, ...], np.ndarray], ...]:
        """(head, scope, float64 table) for every CPT, every deterministic
        node (its indicator) and every potential, in that order.

        A potential over a star's hidden variable carries the star's
        child as head; the other potentials carry None.  The tables are
        read-only and shared by every query on the network.
        """
        out = [(c.child, c.factor.scope, c.factor.values) for c in self.cpts]
        for d in self.deterministic:
            ind = deterministic_to_potential(d)
            out.append((d.child, ind.scope, ind.values))
        star_of = {s.hidden: s.child for s in self.stars}
        for p in self.potentials:
            head = next((star_of[v] for v in p.scope if v in star_of), None)
            out.append((head, p.scope, p.values))
        tables = []
        for head, scope, values in out:
            values = np.asarray(values, dtype=np.float64)
            values.flags.writeable = False
            tables.append((head, scope, values))
        return tuple(tables)

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
