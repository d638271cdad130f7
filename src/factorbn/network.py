"""The network model: variables, CPTs, deterministic nodes, and the
extra potentials a transformation may introduce, grouped into stars by
their hidden variable where they replace a deterministic node."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cliques import Plan, min_fill_plan
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

    Every variable heads a CPT, a deterministic node or a star, or
    appears in a potential, and none heads two.  So a transformed
    network's hidden variables need no node, while a parent with no
    table of its own and no potential is rejected.  Every table (a CPT,
    a deterministic node's family, a potential) names known variables
    with their cardinalities.  Potential entries must be finite reals.
    The directed part must be acyclic.

    ``stars`` records which deterministic nodes the potentials replace
    (see :class:`Star`).  A star's child counts as a head, and its
    hidden variable B appears in no family, only in the star's own
    potentials: exactly one over (child, B) and one over each
    (parent_i, B).
    Only :func:`~factorbn.inference.transform_network` records stars:
    the file format has no field for them, so a parsed network has none
    and inference keeps every one of its potentials.  Stars are left
    out of equality, so a transformed network equals its parsed copy.

    Query-independent data is built once and kept for the network's
    lifetime: ``cards``, ``parent_map`` and ``ancestor_masks`` (each
    variable's ancestors as a bitmask, the walk that also checks for a
    cycle) by validation, ``scope_masks`` (each table's scope as a
    bitmask), ``tables``, the one-state variables and ``plan`` (the
    min-fill elimination plan of the interaction graph) on first use.
    Inference reads only these, so a query rebuilds nothing that
    depends on the network alone.
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

        # one check for every table: its scope ids are known and its
        # declared cards are the variables'
        tables = [("a CPT", c.factor.scope, c.factor.cards) for c in self.cpts]
        tables += [
            ("a deterministic node", d.parents + (d.child,), d.parent_cards + (d.child_card,))
            for d in self.deterministic
        ]
        tables += [("a potential", p.scope, p.cards) for p in self.potentials]
        for where, scope, declared in tables:
            for v in scope:
                if not 0 <= v < n:
                    raise ValidationError(f"unknown variable id {v} in {where}")
            if declared != tuple(cards[v] for v in scope):
                raise ValidationError(
                    f"{where} over variables {scope} has cards {declared}, "
                    f"expected {tuple(cards[v] for v in scope)}"
                )

        over: dict[int, list[tuple[int, ...]]] = {}  # potential scopes per hidden variable
        for star in self.stars:
            for v in (star.child, *star.parents, star.hidden):
                if not 0 <= v < n:
                    raise ValidationError(
                        f"unknown variable id {v} in the star of variable {star.child}"
                    )
            over[star.hidden] = []
        heads = [c.child for c in self.cpts] + [d.child for d in self.deterministic]
        heads += [s.child for s in self.stars]
        if len(set(heads)) != len(heads):
            twice = next(v for v in heads if heads.count(v) > 1)
            raise ValidationError(f"variable {twice} is the head of two nodes")
        members = {v for child, parents in self.parent_map.items() for v in (child, *parents)}
        if len(over) < len(self.stars) or not members.isdisjoint(over):
            raise ValidationError("a star's hidden variable appears outside its star")
        for pot in self.potentials:
            if pot.values.dtype.kind not in "iuf" or not np.isfinite(pot.values).all():
                raise ValidationError(f"potential over {pot.scope} has a non-finite entry")
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

        # one coverage rule: a variable heads a node or sits in a potential
        missing = set(range(n)).difference(self.parent_map, *(p.scope for p in self.potentials))
        if missing:
            raise ValidationError(
                f"variables {sorted(missing)} head no node and appear in no potential"
            )
        self.ancestor_masks  # the one topological walk; raises on a cycle

    @cached_property
    def cards(self) -> tuple[int, ...]:
        return tuple(v.card for v in self.variables)

    @cached_property
    def _one_state(self) -> tuple[int, ...]:
        """The ids of the variables with one state, which inference
        indexes out of every table, as it does a one-state finding."""
        return tuple(v for v, card in enumerate(self.cards) if card == 1)

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
        u for variable u), built parents first by Kahn's algorithm, so
        without recursion.  Raises ValidationError when the directed part
        has a cycle; ``Network`` builds it to check exactly that."""
        n = len(self.variables)
        waiting = [0] * n
        children: dict[int, list[int]] = {}
        for child, parents in self.parent_map.items():
            waiting[child] = len(parents)
            for p in parents:
                children.setdefault(p, []).append(child)
        masks = [1 << v for v in range(n)]
        order = [v for v, w in enumerate(waiting) if not w]
        for v in order:  # grows while it is walked; masks[v] is complete here
            for c in children.get(v, ()):
                masks[c] |= masks[v]
                waiting[c] -= 1
                if not waiting[c]:
                    order.append(c)
        if len(order) != n:
            raise ValidationError("cycle detected in the directed structure")
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

    @cached_property
    def plan(self) -> Plan:
        """The min-fill plan of the interaction graph, in which every
        table's scope is a clique: the order, each step's elimination
        clique and their summed entries.  Clique accounting reports it;
        inference eliminates in its order when its entries are few."""
        return min_fill_plan(self.scope_masks, self.cards)

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
