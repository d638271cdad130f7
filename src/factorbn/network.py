"""The network model: variables, CPTs, deterministic nodes, free
potentials, and the stars that hold a factorized deterministic node in
its form."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .cliques import Plan, min_fill_plan
from .core import Factor, Variable
from .errors import ValidationError
from .factorization import FactorizedForm
from .functions import DeterministicFunction, indicator_table

ROW_SUM_TOLERANCE = 1e-9
# Up to this many elimination-clique entries in a network's min-fill plan
# (summed over every step), its layout is plan-ordered and coloured, so a
# query eliminates in that plan's order and plans nothing itself.  Planning
# a 40-node, 8-task CAT query on its reduced graph (moral graph and
# min-fill) takes 0.25-0.35 ms, and its einsums cost 10-22 ns per loop
# entry in buckets of several tables and 2^9-2^16 entries, 0.6-8 ns in
# one-table buckets (CPython 3.11, numpy 2.4, 2-core VM).  A restricted
# order's steps lie inside the plan's cliques, so the plan's entries, times
# the query's states, bound its einsums' loop entries: 2^17 entries at 10 ns
# are 1.3 ms, a few plannings.  On 192 40/8 cat-session networks (48
# sessions at seeds 1 and 99), the plan's order answered faster, by median
# query, on all 188 below the bound and on 3 of the 4 above it (1.3e5-2.5e5
# entries).  Models of 60 nodes and 12 tasks plan 3.8e5 entries and more,
# so they keep per-query min-fill.
PLAN_ONCE_ENTRIES = 1 << 17


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
    ``parents``, held only as its ``form`` through the hidden variable B
    (``hidden``): h(child, B) and one g_i(parent_i, B) per parent, the
    form's exact int64 tables; the star keeps no other copy of them.

    Summed over B their product is the family's 0/1 indicator, so, like
    a CPT, the star sums to 1 over the child and B for every parent
    configuration, and inference drops it by the same barren rule.
    ``transform_network`` verifies every form before it records a star;
    ``Network`` checks the cards of the star's tables.
    """

    child: int
    parents: tuple[int, ...]
    hidden: int
    form: FactorizedForm

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple(self.parents))
        if len({self.child, *self.parents}) != len(self.parents) + 1:
            raise ValidationError("a star's child and parents must be distinct")
        if len(self.form.g) != len(self.parents):
            raise ValidationError("a star needs one g table per parent")

    def tables(self) -> tuple[tuple[tuple[int, int], np.ndarray], ...]:
        """(scope, table) for h, then for each g_i: views of the form's
        exact int64 tables with the axes in id order, transposed only
        when B has the lower id.  Only ``Network.layout`` holds them as
        float64."""
        b = self.hidden
        return tuple(((v, b), t) if v < b else ((b, v), t.T)
                     for v, t in zip((self.child, *self.parents), (self.form.h, *self.form.g)))


class Layout(NamedTuple):
    """A network's tables arranged for elimination.

    ``rank`` gives each variable's rank, and every other bitmask here is
    over ranks (bit r for the variable at rank r).  ``tables`` holds, in
    ``Network.scope_masks`` order, every CPT, deterministic node (its 0/1
    indicator), free potential and star h or g table (:meth:`Star.tables`)
    as an ``inference.Table``: its scope as a rank mask, its axes' ranks,
    ascending, their labels, its values (read-only C-contiguous float64 in
    that axis order, converted here once per network unless its source is
    float64 in that order already, then a view of it) and its lowest rank.
    ``heads`` holds each one's head: a star's child for its tables, None
    for a free potential, which every query keeps.

    A network whose min-fill plan, a ``Plan(order, cliques, sizes,
    labels, colours)``, sums to at most ``PLAN_ONCE_ENTRIES`` entries
    keeps it as ``plan``, the only plan a network keeps, and ranks each
    variable by its position in the plan's order, so ``plan.labels``
    gives the einsum label at each rank: no two variables that meet in
    one elimination step share one.  Above the bound, ``plan`` is None,
    the ranks are the ids and the tables have no labels: each query
    plans and labels its own elimination.
    """

    rank: tuple[int, ...]
    plan: Plan | None
    heads: tuple[int | None, ...]
    tables: tuple[tuple, ...]  # each an inference.Table


@dataclass(frozen=True)
class Network:
    """A directed model over discrete variables.

    Every variable heads a CPT, a deterministic node or a star, is a
    star's hidden variable, or appears in a potential, and none heads
    two.  So a parent with no table of its own and no potential is
    rejected.  Every table (a CPT, a deterministic node's family, a
    potential, a star's h and g tables) names known variables with
    their cardinalities.  Potential entries must be finite reals.  The
    directed part must be acyclic.

    ``stars`` holds the factorized nodes (see :class:`Star`) and
    ``potentials`` the free potentials.  Each star's hidden variable is
    its own and sits in no family and in no free potential.  Only
    :func:`~factorbn.inference.transform_network` records stars; the
    file format has none, so a parsed copy holds their tables as free
    potentials: it writes the same bytes, but is not equal.

    Query-independent data is built once and kept for the network's
    lifetime: ``cards``, ``parent_map`` and ``ancestor_masks`` (each
    variable's ancestors as a bitmask, the walk that also checks for a
    cycle) by validation, ``scope_masks`` (each table's scope as a
    bitmask), the one-state variables, the stars' hidden variables, the
    free potentials' ancestors and ``layout`` (every table as float64,
    arranged for elimination, which decides once whether the network
    is planned, and keeps the plan if it is) on first use.
    Inference reads only these, so a query rebuilds nothing that
    depends on the network alone.
    """

    variables: tuple[Variable, ...]
    cpts: tuple[Cpt, ...] = ()
    deterministic: tuple[DeterministicFunction, ...] = ()
    potentials: tuple[Factor, ...] = ()
    stars: tuple[Star, ...] = ()

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
        tables += [(f"the star of variable {s.child}", scope, table.shape)
                   for s in self.stars for scope, table in s.tables()]
        for where, scope, declared in tables:
            for v in scope:
                if not 0 <= v < n:
                    raise ValidationError(f"unknown variable id {v} in {where}")
            if declared != tuple(cards[v] for v in scope):
                raise ValidationError(
                    f"{where} over variables {scope} has cards {declared}, "
                    f"expected {tuple(cards[v] for v in scope)}"
                )

        heads = [c.child for c in self.cpts] + [d.child for d in self.deterministic]
        heads += [s.child for s in self.stars]
        if len(set(heads)) != len(heads):
            twice = next(v for v in heads if heads.count(v) > 1)
            raise ValidationError(f"variable {twice} is the head of two nodes")
        hidden = {s.hidden for s in self.stars}
        free = set().union(*(p.scope for p in self.potentials))
        if len(hidden) < len(self.stars) or not hidden.isdisjoint(
            free.union(self.parent_map, *self.parent_map.values())
        ):
            raise ValidationError("a star's hidden variable appears outside its star")
        for pot in self.potentials:
            if pot.values.dtype.kind not in "iuf" or not np.isfinite(pot.values).all():
                raise ValidationError(f"potential over {pot.scope} has a non-finite entry")

        # one coverage rule: a variable heads a node, is a star's hidden
        # variable or sits in a potential
        missing = set(range(n)).difference(self.parent_map, hidden, free)
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
    def _hidden(self) -> frozenset[int]:
        """The stars' hidden variable ids, which no query may name."""
        return frozenset(s.hidden for s in self.stars)

    @cached_property
    def _potential_ancestors(self) -> int:
        """Every variable of a free potential and its ancestors, as a bitmask."""
        ancestors = self.ancestor_masks
        seen = 0
        for p in self.potentials:
            for v in p.scope:
                seen |= ancestors[v]
        return seen

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
        """The scope of each table of ``layout``, in the same order, as a
        bitmask (bit v for variable v): a CPT's family, a deterministic
        node's family, a potential's scope, a star table's scope."""
        scopes = [(c.child, *c.parents) for c in self.cpts]
        scopes += [(d.child, *d.parents) for d in self.deterministic]
        scopes += [p.scope for p in self.potentials]
        scopes += [scope for s in self.stars for scope, _ in s.tables()]
        return tuple(sum(1 << v for v in scope) for scope in scopes)

    @cached_property
    def layout(self) -> Layout:
        """The tables arranged for elimination (see :class:`Layout`).

        This runs a min-fill on the interaction graph, in which every
        table's scope is a clique, that stops once its summed entries
        pass ``PLAN_ONCE_ENTRIES``, so a large network is found to be
        above the bound without planning it whole; a run that ends is
        the layout's plan."""
        plan = min_fill_plan(self.scope_masks, self.cards, PLAN_ONCE_ENTRIES)
        if plan is None:
            rank = range(len(self.cards))
        else:
            rank = sorted(range(len(plan.order)), key=plan.order.__getitem__)  # order's inverse
        sources = [(c.child, c.factor.scope, c.factor.values) for c in self.cpts]
        sources += [(d.child, d.parents + (d.child,), indicator_table(d)) for d in self.deterministic]
        sources += [(None, p.scope, p.values) for p in self.potentials]
        sources += [(s.child, scope, table) for s in self.stars for scope, table in s.tables()]
        tables = []
        for _, scope, values in sources:
            ranks = [rank[v] for v in scope]
            axes = sorted(range(len(ranks)), key=ranks.__getitem__)
            ranks = tuple(sorted(ranks))
            # keeps a 0-d table 0-d, and copies only to convert or reorder
            values = np.asarray(values.transpose(axes), dtype=np.float64, order="C")
            values.flags.writeable = False
            labels = None if plan is None else tuple(plan.labels[r] for r in ranks)
            tables.append((sum(1 << r for r in ranks), ranks, labels, values, min(ranks, default=-1)))
        return Layout(tuple(rank), plan, tuple(head for head, _, _ in sources), tuple(tables))

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
