"""Moralization, min-fill triangulation, and clique-size accounting.

The cost proxy for exact inference is the total clique size of the
triangulated interaction graph: the sum over maximal cliques of the
product of member cardinalities.  Every table contributes its scope as
a clique (for CPTs and deterministic nodes this is the family, i.e.
moralization; potentials and a star's h and g tables, their own scope).

:func:`min_fill_plan` is the one planner, for clique accounting and for
variable elimination alike: it eliminates with :func:`min_fill_steps` on
the :func:`moral_graph` of scope bitmasks (one neighbour bitmask per
variable id), sums the entries of the elimination cliques, stopping
once they pass a bound, and labels a run that ends by
:func:`colouring` its cliques.  The accounting plans the network's
interaction graph in full; a network's layout plans it up to
inference's bound, and a query plans its own reduced graph only above
that bound (see ``Network.layout``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import inf, prod
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from .network import Network

_GONE = sys.maxsize  # the score of an eliminated or absent vertex


@dataclass(frozen=True)
class CliqueReport:
    """Elimination order, the maximal cliques it induces, the size of
    each clique (the product of its members' cardinalities), and the
    total clique size."""

    elimination_order: tuple[int, ...]
    cliques: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @property
    def max_clique_size(self) -> int:
        """The largest clique size; 0 for a network without variables."""
        return max(self.sizes, default=0)


def moral_graph(masks: Iterable[int]) -> dict[int, int]:
    """The graph in which each scope, given as a bitmask (bit v for
    variable v), becomes a clique, as the bitmask of each vertex's
    neighbours.  A scope member with no other member still becomes a
    vertex, with mask 0."""
    nb: dict[int, int] = {}
    for mask in masks:
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            nb[v] = nb.get(v, 0) | mask
    return {v: mask ^ 1 << v for v, mask in nb.items()}


def _members(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def min_fill_steps(nb: dict[int, int]) -> Iterator[tuple[int, int]]:
    """Eliminate the vertex adding the fewest fill edges, lowest id on
    ties, until no vertex is left, yielding each step's vertex and
    elimination clique (the vertex and its neighbours then) as a
    bitmask; a caller may stop early.

    ``nb`` maps each vertex to the bitmask of its neighbours (bit u for
    vertex u; no vertex is its own neighbour).  Vertices index a list,
    so their ids should be small, as the variable ids of a
    :class:`Network` are.

    Fill scores sit in a list indexed by vertex (absent and eliminated
    ids score ``_GONE``); each step takes the first minimum.  Eliminating
    v makes its neighbours K a clique by adding f fill edges, and the
    scores are updated rather than recomputed:

    - a vertex outside K loses one for each fill edge with both ends
      among its neighbours;
    - a member a of K loses v, keeps its other neighbours O and gains
      the members F_a it missed.  It drops the |O| missing pairs of v
      with O, and the fill edges among its old neighbours in K: the f
      fill edges less the Σ_{x in F_a} |F_x| - e(F_a) that touch a or
      F_a, where e(F_a) counts those inside F_a.  It gains the missing
      pairs between F_a and O.

    So a member is rescored from its own fill edges, never by
    rescanning its neighbourhood, and one without fill edges just drops
    |O| + f; when f is 0, as on a chordal graph at every step, every
    member is one of those.  The cost stays small on cliques of
    hundreds of members.
    """
    adj = [0] * (max(nb, default=-1) + 1)
    fill = [_GONE] * len(adj)
    for v, mask in nb.items():
        adj[v] = mask
    for v, mask in nb.items():
        missing = 0  # each missing pair counted at its lower end
        while mask:
            low = mask & -mask
            mask ^= low
            missing += (mask & ~adj[low.bit_length() - 1]).bit_count()
        fill[v] = missing
    for _ in nb:
        f = min(fill)
        v = fill.index(f)
        fill[v] = _GONE
        clique = adj[v]
        gone = 1 << v
        yield v, clique | gone
        new: dict[int, int] = {}  # F_a of each member with a fill edge
        rest = clique
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            na = adj[a] = adj[a] ^ gone
            if missed := clique & ~na ^ low:
                new[a] = missed
        rest = clique
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            na = adj[a]
            out = na & ~clique
            missed = new.get(a)
            if missed is None:
                fill[a] -= out.bit_count() + f
                continue
            delta = -out.bit_count() - f
            inside = 0  # twice the fill edges inside F_a
            m = missed
            while m:
                low_x = m & -m
                m ^= low_x
                x = low_x.bit_length() - 1
                fx = new[x]
                delta += fx.bit_count() + (out & ~adj[x]).bit_count()
                inside += (fx & missed).bit_count()
                if x > a:  # the fill edge (a, x), once
                    common = na & adj[x] & ~clique
                    while common:
                        low_w = common & -common
                        common ^= low_w
                        fill[low_w.bit_length() - 1] -= 1
            fill[a] += delta - inside // 2
            adj[a] = na | missed


class Plan(NamedTuple):
    """A min-fill elimination plan: the order; each step's elimination
    clique as a bitmask (the eliminated vertex and its neighbours then);
    the entries of each of those cliques, the product of its members'
    cardinalities; each vertex's einsum label (its :func:`colouring`, -1
    for a one-state vertex); and the number of labels used.  ``cliques``,
    ``sizes`` and ``labels`` are parallel to ``order``."""

    order: tuple[int, ...]
    cliques: tuple[int, ...]
    sizes: tuple[int, ...]
    labels: tuple[int, ...]
    colours: int


def min_fill_plan(
    masks: Iterable[int], cards: Sequence[int], bound: float = inf
) -> Plan | None:
    """The min-fill plan of the :func:`moral_graph` of ``masks``, with
    ``cards`` giving each variable's cardinality; None, and min-fill
    stopped, as soon as the entries summed so far pass ``bound``.  The
    one-state vertices take no colour, as inference indexes them out."""
    order: list[int] = []
    cliques: list[int] = []
    sizes: list[int] = []
    entries = 0
    for v, clique in min_fill_steps(moral_graph(masks)):
        size = prod(cards[u] for u in _members(clique))
        entries += size
        if entries > bound:
            return None
        order.append(v)
        cliques.append(clique)
        sizes.append(size)
    labels = colouring(order, cliques, sum(1 << v for v in order if cards[v] == 1))
    return Plan(tuple(order), tuple(cliques), tuple(sizes), tuple(labels),
                max(labels, default=-1) + 1)


def colouring(order: Sequence[int], cliques: Sequence[int], skip: int) -> list[int]:
    """A colour (0, 1, ...) for each vertex of an elimination ``order``
    outside the bitmask ``skip``, such that no two members of one
    elimination clique share a colour, as a list parallel to ``order``
    (-1 for a vertex in ``skip``).

    The vertices are taken in reverse order, and each gets the lowest
    colour that no other member of its clique holds: those members are
    its neighbours later in the order, in the chordal graph that the
    order triangulates.  This greedy colouring of a perfect elimination
    order is optimal (Gavril 1972): it uses as many colours as the
    largest clique has members outside ``skip``.
    """
    colour = [-1] * len(order)
    classes: list[int] = []  # the vertices of each colour, as a bitmask
    for i in reversed(range(len(order))):
        v, clique = order[i], cliques[i]
        if skip >> v & 1:
            continue
        for c, members in enumerate(classes):
            if not members & clique:
                classes[c] = members | 1 << v
                break
        else:
            c = len(classes)
            classes.append(1 << v)
        colour[i] = c
    return colour


def moralize_and_triangulate(net: Network) -> CliqueReport:
    """Triangulate the interaction graph and report the maximal cliques.

    The order, the elimination cliques and their sizes are the
    :func:`min_fill_plan` of the network's scope masks, run in full on
    each call; it builds no table.  Elimination cliques that are
    subsets of another are dropped, so the total counts each maximal
    clique once.  Only an earlier clique can hold a later one: each
    clique contains its own eliminated vertex, which no later clique
    does.
    """
    plan = min_fill_plan(net.scope_masks, net.cards)
    maximal: list[tuple[int, int]] = []
    for c, size in zip(plan.cliques, plan.sizes):
        if not any(c & other == c for other, _ in maximal):
            maximal.append((c, size))
    found = sorted((tuple(_members(c)), size) for c, size in maximal)
    return CliqueReport(plan.order, tuple(c for c, _ in found), tuple(s for _, s in found))
