"""Moralization, min-fill triangulation, and clique-size accounting.

The cost proxy for exact inference is the total clique size of the
triangulated interaction graph: the sum over maximal cliques of the
product of member cardinalities.  Factors contribute their whole scope
as a clique (for CPTs and deterministic nodes this is the family, i.e.
moralization; transformation potentials contribute their own scopes).
Variable elimination plans its order on the same graph, built by the
same :func:`scope_graph`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .network import Network


@dataclass(frozen=True)
class CliqueReport:
    """Elimination order, the maximal cliques it induces, per-variable
    cardinalities, and the total clique size."""

    elimination_order: tuple[int, ...]
    cliques: tuple[tuple[int, ...], ...]
    cardinalities: tuple[int, ...]

    def clique_sizes(self) -> tuple[int, ...]:
        sizes = []
        for clique in self.cliques:
            n = 1
            for v in clique:
                n *= self.cardinalities[v]
            sizes.append(n)
        return tuple(sizes)

    @property
    def total(self) -> int:
        return sum(self.clique_sizes())

    @property
    def max_clique_size(self) -> int:
        return max(self.clique_sizes())


def factor_scopes(net: Network) -> list[tuple[int, ...]]:
    """The scope of every factor in the network, families included."""
    scopes = [tuple(sorted(c.parents + (c.child,))) for c in net.cpts]
    scopes += [tuple(sorted(d.parents + (d.child,))) for d in net.deterministic]
    scopes += [p.scope for p in net.potentials]
    return scopes


def scope_graph(
    scopes: Iterable[Iterable[int]], vertices: Iterable[int]
) -> dict[int, set[int]]:
    """Adjacency over ``vertices``: the members of each scope that are
    vertices become a clique; other scope members are ignored."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for scope in scopes:
        members = [v for v in scope if v in adj]
        if len(members) > 1:
            for v in members:
                adj[v].update(members)
    for v, nbrs in adj.items():
        nbrs.discard(v)
    return adj


def interaction_graph(net: Network) -> dict[int, set[int]]:
    """Adjacency over variable ids: each factor scope becomes a clique."""
    return scope_graph(factor_scopes(net), range(len(net.variables)))


def _fill(
    adj: dict[int, set[int]], v: int, clique: set[int] | frozenset[int] = frozenset()
) -> int:
    """Number of missing edges among the neighbours of v, given that
    the neighbours in ``clique`` are pairwise adjacent.

    Only pairs with an end outside the clique can be missing.  Over the
    outside neighbours o, sum |nbrs - adj[o]| counts o itself, each
    missing pair inside the outside set twice and each missing pair
    between it and the clique once; sum |outside - adj[o]| counts o and
    the inside pairs twice.
    """
    nbrs = adj[v]
    outside = nbrs - clique
    if not outside:
        return 0
    near = list(map(adj.__getitem__, outside))
    to_all = sum(map(len, map(nbrs.difference, near)))
    to_outside = sum(map(len, map(outside.difference, near)))
    return (2 * to_all - to_outside - len(outside)) // 2


def min_fill_order(adj: dict[int, set[int]]) -> tuple[tuple[int, ...], list[set[int]]]:
    """Eliminate the vertex adding the fewest fill edges, lowest id on
    ties.  Returns the order and the elimination clique of each step.

    Fill scores are kept per vertex.  Eliminating v makes its
    neighbours a clique; they are rescored, checking only the pairs
    that reach outside that clique.  Every other vertex adjacent to
    both ends of a new fill edge loses one missing pair.  A heap of
    (score, id) entries, stale ones skipped on pop, yields the same
    choice as a full rescan.
    """
    work = {v: set(nb) for v, nb in adj.items()}
    fill = {v: _fill(work, v) for v in work}
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    order: list[int] = []
    cliques: list[set[int]] = []
    while heap:
        f, v = heapq.heappop(heap)
        if v not in work or fill[v] != f:
            continue
        nbrs = work.pop(v)
        del fill[v]
        order.append(v)
        cliques.append(nbrs | {v})
        for a in nbrs:
            work[a].discard(v)
        changed = set(nbrs)
        for a in nbrs:
            for b in nbrs - work[a]:
                if a < b:
                    for w in work[a] & work[b]:
                        if w not in nbrs:
                            fill[w] -= 1
                            changed.add(w)
        for a in nbrs:
            work[a] |= nbrs
            work[a].discard(a)
        for u in nbrs:
            fill[u] = _fill(work, u, nbrs)
        for u in changed:
            heapq.heappush(heap, (fill[u], u))
    return tuple(order), cliques


def moralize_and_triangulate(net: Network) -> CliqueReport:
    """Triangulate the interaction graph and report the maximal cliques.

    Elimination cliques that are subsets of another are dropped, so the
    total counts each maximal clique once.
    """
    order, raw = min_fill_order(interaction_graph(net))
    maximal: list[set[int]] = []
    for c in raw:
        if any(c <= other for other in maximal):
            continue
        maximal = [m for m in maximal if not m <= c]
        maximal.append(c)
    cliques = tuple(sorted(tuple(sorted(c)) for c in maximal))
    return CliqueReport(order, cliques, net.cards)
