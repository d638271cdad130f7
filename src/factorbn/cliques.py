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


def _members(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _fill(nb: list[int], u: int, clique: int = 0) -> int:
    """Number of missing edges among the neighbours of bit u, given
    that the neighbours in the bitmask ``clique`` are pairwise adjacent.

    Only pairs with an end outside the clique can be missing.  Each is
    counted once, at its lowest outside end o, against the clique and
    the outside neighbours above o.
    """
    inside = nb[u] & clique
    rest = nb[u] & ~clique
    missing = 0
    while rest:
        low = rest & -rest
        rest ^= low
        missing += ((inside | rest) & ~nb[low.bit_length() - 1]).bit_count()
    return missing


def min_fill_order(adj: dict[int, set[int]]) -> tuple[tuple[int, ...], list[set[int]]]:
    """Eliminate the vertex adding the fewest fill edges, lowest id on
    ties.  Returns the order and the elimination clique of each step.

    Vertices become bit positions in ascending id order and adjacency
    one int bitmask per vertex.  Fill scores are kept per vertex.
    Eliminating v makes its neighbours a clique; they are rescored,
    checking only the pairs that reach outside that clique.  Every
    other vertex adjacent to both ends of a new fill edge loses one
    missing pair.  If v adds no fill edge, each neighbour just loses
    its missing pairs with v.  A heap of (score, bit) entries, stale
    ones skipped on pop, yields the same choice as a full rescan.
    """
    ids = sorted(adj)
    bit = {v: i for i, v in enumerate(ids)}
    nb = [sum(1 << bit[u] for u in adj[v]) for v in ids]
    fill = [_fill(nb, i) for i in range(len(ids))]
    heap = list(zip(fill, range(len(ids))))
    heapq.heapify(heap)
    order: list[int] = []
    cliques: list[set[int]] = []
    while heap:
        f, v = heapq.heappop(heap)
        if fill[v] != f:
            continue
        fill[v] = -1  # eliminated: no entry matches
        nbrs = nb[v]
        members = _members(nbrs)
        order.append(ids[v])
        cliques.append({ids[v], *map(ids.__getitem__, members)})
        for a in members:
            nb[a] ^= 1 << v
        if f == 0:
            for a in members:
                lost = (nb[a] & ~nbrs).bit_count()
                if lost:
                    fill[a] -= lost
                    heapq.heappush(heap, (fill[a], a))
            continue
        changed = 0
        above = nbrs
        for a in members:
            above ^= 1 << a
            for b in _members(above & ~nb[a]):
                common = nb[a] & nb[b] & ~nbrs
                changed |= common
                for w in _members(common):
                    fill[w] -= 1
        for a in members:
            nb[a] = (nb[a] | nbrs) ^ (1 << a)
        for a in members:
            fill[a] = _fill(nb, a, nbrs)
            heapq.heappush(heap, (fill[a], a))
        for w in _members(changed):
            heapq.heappush(heap, (fill[w], w))
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
