"""Search for a minimal hyperrectangle base of a deterministic function.

The level sets of the function give a lower bound: a base with k
rectangles spans at most a k-dimensional space of indicator vectors,
and the L level indicators are linearly independent, so k >= L.  The
solver searches sizes upward from L until the first feasible size and
returns the lexicographically smallest feasible rectangle subset there
(by position in the canonical rectangle enumeration).

Feasibility of a subset is decided in three stages, each sound:

1. coverage: the rectangles must cover the whole space (every level
   set must be denoted, and expressions never leave the union of their
   leaves);
2. span: every level indicator must lie in the rational span of the
   rectangle indicators (a necessary consequence of the signed-count
   reconstruction), tested exactly by one fraction-free elimination over
   integers: the subset's rows are reduced to an echelon basis and every
   level row must reduce to zero against it;
3. closure: an expression for every level set must actually exist in
   the two-operator algebra, found by uniform-cost search over
   reachable configuration sets with minimal leaf count first.

Two algebraic consequences of the span condition cut the first two
sizes down sharply.  At k == L the rectangle span equals the level-set
span, and a 0/1 vector in the span of disjoint level indicators is a
union of level sets, so only "stripe union" rectangles qualify.  At
k == L + 1 the span has one extra dimension, so modulo the level-set
span all rectangle images live on a single line: after normalization,
every non-stripe-union rectangle in the subset must fall in one
projective class.  Both filters preserve completeness at their size,
and larger sizes fall back to depth-first search with coverage pruning.

The search keeps one proven lower bound: it starts at L and rises by
one for each size ruled out with no budget cap in the way.  The answer
is the first base found, or else the greedy cover, and it is proved
minimal exactly when its size equals the bound.  A budget cap, the
candidate-enumeration cap included, ends the search with that answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import combinations, product as iproduct
from math import gcd, inf
from typing import Iterable, Sequence

from .errors import BudgetExceededError, ValidationError
from .factorization import level_sets
from .functions import DeterministicFunction
from .rectangles import Base, Config, Expression, Hyperrectangle


@dataclass(frozen=True)
class SearchBudget:
    """Resource caps for the solver.

    ``max_rectangles`` bounds the candidate enumeration,
    ``max_base`` the largest base cardinality tried, ``max_closure``
    the number of distinct configuration sets settled per closure
    search, and ``wall_clock`` (seconds, None for unlimited) the whole
    solve.  Hitting a cap never turns into a silent negative answer:
    the solver returns the base in hand, and the sizes the cap left
    open stay out of its lower bound.
    """

    max_rectangles: int = 100_000
    max_base: int = 32
    max_closure: int = 2000
    wall_clock: float | None = None

    def __post_init__(self):
        for name in ("max_rectangles", "max_base", "max_closure"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        if self.wall_clock is not None and not 0 < self.wall_clock < inf:
            raise ValidationError("wall_clock must be positive and finite when set")


@dataclass(frozen=True)
class SearchStats:
    nodes_expanded: int
    pruned: int
    subsets_checked: int
    rectangles_enumerated: int
    elapsed_seconds: float
    budget_exhausted: bool


@dataclass(frozen=True)
class MbhSolution:
    """A base, whether its size is proved minimal, and counters."""

    base: Base
    proved_minimal: bool
    stats: SearchStats


def enumerate_rectangles(
    cards: Sequence[int], budget: SearchBudget | None = None
) -> list[Hyperrectangle]:
    """Every axis-aligned rectangle of the space, in canonical order:
    lexicographic on the tuple of per-dimension subsets, first dimension
    varying slowest.  Raises when the count exceeds the budget.
    """
    budget = budget or SearchBudget()
    total = 1
    for c in cards:
        total *= (1 << c) - 1
    if total > budget.max_rectangles:
        raise BudgetExceededError(
            f"{total} candidate rectangles exceed the cap of {budget.max_rectangles}",
            count=total, kind="rectangles",
        )
    per_dim = [
        sorted(
            tuple(i for i in range(c) if (m >> i) & 1) for m in range(1, 1 << c)
        )
        for c in cards
    ]
    return [Hyperrectangle(dims) for dims in iproduct(*per_dim)]


# ---------------------------------------------------------------------------
# Bitmask plumbing.  Configurations are flattened row-major (first
# parent slowest) and sets of configurations become int bitmasks.


def _strides(cards: Sequence[int]) -> tuple[int, ...]:
    strides = [1] * len(cards)
    for i in range(len(cards) - 2, -1, -1):
        strides[i] = strides[i + 1] * cards[i + 1]
    return tuple(strides)


def _flat(cfg: Sequence[int], strides: Sequence[int]) -> int:
    return sum(x * s for x, s in zip(cfg, strides))


def _mask_of(cfgs: Iterable[Config], strides: Sequence[int]) -> int:
    mask = 0
    for cfg in cfgs:
        mask |= 1 << _flat(cfg, strides)
    return mask


def _mask_row(mask: int, ncells: int) -> list[int]:
    return [(mask >> i) & 1 for i in range(ncells)]


def _reduce(row: list[int], basis: list[tuple[int, list[int]]]) -> list[int]:
    """The remainder of an integer row against an echelon basis, fraction
    free.  Each basis row is zero on the pivots of the rows before it, so
    one pass in basis order clears every pivot column of the row; the
    remainder is zero exactly when the row lies in the rational span."""
    for p, b in basis:
        x = row[p]
        if x:
            bp = b[p]
            row = [bp * r - x * y for r, y in zip(row, b)]
    return row


def _echelon(rows: Iterable[list[int]]) -> list[tuple[int, list[int]]]:
    """(pivot column, row) pairs spanning the rows, each row divided by
    the gcd of its entries so that the integers stay small."""
    basis: list[tuple[int, list[int]]] = []
    for row in rows:
        row = _reduce(row, basis)
        if any(row):
            g = gcd(*row)
            basis.append((next(i for i, x in enumerate(row) if x), [x // g for x in row]))
    return basis


def _in_span(basis: list[tuple[int, list[int]]], targets: Iterable[list[int]]) -> bool:
    """Whether every target row lies in the rational span of the basis."""
    return not any(any(_reduce(t, basis)) for t in targets)


# ---------------------------------------------------------------------------
# Closure: which configuration sets does a rectangle list generate?


def _closure_search(
    masks: Sequence[int],
    wanted: set[int],
    max_values: int,
    deadline: float | None,
) -> dict[int, Expression]:
    """Uniform-cost search over the sets reachable from the rectangles
    by proper difference and disjunctive union.

    Expressions with fewer leaves are settled first, so the witness
    recorded for each wanted mask has minimal leaf count.  Returns the
    witnesses found; when the returned dict misses a wanted mask, that
    mask is provably not generable (the reachable space was exhausted).
    Raises when the settled-value cap or the deadline is hit.

    Frontier entries carry how their set was made, ``("rect", i)`` or
    ``("union" | "diff", a, b)`` over already-settled masks ``a`` and
    ``b``; an expression tree is built only for the wanted masks.
    """
    heap = [(1, i, m, ("rect", i)) for i, m in enumerate(masks)]
    heapify(heap)
    seq = len(masks)
    settled: dict[int, tuple] = {}
    order: list[tuple[int, int]] = []  # (mask, leaf count) in settling order
    found: dict[int, Expression] = {}
    built: dict[int, Expression] = {}

    def witness(mask: int) -> Expression:
        if mask not in built:
            how = settled[mask]
            if how[0] == "rect":
                built[mask] = Expression.rect(how[1])
            else:
                built[mask] = Expression(how[0], left=witness(how[1]), right=witness(how[2]))
        return built[mask]

    pops = 0
    heap_cap = 64 * max_values
    while heap:
        size, _, mask, how = heappop(heap)
        if mask in settled:
            continue
        pops += 1
        if deadline is not None and pops % 64 == 0 and time.monotonic() > deadline:
            raise BudgetExceededError("wall-clock budget exhausted", kind="wall")
        settled[mask] = how
        order.append((mask, size))
        if len(settled) > max_values:
            raise BudgetExceededError(
                f"closure cap of {max_values} distinct sets exceeded",
                count=len(settled), kind="closure",
            )
        if mask in wanted:
            found[mask] = witness(mask)
            if len(found) == len(wanted):
                return found
        for other, osize in order:
            if mask & other == 0:
                cand, chow = mask | other, ("union", mask, other)
            elif other & ~mask == 0:
                cand, chow = mask & ~other, ("diff", mask, other)
            elif mask & ~other == 0:
                cand, chow = other & ~mask, ("diff", other, mask)
            else:
                continue
            if cand not in settled:
                if len(heap) >= heap_cap:
                    raise BudgetExceededError(
                        "closure frontier exceeded its cap",
                        count=len(heap), kind="closure",
                    )
                heappush(heap, (size + osize, seq, cand, chow))
                seq += 1
    return found


def can_generate(
    target: Iterable[Config],
    rectangles: Sequence[Hyperrectangle],
    cards: Sequence[int],
    budget: SearchBudget | None = None,
) -> Expression | None:
    """Find a legal expression over the rectangles denoting exactly the
    target set, minimizing the leaf count.

    Returns None only when no expression exists (the reachable closure
    was exhausted).  Raises BudgetExceededError when a cap stopped the
    search first, in which case the answer is unknown.
    """
    budget = budget or SearchBudget()
    strides = _strides(cards)
    for r in rectangles:
        r.check_within(cards)
    tmask = _mask_of(target, strides)
    masks = [_mask_of(r.points(), strides) for r in rectangles]
    deadline = (
        time.monotonic() + budget.wall_clock if budget.wall_clock is not None else None
    )
    found = _closure_search(masks, {tmask}, budget.max_closure, deadline)
    return found.get(tmask)


# ---------------------------------------------------------------------------
# Greedy cover: a feasible base of disjoint rectangles, one disjunctive
# union per level set.  Fast, used as the upper bound and as the answer
# when the exact search finds no base.


def greedy_cover_base(d: DeterministicFunction) -> Base:
    cards = d.parent_cards
    rect_index: dict[tuple, int] = {}
    rects: list[Hyperrectangle] = []
    exprs: dict[int, Expression] = {}
    for state, cells in level_sets(d).items():
        remaining = set(cells)
        part_ids: list[int] = []
        while remaining:
            seed = min(remaining)
            dims = [[s] for s in seed]
            for i in range(len(cards)):
                for s in range(cards[i]):
                    if s in dims[i]:
                        continue
                    trial = dims[:i] + [sorted(dims[i] + [s])] + dims[i + 1 :]
                    if all(pt in remaining for pt in iproduct(*trial)):
                        dims = trial
            rect = Hyperrectangle(tuple(tuple(g) for g in dims))
            remaining -= set(rect.points())
            if rect.dims not in rect_index:
                rect_index[rect.dims] = len(rects)
                rects.append(rect)
            part_ids.append(rect_index[rect.dims])
        expr = Expression.rect(part_ids[0])
        for j in part_ids[1:]:
            expr = Expression.union(expr, Expression.rect(j))
        exprs[state] = expr
    return Base(tuple(rects), exprs)


# ---------------------------------------------------------------------------
# The solver.


class _Search:
    def __init__(self, d: DeterministicFunction, budget: SearchBudget, deadline):
        self.budget = budget
        self.deadline = deadline
        self.cards = d.parent_cards
        self.strides = _strides(self.cards)
        self.ncells = 1
        for c in self.cards:
            self.ncells *= c
        self.full = (1 << self.ncells) - 1
        self.levels = level_sets(d)
        self.level_masks = {
            s: _mask_of(cfgs, self.strides) for s, cfgs in self.levels.items()
        }
        self.level_rows = [
            _mask_row(m, self.ncells) for m in self.level_masks.values()
        ]
        self.cands: list[Hyperrectangle] = []
        self.masks: list[int] = []
        self.nodes = self.pruned = self.checked = 0
        self.unknown = False  # a closure cap made some subset undecidable

    def load_candidates(self, cands: list[Hyperrectangle]) -> None:
        self.cands = cands
        self.masks = [_mask_of(r.points(), self.strides) for r in cands]

    def tick(self) -> None:
        self.nodes += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("wall-clock budget exhausted", kind="wall")

    # --- subset feasibility ------------------------------------------------

    def check_subset(self, subset: Sequence[int]):
        """Full feasibility test; returns witnesses by level mask or None.
        Sets .unknown when the closure budget leaves the answer open."""
        self.checked += 1
        sub_masks = [self.masks[i] for i in subset]
        basis = _echelon(_mask_row(m, self.ncells) for m in sub_masks)
        if not _in_span(basis, self.level_rows):
            return None
        try:
            found = _closure_search(
                sub_masks,
                set(self.level_masks.values()),
                self.budget.max_closure,
                self.deadline,
            )
        except BudgetExceededError as e:
            if e.kind == "wall":
                raise
            self.unknown = True
            return None
        if len(found) != len(self.level_masks):
            return None
        return found

    def try_subset(self, subset: Sequence[int]):
        """check_subset on a subset that covers the space; a subset that
        does not is counted as pruned and fails."""
        acc = 0
        for i in subset:
            acc |= self.masks[i]
        if acc != self.full:
            self.pruned += 1
            return None
        return self.check_subset(subset)

    # --- the two low-size filters -------------------------------------------

    def stripe_union_pool(self) -> list[int]:
        pool = []
        for i, m in enumerate(self.masks):
            for lm in self.level_masks.values():
                t = m & lm
                if t != 0 and t != lm:
                    break
            else:
                pool.append(i)
        return pool

    def projective_classes(self) -> tuple[list[int], list[list[int]]]:
        """Split candidates into stripe unions (zero class) and groups
        with proportional images modulo the level-set span."""
        level_of = [0] * self.ncells
        rep_of = {}
        for state, lm in self.level_masks.items():
            rep = (lm & -lm).bit_length() - 1
            rep_of[state] = rep
            for x in range(self.ncells):
                if (lm >> x) & 1:
                    level_of[x] = state
        non_reps = [x for x in range(self.ncells) if x != rep_of[level_of[x]]]

        zero: list[int] = []
        classes: dict[tuple, list[int]] = {}
        for i, m in enumerate(self.masks):
            q = []
            for x in non_reps:
                q.append(((m >> x) & 1) - ((m >> rep_of[level_of[x]]) & 1))
            first = next((v for v in q if v), None)
            if first is None:
                zero.append(i)
                continue
            if first < 0:
                q = [-v for v in q]
            classes.setdefault(tuple(q), []).append(i)
        return zero, list(classes.values())

    # --- per-size searches ---------------------------------------------------

    def search_at_lower_bound(self, k: int):
        pool = self.stripe_union_pool()
        for subset in combinations(pool, k):
            self.tick()
            found = self.try_subset(subset)
            if found:
                return subset, found
        return None

    def search_at_lower_bound_plus_one(self, k: int):
        zero, classes = self.projective_classes()
        best = None
        pools = [list(zero)]
        for cls in classes:
            pools.append(sorted(zero + cls))
        class_sets = [set()] + [set(cls) for cls in classes]
        for pool, must_touch in zip(pools, class_sets):
            if len(pool) < k:
                continue
            for subset in combinations(pool, k):
                self.tick()
                if must_touch and not any(i in must_touch for i in subset):
                    continue  # pure-zero subsets are handled by the first pool
                if best is not None and subset >= best[0]:
                    continue
                found = self.try_subset(subset)
                if found and (best is None or subset < best[0]):
                    best = (subset, found)
                    break  # later combinations in this pool are lex-larger
        return best

    def search_general(self, k: int):
        n = len(self.masks)
        suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] | self.masks[i]
        sel: list[int] = []

        def dfs(start: int, acc: int):
            slots = k - len(sel)
            for i in range(start, n - slots + 1):
                self.tick()
                if acc | suffix[i] != self.full:
                    self.pruned += 1
                    break  # suffixes only shrink from here on
                sel.append(i)
                nacc = acc | self.masks[i]
                if slots == 1:
                    if nacc == self.full:
                        found = self.check_subset(sel)
                        if found:
                            return tuple(sel), found
                    else:
                        self.pruned += 1
                else:
                    hit = dfs(i + 1, nacc)
                    if hit:
                        return hit
                sel.pop()
            return None

        return dfs(0, 0)

    def search_size(self, k: int, lower: int):
        if k == lower:
            return self.search_at_lower_bound(k)
        if k == lower + 1:
            return self.search_at_lower_bound_plus_one(k)
        return self.search_general(k)


def solve_mbh(
    d: DeterministicFunction, budget: SearchBudget | None = None
) -> MbhSolution:
    """Find a smallest hyperrectangle base of the function.

    Searches sizes upward from the level-set count, which starts the
    proven lower bound; each size ruled out with no cap in the way
    raises the bound by one.  The answer is the first base the search
    finds, or else the greedy cover, and ``proved_minimal`` says whether
    its size equals the bound.  Every budget cap ends the search with
    that answer, so no cap raises; ``stats.budget_exhausted`` is True
    exactly when the size is not proved minimal.
    """
    budget = budget or SearchBudget()
    t0 = time.monotonic()
    deadline = t0 + budget.wall_clock if budget.wall_clock is not None else None

    base = greedy_cover_base(d)
    search = _Search(d, budget, deadline)
    lower = bound = len(search.levels)
    try:
        search.load_candidates(enumerate_rectangles(d.parent_cards, budget))
        for k in range(lower, min(base.size, budget.max_base) + 1):
            if bound < k and k >= lower + 2:
                # a proof is already off the table, and beyond the two
                # filtered sizes the subset space explodes
                break
            search.unknown = False
            hit = search.search_size(k, lower)
            if hit:
                subset, witnesses = hit
                base = Base(
                    tuple(search.cands[i] for i in subset),
                    {s: witnesses[m] for s, m in search.level_masks.items()},
                )
                break
            if bound == k and not search.unknown:
                bound += 1
    except BudgetExceededError:
        pass  # every cap ends the search here; the base in hand stands

    proved = base.size == bound
    stats = SearchStats(
        nodes_expanded=search.nodes,
        pruned=search.pruned,
        subsets_checked=search.checked,
        rectangles_enumerated=len(search.cands),
        elapsed_seconds=time.monotonic() - t0,
        budget_exhausted=not proved,
    )
    return MbhSolution(base, proved, stats)
