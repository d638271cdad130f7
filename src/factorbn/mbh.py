"""Search for a minimal hyperrectangle base of a deterministic function.

The level sets of the function give a lower bound: a base with k
rectangles spans at most a k-dimensional space of indicator vectors,
and the L level indicators are linearly independent, so k >= L.  The
solver searches sizes upward from L until the first feasible size and
returns the lexicographically smallest feasible rectangle subset there
(by position in the canonical rectangle enumeration).

Feasibility of a subset is decided in four stages, each sound:

1. coverage: the rectangles must cover the whole space (every level
   set must be denoted, and expressions never leave the union of their
   leaves);
2. level-pure atoms: the rectangles split the cells into atoms, the
   largest sets of cells that each rectangle holds wholly or not at
   all, and no atom may meet two level sets.  If an atom holds cells c
   and c' of different levels, e_c - e_c' is orthogonal to every
   rectangle indicator but not to c's level indicator, so that level
   lies outside the rectangles' span and stage 3 would reject the
   subset anyway; this stage only rejects it sooner, with a few int
   bit operations;
3. span: every level indicator must lie in the rational span of the
   rectangle indicators (a necessary consequence of the signed-count
   reconstruction), tested exactly by fraction-free elimination over
   integers: the subset's rows are reduced to an echelon basis and every
   level row must reduce to zero against it;
4. closure: an expression for every level set must actually exist in
   the two-operator algebra, found by a search over the reachable
   configuration sets by leaf count, fewest leaves first.

Every size runs one depth-first search over a pool of candidates in
ascending order, so subsets come in lexicographic order.  A branch is
cut where its rectangles and every candidate left in the pool cannot
cover the space.  Two algebraic consequences of the span condition
shrink the pool at the first two sizes.  At k == L the rectangle span
equals the level-set span, and a 0/1 vector in the span of disjoint
level indicators is a union of level sets, so only "stripe union"
rectangles qualify, and they are the pool.  At k == L + 1 the span has
one extra dimension, so modulo the level-set span all rectangle images
live on a single line: after normalization, every non-stripe-union
rectangle in the subset must fall in one projective class.  The pool
is every candidate until the first one outside the stripe unions is
chosen; the rest of that branch draws from the stripe unions and that
candidate's class.  Both filters preserve completeness at their size,
and larger sizes search every candidate.  ``nodes_expanded`` counts
every node the search visits, interior or leaf, including the one
whose coverage cut ends a loop.

The search keeps one proven lower bound: it starts at L and rises by
one for each size ruled out with no budget cap in the way.  The answer
is the first base found, or else the greedy cover, and it is proved
minimal exactly when its size equals the bound.  A budget cap, the
candidate-enumeration cap included, ends the search with that answer.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, inf, prod
from operator import or_
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .functions import DeterministicFunction
from .rectangles import Base, Expression, Hyperrectangle, balanced_union


@dataclass(frozen=True)
class SearchBudget:
    """Resource caps for the solver.

    ``max_rectangles`` bounds the candidate enumeration, ``max_closure``
    the number of distinct configuration sets settled per closure
    search, the empty set A - A included, and ``wall_clock`` (seconds,
    None for unlimited) the whole solve.  A closure search holds only
    the sets it settled, so ``max_closure`` bounds its memory too.
    Hitting a cap never turns into a silent negative answer: the solver
    returns the base in hand, and the sizes the cap left open stay out
    of its lower bound.
    """

    max_rectangles: int = 100_000
    max_closure: int = 2000
    wall_clock: float | None = None

    def __post_init__(self):
        for name in ("max_rectangles", "max_closure"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be positive")
        if self.wall_clock is not None and not 0 < self.wall_clock < inf:
            raise ValidationError("wall_clock must be positive and finite when set")


@dataclass(frozen=True)
class SearchStats:
    """Search counters.  ``cap`` names the cap that ended the search
    short of a proof: ``rectangles``, ``closure`` or ``wall``; it is
    ``none`` exactly when the base is proved minimal.  ``gap`` is the
    base size less the proven lower bound, 0 exactly when the base is
    proved minimal.  ``impure`` counts the subsets checked that the
    atom stage rejected before the span test."""

    nodes_expanded: int
    pruned: int
    subsets_checked: int
    impure: int
    rectangles_enumerated: int
    elapsed_seconds: float
    cap: str
    gap: int


@dataclass(frozen=True)
class MbhSolution:
    """A base, whether its size is proved minimal, and counters."""

    base: Base
    proved_minimal: bool
    stats: SearchStats


def _dim_subsets(cards: Sequence[int]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The non-empty state subsets of each dimension, each sorted
    lexicographically; the canonical rectangles are their product, first
    dimension varying slowest."""
    return tuple(
        tuple(sorted(tuple(i for i in range(c) if (m >> i) & 1) for m in range(1, 1 << c)))
        for c in cards
    )


# ---------------------------------------------------------------------------
# Bitmask plumbing.  Configurations are flattened row-major (first
# parent slowest) and sets of configurations become int bitmasks.


def _strides(cards: Sequence[int]) -> tuple[int, ...]:
    strides = [1] * len(cards)
    for i in range(len(cards) - 2, -1, -1):
        strides[i] = strides[i + 1] * cards[i + 1]
    return tuple(strides)


def _level_masks(d: DeterministicFunction) -> dict[int, int]:
    """The mask of each level set, by child state, ascending, for the states in
    the image of f: one comparison and one bit-packing pass over ``d.outputs``,
    read out of one byte string, so the numpy calls do not grow with the states."""
    cells = d.outputs.ravel()
    states = np.flatnonzero(np.bincount(cells))
    rows = np.packbits(cells == states[:, None], axis=1, bitorder="little")
    packed, width = rows.tobytes(), rows.shape[1]
    return {
        y: int.from_bytes(packed[i * width:(i + 1) * width], "little")
        for i, y in enumerate(states.tolist())
    }


def _cells(mask: int, cards: Sequence[int], limit: int | None = None) -> list[tuple[int, ...]]:
    """The configurations of a mask in table order, or its first ``limit``."""
    n = prod(cards)
    bits = np.frombuffer(mask.to_bytes(-(-n // 8), "little"), np.uint8)
    flat = np.flatnonzero(np.unpackbits(bits, count=n, bitorder="little"))[:limit]
    return list(zip(*(a.tolist() for a in np.unravel_index(flat, tuple(cards)))))


def _rectangle_masks(dim_subsets: Sequence[Sequence[tuple[int, ...]]],
                     strides: Sequence[int]) -> list[int]:
    """The mask of every rectangle of the product of ``dim_subsets``, in
    its order: mask(D1 x ... x Dn) = OR over x in D1 of mask(D2 x ... x Dn)
    shifted by x * stride1.  A suffix mask fits below stride1, so the OR
    is the product with the sum of those shifts."""
    masks = [1]
    for dim, stride in zip(reversed(dim_subsets), reversed(strides)):
        spreads = [sum(1 << x * stride for x in d) for d in dim]
        masks = [spread * m for spread in spreads for m in masks]
    return masks


def _rectangle_at(dim_subsets: Sequence[Sequence[tuple[int, ...]]], index: int) -> Hyperrectangle:
    """The rectangle at ``index`` in the order of ``_rectangle_masks``."""
    dims = []
    for dim in reversed(dim_subsets):
        index, r = divmod(index, len(dim))
        dims.append(dim[r])
    return Hyperrectangle(tuple(reversed(dims)))


def _refine(parts: list[int], mask: int, level_of: Sequence[int]) -> list[int]:
    """Split each part of the cells by a rectangle's ``mask`` and keep the
    pieces that meet two level sets or more: a piece inside one level set
    only splits into pieces inside it.  A piece is tested through its
    highest cell's level set, ``level_of[p.bit_length()]`` (an empty piece
    is dropped).  Folded over a subset from ``[full]``, it leaves no part
    exactly when every atom of the subset lies in one level set."""
    return [p for a in parts for p in (a & mask, a & ~mask)
            if p & ~level_of[p.bit_length()]]


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
    """(pivot column, row) pairs spanning the rows, in row order: each
    row's non-zero remainder against the pairs before it, with its pivot
    column, divided by the gcd of its entries so that the integers stay
    small."""
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
    """Search by leaf count over the sets reachable from the rectangles
    by proper difference and disjunctive union.

    Class k holds the sets first formed with k leaves, in the order they
    were formed.  Class 1 is the rectangles, a repeated mask keeping its
    first index.  Class L is formed from the pairs (a, b) with b no later
    than a and leaf counts adding up to L, met in order of (position of
    a, position of b): classes sa >= sb in turn, a in class order, b in
    class sb up to a itself when sb == sa.  A compatible pair (disjoint,
    or one set inside the other) forms a ^ b, and a set is settled when
    it is first formed, the empty set A - A included.  Every class past
    twice the last non-empty one is empty, which ends the search.

    So each wanted mask is settled with a minimal leaf count, and its
    witness is the first such expression in that order.  Returns the
    witnesses found; when the returned dict misses a wanted mask, that
    mask is provably not generable (the reachable space was exhausted).
    Raises when the settled-set cap or the deadline is hit; the clock is
    read every 64 settled sets and once per left operand.

    A set records how it was made, ``(i,)`` for rectangle ``i`` or
    ``("+" | "-", a, b)`` over earlier sets ``a`` and ``b``; expression
    tokens are spelled out only for the wanted masks.
    """
    settled: dict[int, tuple] = {}
    found: dict[int, Expression] = {}

    def witness(mask: int) -> Expression:
        tokens, todo = [], [mask]
        while todo:
            how = settled[todo.pop()]
            tokens.append(how[0])
            todo += how[:0:-1]  # the left operand on top
        return Expression(tuple(tokens))

    def settle(mask: int, how: tuple) -> bool:
        """Record a new set; True once every wanted mask is settled."""
        if (deadline is not None and len(settled) % 64 == 63
                and time.monotonic() > deadline):
            raise BudgetExceededError("wall-clock budget exhausted", kind="wall")
        settled[mask] = how
        if len(settled) > max_values:
            raise BudgetExceededError(
                f"closure cap of {max_values} distinct sets exceeded", kind="closure"
            )
        if mask in wanted:
            found[mask] = witness(mask)
            return len(found) == len(wanted)
        return False

    classes: list[list[int]] = [[], []]  # classes[k]: the sets first formed with k leaves
    for i, m in enumerate(masks):
        if m not in settled:
            classes[1].append(m)
            if settle(m, (i,)):
                return found
    level, last = 2, 1  # last: the last non-empty class
    while level <= 2 * last:
        new: list[int] = []
        classes.append(new)
        for sa in range((level + 1) // 2, level):
            cb = classes[level - sa]
            if not cb:
                continue
            for ia, a in enumerate(classes[sa]):
                if deadline is not None and time.monotonic() > deadline:
                    raise BudgetExceededError("wall-clock budget exhausted", kind="wall")
                for b in cb[: ia + 1] if 2 * sa == level else cb:
                    # a union of disjoint sets and a proper difference
                    # are both the symmetric difference of the operands
                    both = a & b
                    if both and both != b and both != a:
                        continue
                    c = a ^ b
                    if c in settled:
                        continue
                    if not both:
                        how = ("+", a, b)
                    elif both == b:
                        how = ("-", a, b)
                    else:
                        how = ("-", b, a)
                    new.append(c)
                    if settle(c, how):
                        return found
        if new:
            last = level
        level += 1
    return found


# ---------------------------------------------------------------------------
# Greedy cover: a feasible base of disjoint rectangles, one disjunctive
# union per level set.  Fast, used as the upper bound and as the answer
# when the exact search finds no base.


def greedy_cover_base(d: DeterministicFunction) -> Base:
    """Cover each level set by disjoint rectangles: from its first
    uncovered configuration, grow a rectangle one dimension after
    another, adding each state whose slab of cells is still uncovered.
    Level sets are disjoint too, so no rectangle is met twice."""
    cards = d.parent_cards
    strides = _strides(cards)
    rects: list[Hyperrectangle] = []
    exprs: dict[int, Expression] = {}
    for state, remaining in _level_masks(d).items():
        parts: list[Expression] = []
        while remaining:
            mask = remaining & -remaining
            flat = mask.bit_length() - 1
            dims = []
            for c, stride in zip(cards, strides):
                x0 = flat // stride % c
                slab = mask  # the rectangle so far has x0 alone in this dimension
                dim = []
                for x in range(c):
                    if x != x0:
                        shift = (x - x0) * stride
                        cells = slab << shift if shift > 0 else slab >> -shift
                        if cells & remaining != cells:
                            continue
                        mask |= cells
                    dim.append(x)
                dims.append(tuple(dim))
            remaining &= ~mask
            parts.append(Expression.rect(len(rects)))
            rects.append(Hyperrectangle(tuple(dims)))
        exprs[state] = balanced_union(parts)
    return Base(tuple(rects), exprs)


# ---------------------------------------------------------------------------
# The solver.


def _suffix(masks: Sequence[int]) -> list[int]:
    """The union of ``masks`` from each position on, then 0 past the end."""
    return [*accumulate(reversed(masks), or_)][::-1] + [0]


class _Candidates:
    """The candidate rectangles of one parent-card shape: the state
    subsets of each dimension, the masks in canonical order, the union of
    the masks from each position on (the pool of every candidate), and
    each rectangle, made the first time a base holds it.  They depend on
    the cards alone, so every function of a shape shares them."""

    def __init__(self, cards: tuple[int, ...]):
        self.dim_subsets = _dim_subsets(cards)
        self.masks = tuple(_rectangle_masks(self.dim_subsets, _strides(cards)))
        self.suffix = tuple(_suffix(self.masks))
        self._rectangles: dict[int, Hyperrectangle] = {}

    def rectangle(self, i: int) -> Hyperrectangle:
        r = self._rectangles.get(i)
        if r is None:
            r = self._rectangles[i] = _rectangle_at(self.dim_subsets, i)
        return r


# The candidates of the last eight shapes solved, made once per process.
# An entry holds a mask per candidate, so the cache holds at most eight
# times the largest candidate list the cap lets through.
_shape_candidates = lru_cache(maxsize=8)(_Candidates)


def _candidates(cards: tuple[int, ...], budget: SearchBudget) -> _Candidates:
    """The candidates of a shape.  Raises, before any is made or looked
    up, when their count exceeds the cap."""
    total = prod((1 << c) - 1 for c in cards)
    if total > budget.max_rectangles:
        raise BudgetExceededError(
            f"{total} candidate rectangles exceed the cap of {budget.max_rectangles}",
            kind="rectangles",
        )
    return _shape_candidates(cards)


class _Search:
    def __init__(self, d: DeterministicFunction, budget: SearchBudget, deadline):
        self.d = d
        self.budget = budget
        self.deadline = deadline
        self.ncells = d.outputs.size
        self.full = (1 << self.ncells) - 1
        self.level_masks = _level_masks(d)
        self.candidates: _Candidates | None = None
        self.masks: Sequence[int] = ()
        self.class_pools: dict[int, tuple[list[int], list[int]]] = {}
        self.nodes = self.pruned = self.checked = self.impure = 0
        self.unknown = False  # a closure cap made some subset undecidable

    def load_candidates(self) -> None:
        self.candidates = _candidates(self.d.parent_cards, self.budget)
        self.masks = self.candidates.masks

    @cached_property
    def level_rows(self) -> list[list[int]]:
        """The level indicators as integer rows, made at the first span
        test: a row costs a shift per cell, so a wide function whose
        candidates exceed the cap never pays for them."""
        return [_mask_row(m, self.ncells) for m in self.level_masks.values()]

    @cached_property
    def level_of(self) -> list[int]:
        """``level_of[c + 1]``: the mask of the level set that holds cell c."""
        return [0, *map(self.level_masks.__getitem__, self.d.outputs.ravel().tolist())]

    # --- subset feasibility ------------------------------------------------

    def check_subset(self, subset: Sequence[int], parts: list[int]):
        """Full feasibility test of a covering subset whose atoms that
        straddle level sets are ``parts`` (see ``_refine``); returns
        witnesses by level mask or None.  Sets .unknown when the closure
        budget leaves the answer open."""
        self.checked += 1
        if parts:
            self.impure += 1
            return None
        masks = self.masks
        rows = (_mask_row(masks[i], self.ncells) for i in subset)
        if not _in_span(_echelon(rows), self.level_rows):
            return None
        try:
            found = _closure_search(
                [masks[i] for i in subset],
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

    # --- the search ----------------------------------------------------------

    @cached_property
    def projective_classes(self) -> tuple[list[int], list[list[int]]]:
        """One class label per candidate, and the candidates of each
        class, ascending, by label.  Label 0 is the stripe unions; from 1
        up, in order of first appearance, one label per group of
        candidates with proportional images modulo the level-set span.

        Each level set is represented by its first cell.  Modulo the
        level-set span, a rectangle's image is its indicator less the
        union U of the level sets whose representative it holds: +1 on
        the cells it adds to U, -1 on those it misses, 0 on every
        representative.  The image is zero exactly for a stripe union,
        and two images are proportional exactly when they are equal up
        to sign, normalized here by the sign of the first non-zero cell.
        U is looked up by the representatives the rectangle holds, each
        set of them worked out once.
        """
        levels = [(lm & -lm, lm) for lm in self.level_masks.values()]
        reps = sum(rep for rep, _ in levels)
        unions: dict[int, int] = {}
        keys: dict[tuple[int, int], int] = {}
        labels: list[int] = []
        members: list[list[int]] = [[]]
        for i, m in enumerate(self.masks):
            held = m & reps
            union = unions.get(held)
            if union is None:
                union = 0
                for rep, lm in levels:
                    if held & rep:
                        union |= lm
                unions[held] = union
            diff = m ^ union
            if diff:
                plus, minus = m & diff, union & diff
                key = (minus, plus) if minus & diff & -diff else (plus, minus)
                c = keys.get(key)
                if c is None:
                    c = keys[key] = len(members)
                    members.append([])
            else:
                c = 0
            labels.append(c)
            members[c].append(i)
        return labels, members

    def pool(self, members: list[int]) -> tuple[list[int], list[int]]:
        """Ascending candidates and, from each position on, the union of
        their masks."""
        return members, _suffix([self.masks[i] for i in members])

    def class_pool(self, c: int) -> tuple[list[int], list[int]]:
        """The pool of the stripe unions and class ``c``, made once."""
        if c not in self.class_pools:
            members = self.projective_classes[1]
            self.class_pools[c] = self.pool(sorted(members[0] + members[c]))
        return self.class_pools[c]

    def search_size(self, k: int, lower: int):
        """The lexicographically first feasible subset of k candidates,
        with its witnesses, or None; ``lower`` is the level-set count.

        One depth-first search over a pool in ascending order, cut where
        the masks left in the pool cannot complete the cover.  At k ==
        lower the pool is the stripe unions.  At k == lower + 1 it is
        every candidate until the first one outside the zero class; the
        rest of that branch draws from the zero class and that one's
        class, a pool built once per class.
        """
        if k == lower:
            root = self.pool(self.projective_classes[1][0])
        else:
            root = range(len(self.masks)), self.candidates.suffix
        switch = k == lower + 1
        labels = self.projective_classes[0] if switch else ()
        masks, full, level_of, deadline = self.masks, self.full, self.level_of, self.deadline
        class_pool, check, monotonic = self.class_pool, self.check_subset, time.monotonic
        sel: list[int] = []
        nodes = pruned = 0

        # parts: the atoms of sel that straddle level sets (see _refine)
        def dfs(pool, suffix, start: int, acc: int, parts: list[int], slots: int, switch: bool):
            nonlocal nodes, pruned
            for j in range(start, len(pool) - slots + 1):
                nodes += 1
                if deadline is not None and monotonic() > deadline:
                    raise BudgetExceededError("wall-clock budget exhausted", kind="wall")
                if acc | suffix[j] != full:
                    pruned += 1
                    break  # suffixes only shrink from here on
                i = pool[j]
                m = masks[i]
                if slots == 1:
                    if acc | m != full:
                        pruned += 1
                        continue
                    sel.append(i)
                    found = check(sel, _refine(parts, m, level_of))
                    if found:
                        return tuple(sel), found
                    sel.pop()
                    continue
                sel.append(i)
                nparts = _refine(parts, m, level_of)
                if switch and labels[i]:
                    cpool, csuffix = class_pool(labels[i])
                    hit = dfs(cpool, csuffix, bisect_right(cpool, i), acc | m, nparts,
                              slots - 1, False)
                else:
                    hit = dfs(pool, suffix, j + 1, acc | m, nparts, slots - 1, switch)
                if hit:
                    return hit
                sel.pop()
            return None

        try:
            return dfs(*root, 0, 0, [full], k, switch)
        finally:
            self.nodes += nodes
            self.pruned += pruned


def solve_mbh(
    d: DeterministicFunction, budget: SearchBudget | None = None
) -> MbhSolution:
    """Find a smallest hyperrectangle base of the function.

    Searches sizes upward from the level-set count, which starts the
    proven lower bound; each size ruled out with no cap in the way
    raises the bound by one.  The answer is the first base the search
    finds, or else the greedy cover, built only then or at the first
    closure cap (from which on no size at or beyond the cover's is
    searched), and ``proved_minimal`` says whether its size equals the
    bound.  Every budget cap ends the search with that answer, so no
    cap raises.
    """
    budget = budget or SearchBudget()
    t0 = time.monotonic()
    deadline = t0 + budget.wall_clock if budget.wall_clock is not None else None

    base = greedy = None
    search = _Search(d, budget, deadline)
    lower = bound = len(search.level_masks)
    cap = None
    try:
        search.load_candidates()
        # the greedy cover's rectangles are a feasible subset of its size
        # and each size's search is complete, so with no cap in the way
        # the loop ends by that size; the cover is built only once a
        # closure cap leaves a size open, and then bounds the loop
        for k in itertools.count(lower):
            if (bound < k and k >= lower + 2) or (greedy is not None and k >= greedy.size):
                # a proof is already off the table, and beyond the two
                # filtered sizes the subset space explodes; or no base
                # the search can still find beats the cover in hand
                break
            search.unknown = False
            hit = search.search_size(k, lower)
            if hit:
                subset, witnesses = hit
                base = Base(
                    tuple(search.candidates.rectangle(i) for i in subset),
                    {s: witnesses[m] for s, m in search.level_masks.items()},
                )
                break
            if search.unknown:
                cap = "closure"
                greedy = greedy or greedy_cover_base(d)
            elif bound == k:
                bound += 1
    except BudgetExceededError as e:
        cap = e.kind  # every cap ends the search here
    if base is None:
        base = greedy or greedy_cover_base(d)

    proved = base.size == bound
    stats = SearchStats(
        nodes_expanded=search.nodes,
        pruned=search.pruned,
        subsets_checked=search.checked,
        impure=search.impure,
        rectangles_enumerated=len(search.masks),
        elapsed_seconds=time.monotonic() - t0,
        cap="none" if proved else cap,
        gap=base.size - bound,
    )
    return MbhSolution(base, proved, stats)
