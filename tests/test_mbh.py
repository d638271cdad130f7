"""Minimal-base search: enumeration, generability, the solver.

Core claims:
    - rectangle enumeration counts (2^c - 1) per dimension, in a fixed
      canonical order, and refuses oversized spaces by naming the count
    - the closure search returns a verifiable witness, None only for
      truly ungeneratable targets, and a budget error when capped; all
      three are cross-checked against an independent brute-force closure
    - the closure search by leaf count returns the same witnesses, or
      stops on the same cap, as the uniform-cost heap search it
      replaced, and it reaches a leaf class that follows an empty one
    - a subset can pass the atom and span tests and still fail the
      closure, which rejects it
    - solve_mbh proves minimality on small worked functions (binary
      ADD = 3, checked against an exhaustive subset oracle; ternary
      ADD = 6; the 3-rectangle Boolean cover; AND = 2; MAX = scale)
    - every budget cap, the candidate-enumeration cap included, ends the
      search with a verified base, unproved unless its size meets the
      proven lower bound, and the stats name the cap
    - the solver's bitmask internals match their set-based references:
      candidate masks built per dimension, the level-pure atom test, the
      greedy cover and the projective classes; the atom test never
      rejects a subset that the span test accepts
    - results are deterministic across repeated runs, and the per-shape
      candidate cache changes no golden base or counter in any solving
      order; the rectangle cap is checked before the cache
    - a wide function that the candidate cap stops builds none of the
      span test's integer rows
"""

import json
import random
import time
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from math import inf, prod

import numpy as np
import pytest

from factorbn import (
    BudgetExceededError,
    DeterministicFunction,
    Hyperrectangle,
    SearchBudget,
    build_factorized_form,
    evaluate_expression,
    format_expression,
    function_from_formula,
    greedy_cover_base,
    known_base_max,
    level_sets,
    solve_mbh,
    verify_factorization,
)
from factorbn.errors import ValidationError
from factorbn.mbh import (
    _candidates,
    _closure_search,
    _dim_subsets,
    _echelon,
    _in_span,
    _mask_row,
    _rectangle_at,
    _rectangle_masks,
    _refine,
    _Search,
    _shape_candidates,
    _strides,
)
from test_mbh_goldens import CASES, GOLDENS, record, relabeled


def mk(cards, fn, child_card):
    n = len(cards)
    return DeterministicFunction.from_callable(
        tuple(range(n)), n, tuple(cards), child_card, fn
    )


def mask_of(cfgs, cards):
    """The bitmask of a configuration set, cells flattened row-major."""
    strides = _strides(cards)
    return sum(1 << sum(x * s for x, s in zip(cfg, strides)) for cfg in set(cfgs))


def rectangles(cards, budget=SearchBudget()):
    """Every candidate rectangle, in the solver's canonical order."""
    candidates = _candidates(tuple(cards), budget)
    return [candidates.rectangle(i) for i in range(len(candidates.masks))]


def generate(target, rects, cards, max_closure=2000):
    """The closure search's witness for ``target``, or None when the
    reachable sets run out first."""
    wanted = mask_of(target, cards)
    masks = [mask_of(r.points(), cards) for r in rects]
    return _closure_search(masks, {wanted}, max_closure, None).get(wanted)


# -- enumeration -------------------------------------------------------------


def test_enumeration_counts():
    assert len(rectangles((2,))) == 3
    assert len(rectangles((2, 2))) == 9
    assert len(rectangles((3, 3))) == 49
    assert len(rectangles((2, 3, 2))) == 3 * 7 * 3


def test_enumeration_order_is_lexicographic():
    rects = rectangles((3,))
    assert [r.dims[0] for r in rects] == [
        (0,),
        (0, 1),
        (0, 1, 2),
        (0, 2),
        (1,),
        (1, 2),
        (2,),
    ]
    pairs = rectangles((2, 2))
    assert pairs[0].dims == ((0,), (0,))
    assert pairs[1].dims == ((0,), (0, 1))
    assert pairs[-1].dims == ((1,), (1,))
    assert [r.dims for r in pairs] == sorted(r.dims for r in pairs)


def test_enumeration_budget_names_count():
    with pytest.raises(BudgetExceededError) as exc:
        rectangles((4, 4, 4, 4), SearchBudget(max_rectangles=10_000))
    assert "50625" in str(exc.value)


@pytest.mark.parametrize("cards", [(2,), (3, 3), (2, 3, 2), (2, 2, 2, 2), (3, 3, 3)])
def test_candidate_masks_match_the_rectangles(cards):
    dim_subsets = _dim_subsets(cards)
    rects = [Hyperrectangle(dims) for dims in product(*dim_subsets)]
    masks = _rectangle_masks(dim_subsets, _strides(cards))
    assert masks == [mask_of(r.points(), cards) for r in rects]
    assert rectangles(cards) == rects
    assert [_rectangle_at(dim_subsets, i) for i in range(len(rects))] == rects


# -- the span test against a rational-rank oracle ----------------------------


def rational_rank(rows):
    """Exact rank over the rationals by Gaussian elimination on Fractions
    (the solver's span test before it became an integer elimination)."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def test_span_test_agrees_with_rational_rank():
    rng = random.Random(2002)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        cols = rng.randint(1, 27)
        rows = [
            [int(rng.random() < rng.choice((0.2, 0.5, 0.8))) for _ in range(cols)]
            for _ in range(rng.randint(1, 9))
        ]
        targets = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                coeffs = [rng.randint(-3, 3) for _ in rows]
                targets.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(cols)])
            else:
                targets.append([rng.randint(0, 1) for _ in range(cols)])
        expected = rational_rank(rows + targets) == rational_rank(rows)
        assert _in_span(_echelon(rows), targets) == expected
        outcomes[expected] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_atom_test_is_sound_and_matches_a_cell_grouping():
    # random covering subsets of random functions: the atom test agrees
    # with grouping the cells by which rectangles hold them, and it never
    # rejects a subset whose rectangles span every level indicator
    rng = random.Random(28)
    outcomes = {"impure": 0, "pure, outside the span": 0, "in the span": 0}
    tried = 0
    while tried < 150:
        cards = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
        if prod(cards) > 12:
            continue
        tried += 1
        cc = rng.randint(2, 4)
        d = DeterministicFunction(tuple(range(len(cards))), len(cards), cards, cc,
                                  tuple(rng.randrange(cc) for _ in range(prod(cards))))
        search = _Search(d, SearchBudget(), None)
        search.load_candidates()
        masks, ncells, targets = search.masks, search.ncells, search.level_rows
        for _ in range(20):
            k = rng.randint(1, min(len(masks), len(targets) + 3))
            subset = sorted(rng.sample(range(len(masks)), k))
            acc = 0
            for i in subset:
                acc |= masks[i]
            if acc != search.full:
                continue
            atoms: dict[tuple[int, ...], set[int]] = {}
            for c in range(ncells):
                atoms.setdefault(tuple(masks[i] >> c & 1 for i in subset), set()).add(int(d.outputs.flat[c]))
            pure = all(len(levels) == 1 for levels in atoms.values())
            parts = [search.full]
            for i in subset:
                parts = _refine(parts, masks[i], search.level_of)
            assert (not parts) == pure
            spans = _in_span(_echelon(_mask_row(masks[i], ncells) for i in subset), targets)
            assert pure or not spans
            outcomes["in the span" if spans else "pure, outside the span" if pure else "impure"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def reference_greedy_cover_dims(d):
    """The greedy cover's rectangles, grown over sets of configurations."""
    cards = d.parent_cards
    out = []
    for _, cells in level_sets(d).items():
        remaining = set(cells)
        while remaining:
            seed = min(remaining)
            dims = [[s] for s in seed]
            for i in range(len(cards)):
                for s in range(cards[i]):
                    if s in dims[i]:
                        continue
                    trial = dims[:i] + [sorted(dims[i] + [s])] + dims[i + 1 :]
                    if all(pt in remaining for pt in product(*trial)):
                        dims = trial
            remaining -= set(product(*dims))
            out.append(tuple(tuple(g) for g in dims))
    return out


def reference_projective_classes(masks, level_masks, ncells):
    """Candidates by their image modulo the level-set span, as integer
    vectors over the cells that represent no level set."""
    level_of, rep_of = [0] * ncells, {}
    for state, lm in level_masks.items():
        rep_of[state] = (lm & -lm).bit_length() - 1
        for x in range(ncells):
            if (lm >> x) & 1:
                level_of[x] = state
    non_reps = [x for x in range(ncells) if x != rep_of[level_of[x]]]
    zero, classes = [], {}
    for i, m in enumerate(masks):
        q = [((m >> x) & 1) - ((m >> rep_of[level_of[x]]) & 1) for x in non_reps]
        first = next((v for v in q if v), None)
        if first is None:
            zero.append(i)
            continue
        if first < 0:
            q = [-v for v in q]
        classes.setdefault(tuple(q), []).append(i)
    return zero, list(classes.values())


def random_functions(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        cards = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
        size = 1
        for c in cards:
            size *= c
        cc = rng.randint(2, 4)
        yield DeterministicFunction(
            tuple(range(len(cards))), len(cards), cards, cc,
            tuple(rng.randrange(cc) for _ in range(size)),
        )


def test_greedy_cover_and_classes_match_set_based_references():
    for d in random_functions(31, 60):
        dims = reference_greedy_cover_dims(d)
        base = greedy_cover_base(d)
        assert [r.dims for r in base.rectangles] == list(dict.fromkeys(dims))
        search = _Search(d, SearchBudget(), None)
        search.load_candidates()
        labels, members = search.projective_classes
        assert (members[0], members[1:]) == reference_projective_classes(
            search.masks, search.level_masks, search.ncells
        )
        assert all(i in members[c] for i, c in enumerate(labels))


# -- an independent closure oracle -------------------------------------------


def brute_force_closure(rect_sets, max_leaves):
    """Every set value generatable with at most max_leaves leaves,
    using plain set arithmetic and no search-code shortcuts."""
    layers = {1: set(frozenset(s) for s in rect_sets)}
    for n in range(2, max_leaves + 1):
        out = set()
        for i in range(1, n // 2 + 1):
            j = n - i
            for a in layers.get(i, ()):
                for b in layers.get(j, ()):
                    if not (a & b):
                        out.add(a | b)
                    if b <= a:
                        out.add(a - b)
                    if a <= b:
                        out.add(b - a)
        layers[n] = out
    reachable = set()
    for vals in layers.values():
        reachable |= vals
    return reachable


def test_closure_search_agrees_with_brute_force():
    # 2x3 grid, four rectangles, every subset of the space as a target
    rects = (
        Hyperrectangle(((0,), (0, 1))),
        Hyperrectangle(((0, 1), (1, 2))),
        Hyperrectangle(((1,), (2,))),
        Hyperrectangle(((0, 1), (0, 1, 2))),
    )
    cells = sorted(rects[3].points())
    rect_sets = [frozenset(r.points()) for r in rects]
    reachable7 = brute_force_closure(rect_sets, 7)
    checked_none = checked_hit = 0
    for bits in range(1, 1 << len(cells)):
        target = frozenset(c for i, c in enumerate(cells) if (bits >> i) & 1)
        witness = generate(target, rects, (2, 3))
        if witness is None:
            assert target not in reachable7
            checked_none += 1
        else:
            denoted = evaluate_expression(witness, rects)
            assert denoted == target
            leaves = sum(isinstance(t, int) for t in witness.tokens)
            if leaves <= 7:
                assert target in reachable7
            checked_hit += 1
    assert checked_hit >= 10 and checked_none >= 10


def test_closure_search_worked_difference_chain():
    rects = (
        Hyperrectangle(((1, 2), (1, 2))),
        Hyperrectangle(((1,), (1,))),
        Hyperrectangle(((2,), (2,))),
    )
    w = generate(frozenset({(1, 2), (2, 1)}), rects, (3, 3))
    assert w is not None
    assert evaluate_expression(w, rects) == {(1, 2), (2, 1)}
    assert sum(isinstance(t, int) for t in w.tokens) == 3


def test_closure_search_none_vs_budget_are_distinct():
    rects = (
        Hyperrectangle(((1, 2), (1, 2))),
        Hyperrectangle(((1,), (1,))),
        Hyperrectangle(((2,), (2,))),
    )
    assert generate(frozenset({(0, 1)}), rects, (3, 3)) is None
    with pytest.raises(BudgetExceededError) as exc:
        generate(frozenset({(1, 2), (2, 1)}), rects, (3, 3), max_closure=2)
    assert exc.value.kind == "closure"


def heap_closure_search(masks, wanted, max_values, deadline):
    """The uniform-cost heap search that ``_closure_search`` replaced,
    kept as its oracle: pops by (leaf count, push order), skips a push
    for a set already queued with no more leaves, and caps the frontier
    at 64 entries per settled set allowed."""
    heap = [(1, i, m, (i,)) for i, m in enumerate(masks)]
    heapify(heap)
    seq = len(masks)
    queued = dict.fromkeys(masks, 1)
    settled = {}
    order = []
    found = {}

    def witness(mask):
        tokens, todo = [], [mask]
        while todo:
            how = settled[todo.pop()]
            tokens.append(how[0])
            todo += how[:0:-1]
        return tuple(tokens)

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
            raise BudgetExceededError("closure cap exceeded", kind="closure")
        if mask in wanted:
            found[mask] = witness(mask)
            if len(found) == len(wanted):
                return found
        for other, osize in order:
            both = mask & other
            if both and both != other and both != mask:
                continue
            cand, leaves = mask ^ other, size + osize
            if queued.get(cand, inf) <= leaves:
                continue
            if len(heap) >= heap_cap:
                raise BudgetExceededError("closure frontier exceeded its cap", kind="closure")
            if not both:
                chow = ("+", mask, other)
            elif both == other:
                chow = ("-", mask, other)
            else:
                chow = ("-", other, mask)
            queued[cand] = leaves
            heappush(heap, (leaves, seq, cand, chow))
            seq += 1
    return found


def closure_outcome(search, masks, wanted, cap):
    """The witness tokens by mask, or the kind of the cap that stopped
    the search."""
    try:
        found = search(masks, wanted, cap, None)
    except BudgetExceededError as e:
        return e.kind
    return {m: getattr(w, "tokens", w) for m, w in found.items()}


def test_closure_search_matches_the_heap_search():
    # random rectangle lists over 4 to 16 cells, each wanted set made of
    # a random set, a rectangle's difference or union with another (when
    # legal) and a random union of rectangles
    rng = random.Random(27)
    kinds = {"found": 0, "exhausted": 0, "closure": 0}
    for _ in range(2000):
        cards = rng.choice([(4,), (2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (2, 2, 2), (2, 2, 3)])
        rects = [
            Hyperrectangle(tuple(
                tuple(sorted(rng.sample(range(c), rng.randint(1, c)))) for c in cards
            ))
            for _ in range(rng.randint(1, 7))
        ]
        masks = [mask_of(r.points(), cards) for r in rects]
        a, b = rng.choice(masks), rng.choice(masks)
        union = 0
        for m in rng.sample(masks, rng.randint(1, len(masks))):
            union |= m
        wanted = {rng.randrange(1 << prod(cards)), a ^ b, union}
        for cap in (1, 2, 5, 50, 2000):
            got = closure_outcome(_closure_search, masks, wanted, cap)
            assert got == closure_outcome(heap_closure_search, masks, wanted, cap)
            if isinstance(got, str):
                kinds[got] += 1
            else:
                kinds["found" if len(got) == len(wanted) else "exhausted"] += 1
    assert min(kinds.values()) >= 500, kinds


def test_closure_search_passes_an_empty_leaf_class():
    # rows 1-2 minus row 1 is row 2, and rows 1-2 minus the lower right
    # square is C = {(1, 0), (2, 0)}: with A - A, class 2 holds three
    # sets.  Class 3 holds D, row 2 joined to R4; class 4 is empty; class
    # 5 holds D - C.  A search that stopped at the first empty class
    # would call D - C not generable.
    rects = (
        Hyperrectangle(((1,), (0, 1, 2))),
        Hyperrectangle(((1, 2), (0, 1, 2))),
        Hyperrectangle(((1, 2), (1, 2))),
        Hyperrectangle(((0, 1), (0, 2))),
    )
    target = frozenset({(0, 0), (0, 2), (1, 2), (2, 1), (2, 2)})
    rect_sets = [frozenset(r.points()) for r in rects]
    assert brute_force_closure(rect_sets, 4) == brute_force_closure(rect_sets, 3)
    assert target not in brute_force_closure(rect_sets, 4)
    w = generate(target, rects, (3, 3))
    assert w is not None and sum(isinstance(t, int) for t in w.tokens) == 5
    assert evaluate_expression(w, rects) == target
    # and a target the closure never reaches: the search ends exhausted
    assert generate(frozenset({(0, 1)}), rects, (3, 3)) is None
    assert frozenset({(0, 1)}) not in brute_force_closure(rect_sets, 10)


# -- the solver on worked functions ------------------------------------------


def exhaustive_min_base_size(d):
    """Smallest feasible subset size by brute force: every subset of
    every size, feasibility by fixpoint closure over set values."""
    rects = rectangles(d.parent_cards)
    rect_sets = [frozenset(r.points()) for r in rects]
    levels = [frozenset(v) for v in level_sets(d).values()]

    def closure(seed):
        vals = set(seed)
        grew = True
        while grew:
            grew = False
            for a in list(vals):
                for b in list(vals):
                    for c in (
                        (a | b) if not (a & b) else None,
                        (a - b) if b <= a else None,
                    ):
                        if c is not None and c not in vals:
                            vals.add(c)
                            grew = True
        return vals

    for k in range(1, len(rects) + 1):
        for subset in combinations(range(len(rects)), k):
            vals = closure(rect_sets[i] for i in subset)
            if all(lv in vals for lv in levels):
                return k
    raise AssertionError("no base found at all")


def test_span_feasible_subset_can_be_closure_infeasible():
    # span-feasible does not imply closure-feasible, on 12 cells: the
    # rectangles {0}x{0,1,3}, {0,1}x{0,3}, the full space and {0,2}x{0,1,2}
    # pass the atom and span tests, yet no expression over them forms
    # either level set, so check_subset rejects them at the closure stage
    d = DeterministicFunction((0, 1), 2, (3, 4), 2, (0, 1, 0, 1, 0, 1, 1, 0, 0, 0, 0, 1))
    search = _Search(d, SearchBudget(), None)
    search.load_candidates()
    assert list(search.level_masks.values()) == [1941, 2154]
    subset = sorted(search.masks.index(m) for m in (11, 153, 4095, 1799))
    parts = [search.full]
    for i in subset:
        parts = _refine(parts, search.masks[i], search.level_of)
    assert parts == []
    rows = (_mask_row(search.masks[i], search.ncells) for i in subset)
    assert _in_span(_echelon(rows), search.level_rows)
    assert _closure_search([search.masks[i] for i in subset], {1941, 2154}, inf, None) == {}
    assert search.check_subset(subset, parts) is None
    assert not search.unknown and (search.checked, search.impure) == (1, 0)
    # the search passes that subset on its way to a base of the same size
    sol = solve_mbh(d)
    assert sol.proved_minimal and sol.base.size == 4
    assert {r.dims for r in sol.base.rectangles} != {
        search.candidates.rectangle(i).dims for i in subset}


def test_binary_add_minimum_is_three_with_oracle():
    d = mk((2, 2), lambda a, b: a + b, 3)
    sol = solve_mbh(d)
    assert sol.base.size == 3
    assert sol.proved_minimal
    assert bool(verify_factorization(d, build_factorized_form(d, sol.base)))
    assert exhaustive_min_base_size(d) == 3
    # three level sets force at least three rectangles
    assert len(level_sets(d)) == 3


def test_ternary_add_minimum_is_six():
    d = mk((3, 3), lambda a, b: a + b, 5)
    sol = solve_mbh(d)
    assert sol.base.size == 6
    assert sol.proved_minimal
    assert bool(verify_factorization(d, build_factorized_form(d, sol.base)))
    assert sol.stats.elapsed_seconds < 60


def test_boolean_example_minimum_is_three():
    d = function_from_formula(
        (0, 1, 2), 3, (2, 2, 2), ["X1", "X2", "X3"], "(X1 | X2) => (X2 & X3)"
    )
    sol = solve_mbh(d)
    assert sol.base.size == 3
    assert sol.proved_minimal
    dims = {r.dims for r in sol.base.rectangles}
    assert Hyperrectangle(((0,), (0,), (0, 1))).dims in dims
    assert Hyperrectangle(((0, 1), (1,), (1,))).dims in dims


def test_conjunction_minimum_is_two():
    d = mk((2,) * 5, lambda *x: int(all(x)), 2)
    sol = solve_mbh(d)
    assert sol.base.size == 2
    assert sol.proved_minimal


def test_max_solution_no_larger_than_closed_base():
    d = mk((3, 3, 3), lambda *x: max(x), 3)
    sol = solve_mbh(d)
    assert sol.proved_minimal
    assert sol.base.size <= known_base_max((3, 3, 3)).size


def test_constant_function_single_rectangle():
    d = mk((2, 2), lambda a, b: 1, 3)
    sol = solve_mbh(d)
    assert sol.base.size == 1
    assert sol.proved_minimal
    assert sol.base.rectangles[0].dims == ((0, 1), (0, 1))


# -- the search against an unfiltered reference ------------------------------


def reference_first_base(d):
    """The rectangles of the first subset, in the order of combinations
    over all candidates at the smallest size that has one, that covers
    the space, spans every level indicator and generates every level set
    with no cap on the closure search; no atom test comes first."""
    search = _Search(d, SearchBudget(), None)
    search.load_candidates()
    masks, ncells = search.masks, search.ncells
    levels = list(search.level_masks.values())
    for k in range(1, len(masks) + 1):
        for subset in combinations(range(len(masks)), k):
            acc = 0
            for i in subset:
                acc |= masks[i]
            if (acc == search.full
                    and _in_span(_echelon(_mask_row(masks[i], ncells) for i in subset),
                                 search.level_rows)
                    and len(_closure_search([masks[i] for i in subset], set(levels), inf, None))
                    == len(levels)):
                return tuple(search.candidates.rectangle(i) for i in subset)
    raise AssertionError("no base found at all")


def small_functions(seed, count):
    """Seeded random functions on at most nine cells."""
    rng = random.Random(seed)
    while count:
        cards = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 3)))
        size = int(np.prod(cards))
        if size <= 9:
            cc = rng.randint(2, 4)
            yield DeterministicFunction(
                tuple(range(len(cards))), len(cards), cards, cc,
                tuple(rng.randrange(cc) for _ in range(size)),
            )
            count -= 1


def test_search_returns_the_first_base_of_an_unfiltered_search():
    # the stripe-union pool at the level-set count, the class switch one
    # above it and the plain search beyond must each keep every feasible
    # subset and the lexicographic order
    worked = [mk((2, 3), lambda a, b: a + b, 4), mk((2, 2, 2), lambda *x: int(sum(x) >= 2), 2)]
    gaps = set()
    for d in [*worked, *small_functions(1, 60)]:
        sol = solve_mbh(d)
        assert sol.proved_minimal
        assert sol.base.rectangles == reference_first_base(d)
        gaps.add(sol.base.size - len(level_sets(d)))
    assert gaps == {0, 1, 2}


# -- budgets and degradation -------------------------------------------------


@pytest.mark.parametrize(
    "cap, value",
    [("max_rectangles", 0), ("max_closure", 0),
     ("wall_clock", 0.0), ("wall_clock", -1.0), ("wall_clock", float("nan")),
     ("wall_clock", float("inf")), ("wall_clock", float("-inf"))],
)
def test_budget_rejects_caps_it_cannot_enforce(cap, value):
    # a NaN deadline would never fire: every comparison with it is false
    with pytest.raises(ValidationError, match=cap):
        SearchBudget(**{cap: value})


def test_rectangle_cap_propagates_with_best_effort_answer():
    # the candidate pool is out of reach, so the search never starts: the
    # cap ends it like any other, with the greedy cover, unproved
    d = mk((4, 4, 4, 4), lambda *x: sum(x), 13)
    sol = solve_mbh(d, SearchBudget(max_rectangles=10))
    assert sol.base == greedy_cover_base(d)
    assert bool(verify_factorization(d, build_factorized_form(d, sol.base)))
    assert not sol.proved_minimal
    assert sol.stats.rectangles_enumerated == 0
    assert sol.stats.nodes_expanded == 0
    assert sol.stats.cap == "rectangles"


@pytest.mark.parametrize(
    "name, fn", [("parity12", lambda *x: sum(x) % 2), ("or16", lambda *x: int(any(x)))]
)
def test_a_capped_wide_function_builds_no_integer_rows(name, fn, monkeypatch):
    # the integer rows of the span test cost a shift per cell each, so
    # they wait for the first span test: when the candidate cap ends the
    # search, as on these 4096- and 65536-cell functions, none is built
    n = int(name[-2:])
    rows = []

    def counted(mask, ncells):
        rows.append(mask)
        return _mask_row(mask, ncells)

    monkeypatch.setattr("factorbn.mbh._mask_row", counted)
    d = mk((2,) * n, fn, 2)
    sol = solve_mbh(d)
    assert rows == []
    assert sol.stats.cap == "rectangles" and not sol.proved_minimal
    assert sol.base == greedy_cover_base(d)


def test_greedy_cover_is_built_only_as_fallback(monkeypatch):
    # a search that finds a base never builds the greedy cover; a cap that
    # ends the search with no base in hand falls back to it
    calls = []

    def counted(d):
        calls.append(d)
        return greedy_cover_base(d)

    monkeypatch.setattr("factorbn.mbh.greedy_cover_base", counted)
    d = mk((3, 3), lambda a, b: a + b, 5)
    assert solve_mbh(d).proved_minimal
    assert calls == []
    sol = solve_mbh(d, SearchBudget(max_rectangles=10))
    assert calls == [d]
    assert sol.base == greedy_cover_base(d) and sol.stats.cap == "rectangles"


def test_closure_cap_ends_the_search_at_the_greedy_cover_size():
    # y = x1 on 3x2: the cap leaves size 3 open, and the greedy cover,
    # built at that first closure cap, has size 3, so no larger size is
    # searched; the cover meets the level-set bound and is proved
    d = mk((3, 2), lambda a, b: a, 3)
    sol = solve_mbh(d, SearchBudget(max_closure=1))
    assert sol.base == greedy_cover_base(d)
    assert sol.proved_minimal and sol.stats.cap == "none"
    # the size-3 search alone; searching size 4 too takes 1031 and 635
    assert (sol.stats.nodes_expanded, sol.stats.subsets_checked) == (53, 32)


@pytest.mark.parametrize(
    "cap, value, name",
    [("max_rectangles", 10, "rectangles"), ("max_closure", 2, "closure"),
     ("wall_clock", 1e-9, "wall")],
    ids=["max_rectangles", "max_closure", "wall_clock"],
)
def test_cap_returns_unproved_base(cap, value, name):
    d = mk((3, 3), lambda a, b: a + b, 5)
    sol = solve_mbh(d, SearchBudget(**{cap: value}))
    assert bool(verify_factorization(d, build_factorized_form(d, sol.base)))
    assert not sol.proved_minimal
    assert sol.stats.cap == name
    assert sol.stats.gap >= 1
    if name == "rectangles":  # no size was ruled out: the bound is the level count
        assert sol.stats.gap == sol.base.size - 5


def fake_clock(monkeypatch, now):
    """Make the solver's clock read ``now[0]``, and return the list of
    the values it read."""
    reads = []

    def monotonic():
        reads.append(now[0])
        return now[0]

    monkeypatch.setattr("factorbn.mbh.time.monotonic", monotonic)
    return reads


def test_closure_search_reads_the_clock_every_64_settled_sets(monkeypatch):
    # 70 single cells form class 1; settling the 64th reads the clock,
    # past the deadline, before any left operand is taken
    reads = fake_clock(monkeypatch, [11.0])
    with pytest.raises(BudgetExceededError) as e:
        _closure_search([1 << i for i in range(70)], {(1 << 70) - 1}, inf, 10.0)
    assert e.value.kind == "wall"
    assert reads == [11.0]


def test_closure_search_reads_the_clock_per_left_operand(monkeypatch):
    # {0} and {1} settle with no clock read; class 2 reads it once per
    # left operand, and finds {0, 1} at the second
    now = [9.0]
    reads = fake_clock(monkeypatch, now)
    assert format_expression(_closure_search([1, 2], {3}, inf, 10.0)[3]) == "(+ R2 R1)"
    assert reads == [9.0, 9.0]
    now[0] = 11.0
    with pytest.raises(BudgetExceededError) as e:
        _closure_search([1, 2], {3}, inf, 10.0)
    assert e.value.kind == "wall"
    assert reads[2:] == [11.0]


def test_deadline_in_the_closure_search_returns_the_greedy_cover(monkeypatch):
    # AND: the first subset that passes the span test, the full space and
    # the accepting point, needs a difference of two leaves; the clock
    # passes the deadline as its closure search starts
    now = [0.0]
    fake_clock(monkeypatch, now)
    searches = []

    def late(*args):
        searches.append(args)
        now[0] = 100.0
        return _closure_search(*args)

    monkeypatch.setattr("factorbn.mbh._closure_search", late)
    d = mk((2, 2), lambda a, b: a & b, 2)
    sol = solve_mbh(d, SearchBudget(wall_clock=10.0))
    assert len(searches) == 1
    assert sol.base == greedy_cover_base(d) and sol.base.size == 3
    assert not sol.proved_minimal and sol.stats.cap == "wall" and sol.stats.gap == 1


def test_base_on_the_bound_is_proved_under_a_cap():
    # y = x1: the two level sets bound the base from below, and the greedy
    # cover built at the first closure cap meets the bound, so the cap
    # leaves nothing unproved
    d = mk((2, 2), lambda a, b: a, 2)
    sol = solve_mbh(d, SearchBudget(max_closure=1))
    assert sol.base.size == 2
    assert sol.proved_minimal
    assert sol.stats.cap == "none"


def test_stats_are_populated():
    d = mk((3, 3), lambda a, b: a + b, 5)
    sol = solve_mbh(d)
    s = sol.stats
    assert s.rectangles_enumerated == 49
    assert s.subsets_checked >= 1
    assert 0 < s.impure < s.subsets_checked
    assert s.nodes_expanded >= 1
    assert s.elapsed_seconds >= 0.0
    assert sol.proved_minimal
    assert s.cap == "none"
    assert s.gap == 0


def test_solver_deterministic_across_runs():
    d = mk((3, 3), lambda a, b: a + b, 5)
    a = solve_mbh(d)
    b = solve_mbh(d)
    assert a.base == b.base
    assert a.proved_minimal == b.proved_minimal
    assert [format_expression(e) for e in a.base.expressions.values()] == [
        format_expression(e) for e in b.base.expressions.values()
    ]


def test_the_shape_cache_changes_no_golden():
    # a shape's candidates are made once per process and shared by every
    # function of that shape: the goldens, solved twice from a cold cache
    # in two shuffled orders, keep their bytes and counters each time
    goldens = json.loads(GOLDENS.read_text())
    _shape_candidates.cache_clear()
    for seed in (1, 2):
        order = list(CASES)
        random.Random(seed).shuffle(order)
        for case in order:
            name, k = case.split("/")
            assert record(relabeled(name, int(k))) == goldens[case], case
    assert _shape_candidates.cache_info().hits >= len(CASES)
    # the cap is checked before the cache, so a shape already solved
    # still raises, with the same message
    d = mk((3, 3), lambda a, b: a + b, 5)
    assert solve_mbh(d).proved_minimal
    with pytest.raises(BudgetExceededError) as e:
        _candidates((3, 3), SearchBudget(max_rectangles=48))
    assert str(e.value) == "49 candidate rectangles exceed the cap of 48"
    assert e.value.kind == "rectangles"
    sol = solve_mbh(d, SearchBudget(max_rectangles=48))
    assert (sol.stats.cap, sol.stats.rectangles_enumerated) == ("rectangles", 0)


# -- greedy cover ------------------------------------------------------------


def test_greedy_cover_always_verifies():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 3)
        cards = tuple(rng.randint(2, 3) for _ in range(n))
        size = 1
        for c in cards:
            size *= c
        cc = rng.randint(2, 4)
        outputs = tuple(rng.randrange(cc) for _ in range(size))
        d = DeterministicFunction(tuple(range(n)), n, cards, cc, outputs)
        base = greedy_cover_base(d)
        assert bool(verify_factorization(d, build_factorized_form(d, base)))


def test_greedy_cover_no_duplicate_rectangles():
    d = mk((2, 2), lambda a, b: a ^ b, 2)
    base = greedy_cover_base(d)
    assert len({r.dims for r in base.rectangles}) == base.size
