"""Hidden-variable factorized forms: h and g tables, verification.

Core claims:
    - the worked ADD base over {0,1,2}^2 produces the known h and g
      tables cell-exactly, including the +2 coefficient
    - the worked 3-rectangle Boolean base verifies with signed rows
      (-1,-1,+1) / (+1,+1,0)
    - rebuilding the function from h and g matches the table exactly,
      and summing the reconstruction over the child gives all-ones
    - the signed-count decomposition turns sums over expression
      denotations into signed sums over rectangles, and both walks of
      an expression work on a union chain deeper than the recursion limit
    - the trivial form holds one hidden state per configuration, cell
      for cell, and it and the closed conjunction / MAX bases verify
    - tampered h tables are caught with a concrete violating cell, and
      a form that fails is refused where it is built
    - verification is exact, refusing an h whose int64 sums could
      wrap, and runs in bounded memory
"""

import random
import tracemalloc
from itertools import product as iproduct

import numpy as np
import pytest

from factorbn import (
    Base,
    InternalConsistencyError,
    DeterministicFunction,
    Expression,
    FactorizedForm,
    Hyperrectangle,
    ValidationError,
    build_factorized_form,
    evaluate_expression,
    function_from_formula,
    known_base_conjunction,
    known_base_max,
    level_sets,
    trivial_factorization,
    verify_factorization,
)

E = Expression


def mk(cards, fn, child_card):
    n = len(cards)
    return DeterministicFunction.from_callable(
        tuple(range(n)), n, tuple(cards), child_card, fn
    )


def add_base_3x3():
    rects = (
        Hyperrectangle(((0, 1, 2), (0, 1, 2))),
        Hyperrectangle(((0, 1), (0, 1))),
        Hyperrectangle(((1, 2), (1, 2))),
        Hyperrectangle(((0,), (0,))),
        Hyperrectangle(((1,), (1,))),
        Hyperrectangle(((2,), (2,))),
    )
    exprs = {
        0: E.rect(3),
        1: E.diff(E.diff(E.rect(1), E.rect(3)), E.rect(4)),
        2: E.union(
            E.diff(E.diff(E.rect(0), E.rect(1)), E.diff(E.rect(2), E.rect(4))),
            E.rect(4),
        ),
        3: E.diff(E.diff(E.rect(2), E.rect(5)), E.rect(4)),
        4: E.rect(5),
    }
    return Base(rects, exprs)


# -- the worked ADD example --------------------------------------------------


def test_add_base_h_table_exact():
    d = mk((3, 3), lambda a, b: a + b, 5)
    form = build_factorized_form(d, add_base_3x3())
    expected_h = np.array(
        [
            [0, 0, 0, 1, 0, 0],
            [0, 1, 0, -1, -1, 0],
            [1, -1, -1, 0, 2, 0],
            [0, 0, 1, 0, -1, -1],
            [0, 0, 0, 0, 0, 1],
        ],
        dtype=np.int64,
    )
    assert np.array_equal(form.h, expected_h)


def test_add_base_g_tables_exact():
    d = mk((3, 3), lambda a, b: a + b, 5)
    form = build_factorized_form(d, add_base_3x3())
    expected_g = np.array(
        [[1, 1, 0, 1, 0, 0], [1, 1, 1, 0, 1, 0], [1, 0, 1, 0, 0, 1]],
        dtype=np.int64,
    )
    assert len(form.g) == 2
    assert np.array_equal(form.g[0], expected_g)
    assert np.array_equal(form.g[1], expected_g)
    assert form.n_hidden == 6


def test_add_base_verifies():
    d = mk((3, 3), lambda a, b: a + b, 5)
    form = build_factorized_form(d, add_base_3x3())
    assert bool(verify_factorization(d, form))


def test_add_reconstruction_cell():
    # y=2 at x=(1,1): 1 - 1 - 1 + 2 = 1 through the repeated-leaf row
    d = mk((3, 3), lambda a, b: a + b, 5)
    form = build_factorized_form(d, add_base_3x3())
    active = [k for k in range(form.n_hidden) if form.g[0][1, k] and form.g[1][1, k]]
    assert sum(int(form.h[2, k]) for k in active) == 1


# -- the worked Boolean example ----------------------------------------------


def boolean_example():
    d = function_from_formula(
        (0, 1, 2), 3, (2, 2, 2), ["X1", "X2", "X3"], "(X1 | X2) => (X2 & X3)"
    )
    rects = (
        Hyperrectangle(((0,), (0,), (0, 1))),
        Hyperrectangle(((0, 1), (1,), (1,))),
        Hyperrectangle(((0, 1), (0, 1), (0, 1))),
    )
    base = Base(
        rects,
        {
            0: E.diff(E.rect(2), E.union(E.rect(1), E.rect(0))),
            1: E.union(E.rect(1), E.rect(0)),
        },
    )
    return d, base


def test_boolean_base_verifies_with_signed_rows():
    d, base = boolean_example()
    form = build_factorized_form(d, base)
    assert np.array_equal(form.h, np.array([[-1, -1, 1], [1, 1, 0]], dtype=np.int64))
    assert bool(verify_factorization(d, form))


# -- general properties ------------------------------------------------------


def test_reconstruction_sums_to_one_over_child():
    rng = random.Random(6)
    for _ in range(20):
        cards = tuple(rng.randint(2, 3) for _ in range(rng.randint(1, 3)))
        cc = rng.randint(2, 4)
        size = 1
        for c in cards:
            size *= c
        outputs = tuple(rng.randrange(cc) for _ in range(size))
        d = DeterministicFunction(
            tuple(range(len(cards))), len(cards), cards, cc, outputs
        )
        form = trivial_factorization(d)
        g_prod = np.ones((size, form.n_hidden), dtype=np.int64)
        for axis, table in enumerate(form.g):
            reps = np.array(
                [table[cfg[axis]] for cfg in iproduct(*(range(c) for c in cards))]
            )
            g_prod *= reps
        recon = g_prod @ form.h.T  # (configs, child)
        assert np.array_equal(recon.sum(axis=1), np.ones(size, dtype=np.int64))


def test_signed_count_sum_decomposition():
    # sum of psi over the denoted set == signed sum of rectangle masses
    rng = random.Random(7)
    rects = (
        Hyperrectangle(((0, 1, 2), (0, 1, 2))),
        Hyperrectangle(((0, 1), (0, 1))),
        Hyperrectangle(((1, 2), (1, 2))),
        Hyperrectangle(((0,), (0,))),
        Hyperrectangle(((1,), (1,))),
        Hyperrectangle(((2,), (2,))),
    )
    exprs = [
        E.diff(E.rect(1), E.rect(3)),
        E.union(E.diff(E.rect(1), E.rect(4)), E.rect(5)),
        E.diff(E.diff(E.rect(0), E.rect(1)), E.diff(E.rect(2), E.rect(4))),
        E.diff(E.rect(2), E.rect(5)),
    ]
    for _ in range(25):
        psi = {
            (a, b): rng.randint(-5, 5) for a in range(3) for b in range(3)
        }
        for e in exprs:
            direct = sum(psi[x] for x in evaluate_expression(e, rects))
            signed = sum(
                coeff * sum(psi[x] for x in rects[idx].points())
                for idx, coeff in e.signed_counts().items()
            )
            assert direct == signed


def test_trivial_factorization_small_spaces():
    rng = random.Random(8)
    # every Boolean function on {0,1}^2, then random larger tables
    fns = [
        DeterministicFunction((0, 1), 2, (2, 2), 2, tuple((bits >> i) & 1 for i in range(4)))
        for bits in range(16)
    ]
    for _ in range(40):
        n = rng.randint(1, 3)
        cards = tuple(rng.randint(2, 4) for _ in range(n))
        size = 1
        for c in cards:
            size *= c
        if size > 64:
            continue
        cc = rng.randint(2, 5)
        outputs = tuple(rng.randrange(cc) for _ in range(size))
        fns.append(DeterministicFunction(tuple(range(n)), n, cards, cc, outputs))
    # hidden state b is configuration b in table order:
    # h[y, b] = [f(cfg_b) = y] and g_i[x, b] = [cfg_b[i] = x]
    for d in fns:
        form = trivial_factorization(d)
        cfgs, flat = list(d.configurations()), d.outputs.ravel().tolist()
        h = [[int(flat[b] == y) for b in range(len(cfgs))] for y in range(d.child_card)]
        assert form.h.tolist() == h
        for i, c in enumerate(d.parent_cards):
            assert form.g[i].tolist() == [[int(cfg[i] == x) for cfg in cfgs] for x in range(c)]
        assert bool(verify_factorization(d, form))


# -- closed bases ------------------------------------------------------------


def test_conjunction_base_two_rectangles():
    accepting = (1, 1, 1, 1, 1, 0)
    base = known_base_conjunction(accepting)
    assert base.size == 2
    d = mk(
        (2,) * 6,
        lambda *x: int(tuple(x) == accepting),
        2,
    )
    form = build_factorized_form(d, base)
    assert bool(verify_factorization(d, form))


def test_conjunction_base_requires_binary_literals():
    with pytest.raises(ValidationError):
        known_base_conjunction((1, 2))


def test_max_base_nested_rectangles():
    base = known_base_max((4, 4, 4))
    assert base.size == 4
    d = mk((4, 4, 4), lambda *x: max(x), 4)
    form = build_factorized_form(d, base)
    assert bool(verify_factorization(d, form))
    # h is lower-bidiagonal: +1 on the diagonal, -1 left of it
    expected = np.zeros((4, 4), dtype=np.int64)
    for k in range(4):
        expected[k, k] = 1
        if k:
            expected[k, k - 1] = -1
    assert np.array_equal(form.h, expected)


def test_max_base_rejects_mismatched_scales():
    with pytest.raises(ValidationError):
        known_base_max((3, 4))


# -- validation and falsification --------------------------------------------


def test_form_copies_the_callers_arrays():
    # the form's tables are read-only copies; the caller's stay writeable
    h = np.eye(2, dtype=np.int64)
    g = np.eye(2, dtype=np.int64)
    form = FactorizedForm((2,), 2, h, (g,))
    assert h.flags.writeable and g.flags.writeable
    assert not form.h.flags.writeable and not form.g[0].flags.writeable
    h[0, 0] = g[0, 0] = 7
    assert form.h[0, 0] == form.g[0][0, 0] == 1
    assert form != (h, (g,)) and form != "form"  # not a form: never equal
    for entry in (2, 3, -1, -2):
        bad = np.eye(2, dtype=np.int64)
        bad[1, 0] = entry
        with pytest.raises(ValidationError, match="0/1"):
            FactorizedForm((2,), 2, h, (bad,))


def test_form_rejects_non_integer_entries():
    # an int64 cast would truncate 1.7 and 1.9 to 1 and accept the identity
    with pytest.raises(ValidationError, match="h entries must be integers"):
        FactorizedForm((2,), 2, [[1.7, 0], [0, 1]], ([[1.9, 0], [0, 1]],))
    with pytest.raises(ValidationError, match=r"g\[0\] entries must be integers"):
        FactorizedForm((2,), 2, np.eye(2), ([[1.9, 0], [0, 1]],))
    with pytest.raises(ValidationError, match=r"g\[1\] entries must be integers that fit in 64"):
        FactorizedForm((2, 2), 2, np.eye(2), (np.eye(2), [[2**70, 0], [0, 1]]))
    for bad in (np.nan, np.inf, 1e30):
        with pytest.raises(ValidationError, match="h entries must be integers"):
            FactorizedForm((2,), 2, [[bad, 0], [0, 1]], (np.eye(2),))
    with pytest.raises(ValidationError, match="h entries must be integers"):
        FactorizedForm((2,), 2, [["1", "0"], ["0", "1"]], (np.eye(2),))
    form = FactorizedForm((2,), 2, [[1.0, 0.0], [0.0, -3.0]], (np.eye(2),))  # integral floats
    assert form.h.dtype == form.g[0].dtype == np.int64
    assert form.h.tolist() == [[1, 0], [0, -3]]


def test_form_rejects_ragged_tables():
    with pytest.raises(ValidationError, match=r"g\[0\] rows must all have the same length"):
        FactorizedForm((2,), 2, [[1, 0], [0, 1]], ([[1, 0], [0]],))
    with pytest.raises(ValidationError, match=r"g\[1\] rows must all have the same length"):
        FactorizedForm((2, 2), 2, [[1, 0], [0, 1]], (np.eye(2), [[1, 0], [0]]))
    with pytest.raises(ValidationError, match="h rows must all have the same length"):
        FactorizedForm((2,), 2, [[1, 0], [0, [1]]], (np.eye(2),))


def test_build_rejects_expression_outside_image():
    d = mk((2, 2), lambda a, b: a & b, 2)
    base = Base(
        (full_rect_2x2(),),
        {0: E.rect(0), 1: E.rect(0), 2: E.rect(0)},
    )
    with pytest.raises(ValidationError) as exc:
        build_factorized_form(d, base)
    assert "outside the image" in str(exc.value)


def test_build_rejects_missing_state():
    d = mk((2, 2), lambda a, b: a & b, 2)
    base = Base((full_rect_2x2(),), {1: E.rect(0)})
    with pytest.raises(ValidationError):
        build_factorized_form(d, base)


def test_build_rejects_wrong_level_set():
    d = mk((2, 2), lambda a, b: a & b, 2)
    point = Hyperrectangle(((1,), (1,)))
    base = Base(
        (full_rect_2x2(), point),
        {0: E.rect(1), 1: E.diff(E.rect(0), E.rect(1))},
    )
    with pytest.raises(ValidationError) as exc:
        build_factorized_form(d, base)
    assert "does not denote" in str(exc.value)


def test_verify_catches_tampered_h():
    d = mk((2, 2), lambda a, b: a & b, 2)
    base = known_base_conjunction((1, 1))
    form = build_factorized_form(d, base)
    h = form.h.copy()
    h[0, 1] = 0  # drop the -1 that cancels the accepting cell
    bad = type(form)(form.parent_cards, form.child_card, h, form.g)
    verdict = verify_factorization(d, bad)
    assert not verdict
    assert verdict.violation == (0, (1, 1))


def test_verify_refuses_an_h_whose_sums_could_wrap():
    # on the three cells other than (1, 1), h's first row sums to
    # 2**64 + 1, which int64 wraps to the indicator's 1
    d = mk((2, 2), lambda a, b: a & b, 2)
    big = 2**63 - 1
    g = [[1, 1, 1, 0], [1, 1, 1, 1]]
    form = FactorizedForm((2, 2), 2, [[big, big, 3, -1], [0, 0, 0, 1]], (g, g))
    with pytest.raises(ValidationError, match=r"2\*\*63"):
        verify_factorization(d, form)


def test_verify_runs_in_bounded_memory():
    # 12-parent parity's trivial form: 4096 hidden states over 4096 cells,
    # whose dense product of g tables alone would take 128 MiB
    d = mk((2,) * 12, lambda *x: sum(x) % 2, 2)
    form = trivial_factorization(d)
    tracemalloc.start()
    try:
        assert verify_factorization(d, form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_build_verifies_the_form_it_makes(monkeypatch):
    # a defect in the producer is caught where the form is made, naming
    # the first cell that fails
    from factorbn import factorization

    d = mk((2, 2), lambda a, b: a & b, 2)
    good = factorization.membership_tables
    monkeypatch.setattr(
        factorization, "membership_tables",
        lambda rects, cards: good(rects[:1] * len(rects), cards),
    )
    with pytest.raises(InternalConsistencyError, match=r"at \(0, \(0, 0\)\)"):
        build_factorized_form(d, known_base_conjunction((1, 1)))


def test_level_sets_partition_the_space():
    d = mk((3, 2), lambda a, b: (a + b) % 3, 3)
    levels = level_sets(d)
    union = set()
    for state, cells in levels.items():
        assert cells
        assert union.isdisjoint(cells)
        union |= cells
    assert union == {(a, b) for a in range(3) for b in range(2)}


def test_build_walks_a_union_chain_deeper_than_the_recursion_limit():
    # one 1200-state parent, a one-state child: its one level set is the
    # union chain R1 + R2 + ... + R1200 of the singleton rectangles
    n = 1200
    d = DeterministicFunction((0,), 1, (n,), 1, (0,) * n)
    expr = E.rect(0)
    for i in range(1, n):
        expr = E.union(expr, E.rect(i))
    base = Base(tuple(Hyperrectangle(((i,),)) for i in range(n)), {0: expr})
    assert expr.signed_counts() == {i: 1 for i in range(n)}
    assert evaluate_expression(expr, base.rectangles) == level_sets(d)[0]
    form = build_factorized_form(d, base)
    assert form.h.tolist() == [[1] * n]
    assert bool(verify_factorization(d, form))


def full_rect_2x2():
    return Hyperrectangle(((0, 1), (0, 1)))
