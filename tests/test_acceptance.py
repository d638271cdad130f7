"""Acceptance gate: the seven headline guarantees, one test each.

Run with -v to get one pass/fail line per guarantee.

    1. the worked ADD base yields the exact published-style h and g
       integer tables and the form verifies, in under a second
    2. the difference-chain and three-rectangle Boolean goldens hold
    3. the base solver proves minimality where an exhaustive oracle
       can confirm it, and stays within budget on the ternary grid
    4. factorizing a deterministic node never moves a posterior:
       200 seeded random networks, every variable, within 1e-9
    5. on the canonical seeded benchmark the full method ordering
       holds at every prefix length and the savings ratio grows
    6. on the 4-parent star the max-clique ratio is exactly 8
    7. the command-line tools are byte-deterministic
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from factorbn import (
    Cpt,
    DeterministicFunction,
    Evidence,
    Factor,
    Hyperrectangle,
    Network,
    SearchBudget,
    Variable,
    build_factorized_form,
    evaluate_expression,
    solve_mbh,
    variable_elimination,
    verify_factorization,
)
from factorbn.benchcat import (
    StudentModelSpec,
    canonical_tasks,
    generate_student_model,
    run_clique_benchmark,
    star_family,
)
from factorbn.cli import run_cli
from factorbn.cliques import moralize_and_triangulate
from factorbn.inference import transform_network
from factorbn.rectangles import Base, Expression


def report(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {status}: {detail}")
    assert ok, detail


R = Expression.rect
D = Expression.diff
U = Expression.union


# -- 1: the worked ADD factorization, cell-exact ------------------------------

ADD_RECTS = (
    Hyperrectangle(((0, 1, 2), (0, 1, 2))),   # the full grid
    Hyperrectangle(((0, 1), (0, 1))),
    Hyperrectangle(((1, 2), (1, 2))),
    Hyperrectangle(((0,), (0,))),
    Hyperrectangle(((1,), (1,))),
    Hyperrectangle(((2,), (2,))),
)

ADD_EXPRS = {
    0: R(3),
    1: D(D(R(1), R(3)), R(4)),
    2: U(D(D(R(0), R(1)), D(R(2), R(4))), R(4)),
    3: D(D(R(2), R(5)), R(4)),
    4: R(5),
}

ADD_H = [
    [0, 0, 0, 1, 0, 0],
    [0, 1, 0, -1, -1, 0],
    [1, -1, -1, 0, 2, 0],
    [0, 0, 1, 0, -1, -1],
    [0, 0, 0, 0, 0, 1],
]

ADD_G = [
    [1, 1, 0, 1, 0, 0],
    [1, 1, 1, 0, 1, 0],
    [1, 0, 1, 0, 0, 1],
]


def add_33():
    return DeterministicFunction.from_callable(
        (0, 1), 2, (3, 3), 5, lambda a, b: a + b
    )


def test_criterion_1_add_base_gives_exact_integer_tables():
    t0 = time.monotonic()
    form = build_factorized_form(add_33(), Base(ADD_RECTS, ADD_EXPRS))
    ok = (
        form.h.tolist() == ADD_H
        and form.g[0].tolist() == ADD_G
        and form.g[1].tolist() == ADD_G
        and bool(verify_factorization(add_33(), form))
    )
    elapsed = time.monotonic() - t0
    report(1, ok and elapsed < 1.0,
           f"h and both g tables cell-exact, form verifies, {elapsed:.3f}s")


# -- 2: the set-algebra and Boolean goldens -----------------------------------


def test_criterion_2_difference_chain_and_boolean_base():
    t0 = time.monotonic()
    # (big corner block minus its far cell) minus its near cell
    chain = D(D(R(2), R(5)), R(4))
    got = evaluate_expression(chain, ADD_RECTS)
    chain_ok = got == frozenset({(1, 2), (2, 1)})

    # (x1 or x2) implies (x2 and x3), as a three-rectangle base
    rects = (
        Hyperrectangle(((0,), (0,), (0, 1))),
        Hyperrectangle(((0, 1), (1,), (1,))),
        Hyperrectangle(((0, 1), (0, 1), (0, 1))),
    )
    base = Base(rects, {1: U(R(1), R(0)), 0: D(R(2), U(R(1), R(0)))})
    fn = DeterministicFunction.from_callable(
        (0, 1, 2), 3, (2, 2, 2), 2,
        lambda a, b, c: int((not (a or b)) or (b and c)),
    )
    form = build_factorized_form(fn, base)
    bool_ok = bool(verify_factorization(fn, form)) and form.n_hidden == 3
    elapsed = time.monotonic() - t0
    report(2, chain_ok and bool_ok and elapsed < 1.0,
           f"difference chain = {{(1,2),(2,1)}}, 3-rectangle Boolean base verifies, "
           f"{elapsed:.3f}s")


# -- 3: solver minimality, cross-checked by an exhaustive oracle ---------------


def closure_reaches(rect_sets, targets, max_leaves=7):
    """Exhaustive legal-expression closure over a fixed rectangle pool,
    written against frozensets only (independent of the solver)."""
    by_leaves = {1: set(rect_sets)}
    reachable = set(rect_sets)
    for total in range(2, max_leaves + 1):
        layer = set()
        for a in range(1, total):
            for left in by_leaves.get(a, ()):
                for right in by_leaves.get(total - a, ()):
                    if right <= left:
                        layer.add(left - right)
                    if not (left & right):
                        layer.add(left | right)
        by_leaves[total] = layer
        reachable |= layer
    return all(t in reachable for t in targets)


def test_criterion_3_minimality_proof_and_budgeted_ternary_grid():
    t0 = time.monotonic()
    add2 = DeterministicFunction.from_callable(
        (0, 1), 2, (2, 2), 2 + 1, lambda a, b: a + b
    )
    sol2 = solve_mbh(add2)
    levels = [frozenset({(0, 0)}), frozenset({(0, 1), (1, 0)}), frozenset({(1, 1)})]
    pool = [
        frozenset(Hyperrectangle((d1, d2)).points())
        for d1 in ((0,), (1,), (0, 1))
        for d2 in ((0,), (1,), (0, 1))
    ]
    no_smaller = not any(
        closure_reaches(subset, levels)
        for k in (1, 2)
        for subset in itertools.combinations(pool, k)
    )
    binary_ok = sol2.base.size == 3 and sol2.proved_minimal and no_smaller

    sol3 = solve_mbh(add_33(), SearchBudget(wall_clock=60.0))
    elapsed = time.monotonic() - t0
    ternary_ok = sol3.base.size <= 6 and elapsed < 60.0
    report(3, binary_ok and ternary_ok,
           f"binary grid: size 3 proved (oracle: no 1- or 2-rectangle base); "
           f"ternary grid: size {sol3.base.size} <= 6 in {elapsed:.1f}s")


# -- 4: factorizing never moves a posterior -----------------------------------


def random_network(rng):
    n = rng.randint(3, 8)
    cards = [rng.choice([2, 3]) for _ in range(n)]
    det_child = rng.randrange(1, n)
    k = rng.randint(1, min(4, det_child))
    det_parents = tuple(sorted(rng.sample(range(det_child), k)))
    variables = tuple(
        Variable(i, f"v{i}", tuple(f"s{j}" for j in range(cards[i])))
        for i in range(n)
    )
    cpts = []
    for i in range(n):
        if i == det_child:
            continue
        pool = [j for j in range(i) if j != det_child]
        parents = tuple(sorted(rng.sample(pool, min(len(pool), rng.randint(0, 2)))))
        family = tuple(sorted(parents + (i,)))
        shape = tuple(cards[v] for v in family)
        axis = family.index(i)
        table = np.array(
            [rng.uniform(0.1, 1.0) for _ in range(int(np.prod(shape)))]
        ).reshape(shape)
        table /= table.sum(axis=axis, keepdims=True)
        cpts.append(Cpt(i, parents, Factor(family, shape, table)))
    outputs = tuple(
        rng.randrange(cards[det_child])
        for _ in range(int(np.prod([cards[p] for p in det_parents])))
    )
    det = DeterministicFunction(
        det_parents, det_child,
        tuple(cards[p] for p in det_parents), cards[det_child], outputs,
    )
    return Network(variables, tuple(cpts), (det,))


def consistent_evidence(net, rng):
    """Observe a random subset of a forward-sampled configuration, so
    the evidence always has positive probability."""
    cfg = {}
    for v in net.variables:
        cfg[v.id] = rng.randrange(v.card)
    for det in net.deterministic:
        cfg[det.child] = int(det.outputs[tuple(cfg[p] for p in det.parents)])
    findings = {}
    for v in net.variables:
        if rng.random() < 0.4:
            vec = [0] * v.card
            vec[cfg[v.id]] = 1
            findings[v.id] = tuple(vec)
    return Evidence(findings)


def test_criterion_4_factorized_posteriors_match_on_200_networks():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(200):
        rng = random.Random(seed)
        net = random_network(rng)
        ev = consistent_evidence(net, rng)
        t = transform_network(net, "factorize")
        for v in net.variables:
            a = variable_elimination(net, ev, [v.id]).values
            b = variable_elimination(t, ev, [v.id]).values
            worst = max(worst, float(np.abs(a - b).max()))
    elapsed = time.monotonic() - t0
    report(4, worst < 1e-9 and elapsed < 60.0,
           f"200 networks, every variable: worst deviation {worst:.2e} "
           f"in {elapsed:.1f}s")


# -- 5: the benchmark's method ordering at every prefix length -----------------


def test_criterion_5_benchmark_method_ordering_and_growing_ratio():
    t0 = time.monotonic()
    spec = StudentModelSpec(seed=2)
    student = generate_student_model(spec)
    tasks = canonical_tasks(spec, 4, 2)
    rep = run_clique_benchmark(student, tasks, orderings="all", seed=2)
    strict = all(
        rep.row("factorize", r).avg_total_clique_size
        < rep.row("divorce", r).avg_total_clique_size
        < rep.row("none", r).avg_total_clique_size
        for r in range(1, 5)
    )
    at_zero = len({
        rep.row(m, 0).avg_total_clique_size
        for m in ("none", "divorce", "factorize")
    }) == 1
    ratios = [rep.ratio(r) for r in range(5)]
    growing = all(a <= b for a, b in zip(ratios, ratios[1:]))
    elapsed = time.monotonic() - t0
    report(5, strict and at_zero and growing and elapsed < 300.0,
           f"factorize < divorce < none at r=1..4, r=0 identical, "
           f"ratio {ratios[0]:.2f} -> {ratios[4]:.2f} non-decreasing, "
           f"24 orderings in {elapsed:.1f}s")


# -- 6: the exact worst-case clique ratio --------------------------------------


def test_criterion_6_star_max_clique_ratio_is_exactly_eight():
    net = star_family(1)
    plain = moralize_and_triangulate(net)
    fact = moralize_and_triangulate(transform_network(net, "factorize"))
    ratio = plain.max_clique_size / fact.max_clique_size
    report(6, ratio == 8.0,
           f"max clique {plain.max_clique_size} vs {fact.max_clique_size}, "
           f"ratio {ratio:g}")


# -- 7: byte-identical reruns of the command-line tools ------------------------


def test_criterion_7_cli_outputs_are_byte_identical(tmp_path, capsys):
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps({
        "parents": [{"name": "x1", "card": 3}, {"name": "x2", "card": 3}],
        "child": {"name": "y", "card": 5},
        "function": {"type": "table", "outputs": [0, 1, 2, 1, 2, 3, 2, 3, 4]},
    }))
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({
        "variables": [
            {"id": 0, "name": "a", "states": ["n", "y"]},
            {"id": 1, "name": "b", "states": ["n", "y"]},
            {"id": 2, "name": "y", "states": ["n", "y"]},
        ],
        "cpts": [
            {"child": 0, "parents": [], "table": [0.5, 0.5]},
            {"child": 1, "parents": [], "table": [0.5, 0.5]},
        ],
        "deterministic": [
            {"child": 2, "parents": [0, 1],
             "function": {"type": "table", "outputs": [0, 0, 0, 1]}}
        ],
    }))
    runs = {
        "mbh": ["mbh", "--function", str(fn_path)],
        "cliques": ["cliques", "--net", str(net_path), "--transform", "factorize"],
        "bench": ["bench", "cat", "--seed", "2", "--tasks", "2",
                  "--orderings", "all"],
    }
    identical = {}
    for name, argv in runs.items():
        outs = []
        for i in (0, 1):
            out = tmp_path / f"{name}{i}.out"
            code = run_cli(argv + ["--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        identical[name] = outs[0] == outs[1]
    capsys.readouterr()  # swallow solver progress lines
    report(7, all(identical.values()),
           "mbh, cliques, and bench reruns byte-identical: "
           + ", ".join(f"{k}={v}" for k, v in identical.items()))
