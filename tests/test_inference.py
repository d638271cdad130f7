"""Variable elimination and the two network rewrites.

Core claims:
    - posteriors match a brute-force joint enumeration on small nets
    - the answer does not depend on the elimination order
    - zero-mass evidence raises the dedicated error
    - the hidden-variable rewrite and parent divorcing both preserve
      every posterior within 1e-9 (factorization is exact in practice)
    - the rewrites have the advertised shapes: one hidden node per
      deterministic table, pairwise potentials; divorcing builds a
      balanced tree of intermediates with the right state counts
"""

import random
from itertools import product as iproduct

import numpy as np
import pytest

from factorbn import (
    Cpt,
    DeterministicFunction,
    Evidence,
    Factor,
    Network,
    ValidationError,
    Variable,
    ZeroNormalizerError,
    build_factorized_form,
    known_base_conjunction,
    variable_elimination,
)
from factorbn.inference import posterior_by_name, transform_network


def binary(i, name):
    return Variable(i, name, ("no", "yes"))


def cpt(child, parents, cards, table):
    family = tuple(sorted(parents + (child,)))
    shape = tuple(cards[v] for v in family)
    return Cpt(child, parents, Factor(family, shape, np.asarray(table, dtype=np.float64)))


def brute_posterior(net, evidence, query):
    """Joint enumeration with plain dict lookups; no factor algebra."""
    cards = [v.card for v in net.variables]
    axes = [range(c) for c in cards]
    weights = {}
    for cfg in iproduct(*axes):
        w = 1.0
        for c in net.cpts:
            fam = tuple(sorted(c.parents + (c.child,)))
            w *= float(c.factor.values[tuple(cfg[v] for v in fam)])
        for d in net.deterministic:
            w *= 1.0 if d.value(tuple(cfg[p] for p in d.parents)) == cfg[d.child] else 0.0
        for p in net.potentials:
            w *= float(p.values[tuple(cfg[v] for v in p.scope)])
        for v, vec in evidence.findings.items():
            w *= vec[cfg[v]]
        weights[cfg] = w
    shape = tuple(cards[q] for q in query)
    out = np.zeros(shape)
    for cfg, w in weights.items():
        out[tuple(cfg[q] for q in query)] += w
    total = out.sum()
    if total == 0.0:
        raise ZeroNormalizerError("zero mass")
    return out / total


def sprinkler_like():
    cards = {0: 2, 1: 2, 2: 2}
    return Network(
        (binary(0, "cloudy"), binary(1, "rain"), binary(2, "wet")),
        (
            cpt(0, (), cards, [0.3, 0.7]),
            cpt(1, (0,), cards, [[0.9, 0.1], [0.4, 0.6]]),
            cpt(2, (1,), cards, [[0.95, 0.05], [0.1, 0.9]]),
        ),
    )


# -- plain elimination -------------------------------------------------------


def test_root_prior_passthrough():
    net = sprinkler_like()
    p = variable_elimination(net, query=[0])
    assert np.allclose(p.values, [0.3, 0.7], atol=1e-12)


def test_matches_brute_force_with_evidence():
    net = sprinkler_like()
    ev = Evidence({2: (0, 1)})
    for q in ([0], [1], [0, 1]):
        got = variable_elimination(net, ev, q)
        want = brute_posterior(net, ev, q)
        assert np.allclose(got.values, want, atol=1e-12)


def test_soft_style_evidence_vectors():
    net = sprinkler_like()
    ev = Evidence({1: (1, 0), 2: (0, 1)})
    got = variable_elimination(net, ev, [0])
    want = brute_posterior(net, ev, [0])
    assert np.allclose(got.values, want, atol=1e-12)


def test_zero_mass_evidence_raises():
    net = sprinkler_like()
    with pytest.raises(ZeroNormalizerError):
        variable_elimination(net, Evidence({2: (0, 0)}), [0])


def test_empty_query_rejected():
    with pytest.raises(ValidationError):
        variable_elimination(sprinkler_like(), query=[])


def test_elimination_order_independence():
    net = sprinkler_like()
    ev = Evidence({2: (0, 1)})
    base = variable_elimination(net, ev, [0])
    for order in ([1, 2], [2, 1]):
        p = variable_elimination(net, ev, [0], order=order)
        assert np.allclose(p.values, base.values, atol=1e-14)
    with pytest.raises(ValidationError):
        variable_elimination(net, ev, [0], order=[1])
    with pytest.raises(ValidationError):
        variable_elimination(net, ev, [0], order=[0, 1, 2])


def test_posterior_by_name():
    net = sprinkler_like()
    marg = posterior_by_name(net, Evidence({2: (0, 1)}), ["rain"])
    want = brute_posterior(net, Evidence({2: (0, 1)}), [1])
    assert np.allclose(marg.values, want, atol=1e-12)


# -- networks with a deterministic node --------------------------------------


def det_network():
    # two ternary causes, a deterministic ADD, a noisy reading of it
    cards = {0: 3, 1: 3, 2: 5, 3: 2}
    variables = (
        Variable(0, "a", ("0", "1", "2")),
        Variable(1, "b", ("0", "1", "2")),
        Variable(2, "total", tuple("01234")),
        binary(3, "alarm"),
    )
    rng = random.Random(11)
    rows = []
    for _ in range(5):
        p = rng.uniform(0.1, 0.9)
        rows.append([1.0 - p, p])
    det = DeterministicFunction.from_callable((0, 1), 2, (3, 3), 5, lambda a, b: a + b)
    return Network(
        variables,
        (
            cpt(0, (), cards, [0.5, 0.3, 0.2]),
            cpt(1, (), cards, [0.2, 0.5, 0.3]),
            cpt(3, (2,), cards, rows),
        ),
        (det,),
    )


def test_deterministic_node_posterior_matches_brute_force():
    net = det_network()
    ev = Evidence({3: (0, 1)})
    for q in ([0], [2], [0, 1]):
        got = variable_elimination(net, ev, q)
        want = brute_posterior(net, ev, q)
        assert np.allclose(got.values, want, atol=1e-12)


@pytest.mark.parametrize("method", ["none", "divorce", "factorize"])
def test_transforms_preserve_posteriors(method):
    net = det_network()
    t = transform_network(net, method)
    ev = Evidence({3: (0, 1)})
    for v in net.variables:
        got = variable_elimination(t, ev, [v.id])
        want = brute_posterior(net, ev, [v.id])
        assert np.abs(got.values - want).max() < 1e-9


def test_unknown_method_rejected():
    with pytest.raises(ValidationError):
        transform_network(det_network(), "fold")


# -- the hidden-variable rewrite ---------------------------------------------


def test_factorize_adds_hidden_variable_and_pairwise_potentials():
    from factorbn import solve_mbh

    net = det_network()
    det = net.deterministic[0]
    base = solve_mbh(det).base
    form = build_factorized_form(det, base)
    t = transform_network(net, "factorize", base_picker=lambda d: base)
    assert len(t.variables) == len(net.variables) + 1
    hidden = t.variables[-1]
    assert hidden.card == form.n_hidden == 6
    assert not t.deterministic
    # potentials: h over (child, B) plus one g per parent
    scopes = sorted(p.scope for p in t.potentials)
    assert scopes == [(0, hidden.id), (1, hidden.id), (2, hidden.id)]


def test_factorize_conjunction_hidden_is_binary():
    # six required parents; the closed base has two rectangles
    cards = {i: 2 for i in range(8)}
    variables = tuple(binary(i, f"s{i}") for i in range(6)) + (
        binary(6, "perf"),
        binary(7, "answer"),
    )
    outputs = tuple(
        int(cfg == (1, 1, 1, 1, 1, 0)) for cfg in iproduct(*[range(2)] * 6)
    )
    det = DeterministicFunction(tuple(range(6)), 6, (2,) * 6, 2, outputs)
    cpts = tuple(cpt(i, (), cards, [0.5, 0.5]) for i in range(6)) + (
        cpt(7, (6,), cards, [[0.8, 0.2], [0.1, 0.9]]),
    )
    net = Network(variables, cpts, (det,))
    t = transform_network(net, "factorize")
    hidden = t.variables[-1]
    assert hidden.card == 2
    assert len(t.potentials) == 7  # h plus six g tables
    assert all(len(p.scope) == 2 for p in t.potentials)
    # posterior sanity against brute force
    ev = Evidence({7: (0, 1)})
    got = variable_elimination(t, ev, [0])
    want = brute_posterior(net, ev, [0])
    assert np.abs(got.values - want).max() < 1e-9


# -- parent divorcing ----------------------------------------------------------


def test_divorce_conjunction_of_four_literals():
    cards = {i: 2 for i in range(5)}
    variables = tuple(binary(i, f"x{i}") for i in range(4)) + (binary(4, "y"),)
    outputs = tuple(
        int(cfg == (1, 0, 1, 1)) for cfg in iproduct(*[range(2)] * 4)
    )
    det = DeterministicFunction((0, 1, 2, 3), 4, (2,) * 4, 2, outputs)
    cpts = tuple(cpt(i, (), cards, [0.5, 0.5]) for i in range(4))
    net = Network(variables, cpts, (det,))
    t = transform_network(net, "divorce")
    # two intermediates plus the re-rooted original child
    assert len(t.variables) == len(net.variables) + 2
    assert len(t.deterministic) == 3
    assert all(d.child_card == 2 for d in t.deterministic)
    assert max(len(d.parents) for d in t.deterministic) == 2
    ev = Evidence({4: (0, 1)})
    got = variable_elimination(t, ev, [1])
    want = brute_posterior(net, ev, [1])
    assert np.abs(got.values - want).max() < 1e-9


def test_divorce_add_of_three_ternary_parents():
    cards = {0: 3, 1: 3, 2: 3, 3: 7}
    variables = (
        Variable(0, "a", ("0", "1", "2")),
        Variable(1, "b", ("0", "1", "2")),
        Variable(2, "c", ("0", "1", "2")),
        Variable(3, "sum", tuple("0123456")),
    )
    det = DeterministicFunction.from_callable(
        (0, 1, 2), 3, (3, 3, 3), 7, lambda *x: sum(x)
    )
    cpts = tuple(cpt(i, (), cards, [0.3, 0.4, 0.3]) for i in range(3))
    net = Network(variables, cpts, (det,))
    t = transform_network(net, "divorce")
    intermediates = [v for v in t.variables if v.id >= 4]
    assert len(intermediates) == 1
    # a+b ranges over 0..4: five states
    assert intermediates[0].card == 5
    roots = [d for d in t.deterministic if d.child == 3]
    assert len(roots) == 1 and roots[0].child_card == 7
    got = variable_elimination(t, Evidence(), [3])
    want = brute_posterior(net, Evidence(), [3])
    assert np.abs(got.values - want).max() < 1e-9


def test_divorce_leaves_two_parent_nodes_alone():
    net = det_network()
    t = transform_network(net, "divorce")
    assert t == net


def test_divorce_rejects_unstructured_functions():
    cards = {0: 2, 1: 2, 2: 2, 3: 2}
    variables = tuple(binary(i, f"x{i}") for i in range(3)) + (binary(3, "y"),)
    det = DeterministicFunction.from_callable(
        (0, 1, 2), 3, (2, 2, 2), 2, lambda a, b, c: a ^ b ^ c
    )
    cpts = tuple(cpt(i, (), cards, [0.5, 0.5]) for i in range(3))
    net = Network(variables, cpts, (det,))
    with pytest.raises(ValidationError):
        transform_network(net, "divorce")


# -- pruning, evidence slicing and explicit orders against brute force -------


def random_mixed_network(rng):
    """Up to 7 variables of 2 or 3 states; each non-root is a CPT or,
    one time in three, a random deterministic node."""
    n = rng.randint(2, 7)
    cards = [rng.choice([2, 3]) for _ in range(n)]
    variables = tuple(
        Variable(i, f"v{i}", tuple(f"s{j}" for j in range(cards[i]))) for i in range(n)
    )
    cpts, dets = [], []
    for i in range(n):
        parents = tuple(sorted(rng.sample(range(i), rng.randint(0, min(i, 3)))))
        pcards = tuple(cards[p] for p in parents)
        if parents and rng.random() < 1 / 3:
            outputs = [rng.randrange(cards[i]) for _ in range(int(np.prod(pcards)))]
            dets.append(DeterministicFunction(parents, i, pcards, cards[i], outputs))
            continue
        family = tuple(sorted(parents + (i,)))
        shape = tuple(cards[v] for v in family)
        table = np.array([rng.uniform(0.05, 1.0) for _ in range(int(np.prod(shape)))])
        table = table.reshape(shape)
        table /= table.sum(axis=family.index(i), keepdims=True)
        cpts.append(Cpt(i, parents, Factor(family, shape, table)))
    return Network(variables, tuple(cpts), tuple(dets))


def random_evidence(net, rng):
    """Random 0/1 vectors with at least one 1, often on several states."""
    findings = {}
    for v in net.variables:
        if rng.random() < 0.4:
            vec = [rng.randrange(2) for _ in range(v.card)]
            vec[rng.randrange(v.card)] = 1
            findings[v.id] = tuple(vec)
    return Evidence(findings)


@pytest.mark.parametrize("method", ["none", "factorize"])
def test_random_networks_match_brute_force(method):
    answered = zero_mass = 0
    for seed in range(150):
        rng = random.Random(seed)
        net = random_mixed_network(rng)
        ev = random_evidence(net, rng)
        query = sorted(rng.sample(range(len(net.variables)), rng.randint(1, 2)))
        t = transform_network(net, method)
        try:
            want = brute_posterior(net, ev, query)
        except ZeroNormalizerError:
            with pytest.raises(ZeroNormalizerError):
                variable_elimination(t, ev, query)
            zero_mass += 1
            continue
        got = variable_elimination(t, ev, query)
        assert got.scope == tuple(query)
        assert np.abs(got.values - want).max() < 1e-9, seed
        answered += 1
    assert answered > 100 and zero_mass > 0


def test_random_networks_explicit_orders_match():
    for seed in range(60):
        rng = random.Random(1000 + seed)
        net = transform_network(random_mixed_network(rng), "factorize")
        ev = random_evidence(net, rng)
        q = rng.randrange(len(net.variables))
        order = [v.id for v in net.variables if v.id != q]
        rng.shuffle(order)
        try:
            base = variable_elimination(net, ev, [q])
        except ZeroNormalizerError:
            continue
        got = variable_elimination(net, ev, [q], order=order)
        assert np.abs(got.values - base.values).max() < 1e-12


def test_observed_query_variable_keeps_its_axis():
    net = sprinkler_like()
    ev = Evidence({1: (0, 1), 2: (0, 1)})
    got = variable_elimination(net, ev, [1])
    assert got.scope == (1,) and np.array_equal(got.values, [0.0, 1.0])
    for q in ([0, 1], [1, 2]):
        got = variable_elimination(net, ev, q)
        assert got.scope == tuple(q)
        assert np.allclose(got.values, brute_posterior(net, ev, q), atol=1e-12)


@pytest.mark.parametrize("method", ["none", "factorize"])
def test_multi_state_evidence_vector(method):
    net = det_network()
    t = transform_network(net, method)
    ev = Evidence({2: (0, 1, 1, 0, 1)})
    for q in ([0], [1], [0, 1], [3]):
        got = variable_elimination(t, ev, q)
        assert np.abs(got.values - brute_posterior(net, ev, q)).max() < 1e-12
    # the same vector on a query variable masks it
    got = variable_elimination(t, ev, [2])
    assert np.abs(got.values - brute_posterior(net, ev, [2])).max() < 1e-12
    assert got.values[0] == got.values[3] == 0.0


@pytest.mark.parametrize("method", ["none", "factorize"])
def test_all_zero_evidence_vector_raises(method):
    t = transform_network(det_network(), method)
    # on a query variable, on an observed one, and on a leaf that no
    # query depends on
    for var, query in ((0, [0]), (2, [0]), (3, [1])):
        card = t.variables[var].card
        with pytest.raises(ZeroNormalizerError):
            variable_elimination(t, Evidence({var: (0,) * card}), query)


def test_wrong_length_evidence_vector_raises():
    # a length-3 vector on the binary alarm
    with pytest.raises(ValidationError):
        variable_elimination(det_network(), Evidence({3: (0, 1, 1)}), [0])


def test_barren_nodes_do_not_change_the_answer():
    # alarm is barren for a query on a, b or total without evidence
    net = det_network()
    for q in ([0], [1], [2], [0, 2]):
        got = variable_elimination(net, None, q)
        assert np.abs(got.values - brute_posterior(net, Evidence(), q)).max() < 1e-12


def test_explicit_order_is_validated_over_all_variables():
    net = det_network()
    ev = Evidence({3: (0, 1)})
    # alarm is observed and drops out of every table, and with no
    # evidence it is barren; an order must still name it
    for evidence in (ev, None):
        with pytest.raises(ValidationError):
            variable_elimination(net, evidence, [0], order=[1, 2])
    for bad in ([1, 2, 3, 3], [0, 1, 2, 3], [1, 2, 3, 7]):
        with pytest.raises(ValidationError):
            variable_elimination(net, ev, [0], order=bad)
    got = variable_elimination(net, ev, [0], order=[3, 2, 1])
    assert np.abs(got.values - brute_posterior(net, ev, [0])).max() < 1e-12


def test_many_tables_on_one_variable():
    # 70 observed children of one root: 70 tables over the root alone
    n = 71
    cards = {i: 2 for i in range(n)}
    variables = tuple(binary(i, f"x{i}") for i in range(n))
    cpts = [cpt(0, (), cards, [0.4, 0.6])]
    cpts += [cpt(i, (0,), cards, [[0.7, 0.3], [0.2, 0.8]]) for i in range(1, n)]
    net = Network(variables, tuple(cpts))
    ev = Evidence({i: (0, 1) if i % 3 else (1, 0) for i in range(1, n)})
    got = variable_elimination(net, ev, [0])
    k = sum(1 for i in range(1, n) if i % 3)
    odds = (0.6 / 0.4) * (0.8 / 0.3) ** k * (0.2 / 0.7) ** (n - 1 - k)
    assert np.allclose(got.values, [1 / (1 + odds), odds / (1 + odds)], rtol=1e-9)
    with_order = variable_elimination(net, ev, [0], order=range(1, n))
    assert np.allclose(with_order.values, got.values, rtol=1e-12)
