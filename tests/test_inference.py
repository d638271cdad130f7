"""Variable elimination and the two network rewrites.

Core claims:
    - posteriors match a brute-force joint enumeration on small nets
    - zero-mass evidence raises the dedicated error
    - the hidden-variable rewrite and parent divorcing both preserve
      every posterior within 1e-9 (factorization is exact in practice)
    - each rewrite recognizes every deterministic node it splits once,
      and a 16-parent OR or AND is rewritten, to a 2-state star or a
      tree, without a walk over its configurations, with closed-form
      posteriors within 1e-12
    - the rewrites have the advertised shapes: one hidden node per
      deterministic table, pairwise potentials; divorcing builds a
      balanced tree of intermediates with the right state counts, and
      leaves a node of two parents or fewer as it is, whatever its
      function
    - more tables than one einsum takes, in one bucket or in one
      contraction, still give the enumerated answer
    - the network's ancestor masks equal a walk of its parent map, and
      a 3000-node chain builds them without recursion
    - einsum labels colour every elimination step under both planners:
      no two variables of one einsum share a label, and the labels stay
      below the widest clique plus the query, so a chain with more live
      variables than an einsum's 52 labels runs on its plan
    - a step's input tables die once it has run, so no query keeps an
      intermediate that a later step took
    - each step of a query's compiled program is one einsum, whose
      result has the shape the step's ranks predict
    - the network's layout holds every table, bit for bit, with its
      axes in plan order below the bound, and as stored above it
    - a query that would pass one einsum a label past 51, or more
      labels than numpy gives an array axes, is an input error, raised
      before any einsum runs
"""

import math
import random
from dataclasses import replace
from itertools import product as iproduct

import numpy as np
import pytest

from factorbn import (
    Cpt,
    DeterministicFunction,
    Evidence,
    Factor,
    FactorizedForm,
    InternalConsistencyError,
    Network,
    ValidationError,
    Variable,
    ZeroNormalizerError,
    build_factorized_form,
    function_from_formula,
    known_base_conjunction,
    trivial_factorization,
    variable_elimination,
)
from factorbn import inference, network
from factorbn.benchcat import (
    StudentModelSpec,
    canonical_tasks,
    connect_tasks,
    generate_student_model,
)
from factorbn.cliques import moral_graph, moralize_and_triangulate
from factorbn.functions import indicator_table, kind_of
from factorbn.inference import transform_network
from factorbn.mbh import greedy_cover_base
from factorbn.network import Star


def binary(i, name):
    return Variable(i, name, ("no", "yes"))


def cpt(child, parents, cards, table):
    family = tuple(sorted(parents + (child,)))
    shape = tuple(cards[v] for v in family)
    return Cpt(child, parents, Factor(family, shape, np.asarray(table, dtype=np.float64)))


def members(mask):
    """The positions of the set bits of ``mask``, ascending."""
    return [r for r in range(mask.bit_length()) if mask >> r & 1]


def step_unions(kept, program):
    """The ranks each step of ``program`` multiplies, as a bitmask: the
    union of its operands', each a kept table's or an earlier step's
    result's."""
    masks = [mask for mask, *_ in kept] + [ranks for _, ranks in program]
    unions = []
    for args, _ in program:
        union = 0
        for slot in args[:-1:2]:
            union |= masks[slot]
        unions.append(union)
    return unions


def brute_posterior(net, evidence, query):
    """Joint enumeration with plain dict lookups; no factor algebra.  A
    star contributes h[y, b] * prod_i g_i[x_i, b], read from its form."""
    cards = [v.card for v in net.variables]
    axes = [range(c) for c in cards]
    weights = {}
    for cfg in iproduct(*axes):
        w = 1.0
        for c in net.cpts:
            fam = tuple(sorted(c.parents + (c.child,)))
            w *= float(c.factor.values[tuple(cfg[v] for v in fam)])
        for d in net.deterministic:
            w *= 1.0 if d.outputs[tuple(cfg[p] for p in d.parents)] == cfg[d.child] else 0.0
        for p in net.potentials:
            w *= float(p.values[tuple(cfg[v] for v in p.scope)])
        for s in net.stars:
            b = cfg[s.hidden]
            w *= float(s.form.h[cfg[s.child], b])
            for x, g in zip(s.parents, s.form.g):
                w *= float(g[cfg[x], b])
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


@pytest.mark.parametrize("low", [-1e-12, -1e-3])
def test_negative_posterior_entry_is_clipped_within_tolerance(low):
    # a free potential may hold negative entries: a result just below 0
    # is rounding noise, clipped to 0; one beyond -1e-9 is a failure
    net = sprinkler_like()
    net = Network(net.variables, net.cpts, potentials=(Factor((0,), (2,), np.array([low, 1.0])),))
    if low > -inference.NEGATIVE_TOLERANCE:
        p = variable_elimination(net, query=[0])
        assert p.values.tolist() == [0.0, 1.0]
    else:
        with pytest.raises(InternalConsistencyError, match="below tolerance"):
            variable_elimination(net, query=[0])


def test_empty_query_rejected():
    with pytest.raises(ValidationError):
        variable_elimination(sprinkler_like(), query=[])


def test_posterior_by_name():
    net = sprinkler_like()
    marg = variable_elimination(net, Evidence({2: (0, 1)}), [net.variable_by_name("rain").id])
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
    net = det_network()
    det = net.deterministic[0]
    form = build_factorized_form(det, greedy_cover_base(det))
    t = transform_network(net, "factorize")
    assert len(t.variables) == len(net.variables) + 1
    hidden = t.variables[-1]
    # ADD 3x3's greedy cover: one rectangle per cell
    assert hidden.card == form.n_hidden == 9
    assert not t.deterministic and not t.potentials
    # one star holding the form: h over (child, B) plus one g per parent
    (star,) = t.stars
    assert star.form == form and star.hidden == hidden.id
    scopes = sorted(scope for scope, _ in star.tables())
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
    assert not t.potentials
    tables = list(t.stars[0].tables())
    assert len(tables) == 7  # h plus six g tables
    assert all(len(scope) == 2 for scope, _ in tables)
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


def test_divorce_intermediates_stay_queryable():
    """A divorce intermediate is an ordinary deterministic node: a query
    or a multi-state finding on it gets the enumerated answer."""
    cards = dict.fromkeys(range(5), 3)
    variables = tuple(Variable(i, f"x{i}", ("0", "1", "2")) for i in range(4))
    variables += (Variable(4, "top", ("0", "1", "2")),)
    det = DeterministicFunction.from_callable((0, 1, 2, 3), 4, (3,) * 4, 3, max)
    cpts = tuple(cpt(i, (), cards, [0.2 + 0.1 * i, 0.3, 0.5 - 0.1 * i]) for i in range(4))
    t = transform_network(Network(variables, cpts, (det,)), "divorce")
    pd0, pd1 = (v.id for v in t.variables if v.name.startswith("top_pd"))
    for ev, query in ((Evidence(), [pd0]), (Evidence({pd1: (1, 0, 1)}), [4, pd0])):
        got = variable_elimination(t, ev, query)
        assert np.abs(got.values - brute_posterior(t, ev, query)).max() < 1e-12


def test_divorce_leaves_two_parent_nodes_alone():
    net = det_network()
    t = transform_network(net, "divorce")
    assert t == net


def test_divorce_leaves_any_function_of_two_parents_or_fewer():
    """A node divorce would never split is not checked for structure: a
    two-parent XOR and a one-parent constant node leave the network
    unchanged, with the posteriors of ``none``."""
    cards = dict.fromkeys(range(5), 2)
    variables = tuple(binary(i, name) for i, name in enumerate(("a", "b", "x", "k", "seen")))
    dets = (
        DeterministicFunction.from_callable((0, 1), 2, (2, 2), 2, lambda a, b: a ^ b),
        DeterministicFunction.from_callable((0,), 3, (2,), 2, lambda a: 1),
    )
    cpts = (
        cpt(0, (), cards, [0.3, 0.7]),
        cpt(1, (), cards, [0.6, 0.4]),
        cpt(4, (2,), cards, [[0.9, 0.1], [0.2, 0.8]]),
    )
    net = Network(variables, cpts, dets)
    t = transform_network(net, "divorce")
    assert t == net
    for ev, query in ((Evidence({4: (0, 1)}), [0, 1]), (Evidence({3: (0, 1)}), [2])):
        got = variable_elimination(t, ev, query)
        want = variable_elimination(transform_network(net, "none"), ev, query)
        assert got.values.tobytes() == want.values.tobytes()
        assert np.abs(got.values - brute_posterior(net, ev, query)).max() < 1e-12


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


def sweep_network(rng):
    """One deterministic node y of 1-5 parents, each of 1-3 states, under
    seeded root CPTs, and a noisy binary child of y.  y is a conjunction
    of literals over binary parents, ADD, MAX or a seeded random table."""
    n = rng.randint(1, 5)
    kind = rng.choice(("conj", "add", "max", "table"))
    pcards = (2,) * n if kind == "conj" else tuple(rng.choice((1, 2, 3)) for _ in range(n))
    cells = list(iproduct(*map(range, pcards)))
    if kind == "table":
        card = rng.choice((1, 2, 3))
        outputs = [rng.randrange(card) for _ in cells]
    else:
        lits = tuple(rng.randint(0, 1) for _ in range(n))
        f = {"conj": lambda x: int(x == lits), "add": sum, "max": max}[kind]
        outputs = [f(x) for x in cells]
        card = max(outputs) + 1
    cards = dict(enumerate((*pcards, card, 2)))
    variables = tuple(Variable(i, f"v{i}", tuple(map(str, range(c)))) for i, c in cards.items())
    weights = [[rng.uniform(0.1, 1.0) for _ in range(c)] for c in pcards]
    cpts = [cpt(i, (), cards, np.divide(w, sum(w))) for i, w in enumerate(weights)]
    noisy = [[1 - p, p] for p in (rng.uniform(0.1, 0.9) for _ in range(card))]
    cpts.append(cpt(n + 1, (n,), cards, noisy))
    det = DeterministicFunction(tuple(range(n)), n, pcards, card, outputs)
    return Network(variables, tuple(cpts), (det,))


def test_rewrites_keep_posteriors_at_every_parent_count():
    """On 60 seeded one-node networks, every parent's and the node's
    posterior, with and without its noisy child observed, is that of
    ``none`` within 1e-9 under ``factorize``, and under ``divorce`` unless
    divorce rejects the node: exactly where it has more than two parents
    and ``kind_of`` finds no conjunction, ADD or MAX."""
    rng = random.Random(40)
    compared = rejected = 0
    for _ in range(60):
        net = sweep_network(rng)
        (det,) = net.deterministic
        n = len(det.parents)
        evidences = (Evidence(), Evidence({n + 1: (0, 1)}))
        want = [[variable_elimination(net, ev, [v]).values for v in range(n + 1)] for ev in evidences]
        for method in ("factorize", "divorce"):
            if method == "divorce" and n > 2 and kind_of(det) == (None, False, False):
                with pytest.raises(ValidationError):
                    transform_network(net, method)
                rejected += 1
                continue
            t = transform_network(net, method)
            for ev, wanted in zip(evidences, want):
                for v in range(n + 1):
                    assert np.abs(variable_elimination(t, ev, [v]).values - wanted[v]).max() < 1e-9
                    compared += 1
    assert compared > 500 and rejected > 0


# -- one recognition per node; wide nodes ------------------------------------


@pytest.mark.parametrize("method", ["factorize", "divorce"])
def test_each_node_is_recognized_once(method, monkeypatch):
    """An AND of four literals, an ADD and a MAX of three ternary parents,
    a one-parent identity and a two-parent XOR: ``factorize`` asks
    ``kind_of`` about each node once, in node order, and ``divorce`` about
    the first three only, and keeps the last two as they are."""
    ternary = ("0", "1", "2")
    variables = (
        *(binary(i, f"x{i}") for i in range(4)),
        *(Variable(4 + i, name, ternary) for i, name in enumerate("abc")),
        binary(7, "and4"),
        Variable(8, "sum", tuple("0123456")),
        Variable(9, "max", ternary),
        Variable(10, "copy", ternary),
        binary(11, "xor"),
    )
    cards = {v.id: v.card for v in variables}
    cpts = tuple(cpt(i, (), cards, np.full(cards[i], 1.0 / cards[i])) for i in range(7))
    dets = (
        DeterministicFunction.from_callable((0, 1, 2, 3), 7, (2,) * 4, 2,
                                            lambda *x: int(x == (1, 0, 1, 1))),
        DeterministicFunction.from_callable((4, 5, 6), 8, (3,) * 3, 7, lambda *x: sum(x)),
        DeterministicFunction.from_callable((4, 5, 6), 9, (3,) * 3, 3, max),
        DeterministicFunction.from_callable((4,), 10, (3,), 3, lambda a: a),
        DeterministicFunction.from_callable((0, 1), 11, (2, 2), 2, lambda a, b: a ^ b),
    )
    net = Network(variables, cpts, dets)
    seen = []

    def counting(det):
        seen.append(det)
        return kind_of(det)

    monkeypatch.setattr(inference, "kind_of", counting)
    t = transform_network(net, method)
    recognized = dets if method == "factorize" else dets[:3]
    assert len(seen) == len(recognized) and all(a is b for a, b in zip(seen, recognized))
    if method == "divorce":  # the kept nodes come first
        assert all(a is b for a, b in zip(t.deterministic[:2], dets[3:]))


def wide_network(op, n=16):
    """n independent binary roots, x_i = 1 with probability p_i, and y
    their OR (``op`` "|") or AND ("&"), from a formula."""
    p = [0.05 + 0.05 * i for i in range(n)]
    variables = tuple(binary(i, f"x{i}") for i in range(n)) + (binary(n, "y"),)
    cards = dict.fromkeys(range(n + 1), 2)
    cpts = tuple(cpt(i, (), cards, [1 - p[i], p[i]]) for i in range(n))
    names = [f"x{i}" for i in range(n)]
    det = function_from_formula(range(n), n, (2,) * n, names, f" {op} ".join(names))
    return Network(variables, cpts, (det,)), p


@pytest.mark.parametrize("method", ["factorize", "divorce"])
@pytest.mark.parametrize("op", ["|", "&"])
def test_wide_or_and_match_their_closed_forms(op, method, monkeypatch):
    net, p = wide_network(op)
    n = len(p)
    with monkeypatch.context() as m:  # no walk over the 2^16 configurations
        m.setattr(DeterministicFunction, "configurations", lambda self: pytest.fail("walked"))
        t = transform_network(net, method)
    if method == "factorize":
        assert not t.deterministic and [s.form.n_hidden for s in t.stars] == [2]
    else:
        assert not t.stars and len(t.deterministic) == n - 1
        assert max(len(d.parents) for d in t.deterministic) == 2
    # the closed forms: y's marginal, and x0's posterior given each y
    if op == "|":
        none = math.prod(1 - x for x in p)  # P(y = 0)
        want = {(): [none, 1 - none], 0: [1.0, 0.0],
                1: [1 - p[0] / (1 - none), p[0] / (1 - none)]}
    else:
        every = math.prod(p)  # P(y = 1)
        want = {(): [1 - every, every], 1: [0.0, 1.0],
                0: [1 - (p[0] - every) / (1 - every), (p[0] - every) / (1 - every)]}
    got = {(): variable_elimination(t, Evidence(), [n]).values}
    for y in (0, 1):
        got[y] = variable_elimination(t, Evidence({n: (1 - y, y)}), [0]).values
    for key, values in want.items():
        assert np.abs(got[key] - values).max() < 1e-12, key


# -- pruning and evidence slicing against brute force ------------------------


def random_mixed_network(rng, one_state=False):
    """Up to 7 variables of 2 or 3 states, or with ``one_state`` of 1, 2
    or 3 (one state one time in five); each non-root is a CPT or, one
    time in three, a random deterministic node."""
    n = rng.randint(2, 7)
    cards = [rng.choice([1, 2, 2, 3, 3] if one_state else [2, 3]) for _ in range(n)]
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


# PLAN_ONCE_ENTRIES forced to 0 and to infinity: every query plans its own
# min-fill order, or every query eliminates in its network's plan.  A
# network decides once, when its layout is built, so each bound runs on a
# fresh copy of the network.
BOUNDS = (0, math.inf)


def answers_under_both_planners(monkeypatch, t, ev, query, want, seed):
    """VE's answer on ``t`` under both bounds equals ``want``, or raises
    ZeroNormalizerError when ``want`` is None."""
    for bound in BOUNDS:
        monkeypatch.setattr(network, "PLAN_ONCE_ENTRIES", bound)
        fresh = replace(t)
        if want is None:
            with pytest.raises(ZeroNormalizerError):
                variable_elimination(fresh, ev, query)
            continue
        got = variable_elimination(fresh, ev, query)
        assert got.scope == tuple(query)
        assert np.abs(got.values - want).max() < 1e-9, (seed, bound)


@pytest.mark.parametrize("method", ["none", "factorize"])
def test_random_networks_match_brute_force(method, monkeypatch):
    answered = zero_mass = one_state = 0
    for seed in range(150):
        rng = random.Random(seed)
        net = random_mixed_network(rng, one_state=True)
        ev = random_evidence(net, rng)
        query = sorted(rng.sample(range(len(net.variables)), rng.randint(1, 2)))
        one_state += 1 in net.cards
        t = transform_network(net, method)
        try:
            want = brute_posterior(net, ev, query)
            answered += 1
        except ZeroNormalizerError:
            want = None
            zero_mass += 1
        answers_under_both_planners(monkeypatch, t, ev, query, want, seed)
    assert answered > 100 and zero_mass > 0 and one_state > 50


def test_sixty_one_state_variables_in_one_potential():
    # one einsum takes at most 52 labels; a one-state variable off the
    # query is indexed out of every table, so none reaches an einsum
    n = 60
    variables = tuple(Variable(i, f"v{i}", ("only",)) for i in range(n))
    cpts = tuple(Cpt(i, (), Factor((i,), (1,), np.ones(1))) for i in range(n))
    potential = Factor(tuple(range(n)), (1,) * n, np.ones((1,) * n))
    net = Network(variables, cpts, (), (potential,))
    for method in ("none", "divorce", "factorize"):
        for query in ([0], [7, 59]):
            got = variable_elimination(transform_network(net, method), None, query)
            assert got.scope == tuple(query) and got.values.reshape(-1).tolist() == [1.0]


def test_a_potential_over_no_variables_changes_no_posterior(monkeypatch):
    # a 0-d table stays 0-d in the network's layout and in every einsum
    net = sprinkler_like()
    scaled = Network(net.variables, net.cpts, (), (Factor((), (), np.array(2.5)),))
    for bound in BOUNDS:
        monkeypatch.setattr(network, "PLAN_ONCE_ENTRIES", bound)
        fresh = replace(scaled)
        for q in ([0], [1, 2]):
            got = variable_elimination(fresh, Evidence({2: (0, 1)}), q)
            want = brute_posterior(net, Evidence({2: (0, 1)}), q)
            assert np.abs(got.values - want).max() < 1e-12
        assert fresh.layout.tables[-1][3].shape == ()


def test_normalizing_writes_into_no_table_of_the_network(monkeypatch):
    # VE divides in place only an array it allocated: with no step the
    # answer is the stored table itself, and a one-operand step may return
    # a view of one; either keeps its entries for the next query
    a, b = Variable(0, "a", ("0", "1")), Variable(1, "b", ("0", "1"))
    lone = Network((a,), (), (), (Factor((0,), (2,), np.array([1.0, 3.0])),))
    pair = Network((a, b), (), (), (Factor((0,), (2,), np.array([1.0, 3.0])),
                                    Factor((0, 1), (2, 2), np.ones((2, 2)))))
    for bound in BOUNDS:
        monkeypatch.setattr(network, "PLAN_ONCE_ENTRIES", bound)
        for net, q, want in ((lone, [0], [0.25, 0.75]), (pair, [0], [0.25, 0.75]),
                             (pair, [0, 1], [[0.125, 0.125], [0.375, 0.375]])):
            fresh = replace(net)
            for _ in range(2):
                assert variable_elimination(fresh, None, q).values.tolist() == want
            stored = sorted(repr(t[3].tolist()) for t in fresh.layout.tables)
            assert stored == sorted(repr(p.values.tolist()) for p in net.potentials)


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
    """The one length check of a finding, named by the variable's name;
    ``parse_evidence`` leaves it to inference."""
    from factorbn import parse_evidence

    message = "^evidence vector for 'alarm' has length 3, expected 2$"
    for method in ("none", "factorize"):
        t = transform_network(det_network(), method)
        for evidence in (Evidence({3: (0, 1, 1)}), parse_evidence('{"alarm": [0, 1, 1]}', t)):
            with pytest.raises(ValidationError, match=message):
                variable_elimination(t, evidence, [0])


def test_numpy_array_findings_answer_like_tuples():
    """Evidence keeps each vector as given, so a finding may be a numpy
    array; under any dtype it answers bit-equal to the tuple finding,
    picks (a one-state finding off the query) included."""
    tuples = {3: (0, 1), 0: (0, 1, 0), 1: (1, 1, 0)}
    for method in ("none", "factorize"):
        t = transform_network(det_network(), method)
        for query in ([2], [0, 2]):
            want = variable_elimination(t, Evidence(tuples), query).values
            for dtype in (np.int64, np.uint8, np.float64, bool):
                arrays = {v: np.array(vec, dtype=dtype) for v, vec in tuples.items()}
                got = variable_elimination(t, Evidence(arrays), query).values
                assert got.tobytes() == want.tobytes()


def test_barren_nodes_do_not_change_the_answer():
    # alarm is barren for a query on a, b or total without evidence
    net = det_network()
    for q in ([0], [1], [2], [0, 2]):
        got = variable_elimination(net, None, q)
        assert np.abs(got.values - brute_posterior(net, Evidence(), q)).max() < 1e-12


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


def test_contract_folds_beyond_max_operands(monkeypatch):
    """40 tables over four variables, more than one einsum takes, kept
    whole or with one variable summed out (FOLD_VARS at 0, so that both
    of its buckets fold): 39 two-operand steps, one einsum each,
    against enumeration of the product."""
    rng = random.Random(5)
    cards = (2, 3, 2, 4)
    tables = []
    for _ in range(40):
        scope = tuple(sorted(rng.sample(range(4), rng.randint(1, 3))))
        shape = [cards[v] for v in scope]
        tables.append((scope, np.array([rng.uniform(0.5, 1.5) for _ in range(int(np.prod(shape)))]).reshape(shape)))
    assert len(tables) > inference.MAX_OPERANDS
    # each variable is its own rank and einsum label
    kept = [(sum(1 << v for v in scope), scope, list(scope), values, scope[0]) for scope, values in tables]
    operands = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: operands.append(len(args) // 2) or einsum(*args))
    monkeypatch.setattr(inference, "FOLD_VARS", 0)
    first = list(dict.fromkeys(v for scope, _ in tables for v in scope))
    for scope in (first, [v for v in first if v != first[1]], first[::-1]):
        program = inference._compile(kept, sum(1 << v for v in scope), range(4), scope)
        operands.clear()
        values = inference._run(program, [values for _, values in tables])
        assert operands == [len(args) // 2 for args, _ in program] == [2] * 39
        assert values.shape == tuple(cards[v] for v in scope)
        want = np.zeros(values.shape)
        for cfg in iproduct(*map(range, cards)):
            w = 1.0
            for s, t in tables:
                w *= t[tuple(cfg[v] for v in s)]
            want[tuple(cfg[v] for v in scope)] += w
        assert np.allclose(values, want, rtol=1e-12, atol=0)


def test_bucket_of_more_than_max_operands_tables():
    """A three-state root with 40 observed children and one queried one:
    the root's bucket holds its prior and 41 child tables, so the
    elimination step itself compiles to the fold; against enumeration
    of the only unobserved variables, the root and the queried child."""
    n = 42
    rng = random.Random(11)
    cards = {0: 3, **{i: 2 for i in range(1, n)}}
    variables = (Variable(0, "root", ("r0", "r1", "r2")),)
    variables += tuple(binary(i, f"x{i}") for i in range(1, n))
    prior = [0.2, 0.5, 0.3]
    rows = {i: [[p, 1 - p] for p in (rng.uniform(0.1, 0.9) for _ in range(3))] for i in range(1, n)}
    cpts = (cpt(0, (), cards, prior),) + tuple(cpt(i, (0,), cards, rows[i]) for i in range(1, n))
    found = {i: i % 2 for i in range(2, n)}
    ev = Evidence({i: (1 - s, s) for i, s in found.items()})
    net = Network(variables, cpts)
    got = variable_elimination(net, ev, [1])
    kept, label, program, _ = inference._program(net, ev, [1])
    root = label[net.layout.rank[0]]
    # the steps that take the root: a fold of the n tables in its bucket,
    # of which only the last sums the root out
    steps = [args for args, _ in program if any(root in labels for labels in args[1:-1:2])]
    assert [len(args) // 2 for args in steps] == [2] * (n - 1)
    assert [root in args[-1] for args in steps] == [True] * (n - 2) + [False]
    assert sum(slot < len(kept) for args in steps for slot in args[:-1:2]) == n
    assert n > inference.MAX_OPERANDS
    want = np.zeros(2)
    for r, x1 in iproduct(range(3), range(2)):
        w = prior[r] * rows[1][r][x1]
        for i, s in found.items():
            w *= rows[i][r][s]
        want[x1] += w
    assert np.allclose(got.values, want / want.sum(), rtol=1e-12, atol=0)


def ancestors_by_walk(net, v):
    """The bitmask of v and its ancestors, by a walk of the parent map."""
    seen, stack = {v}, [v]
    while stack:
        for u in net.parent_map.get(stack.pop(), ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return sum(1 << u for u in seen)


def reference_tables(net):
    """(head, scope, table) for every CPT, every deterministic node (its
    indicator, axes in id order), every free potential and every star's
    h and g tables, in that order, each table as its source holds it."""
    out = [(c.child, c.factor.scope, c.factor.values) for c in net.cpts]
    for d in net.deterministic:
        ids = d.parents + (d.child,)
        axes = sorted(range(len(ids)), key=ids.__getitem__)
        out.append((d.child, tuple(sorted(ids)), indicator_table(d).transpose(axes)))
    out += [(None, p.scope, p.values) for p in net.potentials]
    out += [(s.child, scope, table) for s in net.stars for scope, table in s.tables()]
    return out


def test_ancestor_masks_match_a_parent_walk():
    nets = []
    for seed in range(80):
        nets.append(random_mixed_network(random.Random(seed)))
    for seed in (1, 2, 3):
        spec = StudentModelSpec(seed=seed, node_count=40)
        nets.append(connect_tasks(generate_student_model(spec), canonical_tasks(spec, 8, seed)))
    for net in nets:
        for t in (net, transform_network(net, "factorize")):
            assert t.ancestor_masks == tuple(ancestors_by_walk(t, v) for v in range(len(t.variables)))
            assert t.scope_masks == tuple(sum(1 << v for v in s) for _, s, _ in reference_tables(t))


def test_ancestor_masks_and_elimination_on_a_3000_node_chain():
    """Masks are built parents first, not by recursion, so a chain far
    deeper than the recursion limit builds them and answers a query."""
    n = 3000
    cards = dict.fromkeys(range(n), 2)
    step = [[0.9, 0.1], [0.3, 0.7]]
    variables = tuple(binary(i, f"x{i}") for i in range(n))
    cpts = (cpt(0, (), cards, [0.5, 0.5]),) + tuple(cpt(i, (i - 1,), cards, step) for i in range(1, n))
    net = Network(variables, cpts)
    assert net.ancestor_masks == tuple((1 << (i + 1)) - 1 for i in range(n))
    got = variable_elimination(net, Evidence({0: (0, 1)}), [n - 1])
    want = np.array([0.0, 1.0]) @ np.linalg.matrix_power(np.array(step), n - 1)
    assert np.allclose(got.values, want, rtol=1e-12, atol=0)


# -- one plan per network, and the bound above which each query plans -------


def cat_queries():
    """CAT queries on 40-node, 8-task student models (seeds 1 to 3),
    under ``none`` and ``factorize``, as (network, evidence, query):
    the answers arrive one at a time, and after each (and before the
    first) two skills are asked for."""
    for seed in (1, 2, 3):
        spec = StudentModelSpec(seed=seed, node_count=40)
        net = connect_tasks(generate_student_model(spec), canonical_tasks(spec, 8, seed))
        rng = random.Random(seed)
        answers = [v.id for v in net.variables if v.name.endswith("_answer")]
        rng.shuffle(answers)
        nets = [transform_network(net, m) for m in ("none", "factorize")]
        found = {}
        for step in range(len(answers) + 1):
            if step:
                found[answers[step - 1]] = rng.choice([(0, 1), (1, 0)])
            for skill in rng.sample(spec.skill_ids, 2):
                for t in nets:
                    yield t, Evidence(dict(found)), [skill]


def restricted_steps(t, kept, query):
    """(variable, clique mask) for each step of the elimination game on
    the query's reduced graph, the moral graph of the tables it ``kept``
    (``inference._program``), query left out, in the network plan's
    order restricted to that graph's vertices."""
    assert t.layout.plan is not None
    # the masks are over plan ranks; the graph is over ids, query left out
    order = t.layout.plan.order
    masks = [sum(1 << order[r] for r in ranks if order[r] not in query) for _, ranks, *_ in kept]
    adj = moral_graph(masks)
    steps = []
    for v in order:
        if v not in adj:
            continue
        nb = adj.pop(v)
        steps.append((v, nb | 1 << v))
        for u in adj:
            if nb >> u & 1:
                adj[u] = (adj[u] | nb) & ~(1 << u | 1 << v)
    assert not adj
    return steps


def test_restricted_steps_lie_in_the_network_plan():
    """A query's reduced graph is a subgraph of its network's moral
    graph, and the elimination game is monotone under subgraphs: each
    step of a query eliminated in the network plan's order has its
    clique, query variables aside, inside the plan's clique for that
    variable.  On CAT queries below the bound, VE sums out exactly
    those variables in that order."""
    cases = []
    for seed in range(150):
        rng = random.Random(seed)
        net = random_mixed_network(rng, one_state=True)
        ev = random_evidence(net, rng)
        query = sorted(rng.sample(range(len(net.variables)), rng.randint(1, 2)))
        cases += [(transform_network(net, m), ev, query, False) for m in ("none", "factorize")]
    cases += [(*case, True) for case in cat_queries()]
    checked = cat = 0
    for t, ev, query, replay in cases:
        clique_of = dict(zip(t.layout.plan.order, t.layout.plan.cliques))
        kept, _, program, _ = inference._program(t, ev, query)
        steps = restricted_steps(t, kept, query)
        for v, clique in steps:
            assert clique & ~clique_of[v] == 0, (v, query)
        checked += len(steps)
        if replay:
            # the variables each step sums out: the ranks it multiplies
            # and leaves out of its result; query variables stay
            drops = [t.layout.plan.order[r] for union, (_, ranks) in zip(step_unions(kept, program), program)
                     for r in members(union & ~ranks)]
            assert drops == [v for v, _ in steps]
            cat += 1
    assert checked > 3000 and cat == 108


def star_of_parents(parents):
    """A binary child of ``parents`` uniform binary roots, with a
    seeded random CPT; the child is the last variable."""
    n = parents + 1
    cards = dict.fromkeys(range(n), 2)
    table = np.random.default_rng(parents).uniform(0.1, 1.0, (2,) * n)
    table /= table.sum(axis=-1, keepdims=True)
    cpts = tuple(cpt(i, (), cards, [0.5, 0.5]) for i in range(parents))
    cpts += (cpt(parents, tuple(range(parents)), cards, table),)
    return Network(tuple(binary(i, f"x{i}") for i in range(n)), cpts), table


def test_network_above_the_bound_plans_each_query(monkeypatch):
    """One child of 18 binary parents: the family clique alone holds
    2^19 entries, above the bound.  The network's layout runs min-fill
    once, stopping at the bound, and each query then runs min-fill on
    its own reduced graph.  With 8 parents the layout's run ends below
    the bound, is the plan, and no query plans.  Either way clique
    accounting runs one whole min-fill of its own."""
    from factorbn import cliques

    runs = []  # [who, vertices, steps taken] for each min-fill run
    callers = []  # who called the planner, network or query

    def planning(who, real):
        def plan(*args):
            callers.append(who)
            return real(*args)
        return plan

    def counting(real):
        def steps(nb):
            run = [callers.pop(), len(nb), 0]
            runs.append(run)
            for step in real(nb):
                run[2] += 1
                yield step
        return steps

    monkeypatch.setattr(network, "min_fill_plan", planning("network", network.min_fill_plan))
    monkeypatch.setattr(inference, "min_fill_plan", planning("query", inference.min_fill_plan))
    monkeypatch.setattr(cliques, "min_fill_plan", planning("accounting", cliques.min_fill_plan))
    monkeypatch.setattr(cliques, "min_fill_steps", counting(cliques.min_fill_steps))
    for parents, above in ((18, True), (8, False)):
        net, table = star_of_parents(parents)
        runs.clear()
        for q in (0, 5, parents - 1):
            got = variable_elimination(net, Evidence({parents: (0, 1)}), [q])
            want = table[..., 1].sum(axis=tuple(a for a in range(parents) if a != q))
            assert np.allclose(got.values, want / want.sum(), rtol=1e-12, atol=0)
        assert (net.layout.plan is None) == above
        first, *queries = runs
        assert first[:2] == ["network", parents + 1]
        assert (first[2] < parents + 1) == above
        assert queries == ([["query", parents - 1, parents - 1]] * 3 if above else [])
        runs.clear()
        report = moralize_and_triangulate(net)
        assert (report.total > network.PLAN_ONCE_ENTRIES) == above
        assert runs == [["accounting", parents + 1, parents + 1]]


def test_student_models_from_60_nodes_plan_each_query():
    """Every 60-node, 12-task and 70-node, 14-task student model at
    seeds 3 to 5 plans above the bound under both methods, where a
    restricted order's cliques could grow many times over."""
    for nodes, tasks in ((60, 12), (70, 14)):
        for seed in (3, 4, 5):
            spec = StudentModelSpec(seed=seed, node_count=nodes)
            net = connect_tasks(generate_student_model(spec), canonical_tasks(spec, tasks, seed))
            for method in ("none", "factorize"):
                layout = transform_network(net, method).layout
                assert layout.plan is None, (nodes, seed, method)


# -- stars: factorized nodes pruned like the families they replace -----------


@pytest.mark.parametrize("offset", [0, 1000])
def test_stars_match_brute_force_on_the_transformed_network(offset, monkeypatch):
    """Queries and multi-state findings on star children, against
    enumeration of the transformed network itself.  A query or finding
    on a hidden variable is rejected, naming it; the same query then
    runs with the hidden findings dropped and each hidden target
    replaced by its star's child."""
    answered = rejected = 0
    for seed in range(offset, offset + 150):
        rng = random.Random(seed)
        t = transform_network(random_mixed_network(rng), "factorize")
        if not t.stars or np.prod(t.cards) > 2000:
            continue
        ev = random_evidence(t, rng)
        star_vars = [v for s in t.stars for v in (s.child, s.hidden)]
        query = sorted({rng.choice(star_vars), rng.randrange(len(t.variables))})
        child_of = {s.hidden: s.child for s in t.stars}
        if named := child_of.keys() & {*ev.findings, *query}:
            rejected += 1
            name = t.variables[min(named)].name
            for bound in BOUNDS:
                monkeypatch.setattr(network, "PLAN_ONCE_ENTRIES", bound)
                with pytest.raises(ValidationError, match=f"^{name!r} is the hidden variable"):
                    variable_elimination(replace(t), ev, query)
            ev = Evidence({v: vec for v, vec in ev.findings.items() if v not in child_of})
            query = sorted({child_of.get(q, q) for q in query})
        try:
            want = brute_posterior(t, ev, query)
            answered += 1
        except ZeroNormalizerError:
            want = None
        answers_under_both_planners(monkeypatch, t, ev, query, want, seed)
    assert answered > 40 and rejected > 20


def two_task_network():
    """Skills s0, s1, s2; task i is the AND of two skills (perf_i, a
    deterministic node) and answer_i a noisy reading of it."""
    cards = {i: 2 for i in range(7)}
    names = ["s0", "s1", "s2", "perf1", "answer1", "perf2", "answer2"]
    variables = tuple(binary(i, n) for i, n in enumerate(names))
    both = DeterministicFunction.from_callable
    dets = (both((0, 1), 3, (2, 2), 2, lambda a, b: a & b),
            both((1, 2), 5, (2, 2), 2, lambda a, b: a & b))
    cpts = (
        cpt(0, (), cards, [0.3, 0.7]),
        cpt(1, (), cards, [0.6, 0.4]),
        cpt(2, (), cards, [0.5, 0.5]),
        cpt(4, (3,), cards, [[0.9, 0.1], [0.2, 0.8]]),
        cpt(6, (5,), cards, [[0.8, 0.2], [0.3, 0.7]]),
    )
    return Network(variables, cpts, dets)


def star_below_its_family():
    """``two_task_network`` with perf1 (s0 AND s1) factorized through a
    hidden variable B of id 0, every other id moved up by one; perf2
    stays a deterministic node.  ``transform_network`` never builds
    this, since it appends B last."""
    net = two_task_network()
    det = net.deterministic[0]
    form = build_factorized_form(det, known_base_conjunction((1, 1)))
    variables = (Variable(0, "B", ("b0", "b1")),) + tuple(
        replace(v, id=v.id + 1) for v in net.variables
    )
    cards = dict(enumerate(v.card for v in variables))
    cpts = tuple(
        cpt(c.child + 1, tuple(p + 1 for p in c.parents), cards, c.factor.values)
        for c in net.cpts
    )
    perf2 = net.deterministic[1]
    perf2 = replace(perf2, parents=tuple(p + 1 for p in perf2.parents), child=perf2.child + 1)
    star = Star(det.child + 1, tuple(p + 1 for p in det.parents), 0, form)
    return Network(variables, cpts, (perf2,), (), (star,))


def test_a_star_below_its_family_transposes_its_tables():
    """A star whose hidden variable has a lower id than its family lists
    B first in every table, with the axes swapped to match, and answers
    as the deterministic node it replaces."""
    from factorbn import parse_network, write_network

    net = two_task_network()
    t = star_below_its_family()
    star = t.stars[0]
    form = star.form
    assert [scope for scope, _ in star.tables()] == [(0, 4), (0, 1), (0, 2)]
    assert np.array_equal(star.tables()[0][1], form.h.T)
    parsed = parse_network(write_network(t))
    for findings, query in (({5: (0, 1)}, [1]), ({5: (0, 1), 7: (1, 0)}, [2, 4])):
        want = variable_elimination(net, Evidence({k - 1: v for k, v in findings.items()}),
                                    [q - 1 for q in query])
        for network in (t, parsed):
            got = variable_elimination(network, Evidence(findings), query)
            assert np.abs(got.values - want.values).max() < 1e-12
        brute = brute_posterior(t, Evidence(findings), query)
        assert np.abs(brute - want.values).max() < 1e-12


def test_unanswered_tasks_star_is_not_contracted():
    from factorbn import inference, parse_network, write_network

    net = two_task_network()
    t = transform_network(net, "factorize")
    b1, b2 = (s.hidden for s in t.stars)
    assert [s.child for s in t.stars] == [3, 5]

    def seen(network, findings, query):
        assert network.layout.plan is not None
        got = variable_elimination(network, Evidence(findings), query)
        if max([*findings, *query]) < len(net.variables):
            want = variable_elimination(net, Evidence(findings), query)
            assert np.abs(got.values - want.values).max() < 1e-12
        # the variables some einsum of the query multiplies; the masks
        # are over ranks in the network's plan order
        kept, _, program, _ = inference._program(network, Evidence(findings), query)
        return {network.layout.plan.order[r] for union in step_unions(kept, program)
                for r in members(union)} & {b1, b2}

    answer1 = {4: (0, 1)}
    assert seen(t, answer1, [0]) == {b1}  # task 2 unanswered
    assert seen(t, {4: (0, 1), 6: (1, 0)}, [0]) == {b1, b2}
    assert seen(t, answer1, [5]) == {b1, b2}  # perf2 queried
    assert seen(t, {**answer1, 5: (0, 1)}, [0]) == {b1, b2}  # perf2 observed
    # its hidden variable has no posterior: queried or observed, even
    # with every state allowed, it is an input error naming it
    for findings, query in ((answer1, [b2]), ({**answer1, b2: (1, 1)}, [0])):
        with pytest.raises(ValidationError, match=f"^'{t.variables[b2].name}' is the hidden"):
            seen(t, findings, query)
    assert seen(t, {}, [1]) == set()
    # a parsed copy has no stars, so every potential stays
    parsed = parse_network(write_network(t))
    assert write_network(parsed) == write_network(t) and not parsed.stars
    assert seen(parsed, answer1, [0]) == {b1, b2}


# -- one labelling per network: colours of the plan, tables in plan order -----


def widest_clique(t, query, kept, label, program):
    """The most variables in one elimination clique of the order the
    query runs in, query left out: the network plan's below the bound,
    else min-fill's on the reduced graph, whose cliques are the unions
    that the steps of the query's ``program`` multiply.  The query's
    ranks are those with its labels, the highest."""
    if t.layout.plan is not None:
        return max((c.bit_count() for c in t.layout.plan.cliques), default=0)
    queried = sum(1 << r for r, x in enumerate(label) if x > max(label) - len(query))
    return max(((u & ~queried).bit_count() for u in step_unions(kept, program)), default=0)


def random_and_cat_queries():
    """(network, evidence, query) on the brute-force random networks
    under ``none`` and ``factorize``, then the 40/8 CAT queries."""
    cases = []
    for seed in range(150):
        rng = random.Random(seed)
        net = random_mixed_network(rng, one_state=True)
        ev = random_evidence(net, rng)
        query = sorted(rng.sample(range(len(net.variables)), rng.randint(1, 2)))
        cases += [(transform_network(net, m), ev, query) for m in ("none", "factorize")]
    return cases + list(cat_queries())


def test_einsum_labels_colour_every_step(monkeypatch):
    """Over the brute-force random networks and the 40/8 CAT queries,
    under both planners, with and without the fold: each step of the
    compiled program, one einsum, fold steps included, carries the
    labels of the variables it multiplies; no two of them share a
    label; every label lies in [0, 52); and the labels stop below the
    widest elimination clique's variable count plus the query's."""
    cases = random_and_cat_queries()
    calls = folded = 0
    for bound, fold_vars in iproduct(BOUNDS, (0, inference.FOLD_VARS)):
        monkeypatch.setattr(network, "PLAN_ONCE_ENTRIES", bound)
        monkeypatch.setattr(inference, "FOLD_VARS", fold_vars)
        fresh = {id(t): replace(t) for t, _, _ in cases}
        for t, ev, query in cases:
            t = fresh[id(t)]
            try:
                kept, label, program, _ = inference._program(t, ev, query)
            except ZeroNormalizerError:  # rejected before elimination
                continue
            used = set()
            for union, (args, _) in zip(step_unions(kept, program), program):
                met = {label[r] for r in members(union)}
                assert len(met) == union.bit_count(), (bound, query)
                operands, out = args[1:-1:2], args[-1]
                assert set().union(*operands) == met and set(out) <= met
                for labels in (*operands, out):
                    assert len(set(labels)) == len(labels) and set(labels) <= met
                used |= met
            calls += len(program)
            # a fold's steps before its last keep every label they take;
            # any other step but the last sums a rank out
            first = len(kept)
            kept_all = {first + j for j, (args, _) in enumerate(program[:-1])
                        if set(args[-1]) == set().union(*args[1:-1:2])}
            folded += sum(first + j in kept_all and args[0] not in kept_all
                          for j, (args, _) in enumerate(program))
            assert all(0 <= x < 52 for x in used)
            assert max(used, default=-1) < widest_clique(t, query, kept, label, program) + len(query)
    assert calls > 10000 and folded > 1000


def test_each_step_allocates_the_shape_its_program_predicts(monkeypatch):
    """Over the brute-force random networks and the 40/8 CAT queries,
    under both planners, with FOLD_VARS at 0 and at its default:
    np.einsum runs once per step of the compiled program, in order, with
    the step's labels, and each result has the shape the step's ranks
    predict, each rank's card in the order of its output labels."""
    cases = random_and_cat_queries()
    calls = []
    einsum = np.einsum

    def einsumming(*args):
        values = einsum(*args)
        calls.append(([list(labels) for labels in args[1::2]], values.shape))
        return values

    monkeypatch.setattr(np, "einsum", einsumming)
    steps = 0
    for bound, fold_vars in iproduct(BOUNDS, (0, inference.FOLD_VARS)):
        monkeypatch.setattr(network, "PLAN_ONCE_ENTRIES", bound)
        monkeypatch.setattr(inference, "FOLD_VARS", fold_vars)
        fresh = {id(t): replace(t) for t, _, _ in cases}
        for t, ev, query in cases:
            t = fresh[id(t)]
            calls.clear()
            try:
                variable_elimination(t, ev, query)
            except ZeroNormalizerError:
                pass
            try:
                kept, label, program, _ = inference._program(t, ev, query)
            except ZeroNormalizerError:  # rejected before elimination
                assert not calls
                continue
            card = {}
            for _, ranks, _, values, _ in kept:
                card.update(zip(ranks, values.shape))
            assert len(calls) == len(program)
            for (args, ranks), (labels, shape) in zip(program, calls):
                assert labels == [list(x) for x in args[1::2]]
                rank_of = {label[r]: r for r in members(ranks)}
                assert sorted(rank_of) == sorted(args[-1])
                assert shape == tuple(card[rank_of[x]] for x in args[-1])
            steps += len(program)
    assert steps > 15000


def test_a_chain_longer_than_an_einsums_labels_runs_on_its_plan(monkeypatch):
    """A binary chain of 90 variables, observed at its first and queried
    at its last: 88 variables are live, more than the 52 labels an
    einsum takes, while the plan (two-variable cliques) lies far below
    the bound.  The query runs on the network's layout, two colours
    label every step, and the answer is the exact sum over the chain,
    a product of its transition matrices."""
    n = 90
    cards = dict.fromkeys(range(n), 2)
    rng = np.random.default_rng(90)
    steps = [np.array([[p, 1 - p], [q, 1 - q]]) for p, q in rng.uniform(0.05, 0.95, (n - 1, 2))]
    variables = tuple(binary(i, f"x{i}") for i in range(n))
    cpts = (cpt(0, (), cards, [0.3, 0.7]),)
    cpts += tuple(cpt(i, (i - 1,), cards, steps[i - 1]) for i in range(1, n))
    net = Network(variables, cpts)
    ev = Evidence({0: (1, 0)})

    def no_planning(*args):
        raise AssertionError("a query below the bound plans nothing")

    monkeypatch.setattr(inference, "min_fill_plan", no_planning)
    assert net.layout.plan is not None
    live = 0
    for mask, *_ in inference._program(net, ev, [n - 1])[0]:
        live |= mask
    assert (live & ~(1 << net.layout.rank[n - 1])).bit_count() == n - 2 > 52
    got = variable_elimination(net, ev, [n - 1])
    assert net.layout.plan.colours == 2
    want = np.array([1.0, 0.0])
    for step in steps:
        want = want @ step
    assert got.scope == (n - 1,)
    assert np.allclose(got.values, want, rtol=1e-12, atol=0)


def test_the_fold_changes_no_posterior(monkeypatch):
    """FOLD_VARS at 0 sends every bucket of three tables or more through
    the left fold of two-operand einsums; at 10**6 only one of more than
    MAX_OPERANDS.  On the brute-force random networks under both methods
    and both planners, the two agree within 1e-12 and match enumeration
    within 1e-9; on the 108 CAT queries they agree within 1e-12."""
    cases = []
    for seed in range(150):
        rng = random.Random(seed)
        net = random_mixed_network(rng, one_state=True)
        ev = random_evidence(net, rng)
        query = sorted(rng.sample(range(len(net.variables)), rng.randint(1, 2)))
        try:
            want = brute_posterior(net, ev, query)
        except ZeroNormalizerError:
            want = None
        for method in ("none", "factorize"):
            for bound in BOUNDS:
                cases.append((transform_network(net, method), ev, query, want, bound))
    cases += [(t, ev, query, None, network.PLAN_ONCE_ENTRIES) for t, ev, query in cat_queries()]
    answered = 0
    for t, ev, query, want, bound in cases:
        monkeypatch.setattr(network, "PLAN_ONCE_ENTRIES", bound)
        got = []
        for fold in (0, 10**6):
            monkeypatch.setattr(inference, "FOLD_VARS", fold)
            try:
                got.append(variable_elimination(replace(t), ev, query).values)
            except ZeroNormalizerError:
                got.append(None)
        if got[0] is None:
            assert got[1] is None and want is None
            continue
        assert np.abs(got[0] - got[1]).max() < 1e-12
        if want is not None:
            assert np.abs(got[0] - want).max() < 1e-9
        answered += 1
    assert answered > 600


def test_a_lone_table_sums_out_its_run_in_one_step():
    """Nine binary variables held by one free potential, the last of
    them the parent of a queried child.  The potential is the only
    table in the buckets of the first eight, so one step sums them all
    out; a second sums out the parent with the child's CPT.  Against
    enumeration."""
    n = 9
    rng = np.random.default_rng(9)
    variables = tuple(binary(i, f"x{i}") for i in range(n)) + (binary(n, "y"),)
    joint = Factor(tuple(range(n)), (2,) * n, rng.uniform(0.1, 1.0, (2,) * n))
    child = cpt(n, (n - 1,), (2,) * (n + 1), [[0.9, 0.1], [0.25, 0.75]])
    net = Network(variables, (child,), (), (joint,))
    assert net.layout.plan is not None
    got = variable_elimination(net, None, [n])
    kept, _, program, _ = inference._program(net, None, [n])
    steps = [(len(args) // 2, union.bit_count(), len(args[-1]))
             for union, (args, _) in zip(step_unions(kept, program), program)]
    assert steps == [(1, n, 1), (2, 2, 1)]
    want = brute_posterior(net, Evidence(), [n])
    assert np.allclose(got.values, want, rtol=1e-12, atol=0)


def test_a_step_frees_the_tables_it_took(monkeypatch):
    """By the time each einsum runs, every intermediate table that an
    earlier einsum took is dead: a step empties the slots it reads, so
    a query holds only its live intermediates.  On a 30-variable binary
    chain queried at its end, where each step takes the last one's
    result, under both planners, and on the 40/8 CAT queries."""
    import weakref

    n = 30
    cards = dict.fromkeys(range(n), 2)
    step = [[0.9, 0.1], [0.3, 0.7]]
    variables = tuple(binary(i, f"x{i}") for i in range(n))
    cpts = (cpt(0, (), cards, [0.5, 0.5]),) + tuple(cpt(i, (i - 1,), cards, step) for i in range(1, n))
    chain = Network(variables, cpts)
    results = []  # a weak reference to each einsum's result
    taken = []  # those an earlier einsum took
    einsum = np.einsum

    def recording(*args):
        assert all(ref() is None for ref in taken)
        took = [ref for ref in results if any(ref() is values for values in args[:-1:2])]
        values = einsum(*args)
        taken.extend(took)
        results.append(weakref.ref(values))
        return values

    monkeypatch.setattr(np, "einsum", recording)
    cases = [(chain, Evidence({0: (1, 0)}), [n - 1], bound) for bound in BOUNDS]
    cases += [(t, ev, query, network.PLAN_ONCE_ENTRIES) for t, ev, query in cat_queries()]
    freed = 0
    for t, ev, query, bound in cases:
        monkeypatch.setattr(network, "PLAN_ONCE_ENTRIES", bound)
        results.clear()
        taken.clear()
        variable_elimination(replace(t), ev, query)
        freed += len(taken)
    assert freed > 1000


def layout_networks():
    """CPTs and deterministic indicators (``two_task_network``), star
    tables (factorized, and with B at the lowest id), and free
    potentials (a parsed copy holds the star tables as potentials)."""
    from factorbn import parse_network, write_network

    factorized = transform_network(two_task_network(), "factorize")
    return [
        two_task_network(),
        factorized,
        star_below_its_family(),
        parse_network(write_network(factorized)),
        parse_network(write_network(star_below_its_family())),
    ]


def table_kinds(net):
    kinds = ["cpt"] * len(net.cpts) + ["deterministic"] * len(net.deterministic)
    kinds += ["potential"] * len(net.potentials)
    return kinds + ["star"] * sum(1 + len(s.parents) for s in net.stars)


def assert_stars_hold_only_their_forms(net):
    """Each entry of ``Star.tables()`` is a view of its form's h or g_i,
    and no attribute of a star holds a float64 array."""
    for s in net.stars:
        for (_, table), source in zip(s.tables(), (s.form.h, *s.form.g), strict=True):
            assert np.shares_memory(table, source)
        assert not any(getattr(v, "dtype", None) == np.float64 for v in vars(s).values())


def test_layout_stores_every_table_in_plan_order():
    """Each table of ``Network.layout`` is its source (a CPT, a
    deterministic indicator, a free potential or a star table) with the
    axes in plan order, as float64 bit for bit, read-only and C-ordered,
    and a float64 source already in that order is not copied.  Every
    kind has a table whose axes the plan reorders.  A star's source is
    its form's exact int64 table, so only the layout holds it as float64."""
    assert not hasattr(two_task_network(), "tables")
    reordered, kept = set(), set()
    for net in layout_networks():
        assert_stars_hold_only_their_forms(net)
        layout = net.layout
        rank = layout.rank
        assert sorted(rank) == list(range(len(net.variables)))
        assert all(rank[v] == i for i, v in enumerate(layout.plan.order))
        sources = reference_tables(net)
        assert len(layout.tables) == len(layout.heads) == len(sources)
        for kind, (head, scope, values), stored_head, (*stored, table, bucket) in zip(
            table_kinds(net), sources, layout.heads, layout.tables
        ):
            axes = sorted(range(len(scope)), key=lambda a: rank[scope[a]])
            want = np.ascontiguousarray(values.transpose(axes), dtype=np.float64)
            ranks = tuple(rank[scope[a]] for a in axes)
            assert stored_head == head and bucket == min(ranks, default=-1)
            labels = tuple(layout.plan.labels[r] for r in ranks)
            assert stored == [sum(1 << r for r in ranks), ranks, labels]
            assert table.dtype == np.float64 and table.shape == want.shape
            assert table.flags.c_contiguous and not table.flags.writeable
            assert table.tobytes() == want.tobytes(), (kind, scope)
            if axes != sorted(axes):
                reordered.add(kind)
            elif values.dtype == np.float64:
                assert np.shares_memory(table, values), (kind, scope)
                kept.add(kind)
        # the labels colour the plan: no two members of a clique share one
        for clique in layout.plan.cliques:
            labels = [layout.plan.labels[rank[v]] for v in members(clique)]
            assert len(set(labels)) == len(labels)
        assert layout.plan.colours == max(layout.plan.labels) + 1
    assert reordered == {"cpt", "deterministic", "potential", "star"}
    assert kept == {"cpt", "potential"}


def test_layout_above_the_bound_keeps_every_table_in_id_order(monkeypatch):
    """Above the bound the ranks are the ids and nothing is labelled;
    each table has its axes in id order, and every CPT and free
    potential is its source, not a copy; a star table is its form's, as
    float64."""
    wide = star_of_parents(18)[0]
    assert wide.layout.plan is None
    monkeypatch.setattr(network, "PLAN_ONCE_ENTRIES", 0)  # every network is above it
    kinds = set()
    for net in [wide, *layout_networks()]:
        assert_stars_hold_only_their_forms(net)
        layout = net.layout
        assert layout.rank == tuple(range(len(net.variables)))
        assert layout.plan is None
        sources = reference_tables(net)
        assert len(layout.tables) == len(layout.heads) == len(sources)
        for kind, (head, scope, values), mask, stored_head, (*stored, table, bucket) in zip(
            table_kinds(net), sources, net.scope_masks, layout.heads, layout.tables
        ):
            assert stored_head == head and bucket == min(scope, default=-1)
            assert stored == [mask, scope, None]
            assert table.dtype == np.float64 and table.flags.c_contiguous
            assert not table.flags.writeable
            assert table.tobytes() == np.ascontiguousarray(values, dtype=np.float64).tobytes()
            if kind not in ("deterministic", "star"):
                assert np.shares_memory(table, values), (kind, scope)
                kinds.add(kind)
    assert kinds == {"cpt", "potential"}


def one_state_nodes(n, parent=False):
    """``n`` one-state variables, each with its CPT: roots, or with
    ``parent``, children of one binary root, variable ``n``."""
    variables = tuple(Variable(i, f"v{i}", ("only",)) for i in range(n))
    if not parent:
        return Network(variables, tuple(cpt(i, (), (1,) * n, [1.0]) for i in range(n)))
    cards = (1,) * n + (2,)
    cpts = tuple(cpt(i, (n,), cards, np.ones((1, 2))) for i in range(n))
    return Network((*variables, binary(n, "h")), (*cpts, cpt(n, (), cards, [0.3, 0.7])))


def test_a_query_wider_than_an_einsums_labels_is_an_input_error(monkeypatch):
    """Each query variable keeps its own einsum label, above the
    layout's colours, and one einsum takes labels below 52, at most
    MAX_AXES of them (32 before numpy 2.0).  Under both planners, that
    many one-state roots queried together answer, and one more raise
    ValidationError naming the limit, from the last einsum; one-state
    children of a binary root do the same from the einsum that sums the
    root out, one fewer answering.  A potential over one variable more
    than the roots, all queried, is the answer's one table in query
    order: no einsum runs, and it answers."""
    width = min(52, inference.MAX_AXES)
    for bound in BOUNDS:
        monkeypatch.setattr(network, "PLAN_ONCE_ENTRIES", bound)
        for parent, n in ((False, width), (True, width - 1)):
            got = variable_elimination(one_state_nodes(n, parent), None, range(n))
            assert got.scope == tuple(range(n)) and got.values.reshape(-1).tolist() == [1.0]
            with pytest.raises(ValidationError, match=f"below 52, at most {width} of them"):
                variable_elimination(one_state_nodes(n + 1, parent), None, range(n + 1))
        n = min(53, inference.MAX_AXES)
        variables = tuple(Variable(i, f"v{i}", ("only",)) for i in range(n))
        net = Network(variables, potentials=(Factor(tuple(range(n)), (1,) * n, np.ones((1,) * n)),))
        got = variable_elimination(net, None, range(n))
        assert got.scope == tuple(range(n)) and got.values.reshape(-1).tolist() == [1.0]


def test_a_query_too_wide_for_numpy_runs_no_einsum(monkeypatch):
    """One-state roots, each queried, next to a binary chain observed at
    its end: the chain's steps are narrow and come first, and the
    product into query order comes last.  With one root more than an
    einsum takes labels, that product cannot run, and under both
    planners the query raises ValidationError naming the limit before
    any einsum runs; with enough roots fewer to fit, it answers, the
    chain's einsums included."""
    width = min(52, inference.MAX_AXES)
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: calls.append(1) or einsum(*args))
    for bound in BOUNDS:
        monkeypatch.setattr(network, "PLAN_ONCE_ENTRIES", bound)
        for n, fits in ((width + 1, False), (width - 2, True)):
            variables = tuple(Variable(i, f"v{i}", ("only",)) for i in range(n))
            variables += (binary(n, "c0"), binary(n + 1, "c1"), binary(n + 2, "c2"))
            cards = (1,) * n + (2, 2, 2)
            cpts = tuple(cpt(i, (), cards, [1.0]) for i in range(n))
            cpts += (cpt(n, (), cards, [0.3, 0.7]),
                     cpt(n + 1, (n,), cards, [[0.9, 0.1], [0.2, 0.8]]),
                     cpt(n + 2, (n + 1,), cards, [[0.6, 0.4], [0.1, 0.9]]))
            net = Network(variables, cpts)
            ev = Evidence({n + 2: (0, 1)})
            calls.clear()
            if fits:
                got = variable_elimination(net, ev, range(n))
                assert got.values.reshape(-1).tolist() == [1.0] and calls
                continue
            with pytest.raises(ValidationError, match=f"below 52, at most {width} of them"):
                variable_elimination(net, ev, range(n))
            assert not calls


def test_every_variable_heads_a_node_or_sits_in_a_potential():
    """One coverage rule, with or without potentials: a CPT or
    deterministic parent with no node of its own and in no potential is
    rejected, and a variable that only a potential holds is accepted."""
    variables = (binary(0, "a"), binary(1, "b"), binary(2, "alarm"))
    cards = (2, 2, 2)
    b = cpt(1, (), cards, [0.7, 0.3])
    alarm = cpt(2, (0,), cards, [[0.9, 0.1], [0.2, 0.8]])
    det = DeterministicFunction((0,), 2, (2,), 2, (0, 1))
    over_a = Factor((0,), (2,), np.ones(2))
    over_b = Factor((1,), (2,), np.array([1.0, 2.0]))
    for nodes in (((b, alarm), ()), ((b,), (det,))):
        for potentials in ((), (over_b,)):
            with pytest.raises(ValidationError, match=r"^variables \[0\] head no node"):
                Network(variables, *nodes, potentials)
        assert Network(variables, *nodes, (over_a,)).ancestor_masks == (1, 2, 5)


def test_every_table_has_the_declared_cards():
    """One check for every table, whatever its kind: a CPT, a
    deterministic family and a potential name their cards, and each
    must match the variables'."""
    variables = (binary(0, "a"), Variable(1, "b", ("x", "y", "z")))
    a = cpt(0, (), (2, 3), [0.5, 0.5])
    bad = [
        ((a, Cpt(1, (0,), Factor((0, 1), (2, 2), np.full((2, 2), 0.5)))), (), ()),
        ((a,), (DeterministicFunction((0,), 1, (2,), 2, (0, 1)),), ()),
        ((a, cpt(1, (), (2, 3), [0.2, 0.3, 0.5])), (), (Factor((1,), (2,), np.ones(2)),)),
    ]
    messages = [
        r"a CPT over variables \(0, 1\) has cards \(2, 2\), expected \(2, 3\)",
        r"a deterministic node over variables \(0, 1\) has cards \(2, 2\), expected \(2, 3\)",
        r"a potential over variables \(1,\) has cards \(2,\), expected \(3,\)",
    ]
    for args, message in zip(bad, messages):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Network(variables, *args)


def test_malformed_stars_are_rejected():
    """A star holds its form: one g table per distinct parent, none of
    them its child, with the cards of its variables.  Its hidden
    variable B is no other star's, and sits in no family and in no free
    potential.  A missing or an extra table over B can no longer be
    built: the star's tables are its form's."""
    t = transform_network(two_task_network(), "factorize")
    first, second = t.stars
    b1, b2 = first.hidden, second.hidden
    assert not t.potentials
    assert [scope for scope, _ in first.tables()] == [(3, b1), (0, b1), (1, b1)]
    cards = dict(enumerate(t.cards))
    answer1 = t.cpts[3]
    assert answer1.child == 4

    def pot(scope):
        shape = tuple(cards[v] for v in scope)
        return Factor(scope, shape, np.ones(shape))

    def build(stars=(first, second), cpts=t.cpts, deterministic=(), potentials=()):
        return Network(t.variables, cpts, deterministic, potentials, stars)

    assert build() == t
    assert build(stars=(second, first)) != t
    form = first.form
    one_g = FactorizedForm((2,), 2, form.h, form.g[:1])
    ternary_g = FactorizedForm((3, 2), 2, form.h, (np.vstack([form.g[0], [0, 0]]), form.g[1]))
    wide = trivial_factorization(two_task_network().deterministic[0])
    for parents in ((0, 0), (3, 0)):
        with pytest.raises(ValidationError, match="child and parents must be distinct"):
            Star(3, parents, b1, form)
    with pytest.raises(ValidationError, match="one g table per parent"):
        Star(3, (0, 1), b1, one_g)
    b1_parent_cpt = cpt(4, (3, b1), cards, np.full((2, cards[b1], 2), 0.5))
    b1_parent_det = DeterministicFunction((b1,), 4, (cards[b1],), 2, (0,) * cards[b1])
    without_answer1 = tuple(c for c in t.cpts if c is not answer1)
    star_of_3 = "^the star of variable 3 over variables"
    bad = [
        ({"cpts": t.cpts + (cpt(3, (), cards, [0.5, 0.5]),)}, "head of two nodes"),
        ({"stars": (replace(first, form=wide), second)},
         rf"{star_of_3} \(3, {b1}\) has cards \(2, 4\), expected \(2, 2\)$"),
        ({"stars": (replace(first, form=ternary_g), second)},
         rf"{star_of_3} \(0, {b1}\) has cards \(3, 2\), expected \(2, 2\)$"),
        ({"stars": (replace(first, hidden=99), second)}, "^unknown variable id 99 in the star"),
        ({"stars": (first, replace(second, hidden=b1))}, "outside its star"),
        ({"potentials": (pot((b2,)),)}, "outside its star"),
        ({"potentials": (pot((4, b1)),)}, "outside its star"),
        ({"cpts": without_answer1 + (b1_parent_cpt,)}, "outside its star"),
        ({"cpts": without_answer1, "deterministic": (b1_parent_det,)}, "outside its star"),
    ]
    for kwargs, message in bad:
        with pytest.raises(ValidationError, match=message):
            build(**kwargs)
