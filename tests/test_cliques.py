"""Triangulation cost measurement: min-fill, maximal cliques, totals.

Core claims:
    - a 3-node chain costs 4 + 4 = 8; a lone 5-state node costs 5
    - a deterministic AND over 4 binary parents moralizes into one
      32-state clique; the pairwise rewrite caps cliques at 4 states
      and strictly shrinks the total
    - reported cliques form an antichain (no clique inside another)
    - ``moral_graph`` makes each scope mask a clique, so a variable
      cleared from every mask is no vertex, and covers potential scopes
    - min-fill breaks ties toward the lowest variable id, and the mask
      core (``min_fill_steps``) picks exactly what a full rescan and the
      earlier set-based incremental scoring pick: on random graphs with
      any clique sizes, on the reduced graphs variable elimination
      plans on for CAT queries and the whole-network graphs of the same
      models, and on chordal graphs (trees, interval graphs), where no
      step adds a fill edge
    - a network without variables has no cliques and sizes 0
    - triangulation reads the network's scope masks and builds no
      table; the masks are those of the tables' scopes, in order
    - every plan's labels colour its elimination cliques: distinct
      within a clique among the vertices of more than one state, -1 on
      a one-state vertex, as many colours as the widest clique has
      such members, and ``colours`` one past the largest label
    - a network's queries run one min-fill, its layout's, bounded;
      each triangulation runs one unbounded min-fill of its own and
      builds no table, and below the bound its plan is the layout's
      step for step, so querying first changes no report
    - repeated runs return identical reports
"""

import functools
import heapq
import random
from itertools import combinations

import numpy as np

from factorbn import (
    Cpt,
    DeterministicFunction,
    Factor,
    Network,
    Variable,
    inference,
    moralize_and_triangulate,
)
from factorbn.benchcat import (
    StudentModelSpec,
    canonical_tasks,
    connect_tasks,
    generate_student_model,
)
from factorbn.cliques import min_fill_plan, min_fill_steps, moral_graph
from factorbn.core import Evidence
from factorbn.inference import transform_network


def binary_var(i, name):
    return Variable(i, name, ("no", "yes"))


def uniform_cpt(child, parents, cards):
    family = tuple(sorted(parents + (child,)))
    shape = tuple(cards[v] for v in family)
    axis = family.index(child)
    table = np.full(shape, 1.0 / cards[child])
    return Cpt(child, parents, Factor(family, shape, table))


def chain_network():
    cards = {0: 2, 1: 2, 2: 2}
    variables = tuple(binary_var(i, f"v{i}") for i in range(3))
    cpts = (
        uniform_cpt(0, (), cards),
        uniform_cpt(1, (0,), cards),
        uniform_cpt(2, (1,), cards),
    )
    return Network(variables, cpts)


def test_chain_total_is_eight():
    report = moralize_and_triangulate(chain_network())
    assert report.total == 8
    assert sum(report.sizes) == 8
    assert set(report.cliques) == {(0, 1), (1, 2)}


def test_single_variable_total_is_its_cardinality():
    net = Network(
        (Variable(0, "v", tuple("abcde")),),
        (uniform_cpt(0, (), {0: 5}),),
    )
    report = moralize_and_triangulate(net)
    assert report.cliques == ((0,),)
    assert report.total == 5
    assert report.max_clique_size == 5


def star_network():
    cards = {i: 2 for i in range(5)}
    variables = tuple(binary_var(i, f"x{i}") for i in range(4))
    variables += (binary_var(4, "y"),)
    cpts = tuple(uniform_cpt(i, (), cards) for i in range(4))
    outputs = tuple(
        int(all(cfg)) for cfg in np.ndindex(2, 2, 2, 2)
    )
    det = DeterministicFunction((0, 1, 2, 3), 4, (2, 2, 2, 2), 2, outputs)
    return Network(variables, cpts, (det,))


def test_star_family_clique_is_whole_family():
    report = moralize_and_triangulate(star_network())
    assert report.cliques == ((0, 1, 2, 3, 4),)
    assert report.max_clique_size == 32
    assert report.total == 32


def test_star_factorized_cliques_are_pairwise():
    net = transform_network(star_network(), "factorize")
    report = moralize_and_triangulate(net)
    assert report.max_clique_size <= 8
    assert report.total < 32
    # hidden variable pairs with y and with each parent
    assert all(len(c) == 2 for c in report.cliques)
    assert report.total == 20


def test_cliques_form_an_antichain():
    for net in (chain_network(), star_network()):
        report = moralize_and_triangulate(net)
        cliques = [set(c) for c in report.cliques]
        for i, a in enumerate(cliques):
            for j, b in enumerate(cliques):
                assert i == j or not a < b


def test_min_fill_breaks_ties_toward_low_ids():
    # a 4-cycle: every vertex has fill 1, so vertex 0 goes first
    adj = {0: {1, 3}, 1: {0, 2}, 2: {1, 3}, 3: {0, 2}}
    order, cliques = core_min_fill(adj)
    assert order[0] == 0
    assert order == (0, 1, 2, 3)


def test_interaction_graph_covers_potential_scopes():
    variables = (binary_var(0, "a"), binary_var(1, "b"), binary_var(2, "c"))
    cpts = (
        uniform_cpt(0, (), {0: 2}),
        uniform_cpt(1, (), {1: 2}),
        uniform_cpt(2, (), {2: 2}),
    )
    pot = Factor((0, 2), (2, 2), np.ones((2, 2)))
    net = Network(variables, cpts, (), (pot,))
    assert moral_graph(net.scope_masks) == {0: 0b100, 1: 0, 2: 0b1}


def test_triangulation_reads_scopes_without_building_tables():
    for net in (chain_network(), star_network(), transform_network(star_network(), "factorize")):
        report = moralize_and_triangulate(net)
        assert "layout" not in net.__dict__
        # the scopes it read are the layout's, table for table
        order = net.layout.plan.order
        assert net.scope_masks == tuple(sum(1 << order[r] for r in t[1]) for t in net.layout.tables)
        assert report == moralize_and_triangulate(net)


def test_network_plans_once_and_accounting_plans_per_call(monkeypatch):
    """Many queries run one min-fill, the layout's, bounded by
    ``PLAN_ONCE_ENTRIES``; each triangulation runs one unbounded
    min-fill of its own and builds no float table; and the report is
    the same whether or not the network was queried first."""
    from factorbn import cliques, network

    runs = []  # (who, bound) for each min_fill_plan call
    steps = []  # one entry per min_fill_steps run
    real_plan, real_steps = cliques.min_fill_plan, cliques.min_fill_steps

    def planning(who):
        def plan(masks, cards, bound=float("inf")):
            runs.append((who, bound))
            return real_plan(masks, cards, bound)
        return plan

    monkeypatch.setattr(cliques, "min_fill_plan", planning("accounting"))
    monkeypatch.setattr(network, "min_fill_plan", planning("layout"))
    monkeypatch.setattr(inference, "min_fill_plan", planning("query"))
    monkeypatch.setattr(cliques, "min_fill_steps", lambda nb: steps.append(nb) or real_steps(nb))
    spec, _ = session_model(1)
    for method in ("none", "factorize"):
        fresh = transform_network(session_model(1)[1], method)
        runs.clear()
        steps.clear()
        report = moralize_and_triangulate(fresh)
        assert runs == [("accounting", float("inf"))] and len(steps) == 1
        assert "tables" not in fresh.__dict__ and "layout" not in fresh.__dict__
        assert moralize_and_triangulate(fresh) == report
        assert len(runs) == len(steps) == 2

        queried = transform_network(session_model(1)[1], method)
        runs.clear()
        steps.clear()
        for skill in spec.skill_ids:
            inference.variable_elimination(queried, Evidence(), [skill])
        assert runs == [("layout", network.PLAN_ONCE_ENTRIES)] and len(steps) == 1
        assert queried.layout.plan is not None
        assert moralize_and_triangulate(queried) == report
        assert runs[1:] == [("accounting", float("inf"))] and len(steps) == 2


def test_accounting_plan_is_the_layout_plan_below_the_bound(monkeypatch):
    """On the 40-node, 8-task models of the ``cat-session`` seeds 1 and
    99, under ``none`` and ``factorize``, the plan triangulation reports
    is the layout's, step for step, and the report's sizes are its
    sizes at the maximal cliques."""
    from factorbn import cliques

    plans = []
    real = cliques.min_fill_plan
    monkeypatch.setattr(cliques, "min_fill_plan", lambda *args: plans.append(real(*args)) or plans[-1])
    for seed in (1, 99):
        for method in ("none", "factorize"):
            t = transform_network(session_model(seed)[1], method)
            plans.clear()
            report = moralize_and_triangulate(t)
            (plan,) = plans
            assert plan == t.layout.plan  # order, cliques, sizes, labels, colours
            assert report.elimination_order == plan.order
            size_of = dict(zip(plan.cliques, plan.sizes))
            assert report.sizes == tuple(size_of[sum(1 << v for v in c)] for c in report.cliques)
            assert report.sizes == tuple(np.prod([t.cards[v] for v in c]) for c in report.cliques)


def test_report_deterministic():
    a = moralize_and_triangulate(star_network())
    b = moralize_and_triangulate(star_network())
    assert a == b


def full_rescan_min_fill(adj):
    """The reference min-fill: rescore every vertex on every step."""
    work = {v: set(nb) for v, nb in adj.items()}
    order, cliques = [], []
    while work:
        best_v, best_fill = None, None
        for v in sorted(work):
            nbrs = work[v]
            fill = sum(1 for a, b in combinations(sorted(nbrs), 2) if b not in work[a])
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        nbrs = work[best_v]
        cliques.append({best_v} | nbrs)
        for a, b in combinations(sorted(nbrs), 2):
            work[a].add(b)
            work[b].add(a)
        for u in nbrs:
            work[u].discard(best_v)
        del work[best_v]
        order.append(best_v)
    return tuple(order), cliques


def random_graph(rng):
    n = rng.randint(0, 40)
    ids = rng.sample(range(3 * n + 1), n)
    density = rng.choice([0.05, 0.15, 0.3, 0.6])
    adj = {v: set() for v in ids}
    for a, b in combinations(ids, 2):
        if rng.random() < density:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def graph_of(masks):
    """The sets of neighbours of a graph given as masks."""
    return {v: {u for u in masks if mask >> u & 1} for v, mask in masks.items()}


def core_min_fill(adj):
    """``min_fill_steps`` run to the end on the masks of ``adj`` itself,
    ids as bit positions, with its result in the oracles' form."""
    masks = {v: sum(1 << u for u in nbrs) for v, nbrs in adj.items()}
    steps = list(min_fill_steps(masks))
    return tuple(v for v, _ in steps), [{v for v in adj if c >> v & 1} for _, c in steps]


def small_ids(adj, rng):
    """``adj`` relabeled onto sparse ids below 4n, in the same order, so
    that the mask core can take ids up to 2**40 as bit positions."""
    ids = sorted(rng.sample(range(4 * len(adj) + 1), len(adj)))
    new = dict(zip(sorted(adj), ids))
    return {new[v]: {new[u] for u in nbrs} for v, nbrs in adj.items()}


def test_incremental_min_fill_matches_full_rescan():
    for seed in range(400):
        adj = random_graph(random.Random(seed))
        expected = full_rescan_min_fill(adj)
        assert core_min_fill(adj) == expected, seed


def random_tree(rng, n):
    adj = {v: set() for v in range(n)}
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u].add(v)
        adj[v].add(u)
    return adj


def random_interval_graph(rng, n):
    """Vertices are random intervals, adjacent when they overlap."""
    spans = [sorted(rng.sample(range(3 * n + 2), 2)) for _ in range(n)]
    return {
        v: {u for u in range(n) if u != v and spans[u][0] <= b and a <= spans[u][1]}
        for v, (a, b) in enumerate(spans)
    }


def test_min_fill_on_chordal_graphs_adds_no_fill():
    """Trees and interval graphs are chordal, so min-fill finds a vertex
    without fill at every step: each elimination clique is already a
    clique of the input graph."""
    steps = 0
    for seed in range(120):
        rng = random.Random(seed)
        n = rng.randint(1, 60)
        adj = random_tree(rng, n) if seed % 2 else random_interval_graph(rng, n)
        adj = small_ids(adj, rng)
        expected = full_rescan_min_fill(adj)
        for clique in expected[1]:
            assert all(b in adj[a] for a, b in combinations(clique, 2)), seed
        assert core_min_fill(adj) == expected, seed
        steps += len(expected[0])
    assert steps > 3000


def session_model(seed):
    """The 40-node, 8-task student model of a seed, every task connected."""
    spec = StudentModelSpec(seed=seed, node_count=40)
    return spec, connect_tasks(generate_student_model(spec), canonical_tasks(spec, 8, seed))


@functools.cache
def query_graphs():
    """The reduced graphs of CAT queries on 40-node, 8-task student
    models (seeds 1 to 3), under ``none`` and ``factorize``: the answers
    arrive one at a time, and after each (and before the first) two
    skills are asked for.  Each is the moral graph of the masks of the
    tables ``inference._program`` keeps for a query, query left out,
    which is what it plans on when it runs min-fill per query."""
    graphs = []
    for seed in (1, 2, 3):
        spec, net = session_model(seed)
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
                    kept, *_ = inference._program(t, Evidence(dict(found)), [skill])
                    # the masks are over plan ranks; the graph is over ids
                    order = t.layout.plan.order
                    masks = [sum(1 << order[r] for r in ranks if order[r] != skill)
                             for _, ranks, *_ in kept]
                    graphs.append(moral_graph(masks))
    return graphs


@functools.cache
def network_graphs():
    """The whole-network graphs of 40-node, 8-task student models (the
    ``cat-session`` seeds 1 and 99, and 2 and 3) under ``none`` and
    ``factorize``: what a network's layout and its clique accounting
    run min-fill on."""
    return [
        moral_graph(transform_network(session_model(seed)[1], m).scope_masks)
        for seed in (1, 2, 3, 99)
        for m in ("none", "factorize")
    ]


def test_query_graphs_match_full_rescan():
    assert len(query_graphs()) == 3 * 9 * 2 * 2
    assert max(map(len, query_graphs())) >= 40
    assert len(network_graphs()) == 4 * 2 and min(map(len, network_graphs())) >= 48
    for i, masks in enumerate(query_graphs() + network_graphs()):
        adj = graph_of(masks)
        expected = full_rescan_min_fill(adj)
        assert core_min_fill(adj) == expected, i


def _set_fill(adj, v, clique=frozenset()):
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


def set_based_min_fill(adj):
    """The incremental min-fill on Python sets, as it was before it ran
    on bitsets: a second oracle that is fast enough for large graphs."""
    work = {v: set(nb) for v, nb in adj.items()}
    fill = {v: _set_fill(work, v) for v in work}
    heap = [(f, v) for v, f in fill.items()]
    heapq.heapify(heap)
    order = []
    cliques = []
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
            fill[u] = _set_fill(work, u, nbrs)
        for u in changed:
            heapq.heappush(heap, (fill[u], u))
    return tuple(order), cliques


def clique_graph(rng):
    """A union of random cliques, some of 30 or more vertices, plus
    sparse noise, over non-contiguous ids up to 2**40."""
    n = rng.randint(30, 100)
    ids = rng.sample(range(1 << 40), n // 2) + rng.sample(range(4 * n), n - n // 2)
    ids = list(dict.fromkeys(ids))
    adj = {v: set() for v in ids}
    for _ in range(rng.randint(1, 8)):
        members = rng.sample(ids, rng.randint(2, min(len(ids), 45)))
        for a in members:
            adj[a].update(b for b in members if b != a)
    for a, b in combinations(ids, 2):
        if rng.random() < 0.02:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def test_bitset_min_fill_matches_set_based_min_fill():
    largest = 0
    for seed in range(90):
        rng = random.Random(seed)
        adj = clique_graph(rng) if seed % 3 else random_graph(rng)
        small = small_ids(adj, rng)
        expected = set_based_min_fill(small)
        assert core_min_fill(small) == expected, seed
        largest = max(largest, max(map(len, expected[1]), default=0))
    assert largest >= 30
    for i, masks in enumerate(query_graphs()):
        adj = graph_of(masks)
        assert core_min_fill(adj) == set_based_min_fill(adj), i


def test_min_fill_leaves_its_input_alone():
    masks = {0: 0b110, 1: 0b1, 2: 0b1}
    assert list(min_fill_steps(masks)) == [(1, 0b11), (0, 0b101), (2, 0b100)]
    assert masks == {0: 0b110, 1: 0b1, 2: 0b1}


def test_empty_network_has_no_cliques():
    report = moralize_and_triangulate(Network((), ()))
    assert report.cliques == ()
    assert report.elimination_order == ()
    assert report.total == 0
    assert report.max_clique_size == 0
    assert list(min_fill_steps({})) == []


def test_moral_graph_skips_masked_variables():
    masks = [0b111, 0b1100, 0b10000]  # the scopes (0, 1, 2), (2, 3) and (4,)
    assert graph_of(moral_graph(masks)) == {
        0: {1, 2}, 1: {0, 2}, 2: {0, 1, 3}, 3: {2}, 4: set()
    }
    # variable 1 cleared from every mask is left out; the lone scope (4,)
    # still gives a vertex
    cleared = [mask & ~(1 << 1) for mask in masks]
    assert moral_graph(cleared) == {0: 0b100, 2: 0b1001, 3: 0b100, 4: 0}


def test_plan_labels_colour_every_elimination_clique():
    """On seeded random graphs with random cards, some of them 1, and on
    the whole-network plans of 40-node, 8-task CAT models under both
    methods: the members of each elimination clique with more than one
    state have distinct labels, a one-state vertex has -1, and
    ``colours`` is one past the largest label, which is as few as the
    widest clique allows (Gavril 1972)."""
    plans = []
    for seed in range(200):
        rng = random.Random(seed)
        adj = random_graph(rng)
        masks = [sum(1 << u for u in nbrs) | 1 << v for v, nbrs in adj.items()]
        cards = [rng.choice((1, 2, 2, 3)) for _ in range(max(adj, default=-1) + 1)]
        plans.append((min_fill_plan(masks, cards), cards))
    for seed in (1, 99):
        for method in ("none", "factorize"):
            t = transform_network(session_model(seed)[1], method)
            plans.append((min_fill_plan(t.scope_masks, t.cards), t.cards))
    one_state = 0
    for plan, cards in plans:
        assert len(plan.labels) == len(plan.order)
        label = dict(zip(plan.order, plan.labels))
        widest = 0
        for clique in plan.cliques:
            colours = [x for v, x in label.items() if clique >> v & 1 and cards[v] > 1]
            assert len(set(colours)) == len(colours)
            widest = max(widest, len(colours))
        for v, x in label.items():
            assert (x == -1) == (cards[v] == 1)
            one_state += cards[v] == 1
        assert plan.colours == max(plan.labels, default=-1) + 1 == widest
    assert one_state > 500
