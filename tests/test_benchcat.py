"""The seeded student/task benchmark and its clique-size report.

Core claims:
    - model generation is a pure function of the seed
    - tasks validate their footprint and splice in as one latent
      conjunction node plus one noisy answer node each
    - all three methods agree on every posterior; they differ only in
      triangulation cost
    - on the canonical run (seed 2, four tasks, every ordering) the
      average totals are frozen numbers, factorize < divorce < none for
      every r >= 1, and the none/factorize ratio grows with r
    - the CSV report is byte-stable across reruns
    - each row is the average over orderings, taken as an average over
      prefix task sets, with each distinct set connected once
"""

import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from factorbn import (
    Evidence,
    ValidationError,
    variable_elimination,
)
from factorbn.benchcat import (
    StudentModelSpec,
    TaskSpec,
    canonical_tasks,
    connect_tasks,
    generate_student_model,
    report_to_csv,
    run_clique_benchmark,
    star_family,
)
from factorbn.cliques import moralize_and_triangulate
from factorbn.inference import transform_network


def canonical_run():
    spec = StudentModelSpec(seed=2)
    student = generate_student_model(spec)
    tasks = canonical_tasks(spec, 4, 2)
    return run_clique_benchmark(student, tasks, orderings="all", seed=2)


# -- the generated student model ---------------------------------------------


def test_model_is_deterministic_in_the_seed():
    spec = StudentModelSpec(seed=7)
    assert generate_student_model(spec) == generate_student_model(spec)
    assert generate_student_model(spec) != generate_student_model(
        StudentModelSpec(seed=8)
    )


def test_model_shape_and_cpt_ranges():
    for seed in range(6):
        net = generate_student_model(StudentModelSpec(seed=seed))
        assert len(net.variables) == 21
        assert all(v.card == 2 for v in net.variables)
        seen = set()
        for c in net.cpts:
            assert len(c.parents) <= 3
            assert all(p < c.child for p in c.parents)  # acyclic by construction
            if c.child > 0:
                assert c.parents  # every non-root hangs off an earlier node
            rows = c.factor.values.reshape(-1, 2)
            assert np.allclose(rows.sum(axis=1), 1.0)
            assert (rows[:, 1] >= 0.05).all() and (rows[:, 1] <= 0.95).all()
            seen.add(c.child)
        assert seen == set(range(21))


def test_misconception_split():
    spec = StudentModelSpec(seed=0)
    assert spec.misconception_count == 5
    assert spec.skill_ids == tuple(range(16))
    assert spec.misconception_ids == (16, 17, 18, 19, 20)
    net = generate_student_model(spec)
    assert net.variables[15].name.startswith("skill_")
    assert net.variables[16].name.startswith("misc_")


def test_spec_validation():
    with pytest.raises(ValidationError):
        StudentModelSpec(seed=0, node_count=1)


# -- tasks and their fragments -----------------------------------------------


def test_task_validation():
    with pytest.raises(ValidationError):
        TaskSpec(())
    with pytest.raises(ValidationError):
        TaskSpec((1, 1, 2))
    with pytest.raises(ValidationError):
        TaskSpec((1, 2), misconception=2)


def test_fragment_outputs_are_a_conjunction_with_negated_misconception():
    student = generate_student_model(StudentModelSpec(seed=2))
    net = connect_tasks(student, [TaskSpec((3, 5), misconception=17)])
    n = len(student.variables)
    assert [v.name for v in net.variables[n:]] == ["task1_perf", "task1_answer"]
    (perf,) = net.deterministic
    assert (perf.parents, perf.child) == ((3, 5, 17), n)
    # fires only on skills yes, yes and misconception no
    want = [int(cfg == (1, 1, 0)) for cfg in np.ndindex(2, 2, 2)]
    assert perf.outputs.ravel().tolist() == want
    answer = net.cpts[-1]
    assert (answer.child, answer.parents) == (n + 1, (n,))
    assert np.array_equal(answer.factor.values, [[0.8, 0.2], [0.1, 0.9]])


def test_fragment_validation():
    student = generate_student_model(StudentModelSpec(seed=2))
    with pytest.raises(ValidationError, match="unknown variable id 99"):
        connect_tasks(student, [TaskSpec((3, 99))])


def test_canonical_tasks_are_frozen_for_seed_2():
    spec = StudentModelSpec(seed=2)
    tasks = canonical_tasks(spec, 4, 2)
    assert [(t.required_skills, t.misconception) for t in tasks] == [
        ((1, 2, 5), 17),
        ((3, 4, 9, 13, 15), 16),
        ((5, 6, 10, 11, 14), 20),
        ((0, 4, 8, 14), 16),
    ]


def test_connect_tasks_appends_two_nodes_per_task():
    spec = StudentModelSpec(seed=2)
    student = generate_student_model(spec)
    tasks = canonical_tasks(spec, 3, 2)
    net = connect_tasks(student, tasks)
    assert len(net.variables) == 21 + 6
    assert len(net.deterministic) == 3
    names = [v.name for v in net.variables[21:]]
    assert names == [
        "task1_perf", "task1_answer",
        "task2_perf", "task2_answer",
        "task3_perf", "task3_answer",
    ]


# -- methods agree on posteriors ----------------------------------------------


def test_methods_agree_on_posteriors_under_random_evidence():
    spec = StudentModelSpec(seed=2)
    student = generate_student_model(spec)
    tasks = canonical_tasks(spec, 2, 2)
    net = connect_tasks(student, tasks)
    answer_ids = [v.id for v in net.variables if v.name.endswith("_answer")]
    nets = {m: transform_network(net, m) for m in ("none", "divorce", "factorize")}
    rng = random.Random(5)
    for _ in range(10):
        ev = Evidence({a: rng.choice([(1, 0), (0, 1)]) for a in answer_ids})
        for q in rng.sample(range(21), 3):
            ps = {
                m: variable_elimination(t, ev, [q]).values
                for m, t in nets.items()
            }
            assert np.abs(ps["none"] - ps["divorce"]).max() < 1e-9
            assert np.abs(ps["none"] - ps["factorize"]).max() < 1e-9


# -- the benchmark report ------------------------------------------------------


def test_canonical_averages_are_frozen():
    report = canonical_run()
    assert report.orderings_used == 24
    avg = {
        (m, r): report.row(m, r).avg_total_clique_size
        for m in ("none", "divorce", "factorize")
        for r in range(5)
    }
    assert [avg[("none", r)] for r in range(5)] == [172, 374, 658, 1254, 2392]
    assert [avg[("divorce", r)] for r in range(5)] == pytest.approx(
        [172, 352, 639.3333333333334, 1212, 2248]
    )
    assert [avg[("factorize", r)] for r in range(5)] == [172, 256, 378, 540, 744]


def test_row_of_an_unmeasured_pair_raises_key_error():
    with pytest.raises(KeyError) as raised:
        canonical_run().row("none", 99)
    assert raised.value.args == (("none", 99),)


def test_zero_tasks_row_is_method_independent():
    report = canonical_run()
    totals = {m: report.row(m, 0) for m in ("none", "divorce", "factorize")}
    for row in totals.values():
        assert row.avg_total_clique_size == 172
        assert row.min_total_clique_size == row.max_total_clique_size == 172


def test_ordering_of_methods_at_every_r():
    report = canonical_run()
    for r in range(1, 5):
        f = report.row("factorize", r).avg_total_clique_size
        d = report.row("divorce", r).avg_total_clique_size
        n = report.row("none", r).avg_total_clique_size
        assert f < d < n


def test_ratio_table_is_nondecreasing():
    report = canonical_run()
    values = [report.ratio(r) for r in range(5)]
    assert values[0] == 1.0
    assert values == sorted(values)
    assert values[4] == pytest.approx(2392 / 744)


def test_min_max_bracket_the_average():
    report = canonical_run()
    for row in report.rows:
        assert row.min_total_clique_size <= row.avg_total_clique_size
        assert row.avg_total_clique_size <= row.max_total_clique_size


def test_full_prefix_is_ordering_independent():
    report = canonical_run()
    for m in ("none", "divorce", "factorize"):
        row = report.row(m, 4)
        assert row.min_total_clique_size == row.max_total_clique_size


def test_csv_report_is_byte_stable():
    a = report_to_csv(canonical_run())
    b = report_to_csv(canonical_run())
    assert a == b
    lines = a.strip().split("\n")
    assert lines[0] == "method,r,avg_total_clique_size,min,max"
    assert len(lines) == 1 + 3 * 5
    assert "runtime" not in a


def test_sampled_orderings_and_limits():
    spec = StudentModelSpec(seed=2)
    student = generate_student_model(spec)
    tasks = canonical_tasks(spec, 3, 2)
    report = run_clique_benchmark(student, tasks, orderings=5, seed=1)
    assert report.orderings_used == 5
    again = run_clique_benchmark(student, tasks, orderings=5, seed=1)
    assert report.rows == again.rows
    with pytest.raises(ValidationError):
        run_clique_benchmark(student, tasks, orderings=0)
    with pytest.raises(ValidationError):
        run_clique_benchmark(student, [], orderings="all")
    many = canonical_tasks(spec, 9, 2)
    with pytest.raises(ValidationError):
        run_clique_benchmark(student, many, orderings="all")


# -- the closed star family ----------------------------------------------------


def test_star_family_max_clique_ratio_is_exact():
    for r in range(1, 5):
        plain = star_family(r)
        total_none = moralize_and_triangulate(plain).total
        fact = transform_network(plain, "factorize")
        total_fact = moralize_and_triangulate(fact).total
        report_none = moralize_and_triangulate(plain)
        report_fact = moralize_and_triangulate(fact)
        assert report_none.max_clique_size == 32
        assert report_fact.max_clique_size == 4
        assert total_none == 36 + 32 * (r - 1)
        assert total_fact == 24 + 20 * (r - 1)


# -- the weighted average against the walk over orderings ----------------------


def walked_rows(student, tasks, perms):
    """Rows by brute force: connect the sorted r-prefix of every ordering
    afresh, and average over the orderings."""
    rows = []
    for method in ("none", "divorce", "factorize"):
        for r in range(len(tasks) + 1):
            totals = [
                moralize_and_triangulate(transform_network(
                    connect_tasks(student, [tasks[i] for i in sorted(p[:r])]), method
                )).total
                for p in perms
            ]
            rows.append((method, r, sum(totals) / len(totals), min(totals), max(totals)))
    return rows


@pytest.mark.parametrize("k, orderings", [(4, "all"), (5, 30)], ids=["all", "sample"])
def test_rows_equal_the_walk_over_explicit_orderings(k, orderings):
    spec = StudentModelSpec(seed=3)
    student = generate_student_model(spec)
    tasks = canonical_tasks(spec, k, 3)
    if orderings == "all":
        perms = list(permutations(range(k)))
    else:  # the orderings the benchmark samples from its seed
        rng = random.Random(5)
        perms = [rng.sample(range(k), k) for _ in range(orderings)]
    report = run_clique_benchmark(student, tasks, orderings=orderings, seed=5)
    assert report.orderings_used == len(perms)
    got = [
        (row.method, row.r, row.avg_total_clique_size, row.min_total_clique_size,
         row.max_total_clique_size)
        for row in report.rows
    ]
    assert got == walked_rows(student, tasks, perms)  # the same floats, bit for bit


@pytest.mark.parametrize("orderings", ["all", 40])
def test_each_prefix_set_is_connected_once(monkeypatch, orderings):
    spec = StudentModelSpec(seed=1)
    student = generate_student_model(spec)
    tasks = canonical_tasks(spec, 5, 1)
    connected = []

    def counted(student, subset):
        connected.append(tuple(subset))
        return connect_tasks(student, subset)

    monkeypatch.setattr("factorbn.benchcat.connect_tasks", counted)
    report = run_clique_benchmark(student, tasks, orderings=orderings, seed=1)
    assert len(connected) == len(set(connected))
    if orderings == "all":
        assert len(connected) == 2 ** 5 and report.orderings_used == 120
    else:
        rng = random.Random(1)
        perms = [rng.sample(range(5), 5) for _ in range(40)]
        prefixes = {frozenset(p[:r]) for p in perms for r in range(6)}
        assert len(connected) == len(prefixes)
        # r ascending, each r's prefix sets in the order the draws first meet them
        assert connected == [
            tuple(tasks[i] for i in subset)
            for r in range(6)
            for subset in dict.fromkeys(tuple(sorted(p[:r])) for p in perms)
        ]


def test_sampled_orderings_are_counted_not_stored():
    # three tasks have six orderings: 30 000 draws keep six counts, where
    # a list of every draw peaked at 2.8 MB
    spec = StudentModelSpec(seed=1)
    student = generate_student_model(spec)
    tasks = canonical_tasks(spec, 3, 1)
    tracemalloc.start()
    try:
        report = run_clique_benchmark(student, tasks, orderings=30_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.orderings_used == 30_000
    assert peak < 1 << 20
