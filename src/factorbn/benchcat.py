"""Clique-size benchmark on a synthetic adaptive-testing model.

A seeded student model (binary skill/misconception nodes in a sparse
DAG) is extended with conjunction-shaped evidence tasks: each task has
a latent correct-performance node (an AND of required skills and the
absence of one misconception) and a noisy observed answer.  The
benchmark connects the first r tasks of an ordering, triangulates, and
records the total clique size per transformation method.  Results are
averaged over task orderings; the triangulation is canonical in the
connected task set, so totals are cached per (set, method).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .cliques import moralize_and_triangulate
from .core import Factor, Variable
from .errors import ValidationError
from .functions import DeterministicFunction
from .inference import METHODS, transform_network
from .network import Cpt, Network

CPT_RANGE = (0.05, 0.95)  # each student CPT row draws P(yes) uniformly from here
GUESS, SLIP = 0.2, 0.1  # P(right | no performance), P(wrong | performance)


@dataclass(frozen=True)
class StudentModelSpec:
    """Seeded shape of the student model: binary nodes in a tree-like
    DAG with in-degree at most 3, CPT rows drawn uniformly from
    ``CPT_RANGE``."""

    seed: int
    node_count: int = 21

    def __post_init__(self):
        if self.node_count < 2:
            raise ValidationError("node_count must be at least 2")

    @property
    def misconception_count(self) -> int:
        return max(1, self.node_count // 4)

    @property
    def skill_ids(self) -> tuple[int, ...]:
        return tuple(range(self.node_count - self.misconception_count))

    @property
    def misconception_ids(self) -> tuple[int, ...]:
        return tuple(range(self.node_count - self.misconception_count, self.node_count))


@dataclass(frozen=True)
class TaskSpec:
    """One evidence task: the skills it requires and at most one
    misconception that defeats it.  The observed answer is noisy by
    ``GUESS`` and ``SLIP``."""

    required_skills: tuple[int, ...]
    misconception: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "required_skills", tuple(self.required_skills))
        if not self.required_skills:
            raise ValidationError("a task needs at least one required skill")
        if len(set(self.required_skills)) != len(self.required_skills):
            raise ValidationError("duplicate required skills")
        if self.misconception in self.required_skills:
            raise ValidationError("the misconception cannot also be a required skill")

    @property
    def parent_ids(self) -> tuple[int, ...]:
        extra = () if self.misconception is None else (self.misconception,)
        return self.required_skills + extra

    @property
    def required_states(self) -> tuple[int, ...]:
        extra = () if self.misconception is None else (0,)
        return tuple(1 for _ in self.required_skills) + extra


def generate_student_model(spec: StudentModelSpec) -> Network:
    """Deterministically sample the student model from the spec's seed."""
    rng = random.Random(spec.seed)
    n = spec.node_count
    n_mis = spec.misconception_count
    width = len(str(n))
    variables = []
    for i in range(n):
        if i < n - n_mis:
            name = f"skill_{i + 1:0{width}d}"
        else:
            name = f"misc_{i + 1:0{width}d}"
        variables.append(Variable(i, name, ("no", "yes")))

    in_degree_choices = [1] * 6 + [2] * 3 + [3]
    cpts = []
    for i in range(n):
        if i == 0:
            parents: tuple[int, ...] = ()
        else:
            want = min(i, rng.choice(in_degree_choices))
            parents = tuple(sorted(rng.sample(range(i), want)))
        family = parents + (i,)
        shape = tuple([2] * len(family))
        table = np.empty(shape, dtype=np.float64)
        for cfg in np.ndindex(shape[:-1]):
            p = rng.uniform(*CPT_RANGE)
            table[cfg + (0,)] = 1.0 - p
            table[cfg + (1,)] = p
        cpts.append(Cpt(i, parents, Factor(family, shape, table)))
    return Network(tuple(variables), tuple(cpts))


def canonical_tasks(spec: StudentModelSpec, count: int, seed: int) -> list[TaskSpec]:
    """Sample task footprints over the student model: 3 to 5 required
    skills and one misconception each, deterministic in the seed."""
    rng = random.Random(seed)
    tasks = []
    for _ in range(count):
        k = rng.randint(3, 5)
        skills = tuple(sorted(rng.sample(spec.skill_ids, k)))
        mis = rng.choice(spec.misconception_ids)
        tasks.append(TaskSpec(skills, mis))
    return tasks


def connect_tasks(student: Network, tasks: list[TaskSpec]) -> Network:
    """Attach to the student model, for task j (from 1), a latent
    performance node ``task<j>_perf`` (the conjunction of the task's
    parent literals) and the noisy observed answer ``task<j>_answer``
    hanging off it.  The network's validation rejects a task parent
    that is unknown or not binary."""
    variables = list(student.variables)
    dets = list(student.deterministic)
    cpts = list(student.cpts)
    for j, task in enumerate(tasks, 1):
        parents = task.parent_ids
        outputs = tuple(
            int(cfg == task.required_states) for cfg in np.ndindex((2,) * len(parents))
        )
        y_id = len(variables)
        variables.append(Variable(y_id, f"task{j}_perf", ("no", "yes")))
        dets.append(DeterministicFunction(parents, y_id, (2,) * len(parents), 2, outputs))
        t_id = len(variables)
        variables.append(Variable(t_id, f"task{j}_answer", ("wrong", "right")))
        answer = [[1.0 - GUESS, GUESS], [SLIP, 1.0 - SLIP]]
        cpts.append(Cpt(t_id, (y_id,), Factor((y_id, t_id), (2, 2), np.array(answer))))
    return Network(tuple(variables), tuple(cpts), tuple(dets), student.potentials)


# ---------------------------------------------------------------------------
# The benchmark runner.


@dataclass(frozen=True)
class BenchRow:
    method: str
    r: int
    avg_total_clique_size: float
    min_total_clique_size: int
    max_total_clique_size: int


@dataclass(frozen=True)
class BenchmarkReport:
    orderings_used: int
    rows: tuple[BenchRow, ...]
    runtime_seconds: float

    def row(self, method: str, r: int) -> BenchRow:
        for row in self.rows:
            if row.method == method and row.r == r:
                return row
        raise KeyError((method, r))

    def ratio(self, r: int) -> float:
        """Average total clique size under ``none`` over ``factorize``."""
        return (
            self.row("none", r).avg_total_clique_size
            / self.row("factorize", r).avg_total_clique_size
        )


def run_clique_benchmark(
    student: Network,
    tasks: list[TaskSpec],
    orderings: str | int = "all",
    seed: int = 0,
) -> BenchmarkReport:
    """Average total clique size over task-connection orderings.

    For every ordering of the task list and every prefix length r from
    0 (the bare student model) to the task count, the first r tasks are
    connected (in canonical index order, so the result depends only on
    the prefix set), transformed by each method, and triangulated.
    ``orderings`` is ``"all"`` (requires at most 8 tasks) or an int:
    that many orderings sampled with the given seed.  Runtime is
    reported on the side and never serialized.
    """
    t0 = time.monotonic()
    k = len(tasks)
    if k == 0:
        raise ValidationError("the benchmark needs at least one task")
    if orderings == "all":
        if k > 8:
            raise ValidationError(
                "orderings='all' supports at most 8 tasks; sample instead"
            )
        perms = list(permutations(range(k)))
    else:
        count = int(orderings)
        if count < 1:
            raise ValidationError("ordering sample count must be positive")
        rng = random.Random(seed)
        perms = [tuple(rng.sample(range(k), k)) for _ in range(count)]

    cache: dict[tuple[frozenset, str], int] = {}

    def total_for(subset: frozenset, method: str) -> int:
        key = (subset, method)
        if key not in cache:
            net = connect_tasks(student, [tasks[i] for i in sorted(subset)])
            cache[key] = moralize_and_triangulate(transform_network(net, method)).total
        return cache[key]

    rows = []
    for method in METHODS:
        for r in range(0, k + 1):
            totals = [total_for(frozenset(p[:r]), method) for p in perms]
            rows.append(
                BenchRow(
                    method,
                    r,
                    sum(totals) / len(totals),
                    min(totals),
                    max(totals),
                )
            )
    return BenchmarkReport(len(perms), tuple(rows), time.monotonic() - t0)


def report_to_csv(report: BenchmarkReport) -> str:
    """CSV rows per (method, r); runtime intentionally left out."""
    lines = ["method,r,avg_total_clique_size,min,max"]
    for row in report.rows:
        lines.append(
            f"{row.method},{row.r},{row.avg_total_clique_size},"
            f"{row.min_total_clique_size},{row.max_total_clique_size}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# A small closed family where the clique savings are exact.


def star_family(blocks: int, block_parents: int = 4) -> Network:
    """Networks of r conjunction blocks sharing one root.

    Each block has block_parents - 1 private binary parents plus the
    shared root, feeding a deterministic AND.  A child of the root is
    kept outside the blocks so the root always sits in one small
    non-subsumed clique.  Untransformed, every block moralizes into one
    clique of 2 ** (block_parents + 1) states; factorized with the
    2-rectangle conjunction base, the largest clique has 4 states.
    """
    if blocks < 1:
        raise ValidationError("need at least one block")
    if block_parents < 2:
        raise ValidationError("need at least two parents per block")
    variables = [Variable(0, "root", ("no", "yes")), Variable(1, "root_child", ("no", "yes"))]
    cpts = [
        Cpt(0, (), Factor((0,), (2,), np.array([0.5, 0.5]))),
        Cpt(1, (0,), Factor((0, 1), (2, 2), np.array([[0.7, 0.3], [0.2, 0.8]]))),
    ]
    dets = []
    priv = block_parents - 1
    for j in range(blocks):
        ids = []
        for i in range(priv):
            vid = len(variables)
            variables.append(Variable(vid, f"x{j + 1}_{i + 1}", ("no", "yes")))
            cpts.append(Cpt(vid, (), Factor((vid,), (2,), np.array([0.5, 0.5]))))
            ids.append(vid)
        y_id = len(variables)
        variables.append(Variable(y_id, f"y{j + 1}", ("no", "yes")))
        parents = tuple(ids) + (0,)
        outputs = [
            1 if all(x == 1 for x in cfg) else 0
            for cfg in np.ndindex(*(2,) * len(parents))
        ]
        dets.append(
            DeterministicFunction(parents, y_id, (2,) * len(parents), 2, tuple(outputs))
        )
    return Network(tuple(variables), tuple(cpts), tuple(dets))
