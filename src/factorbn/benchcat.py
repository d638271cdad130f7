"""Clique-size benchmark on a synthetic adaptive-testing model.

A seeded student model (binary skill/misconception nodes in a sparse
DAG) is extended with conjunction-shaped evidence tasks: each task has
a latent correct-performance node (an AND of required skills and the
absence of one misconception) and a noisy observed answer.  The
benchmark connects the first r tasks of an ordering, triangulates, and
records the total clique size per transformation method.  The
triangulation is canonical in the connected task set, so the average
over orderings is one over prefix task sets, each connected once.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import factorial

import numpy as np

from .cliques import moralize_and_triangulate
from .core import Factor, Variable, _int_tuple
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
        object.__setattr__(self, "node_count", *_int_tuple([self.node_count], "node_count"))
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
        object.__setattr__(self, "required_skills", _int_tuple(self.required_skills, "skill"))
        if (m := self.misconception) is not None:
            object.__setattr__(self, "misconception", *_int_tuple([m], "misconception"))
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
        if k > len(spec.skill_ids):
            raise ValidationError(f"a task needs {k} skills; the model has {len(spec.skill_ids)}")
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


def _check_task_count(k: int, orderings: str | int) -> None:
    """The benchmark's limits, checked before any task is drawn."""
    if k < 1:
        raise ValidationError("the benchmark needs at least one task")
    if orderings == "all" and k > 8:
        raise ValidationError("orderings='all' supports at most 8 tasks; sample instead")
    if orderings != "all" and not isinstance(orderings, int):
        raise ValidationError(f"orderings must be 'all' or an int, got {orderings!r}")
    if orderings != "all" and orderings < 1:
        raise ValidationError("ordering sample count must be positive")


def run_clique_benchmark(
    student: Network,
    tasks: list[TaskSpec],
    orderings: str | int = "all",
    seed: int = 0,
) -> BenchmarkReport:
    """Average total clique size over task-connection orderings.

    For each prefix length r from 0 (the bare student model) to the
    task count, the first r tasks of an ordering are connected in index
    order, so a total depends only on the prefix set.  The average is
    taken over prefix sets weighted as the orderings weight them, and
    each distinct set is connected once.  ``orderings`` is ``"all"`` (at
    most 8 tasks; each r-subset prefixes r!(k-r)! of the k! orderings)
    or an int: that many orderings sampled with the given seed.  Runtime
    is reported on the side and never serialized.
    """
    t0 = time.monotonic()
    k = len(tasks)
    _check_task_count(k, orderings)
    if orderings == "all":
        used = factorial(k)
        weights = [
            dict.fromkeys(combinations(range(k), r), factorial(r) * factorial(k - r))
            for r in range(k + 1)
        ]
    else:
        used = orderings
        rng = random.Random(seed)
        # each distinct ordering is kept once, with its count: memory
        # grows with the distinct orderings drawn, at most k!, not with M
        perms = Counter(tuple(rng.sample(range(k), k)) for _ in range(used))
        weights = [Counter() for _ in range(k + 1)]
        for p, count in perms.items():
            for r, prefixes in enumerate(weights):
                prefixes[tuple(sorted(p[:r]))] += count

    rows = []
    for r, prefixes in enumerate(weights):
        nets = [connect_tasks(student, [tasks[i] for i in subset]) for subset in prefixes]
        for method in METHODS:
            sizes = [moralize_and_triangulate(transform_network(n, method)).total for n in nets]
            total = sum(size * count for size, count in zip(sizes, prefixes.values()))
            rows.append(BenchRow(method, r, total / used, min(sizes), max(sizes)))
    rows.sort(key=lambda row: METHODS.index(row.method))  # stable: r ascending per method
    return BenchmarkReport(used, tuple(rows), time.monotonic() - t0)


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
            DeterministicFunction(parents, y_id, (2,) * len(parents), 2, outputs)
        )
    return Network(tuple(variables), tuple(cpts), tuple(dets))
