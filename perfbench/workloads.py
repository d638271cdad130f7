"""The benchmark workloads.

Each workload builds a fixed set of operations from ``--seed`` (and
from ``--seconds``, which sets how many instances the set holds), then
runs passes over that set.  ``run(inputs, out, tracer)`` performs one
pass: every operation once, in order, each timed and its output
checked.  A fixed reference computation runs before every operation
and after the last, and each operation's time is read against the
reference times on either side of it (``Outcome``), so that the figures
measure the program rather than the host's speed at the moment.  Calls
into factorbn go through module attributes, so that the tracer's
rebinding of them takes effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from itertools import permutations, product
from pathlib import Path

import numpy as np

from factorbn import benchcat, cli, cliques, factorization, fileio, inference
from factorbn.core import Evidence
from factorbn.errors import FactorbnError
from factorbn.functions import DeterministicFunction
from reference import REF_MS, reference_ms

HERE = Path(__file__).resolve().parent
METHODS = ("none", "factorize")


@dataclass
class Outcome:
    """What the passes over one workload's operation set did.

    Each operation is bracketed by reference runs: ``start`` runs one
    and returns the operation's start time, ``record`` logs the
    operation's wall time, and the next ``start`` (or ``end_pass``)
    supplies the reference after it.  A sample is the wall time divided
    by the mean of the two reference times, times REF_MS; an
    operation's latency is the median of its samples over the passes."""

    samples: dict[int, list[float]] = field(default_factory=dict)  # scaled ms per pass
    wall_ms: dict[int, float] = field(default_factory=dict)  # fastest raw time
    variant: dict[int, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    _ref_before: float = 0.0
    _pending: tuple[int, float, float] | None = None  # (op, wall ms, reference before)

    def _settle(self, ref_after: float) -> None:
        if self._pending is not None:
            op, ms, ref_before = self._pending
            scaled = ms * REF_MS * 2 / (ref_before + ref_after)
            self.samples.setdefault(op, []).append(scaled)
            self._pending = None

    def start(self) -> float:
        """Run the reference before an operation; returns its start time."""
        self._ref_before = reference_ms()
        self._settle(self._ref_before)
        return time.perf_counter()

    def end_pass(self) -> None:
        self._settle(reference_ms())

    def record(self, op: int, variant: str, start: float) -> float:
        """Log operation ``op``, begun at ``start`` and ending now; returns ms."""
        ms = (time.perf_counter() - start) * 1e3
        self.wall_ms[op] = min(ms, self.wall_ms.get(op, ms))
        self.variant[op] = variant
        self._pending = (op, ms, self._ref_before)
        return ms

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def latencies(self, variant: str | None = None) -> list[float]:
        """Each operation's median scaled time over the passes."""
        return [statistics.median(v) for op, v in sorted(self.samples.items())
                if variant is None or self.variant[op] == variant]

    def wall_latencies(self) -> list[float]:
        """Each operation's fastest raw time over the passes."""
        return [ms for _, ms in sorted(self.wall_ms.items())]


def substreams(workload: str, seed: int, n: int) -> list[int]:
    """n derived seeds; the first k are the same for every n >= k."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(n)]


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run_cli(argv)
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# cat-session: the adaptive-testing use case.  Answers arrive one at a
# time; after each, the caller asks for the posterior of one of the
# session's skills, under the untransformed network and under the
# factorized one, and the two must agree.


SESSION_NODES = 40
SESSION_TASKS = 8
SESSION_SKILLS = 6
MEMORY_SESSIONS = 8  # sessions replayed under tracemalloc, which slows them several times


@dataclass(frozen=True)
class Session:
    net: object
    nets: dict  # method -> transformed network
    queries: tuple[tuple[Evidence, int], ...]  # (answers so far, skill asked)


@dataclass(frozen=True)
class SessionInputs:
    sessions: list[Session]
    # (session, query) in the order asked: the sessions' queries are
    # interleaved in a seeded order, as from many test-takers at once, so
    # that a slow stretch of the host spreads over every network.  Each
    # query's evidence is fixed, so the order does not change an answer.
    order: list[tuple[int, int]]


def setup_session(seed: int, count: int, workdir: Path) -> SessionInputs:
    sessions = []
    for s in substreams("cat-session", seed, count):
        spec = benchcat.StudentModelSpec(seed=s, node_count=SESSION_NODES)
        student = benchcat.generate_student_model(spec)
        net = benchcat.connect_tasks(
            student, benchcat.canonical_tasks(spec, SESSION_TASKS, s)
        )
        rng = random.Random(s)
        answer_ids = [v.id for v in net.variables if v.name.endswith("_answer")]
        rng.shuffle(answer_ids)
        skills = rng.sample(spec.skill_ids, SESSION_SKILLS)
        found: dict[int, tuple[int, int]] = {}
        queries = []
        for a in answer_ids:
            found[a] = (0, 1) if rng.random() < 0.5 else (1, 0)
            queries.append((Evidence(dict(found)), rng.choice(skills)))
        nets = {m: inference.transform_network(net, m) for m in METHODS}
        sessions.append(Session(net, nets, tuple(queries)))
    order = [(k, j) for k, sess in enumerate(sessions) for j in range(len(sess.queries))]
    random.Random(f"cat-session:{seed}:order").shuffle(order)
    return SessionInputs(sessions, order)


def run_session(inputs: SessionInputs, out: Outcome, tracer=None) -> None:
    for q, (k, j) in enumerate(inputs.order):
        sess = inputs.sessions[k]
        evidence, skill = sess.queries[j]
        if tracer is not None:
            tracer.group = f"s{k}q{j}"
        posts = {}
        for i, m in enumerate(METHODS):
            op = len(METHODS) * q + i
            out.attempted += 1
            t0 = out.start()
            try:
                if tracer is not None:
                    with tracer.span(f"inference.variable_elimination.{m}"):
                        post = inference.variable_elimination(sess.nets[m], evidence, [skill])
                else:
                    post = inference.variable_elimination(sess.nets[m], evidence, [skill])
            except Exception as e:  # counted, and the run goes on
                out.fail(f"{m} query raised {e!r}")
                continue
            out.record(op, m, t0)
            values = post.values
            if not (np.isfinite(values).all() and abs(values.sum() - 1.0) <= 1e-9):
                out.fail(f"{m} posterior of {skill} is not a distribution")
                continue
            posts[m] = values
        if len(posts) == len(METHODS) and not np.allclose(
            posts["none"], posts["factorize"], rtol=0.0, atol=1e-9
        ):
            out.fail(f"posteriors of {skill} differ between methods")
    out.end_pass()


def session_counters(inputs: SessionInputs) -> dict[str, float]:
    """Clique states per session network (mean), next to the largest
    allocation peak of one elimination, from a tracemalloc replay of
    the first MEMORY_SESSIONS sessions."""
    sessions = inputs.sessions
    counters: dict[str, float] = {}
    for m in METHODS:
        reports = [cliques.moralize_and_triangulate(s.nets[m]) for s in sessions]
        counters[f"cliques.total_states.{m}"] = statistics.mean(r.total for r in reports)
        counters[f"cliques.max_states.{m}"] = statistics.mean(
            r.max_clique_size for r in reports
        )
        peak = 0
        tracemalloc.start()
        try:
            for sess in sessions[:MEMORY_SESSIONS]:
                for evidence, skill in sess.queries:
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    inference.variable_elimination(sess.nets[m], evidence, [skill])
                    peak = max(peak, tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        counters[f"inference.variable_elimination.{m}.peak_bytes"] = peak
    return counters


# ---------------------------------------------------------------------------
# mbh-suite: the minimal-base search on a fixed list of functions under
# many labelings.  Relabeling keeps the minimal base size (a rectangle is
# any subset per dimension) but changes the search order, and with it
# the search's cost: ADD 2x4 checks 17 to 196 subsets depending on its
# labels.  So that a pass's cost does not hang on which labelings the
# seed drew, the search-heavy cases run under every parent order and
# every permutation of their parents' states; the seed picks the child's
# labels, which leave the cost unchanged.  No case has a limit: every
# search runs to the end, so its latency is the cost of the search.


def _add(*x):
    return sum(x)


# name: (parent cardinalities, child cardinality, function, minimal base
# size, labelings).  Labelings: "all" for every parent order and every
# permutation of every parent's states; "states" for the permutations
# only, in a seeded parent order (the search costs the same under every
# order); a number n for n labelings drawn from the seed (the search
# costs the same under every labeling).
MBH_CASES = {
    "add3x3": ((3, 3), 5, _add, 6, "all"),
    "add2x3": ((2, 3), 4, _add, 5, "all"),
    "diff3x3": ((3, 3), 5, lambda a, b: a - b + 2, 6, "all"),
    "maj2x2x2": ((2, 2, 2), 2, lambda *x: int(sum(x) >= 2), 4, "states"),
    "max3x3x3": ((3, 3, 3), 3, lambda *x: max(x), 3, 8),
    "and4": ((2, 2, 2, 2), 2, lambda *x: int(all(x)), 2, 8),
}


@dataclass(frozen=True)
class MbhCase:
    name: str
    fn: DeterministicFunction
    path: Path
    known_min: int


def labelings(cards, child_card: int, how, rng: random.Random):
    """(parent order, state permutation of each parent, child labels)
    for every labeling a case runs under."""
    n = len(cards)
    if isinstance(how, int):
        for _ in range(how):
            yield (rng.sample(range(n), n), [rng.sample(range(c), c) for c in cards],
                   rng.sample(range(child_card), child_card))
        return
    orders = list(permutations(range(n))) if how == "all" else [rng.sample(range(n), n)]
    for order in orders:
        for perms in product(*(permutations(range(c)) for c in cards)):
            yield order, perms, rng.sample(range(child_card), child_card)


def relabel(cards, child_card, f, order, perms, child) -> DeterministicFunction:
    """f with its parents reordered (new position j holds old parent
    order[j]) and the states of every parent and of the child permuted."""
    n = len(cards)
    inverse = [{new: old for old, new in enumerate(p)} for p in perms]

    def g(*xs):
        old = [0] * n
        for j, x in enumerate(xs):
            old[order[j]] = inverse[order[j]][x]
        return child[f(*old)]

    new_cards = tuple(cards[i] for i in order)
    return DeterministicFunction.from_callable(range(n), n, new_cards, child_card, g)


def setup_mbh(seed: int, count: int, workdir: Path) -> list[MbhCase]:
    """The case list; ``count`` is unused, as the list covers the labelings."""
    rng = random.Random(f"mbh-suite:{seed}")
    cases = []
    for name, (cards, child_card, f, known, how) in MBH_CASES.items():
        for i, labels in enumerate(labelings(cards, child_card, how, rng)):
            fn = relabel(cards, child_card, f, *labels)
            path = workdir / f"{name}-{i:03d}.json"
            path.write_text(fileio.write_function(fn))
            cases.append(MbhCase(name, fn, path, known))
    # Mixed, so that a slow stretch of the host spreads over every case.
    rng.shuffle(cases)
    return cases


STAT = re.compile(r"(\w+)=(\S+)")


def _check_base(case: MbhCase, rc: int, text: str) -> tuple[str | None, dict]:
    doc = json.loads(text)
    base = fileio.parse_base(text)
    size = base.size
    if not factorization.verify_factorization(
        case.fn, factorization.build_factorized_form(case.fn, base)
    ):
        return "returned base fails verification", doc
    if size < len(factorization.level_sets(case.fn)):
        return f"base of {size} is below the level-set bound", doc
    if doc["proved_minimal"] and size != case.known_min:
        return f"proved base of {size}, known minimum {case.known_min}", doc
    if rc == 0 and not doc["proved_minimal"]:
        return "exit 0 without a proof of minimality", doc
    return None, doc


def run_mbh(cases: list[MbhCase], out: Outcome, tracer=None) -> None:
    for op, case in enumerate(cases):
        if tracer is not None:
            tracer.group = f"case{op}"
        target = case.path.with_suffix(".base")
        argv = ["mbh", "--function", str(case.path), "--out", str(target)]
        out.attempted += 1
        t0 = out.start()
        try:
            rc, _, err = call_cli(argv)
        except Exception as e:
            out.fail(f"mbh {case.name} raised {e!r}")
            continue
        out.record(op, "case", t0)
        if rc not in (0, 3):  # 3: a search budget cut the search; the base is still emitted
            out.fail(f"mbh {case.name} exited {rc}")
            continue
        try:
            problem, doc = _check_base(case, rc, target.read_text())
            stats = dict(STAT.findall(err.splitlines()[0]))
        except (OSError, ValueError, KeyError, IndexError, FactorbnError) as e:
            problem = f"unreadable output: {e!r}"
        if problem:
            out.fail(f"mbh {case.name}: {problem}")
            continue
        out.add("mbh.cases", 1)
        out.add("mbh.proved", int(doc["proved_minimal"]))
        out.add("mbh.hidden_states", int(stats["rectangles"]))
        out.add("mbh.subsets_checked", int(stats["checked"]))
        out.add("mbh.nodes_expanded", int(stats["nodes"]))
        out.add("mbh.pruned", int(stats["pruned"]))
        out.add("mbh.rectangles_enumerated", int(stats["enumerated"]))
        out.add("mbh.search_s", float(stats["seconds"]))
    out.end_pass()


@dataclass(frozen=True)
class Workload:
    setup: object  # (seed, instance count, workdir) -> inputs
    run: object  # (inputs, outcome, tracer) -> None: one pass
    # Instances per second of --seconds, so that a pass takes a fifth to
    # a seventh of it; 0 for a set that does not grow with --seconds.
    per_second: float
    counters: object = None  # inputs -> layer counters, computed outside the spans


WORKLOADS = {
    "cat-session": Workload(setup_session, run_session, 0.6, session_counters),
    "mbh-suite": Workload(setup_mbh, run_mbh, 0.0),
}

# Spans the traced run records: (module, function, span name, label of
# the call).
TRACED = [
    ("factorbn.cli", "run_cli", "cli.run_cli", None),
    ("factorbn.benchcat", "generate_student_model", "benchcat.generate_student_model",
     None),
    ("factorbn.benchcat", "connect_tasks", "benchcat.connect_tasks", None),
    ("factorbn.inference", "transform_network", "inference.transform_network",
     lambda args, kwargs: args[1] if len(args) > 1 else kwargs["method"]),
    ("factorbn.mbh", "solve_mbh", "mbh.solve_mbh", None),
    ("factorbn.mbh", "greedy_cover_base", "mbh.greedy_cover_base", None),
    ("factorbn.factorization", "build_factorized_form",
     "factorization.build_factorized_form", None),
    ("factorbn.factorization", "verify_factorization",
     "factorization.verify_factorization", None),
    ("factorbn.fileio", "parse_function", "fileio.parse_function", None),
    ("factorbn.fileio", "write_base", "fileio.write_base", None),
]

SPAN_NAMES = [
    "cli.run_cli",
    "benchcat.generate_student_model",
    "benchcat.connect_tasks",
    "inference.variable_elimination.none",
    "inference.variable_elimination.factorize",
    "inference.transform_network.none",
    "inference.transform_network.factorize",
    "mbh.solve_mbh",
    "mbh.greedy_cover_base",
    "factorization.build_factorized_form",
    "factorization.verify_factorization",
    "fileio.parse_function",
    "fileio.write_base",
]
