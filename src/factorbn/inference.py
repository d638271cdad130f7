"""Exact inference by variable elimination, plus the two structural
transformations that shrink deterministic families: replacing a
deterministic node by its hidden-variable factorization, and parent
divorcing through a balanced tree of intermediates.  Both run in one
pass of :func:`transform_network`.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from .core import Evidence, Factor, Variable
from .cliques import min_fill_plan
from .errors import InternalConsistencyError, ValidationError, ZeroNormalizerError
from .factorization import (
    build_factorized_form,
    known_base_conjunction,
    known_base_max,
)
from .functions import DeterministicFunction, kind_of
from .mbh import greedy_cover_base
from .network import Layout, Network, Star, fresh_name

NEGATIVE_TOLERANCE = 1e-9
MAX_OPERANDS = 31  # einsum operands that every supported numpy takes; _compile folds more
# most labels per einsum (each below 52): numpy's axes per array, 32 before numpy 2.0, 64 since
MAX_AXES = 32 if int(np.__version__.split(".")[0]) < 2 else 64
# _compile makes a bucket of three tables or more over at least this many
# variables (so 2^12 entries or more) a left fold of two-operand einsums:
# numpy's loop over three operands or more costs 12-25 ns per entry.  On
# 40-node, 8-task CAT buckets the fold was faster from 12 variables up
# (2^12 entries 54 -> 39 us, 2^13 105 -> 71 us) and slower below 11
# (CPython 3.11, numpy 2.4, 2-core VM).
FOLD_VARS = 12

# A table a query eliminates: (rank mask, axis ranks, labels or None, values, lowest rank or -1)
Table = tuple[int, Sequence[int], Sequence[int] | None, np.ndarray, int]
Step = tuple[list, int]  # one einsum of a query's program: see _compile

METHODS = ("none", "divorce", "factorize")  # the rewrites of transform_network


def _reduce(net: Network, evidence: Evidence, queryset: set[int], layout: Layout) -> list[Table]:
    """The tables a query eliminates, in the slot order of its program
    (:func:`_compile`): a likelihood table for each finding that rules a
    state out and is not a pick, then every table of ``layout`` that the
    barren rule keeps, with the picked variables indexed out.  A pick is
    a one-state finding, or a one-state variable, off the query.  A
    table keeps its stored entry; a sliced or new one has no labels.

    The barren rule (Zhang & Poole 1996) keeps the free potentials and
    the families whose child is an ancestor of a query variable, an
    observed one or a variable of a free potential (an OR of ancestor
    masks).  Any other CPT, deterministic or factorized family sums
    to 1 over its child once its descendants are summed out; a star
    does because its form reconstructs the deterministic family.

    Raises ValidationError for a finding on an unknown variable, of the
    wrong length or with an entry other than 0 and 1, and
    ZeroNormalizerError for one that rules out every state."""
    cards, rank = net.cards, layout.rank
    # a one-state variable off the query is a pick of its one state; a
    # finding on it allows that state, so the loop below never sets it
    picks = {rank[v]: 0 for v in net._one_state if v not in queryset}
    tables: list = []
    for var, vec in evidence.findings.items():
        if not 0 <= var < len(cards):
            raise ValidationError(f"evidence names unknown variable id {var}")
        if len(vec) != cards[var]:
            raise ValidationError(
                f"evidence vector for {net.variables[var].name!r} has length {len(vec)}, "
                f"expected {cards[var]}"
            )
        ones = vec.count(1)
        if ones + vec.count(0) != len(vec):
            raise ValidationError(f"evidence vector for {net.variables[var].name!r} must be 0/1")
        if not ones:
            raise ZeroNormalizerError("evidence has zero probability under the model")
        if ones == len(vec):
            continue
        i = rank[var]
        if ones == 1 and var not in queryset:
            picks[i] = vec.index(1)
        else:
            tables.append((1 << i, (i,), None, np.asarray(vec, dtype=np.float64), i))
    picked = sum(1 << i for i in picks)

    ancestors, relevant = net.ancestor_masks, net._potential_ancestors
    for v in (*queryset, *evidence.findings):
        relevant |= ancestors[v]
    for head, table in zip(layout.heads, layout.tables):
        if head is None or relevant >> head & 1:
            if table[0] & picked:
                mask, ranks, _, values, _ = table
                values = values[tuple([picks.get(i, slice(None)) for i in ranks])]
                ranks = [i for i in ranks if i not in picks]
                table = (mask & ~picked, ranks, None, values, ranks[0] if ranks else -1)
            tables.append(table)
    return tables


def _compile(kept: list[Table], skip: int, label: Sequence[int], out: list[int]) -> list[Step]:
    """The program of a query, decided before any array is touched: bucket
    elimination of each rank of the ``kept`` tables outside the bitmask
    ``skip``, lowest first, then the product of the rest into ``out``, the
    labels of ``skip`` in query order.  ``label`` gives each rank's label; a
    table without labels, or holding a rank in ``skip``, is labelled here.
    Each step is one einsum, ``(args, ranks)``: ``np.einsum``'s args with a
    slot for each operand's values, and the result's rank mask.  Slots below
    ``len(kept)`` hold the kept tables, the next ones each step's result; each
    is read once, and the last holds the answer.

    A bucket is an operand list ``[slot, labels, ...]`` with the union of its
    masks.  A table, or a step's result over the rest of its union in rank
    order, waits in the bucket of its lowest rank outside ``skip`` (the last
    bucket if none), so a rank whose bucket is empty when it is reached is
    held by no table.  A bucket of one table also sums out each next rank
    it holds while no bucket up to that rank holds a table.  A bucket of
    three tables or more over FOLD_VARS ranks or more, or of more than
    MAX_OPERANDS, is a left fold of two-operand steps.  The last bucket is
    a step unless it is one table labelled ``out``.  Raises ValidationError
    if numpy cannot run a step: a label past 51, or more labels than
    MAX_AXES, in one einsum."""
    n = len(label)
    ops: list = [None] * n + [[]]  # the buckets, None while empty, and the last one over skip
    held = [0] * (n + 1)
    free = ((1 << n) - 1) ^ skip
    for slot, (mask, ranks, labels, _, i) in enumerate(kept):
        if mask & skip:  # else its stored lowest rank is its bucket
            i = ((rest := mask & free) & -rest).bit_length() - 1
        if labels is None or mask & skip:  # a query variable's label is not stored
            labels = [label[r] for r in ranks]
        if bucket := ops[i]:
            bucket += slot, labels
        else:
            ops[i] = [slot, labels]
        held[i] |= mask
    program: list[Step] = []
    slot = len(kept)  # the slot of the next step's result
    for i in range(n + 1):
        bucket = ops[i]
        if not bucket and i < n:
            continue
        union, size = held[i], len(bucket)
        if i < n:
            mask = union ^ 1 << i
            if size == 2:
                rest, r = mask & free, i + 1  # the buckets from i + 1 below r hold no table
                while rest and not any(ops[r:(r := (rest & -rest).bit_length())]):
                    mask ^= rest & -rest
                    rest &= rest - 1
            labels, rest, r = [], mask, -1  # r ends as the lowest rank of mask, -1 if none
            while rest:
                r = rest.bit_length() - 1
                rest ^= 1 << r
                labels.append(label[r])
            labels.reverse()
        else:
            if union != skip:
                raise InternalConsistencyError(f"elimination left ranks {union:#b}, not {skip:#b}")
            if size == 2 and bucket[1] == out:
                break
            mask, labels = skip, out
        if size < 6 or size <= 2 * MAX_OPERANDS and union.bit_count() < FOLD_VARS:
            bucket.append(labels)
            program.append((bucket, mask))
        else:  # a left fold, each result keeping every label it meets: each
            # table holds the bucket's rank, and each other label is in labels
            masks = [kept[s][0] if s < len(kept) else program[s - len(kept)][1] for s in bucket[::2]]
            done, met, union = bucket[0], bucket[1], masks[0]
            for k in range(2, size - 2, 2):
                joined = list(dict.fromkeys([*met, *bucket[k + 1]]))
                union |= masks[k // 2]
                program.append(([done, met, bucket[k], bucket[k + 1], joined], union))
                done, met, slot = slot, joined, slot + 1
            program.append(([done, met, bucket[-2], bucket[-1], labels], mask))
        if i < n:  # the result waits in the bucket of its lowest rank outside skip
            if mask & skip:
                r = ((rest := mask & free) & -rest).bit_length() - 1
            if bucket := ops[r]:
                bucket += slot, labels
            else:
                ops[r] = [slot, labels]
            held[r] |= mask
            slot += 1
    if out[-1] >= min(52, MAX_AXES):  # labels lie below out[-1] + 1: numpy may not take them
        for args, _ in program:
            labels = set().union(*args[1::2])
            if max(labels) >= 52 or len(labels) > MAX_AXES:
                raise ValidationError(
                    f"the query needs an einsum over {len(labels)} labels, up to {max(labels)}; "
                    f"one einsum takes labels below 52, at most {min(52, MAX_AXES)} of them"
                )
    return program


def _run(program: list[Step], values: list[np.ndarray]) -> np.ndarray:
    """The answer of ``program`` (:func:`_compile`) on the kept tables' ``values``: each
    step empties the slots it reads, so a table dies with its one reader."""
    einsum = np.einsum
    for args, _ in program:
        args = args.copy()
        for k in range(0, len(args) - 1, 2):
            slot = args[k]
            args[k] = values[slot]
            values[slot] = None
        values.append(einsum(*args))
    return values[-1]


def variable_elimination(
    net: Network,
    evidence: Evidence | None = None,
    query: Iterable[int] = (),
) -> Factor:
    """The normalized posterior over the query variables given evidence.

    A query or finding on a star's hidden variable B raises
    ValidationError naming B: B's states index the rectangles of a
    base and h has signed entries, so B has no posterior.  Barren
    families are dropped and findings applied by :func:`_reduce`: a
    one-state finding or variable off the query never reaches an
    einsum, and an observed query variable keeps its axis.

    The rest is summed out on the network's layout
    (``Network.layout``), in the order and with the labels of a
    :class:`~factorbn.cliques.Plan`: below ``PLAN_ONCE_ENTRIES`` the
    layout's plan restricted to the live variables, whose steps lie
    inside the plan's cliques (the reduced graph is a subgraph of the
    network's), so no two variables of a step share a label; above it
    the query's own :func:`~factorbn.cliques.min_fill_plan`, query left
    out, on tables that keep their axes.  The query variables take the
    labels just above the plan's colours.  The query compiles to a
    program of einsums (:func:`_compile`) that :func:`_run` executes;
    one that numpy cannot run raises ValidationError before any runs.
    Raises ZeroNormalizerError when the evidence has zero mass and
    InternalConsistencyError if the unnormalized result dips below
    -1e-9 anywhere (values above that are clamped to 0) or does not have
    a finite sum, as when finite potentials overflow.
    """
    evidence = evidence or Evidence()
    queryset = set(query)
    query = sorted(queryset)
    for q in query:
        if not 0 <= q < len(net.variables):
            raise ValidationError(f"query names unknown variable id {q}")
    if not query:
        raise ValidationError("query must name at least one variable")
    if hidden := net._hidden.intersection([*query, *evidence.findings]):
        raise ValidationError(
            f"{net.variables[min(hidden)].name!r} is the hidden variable of a factorized "
            "node and has no posterior: it cannot be queried or observed"
        )
    layout = net.layout
    kept = _reduce(net, evidence, queryset, layout)
    rank: Sequence[int] | dict[int, int]
    plan = layout.plan
    if plan is not None:
        rank, label = layout.rank, list(plan.labels)
    else:  # the kept masks are over ids, query left out of the plan
        queried = sum(1 << q for q in query)
        plan = min_fill_plan([t[0] & ~queried for t in kept], net.cards)
        rank = {v: i for i, v in enumerate((*plan.order, *query))}
        label = [*plan.labels, *[-1] * len(query)]
        for i, (_, scope, _, values, _) in enumerate(kept):  # each table keeps its axes
            ranks = [rank[v] for v in scope]
            kept[i] = (sum(1 << r for r in ranks), ranks, None, values, min(ranks, default=-1))
    base = plan.colours
    for j, q in enumerate(query):
        label[rank[q]] = base + j
    skip = sum(1 << rank[q] for q in query)
    out = list(range(base, base + len(query)))  # the query's labels, in query order
    values = _run(_compile(kept, skip, label, out), [t[3] for t in kept])
    values = np.ascontiguousarray(values)  # so the sum below runs in C order
    low = float(values.min())
    if low < 0.0:
        if low < -NEGATIVE_TOLERANCE:
            raise InternalConsistencyError(
                f"marginal entry {low} below tolerance {-NEGATIVE_TOLERANCE}"
            )
        values = np.clip(values, 0.0, None)
    with np.errstate(over="ignore"):
        total = float(values.sum())
    if not -np.inf < total < np.inf:  # an infinity or a NaN
        raise InternalConsistencyError(f"unnormalized marginal sums to {total}")
    if total == 0.0:
        raise ZeroNormalizerError("evidence has zero probability under the model")
    if values.flags.owndata and values.flags.writeable:  # no table of the network
        values /= total
    else:  # a stored table, or a view of one
        values = values / total
    return Factor(tuple(query), tuple([net.cards[q] for q in query]), values)


# ---------------------------------------------------------------------------
# The rewrites.


def _rewrite(
    det: DeterministicFunction, method: str, variables: list[Variable], taken: set[str]
) -> DeterministicFunction | list[DeterministicFunction] | Star:
    """The rewrite of one deterministic node under ``divorce`` or
    ``factorize``; each new variable is appended to ``variables``, named
    by ``fresh_name`` against ``taken``.  ``divorce`` keeps a node of two
    parents or fewer, whatever its function, and returns it unrecognized.
    Any other node is recognized once by :func:`kind_of`.

    ``factorize`` returns the node's :class:`~factorbn.network.Star`, its
    form verified, over a conjunction's closed form, else MAX's downsets
    over one shared scale (also for a one-parent identity), else the
    greedy per-level cover, which is fast but not minimal in general.
    The hidden variable B (``B_<child>``, one state per rectangle) is
    appended last, so it is the higher id in each of the star's tables.

    ``divorce`` returns the balanced tree of two-parent nodes that
    replaces a conjunction of literals, else ADD, else MAX, and raises
    ValidationError for any other function.  Inputs are paired in order,
    level by level, into nodes applying ``&``, ``+`` or ``max`` to their
    values: a state's index, or for a conjunction's parents whether the
    literal holds.  A partial result gets ``max(outputs) + 1`` states;
    the last pair feeds the original child, so the joint over the
    original variables is preserved exactly.
    """
    if method == "divorce" and len(det.parents) <= 2:
        return det
    conj, is_add, is_max = kind_of(det)
    stem = variables[det.child].name
    if method == "factorize":
        if conj is not None:
            base = known_base_conjunction(conj)
        elif is_max and len(set(det.parent_cards)) == 1:
            base = known_base_max(det.parent_cards)
        else:
            base = greedy_cover_base(det)
        form = build_factorized_form(det, base)
        states = tuple(f"b{i}" for i in range(form.n_hidden))
        variables.append(Variable(len(variables), fresh_name(f"B_{stem}", taken), states))
        return Star(det.child, det.parents, len(variables) - 1, form)
    op = operator.and_ if conj is not None else operator.add if is_add else max
    if op is max and not is_max:
        raise ValidationError(
            f"deterministic node for variable {det.child} is not a recognized "
            "decomposable function (conjunction of literals, ADD, MAX)"
        )
    slots = [(p, range(card)) for p, card in zip(det.parents, det.parent_cards)]
    if conj is not None:  # int(x == literal) over a binary parent
        slots = [(p, (1 - lit, lit)) for p, lit in zip(det.parents, conj)]
    nodes: list[DeterministicFunction] = []
    while len(slots) > 1:
        root = len(slots) == 2
        done = []
        for (pu, ru), (pv, rv) in zip(slots[0::2], slots[1::2]):
            outputs = tuple(op(a, b) for a in ru for b in rv)
            if root:
                child, card = det.child, det.child_card
            else:
                child, card = len(variables), max(outputs) + 1
                name = fresh_name(f"{stem}_pd{len(nodes)}", taken)
                variables.append(Variable(child, name, tuple(f"s{t}" for t in range(card))))
            nodes.append(DeterministicFunction((pu, pv), child, (len(ru), len(rv)), card, outputs))
            done.append((child, range(card)))
        slots = done + slots[len(slots) // 2 * 2:]
    return nodes


def transform_network(net: Network, method: str) -> Network:
    """Apply one method to every deterministic node of the network.

    ``none`` returns the network itself.  ``factorize`` replaces each
    deterministic node by a :class:`~factorbn.network.Star` and its
    hidden variable; ``divorce`` splits a node of more than two parents
    into a tree of two-parent nodes.  :func:`_rewrite` is the step for
    one node.  The nodes a method keeps stay in place, the new variables,
    nodes and stars are appended in node order, and the network is built
    and validated once.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown transform {method!r}")
    if method == "none":
        return net
    variables = list(net.variables)
    taken = {v.name for v in variables}
    kept: list[DeterministicFunction] = []
    added: list[DeterministicFunction] = []
    stars = list(net.stars)
    for det in net.deterministic:
        done = _rewrite(det, method, variables, taken)
        if done is det:
            kept.append(det)
        elif isinstance(done, Star):
            stars.append(done)
        else:
            added += done
    return Network(
        tuple(variables), net.cpts, tuple(kept + added), net.potentials, tuple(stars)
    )
