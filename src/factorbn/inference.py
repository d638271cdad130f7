"""Exact inference by variable elimination, plus the two structural
transformations that shrink deterministic families: replacing a
deterministic node by its hidden-variable factorization, and parent
divorcing through a balanced tree of intermediates.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import Evidence, Factor, Variable
from .cliques import min_fill_order, scope_graph
from .errors import InternalConsistencyError, ValidationError, ZeroNormalizerError
from .factorization import FactorizedForm, build_factorized_form, verify_factorization
from .functions import (
    DeterministicFunction,
    as_conjunction,
    deterministic_to_potential,
    is_add,
    is_max,
)
from .network import Network, fresh_name

NEGATIVE_TOLERANCE = 1e-9
MAX_OPERANDS = 31  # einsum operands per call that every supported numpy accepts

Table = tuple[tuple[int, ...], np.ndarray]  # (scope, values with one axis per scope id)


def network_factors(net: Network, heads: set[int], dtype=np.float64) -> list[Table]:
    """(scope, table) for the CPT and deterministic families whose child
    is in ``heads`` and for every transformation potential, in a common
    dtype.  Tables already in ``dtype`` are shared, not copied: they are
    read-only.
    """
    tables = [
        (c.factor.scope, np.asarray(c.factor.values, dtype=dtype))
        for c in net.cpts
        if c.child in heads
    ]
    for d in net.deterministic:
        if d.child in heads:
            ind = deterministic_to_potential(d)
            tables.append((ind.scope, ind.values.astype(dtype)))
    tables += [(p.scope, np.asarray(p.values, dtype=dtype)) for p in net.potentials]
    return tables


def _validate_evidence(net: Network, evidence: Evidence) -> None:
    cards = net.cards
    for var, vec in evidence.findings.items():
        if not 0 <= var < len(cards):
            raise ValidationError(f"evidence names unknown variable id {var}")
        if len(vec) != cards[var]:
            raise ValidationError(
                f"evidence vector for variable {var} has length {len(vec)}, "
                f"expected {cards[var]}"
            )


def _relevant_heads(net: Network, targets: Iterable[int]) -> set[int]:
    """The targets, every variable in a transformation potential, and
    all their ancestors.

    Every other CPT or deterministic family is barren for a query on
    the targets (Zhang & Poole 1996): its child has no observed or
    queried descendant, so summing it out, leaves first, multiplies by
    rows that sum to 1.
    """
    parents = {c.child: c.parents for c in net.cpts}
    parents.update((d.child, d.parents) for d in net.deterministic)
    seen = set(targets)
    for p in net.potentials:
        seen.update(p.scope)
    stack = list(seen)
    while stack:
        for u in parents.get(stack.pop(), ()):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def _slice(table: Table, picks: dict[int, int | np.ndarray]) -> Table:
    """Index the observed axes away: an int pick drops the axis, an
    index array keeps only the allowed states."""
    scope, values = table
    if picks.keys().isdisjoint(scope):
        return table
    for axis in reversed(range(len(scope))):
        pick = picks.get(scope[axis])
        if pick is not None:
            values = np.take(values, pick, axis=axis)
    return tuple(v for v in scope if not isinstance(picks.get(v), int)), values


def _contract(tables: Sequence[Table], out: Sequence[int]) -> np.ndarray:
    """Multiply the tables and sum every variable not in ``out``, as one
    einsum with labels numbered locally; its axes follow ``out``.

    Beyond MAX_OPERANDS tables, the first ones are multiplied together
    first, summing nothing, so no einsum exceeds numpy's operand limit.
    """
    if len(tables) > MAX_OPERANDS:
        head = tables[:MAX_OPERANDS]
        scope = tuple(dict.fromkeys(u for s, _ in head for u in s))
        return _contract([(scope, _contract(head, scope)), *tables[MAX_OPERANDS:]], out)
    labels: dict[int, int] = {}
    args: list = []
    for scope, values in tables:
        args.append(values)
        args.append([labels.setdefault(v, len(labels)) for v in scope])
    args.append([labels[v] for v in out])
    return np.einsum(*args)


def variable_elimination(
    net: Network,
    evidence: Evidence | None = None,
    query: Iterable[int] = (),
    order: Sequence[int] | None = None,
) -> Factor:
    """The normalized posterior over the query variables given evidence.

    Barren families are dropped first: a CPT or deterministic node whose
    child is not an ancestor of a query variable, an observed one or a
    variable of a transformation potential cannot change the answer.
    An observed non-query variable is indexed out of every table that
    holds it; an observed query variable is masked instead, so that its
    axis stays.  The remaining variables are summed out in min-fill
    order on the reduced graph (lowest id on ties) unless an explicit
    elimination ``order`` over all non-query variables is supplied; the
    result is the same for any order, only the cost differs.  Each step
    multiplies the tables holding the variable and sums it out in one
    einsum.  Raises ZeroNormalizerError when the evidence has zero mass
    and InternalConsistencyError if the unnormalized result dips below
    -1e-9 anywhere (values above that are clamped to 0).
    """
    evidence = evidence or Evidence()
    _validate_evidence(net, evidence)
    query = sorted(set(query))
    for q in query:
        if not 0 <= q < len(net.variables):
            raise ValidationError(f"query names unknown variable id {q}")
    if not query:
        raise ValidationError("query must name at least one variable")
    queryset = set(query)
    if order is not None:
        order = list(order)
        expected = set(range(len(net.variables))) - queryset
        if set(order) != expected or len(order) != len(expected):
            raise ValidationError(
                "elimination order must cover each non-query variable exactly once"
            )

    picks: dict[int, int | np.ndarray] = {}
    masks: list[Table] = []
    for var, vec in evidence.findings.items():
        if not any(vec):
            raise ZeroNormalizerError("evidence has zero probability under the model")
        if var in queryset:
            masks.append(((var,), np.asarray(vec, dtype=np.float64)))
        elif not all(vec):
            allowed = np.flatnonzero(vec)
            picks[var] = int(allowed[0]) if allowed.size == 1 else allowed

    heads = _relevant_heads(net, queryset | set(evidence.findings))
    tables = [_slice(t, picks) for t in network_factors(net, heads)] + masks

    present = {v for scope, _ in tables for v in scope}
    if order is None:
        order, _ = min_fill_order(
            scope_graph((scope for scope, _ in tables), present - queryset)
        )
    else:
        order = [v for v in order if v in present]

    # Bucket elimination: each table waits in the bucket of its first
    # variable in the order, so a bucket holds every table that touches
    # its variable by the time that variable is summed out.
    rank = {v: i for i, v in enumerate(order)}
    buckets: list[list[Table]] = [[] for _ in order]
    final: list[Table] = []

    def place(table: Table) -> None:
        ranks = [rank[u] for u in table[0] if u in rank]
        (buckets[min(ranks)] if ranks else final).append(table)

    for t in tables:
        place(t)
    for v, touching in zip(order, buckets):
        out = list(dict.fromkeys(u for scope, _ in touching for u in scope if u != v))
        place((tuple(out), _contract(touching, out)))

    left = {v for scope, _ in final for v in scope}
    if left != queryset:
        raise InternalConsistencyError(
            f"elimination left scope {tuple(sorted(left))}, expected {tuple(query)}"
        )
    values = _contract(final, query)
    low = values.min() if values.size else 0.0
    if low < -NEGATIVE_TOLERANCE:
        raise InternalConsistencyError(
            f"marginal entry {low} below tolerance {-NEGATIVE_TOLERANCE}"
        )
    values = np.clip(values, 0.0, None)
    total = values.sum()
    if total == 0.0:
        raise ZeroNormalizerError("evidence has zero probability under the model")
    cards = net.cards
    return Factor(tuple(query), tuple(cards[q] for q in query), values / total)


def posterior_by_name(
    net: Network, evidence: Evidence | None, names: Sequence[str]
) -> Factor:
    return variable_elimination(
        net, evidence, [net.variable_by_name(n).id for n in names]
    )


# ---------------------------------------------------------------------------
# Transform 1: hidden-variable factorization of a deterministic node.


def _hidden_variable(
    det: DeterministicFunction, form: FactorizedForm, b_id: int, name: str
) -> tuple[Variable, list[Factor]]:
    """The hidden variable B that replaces ``det`` and its potentials:
    h(child, B), then g_i(parent_i, B) for each parent in order.

    The form is re-verified against the node first.
    """
    verdict = verify_factorization(det, form)
    if not verdict:
        raise ValidationError(
            f"factorized form fails reconstruction at {verdict.violation}"
        )
    child = det.child
    b_var = Variable(b_id, name, tuple(f"b{i}" for i in range(form.n_hidden)))
    potentials = [
        Factor((min(child, b_id), max(child, b_id)), (form.child_card, form.n_hidden),
               form.h.astype(np.float64))
    ]
    for pid, g in zip(det.parents, form.g):
        potentials.append(
            Factor((pid, b_id), (g.shape[0], form.n_hidden), g.astype(np.float64))
        )
    return b_var, potentials


def apply_factorization_transform(
    net: Network, child: int, form: FactorizedForm
) -> Network:
    """Replace the deterministic node for ``child`` by its factorized
    potentials: one hidden variable B, one pairwise potential h(child, B),
    and one membership potential g_i(parent_i, B) per parent.

    The form is re-verified against the node before anything changes;
    posteriors over the original variables are preserved exactly.
    """
    det = net.deterministic_for(child)
    b_var, potentials = _hidden_variable(
        det, form, len(net.variables), net.fresh_name(f"B_{net.variables[child].name}")
    )
    return Network(
        net.variables + (b_var,),
        net.cpts,
        tuple(d for d in net.deterministic if d.child != child),
        net.potentials + tuple(potentials),
    )


# ---------------------------------------------------------------------------
# Transform 2: parent divorcing for decomposable functions.


def _pair_function(kind: str, meta_u, meta_v, cards, child_card=None):
    """Build the two-parent combiner table for one divorcing step.

    meta entries are (variable id, detail): the accepting state for a
    conjunction, None for add/max where the state is the value.
    Returns (outputs, output cardinality).
    """
    (u, du), (v, dv) = meta_u, meta_v
    cu, cv = cards[u], cards[v]
    if kind == "and":
        outputs = [1 if (a == du and b == dv) else 0 for a in range(cu) for b in range(cv)]
        return outputs, 2
    if kind == "add":
        out_card = child_card if child_card is not None else (cu - 1) + (cv - 1) + 1
        outputs = [a + b for a in range(cu) for b in range(cv)]
        return outputs, out_card
    out_card = child_card if child_card is not None else max(cu, cv)
    outputs = [max(a, b) for a in range(cu) for b in range(cv)]
    return outputs, out_card


def parent_divorcing_transform(net: Network, child: int) -> Network:
    """Split a decomposable deterministic node (conjunction of literals,
    ADD, or MAX) into a balanced tree of two-parent intermediates.

    Intermediate variables carry partial results (partial sums for ADD,
    running maxima for MAX, truth of a literal block for conjunctions).
    Functions of at most two parents are returned unchanged.  The joint
    over the original variables is preserved exactly.
    """
    det = net.deterministic_for(child)
    conj = as_conjunction(det)
    if conj is not None:
        kind = "and"
        slots = [(p, s) for p, s in zip(det.parents, conj)]
    elif is_add(det):
        kind = "add"
        slots = [(p, None) for p in det.parents]
    elif is_max(det):
        kind = "max"
        slots = [(p, None) for p in det.parents]
    else:
        raise ValidationError(
            f"deterministic node for variable {child} is not a recognized "
            "decomposable function (conjunction of literals, ADD, MAX)"
        )
    if len(slots) <= 2:
        return net

    variables = list(net.variables)
    cards = {v.id: v.card for v in net.variables}
    new_dets: list[DeterministicFunction] = []
    stem = net.variables[child].name
    taken = {v.name for v in variables}

    def fresh(i: int) -> str:
        name = f"{stem}_pd{i}"
        j = 2
        while name in taken:
            name = f"{stem}_pd{i}_{j}"
            j += 1
        taken.add(name)
        return name

    counter = 0
    while len(slots) > 2:
        nxt = []
        for i in range(0, len(slots) - 1, 2):
            u, v = slots[i], slots[i + 1]
            outputs, out_card = _pair_function(kind, u, v, cards)
            z_id = len(variables)
            variables.append(
                Variable(z_id, fresh(counter), tuple(f"s{t}" for t in range(out_card)))
            )
            counter += 1
            cards[z_id] = out_card
            new_dets.append(
                DeterministicFunction(
                    (u[0], v[0]), z_id, (cards[u[0]], cards[v[0]]), out_card,
                    tuple(outputs),
                )
            )
            nxt.append((z_id, 1 if kind == "and" else None))
        if len(slots) % 2 == 1:
            nxt.append(slots[-1])
        slots = nxt

    outputs, _ = _pair_function(kind, slots[0], slots[1], cards, child_card=det.child_card)
    new_dets.append(
        DeterministicFunction(
            (slots[0][0], slots[1][0]), child,
            (cards[slots[0][0]], cards[slots[1][0]]), det.child_card, tuple(outputs),
        )
    )
    return Network(
        tuple(variables),
        net.cpts,
        tuple(d for d in net.deterministic if d.child != child) + tuple(new_dets),
        net.potentials,
    )


# ---------------------------------------------------------------------------
# Whole-network transform driver shared by the CLI and the benchmark.


def transform_network(net: Network, method: str, base_picker=None) -> Network:
    """Apply one method to every deterministic node of the network.

    ``none`` returns the network unchanged; ``divorce`` divorces every
    decomposable deterministic node; ``factorize`` replaces each
    deterministic node using a base from ``base_picker(det)`` (defaults
    to :func:`default_base` below).
    """
    if method == "none":
        return net
    if method == "divorce":
        out = net
        for det in net.deterministic:
            out = parent_divorcing_transform(out, det.child)
        return out
    if method == "factorize":
        # Every node is rewritten into one list of variables and
        # potentials, and the network is built and validated once.
        picker = base_picker or default_base
        variables = list(net.variables)
        potentials = list(net.potentials)
        taken = {v.name for v in variables}
        for det in net.deterministic:
            form = build_factorized_form(det, picker(det))
            name = fresh_name(f"B_{net.variables[det.child].name}", taken)
            taken.add(name)
            b_var, pots = _hidden_variable(det, form, len(variables), name)
            variables.append(b_var)
            potentials += pots
        return Network(tuple(variables), net.cpts, (), tuple(potentials))
    raise ValidationError(f"unknown transform {method!r}")


def default_base(det: DeterministicFunction):
    """A base for a deterministic node: closed forms for conjunctions
    and MAX, otherwise a greedy per-level cover.

    The greedy cover is always verified and fast; it is not minimal in
    general.  Callers who want a proved-minimal base should run
    ``solve_mbh`` themselves and pass the result through the
    ``base_picker`` hook of :func:`transform_network`.
    """
    from .factorization import known_base_conjunction, known_base_max
    from .mbh import greedy_cover_base

    conj = as_conjunction(det)
    if conj is not None:
        return known_base_conjunction(conj)
    if is_max(det) and len(set(det.parent_cards)) == 1:
        return known_base_max(det.parent_cards)
    return greedy_cover_base(det)
