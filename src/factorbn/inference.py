"""Exact inference by variable elimination, plus the two structural
transformations that shrink deterministic families: replacing a
deterministic node by its hidden-variable factorization, and parent
divorcing through a balanced tree of intermediates.  Both run in one
pass of :func:`transform_network`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import Evidence, Factor, Variable
from .cliques import min_fill_order, scope_graph
from .errors import InternalConsistencyError, ValidationError, ZeroNormalizerError
from .factorization import (
    FactorizedForm,
    build_factorized_form,
    known_base_conjunction,
    known_base_max,
    verify_factorization,
)
from .functions import (
    DeterministicFunction,
    as_conjunction,
    deterministic_to_potential,
    is_add,
    is_max,
)
from .mbh import greedy_cover_base
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
    -1e-9 anywhere (values above that are clamped to 0) or does not have
    a finite sum, as when finite potentials overflow.
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
    with np.errstate(over="ignore"):
        total = values.sum()
    if not np.isfinite(total):
        raise InternalConsistencyError(f"unnormalized marginal sums to {total}")
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
# The rewrites.  Each step turns one deterministic node into variables
# appended to ``variables`` (named by ``fresh_name`` against ``taken``)
# and the potentials or nodes that replace it.


def _hidden_variable(
    det: DeterministicFunction, form: FactorizedForm, variables: list[Variable],
    taken: set[str],
) -> list[Factor]:
    """Append the hidden variable B that replaces ``det`` and return its
    potentials: h(child, B), then g_i(parent_i, B) for each parent in
    order.

    The form is re-verified against the node first.
    """
    verdict = verify_factorization(det, form)
    if not verdict:
        raise ValidationError(
            f"factorized form fails reconstruction at {verdict.violation}"
        )
    child, b_id = det.child, len(variables)
    name = fresh_name(f"B_{variables[child].name}", taken)
    variables.append(Variable(b_id, name, tuple(f"b{i}" for i in range(form.n_hidden))))
    potentials = [
        Factor((min(child, b_id), max(child, b_id)), (form.child_card, form.n_hidden),
               form.h.astype(np.float64))
    ]
    for pid, g in zip(det.parents, form.g):
        potentials.append(
            Factor((pid, b_id), (g.shape[0], form.n_hidden), g.astype(np.float64))
        )
    return potentials


def _pair_function(kind: str, du, dv, cu: int, cv: int, child_card: int | None = None):
    """The two-parent combiner of one divorcing step, over parents with
    ``cu`` and ``cv`` states.

    ``du`` and ``dv`` are the accepting states for a conjunction and
    unused for ADD and MAX, where the state is the value.  Returns
    (outputs, output cardinality); ``child_card``, given at the root,
    replaces the cardinality of a partial sum or maximum.
    """
    pairs = [(a, b) for a in range(cu) for b in range(cv)]
    if kind == "and":
        return [int(a == du and b == dv) for a, b in pairs], 2
    if kind == "add":
        return [a + b for a, b in pairs], child_card or cu + cv - 1
    return [max(a, b) for a, b in pairs], child_card or max(cu, cv)


def _divorce(
    det: DeterministicFunction, variables: list[Variable], taken: set[str]
) -> list[DeterministicFunction]:
    """The balanced tree of two-parent nodes that replaces a decomposable
    node (conjunction of literals, ADD or MAX) with more than two
    parents; empty for a node with at most two.

    Intermediate variables carry partial results (partial sums for ADD,
    running maxima for MAX, truth of a literal block for conjunctions).
    The joint over the original variables is preserved exactly.
    """
    conj = as_conjunction(det)
    kind = "and" if conj is not None else "add" if is_add(det) else "max" if is_max(det) else None
    if kind is None:
        raise ValidationError(
            f"deterministic node for variable {det.child} is not a recognized "
            "decomposable function (conjunction of literals, ADD, MAX)"
        )
    slots = list(zip(det.parents, (None,) * len(det.parents) if conj is None else conj))
    if len(slots) <= 2:
        return []
    stem = variables[det.child].name
    nodes: list[DeterministicFunction] = []

    def combine(u, v, root: bool = False) -> int:
        """Append the node over slots u and v and return its child."""
        (pu, du), (pv, dv) = u, v
        cards = (variables[pu].card, variables[pv].card)
        outputs, card = _pair_function(kind, du, dv, *cards, det.child_card if root else None)
        if root:
            child = det.child
        else:
            child = len(variables)
            name = fresh_name(f"{stem}_pd{len(nodes)}", taken)
            variables.append(Variable(child, name, tuple(f"s{t}" for t in range(card))))
        nodes.append(DeterministicFunction((pu, pv), child, cards, card, tuple(outputs)))
        return child

    while len(slots) > 2:
        pairs = list(zip(slots[0::2], slots[1::2]))
        done = [(combine(u, v), 1 if kind == "and" else None) for u, v in pairs]
        slots = done + slots[2 * len(pairs):]
    combine(*slots, root=True)
    return nodes


def transform_network(net: Network, method: str, base_picker=None) -> Network:
    """Apply one method to every deterministic node of the network.

    ``none`` returns the network unchanged.  ``factorize`` replaces each
    deterministic node by a hidden variable and its potentials, using a
    base from ``base_picker(det)`` (defaults to :func:`default_base`
    below).  ``divorce`` splits each decomposable node with more than two
    parents into a tree of two-parent nodes, and rejects a node that is
    not decomposable.  The nodes a method leaves alone keep their place;
    the new variables, nodes and potentials are appended in node order,
    and the network is built and validated once.
    """
    if method == "none":
        return net
    if method not in ("factorize", "divorce"):
        raise ValidationError(f"unknown transform {method!r}")
    picker = base_picker or default_base
    variables = list(net.variables)
    taken = {v.name for v in variables}
    kept: list[DeterministicFunction] = []
    added: list[DeterministicFunction] = []
    potentials = list(net.potentials)
    for det in net.deterministic:
        if method == "factorize":
            form = build_factorized_form(det, picker(det))
            potentials += _hidden_variable(det, form, variables, taken)
        elif nodes := _divorce(det, variables, taken):
            added += nodes
        else:
            kept.append(det)
    return Network(tuple(variables), net.cpts, tuple(kept + added), tuple(potentials))


def default_base(det: DeterministicFunction):
    """A base for a deterministic node: closed forms for conjunctions
    and MAX, otherwise a greedy per-level cover.

    The greedy cover is always verified and fast; it is not minimal in
    general.  Callers who want a proved-minimal base should run
    ``solve_mbh`` themselves and pass the result through the
    ``base_picker`` hook of :func:`transform_network`.
    """
    conj = as_conjunction(det)
    if conj is not None:
        return known_base_conjunction(conj)
    if is_max(det) and len(set(det.parent_cards)) == 1:
        return known_base_max(det.parent_cards)
    return greedy_cover_base(det)
