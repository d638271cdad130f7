"""JSON file formats: networks, evidence, standalone functions,
rectangle bases, and factorized forms.

All writers emit sorted keys with two-space indentation and a trailing
newline, so equal objects serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .core import Evidence, Factor, Variable
from .errors import ParseError, ValidationError
from .factorization import FactorizedForm
from .functions import DeterministicFunction, function_from_formula
from .network import Cpt, Network
from .rectangles import Base, Expression, Hyperrectangle, format_expression, parse_expression

# A family table (a CPT, a deterministic node's indicator, a potential
# or a function file's family) may have at most this many entries.
# Cardinalities are checked against it as a file is parsed, before any
# table is built, so that a huge declared "card" is an input error
# rather than an allocation failure.
MAX_TABLE_ENTRIES = 1 << 24


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno, column=e.colno) from e


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _expect(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing {key!r} in {where}")
    return obj[key]


def _int(value: Any, field: str) -> int:
    """An integer-valued field: a JSON integer, an integral number or a
    decimal string; anything else is a ParseError naming the field."""
    if isinstance(value, (int, str)) or isinstance(value, float) and value.is_integer():
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"{field} must be an integer, got {value!r}")


_JSON_TYPES = {list: "a list", str: "a string", dict: "an object"}


def _typed(value: Any, kind: type, field: str) -> Any:
    """``value`` if it is a ``kind`` (list, str or dict); anything else
    is a ParseError naming the field."""
    if not isinstance(value, kind):
        raise ParseError(f"{field} must be {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def _table(value: Any, field: str) -> list:
    """A flat list of numbers."""
    if not all(type(x) in (int, float) for x in _typed(value, list, field)):
        raise ParseError(f"{field} must be a flat list of numbers")
    return value


def _table_size(cards, where: str) -> int:
    """Entries of a table over ``cards``, at most MAX_TABLE_ENTRIES."""
    size = math.prod(cards)
    if size > MAX_TABLE_ENTRIES:
        raise ValidationError(
            f"{where} would need {size} table entries, more than {MAX_TABLE_ENTRIES}"
        )
    return size


# ---------------------------------------------------------------------------
# Networks.


def _parse_function_field(fn: Any, parents, child, cards, names, where: str):
    ftype = _expect(fn, "type", where)
    _table_size([cards[p] for p in parents] + [cards[child]], where)
    if ftype == "table":
        outputs = _typed(_expect(fn, "outputs", where), list, f"{where} outputs")
        return DeterministicFunction(
            tuple(parents), child, tuple(cards[p] for p in parents), cards[child],
            tuple(_int(o, f"{where} output") for o in outputs),
        )
    if ftype == "formula":
        expr = _typed(_expect(fn, "expr", where), str, f"{where} formula")
        if cards[child] != 2:
            raise ValidationError(f"{where}: a formula-defined child must be binary")
        return function_from_formula(
            parents, child, [cards[p] for p in parents], [names[p] for p in parents], expr
        )
    raise ParseError(f"unknown function type {ftype!r} in {where}")


def parse_network(text: str) -> Network:
    doc = _loads(text)
    raw_vars = _typed(_expect(doc, "variables", "network"), list, "network variables")
    variables = []
    for rv in raw_vars:
        states = _typed(_expect(rv, "states", "variable"), list, "variable states")
        variables.append(
            Variable(
                _int(_expect(rv, "id", "variable"), "variable id"),
                str(_expect(rv, "name", "variable")),
                tuple(str(s) for s in states),
            )
        )
    by_position = {v.id: v for v in variables}
    cards = {v.id: v.card for v in variables}
    names = {v.id: v.name for v in variables}
    if len(by_position) != len(variables):
        raise ValidationError("duplicate variable ids")

    cpts = []
    for rc in _typed(doc.get("cpts", []), list, "network cpts"):
        child = _int(_expect(rc, "child", "cpt"), "cpt child")
        parents = tuple(
            _int(p, "cpt parent") for p in _typed(rc.get("parents", []), list, "cpt parents")
        )
        table = _table(_expect(rc, "table", "cpt"), "cpt table")
        family = tuple(sorted(parents + (child,)))
        unknown = [v for v in family if v not in cards]
        if unknown:
            raise ValidationError(f"unknown variable id {unknown[0]} in a CPT")
        fam_cards = tuple(cards[v] for v in family)
        expected = _table_size(fam_cards, f"CPT for variable {child}")
        if len(table) != expected:
            raise ValidationError(
                f"CPT table for variable {child} has {len(table)} entries, expected {expected}"
            )
        cpts.append(Cpt(child, parents, Factor(family, fam_cards, table)))

    dets = []
    for rd in _typed(doc.get("deterministic", []), list, "network deterministic"):
        child = _int(_expect(rd, "child", "deterministic node"), "deterministic child")
        raw_parents = _expect(rd, "parents", "deterministic node")
        parents = tuple(
            _int(p, "deterministic parent")
            for p in _typed(raw_parents, list, "deterministic parents")
        )
        unknown = [v for v in parents + (child,) if v not in cards]
        if unknown:
            raise ValidationError(f"unknown variable id {unknown[0]} in a deterministic node")
        dets.append(
            _parse_function_field(
                _expect(rd, "function", "deterministic node"),
                parents, child, cards, names, f"deterministic node for variable {child}",
            )
        )

    potentials = []
    for rp in _typed(doc.get("potentials", []), list, "network potentials"):
        raw_scope = _typed(_expect(rp, "scope", "potential"), list, "potential scope")
        scope = tuple(_int(v, "potential scope") for v in raw_scope)
        unknown = [v for v in scope if v not in cards]
        if unknown:
            raise ValidationError(f"unknown variable id {unknown[0]} in a potential")
        pot_cards = tuple(cards[v] for v in scope)
        expected = _table_size(pot_cards, "potential")
        table = _table(_expect(rp, "table", "potential"), "potential table")
        if len(table) != expected:
            raise ValidationError(
                f"potential table has {len(table)} entries, expected {expected}"
            )
        potentials.append(Factor(scope, pot_cards, table))

    return Network(tuple(variables), tuple(cpts), tuple(dets), tuple(potentials))


def write_network(net: Network) -> str:
    doc: dict[str, Any] = {
        "variables": [
            {"id": v.id, "name": v.name, "states": list(v.states)} for v in net.variables
        ],
        "cpts": [
            {"child": c.child, "parents": sorted(c.parents), "table": c.factor.flat().tolist()}
            for c in net.cpts
        ],
        "deterministic": [
            {
                "child": d.child,
                "parents": list(d.parents),
                "function": (
                    {"type": "formula", "expr": d.formula}
                    if d.formula is not None
                    else {"type": "table", "outputs": list(d.outputs)}
                ),
            }
            for d in net.deterministic
        ],
    }
    if net.potentials:
        doc["potentials"] = [
            {"scope": list(p.scope), "table": p.flat().tolist()} for p in net.potentials
        ]
    return _dumps(doc)


# ---------------------------------------------------------------------------
# Evidence: a name -> 0/1 state-vector mapping.


def parse_evidence(text: str, net: Network) -> Evidence:
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ParseError("evidence file must be a JSON object")
    findings = {}
    for name, vec in doc.items():
        var = net.variable_by_name(name)
        if not isinstance(vec, list):
            raise ValidationError(f"evidence for {name!r} must be a list of 0/1")
        if len(vec) != var.card:
            raise ValidationError(
                f"evidence vector for {name!r} has length {len(vec)}, "
                f"expected {var.card}"
            )
        findings[var.id] = tuple(_int(x, f"evidence for {name!r}") for x in vec)
    return Evidence(findings)


def write_evidence(evidence: Evidence, net: Network) -> str:
    return _dumps(
        {net.variables[v].name: list(vec) for v, vec in sorted(evidence.findings.items())}
    )


# ---------------------------------------------------------------------------
# Standalone functions, for the factorize/mbh entry points.  Parent and
# child declarations carry either a state list or a bare cardinality.


def _card_of(decl: Any, where: str) -> int:
    _typed(decl, dict, where)
    if "states" in decl:
        return len(_typed(decl["states"], list, f"{where} states"))
    if "card" in decl:
        return _int(decl["card"], f"{where} card")
    raise ParseError(f"{where} needs either 'states' or 'card'")


def parse_function(text: str) -> DeterministicFunction:
    doc = _loads(text)
    raw_parents = _typed(_expect(doc, "parents", "function file"), list, "function parents")
    child_decl = _expect(doc, "child", "function file")
    n = len(raw_parents)
    if n == 0:
        raise ValidationError("function file declares no parents")
    cards = {i: _card_of(rp, f"parent {i}") for i, rp in enumerate(raw_parents)}
    cards[n] = _card_of(child_decl, "child")
    names = {i: str(_expect(rp, "name", "parent")) for i, rp in enumerate(raw_parents)}
    names[n] = str(child_decl.get("name", "Y"))
    return _parse_function_field(
        _expect(doc, "function", "function file"),
        list(range(n)), n, cards, names, "function file",
    )


def write_function(d: DeterministicFunction, names: list[str] | None = None) -> str:
    if names is None:
        names = [f"X{i + 1}" for i in range(d.n_parents)] + ["Y"]
    doc = {
        "parents": [
            {"name": names[i], "card": c} for i, c in enumerate(d.parent_cards)
        ],
        "child": {"name": names[-1], "card": d.child_card},
        "function": (
            {"type": "formula", "expr": d.formula}
            if d.formula is not None
            else {"type": "table", "outputs": list(d.outputs)}
        ),
    }
    return _dumps(doc)


# ---------------------------------------------------------------------------
# Bases: rectangles as per-dimension state lists, expressions in prefix
# notation with 1-based leaves ("R1"), "-" for the proper difference and
# "+" for the disjunctive union.


def parse_base(text: str) -> Base:
    doc = _loads(text)
    rects = tuple(
        Hyperrectangle(
            tuple(
                tuple(_int(x, "rectangle state") for x in _typed(dim, list, "rectangle dimension"))
                for dim in _typed(r, list, "base rectangle")
            )
        )
        for r in _typed(_expect(doc, "rectangles", "base file"), list, "base rectangles")
    )
    exprs: dict[int, Expression] = {}
    raw_exprs = _typed(_expect(doc, "expressions", "base file"), dict, "base expressions")
    for state, s in raw_exprs.items():
        exprs[_int(state, "expression key")] = parse_expression(
            _typed(s, str, f"expression for state {state}")
        )
    return Base(rects, exprs)


def write_base(base: Base, extra: dict[str, Any] | None = None) -> str:
    doc: dict[str, Any] = {
        "rectangles": [[list(dim) for dim in r.dims] for r in base.rectangles],
        "expressions": {
            str(state): format_expression(e) for state, e in base.expressions.items()
        },
    }
    if extra:
        doc.update(extra)
    return _dumps(doc)


# ---------------------------------------------------------------------------
# Factorized forms: the explicit integer h and g tables.


def _int_matrix(value: Any, field: str) -> np.ndarray:
    """A list of equal-length rows of integer fields (see ``_int``), as
    an int64 matrix; anything else is a ParseError naming the field."""
    rows = [
        [_int(x, f"{field} entry") for x in _typed(row, list, f"{field} row")]
        for row in _typed(value, list, field)
    ]
    if len({len(row) for row in rows}) > 1:
        raise ParseError(f"{field} has rows of different lengths")
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        raise ParseError(f"{field} has an entry beyond 64 bits") from None


def parse_form(text: str) -> FactorizedForm:
    doc = _loads(text)
    raw_cards = _typed(_expect(doc, "parent_cards", "form file"), list, "form parent_cards")
    parent_cards = tuple(_int(c, "parent card") for c in raw_cards)
    child_card = _int(_expect(doc, "child_card", "form file"), "child card")
    _table_size(parent_cards + (child_card,), "form file")
    raw_g = _typed(_expect(doc, "g", "form file"), list, "form g")
    return FactorizedForm(
        parent_cards,
        child_card,
        _int_matrix(_expect(doc, "h", "form file"), "form h"),
        tuple(_int_matrix(g, f"form g[{i}]") for i, g in enumerate(raw_g)),
    )


def write_form(form: FactorizedForm) -> str:
    return _dumps(
        {
            "parent_cards": list(form.parent_cards),
            "child_card": form.child_card,
            "n_hidden": form.n_hidden,
            "h": form.h.tolist(),
            "g": [g.tolist() for g in form.g],
        }
    )
