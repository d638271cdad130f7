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
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _dumps(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for
    byte, for documents whose keys are strings.  ``indent`` sends
    ``json.dumps`` to its pure-Python encoder; this writer is a plain
    recursion that leaves each string to the C escaper."""
    out: list[str] = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_escape = json.encoder.encode_basestring_ascii


def _write(obj: Any, nl: str, out: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``nl`` is a newline
    followed by the indent of the line ``obj`` starts on.  Containers come
    first, and a plain int in a list or a plain str in a dict is written
    in place, with no call of its own (a bool or a subclass takes the call)."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for x in obj:
            out.append(sep)
            if type(x) is int:
                out.append(int.__repr__(x))
            else:
                _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            out.append(sep + _escape(k) + ": ")
            if type(v) is str:
                out.append(_escape(v))
            else:
                _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        # json.dumps spells NaN and the infinities
        out.append(float.__repr__(obj) if math.isfinite(obj) else json.dumps(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _expect(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing {key!r} in {where}")
    return obj[key]


def _int(value: Any, field: str) -> int:
    """An integer-valued field: a JSON integer, an integral number or a
    decimal string; anything else, a boolean included, is a ParseError
    naming the field."""
    if type(value) in (int, str) or type(value) is float and value.is_integer():
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"{field} must be an integer, got {value!r}")


def _ints(values: list, field: str) -> list:
    """A list of integer fields: as given if all are JSON integers, else each through ``_int``."""
    return values if set(map(type, values)) <= {int} else [_int(x, field) for x in values]


_JSON_TYPES = {list: "a list", str: "a string", dict: "an object"}


def _typed(value: Any, kind: type, field: str) -> Any:
    """``value`` if it is a ``kind`` (list, str or dict); anything else
    is a ParseError naming the field."""
    if not isinstance(value, kind):
        raise ParseError(f"{field} must be {_JSON_TYPES[kind]}, got {type(value).__name__}")
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
        outputs = _ints(outputs, f"{where} output")
        return DeterministicFunction(parents, child, [cards[p] for p in parents],
                                     cards[child], outputs)
    if ftype == "formula":
        expr = _typed(_expect(fn, "expr", where), str, f"{where} formula")
        if cards[child] != 2:
            raise ValidationError(f"{where}: a formula-defined child must be binary")
        return function_from_formula(
            parents, child, [cards[p] for p in parents], [names[p] for p in parents], expr
        )
    raise ParseError(f"unknown function type {ftype!r} in {where}")


def _function_field(d: DeterministicFunction, formula: str | None) -> dict[str, Any]:
    """The ``function`` field that ``_parse_function_field`` reads: the
    ``formula`` if given, else ``d``'s outputs table in Python ints."""
    if formula is not None:
        return {"type": "formula", "expr": formula}
    return {"type": "table", "outputs": d.outputs.ravel().tolist()}


def _declared(ids, field: str, cards: dict[int, int], where: str) -> tuple[int, ...]:
    """Integer ids (``field`` names each one), each declared in ``cards``,
    of a ``where`` ("CPT", "deterministic node" or "potential")."""
    ids = tuple(_ints(ids, field))
    for v in ids:
        if v not in cards:
            raise ValidationError(f"unknown variable id {v} in a {where}")
    return ids


def _factor(scope, cards: dict[int, int], rec: Any, kind: str, of: str = "") -> Factor:
    """The flat ``table`` of ``rec`` over ``scope``, as a Factor; errors
    name it ``f"{kind} table{of}"``, as in "CPT table for variable 3"."""
    scope_cards = tuple(cards[v] for v in scope)
    expected = _table_size(scope_cards, kind + of)
    field = f"{kind.lower()} table"
    table = _typed(_expect(rec, "table", kind.lower()), list, field)
    if not set(map(type, table)) <= {int, float}:
        raise ParseError(f"{field} must be a flat list of numbers")
    if len(table) != expected:
        raise ValidationError(f"{kind} table{of} has {len(table)} entries, expected {expected}")
    return Factor(scope, scope_cards, table)


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
    cards = {v.id: v.card for v in variables}
    if len(cards) != len(variables):
        raise ValidationError("duplicate variable ids")
    names = {v.id: v.name for v in variables}

    cpts = []
    for rc in _typed(doc.get("cpts", []), list, "network cpts"):
        (child,) = _declared([_expect(rc, "child", "cpt")], "cpt child", cards, "CPT")
        raw_parents = _typed(rc.get("parents", []), list, "cpt parents")
        parents = _declared(raw_parents, "cpt parent", cards, "CPT")
        family = tuple(sorted(parents + (child,)))
        factor = _factor(family, cards, rc, "CPT", f" for variable {child}")
        cpts.append(Cpt(child, parents, factor))

    dets = []
    for rd in _typed(doc.get("deterministic", []), list, "network deterministic"):
        where = "deterministic node"
        (child,) = _declared([_expect(rd, "child", where)], "deterministic child", cards, where)
        raw_parents = _typed(_expect(rd, "parents", where), list, "deterministic parents")
        parents = _declared(raw_parents, "deterministic parent", cards, where)
        dets.append(
            _parse_function_field(
                _expect(rd, "function", where),
                parents, child, cards, names, f"{where} for variable {child}",
            )
        )

    potentials = []
    for rp in _typed(doc.get("potentials", []), list, "network potentials"):
        raw_scope = _typed(_expect(rp, "scope", "potential"), list, "potential scope")
        scope = _declared(raw_scope, "potential scope", cards, "potential")
        potentials.append(_factor(scope, cards, rp, "potential"))

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
            {"child": d.child, "parents": list(d.parents),
             "function": _function_field(d, d.formula)}
            for d in net.deterministic
        ],
    }
    potentials = [(p.scope, p.values) for p in net.potentials]
    # the format has no stars, so a star's exact tables are written as float potentials
    potentials += [(s, t.astype(np.float64)) for st in net.stars for s, t in st.tables()]
    if potentials:
        doc["potentials"] = [
            {"scope": list(s), "table": t.ravel().tolist()} for s, t in potentials
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
        var, where = net.variable_by_name(name), f"evidence for {name!r}"
        findings[var.id] = _ints(_typed(vec, list, where), where)
    return Evidence(findings)


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
    cards = {i: _card_of(rp, f"parent {i}") for i, rp in enumerate(raw_parents)}
    cards[n] = _card_of(child_decl, "child")
    names = {i: str(_expect(rp, "name", "parent")) for i, rp in enumerate(raw_parents)}
    names[n] = str(child_decl.get("name", "Y"))
    declared = list(names.values())[: n + ("name" in child_decl)]  # not a default "Y"
    if twice := [v for i, v in enumerate(declared) if v in declared[:i]]:
        raise ValidationError(f"function file names {twice[0]!r} twice")
    return _parse_function_field(
        _expect(doc, "function", "function file"),
        list(range(n)), n, cards, names, "function file",
    )


def write_function(d: DeterministicFunction) -> str:
    """The function file of ``d``, its parents named X1, X2, ... and its
    child Y, holding the outputs table (a formula's variables are not
    X1, X2, ...)."""
    doc = {
        "parents": [{"name": f"X{i + 1}", "card": c} for i, c in enumerate(d.parent_cards)],
        "child": {"name": "Y", "card": d.child_card},
        "function": _function_field(d, None),
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
                _ints(_typed(dim, list, "rectangle dimension"), "rectangle state")
                for dim in _typed(r, list, "base rectangle")
            )
        )
        for r in _typed(_expect(doc, "rectangles", "base file"), list, "base rectangles")
    )
    exprs: dict[int, Expression] = {}
    raw_exprs = _typed(_expect(doc, "expressions", "base file"), dict, "base expressions")
    for state, s in raw_exprs.items():
        key = _int(state, "expression key")
        if key in exprs:
            raise ValidationError(f"base expressions name child state {key} twice")
        exprs[key] = parse_expression(_typed(s, str, f"expression for state {state}"))
    return Base(rects, exprs)


def write_base(base: Base, extra: dict[str, Any] | None = None) -> str:
    doc: dict[str, Any] = {
        "rectangles": [r.dims for r in base.rectangles],
        "expressions": {
            str(state): format_expression(e) for state, e in base.expressions.items()
        },
    }
    if extra:
        doc.update(extra)
    return _dumps(doc)


# ---------------------------------------------------------------------------
# Factorized forms: the explicit integer h and g tables.


def parse_form(text: str) -> FactorizedForm:
    """The reader checks JSON types only, ``FactorizedForm`` the tables'
    rows, shapes and entries; a given ``n_hidden`` must equal the form's."""
    doc = _loads(text)
    raw_cards = _typed(_expect(doc, "parent_cards", "form file"), list, "form parent_cards")
    parent_cards = _ints(raw_cards, "parent card")
    child_card = _int(_expect(doc, "child_card", "form file"), "child card")
    _table_size([*parent_cards, child_card], "form file")
    raw_g = _typed(_expect(doc, "g", "form file"), list, "form g")
    names = ["form h", *(f"form g[{i}]" for i in range(len(raw_g)))]
    h, *g = ([_ints(_typed(r, list, f"{k} row"), f"{k} entry") for r in _typed(t, list, k)]
             for k, t in zip(names, [_expect(doc, "h", "form file"), *raw_g]))
    form = FactorizedForm(parent_cards, child_card, h, g)
    if "n_hidden" in doc and (n := _int(doc["n_hidden"], "form n_hidden")) != form.n_hidden:
        raise ParseError(f"form n_hidden is {n}, but h and g have {form.n_hidden} columns")
    return form


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
