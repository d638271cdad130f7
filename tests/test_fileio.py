"""On-disk JSON formats for networks, evidence, functions, bases, forms.

Core claims:
    - write then parse is the identity for every format
    - writers are canonical: sorted keys, two-space indent, trailing
      newline, so equal objects give identical bytes
    - malformed input raises ParseError (with line/column for broken
      JSON) and structurally wrong input raises ValidationError
"""

import json
import math

import numpy as np
import pytest

from factorbn import (
    Base,
    DeterministicFunction,
    Evidence,
    Factor,
    Hyperrectangle,
    ParseError,
    ValidationError,
    build_factorized_form,
    function_from_formula,
    known_base_conjunction,
    parse_base,
    parse_evidence,
    parse_form,
    parse_function,
    parse_network,
    write_base,
    write_evidence,
    write_form,
    write_function,
    write_network,
)
from factorbn.fileio import MAX_TABLE_ENTRIES
from factorbn.mbh import greedy_cover_base
from factorbn.rectangles import Expression


NETWORK_DOC = """
{
  "variables": [
    {"id": 0, "name": "a", "states": ["no", "yes"]},
    {"id": 1, "name": "b", "states": ["lo", "mid", "hi"]},
    {"id": 2, "name": "y", "states": ["no", "yes"]}
  ],
  "cpts": [
    {"child": 0, "parents": [], "table": [0.4, 0.6]},
    {"child": 1, "parents": [0], "table": [0.2, 0.5, 0.3, 0.1, 0.3, 0.6]}
  ],
  "deterministic": [
    {"child": 2, "parents": [0, 1],
     "function": {"type": "table", "outputs": [0, 0, 1, 0, 1, 1]}}
  ]
}
"""


# -- networks -----------------------------------------------------------------


def test_network_round_trip():
    net = parse_network(NETWORK_DOC)
    assert [v.name for v in net.variables] == ["a", "b", "y"]
    assert net.variables[1].card == 3
    assert len(net.cpts) == 2 and len(net.deterministic) == 1
    text = write_network(net)
    assert parse_network(text) == net
    assert write_network(parse_network(text)) == text


def test_network_with_potentials_round_trips():
    net = parse_network(NETWORK_DOC)
    from factorbn.inference import transform_network

    t = transform_network(net, "factorize")
    assert t.potentials
    text = write_network(t)
    assert parse_network(text) == t


def test_formula_function_round_trips():
    doc = {
        "variables": [
            {"id": 0, "name": "x1", "states": ["f", "t"]},
            {"id": 1, "name": "x2", "states": ["f", "t"]},
            {"id": 2, "name": "y", "states": ["f", "t"]},
        ],
        "cpts": [
            {"child": 0, "parents": [], "table": [0.5, 0.5]},
            {"child": 1, "parents": [], "table": [0.5, 0.5]},
        ],
        "deterministic": [
            {"child": 2, "parents": [0, 1],
             "function": {"type": "formula", "expr": "x1 & !x2"}}
        ],
    }
    net = parse_network(json.dumps(doc))
    d = net.deterministic[0]
    assert d.formula == "x1 & !x2"
    assert d.outputs == (0, 0, 1, 0)
    assert parse_network(write_network(net)) == net


def test_broken_json_reports_position():
    with pytest.raises(ParseError) as e:
        parse_network('{"variables": [,]}')
    assert e.value.line == 1
    assert e.value.column is not None


@pytest.mark.parametrize(
    "mutate, excerpt",
    [
        (lambda d: d.pop("variables"), "missing 'variables'"),
        (lambda d: d["cpts"][0].pop("table"), "missing 'table'"),
        (
            lambda d: d["deterministic"][0]["function"].update(type="magic"),
            "unknown function type",
        ),
    ],
)
def test_missing_pieces_raise_parse_error(mutate, excerpt):
    doc = json.loads(NETWORK_DOC)
    mutate(doc)
    with pytest.raises(ParseError, match=excerpt):
        parse_network(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, excerpt",
    [
        (
            lambda d: d["cpts"][1].update(table=[0.2, 0.8]),
            "has 2 entries, expected 6",
        ),
        (
            lambda d: d["variables"].append(
                {"id": 0, "name": "dup", "states": ["a", "b"]}
            ),
            "duplicate variable ids",
        ),
        (
            lambda d: d["cpts"][0].update(parents=[9]),
            "unknown variable id 9",
        ),
        (
            lambda d: d.update(potentials=[{"scope": [1], "table": [1.0, 1.0]}]),
            "potential table has 2 entries, expected 3",
        ),
        (
            lambda d: d.update(potentials=[{"scope": [1], "table": [1.0, -math.inf, 1.0]}]),
            "potential over .1,. has a non-finite entry",
        ),
    ],
)
def test_structural_problems_raise_validation_error(mutate, excerpt):
    doc = json.loads(NETWORK_DOC)
    mutate(doc)
    with pytest.raises(ValidationError, match=excerpt):
        parse_network(json.dumps(doc))


def test_cycle_is_rejected():
    doc = {
        "variables": [
            {"id": 0, "name": "a", "states": ["n", "y"]},
            {"id": 1, "name": "b", "states": ["n", "y"]},
        ],
        "cpts": [
            {"child": 0, "parents": [1], "table": [0.5, 0.5, 0.5, 0.5]},
            {"child": 1, "parents": [0], "table": [0.5, 0.5, 0.5, 0.5]},
        ],
    }
    with pytest.raises(ValidationError, match="cycle"):
        parse_network(json.dumps(doc))


# -- evidence -----------------------------------------------------------------


def test_evidence_round_trip():
    net = parse_network(NETWORK_DOC)
    ev = Evidence({0: (0, 1), 1: (1, 0, 1)})
    text = write_evidence(ev, net)
    assert parse_evidence(text, net) == ev
    assert json.loads(text) == {"a": [0, 1], "b": [1, 0, 1]}


def test_evidence_errors():
    net = parse_network(NETWORK_DOC)
    with pytest.raises(ValidationError):
        parse_evidence('{"nope": [0, 1]}', net)
    with pytest.raises(ValidationError, match="length 3, expected 2"):
        parse_evidence('{"a": [0, 1, 0]}', net)
    with pytest.raises(ParseError):
        parse_evidence("[1, 2]", net)


# -- standalone functions -----------------------------------------------------


def test_function_round_trip_table():
    d = DeterministicFunction.from_callable(
        (0, 1), 2, (3, 3), 5, lambda a, b: a + b
    )
    text = write_function(d)
    back = parse_function(text)
    assert back.parent_cards == (3, 3)
    assert back.child_card == 5
    assert back.outputs == d.outputs


def test_function_round_trip_formula_and_states():
    text = """
    {
      "parents": [
        {"name": "rain", "states": ["no", "yes"]},
        {"name": "sprinkler", "card": 2}
      ],
      "child": {"name": "wet", "card": 2},
      "function": {"type": "formula", "expr": "rain | sprinkler"}
    }
    """
    d = parse_function(text)
    assert d.outputs == (0, 1, 1, 1)
    assert d.formula == "rain | sprinkler"
    again = parse_function(write_function(d, ["rain", "sprinkler", "wet"]))
    assert again.outputs == d.outputs


def test_function_file_errors():
    with pytest.raises(ValidationError, match="no parents"):
        parse_function('{"parents": [], "child": {"card": 2}, "function": {"type": "table", "outputs": []}}')
    with pytest.raises(ParseError, match="'states' or 'card'"):
        parse_function('{"parents": [{"name": "x"}], "child": {"card": 2}, "function": {"type": "table", "outputs": [0, 1]}}')


# -- integer fields -------------------------------------------------------------


FUNCTION_DOC = {
    "parents": [{"name": "x1", "card": 2}, {"name": "x2", "card": 2}],
    "child": {"name": "y", "card": 2},
    "function": {"type": "table", "outputs": [0, 0, 0, 1]},
}


def _network_doc():
    doc = json.loads(NETWORK_DOC)
    doc["potentials"] = [{"scope": [0], "table": [1.0, 1.0]}]
    return doc


INTEGER_FIELD_CASES = [
    (parse_network, lambda d: d["variables"][0].update(id="x"), "variable id"),
    (parse_network, lambda d: d["cpts"][0].update(child=[0]), "cpt child"),
    (parse_network, lambda d: d["cpts"][1].update(parents=[0.5]), "cpt parent"),
    (parse_network, lambda d: d["deterministic"][0].update(child=None),
     "deterministic child"),
    (parse_network, lambda d: d["deterministic"][0].update(parents=[0, "b"]),
     "deterministic parent"),
    (parse_network, lambda d: d["deterministic"][0]["function"].update(
        outputs=[0, 0, 1, 0, 1, "yes"]), "output"),
    (parse_network, lambda d: d["potentials"][0].update(scope=["a"]), "potential scope"),
    (parse_function, lambda d: d["parents"][1].update(card="two"), "parent 1 card"),
    (parse_function, lambda d: d["child"].update(card=2.5), "child card"),
]


@pytest.mark.parametrize(
    "parse, build, field", INTEGER_FIELD_CASES, ids=[c[2] for c in INTEGER_FIELD_CASES]
)
def test_non_integer_fields_raise_parse_error(parse, build, field):
    doc = _network_doc() if parse is parse_network else json.loads(json.dumps(FUNCTION_DOC))
    build(doc)
    with pytest.raises(ParseError, match=f"{field} must be an integer"):
        parse(json.dumps(doc))


def test_integer_fields_in_other_files_raise_parse_error():
    net = parse_network(NETWORK_DOC)
    with pytest.raises(ParseError, match="evidence for 'a' must be an integer"):
        parse_evidence('{"a": [0, "one"]}', net)
    with pytest.raises(ParseError, match="rectangle state must be an integer"):
        parse_base('{"rectangles": [[[0], ["z"]]], "expressions": {"0": "R1"}}')
    with pytest.raises(ParseError, match="expression key must be an integer"):
        parse_base('{"rectangles": [[[0], [0]]], "expressions": {"zero": "R1"}}')
    with pytest.raises(ParseError, match="parent card must be an integer"):
        parse_form('{"parent_cards": [2, []], "child_card": 2, "h": [], "g": []}')


def test_table_entries_must_be_numbers():
    doc = _network_doc()
    doc["potentials"][0]["table"] = [1.0, "x"]
    with pytest.raises(ParseError, match="potential table must be a flat list of numbers"):
        parse_network(json.dumps(doc))
    doc = _network_doc()
    doc["cpts"][0]["table"] = [[0.4], 0.6]
    with pytest.raises(ParseError, match="cpt table must be a flat list of numbers"):
        parse_network(json.dumps(doc))


def test_oversized_tables_are_rejected_before_they_are_built():
    doc = json.loads(json.dumps(FUNCTION_DOC))
    doc["child"]["card"] = 10**30
    with pytest.raises(ValidationError, match="function file would need"):
        parse_function(json.dumps(doc))
    side = 1 << 12  # two parents and a binary child: 2**25 entries
    doc = json.loads(json.dumps(FUNCTION_DOC))
    doc["parents"] = [{"name": "x1", "card": side}, {"name": "x2", "card": side}]
    with pytest.raises(ValidationError, match=f"more than {MAX_TABLE_ENTRIES}"):
        parse_function(json.dumps(doc))
    with pytest.raises(ValidationError, match="form file would need"):
        parse_form(json.dumps({"parent_cards": [side, side], "child_card": 2,
                               "h": [], "g": []}))


def test_integral_numbers_and_decimal_strings_still_parse():
    doc = _network_doc()
    doc["variables"][2]["id"] = "2"
    doc["cpts"][1]["parents"] = [0.0]
    assert parse_network(json.dumps(doc)) == parse_network(json.dumps(_network_doc()))
    form = parse_form(json.dumps(dict(FORM, h=[[1.0, "0"], [0, 1]])))
    assert form.h.tolist() == [[1, 0], [0, 1]]


# -- bases --------------------------------------------------------------------


def boolean_base():
    rects = (
        Hyperrectangle(((0,), (0,), (0, 1))),
        Hyperrectangle(((0, 1), (1,), (1,))),
        Hyperrectangle(((0, 1), (0, 1), (0, 1))),
    )
    pos = Expression.union(Expression.rect(1), Expression.rect(0))
    neg = Expression.diff(Expression.rect(2), pos)
    return Base(rects, {1: pos, 0: neg})


def test_base_round_trip():
    base = boolean_base()
    text = write_base(base)
    back = parse_base(text)
    assert back == base
    doc = json.loads(text)
    assert doc["expressions"]["0"] == "(- R3 (+ R2 R1))"
    assert doc["expressions"]["1"] == "(+ R2 R1)"


def test_deep_greedy_base_round_trips():
    # parity on ten binary parents: the greedy cover nests 511 unions
    parity = DeterministicFunction.from_callable(
        range(10), 10, (2,) * 10, 2, lambda *x: sum(x) % 2
    )
    base = greedy_cover_base(parity)
    back = parse_base(write_base(base))
    assert back == base
    assert hash(back.expressions[1]) == hash(base.expressions[1])
    assert repr(back.expressions[1]) == repr(base.expressions[1])


def test_base_writer_accepts_extra_fields():
    text = write_base(boolean_base(), extra={"proved_minimal": True, "size": 3})
    doc = json.loads(text)
    assert doc["proved_minimal"] is True
    assert parse_base(text) == boolean_base()  # extras are ignored on read


def test_base_parse_errors():
    with pytest.raises(ParseError):
        parse_base('{"rectangles": []}')
    with pytest.raises(ParseError, match="operator"):
        parse_base('{"rectangles": [[[0], [0]]], "expressions": {"0": "(* R1 R1)"}}')


# -- factorized forms ---------------------------------------------------------


def test_form_round_trip():
    conj = (1, 0, 1)
    base = known_base_conjunction(conj)
    d = DeterministicFunction.from_callable(
        (0, 1, 2), 3, (2, 2, 2), 2,
        lambda a, b, c: int((a, b, c) == conj),
    )
    form = build_factorized_form(d, base)
    text = write_form(form)
    back = parse_form(text)
    assert back.parent_cards == form.parent_cards
    assert back.child_card == form.child_card
    assert np.array_equal(back.h, form.h)
    assert all(np.array_equal(x, y) for x, y in zip(back.g, form.g))
    assert json.loads(text)["n_hidden"] == 2


FORM = {"parent_cards": [2], "child_card": 2, "h": [[1, 0], [0, 1]], "g": [[[1, 0], [0, 1]]]}


@pytest.mark.parametrize(
    "key, value, excerpt",
    [
        ("h", [[1.5, 0], [0, 1]], "form h entry must be an integer, got 1.5"),
        ("g", [[[0.5, 0], [0, 1]]], r"form g\[0\] entry must be an integer, got 0.5"),
        ("h", [[float("nan"), 0], [0, 1]], "form h entry must be an integer, got nan"),
        ("h", [["ab", 0], [0, 1]], "form h entry must be an integer, got 'ab'"),
        ("h", [[1, 0], [0]], "form h has rows of different lengths"),
        ("h", [1, 0], "form h row must be a list"),
        ("g", [[[1, 0], [0, 1, 1]]], r"form g\[0\] has rows of different lengths"),
        ("h", [[2**70, 0], [0, 1]], "form h has an entry beyond 64 bits"),
    ],
    ids=["fraction-h", "fraction-g", "nan", "string", "ragged-h", "flat-h", "ragged-g", "huge"],
)
def test_form_tables_must_hold_integers(key, value, excerpt):
    doc = dict(FORM, **{key: value})
    with pytest.raises(ParseError, match=excerpt):
        parse_form(json.dumps(doc))


def test_writers_are_canonical():
    net = parse_network(NETWORK_DOC)
    assert write_network(net) == write_network(parse_network(write_network(net)))
    assert write_network(net).endswith("\n")
    assert write_base(boolean_base()) == write_base(boolean_base())
