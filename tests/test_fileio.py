"""On-disk JSON formats for networks, evidence, functions, bases, forms.

Core claims:
    - write then parse is the identity for every format with a writer
      (evidence has none)
    - writers are canonical: sorted keys, two-space indent, trailing
      newline, so equal objects give identical bytes
    - the writer is byte-identical to ``json.dumps(doc, sort_keys=True,
      indent=2)`` plus a newline, on every document the writers and
      ``infer`` make from the golden inputs and on edge documents
    - malformed input raises ParseError (with line/column for broken
      JSON) and structurally wrong input raises ValidationError
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from factorbn import (
    Base,
    DeterministicFunction,
    Evidence,
    Factor,
    FactorizedForm,
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
    trivial_factorization,
    write_base,
    write_form,
    write_function,
    write_network,
)
from factorbn import cli, fileio
from factorbn.fileio import MAX_TABLE_ENTRIES, _dumps
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
    assert t.stars and not t.potentials
    # the file format has no stars: a star's tables come back as free
    # potentials, so the parsed copy writes the same bytes but differs
    text = write_network(t)
    parsed = parse_network(text)
    assert not parsed.stars
    assert [p.scope for p in parsed.potentials] == [s for s, _ in t.stars[0].tables()]
    assert parsed != t and write_network(parsed) == text


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
    assert d.outputs.ravel().tolist() == [0, 0, 1, 0]
    assert parse_network(write_network(net)) == net


def test_broken_json_reports_position():
    with pytest.raises(ParseError) as e:
        parse_network('{"variables": [,]}')
    assert e.value.line == 1
    assert e.value.column is not None


@pytest.mark.parametrize("text", ["[" * 200_000, '{"a":' * 100_000],
                         ids=["lists", "objects"])
def test_deeply_nested_json_raises_parse_error(text):
    # the decoder runs out of stack before it sees the missing brackets
    net = parse_network(NETWORK_DOC)
    for parse in (parse_network, parse_function, parse_base, parse_form,
                  lambda t: parse_evidence(t, net)):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(text)


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


def _formula_over_a_ternary_child(doc):
    doc["variables"][2]["states"] = ["lo", "mid", "hi"]
    doc["deterministic"][0]["function"] = {"type": "formula", "expr": "a & b"}


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
        (
            lambda d: d["deterministic"][0].update(parents=[0, 7]),
            "^unknown variable id 7 in a deterministic node$",
        ),
        (
            lambda d: d.update(potentials=[{"scope": [8], "table": [1.0]}]),
            "^unknown variable id 8 in a potential$",
        ),
        (
            _formula_over_a_ternary_child,
            "^deterministic node for variable 2: a formula-defined child must be binary$",
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


def test_evidence_is_read_by_variable_name():
    net = parse_network(NETWORK_DOC)
    ev = parse_evidence('{"b": [1, 0, 1], "a": [0, 1]}', net)
    assert ev == Evidence({0: (0, 1), 1: (1, 0, 1)})


def test_evidence_errors():
    net = parse_network(NETWORK_DOC)
    with pytest.raises(ValidationError):
        parse_evidence('{"nope": [0, 1]}', net)
    with pytest.raises(ParseError):
        parse_evidence("[1, 2]", net)
    with pytest.raises(ParseError, match="^evidence for 'a' must be a list, got int$"):
        parse_evidence('{"a": 1}', net)


# -- standalone functions -----------------------------------------------------


def test_function_round_trip_table():
    d = DeterministicFunction.from_callable(
        (0, 1), 2, (3, 3), 5, lambda a, b: a + b
    )
    text = write_function(d)
    back = parse_function(text)
    assert back.parent_cards == (3, 3)
    assert back.child_card == 5
    assert np.array_equal(back.outputs, d.outputs)


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
    assert d.outputs.ravel().tolist() == [0, 1, 1, 1]
    assert d.formula == "rain | sprinkler"
    # a written function names its variables X1, X2 and Y, so the file
    # holds the outputs table, not the formula over rain and sprinkler
    text = write_function(d)
    assert [p["name"] for p in json.loads(text)["parents"]] == ["X1", "X2"]
    again = parse_function(text)
    assert np.array_equal(again.outputs, d.outputs) and again.formula is None


def test_function_file_errors():
    with pytest.raises(ValidationError, match="^a deterministic node needs at least one parent$"):
        parse_function('{"parents": [], "child": {"card": 2}, "function": {"type": "table", "outputs": []}}')
    with pytest.raises(ValidationError, match=r"^formula mentions unknown variables: \['a'\]$"):
        parse_function('{"parents": [], "child": {"card": 2}, "function": {"type": "formula", "expr": "a"}}')
    with pytest.raises(ParseError, match="'states' or 'card'"):
        parse_function('{"parents": [{"name": "x"}], "child": {"card": 2}, "function": {"type": "table", "outputs": [0, 1]}}')


def test_function_file_names_each_variable_once():
    # a repeated parent name used to bind the formula to the second one
    doc = {
        "parents": [{"name": "x1", "card": 2}, {"name": "x1", "card": 2}],
        "child": {"name": "y", "card": 2},
        "function": {"type": "formula", "expr": "x1"},
    }
    with pytest.raises(ValidationError, match="^function file names 'x1' twice$"):
        parse_function(json.dumps(doc))
    doc["parents"][1]["name"] = "y"
    with pytest.raises(ValidationError, match="^function file names 'y' twice$"):
        parse_function(json.dumps(doc))
    # the child's default name "Y" is not a declared one
    doc["parents"][1]["name"] = "Y"
    del doc["child"]["name"]
    assert parse_function(json.dumps(doc)).outputs.ravel().tolist() == [0, 0, 1, 1]


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


def _bool_id(doc):
    doc["variables"][0]["id"] = False
    doc["cpts"][0]["child"] = False


def _bool_card(doc):
    doc["parents"][1]["card"] = True
    doc["function"]["outputs"] = [0, 1]


# JSON booleans are Python ints; each of these parsed at face value
# (variable 0, a one-state parent, the identity h) before they were refused
BOOLEAN_CASES = [
    (parse_network, _network_doc, _bool_id, "variable id"),
    (parse_function, lambda: json.loads(json.dumps(FUNCTION_DOC)), _bool_card,
     "parent 1 card"),
    (parse_form, lambda: dict(FORM), lambda d: d.update(h=[[True, False], [False, True]]),
     "form h entry"),
    (parse_function, lambda: json.loads(json.dumps(FUNCTION_DOC)),
     lambda d: d["function"].update(outputs=[0, 0, 0, True]), "function file output"),
]


@pytest.mark.parametrize(
    "parse, doc, build, field", BOOLEAN_CASES,
    ids=["id-false", "card-true", "form-h", "output-true"],
)
def test_json_booleans_are_not_integers(parse, doc, build, field):
    doc = doc()
    build(doc)
    with pytest.raises(ParseError, match=f"{field} must be an integer, got (True|False)"):
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
    table = {"type": "table", "outputs": [0, "0", 0.0, 1]}
    assert parse_function(json.dumps(dict(FUNCTION_DOC, function=table))) == parse_function(
        json.dumps(FUNCTION_DOC)
    )


def test_lists_of_json_integers_are_left_to_the_library(monkeypatch):
    """A list whose entries are all JSON integers is read in one pass over
    their types, and the library reads the integers: ``_int`` sees only the
    scalar fields of all-integer documents of every kind."""
    fields = []

    def spy(value, field):
        fields.append(field)
        return real(value, field)

    real = fileio._int
    monkeypatch.setattr(fileio, "_int", spy)
    net = parse_network(json.dumps(_network_doc()))
    parse_evidence('{"b": [1, 0, 1], "a": [0, 1]}', net)
    parse_function(json.dumps(FUNCTION_DOC))
    parse_base(write_base(boolean_base()))
    parse_form(json.dumps(dict(FORM, n_hidden=2)))
    assert sorted(set(fields)) == [
        "child card", "expression key", "form n_hidden", "parent 0 card", "parent 1 card",
        "variable id",
    ]


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
    # parity on ten binary parents: 512 one-cell parts in each level set
    parity = DeterministicFunction.from_callable(
        range(10), 10, (2,) * 10, 2, lambda *x: sum(x) % 2
    )
    base = greedy_cover_base(parity)
    back = parse_base(write_base(base))
    assert back == base
    assert hash(back.expressions[1]) == hash(base.expressions[1])
    assert repr(back.expressions[1]) == repr(base.expressions[1])


def test_a_library_built_union_chain_round_trips():
    # one 600-state parent, a one-state child: its level set is the
    # left-folded union chain R1 + R2 + ... + R600, 599 operators deep
    n = 600
    d = DeterministicFunction((0,), 1, (n,), 1, (0,) * n)
    expr = Expression.rect(0)
    for i in range(1, n):
        expr = Expression.union(expr, Expression.rect(i))
    base = Base(tuple(Hyperrectangle(((i,),)) for i in range(n)), {0: expr})
    assert build_factorized_form(d, base).n_hidden == n
    assert parse_base(write_base(base)) == base


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


def test_forms_compare_by_value():
    add = DeterministicFunction.from_callable((0, 1), 2, (3, 4), 6, lambda a, b: a + b)
    form = build_factorized_form(add, greedy_cover_base(add))
    assert parse_form(write_form(form)) == form
    trivial = trivial_factorization(add)
    assert parse_form(write_form(trivial)) == trivial != form
    flipped = (1 - form.g[0], *form.g[1:])
    assert FactorizedForm(form.parent_cards, form.child_card, form.h, flipped) != form


FORM = {"parent_cards": [2], "child_card": 2, "h": [[1, 0], [0, 1]], "g": [[[1, 0], [0, 1]]]}


@pytest.mark.parametrize(
    "key, value, cls, excerpt",
    [
        ("h", [[1.5, 0], [0, 1]], ParseError, "form h entry must be an integer, got 1.5"),
        ("g", [[[0.5, 0], [0, 1]]], ParseError, r"form g\[0\] entry must be an integer, got 0.5"),
        ("h", [[float("nan"), 0], [0, 1]], ParseError, "form h entry must be an integer, got nan"),
        ("h", [["ab", 0], [0, 1]], ParseError, "form h entry must be an integer, got 'ab'"),
        # the reader checks JSON types; FactorizedForm checks rows and range
        ("h", [[1, 0], [0]], ValidationError, "^h rows must all have the same length$"),
        ("h", [1, 0], ParseError, "form h row must be a list"),
        ("g", [[[1, 0], [0, 1, 1]]], ValidationError, r"^g\[0\] rows must all have the same length$"),
        ("h", [[2**70, 0], [0, 1]], ValidationError,
         "^h entries must be integers that fit in 64 bits$"),
    ],
    ids=["fraction-h", "fraction-g", "nan", "string", "ragged-h", "flat-h", "ragged-g", "huge"],
)
def test_form_tables_must_hold_integers(key, value, cls, excerpt):
    doc = dict(FORM, **{key: value})
    with pytest.raises(cls, match=excerpt) as e:
        parse_form(json.dumps(doc))
    assert type(e.value) is cls


@pytest.mark.parametrize("n_hidden", [7, 1, "two"])
def test_form_n_hidden_must_match_the_tables(n_hidden):
    # FORM's h and g have 2 columns; a wrong count used to be ignored
    with pytest.raises(ParseError, match="n_hidden"):
        parse_form(json.dumps(dict(FORM, n_hidden=n_hidden)))
    # a g wider than h: FactorizedForm rejects it before n_hidden is read
    g_wide = dict(FORM, n_hidden=2, g=[[[1, 0, 0], [0, 1, 0]]])
    with pytest.raises(ValidationError, match=r"^g\[0\] table has shape \(2, 3\), expected \(2, 2\)$"):
        parse_form(json.dumps(g_wide))
    assert parse_form(json.dumps(dict(FORM, n_hidden=2))).n_hidden == 2


def test_written_forms_parse_back_unchanged():
    add = DeterministicFunction.from_callable(
        (0, 1), 2, (3, 4), 6, lambda a, b: a + b
    )
    for form in (build_factorized_form(add, greedy_cover_base(add)),
                 trivial_factorization(add)):
        text = write_form(form)
        back = parse_form(text)
        assert json.loads(text)["n_hidden"] == back.n_hidden == form.n_hidden
        assert back.parent_cards == form.parent_cards
        assert back.child_card == form.child_card
        assert np.array_equal(back.h, form.h)
        assert all(np.array_equal(x, y) for x, y in zip(back.g, form.g))
        assert write_form(back) == text


def test_writers_are_canonical():
    net = parse_network(NETWORK_DOC)
    assert write_network(net) == write_network(parse_network(write_network(net)))
    assert write_network(net).endswith("\n")
    assert write_base(boolean_base()) == write_base(boolean_base())


# -- the writer against json.dumps ---------------------------------------------

HERE = Path(__file__).parent


def _json_dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_writer_matches_json_dumps_on_the_golden_documents(monkeypatch, tmp_path):
    docs = []

    def spy(doc):
        docs.append(doc)
        return _dumps(doc)

    monkeypatch.setattr(fileio, "_dumps", spy)
    monkeypatch.setattr(cli, "_dumps", spy)
    for golden in json.loads((HERE / "mbh_goldens.json").read_text()).values():
        text = golden["base"]
        extra = {"proved_minimal": json.loads(text)["proved_minimal"]}
        assert write_base(parse_base(text), extra=extra) == text
    networks = json.loads((HERE / "transform_goldens.json").read_text())
    for case, text in networks.items():
        net = parse_network(text)
        assert write_network(net) == text
        if case.endswith("/none"):
            for d in net.deterministic:
                write_function(d)
                write_form(build_factorized_form(d, greedy_cover_base(d)))
                write_form(trivial_factorization(d))
    path = tmp_path / "mixed.json"
    path.write_text(networks["mixed/factorize"])
    out = tmp_path / "marginal.json"
    assert cli.run_cli(["infer", "--net", str(path), "--query", "sum", "max",
                        "--out", str(out)]) == 0
    assert json.loads(out.read_text())["variables"] == ["sum", "max"]
    assert len(docs) > 100
    for doc in docs:
        assert _dumps(doc) == _json_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {},
        [[], {}, [[]], {"a": {}}],
        {"z": [], "a": {"b": [{}]}},
        {"na\u00efve \"name\"": ["\u00e9t\u00e9", "tab\there", "back\\slash", "\u2603"]},
        [0.1, 1e-300, 5e-324, 1.7976931348623157e308, -0.0, 3.0],
        [float("nan"), float("inf"), -float("inf")],
        [True, False, None, 0, -7, 10**30],
        {"t": (1, (2, 3)), "n": np.float64(0.1)},
        [True, 1],
        [1, True],
        [0, -1, 2**70],
        [[], [1]],
        [1, 1.0],
    ],
    ids=["empty-list", "empty-dict", "nested-empties", "nested-sorted", "names",
         "floats", "non-finite", "scalars", "tuples", "bool-then-int", "int-then-bool",
         "big-int", "empty-then-ints", "int-then-float"],
)
def test_writer_matches_json_dumps_on_edge_documents(doc):
    assert _dumps(doc) == _json_dumps(doc)


def test_writer_rejects_what_json_rejects():
    with pytest.raises(TypeError):
        _dumps({"x": np.int64(1)})
