"""The command-line front end.

Core claims:
    - exit codes follow the documented map: 0 ok, 1 usage, 2 bad input
      (parse, validation, impossible evidence), 3 budget, 4 internal
    - every emitted file re-parses with the library
    - mbh, cliques, and bench runs with the same flags are
      byte-identical
    - the factorize/infer/cliques outputs agree with calling the
      library directly
"""

import json

import numpy as np
import pytest

from factorbn import Evidence, parse_base, parse_form, parse_network, variable_elimination
from factorbn.cli import run_cli
from factorbn.errors import InternalConsistencyError


NET = {
    "variables": [
        {"id": 0, "name": "a", "states": ["no", "yes"]},
        {"id": 1, "name": "b", "states": ["no", "yes"]},
        {"id": 2, "name": "both", "states": ["no", "yes"]},
        {"id": 3, "name": "alarm", "states": ["no", "yes"]},
    ],
    "cpts": [
        {"child": 0, "parents": [], "table": [0.4, 0.6]},
        {"child": 1, "parents": [], "table": [0.7, 0.3]},
        {"child": 3, "parents": [2], "table": [0.9, 0.1, 0.2, 0.8]},
    ],
    "deterministic": [
        {"child": 2, "parents": [0, 1],
         "function": {"type": "table", "outputs": [0, 0, 0, 1]}}
    ],
}

AND2 = {
    "parents": [{"name": "x1", "card": 2}, {"name": "x2", "card": 2}],
    "child": {"name": "y", "card": 2},
    "function": {"type": "table", "outputs": [0, 0, 0, 1]},
}

ADD33 = {
    "parents": [{"name": "x1", "card": 3}, {"name": "x2", "card": 3}],
    "child": {"name": "y", "card": 5},
    "function": {"type": "table", "outputs": [0, 1, 2, 1, 2, 3, 2, 3, 4]},
}

BIG = {
    "parents": [{"name": f"x{i}", "card": 4} for i in range(1, 5)],
    "child": {"name": "y", "card": 2},
    "function": {
        "type": "table",
        "outputs": [0] * 255 + [1],
    },
}

BOOL_BASE = {
    "rectangles": [[[0], [0]], [[1], [1]], [[0, 1], [0, 1]]],
    "expressions": {
        "1": "R2",
        "0": "(- (- R3 R2) (- R1 R1))",
    },
}


def put(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# -- usage ---------------------------------------------------------------------


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "factorize" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error(capsys):
    assert run_cli([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli(["mbh", "--function", "x", "--frobnicate"]) == 1


def test_bad_orderings_value_is_usage_error(capsys):
    assert run_cli(["bench", "cat", "--seed", "1", "--tasks", "2",
                    "--orderings", "some"]) == 1


def test_successive_calls_parse_independently(tmp_path, capsys):
    import factorbn.cli as cli

    assert cli._build_parser() is cli._build_parser()
    net_path = put(tmp_path, "net.json", NET)
    fn_path = put(tmp_path, "fn.json", ADD33)
    factorized = tmp_path / "factorized.txt"
    assert run_cli(["cliques", "--net", net_path, "--transform", "factorize",
                    "--out", str(factorized)]) == 0
    assert capsys.readouterr().out == ""
    # no flag of the first call leaks into the next: the default transform
    # and stdout again
    assert run_cli(["cliques", "--net", net_path]) == 0
    plain = capsys.readouterr().out
    assert plain and plain != factorized.read_text()
    assert run_cli(["mbh", "--function", fn_path, "--max-rects", "3"]) == 3
    capsys.readouterr()
    assert run_cli(["mbh", "--function", fn_path]) == 0
    assert "proved_minimal=True" in capsys.readouterr().err
    assert run_cli(["cliques", "--net", net_path, "--transform", "none"]) == 0
    assert capsys.readouterr().out == plain


# -- factorize -----------------------------------------------------------------


def test_factorize_trivial(tmp_path, capsys):
    fn = put(tmp_path, "fn.json", AND2)
    assert run_cli(["factorize", "--function", fn, "--trivial"]) == 0
    form = parse_form(capsys.readouterr().out)
    assert form.n_hidden == 4  # one hidden state per parent configuration
    assert form.parent_cards == (2, 2)


def test_factorize_with_base(tmp_path, capsys):
    fn = put(tmp_path, "fn.json", AND2)
    base = put(tmp_path, "base.json", {
        "rectangles": [[[1], [1]], [[0, 1], [0, 1]]],
        "expressions": {"1": "R1", "0": "(- R2 R1)"},
    })
    out = str(tmp_path / "form.json")
    assert run_cli(["factorize", "--function", fn, "--base", base,
                    "--out", out]) == 0
    form = parse_form((tmp_path / "form.json").read_text())
    assert form.n_hidden == 2
    assert form.h.tolist() == [[-1, 1], [1, 0]]


def test_factorize_with_wrong_base_is_input_error(tmp_path, capsys):
    fn = put(tmp_path, "fn.json", ADD33)  # base below is for a 2x2 grid
    base = put(tmp_path, "base.json", BOOL_BASE)
    assert run_cli(["factorize", "--function", fn, "--base", base]) == 2
    assert "error:" in capsys.readouterr().err


def test_factorize_deeply_nested_base_is_input_error(tmp_path, capsys):
    fn = put(tmp_path, "fn.json", AND2)
    expr = "R1"
    for _ in range(3000):
        expr = f"(+ {expr} R1)"
    base = put(tmp_path, "base.json", {
        "rectangles": [[[1], [1]]], "expressions": {"1": expr},
    })
    assert run_cli(["factorize", "--function", fn, "--base", base]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nests deeper than" in captured.err and captured.err.count("\n") == 1


def test_unreadable_file_is_input_error(tmp_path, capsys):
    assert run_cli(["factorize", "--function",
                    str(tmp_path / "absent.json"), "--trivial"]) == 2


def test_broken_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "fn.json"
    p.write_text("{nope")
    assert run_cli(["factorize", "--function", str(p), "--trivial"]) == 2


# -- mbh -----------------------------------------------------------------------


def test_mbh_finds_and_proves_the_add_base(tmp_path, capsys):
    fn = put(tmp_path, "fn.json", ADD33)
    out = str(tmp_path / "base.json")
    assert run_cli(["mbh", "--function", fn, "--out", out]) == 0
    err = capsys.readouterr().err
    assert "rectangles=6" in err
    assert "proved_minimal=True" in err
    doc = json.loads((tmp_path / "base.json").read_text())
    assert doc["proved_minimal"] is True
    base = parse_base((tmp_path / "base.json").read_text())
    assert base.size == 6


def test_mbh_rectangle_cap_exits_three(tmp_path, capsys):
    fn = put(tmp_path, "fn.json", BIG)
    assert run_cli(["mbh", "--function", fn, "--max-rects", "10"]) == 3
    assert "50625" in capsys.readouterr().err


def test_mbh_closure_cap_still_emits_a_base(tmp_path, capsys):
    fn = put(tmp_path, "fn.json", ADD33)
    out = str(tmp_path / "base.json")
    assert run_cli(["mbh", "--function", fn, "--max-closure", "2",
                    "--out", out]) == 3
    assert "may not be minimal" in capsys.readouterr().err
    doc = json.loads((tmp_path / "base.json").read_text())
    assert doc["proved_minimal"] is False
    parse_base((tmp_path / "base.json").read_text())  # still a valid base


def test_mbh_non_integer_card_is_input_error(tmp_path, capsys):
    doc = json.loads(json.dumps(AND2))
    doc["parents"][1]["card"] = "two"
    fn = put(tmp_path, "fn.json", doc)
    assert run_cli(["mbh", "--function", fn]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "card must be an integer" in captured.err and captured.err.count("\n") == 1


def test_mbh_deeply_negated_formula_is_input_error(tmp_path, capsys):
    doc = json.loads(json.dumps(AND2))
    doc["function"] = {"type": "formula", "expr": "!" * 5000 + "x1"}
    fn = put(tmp_path, "fn.json", doc)
    assert run_cli(["mbh", "--function", fn]) == 2
    err = capsys.readouterr().err
    assert "nests deeper than" in err and err.count("\n") == 1


def test_mbh_output_is_byte_identical_across_runs(tmp_path, capsys):
    fn = put(tmp_path, "fn.json", ADD33)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli(["mbh", "--function", fn, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# -- infer ---------------------------------------------------------------------


def test_infer_marginal_matches_library(tmp_path, capsys):
    net_path = put(tmp_path, "net.json", NET)
    ev_path = put(tmp_path, "ev.json", {"alarm": [0, 1]})
    assert run_cli(["infer", "--net", net_path, "--evidence", ev_path,
                    "--query", "a"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variables"] == ["a"]
    assert doc["states"] == [["no", "yes"]]
    net = parse_network(json.dumps(NET))
    want = variable_elimination(net, Evidence({3: (0, 1)}), [0])
    assert np.allclose(doc["values"], want.values)
    assert abs(sum(doc["values"]) - 1.0) < 1e-12


@pytest.mark.parametrize("transform", ["none", "divorce", "factorize"])
def test_infer_transforms_agree(tmp_path, capsys, transform):
    net_path = put(tmp_path, "net.json", NET)
    ev_path = put(tmp_path, "ev.json", {"alarm": [0, 1]})
    assert run_cli(["infer", "--net", net_path, "--evidence", ev_path,
                    "--query", "a", "b", "--transform", transform]) == 0
    doc = json.loads(capsys.readouterr().out)
    net = parse_network(json.dumps(NET))
    want = variable_elimination(net, Evidence({3: (0, 1)}), [0, 1])
    assert np.abs(np.asarray(doc["values"]) - want.flat()).max() < 1e-9


def test_infer_impossible_evidence_is_input_error(tmp_path, capsys):
    net_path = put(tmp_path, "net.json", NET)
    ev_path = put(tmp_path, "ev.json", {"alarm": [0, 0]})
    assert run_cli(["infer", "--net", net_path, "--evidence", ev_path,
                    "--query", "a"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "table, excerpt",
    [
        ([float("nan"), 0.6], "non-finite"),
        ([-0.2, 1.2], "negative"),
        ([0.5, 0.6], "summing to 1.1"),
    ],
)
def test_infer_invalid_cpt_is_input_error(tmp_path, capsys, table, excerpt):
    doc = json.loads(json.dumps(NET))
    doc["cpts"][0]["table"] = table
    net_path = put(tmp_path, "net.json", doc)
    assert run_cli(["infer", "--net", net_path, "--query", "alarm"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert excerpt in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "potentials, query, code, excerpt",
    [
        ([{"scope": [0, 1], "table": [float("nan"), 1, 1, 1]}], "a", 2, "non-finite entry"),
        ([{"scope": [0, 1], "table": [float("inf"), 1, 1, 1]}], "a", 2, "non-finite entry"),
        # finite, but their product overflows
        ([{"scope": [0, 1], "table": [1e308, 1e308, 1, 1]},
          {"scope": [0], "table": [1e308, 1]}], "a", 4, "sums to inf"),
        # each entry of the marginal finite, their sum not
        ([{"scope": [4], "table": [1e308, 1e308]}], "free", 4, "sums to inf"),
    ],
    ids=["nan", "infinity", "overflow", "overflowing-sum"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_infer_non_finite_numbers_never_reach_stdout(
    tmp_path, capsys, potentials, query, code, excerpt
):
    doc = json.loads(json.dumps(NET))
    # a variable that only potentials hold, so nothing normalizes it
    doc["variables"].append({"id": 4, "name": "free", "states": ["no", "yes"]})
    doc["potentials"] = potentials + [{"scope": [4], "table": [1, 1]}]
    net_path = put(tmp_path, "net.json", doc)
    assert run_cli(["infer", "--net", net_path, "--query", query]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert excerpt in captured.err and captured.err.count("\n") == 1


def test_infer_non_integer_id_is_input_error(tmp_path, capsys):
    doc = json.loads(json.dumps(NET))
    doc["variables"][0]["id"] = "x"
    net_path = put(tmp_path, "net.json", doc)
    assert run_cli(["infer", "--net", net_path, "--query", "alarm"]) == 2
    err = capsys.readouterr().err
    assert "variable id must be an integer" in err and err.count("\n") == 1


def test_infer_unknown_query_name_is_input_error(tmp_path, capsys):
    net_path = put(tmp_path, "net.json", NET)
    assert run_cli(["infer", "--net", net_path, "--query", "zz"]) == 2


def with_entry(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


FORMULA_NET = with_entry(
    NET, ("deterministic", 0, "function"), {"type": "formula", "expr": "a & b"}
)

# (field, file, path to the entry, wrong value, expected message)
WRONG_TYPE_CASES = [
    ("parents", NET, ("cpts", 2, "parents"), 5, "cpt parents must be a list"),
    ("variables", NET, ("variables",), 5, "network variables must be a list"),
    ("states", NET, ("variables", 0, "states"), "ny", "variable states must be a list"),
    ("table", NET, ("cpts", 0, "table"), 1, "cpt table must be a list"),
    ("outputs", NET, ("deterministic", 0, "function", "outputs"), 5,
     "outputs must be a list"),
    ("formula", FORMULA_NET, ("deterministic", 0, "function", "expr"), 5,
     "formula must be a string"),
    ("base expression", BOOL_BASE, ("expressions", "1"), 2,
     "expression for state 1 must be a string"),
]


@pytest.mark.parametrize(
    "field, doc, path, value, message", WRONG_TYPE_CASES, ids=[c[0] for c in WRONG_TYPE_CASES]
)
def test_wrong_json_type_is_input_error(tmp_path, capsys, field, doc, path, value, message):
    bad = put(tmp_path, "bad.json", with_entry(doc, path, value))
    if doc is BOOL_BASE:
        argv = ["factorize", "--function", put(tmp_path, "fn.json", AND2), "--base", bad]
    else:
        argv = ["infer", "--net", bad, "--query", "alarm"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


def test_mbh_oversized_card_is_input_error(tmp_path, capsys):
    fn_path = put(tmp_path, "fn.json", with_entry(AND2, ("child", "card"), 10**30))
    assert run_cli(["mbh", "--function", fn_path]) == 2
    err = capsys.readouterr().err
    assert "more than" in err and err.count("\n") == 1


# -- cliques -------------------------------------------------------------------


def test_cliques_report_and_determinism(tmp_path, capsys):
    net_path = put(tmp_path, "net.json", NET)
    outs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        assert run_cli(["cliques", "--net", net_path, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    text = outs[0].decode()
    assert "total_clique_size:" in text
    assert "max_clique_states:" in text
    assert "elimination_order:" in text


def test_cliques_transform_changes_the_graph(tmp_path, capsys):
    net_path = put(tmp_path, "net.json", NET)
    totals = {}
    for transform in ("none", "factorize"):
        assert run_cli(["cliques", "--net", net_path,
                        "--transform", transform]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("total_clique_size")][0]
        totals[transform] = int(line.split()[-1])
    assert totals["factorize"] != totals["none"]


# -- bench cat -----------------------------------------------------------------


def test_bench_cat_csv(tmp_path, capsys):
    out = str(tmp_path / "report.csv")
    assert run_cli(["bench", "cat", "--seed", "2", "--tasks", "2",
                    "--orderings", "all", "--out", out]) == 0
    err = capsys.readouterr().err
    assert "orderings=2" in err
    lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert lines[0] == "method,r,avg_total_clique_size,min,max"
    assert len(lines) == 1 + 3 * 3  # three methods, r in {0, 1, 2}


def test_bench_cat_is_byte_identical_across_runs(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run_cli(["bench", "cat", "--seed", "3", "--tasks", "3",
                        "--orderings", "sample:5", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# -- the internal-failure exit -------------------------------------------------


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 128. GiB for an array"),
         "error: Unable to allocate 128. GiB for an array\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
    ids=["numpy", "bare"],
)
def test_out_of_memory_exits_three(tmp_path, capsys, monkeypatch, error, line):
    import factorbn.cli as cli

    def no_memory(*args):
        raise error

    monkeypatch.setattr(cli, "posterior_by_name", no_memory)
    net_path = put(tmp_path, "net.json", NET)
    assert cli.run_cli(["infer", "--net", net_path, "--query", "a"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line


def test_internal_consistency_failure_exits_four(tmp_path, capsys, monkeypatch):
    import factorbn.cli as cli

    def boom(args):
        raise InternalConsistencyError("self-check failed")

    monkeypatch.setattr(cli, "_cmd_factorize", boom)
    fn = put(tmp_path, "fn.json", AND2)
    assert cli.run_cli(["factorize", "--function", fn, "--trivial"]) == 4
    assert "self-check failed" in capsys.readouterr().err
