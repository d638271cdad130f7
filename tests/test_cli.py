"""The command-line front end.

Core claims:
    - exit codes follow the documented map: 0 ok, 1 usage, 2 bad input
      (parse, validation, impossible evidence, a file that is not UTF-8
      or nests too deeply), 3 budget, 4 internal, each with one line on
      stderr
    - every emitted file re-parses with the library
    - mbh, cliques, and bench runs with the same flags are
      byte-identical
    - the factorize/infer/cliques outputs agree with calling the
      library directly
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from factorbn import (
    Evidence,
    SearchBudget,
    parse_base,
    parse_form,
    parse_network,
    variable_elimination,
)
from factorbn.cli import run_cli
from factorbn.errors import InternalConsistencyError, ValidationError
from factorbn.inference import MAX_AXES


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


@pytest.mark.parametrize("key", [" 0", "-0", "00"])
def test_factorize_base_naming_a_state_twice_is_input_error(tmp_path, capsys, key):
    # "0" and the other key are distinct JSON keys that name one child state
    fn = put(tmp_path, "fn.json", AND2)
    base = put(tmp_path, "base.json", {
        "rectangles": [[[1], [1]], [[0, 1], [0, 1]]],
        "expressions": {"0": "(- R2 R1)", "1": "R1", key: "(- R2 R1)"},
    })
    assert run_cli(["factorize", "--function", fn, "--base", base]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: base expressions name child state 0 twice\n"


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
        "rectangles": [[[1], [1]], [[0, 1], [0, 1]]],
        "expressions": {"0": "(- R2 R1)", "1": expr},
    })
    assert run_cli(["factorize", "--function", fn, "--base", base]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ILLEGAL_UNION" in captured.err and captured.err.count("\n") == 1


def test_factorize_accepts_a_deeply_nested_legal_base(tmp_path, capsys):
    # X -> (- (+ X R3) R3) keeps the cell (1, 1) and nests two levels deeper
    fn = put(tmp_path, "fn.json", AND2)
    expr = "R1"
    for _ in range(3000):
        expr = f"(- (+ {expr} R3) R3)"
    base = put(tmp_path, "base.json", {
        "rectangles": [[[1], [1]], [[0, 1], [0, 1]], [[0], [0]]],
        "expressions": {"0": "(- R2 R1)", "1": expr},
    })
    assert run_cli(["factorize", "--function", fn, "--base", base]) == 0
    form = parse_form(capsys.readouterr().out)
    assert form.h.tolist() == [[-1, 1, 0], [1, 0, 0]]


def test_capped_mbh_base_factorizes(tmp_path, capsys):
    # parity on 12 binary parents: 3^12 candidates exceed the rectangle
    # cap, so mbh answers with the greedy cover, 2048 one-cell parts per
    # level set, and factorize must accept what mbh wrote
    n = 12
    fn = put(tmp_path, "par12.json", {
        "parents": [{"name": f"x{i}", "card": 2} for i in range(n)],
        "child": {"name": "y", "card": 2},
        "function": {"type": "table",
                     "outputs": [bin(j).count("1") % 2 for j in range(1 << n)]},
    })
    base = str(tmp_path / "par12.base")
    assert run_cli(["mbh", "--function", fn, "--out", base]) == 3
    assert "cap=rectangles" in capsys.readouterr().err
    assert run_cli(["factorize", "--function", fn, "--base", base]) == 0
    assert parse_form(capsys.readouterr().out).n_hidden == 1 << n


def test_unreadable_file_is_input_error(tmp_path, capsys):
    assert run_cli(["factorize", "--function",
                    str(tmp_path / "absent.json"), "--trivial"]) == 2


def test_broken_json_is_input_error(tmp_path, capsys):
    p = tmp_path / "fn.json"
    p.write_text("{nope")
    assert run_cli(["factorize", "--function", str(p), "--trivial"]) == 2


UNREADABLE = {"not-utf8": b"\xff\xfe", "nested-lists": b"[" * 200_000,
              "nested-objects": b'{"a":' * 100_000}


@pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
@pytest.mark.parametrize("argv", [
    ["factorize", "--function", "BAD", "--trivial"],
    ["factorize", "--function", "FN", "--base", "BAD"],
    ["mbh", "--function", "BAD"],
    ["infer", "--net", "BAD", "--query", "a"],
    ["infer", "--net", "NET", "--evidence", "BAD", "--query", "a"],
    ["cliques", "--net", "BAD"],
], ids=["function", "base", "mbh", "net", "evidence", "cliques"])
def test_undecodable_or_too_deep_file_is_input_error(tmp_path, capsys, content, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    files = {"BAD": str(bad), "FN": put(tmp_path, "fn.json", AND2),
             "NET": put(tmp_path, "net.json", NET)}
    assert run_cli([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "unexpected" not in captured.err


def test_repeated_function_name_is_input_error(tmp_path, capsys):
    fn = put(tmp_path, "fn.json", dict(AND2, parents=[{"name": "x1", "card": 2}] * 2))
    assert run_cli(["factorize", "--function", fn, "--trivial"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: function file names 'x1' twice\n"


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_out_is_input_error(tmp_path, capsys, where):
    net_path = put(tmp_path, "net.json", NET)
    out = tmp_path / "nope" / "x.txt" if where == "missing directory" else tmp_path
    assert run_cli(["cliques", "--net", net_path, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: cannot write {out}:")


def test_mbh_unwritable_out_prints_only_the_error(tmp_path, capsys):
    fn = put(tmp_path, "fn.json", AND2)
    out = tmp_path / "nope" / "base.json"
    assert run_cli(["mbh", "--function", fn, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: cannot write {out}:")


def run_module(*argv):
    """``python -m factorbn.cli`` in a fresh interpreter, on this
    checkout's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "factorbn.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )


def test_python_dash_m_runs_the_cli(tmp_path):
    fn = put(tmp_path, "fn.json", AND2)
    done = run_module("mbh", "--function", fn)
    assert done.returncode == 0, done.stderr
    assert done.stderr.startswith("rectangles=")
    assert parse_base(done.stdout).size > 0
    out = tmp_path / "nope" / "base.json"
    done = run_module("mbh", "--function", fn, "--out", str(out))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines()[-1].startswith(f"error: cannot write {out}:")


# -- mbh -----------------------------------------------------------------------


def test_mbh_finds_and_proves_the_add_base(tmp_path, capsys):
    fn = put(tmp_path, "fn.json", ADD33)
    out = str(tmp_path / "base.json")
    assert run_cli(["mbh", "--function", fn, "--out", out]) == 0
    err = capsys.readouterr().err
    assert "rectangles=6" in err
    assert "proved_minimal=True" in err
    # the atom stage rejected 7 of the 8 subsets checked; the gap and the
    # cap come last
    assert " checked=8 " in err and err.rstrip().endswith(" impure=7 gap=0 cap=none")
    doc = json.loads((tmp_path / "base.json").read_text())
    assert doc["proved_minimal"] is True
    base = parse_base((tmp_path / "base.json").read_text())
    assert base.size == 6


def test_mbh_defaults_are_the_search_budget(tmp_path, capsys, monkeypatch):
    # the limits are stated once: with no flags, mbh searches under the
    # default SearchBudget
    import factorbn.cli as cli

    budgets = []
    real = cli.solve_mbh

    def recording(fn, budget):
        budgets.append(budget)
        return real(fn, budget)

    monkeypatch.setattr(cli, "solve_mbh", recording)
    assert cli.run_cli(["mbh", "--function", put(tmp_path, "fn.json", AND2)]) == 0
    assert budgets == [SearchBudget()]


def test_mbh_rectangle_cap_exits_three(tmp_path, capsys):
    # the candidate pool is out of reach: the greedy cover is still emitted
    fn = put(tmp_path, "fn.json", BIG)
    assert run_cli(["mbh", "--function", fn, "--max-rects", "10"]) == 3
    out, err = capsys.readouterr()
    assert json.loads(out)["proved_minimal"] is False
    parse_base(out)
    # one stderr line, the stats line, which says why: not proved, and the cap
    (stats,) = err.splitlines()
    assert stats.startswith("rectangles=") and "enumerated=0" in stats
    assert " proved_minimal=False " in stats and stats.endswith(" cap=rectangles")


def test_mbh_base_on_the_bound_exits_zero_under_a_cap(tmp_path, capsys):
    # y = x1: one settled set caps every closure search, but the greedy
    # cover meets the two-level-set bound, so the cap leaves nothing unproved
    fn = put(tmp_path, "fn.json", dict(AND2, function={"type": "table",
                                                       "outputs": [0, 0, 1, 1]}))
    assert run_cli(["mbh", "--function", fn, "--max-closure", "1"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["proved_minimal"] is True
    (stats,) = err.splitlines()
    assert "proved_minimal=True" in stats and stats.endswith(" cap=none")


def test_mbh_has_no_base_size_cap(tmp_path, capsys):
    # a cap on the base size bounds no resource, so there is no flag for it
    fn = put(tmp_path, "fn.json", AND2)
    assert run_cli(["mbh", "--function", fn, "--max-base", "4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--max-base" in err


def test_mbh_closure_cap_still_emits_a_base(tmp_path, capsys):
    fn = put(tmp_path, "fn.json", ADD33)
    out = str(tmp_path / "base.json")
    assert run_cli(["mbh", "--function", fn, "--max-closure", "2",
                    "--out", out]) == 3
    (stats,) = capsys.readouterr().err.splitlines()
    assert " proved_minimal=False " in stats and stats.endswith(" cap=closure")
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


def test_mbh_deeply_negated_formula_solves(tmp_path, capsys):
    doc = json.loads(json.dumps(AND2))
    doc["function"] = {"type": "formula", "expr": "!" * 5000 + "x1"}
    fn = put(tmp_path, "fn.json", doc)
    assert run_cli(["mbh", "--function", fn]) == 0
    captured = capsys.readouterr()
    assert "proved_minimal=True" in captured.err
    assert parse_base(captured.out).size == 2


@pytest.mark.parametrize("limit", ["nan", "inf", "0", "-1"])
def test_mbh_time_limit_must_be_positive_and_finite(tmp_path, capsys, limit):
    fn = put(tmp_path, "fn.json", ADD33)
    assert run_cli(["mbh", "--function", fn, "--time-limit", limit]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: wall_clock must be positive and finite when set"
    ]


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


@pytest.mark.parametrize("transform", ["none", "divorce", "factorize"])
def test_infer_on_sixty_one_state_variables(tmp_path, capsys, transform):
    # more one-state variables in one potential than an einsum has labels
    n = 60
    net_path = put(tmp_path, "net.json", {
        "variables": [{"id": i, "name": f"v{i}", "states": ["only"]} for i in range(n)],
        "cpts": [{"child": i, "parents": [], "table": [1.0]} for i in range(n)],
        "potentials": [{"scope": list(range(n)), "table": [1.0]}],
    })
    assert run_cli(["infer", "--net", net_path, "--query", "v0",
                    "--transform", transform]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {
        "variables": ["v0"], "states": [["only"]], "values": [1.0]
    }
    assert captured.err == ""


def test_infer_query_wider_than_an_einsum_is_input_error(tmp_path, capsys):
    # one-state roots queried together: each takes an einsum label, and
    # one einsum takes 52 (32 before numpy 2.0); one more is an input
    # error naming the limit
    width = min(52, MAX_AXES)
    for n, code in ((width, 0), (width + 1, 2)):
        names = [f"v{i}" for i in range(n)]
        net_path = put(tmp_path, "net.json", {
            "variables": [{"id": i, "name": name, "states": ["only"]}
                          for i, name in enumerate(names)],
            "cpts": [{"child": i, "parents": [], "table": [1.0]} for i in range(n)],
        })
        assert run_cli(["infer", "--net", net_path, "--query", *names]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert f"one einsum takes labels below 52, at most {width} of them" in captured.err
            assert captured.err.count("\n") == 1
        else:
            assert json.loads(captured.out)["values"] == [1.0]
            assert captured.err == ""


def test_infer_rejects_a_hidden_variable(tmp_path, capsys):
    # under factorize B_both indexes the rectangles of a base and has no
    # posterior: a query on it, or a finding (one state or both), is an
    # input error that names it
    net_path = put(tmp_path, "net.json", NET)
    for query, finding in (("B_both", None), ("alarm", [1, 0]), ("alarm", [1, 1])):
        args = ["infer", "--net", net_path, "--query", query, "--transform", "factorize"]
        if finding:
            args += ["--evidence", put(tmp_path, "ev.json", {"B_both": finding})]
        assert run_cli(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 'B_both' is the hidden variable")
        assert captured.err.count("\n") == 1
    # the untransformed network has no such variable
    ev_path = put(tmp_path, "ev.json", {"B_both": [1, 0]})
    assert run_cli(["infer", "--net", net_path, "--evidence", ev_path,
                    "--query", "alarm"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown variable name 'B_both'" in captured.err
    assert captured.err.count("\n") == 1


def test_infer_impossible_evidence_is_input_error(tmp_path, capsys):
    net_path = put(tmp_path, "net.json", NET)
    ev_path = put(tmp_path, "ev.json", {"alarm": [0, 0]})
    assert run_cli(["infer", "--net", net_path, "--evidence", ev_path,
                    "--query", "a"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("transform", ["none", "factorize"])
def test_infer_wrong_length_evidence_is_input_error(tmp_path, capsys, transform):
    net_path = put(tmp_path, "net.json", NET)
    ev_path = put(tmp_path, "ev.json", {"alarm": [0, 1, 1]})
    assert run_cli(["infer", "--net", net_path, "--evidence", ev_path,
                    "--query", "a", "--transform", transform]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: evidence vector for 'alarm' has length 3, expected 2\n"


@pytest.mark.parametrize("transform", ["none", "factorize"])
def test_infer_non_binary_evidence_is_input_error(tmp_path, capsys, transform):
    # the 0/1 rule is checked by inference, which names the variable
    net_path = put(tmp_path, "net.json", NET)
    ev_path = put(tmp_path, "ev.json", {"alarm": [0, 2]})
    assert run_cli(["infer", "--net", net_path, "--evidence", ev_path,
                    "--query", "a", "--transform", transform]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: evidence vector for 'alarm' must be 0/1\n"


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


# a CPT parent with no table of its own: "a" heads no node and appears in
# no potential, while the network does carry a potential (over "b")
TABLELESS_PARENT_NET = {
    "variables": [
        {"id": 0, "name": "a", "states": ["no", "yes"]},
        {"id": 1, "name": "b", "states": ["no", "yes"]},
        {"id": 2, "name": "alarm", "states": ["no", "yes"]},
    ],
    "cpts": [
        {"child": 1, "parents": [], "table": [0.7, 0.3]},
        {"child": 2, "parents": [0], "table": [0.9, 0.1, 0.2, 0.8]},
    ],
    "potentials": [{"scope": [1], "table": [1.0, 2.0]}],
}


def test_infer_negative_posterior_exits_four(tmp_path, capsys):
    # a free potential's negative entry drives a posterior entry below
    # -1e-9: an internal consistency failure, never a value on stdout
    net = dict(NET, potentials=[{"scope": [0], "table": [-1.0, 1.0]}])
    assert run_cli(["infer", "--net", put(tmp_path, "net.json", net), "--query", "a"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "below tolerance" in captured.err and captured.err.count("\n") == 1


def test_table_less_cpt_parent_is_rejected_at_load(tmp_path, capsys):
    """Every variable heads a node or appears in a potential, whether or
    not the network carries potentials: a table-less CPT parent is an
    input error on every query, never a uniform prior or exit 4."""
    message = "variables [0] head no node and appear in no potential"
    with pytest.raises(ValidationError) as raised:
        parse_network(json.dumps(TABLELESS_PARENT_NET))
    assert str(raised.value) == message
    net_path = put(tmp_path, "net.json", TABLELESS_PARENT_NET)
    for query in ("a", "b", "alarm"):
        assert run_cli(["infer", "--net", net_path, "--query", query]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and captured.err.count("\n") == 1


def test_infer_non_integer_id_is_input_error(tmp_path, capsys):
    doc = json.loads(json.dumps(NET))
    doc["variables"][0]["id"] = "x"
    net_path = put(tmp_path, "net.json", doc)
    assert run_cli(["infer", "--net", net_path, "--query", "alarm"]) == 2
    err = capsys.readouterr().err
    assert "variable id must be an integer" in err and err.count("\n") == 1


@pytest.mark.parametrize("case", ["id", "card", "evidence"])
def test_json_booleans_are_input_errors(tmp_path, capsys, case):
    # each parsed as 0, 1 or 1 before: variable 0, a one-state parent, a finding
    if case == "id":
        doc = with_entry(NET, ("variables", 0, "id"), False)
        doc["cpts"][0]["child"] = False
        argv = ["infer", "--net", put(tmp_path, "net.json", doc), "--query", "alarm"]
        message = "variable id must be an integer, got False"
    elif case == "card":
        doc = with_entry(AND2, ("parents", 1, "card"), True)
        doc["function"]["outputs"] = [0, 1]
        argv = ["mbh", "--function", put(tmp_path, "fn.json", doc)]
        message = "parent 1 card must be an integer, got True"
    else:
        argv = ["infer", "--net", put(tmp_path, "net.json", NET), "--query", "alarm",
                "--evidence", put(tmp_path, "ev.json", {"a": [False, True]})]
        message = "evidence for 'a' must be an integer, got False"
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("transform", ["none", "factorize", "divorce"])
def test_cliques_of_an_empty_network_are_zero(tmp_path, capsys, transform):
    empty = {"variables": [], "cpts": [], "deterministic": [], "potentials": []}
    net_path = put(tmp_path, "net.json", empty)
    assert run_cli(["cliques", "--net", net_path, "--transform", transform]) == 0
    captured = capsys.readouterr()
    assert captured.out == (
        "max_clique_states: 0\ntotal_clique_size: 0\nelimination_order: \n"
    )
    assert captured.err == ""


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


def test_bench_cat_checks_the_task_count_before_drawing_tasks(monkeypatch, capsys):
    drawn = []
    monkeypatch.setattr(
        "factorbn.cli.canonical_tasks", lambda *args: drawn.append(args) or []
    )
    assert run_cli(["bench", "cat", "--seed", "1", "--tasks", "3000000"]) == 2
    captured = capsys.readouterr()
    assert drawn == [] and captured.out == ""
    assert captured.err == "error: orderings='all' supports at most 8 tasks; sample instead\n"


@pytest.mark.parametrize(
    "value, code, message",
    [("sample:0", 2, "error: ordering sample count must be positive\n"),
     ("sample:-2", 2, "error: ordering sample count must be positive\n"),
     ("sample:x", 1, "bad sample count in 'sample:x'")],
    ids=["zero", "negative", "not-a-number"],
)
def test_sample_count_syntax_is_usage_and_its_range_input(capsys, value, code, message):
    # the parser reads the syntax, the benchmark checks the range, as for
    # --max-rects
    assert run_cli(["bench", "cat", "--seed", "1", "--tasks", "3",
                    "--orderings", value]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    if code == 2:
        assert captured.err == message
    else:  # argparse's usage lines, then the error
        assert message in captured.err


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

    monkeypatch.setattr(cli, "variable_elimination", no_memory)
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


def test_unexpected_error_exits_four_with_one_line(tmp_path, capsys, monkeypatch):
    import factorbn.cli as cli

    def defect(args):
        raise RuntimeError("a defect\nover two lines")

    monkeypatch.setattr(cli, "_cmd_factorize", defect)
    fn = put(tmp_path, "fn.json", AND2)
    assert cli.run_cli(["factorize", "--function", fn, "--trivial"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unexpected RuntimeError: a defect over two lines\n"
