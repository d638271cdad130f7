"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 invalid input (a
``ValidationError``: a parse or validation failure, including evidence
with zero probability), 3 a resource budget ran out or out of memory,
4 internal failure (a failed self-check, or any other unexpected error).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .benchcat import (
    StudentModelSpec,
    _check_task_count,
    canonical_tasks,
    generate_student_model,
    report_to_csv,
    run_clique_benchmark,
)
from .cliques import moralize_and_triangulate
from .errors import BudgetExceededError, InternalConsistencyError, ValidationError
from .factorization import build_factorized_form, trivial_factorization
from .fileio import (
    _dumps,
    parse_base,
    parse_evidence,
    parse_function,
    parse_network,
    write_base,
    write_form,
)
from .inference import METHODS, transform_network, variable_elimination
from .mbh import SearchBudget, solve_mbh


def _read(path: str) -> str:
    """The UTF-8 text of a file; read as bytes and decoded in one call,
    which skips the text layer's set-up."""
    try:
        return Path(path).read_bytes().decode()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read {path}: {e}") from e


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text)
        except OSError as e:
            raise ValidationError(f"cannot write {out}: {e}") from e
    else:
        sys.stdout.write(text)


def _orderings_value(value: str):
    """The syntax of ``--orderings``; the benchmark checks the count."""
    if value == "all":
        return "all"
    if value.startswith("sample:"):
        try:
            return int(value.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad sample count in {value!r}")
    raise argparse.ArgumentTypeError(
        f"expected 'all' or 'sample:M', got {value!r}"
    )


def _cmd_factorize(args) -> int:
    fn = parse_function(_read(args.function))
    if args.trivial:
        form = trivial_factorization(fn)
    else:
        form = build_factorized_form(fn, parse_base(_read(args.base)))
    _emit(write_form(form), args.out)
    return 0


def _cmd_mbh(args) -> int:
    fn = parse_function(_read(args.function))
    budget = SearchBudget(
        max_rectangles=args.max_rects,
        max_closure=args.max_closure,
        wall_clock=args.time_limit,
    )
    solution = solve_mbh(fn, budget)
    _emit(
        write_base(solution.base, extra={"proved_minimal": solution.proved_minimal}),
        args.out,
    )
    s = solution.stats
    print(
        f"rectangles={solution.base.size} proved_minimal={solution.proved_minimal} "
        f"nodes={s.nodes_expanded} pruned={s.pruned} checked={s.subsets_checked} "
        f"enumerated={s.rectangles_enumerated} seconds={s.elapsed_seconds:.3f} "
        f"impure={s.impure} gap={s.gap} cap={s.cap}",
        file=sys.stderr,
    )
    return 0 if solution.proved_minimal else 3


def _load_transformed(args):
    return transform_network(parse_network(_read(args.net)), args.transform)


def _cmd_infer(args) -> int:
    transformed = _load_transformed(args)
    evidence = None
    if args.evidence:
        # the rewrite keeps every original name and id, so evidence may
        # name what a query may name: a divorce intermediate, but not a
        # star's hidden variable, which inference rejects in either place
        evidence = parse_evidence(_read(args.evidence), transformed)
    query = [transformed.variable_by_name(n).id for n in args.query]
    marginal = variable_elimination(transformed, evidence, query)
    names = [transformed.variables[v].name for v in marginal.scope]
    states = [list(transformed.variables[v].states) for v in marginal.scope]
    doc = {
        "variables": names,
        "states": states,
        "values": [float(x) for x in marginal.flat()],
    }
    _emit(_dumps(doc), args.out)
    return 0


def _cmd_cliques(args) -> int:
    transformed = _load_transformed(args)
    report = moralize_and_triangulate(transformed)
    name = lambda v: transformed.variables[v].name  # noqa: E731
    lines = [
        "clique: " + ",".join(name(v) for v in clique) + f" states={states}"
        for clique, states in zip(report.cliques, report.sizes)
    ]
    lines.append(f"max_clique_states: {report.max_clique_size}")
    lines.append(f"total_clique_size: {report.total}")
    lines.append(
        "elimination_order: " + ",".join(name(v) for v in report.elimination_order)
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bench_cat(args) -> int:
    _check_task_count(args.tasks, args.orderings)  # before any task is drawn
    spec = StudentModelSpec(seed=args.seed)
    student = generate_student_model(spec)
    tasks = canonical_tasks(spec, args.tasks, args.seed)
    report = run_clique_benchmark(
        student, tasks, orderings=args.orderings, seed=args.seed
    )
    print(
        f"orderings={report.orderings_used} runtime_seconds={report.runtime_seconds:.3f}",
        file=sys.stderr,
    )
    _emit(report_to_csv(report), args.out)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every ``run_cli`` call can share it.  Each subcommand
    names its handler, which ``run_cli`` looks up when it runs."""
    parser = argparse.ArgumentParser(
        prog="factorbn",
        description="Factorize deterministic tables and measure inference cost.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="turn a base into explicit h/g tables")
    p.add_argument("--function", required=True, help="function file (JSON)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--base", help="base file (JSON)")
    group.add_argument(
        "--trivial", action="store_true",
        help="one hidden state per configuration instead of a base",
    )
    p.add_argument("--out", help="write the form here instead of stdout")
    p.set_defaults(func=_cmd_factorize.__name__)

    p = sub.add_parser("mbh", help="search for a minimal hyperrectangle base")
    p.add_argument("--function", required=True, help="function file (JSON)")
    budget = SearchBudget()
    p.add_argument("--max-rects", type=int, default=budget.max_rectangles,
                   help="cap on enumerated candidate rectangles")
    p.add_argument("--max-closure", type=int, default=budget.max_closure,
                   help="cap on distinct sets per closure search")
    p.add_argument("--time-limit", type=float, default=None, help="wall-clock seconds")
    p.add_argument("--out", help="write the base here instead of stdout")
    p.set_defaults(func=_cmd_mbh.__name__)

    p = sub.add_parser("infer", help="posterior marginals by variable elimination")
    p.add_argument("--net", required=True, help="network file (JSON)")
    p.add_argument("--evidence", help="evidence file (JSON)")
    p.add_argument("--query", required=True, nargs="+", help="query variable names")
    p.add_argument("--transform", choices=METHODS, default="none")
    p.add_argument("--out", help="write the marginal here instead of stdout")
    p.set_defaults(func=_cmd_infer.__name__)

    p = sub.add_parser("cliques", help="triangulate and report clique sizes")
    p.add_argument("--net", required=True, help="network file (JSON)")
    p.add_argument("--transform", choices=METHODS, default="none")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_cliques.__name__)

    p = sub.add_parser("bench", help="benchmarks")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    c = bench_sub.add_parser("cat", help="adaptive-testing clique benchmark")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--tasks", type=int, required=True, help="number of tasks")
    c.add_argument("--orderings", type=_orderings_value, default="all",
                   help="'all' or 'sample:M'")
    c.add_argument("--out", help="write the CSV here instead of stdout")
    c.set_defaults(func=_cmd_bench_cat.__name__)

    return parser


def run_cli(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return globals()[args.func](args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BudgetExceededError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3
    except InternalConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # a defect still ends in one line, not a traceback
        detail = " ".join(str(e).split())
        print(f"error: unexpected {type(e).__name__}: {detail}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
