"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 invalid input (parse or
validation failure, including evidence with zero probability), 3
resource budget exhausted or out of memory, 4 internal consistency
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .benchcat import (
    StudentModelSpec,
    canonical_tasks,
    generate_student_model,
    report_to_csv,
    run_clique_benchmark,
)
from .cliques import moralize_and_triangulate
from .errors import (
    BudgetExceededError,
    IllegalExpressionError,
    InternalConsistencyError,
    ValidationError,
    ZeroNormalizerError,
)
from .factorization import build_factorized_form, trivial_factorization, verify_factorization
from .fileio import (
    parse_base,
    parse_evidence,
    parse_function,
    parse_network,
    write_base,
    write_form,
)
from .inference import posterior_by_name, transform_network
from .mbh import SearchBudget, solve_mbh

TRANSFORMS = ("none", "factorize", "divorce")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from e


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _orderings_value(value: str):
    if value == "all":
        return "all"
    if value.startswith("sample:"):
        try:
            n = int(value.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad sample count in {value!r}")
        if n < 1:
            raise argparse.ArgumentTypeError("sample count must be positive")
        return n
    raise argparse.ArgumentTypeError(
        f"expected 'all' or 'sample:M', got {value!r}"
    )


def _cmd_factorize(args) -> int:
    fn = parse_function(_read(args.function))
    if args.trivial:
        form = trivial_factorization(fn)
    else:
        form = build_factorized_form(fn, parse_base(_read(args.base)))
    verdict = verify_factorization(fn, form)
    if not verdict:
        raise InternalConsistencyError(
            f"constructed form fails reconstruction at {verdict.violation}"
        )
    _emit(write_form(form), args.out)
    return 0


def _cmd_mbh(args) -> int:
    fn = parse_function(_read(args.function))
    budget = SearchBudget(
        max_rectangles=args.max_rects,
        max_base=args.max_base,
        max_closure=args.max_closure,
        wall_clock=args.time_limit,
    )
    solution = solve_mbh(fn, budget)
    s = solution.stats
    print(
        f"rectangles={solution.base.size} proved_minimal={solution.proved_minimal} "
        f"nodes={s.nodes_expanded} pruned={s.pruned} checked={s.subsets_checked} "
        f"enumerated={s.rectangles_enumerated} seconds={s.elapsed_seconds:.3f}",
        file=sys.stderr,
    )
    _emit(
        write_base(solution.base, extra={"proved_minimal": solution.proved_minimal}),
        args.out,
    )
    if s.budget_exhausted:
        print("budget exhausted: result may not be minimal", file=sys.stderr)
        return 3
    return 0


def _load_transformed(args):
    net = parse_network(_read(args.net))
    return transform_network(net, args.transform), net


def _cmd_infer(args) -> int:
    transformed, original = _load_transformed(args)
    evidence = None
    if args.evidence:
        evidence = parse_evidence(_read(args.evidence), original)
    marginal = posterior_by_name(transformed, evidence, args.query)
    names = [transformed.variables[v].name for v in marginal.scope]
    states = [list(transformed.variables[v].states) for v in marginal.scope]
    doc = {
        "variables": names,
        "states": states,
        "values": [float(x) for x in marginal.flat()],
    }
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def _cmd_cliques(args) -> int:
    transformed, _ = _load_transformed(args)
    report = moralize_and_triangulate(transformed)
    name = lambda v: transformed.variables[v].name  # noqa: E731
    sizes = report.clique_sizes()
    lines = [
        "clique: " + ",".join(name(v) for v in clique) + f" states={states}"
        for clique, states in zip(report.cliques, sizes)
    ]
    lines.append(f"max_clique_states: {max(sizes)}")
    lines.append(f"total_clique_size: {report.total}")
    lines.append(
        "elimination_order: " + ",".join(name(v) for v in report.elimination_order)
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_bench_cat(args) -> int:
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
    p.add_argument("--max-rects", type=int, default=100_000,
                   help="cap on enumerated candidate rectangles")
    p.add_argument("--max-base", type=int, default=32, help="largest base size tried")
    p.add_argument("--max-closure", type=int, default=2000,
                   help="cap on distinct sets per closure search")
    p.add_argument("--time-limit", type=float, default=None, help="wall-clock seconds")
    p.add_argument("--out", help="write the base here instead of stdout")
    p.set_defaults(func=_cmd_mbh.__name__)

    p = sub.add_parser("infer", help="posterior marginals by variable elimination")
    p.add_argument("--net", required=True, help="network file (JSON)")
    p.add_argument("--evidence", help="evidence file (JSON)")
    p.add_argument("--query", required=True, nargs="+", help="query variable names")
    p.add_argument("--transform", choices=TRANSFORMS, default="none")
    p.add_argument("--out", help="write the marginal here instead of stdout")
    p.set_defaults(func=_cmd_infer.__name__)

    p = sub.add_parser("cliques", help="triangulate and report clique sizes")
    p.add_argument("--net", required=True, help="network file (JSON)")
    p.add_argument("--transform", choices=TRANSFORMS, default="none")
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
    except (ValidationError, IllegalExpressionError, ZeroNormalizerError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BudgetExceededError, MemoryError) as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 3
    except InternalConsistencyError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_cli())
