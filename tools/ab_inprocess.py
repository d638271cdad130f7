"""Time two checkouts' factorbn side by side in one process.

    python3 tools/ab_inprocess.py PARENT CHANGE --workload cat-session --seed 1 --passes 11

PARENT and CHANGE are checkout roots (each with ``src/factorbn`` and
``perfbench/workloads.py``); the same root twice is an A/A control.
Each side imports its own ``factorbn`` and its own perfbench workloads
module, whose set-up functions build the operations, read only: the
``cat-session`` queries (``--sessions`` sessions, 24 as in a 40 s
perfbench run) or the ``mbh-suite`` calls.  One untimed pass per side
fills the lazy caches (each network's layout).  Then the two sides run
interleaved passes over every operation, the side that goes first
alternating, with each operation timed on its own; with
``--reference`` perfbench's reference computation runs before each one,
as in perfbench's passes, which leaves colder caches than a tight loop.

Printed per side: the median pass time and the p50 over operations of
each operation's median time, as perfbench's ``latency_ms_p50`` takes
it.  Then the per-pass ratio CHANGE / PARENT of the pass times, as a
median with its quartiles.
"""

from __future__ import annotations

import os

# One thread for numpy and BLAS, as in perfbench, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

OWN = ("factorbn", "workloads", "reference")  # the names each side imports afresh


def _owned(name: str) -> bool:
    return name.split(".")[0] in OWN


def load_workloads(root: Path):
    """``root``'s perfbench workloads module, bound to ``root``'s factorbn.

    The side's modules are dropped from ``sys.modules`` once imported, so
    the next side imports its own; each keeps the modules it bound."""
    saved = {k: sys.modules.pop(k) for k in [k for k in sys.modules if _owned(k)]}
    paths = [str(root / "src"), str(root / "perfbench")]
    sys.path[:0] = paths
    try:
        return importlib.import_module("workloads")
    finally:
        del sys.path[:len(paths)]
        for k in [k for k in sys.modules if _owned(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


def session_ops(workloads, seed: int, sessions: int, workdir: Path):
    """Every cat-session query, in the order and with the methods perfbench runs."""
    inputs = workloads.setup_session(seed, sessions, workdir)
    ve = workloads.inference.variable_elimination
    ops = []
    for k, j in inputs.order:
        sess = inputs.sessions[k]
        evidence, skill = sess.queries[j]
        for m in workloads.METHODS:
            ops.append((ve, (sess.nets[m], evidence, [skill])))
    return ops


def mbh_ops(workloads, seed: int, sessions: int, workdir: Path):
    """Every mbh-suite call, as perfbench makes it, writing into ``workdir``."""
    ops = []
    for case in workloads.setup_mbh(seed, 0, workdir):
        argv = ["mbh", "--function", str(case.path), "--out", str(case.path.with_suffix(".base"))]
        ops.append((workloads.call_cli, (argv,)))
    return ops


BUILD = {"cat-session": session_ops, "mbh-suite": mbh_ops}


def one_pass(ops, times: list[list[float]], reference=None) -> float:
    """Run every operation once, each after ``reference()`` if given;
    appends each one's seconds, returns the sum."""
    clock = time.perf_counter
    total = 0.0
    for (fn, args), samples in zip(ops, times):
        if reference is not None:
            reference()
        t0 = clock()
        fn(*args)
        dt = clock() - t0
        samples.append(dt)
        total += dt
    return total


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=sorted(BUILD), default="cat-session")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=11)
    parser.add_argument("--sessions", type=int, default=24)
    parser.add_argument("--reference", action="store_true",
                        help="run perfbench's reference computation before each operation, "
                        "as its passes do, so that each starts with the caches it would find")
    args = parser.parse_args(argv)
    roots = [args.parent.resolve(), args.change.resolve()]
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides, references = [], []
        for i, root in enumerate(roots):
            workdir = Path(tmp) / f"side{i}"
            workdir.mkdir()
            workloads = load_workloads(root)
            sides.append(BUILD[args.workload](workloads, args.seed, args.sessions, workdir))
            references.append(workloads.reference_ms if args.reference else None)
        if len(sides[0]) != len(sides[1]):
            raise SystemExit("the two sides built different operation counts")
        times = [[[] for _ in ops] for ops in sides]
        for ops in sides:  # warm-up, untimed
            one_pass(ops, [[] for _ in ops])
        totals: list[list[float]] = [[], []]
        for p in range(args.passes):
            for s in ((0, 1) if p % 2 == 0 else (1, 0)):
                totals[s].append(one_pass(sides[s], times[s], references[s]))
    print(f"workload {args.workload} seed {args.seed} operations {len(sides[0])} "
          f"passes {args.passes} reference {int(args.reference)}")
    for name, root, tot, per_op in zip(("parent", "change"), roots, totals, times):
        p50 = statistics.median(statistics.median(t) for t in per_op)
        print(f"{name:6} {root}: pass median {statistics.median(tot) * 1e3:.2f} ms, "
              f"op p50 {p50 * 1e6:.1f} us")
    ratios = [c / p for p, c in zip(*totals)]
    q1, q2, q3 = quartiles(ratios)
    print(f"ratio change/parent per pass: median {q2:.3f} (q1 {q1:.3f}, q3 {q3:.3f}; "
          f"min {min(ratios):.3f}, max {max(ratios):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
