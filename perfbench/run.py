"""The factorbn benchmark.

    python3 perfbench/run.py --workload cat-session --seed 1 --seconds 50 --trace 0

Workloads: cat-session, mbh-suite, or ``all`` to run both in turn in
one process.  Every workload builds a fixed set of
operations from ``--seed``, runs passes over it (one caller,
single-threaded) for ``--seconds``, checks every output, and prints a
report followed by one JSON line: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics, from traced
passes over the same set.
"""

from __future__ import annotations

import os

# One thread for numpy and BLAS, set before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 99
MIN_PASSES = 3  # each operation's time is the median of at least this many passes
TRACED_PASSES = 2
NAMES = ("cat-session", "mbh-suite")

# The end-to-end metrics every workload reports: (name, unit).  An
# operation is one query (cat-session) or one ``mbh`` call (mbh-suite).
END_TO_END = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p75", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]

# Timed in a fresh interpreter, so that every set-up pays the full
# import; the interpreter then times the reference, to scale the import
# by the speed of the core it ran on.
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
    "import workloads; s = time.perf_counter() - t; "
    "from reference import reference_ms; print(s, reference_ms(SETUP_REFS))"
)
SETUP_REFS = 5  # reference calls on each side of a set-up step; their median scales it


def per_layer_units(span_names: list[str]) -> list[tuple[str, str]]:
    """Per-layer metrics: each traced function's self time and calls
    per operation, then layer counters."""
    out = []
    for name in span_names:
        out += [(f"{name}.ms_per_op", "ms"), (f"{name}.calls_per_op", "count")]
    out += [
        ("inference.variable_elimination.none.peak_bytes", "bytes"),
        ("inference.variable_elimination.factorize.peak_bytes", "bytes"),
        ("cliques.total_states.none", "states"),
        ("cliques.total_states.factorize", "states"),
        ("cliques.max_states.none", "states"),
        ("cliques.max_states.factorize", "states"),
        ("mbh.subsets_checked", "count"),
        ("mbh.nodes_expanded", "count"),
        ("mbh.pruned", "count"),
        ("mbh.rectangles_enumerated", "count"),
        ("mbh.subsets_per_s", "1/s"),
        ("mbh.prune_ratio", "ratio"),
        ("mbh.proved", "ratio"),
        ("mbh.hidden_states", "count"),
        ("trace.overhead_pct", "%"),
    ]
    return out


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q a whole number from 1 to 99), as
    statistics.quantiles gives it; a single sample is its own percentile."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def emit(lines: list[str], name: str, value: float, unit: str) -> None:
    lines.append(f"{name} {value!r} {unit}")


def load_package() -> None:
    """Put this checkout's src/ on the path and import the workloads."""
    if not (SRC / "factorbn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no factorbn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: F401  (imports every factorbn module the loops use)


def import_seconds() -> float:
    """The package's import in a fresh interpreter, scaled by the
    reference time there."""
    from reference import REF_MS

    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.replace("SETUP_REFS", str(SETUP_REFS)),
         str(SRC), str(HERE)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
    )
    seconds, ref_ms = map(float, proc.stdout.split())
    return seconds * REF_MS / ref_ms


def set_up(workload, seed: int, count: int, workdir: Path):
    """Build the inputs; the set-up time is the import plus the build,
    each scaled by reference times taken next to it, as operations are."""
    from reference import REF_MS, reference_ms

    ref_before = reference_ms(SETUP_REFS)
    t0 = time.perf_counter()
    inputs = workload.setup(seed, count, workdir)
    build_s = time.perf_counter() - t0
    build_s *= REF_MS * 2 / (ref_before + reference_ms(SETUP_REFS))
    return inputs, import_seconds() + build_s


def end_to_end(name: str, outcome, setup_s: float, lines: list[str]):
    ms = outcome.latencies() or [0.0]
    values = {
        "setup_s": setup_s,
        "latency_ms_p50": statistics.median(ms),
        "latency_ms_p75": quantile(ms, 75),
        "throughput_per_s": 1e3 * len(ms) / sum(ms) if sum(ms) else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for metric, unit in END_TO_END:
        emit(lines, metric, values[metric], unit)
    wall = outcome.wall_latencies() or [0.0]
    emit(lines, "wall.latency_ms_p50", statistics.median(wall), "ms")
    emit(lines, "wall.latency_ms_p75", quantile(wall, 75), "ms")
    emit(lines, "operations", len(ms), "count")
    emit(lines, "error_rate", outcome.failed / max(outcome.attempted, 1), "failed/attempted")
    # The workload's own names for the same figures.
    if name == "cat-session":
        for m in ("none", "factorize"):
            lat = outcome.latencies(m) or [0.0]
            emit(lines, f"{m}.query_ms_p50", statistics.median(lat), "ms")
            emit(lines, f"{m}.query_ms_p90", quantile(lat, 90), "ms")
        emit(lines, "queries_per_s", values["throughput_per_s"], "1/s")
    else:
        c = outcome.counters
        per_pass = len(ms) / max(c.get("mbh.cases", 0), 1)
        emit(lines, "mbh.solve_s", sum(ms) / 1e3, "s")
        emit(lines, "mbh.proved", c.get("mbh.proved", 0) * per_pass, "count")
        emit(lines, "mbh.hidden_states", c.get("mbh.hidden_states", 0) * per_pass, "count")
    return values


def per_layer(outcome, traced, tracer, counters, lines: list[str]):
    from workloads import SPAN_NAMES

    spans = tracer.by_name()
    ops = max(traced.attempted, 1)
    c = {**outcome.counters, **counters}
    values = {}
    for name in SPAN_NAMES:
        entry = spans.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.ms_per_op"] = 1e3 * entry["self_s"] / ops
        values[f"{name}.calls_per_op"] = entry["calls"] / ops
    for m in ("none", "factorize"):
        for key in (f"inference.variable_elimination.{m}.peak_bytes",
                    f"cliques.total_states.{m}", f"cliques.max_states.{m}"):
            values[key] = c.get(key, 0)
    cases = max(c.get("mbh.cases", 0), 1)
    for key in ("subsets_checked", "nodes_expanded", "pruned", "rectangles_enumerated"):
        values[f"mbh.{key}"] = c.get(f"mbh.{key}", 0) / cases
    search_s = c.get("mbh.search_s", 0)
    values["mbh.subsets_per_s"] = c.get("mbh.subsets_checked", 0) / search_s if search_s else 0.0
    nodes = c.get("mbh.nodes_expanded", 0)
    values["mbh.prune_ratio"] = c.get("mbh.pruned", 0) / nodes if nodes else 0.0
    values["mbh.proved"] = c.get("mbh.proved", 0) / cases
    values["mbh.hidden_states"] = c.get("mbh.hidden_states", 0) / cases
    untraced, with_spans = sum(outcome.latencies()), sum(traced.latencies())
    values["trace.overhead_pct"] = 100 * (with_spans / untraced - 1) if untraced else 0.0
    units = per_layer_units(SPAN_NAMES)
    for metric, unit in units:
        emit(lines, metric, values[metric], unit)
    return values, units


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """Returns (report lines, attempted, failed, metrics with units)."""
    from tracing import Tracer
    from workloads import TRACED, WORKLOADS, Outcome

    workload = WORKLOADS[name]
    count = max(1, round(seconds * workload.per_second))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    lines = [f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}"]
    try:
        inputs, first_setup = set_up(workload, seed, count, workdir)
        setups = [first_setup]
        outcome = Outcome()
        passes = 0
        deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
        while passes < MIN_PASSES or time.perf_counter() < deadline:
            workload.run(inputs, outcome)
            passes += 1
            # Set-up repeats spread over the run, so that their median
            # does not hang on the host's speed at one moment.
            setups.append(set_up(workload, seed, count, workdir)[1])
        setup_s = statistics.median(setups)
        lines.append(f"instances {count} passes {passes} setups {len(setups)}")
        values = end_to_end(name, outcome, setup_s, lines)
        units = END_TO_END
        runs = [outcome]
        if trace:
            tracer = Tracer()
            traced = Outcome()
            tracer.install(TRACED)
            try:
                for _ in range(TRACED_PASSES):
                    tracer.group = None
                    with tracer.span("setup"):
                        workload.setup(seed, count, workdir)
                    workload.run(inputs, traced, tracer)
            finally:
                tracer.uninstall()
            runs.append(traced)
            counters = workload.counters(inputs) if workload.counters else {}
            lines.append("-- traced passes over the same operations")
            traced_values = end_to_end(name, traced, setup_s, lines)
            for metric, unit in END_TO_END[1:4]:
                emit(lines, f"trace.overhead.{metric}", traced_values[metric] - values[metric], unit)
            values, units = per_layer(outcome, traced, tracer, counters, lines)
            tracer.dump(OUT / f"trace-{name}-seed{seed}.json")
        lines += [f"error: {e}" for r in runs for e in r.errors]
        metrics = {m: {"value": values[m], "unit": u} for m, u in units}
        return lines, sum(r.attempted for r in runs), sum(r.failed for r in runs), metrics
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    load_package()
    names = NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        lines, a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        attempted += a
        failed += f
        if args.workload == "all":
            m = {f"{name}/{k}": v for k, v in m.items()}
        metrics.update(m)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
