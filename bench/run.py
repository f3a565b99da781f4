"""Benchmark of the wigs active-learning harness, one workload per process.

A run sets up (imports wigs from this checkout, builds the workload's
inputs, warms up), then repeats whole rounds, each ``run_experiment``
followed by the report path, until ``--seconds`` have passed.  After the
timed section it checks the last record against independent computations,
checks that every round wrote the same ``traces.csv`` and that a small
config gives the same bytes serially and on two workers, and prints the
sha256 values.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.

    python3 bench/run.py --workload battery --seed 0 --seconds 20 --trace 0
"""

import time

T0 = time.perf_counter()  # set-up is timed from the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402  (standard library only)

# One BLAS/OpenMP thread in this process and its children, set before numpy
# loads: with two CPUs, thread pools would measure the scheduler.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("WIGS_OUT_DIR", None)  # records go under OUT_DIR only

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_SAMPLES = 3  # this process plus fresh interpreters; setup_s is their median
BASELINE = "igs"   # the report's relative tables compare against the product rule


def set_up(workload: str, seed: int, work_dir: str):
    """Import wigs from this checkout, build the workload's inputs, warm up."""
    if not os.path.isfile(os.path.join(SRC, "wigs", "__init__.py")):
        sys.exit(f"bench: no wigs package under {SRC}; run from a checkout of the repository")
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import wigs  # noqa: F401
    import_s = time.perf_counter() - start
    import workloads

    spec = workloads.prepare(workload, seed, work_dir)
    workloads.warm_up(spec)
    return spec, import_s


def fresh_setup_s(args, run_dir: str, k: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", os.path.join(run_dir, f"setup{k}")]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def p99(values) -> float:
    """99th percentile, linearly interpolated as numpy's default."""
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        set_up(args.workload, args.seed, args.setup_only)
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    run_dir = os.path.join(OUT_DIR, args.workload)  # the newest run of each workload stays
    cleanup_s = time.perf_counter()
    shutil.rmtree(run_dir, ignore_errors=True)
    cleanup_s = time.perf_counter() - cleanup_s  # the benchmark's, not the program's set-up
    spec, import_s = set_up(args.workload, args.seed, os.path.join(run_dir, "setup0"))
    setup_samples = [time.perf_counter() - T0 - cleanup_s]

    import checks
    import workloads

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()

    # Timed section: whole rounds until --seconds have passed.  The traced
    # run alternates untraced and traced rounds, so it measures its own
    # overhead; only traced rounds record spans.
    reports = 1 if args.trace else workloads.REPORTS_PER_ROUND
    rounds, traced_flags = [], []
    last_dir = None
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        round_dir = os.path.join(run_dir, f"round{len(rounds)}")
        tracer.enabled = traced
        rnd = workloads.run_round(spec, round_dir, tracer.span, reports)
        tracer.enabled = False
        rounds.append(rnd)
        traced_flags.append(traced)
        print(f"bench: round {len(rounds) - 1}{' traced' if traced else ''} wall_s={rnd.wall_s:.4f} "
              f"report_s={statistics.median(rnd.report_s):.4f}", file=sys.stderr)
        if last_dir is not None:
            shutil.rmtree(last_dir)  # keep only the newest record on disk
        last_dir = round_dir
        for old in rounds[:-1]:
            old.record = old.loaded = None  # and in memory
        if time.perf_counter() - start >= args.seconds and (not args.trace or any(traced_flags)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks, made after the timed section and apart from the program.
    problems = []
    last = rounds[-1]
    try:
        if len({r.traces_sha256 for r in rounds}) != 1:
            raise checks.CheckFailed("rounds of one config wrote different traces.csv files")
        if last.loaded is None:
            raise checks.CheckFailed("the last round's report failed")
        checks.check_roundtrip(last.record.traces, last.loaded.traces)
        checks.check_record(last_dir, workloads.method_table(spec.config),
                            spec.config.initial_fraction, spec.config.alpha, BASELINE)
        small_sha = workloads.determinism(spec, os.path.join(run_dir, "determinism"))
    except checks.CheckFailed as exc:
        problems.append(str(exc))
        small_sha = "unavailable"
    print(f"bench: {args.workload} seed={args.seed} traces.csv sha256={last.traces_sha256}")
    print(f"bench: {args.workload} seed={args.seed} acquisitions sha256="
          f"{workloads.acquisitions_sha256(last.record.traces)}")
    print(f"bench: {args.workload} seed={args.seed} small-config traces.csv sha256={small_sha}")
    for problem in problems:
        print(f"bench: CHECK FAILED: {problem}", file=sys.stderr)

    ops = workloads.operations_per_round(spec, reports)
    result = {"correct": not problems, "attempted": ops * len(rounds),
              "failed": sum(r.failed for r in rounds)}

    if args.trace:
        metrics = traced_metrics(tracer, rounds, traced_flags, import_s)
        tracer.write(os.path.join(run_dir, "spans.csv"))
        tracer.uninstall()
    else:
        for k in range(1, SETUP_SAMPLES):
            setup_samples.append(fresh_setup_s(args, run_dir, k))
        # Percentiles per round, then the median over rounds: a slow spell
        # on a shared machine then moves one round, not the pooled tail.
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
            "query_ms_p50": (statistics.median(statistics.median(r.query_ms) for r in rounds), "ms"),
            "query_ms_p99": (statistics.median(p99(r.query_ms) for r in rounds), "ms"),
            "report_s": (statistics.median(t for r in rounds for t in r.report_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    print(json.dumps(result))
    return 0 if not problems else 1


def traced_metrics(tracer, rounds, traced_flags, import_s: float) -> dict:
    traced = [r for r, t in zip(rounds, traced_flags) if t]
    untraced = [r for r, t in zip(rounds, traced_flags) if not t]
    totals = tracer.totals()
    metrics = {"wigs.import_s": (import_s, "s")}
    metrics.update(tracing.layer_metrics(totals, len(traced)))

    traces_per_round = len(rounds[-1].record.traces)
    acquisitions = sum(len(tr.rmse) - 1 for tr in rounds[-1].record.traces)
    serializations = totals["harness.trace_rows"][0] / len(traced)
    metrics["harness.record_bytes"] = (statistics.median(r.record_bytes for r in rounds), "bytes")
    metrics["harness.acquisitions"] = (acquisitions, "count")
    metrics["harness.serializations_per_trace"] = (serializations / traces_per_round, "ratio")

    root = totals["harness.run_experiment"]
    wall_traced = statistics.median(r.wall_s for r in traced)
    wall_untraced = statistics.median(r.wall_s for r in untraced)
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.untraced_wall_s"] = (wall_untraced, "s")
    metrics["trace.overhead_s"] = (wall_traced - wall_untraced, "s")
    metrics["trace.overhead_share"] = ((wall_traced - wall_untraced) / wall_untraced, "ratio")
    metrics["trace.unaccounted_share"] = (root[2] / root[1], "ratio")
    metrics["trace.rounds"] = (len(traced), "count")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
