"""The benchmark's workloads: their configs, inputs, warm-up and rounds.

A workload is one ``ExperimentConfig`` built from ``--seed``.  A round runs
it once through ``run_experiment`` (parallelism 1) and then once through
the offline report path, ``load_record`` followed by ``emit_report``,
which is what ``wigs report`` runs.  Every round of a run repeats the same
config, so rounds do the same work and their ``traces.csv`` files must
match byte for byte.

The program's functions are looked up on their modules at call time, so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import os
import time
import traceback
import warnings
from dataclasses import dataclass, replace

import numpy as np

import wigs.harness
import wigs.report
from wigs import Dataset, ExperimentConfig, MethodSpec, default_methods

from checks import CheckFailed

BATTERY_N = 400
GEOMETRY_N = 400
GEOMETRY_P = 20
SEEDS_REPORT_N = 80
SEEDS_REPORT_REPLICATIONS = 20
# Determinism configs: the workload's methods on a small dataset.
SMALL_N = 60
WARM_UP_ROWS = 40
# The report path takes a tenth of a round; repeating it gives report_s
# enough samples for a steady median.  A traced round reports once, so its
# per-layer figures are per run_experiment plus one report.
REPORTS_PER_ROUND = 3

GEOMETRY_METHODS = (
    MethodSpec("gsx", "gsx"),
    MethodSpec("gsy", "gsy"),
    MethodSpec("igs", "igs"),
    MethodSpec("wigs_s_0.5", "wigs_static", {"w": 0.5}),
    MethodSpec("wigs_exp", "wigs_exp", {"c": 5.0}),
    MethodSpec("uncertainty", "uncertainty"),
    MethodSpec("egal", "egal"),
)

SEEDS_REPORT_METHODS = (
    MethodSpec("passive", "passive"),
    MethodSpec("gsx", "gsx"),
    MethodSpec("igs", "igs"),
    MethodSpec("wigs_lin", "wigs_linear", {"c": 1.0}),
    MethodSpec("wigs_mab", "wigs_mab", {"arms": (0.25, 0.50, 0.75), "c_explore": 2.0}),
)

NAMES = ("battery", "geometry_p20", "seeds_report")


@dataclass(frozen=True)
class Workload:
    name: str
    config: ExperimentConfig   # the timed config; each round sets its out_dir
    small: ExperimentConfig    # the determinism config
    dataset: Dataset           # resolved in set-up; its first rows feed the warm-up


@dataclass
class Round:
    wall_s: float
    report_s: list[float]
    record: object             # RunRecord returned by run_experiment
    loaded: object | None      # RunRecord from load_record, None if the report failed
    failed: int                # failed (method, seed) pairs plus a failed report
    record_bytes: int          # written to the record directory by the round
    traces_sha256: str
    query_ms: list[float]      # per-iteration wall times, row 0 (the initial fit) left out


def irregular_density(n: int, seed: int, p: int = GEOMETRY_P) -> tuple[np.ndarray, np.ndarray]:
    """A p-feature regression task whose density is irregular.

    Half the rows form a tight core, 30% a looser cluster and 20% a sparse
    uniform background.  The response is smooth, but its noise is ten
    times larger (sigma 1.0 against 0.1) inside the inner half of the
    core, so the densest region holds the high-error samples.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(20,))))
    n_core = n // 2
    n_loose = (3 * n) // 10
    n_background = n - n_core - n_loose
    core_center = rng.normal(0.0, 1.0, p)
    loose_center = rng.normal(0.0, 2.0, p)
    X = np.vstack([
        core_center + 0.15 * rng.standard_normal((n_core, p)),
        loose_center + 0.7 * rng.standard_normal((n_loose, p)),
        rng.uniform(-3.0, 3.0, (n_background, p)),
    ])
    X = X[rng.permutation(n)]
    direction = rng.standard_normal(p)
    direction /= np.linalg.norm(direction)
    signal = np.sin(2.0 * X @ direction) + 0.3 * X[:, 0]
    to_core = np.linalg.norm(X - core_center, axis=1)
    noisy = to_core < np.median(np.sort(to_core)[:n_core])
    y = signal + np.where(noisy, 1.0, 0.1) * rng.standard_normal(n)
    return X, y


def write_geometry_csv(path: str, n: int, seed: int) -> None:
    """Write the irregular-density task in the load_csv convention."""
    X, y = irregular_density(n, seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(X.shape[1])] + ["y"])
        for row, target in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])


def prepare(name: str, seed: int, work_dir: str) -> Workload:
    """Build the workload's configs and inputs from ``seed`` and resolve its dataset."""
    os.makedirs(work_dir, exist_ok=True)
    if name == "battery":
        config = ExperimentConfig(dgp="two_regime", n=BATTERY_N, dataset_seed=seed,
                                  methods=default_methods(), base_seed=seed)
        small = replace(config, n=SMALL_N)
    elif name == "geometry_p20":
        path = os.path.join(work_dir, "geometry_p20.csv")
        small_path = os.path.join(work_dir, "geometry_p20_small.csv")
        write_geometry_csv(path, GEOMETRY_N, seed)
        write_geometry_csv(small_path, SMALL_N, seed)
        config = ExperimentConfig(csv_path=path, methods=GEOMETRY_METHODS, base_seed=seed)
        small = replace(config, csv_path=small_path)
    elif name == "seeds_report":
        config = ExperimentConfig(dgp="three_regime", n=SEEDS_REPORT_N, dataset_seed=seed,
                                  methods=SEEDS_REPORT_METHODS,
                                  replications=SEEDS_REPORT_REPLICATIONS, base_seed=seed)
        small = replace(config, n=SMALL_N, replications=3)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name, config, small, wigs.harness.resolve_dataset(config))


def warm_up(workload: Workload) -> None:
    """One short replication of every method, so first-call costs land in set-up."""
    ds = workload.dataset
    tiny = Dataset(ds.features[:WARM_UP_ROWS], ds.targets[:WARM_UP_ROWS], ds.column_meta, ds.name)
    config = workload.config
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # tiny labeled sets reduce the CV fold count
        for method in config.methods:
            wigs.harness.run_replication(tiny, method, config.base_seed, config.initial_fraction,
                                         config.alpha, config.cv_folds)


def written_bytes() -> int | None:
    """Bytes this process has passed to write(2) so far, or None off Linux."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def acquisitions_sha256(traces) -> str:
    """sha256 of every (method, seed) acquisition sequence, in sorted order."""
    digest = hashlib.sha256()
    for tr in sorted(traces, key=lambda t: (t.method, t.seed)):
        digest.update(f"{tr.method},{tr.seed},{' '.join(map(str, tr.acquired_idx[1:]))}\n".encode())
    return digest.hexdigest()


def run_round(workload: Workload, round_dir: str, root_span, reports: int) -> Round:
    """One timed round: ``run_experiment`` over the workload's config, then
    ``reports`` passes of the report path over its record."""
    config = replace(workload.config, out_dir=round_dir)
    before = written_bytes()
    with root_span("harness.run_experiment"):
        start = time.perf_counter()
        record = wigs.harness.run_experiment(config)
        wall_s = time.perf_counter() - start
    failed = len(record.errors)
    report_s = []
    loaded = None
    for _ in range(reports):
        start = time.perf_counter()
        try:
            loaded = wigs.report.load_record(round_dir)
            wigs.report.emit_report(loaded)
        except Exception:  # a failed report is a failed operation, counted and shown
            traceback.print_exc()
            loaded = None
            failed += 1
        report_s.append(time.perf_counter() - start)
    after = written_bytes()
    written = after - before if before is not None else dir_bytes(round_dir)
    # Query times come from timings.csv, through the loaded record.
    traces = (loaded or record).traces
    query = [float(v) for tr in traces for v in tr.wall_ms[1:]]
    return Round(wall_s, report_s, record, loaded, failed, written,
                 sha256_file(os.path.join(round_dir, "traces.csv")), query)


def operations_per_round(workload: Workload, reports: int) -> int:
    """(method, seed) replications plus the reports."""
    return len(workload.config.methods) * workload.config.replications + reports


def determinism(workload: Workload, work_dir: str) -> str:
    """Rerun the small config serially and on two workers; traces.csv must not change.

    Returns the sha256 of the small config's traces.csv.
    """
    digests = {}
    for label, parallelism in (("serial", 1), ("rerun", 1), ("two_workers", 2)):
        out = os.path.join(work_dir, label)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tiny labeled sets reduce the CV fold count
            record = wigs.harness.run_experiment(replace(workload.small, out_dir=out,
                                                         parallelism=parallelism))
        if record.errors:
            raise CheckFailed(f"determinism config ({label}) failed: {record.errors[0][2]}")
        digests[label] = sha256_file(os.path.join(out, "traces.csv"))
    if len(set(digests.values())) != 1:
        raise CheckFailed(f"small-config traces.csv differs between runs: {digests}")
    return digests["serial"]


def method_table(config: ExperimentConfig) -> dict[str, tuple[str, dict]]:
    """{method name: (kind, params)} for the record checks."""
    return {m.name: (m.kind, dict(m.params)) for m in config.methods}
