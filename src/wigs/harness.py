"""End-to-end benchmark runs: one replication loop, seeded batteries, persistence.

A replication executes the acquisition loop to pool exhaustion: fit, score
the pool, acquire the argmax candidate, reveal its withheld label, refit,
record.  Adaptive weight controllers additionally receive the
cross-validated RMSE drop as reward feedback before choosing each
iteration's weight.  Replication seeds are ``base_seed + index`` and every
source of randomness inside a replication derives from that one seed, so
any (method, seed) pair can run in any process at any time and produce the
same trace.
"""

from __future__ import annotations

import csv
import io
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .config import KINDS, ExperimentConfig, MethodSpec, Query, snapshot_json
from .data import (
    Dataset,
    Partition,
    PreprocessConfig,
    initial_split,
    load_csv,
    sample_three_regime,
    sample_two_regime,
    save_csv,
    scale_features,
)
from .geometry import build_cache, update_after_acquisition
from .metrics import Trace, correlation_coefficient, hybrid_rmse
from .model import cv_rmse, fit_bootstrap_committee, fit_ridge
from .rng import child_seed
from .sac import build_state

# Not called here; the kind table calls the selectors.  bench/tracing.py
# wraps these names.
from .selectors import (  # noqa: F401
    select_egal,
    select_emcm,
    select_gsx,
    select_gsy,
    select_igs,
    select_passive,
    select_qbc,
    select_uncertainty,
    select_wigs,
)

# Wall time lives in a separate timings file: it is a measurement, not a
# result, and keeping it out of traces.csv makes that file byte-identical
# across reruns and parallelism degrees.
TRACE_COLUMNS = (
    "dataset", "method", "seed", "iteration", "labeled_count",
    "rmse", "cc", "weight", "selector_score", "acquired_idx",
)
TIMING_COLUMNS = ("dataset", "method", "seed", "iteration", "wall_ms")

def resolve_dataset(config: ExperimentConfig) -> Dataset:
    """Materialize the configured dataset, preprocessing included."""
    pre = PreprocessConfig(scaling=config.scaling,
                           categorical_columns=config.categorical_columns)
    if config.csv_path is not None:
        return load_csv(config.csv_path, pre)
    sampler = sample_two_regime if config.dgp == "two_regime" else sample_three_regime
    raw = sampler(config.n, config.dataset_seed)
    return scale_features(raw, config.scaling)


def run_replication(
    dataset: Dataset,
    method: MethodSpec,
    seed: int,
    initial_fraction: float = 0.05,
    alpha: float = 0.01,
    cv_folds: int = 5,
) -> Trace:
    """Run one (method, seed) replication to pool exhaustion.

    Row 0 of the returned trace is the pre-acquisition baseline; row t
    records the state after the t-th acquisition with the model refit.
    The labeled and pool rows live in one ``Partition``, moved in place on
    each acquisition; the fits, the selectors, the distance cache and the
    recording read slice views of it.
    """
    y = dataset.targets
    n_total = dataset.n_samples
    part = Partition(dataset, initial_split(dataset, initial_fraction, seed))
    horizon = part.n_pool

    kind = KINDS[method.kind]
    params = method.settings()
    policy = kind.policy(params, seed) if kind.policy else None
    state = kind.setup(dataset, seed) if kind.setup else None

    rows_rmse = np.empty(horizon + 1)
    rows_cc = np.empty(horizon + 1)
    rows_weight = np.full(horizon + 1, np.nan)
    rows_score = np.full(horizon + 1, np.nan)
    rows_acquired = np.full(horizon + 1, -1, dtype=np.int64)
    rows_labeled = np.empty(horizon + 1, dtype=np.int64)
    rows_wall = np.empty(horizon + 1)
    # In dataset order: the known labels, and the predictions on the pool.
    hybrid = y.copy()

    def record(slot: int, preds: np.ndarray, wall_ms: float) -> None:
        pool = part.pool
        rows_rmse[slot] = hybrid_rmse(preds - y.take(pool), n_total)
        hybrid[pool] = preds
        rows_cc[slot] = correlation_coefficient(hybrid, y)
        rows_labeled[slot] = part.n_labeled
        rows_wall[slot] = wall_ms

    start = time.perf_counter()
    model = fit_ridge(part.labeled_features, part.labeled_targets, alpha)
    pool_preds = model.predict(part.pool_features)
    record(0, pool_preds, (time.perf_counter() - start) * 1000.0)
    cache = build_cache(dataset, part, pool_preds) if kind.cache else None

    cv_prev: float | None = None
    cv_initial: float | None = None
    for t in range(horizon):
        tick = time.perf_counter()
        weight = None
        if policy is not None:
            reward = None
            context = None
            if kind.cv_reward:
                cv_now = cv_rmse(part.labeled_features, part.labeled_targets, alpha,
                                 cv_folds, child_seed(seed, "cv", t))
                if cv_initial is None:
                    cv_initial = cv_now if cv_now > 0 else 1.0
                if cv_prev is not None:
                    reward = cv_prev - cv_now
                if kind.sac_state:
                    context = build_state(cv_now, cv_initial, t, horizon, cache)
                cv_prev = cv_now
            weight = policy.step(t, horizon, reward, context)
        committee = None
        if kind.committee:
            committee = fit_bootstrap_committee(
                part.labeled_features, part.labeled_targets, alpha,
                int(params["committee_size"]), child_seed(seed, "bootstrap", t))
        result = kind.select(Query(model, part.pool_features, cache, committee, weight, state))

        pos = result.chosen
        ds_idx = int(part.pool[pos])
        part.acquire(pos, y[ds_idx])
        hybrid[ds_idx] = y[ds_idx]

        try:
            model = fit_ridge(part.labeled_features, part.labeled_targets, alpha)
        except Exception as exc:
            raise RuntimeError(
                f"model fit failed at iteration {t} of {method.name}/seed {seed}"
            ) from exc
        pool_preds = model.predict(part.pool_features)
        if kind.cache:
            update_after_acquisition(cache, pos, pool_preds)

        slot = t + 1
        record(slot, pool_preds, (time.perf_counter() - tick) * 1000.0)
        rows_acquired[slot] = ds_idx
        rows_score[slot] = result.score
        if weight is not None:
            rows_weight[slot] = weight

    return Trace(
        method=method.name,
        dataset=dataset.name,
        seed=int(seed),
        labeled_count=rows_labeled,
        rmse=rows_rmse,
        cc=rows_cc,
        weight=rows_weight,
        score=rows_score,
        acquired_idx=rows_acquired,
        wall_ms=rows_wall,
    )


@dataclass(frozen=True)
class RunRecord:
    """A completed battery: config, traces, and where they were persisted."""

    config: ExperimentConfig
    dataset: Dataset
    traces: tuple[Trace, ...]
    errors: tuple[tuple[str, int, str], ...]
    record_dir: str


def trace_rows(trace: Trace) -> list[tuple]:
    rows = []
    for i in range(len(trace.rmse)):
        rows.append((
            trace.dataset, trace.method, trace.seed, i,
            int(trace.labeled_count[i]),
            repr(float(trace.rmse[i])), repr(float(trace.cc[i])),
            repr(float(trace.weight[i])), repr(float(trace.score[i])),
            int(trace.acquired_idx[i]),
        ))
    return rows


def timing_rows(trace: Trace) -> list[tuple]:
    return [
        (trace.dataset, trace.method, trace.seed, i, repr(float(trace.wall_ms[i])))
        for i in range(len(trace.wall_ms))
    ]


def _format_rows(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# The dataset is shipped to each worker once (pool initializer) instead of
# being pickled into every task.
_worker_dataset: Dataset | None = None


def _init_worker(dataset: Dataset) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def _run_task(args) -> Trace:
    method, seed, frac, alpha, cv_folds = args
    return run_replication(_worker_dataset, method, seed, frac, alpha, cv_folds)


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Execute every (method, seed) pair and persist the record directory.

    Pairs are seed-isolated, so they may run across processes; the final
    trace file is written sorted by (method, seed, iteration) and is
    byte-identical for any parallelism degree.  Each finished trace is
    formatted once: the text is appended to a .part file as the pair
    finishes and reused, in sorted order, for traces.csv.  After a crash
    the .part file keeps the finished pairs, but a rerun starts over and
    does not read it.
    """
    out_dir = config.resolved_out_dir()
    os.makedirs(out_dir, exist_ok=True)
    dataset = resolve_dataset(config)
    _atomic_write(os.path.join(out_dir, "config.json"), snapshot_json(config))
    save_csv(dataset, os.path.join(out_dir, "dataset.csv"))

    tasks = []
    for method in config.methods:
        for i in range(config.replications):
            seed = config.base_seed + i
            tasks.append((method, seed, config.initial_fraction,
                          config.alpha, config.cv_folds))

    # (method, seed) -> (trace, its traces.csv rows, its timings.csv rows)
    finished: dict[tuple[str, int], tuple[Trace, str, str]] = {}
    errors: list[tuple[str, int, str]] = []
    part_path = os.path.join(out_dir, "traces.csv.part")
    with open(part_path, "w", encoding="utf-8", newline="") as part:
        part.write(",".join(TRACE_COLUMNS) + "\n")

        def consume(task, outcome, failure):
            method, seed = task[0], task[1]
            if failure is not None:
                errors.append((method.name, seed, failure))
                return
            text = _format_rows(trace_rows(outcome))
            finished[(method.name, seed)] = (outcome, text, _format_rows(timing_rows(outcome)))
            part.write(text)
            part.flush()

        if config.parallelism == 1:
            _init_worker(dataset)
            for task in tasks:
                try:
                    result = _run_task(task)
                except Exception:
                    consume(task, None, traceback.format_exc())
                else:
                    consume(task, result, None)
        else:
            from concurrent.futures import ProcessPoolExecutor, as_completed

            with ProcessPoolExecutor(max_workers=config.parallelism,
                                     initializer=_init_worker,
                                     initargs=(dataset,)) as pool:
                futures = {pool.submit(_run_task, task): task for task in tasks}
                for fut in as_completed(futures):
                    task = futures[fut]
                    try:
                        result = fut.result()
                    except Exception:
                        consume(task, None, traceback.format_exc())
                    else:
                        consume(task, result, None)

    done = [finished[key] for key in sorted(finished)]
    _atomic_write(
        os.path.join(out_dir, "traces.csv"),
        ",".join(TRACE_COLUMNS) + "\n" + "".join(rows for _, rows, _ in done),
    )
    _atomic_write(
        os.path.join(out_dir, "timings.csv"),
        ",".join(TIMING_COLUMNS) + "\n" + "".join(rows for _, _, rows in done),
    )
    os.remove(part_path)
    if errors:
        _atomic_write(
            os.path.join(out_dir, "errors.csv"),
            "method,seed,error\n" + _format_rows(
                [(m, s, e.replace("\n", " | ")) for m, s, e in errors]),
        )

    return RunRecord(
        config=config,
        dataset=dataset,
        traces=tuple(trace for trace, _, _ in done),
        errors=tuple(errors),
        record_dir=out_dir,
    )
