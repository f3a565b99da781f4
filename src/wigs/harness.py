"""End-to-end benchmark runs: one replication loop, seeded batteries, persistence.

A replication executes the acquisition loop to pool exhaustion: fit, score
the pool, acquire the argmax candidate, reveal its withheld label, refit,
record.  Adaptive weight controllers additionally receive the
cross-validated RMSE drop as reward feedback before choosing each
iteration's weight.  Replication seeds are ``base_seed + index`` and every
source of randomness inside a replication derives from that one seed, so
any (method, seed) pair can run in any process at any time and produce the
same trace.  Pairs of any methods on one dataset run as a lockstep block:
each iteration makes one stacked refit for the whole block, one CV call for
the pairs that take a CV reward and one committee call per committee size;
a pair's trace does not depend on its block.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .config import KINDS, ExperimentConfig, MethodSpec, Query, snapshot_json
from .data import (
    Dataset,
    Partition,
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

# A block holds all of its pairs' replications at once, so run_experiment
# cuts the (method, seed) pairs into blocks whose summed estimated footprint
# (``seed_bytes``) stays under this many bytes.  A pair's trace does not
# depend on its block, so the cut changes no result.
BLOCK_BYTES = 64 * 2**20


def resolve_dataset(config: ExperimentConfig) -> Dataset:
    """Build the configured raw dataset (CSV or generator) and scale it."""
    if config.csv_path is not None:
        raw = load_csv(config.csv_path, config.categorical_columns)
    else:
        sampler = sample_two_regime if config.dgp == "two_regime" else sample_three_regime
        raw = sampler(config.n, config.dataset_seed)
    return scale_features(raw, config.scaling)


def _fit_group(method: MethodSpec) -> tuple[bool, int]:
    """The stacked calls a pair of ``method`` joins besides the refit: whether
    it takes the CV call, and the committee size it is fitted at (0: none)."""
    kind = KINDS[method.kind]
    return kind.cv_reward, int(method.settings()["committee_size"]) if kind.committee else 0


def _failing_fits(X: np.ndarray, y: np.ndarray, alpha: float, names: list[str]) -> list[str]:
    """The names of the sets of a failed stacked fit that fail on their own
    (all of them if none does)."""
    failing = []
    for r, name in enumerate(names):
        try:
            fit_ridge(X[r], y[r], alpha)
        except Exception:
            failing.append(name)
    return failing or names


def run_block(
    dataset: Dataset,
    pairs,
    initial_fraction: float = 0.05,
    alpha: float = 0.01,
    cv_folds: int = 5,
) -> list[Trace]:
    """Run one replication per (method, seed) pair, in lockstep, to pool exhaustion.

    Row 0 of each trace is the pre-acquisition baseline; row t records the
    state after the t-th acquisition with the model refit.  Every pair has
    the same horizon, so at each iteration all R labeled sets hold the same
    number of rows, L: pair r's partition moves its rows in place in one row
    of an (R, N, p) buffer, and the block's refit is one kernel call on the
    (R, L, p) view of the labeled rows.  The buffer rows are ordered by the
    other calls a pair joins (``_fit_group``), so the CV call of the pairs
    whose kind takes a CV reward, and the committee call of the pairs of
    each committee size, are each one kernel call on a slice of that view.
    The policy step, selection, acquisition, distance cache and recording
    run per pair.  A pair's trace is the same bits whatever block it runs
    in, and the traces come back in the order of ``pairs``.

    ``wall_ms`` of a row is the pair's own work for it plus its share of the
    block's kernel calls for it: 1/R of the refit, and 1/R' of a CV or
    committee call that R' pairs share, if the pair is one of them.  Row 0
    is the initial fit and prediction, row t the iteration up to its
    recording.  The set-up, the initial distance cache and the recording are
    left out, as in a run of one pair at a time, so a block of one times
    what such a run timed.
    """
    clock = time.perf_counter
    pairs = [(method, int(seed)) for method, seed in pairs]
    if not pairs:
        raise ValueError("a block needs at least one (method, seed) pair")
    R = len(pairs)
    keys = [_fit_group(method) for method, _ in pairs]
    order = sorted(range(R), key=keys.__getitem__)  # stable: pairs keep their order in a group
    methods = [pairs[i][0] for i in order]
    seeds = [pairs[i][1] for i in order]
    names = [f"{method.name}/{seed}" for method, seed in zip(methods, seeds)]
    kinds = [KINDS[method.kind] for method in methods]
    groups, start = [], 0  # (takes the CV call, committee size, its slice of the block)
    for (takes_cv, committee_size), members in itertools.groupby(keys[i] for i in order):
        stop = start + len(list(members))
        if takes_cv or committee_size:
            groups.append((takes_cv, committee_size, slice(start, stop)))
        start = stop

    y = dataset.targets
    n_total = dataset.n_samples
    features = np.empty((R, *dataset.features.shape))
    labels = np.empty((R, n_total))
    parts = [Partition(dataset, initial_split(dataset, initial_fraction, seed), features[r], labels[r])
             for r, seed in enumerate(seeds)]
    n_labeled = parts[0].n_labeled
    horizon = n_total - n_labeled
    policies = [kind.policy(method.settings(), seed) if kind.policy else None
                for kind, method, seed in zip(kinds, methods, seeds)]
    states = [kind.setup(dataset, seed) if kind.setup else None for kind, seed in zip(kinds, seeds)]

    rows_rmse = np.empty((R, horizon + 1))
    rows_cc = np.empty((R, horizon + 1))
    rows_weight = np.full((R, horizon + 1), np.nan)
    rows_score = np.full((R, horizon + 1), np.nan)
    rows_acquired = np.full((R, horizon + 1), -1, dtype=np.int64)
    rows_labeled = np.empty((R, horizon + 1), dtype=np.int64)
    own = [[0.0] * (horizon + 1) for _ in range(R)]  # seconds of each pair's own work per row
    shared = np.zeros((R, horizon + 1))              # seconds of its share of the kernel calls
    # In dataset order: the known labels, and the predictions on the pool.
    hybrids = [y.copy() for _ in range(R)]

    def record(r: int, slot: int, preds: np.ndarray) -> None:
        pool = parts[r].pool
        rows_rmse[r, slot] = hybrid_rmse(preds - y.take(pool), n_total)
        hybrid = hybrids[r]
        hybrid[pool] = preds
        rows_cc[r, slot] = correlation_coefficient(hybrid, y)
        rows_labeled[r, slot] = parts[r].n_labeled

    last = clock()
    models = fit_ridge(features[:, :n_labeled], labels[:, :n_labeled], alpha)
    now = clock()
    shared[:, 0] = (now - last) / R
    last = now
    caches = [None] * R
    for r, part in enumerate(parts):
        pool_preds = models[r].predict(part.pool_features)
        own[r][0] = clock() - last
        record(r, 0, pool_preds)
        if kinds[r].cache:
            caches[r] = build_cache(dataset, part, pool_preds)
        last = clock()

    cv_now = [None] * R
    committees = [None] * R
    cv_prev = [None] * R
    cv_initial = [None] * R
    labeled_x, labeled_y = features[:, :n_labeled], labels[:, :n_labeled]
    for t in range(horizon):
        slot = t + 1
        for takes_cv, committee_size, rows in groups:
            if takes_cv:
                cv_now[rows] = cv_rmse(labeled_x[rows], labeled_y[rows], alpha, cv_folds,
                                       [child_seed(seed, "cv", t) for seed in seeds[rows]])
                now = clock()
                shared[rows, slot] += (now - last) / (rows.stop - rows.start)
                last = now
            if committee_size:
                committees[rows] = fit_bootstrap_committee(
                    labeled_x[rows], labeled_y[rows], alpha, committee_size,
                    [child_seed(seed, "bootstrap", t) for seed in seeds[rows]])
                now = clock()
                shared[rows, slot] += (now - last) / (rows.stop - rows.start)
                last = now

        positions = [0] * R
        for r, part in enumerate(parts):
            kind = kinds[r]
            weight = None
            policy = policies[r]
            if policy is not None:
                reward = None
                context = None
                if kind.cv_reward:
                    cv = cv_now[r]
                    if cv_initial[r] is None:
                        cv_initial[r] = cv if cv > 0 else 1.0
                    if cv_prev[r] is not None:
                        reward = cv_prev[r] - cv
                    if kind.sac_state:
                        context = build_state(cv, cv_initial[r], t, horizon, caches[r])
                    cv_prev[r] = cv
                weight = policy.step(t, horizon, reward, context)
                rows_weight[r, slot] = weight
            result = kind.select(Query(models[r], part.pool_features, caches[r],
                                       committees[r], weight, states[r]))
            pos = result.chosen
            ds_idx = int(part.pool[pos])
            part.acquire(pos, y[ds_idx])
            hybrids[r][ds_idx] = y[ds_idx]
            positions[r] = pos
            rows_acquired[r, slot] = ds_idx
            rows_score[r, slot] = result.score
            now = clock()
            own[r][slot] = now - last
            last = now

        n_labeled += 1
        labeled_x, labeled_y = features[:, :n_labeled], labels[:, :n_labeled]
        try:
            models = fit_ridge(labeled_x, labeled_y, alpha)
        except Exception as exc:
            raise RuntimeError(f"model fit failed at iteration {t} of "
                               + ", ".join(_failing_fits(labeled_x, labeled_y, alpha, names))
                               ) from exc
        now = clock()
        shared[:, slot] += (now - last) / R
        last = now
        for r, part in enumerate(parts):
            pool_preds = models[r].predict(part.pool_features)
            if kinds[r].cache:
                update_after_acquisition(caches[r], positions[r], pool_preds)
            own[r][slot] += clock() - last
            record(r, slot, pool_preds)
            last = clock()

    wall_ms = (np.array(own) + shared) * 1000.0
    traces = [None] * R
    for r, i in enumerate(order):
        traces[i] = Trace(
            method=methods[r].name,
            dataset=dataset.name,
            seed=seeds[r],
            labeled_count=rows_labeled[r],
            rmse=rows_rmse[r],
            cc=rows_cc[r],
            weight=rows_weight[r],
            score=rows_score[r],
            acquired_idx=rows_acquired[r],
            wall_ms=wall_ms[r],
        )
    return traces


def run_replication(
    dataset: Dataset,
    method: MethodSpec,
    seed: int,
    initial_fraction: float = 0.05,
    alpha: float = 0.01,
    cv_folds: int = 5,
) -> Trace:
    """Run one (method, seed) replication to pool exhaustion: a block of one pair."""
    return run_block(dataset, [(method, seed)], initial_fraction, alpha, cv_folds)[0]


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


def _init_worker(dataset: Dataset | None) -> None:
    global _worker_dataset
    _worker_dataset = dataset


def seed_bytes(n_samples: int, n_features: int, method: MethodSpec, cv_folds: int) -> int:
    """An upper bound on the bytes one (``method``, seed) pair adds to a
    block on an (N, p) dataset: its partition rows, one centred (k, p) copy
    of the labeled rows per fit of a stacked kernel call (k <= N), a
    distance cache's pool x labeled block and its copy as it grows (at most
    N²/2 floats), and the kind's ``state_bytes``."""
    kind = KINDS[method.kind]
    params = method.settings()
    fits = 1
    if kind.committee:
        fits = max(fits, int(params["committee_size"]))
    if kind.cv_reward:
        fits = max(fits, cv_folds)
    size = 8 * n_samples * n_features * (fits + 1)
    if kind.cache:
        size += 8 * n_samples * n_samples // 2
    if kind.state_bytes:
        size += kind.state_bytes(params, n_samples)
    return size


def pair_blocks(pairs: list, pair_bytes: list[int], parallelism: int) -> list[tuple]:
    """Consecutive blocks of ``pairs``: ceil(len / parallelism) pairs each,
    so every worker gets work, each cut further before a pair whose
    ``pair_bytes`` would take the block's sum past ``BLOCK_BYTES``; at least
    one pair per block."""
    size = -(-len(pairs) // parallelism)
    blocks = []
    for start in range(0, len(pairs), size):
        block, total = [], 0
        for pair, nbytes in zip(pairs[start:start + size], pair_bytes[start:start + size]):
            if block and total + nbytes > BLOCK_BYTES:
                blocks.append(tuple(block))
                block, total = [], 0
            block.append(pair)
            total += nbytes
        blocks.append(tuple(block))
    return blocks


def _attempt(pairs: tuple, settings) -> list[tuple]:
    """(method, seed, trace, None) for each pair of a block that ran, or
    (method, seed, None, traceback text) for each pair of a block that raised."""
    try:
        traces = run_block(_worker_dataset, pairs, *settings)
    except Exception:
        failure = traceback.format_exc()
        return [(method, seed, None, failure) for method, seed in pairs]
    return [(method, seed, trace, None) for (method, seed), trace in zip(pairs, traces)]


def _run_task(args) -> list[tuple]:
    """The outcomes of one block of pairs.  If the block raises, its pairs
    rerun one at a time: a failing pair gives the error its own block of one
    gives, and the others keep their traces."""
    pairs, *settings = args
    outcomes = _attempt(pairs, settings)
    if len(pairs) > 1 and outcomes[0][3] is not None:
        outcomes = [outcome for pair in pairs for outcome in _attempt((pair,), settings)]
    return outcomes


def run_experiment(config: ExperimentConfig) -> RunRecord:
    """Execute every (method, seed) pair and persist the record directory.

    The pairs, method by method and seed by seed within a method, are cut
    into consecutive blocks (``run_block``): one block at parallelism 1, and
    ceil(pairs / parallelism) pairs per block otherwise, so every worker
    gets work, cut further where a block's summed ``seed_bytes`` would pass
    ``BLOCK_BYTES`` (``pair_blocks``).  A pair's trace does not depend on
    its block, so the final trace file, written sorted by (method, seed,
    iteration), is byte-identical for any parallelism degree and any split.
    Each finished trace is formatted once: the text is appended to a .part
    file as its block finishes and reused, in sorted order, for traces.csv.
    After a crash the .part file keeps the finished pairs, but a rerun
    starts over and does not read it.  When the run returns, neither this
    module nor the returned dataset keeps the dataset's (N, N) distance
    matrix.
    """
    out_dir = config.resolved_out_dir()
    os.makedirs(out_dir, exist_ok=True)
    dataset = resolve_dataset(config)
    _atomic_write(os.path.join(out_dir, "config.json"), snapshot_json(config))
    save_csv(dataset, os.path.join(out_dir, "dataset.csv"))

    seeds = [config.base_seed + i for i in range(config.replications)]
    n_samples, n_features = dataset.features.shape
    pairs = [(method, seed) for method in config.methods for seed in seeds]
    pair_bytes = [seed_bytes(n_samples, n_features, method, config.cv_folds)
                  for method, _ in pairs]
    settings = (config.initial_fraction, config.alpha, config.cv_folds)
    tasks = [(block, *settings)
             for block in pair_blocks(pairs, pair_bytes, config.parallelism)]

    # (method, seed) -> (trace, its traces.csv rows, its timings.csv rows)
    finished: dict[tuple[str, int], tuple[Trace, str, str]] = {}
    errors: list[tuple[str, int, str]] = []
    part_path = os.path.join(out_dir, "traces.csv.part")
    with open(part_path, "w", encoding="utf-8", newline="") as part:
        part.write(",".join(TRACE_COLUMNS) + "\n")

        def consume(outcomes):
            for method, seed, trace, error in outcomes:
                if error is not None:
                    errors.append((method.name, seed, error))
                    continue
                text = _format_rows(trace_rows(trace))
                finished[(method.name, seed)] = (trace, text, _format_rows(timing_rows(trace)))
                part.write(text)
            part.flush()

        if config.parallelism == 1:
            _init_worker(dataset)
            try:
                for task in tasks:
                    consume(_run_task(task))
            finally:
                _init_worker(None)
        else:
            from concurrent.futures import ProcessPoolExecutor, as_completed

            with ProcessPoolExecutor(max_workers=config.parallelism,
                                     initializer=_init_worker,
                                     initargs=(dataset,)) as pool:
                futures = {pool.submit(_run_task, task): task for task in tasks}
                for fut in as_completed(futures):
                    try:
                        outcomes = fut.result()
                    except Exception:  # the worker died: every pair of its block failed
                        failure = traceback.format_exc()
                        outcomes = [(method, seed, None, failure)
                                    for method, seed in futures[fut][0]]
                    consume(outcomes)
    vars(dataset).pop("feature_distances", None)  # the cached (N, N) matrix

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
