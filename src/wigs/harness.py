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
the pairs that take a CV reward and one committee call per committee size,
and scores the gsx, igs and WiGS rows a group of rows at a time; a pair's
trace does not depend on its block.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .config import KINDS, ExperimentConfig, MethodSpec, Query, snapshot_json
from .data import (
    Dataset,
    PartitionBlock,
    initial_split,
    load_csv,
    sample_three_regime,
    sample_two_regime,
    save_csv,
    scale_features,
)
from .geometry import DistanceBlock, build_cache, update_after_acquisition
from .metrics import Trace, centre_truth, correlation_coefficient, hybrid_rmse
from .model import bootstrap_counts, cv_rmse, fit_bootstrap_committee, fit_ridge, fold_assignment
from .rng import iteration_states, state_generator
from .sac import build_state
from .selectors import pick_rows, select_stacked

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

# The CV and bootstrap streams of a block's iterations are derived this many
# iterations at a time, so a long horizon holds no buffer of every
# iteration's state words.  A pair's trace does not depend on it.
STREAM_CHUNK = 64

# The block scores a run of igs or WiGS rows in groups of at most
# G = max(1, SCORE_BUDGET // (P·L)) rows, each in one (2, G, P, L) buffer of
# at most 2 * SCORE_BUDGET floats, 256 KiB, which stays in cache.  Measured
# on a 2-CPU x86 VM: a group of 13 rows at P = 60, L = 20 costs half of 13
# single-row calls; 2**15 and 2**16 save under a tenth more there and
# nothing that whole runs resolve; at 2**17 the stacks leave the cache, and
# groups of two at P·L >= 10**4 run up to 1.2x slower than single rows.
# A pair's trace does not depend on it.
SCORE_BUDGET = 2**14


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


class _Group:
    """A fit group: the rows of a block that share its CV call (if
    ``takes_cv``) and its committee call (if ``committee_size``), the
    seconds of those calls (``_Block.share``), and the streams of its
    distinct ``seeds``.  ``which`` maps each row to its seed: the fold
    assignment and the resample counts depend only on the seed, the
    iteration and the row count, so pairs that share a seed share them.
    ``derive`` computes the state words of a chunk of iterations, ``cv``
    (U, T, 1, 4) and ``bootstrap`` (U, T, B, 4)."""

    def __init__(self, takes_cv: bool, committee_size: int, rows: slice, seeds: list[int],
                 seconds: list[float]):
        self.takes_cv, self.committee_size, self.rows, self.seconds = \
            takes_cv, committee_size, rows, seconds
        position = {seed: i for i, seed in enumerate(dict.fromkeys(seeds))}
        self.seeds = list(position)
        self.which = np.array([position[seed] for seed in seeds])

    def derive(self, start: int, stop: int) -> None:
        if self.takes_cv:
            self.cv = iteration_states(self.seeds, "cv", start, stop)
        if self.committee_size:
            self.bootstrap = iteration_states(self.seeds, "bootstrap", start, stop,
                                              self.committee_size)


class _Block:
    """The state of one lockstep block of (method, seed) pairs, and the
    phases of its iterations.

    Row r of every buffer belongs to pair r in row order: the pairs sorted
    stably with the Rc pairs whose kind keeps a distance cache first, then
    by ``_fit_group``, so the distance caches are the first Rc rows and
    the CV call and each committee call take one slice of rows.  ``runs``
    holds the runs of at least two consecutive rows whose kinds name the
    same block scorer (``Kind.scorer``), which ``select`` scores together,
    and ``alone`` every other row.  Pair r's partition is row r of one
    ``PartitionBlock``: its ``features``
    (R, N, p), ``labels`` (R, N) and ``orders`` (R, N), so with L labeled
    rows the labeled sets are the (R, L, ...) views and the pools
    ``orders[:, L:]`` and ``features[r, L:]``.  The distance caches are the
    rows of one ``DistanceBlock``, ``distances``, over the first Rc
    partitions.  ``move`` moves every partition and then every distance
    state in one pass each.  ``hybrid`` holds each
    pair's known labels and pool predictions in dataset order.  ``own`` books
    the seconds of each pair's own work and ``shares`` those of each shared
    call, per row, from the mark ``last``, which the recording resets: it
    is left out.
    """

    def __init__(self, dataset: Dataset, pairs, initial_fraction: float, alpha: float,
                 cv_folds: int):
        pairs = [(method, int(seed)) for method, seed in pairs]
        if not pairs:
            raise ValueError("a block needs at least one (method, seed) pair")
        R = len(pairs)
        keys = [_fit_group(method) for method, _ in pairs]
        # stable: the pairs keep their order within a group
        self.rank = sorted(range(R), key=lambda i: (not KINDS[pairs[i][0].kind].cache, *keys[i]))
        self.methods = [pairs[i][0] for i in self.rank]
        self.seeds = [pairs[i][1] for i in self.rank]
        self.names = [f"{method.name}/{seed}" for method, seed in zip(self.methods, self.seeds)]
        self.kinds = [KINDS[method.kind] for method in self.methods]
        self.n_caches = sum(kind.cache for kind in self.kinds)  # the first rows
        groups, start = [], 0  # (takes the CV call, committee size, its rows)
        for (takes_cv, committee_size), members in itertools.groupby(keys[i] for i in self.rank):
            stop = start + len(list(members))
            if takes_cv or committee_size:
                groups.append((takes_cv, committee_size, slice(start, stop)))
            start = stop
        self.dataset, self.alpha, self.cv_folds = dataset, alpha, cv_folds

        y = dataset.targets
        n_total = dataset.n_samples
        self.partitions = PartitionBlock(
            dataset, [initial_split(dataset, initial_fraction, seed) for seed in self.seeds])
        self.features, self.labels = self.partitions.features, self.partitions.labels
        self.orders = self.partitions.orders
        n_labeled = self.partitions.n_labeled
        self.labeled = self.features[:, :n_labeled], self.labels[:, :n_labeled]
        self.horizon = horizon = n_total - n_labeled
        self.policies = [kind.policy(method.settings(), seed) if kind.policy else None
                         for kind, method, seed in zip(self.kinds, self.methods, self.seeds)]
        self.states = [kind.setup(dataset, seed) if kind.setup else None
                       for kind, seed in zip(self.kinds, self.seeds)]
        self.caches = [None] * R
        self.distances = None
        self.cv_now = [None] * R
        self.cv_prev = [None] * R
        self.cv_initial = [None] * R
        self.committees = [None] * R
        self.positions = [0] * R  # the pool position each pair chose last
        self.weights_now = [None] * R  # each pair's weight at this iteration
        self.stepping = [r for r, policy in enumerate(self.policies) if policy is not None]
        self.alone, self.runs = [], []  # rows scored on their own; (scorer, first row, stop)
        start = 0
        for scorer, members in itertools.groupby(kind.scorer for kind in self.kinds):
            stop = start + len(list(members))
            if scorer is None or stop - start == 1:
                self.alone += range(start, stop)
            else:
                self.runs.append((scorer, start, stop))
            start = stop

        self.rows = np.arange(R)[:, None]
        self.hybrid = np.empty((R, n_total))
        self.hybrid[:] = y
        self.centred_truth = centre_truth(y)  # as correlation_coefficient centres it
        self.rmse = np.empty((R, horizon + 1))
        self.cc = np.empty((R, horizon + 1))
        self.weight = np.full((R, horizon + 1), np.nan)
        self.score = np.full((R, horizon + 1), np.nan)
        self.own = [[0.0] * (horizon + 1) for _ in range(R)]  # each pair's own work per row
        self.shares = []  # (rows, their count, per-row seconds of the calls they share)
        self.everyone_s = self.share(slice(0, R), R)
        if self.n_caches:
            self.distances_s = self.share(slice(0, self.n_caches), self.n_caches)
        self.groups = [_Group(takes_cv, committee_size, rows, self.seeds[rows],
                              self.share(rows, rows.stop - rows.start))
                       for takes_cv, committee_size, rows in groups]
        self.last = time.perf_counter()

    def share(self, rows, count: int) -> list[float]:
        """The per-row seconds of the calls that the ``count`` pairs of
        ``rows`` share; ``traces`` splits them evenly among those pairs."""
        seconds = [0.0] * (self.horizon + 1)
        self.shares.append((rows, count, seconds))
        return seconds

    def charge(self, seconds: list[float], slot: int) -> None:
        """Book the seconds since ``last`` to the shared call ``seconds`` (from
        ``share``), in row ``slot``."""
        now = time.perf_counter()
        seconds[slot] += now - self.last
        self.last = now

    def fit(self, slot: int) -> None:
        """The refit: one kernel call on the block's labeled rows.  A failing
        refit names the pairs whose own fit fails."""
        X, y = self.labeled
        try:
            self.fits = fit_ridge(X, y, self.alpha)
        except Exception as exc:
            if not slot:
                raise
            raise RuntimeError(f"model fit failed at iteration {slot - 1} of "
                               + ", ".join(_failing_fits(X, y, self.alpha, self.names))) from exc
        self.charge(self.everyone_s, slot)

    def fit_groups(self, t: int) -> None:
        """The CV call of each group that takes one and the committee call of
        each committee size, each one kernel call on the group's rows.  The
        fold assignments and resample counts are drawn once per distinct
        seed, from the streams the group derives at the first iteration of
        each chunk of ``STREAM_CHUNK``; the derivation is charged with the
        call that follows it."""
        X, y = self.labeled
        k = X.shape[1]
        step = t % STREAM_CHUNK
        for group in self.groups:
            if not step:
                group.derive(t, min(t + STREAM_CHUNK, self.horizon))
            rows = group.rows
            if group.takes_cv:
                fold = np.stack([fold_assignment(k, self.cv_folds, state_generator(words))
                                 for words in group.cv[:, step, 0]])
                self.cv_now[rows] = cv_rmse(X[rows], y[rows], self.alpha, fold[group.which])
                self.charge(group.seconds, t + 1)
            if group.committee_size:
                counts = np.stack([bootstrap_counts(k, map(state_generator, members))
                                   for members in group.bootstrap[:, step]])
                # each row's (B, p) coefficients and (B,) intercepts
                self.committees[rows] = zip(*fit_bootstrap_committee(
                    X[rows], y[rows], self.alpha, counts[group.which]))
                self.charge(group.seconds, t + 1)

    def select(self, t: int) -> None:
        """Every policy step, pair by pair, then every selection: each run of
        consecutive rows whose kinds name the same block scorer
        (``Kind.scorer``) in groups, one call per group, and every other row
        by its own selector, first.  A gsx run is one group, one argmax over
        its rows of the distance block; an igs or WiGS run is cut into
        groups of at most G = max(1, ``SCORE_BUDGET`` // (P·L)) rows, each
        one ``select_stacked`` call, and a group of one takes its kind's own
        selector.  Each row's pick and score are the bits its own selector
        gives it.  A policy step and a selector of one row are that pair's
        own seconds, and a group call's seconds go 1/G to each of its G
        rows.  A pair's selection reads only its own state, so the moves
        wait for ``move``."""
        clock, last, slot, own = time.perf_counter, self.last, t + 1, self.own
        positions, weights, kinds, caches = \
            self.positions, self.weights_now, self.kinds, self.caches
        for r in self.stepping:
            kind = kinds[r]
            reward = None
            context = None
            if kind.cv_reward:
                cv = self.cv_now[r]
                if self.cv_initial[r] is None:
                    self.cv_initial[r] = cv if cv > 0 else 1.0
                if self.cv_prev[r] is not None:
                    reward = self.cv_prev[r] - cv
                if kind.sac_state:
                    context = build_state(cv, self.cv_initial[r], t, self.horizon, caches[r])
                self.cv_prev[r] = cv
            weights[r] = self.policies[r].step(t, self.horizon, reward, context)
            self.weight[r, slot] = weights[r]
            now = clock()
            own[r][slot] = now - last
            last = now
        n_labeled, n_pool = self.partitions.n_labeled, self.partitions.n_pool
        size = max(1, SCORE_BUDGET // (n_pool * n_labeled))
        alone, groups = self.alone, []
        for scorer, start, stop in self.runs:
            step = stop - start if scorer == "gsx" else size
            cuts = [(lo, min(lo + step, stop)) for lo in range(start, stop, step)]
            alone = alone + [lo for lo, hi in cuts if hi - lo == 1]
            groups += [(scorer, lo, hi) for lo, hi in cuts if hi - lo > 1]
        pools, preds = self.features[:, n_labeled:], self.preds[:, 1:]
        for r in alone:
            result = kinds[r].select(Query(self.fits, r, pools[r], preds[r], caches[r],
                                           self.committees[r], weights[r], self.states[r]))
            positions[r] = result.chosen
            self.score[r, slot] = result.score
            now = clock()
            own[r][slot] += now - last
            last = now
        for scorer, lo, hi in groups:
            if scorer == "gsx":
                chosen, scores = pick_rows(self.distances.nearest[lo:hi, n_labeled:])
            else:
                chosen, scores = select_stacked(
                    [cache.dx_pair for cache in caches[lo:hi]], self.preds[lo:hi, 1:],
                    self.labels[lo:hi, :n_labeled], weights[lo:hi] if scorer == "wigs" else None)
            positions[lo:hi] = chosen.tolist()
            self.score[lo:hi, slot] = scores
            now = clock()
            seconds = (now - last) / (hi - lo)
            for r in range(lo, hi):
                own[r][slot] += seconds
            last = now
        self.last = last

    def move(self, slot: int) -> None:
        """The acquisition of every pair: all R partitions in one move, its
        time shared by all R pairs like a kernel call, then the distance
        states of the cache pairs in one update, its time shared by those
        pairs alone."""
        self.partitions.acquire(self.positions)
        self.charge(self.everyone_s, slot)
        if self.distances is not None:
            update_after_acquisition(self.distances)
            self.charge(self.distances_s, slot)
        n_labeled = self.partitions.n_labeled
        self.labeled = self.features[:, :n_labeled], self.labels[:, :n_labeled]

    def build_caches(self) -> None:
        """The distance state of every cache pair, as the rows of one
        ``DistanceBlock`` over the first Rc partitions, for the initial
        partitions and predictions."""
        if not self.n_caches:
            return
        self.distances = DistanceBlock(self.dataset.feature_distances, self.partitions,
                                       self.n_caches)
        for r in range(self.n_caches):
            self.caches[r] = build_cache(self.distances, r, self.preds[r, 1:])

    def predict(self, slot: int) -> None:
        """Each pair's predictions on its pool, into columns 1: of one
        (R, P + 1) buffer, which its distance cache then reads: each pair's
        product with its coefficients, then every intercept in one add,
        shared by all R pairs."""
        clock, last, own, fits = time.perf_counter, self.last, self.own, self.fits
        pools = self.features[:, self.partitions.n_labeled:]
        buffer = self.preds = np.empty((len(pools), self.partitions.n_pool + 1))
        for r, cache in enumerate(self.caches):
            preds = pools[r].dot(fits.coefficients[r], buffer[r, 1:])
            if cache is not None:
                cache.predictions = preds
            now = clock()
            own[r][slot] += now - last
            last = now
        self.last = last
        pool = buffer[:, 1:]
        pool += fits.intercepts[:, None]
        self.charge(self.everyone_s, slot)

    def record(self, slot: int) -> None:
        """Row ``slot`` of every trace in one pass over the block: the hybrid
        RMSE of each pool's residuals and the correlation of each hybrid with
        the truth.  Column 0 of the prediction buffer takes the label of each
        pair's last labeled point, the one the pool has just lost (at row 0 a
        label the hybrid holds already), so one assignment updates every
        hybrid; its zero residual is left out of the RMSE.  A non-finite
        prediction or residual square makes its RMSE non-finite, and then
        this raises, naming the pairs."""
        y, preds = self.dataset.targets, self.preds
        # the last labeled point, then the pool
        columns = self.orders[:, self.partitions.n_labeled - 1:]
        truth = y.take(columns)
        preds[:, 0] = truth[:, 0]
        rmse = hybrid_rmse((preds - truth)[:, 1:], y.size)
        # A finite RMSE is below 1.4e154, so the sum is finite iff every RMSE is.
        if not math.isfinite(np.add.reduce(rmse)):
            raise ValueError(f"non-finite predictions or rmse at iteration {slot} of "
                             + ", ".join(self.names[r] for r in np.flatnonzero(~np.isfinite(rmse))))
        self.rmse[:, slot] = rmse
        self.hybrid[self.rows, columns] = preds
        self.cc[:, slot] = correlation_coefficient(self.hybrid, y, self.centred_truth)
        self.last = time.perf_counter()

    def traces(self) -> list[Trace]:
        """The traces, in the order of the block's ``pairs``."""
        shared = np.zeros((len(self.rank), self.horizon + 1))
        for rows, count, seconds in self.shares:
            shared[rows] += np.array(seconds) / count
        wall_ms = (np.array(self.own) + shared) * 1000.0
        n_total = self.dataset.n_samples
        labeled = np.tile(np.arange(n_total - self.horizon, n_total + 1), (len(self.rank), 1))
        # each labeled set is in labeling order: its tail is the acquisitions
        acquired = np.empty((len(self.rank), self.horizon + 1), dtype=np.int64)
        acquired[:, 0] = -1
        acquired[:, 1:] = self.orders[:, n_total - self.horizon:]
        traces = [None] * len(self.rank)
        for r, i in enumerate(self.rank):
            traces[i] = Trace(
                method=self.methods[r].name,
                dataset=self.dataset.name,
                seed=self.seeds[r],
                labeled_count=labeled[r],
                rmse=self.rmse[r],
                cc=self.cc[r],
                weight=self.weight[r],
                score=self.score[r],
                acquired_idx=acquired[r],
                wall_ms=wall_ms[r],
            )
        return traces


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
    number of rows, L, and an iteration runs the phases of ``_Block`` over
    the whole block: the CV call of the pairs whose kind takes a CV reward
    and one committee call per committee size (each one kernel call), the
    policy steps (pair by pair), the selection (each run of rows whose kinds
    share a block scorer in groups of at most max(1, ``SCORE_BUDGET`` //
    (P·L)) rows, one call per group, and the other rows pair by pair), the
    move (every partition in one pass, then every cache pair's distance
    state in one ``update_after_acquisition`` call), the refit (one kernel
    call on the (R, L, p) labeled rows), each pair's prediction into one (R, P) buffer,
    and the recording of row t of all R traces in one pass.  A prediction
    or RMSE that is not finite raises ``ValueError`` naming the pairs and
    the iteration.  The block holds its pairs in its own row order, the
    cache pairs first (``_Block``), but a pair's trace is the same bits
    whatever block it runs in, and the traces come back in the order of
    ``pairs``.

    ``wall_ms`` of a row is the pair's own work for it plus its share of the
    block's shared calls for it: 1/G of the scoring call of the group of G
    rows it was scored in, 1/R of the partition move, of the refit and of
    the intercepts' add, 1/Rc of the distance update that the Rc
    cache pairs share, if the pair is one of them, and 1/R' of a CV or
    committee call that R' pairs share, if the pair is one of them.  Row 0
    is the initial fit and prediction, row t the iteration up to its
    recording; each pair's own product with its coefficients is charged to
    it.  The set-up, the initial distance cache and the
    recording are left out, as in a run of one pair at a time, so a block
    of one times what such a run timed.
    """
    block = _Block(dataset, pairs, initial_fraction, alpha, cv_folds)
    block.fit(0)
    block.predict(0)
    block.build_caches()
    block.record(0)
    for t in range(block.horizon):
        block.fit_groups(t)
        block.select(t)
        block.move(t + 1)
        block.fit(t + 1)
        block.predict(t + 1)
        block.record(t + 1)
    return block.traces()


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


def _key_prefix(trace: Trace) -> str:
    """The trace's (dataset, method, seed) cells, quoted by ``csv.writer``."""
    return _format_rows([(trace.dataset, trace.method, trace.seed)])[:-1]


def trace_rows(trace: Trace) -> str:
    """The trace's ``traces.csv`` rows, as CSV text: the key cells quoted
    once, and each number column read with one ``.tolist()``, the floats
    written with ``repr``."""
    prefix = _key_prefix(trace)
    return "".join(
        f"{prefix},{i},{count},{rmse!r},{cc!r},{weight!r},{score!r},{acquired}\n"
        for i, (count, rmse, cc, weight, score, acquired) in enumerate(zip(
            trace.labeled_count.tolist(), trace.rmse.tolist(), trace.cc.tolist(),
            trace.weight.tolist(), trace.score.tolist(), trace.acquired_idx.tolist())))


def timing_rows(trace: Trace) -> str:
    """The trace's ``timings.csv`` rows, as CSV text, like ``trace_rows``."""
    prefix = _key_prefix(trace)
    return "".join(f"{prefix},{i},{ms!r}\n" for i, ms in enumerate(trace.wall_ms.tolist()))


def _format_rows(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _atomic_write(path: str, *chunks: str) -> None:
    """Write ``chunks`` in order to ``path`` through a temporary file, so a
    reader sees the old file or the whole new one; no joined copy is made."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
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
    N²/2 floats), the state words of its CV and bootstrap streams for a
    ``STREAM_CHUNK`` of iterations, and the kind's ``state_bytes``."""
    kind = KINDS[method.kind]
    params = method.settings()
    fits, streams = 1, 0
    if kind.committee:
        fits = streams = int(params["committee_size"])
    if kind.cv_reward:
        fits = max(fits, cv_folds)
        streams += 1
    size = 8 * n_samples * n_features * (fits + 1) + 32 * STREAM_CHUNK * streams
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
                text = trace_rows(trace)
                finished[(method.name, seed)] = (trace, text, timing_rows(trace))
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
        ",".join(TRACE_COLUMNS) + "\n", *(rows for _, rows, _ in done),
    )
    _atomic_write(
        os.path.join(out_dir, "timings.csv"),
        ",".join(TIMING_COLUMNS) + "\n", *(rows for _, _, rows in done),
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
