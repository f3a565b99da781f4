"""Dataset ingestion, preprocessing, initial splits, and synthetic generators.

A :class:`Dataset` is the immutable ground truth for one task: a numeric
feature matrix, a target vector that is never scaled, and per-column
metadata.  Data enters raw, from ``load_csv`` or a bundled generator, and
``scale_features`` is the one preprocessing step for every source.  CSV
files follow one convention: UTF-8, comma-separated, header row, last
column is the target.

Two bundled generators produce 1-D regression tasks whose feature density
is a non-uniform three-component Gaussian mixture, with noise bands placed
on purpose inside the densest region.  They are the stress tests for
selection rules that multiply a diversity score into their criterion.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import distance_matrix
from .rng import generator


class PreprocessWarning(UserWarning):
    """Recorded when preprocessing drops or adjusts something silently fixable."""


@dataclass(frozen=True)
class ColumnMeta:
    """Metadata for one retained original column.

    ``categories`` is the ordered category list for categorical columns
    (sorted, defining the one-hot block order) and ``None`` for continuous
    columns.
    """

    name: str
    kind: str  # "continuous" | "categorical"
    categories: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (N, p) float64
    targets: np.ndarray   # (N,) float64
    column_meta: tuple[ColumnMeta, ...]
    name: str

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 2 or self.features.shape[1] < 1:
            raise ValueError("dataset needs N >= 2 rows and p >= 1 feature columns")
        if self.targets.shape != (self.features.shape[0],):
            raise ValueError("targets length must match feature rows")
        if not (np.isfinite(self.features).all() and np.isfinite(self.targets).all()):
            raise ValueError("non-finite feature or target entries")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @cached_property
    def feature_distances(self) -> np.ndarray:
        """(N, N) Euclidean distances between all feature rows.

        Built on first read and kept: every replication on this dataset
        object in this process (its distance cache, the egal setup) reads
        the same matrix.
        """
        return distance_matrix(self.features)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def feature_names(self) -> list[str]:
        """Expanded column names: one per feature column, one-hot as name=category."""
        names = []
        for meta in self.column_meta:
            if meta.kind == "continuous":
                names.append(meta.name)
            else:
                names.extend(f"{meta.name}={c}" for c in meta.categories)
        return names


@dataclass(frozen=True)
class SplitState:
    """Partition of a dataset into labeled and candidate-pool indices."""

    labeled_idx: np.ndarray
    pool_idx: np.ndarray
    seed: int

    def __post_init__(self):
        n = len(self.labeled_idx) + len(self.pool_idx)
        combined = np.concatenate([self.labeled_idx, self.pool_idx])
        if len(np.unique(combined)) != n or combined.min() != 0 or combined.max() != n - 1:
            raise ValueError("labeled and pool indices must partition 0..N-1")
        if len(self.labeled_idx) < 2:
            raise ValueError("need at least 2 labeled points to fit a model")


class PartitionBlock:
    """The labeled/pool partitions of a block of replications on one dataset,
    one per split, moved in lockstep.

    Row r of ``orders`` (R, N) int64 holds split r's labeled dataset indices
    in labeling order followed by its pool in pool order, row r of
    ``features`` (R, N, p) the dataset's rows, copied once in that order,
    and row r of ``labels`` (R, N) its labeled targets, NaN beyond
    ``n_labeled``: a label enters only when its point is acquired, so no
    reader of the block can reach a pool label.  Every split labels the
    same number of points, so with L labeled the labeled sets are the
    (R, L, ...) views, the pools ``orders[:, L:]`` and ``features[r, L:]``;
    these views are valid until the next move.  ``acquire`` moves all rows
    at once.  ``positions`` and ``sources`` describe the last move, so that
    a state kept in the same column order (a ``DistanceBlock``) can follow
    it with one ``take``.
    """

    def __init__(self, dataset: Dataset, splits):
        n_labeled = len(splits[0].labeled_idx)
        for split in splits:
            if len(split.labeled_idx) != n_labeled:
                raise ValueError(f"a split has {len(split.labeled_idx)} labeled points, "
                                 f"the first {n_labeled}")
        n_rows, (n, p) = len(splits), dataset.features.shape
        self.targets = dataset.targets
        self.orders = np.empty((n_rows, n), dtype=np.int64)
        self.features = np.empty((n_rows, n, p))
        self.labels = np.full((n_rows, n), np.nan)
        for r, split in enumerate(splits):
            order = np.concatenate([split.labeled_idx, split.pool_idx], out=self.orders[r])
            dataset.features.take(order, axis=0, out=self.features[r])
            self.targets.take(split.labeled_idx, out=self.labels[r, :n_labeled])
        self.n_labeled = n_labeled
        self.positions = self.sources = None  # of the last move
        self._n = n
        self._flat = np.arange(n_rows * n).reshape(n_rows, n)  # flat index of (row, column)
        self._before = self._flat - 1
        self._columns = self._flat[0]  # 0..N-1
        self._flat_features = self.features.reshape(n_rows * n, p)

    @property
    def n_pool(self) -> int:
        return self._n - self.n_labeled

    def acquire(self, positions) -> np.ndarray:
        """Move pool position ``positions[r]`` of every row r to the end of its
        labeled set, with its label, in one pass; return the acquired
        dataset indices, (R,).

        Each row's pool from its start to its position rotates right by one
        and the rest keeps its order: with L labeled, the new pool column
        L + j takes column L + j - 1 for 0 < j <= pos and column L + pos
        for j = 0.  Over the columns up to the largest position, that is one
        (R, width) array of flat source indices, ``sources``, and
        ``orders`` and ``features`` move by one flat ``take`` of it each;
        the labels take the targets of the acquired points.
        """
        L = self.n_labeled
        lo, hi = min(positions), max(positions)
        if lo < 0 or hi >= self.n_pool:
            bad = lo if lo < 0 else hi
            raise IndexError(f"acquired position {bad} not in pool of size {self.n_pool}")
        self.positions = positions = np.asarray(positions)
        width, column = hi + 1, positions[:, None]
        window = self._flat[:, L:L + width]
        src = np.where(self._columns[:width] <= column, self._before[:, L:L + width], window)
        src[:, 0] = window[:, 0] + positions
        self.sources = src
        orders = self.orders
        orders[:, L:L + width] = orders.take(src)
        self.features[:, L:L + width] = self._flat_features.take(src, 0)
        acquired = orders[:, L]
        self.labels[:, L] = self.targets.take(acquired)
        self.n_labeled = L + 1
        return acquired


def quantile_midpoint(values: np.ndarray, q: float) -> float:
    """Quantile with midpoint interpolation: average of bracketing order statistics."""
    return float(np.quantile(np.asarray(values, dtype=float), q, method="midpoint"))


def _scale_continuous(col: np.ndarray, scaling: str) -> np.ndarray | None:
    """Scaled copy of a continuous column, or None if its spread is zero."""
    if scaling == "zscore":
        std = float(col.std())  # population std
        if std == 0.0:
            return None
        return (col - col.mean()) / std
    median = quantile_midpoint(col, 0.5)
    iqr = quantile_midpoint(col, 0.75) - quantile_midpoint(col, 0.25)
    if iqr == 0.0:
        return None
    return (col - median) / iqr


def _parse_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _check_finite(path: str, values: np.ndarray, cells, name: str) -> None:
    """Refuse the first non-finite entry of a parsed column, by column and row."""
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{path}: non-finite value {cells[i]!r} in column {name!r}, row {i + 2}")


def load_csv(path: str | os.PathLike,
             categorical_columns: tuple[str, ...] | None = None) -> Dataset:
    """Parse a CSV file (header row, last column = target) into a raw dataset.

    A feature column is categorical if ``categorical_columns`` names it, or,
    when that is None, if any of its cells fails numeric parsing; it is
    one-hot encoded in category sort order.  Continuous columns and the
    target are kept as read and no column is dropped: ``scale_features``
    does the preprocessing.  A declared name that is no feature column, and
    a cell of a column not declared categorical that fails numeric parsing,
    are errors that name the column (and the row), and so is a numeric cell
    that reads as ``nan``, ``inf`` or ``-inf``.
    """
    path = os.fspath(path)
    if not os.path.exists(path):
        raise FileNotFoundError(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header, data = rows[0], rows[1:]
    if len(data) < 2:
        raise ValueError(f"{path}: need at least 2 data rows")
    n_cols = len(header)
    if n_cols < 2:
        raise ValueError(f"{path}: need at least one feature column and a target")
    if any(len(r) != n_cols for r in data):
        raise ValueError(f"{path}: ragged rows")
    for name in categorical_columns or ():
        if name not in header[:-1]:
            raise ValueError(f"{path}: categorical column {name!r} is not a feature column")

    *columns, target_cells = zip(*data)
    targets = np.empty(len(data))
    for i, cell in enumerate(target_cells):
        val = _parse_float(cell)
        if val is None:
            raise ValueError(f"{path}: unparseable target {cell!r} in row {i + 2}")
        targets[i] = val
    _check_finite(path, targets, target_cells, header[-1])

    blocks: list[np.ndarray] = []
    metas: list[ColumnMeta] = []
    for name, cells in zip(header, columns):
        parsed = [_parse_float(c) for c in cells]
        if categorical_columns is None:
            is_cat = None in parsed
        else:
            is_cat = name in categorical_columns
            if not is_cat and None in parsed:
                i = parsed.index(None)
                raise ValueError(f"{path}: unparseable value {cells[i]!r} in column {name!r}, "
                                 f"row {i + 2}")
        if is_cat:
            categories = tuple(sorted(set(cells)))
            block = np.zeros((len(data), len(categories)))
            lookup = {c: k for k, c in enumerate(categories)}
            for i, cell in enumerate(cells):
                block[i, lookup[cell]] = 1.0
            metas.append(ColumnMeta(name, "categorical", categories))
        else:
            block = np.array(parsed, dtype=float)[:, None]
            _check_finite(path, block[:, 0], cells, name)
            metas.append(ColumnMeta(name, "continuous"))
        blocks.append(block)
    base = os.path.splitext(os.path.basename(path))[0]
    return Dataset(np.hstack(blocks), targets, tuple(metas), base)


def scale_features(dataset: Dataset, scaling: str) -> Dataset:
    """Scale the continuous columns of a raw dataset: the one preprocessing step.

    ``scaling`` is "zscore" ((x - mean) / population std) or "robust"
    ((x - median) / IQR with midpoint-interpolated quartiles).  One-hot
    blocks are kept as they are and the target is never scaled.  A
    continuous column with zero spread under the mode is dropped with a
    PreprocessWarning.
    """
    if scaling not in ("zscore", "robust"):
        raise ValueError(f"unknown scaling mode: {scaling!r}")
    blocks: list[np.ndarray] = []
    metas: list[ColumnMeta] = []
    j = 0
    for meta in dataset.column_meta:
        if meta.kind == "categorical":
            width = len(meta.categories)
            blocks.append(dataset.features[:, j:j + width])
            metas.append(meta)
            j += width
            continue
        scaled = _scale_continuous(dataset.features[:, j], scaling)
        j += 1
        if scaled is None:
            warnings.warn(
                f"{dataset.name}: column {meta.name!r} has zero spread under "
                f"{scaling} scaling; dropped",
                PreprocessWarning,
                stacklevel=2,
            )
            continue
        blocks.append(scaled[:, None])
        metas.append(meta)
    if not blocks:
        raise ValueError(f"{dataset.name}: no usable feature columns after scaling")
    return Dataset(np.hstack(blocks), dataset.targets, tuple(metas), dataset.name)


def save_csv(dataset: Dataset, path: str | os.PathLike) -> None:
    """Export a dataset in the load_csv convention (features..., target last)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.feature_names + ["y"])
        for x_row, y in zip(dataset.features, dataset.targets):
            writer.writerow([repr(float(v)) for v in x_row] + [repr(float(y))])


def initial_split(dataset: Dataset, frac: float, seed: int) -> SplitState:
    """Uniform random split into an initial labeled set and a candidate pool.

    The labeled set has ceil(frac * N) points.  Fewer than 2 is refused,
    not raised to 2 ("labeled set would have 1 < 2 points"), and so is a
    fraction that leaves no pool.  Driven solely by ``seed`` (stream
    "split"), so identical inputs give identical splits.
    """
    if not 0.0 < frac < 1.0:
        raise ValueError(f"frac must be in (0, 1), got {frac}")
    n = dataset.n_samples
    n_labeled = math.ceil(frac * n)
    if n_labeled < 2:
        raise ValueError(f"labeled set would have {n_labeled} < 2 points")
    if n_labeled >= n:
        raise ValueError("labeled fraction leaves an empty pool")
    perm = generator(seed, "split").permutation(n)
    return SplitState(
        labeled_idx=perm[:n_labeled].astype(np.int64),
        pool_idx=perm[n_labeled:].astype(np.int64),
        seed=int(seed),
    )


# Mixture over [0, 1]: (weight, mean, std) per component.  Out-of-range
# draws are rejected and redrawn (component included), so no probability
# mass piles up at the boundaries.
_MIXTURE = ((0.4, 0.2, 0.07), (0.3, 0.5, 0.1), (0.3, 0.85, 0.05))


def _sample_mixture(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw n points from the bounded mixture; returns (x, generating component)."""
    weights = np.array([w for w, _, _ in _MIXTURE])
    means = np.array([m for _, m, _ in _MIXTURE])
    stds = np.array([s for _, _, s in _MIXTURE])
    x = np.empty(n)
    comp = np.empty(n, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        c = rng.choice(len(weights), size=pending.size, p=weights)
        draw = rng.normal(means[c], stds[c])
        ok = (draw >= 0.0) & (draw <= 1.0)
        x[pending[ok]] = draw[ok]
        comp[pending[ok]] = c[ok]
        pending = pending[~ok]
    return x, comp


def two_regime_mean(x: np.ndarray) -> np.ndarray:
    """Noise-free response: sin(10 pi x) below 0.5, then the line 2x - 1."""
    x = np.asarray(x, dtype=float)
    return np.where(x < 0.5, np.sin(10.0 * np.pi * x), 2.0 * x - 1.0)


def three_regime_mean(x: np.ndarray) -> np.ndarray:
    """Noise-free response with three functional regimes."""
    x = np.asarray(x, dtype=float)
    return np.where(
        x < 0.4,
        np.sin(8.0 * np.pi * x),
        np.where(x < 0.7, 3.0 * x - 1.5, 2.0 * np.cos(6.0 * np.pi * x)),
    )


def two_regime_noise_std(x: np.ndarray) -> np.ndarray:
    """Noise level: sigma = 1 on the band 0.8 < x < 0.9, else 0.1."""
    x = np.asarray(x, dtype=float)
    return np.where((x > 0.8) & (x < 0.9), 1.0, 0.1)


def three_regime_noise_std(x: np.ndarray) -> np.ndarray:
    """Noise level: 1.5 on 0.6 < x < 0.65, 0.15 for x >= 0.7, else 0.1."""
    x = np.asarray(x, dtype=float)
    sigma = np.full(x.shape, 0.1)
    sigma[x >= 0.7] = 0.15
    sigma[(x > 0.6) & (x < 0.65)] = 1.5
    return sigma


def _sample_dgp(n, seed, mean_fn, noise_fn, name) -> Dataset:
    if n < 2:
        raise ValueError("need n >= 2 samples")
    rng = generator(seed, "dgp")
    x, _ = _sample_mixture(n, rng)
    y = mean_fn(x) + noise_fn(x) * rng.standard_normal(n)
    return Dataset(x[:, None], y, (ColumnMeta("x", "continuous"),), name)


def sample_two_regime(n: int, seed: int) -> Dataset:
    """Two-regime synthetic task: a sine regime, a linear regime, and a
    high-noise band deliberately inside the densest mixture component."""
    return _sample_dgp(n, seed, two_regime_mean, two_regime_noise_std, "two_regime")


def sample_three_regime(n: int, seed: int) -> Dataset:
    """Three-regime variant with an extreme-noise sparse band plus a
    moderately noisy dense band."""
    return _sample_dgp(n, seed, three_regime_mean, three_regime_noise_std, "three_regime")
