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


class Partition:
    """The labeled/pool partition of one replication, moved in place.

    ``order`` holds the labeled dataset indices in labeling order followed
    by the pool in pool order, and ``features`` the dataset's rows, copied
    once in that order.  The labeled targets sit in an append-only buffer: a
    label enters only when its point is acquired, so no reader of the
    partition can reach a pool label.  The ``labeled*`` and ``pool*``
    properties are views, valid until the next ``acquire``.

    ``features`` (N, p), ``targets`` (N,) and ``order`` (N,) int64 are the
    buffers to fill, new ones by default; a block of replications passes
    row r of one (R, N, p), one (R, N) and one (R, N) int64 buffer to each
    member, so that its labeled rows are one (R, L, p) view and its pools
    one (R, P) view.
    """

    def __init__(self, dataset: Dataset, split: SplitState, features: np.ndarray | None = None,
                 targets: np.ndarray | None = None, order: np.ndarray | None = None):
        if order is None:
            order = np.empty(len(split.labeled_idx) + len(split.pool_idx), dtype=np.int64)
        self.order = np.concatenate([split.labeled_idx, split.pool_idx], out=order)
        self.n_labeled = len(split.labeled_idx)
        self.features = dataset.features.take(self.order, axis=0, out=features)
        self._targets = np.empty(len(self.order)) if targets is None else targets
        self._targets.fill(np.nan)
        self._targets[:self.n_labeled] = dataset.targets.take(split.labeled_idx)

    @property
    def n_pool(self) -> int:
        return len(self.order) - self.n_labeled

    @property
    def labeled(self) -> np.ndarray:
        return self.order[:self.n_labeled]

    @property
    def pool(self) -> np.ndarray:
        return self.order[self.n_labeled:]

    @property
    def labeled_features(self) -> np.ndarray:
        return self.features[:self.n_labeled]

    @property
    def pool_features(self) -> np.ndarray:
        return self.features[self.n_labeled:]

    @property
    def labeled_targets(self) -> np.ndarray:
        return self._targets[:self.n_labeled]

    def acquire(self, pos: int, label: float) -> None:
        """Move pool position ``pos`` to the end of the labeled set, with its label.

        Rotates ``order[L:L+pos+1]`` and the same feature rows right by one,
        in O(pos·p); the rest of the pool keeps its order.
        """
        if not 0 <= pos < self.n_pool:
            raise IndexError(f"acquired position {pos} not in pool of size {self.n_pool}")
        lo, hi = self.n_labeled, self.n_labeled + pos
        order, features = self.order, self.features
        moved, row = order[hi], features[hi].copy()  # a scalar is a copy already
        order[lo + 1:hi + 1] = order[lo:hi]
        order[lo] = moved
        features[lo + 1:hi + 1] = features[lo:hi]
        features[lo] = row
        self._targets[lo] = label
        self.n_labeled += 1


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


def load_csv(path: str | os.PathLike,
             categorical_columns: tuple[str, ...] | None = None) -> Dataset:
    """Parse a CSV file (header row, last column = target) into a raw dataset.

    A feature column is categorical if ``categorical_columns`` names it, or,
    when that is None, if any of its cells fails numeric parsing; it is
    one-hot encoded in category sort order.  Continuous columns and the
    target are kept as read and no column is dropped: ``scale_features``
    does the preprocessing.
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

    *columns, target_cells = zip(*data)
    targets = np.empty(len(data))
    for i, cell in enumerate(target_cells):
        val = _parse_float(cell)
        if val is None:
            raise ValueError(f"{path}: unparseable target {cell!r} in row {i + 2}")
        targets[i] = val

    blocks: list[np.ndarray] = []
    metas: list[ColumnMeta] = []
    for name, cells in zip(header, columns):
        parsed = [_parse_float(c) for c in cells]
        if categorical_columns is not None:
            is_cat = name in categorical_columns
        else:
            is_cat = None in parsed
        if is_cat:
            categories = tuple(sorted(set(cells)))
            block = np.zeros((len(data), len(categories)))
            lookup = {c: k for k, c in enumerate(categories)}
            for i, cell in enumerate(cells):
                block[i, lookup[cell]] = 1.0
            metas.append(ColumnMeta(name, "categorical", categories))
        else:
            block = np.array(parsed, dtype=float)[:, None]
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

    The labeled set has ceil(frac * N) points, at least 2.  Driven solely
    by ``seed`` (stream "split"), so identical inputs give identical splits.
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
