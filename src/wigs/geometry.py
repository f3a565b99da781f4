"""Feature and output distances between the pool and the labeled set.

``distance_matrix`` builds the (N, N) matrix of Euclidean feature
distances between all dataset rows through ``pairwise_distances``; a
dataset builds it once (``Dataset.feature_distances``) and every
replication on that dataset reads every feature distance from it.  On top
of that matrix the cache keeps the pool and labeled dataset indices, the
(pool x labeled) block with its row minima, and each labeled point's
nearest labeled neighbour.  An acquisition drops the acquired row from the
block and appends the acquired point's column of the matrix, so no
distance is computed twice.  Output distances depend on the current
model's predictions and are derived from them on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # data imports this module for Dataset.feature_distances
    from .data import Dataset, SplitState


def pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows of a (n, p) and rows of b (m, p).

    The one formula for feature distances: ``distance_matrix`` fills a
    dataset's (N, N) matrix with it, and the selectors, the egal setup and
    the SAC state read that matrix.
    """
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def distance_matrix(features: np.ndarray) -> np.ndarray:
    """(N, N) feature distances between all rows of ``features``.

    Filled in blocks of N // p columns, so no difference tensor larger than
    the result is ever held; bit-equal to ``pairwise_distances(X, X)``.
    """
    n, p = features.shape
    step = max(1, n // p)
    dx = np.empty((n, n))
    for j in range(0, n, step):
        dx[:, j:j + step] = pairwise_distances(features, features[j:j + step])
    return dx


@dataclass
class DistanceCache:
    """The distance state of one replication.

    ``dx`` holds the feature distance between every pair of dataset rows
    and is the dataset's own matrix, shared, unchanged, by every cache of
    every replication on it.  ``dx_pair`` is ``dx[np.ix_(pool, labeled)]``
    and ``dx_min`` its row minima; ``labeled_nn`` is each labeled point's
    distance to its nearest other labeled point (inf while it is alone), in
    labeling order.  All three are kept incrementally.  Only the labeled
    targets are held, so no selector can read a pool label; ``dy_pair`` /
    ``dy_min`` compare them against the pool ``predictions``.
    """

    dx: np.ndarray               # (N, N) over all dataset rows
    pool: np.ndarray             # (P,) dataset indices, in pool order
    labeled: np.ndarray          # (L,) dataset indices, in labeling order
    labeled_targets: np.ndarray  # (L,)
    predictions: np.ndarray      # (P,) current model outputs for the pool
    dx_pair: np.ndarray          # (P, L)
    dx_min: np.ndarray           # (P,)
    labeled_nn: np.ndarray       # (L,)

    @property
    def n_pool(self) -> int:
        return len(self.pool)

    @property
    def dy_pair(self) -> np.ndarray:
        return np.abs(self.predictions[:, None] - self.labeled_targets[None, :])

    @property
    def dy_min(self) -> np.ndarray:
        return self.dy_pair.min(axis=1)  # the labeled set is never empty


def build_cache(dataset: Dataset, split: SplitState, predictions: np.ndarray) -> DistanceCache:
    """Distance state for an initial labeled/pool partition.

    ``predictions`` are the current model's outputs for the pool, in pool
    order.  ``dx`` is the dataset's matrix, built on its first read and
    computed no further here.
    """
    if len(split.labeled_idx) == 0:
        raise ValueError("labeled set is empty")
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != (len(split.pool_idx),):
        raise ValueError(
            f"predictions length {predictions.shape} does not match pool size {len(split.pool_idx)}"
        )
    dx = dataset.feature_distances
    pool = np.array(split.pool_idx, dtype=np.int64)
    labeled = np.array(split.labeled_idx, dtype=np.int64)
    dx_pair = dx[np.ix_(pool, labeled)]
    dx_labeled = dx[np.ix_(labeled, labeled)]
    np.fill_diagonal(dx_labeled, np.inf)
    return DistanceCache(
        dx=dx,
        pool=pool,
        labeled=labeled,
        labeled_targets=dataset.targets[labeled],
        predictions=predictions,
        dx_pair=dx_pair,
        dx_min=dx_pair.min(axis=1),
        labeled_nn=dx_labeled.min(axis=1),
    )


def update_after_acquisition(
    cache: DistanceCache,
    acquired: int,
    true_label: float,
    predictions: np.ndarray,
) -> DistanceCache:
    """Move pool candidate ``acquired`` (pool position) into the labeled set.

    The acquired row leaves ``dx_pair`` and its column of ``dx`` joins it;
    its distances to the labeled points lower their ``labeled_nn`` and give
    its own, in O(L).  ``predictions`` are the refit model's outputs for
    the remaining pool.
    """
    if not 0 <= acquired < cache.n_pool:
        raise IndexError(f"acquired position {acquired} not in pool of size {cache.n_pool}")
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != (cache.n_pool - 1,):
        raise ValueError("predictions must cover the pool minus the acquired candidate")

    keep = np.ones(cache.n_pool, dtype=bool)
    keep[acquired] = False
    new = cache.pool[acquired]
    pool = cache.pool[keep]
    row = cache.dx[new]  # dx is exactly symmetric: its row is its column
    new_col = row.take(pool)
    to_labeled = row.take(cache.labeled)
    return DistanceCache(
        dx=cache.dx,
        pool=pool,
        labeled=np.concatenate((cache.labeled, [new])),
        labeled_targets=np.concatenate((cache.labeled_targets, [float(true_label)])),
        predictions=predictions,
        dx_pair=np.hstack([cache.dx_pair[keep], new_col[:, None]]),
        dx_min=np.minimum(cache.dx_min[keep], new_col),
        labeled_nn=np.concatenate((np.minimum(cache.labeled_nn, to_labeled), [to_labeled.min()])),
    )


def normalize_phi(values: np.ndarray) -> np.ndarray:
    """Min-max map of a nonnegative distance collection onto [0, 1].

    Degenerate collections (max == min) map to all zeros.  Applied per
    iteration, separately to the feature-distance and output-distance
    pairwise collections, before they enter the weighted additive score.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot normalize an empty collection")
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)
