"""Feature and output distances between the pool and the labeled set.

``distance_matrix`` builds the (N, N) matrix of Euclidean feature
distances between all dataset rows through ``pairwise_distances``; a
dataset builds it once (``Dataset.feature_distances``) and every
replication on that dataset reads every feature distance from it.  On top
of that matrix the cache of one replication keeps each candidate's nearest
labeled distance and each labeled point's nearest labeled neighbour, in
buffers moved in place: an acquisition reads the acquired point's row of
the matrix, so no distance is computed twice and the update costs O(N).
The (pool x labeled) block is gathered only for the kinds that read it.
Output distances depend on the current model's predictions and are
derived from them on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # data imports this module for Dataset.feature_distances
    from .data import Dataset, Partition


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
    """The distance state of one replication, moved in place.

    ``dx`` holds the feature distance between every pair of dataset rows
    and is the dataset's own matrix, shared, unchanged, by every cache of
    every replication on it.  ``pool``, ``labeled`` and ``labeled_targets``
    are views of the replication's ``partition``, which holds only the
    labeled targets, so no selector can read a pool label.  ``dx_min`` is
    each candidate's distance to its nearest labeled point, in pool order,
    and ``labeled_nn`` each labeled point's distance to its nearest other
    labeled point (inf while it is alone), in labeling order; both are
    prefixes of length-N buffers kept in place.  ``dx_pair``, the
    (pool x labeled) block of ``dx``, is gathered on its first read and
    kept from then on, so only the kinds that read it (igs, wigs) pay for
    it.  ``dy_pair`` / ``dy_min`` compare the labeled targets against the
    pool ``predictions``.
    """

    dx: np.ndarray                      # (N, N) over all dataset rows
    partition: Partition                # the replication's, moved by its owner
    predictions: np.ndarray             # (P,) current model outputs for the pool
    _dx_min: np.ndarray                 # (N,), dx_min in [:P]
    _labeled_nn: np.ndarray             # (N,), labeled_nn in [:L]
    _dx_pair: np.ndarray | None = None  # (P, L) once read

    @property
    def pool(self) -> np.ndarray:
        return self.partition.pool

    @property
    def labeled(self) -> np.ndarray:
        return self.partition.labeled

    @property
    def labeled_targets(self) -> np.ndarray:
        return self.partition.labeled_targets

    @property
    def n_pool(self) -> int:
        return len(self.predictions)

    @property
    def dx_min(self) -> np.ndarray:
        return self._dx_min[:self.n_pool]

    @property
    def labeled_nn(self) -> np.ndarray:
        return self._labeled_nn[:len(self.dx) - self.n_pool]

    @property
    def dx_pair(self) -> np.ndarray:
        if self._dx_pair is None:
            self._dx_pair = self.dx[np.ix_(self.pool, self.labeled)]
        return self._dx_pair

    @property
    def dy_pair(self) -> np.ndarray:
        """|prediction - target| for every (pool, labeled) pair, in one new buffer."""
        diff = np.subtract.outer(self.predictions, self.labeled_targets)
        return np.abs(diff, out=diff)

    @property
    def dy_min(self) -> np.ndarray:
        """Row minima of ``dy_pair`` in O(P log L).

        |pred - t| is monotone in t on each side of pred, in floating point
        too (rounding is monotone), so the minimum is at one of the two
        sorted targets around pred: the same subtractions as ``dy_pair``,
        and an exact minimum.
        """
        targets = np.sort(self.labeled_targets)  # the labeled set is never empty
        above = np.searchsorted(targets, self.predictions)
        lo = targets[np.maximum(above - 1, 0)]
        hi = targets[np.minimum(above, len(targets) - 1)]
        return np.minimum(np.abs(self.predictions - lo), np.abs(self.predictions - hi))


def build_cache(dataset: Dataset, partition: Partition, predictions: np.ndarray) -> DistanceCache:
    """Distance state for the current state of ``partition``.

    ``predictions`` are the current model's outputs for the pool, in pool
    order.  ``dx`` is the dataset's matrix, built on its first read and
    computed no further here.
    """
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != (partition.n_pool,):
        raise ValueError(
            f"predictions length {predictions.shape} does not match pool size {partition.n_pool}"
        )
    dx = dataset.feature_distances
    pool, labeled = partition.pool, partition.labeled
    n = len(dx)
    dx_min = np.empty(n)
    dx_min[:len(pool)] = dx[np.ix_(pool, labeled)].min(axis=1)
    dx_labeled = dx[np.ix_(labeled, labeled)]
    np.fill_diagonal(dx_labeled, np.inf)
    labeled_nn = np.empty(n)
    labeled_nn[:len(labeled)] = dx_labeled.min(axis=1)
    return DistanceCache(dx, partition, predictions, dx_min, labeled_nn)


def update_after_acquisition(
    cache: DistanceCache,
    acquired: int,
    predictions: np.ndarray,
) -> None:
    """Follow the partition's move of pool position ``acquired`` to the labeled set.

    Call it right after ``cache.partition.acquire(acquired, label)``.  The
    acquired entry leaves ``dx_min`` by a shift, and the acquired point's
    row of ``dx`` lowers the remaining ``dx_min`` and the ``labeled_nn`` and
    gives its own, all in place, in O(N); a kept ``dx_pair`` drops the row
    and gains the column, in O(P·L).  ``predictions`` are the refit
    model's outputs for the remaining pool.
    """
    n_pool = cache.n_pool
    if not 0 <= acquired < n_pool:
        raise IndexError(f"acquired position {acquired} not in pool of size {n_pool}")
    part = cache.partition
    if part.n_pool != n_pool - 1:
        raise ValueError("the partition must acquire exactly one point before the cache update")
    predictions = np.asarray(predictions, dtype=float)
    if predictions.shape != (n_pool - 1,):
        raise ValueError("predictions must cover the pool minus the acquired candidate")

    n_old = part.n_labeled - 1
    row = cache.dx[part.order[n_old]]  # dx is exactly symmetric: its row is its column
    new_col = row.take(part.pool)
    to_labeled = row.take(part.order[:n_old])

    dx_min = cache._dx_min
    dx_min[acquired:n_pool - 1] = dx_min[acquired + 1:n_pool]
    np.minimum(dx_min[:n_pool - 1], new_col, out=dx_min[:n_pool - 1])
    nn = cache._labeled_nn
    np.minimum(nn[:n_old], to_labeled, out=nn[:n_old])
    nn[n_old] = to_labeled.min()
    old = cache._dx_pair
    if old is not None:  # one (P-1, L+1) allocation: the kept rows, then the new column
        pair = np.empty((n_pool - 1, old.shape[1] + 1))
        pair[:acquired, :-1] = old[:acquired]
        pair[acquired:, :-1] = old[acquired + 1:]
        pair[:, -1] = new_col
        cache._dx_pair = pair
    cache.predictions = predictions


def normalize_phi(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Min-max map of a nonnegative distance collection onto [0, 1].

    Applied per iteration, separately to the feature-distance and
    output-distance pairwise collections, before they enter the weighted
    additive score.  Degenerate collections (max == min) map to all zeros,
    on purpose: on identical rows every feature distance is 0, so the
    feature term ranks no candidate, just as gsx's all-zero ``dx_min``
    does, and the tie goes to the lowest pool position.

    ``out``, a float array of the shape of ``values`` (``values`` itself
    allowed), receives the result, with the same bits as a new array.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot normalize an empty collection")
    lo = values.min()
    hi = values.max()
    if out is None:
        out = np.empty_like(values)
    if hi == lo:
        out.fill(0.0)
        return out
    np.subtract(values, lo, out=out)
    return np.divide(out, hi - lo, out=out)
