"""Feature and output distances between the pool and the labeled set.

``distance_matrix`` builds the (N, N) matrix of Euclidean feature
distances between all dataset rows through ``pairwise_distances``; a
dataset builds it once (``Dataset.feature_distances``) and every
replication on that dataset reads every feature distance from it.  On top
of that matrix the distance state of a replication keeps, for every point
in its partition's column order, the distance to its nearest labeled point
other than itself: for a labeled point its nearest labeled neighbour, for
a candidate its nearest labeled distance.  The states of a block's cache
pairs are rows of one (Rc, N) ``DistanceBlock`` buffer that follows the
first Rc partitions of a ``PartitionBlock``, and
``update_after_acquisition`` moves them all in one pass per acquisition:
the rows rotate as their partitions did, and the acquired points' rows of
the matrix lower them, so no distance is computed twice and the update
costs O(N) per pair.  The (pool x labeled) block is gathered only for the
kinds that read it, and kept pair by pair.  Output distances depend on the
current model's predictions and are derived from them on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # data imports this module for Dataset.feature_distances
    from .data import PartitionBlock


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


class DistanceBlock:
    """The distance states of the first ``n_rows`` partitions of a
    ``PartitionBlock``, moved in one pass.

    Row i of ``nearest`` (n_rows, N) holds, in partition i's column order,
    each point's distance to its nearest labeled point other than itself:
    the first L entries are the labeled points' nearest labeled neighbours
    (``labeled_nn``), the rest the candidates' nearest labeled distances
    (``dx_min``).  ``dx_pairs[i]`` is cache i's (pool x labeled) block of
    ``dx`` once it has been read, and None until then.  ``n_labeled`` is
    the labeled count the states cover.  The ``DistanceCache`` views that
    ``build_cache`` makes refer to the block, and the block to none of
    them, so no reference cycle outlives a run.
    """

    def __init__(self, dx: np.ndarray, partitions: PartitionBlock, n_rows: int):
        self.dx, self.partitions = dx, partitions
        self.nearest = np.empty((n_rows, len(dx)))
        self.dx_pairs: list[np.ndarray | None] = [None] * n_rows
        self.n_labeled = partitions.n_labeled
        self._flat_dx, self._flat_nearest = dx.reshape(-1), self.nearest.reshape(-1)

    def __len__(self) -> int:
        return len(self.nearest)


@dataclass
class DistanceCache:
    """The distance state of one replication: row ``row`` of ``block``.

    ``dx`` holds the feature distance between every pair of dataset rows
    and is the dataset's own matrix, shared, unchanged, by every cache of
    every replication on it.  ``pool``, ``labeled`` and ``labeled_targets``
    are views of row ``row`` of the block's partitions, which hold only the
    labeled targets, so no selector can read a pool label.  ``dx_min`` is
    each candidate's distance to its nearest labeled point, in pool order,
    and ``labeled_nn`` each labeled point's distance to its nearest other
    labeled point (inf while it is alone), in labeling order: the two parts
    of the cache's row of its block's buffer, moved in place by
    ``update_after_acquisition``.  ``dx_pair``, the (pool x labeled) block
    of ``dx``, is gathered on its first read and kept by the block from
    then on, so only the kinds that read it (igs, wigs) pay for it.  ``dy_pair`` / ``dy_min``
    compare the labeled targets against the pool ``predictions``, which
    the cache's owner sets after each refit.
    """

    block: DistanceBlock                # moved by update_after_acquisition
    row: int
    predictions: np.ndarray             # (P,) current model outputs for the pool

    def __post_init__(self):
        parts = self._partitions = self.block.partitions  # moved by their acquire
        self._order, self._labels = parts.orders[self.row], parts.labels[self.row]
        self._nearest = self.block.nearest[self.row]

    @property
    def dx(self) -> np.ndarray:
        """(N, N) over all dataset rows."""
        return self.block.dx

    @property
    def pool(self) -> np.ndarray:
        return self._order[self._partitions.n_labeled:]

    @property
    def labeled(self) -> np.ndarray:
        return self._order[:self._partitions.n_labeled]

    @property
    def labeled_targets(self) -> np.ndarray:
        return self._labels[:self._partitions.n_labeled]

    @property
    def n_pool(self) -> int:
        return self._partitions.n_pool

    @property
    def dx_min(self) -> np.ndarray:
        return self._nearest[self._partitions.n_labeled:]

    @property
    def labeled_nn(self) -> np.ndarray:
        return self._nearest[:self._partitions.n_labeled]

    @property
    def dx_pair(self) -> np.ndarray:
        pairs = self.block.dx_pairs
        if pairs[self.row] is None:
            pairs[self.row] = self.dx[np.ix_(self.pool, self.labeled)]
        return pairs[self.row]

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


def build_cache(block: DistanceBlock, row: int, predictions: np.ndarray) -> DistanceCache:
    """Distance state for the current state of partition ``row`` of the
    block's partitions, in row ``row`` of ``block``.

    ``predictions`` are the current model's outputs for the pool, in pool
    order.  ``dx`` is the block's matrix, the dataset's, and no distance is
    computed here.
    """
    predictions = np.asarray(predictions, dtype=float)
    cache = DistanceCache(block, row, predictions)
    if predictions.shape != (cache.n_pool,):
        raise ValueError(
            f"predictions length {predictions.shape} does not match pool size {cache.n_pool}"
        )
    dx, pool, labeled = block.dx, cache.pool, cache.labeled
    nearest = block.nearest[row]
    nearest[len(labeled):] = dx[np.ix_(pool, labeled)].min(axis=1)
    dx_labeled = dx[np.ix_(labeled, labeled)]
    np.fill_diagonal(dx_labeled, np.inf)
    nearest[:len(labeled)] = dx_labeled.min(axis=1)
    return cache


def update_after_acquisition(block: DistanceBlock) -> None:
    """Follow the partitions' last move (``PartitionBlock.acquire``) with
    every cache of ``block`` at once.

    Each row of ``nearest`` rotates as its partition's order did, by one
    ``take`` of the move's flat sources, so the acquired point's nearest
    labeled distance becomes its nearest labeled neighbour.  One gather of
    ``dx`` reads each acquired point's row in its partition's order, and
    one ``np.minimum`` lowers every other point's entry by it: all in O(N)
    per cache.  The block's rows are the partitions' first rows, so their
    orders and sources are read as views.  A kept ``dx_pair`` drops the
    row and gains the column, in O(P·L), pair by pair.  The pool
    ``predictions`` stay with the cache's owner.
    """
    parts = block.partitions
    n_old = block.n_labeled
    if parts.n_labeled != n_old + 1:
        raise ValueError("every partition must acquire exactly one point before the cache update")
    orders, sources = parts.orders[:len(block)], parts.sources[:len(block)]
    nearest = block.nearest
    nearest[:, n_old:n_old + sources.shape[1]] = block._flat_nearest.take(sources)
    n = orders.shape[1]
    # row i: dx[acquired_i, orders_i], with the acquired point itself at column n_old
    gathered = block._flat_dx.take(orders + orders[:, n_old:n_old + 1] * n)
    gathered[:, n_old] = np.inf  # its own entry keeps its nearest labeled distance
    np.minimum(nearest, gathered, out=nearest)
    pairs = block.dx_pairs
    for i, old in enumerate(pairs):
        if old is not None:  # one (P-1, L+1) allocation: the kept rows, then the new column
            acquired = parts.positions[i]
            pair = np.empty((len(old) - 1, n_old + 1))
            pair[:acquired, :-1] = old[:acquired]
            pair[acquired:, :-1] = old[acquired + 1:]
            pair[:, -1] = gathered[i, n_old + 1:]
            pairs[i] = pair
    block.n_labeled = n_old + 1


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
