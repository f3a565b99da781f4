"""Feature and output distances between the pool and the labeled set.

``distance_matrix`` builds the (N, N) matrix of Euclidean feature
distances between all dataset rows through ``pairwise_distances``; a
dataset builds it once (``Dataset.feature_distances``) and every
replication on that dataset reads every feature distance from it.  On top
of that matrix the distance state of a replication keeps, for every point
in its partition's column order, the distance to its nearest labeled point
other than itself: for a labeled point its nearest labeled neighbour, for
a candidate its nearest labeled distance.  These states are the rows of
one (Rc, N) ``DistanceBlock`` buffer that follows the first Rc partitions
of a ``PartitionBlock``; ``build_cache`` fills a row, and
``update_after_acquisition`` moves them all in one pass per acquisition:
the rows rotate as their partitions did, and the acquired points' rows of
the matrix lower them, so no distance is computed twice and the update
costs O(N) per row.  The (pool x labeled) block is gathered only for the
rows that read it, and kept row by row.  Output distances compare pool
predictions with labeled targets, two arrays the caller holds, and are
derived from them on demand (``dy_pair``, ``dy_min``).
"""

from __future__ import annotations

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

    ``dx`` holds the feature distance between every pair of dataset rows
    and is the dataset's own matrix, shared, unchanged, by every block on
    it.  Row i of ``nearest`` (n_rows, N) holds, in partition i's column
    order, each point's distance to its nearest labeled point other than
    itself: the first L entries are the labeled points' nearest labeled
    neighbours (``labeled_nn(i)``, inf while a point is alone), the rest
    the candidates' nearest labeled distances (``dx_min(i)``), in pool
    order.  ``dx_pairs[i]`` is row i's (pool x labeled) block of ``dx``
    once ``pair(i)`` has read it, and None until then, so only the kinds
    that read it (igs, WiGS) pay for it.  ``n_labeled`` is the labeled
    count the states cover.
    """

    def __init__(self, dx: np.ndarray, partitions: PartitionBlock, n_rows: int):
        self.dx, self.partitions = dx, partitions
        self.nearest = np.empty((n_rows, len(dx)))
        self.dx_pairs: list[np.ndarray | None] = [None] * n_rows
        self.n_labeled = partitions.n_labeled
        self._flat_dx, self._flat_nearest = dx.reshape(-1), self.nearest.reshape(-1)

    def __len__(self) -> int:
        return len(self.nearest)

    def pool(self, i: int) -> np.ndarray:
        """Row i's candidates, as dataset rows in pool order."""
        return self.partitions.orders[i, self.n_labeled:]

    def dx_min(self, i: int) -> np.ndarray:
        return self.nearest[i, self.n_labeled:]

    def labeled_nn(self, i: int) -> np.ndarray:
        return self.nearest[i, :self.n_labeled]

    def pair(self, i: int) -> np.ndarray:
        """Row i's (pool x labeled) block of ``dx``, gathered on its first
        read and kept, and moved, from then on."""
        pairs = self.dx_pairs
        if pairs[i] is None:
            labeled = self.partitions.orders[i, :self.n_labeled]
            pairs[i] = self.dx[np.ix_(self.pool(i), labeled)]
        return pairs[i]


def dy_pair(predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """|prediction - target| for every (pool, labeled) pair, in one new buffer."""
    diff = np.subtract.outer(predictions, targets)
    return np.abs(diff, out=diff)


def dy_min(predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row minima of ``dy_pair`` in O(P log L).

    |pred - t| is monotone in t on each side of pred, in floating point
    too (rounding is monotone), so the minimum is at one of the two sorted
    targets around pred: the same subtractions as ``dy_pair``, and an exact
    minimum.
    """
    targets = np.sort(targets)  # the labeled set is never empty
    above = np.searchsorted(targets, predictions)
    lo = targets[np.maximum(above - 1, 0)]
    hi = targets[np.minimum(above, len(targets) - 1)]
    return np.minimum(np.abs(predictions - lo), np.abs(predictions - hi))


def build_cache(block: DistanceBlock, row: int) -> None:
    """Fill row ``row`` of ``block`` for the current state of partition
    ``row`` of the block's partitions.  ``dx`` is the block's matrix, the
    dataset's, and no distance is computed here."""
    order, n_labeled = block.partitions.orders[row], block.n_labeled
    pool, labeled = order[n_labeled:], order[:n_labeled]
    nearest = block.nearest[row]
    nearest[n_labeled:] = block.dx[np.ix_(pool, labeled)].min(axis=1)
    dx_labeled = block.dx[np.ix_(labeled, labeled)]
    np.fill_diagonal(dx_labeled, np.inf)
    nearest[:n_labeled] = dx_labeled.min(axis=1)


def update_after_acquisition(block: DistanceBlock) -> None:
    """Follow the partitions' last move (``PartitionBlock.acquire``) with
    every row of ``block`` at once.

    Each row of ``nearest`` rotates as its partition's order did, by one
    ``take`` of the move's flat sources, so the acquired point's nearest
    labeled distance becomes its nearest labeled neighbour.  One gather of
    ``dx`` reads each acquired point's row in its partition's order, and
    one ``np.minimum`` lowers every other point's entry by it: all in O(N)
    per row.  The block's rows are the partitions' first rows, so their
    orders and sources are read as views.  A kept ``dx_pair`` drops the
    row and gains the column, in O(P·L), pair by pair.
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


def normalize_phi(values: np.ndarray) -> np.ndarray:
    """Min-max map of a nonnegative distance collection onto [0, 1].

    Applied per iteration, separately to the feature-distance and
    output-distance pairwise collections, before they enter the weighted
    additive score.  Degenerate collections (max == min) map to all zeros,
    on purpose: on identical rows every feature distance is 0, so the
    feature term ranks no candidate, just as gsx's all-zero ``dx_min``
    does, and the tie goes to the lowest pool position.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot normalize an empty collection")
    lo = values.min()
    hi = values.max()
    if hi == lo:
        return np.zeros_like(values)
    out = np.subtract(values, lo)
    return np.divide(out, hi - lo, out=out)
