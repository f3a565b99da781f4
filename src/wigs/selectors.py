"""Query strategies for pool-based regression active learning.

Every selector is a function of arrays; its per-candidate criterion
vector is either an input (gsx's ``dx_min``), a ``wigs.geometry`` output
distance (gsy's ``dy_min``) or a companion ``*_scores`` function, so the
argmax can be checked against independent enumeration.  Ties always break
toward the lowest candidate index.

The greedy-sampling family scores a candidate by its distance to the
nearest labeled point: in feature space (gsx), in output space (gsy), by
the minimum pairwise distance product (igs), or by the minimum weighted
sum of min-max normalized pairwise distances (wigs).  Their inputs are a
row of the block's arrays: the nearest-labeled distances and the
(pool x labeled) feature distances of a ``DistanceBlock`` row, the pool
predictions and the labeled targets.  The product rule has
a failure mode in dense regions: a near-zero feature distance multiplies
away any output-space signal.  ``verify_density_veto`` makes that failure
and the additive escape hatch checkable on explicit score tuples, and
``veto_demo`` runs that check over the documented tuple and random ones.

Two selectors screen, then confirm: ``select_wigs`` and egal's
``EgalState.select`` find the best candidate by a cheap score whose error
they bound, then compute the exact criterion again only for the
candidates within that bound of the best, so the pick and its score keep
the bits of the plain computation (``wigs_scores`` on ``normalize_phi``,
and ``select_egal``), which stays as the oracle.  egal's state keeps a
running density between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .geometry import dy_min, dy_pair
from .geometry import normalize_phi, pairwise_distances  # noqa: F401  sites bench/tracing.py wraps
from .model import predictive_variance_batch
from .rng import generator


# Candidates per chunk of egal's density sums: a (chunk, N) gather at a time.
EGAL_CHUNK_ROWS = 64

# The most dataset rows egal's bandwidth is estimated over.
EGAL_SAMPLE_ROWS = 500


class SelectionResult(NamedTuple):
    chosen: int                      # position in the current pool list
    score: float                     # criterion value of the winner


def _pick(scores: np.ndarray) -> SelectionResult:
    if scores.size == 0:
        raise ValueError("empty candidate pool")
    chosen = int(np.argmax(scores))  # first occurrence = lowest index on ties
    return SelectionResult(chosen=chosen, score=float(scores[chosen]))


def pick_rows(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_pick`` of each row of a (G, P) score array: the chosen positions
    and their scores."""
    chosen = scores.argmax(axis=1)  # first occurrence = lowest index on ties
    return chosen, scores[np.arange(len(chosen)), chosen]


def select_passive(n_pool: int, rng: np.random.Generator) -> SelectionResult:
    """Uniform random draw from the pool."""
    if n_pool < 1:
        raise ValueError("empty candidate pool")
    return SelectionResult(chosen=int(rng.integers(n_pool)), score=0.0)


def select_gsx(dx_min: np.ndarray) -> SelectionResult:
    """Most feature-space-remote candidate (nearest labeled neighbor farthest)."""
    return _pick(dx_min)


def select_gsy(predictions: np.ndarray, targets: np.ndarray) -> SelectionResult:
    """Candidate whose prediction is farthest from every known label."""
    return _pick(dy_min(predictions, targets))


def _check_pair(dx_pair: np.ndarray, predictions: np.ndarray, targets: np.ndarray) -> None:
    """Refuse an empty pool or labeled set, and a prediction or target row
    that does not match the (P, L) feature distances: numpy would broadcast
    a row of length 1 against them."""
    if dx_pair.size == 0:
        raise ValueError("empty pool or labeled set")
    if dx_pair.shape != (len(predictions), len(targets)):
        raise ValueError(f"feature distances {dx_pair.shape} do not match {len(predictions)} "
                         f"predictions and {len(targets)} targets")


def igs_scores(dx_pair: np.ndarray, dy_pair: np.ndarray) -> np.ndarray:
    """Per-candidate min over labeled points of the raw distance product."""
    return np.min(dx_pair * dy_pair, axis=1)


def select_igs(dx_pair: np.ndarray, predictions: np.ndarray,
               targets: np.ndarray) -> SelectionResult:
    """Multiplicative combination of feature and output distances.

    ``igs_scores`` with the product formed in the ``dy_pair`` buffer, so
    the scoring holds one (P, L) buffer; the same bits.
    """
    _check_pair(dx_pair, predictions, targets)
    product = dy_pair(predictions, targets)
    np.multiply(dx_pair, product, out=product)
    return _pick(product.min(axis=1))


def wigs_scores(phi_x: np.ndarray, phi_y: np.ndarray, w: float) -> np.ndarray:
    """Per-candidate min over labeled points of w*phi_x + (1-w)*phi_y.

    Inputs are already-normalized pairwise matrices; ``select_wigs``
    applies the min-max normalization first.
    """
    return np.min(w * phi_x + (1.0 - w) * phi_y, axis=1)


# The range of the coefficients a and b of ``select_wigs`` in which its
# slack bounds their rounding: outside it every candidate is rescored.
_NORMAL = (2.0**-1000, 2.0**1000)


def _screen_terms(w: float, lo_x: float, hi_x: float, lo_y: float,
                  hi_y: float) -> tuple[float, float, float] | None:
    """The screen of ``select_wigs`` for weight ``w`` and the bounds of the
    two collections: its coefficients (cx, cy) and its slack, or None when
    every candidate must be rescored."""
    span_x, span_y, w1 = hi_x - lo_x, hi_y - lo_y, 1.0 - w
    a = w / span_x if span_x > 0.0 else 0.0
    b = w1 / span_y if span_y > 0.0 else 0.0
    for c, weight, span in ((a, w, span_x), (b, w1, span_y)):
        if weight > 0.0 and span > 0.0 and not _NORMAL[0] <= c <= _NORMAL[1]:
            return None
    k = max(a, b)
    if k == 0.0:
        return 0.0, 0.0, 0.0
    height = 2.0 * max(hi_x, -lo_x) + hi_y
    slack = 2.0**-48 * height + 2.0**-1070 * (1.0 + 1.0 / k)
    return (1.0, b / a, slack) if a >= b else (a / b, 1.0, slack)


def select_wigs(dx_pair: np.ndarray, predictions: np.ndarray, targets: np.ndarray,
                w: float, dx_min: np.ndarray | None = None) -> SelectionResult:
    """Weighted additive combination of normalized pairwise distances.

    The pick and score of ``_pick(wigs_scores(normalize_phi(dx_pair),
    normalize_phi(dy_pair(predictions, targets)), w))``, bit for bit.  A
    collection of equal distances, such as the feature distances of a pool
    of identical rows, normalizes to zeros (``normalize_phi``), so its term
    adds nothing and ties go to the lowest pool position.  ``dx_min`` holds
    the row minima of ``dx_pair`` (the distance block's nearest-labeled
    distances); they are computed when not given.  A distance, prediction
    or target that is not finite raises ``ValueError``.

    Screen, then confirm.  The chain's bounds are lo_x = min ``dx_min``,
    hi_x = max ``dx_pair``, lo_y = min dy and hi_y = max(max p - min t,
    max t - min p), which is max dy exactly, since floating-point
    subtraction is monotone in each operand.  With the spans s = hi - lo,
    a = w / s_x and b = (1 - w) / s_y (0 where the span or the weight is
    0), each exact score is k·t_i + c up to rounding, where k = max(a, b),
    t_i = min_j (a dx_ij + b dy_ij) / k and c = -(a lo_x + b lo_y).  The
    screen scores each candidate by m_i = min_j (cx dx_ij + cy dy_ij), with
    (cx, cy) = (1, b/a) if a >= b and (a/b, 1) otherwise, so neither ratio
    exceeds 1 or overflows: dy, its minimum, the weighting and the row
    minima, 8 passes over (P, L) where the chain makes 14.  If a = 0 the
    screen is the row minima of dy, if b = 0 it is ``dx_min``, and if both
    are 0 every score is 0.  The candidates with m_i >= max m - slack are
    rescored by the chain's elementwise operations, in its order, with its
    bounds and with zeros where a span is 0, and the first exact maximum
    among them is the pick.

    Why the band holds every exact maximum.  Let u = 2**-53, η = 2**-1075
    (the underflow error of a product or a quotient) and H = 2 max(hi_x,
    -lo_x) + hi_y, which bounds |dx| + dy and both spans.  While a and b
    lie in [2**-1000, 2**1000], each relative to its own rounding:
    - an exact score is four roundings (subtract, divide, weight, add) of
      nonnegative terms whose sum is at most k H, so it lies within
      e1 = 4.01 u k H + 5η of k t_i + c;
    - the screen's coefficients are within 4u of a/k and b/k, which moves
      min_j (cx dx + cy dy) by at most 4u H from t_i, and m_i rounds by
      at most e2 = 2.01 u H + 2η more;
    - max m - slack rounds by at most u H.
    A candidate whose exact score is the maximum thus has m_i at least
    max m - 2 e1 / k - 8u H - 2 e2 - u H = max m - 21.04 u H - 4η -
    10η / k, and slack = 2**-48 H + 2**-1070 (1 + 1/k) exceeds that
    margin.  When a or b leaves that range, or underflows to 0, every
    candidate is rescored.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {w}")
    _check_pair(dx_pair, predictions, targets)
    if dx_min is None:
        dx_min = dx_pair.min(axis=1)
    bounds = (dx_min.min(), dx_pair.max(), predictions.min(), predictions.max(),
              targets.min(), targets.max())
    lo_x, hi_x, p_lo, p_hi, t_lo, t_hi = map(float, bounds)
    hi_y = max(p_hi - t_lo, t_hi - p_lo)
    if not all(map(math.isfinite, (lo_x, hi_x, p_lo, p_hi, t_lo, t_hi, hi_y))):
        raise ValueError("non-finite feature distances, predictions or targets")
    w1 = 1.0 - w
    lo_y = 0.0  # (1 - w) = 0 multiplies the output term away: dy is not needed
    if w1 > 0.0:
        dy = np.empty(dx_pair.shape)
        np.copyto(dy, targets)  # then in place: faster than subtract.outer
        np.subtract(predictions[:, None], dy, out=dy)
        np.abs(dy, out=dy)
        lo_y = float(dy.min())
    terms = _screen_terms(w, lo_x, hi_x, lo_y, hi_y)
    if terms is None:
        band = np.arange(len(dx_pair))
    else:
        cx, cy, slack = terms
        if cx == cy == 0.0:
            return SelectionResult(chosen=0, score=0.0)
        if cy == 0.0:
            screen = dx_min
        else:
            if cy != 1.0:
                np.multiply(dy, cy, out=dy)
            if cx == 1.0:
                np.add(dy, dx_pair, out=dy)
            elif cx != 0.0:
                np.add(dy, np.multiply(dx_pair, cx), out=dy)
            screen = dy.min(axis=1)
        band = np.flatnonzero(screen >= screen.max() - slack)
    # the chain on the band's rows, with the bounds of the whole collections
    phi_x = dx_pair[band]
    np.subtract(phi_x, lo_x, out=phi_x)
    np.divide(phi_x, hi_x - lo_x or 1.0, out=phi_x)  # span 0: every v - lo is 0
    phi_y = dy_pair(predictions[band], targets)
    np.subtract(phi_y, lo_y, out=phi_y)
    np.divide(phi_y, hi_y - lo_y or 1.0, out=phi_y)
    np.multiply(w, phi_x, out=phi_x)
    np.multiply(w1, phi_y, out=phi_y)
    np.add(phi_x, phi_y, out=phi_x)
    best = _pick(phi_x.min(axis=1))
    return SelectionResult(chosen=int(band[best.chosen]), score=best.score)


def select_stacked(dx_pairs, predictions: np.ndarray, targets: np.ndarray,
                   weights: list[float] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """igs (``weights`` None) or WiGS (one weight per row) over a group of G
    rows at once: the chosen pool position and the score of each row.

    Row g's (P, L) feature distances are ``dx_pairs[g]``, its pool
    predictions ``predictions[g]``, its labeled targets ``targets[g]`` and
    its weight ``weights[g]``.  Both collections of every row sit in one
    (2, G, P, L) buffer, and each step of ``select_igs`` / ``select_wigs``
    runs once over the whole buffer: per-row min-max bounds, zeros for a
    collection whose max equals its min (as ``normalize_phi``), the
    weights, the minimum over the labeled points and the argmax.  Every
    step is elementwise or an exact reduction, so row g gets the bits its
    own selector gives it.  The ``dx_pairs`` are read, not written.  A
    WiGS row with a distance, prediction or target that is not finite
    raises ``ValueError``, as ``select_wigs`` does.

    The WiGS rows run the full chain, not ``select_wigs``' screen: at the
    shapes where groups form (P·L at most half of
    ``wigs.harness.SCORE_BUDGET``), a grouped screen spends on its bounds,
    its band and its rescoring more than the six passes it saves.
    """
    if weights is not None and not all(0.0 <= w <= 1.0 for w in weights):
        raise ValueError(f"weights must lie in [0, 1], got {weights}")
    pair = np.empty((2, *predictions.shape, targets.shape[1]))
    dx, dy = pair
    np.concatenate(dx_pairs, out=dx.reshape(-1, dx.shape[2]))  # the rows stacked, one call
    np.copyto(dy, predictions[:, :, None])  # then in place: no ufunc buffer for two broadcasts
    np.subtract(dy, targets[:, None, :], out=dy)
    np.abs(dy, out=dy)
    if weights is None:
        np.multiply(dx, dy, out=dy)
        scores = dy.min(axis=2)
    else:
        collections = pair.reshape(-1, *pair.shape[2:])  # (2G, P, L)
        lo = collections.min(axis=(1, 2), keepdims=True)
        span = collections.max(axis=(1, 2), keepdims=True)
        np.subtract(span, lo, out=span)
        if not np.isfinite(span).all():  # a NaN or inf bound gives a NaN or inf span
            raise ValueError("non-finite feature distances, predictions or targets")
        # max == min: every finite v - lo is 0, and 0 / 1 gives normalize_phi's zeros
        span[span == 0.0] = 1.0
        np.subtract(collections, lo, out=collections)
        np.divide(collections, span, out=collections)
        factors = np.empty((2, len(weights), 1, 1))
        factors[0, :, 0, 0] = weights
        np.subtract(1.0, weights, out=factors[1, :, 0, 0])
        np.multiply(pair, factors, out=pair)
        scores = np.add(dx, dy, out=dx).min(axis=2)
    return pick_rows(scores)


def uncertainty_scores(pool_features: np.ndarray, feature_means: np.ndarray,
                       gram_inverse: np.ndarray, sigma2: float) -> np.ndarray:
    return predictive_variance_batch(pool_features, feature_means, gram_inverse, sigma2)


def select_uncertainty(pool_features: np.ndarray, feature_means: np.ndarray,
                       gram_inverse: np.ndarray, sigma2: float) -> SelectionResult:
    """Candidate with the largest analytic predictive variance."""
    return _pick(uncertainty_scores(pool_features, feature_means, gram_inverse, sigma2))


def qbc_scores(pool_features: np.ndarray, coefficients: np.ndarray,
               intercepts: np.ndarray) -> np.ndarray:
    """Population variance of the committee members' predictions per
    candidate, from their (B, p) coefficients and (B,) intercepts."""
    return (pool_features @ coefficients.T + intercepts).T.var(axis=0)


def select_qbc(pool_features: np.ndarray, coefficients: np.ndarray,
               intercepts: np.ndarray) -> SelectionResult:
    """Candidate the bootstrap committee disagrees about the most."""
    return _pick(qbc_scores(pool_features, coefficients, intercepts))


def emcm_scores(pool_features: np.ndarray, predictions: np.ndarray, feature_means: np.ndarray,
                coefficients: np.ndarray, intercepts: np.ndarray) -> np.ndarray:
    """Expected gradient-norm change of the squared loss at each candidate.

    ``predictions`` are the fitted model's on the pool, and ``feature_means``
    its training means; the committee's (B, p) coefficients and (B,)
    intercepts stand in for the unknown label.  The gradient of the squared
    loss for a linear model is the residual times the (centered,
    intercept-augmented) feature vector, so each term's norm is
    |residual| * ||x_tilde||.
    """
    centered = pool_features - feature_means
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered) + 1.0)
    residuals = np.abs(predictions[None, :] - (pool_features @ coefficients.T + intercepts).T)
    return residuals.mean(axis=0) * norms


def select_emcm(pool_features: np.ndarray, predictions: np.ndarray, feature_means: np.ndarray,
                coefficients: np.ndarray, intercepts: np.ndarray) -> SelectionResult:
    """Candidate expected to move the model parameters the most."""
    return _pick(emcm_scores(pool_features, predictions, feature_means, coefficients, intercepts))


def egal_bandwidth(dx: np.ndarray, seed: int) -> float:
    """Similarity kernel bandwidth: mean pairwise distance over a seeded sample.

    Read from the (N, N) feature distances ``dx`` over at most
    ``EGAL_SAMPLE_ROWS`` dataset rows, once per run.
    """
    n = dx.shape[0]
    take = min(EGAL_SAMPLE_ROWS, n)
    idx = generator(seed, "egal").choice(n, size=take, replace=False)
    # The off-diagonal entries, in row-major order, are the runs of ``take``
    # between consecutive diagonal entries; moving each run forward packs
    # them into the block's own leading slots, so no second copy is made.
    flat = dx[np.ix_(idx, idx)].reshape(-1)
    for k in range(take - 1):
        flat[k * take:(k + 1) * take] = flat[k * (take + 1) + 1:(k + 1) * (take + 1)]
    return float(flat[:take * (take - 1)].mean()) if take > 1 else 0.0


def egal_similarity(dx: np.ndarray, delta: float) -> np.ndarray:
    """Gaussian similarities exp(-d^2 / (2 delta^2)) with a zero diagonal.

    Built in one buffer of the shape of ``dx``; the in-place steps give the
    same bits as ``np.exp(-(dx ** 2) / (2.0 * delta ** 2))``.
    """
    if not delta > 0.0:
        raise ValueError(f"bandwidth must be positive, got {delta}")
    sim = np.square(dx)
    np.negative(sim, out=sim)
    np.divide(sim, 2.0 * delta ** 2, out=sim)
    np.exp(sim, out=sim)
    np.fill_diagonal(sim, 0.0)
    return sim


def egal_setup(dataset: Dataset, seed: int) -> np.ndarray:
    """Per-run egal state: the similarity between every pair of dataset rows."""
    dx = dataset.feature_distances
    delta = egal_bandwidth(dx, seed)
    if delta <= 0.0:
        delta = 1.0  # degenerate sample; any positive bandwidth gives a valid ranking
    return egal_similarity(dx, delta)


def egal_density(pool: np.ndarray, similarity: np.ndarray,
                 others: np.ndarray | None = None) -> np.ndarray:
    """Sum of Gaussian similarities from each candidate to the other pool points.

    Summed ``EGAL_CHUNK_ROWS`` candidates at a time, so no (P, N) gather is
    held: each candidate's row is the same P contiguous values, summed the
    same way, whatever chunk it falls in.  ``pool`` holds the candidates'
    dataset rows, and ``others`` the pool they are summed over when the
    candidates are only some of it (``EgalState``).
    """
    if others is None:
        others = pool
    chunk = EGAL_CHUNK_ROWS
    density = np.empty(len(pool))
    for start in range(0, len(pool), chunk):
        rows = similarity.take(pool[start:start + chunk], axis=0)
        density[start:start + chunk] = rows.take(others, axis=1).sum(axis=1)
    return density


def lower_quartile(values: np.ndarray) -> float:
    """``np.quantile(values, 0.25)`` bit for bit, from one partition: numpy's
    linear interpolation between the order statistics around the virtual
    index 0.25 (P - 1), with its own branch for a weight of at least 0.5,
    and NaN when any value is NaN (NaN sorts last)."""
    n = len(values)
    virtual = (n - 1) * 0.25
    below = int(virtual)
    above = min(below + 1, n - 1)
    ordered = np.partition(values, (below, above, n - 1))
    if ordered[-1] != ordered[-1]:
        return float(ordered[-1])
    a, b = float(ordered[below]), float(ordered[above])
    t = virtual - below
    diff = b - a
    return b - diff * (1.0 - t) if t >= 0.5 else a + diff * t


def _egal_kept(dx_min: np.ndarray) -> np.ndarray:
    """egal's diversity filter: the candidates at or above the 25th
    percentile of nearest-labeled distance, or all of them if none is."""
    kept = dx_min >= lower_quartile(dx_min)
    return kept if kept.any() else np.ones_like(kept)


def select_egal(pool: np.ndarray, dx_min: np.ndarray, similarity: np.ndarray) -> SelectionResult:
    """Densest candidate among those far enough from the labeled set.

    Candidates below the 25th percentile of nearest-labeled feature
    distance are filtered out first (diversity); if that empties the pool,
    all candidates are kept.  ``pool`` holds the candidates' dataset rows
    and ``dx_min`` their nearest-labeled distances; ``similarity`` is the
    run's ``egal_setup``.  The loop runs ``EgalState.select``, which gives
    the same bits; this is its oracle.
    """
    if len(pool) == 0:
        raise ValueError("empty candidate pool")
    density = egal_density(pool, similarity)
    return _pick(np.where(_egal_kept(dx_min), density, -np.inf))


class EgalState:
    """Per-run egal state: the similarity matrix of ``egal_setup`` and,
    for every dataset row, a running sum of its similarities to the rows
    ``counted``, which are the pool of the last ``select`` call.

    ``select`` gives ``select_egal``'s pick and score, bit for bit.  It
    first subtracts the similarity column of each row that has left the
    pool since its last call (O(N) per row, whatever the pool order), then
    screens the candidates that pass the diversity filter on their running
    density, and sums exactly (``egal_density``) only those within
    ``slack`` of the best.  Every density is a sum of similarities in
    [0, 1] whose magnitude is at most R, the largest row sum: the running
    one has passed through at most 2N roundings (the N-term row sum, then
    one subtraction per leaving row), the exact one through at most N,
    each off by at most u R with u = 2**-53, and the threshold rounds by
    u R more.  A candidate of the largest exact density is therefore at
    most (6N + 1) u R below the best running density, and slack = 8 N u R
    covers that.
    """

    def __init__(self, similarity: np.ndarray):
        self.similarity = similarity
        self.density = similarity.sum(axis=1)
        self.counted = np.ones(len(similarity), dtype=bool)
        self.slack = 8 * len(similarity) * 2.0**-53 * float(self.density.max())

    @classmethod
    def setup(cls, dataset: Dataset, seed: int) -> EgalState:
        return cls(egal_setup(dataset, seed))

    def select(self, pool: np.ndarray, dx_min: np.ndarray) -> SelectionResult:
        """``select_egal(pool, dx_min, self.similarity)``; ``pool`` lies
        within the pool of the last call."""
        if len(pool) == 0:
            raise ValueError("empty candidate pool")
        counted = self.counted
        counted[pool] = False
        left = np.flatnonzero(counted)  # counted, but no longer in the pool
        for row in left:
            self.density -= self.similarity[:, row]
        counted[left] = False
        counted[pool] = True
        screen = np.where(_egal_kept(dx_min), self.density[pool], -np.inf)
        band = np.flatnonzero(screen >= screen.max() - self.slack)
        best = _pick(egal_density(pool[band], self.similarity, pool))
        return SelectionResult(chosen=int(band[best.chosen]), score=best.score)


@dataclass(frozen=True)
class VetoReport:
    igs_prefers_distractor: bool
    additive_weight_window: tuple[float, float]  # open interval (0, 1/K)


def verify_density_veto(
    d_star: float, u_star: float, d_prime: float, u_prime: float
) -> VetoReport:
    """Check the density-veto construction on one (target, distractor) pair.

    Inputs are normalized scores in [0, 1]: the target has the higher
    uncertainty u* and lower diversity d*, the distractor the reverse.
    The multiplicative rule prefers the distractor iff d*u* < d'u'.  The
    additive rule prefers the target for every weight in the open window
    (0, 1/K) with K = (d' - d*)/(u* - u') + 1, which is never empty.
    """
    for name, v in (("d_star", d_star), ("u_star", u_star),
                    ("d_prime", d_prime), ("u_prime", u_prime)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    if not u_star > u_prime:
        raise ValueError("target must have strictly higher uncertainty (u* > u')")
    if not d_prime > d_star:
        raise ValueError("distractor must have strictly higher diversity (d' > d*)")

    igs_prefers_distractor = d_star * u_star < d_prime * u_prime
    K = (d_prime - d_star) / (u_star - u_prime) + 1.0
    upper = 1.0 / K
    for frac in (1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-6):
        w = frac * upper
        target = w * d_star + (1.0 - w) * u_star
        distractor = w * d_prime + (1.0 - w) * u_prime
        if not target > distractor:
            raise RuntimeError(
                f"additive preference failed inside the window at w={w}"
            )
    return VetoReport(
        igs_prefers_distractor=igs_prefers_distractor,
        additive_weight_window=(0.0, upper),
    )


def veto_demo(
    d_star: float = 0.05,
    u_star: float = 0.9,
    d_prime: float = 0.3,
    u_prime: float = 0.4,
    n_random: int = 1000,
    seed: int = 0,
) -> tuple[str, bool]:
    """Exercise the density-veto construction on the documented tuple plus
    random valid tuples; returns (printable report, all-checks-passed)."""
    lines = []
    ok = True

    report = verify_density_veto(d_star, u_star, d_prime, u_prime)
    lo, hi = report.additive_weight_window
    pref = "prefers distractor" if report.igs_prefers_distractor else "prefers target"
    lines.append(
        f"tuple (d*={d_star}, u*={u_star}, d'={d_prime}, u'={u_prime}): "
        f"multiplicative rule {pref}; additive window ({lo:.3g}, {hi:.3g})"
    )
    if hi <= lo:
        ok = False
        lines.append("FAIL: empty additive window on the documented tuple")

    rng = generator(seed, "dgp")
    failures = 0
    for _ in range(n_random):
        d_lo, d_hi = np.sort(rng.uniform(0.0, 1.0, size=2))
        u_lo, u_hi = np.sort(rng.uniform(0.0, 1.0, size=2))
        if d_hi == d_lo or u_hi == u_lo:
            continue
        rep = verify_density_veto(d_lo, u_hi, d_hi, u_lo)
        w_lo, w_hi = rep.additive_weight_window
        expected = d_lo * u_hi < d_hi * u_lo
        if w_hi <= w_lo or rep.igs_prefers_distractor != expected:
            failures += 1
    lines.append(f"random tuples checked: {n_random}, failures: {failures}")
    if failures:
        ok = False
    lines.append("RESULT: " + ("PASS" if ok else "FAIL"))
    return "\n".join(lines), ok
