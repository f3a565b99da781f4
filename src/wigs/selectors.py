"""Query strategies for pool-based regression active learning.

Every selector is a pure function of its inputs; each has a companion
``*_scores`` function returning the full per-candidate criterion vector so
the argmax can be checked against independent enumeration.  Ties always
break toward the lowest candidate index.

The greedy-sampling family scores a candidate by its distance to the
nearest labeled point: in feature space (gsx), in output space (gsy), by
the minimum pairwise distance product (igs), or by the minimum weighted
sum of min-max normalized pairwise distances (wigs).  The product rule has
a failure mode in dense regions: a near-zero feature distance multiplies
away any output-space signal.  ``verify_density_veto`` makes that failure
and the additive escape hatch checkable on explicit score tuples, and
``veto_demo`` runs that check over the documented tuple and random ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .geometry import DistanceCache, normalize_phi
from .geometry import pairwise_distances  # noqa: F401  a site that bench/tracing.py wraps
from .model import Committee, RidgeModel, predictive_variance_batch
from .rng import generator


# Candidates per chunk of egal's density sums: a (chunk, N) gather at a time.
EGAL_CHUNK_ROWS = 64


class SelectionResult(NamedTuple):
    chosen: int                      # position in the current pool list
    score: float                     # criterion value of the winner


def _pick(scores: np.ndarray) -> SelectionResult:
    if scores.size == 0:
        raise ValueError("empty candidate pool")
    chosen = int(np.argmax(scores))  # first occurrence = lowest index on ties
    return SelectionResult(chosen=chosen, score=float(scores[chosen]))


def select_passive(n_pool: int, rng: np.random.Generator) -> SelectionResult:
    """Uniform random draw from the pool."""
    if n_pool < 1:
        raise ValueError("empty candidate pool")
    return SelectionResult(chosen=int(rng.integers(n_pool)), score=0.0)


def gsx_scores(cache: DistanceCache) -> np.ndarray:
    return cache.dx_min


def select_gsx(cache: DistanceCache) -> SelectionResult:
    """Most feature-space-remote candidate (nearest labeled neighbor farthest)."""
    return _pick(gsx_scores(cache))


def gsy_scores(cache: DistanceCache) -> np.ndarray:
    return cache.dy_min


def select_gsy(cache: DistanceCache) -> SelectionResult:
    """Candidate whose prediction is farthest from every known label."""
    return _pick(gsy_scores(cache))


def igs_scores(dx_pair: np.ndarray, dy_pair: np.ndarray) -> np.ndarray:
    """Per-candidate min over labeled points of the raw distance product."""
    return np.min(dx_pair * dy_pair, axis=1)


def select_igs(cache: DistanceCache) -> SelectionResult:
    """Multiplicative combination of feature and output distances.

    ``igs_scores`` with the product formed in the ``dy_pair`` buffer, so
    the scoring holds one (P, L) buffer; the same bits.
    """
    if cache.n_pool == 0 or cache.dx_pair.shape[1] == 0:
        raise ValueError("empty pool or labeled set")
    product = cache.dy_pair
    np.multiply(cache.dx_pair, product, out=product)
    return _pick(product.min(axis=1))


def wigs_scores(phi_x: np.ndarray, phi_y: np.ndarray, w: float) -> np.ndarray:
    """Per-candidate min over labeled points of w*phi_x + (1-w)*phi_y.

    Inputs are already-normalized pairwise matrices; ``select_wigs``
    applies the min-max normalization first.
    """
    return np.min(w * phi_x + (1.0 - w) * phi_y, axis=1)


def select_wigs(cache: DistanceCache, w: float) -> SelectionResult:
    """Weighted additive combination of normalized pairwise distances.

    A collection of equal distances, such as the feature distances of a pool
    of identical rows, normalizes to zeros (``normalize_phi``), so its term
    adds nothing and ties go to the lowest pool position.  The operations
    of ``wigs_scores`` on the two normalized collections, in the same order,
    in two (P, L) buffers: the same bits.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {w}")
    if cache.n_pool == 0 or cache.dx_pair.shape[1] == 0:
        raise ValueError("empty pool or labeled set")
    phi_x = normalize_phi(cache.dx_pair)
    phi_y = cache.dy_pair
    normalize_phi(phi_y, out=phi_y)
    np.multiply(w, phi_x, out=phi_x)
    np.multiply(1.0 - w, phi_y, out=phi_y)
    np.add(phi_x, phi_y, out=phi_x)
    return _pick(phi_x.min(axis=1))


def uncertainty_scores(model: RidgeModel, pool_features: np.ndarray) -> np.ndarray:
    return predictive_variance_batch(model, pool_features)


def select_uncertainty(model: RidgeModel, pool_features: np.ndarray) -> SelectionResult:
    """Candidate with the largest analytic predictive variance."""
    return _pick(uncertainty_scores(model, pool_features))


def qbc_scores(committee: Committee, pool_features: np.ndarray) -> np.ndarray:
    """Population variance of committee member predictions per candidate."""
    return committee.predict_matrix(pool_features).var(axis=0)


def select_qbc(committee: Committee, pool_features: np.ndarray) -> SelectionResult:
    """Candidate the bootstrap committee disagrees about the most."""
    return _pick(qbc_scores(committee, pool_features))


def emcm_scores(
    model: RidgeModel, committee: Committee, pool_features: np.ndarray
) -> np.ndarray:
    """Expected gradient-norm change of the squared loss at each candidate.

    The committee predictions stand in for the unknown label; the gradient
    of the squared loss for a linear model is the residual times the
    (centered, intercept-augmented) feature vector, so each term's norm is
    |residual| * ||x_tilde||.
    """
    pool_features = np.asarray(pool_features, dtype=float)
    centered = pool_features - model.feature_means
    norms = np.sqrt(np.einsum("ij,ij->i", centered, centered) + 1.0)
    residuals = np.abs(model.predict(pool_features)[None, :] - committee.predict_matrix(pool_features))
    return residuals.mean(axis=0) * norms


def select_emcm(
    model: RidgeModel, committee: Committee, pool_features: np.ndarray
) -> SelectionResult:
    """Candidate expected to move the model parameters the most."""
    return _pick(emcm_scores(model, committee, pool_features))


def egal_bandwidth(dx: np.ndarray, seed: int, sample_cap: int = 500) -> float:
    """Similarity kernel bandwidth: mean pairwise distance over a seeded sample.

    Read from the (N, N) feature distances ``dx`` over at most
    ``sample_cap`` dataset rows, once per run.
    """
    n = dx.shape[0]
    take = min(sample_cap, n)
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


def egal_density(cache: DistanceCache, similarity: np.ndarray) -> np.ndarray:
    """Sum of Gaussian similarities from each candidate to the other pool points.

    Summed ``EGAL_CHUNK_ROWS`` candidates at a time, so no (P, N) gather is
    held: each candidate's row is the same P contiguous values, summed the
    same way, whatever chunk it falls in.
    """
    pool = cache.pool
    chunk = EGAL_CHUNK_ROWS
    density = np.empty(len(pool))
    for start in range(0, len(pool), chunk):
        rows = similarity.take(pool[start:start + chunk], axis=0)
        density[start:start + chunk] = rows.take(pool, axis=1).sum(axis=1)
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


def select_egal(cache: DistanceCache, similarity: np.ndarray) -> SelectionResult:
    """Densest candidate among those far enough from the labeled set.

    Candidates below the 25th percentile of nearest-labeled feature
    distance are filtered out first (diversity); if that empties the pool,
    all candidates are kept.  ``similarity`` is the run's ``egal_setup``.
    """
    if cache.n_pool == 0:
        raise ValueError("empty candidate pool")
    density = egal_density(cache, similarity)
    threshold = lower_quartile(cache.dx_min)
    kept = cache.dx_min >= threshold
    if not kept.any():
        kept = np.ones_like(kept)
    masked = np.where(kept, density, -np.inf)
    return _pick(masked)


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
