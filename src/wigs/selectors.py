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

import numpy as np

from .geometry import DistanceCache, normalize_phi, pairwise_distances
from .model import Committee, RidgeModel, predictive_variance_batch
from .rng import generator


@dataclass(frozen=True)
class SelectionResult:
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
    """Multiplicative combination of feature and output distances."""
    if cache.n_pool == 0 or cache.dx_pair.shape[1] == 0:
        raise ValueError("empty pool or labeled set")
    return _pick(igs_scores(cache.dx_pair, cache.dy_pair))


def wigs_scores(phi_x: np.ndarray, phi_y: np.ndarray, w: float) -> np.ndarray:
    """Per-candidate min over labeled points of w*phi_x + (1-w)*phi_y.

    Inputs are already-normalized pairwise matrices; ``select_wigs``
    applies the min-max normalization first.
    """
    return np.min(w * phi_x + (1.0 - w) * phi_y, axis=1)


def select_wigs(cache: DistanceCache, w: float) -> SelectionResult:
    """Weighted additive combination of normalized pairwise distances."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"weight must lie in [0, 1], got {w}")
    if cache.n_pool == 0 or cache.dx_pair.shape[1] == 0:
        raise ValueError("empty pool or labeled set")
    phi_x = normalize_phi(cache.dx_pair)
    phi_y = normalize_phi(cache.dy_pair)
    return _pick(wigs_scores(phi_x, phi_y, w))


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


def egal_bandwidth(features: np.ndarray, seed: int, sample_cap: int = 500) -> float:
    """Similarity kernel bandwidth: mean pairwise distance over a seeded sample.

    Computed once per run from at most ``sample_cap`` dataset rows.
    """
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    take = min(sample_cap, n)
    idx = generator(seed, "egal").choice(n, size=take, replace=False)
    sample = features[idx]
    dist = pairwise_distances(sample, sample)
    off_diag = dist[~np.eye(take, dtype=bool)]
    return float(off_diag.mean()) if off_diag.size else 0.0


def egal_density(cache: DistanceCache, delta: float) -> np.ndarray:
    """Sum of Gaussian similarities from each candidate to the other pool points."""
    if delta <= 0.0:
        delta = 1.0  # degenerate sample; any positive bandwidth gives a valid ranking
    dist = pairwise_distances(cache.pool_features, cache.pool_features)
    sim = np.exp(-(dist ** 2) / (2.0 * delta ** 2))
    np.fill_diagonal(sim, 0.0)
    return sim.sum(axis=1)


def select_egal(cache: DistanceCache, delta: float) -> SelectionResult:
    """Densest candidate among those far enough from the labeled set.

    Candidates below the 25th percentile of nearest-labeled feature
    distance are filtered out first (diversity); if that empties the pool,
    all candidates are kept.
    """
    if cache.n_pool == 0:
        raise ValueError("empty candidate pool")
    density = egal_density(cache, delta)
    threshold = np.quantile(cache.dx_min, 0.25)
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
