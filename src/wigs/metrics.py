"""Evaluation metrics and cross-seed statistics for learning traces.

The central object is a :class:`Trace`: the per-iteration series recorded
by one (method, dataset, seed) run.  Row 0 is the state before any
acquisition; row t is the state after the t-th acquisition with the model
refit, so the final row always has every label known and a full-pool RMSE
of exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Trace:
    """Per-iteration record of one active learning run."""

    method: str
    dataset: str
    seed: int
    labeled_count: np.ndarray  # (T+1,)
    rmse: np.ndarray           # (T+1,) full-pool RMSE
    cc: np.ndarray             # (T+1,) correlation coefficient, NaN if undefined
    weight: np.ndarray         # (T+1,) weight used, NaN where not applicable
    score: np.ndarray          # (T+1,) winning selector score, NaN in row 0
    acquired_idx: np.ndarray   # (T+1,) dataset index acquired, -1 in row 0
    wall_ms: np.ndarray        # (T+1,) wall time per iteration

    def __post_init__(self):
        n = len(self.rmse)
        for name in ("labeled_count", "cc", "weight", "score", "acquired_idx", "wall_ms"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"trace field {name} misaligned")

    @property
    def n_iterations(self) -> int:
        return len(self.rmse) - 1


def hybrid_rmse(pool_residuals: np.ndarray, n_total: int) -> float | np.ndarray:
    """Full-pool RMSE from pool residuals alone (labeled residuals are zero).

    A stack of R residual vectors, (R, P), gives the (R,) values of its
    rows in one pass: the row-wise ``np.vecdot`` runs the same dot product
    as ``x @ x``, so each row has the bits of its own 1-D call, and a row
    of an empty pool (P = 0) reads exactly 0.0.
    """
    pool_residuals = np.asarray(pool_residuals, dtype=float)
    if pool_residuals.ndim == 2:
        return np.sqrt(np.vecdot(pool_residuals, pool_residuals) / n_total)
    if pool_residuals.size == 0:
        return 0.0
    return float(np.sqrt(pool_residuals @ pool_residuals / n_total))


def correlation_coefficient(predictions: np.ndarray, truth: np.ndarray,
                            centred_truth: np.ndarray | None = None) -> float | np.ndarray:
    """Pearson correlation of the hybrid predictions with the ground truth.

    Returns NaN (recorded as missing) when the truth or the predictions
    have zero variance.  The means are x.sum() / x.size: the same
    add.reduce and division as x.mean(), without its dispatch.

    A stack of R hybrid vectors, (R, N), gives the (R,) correlations of its
    rows with the one truth in one pass, each the bits of its own 1-D call:
    the row sums and the row-wise ``np.vecdot`` run the same reductions as
    ``x.sum()`` and ``x @ y``.  A caller that correlates many stacks with
    one truth passes ``centred_truth``, ``truth - truth.sum() / truth.size``
    computed once.
    """
    predictions = np.asarray(predictions, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predictions.shape[-1:] != truth.shape or predictions.ndim > 2 or truth.size < 2:
        raise ValueError("need same-length vectors of at least 2 points, or a stack of them")
    tc = truth - truth.sum() / truth.size if centred_truth is None else centred_truth
    tt = float(tc @ tc)
    if predictions.ndim == 2:
        pc = predictions - (np.add.reduce(predictions, 1) / truth.size)[:, None]  # as .sum()
        denom = np.sqrt(np.vecdot(pc, pc) * tt)  # 0 on every row if tt == 0
        denom[denom == 0.0] = np.nan  # x / NaN is NaN, with no warning
        return np.vecdot(pc, tc) / denom
    pc = predictions - predictions.sum() / predictions.size
    denom = math.sqrt(float(pc @ pc) * tt)
    if tt == 0.0 or denom == 0.0:
        return float("nan")
    return float(pc @ tc) / denom


def auc_trapezoid(values: np.ndarray) -> float:
    """Unit-spaced trapezoid area under a trace."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ValueError("need at least 2 points")
    return float(np.trapezoid(values))


def relative_auc(method_values: np.ndarray, baseline_values: np.ndarray) -> float:
    """Ratio of trapezoid AUCs for one seed's method trace vs its baseline.

    Per-seed ratios are averaged across seeds downstream, keeping the
    comparison paired.
    """
    method_values = np.asarray(method_values, dtype=float)
    baseline_values = np.asarray(baseline_values, dtype=float)
    if method_values.shape != baseline_values.shape:
        raise ValueError("traces must have equal lengths")
    denom = auc_trapezoid(baseline_values)
    if denom == 0.0:
        raise ValueError("baseline AUC is zero")
    return auc_trapezoid(method_values) / denom


def milestone_iteration(rmse: np.ndarray, q: float) -> int:
    """First iteration whose RMSE reaches q of the total possible gain.

    The anchor is the shared starting RMSE and the guaranteed final RMSE of
    zero, so the threshold is (1 - q) * rmse[0].
    """
    rmse = np.asarray(rmse, dtype=float)
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if rmse[0] == 0.0:
        raise ValueError("run already starts at zero error")
    hit = np.flatnonzero(rmse <= (1.0 - q) * rmse[0])
    if hit.size == 0:
        raise ValueError("threshold never reached")
    return int(hit[0])


def label_efficiency(method_rmse: np.ndarray, baseline_rmse: np.ndarray, q: float) -> float:
    """Labels needed to hit the q-milestone, relative to the baseline.

    Both traces must come from the same seed (identical starting RMSE).
    """
    method_rmse = np.asarray(method_rmse, dtype=float)
    baseline_rmse = np.asarray(baseline_rmse, dtype=float)
    if not math.isclose(method_rmse[0], baseline_rmse[0], rel_tol=1e-9, abs_tol=0.0):
        raise ValueError("traces do not share the same initial state")
    n_method = milestone_iteration(method_rmse, q)
    n_baseline = milestone_iteration(baseline_rmse, q)
    if n_baseline == 0:
        raise ValueError("baseline reaches the milestone with no acquisitions")
    return n_method / n_baseline


def wilcoxon_signed_rank(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided paired signed-rank test p-value.

    Zero differences are dropped; tied absolute differences get averaged
    ranks.  Up to 12 remaining pairs the null distribution is enumerated
    exactly; beyond that a normal approximation with tie-corrected variance
    and a 0.5 continuity correction is used.  All-zero differences give 1.0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.size == 0:
        raise ValueError("need two equal-length non-empty vectors")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return 1.0
    # average rank of each |d|: #{smaller} + (#{equal} + 1) / 2
    mags = np.abs(d)
    ordered = np.sort(mags)
    ranks = (np.searchsorted(ordered, mags, "left")
             + np.searchsorted(ordered, mags, "right") + 1) / 2.0
    w_plus = float(ranks[d > 0].sum())

    if n <= 12:
        # Exact null: every sign pattern equally likely; tally W+ outcomes.
        totals = np.zeros(1)
        for r in ranks:
            totals = np.concatenate([totals, totals + r])
        p_low = float(np.mean(totals <= w_plus + 1e-12))
        p_high = float(np.mean(totals >= w_plus - 1e-12))
        return min(1.0, 2.0 * min(p_low, p_high))

    mean = n * (n + 1) / 4.0
    variance = float(ranks @ ranks) / 4.0  # equals the tie-corrected formula
    dev = w_plus - mean
    if abs(dev) <= 0.5:
        return 1.0
    z = (abs(dev) - 0.5) / math.sqrt(variance)
    return min(1.0, math.erfc(z / math.sqrt(2.0)))

