"""Ridge regression with an unpenalized intercept, fitted in closed form.

Every fit is one kernel call: B row weightings of one labeled set, each
centred on its own weighted means, solved as (Xc' W Xc + alpha I) beta =
Xc' W yc in one batched solve.  A plain fit is the unweighted pass, every
row weighted 1 (and keeps the inverse Gram for predictive variances), a
K-fold CV fit a 0/1 train mask per fold, a bootstrap committee a row of
resample counts per member.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .rng import generator


class FoldWarning(UserWarning):
    """Recorded when the requested fold count exceeds the sample count."""


@dataclass(frozen=True)
class RidgeModel:
    coefficients: np.ndarray   # (p,)
    intercept: float
    sigma2_hat: float
    gram_inverse: np.ndarray   # (p, p), (Xc' Xc + alpha I)^-1
    feature_means: np.ndarray  # (p,) training means, used to center queries

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predictions for a (n, p) matrix or a single (p,) vector."""
        X = np.asarray(X, dtype=float)
        return X @ self.coefficients + self.intercept


def _ridge(X: np.ndarray, y: np.ndarray, weights: np.ndarray | None, alpha: float):
    """Coefficients (B, p), intercepts (B,), inverse Grams (B, p, p) and means
    (B, p) of the fits under each row of a (B, k) weight matrix.  The Gram is
    A'A with A = W^1/2 Xc, so it is exactly symmetric.

    weights=None is the one fit with every row weighted 1: it skips the
    W^1/2 scaling, which is exact because x * 1.0 == x.  The inverse Gram
    comes out of the same solve as the coefficients, with the identity beside
    Xc'W yc on the right-hand side.  Solving for the coefficient column alone
    changed the coefficient bits in 2,456 of 3,000 random systems (199 of 473
    at p = 1, all 1,272 at p >= 10), so traces.csv would move; a separate
    solve(gram, I) gave the joint inverse bit for bit (0 of 3,000) but costs
    a second factorisation.
    """
    k, p = X.shape
    unweighted = weights is None
    if unweighted:
        weights = np.ones((1, k))
    B = weights.shape[0]
    total = weights.sum(axis=1)
    x_mean = weights @ X / total[:, None]
    y_mean = weights @ y / total
    A = X - x_mean[:, None, :]                              # (B, k, p), W^1/2 Xc
    yc = (y - y_mean[:, None])[:, :, None]
    if not unweighted:
        root = np.sqrt(weights)[:, :, None]
        A *= root
        yc *= root
    At = np.swapaxes(A, 1, 2)
    gram = At @ A
    gram.reshape(B, p * p)[:, ::p + 1] += alpha             # the diagonal, in place
    rhs = np.zeros((B, p, p + 1))                           # [Xc'W yc | I]
    rhs[:, :, :1] = At @ yc
    rhs.reshape(B, p * (p + 1))[:, 1::p + 2] = 1.0
    solution = np.linalg.solve(gram, rhs)
    intercepts = y_mean - np.einsum("bp,bp->b", solution[:, :, 0], x_mean)
    return solution[:, :, 0], intercepts, solution[:, :, 1:], x_mean


def fit_ridge(X: np.ndarray, y: np.ndarray, alpha: float) -> RidgeModel:
    """Fit ridge coefficients on column-centered data; intercept unpenalized.

    sigma2_hat is the residual variance RSS / max(k - p - 1, 1); the floor
    keeps it defined for the tiny labeled sets of early iterations.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError("X must be (k, p) and y (k,)")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite training data")
    k, p = X.shape
    coef, intercepts, gram_inverse, x_mean = _ridge(X, y, None, alpha)
    residuals = y - (X @ coef[0] + intercepts[0])
    return RidgeModel(coefficients=coef[0], intercept=float(intercepts[0]),
                      sigma2_hat=float(residuals @ residuals) / max(k - p - 1, 1),
                      gram_inverse=gram_inverse[0], feature_means=x_mean[0])


def predictive_variance_batch(model: RidgeModel, X: np.ndarray) -> np.ndarray:
    """Analytic predictive variance sigma2_hat * xc' (Xc'Xc + aI)^-1 xc
    for every row of a (n, p) matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_means.shape[0]:
        raise ValueError("feature dimension mismatch")
    Xc = X - model.feature_means
    return model.sigma2_hat * np.einsum("ij,jk,ik->i", Xc, model.gram_inverse, Xc)


def cv_rmse(X: np.ndarray, y: np.ndarray, alpha: float, folds: int, seed: int) -> float:
    """K-fold cross-validation RMSE pooled over all held-out residuals.

    Fold assignment is a seeded shuffle of the row indices split into
    near-equal contiguous chunks.  When there are fewer rows than folds the
    fold count drops to the row count (leave-one-out) with a FoldWarning.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    k = X.shape[0]
    if k < 2:
        raise ValueError("need at least 2 rows for cross-validation")
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if folds > k:
        warnings.warn(
            f"{folds}-fold CV reduced to {k}-fold (leave-one-out) for {k} rows",
            FoldWarning,
            stacklevel=2,
        )
        folds = k
    sizes = np.full(folds, k // folds)
    sizes[:k % folds] += 1
    fold = np.empty(k, dtype=int)
    fold[generator(seed, "cv").permutation(k)] = np.repeat(np.arange(folds), sizes)
    train = (fold != np.arange(folds)[:, None]).astype(float)
    coef, intercepts, _, _ = _ridge(X, y, train, alpha)
    residuals = y - (np.einsum("ip,ip->i", X, coef[fold]) + intercepts[fold])
    return float(np.sqrt(residuals @ residuals / k))


@dataclass(frozen=True)
class Committee:
    """Ridge models fitted on bootstrap resamples of the same labeled set."""

    coefficients: np.ndarray  # (B, p), one row per member
    intercepts: np.ndarray    # (B,)

    def __post_init__(self):
        if len(self.intercepts) < 2:
            raise ValueError("a committee needs at least 2 members")

    @property
    def size(self) -> int:
        return len(self.intercepts)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Member predictions stacked as a (B, n) matrix."""
        return (np.asarray(X, dtype=float) @ self.coefficients.T + self.intercepts).T


def fit_bootstrap_committee(
    X: np.ndarray, y: np.ndarray, alpha: float, B: int, seed: int
) -> Committee:
    """B ridge fits on with-replacement resamples of size k.

    Member i draws its resample from a generator seeded with seed + i, so
    no member's resample depends on the others or on B.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if B < 2:
        raise ValueError("need at least 2 committee members")
    k = X.shape[0]
    if k < 2:
        raise ValueError("need at least 2 training rows")
    counts = np.stack([
        np.bincount(generator(seed + i, "bootstrap").integers(0, k, size=k), minlength=k)
        for i in range(B)
    ]).astype(float)
    coef, intercepts, _, _ = _ridge(X, y, counts, alpha)
    return Committee(coefficients=coef, intercepts=intercepts)
