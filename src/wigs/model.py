"""Ridge regression with an unpenalized intercept, fitted in closed form.

The predictor is deliberately simple: features are column-centered, the
coefficient system (Xc' Xc + alpha I) beta = Xc' yc is solved through a
Cholesky factorization (alpha > 0 makes it SPD), and the inverse Gram
matrix is retained so predictive variances are a quadratic form away.
Cross-validation RMSE pools the held-out residuals of a seeded fold
assignment into a single RMSE.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .rng import generator


class FoldWarning(UserWarning):
    """Recorded when the requested fold count exceeds the sample count."""


@dataclass(frozen=True)
class RidgeModel:
    coefficients: np.ndarray   # (p,)
    intercept: float
    alpha: float
    sigma2_hat: float
    gram_inverse: np.ndarray   # (p, p), (Xc' Xc + alpha I)^-1
    feature_means: np.ndarray  # (p,) training means, used to center queries

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predictions for a (n, p) matrix or a single (p,) vector."""
        X = np.asarray(X, dtype=float)
        return X @ self.coefficients + self.intercept


def _fit_centered(X: np.ndarray, y: np.ndarray, alpha: float) -> RidgeModel:
    """Closed-form fit without input validation (CV folds may have 1 row)."""
    k, p = X.shape
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean
    gram = Xc.T @ Xc + alpha * np.eye(p)
    factor = cho_factor(gram, lower=True)
    coef = cho_solve(factor, Xc.T @ yc)
    gram_inverse = cho_solve(factor, np.eye(p))
    intercept = y_mean - float(coef @ x_mean)
    residuals = y - (X @ coef + intercept)
    sigma2 = float(residuals @ residuals) / max(k - p - 1, 1)
    return RidgeModel(
        coefficients=coef,
        intercept=intercept,
        alpha=float(alpha),
        sigma2_hat=sigma2,
        gram_inverse=gram_inverse,
        feature_means=x_mean,
    )


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
    return _fit_centered(X, y, alpha)


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
    order = generator(seed, "cv").permutation(k)
    residuals = np.empty(k)
    pos = 0
    for fold_idx in np.array_split(order, folds):
        train_idx = np.setdiff1d(order, fold_idx, assume_unique=True)
        member = _fit_centered(X[train_idx], y[train_idx], alpha)
        preds = member.predict(X[fold_idx])
        residuals[pos:pos + len(fold_idx)] = y[fold_idx] - preds
        pos += len(fold_idx)
    return float(np.sqrt(residuals @ residuals / k))


@dataclass(frozen=True)
class Committee:
    """Ridge models fitted on bootstrap resamples of the same labeled set."""

    members: tuple[RidgeModel, ...]

    def __post_init__(self):
        if len(self.members) < 2:
            raise ValueError("a committee needs at least 2 members")

    @property
    def size(self) -> int:
        return len(self.members)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Member predictions stacked as a (B, n) matrix."""
        return np.stack([m.predict(X) for m in self.members])


def fit_bootstrap_committee(
    X: np.ndarray, y: np.ndarray, alpha: float, B: int, seed: int
) -> Committee:
    """B ridge fits on with-replacement resamples of size k.

    Member i draws its resample from a generator seeded with seed + i, so
    members can be fitted in any order (or concurrently) without changing
    the result.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if B < 2:
        raise ValueError("need at least 2 committee members")
    k = X.shape[0]
    if k < 2:
        raise ValueError("need at least 2 training rows")
    members = []
    for i in range(B):
        idx = generator(seed + i, "bootstrap").integers(0, k, size=k)
        members.append(_fit_centered(X[idx], y[idx], alpha))
    return Committee(members=tuple(members))
