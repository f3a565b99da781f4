"""Ridge regression with an unpenalized intercept, fitted in closed form.

Every fit is one kernel call: B row weightings of each of R labeled sets
of one size, each centred on its own weighted means, solved as
(Xc' W Xc + alpha I) beta = Xc' W yc in one batched solve.  A plain fit is
the unweighted pass, every row weighted 1 (and keeps the inverse Gram for
predictive variances), a K-fold CV fit a 0/1 train mask per fold, a
bootstrap committee a row of resample counts per member.  The public fits
take one labeled set, (k, p), as the block of one it is a view of, or a
stacked block, (R, k, p), and then return one result per set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

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


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


def _ridge(X: np.ndarray, y: np.ndarray, weights: np.ndarray | None, alpha: float):
    """Coefficients (R, B, p), intercepts (R, B), inverse Grams (R, B, p, p) and
    means (R, B, p) of the fits of a block of R labeled sets, X (R, k, p) and
    y (R, k), each under every row of its (B, k) weight matrix, weights
    (R, B, k).  The Gram is A'A with A = W^1/2 Xc, so it is exactly symmetric.

    Every product runs per (k, p) matrix of the block, through the same
    matmul, solve and einsum inner loops as a 2-D call, so a set's fit has
    the same bits whatever block it sits in; ``X`` may be a strided view,
    such as the labeled rows of one (R, N, p) buffer.

    weights=None is the one fit with every row weighted 1: it skips the
    W^1/2 scaling, which is exact because x * 1.0 == x.  The inverse Gram
    comes out of the same solve as the coefficients, with the identity beside
    Xc'W yc on the right-hand side.  Solving for the coefficient column alone
    changed the coefficient bits in 2,456 of 3,000 random systems (199 of 473
    at p = 1, all 1,272 at p >= 10), so traces.csv would move; a separate
    solve(gram, I) gave the joint inverse bit for bit (0 of 3,000) but costs
    a second factorisation.  The wrapper of np.linalg.solve cost about 3 µs
    of a 6 µs p = 1 solve, as much as the block axis costs a one-set fit.
    """
    R, k, p = X.shape
    unweighted = weights is None
    if unweighted:
        weights = np.ones((R, 1, k))
    B = weights.shape[1]
    total = weights.sum(axis=2)
    x_mean = weights @ X / total[:, :, None]
    y_mean = (weights @ y[:, :, None])[:, :, 0] / total
    A = X[:, None] - x_mean[:, :, None, :]                  # (R, B, k, p), W^1/2 Xc
    yc = (y[:, None, :] - y_mean[:, :, None])[..., None]
    if not unweighted:
        root = np.sqrt(weights)[..., None]
        A *= root
        yc *= root
    At = np.swapaxes(A, 2, 3)
    gram = At @ A
    gram.reshape(R * B, p * p)[:, ::p + 1] += alpha         # the diagonal, in place
    rhs = np.zeros((R, B, p, p + 1))                        # [Xc'W yc | I]
    rhs[..., :1] = At @ yc
    rhs.reshape(R * B, p * (p + 1))[:, 1::p + 2] = 1.0
    # np.linalg.solve's own gufunc under its own error state, without the
    # wrapper's checks, which hold for these float64 stacks by construction:
    # the same bits, and still LinAlgError on a singular Gram.
    with np.errstate(call=_singular, invalid="call", over="ignore", divide="ignore",
                     under="ignore"):
        solution = _umath_linalg.solve(gram, rhs)
    intercepts = y_mean - np.einsum("rbp,rbp->rb", solution[..., 0], x_mean)
    return solution[..., 0], intercepts, solution[..., 1:], x_mean


def _block(X, y) -> tuple[np.ndarray, np.ndarray, bool]:
    """A stacked (R, k, p) / (R, k) pair as float arrays, or one (k, p) / (k,)
    set as the R = 1 view of itself; the flag says which was given."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    stacked = X.ndim == 3
    if not stacked:
        X, y = X[None], y[None]
    if X.ndim != 3 or y.shape != X.shape[:2]:
        raise ValueError("X must be (k, p) and y (k,), or stacked as (R, k, p) and (R, k)")
    return X, y, stacked


def _seeds(seed, R: int, stacked: bool) -> list[int]:
    seeds = list(seed) if stacked else [seed]
    if len(seeds) != R:
        raise ValueError(f"a block of {R} sets needs {R} seeds, got {len(seeds)}")
    return seeds


def fit_ridge(X: np.ndarray, y: np.ndarray, alpha: float) -> RidgeModel | list[RidgeModel]:
    """Fit ridge coefficients on column-centered data; intercept unpenalized.

    X (k, p) and y (k,) give one model; a block X (R, k, p) and y (R, k)
    gives the list of its R models, each the same bits as its own 2-D fit.
    sigma2_hat is the residual variance RSS / max(k - p - 1, 1); the floor
    keeps it defined for the tiny labeled sets of early iterations.
    """
    X, y, stacked = _block(X, y)
    R, k, p = X.shape
    if k < 2:
        raise ValueError("need at least 2 training rows")
    if not 0 < alpha < math.inf:  # NaN fails both comparisons
        raise ValueError("alpha must be positive and finite")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite training data")
    coef, intercepts, gram_inverse, x_mean = _ridge(X, y, None, alpha)
    residuals = y - ((X @ coef[:, 0, :, None])[..., 0] + intercepts)
    sigma2 = np.vecdot(residuals, residuals) / max(k - p - 1, 1)
    models = [RidgeModel(coefficients=coef[r, 0], intercept=float(intercepts[r, 0]),
                         sigma2_hat=float(sigma2[r]), gram_inverse=gram_inverse[r, 0],
                         feature_means=x_mean[r, 0])
              for r in range(R)]
    return models if stacked else models[0]


def predictive_variance_batch(model: RidgeModel, X: np.ndarray) -> np.ndarray:
    """Analytic predictive variance sigma2_hat * xc' (Xc'Xc + aI)^-1 xc
    for every row of a (n, p) matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_means.shape[0]:
        raise ValueError("feature dimension mismatch")
    Xc = X - model.feature_means
    return model.sigma2_hat * np.einsum("ij,jk,ik->i", Xc, model.gram_inverse, Xc)


def cv_rmse(X: np.ndarray, y: np.ndarray, alpha: float, folds: int, seed) -> float | list[float]:
    """K-fold cross-validation RMSE pooled over all held-out residuals.

    Fold assignment is a seeded shuffle of the row indices split into
    near-equal contiguous chunks.  When there are fewer rows than folds the
    fold count drops to the row count (leave-one-out) with a FoldWarning.
    A block X (R, k, p), y (R, k) takes a sequence of R seeds, one per set,
    and gives the list of R values, all folds of all sets in one kernel call.
    """
    X, y, stacked = _block(X, y)
    R, k, _ = X.shape
    if k < 2:
        raise ValueError("need at least 2 rows for cross-validation")
    if folds < 2:
        raise ValueError("need at least 2 folds")
    seeds = _seeds(seed, R, stacked)
    if folds > k:
        warnings.warn(
            f"{folds}-fold CV reduced to {k}-fold (leave-one-out) for {k} rows",
            FoldWarning,
            stacklevel=2,
        )
        folds = k
    sizes = np.full(folds, k // folds)
    sizes[:k % folds] += 1
    chunks = np.repeat(np.arange(folds), sizes)
    fold = np.empty((R, k), dtype=int)
    for r, s in enumerate(seeds):
        fold[r][generator(s, "cv").permutation(k)] = chunks
    train = (fold[:, None, :] != np.arange(folds)[:, None]).astype(float)
    coef, intercepts, _, _ = _ridge(X, y, train, alpha)
    rows = np.arange(R)[:, None]
    residuals = y - (np.einsum("rip,rip->ri", X, coef[rows, fold]) + intercepts[rows, fold])
    rmse = np.sqrt(np.vecdot(residuals, residuals) / k).tolist()
    return rmse if stacked else rmse[0]


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
    X: np.ndarray, y: np.ndarray, alpha: float, B: int, seed
) -> Committee | list[Committee]:
    """B ridge fits on with-replacement resamples of size k.

    Member i draws its resample from a generator seeded with seed + i, so
    no member's resample depends on the others or on B.  A block X
    (R, k, p), y (R, k) takes a sequence of R seeds and gives the list of
    R committees, all R·B members in one kernel call.
    """
    X, y, stacked = _block(X, y)
    if B < 2:
        raise ValueError("need at least 2 committee members")
    R, k, _ = X.shape
    if k < 2:
        raise ValueError("need at least 2 training rows")
    counts = np.empty((R, B, k))
    for r, s in enumerate(_seeds(seed, R, stacked)):
        for i in range(B):
            counts[r, i] = np.bincount(generator(s + i, "bootstrap").integers(0, k, size=k),
                                       minlength=k)
    coef, intercepts, _, _ = _ridge(X, y, counts, alpha)
    committees = [Committee(coefficients=coef[r], intercepts=intercepts[r]) for r in range(R)]
    return committees if stacked else committees[0]
