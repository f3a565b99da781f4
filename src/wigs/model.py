"""Ridge regression with an unpenalized intercept, fitted in closed form.

Every fit is one kernel call: B row weightings of each of R labeled sets
of one size, each centred on its own weighted means, solved as
(Xc' W Xc + alpha I) beta = Xc' W yc in one batched solve.  A plain fit is
the unweighted pass, every row weighted 1 (and keeps the inverse Gram for
predictive variances), a K-fold CV fit a 0/1 train mask per fold, a
bootstrap committee a row of resample counts per member.  The CV shuffle
and the resamples come in drawn (``fold_assignment``, ``bootstrap_counts``),
so the caller derives their random streams.  The public fits
take one labeled set, (k, p), as the block of one it is a view of, or a
stacked block, (R, k, p), and then return one result per set: a plain fit
of a block returns its arrays, ``RidgeFits``, with no object per set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


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


@dataclass
class RidgeFits:
    """The plain fits of a block of R labeled sets, one row per set.

    ``fits[r]`` is set r's ``RidgeModel``, built on demand from views of
    these arrays, so a block that predicts from the arrays builds none.
    The residual variances are computed on their first read, from the
    training block ``X`` (R, k, p), ``y`` (R, k), which must not change
    before it: a block whose kinds read no model never pays for them.
    """

    coefficients: np.ndarray   # (R, p)
    intercepts: np.ndarray     # (R,)
    gram_inverse: np.ndarray   # (R, p, p)
    feature_means: np.ndarray  # (R, p)
    X: np.ndarray
    y: np.ndarray

    @cached_property
    def sigma2_hat(self) -> np.ndarray:
        """(R,) residual variances, as ``fit_ridge`` defines them."""
        _, k, p = self.X.shape
        fitted = (self.X @ self.coefficients[:, :, None])[..., 0] + self.intercepts[:, None]
        residuals = self.y - fitted
        return np.vecdot(residuals, residuals) / max(k - p - 1, 1)

    def __len__(self) -> int:
        return len(self.intercepts)

    def __getitem__(self, r: int) -> RidgeModel:
        return RidgeModel(self.coefficients[r], float(self.intercepts[r]),
                          float(self.sigma2_hat[r]), self.gram_inverse[r], self.feature_means[r])


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
        weights = np.empty((R, 1, k))
        weights.fill(1.0)
    B = weights.shape[1]
    total = np.add.reduce(weights, 2)  # weights.sum(axis=2) without its dispatch
    x_mean = weights @ X / total[:, :, None]
    y_mean = (weights @ y[:, :, None])[:, :, 0] / total
    A = X[:, None] - x_mean[:, :, None, :]                  # (R, B, k, p), W^1/2 Xc
    yc = (y[:, None, :] - y_mean[:, :, None])[..., None]
    if not unweighted:
        root = np.sqrt(weights)[..., None]
        A *= root
        yc *= root
    At = A.swapaxes(2, 3)
    gram = At @ A
    gram.reshape(R * B, p * p)[:, ::p + 1] += alpha         # the diagonal, in place
    rhs = np.zeros((R, B, p, p + 1))                        # [Xc'W yc | I]
    np.matmul(At, yc, out=rhs[..., :1])
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


def fit_ridge(X: np.ndarray, y: np.ndarray, alpha: float) -> RidgeModel | RidgeFits:
    """Fit ridge coefficients on column-centered data; intercept unpenalized.

    X (k, p) and y (k,) give one model; a block X (R, k, p) and y (R, k)
    gives its arrays, ``RidgeFits``, each set's row the same bits as its own
    2-D fit.  sigma2_hat is the residual variance RSS / max(k - p - 1, 1);
    the floor keeps it defined for the tiny labeled sets of early iterations.
    """
    X, y, stacked = _block(X, y)
    if X.shape[1] < 2:
        raise ValueError("need at least 2 training rows")
    if not 0 < alpha < math.inf:  # NaN fails both comparisons
        raise ValueError("alpha must be positive and finite")
    # A finite sum proves every entry finite; only a non-finite one needs the entrywise check.
    if not (math.isfinite(np.add.reduce(X, None)) and math.isfinite(np.add.reduce(y, None))) \
            and not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite training data")
    coef, intercepts, gram_inverse, x_mean = _ridge(X, y, None, alpha)
    fits = RidgeFits(coef[:, 0], intercepts[:, 0], gram_inverse[:, 0], x_mean[:, 0], X, y)
    return fits if stacked else fits[0]


def predictive_variance_batch(model: RidgeModel, X: np.ndarray) -> np.ndarray:
    """Analytic predictive variance sigma2_hat * xc' (Xc'Xc + aI)^-1 xc
    for every row of a (n, p) matrix."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.feature_means.shape[0]:
        raise ValueError("feature dimension mismatch")
    Xc = X - model.feature_means
    return model.sigma2_hat * np.einsum("ij,jk,ik->i", Xc, model.gram_inverse, Xc)


def fold_assignment(k: int, folds: int, rng: np.random.Generator) -> np.ndarray:
    """The held-out fold of each of k rows, (k,): ``rng`` shuffles the row
    indices, which are split into near-equal contiguous chunks.  When there
    are fewer rows than folds the fold count drops to the row count
    (leave-one-out) with a FoldWarning."""
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
    fold[rng.permutation(k)] = np.repeat(np.arange(folds), sizes)
    return fold


def cv_rmse(X: np.ndarray, y: np.ndarray, alpha: float, fold) -> float | list[float]:
    """K-fold cross-validation RMSE pooled over all held-out residuals.

    ``fold`` holds each row's held-out fold, as ``fold_assignment`` draws
    it; K is its largest entry plus one.  A block X (R, k, p), y (R, k)
    takes an (R, k) ``fold``, one row per set, and gives the list of R
    values, all folds of all sets in one kernel call.
    """
    X, y, stacked = _block(X, y)
    R, k, _ = X.shape
    if k < 2:
        raise ValueError("need at least 2 rows for cross-validation")
    fold = np.asarray(fold)
    if not stacked:
        fold = fold[None]
    if fold.shape != (R, k):
        raise ValueError(f"a block of {R} sets of {k} rows needs ({R}, {k}) fold indices, "
                         f"got {fold.shape}")
    folds = int(fold.max()) + 1
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


def bootstrap_counts(k: int, rngs) -> np.ndarray:
    """(B, k) resample counts of k rows: member i draws k rows with
    replacement from ``rngs[i]``, so no member's resample depends on the
    others or on B."""
    rngs = list(rngs)
    counts = np.empty((len(rngs), k))
    for i, rng in enumerate(rngs):
        counts[i] = np.bincount(rng.integers(0, k, size=k), minlength=k)
    return counts


def fit_bootstrap_committee(
    X: np.ndarray, y: np.ndarray, alpha: float, counts
) -> Committee | list[Committee]:
    """B ridge fits on with-replacement resamples of size k, one per row of
    the (B, k) resample ``counts`` (``bootstrap_counts``).  A block X
    (R, k, p), y (R, k) takes (R, B, k) counts and gives the list of R
    committees, all R·B members in one kernel call.
    """
    X, y, stacked = _block(X, y)
    R, k, _ = X.shape
    counts = np.asarray(counts, dtype=float)
    if not stacked:
        counts = counts[None]
    if counts.ndim != 3 or counts.shape[::2] != (R, k):
        raise ValueError(f"a block of {R} sets of {k} rows needs ({R}, B, {k}) resample "
                         f"counts, got {counts.shape}")
    if counts.shape[1] < 2:
        raise ValueError("need at least 2 committee members")
    if k < 2:
        raise ValueError("need at least 2 training rows")
    coef, intercepts, _, _ = _ridge(X, y, counts, alpha)
    committees = [Committee(coefficients=coef[r], intercepts=intercepts[r]) for r in range(R)]
    return committees if stacked else committees[0]
