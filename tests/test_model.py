import contextlib
import warnings

import numpy as np
import pytest

from wigs.model import (
    FoldWarning,
    _ridge,
    bootstrap_counts,
    cv_rmse,
    fit_bootstrap_committee,
    fit_ridge,
    fold_assignment,
    predictive_variance_batch,
)
from wigs.rng import STREAMS, generator


def child_seed(seed, stream, index):
    """The integer child seed of iteration ``index`` of ``stream``, as the
    harness derives it: the first uint64 of numpy's SeedSequence state."""
    key = (STREAMS[stream], index)
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0])


def folds_of(k, folds, seed):
    """The fold assignment of k rows drawn from ``generator(seed, "cv")``,
    or stacked, one row per seed, for a sequence of seeds."""
    if isinstance(seed, int):
        return fold_assignment(k, folds, generator(seed, "cv"))
    return np.stack([folds_of(k, folds, s) for s in seed])


def counts_of(k, B, seed):
    """The (B, k) resample counts whose member i draws from
    ``generator(seed + i, "bootstrap")``, or stacked for a sequence of seeds."""
    if isinstance(seed, int):
        return bootstrap_counts(k, [generator(seed + i, "bootstrap") for i in range(B)])
    return np.stack([counts_of(k, B, s) for s in seed])


def oracle_fit(X, y, alpha):
    """The unbatched closed form: centre, then solve (Xc'Xc + alpha I).

    Returns (coefficients, intercept, gram_inverse, sigma2_hat).
    """
    k, p = X.shape
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    gram = Xc.T @ Xc + alpha * np.eye(p)
    coef = np.linalg.solve(gram, Xc.T @ (y - y_mean))
    intercept = y_mean - coef @ x_mean
    residuals = y - (X @ coef + intercept)
    sigma2 = residuals @ residuals / max(k - p - 1, 1)
    return coef, intercept, np.linalg.solve(gram, np.eye(p)), sigma2


def oracle_cv_rmse(X, y, alpha, folds, seed):
    """One fit per fold on the rows outside it, residuals pooled."""
    k = len(y)
    order = generator(seed, "cv").permutation(k)
    residuals = []
    for held_out in np.array_split(order, min(folds, k)):
        train = np.setdiff1d(order, held_out)
        coef, intercept, _, _ = oracle_fit(X[train], y[train], alpha)
        residuals.extend(y[held_out] - (X[held_out] @ coef + intercept))
    return float(np.sqrt(np.mean(np.square(residuals))))


def oracle_committee(X, y, alpha, B, seed):
    """One fit per member on its X[idx] bootstrap draw: (B, p) coefficients, (B,) intercepts."""
    k = len(y)
    fits = []
    for i in range(B):
        idx = generator(seed + i, "bootstrap").integers(0, k, size=k)
        fits.append(oracle_fit(X[idx], y[idx], alpha)[:2])
    return np.array([f[0] for f in fits]), np.array([f[1] for f in fits])


def assert_rel(got, want, scale=None, tol=1e-10):
    """max |got - want| within tol of the largest magnitude of scale (default want)."""
    scale = np.abs(want if scale is None else scale)
    assert np.max(np.abs(np.asarray(got) - want)) <= tol * np.max(scale)


def oracle_case(p, case):
    """60 labeled rows: plain, with column 0 offset by 1e6, or 20 rows repeated 3 times."""
    rng = np.random.default_rng(p)
    X = rng.normal(size=(60, p))
    y = X[:, 0] + rng.normal(size=60)
    if case == "offset":
        X[:, 0] += 1e6
    elif case == "duplicates":
        X, y = np.tile(X[:20], (3, 1)), np.tile(y[:20], 3)
    return X, y


def gd_ridge_oracle(X, y, alpha, tol=1e-12, max_iter=200_000):
    """Gradient-descent oracle for the centered ridge objective."""
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    p = X.shape[1]
    hessian = 2.0 * (Xc.T @ Xc + alpha * np.eye(p))
    lr = 1.0 / np.linalg.eigvalsh(hessian).max()
    beta = np.zeros(p)
    for _ in range(max_iter):
        grad = 2.0 * (Xc.T @ (Xc @ beta - yc) + alpha * beta)
        beta_next = beta - lr * grad
        if np.max(np.abs(beta_next - beta)) < tol:
            return beta_next
        beta = beta_next
    return beta


class TestFitRidge:
    def test_two_point_closed_form(self):
        fits = fit_ridge(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), alpha=0.01)
        assert len(fits) == 1  # one set is a block of one row
        slope = 0.5 / (0.5 + 0.01)  # centered 1-D closed form
        assert fits.coefficients[0, 0] == pytest.approx(slope, abs=1e-15)
        assert fits.intercepts[0] == pytest.approx(0.5 - slope * 0.5, abs=1e-15)

    def test_constant_target(self):
        fits = fit_ridge(np.array([[0.0], [1.0], [2.0]]), np.full(3, 7.0), alpha=0.01)
        assert np.allclose(fits.coefficients[0], 0.0)
        assert fits.intercepts[0] == pytest.approx(7.0)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        fits = fit_ridge(X, y, alpha=0.01)
        oracle = gd_ridge_oracle(X, y, alpha=0.01)
        assert np.allclose(fits.coefficients[0], oracle, rtol=1e-6, atol=1e-9)

    def test_ols_limit(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        fits = fit_ridge(X, y, alpha=1e-10)
        Xc = X - X.mean(axis=0)
        ols, *_ = np.linalg.lstsq(Xc, y - y.mean(), rcond=None)
        assert np.allclose(fits.coefficients[0], ols, rtol=1e-4)

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_ridge(np.array([[1.0]]), np.array([1.0]), alpha=0.01)
        with pytest.raises(ValueError):
            fit_ridge(np.array([[1.0], [2.0]]), np.array([1.0, np.nan]), alpha=0.01)
        for alpha in (0.0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="alpha must be positive and finite"):
                fit_ridge(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), alpha=alpha)

    def test_gram_inverse_symmetric_pd(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 3))
        gram_inverse = fit_ridge(X, rng.normal(size=20), alpha=0.01).gram_inverse[0]
        assert np.allclose(gram_inverse, gram_inverse.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(gram_inverse) > 0)


def variance_inputs(fits):
    """Row 0's means, inverse Gram and residual variance, as
    ``predictive_variance_batch`` takes them after the query rows."""
    return fits.feature_means[0], fits.gram_inverse[0], fits.sigma2_hat[0]


class TestPredictiveVariance:
    @pytest.fixture
    def model(self):
        return variance_inputs(fit_ridge(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]),
                                         alpha=0.01))

    def test_zero_at_centroid(self, model):
        assert predictive_variance_batch(np.array([[0.5]]), *model)[0] == 0.0

    def test_two_point_value(self, model):
        # xc = 0.5, gram = 0.51: sigma2 * 0.25 / 0.51
        expected = model[2] * 0.25 / 0.51
        assert predictive_variance_batch(np.array([[1.0]]), *model)[0] == pytest.approx(expected)

    def test_argmax_invariant_under_sigma_scaling(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        model = variance_inputs(fit_ridge(X, y, alpha=0.01))
        pool = rng.normal(size=(40, 2))
        base = predictive_variance_batch(pool, *model)
        scaled = base * 3.7  # positive scalar factor moves no argmax
        assert np.argmax(base) == np.argmax(scaled)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        model = variance_inputs(fit_ridge(X, rng.normal(size=12), alpha=0.01))
        assert np.all(predictive_variance_batch(rng.normal(size=(50, 3)), *model) >= 0)

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError):
            predictive_variance_batch(np.array([[1.0, 2.0]]), *model)


class TestCvRmse:
    def test_near_interpolation_on_linear_data(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 2))
        y = X @ np.array([1.5, -2.0]) + 3.0
        assert cv_rmse(X, y, 1e-8, folds_of(40, 5, 0)) < 1e-3

    def test_fold_clamping_warns(self):
        X = np.arange(4, dtype=float)[:, None]
        y = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.warns(FoldWarning):
            clamped = cv_rmse(X, y, 0.01, folds_of(4, 5, 1))
        four_fold = cv_rmse(X, y, 0.01, folds_of(4, 4, 1))
        assert clamped == four_fold

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        a = cv_rmse(X, y, 0.01, folds_of(25, 5, 99))
        b = cv_rmse(X, y, 0.01, folds_of(25, 5, 99))
        assert a == b

    def test_seed_changes_folds(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        assert cv_rmse(X, y, 0.01, folds_of(25, 5, 1)) != cv_rmse(X, y, 0.01, folds_of(25, 5, 2))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            cv_rmse(np.array([[1.0]]), np.array([1.0]), 0.01, np.zeros(1, dtype=int))
        with pytest.raises(ValueError):
            fold_assignment(1, 5, generator(0, "cv"))
        with pytest.raises(ValueError, match="at least 2 folds"):
            fold_assignment(6, 1, generator(0, "cv"))


class TestCommittee:
    def test_deterministic_members(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        a_coefficients, a_intercepts = fit_bootstrap_committee(X, y, 0.01, counts_of(12, 10, 5))
        b_coefficients, b_intercepts = fit_bootstrap_committee(X, y, 0.01, counts_of(12, 10, 5))
        assert a_coefficients.shape == (10, 2) and a_intercepts.shape == (10,)
        assert np.array_equal(a_coefficients, b_coefficients)
        assert np.array_equal(a_intercepts, b_intercepts)

    def test_identical_rows_give_zero_variance(self):
        X = np.tile([[1.0, 2.0]], (6, 1))
        y = np.full(6, 3.0)
        coefficients, intercepts = fit_bootstrap_committee(X, y, 0.01, counts_of(6, 5, 0))
        preds = (np.array([[0.0, 0.0], [9.0, 9.0]]) @ coefficients.T + intercepts).T
        assert np.allclose(preds.var(axis=0), 0.0)

    def test_committee_size_enforced(self):
        X = np.arange(6, dtype=float)[:, None]
        with pytest.raises(ValueError):
            fit_bootstrap_committee(X, np.zeros(6), 0.01, counts_of(6, 1, 0))


@pytest.mark.parametrize("case", ["plain", "offset", "duplicates"])
@pytest.mark.parametrize("p", [1, 3, 20])
class TestKernelMatchesClosedForm:
    """The batched kernel against one unbatched closed-form fit per weighting."""

    def test_fit_ridge(self, p, case):
        X, y = oracle_case(p, case)
        fits = fit_ridge(X, y, 0.01)
        coef, intercept, gram_inverse, sigma2 = oracle_fit(X, y, 0.01)
        assert_rel(fits.coefficients[0], coef)
        assert_rel(fits.intercepts[0], intercept)
        assert_rel(fits.gram_inverse[0], gram_inverse)
        assert_rel(fits.sigma2_hat[0], sigma2)
        assert_rel(fits.feature_means[0], X.mean(axis=0))

    def test_cv_rmse(self, p, case):
        X, y = oracle_case(p, case)
        for folds, seed in [(5, 3), (3, 8), (60, 1)]:
            assert_rel(cv_rmse(X, y, 0.01, folds_of(len(y), folds, seed)),
                       oracle_cv_rmse(X, y, 0.01, folds, seed))

    def test_leave_one_out_on_two_rows(self, p, case):
        X, y = oracle_case(p, case)
        with pytest.warns(FoldWarning):
            got = cv_rmse(X[:2], y[:2], 0.01, folds_of(2, 5, 4))
        assert_rel(got, oracle_cv_rmse(X[:2], y[:2], 0.01, 2, 4))

    def test_committee(self, p, case):
        X, y = oracle_case(p, case)
        members = fit_bootstrap_committee(X, y, 0.01, counts_of(len(y), 10, 3))
        coefs, intercepts = oracle_committee(X, y, 0.01, B=10, seed=3)
        assert_rel(members[0], coefs)
        assert_rel(members[1], intercepts)
        queries = np.vstack([X[:7], X[:7] + 0.5])
        # predictions at the 1e6 offset cancel between X @ beta and the
        # intercept, so they are compared on the scale of those two terms
        terms = np.abs(queries) @ np.abs(coefs).T + np.abs(intercepts)
        assert_rel((queries @ members[0].T + members[1]).T, (queries @ coefs.T + intercepts).T,
                   scale=terms)


def weighted_concatenate_ridge(X, y, weights, alpha):
    """The kernel before its unweighted pass: W^1/2 scaling for every
    weighting, alpha * eye added, and [Xc'W yc | I] built by concatenation."""
    B, p = weights.shape[0], X.shape[1]
    total = weights.sum(axis=1)
    x_mean = weights @ X / total[:, None]
    y_mean = weights @ y / total
    root = np.sqrt(weights)[:, :, None]
    A = (X - x_mean[:, None, :]) * root
    At = np.swapaxes(A, 1, 2)
    gram = At @ A + alpha * np.eye(p)
    rhs = np.concatenate([At @ ((y - y_mean[:, None])[:, :, None] * root),
                          np.broadcast_to(np.eye(p), (B, p, p))], axis=2)
    solution = np.linalg.solve(gram, rhs)
    intercepts = y_mean - np.einsum("bp,bp->b", solution[:, :, 0], x_mean)
    return solution[:, :, 0], intercepts, solution[:, :, 1:], x_mean


def exactness_case(p, case):
    """oracle_case plus a column constant over the rows (0.1, whose mean is
    inexact) and the two-row set."""
    if case == "constant":
        X, y = oracle_case(p, "plain")
        X[:, -1] = 0.1
    elif case == "two_rows":
        X, y = oracle_case(p, "plain")
        X, y = X[:2], y[:2]
    else:
        X, y = oracle_case(p, case)
    return X, y


def one_set_ridge(X, y, weights, alpha):
    """The kernel on one labeled set: its block of one, unstacked."""
    return [a[0] for a in _ridge(X[None], y[None], weights[None], alpha)]


def assert_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


@pytest.mark.parametrize("case", ["plain", "offset", "duplicates", "constant", "two_rows"])
@pytest.mark.parametrize("p", [1, 3, 20])
class TestKernelBitEqualToWeightedConcatenate:
    """Every fit gives the same bits as the weighted, concatenated kernel."""

    def test_fit_ridge_against_ones_weights(self, p, case):
        X, y = exactness_case(p, case)
        fits = fit_ridge(X, y, 0.01)
        coef, intercepts, gram_inverse, x_mean = weighted_concatenate_ridge(
            X, y, np.ones((1, len(y))), 0.01)
        assert_bits([fits.coefficients[0], fits.intercepts[0], fits.gram_inverse[0],
                     fits.feature_means[0]],
                    [coef[0], intercepts[0], gram_inverse[0], x_mean[0]])

    def test_cv_masks(self, p, case):
        X, y = exactness_case(p, case)
        k = len(y)
        for folds, seed in [(2, 8), (min(5, k), 3), (k, 1)]:
            sizes = np.full(folds, k // folds)
            sizes[:k % folds] += 1
            fold = np.empty(k, dtype=int)
            fold[generator(seed, "cv").permutation(k)] = np.repeat(np.arange(folds), sizes)
            train = (fold != np.arange(folds)[:, None]).astype(float)
            want = weighted_concatenate_ridge(X, y, train, 0.01)
            assert_bits(one_set_ridge(X, y, train, 0.01), want)
            coef, intercepts = want[:2]
            residuals = y - (np.einsum("ip,ip->i", X, coef[fold]) + intercepts[fold])
            want = float(np.sqrt(residuals @ residuals / k))
            assert cv_rmse(X, y, 0.01, folds_of(k, folds, seed)) == want

    def test_bootstrap_counts(self, p, case):
        X, y = exactness_case(p, case)
        k = len(y)
        counts = np.stack([
            np.bincount(generator(3 + i, "bootstrap").integers(0, k, size=k), minlength=k)
            for i in range(10)
        ]).astype(float)
        want = weighted_concatenate_ridge(X, y, counts, 0.01)
        assert_bits(one_set_ridge(X, y, counts, 0.01), want)
        assert_bits(fit_bootstrap_committee(X, y, 0.01, counts_of(k, 10, 3)), want[:2])


def block_case(R, p, case):
    """R labeled sets of k rows as the (R, k, p) / (R, k) views of the first k
    rows of (R, 30, p) / (R, 30) buffers, as the harness holds them: plain,
    column 0 offset by 1e6, each set's rows duplicated, k = 2, or k = 3
    (fewer rows than 5 folds)."""
    rng = np.random.default_rng(100 * R + p)
    features = rng.normal(size=(R, 30, p))
    targets = features[:, :, 0] + rng.normal(size=(R, 30))
    k = {"two_rows": 2, "few_rows": 3}.get(case, 24)
    if case == "offset":
        features[:, :, 0] += 1e6
    elif case == "duplicates":
        features[:, 12:24], targets[:, 12:24] = features[:, :12], targets[:, :12]
    return features[:, :k], targets[:, :k], [int(s) for s in rng.integers(0, 2**31, size=R)]


@pytest.mark.parametrize("case", ["plain", "offset", "duplicates", "two_rows", "few_rows"])
@pytest.mark.parametrize("p", [1, 3, 20])
@pytest.mark.parametrize("R", [1, 2, 7, 20])
class TestBlockEqualsPerSetCalls:
    """A stacked call gives, for every set of the block, the bits of its own 2-D call."""

    def test_fit_ridge(self, R, p, case):
        X, y, _ = block_case(R, p, case)
        models = fit_ridge(X, y, 0.01)
        assert len(models) == R
        for r in range(R):
            alone = fit_ridge(X[r], y[r], 0.01)
            assert_bits([models.coefficients[r], models.intercepts[r], models.gram_inverse[r],
                         models.feature_means[r], models.sigma2_hat[r]],
                        [alone.coefficients[0], alone.intercepts[0], alone.gram_inverse[0],
                         alone.feature_means[0], alone.sigma2_hat[0]])

    def test_cv_rmse(self, R, p, case):
        X, y, seeds = block_case(R, p, case)
        k = X.shape[1]
        for folds in (2, 5, k):
            warns = pytest.warns(FoldWarning) if folds > k else contextlib.nullcontext()
            with warns:
                got = cv_rmse(X, y, 0.01, folds_of(k, folds, seeds))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FoldWarning)
                want = [cv_rmse(X[r], y[r], 0.01, folds_of(k, folds, seeds[r])) for r in range(R)]
            assert_bits(got, want)

    def test_committee(self, R, p, case):
        X, y, seeds = block_case(R, p, case)
        k = X.shape[1]
        coefficients, intercepts = fit_bootstrap_committee(X, y, 0.01, counts_of(k, 10, seeds))
        assert len(coefficients) == len(intercepts) == R
        for r in range(R):
            alone = fit_bootstrap_committee(X[r], y[r], 0.01, counts_of(k, 10, seeds[r]))
            assert_bits([coefficients[r], intercepts[r]], alone)


class TestBlockShapes:
    def test_seed_count_must_match_block(self):
        X, y, seeds = block_case(3, 2, "plain")
        k = X.shape[1]
        with pytest.raises(ValueError, match=r"a block of 3 sets of 24 rows needs \(3, 24\) fold"):
            cv_rmse(X, y, 0.01, folds_of(k, 5, seeds[:2]))
        with pytest.raises(ValueError, match=r"a block of 3 sets of 24 rows needs \(3, B, 24\)"):
            fit_bootstrap_committee(X, y, 0.01, counts_of(k, 10, seeds[:2]))
        with pytest.raises(ValueError, match="fold indices"):
            cv_rmse(X, y, 0.01, folds_of(k - 1, 5, seeds))

    def test_targets_must_match_rows(self):
        X, y, _ = block_case(3, 2, "plain")
        with pytest.raises(ValueError, match="stacked as"):
            fit_ridge(X, y[:, :-1], 0.01)
        with pytest.raises(ValueError, match="stacked as"):
            fit_ridge(X[0], y, 0.01)

    def test_singular_gram_raises_linalg_error(self):
        # Rows all equal centre to zero, so with alpha = 0 every Gram of the
        # block is the zero matrix.
        X = np.ones((2, 4, 3))
        y = np.arange(8.0).reshape(2, 4)
        before = np.geterr()
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _ridge(X, y, None, 0.0)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _ridge(X, y, np.ones((2, 3, 4)), 0.0)
        assert np.geterr() == before  # the solve's error state does not leak
