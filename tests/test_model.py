import numpy as np
import pytest

from wigs.model import (
    FoldWarning,
    cv_rmse,
    fit_bootstrap_committee,
    fit_ridge,
    predictive_variance_batch,
)


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
        model = fit_ridge(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), alpha=0.01)
        slope = 0.5 / (0.5 + 0.01)  # centered 1-D closed form
        assert model.coefficients[0] == pytest.approx(slope, abs=1e-15)
        assert model.intercept == pytest.approx(0.5 - slope * 0.5, abs=1e-15)

    def test_constant_target(self):
        model = fit_ridge(np.array([[0.0], [1.0], [2.0]]), np.full(3, 7.0), alpha=0.01)
        assert np.allclose(model.coefficients, 0.0)
        assert model.intercept == pytest.approx(7.0)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        model = fit_ridge(X, y, alpha=0.01)
        oracle = gd_ridge_oracle(X, y, alpha=0.01)
        assert np.allclose(model.coefficients, oracle, rtol=1e-6, atol=1e-9)

    def test_ols_limit(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        model = fit_ridge(X, y, alpha=1e-10)
        Xc = X - X.mean(axis=0)
        ols, *_ = np.linalg.lstsq(Xc, y - y.mean(), rcond=None)
        assert np.allclose(model.coefficients, ols, rtol=1e-4)

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_ridge(np.array([[1.0]]), np.array([1.0]), alpha=0.01)
        with pytest.raises(ValueError):
            fit_ridge(np.array([[1.0], [2.0]]), np.array([1.0, np.nan]), alpha=0.01)
        with pytest.raises(ValueError):
            fit_ridge(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]), alpha=0.0)

    def test_gram_inverse_symmetric_pd(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 3))
        model = fit_ridge(X, rng.normal(size=20), alpha=0.01)
        assert np.allclose(model.gram_inverse, model.gram_inverse.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(model.gram_inverse) > 0)


class TestPredictiveVariance:
    @pytest.fixture
    def model(self):
        return fit_ridge(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]), alpha=0.01)

    def test_zero_at_centroid(self, model):
        assert predictive_variance_batch(model, np.array([[0.5]]))[0] == 0.0

    def test_two_point_value(self, model):
        # xc = 0.5, gram = 0.51: sigma2 * 0.25 / 0.51
        expected = model.sigma2_hat * 0.25 / 0.51
        assert predictive_variance_batch(model, np.array([[1.0]]))[0] == pytest.approx(expected)

    def test_argmax_invariant_under_sigma_scaling(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(15, 2))
        y = rng.normal(size=15)
        model = fit_ridge(X, y, alpha=0.01)
        pool = rng.normal(size=(40, 2))
        base = predictive_variance_batch(model, pool)
        scaled = base * 3.7  # positive scalar factor moves no argmax
        assert np.argmax(base) == np.argmax(scaled)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        model = fit_ridge(X, rng.normal(size=12), alpha=0.01)
        assert np.all(predictive_variance_batch(model, rng.normal(size=(50, 3))) >= 0)

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError):
            predictive_variance_batch(model, np.array([[1.0, 2.0]]))


class TestCvRmse:
    def test_near_interpolation_on_linear_data(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 2))
        y = X @ np.array([1.5, -2.0]) + 3.0
        assert cv_rmse(X, y, alpha=1e-8, folds=5, seed=0) < 1e-3

    def test_fold_clamping_warns(self):
        X = np.arange(4, dtype=float)[:, None]
        y = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.warns(FoldWarning):
            clamped = cv_rmse(X, y, alpha=0.01, folds=5, seed=1)
        four_fold = cv_rmse(X, y, alpha=0.01, folds=4, seed=1)
        assert clamped == four_fold

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        a = cv_rmse(X, y, alpha=0.01, folds=5, seed=99)
        b = cv_rmse(X, y, alpha=0.01, folds=5, seed=99)
        assert a == b

    def test_seed_changes_folds(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(25, 3))
        y = rng.normal(size=25)
        assert cv_rmse(X, y, 0.01, 5, seed=1) != cv_rmse(X, y, 0.01, 5, seed=2)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            cv_rmse(np.array([[1.0]]), np.array([1.0]), 0.01, 5, seed=0)


class TestCommittee:
    def test_deterministic_members(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 2))
        y = rng.normal(size=12)
        a = fit_bootstrap_committee(X, y, 0.01, B=10, seed=5)
        b = fit_bootstrap_committee(X, y, 0.01, B=10, seed=5)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.coefficients, mb.coefficients)

    def test_identical_rows_give_zero_variance(self):
        X = np.tile([[1.0, 2.0]], (6, 1))
        y = np.full(6, 3.0)
        committee = fit_bootstrap_committee(X, y, 0.01, B=5, seed=0)
        preds = committee.predict_matrix(np.array([[0.0, 0.0], [9.0, 9.0]]))
        assert np.allclose(preds.var(axis=0), 0.0)

    def test_committee_size_enforced(self):
        X = np.arange(6, dtype=float)[:, None]
        with pytest.raises(ValueError):
            fit_bootstrap_committee(X, np.zeros(6), 0.01, B=1, seed=0)
