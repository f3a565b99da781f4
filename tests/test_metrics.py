import itertools
import math

import numpy as np
import pytest

from wigs.data import initial_split, sample_two_regime
from wigs.metrics import (
    auc_trapezoid,
    correlation_coefficient,
    hybrid_rmse,
    label_efficiency,
    milestone_iteration,
    relative_auc,
    wilcoxon_signed_rank,
)
from wigs.model import fit_ridge


class TestFullPoolRmse:
    def test_hand_value(self):
        # N=4, two labeled (zero residual), pool residuals {3, 4}
        assert hybrid_rmse(np.array([3.0, 4.0]), 4) == 2.5  # sqrt(25/4)

    def test_empty_pool_is_zero(self):
        assert hybrid_rmse(np.zeros(0), 10) == 0.0

    def test_scaling_identity_vs_plain_pool_rmse(self):
        rng = np.random.default_rng(0)
        residuals = rng.normal(size=30)
        n_total = 50
        full = hybrid_rmse(residuals, n_total)
        plain = math.sqrt(float(residuals @ residuals) / len(residuals))
        assert full == pytest.approx(plain * math.sqrt(30 / 50))

    def test_integration_with_model(self):
        ds = sample_two_regime(40, seed=3)
        split = initial_split(ds, 0.1, seed=1)
        model = fit_ridge(ds.features[split.labeled_idx],
                          ds.targets[split.labeled_idx], 0.01)
        preds = model.predict(ds.features[split.pool_idx])
        resid = preds - ds.targets[split.pool_idx]
        value = hybrid_rmse(resid, ds.n_samples)
        assert value == pytest.approx(math.sqrt(float(resid @ resid) / 40))


class TestCorrelationCoefficient:
    def test_perfect(self):
        t = np.array([1.0, 2.0, 3.0])
        assert correlation_coefficient(t, t) == 1.0

    def test_negated(self):
        t = np.array([-1.0, 0.0, 1.0])  # zero-mean truth
        assert correlation_coefficient(-t, t) == pytest.approx(-1.0)

    def test_hand_three_points(self):
        preds = np.array([2.0, 2.0, 4.0])
        truth = np.array([1.0, 2.0, 3.0])
        # hand Pearson: cov 2/3, sd_t sqrt(2/3), sd_p sqrt(8/9) -> sqrt(3)/2
        assert correlation_coefficient(preds, truth) == pytest.approx(
            math.sqrt(3.0) / 2.0, abs=1e-12)
        assert correlation_coefficient(preds, truth) == pytest.approx(0.866025, abs=1e-6)

    def test_constant_truth_is_missing(self):
        assert math.isnan(correlation_coefficient(np.array([1.0, 2.0]),
                                                  np.array([5.0, 5.0])))


class TestAuc:
    def test_two_panel_example(self):
        assert auc_trapezoid(np.array([1.0, 3.0, 2.0])) == 4.5

    def test_constant(self):
        assert auc_trapezoid(np.full(5, 3.0)) == 12.0  # 4 * v

    def test_ramp(self):
        assert auc_trapezoid(np.array([0.0, 1.0])) == 0.5

    def test_too_short(self):
        with pytest.raises(ValueError):
            auc_trapezoid(np.array([1.0]))


class TestRelativeAuc:
    def test_identical_is_one(self):
        v = np.array([3.0, 2.0, 1.0, 0.0])
        assert relative_auc(v, v) == 1.0

    def test_pointwise_scaling(self):
        v = np.array([3.0, 2.0, 1.0, 0.5])
        assert relative_auc(0.9 * v, v) == pytest.approx(0.9)

    def test_zero_baseline(self):
        with pytest.raises(ValueError):
            relative_auc(np.array([1.0, 1.0]), np.zeros(2))


class TestLabelEfficiency:
    def test_identical_traces(self):
        v = np.linspace(1.0, 0.0, 21)
        assert label_efficiency(v, v, q=0.7) == 1.0

    def test_hand_example(self):
        # RMSE0 = 1, method hits 0.3 at iteration 10, baseline at 20, q = 0.7
        method = np.ones(31)
        method[10:] = 0.3
        method[-1] = 0.0
        baseline = np.ones(31)
        baseline[20:] = 0.3
        baseline[-1] = 0.0
        assert label_efficiency(method, baseline, q=0.7) == 0.5

    def test_q08_threshold_formula(self):
        assert (1.0 - 0.8) * 1.0 == pytest.approx(0.2)

    def test_threshold_boundary_counts_as_hit(self):
        v = np.ones(11)
        v[5:] = 0.25  # exactly the q=0.75 threshold (binary-exact)
        v[-1] = 0.0
        assert milestone_iteration(v, 0.75) == 5

    def test_milestones_monotone_in_q(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            trace = np.sort(rng.uniform(size=30))[::-1]
            trace = np.append(trace, 0.0)
            assert milestone_iteration(trace, 0.8) >= milestone_iteration(trace, 0.7)

    def test_mismatched_start_raises(self):
        with pytest.raises(ValueError):
            label_efficiency(np.array([1.0, 0.0]), np.array([2.0, 0.0]), q=0.7)


def wilcoxon_enumeration_oracle(diffs):
    """Independent full enumeration of the signed-rank null distribution."""
    diffs = np.asarray(diffs, dtype=float)
    diffs = diffs[diffs != 0]
    n = len(diffs)
    if n == 0:
        return 1.0
    order = np.argsort(np.abs(diffs), kind="stable")
    ranks = np.empty(n)
    sorted_abs = np.abs(diffs)[order]
    i = 0
    pos = 1
    while i < n:
        j = i
        while j + 1 < n and sorted_abs[j + 1] == sorted_abs[i]:
            j += 1
        avg = (pos + pos + (j - i)) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        pos += j - i + 1
        i = j + 1
    w_obs = ranks[diffs > 0].sum()
    values = []
    for signs in itertools.product((0, 1), repeat=n):
        values.append(sum(r for s, r in zip(signs, ranks) if s))
    values = np.array(values)
    p_low = np.mean(values <= w_obs + 1e-12)
    p_high = np.mean(values >= w_obs - 1e-12)
    return min(1.0, 2.0 * min(p_low, p_high))


class TestWilcoxon:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert wilcoxon_signed_rank(v, v) == 1.0

    def test_one_two_three_exact(self):
        p = wilcoxon_signed_rank(np.array([2.0, 3.0, 4.0]), np.array([1.0, 1.0, 1.0]))
        assert p == 0.25  # one-sided tail 1/8, doubled

    def test_large_shift_significant(self):
        rng = np.random.default_rng(5)
        a = rng.normal(0.0, 0.1, size=100)
        b = a + 1.0
        assert wilcoxon_signed_rank(a, b) < 0.001

    def test_exact_matches_enumeration_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            d = rng.integers(-5, 6, size=n).astype(float)
            a = rng.integers(-10, 11, size=n).astype(float)  # exact differences
            b = a - d
            assert wilcoxon_signed_rank(a, b) == pytest.approx(
                wilcoxon_enumeration_oracle(d), abs=1e-12)

    def test_normal_mode_reasonable(self):
        # symmetric null-ish data should give a large p
        rng = np.random.default_rng(11)
        a = rng.normal(size=50)
        b = a + rng.normal(0, 1.0, size=50)
        p = wilcoxon_signed_rank(a, b)
        assert 0.0 < p <= 1.0

    def test_shape_guards(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(np.array([1.0]), np.array([1.0, 2.0]))

