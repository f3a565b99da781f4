import ast
import itertools
import math
import os
import subprocess
import warnings
import sys

import numpy as np
import pytest

from wigs.data import initial_split, sample_two_regime
from wigs.metrics import (
    auc_trapezoid,
    centre_truth,
    correlation_coefficient,
    hybrid_rmse,
    label_efficiency,
    milestone_iteration,
    relative_auc,
    wilcoxon_signed_rank,
)
import wigs
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
        fits = fit_ridge(ds.features[split.labeled_idx],
                         ds.targets[split.labeled_idx], 0.01)
        preds = ds.features[split.pool_idx] @ fits.coefficients[0] + fits.intercepts[0]
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


def mean_formula_correlation(predictions, truth):
    """The formula with x.mean() and tc @ tc taken twice, as the oracle."""
    pc = predictions - predictions.mean()
    tc = truth - truth.mean()
    denom = math.sqrt(float(pc @ pc) * float(tc @ tc))
    if float(tc @ tc) == 0.0 or denom == 0.0:
        return float("nan")
    return float(pc @ tc) / denom


def assert_same_bits_or_both_nan(predictions, truth):
    got = correlation_coefficient(predictions, truth)
    want = mean_formula_correlation(predictions, truth)
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestConstantTruthAtRoundingLevel:
    """A constant truth whose mean is not exact in binary centres to noise;
    it still counts as zero variance, in the 1-D and the stacked path."""

    @pytest.mark.parametrize("value", [0.1, 0.3, -7.7, 2.0, 0.0, 1e-300])
    @pytest.mark.parametrize("n", [2, 9, 80, 400, 1000])
    def test_cc_is_nan(self, n, value):
        truth = np.full(n, value)
        assert np.array_equal(centre_truth(truth), np.zeros(n))
        hybrid = np.linspace(0.0, 1.0, n)
        assert math.isnan(correlation_coefficient(hybrid, truth))
        stack = np.stack([hybrid, truth, -hybrid])
        assert np.isnan(correlation_coefficient(stack, truth)).all()
        assert np.isnan(correlation_coefficient(stack, truth, centre_truth(truth))).all()

    def test_the_noise_it_replaces(self):
        # 0.1 at N = 80 does not centre to zeros: the old zero test missed it
        truth = np.full(80, 0.1)
        centred = truth - truth.sum() / truth.size
        assert float(centred @ centred) > 0.0

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e150])
    def test_small_real_spread_is_kept(self, scale):
        rng = np.random.default_rng(11)
        truth = scale * (1.0 + 1e-9 * rng.normal(size=80))  # spread far above rounding
        tc = centre_truth(truth)
        assert tc.tobytes() == (truth - truth.sum() / truth.size).tobytes()
        preds = truth + scale * 1e-9 * rng.normal(size=80)
        assert_same_bits_or_both_nan(preds, truth)
        assert not math.isnan(correlation_coefficient(preds, truth))


class TestCorrelationMatchesMeanFormula:
    """x.sum() / x.size in place of x.mean() keeps every bit of cc."""

    def test_random_vectors_of_length_2_to_1000(self):
        rng = np.random.default_rng(5)
        for n in [2, 3, 4, 7, 8, 9, 15, 16, 17, 100, 127, 128, 129, 400, 999, 1000]:
            for scale, offset in [(1.0, 0.0), (1e-3, 1e6), (1e8, -3.0)]:
                truth = offset + scale * rng.normal(size=n)
                preds = truth + scale * rng.normal(size=n)
                assert_same_bits_or_both_nan(preds, truth)

    def test_constant_truth_is_nan_in_both(self):
        for n in [2, 9, 400]:
            truth = np.full(n, 0.1)
            assert_same_bits_or_both_nan(np.linspace(0.0, 1.0, n), truth)
            assert math.isnan(correlation_coefficient(np.linspace(0.0, 1.0, n), truth))

    def test_constant_predictions(self):
        for n in [2, 9, 400]:
            truth = np.linspace(-1.0, 2.0, n)
            for value in [0.0, 0.1, 1e6]:
                assert_same_bits_or_both_nan(np.full(n, value), truth)

    def test_hybrid_vectors_of_one_block(self, monkeypatch):
        """Every row of every stack the block loop correlates gives the bits
        of the mean formula on that row."""
        import wigs.harness
        from wigs.config import MethodSpec

        seen = []

        def spy(predictions, truth, centred_truth=None):
            got = correlation_coefficient(predictions, truth, centred_truth)
            seen.append((predictions.copy(), truth.copy(), got))
            return got

        monkeypatch.setattr(wigs.harness, "correlation_coefficient", spy)
        ds = sample_two_regime(60, seed=2)
        method = MethodSpec("wigs", "wigs_static", {"w": 0.5})
        wigs.harness.run_block(ds, [(method, 1), (method, 2), (MethodSpec("gsx", "gsx"), 1)])
        assert len(seen) > 50
        for predictions, truth, got in seen:
            assert predictions.shape == (3, 60) and got.shape == (3,)
            for row, value in zip(predictions, got):
                want = mean_formula_correlation(row, truth)
                if math.isnan(want):
                    assert math.isnan(value)
                else:
                    assert np.float64(value).tobytes() == np.float64(want).tobytes()


def assert_bits_or_both_nan(got, want):
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("N", [2, 80, 400])
@pytest.mark.parametrize("R", [1, 3, 100])
class TestStackedMetricsMatchOneDimensional:
    """Each row of an (R, ·) stack gives the bits of its own 1-D call, the
    oracle, with no warning on the NaN rows."""

    def test_hybrid_rmse(self, R, N):
        rng = np.random.default_rng(1000 * R + N)
        for P in sorted({0, 1, N // 2, N - 1}):
            residuals = rng.normal(size=(R, P)) * rng.choice([1e-3, 1.0, 1e3], size=(R, 1))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = hybrid_rmse(residuals, N)
            assert got.shape == (R,)
            for row, value in zip(residuals, got):
                assert np.float64(value).tobytes() == np.float64(hybrid_rmse(row, N)).tobytes()
            if P == 0:  # the final row: every label known
                assert got.tobytes() == np.zeros(R).tobytes()

    def test_correlation_coefficient(self, R, N):
        rng = np.random.default_rng(1000 * R + N + 1)
        truth = 1.0 + 3.0 * rng.normal(size=N)
        centred = truth - truth.sum() / truth.size
        hybrids = truth + rng.normal(size=(R, N)) * rng.choice([1e-3, 1.0, 1e3], size=(R, 1))
        flat = hybrids.copy()
        flat[0] = 0.25  # an all-equal hybrid row
        for stack in (hybrids, flat):
            for given in (None, centred):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = correlation_coefficient(stack, truth, given)
                assert got.shape == (R,)
                for row, value in zip(stack, got):
                    assert_bits_or_both_nan(value, correlation_coefficient(row, truth))
                    assert_bits_or_both_nan(value, mean_formula_correlation(row, truth))
        assert math.isnan(correlation_coefficient(flat, truth)[0])

    def test_zero_variance_truth_is_nan_on_every_row(self, R, N):
        # 0.5 is centred exactly (0.1 is not at every N, in 1-D calls too)
        rng = np.random.default_rng(1000 * R + N + 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = correlation_coefficient(rng.normal(size=(R, N)), np.full(N, 0.5))
        assert got.shape == (R,) and np.isnan(got).all()


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

    def test_tie_heavy_normal_mode_matches_brute_force_ranks(self):
        # 40 differences over 3 magnitudes: the n > 12 normal path with heavy ties
        rng = np.random.default_rng(13)
        d = rng.choice([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0], size=40, p=[.1, .1, .1, .3, .2, .2])
        a = rng.integers(-10, 11, size=40).astype(float)
        mags = np.abs(d)
        ranks = np.array([np.sum(mags < m) + (np.sum(mags == m) + 1) / 2.0 for m in mags])
        n = len(d)
        ties = np.unique(mags, return_counts=True)[1]
        variance = n * (n + 1) * (2 * n + 1) / 24.0 - np.sum(ties ** 3 - ties) / 48.0
        z = (abs(ranks[d > 0].sum() - n * (n + 1) / 4.0) - 0.5) / math.sqrt(variance)
        assert wilcoxon_signed_rank(a, a - d) == pytest.approx(
            math.erfc(z / math.sqrt(2.0)), rel=1e-12)


def test_import_wigs_loads_only_numpy_and_pyyaml():
    # in a fresh interpreter that has numpy and yaml loaded, every top-level
    # module import wigs adds is wigs, a submodule of those two, the standard
    # library or an alias such as multiprocessing's __mp_main__
    src = os.path.dirname(os.path.dirname(wigs.__file__))
    code = ("import sys, numpy, yaml; before = set(sys.modules); import wigs; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before"
            " if not m.startswith('__')} - set(sys.stdlib_module_names) - {'numpy', 'yaml'}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "['wigs']"


def test_import_wigs_defers_yaml_and_the_process_pool():
    # PyYAML is imported by load_config and the process pool by a parallel
    # run_experiment, so a bare import wigs loads neither
    src = os.path.dirname(os.path.dirname(wigs.__file__))
    code = ("import sys, wigs; print(sorted(m for m in sys.modules"
            " if m == 'yaml' or m.startswith(('yaml.', 'concurrent.futures.process'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.strip() == "[]"


def test_package_imports_itself_only_relatively():
    # the package must load under a second name, so no module of it may
    # import wigs by its absolute name, at module level or inside a function
    package = os.path.dirname(wigs.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module or ""]
            else:
                continue
            found += [f"{name}:{node.lineno} {module}" for module in modules
                      if module == "wigs" or module.startswith("wigs.")]
    assert found == []
