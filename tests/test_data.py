import math
import re
import warnings

import numpy as np
import pytest

from wigs.data import (
    ColumnMeta,
    Dataset,
    PartitionBlock,
    PreprocessWarning,
    SplitState,
    _sample_mixture,
    initial_split,
    load_csv,
    quantile_midpoint,
    sample_three_regime,
    sample_two_regime,
    save_csv,
    scale_features,
    three_regime_mean,
    three_regime_noise_std,
    two_regime_mean,
)
from wigs.rng import generator


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
    return path


def preprocess(path, scaling="zscore", categorical_columns=None):
    """The CSV path of resolve_dataset: parse, then the one scaling step."""
    return scale_features(load_csv(path, categorical_columns), scaling)


class TestLoadCsv:
    def test_zscore_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "y"], [[1, 0], [2, 0], [3, 1]])
        ds = preprocess(path, "zscore")
        # oracle: mean 2, population std sqrt(2/3)
        std = math.sqrt(2.0 / 3.0)
        expected = np.array([(1 - 2) / std, 0.0, (3 - 2) / std])
        assert np.allclose(ds.features[:, 0], expected, atol=1e-12)
        assert abs(expected[0] + 1.2247448713915890) < 1e-12

    def test_constant_column_dropped_with_warning(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "b", "y"],
                         [[5, 1, 0], [5, 2, 0], [5, 3, 1]])
        with pytest.warns(PreprocessWarning,
                          match="d: column 'a' has zero spread under zscore scaling"):
            ds = preprocess(path, "zscore")
        assert ds.n_features == 1
        assert ds.feature_names == ["b"]

    def test_robust_scaling_against_hand_quantiles(self, tmp_path):
        col = [1.0, 2.0, 3.0, 100.0]
        path = write_csv(tmp_path / "d.csv", ["a", "y"], [[v, 0] for v in col])

        def midpoint_quantile(sorted_vals, q):
            # independent oracle: position q*(n-1), average bracketing order stats
            pos = q * (len(sorted_vals) - 1)
            lo, hi = math.floor(pos), math.ceil(pos)
            return 0.5 * (sorted_vals[lo] + sorted_vals[hi]) if lo != hi else sorted_vals[lo]

        median = midpoint_quantile(col, 0.5)
        iqr = midpoint_quantile(col, 0.75) - midpoint_quantile(col, 0.25)
        assert median == 2.5
        ds = preprocess(path, "robust")
        expected = (np.array(col) - median) / iqr
        assert np.allclose(ds.features[:, 0], expected, atol=1e-12)
        # the library helper agrees with the oracle rule
        for q in (0.25, 0.5, 0.75):
            assert quantile_midpoint(np.array(col), q) == midpoint_quantile(col, q)

    def test_zero_iqr_column_dropped_under_robust(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "b", "y"],
                         [[5, 1, 0], [5, 2, 0], [5, 3, 1], [5, 9, 1]])
        with pytest.warns(PreprocessWarning,
                          match="d: column 'a' has zero spread under robust scaling"):
            ds = preprocess(path, "robust")
        assert ds.feature_names == ["b"]

    def test_one_hot_encoding(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["color", "a", "y"],
                         [["red", 1, 0], ["blue", 2, 1], ["red", 3, 2], ["green", 4, 3]])
        ds = preprocess(path, "zscore")
        onehot = ds.features[:, :3]  # categories sorted: blue, green, red
        assert np.array_equal(onehot.sum(axis=1), np.ones(4))
        assert ds.column_meta[0].categories == ("blue", "green", "red")
        assert ds.feature_names[:3] == ["color=blue", "color=green", "color=red"]
        assert onehot[0, 2] == 1.0 and onehot[1, 0] == 1.0

    def test_declared_categorical_overrides_autodetect(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["code", "y"], [[1, 0], [2, 1], [1, 2]])
        ds = preprocess(path, categorical_columns=("code",))
        assert ds.column_meta[0].kind == "categorical"
        assert np.array_equal(ds.features.sum(axis=1), np.ones(3))

    def test_declared_categorical_must_be_a_feature_column(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["color", "y"], [[1, 0], [2, 1], [1, 2]])
        for name in ("colour", "y"):
            with pytest.raises(ValueError,
                               match=f"categorical column '{name}' is not a feature column"):
                load_csv(path, (name,))

    def test_unparseable_cell_of_an_undeclared_column_named(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["color", "a", "y"],
                         [["red", 1, 0], ["blue", "n/a", 1], ["red", 3, 2]])
        with pytest.raises(ValueError, match="unparseable value 'n/a' in column 'a', row 3"):
            load_csv(path, ("color",))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    @pytest.mark.parametrize("column", ["a", "y"])
    def test_non_finite_cell_named(self, tmp_path, cell, column):
        rows = [["red", 1, 0], ["blue", 2, 1], ["red", 3, 2], ["blue", 4, 3]]
        rows[2][2 if column == "y" else 1] = cell
        path = write_csv(tmp_path / "d.csv", ["color", "a", "y"], rows)
        for declared in (None, ("color",)):
            with pytest.raises(ValueError, match=re.escape(
                    f"non-finite value {cell!r} in column {column!r}, row 4")):
                load_csv(path, declared)

    @pytest.mark.parametrize("text, message", [
        ("x,y\n1,2\n\n3,4\nabc,5\n", "unparseable value 'abc' in column 'x', row 5"),
        ("x,y\n\n1,2\n\n\n3,abc\n", "unparseable target 'abc' in row 6"),
        ("x,y\n1,2\n\n3,4\n\n5,inf\n", "non-finite value 'inf' in column 'y', row 6"),
        # a quoted cell across two lines: a record is named by its first line
        ('c,x,y\n"a\nb",nan,2\nc,2,3\n', "non-finite value 'nan' in column 'x', row 2"),
        ('c,x,y\n"a\nb",1,2\n\nc,2,3\nd,nan,4\n', "non-finite value 'nan' in column 'x', row 6"),
    ])
    def test_rows_named_by_their_file_line_past_blank_lines(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_csv(path, ("c",) if text.startswith("c,") else ())

    def test_target_never_scaled(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["a", "y"], [[1, 10], [2, 20], [3, 40]])
        ds = preprocess(path)
        assert np.array_equal(ds.targets, [10.0, 20.0, 40.0])

    def test_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "missing.csv")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(empty)
        bad_target = write_csv(tmp_path / "bad.csv", ["a", "y"],
                               [[1, "x"], [2, 3], [3, 4]])
        with pytest.raises(ValueError, match="target"):
            load_csv(bad_target)
        short = write_csv(tmp_path / "short.csv", ["a", "y"], [[1, 2]])
        with pytest.raises(ValueError, match="2 data rows"):
            load_csv(short)

    def test_roundtrip_save_load(self, tmp_path):
        ds = sample_two_regime(30, seed=4)
        path = tmp_path / "export.csv"
        save_csv(ds, path)
        back = load_csv(path)
        # load_csv only parses, so the round trip is exact
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.targets.tobytes() == ds.targets.tobytes()
        assert back.column_meta == ds.column_meta and back.name == "export"

    def test_parses_without_scaling_or_dropping(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", ["color", "a", "const", "y"],
                         [["red", 1.5, 5, 0], ["blue", -2, 5, 1], ["red", 30, 5, 2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv(path)
        assert ds.feature_names == ["color=blue", "color=red", "a", "const"]
        assert np.array_equal(ds.features, [[0, 1, 1.5, 5], [1, 0, -2, 5], [0, 1, 30, 5]])
        assert np.array_equal(ds.targets, [0.0, 1.0, 2.0])

    def test_zscore_invariant_on_loaded_columns(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [[v, w, 0.0] for v, w in rng.normal(size=(20, 2))]
        path = write_csv(tmp_path / "d.csv", ["a", "b", "y"], rows)
        ds = preprocess(path, "zscore")
        assert np.all(np.abs(ds.features.mean(axis=0)) < 1e-9)
        assert np.all(np.abs(ds.features.std(axis=0) - 1.0) < 1e-9)


class TestInitialSplit:
    @pytest.fixture
    def dataset(self):
        return sample_two_regime(100, seed=11)

    def test_five_percent_of_100(self, dataset):
        split = initial_split(dataset, 0.05, seed=3)
        assert len(split.labeled_idx) == 5
        assert len(split.pool_idx) == 95

    def test_same_seed_identical(self, dataset):
        a = initial_split(dataset, 0.05, seed=3)
        b = initial_split(dataset, 0.05, seed=3)
        assert np.array_equal(a.labeled_idx, b.labeled_idx)
        assert np.array_equal(a.pool_idx, b.pool_idx)

    def test_ceiling_keeps_two_labeled(self):
        ds = sample_two_regime(40, seed=1)
        split = initial_split(ds, 0.05, seed=0)
        assert len(split.labeled_idx) == 2  # ceil(0.05 * 40)

    def test_partition_and_errors(self, dataset):
        split = initial_split(dataset, 0.2, seed=9)
        together = np.sort(np.concatenate([split.labeled_idx, split.pool_idx]))
        assert np.array_equal(together, np.arange(100))
        with pytest.raises(ValueError):
            initial_split(dataset, 0.0, seed=1)
        with pytest.raises(ValueError):
            initial_split(dataset, 1.0, seed=1)
        with pytest.raises(ValueError):
            initial_split(sample_two_regime(10, seed=0), 0.05, seed=1)  # 1 < 2 labeled


class TestPartition:
    def test_acquisitions_match_list_bookkeeping(self):
        # the list-based loop as the oracle: labeled.append(pool[pos]); del pool[pos]
        rng = np.random.default_rng(21)
        X, y = rng.normal(size=(25, 3)), rng.normal(size=25)
        ds = Dataset(X, y, tuple(ColumnMeta(f"x{i}", "continuous") for i in range(3)), "t")
        split = initial_split(ds, 0.1, seed=4)
        block = PartitionBlock(ds, [split])
        labeled, pool = list(split.labeled_idx), list(split.pool_idx)
        while pool:
            pos = int(rng.integers(len(pool)))
            assert block.acquire([pos]).tolist() == [pool[pos]]
            labeled.append(pool.pop(pos))
            L = block.n_labeled
            assert np.array_equal(block.orders[0, :L], labeled)
            assert np.array_equal(block.orders[0, L:], pool)
            assert np.array_equal(block.features[0, :L], X[labeled])
            assert np.array_equal(block.features[0, L:], X[pool])
            assert np.array_equal(block.labels[0, :L], y[labeled])
            assert block.n_labeled == len(labeled) and block.n_pool == len(pool)

    def test_holds_no_pool_label(self):
        ds = sample_two_regime(12, seed=2)
        pool = np.array([0, 1, 2, 4, 5, 6, 8, 9, 10, 11])
        block = PartitionBlock(ds, [SplitState(np.array([3, 7]), pool, seed=0)])
        assert np.isnan(block.labels[0, 2:]).all()
        block.acquire([4])
        assert np.array_equal(block.labels[0, :3], ds.targets[[3, 7, 5]])
        assert np.isnan(block.labels[0, 3:]).all()

    def test_features_are_a_copy(self):
        ds = sample_two_regime(12, seed=2)
        block = PartitionBlock(ds, [initial_split(ds, 0.2, seed=0)])
        before = ds.features.copy()
        block.acquire([block.n_pool - 1])
        assert np.array_equal(ds.features, before)
        assert not np.shares_memory(block.features, ds.features)

    def test_bad_position_raises(self):
        ds = sample_two_regime(12, seed=2)
        block = PartitionBlock(ds, [initial_split(ds, 0.2, seed=0)])
        for pos in (-1, block.n_pool):
            with pytest.raises(IndexError):
                block.acquire([pos])
        assert block.n_labeled == 3  # nothing moved

    def test_rows_of_one_block_move_together(self):
        # row r is split r's partition; the labeled count is the block's
        ds = sample_two_regime(12, seed=2)
        block = PartitionBlock(ds, [initial_split(ds, 0.2, seed) for seed in (0, 1)])
        before = [block.orders[r, 3:].copy() for r in range(2)]
        acquired = block.acquire([0, 8])
        assert acquired.tolist() == [before[0][0], before[1][8]]
        for r, (pool, pos) in enumerate(zip(before, (0, 8))):
            assert block.n_labeled == 4 and block.orders[r, 3] == pool[pos]
            assert np.array_equal(block.orders[r, 4:], np.delete(pool, pos))
        with pytest.raises(ValueError, match="labeled points"):
            PartitionBlock(ds, [initial_split(ds, 0.2, 0), initial_split(ds, 0.5, 0)])


class TestGenerators:
    def test_mixture_weights_sum_to_one(self):
        from wigs.data import _MIXTURE
        assert sum(w for w, _, _ in _MIXTURE) == 1.0

    def test_scalar_regime_values(self):
        assert abs(two_regime_mean(0.25) - 1.0) < 1e-12        # sin(2.5 pi)
        assert abs(two_regime_mean(0.75) - 0.5) < 1e-12        # 2 * 0.75 - 1
        assert abs(three_regime_mean(0.5)) < 1e-12             # 3 * 0.5 - 1.5
        assert abs(three_regime_mean(1.0) - 2.0) < 1e-12       # 2 cos(6 pi)
        assert three_regime_noise_std(np.array([0.62]))[0] == 1.5

    def test_samples_in_unit_interval(self):
        for sampler in (sample_two_regime, sample_three_regime):
            ds = sampler(2000, seed=5)
            assert ds.features.min() >= 0.0
            assert ds.features.max() <= 1.0

    def test_component_proportions(self):
        x, comp = _sample_mixture(100_000, generator(17, "dgp"))
        freqs = np.bincount(comp, minlength=3) / len(comp)
        assert np.all(np.abs(freqs - np.array([0.4, 0.3, 0.3])) < 0.02)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_bit_identical_reruns(self):
        a = sample_three_regime(500, seed=42)
        b = sample_three_regime(500, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            sample_two_regime(1, seed=0)


class TestScaleFeatures:
    def test_zscore_normalizes(self):
        ds = sample_two_regime(200, seed=2)
        scaled = scale_features(ds, "zscore")
        assert abs(scaled.features[:, 0].mean()) < 1e-9
        assert abs(scaled.features[:, 0].std() - 1.0) < 1e-9
        assert np.array_equal(scaled.targets, ds.targets)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown scaling mode: 'bogus'"):
            scale_features(sample_two_regime(20, seed=2), "bogus")

    def test_dataset_invariants(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0]]), np.array([1.0]),
                    (ColumnMeta("x", "continuous"),), "tiny")  # N < 2
        with pytest.raises(ValueError):
            Dataset(np.array([[1.0], [np.inf]]), np.array([1.0, 2.0]),
                    (ColumnMeta("x", "continuous"),), "bad")
