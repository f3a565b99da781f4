from typing import NamedTuple

import numpy as np
import pytest

from wigs.data import ColumnMeta, Dataset, PartitionBlock, SplitState
from wigs.geometry import (
    DistanceBlock,
    build_cache,
    dy_min,
    dy_pair,
    normalize_phi,
    pairwise_distances,
    update_after_acquisition,
)
from wigs.selectors import select_igs, select_wigs


def make_dataset(features, targets):
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    meta = tuple(ColumnMeta(f"x{i}", "continuous") for i in range(features.shape[1]))
    return Dataset(features, np.asarray(targets, dtype=float), meta, "test")


def cache_of(dataset, split):
    """The distance state of one replication on ``split``: row 0 of a
    distance block over a partition block of one."""
    block = DistanceBlock(dataset.feature_distances, PartitionBlock(dataset, [split]), 1)
    build_cache(block, 0)
    return block


def acquire(block, pos):
    """One acquisition as the harness makes it, on a block of one: the
    partition moves, the distance state follows."""
    block.partitions.acquire([pos])
    update_after_acquisition(block)


def labeled_targets(block):
    """Row 0's labeled targets, as the harness reads them from the partition."""
    return block.partitions.labels[0, :block.n_labeled]


class Row(NamedTuple):
    """One replication's selector inputs at one state, read as the harness
    reads them: row 0 of a distance block of one, its pool predictions and
    its labeled targets."""

    dx_min: np.ndarray
    dx_pair: np.ndarray
    predictions: np.ndarray
    targets: np.ndarray


def row_of(dataset, split, predictions):
    block = cache_of(dataset, split)
    return Row(block.dx_min(0), block.pair(0), np.asarray(predictions, dtype=float),
               labeled_targets(block))


def brute_minima(dataset, labeled_idx, pool_idx, predictions):
    """Plain-loop oracle for nearest-labeled distances."""
    dx, dy = [], []
    for n, pool_i in enumerate(pool_idx):
        best_x = min(
            float(np.linalg.norm(dataset.features[pool_i] - dataset.features[m]))
            for m in labeled_idx
        )
        best_y = min(abs(predictions[n] - dataset.targets[m]) for m in labeled_idx)
        dx.append(best_x)
        dy.append(best_y)
    return np.array(dx), np.array(dy)


class TestBuildCache:
    def test_one_dimensional_example(self):
        ds = make_dataset([0.0, 1.0, 0.4], [0.0, 2.0, 0.0])
        split = SplitState(np.array([0, 1]), np.array([2]), seed=0)
        row = row_of(ds, split, predictions=np.array([1.5]))
        assert row.dx_min[0] == pytest.approx(0.4)   # min(0.4, 0.6)
        # min(|1.5-0|, |1.5-2|)
        assert dy_min(row.predictions, row.targets)[0] == pytest.approx(0.5)

    def test_coincident_candidate(self):
        ds = make_dataset([0.0, 1.0, 1.0], [0.0, 2.0, 0.0])
        split = SplitState(np.array([0, 1]), np.array([2]), seed=0)
        cache = cache_of(ds, split)
        assert cache.dx_min(0)[0] == 0.0

    def test_rejects_bad_prediction_length(self):
        """The distance state holds no predictions; a prediction row of the
        wrong length is refused where it meets the pool's distances, also
        where numpy would broadcast it (a pool of one, a row of one)."""
        for pool, predictions in (([2], [1.5, 2.0]), ([2, 3], [1.5])):
            n = 2 + len(pool)
            ds = make_dataset([0.0, 1.0, 0.4, 0.7][:n], [0.0, 2.0, 0.0, 0.0][:n])
            split = SplitState(np.array([0, 1]), np.array(pool), seed=0)
            row = row_of(ds, split, predictions=np.array(predictions))
            with pytest.raises(ValueError, match="do not match"):
                select_igs(row.dx_pair, row.predictions, row.targets)
            with pytest.raises(ValueError, match="do not match"):
                select_wigs(row.dx_pair, row.predictions, row.targets, 0.5)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(10, 50))
            p = int(rng.integers(1, 4))
            ds = make_dataset(rng.normal(size=(n, p)), rng.normal(size=n))
            order = rng.permutation(n)
            labeled, pool = order[:4], order[4:]
            preds = rng.normal(size=len(pool))
            row = row_of(ds, SplitState(labeled, pool, seed=0), preds)
            dx, dy = brute_minima(ds, labeled, pool, preds)
            assert np.allclose(row.dx_min, dx, atol=1e-12, rtol=0)
            assert np.allclose(dy_min(row.predictions, row.targets), dy, atol=1e-12, rtol=0)

    @pytest.mark.parametrize("p", [1, 3, 20, 50])
    def test_dx_equals_full_pairwise_formula(self, p):
        # the fill in blocks of 37 // p columns (37, 12, 1, 1) must give the
        # same bits as the one-shot formula
        rng = np.random.default_rng(p)
        X = rng.normal(size=(37, p))
        ds = make_dataset(X, rng.normal(size=37))
        order = rng.permutation(37)
        cache = cache_of(ds, SplitState(order[:5], order[5:], seed=0))
        assert np.array_equal(cache.dx, pairwise_distances(X, X))
        assert np.array_equal(cache.dx, cache.dx.T)  # acquisitions read a row as the column
        assert np.array_equal(cache.pair(0), pairwise_distances(X[order[5:]], X[order[:5]]))


class TestUpdateAfterAcquisition:
    def test_incremental_equals_rebuild(self):
        rng = np.random.default_rng(8)
        ds = make_dataset(rng.normal(size=(20, 2)), rng.normal(size=20))
        order = rng.permutation(20)
        labeled, pool = list(order[:3]), list(order[3:])
        cache = cache_of(ds, SplitState(np.array(labeled), np.array(pool), seed=0))
        for _ in range(10):
            pos = int(rng.integers(len(pool)))
            ds_idx = pool[pos]
            labeled.append(ds_idx)
            del pool[pos]
            preds = rng.normal(size=len(pool))
            acquire(cache, pos)
            rebuilt = cache_of(ds, SplitState(np.array(labeled), np.array(pool), seed=0))
            assert np.array_equal(cache.dx_min(0), rebuilt.dx_min(0))  # exact: shared formula
            assert np.array_equal(dy_min(preds, labeled_targets(cache)),
                                  dy_min(preds, labeled_targets(rebuilt)))
            assert np.array_equal(cache.pair(0), rebuilt.pair(0))  # same column order
            assert np.array_equal(cache.labeled_nn(0), rebuilt.labeled_nn(0))  # labeling order
            assert np.array_equal(cache.pool(0), pool)
            assert np.array_equal(cache.partitions.orders[0, :cache.n_labeled], labeled)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_dx_pair_update_in_one_allocation(self, where):
        """The (P-1, L+1) block is the bits of a fresh gather, built in one
        allocation: no (P-1, L) copy of the kept rows beside it."""
        import tracemalloc

        rng = np.random.default_rng(14)
        n, k = 400, 200
        ds = make_dataset(rng.normal(size=(n, 3)), rng.normal(size=n))
        order = rng.permutation(n)
        cache = cache_of(ds, SplitState(order[:k], order[k:], seed=0))
        cache.pair(0)  # gathered and kept from here on
        pos = {"first": 0, "middle": (n - k) // 2, "last": n - k - 1}[where]
        cache.partitions.acquire([pos])
        tracemalloc.start()
        try:
            update_after_acquisition(cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cache.pair(0).tobytes() == ds.feature_distances[
            np.ix_(cache.pool(0), cache.partitions.orders[0, :k + 1])].tobytes()
        assert peak < 1.2 * 8 * (n - k - 1) * (k + 1)

    def test_duplicate_acquisition_leaves_dx_unchanged(self):
        ds = make_dataset([0.0, 1.0, 1.0, 0.3], [0.0, 1.0, 1.0, 0.0])
        split = SplitState(np.array([0, 1]), np.array([2, 3]), seed=0)
        cache = cache_of(ds, split)
        before = cache.dx_min(0)[1]  # candidate at 0.3
        acquire(cache, 0)
        assert cache.dx_min(0)[0] == before  # new labeled point is a duplicate of x=1

    def test_pool_shrinks_to_zero(self):
        ds = make_dataset([0.0, 1.0, 0.5], [0.0, 1.0, 0.7])
        split = SplitState(np.array([0, 1]), np.array([2]), seed=0)
        cache = cache_of(ds, split)
        acquire(cache, 0)
        assert cache.partitions.n_pool == 0 and cache.dx_min(0).size == 0

    def test_bad_position_raises(self):
        ds = make_dataset([0.0, 1.0, 0.5], [0.0, 1.0, 0.7])
        split = SplitState(np.array([0, 1]), np.array([2]), seed=0)
        cache = cache_of(ds, split)
        for pos in (5, 1, -1):
            with pytest.raises(IndexError):
                cache.partitions.acquire([pos])
        assert cache.partitions.n_labeled == 2  # nothing moved, so nothing to follow
        with pytest.raises(ValueError, match="partition must acquire"):
            update_after_acquisition(cache)

    def test_update_without_partition_move_raises(self):
        ds = make_dataset([0.0, 1.0, 0.5, 0.2], [0.0, 1.0, 0.7, 0.1])
        split = SplitState(np.array([0, 1]), np.array([2, 3]), seed=0)
        cache = cache_of(ds, split)
        with pytest.raises(ValueError, match="partition must acquire"):
            update_after_acquisition(cache)
        acquire(cache, 0)
        with pytest.raises(ValueError, match="partition must acquire"):
            update_after_acquisition(cache)  # the same move twice

    def test_dx_min_nonincreasing_for_survivors(self):
        rng = np.random.default_rng(5)
        ds = make_dataset(rng.normal(size=(30, 2)), rng.normal(size=30))
        order = rng.permutation(30)
        labeled, pool = list(order[:2]), list(order[2:])
        cache = cache_of(ds, SplitState(np.array(labeled), np.array(pool), seed=0))
        for _ in range(15):
            pos = int(rng.integers(cache.partitions.n_pool))
            before = {int(i): d for i, d in zip(cache.pool(0), cache.dx_min(0))}
            acquire(cache, pos)
            for i, d in zip(cache.pool(0), cache.dx_min(0)):
                assert d <= before[int(i)] + 1e-15


class OraclePair:
    """One pair's partition and distance state moved as they were before the
    block move, pair by pair: ``acquire`` is the body of the per-pair
    partition move and ``update`` that of the per-cache
    ``update_after_acquisition``, on the buffers they kept (``dx_min`` in
    pool order, ``labeled_nn`` in labeling order, each a prefix of a
    length-N buffer)."""

    def __init__(self, dataset, split, cache, keeps_pair):
        self.dx = dataset.feature_distances
        self.order = np.concatenate([split.labeled_idx, split.pool_idx])
        self.features = dataset.features[self.order]
        self.targets = np.full(len(self.order), np.nan)
        self.n_labeled = len(split.labeled_idx)
        self.targets[:self.n_labeled] = dataset.targets[split.labeled_idx]
        self.cache = cache
        if cache:
            pool, labeled = self.order[self.n_labeled:], self.order[:self.n_labeled]
            self.dx_min = np.empty(len(self.order))
            self.dx_min[:len(pool)] = self.dx[np.ix_(pool, labeled)].min(axis=1)
            dx_labeled = self.dx[np.ix_(labeled, labeled)]
            np.fill_diagonal(dx_labeled, np.inf)
            self.labeled_nn = np.empty(len(self.order))
            self.labeled_nn[:len(labeled)] = dx_labeled.min(axis=1)
            self.dx_pair = self.dx[np.ix_(pool, labeled)] if keeps_pair else None

    def acquire(self, pos, label):
        lo, hi = self.n_labeled, self.n_labeled + pos
        order, features = self.order, self.features
        moved, row = order[hi], features[hi].copy()
        order[lo + 1:hi + 1] = order[lo:hi]
        order[lo] = moved
        features[lo + 1:hi + 1] = features[lo:hi]
        features[lo] = row
        self.targets[lo] = label
        self.n_labeled += 1

    def update(self, acquired):
        n_old = self.n_labeled - 1
        n_pool = len(self.order) - n_old
        row = self.dx[self.order[n_old]]
        new_col = row.take(self.order[self.n_labeled:])
        to_labeled = row.take(self.order[:n_old])
        dx_min = self.dx_min
        dx_min[acquired:n_pool - 1] = dx_min[acquired + 1:n_pool]
        np.minimum(dx_min[:n_pool - 1], new_col, out=dx_min[:n_pool - 1])
        nn = self.labeled_nn
        np.minimum(nn[:n_old], to_labeled, out=nn[:n_old])
        nn[n_old] = to_labeled.min()
        old = self.dx_pair
        if old is not None:
            pair = np.empty((n_pool - 1, old.shape[1] + 1))
            pair[:acquired, :-1] = old[:acquired]
            pair[acquired:, :-1] = old[acquired + 1:]
            pair[:, -1] = new_col
            self.dx_pair = pair


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBlockMoveMatchesPerPairOracle:
    """``PartitionBlock.acquire`` then ``update_after_acquisition`` move every
    pair of a block to the bits the per-pair moves gave, at every step."""

    @staticmethod
    def run(ds, R, n_labeled, moves, seed):
        rng = np.random.default_rng(seed)
        n = ds.n_samples
        # only the first pairs keep a cache, only some caches keep dx_pair;
        # with R = 1 the one pair has both
        cache_rows = list(range(R - R // 3))
        pair_rows = [r for r in cache_rows if R == 1 or r % 2 == 0]
        splits, oracles = [], []
        for r in range(R):
            order = rng.permutation(n)
            splits.append(SplitState(order[:n_labeled], order[n_labeled:], seed=0))
            oracles.append(OraclePair(ds, splits[r], r in cache_rows, r in pair_rows))
        block = PartitionBlock(ds, splits)
        distances = DistanceBlock(ds.feature_distances, block, len(cache_rows))
        for r in cache_rows:
            build_cache(distances, r)
        for r in pair_rows:
            distances.pair(r)  # gathered, then kept by every move
        for step in range(min(moves, n - n_labeled)):
            n_pool = block.n_pool
            positions = rng.integers(n_pool, size=R).tolist()
            positions[0] = [0, n_pool - 1][step % 2]  # both ends of the pool
            positions[-1] = n_pool - 1 - positions[0] if R > 1 else positions[-1]
            acquired = block.acquire(positions)
            update_after_acquisition(distances)
            for r, (oracle, pos) in enumerate(zip(oracles, positions)):
                assert acquired[r] == oracle.order[oracle.n_labeled + pos]
                oracle.acquire(pos, ds.targets[oracle.order[oracle.n_labeled + pos]])
                if oracle.cache:
                    oracle.update(pos)
            L = block.n_labeled
            for r, oracle in enumerate(oracles):
                assert block.n_labeled == oracle.n_labeled == L
                assert same_bits(block.orders[r], oracle.order)
                assert same_bits(block.features[r], oracle.features)
                assert same_bits(block.labels[r], oracle.targets)  # NaN beyond L
                assert np.isnan(block.labels[r, L:]).all()
                if oracle.cache:
                    assert same_bits(distances.dx_min(r), oracle.dx_min[:n - L])
                    assert same_bits(distances.labeled_nn(r), oracle.labeled_nn[:L])
                    kept = distances.dx_pairs[r]
                    if oracle.dx_pair is not None:
                        assert kept is not None
                        assert same_bits(distances.pair(r), oracle.dx_pair)
                    else:
                        assert kept is None
        return block

    @pytest.mark.parametrize("p", [1, 20])
    @pytest.mark.parametrize("R", [1, 3, 100])
    @pytest.mark.parametrize("n", [3, 80, 400])
    def test_random_positions(self, n, R, p):
        rng = np.random.default_rng(100 * n + 10 * R + p)
        ds = make_dataset(rng.normal(size=(n, p)), rng.normal(size=n))
        # to exhaustion, down to a pool of one, except the largest block
        moves = 8 if n * R >= 40_000 else n
        block = self.run(ds, R, 2, moves, seed=n + R + p)
        if moves >= n:
            assert block.n_pool == 0

    @pytest.mark.parametrize("R", [1, 3])
    def test_duplicate_feature_rows(self, R):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(20, 2))
        ds = make_dataset(np.vstack([X, X, X[:5]]), rng.normal(size=45))
        self.run(ds, R, 3, 45, seed=R)

    def test_large_initial_set_ends_in_a_pool_of_one(self):
        rng = np.random.default_rng(32)
        ds = make_dataset(rng.normal(size=(400, 20)), rng.normal(size=400))
        block = self.run(ds, 3, 390, 10, seed=4)
        assert block.n_pool == 0


def targets_cache(targets, predictions):
    """The labeled-target row of a block of one whose first len(targets)
    rows are labeled with ``targets``, beside a pool of len(predictions)."""
    targets, predictions = np.asarray(targets, float), np.asarray(predictions, float)
    n_lab, n_pool = len(targets), len(predictions)
    ds = make_dataset(np.arange(n_lab + n_pool, dtype=float),
                      np.concatenate([targets, np.zeros(n_pool)]))
    split = SplitState(np.arange(n_lab), np.arange(n_lab, n_lab + n_pool), seed=0)
    return labeled_targets(cache_of(ds, split))


class TestDyMin:
    """``dy_min`` from the sorted neighbours against the full pairwise minimum, bit for bit."""

    @pytest.mark.parametrize("targets, predictions", [
        ([0.5, -1.0], [-3.0, -1.0, -0.25, 0.0, 0.5, 0.7, 9.0]),          # L = 2
        ([1.0, 1.0, 2.0, 2.0, -0.3, 1.0], [1.0, 2.0, 1.5, 1.5000001, -0.3, -5.0, 5.0]),
        ([3.0, 3.0], [3.0, 2.0, 4.0]),
        ([1e16, 1e16 + 2, -1e-300, 0.1 + 0.2, 0.3], [1e16 + 1, 0.3, 0.30000000000000004,
                                                     -1e300, 1e300, 0.0, 5e15]),
        ([0.0, 1.0], [np.inf, -np.inf, np.nan, 0.5]),
    ])
    def test_equals_pairwise_minimum(self, targets, predictions):
        row = targets_cache(targets, predictions)
        oracle = np.abs(np.asarray(predictions)[:, None] - np.asarray(targets)[None, :]).min(1)
        assert dy_min(np.asarray(predictions, float), row).tobytes() == oracle.tobytes()

    def test_random_with_duplicates_and_exact_hits(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n_lab = int(rng.integers(2, 30))
            targets = np.round(rng.normal(size=n_lab), int(rng.integers(0, 3)))  # duplicates
            predictions = np.concatenate([
                rng.normal(scale=2.0, size=20),
                rng.choice(targets, size=5),                   # equal to a target
                [targets.min() - 1.0, targets.max() + 1.0],    # outside the range
            ])
            row = targets_cache(targets, predictions)
            oracle = np.abs(predictions[:, None] - targets[None, :]).min(1)
            assert dy_min(predictions, row).tobytes() == oracle.tobytes()
            assert dy_min(predictions, row).tobytes() == \
                dy_pair(predictions, row).min(axis=1).tobytes()


class TestNormalizePhi:
    def test_affine_map(self):
        assert np.allclose(normalize_phi(np.array([2.0, 4.0, 6.0])), [0.0, 0.5, 1.0])

    def test_degenerate_inputs(self):
        assert np.array_equal(normalize_phi(np.array([3.0, 3.0, 3.0])), np.zeros(3))
        assert np.array_equal(normalize_phi(np.array([5.0])), np.zeros(1))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            normalize_phi(np.zeros(0))

    def test_preserves_matrix_shape(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = normalize_phi(m)
        assert out.shape == m.shape
        assert out.min() == 0.0 and out.max() == 1.0

    def test_bits_of_the_plain_map(self):
        rng = np.random.default_rng(13)
        cases = [rng.uniform(0.0, 5.0, size=(7, 4)), np.full((3, 5), 2.5), np.zeros((4, 2)),
                 rng.normal(size=9) ** 2]
        for values in cases:
            want = (values - values.min()) / (values.max() - values.min()) \
                if values.max() > values.min() else np.zeros_like(values)
            assert normalize_phi(values).tobytes() == want.tobytes()

    def test_argmax_of_minima_preserved(self):
        # monotone affine map: argmax_n min_m phi(d_nm) == argmax_n min_m d_nm
        rng = np.random.default_rng(12)
        for _ in range(25):
            d = rng.uniform(0.0, 5.0, size=(8, 5))
            if d.max() == d.min():
                continue
            raw = np.argmax(d.min(axis=1))
            mapped = np.argmax(normalize_phi(d).min(axis=1))
            assert raw == mapped


def test_pairwise_distance_symmetry_and_zero_diag():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(6, 3))
    d = pairwise_distances(a, a)
    assert np.allclose(d, d.T, atol=1e-15)
    assert np.allclose(np.diag(d), 0.0)
