import math
import tracemalloc

import numpy as np
import pytest

import wigs.selectors
from wigs.data import ColumnMeta, Dataset, SplitState
from wigs.geometry import (
    dy_min,
    dy_pair,
    normalize_phi,
    pairwise_distances,
)
from wigs.config import MethodSpec
from wigs.harness import SCORE_BUDGET, run_replication
from wigs.model import fit_bootstrap_committee, fit_ridge
from wigs.rng import generator
from wigs.selectors import (
    EgalState,
    egal_bandwidth,
    egal_density,
    egal_setup,
    egal_similarity,
    emcm_scores,
    igs_scores,
    lower_quartile,
    pick_rows,
    qbc_scores,
    select_egal,
    select_emcm,
    select_gsx,
    select_gsy,
    select_igs,
    select_passive,
    select_qbc,
    select_stacked,
    select_uncertainty,
    select_wigs,
    uncertainty_scores,
    SelectionResult,
    _pick,
    verify_density_veto,
    wigs_scores,
)

from test_geometry import acquire, cache_of, row_of
from test_model import counts_of, oracle_committee


def make_dataset(features, targets):
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    meta = tuple(ColumnMeta(f"x{i}", "continuous") for i in range(features.shape[1]))
    return Dataset(features, np.asarray(targets, dtype=float), meta, "test")


def random_state(rng, max_n=40):
    """Random dataset + split + fit (a block of one row) + pool predictions +
    selector inputs (a ``Row``) shared by oracle tests."""
    n = int(rng.integers(10, max_n + 1))
    p = int(rng.integers(1, 4))
    ds = make_dataset(rng.normal(size=(n, p)), rng.normal(size=n))
    order = rng.permutation(n)
    k = int(rng.integers(3, 6))
    split = SplitState(order[:k], order[k:], seed=0)
    model = fit_ridge(ds.features[split.labeled_idx], ds.targets[split.labeled_idx], 0.01)
    preds = ds.features[split.pool_idx] @ model.coefficients[0] + model.intercepts[0]
    row = row_of(ds, split, preds)
    return ds, split, model, preds, row


class TestPassive:
    def test_pool_of_one(self):
        r = select_passive(1, generator(0, "passive"))
        assert r.chosen == 0

    def test_same_seed_same_sequence(self):
        a = [select_passive(9, generator(5, "passive")).chosen for _ in range(4)]
        b = [select_passive(9, generator(5, "passive")).chosen for _ in range(4)]
        assert a == b

    def test_uniform_frequencies(self):
        rng = generator(1, "passive")
        picks = np.array([select_passive(4, rng).chosen for _ in range(10_000)])
        freqs = np.bincount(picks, minlength=4) / len(picks)
        assert np.all(np.abs(freqs - 0.25) < 0.02)

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            select_passive(0, generator(0, "passive"))


class TestGreedyFamily:
    def test_gsx_hand_example(self):
        ds = make_dataset([0.0, 1.0, 0.1, 0.5, 0.9], [0.0] * 5)
        split = SplitState(np.array([0, 1]), np.array([2, 3, 4]), seed=0)
        cache = cache_of(ds, split)
        assert select_gsx(cache.dx_min(0)).chosen == 1  # x=0.5, dx_min 0.5 beats 0.1, 0.1

    def test_gsx_all_coincident_tie(self):
        ds = make_dataset([0.0, 1.0, 0.0, 1.0], [0.0] * 4)
        split = SplitState(np.array([0, 1]), np.array([2, 3]), seed=0)
        cache = cache_of(ds, split)
        r = select_gsx(cache.dx_min(0))
        assert r.chosen == 0 and r.score == 0.0

    def test_gsy_hand_example(self):
        ds = make_dataset([0.0, 1.0, 0.2, 0.4, 0.6], [0.0, 2.0, 0.0, 0.0, 0.0])
        split = SplitState(np.array([0, 1]), np.array([2, 3, 4]), seed=0)
        row = row_of(ds, split, predictions=np.array([1.0, 0.1, 2.6]))
        assert select_gsy(row.predictions, row.targets).chosen == 0  # 1.0 beats 0.1 and 0.6

    def test_gsy_prediction_on_known_label(self):
        ds = make_dataset([0.0, 1.0, 0.2, 0.4], [0.0, 2.0, 0.0, 0.0])
        split = SplitState(np.array([0, 1]), np.array([2, 3]), seed=0)
        row = row_of(ds, split, predictions=np.array([2.0, 0.5]))
        r = select_gsy(row.predictions, row.targets)
        assert r.chosen == 1  # first candidate scores 0

    def test_igs_hand_example(self):
        dx = np.array([[0.5, 0.1]])
        dy = np.array([[0.2, 0.9]])
        assert igs_scores(dx, dy)[0] == pytest.approx(0.09)  # min(0.10, 0.09)

    def test_igs_zero_on_coincident(self):
        ds = make_dataset([0.0, 1.0, 0.0, 0.5], [0.0, 1.0, 3.0, 0.0])
        split = SplitState(np.array([0, 1]), np.array([2, 3]), seed=0)
        row = row_of(ds, split, predictions=np.array([5.0, 0.7]))
        assert igs_scores(row.dx_pair, dy_pair(row.predictions, row.targets))[0] == 0.0

    def test_igs_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dx = rng.uniform(0.1, 2.0, size=(10, 4))
            dy = rng.uniform(0.1, 2.0, size=(10, 4))
            base = np.argmax(igs_scores(dx, dy))
            scaled = np.argmax(igs_scores(3.5 * dx, 0.25 * dy))
            assert base == scaled

    def test_wigs_hand_example_prenormalized(self):
        phi_x = np.array([[0.5, 0.1]])
        phi_y = np.array([[0.2, 0.9]])
        assert wigs_scores(phi_x, phi_y, 0.5)[0] == pytest.approx(0.35)

    def test_wigs_weight_bounds(self):
        ds = make_dataset([0.0, 1.0, 0.5], [0.0, 1.0, 0.0])
        split = SplitState(np.array([0, 1]), np.array([2]), seed=0)
        row = row_of(ds, split, predictions=np.array([0.5]))
        with pytest.raises(ValueError):
            select_wigs(row.dx_pair, row.predictions, row.targets, 1.5)

    def test_wigs_extremes_match_gsx_gsy(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            _, _, _, _, row = random_state(rng)
            dx, dy = row.dx_pair, dy_pair(row.predictions, row.targets)
            if dx.max() > dx.min():
                assert select_wigs(dx, row.predictions, row.targets, 1.0).chosen == \
                    select_gsx(row.dx_min).chosen
            if dy.max() > dy.min():
                assert select_wigs(dx, row.predictions, row.targets, 0.0).chosen == \
                    select_gsy(row.predictions, row.targets).chosen


def fixed_cache(features, targets, predictions, n_labeled):
    ds = make_dataset(features, targets)
    split = SplitState(np.arange(n_labeled), np.arange(n_labeled, len(targets)), seed=0)
    return row_of(ds, split, predictions)


def scoring_caches():
    """Random rows, then degenerate ones: equal feature distances, equal
    targets and predictions, both, and predictions equal to the targets."""
    rng = np.random.default_rng(31)
    for _ in range(300):
        yield random_state(rng)[4]
    n, k = 12, 4
    identical = np.tile([[0.3, -1.0]], (n, 1))
    spread = rng.normal(size=(n, 2))
    yield fixed_cache(identical, rng.normal(size=n), rng.normal(size=n - k), k)
    yield fixed_cache(spread, np.full(n, 0.7), np.full(n - k, 0.2), k)
    yield fixed_cache(identical, np.full(n, 0.7), np.full(n - k, 0.2), k)
    yield fixed_cache(spread, np.full(n, 0.7), np.full(n - k, 0.7), k)
    yield fixed_cache(identical, np.full(n, 0.7), np.full(n - k, 0.7), k)


def same_result(got, want):
    return got.chosen == want.chosen and \
        np.float64(got.score).tobytes() == np.float64(want.score).tobytes()


class TestScoringBuffers:
    """select_wigs and select_igs score in at most two (P, L) buffers, with
    the bits of the plain score functions, and leave the distances as they
    were."""

    def test_wigs_bits_equal_the_plain_chain(self):
        rng = np.random.default_rng(32)
        for row in scoring_caches():
            dx_before = row.dx_pair.tobytes()
            for w in (0.0, 1.0, 0.5, 0.25, float(rng.uniform())):
                want = _pick(wigs_scores(normalize_phi(row.dx_pair),
                                         normalize_phi(dy_pair(row.predictions, row.targets)), w))
                assert same_result(select_wigs(row.dx_pair, row.predictions, row.targets, w),
                                   want), w
            assert row.dx_pair.tobytes() == dx_before

    def test_igs_bits_equal_the_plain_product(self):
        for row in scoring_caches():
            dx_before = row.dx_pair.tobytes()
            want = _pick(igs_scores(row.dx_pair, dy_pair(row.predictions, row.targets)))
            assert same_result(select_igs(row.dx_pair, row.predictions, row.targets), want)
            assert row.dx_pair.tobytes() == dx_before

    @pytest.mark.parametrize("select, buffers", [
        (lambda *row: select_wigs(*row, 0.4), 2), (select_igs, 1)], ids=["wigs", "igs"])
    def test_peak_memory(self, select, buffers):
        rng = np.random.default_rng(34)
        n, k = 800, 400  # large enough that numpy's fixed ufunc buffers stay in the slack
        # dx_pair gathered before the scoring, as in the loop
        row = fixed_cache(rng.normal(size=(n, 3)), rng.normal(size=n), rng.normal(size=n - k), k)
        tracemalloc.start()
        try:
            select(row.dx_pair, row.predictions, row.targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (buffers + 0.2) * 8 * (n - k) * k


def group_caches(rng, group, n_pool, n_labeled):
    """``group`` rows of one (P, L) shape, the four styles in turn: random
    rows; identical rows, whose feature distances all equal (max == min);
    rows and predictions on a small lattice, which tie scores; and
    targets equal to the predictions, whose output distances are all 0."""
    n = n_pool + n_labeled
    caches = []
    for g in range(group):
        style = g % 4
        features = (np.tile([[0.3, -1.0]], (n, 1)) if style == 1
                    else rng.integers(0, 3, size=(n, 2)).astype(float) if style == 2
                    else rng.normal(size=(n, 2)))
        targets = np.full(n, 0.7) if style == 3 else rng.normal(size=n)
        predictions = (np.full(n_pool, 0.7) if style == 3
                       else rng.integers(0, 3, size=n_pool).astype(float) if style == 2
                       else rng.normal(size=n_pool))
        caches.append(fixed_cache(features, targets, predictions, n_labeled))
    return caches


def stacked_inputs(caches):
    return ([row.dx_pair for row in caches], np.stack([row.predictions for row in caches]),
            np.stack([row.targets for row in caches]))


class TestStackedScoring:
    """A group of rows scored at once gives each row the bits of its own
    selector: WiGS at weights 0, 1 and inside, igs, and gsx's argmax over
    the rows of nearest-labeled distances."""

    SHAPES = [(6, 12, 4), (9, 30, 10), (5, 60, 60), (2, 130, 130)]

    @pytest.mark.parametrize("group, n_pool, n_labeled", SHAPES)
    def test_rows_match_their_own_selectors(self, group, n_pool, n_labeled):
        assert 130 * 130 > SCORE_BUDGET > 60 * 60  # P·L on both sides of the budget
        rng = np.random.default_rng(group * 1000 + n_pool)
        for trial in range(4):
            caches = group_caches(rng, group, n_pool, n_labeled)
            dx_before = [row.dx_pair.copy() for row in caches]
            weights = [(0.0, 1.0, 0.5, 0.25, float(rng.uniform()))[(g + trial) % 5]
                       for g in range(group)]
            chosen, scores = select_stacked(*stacked_inputs(caches), weights)
            for g, row in enumerate(caches):
                want = _pick(wigs_scores(normalize_phi(row.dx_pair),
                                         normalize_phi(dy_pair(row.predictions, row.targets)),
                                         weights[g]))
                got = SelectionResult(int(chosen[g]), scores[g])
                assert same_result(got, want), (g, weights[g])
            chosen, scores = select_stacked(*stacked_inputs(caches))
            for g, row in enumerate(caches):
                want = _pick(igs_scores(row.dx_pair, dy_pair(row.predictions, row.targets)))
                assert same_result(SelectionResult(int(chosen[g]), scores[g]), want), g
            chosen, scores = pick_rows(np.stack([row.dx_min for row in caches]))
            for g, row in enumerate(caches):
                assert same_result(SelectionResult(int(chosen[g]), scores[g]),
                                   select_gsx(row.dx_min))
            for row, before in zip(caches, dx_before):
                assert row.dx_pair.tobytes() == before.tobytes()

    def test_ties_go_to_the_lowest_position(self):
        caches = group_caches(np.random.default_rng(5), 3, 20, 5)
        chosen, scores = select_stacked(*stacked_inputs(caches), [1.0, 1.0, 1.0])
        assert chosen[1] == 0 and scores[1] == 0.0  # identical rows: every score is 0
        chosen, scores = select_stacked(*stacked_inputs(caches))
        assert chosen[1] == 0 and scores[1] == 0.0

    def test_weights_outside_the_unit_interval_refused(self):
        caches = group_caches(np.random.default_rng(6), 2, 8, 3)
        for weights in ([0.5, 1.5], [-0.1, 0.5], [0.5, float("nan")]):
            with pytest.raises(ValueError, match="weights must lie in"):
                select_stacked(*stacked_inputs(caches), weights)

    @pytest.mark.parametrize("weighted", [True, False], ids=["wigs", "igs"])
    def test_peak_memory_of_a_group_at_the_budget(self, weighted):
        """One group at the budget holds its (2, G, P, L) buffer, two floats
        per element of the budget, one of numpy's fixed ufunc buffers for
        the broadcast subtraction, and its (G, P) scores."""
        rng = np.random.default_rng(35)
        n_pool, n_labeled = 64, 32
        group = SCORE_BUDGET // (n_pool * n_labeled)
        assert group * n_pool * n_labeled == SCORE_BUDGET
        dx_pairs = [rng.uniform(size=(n_pool, n_labeled)) for _ in range(group)]
        predictions = rng.normal(size=(group, n_pool))
        targets = rng.normal(size=(group, n_labeled))
        weights = list(rng.uniform(size=group)) if weighted else None
        tracemalloc.start()
        try:
            select_stacked(dx_pairs, predictions, targets, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * SCORE_BUDGET + 8 * np.getbufsize() + 8 * group * n_pool + 4096


def plain_wigs(dx, predictions, targets, w):
    """The oracle of ``select_wigs``' screen: the plain chain, in full."""
    return _pick(wigs_scores(normalize_phi(dx), normalize_phi(dy_pair(predictions, targets)), w))


# 0, the smallest subnormal, a subnormal, an inside weight, the largest
# weight below 1 (1 - w = 2**-53) and 1
SCREEN_WEIGHTS = (0.0, 5e-324, 1e-310, 0.5, 1.0 - 2.0**-53, 1.0)


def jitter(values, rng, share=0.5):
    """``values`` with a random ``share`` of its entries moved 1 ulp up or down."""
    moved = values.copy()
    picks = rng.uniform(size=values.shape) < share
    up = rng.uniform(size=values.shape) < 0.5
    moved[picks & up] = np.nextafter(values[picks & up], np.inf)
    moved[picks & ~up] = np.nextafter(values[picks & ~up], -np.inf)
    return moved


def screen_cases(rng, n_pool=24, n_labeled=6):
    """(name, dx_pair, predictions, targets) rows built to trip a screen:
    near ties 1 ulp apart, duplicate and lattice candidates, identical rows,
    flat outputs, outputs offset by 1e12, tiny and huge distances."""
    shape = (n_pool, n_labeled)
    lattice = rng.integers(0, 3, size=shape).astype(float)
    lattice_p = rng.integers(0, 3, size=n_pool).astype(float)
    lattice_t = rng.integers(0, 3, size=n_labeled).astype(float)
    spread = rng.uniform(0.5, 2.0, size=shape)
    p, t = rng.normal(size=n_pool), rng.normal(size=n_labeled)
    half = n_pool // 2
    twice = np.vstack([spread[:half], spread[:n_pool - half]])
    yield "random", spread, p, t
    yield "lattice", lattice, lattice_p, lattice_t
    yield "ulp ties", jitter(np.full(shape, 0.75), rng), jitter(np.full(n_pool, 0.5), rng), \
        np.linspace(-1.0, 1.0, n_labeled)
    yield "ulp lattice", jitter(lattice + 1.0, rng), jitter(lattice_p, rng), lattice_t
    yield "duplicates", twice, np.concatenate([p[:half], p[:n_pool - half]]), t
    yield "identical rows", np.zeros(shape), p, t
    yield "equal distances", np.full(shape, 0.4), p, t
    yield "flat outputs", spread, np.full(n_pool, 0.7), np.full(n_labeled, 0.7)
    yield "flat offset outputs", spread, np.full(n_pool, 0.2), np.full(n_labeled, 0.7)
    yield "identical and flat", np.zeros(shape), np.full(n_pool, 0.7), np.full(n_labeled, 0.7)
    yield "offset 1e12", spread, p + 1e12, t + 1e12
    yield "offset lattice 1e12", lattice, lattice_p + 1e12, lattice_t + 1e12
    yield "tiny distances", spread * 1e-300, p, t
    yield "huge distances", spread * 1e150, p * 1e150, t * 1e150
    yield "one candidate", spread[:1], p[:1], t
    yield "one labeled", spread[:, :1], p, t[:1]
    yield "one of each", spread[:1, :1], p[:1], t[:1]


class TestScreenThenConfirm:
    """``select_wigs``' screen and egal's running density pick, and score,
    the bits of the plain computation on inputs built to trip a bound."""

    @pytest.mark.parametrize("seed", range(4))
    def test_wigs_rows_equal_the_plain_chain(self, seed):
        rng = np.random.default_rng(seed)
        for name, dx, p, t in screen_cases(rng):
            before = dx.tobytes(), p.tobytes(), t.tobytes()
            for w in SCREEN_WEIGHTS:
                want = plain_wigs(dx, p, t, w)
                assert same_result(select_wigs(dx, p, t, w), want), (name, w)
                assert same_result(select_wigs(dx, p, t, w, dx.min(axis=1)), want), (name, w)
            assert (dx.tobytes(), p.tobytes(), t.tobytes()) == before, name

    def test_wigs_ties_in_real_arithmetic(self):
        """Distances and outputs on decimal and thirds lattices, at weights
        that do not divide them evenly: many candidates tie in real
        arithmetic and are parted by one rounding, which the screen, a
        different formula, can round the other way."""
        rng = np.random.default_rng(45)
        for trial in range(1500):
            n_pool, n_labeled = int(rng.integers(2, 8)), int(rng.integers(1, 4))
            scale, offset = ((10, 0.0), (3, 0.0), (10, 1e12))[trial % 3]
            dx = rng.integers(1, 10, size=(n_pool, n_labeled)) / scale
            p = rng.integers(0, 10, size=n_pool) / scale + offset
            t = rng.integers(0, 10, size=n_labeled) / scale + offset
            for w in (0.1, 0.3, 1.0 / 3.0, 0.7, float(rng.uniform())):
                assert same_result(select_wigs(dx, p, t, w), plain_wigs(dx, p, t, w)), (trial, w)

    def test_wigs_random_rows_and_weights(self):
        rng = np.random.default_rng(40)
        for row in scoring_caches():
            for w in (*SCREEN_WEIGHTS, float(rng.uniform()), float(rng.uniform()) * 1e-200):
                assert same_result(select_wigs(row.dx_pair, row.predictions, row.targets, w,
                                               row.dx_min),
                                   plain_wigs(row.dx_pair, row.predictions, row.targets, w)), w

    def test_mixed_groups_equal_the_plain_chain(self):
        """Rows of every screen case in one group, scored by ``select_stacked``
        and one at a time by ``select_wigs``, at every weight."""
        rng = np.random.default_rng(41)
        cases = [case for case in screen_cases(rng) if case[1].shape == (24, 6)]
        dx_pairs = [dx for _, dx, _, _ in cases]
        predictions = np.stack([p for _, _, p, _ in cases])
        targets = np.stack([t for _, _, _, t in cases])
        for shift in range(len(SCREEN_WEIGHTS)):
            weights = [SCREEN_WEIGHTS[(g + shift) % len(SCREEN_WEIGHTS)] for g in range(len(cases))]
            chosen, scores = select_stacked(dx_pairs, predictions, targets, weights)
            for g, (name, dx, p, t) in enumerate(cases):
                want = plain_wigs(dx, p, t, weights[g])
                assert same_result(SelectionResult(int(chosen[g]), scores[g]), want), name
                assert same_result(select_wigs(dx, p, t, weights[g]), want), name

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("where, value", [
        ("dx", np.nan), ("dx", np.inf), ("predictions", np.nan), ("predictions", -np.inf),
        ("targets", np.nan), ("targets", np.inf), ("overflow", None)])
    def test_non_finite_inputs_refused(self, where, value):
        rng = np.random.default_rng(42)
        dx, p, t = rng.uniform(size=(8, 3)), rng.normal(size=8), rng.normal(size=3)
        if where == "overflow":  # finite, but |p - t| overflows
            p[2], t[1] = 1.5e308, -1.5e308
        else:
            {"dx": dx[3], "predictions": p, "targets": t}[where][1] = value
        for w in (0.0, 0.5, 1.0):
            with pytest.raises(ValueError, match="non-finite"):
                select_wigs(dx, p, t, w)
        good = rng.uniform(size=(8, 3))
        with pytest.raises(ValueError, match="non-finite"):
            select_stacked([good, dx], np.stack([rng.normal(size=8), p]),
                           np.stack([rng.normal(size=3), t]), [0.5, 0.5])

    @pytest.mark.parametrize("style", ["random", "duplicates", "lattice"])
    def test_egal_after_every_acquisition(self, style):
        """The running density of one ``EgalState``, followed through a whole
        run of acquisitions, picks and scores the bits of a fresh
        ``egal_density`` at every step, duplicate rows (equal densities)
        and lattice rows (many ties) included."""
        rng = np.random.default_rng(43)
        n = 60
        if style == "duplicates":
            features = np.repeat(rng.normal(size=(n // 3, 2)), 3, axis=0)
        elif style == "lattice":
            features = rng.integers(0, 4, size=(n, 2)).astype(float)
        else:
            features = rng.normal(size=(n, 3))
        ds = make_dataset(features, rng.normal(size=n))
        order = rng.permutation(n)
        cache = cache_of(ds, SplitState(order[:4], order[4:], seed=0))
        state = EgalState.setup(ds, seed=5)
        assert np.array_equal(state.similarity, egal_setup(ds, seed=5))
        while True:
            pool, dx_min = cache.pool(0), cache.dx_min(0)
            masked = np.where(dx_min >= np.quantile(dx_min, 0.25),
                              egal_density(pool, state.similarity), -np.inf)
            want = _pick(masked if np.isfinite(masked).any()
                         else egal_density(pool, state.similarity))
            got = state.select(pool, dx_min)
            assert same_result(got, want), len(pool)
            assert same_result(got, select_egal(pool, dx_min, state.similarity))
            if len(pool) == 1:
                break
            # the pick half the time, else a random candidate: the pool order moves either way
            acquire(cache, got.chosen if rng.uniform() < 0.5 else int(rng.integers(len(pool))))

    def test_egal_pool_order_does_not_matter(self):
        """The state subtracts what left the pool, whatever order the pool
        comes in, and several rows may leave between two calls."""
        rng = np.random.default_rng(44)
        ds = make_dataset(rng.normal(size=(50, 2)), rng.normal(size=50))
        state = EgalState.setup(ds, seed=1)
        pool = rng.permutation(50)[5:]
        while len(pool) > 3:
            dx_min = rng.uniform(size=len(pool))
            assert same_result(state.select(pool, dx_min),
                               select_egal(pool, dx_min, state.similarity))
            pool = rng.permutation(pool)[:len(pool) - int(rng.integers(1, 4))]


class TestBruteForceOracles:
    """Every selector's score vector against plain-loop enumeration."""

    def test_thirty_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            ds, split, model, preds, row = random_state(rng)
            labeled_idx, pool_idx = split.labeled_idx, split.pool_idx
            X, y = ds.features, ds.targets
            committee = fit_bootstrap_committee(
                X[labeled_idx], y[labeled_idx], 0.01, counts_of(len(labeled_idx), 6, 11))

            gsx_brute, gsy_brute, igs_brute, wigs_brute = [], [], [], []
            phi_x = normalize_phi(row.dx_pair)
            phi_y = normalize_phi(dy_pair(row.predictions, row.targets))
            w = 0.3
            for n, pool_i in enumerate(pool_idx):
                per_x = [float(np.linalg.norm(X[pool_i] - X[m])) for m in labeled_idx]
                per_y = [abs(preds[n] - y[m]) for m in labeled_idx]
                gsx_brute.append(min(per_x))
                gsy_brute.append(min(per_y))
                igs_brute.append(min(a * b for a, b in zip(per_x, per_y)))
                wigs_brute.append(min(
                    w * phi_x[n, m] + (1 - w) * phi_y[n, m]
                    for m in range(len(labeled_idx))))

            assert np.allclose(row.dx_min, gsx_brute, atol=1e-12, rtol=0)
            assert np.allclose(dy_min(row.predictions, row.targets), gsy_brute, atol=1e-12, rtol=0)
            assert np.allclose(igs_scores(row.dx_pair, dy_pair(row.predictions, row.targets)),
                               igs_brute, atol=1e-12, rtol=0)
            assert np.allclose(wigs_scores(phi_x, phi_y, w),
                               wigs_brute, atol=1e-12, rtol=0)

            pool_X = X[pool_idx]
            means, gram_inverse, sigma2 = \
                model.feature_means[0], model.gram_inverse[0], model.sigma2_hat[0]
            unc_brute = [
                sigma2 * float((x - means) @ gram_inverse @ (x - means))
                for x in pool_X
            ]
            assert np.allclose(uncertainty_scores(pool_X, means, gram_inverse, sigma2),
                               unc_brute, atol=1e-12, rtol=0)

            coefs, intercepts = oracle_committee(
                X[labeled_idx], y[labeled_idx], 0.01, B=6, seed=11)
            member_preds = np.array([[x @ c + b for c, b in zip(coefs, intercepts)]
                                     for x in pool_X])
            qbc_brute = member_preds.var(axis=1)
            # the members are solved apart from the kernel, and a bootstrap
            # draw of 4 rows at p=3 is ill-conditioned: agree to rounding
            assert np.allclose(qbc_scores(pool_X, *committee),
                               qbc_brute, atol=1e-12, rtol=1e-12)

            emcm_brute = []
            for x in pool_X:
                xc = np.append(x - means, 1.0)
                f = x @ model.coefficients[0] + model.intercepts[0]
                total = sum(
                    float(np.linalg.norm((f - (x @ c + b)) * xc))
                    for c, b in zip(coefs, intercepts))
                emcm_brute.append(total / len(committee[1]))
            assert np.allclose(emcm_scores(pool_X, preds, means, *committee),
                               emcm_brute, atol=1e-12, rtol=1e-12)


class TestUncertainty:
    def test_centroid_never_wins(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 2))
        model = fit_ridge(X, rng.normal(size=10), alpha=0.01)
        means = model.feature_means[0]
        pool = np.vstack([means, means + 1.0])
        assert select_uncertainty(pool, means, model.gram_inverse[0],
                                  model.sigma2_hat[0]).chosen == 1


class TestQbcEmcm:
    def test_identical_members_tie_to_zero(self):
        X = np.tile([[1.0, 2.0]], (6, 1))
        committee = fit_bootstrap_committee(X, np.full(6, 3.0), 0.01, counts_of(6, 4, 0))
        r = select_qbc(np.array([[0.0, 0.0], [5.0, 5.0]]), *committee)
        assert r.chosen == 0 and r.score == 0.0

    def test_qbc_two_member_hand_variance(self):
        # members predicting {0, 2} at one candidate -> var 1; {0, 1} -> var 0.25
        preds = np.array([[0.0, 0.0], [2.0, 1.0]])
        assert preds.var(axis=0)[0] == 1.0 and preds.var(axis=0)[1] == 0.25

    def test_emcm_hand_example(self):
        # f(x)=1, committee {0, 2}, x_tilde=[1, 1]: score = (sqrt2 + sqrt2)/2
        residuals = [abs(1.0 - 0.0), abs(1.0 - 2.0)]
        norm = math.sqrt(2.0)
        assert sum(r * norm for r in residuals) / 2 == pytest.approx(math.sqrt(2.0))

    def test_emcm_zero_when_unanimous(self):
        X = np.tile([[1.0, 2.0]], (6, 1))
        model = fit_ridge(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]), 0.01)
        committee = fit_bootstrap_committee(X, np.full(6, 3.0), 0.01, counts_of(6, 4, 0))
        pool = np.array([[1.0, 2.0]])
        unanimous = (pool @ committee[0].T + committee[1]).T
        preds = pool @ model.coefficients[0] + model.intercepts[0]
        scores = emcm_scores(pool, preds, model.feature_means[0], *committee)
        if np.allclose(unanimous, preds):
            assert np.allclose(scores, 0.0)

    def test_emcm_scales_with_feature_norm(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(8, 2))
        y = rng.normal(size=8)
        model = fit_ridge(X, y, 0.01)
        committee = fit_bootstrap_committee(X, y, 0.01, counts_of(8, 4, 1))
        x = model.feature_means[0] + np.array([1.0, 1.0])
        f = x @ model.coefficients[0] + model.intercepts[0]
        # doubling the centered offset doubles ||x_tilde|| only sublinearly
        # (intercept coordinate), so check the exact norm ratio instead
        s1 = emcm_scores(x[None, :], np.array([f]), model.feature_means[0], *committee)[0]
        coefs, intercepts = oracle_committee(X, y, 0.01, B=4, seed=1)
        resid = np.abs(f - (coefs @ x + intercepts)).mean()
        assert s1 == pytest.approx(resid * math.sqrt(2.0 + 1.0))

    def test_emcm_prediction_row_keeps_its_bits(self):
        """emcm fed the block's prediction row, written with ``ndarray.dot``
        into a buffer row and then given its intercept in place, scores the
        bits it scores from predictions computed as pool @ coef + intercept."""
        rng = np.random.default_rng(22)
        for p in range(1, 31):
            R, n, k = 3, 60, int(rng.integers(p + 2, 40))
            features = rng.normal(size=(R, n, p))
            targets = features[:, :, 0] + rng.normal(size=(R, n))
            X, y = features[:, :k], targets[:, :k]
            fits = fit_ridge(X, y, 0.01)
            seeds = [int(s) for s in rng.integers(0, 2**31, size=R)]
            coefficients, intercepts = fit_bootstrap_committee(X, y, 0.01, counts_of(k, 5, seeds))
            pools = features[:, k:]
            buffer = np.empty((R, n - k + 1))
            for r in range(R):
                pools[r].dot(fits.coefficients[r], buffer[r, 1:])
            rows = buffer[:, 1:]
            rows += fits.intercepts[:, None]
            for r in range(R):
                plain = pools[r] @ fits.coefficients[r] + fits.intercepts[r]
                fit = (fits.feature_means[r], coefficients[r], intercepts[r])
                assert emcm_scores(pools[r], rows[r], *fit).tobytes() == \
                    emcm_scores(pools[r], plain, *fit).tobytes(), p


def sample_bandwidth(features, seed, sample_cap=500):
    """The egal bandwidth as computed before it read the dataset's dx: the
    distances of the seeded sample among themselves, from its features."""
    n = features.shape[0]
    take = min(sample_cap, n)
    idx = generator(seed, "egal").choice(n, size=take, replace=False)
    sample = features[idx]
    dist = pairwise_distances(sample, sample)
    return float(dist[~np.eye(take, dtype=bool)].mean())


class TestLowerQuartile:
    """egal's diversity threshold from one partition against np.quantile."""

    @pytest.mark.parametrize("case", ["normal", "ties", "constant", "duplicated", "zeros"])
    def test_every_pool_size_bit_equal_to_quantile(self, case):
        rng = np.random.default_rng(len(case))
        for n in range(1, 501):
            if case == "normal":
                values = rng.normal(size=n)
            elif case == "ties":
                values = rng.integers(0, 4, size=n).astype(float)
            elif case == "constant":
                values = np.full(n, 1.5)
            elif case == "duplicated":
                values = np.repeat(rng.exponential(size=n // 3 + 1), 3)[:n]
            else:
                values = np.where(rng.uniform(size=n) < 0.5, 0.0, rng.exponential(size=n))
            kept = values.copy()
            got = lower_quartile(values)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.quantile(values, 0.25).tobytes(), n
            assert values.tobytes() == kept.tobytes()  # the input is left as it was

    @pytest.mark.parametrize("values", [[1.0, np.nan, 3.0], [np.nan], [2.0, np.inf],
                                        [np.inf], [-np.inf, np.inf, 2.0, 3.0, 4.0],
                                        [5.0, np.inf, np.inf, 1.0, 2.0, 7.0]])
    def test_non_finite_values(self, values):
        values = np.array(values)
        with np.errstate(invalid="ignore"):
            want = np.quantile(values, 0.25)
        assert np.float64(lower_quartile(values)).tobytes() == want.tobytes()


class TestEgal:
    def test_duplicated_candidate_wins_density(self):
        # 12-point pool: ten copies of one point, one isolated, one labeled anchor
        copies = np.tile([[0.0, 0.0]], (10, 1))
        isolated = np.array([[10.0, 10.0]])
        features = np.vstack([[[-50.0, -50.0]], [[-49.0, -50.0]], copies, isolated])
        ds = make_dataset(features, np.zeros(13))
        split = SplitState(np.array([0, 1]), np.arange(2, 13), seed=0)
        cache = cache_of(ds, split)
        delta = 5.0
        similarity = egal_similarity(ds.feature_distances, delta)
        density = egal_density(cache.pool(0), similarity)
        # oracle: pairwise sums by hand loops
        pool = ds.features[cache.pool(0)]
        brute = []
        for i in range(len(pool)):
            total = 0.0
            for j in range(len(pool)):
                if i != j:
                    d2 = float(np.sum((pool[i] - pool[j]) ** 2))
                    total += math.exp(-d2 / (2 * delta ** 2))
            brute.append(total)
        assert np.allclose(density, brute, atol=1e-12)
        r = select_egal(cache.pool(0), cache.dx_min(0), similarity)
        assert r.chosen == 0  # first duplicate: density ~9 vs isolated ~0

    def test_pool_of_one(self):
        ds = make_dataset([0.0, 1.0, 0.5], [0.0, 1.0, 0.0])
        split = SplitState(np.array([0, 1]), np.array([2]), seed=0)
        cache = cache_of(ds, split)
        assert select_egal(cache.pool(0), cache.dx_min(0),
                           egal_similarity(ds.feature_distances, 1.0)).chosen == 0

    def test_density_equals_direct_formula_after_acquisitions(self):
        rng = np.random.default_rng(9)
        ds = make_dataset(rng.normal(size=(40, 20)), rng.normal(size=40))
        order = rng.permutation(40)
        cache = cache_of(ds, SplitState(order[:3], order[3:], seed=0))
        similarity = egal_setup(ds, seed=2)
        delta = sample_bandwidth(ds.features, seed=2)
        for _ in range(6):
            pos = int(rng.integers(cache.partitions.n_pool))
            acquire(cache, pos)
            # oracle: the pool's own pairwise distances, computed from its features
            pool_features = ds.features[cache.pool(0)]
            dist = pairwise_distances(pool_features, pool_features)
            sim = np.exp(-(dist ** 2) / (2.0 * delta ** 2))
            np.fill_diagonal(sim, 0.0)
            assert np.array_equal(egal_density(cache.pool(0), similarity), sim.sum(axis=1))

    def test_density_chunks_give_the_same_bits(self, monkeypatch):
        rng = np.random.default_rng(10)
        ds = make_dataset(rng.normal(size=(150, 4)), rng.normal(size=150))
        order = rng.permutation(150)
        pool = cache_of(ds, SplitState(order[:8], order[8:], seed=0)).pool(0)
        similarity = egal_setup(ds, seed=1)
        whole = similarity[pool].take(pool, axis=1).sum(axis=1)
        for chunk in (1, 2, 7, 64, 141, 142, 500):
            monkeypatch.setattr(wigs.selectors, "EGAL_CHUNK_ROWS", chunk)
            assert egal_density(pool, similarity).tobytes() == whole.tobytes(), chunk

    def test_density_holds_no_pool_by_dataset_gather(self):
        rng = np.random.default_rng(11)
        n = 400
        ds = make_dataset(rng.normal(size=(n, 2)), rng.normal(size=n))
        pool = cache_of(ds, SplitState(np.arange(20), np.arange(20, n), seed=0)).pool(0)
        similarity = egal_similarity(ds.feature_distances, 1.0)
        tracemalloc.start()
        try:
            egal_density(pool, similarity)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n - 20) * n / 2

    def test_filter_fallback_when_all_coincident(self):
        ds = make_dataset([0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 2.0, 3.0])
        split = SplitState(np.array([0, 1]), np.array([2, 3]), seed=0)
        cache = cache_of(ds, split)
        r = select_egal(cache.pool(0), cache.dx_min(0), egal_similarity(ds.feature_distances, 1.0))
        assert r.chosen == 0  # all dx_min = 0: everyone passes >= q25 = 0

    def test_bandwidth_deterministic_and_positive(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng.normal(size=(700, 3)), np.zeros(700))
        a = egal_bandwidth(ds.feature_distances, seed=5)
        b = egal_bandwidth(ds.feature_distances, seed=5)
        assert a == b and a > 0

    @pytest.mark.parametrize("n, p", [(60, 1), (60, 3), (60, 20), (60, 50), (520, 3)])
    def test_bandwidth_from_dx_equals_sample_formula(self, n, p):
        # n = 520 is above the 500-row sample cap, so the sample is a strict subset
        rng = np.random.default_rng(n + p)
        ds = make_dataset(rng.normal(size=(n, p)), np.zeros(n))
        for seed in (0, 7):
            assert egal_bandwidth(ds.feature_distances, seed) == sample_bandwidth(ds.features, seed)

    def test_similarity_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            egal_similarity(np.zeros((3, 3)), 0.0)

    def test_all_duplicate_rows_take_unit_bandwidth_and_run_to_exhaustion(self):
        ds = make_dataset(np.tile([[0.3, -1.2]], (40, 1)), np.linspace(0.0, 1.0, 40))
        assert egal_bandwidth(ds.feature_distances, seed=0) == 0.0
        similarity = egal_setup(ds, seed=0)
        assert np.array_equal(similarity, egal_similarity(ds.feature_distances, 1.0))
        assert np.array_equal(similarity, 1.0 - np.eye(40))
        trace = run_replication(ds, MethodSpec("egal", "egal"), seed=0)
        assert trace.labeled_count[-1] == 40
        acquired = trace.acquired_idx[1:]
        assert len(set(acquired.tolist())) == len(acquired) == 40 - trace.labeled_count[0]
        assert np.isfinite(trace.score[1:]).all() and np.isfinite(trace.rmse).all()

    def test_setup_peak_memory_below_three_distance_matrices(self):
        # the setup reads the dataset's dx and holds one (N, N) similarity
        # buffer plus the sample's temporaries: no N x N x p difference tensor
        n, p = 400, 20
        rng = np.random.default_rng(3)
        ds = make_dataset(rng.normal(size=(n, p)), rng.normal(size=n))
        ds.feature_distances  # the dataset's matrix, built before the setup runs
        tracemalloc.start()
        try:
            egal_setup(ds, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n * n

    def test_bandwidth_peak_memory_below_one_and_a_half_distance_matrices(self):
        # the sample block is the one (N, N)-sized buffer: its off-diagonal
        # entries are packed into its own leading slots, not copied out
        n, p = 400, 20
        rng = np.random.default_rng(3)
        ds = make_dataset(rng.normal(size=(n, p)), rng.normal(size=n))
        dx = ds.feature_distances
        tracemalloc.start()
        try:
            egal_bandwidth(dx, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n


class TestDensityVeto:
    def test_documented_example(self):
        r = verify_density_veto(0.05, 0.9, 0.3, 0.4)
        assert 0.05 * 0.9 < 0.3 * 0.4  # 0.045 < 0.12
        assert r.igs_prefers_distractor
        assert r.additive_weight_window[1] == pytest.approx(2.0 / 3.0)
        # w = 0.2 flips the preference to the target
        w = 0.2
        assert w * 0.05 + 0.8 * 0.9 > w * 0.3 + 0.8 * 0.4

    def test_window_boundary(self):
        upper = verify_density_veto(0.05, 0.9, 0.3, 0.4).additive_weight_window[1]
        # oracle form: (u* - u') / ((d' - d*) + (u* - u'))
        assert upper == pytest.approx(0.5 / 0.75)
        for w, flips in ((0.66, True), (0.67, False)):
            target = w * 0.05 + (1 - w) * 0.9
            distractor = w * 0.3 + (1 - w) * 0.4
            assert (target > distractor) is flips

    def test_precondition_guards(self):
        with pytest.raises(ValueError):
            verify_density_veto(0.3, 0.9, 0.3, 0.4)  # d* = d'
        with pytest.raises(ValueError):
            verify_density_veto(0.05, 0.4, 0.3, 0.4)  # u* = u'
        with pytest.raises(ValueError):
            verify_density_veto(-0.1, 0.9, 0.3, 0.4)

    def test_window_never_empty_on_random_tuples(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d_lo, d_hi = np.sort(rng.uniform(size=2))
            u_lo, u_hi = np.sort(rng.uniform(size=2))
            if d_lo == d_hi or u_lo == u_hi:
                continue
            r = verify_density_veto(d_lo, u_hi, d_hi, u_lo)
            lo, hi = r.additive_weight_window
            assert hi > lo
            assert r.igs_prefers_distractor == (d_lo * u_hi < d_hi * u_lo)
