"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.  Run with ``pytest -s`` to see
the lines as they complete."""

import itertools
import math
import time

import numpy as np
import pytest

from wigs.cli import main as cli_main
from wigs.config import ExperimentConfig, MethodSpec, default_methods
from wigs.geometry import normalize_phi
from wigs.harness import resolve_dataset, run_block, run_experiment
from wigs.metrics import relative_auc, wilcoxon_signed_rank
from wigs.model import fit_bootstrap_committee, fit_ridge
from wigs.rng import generator
from wigs.sac import (
    ReplayBuffer,
    SacAgent,
    SacConfig,
    actor_loss_and_grads,
    critic_loss_and_grads,
    sac_update,
    sample_action,
)
from wigs.selectors import (
    emcm_scores,
    igs_scores,
    qbc_scores,
    uncertainty_scores,
    veto_demo,
    wigs_scores,
)
from wigs.weights import BanditPolicy
from wigs.data import ColumnMeta, Dataset, SplitState

from test_geometry import cache_of
from test_model import counts_of, oracle_committee


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}  {detail}")


def make_dataset(features, targets):
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        features = features[:, None]
    meta = tuple(ColumnMeta(f"x{i}", "continuous") for i in range(features.shape[1]))
    return Dataset(features, np.asarray(targets, dtype=float), meta, "acceptance")


def test_criterion_01_density_veto():
    start = time.perf_counter()
    text, ok = veto_demo()
    cli_ok = cli_main(["veto-demo"]) == 0
    elapsed = time.perf_counter() - start
    good = ok and cli_ok and elapsed < 1.0
    report_line(1, "density veto construction", good,
                f"1000 random tuples, {elapsed:.2f}s")
    assert good, text


def test_criterion_02_selector_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2001)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(12, 41))
        p = int(rng.integers(1, 4))
        ds = make_dataset(rng.normal(size=(n, p)), rng.normal(size=n))
        order = rng.permutation(n)
        k = int(rng.integers(3, 6))
        split = SplitState(order[:k], order[k:], seed=0)
        X, y = ds.features, ds.targets
        labeled_idx, pool_idx = split.labeled_idx, split.pool_idx
        fits = fit_ridge(X[labeled_idx], y[labeled_idx], 0.01)  # a block of one row
        coef, intercept = fits.coefficients[0], fits.intercepts[0]
        means, gram_inverse = fits.feature_means[0], fits.gram_inverse[0]
        sigma2 = fits.sigma2_hat[0]
        preds = X[pool_idx] @ coef + intercept
        cache = cache_of(ds, split, preds)
        committee = fit_bootstrap_committee(X[labeled_idx], y[labeled_idx],
                                            0.01, counts_of(len(labeled_idx), 5, 7))
        coefs, intercepts = oracle_committee(X[labeled_idx], y[labeled_idx],
                                             0.01, B=5, seed=7)
        phi_x = normalize_phi(cache.dx_pair)
        phi_y = normalize_phi(cache.dy_pair)
        w = float(rng.uniform())
        pool_X = X[pool_idx]

        brute_gsx, brute_gsy, brute_igs, brute_wigs = [], [], [], []
        brute_unc, brute_qbc, brute_emcm = [], [], []
        for pos, i in enumerate(pool_idx):
            dx = [float(np.linalg.norm(X[i] - X[m])) for m in labeled_idx]
            dy = [abs(preds[pos] - y[m]) for m in labeled_idx]
            brute_gsx.append(min(dx))
            brute_gsy.append(min(dy))
            brute_igs.append(min(a * b for a, b in zip(dx, dy)))
            brute_wigs.append(min(w * phi_x[pos, m] + (1 - w) * phi_y[pos, m]
                                  for m in range(k)))
            xc = X[i] - means
            brute_unc.append(sigma2 * float(xc @ gram_inverse @ xc))
            member_preds = [X[i] @ c + b for c, b in zip(coefs, intercepts)]
            brute_qbc.append(float(np.var(member_preds)))
            x_tilde = np.append(xc, 1.0)
            f = X[i] @ coef + intercept
            brute_emcm.append(float(np.mean(
                [np.linalg.norm((f - mp) * x_tilde) for mp in member_preds])))

        checks = [
            (cache.dx_min, brute_gsx),
            (cache.dy_min, brute_gsy),
            (igs_scores(cache.dx_pair, cache.dy_pair), brute_igs),
            (wigs_scores(phi_x, phi_y, w), brute_wigs),
            (uncertainty_scores(pool_X, means, gram_inverse, sigma2), brute_unc),
            (qbc_scores(pool_X, *committee), brute_qbc),
            (emcm_scores(pool_X, preds, means, *committee), brute_emcm),
        ]
        for got, expected in checks:
            worst = max(worst, float(np.max(np.abs(got - np.array(expected)))))
    elapsed = time.perf_counter() - start
    good = worst <= 1e-12 and elapsed < 10.0
    report_line(2, "selector scores vs brute force", good,
                f"30 instances, max dev {worst:.2e}, {elapsed:.2f}s")
    assert good


def _finite_difference(loss_fn, params, h=1e-5):
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = loss_fn()
            p[idx] = orig - h
            down = loss_fn()
            p[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def _max_rel_dev(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def test_criterion_03_gradient_correctness():
    start = time.perf_counter()
    worst = 0.0
    for round_idx in range(5):
        seed = 3000 + round_idx
        rng = np.random.default_rng(seed)
        config = SacConfig(hidden=int(rng.integers(5, 10)))
        agent = SacAgent(config, generator(seed, "sac"))
        S = rng.normal(size=(6, 5))
        A = rng.uniform(size=6)
        y = rng.normal(size=6)
        eps = rng.normal(size=6)

        # both critic members at once: the flat gradient is that of the summed losses
        _, analytic = critic_loss_and_grads(agent.critic, S, A, y)
        numeric = _finite_difference(
            lambda: sum(critic_loss_and_grads(agent.critic, S, A, y)[0]),
            [agent.critic.flat])
        worst = max(worst, _max_rel_dev([analytic], numeric))

        _, analytic = actor_loss_and_grads(agent, S, eps)
        numeric = _finite_difference(
            lambda: actor_loss_and_grads(agent, S, eps)[0],
            [agent.actor.flat])
        worst = max(worst, _max_rel_dev([analytic], numeric))
    elapsed = time.perf_counter() - start
    good = worst <= 1e-4 and elapsed < 30.0
    report_line(3, "network gradients vs finite differences", good,
                f"5 nets, max rel dev {worst:.2e}, {elapsed:.1f}s")
    assert good


def test_criterion_04_weight_extremes_match_pure_strategies():
    start = time.perf_counter()
    config = ExperimentConfig(dgp="two_regime", n=200, dataset_seed=7,
                              methods=(MethodSpec("igs", "igs"),))
    dataset = resolve_dataset(config)
    seeds = (11, 12, 13)
    specs = (MethodSpec("gsx", "gsx"), MethodSpec("w1", "wigs_static", {"w": 1.0}),
             MethodSpec("gsy", "gsy"), MethodSpec("w0", "wigs_static", {"w": 0.0}))
    traces = run_block(dataset, [(spec, seed) for spec in specs for seed in seeds])
    gsx, w1, gsy, w0 = (traces[i:i + len(seeds)] for i in range(0, len(traces), len(seeds)))
    ok = True
    for r in range(len(seeds)):
        ok = ok and np.array_equal(gsx[r].acquired_idx, w1[r].acquired_idx)
        ok = ok and np.array_equal(gsy[r].acquired_idx, w0[r].acquired_idx)
    elapsed = time.perf_counter() - start
    good = ok and elapsed < 60.0
    report_line(4, "weight 1/0 matches pure feature/output greedy", good,
                f"N=200, 3 seeds, {elapsed:.1f}s")
    assert good


def test_criterion_05_directional_reproduction_two_regime():
    start = time.perf_counter()
    config = ExperimentConfig(dgp="two_regime", n=400, dataset_seed=0,
                              methods=(MethodSpec("igs", "igs"),))
    dataset = resolve_dataset(config)
    seeds = range(0, 10)
    specs = {
        "igs": MethodSpec("igs", "igs"),
        "w075": MethodSpec("w075", "wigs_static", {"w": 0.75}),
        "w025": MethodSpec("w025", "wigs_static", {"w": 0.25}),
    }
    block = run_block(dataset, [(spec, seed) for spec in specs.values() for seed in seeds])
    traces = {name: {trace.seed: trace for trace in block if trace.method == name}
              for name in specs}
    rel075 = float(np.mean([relative_auc(traces["w075"][s].rmse,
                                         traces["igs"][s].rmse) for s in seeds]))
    rel025 = float(np.mean([relative_auc(traces["w025"][s].rmse,
                                         traces["igs"][s].rmse) for s in seeds]))
    p_value = wilcoxon_signed_rank(
        np.array([traces["w075"][s].rmse.mean() for s in seeds]),
        np.array([traces["igs"][s].rmse.mean() for s in seeds]))
    elapsed = time.perf_counter() - start
    good = rel075 < 1.0 and rel025 > rel075 and p_value < 0.05 and elapsed < 900.0
    report_line(5, "exploration-heavy static weight beats the product rule", good,
                f"rel AUC w=0.75: {rel075:.3f}, w=0.25: {rel025:.3f}, "
                f"p={p_value:.4f}, {elapsed:.1f}s")
    assert good


def test_criterion_06_exhaustion_invariant_all_methods(tmp_path):
    start = time.perf_counter()
    config = ExperimentConfig(
        dgp="two_regime", n=150, dataset_seed=3,
        methods=default_methods(), replications=5, base_seed=500,
        parallelism=1, out_dir=str(tmp_path / "exhaustion"))
    record = run_experiment(config)
    finals = {(tr.method, tr.seed): float(tr.rmse[-1]) for tr in record.traces}
    n_expected = 14 * 5
    good = (len(record.traces) == n_expected
            and not record.errors
            and all(v == 0.0 for v in finals.values()))
    elapsed = time.perf_counter() - start
    good = good and elapsed < 600.0
    report_line(6, "every trace ends at exactly zero full-pool RMSE", good,
                f"{len(record.traces)} traces, {elapsed:.1f}s")
    assert good


def test_criterion_07_bandit_stationary_convergence():
    start = time.perf_counter()
    arm_means = np.array([0.1, 0.3, 0.2])
    arm_std = 0.1  # distributions stated with variance 0.01
    freqs = []
    for seed in range(10):
        rng = generator(seed, "dgp")
        policy = BanditPolicy(c_explore=2.0)
        picks = []
        reward = None
        for t in range(1000):
            policy.step(t, 1000, reward)
            arm = policy.arm
            picks.append(arm)
            reward = float(arm_means[arm] + arm_std * rng.standard_normal())
        picks = np.array(picks)
        freqs.append(float(np.mean(picks[100:1000] == 1)))
    elapsed = time.perf_counter() - start
    good = min(freqs) > 0.8 and elapsed < 5.0
    report_line(7, "UCB1 best-arm frequency in stationary test", good,
                f"c=2.0, min freq {min(freqs):.3f}, mean {np.mean(freqs):.3f}, "
                f"{elapsed:.1f}s")
    assert good, (
        "UCB1 with bonus c*sqrt(ln n / n_i) at c=2.0 keeps exploring at this "
        "horizon; measured frequency is far below the stated 0.8 threshold "
        "(it exceeds 0.8 only for c around 0.5)")


def test_criterion_08_sac_control_sanity():
    start = time.perf_counter()
    devs = []
    for seed in (0, 1, 2):
        config = SacConfig()
        agent = SacAgent(config, generator(seed, "sac"))
        buf = ReplayBuffer(config.buffer_capacity, config.state_dim)
        rng = generator(seed + 1, "sac")
        state = np.zeros(config.state_dim)
        for _ in range(config.batch_size):  # fill one batch before updates
            a, _ = sample_action(agent, state, rng)
            buf.push(state, a, 1.0 - abs(a - 0.75), state)
        for _ in range(5000):
            a, _ = sample_action(agent, state, rng)
            buf.push(state, a, 1.0 - abs(a - 0.75), state)
            sac_update(agent, buf, rng)
        det, _ = sample_action(agent, state, deterministic=True)
        devs.append(abs(det - 0.75))
    elapsed = time.perf_counter() - start
    good = max(devs) < 0.1 and elapsed < 120.0
    report_line(8, "actor-critic converges on synthetic reward peak", good,
                f"max |a - 0.75| = {max(devs):.3f} over 3 seeds, {elapsed:.1f}s")
    assert good


def test_criterion_09_signed_rank_statistics():
    start = time.perf_counter()
    p = wilcoxon_signed_rank(np.array([2.0, 3.0, 4.0]), np.array([1.0, 1.0, 1.0]))
    exact_ok = p == 0.25

    def enumeration_oracle(diffs):
        diffs = diffs[diffs != 0]
        n = len(diffs)
        if n == 0:
            return 1.0
        mags = np.abs(diffs)
        ranks = np.array([np.sum(mags < m) + (np.sum(mags == m) + 1) / 2.0 for m in mags])
        w_obs = ranks[diffs > 0].sum()
        values = np.array([sum(r for s, r in zip(signs, ranks) if s)
                           for signs in itertools.product((0, 1), repeat=n)])
        p_low = np.mean(values <= w_obs + 1e-12)
        p_high = np.mean(values >= w_obs - 1e-12)
        return min(1.0, 2.0 * min(p_low, p_high))

    rng = np.random.default_rng(9001)
    match = True
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d = rng.integers(-5, 6, size=n).astype(float)
        a = rng.integers(-10, 11, size=n).astype(float)
        b = a - d
        match = match and math.isclose(
            wilcoxon_signed_rank(a, b), enumeration_oracle(d), abs_tol=1e-12)
    elapsed = time.perf_counter() - start
    good = exact_ok and match and elapsed < 5.0
    report_line(9, "signed-rank exact mode matches enumeration", good,
                f"100 cases n<=8, p({{1,2,3}})={p}, {elapsed:.1f}s")
    assert good


def test_criterion_10_scheduling_determinism(tmp_path):
    start = time.perf_counter()
    config_text = """
dataset:
  dgp: two_regime
  n: 60
  seed: 2
run:
  replications: 4
  base_seed: 300
  out_dir: {out}
methods:
  - name: igs
    kind: igs
  - name: wigs_mab
    kind: wigs_mab
"""
    path1 = tmp_path / "serial.yaml"
    path1.write_text(config_text.format(out=tmp_path / "serial"))
    path8 = tmp_path / "parallel.yaml"
    path8.write_text(config_text.format(out=tmp_path / "parallel"))
    assert cli_main(["run", "--config", str(path1), "--parallel", "1"]) == 0
    assert cli_main(["run", "--config", str(path8), "--parallel", "8"]) == 0
    serial = (tmp_path / "serial" / "traces.csv").read_bytes()
    parallel = (tmp_path / "parallel" / "traces.csv").read_bytes()
    elapsed = time.perf_counter() - start
    good = serial == parallel and len(serial) > 0 and elapsed < 300.0
    report_line(10, "parallel scheduling leaves sorted rows byte-identical", good,
                f"2 methods x 4 seeds, {len(serial)} bytes, {elapsed:.1f}s")
    assert good
