import math

import numpy as np
import pytest

from wigs.config import ExperimentConfig, MethodSpec
from wigs.data import ColumnMeta, Dataset, SplitState, initial_split
from wigs.geometry import pairwise_distances
from wigs.harness import resolve_dataset, run_replication
from wigs.model import cv_rmse, fold_assignment
from wigs.rng import generator
from wigs.sac import (
    Adam,
    Mlp,
    ReplayBuffer,
    SacAgent,
    SacConfig,
    actor_loss_and_grads,
    build_state,
    critic_loss_and_grads,
    sac_update,
    sample_action,
    state_bytes,
)
from wigs.weights import BanditPolicy

from test_geometry import acquire, cache_of, labeled_targets
from test_model import child_seed


def finite_difference(loss_fn, flat, h=1e-5):
    """Central finite differences over every entry of a flat parameter vector."""
    g = np.zeros_like(flat)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        up = loss_fn()
        flat[j] = orig - h
        down = loss_fn()
        flat[j] = orig
        g[j] = (up - down) / (2.0 * h)
    return g


def assert_grads_close(analytic, numeric, rel=1e-4, abs_tol=1e-7):
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    assert np.all(np.abs(analytic - numeric) <= rel * denom + abs_tol), \
        f"max dev {np.max(np.abs(analytic - numeric))}"


def make_dataset(features, targets):
    features = np.asarray(features, dtype=float)
    meta = tuple(ColumnMeta(f"x{i}", "continuous") for i in range(features.shape[1]))
    return Dataset(features, np.asarray(targets, dtype=float), meta, "test")


def two_point_cache(labeled=(0, 1)):
    """The labeled targets and nearest-labeled distances of a distance row
    over rows x = 0, 1, 5 with targets 0, 2, 9; the rest is pool."""
    ds = make_dataset([[0.0], [1.0], [5.0]], [0.0, 2.0, 9.0])
    pool = [i for i in range(3) if i not in labeled]
    block = cache_of(ds, SplitState(np.array(labeled), np.array(pool), seed=0))
    return labeled_targets(block), block.labeled_nn(0)


class TestMlpForward:
    def test_zero_parameters_zero_output(self):
        net = Mlp([3, 4, 2], generator(0, "sac"))
        net.flat[...] = 0.0
        out, _ = net.forward(np.array([[1.0, -2.0, 3.0]]))
        assert np.array_equal(out, np.zeros((1, 1, 2)))

    def test_hand_computed_identity_net(self):
        net = Mlp([2, 2, 1], generator(0, "sac"))
        net.weights[0][...] = np.eye(2)
        net.biases[0][...] = 0.0
        net.weights[1][...] = np.array([[1.0], [1.0]])
        net.biases[1][...] = 0.0
        out, _ = net.forward(np.array([[1.0, -2.0]]))
        assert out[0, 0, 0] == 1.0  # relu([1, -2]) = [1, 0], summed
        out, _ = net.forward(np.array([[-1.0, 3.0]]))
        assert out[0, 0, 0] == 3.0

    def test_forward_is_pure(self):
        net = Mlp([3, 5, 2], generator(1, "sac"))
        x = np.array([[0.3, -0.7, 1.1]])
        a, _ = net.forward(x)
        b, _ = net.forward(x)
        assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        net = Mlp([3, 5, 2], generator(1, "sac"))
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            net.forward(np.zeros(3))  # one state is a (1, in) batch


class TestStackedMembers:
    def test_two_members_equal_two_single_nets(self):
        rng = np.random.default_rng(15)
        pair = Mlp([6, 8, 8, 1], generator(16, "sac"), members=2)
        singles = [Mlp(pair.sizes, generator(17, "sac")) for _ in range(2)]
        for m, single in enumerate(singles):
            for w, b, sw, sb in zip(pair.weights, pair.biases, single.weights, single.biases):
                sw[0] = w[m]
                sb[0] = b[m]
        x = rng.normal(size=(9, 6))
        v = rng.normal(size=(2, 9, 1))
        out, cache = pair.forward(x)
        grad, grad_in = pair.backward(cache, v)
        grad_w, grad_b = pair.views(grad)
        for m, single in enumerate(singles):
            s_out, s_cache = single.forward(x)
            s_grad, s_grad_in = single.backward(s_cache, v[m:m + 1])
            s_grad_w, s_grad_b = single.views(s_grad)
            assert np.array_equal(out[m], s_out[0])
            assert np.array_equal(grad_in[m], s_grad_in[0])
            for gw, gb, sgw, sgb in zip(grad_w, grad_b, s_grad_w, s_grad_b):
                assert np.array_equal(gw[m], sgw[0])
                assert np.array_equal(gb[m], sgb[0])

    def test_weights_and_biases_are_views_of_flat(self):
        net = Mlp([3, 4, 2], generator(18, "sac"), members=2)
        net.flat[...] = np.arange(net.flat.size)
        assert net.weights[0][1, 0, 0] == net.flat.size // 2  # member 1 starts halfway
        assert net.biases[-1][1, -1] == net.flat.size - 1
        net.weights[1][0] = -1.0
        assert np.count_nonzero(net.flat == -1.0) == 4 * 2


class TestMlpGradients:
    def test_random_nets_match_finite_differences(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            sizes = [int(rng.integers(2, 6)) for _ in range(4)]
            net = Mlp(sizes, generator(int(rng.integers(1000)), "sac"))
            x = rng.normal(size=(7, sizes[0]))
            v = rng.normal(size=(1, 7, sizes[-1]))  # fixed projection -> scalar loss

            def loss():
                out, _ = net.forward(x)
                return float((out * v).sum())

            out, cache = net.forward(x)
            analytic, _ = net.backward(cache, v)
            numeric = finite_difference(loss, net.flat)
            assert_grads_close(analytic, numeric)

    def test_dead_relu_units_get_zero_gradient(self):
        net = Mlp([1, 2, 1], generator(3, "sac"))
        net.weights[0][...] = np.array([[1.0, 1.0]])
        net.biases[0][...] = np.array([0.5, -10.0])  # second unit dead for x=1
        net.weights[1][...] = np.array([[1.0], [1.0]])
        net.biases[1][...] = 0.0
        out, cache = net.forward(np.array([[1.0]]))
        grad, _ = net.backward(cache, np.ones((1, 1, 1)))
        grad_w, grad_b = net.views(grad)
        g_w1, g_b1 = grad_w[0][0], grad_b[0][0]
        assert g_w1[0, 1] == 0.0 and g_b1[1] == 0.0
        assert g_w1[0, 0] != 0.0

    def test_linear_net_matches_analytic_formula(self):
        rng = np.random.default_rng(4)
        net = Mlp([3, 1], generator(5, "sac"))
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        out, cache = net.forward(X)
        diff = out[0, :, 0] - y
        grad, _ = net.backward(cache, (2.0 / 10) * diff[None, :, None])
        grad_w, grad_b = net.views(grad)
        expected_w = (2.0 / 10) * X.T @ diff  # closed-form least-squares gradient
        expected_b = (2.0 / 10) * diff.sum()
        assert np.allclose(grad_w[0][0, :, 0], expected_w, atol=1e-12)
        assert np.allclose(grad_b[0][0, 0], expected_b, atol=1e-12)

    def test_input_gradient_flows(self):
        net = Mlp([2, 3, 1], generator(6, "sac"))
        x = np.array([[0.4, -0.2]])

        def loss():
            out, _ = net.forward(x)
            return float(out.sum())

        _, cache = net.forward(x)
        _, grad_in = net.backward(cache, np.ones((1, 1, 1)))
        h = 1e-6
        for j in range(2):
            x[0, j] += h
            up = loss()
            x[0, j] -= 2 * h
            down = loss()
            x[0, j] += h
            assert grad_in[0, 0, j] == pytest.approx((up - down) / (2 * h), abs=1e-6)


class TestLossGradients:
    def test_critic_loss_gradcheck(self):
        rng = np.random.default_rng(11)
        critic = Mlp([6, 8, 8, 1], generator(7, "sac"), members=2)
        S = rng.normal(size=(9, 5))
        A = rng.uniform(size=9)
        y = rng.normal(size=9)

        def loss():
            return sum(critic_loss_and_grads(critic, S, A, y)[0])

        _, analytic = critic_loss_and_grads(critic, S, A, y)
        numeric = finite_difference(loss, critic.flat)
        assert_grads_close(analytic, numeric)

    def test_actor_loss_gradcheck(self):
        rng = np.random.default_rng(12)
        config = SacConfig(hidden=8)
        agent = SacAgent(config, generator(8, "sac"))
        S = rng.normal(size=(6, 5))
        eps = rng.normal(size=6)

        def loss():
            return actor_loss_and_grads(agent, S, eps)[0]

        _, analytic = actor_loss_and_grads(agent, S, eps)
        numeric = finite_difference(loss, agent.actor.flat)
        assert_grads_close(analytic, numeric)


class TestPolicy:
    def test_deterministic_center(self):
        agent = SacAgent(SacConfig(hidden=8), generator(9, "sac"))
        agent.actor.weights[-1][...] = 0.0
        agent.actor.biases[-1][...] = 0.0  # mu = 0 -> tanh(0) -> midpoint
        a, _ = sample_action(agent, np.zeros(5), deterministic=True)
        assert a == 0.5

    def test_actions_bounded(self):
        agent = SacAgent(SacConfig(hidden=8), generator(10, "sac"))
        rng = generator(11, "sac")
        state = np.array([1.0, 0.5, 0.0, 1.0, 0.3])
        actions = np.array([sample_action(agent, state, rng)[0] for _ in range(10_000)])
        assert actions.min() >= 0.0 and actions.max() <= 1.0

    def test_log_prob_matches_quadrature_oracle(self):
        agent = SacAgent(SacConfig(hidden=8), generator(13, "sac"))
        state = np.array([0.2, -0.1, 0.4, 1.0, 0.8])
        from wigs.sac import _actor_heads, _squash
        mu, log_std, _, _ = _actor_heads(agent, state[None, :])
        mu, sigma = float(mu[0]), float(math.exp(log_std[0]))

        def normal_cdf(x):
            return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))

        h = 1e-6
        for a in np.linspace(0.1, 0.9, 9):
            z_hi = math.atanh(2.0 * (a + h / 2) - 1.0)
            z_lo = math.atanh(2.0 * (a - h / 2) - 1.0)
            density = (normal_cdf(z_hi) - normal_cdf(z_lo)) / h
            eps = (math.atanh(2.0 * a - 1.0) - mu) / sigma  # the noise that lands on a
            _, _, hit, log_prob = _squash(np.array([mu]), np.array([sigma]), np.array([eps]))
            assert hit[0] == pytest.approx(a, abs=1e-12)
            assert log_prob[0] == pytest.approx(math.log(density), abs=1e-3)

    def test_stochastic_needs_rng(self):
        agent = SacAgent(SacConfig(hidden=8), generator(14, "sac"))
        with pytest.raises(ValueError):
            sample_action(agent, np.zeros(5))


class TestBuildState:
    def test_start_of_run(self):
        s = build_state(2.0, 2.0, 0, 50, *two_point_cache())
        assert s[0] == 1.0 and s[1] == 0.0

    def test_two_points_at_unit_distance(self):
        s = build_state(1.0, 1.0, 5, 50, *two_point_cache())
        assert s[4] == 1.0

    def test_target_moments(self):
        s = build_state(1.0, 1.0, 5, 50, *two_point_cache())
        assert s[2] == 1.0 and s[3] == 1.0  # mean, population std

    def test_guards(self):
        with pytest.raises(ValueError):
            build_state(1.0, 0.0, 0, 10, *two_point_cache())
        with pytest.raises(ValueError):
            build_state(1.0, 1.0, 0, 10, *two_point_cache(labeled=(0,)))

    @pytest.mark.parametrize("p", [1, 3, 20])
    def test_equals_direct_formula_after_acquisitions(self, p):
        # the direct formula on X[labeled], as the state was computed before it read dx
        def direct(cv_now, cv_initial, t, horizon, targets, features):
            dist = pairwise_distances(features, features)
            np.fill_diagonal(dist, np.inf)
            return np.array([cv_now / cv_initial, t / horizon, targets.mean(),
                             targets.std(), dist.min(axis=1).mean()])

        rng = np.random.default_rng(40 + p)
        ds = make_dataset(rng.normal(size=(30, p)), rng.normal(size=30))
        order = rng.permutation(30)
        labeled, pool = list(order[:3]), list(order[3:])
        split = SplitState(np.array(labeled), np.array(pool), seed=0)
        cache = cache_of(ds, split)
        for t in range(6):
            pos = int(rng.integers(len(pool)))
            labeled.append(pool.pop(pos))
            acquire(cache, pos)
            expected = direct(0.7, 1.3, t, 6, ds.targets[labeled], ds.features[labeled])
            state = build_state(0.7, 1.3, t, 6, labeled_targets(cache), cache.labeled_nn(0))
            assert np.array_equal(state, expected)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3, state_dim=2)
        for i in range(4):
            buf.push(np.full(2, float(i)), 0.5, float(i), np.zeros(2))
        assert len(buf) == 3
        assert buf.insertions == 4
        assert 0.0 not in buf.rewards  # oldest evicted

    def test_sampling_deterministic(self):
        buf = ReplayBuffer(capacity=10, state_dim=2)
        for i in range(6):
            buf.push(np.full(2, float(i)), 0.1, float(i), np.zeros(2))
        a = buf.sample(4, generator(1, "sac"))
        b = buf.sample(4, generator(1, "sac"))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def fill_buffer(buf, rng, n, state_dim=5):
    for _ in range(n):
        buf.push(rng.normal(size=state_dim), float(rng.uniform()),
                 float(rng.normal()), rng.normal(size=state_dim))


class TestStateBytes:
    @pytest.mark.parametrize("hidden", [8, 64])
    def test_counts_every_net_and_adam_moment(self, hidden):
        config = SacConfig(hidden=hidden, buffer_capacity=50)
        agent = SacAgent(config, np.random.default_rng(0))
        arrays = (agent.actor.flat, agent.critic.flat, agent.target.flat,
                  agent.opt_actor.m, agent.opt_actor.v, *agent.opt_actor.scratch,
                  agent.opt_critic.m, agent.opt_critic.v, *agent.opt_critic.scratch)
        assert state_bytes(config, 0) == sum(a.nbytes for a in arrays)

    def test_counts_the_written_replay_rows_up_to_capacity(self):
        config = SacConfig(hidden=8, buffer_capacity=50)
        buffer = ReplayBuffer(config.buffer_capacity, config.state_dim)
        full = sum(a.nbytes for a in (buffer.states, buffer.actions, buffer.rewards,
                                      buffer.next_states))
        assert state_bytes(config, 10) - state_bytes(config, 0) == full // 5
        assert state_bytes(config, 10_000) - state_bytes(config, 0) == full


class TestSacUpdate:
    def test_noop_below_batch_size(self):
        config = SacConfig(hidden=8, batch_size=16)
        agent = SacAgent(config, generator(20, "sac"))
        buf = ReplayBuffer(100, 5)
        fill_buffer(buf, np.random.default_rng(0), 10)
        before = agent.actor.flat.copy()
        diag = sac_update(agent, buf, generator(21, "sac"))
        assert diag["updated"] is False
        assert np.array_equal(before, agent.actor.flat)

    def test_tau_one_copies_targets(self):
        config = SacConfig(hidden=8, batch_size=8, tau=1.0)
        agent = SacAgent(config, generator(22, "sac"))
        buf = ReplayBuffer(100, 5)
        fill_buffer(buf, np.random.default_rng(1), 20)
        diag = sac_update(agent, buf, generator(23, "sac"))
        assert diag["updated"] is True
        assert np.array_equal(agent.target.flat, agent.critic.flat)

    def test_gamma_zero_critic_regresses_to_rewards(self):
        config = SacConfig(hidden=16, batch_size=4, gamma=0.0, lr=3e-3)
        agent = SacAgent(config, generator(24, "sac"))
        buf = ReplayBuffer(100, 5)
        rng_data = np.random.default_rng(2)
        states = rng_data.normal(size=(4, 5))
        actions = rng_data.uniform(size=4)
        rewards = np.array([0.5, -0.3, 0.1, 0.8])
        for i in range(4):
            buf.push(states[i], actions[i], rewards[i], states[i])
        rng = generator(25, "sac")
        for _ in range(2000):
            sac_update(agent, buf, rng)
        x = np.hstack([states, actions[:, None]])
        q, _ = agent.critic.forward(x)
        mse = float(np.mean((q[0, :, 0] - rewards) ** 2))
        assert mse < 1e-3

    def test_bitwise_deterministic_trajectories(self):
        def run():
            agent = SacAgent(SacConfig(hidden=8, batch_size=8), generator(26, "sac"))
            buf = ReplayBuffer(100, 5)
            fill_buffer(buf, np.random.default_rng(3), 20)
            rng = generator(27, "sac")
            for _ in range(30):
                sac_update(agent, buf, rng)
            return [net.flat.copy() for net in (agent.actor, agent.critic, agent.target)]

        a, b = run(), run()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_targets_track_frozen_critics(self):
        config = SacConfig(hidden=8)
        agent = SacAgent(config, generator(28, "sac"))
        # push targets away, then apply soft updates with critics frozen
        agent.target.flat += 1.0
        def gap():
            return float(np.abs(agent.target.flat - agent.critic.flat).sum())
        gaps = [gap()]
        for _ in range(10):
            agent.target.flat *= 1.0 - config.tau
            agent.target.flat += config.tau * agent.critic.flat
            gaps.append(gap())
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == pytest.approx(gaps[0] * (1 - config.tau) ** 10, rel=1e-9)


class TestLeanUpdateBits:
    """The update's skipped gradients and Adam's scratch vectors change no bit."""

    @pytest.mark.parametrize("members", [1, 2])
    def test_skipped_gradients_leave_the_other_one(self, members):
        rng = np.random.default_rng(40 + members)
        net = Mlp([6, 16, 16, 2], generator(41, "sac"), members=members)
        _, cache = net.forward(rng.normal(size=(12, 6)))
        grad_out = rng.normal(size=(members, 12, 2))
        grad, grad_in = net.backward(cache, grad_out)
        params_only, none_in = net.backward(cache, grad_out, inputs=False)
        none_params, inputs_only = net.backward(cache, grad_out, params=False)
        assert none_in is None and none_params is None
        assert params_only.tobytes() == grad.tobytes()
        assert inputs_only.tobytes() == grad_in.tobytes()

    def test_adam_step_matches_its_expressions(self):
        """The old temporaries-per-step body is the oracle, over 200 steps."""
        rng = np.random.default_rng(42)
        params = rng.normal(size=300)
        want = params.copy()
        opt = Adam(params, 3e-4, 0.9, 0.999, 1e-8)
        m = np.zeros_like(want)
        v = np.zeros_like(want)
        for t in range(1, 201):
            grad = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=300)
            opt.step(params, grad)
            correct1 = 1.0 - 0.9 ** t
            correct2 = 1.0 - 0.999 ** t
            m *= 0.9
            m += (1.0 - 0.9) * grad
            v *= 0.999
            v += (1.0 - 0.999) * grad * grad
            want -= 3e-4 * (m / correct1) / (np.sqrt(v / correct2) + 1e-8)
            assert params.tobytes() == want.tobytes()
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()


def test_agent_construction_draws_five_networks_in_order():
    """Building the agent draws the actor, both critics and both targets, in that order."""
    config = SacConfig(hidden=8)
    rng = generator(29, "sac")
    agent = SacAgent(config, rng)
    reference = generator(29, "sac")
    draws = []
    for sizes in [[5, 8, 8, 2]] + [[6, 8, 8, 1]] * 4:
        net = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            net.append(reference.uniform(-bound, bound, size=(fan_in, fan_out)))
            net.append(reference.uniform(-bound, bound, size=fan_out))
        draws.append(np.concatenate([d.ravel() for d in net]))
    assert rng.bit_generator.state == reference.bit_generator.state
    assert np.array_equal(agent.actor.flat, draws[0])
    assert np.array_equal(agent.critic.flat, np.concatenate(draws[1:3]))
    assert np.array_equal(agent.target.flat, agent.critic.flat)  # target draws are discarded


def test_agent_reward(monkeypatch):
    """The controller's reward is the drop in CV RMSE between iterations."""
    rewards = []
    step = BanditPolicy.step

    def spy(self, t, horizon, reward=None, context=None):
        rewards.append(reward)
        return step(self, t, horizon, reward, context)

    monkeypatch.setattr(BanditPolicy, "step", spy)
    dataset = resolve_dataset(ExperimentConfig(dgp="two_regime", n=60, dataset_seed=1,
                                               methods=(MethodSpec("igs", "igs"),)))
    trace = run_replication(dataset, MethodSpec("mab", "wigs_mab"), seed=4)
    X, y = dataset.features, dataset.targets
    labeled = list(initial_split(dataset, 0.05, 4).labeled_idx)
    cv = []
    for t in range(6):
        folds = fold_assignment(len(labeled), 5, generator(child_seed(4, "cv", t), "cv"))
        cv.append(cv_rmse(X[labeled], y[labeled], 0.01, folds))
        labeled.append(int(trace.acquired_idx[t + 1]))
    assert rewards[0] is None  # no drop before two CV values exist
    assert rewards[1:6] == [cv[t - 1] - cv[t] for t in range(1, 6)]
