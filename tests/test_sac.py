import math

import numpy as np
import pytest

from wigs.config import ExperimentConfig, MethodSpec
from wigs.data import initial_split
from wigs.harness import resolve_dataset, run_replication
from wigs.model import cv_rmse
from wigs.rng import child_seed, generator
from wigs.sac import (
    Mlp,
    ReplayBuffer,
    SacAgent,
    SacConfig,
    Transition,
    actor_loss_and_grads,
    build_state,
    critic_loss_and_grads,
    sac_update,
    sample_action,
)
from wigs.weights import BanditPolicy


def finite_difference(loss_fn, params, h=1e-5):
    """Central finite differences over every entry of every parameter array."""
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


def assert_grads_close(analytic, numeric, rel=1e-4, abs_tol=1e-7):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a), np.abs(n))
        assert np.all(np.abs(a - n) <= rel * denom + abs_tol), \
            f"max dev {np.max(np.abs(a - n))}"


class TestMlpForward:
    def test_zero_parameters_zero_output(self):
        net = Mlp([3, 4, 2], generator(0, "sac"))
        for p in net.params():
            p[...] = 0.0
        out, _ = net.forward(np.array([1.0, -2.0, 3.0]))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_hand_computed_identity_net(self):
        net = Mlp([2, 2, 1], generator(0, "sac"))
        net.weights[0][...] = np.eye(2)
        net.biases[0][...] = 0.0
        net.weights[1][...] = np.array([[1.0], [1.0]])
        net.biases[1][...] = 0.0
        out, _ = net.forward(np.array([1.0, -2.0]))
        assert out[0, 0] == 1.0  # relu([1, -2]) = [1, 0], summed
        out, _ = net.forward(np.array([-1.0, 3.0]))
        assert out[0, 0] == 3.0

    def test_forward_is_pure(self):
        net = Mlp([3, 5, 2], generator(1, "sac"))
        x = np.array([0.3, -0.7, 1.1])
        a, _ = net.forward(x)
        b, _ = net.forward(x)
        assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        net = Mlp([3, 5, 2], generator(1, "sac"))
        with pytest.raises(ValueError):
            net.forward(np.zeros(4))


class TestMlpGradients:
    def test_random_nets_match_finite_differences(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            sizes = [int(rng.integers(2, 6)) for _ in range(4)]
            net = Mlp(sizes, generator(int(rng.integers(1000)), "sac"))
            x = rng.normal(size=(7, sizes[0]))
            v = rng.normal(size=(7, sizes[-1]))  # fixed projection -> scalar loss

            def loss():
                out, _ = net.forward(x)
                return float((out * v).sum())

            out, cache = net.forward(x)
            analytic, _ = net.backward(cache, v)
            numeric = finite_difference(loss, net.params())
            assert_grads_close(analytic, numeric)

    def test_dead_relu_units_get_zero_gradient(self):
        net = Mlp([1, 2, 1], generator(3, "sac"))
        net.weights[0][...] = np.array([[1.0, 1.0]])
        net.biases[0][...] = np.array([0.5, -10.0])  # second unit dead for x=1
        net.weights[1][...] = np.array([[1.0], [1.0]])
        net.biases[1][...] = 0.0
        out, cache = net.forward(np.array([1.0]))
        grads, _ = net.backward(cache, np.ones((1, 1)))
        g_w1, g_b1 = grads[0], grads[1]
        assert g_w1[0, 1] == 0.0 and g_b1[1] == 0.0
        assert g_w1[0, 0] != 0.0

    def test_linear_net_matches_analytic_formula(self):
        rng = np.random.default_rng(4)
        net = Mlp([3, 1], generator(5, "sac"))
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        out, cache = net.forward(X)
        diff = out[:, 0] - y
        grads, _ = net.backward(cache, (2.0 / 10) * diff[:, None])
        expected_w = (2.0 / 10) * X.T @ diff  # closed-form least-squares gradient
        expected_b = (2.0 / 10) * diff.sum()
        assert np.allclose(grads[0][:, 0], expected_w, atol=1e-12)
        assert np.allclose(grads[1][0], expected_b, atol=1e-12)

    def test_input_gradient_flows(self):
        net = Mlp([2, 3, 1], generator(6, "sac"))
        x = np.array([[0.4, -0.2]])

        def loss():
            out, _ = net.forward(x)
            return float(out.sum())

        _, cache = net.forward(x)
        _, grad_in = net.backward(cache, np.ones((1, 1)))
        h = 1e-6
        for j in range(2):
            x[0, j] += h
            up = loss()
            x[0, j] -= 2 * h
            down = loss()
            x[0, j] += h
            assert grad_in[0, j] == pytest.approx((up - down) / (2 * h), abs=1e-6)


class TestLossGradients:
    def test_critic_loss_gradcheck(self):
        rng = np.random.default_rng(11)
        critic = Mlp([6, 8, 8, 1], generator(7, "sac"))
        S = rng.normal(size=(9, 5))
        A = rng.uniform(size=9)
        y = rng.normal(size=9)

        def loss():
            return critic_loss_and_grads(critic, S, A, y)[0]

        _, analytic = critic_loss_and_grads(critic, S, A, y)
        numeric = finite_difference(loss, critic.params())
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
        numeric = finite_difference(loss, agent.actor.params())
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
        s = build_state(2.0, 2.0, 0, 50, np.array([0.0, 2.0]),
                        np.array([[0.0], [1.0]]))
        assert s[0] == 1.0 and s[1] == 0.0

    def test_two_points_at_unit_distance(self):
        s = build_state(1.0, 1.0, 5, 50, np.array([0.0, 2.0]),
                        np.array([[0.0], [1.0]]))
        assert s[4] == 1.0

    def test_target_moments(self):
        s = build_state(1.0, 1.0, 5, 50, np.array([0.0, 2.0]),
                        np.array([[0.0], [1.0]]))
        assert s[2] == 1.0 and s[3] == 1.0  # mean, population std

    def test_guards(self):
        with pytest.raises(ValueError):
            build_state(1.0, 0.0, 0, 10, np.array([0.0, 1.0]), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            build_state(1.0, 1.0, 0, 10, np.array([0.0]), np.zeros((1, 1)))


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3, state_dim=2)
        for i in range(4):
            buf.push(Transition(np.full(2, float(i)), 0.5, float(i), np.zeros(2)))
        assert len(buf) == 3
        assert buf.insertions == 4
        assert 0.0 not in buf.rewards  # oldest evicted

    def test_sampling_deterministic(self):
        buf = ReplayBuffer(capacity=10, state_dim=2)
        for i in range(6):
            buf.push(Transition(np.full(2, float(i)), 0.1, float(i), np.zeros(2)))
        a = buf.sample(4, generator(1, "sac"))
        b = buf.sample(4, generator(1, "sac"))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def fill_buffer(buf, rng, n, state_dim=5):
    for _ in range(n):
        buf.push(Transition(rng.normal(size=state_dim), float(rng.uniform()),
                            float(rng.normal()), rng.normal(size=state_dim)))


class TestSacUpdate:
    def test_noop_below_batch_size(self):
        config = SacConfig(hidden=8, batch_size=16)
        agent = SacAgent(config, generator(20, "sac"))
        buf = ReplayBuffer(100, 5)
        fill_buffer(buf, np.random.default_rng(0), 10)
        before = [p.copy() for p in agent.actor.params()]
        diag = sac_update(agent, buf, generator(21, "sac"))
        assert diag["updated"] is False
        assert all(np.array_equal(a, b) for a, b in zip(before, agent.actor.params()))

    def test_tau_one_copies_targets(self):
        config = SacConfig(hidden=8, batch_size=8, tau=1.0)
        agent = SacAgent(config, generator(22, "sac"))
        buf = ReplayBuffer(100, 5)
        fill_buffer(buf, np.random.default_rng(1), 20)
        diag = sac_update(agent, buf, generator(23, "sac"))
        assert diag["updated"] is True
        for tp, cp in zip(agent.target1.params(), agent.critic1.params()):
            assert np.array_equal(tp, cp)

    def test_gamma_zero_critic_regresses_to_rewards(self):
        config = SacConfig(hidden=16, batch_size=4, gamma=0.0, lr=3e-3)
        agent = SacAgent(config, generator(24, "sac"))
        buf = ReplayBuffer(100, 5)
        rng_data = np.random.default_rng(2)
        states = rng_data.normal(size=(4, 5))
        actions = rng_data.uniform(size=4)
        rewards = np.array([0.5, -0.3, 0.1, 0.8])
        for i in range(4):
            buf.push(Transition(states[i], actions[i], rewards[i], states[i]))
        rng = generator(25, "sac")
        for _ in range(2000):
            sac_update(agent, buf, rng)
        x = np.hstack([states, actions[:, None]])
        q, _ = agent.critic1.forward(x)
        mse = float(np.mean((q[:, 0] - rewards) ** 2))
        assert mse < 1e-3

    def test_bitwise_deterministic_trajectories(self):
        def run():
            agent = SacAgent(SacConfig(hidden=8, batch_size=8), generator(26, "sac"))
            buf = ReplayBuffer(100, 5)
            fill_buffer(buf, np.random.default_rng(3), 20)
            rng = generator(27, "sac")
            for _ in range(30):
                sac_update(agent, buf, rng)
            return [p.copy() for p in agent.actor.params()]

        a, b = run(), run()
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_targets_track_frozen_critics(self):
        config = SacConfig(hidden=8)
        agent = SacAgent(config, generator(28, "sac"))
        # push targets away, then apply soft updates with critics frozen
        for tp in agent.target1.params():
            tp += 1.0
        def gap():
            return sum(float(np.abs(tp - cp).sum())
                       for tp, cp in zip(agent.target1.params(), agent.critic1.params()))
        gaps = [gap()]
        for _ in range(10):
            for tp, cp in zip(agent.target1.params(), agent.critic1.params()):
                tp *= 1.0 - config.tau
                tp += config.tau * cp
            gaps.append(gap())
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] == pytest.approx(gaps[0] * (1 - config.tau) ** 10, rel=1e-9)


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
        cv.append(cv_rmse(X[labeled], y[labeled], 0.01, 5, child_seed(4, "cv", t)))
        labeled.append(int(trace.acquired_idx[t + 1]))
    assert rewards[0] is None  # no drop before two CV values exist
    assert rewards[1:6] == [cv[t - 1] - cv[t] for t in range(1, 6)]
