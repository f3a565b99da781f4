import math

import numpy as np
import pytest

from wigs.weights import BanditPolicy, ExpDecayPolicy, LinearDecayPolicy, StaticPolicy


class TestSchedules:
    def test_static(self):
        assert StaticPolicy(0.25).step(0, 10) == 0.25
        assert StaticPolicy(0.0).step(0, 10) == 0.0   # pure investigation
        assert StaticPolicy(1.0).step(0, 10) == 1.0   # pure exploration
        with pytest.raises(ValueError):
            StaticPolicy(1.5)

    def test_linear_decay(self):
        assert LinearDecayPolicy(1.0).step(0, 100) == 1.0
        assert LinearDecayPolicy(1.0).step(100, 100) == 0.0
        assert LinearDecayPolicy(1.0).step(50, 100) == 0.5
        # c > 1 clamps at zero instead of going negative
        assert LinearDecayPolicy(2.0).step(80, 100) == 0.0
        with pytest.raises(ValueError):
            LinearDecayPolicy(1.0).step(0, 0)

    def test_exp_decay(self):
        assert ExpDecayPolicy(5.0).step(0, 100) == 1.0
        assert ExpDecayPolicy(5.0).step(100, 100) == pytest.approx(math.exp(-5.0))
        values = [ExpDecayPolicy(5.0).step(t, 50) for t in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_all_outputs_in_unit_interval(self):
        for t in range(0, 101, 7):
            assert 0.0 <= LinearDecayPolicy(3.0).step(t, 100) <= 1.0
            assert 0.0 <= ExpDecayPolicy(5.0).step(t, 100) <= 1.0

    @pytest.mark.parametrize("policy", [LinearDecayPolicy, ExpDecayPolicy])
    def test_decay_checks(self, policy):
        for c in (0.0, -1.0):
            with pytest.raises(ValueError, match="decay constant must be positive"):
                policy(c)
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            policy(1.0).step(0, 0)
        for t in (-1, 11):
            with pytest.raises(ValueError, match="outside"):
                policy(1.0).step(t, 10)


def credit(policy, rewards):
    """Pull once, then credit each reward to the arm just pulled and pull
    again; returns the arm of the last pull."""
    policy.step(0, 10)
    for reward in rewards:
        policy.step(0, 10, reward)
    return policy.arm


class TestBandit:
    def test_round_robin_initialization(self):
        policy = BanditPolicy()
        picks = []
        reward = None
        for next_reward in (0.5, 0.1, 0.2):
            policy.step(0, 10, reward)
            picks.append(policy.arm)
            reward = next_reward
        assert picks == [0, 1, 2]

    def test_ucb_hand_arithmetic(self):
        policy = BanditPolicy(c_explore=2.0)
        # round-robin credits arms 0, 1, 2 in turn
        arm = credit(policy, (0.1, 0.2, 0.0))
        # n = 3, all counts 1: bonus 2*sqrt(ln 3) identical -> mean decides
        bonus = 2.0 * math.sqrt(math.log(3.0))
        ucb = [m + bonus for m in policy.means]
        assert np.argmax(ucb) == 1
        assert arm == 1

    def test_zero_exploration_is_greedy(self):
        assert credit(BanditPolicy(c_explore=0.0), (0.3, 0.1, 0.2)) == 0

    def test_tie_goes_to_lowest_arm(self):
        assert credit(BanditPolicy(c_explore=2.0), (0.5, 0.5, 0.5)) == 0

    def test_running_mean(self):
        policy = BanditPolicy(arms=(0.25,))  # one arm: every reward lands on arm 0
        credit(policy, (1.0, 3.0))
        assert policy.means[0] == 2.0
        assert policy.counts[0] == 2

    def test_zero_reward_only_neutral_at_zero_mean(self):
        policy = BanditPolicy(arms=(0.25,))
        credit(policy, (0.0,))
        assert policy.means[0] == 0.0
        policy.step(0, 10, 0.0)
        assert policy.means[0] == 0.0

    def test_counts_match_updates(self):
        policy = BanditPolicy()
        credit(policy, [0.1 * i for i in range(7)])
        assert policy.counts.sum() == 7

    def test_arms_validated(self):
        with pytest.raises(ValueError):
            BanditPolicy(arms=(0.2, 1.5))
        with pytest.raises(ValueError):
            BanditPolicy(arms=())


class NumpyBandit:
    """The array body ``BanditPolicy.step`` had, kept as its oracle."""

    def __init__(self, arms, c_explore):
        self.arms, self.c_explore = arms, c_explore
        self.counts = np.zeros(len(arms), dtype=np.int64)
        self.means = np.zeros(len(arms))
        self.arm = None

    def step(self, reward):
        if reward is not None and self.arm is not None:
            self.counts[self.arm] += 1
            self.means[self.arm] += (reward - self.means[self.arm]) / self.counts[self.arm]
        untried = np.flatnonzero(self.counts == 0)
        if len(untried):
            self.arm = int(untried[0])
        else:
            n = self.counts.sum()
            with np.errstate(invalid="ignore"):
                ucb = self.means + self.c_explore * np.sqrt(np.log(n) / self.counts)
            self.arm = int(np.argmax(ucb))
        return self.arms[self.arm]


class TestBanditMatchesArrayBody:
    @pytest.mark.parametrize("case", ["random", "ties", "nan", "inf", "one_arm", "five_arms"])
    @pytest.mark.parametrize("c_explore", [0.0, 0.5, 2.0])
    def test_arms_counts_and_means_bit_equal(self, case, c_explore):
        """Untried arms first, then UCB1 with ties to the lowest arm and a
        NaN index winning, as np.argmax picks; every pull, count and mean."""
        rng = np.random.default_rng(len(case))
        arms = {"one_arm": (0.5,), "five_arms": (0.0, 0.2, 0.4, 0.6, 1.0)}.get(
            case, (0.25, 0.5, 0.75))
        rewards = rng.normal(scale=0.01, size=400)
        if case == "ties":
            rewards = np.round(rewards, 2) * 0.0 + 0.125
        elif case == "nan":
            rewards[[7, 150]] = np.nan
        elif case == "inf":
            rewards[[20]] = np.inf
            rewards[[40]] = -np.inf
        policy, oracle = BanditPolicy(arms, c_explore), NumpyBandit(arms, c_explore)
        for t, reward in enumerate([None, *rewards.tolist()]):
            assert policy.step(t, 500, reward) == oracle.step(reward)
            assert policy.arm == oracle.arm
        assert policy.counts.dtype == oracle.counts.dtype
        assert policy.counts.tobytes() == oracle.counts.tobytes()
        assert policy.means.tobytes() == oracle.means.tobytes()

    def test_log_is_numpy_log(self):
        """math.log(9170) is one ulp from np.log(9170), and at these counts
        and means that ulp decides the pull: the index reads np.log."""
        assert math.log(9170) != float(np.log(9170))
        policy, oracle = BanditPolicy((0.25, 0.5), 2.0), NumpyBandit((0.25, 0.5), 2.0)
        policy._counts, policy._means = [12, 9158], [0.0, 1.680785535880962]
        oracle.counts[:], oracle.means[:] = policy._counts, policy._means
        assert policy.step(0, 10) == oracle.step(None) == 0.25


class TestPolicyInterface:
    def test_static_policy(self):
        policy = StaticPolicy(0.25)
        assert [policy.step(t, 10) for t in range(3)] == [0.25, 0.25, 0.25]

    def test_decay_policies_in_range(self):
        for policy in (LinearDecayPolicy(1.0), ExpDecayPolicy(5.0)):
            for t in range(0, 20):
                assert 0.0 <= policy.step(t, 19) <= 1.0

    def test_bandit_policy_credits_previous_arm(self):
        policy = BanditPolicy(c_explore=2.0)
        w0 = policy.step(0, 10, reward=None)
        assert w0 == 0.25  # first round-robin pull
        policy.step(1, 10, reward=0.9)
        assert policy.counts.tolist() == [1, 0, 0]
        assert policy.means[0] == 0.9

    def test_bandit_policy_emits_arm_values(self):
        policy = BanditPolicy(arms=(0.1, 0.5, 0.9))
        seen = {policy.step(t, 50, reward=0.0 if t else None) for t in range(3)}
        assert seen <= {0.1, 0.5, 0.9}
