"""Controllers for the per-iteration selection weight.

Every policy is one object that holds its own state and emits a weight in
[0, 1] each iteration through one interface: ``step(t, horizon, reward,
context)``.  Static and decay schedules ignore the feedback arguments;
``BanditPolicy`` keeps UCB1 counts and running means per arm and credits
the reward to the arm it pulled last; ``SacPolicy`` owns an actor-critic
agent and its replay buffer and also consumes the learning-context state
vector.  Rewards are drops in cross-validation RMSE, so the first call of
a run passes ``reward=None``.
"""

from __future__ import annotations

import math

import numpy as np

from .sac import ReplayBuffer, SacAgent, SacConfig, sac_update, sample_action


def _check_step(t: int, horizon: int) -> None:
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if not 0 <= t <= horizon:
        raise ValueError(f"iteration {t} outside [0, {horizon}]")


class StaticPolicy:
    """Constant weight; pure exploration at 1, pure investigation at 0."""

    def __init__(self, w: float):
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {w}")
        self.w = float(w)

    def step(self, t, horizon, reward=None, context=None) -> float:
        return self.w


class LinearDecayPolicy:
    """max(0, 1 - c*t/T); clamped so the weight stays in [0, 1] for c > 1."""

    def __init__(self, c: float = 1.0):
        if c <= 0:
            raise ValueError("decay constant must be positive")
        self.c = c

    def step(self, t, horizon, reward=None, context=None) -> float:
        _check_step(t, horizon)
        return max(0.0, 1.0 - self.c * t / horizon)


class ExpDecayPolicy:
    """exp(-c*t/T), decaying from 1 toward 0 over the run."""

    def __init__(self, c: float = 5.0):
        if c <= 0:
            raise ValueError("decay constant must be positive")
        self.c = c

    def step(self, t, horizon, reward=None, context=None) -> float:
        _check_step(t, horizon)
        return math.exp(-self.c * t / horizon)


class BanditPolicy:
    """UCB1 over a coarse grid of candidate weights.

    ``counts`` and ``means`` hold each arm's completed pulls and running
    mean reward; ``arm`` is the arm pulled last, credited when the next
    reward lands.  Untried arms are pulled round-robin, then the arm with
    the largest index mean_i + c_explore * sqrt(ln n / n_i), n the total
    completed pulls; ties break toward the lowest arm index, and a NaN
    index wins, as ``np.argmax`` picks.  The arithmetic runs on Python
    floats, the same IEEE operations as on float64 arrays; ln n is
    ``np.log``, which ``math.log`` does not match at every n.
    """

    def __init__(self, arms=(0.25, 0.50, 0.75), c_explore: float = 2.0):
        self.arms = tuple(arms)
        if not self.arms:
            raise ValueError("need at least one arm")
        if any(not 0.0 <= a <= 1.0 for a in self.arms):
            raise ValueError("arms must lie in [0, 1]")
        self.c_explore = c_explore
        self._counts = [0] * len(self.arms)
        self._means = [0.0] * len(self.arms)
        self.arm: int | None = None

    @property
    def counts(self) -> np.ndarray:
        """Each arm's completed pulls."""
        return np.array(self._counts, dtype=np.int64)

    @property
    def means(self) -> np.ndarray:
        """Each arm's running mean reward."""
        return np.array(self._means)

    def step(self, t, horizon, reward=None, context=None) -> float:
        counts, means = self._counts, self._means
        if reward is not None and self.arm is not None:
            arm = self.arm
            counts[arm] += 1
            means[arm] += (float(reward) - means[arm]) / counts[arm]
        if 0 in counts:
            self.arm = counts.index(0)
        else:
            log_n = float(np.log(sum(counts)))
            best, top = 0, -math.inf
            for arm, (count, mean) in enumerate(zip(counts, means)):
                index = mean + self.c_explore * math.sqrt(log_n / count)
                if index != index:  # NaN
                    best = arm
                    break
                if index > top:
                    best, top = arm, index
            self.arm = best
        return self.arms[self.arm]


class SacPolicy:
    """Fronts the actor-critic agent with the common policy interface.

    ``context`` must be the learning-context state vector.  Once two CV
    values exist (reward is not None), the previous (state, action) pair
    and the reward are stored as a transition and
    ``config.updates_per_step`` gradient steps run.
    """

    def __init__(self, config: SacConfig, rng: np.random.Generator):
        self.agent = SacAgent(config, rng)
        self.buffer = ReplayBuffer(config.buffer_capacity, config.state_dim)
        self.rng = rng
        self._prev: tuple[np.ndarray, float] | None = None

    def step(self, t, horizon, reward=None, context=None) -> float:
        if context is None:
            raise ValueError("the actor-critic policy needs a state vector")
        context = np.asarray(context, dtype=float)
        if reward is not None and self._prev is not None:
            self.buffer.push(*self._prev, reward, context)
            for _ in range(self.agent.config.updates_per_step):
                sac_update(self.agent, self.buffer, self.rng)
        action, _ = sample_action(self.agent, context, self.rng)
        self._prev = (context, action)
        return action
