"""Controllers for the per-iteration selection weight.

Every policy emits a weight in [0, 1] each iteration through one
interface: ``step(t, horizon, reward, context)``.  Static and decay
schedules ignore the feedback arguments; the UCB1 bandit folds the reward
into the arm it pulled last; the actor-critic policy additionally consumes
the learning-context state vector.  Rewards are drops in cross-validation
RMSE, so the first call of a run passes ``reward=None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .sac import ReplayBuffer, SacAgent, SacConfig, Transition, sac_update, sample_action


@dataclass(frozen=True)
class BanditState:
    """UCB1 bookkeeping over a coarse grid of candidate weights."""

    arms: tuple[float, ...] = (0.25, 0.50, 0.75)
    c_explore: float = 2.0
    counts: tuple[int, ...] = ()
    means: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.arms:
            raise ValueError("need at least one arm")
        if any(not 0.0 <= a <= 1.0 for a in self.arms):
            raise ValueError("arms must lie in [0, 1]")
        if not self.counts:
            object.__setattr__(self, "counts", (0,) * len(self.arms))
            object.__setattr__(self, "means", (0.0,) * len(self.arms))

    @property
    def total_pulls(self) -> int:
        return sum(self.counts)


def mab_select(state: BanditState) -> int:
    """Arm to pull: round-robin until every arm has a reward, then UCB1.

    The UCB index is mean_i + c_explore * sqrt(ln n / n_i) with n the total
    completed pulls; ties break toward the lowest arm index.
    """
    counts = np.array(state.counts)
    if (counts == 0).any():
        return int(np.flatnonzero(counts == 0)[0])
    n = state.total_pulls
    ucb = np.array(state.means) + state.c_explore * np.sqrt(np.log(n) / counts)
    return int(np.argmax(ucb))


def mab_update(state: BanditState, arm: int, reward: float) -> BanditState:
    """Fold a reward into one arm's running mean."""
    if not 0 <= arm < len(state.arms):
        raise ValueError(f"unknown arm {arm}")
    counts = list(state.counts)
    means = list(state.means)
    counts[arm] += 1
    means[arm] += (reward - means[arm]) / counts[arm]
    return replace(state, counts=tuple(counts), means=tuple(means))


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
    """UCB1 over discrete weights; pulls are credited when the reward lands."""

    def __init__(self, arms=(0.25, 0.50, 0.75), c_explore: float = 2.0):
        self.state = BanditState(arms=tuple(arms), c_explore=c_explore)
        self._last_arm: int | None = None

    def step(self, t, horizon, reward=None, context=None) -> float:
        if reward is not None and self._last_arm is not None:
            self.state = mab_update(self.state, self._last_arm, reward)
        arm = mab_select(self.state)
        self._last_arm = arm
        return self.state.arms[arm]


class SacPolicy:
    """Fronts the actor-critic agent with the common policy interface.

    ``context`` must be the learning-context state vector.  Once two CV
    values exist (reward is not None), the previous (state, action) pair
    and the reward are stored as a transition and one gradient step runs.
    """

    def __init__(self, config: SacConfig, rng: np.random.Generator,
                 updates_per_step: int = 1):
        self.agent = SacAgent(config, rng)
        self.buffer = ReplayBuffer(config.buffer_capacity, config.state_dim)
        self.rng = rng
        self.updates_per_step = updates_per_step
        self._prev: tuple[np.ndarray, float] | None = None

    def step(self, t, horizon, reward=None, context=None) -> float:
        if context is None:
            raise ValueError("the actor-critic policy needs a state vector")
        context = np.asarray(context, dtype=float)
        if reward is not None and self._prev is not None:
            prev_state, prev_action = self._prev
            self.buffer.push(Transition(prev_state, prev_action, reward, context))
            for _ in range(self.updates_per_step):
                sac_update(self.agent, self.buffer, self.rng)
        action, _ = sample_action(self.agent, context, self.rng)
        self._prev = (context, action)
        return action
