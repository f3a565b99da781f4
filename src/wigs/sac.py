"""Soft actor-critic controller for the continuous selection weight.

Everything here is plain numpy: two-hidden-layer MLPs with hand-written
reverse-mode gradients, Adam, a FIFO replay buffer, twin critics with
soft-updated targets, and a tanh-squashed Gaussian policy rescaled onto
[0, 1].  The gradients are exact for the affine+ReLU stack and are checked
against central finite differences in the test suite; that check is the
load-bearing test for this module.

The controller observes a 5-feature summary of the labeled set only (no
peeking at pool labels): normalized cross-validation RMSE, progress
through the label budget, mean and spread of the labeled targets, and the
mean nearest-neighbor spacing of the labeled points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import pairwise_distances

_LOG_2PI = math.log(2.0 * math.pi)
_TANH_EPS = 1e-6  # keeps the squashing correction finite at |u| -> 1


@dataclass(frozen=True)
class SacConfig:
    # Fixed by build_state's five features and the scalar weight.
    state_dim: int = field(default=5, init=False)
    action_dim: int = field(default=1, init=False)
    hidden: int = 64
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    gamma: float = 0.99
    tau: float = 0.005
    alpha_ent: float = 0.2
    batch_size: int = 64
    buffer_capacity: int = 10_000
    log_std_min: float = -20.0
    log_std_max: float = 2.0


class Mlp:
    """Fully connected net, ReLU on hidden layers, linear output.

    Weights are (fan_in, fan_out); forward works on (batch, in) matrices.
    ``backward`` consumes the cache produced by ``forward`` and returns
    parameter gradients in ``params()`` order plus the input gradient.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator):
        self.sizes = list(sizes)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy_from(self, other: "Mlp") -> None:
        for dst, src in zip(self.params(), other.params()):
            dst[...] = src

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.sizes[0]:
            raise ValueError(f"expected {self.sizes[0]} inputs, got {x.shape[1]}")
        cache = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = z if i == last else np.maximum(z, 0.0)
            cache.append(h)
        return h, cache

    def backward(
        self, cache: list[np.ndarray], grad_out: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray]:
        if len(cache) != len(self.weights) + 1:
            raise ValueError("stale or mismatched forward cache")
        g = np.atleast_2d(np.asarray(grad_out, dtype=float))
        grads: list[np.ndarray] = [None] * (2 * len(self.weights))
        for i in range(len(self.weights) - 1, -1, -1):
            h_in = cache[i]
            if i != len(self.weights) - 1:
                g = g * (cache[i + 1] > 0.0)  # ReLU mask from stored activations
            grads[2 * i] = h_in.T @ g
            grads[2 * i + 1] = g.sum(axis=0)
            g = g @ self.weights[i].T
        return grads, g


class Adam:
    """Adam on a fixed list of parameter arrays, updated in place."""

    def __init__(self, params: list[np.ndarray], lr: float, beta1: float,
                 beta2: float, eps: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / correct1) / (np.sqrt(v / correct2) + self.eps)


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: float
    reward: float
    next_state: np.ndarray


class ReplayBuffer:
    """Fixed-capacity FIFO store of transitions, sampled uniformly."""

    def __init__(self, capacity: int, state_dim: int):
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim))
        self.actions = np.zeros(capacity)
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, state_dim))
        self.insertions = 0

    def __len__(self) -> int:
        return min(self.insertions, self.capacity)

    def push(self, tr: Transition) -> None:
        i = self.insertions % self.capacity
        self.states[i] = tr.state
        self.actions[i] = tr.action
        self.rewards[i] = tr.reward
        self.next_states[i] = tr.next_state
        self.insertions += 1

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.integers(0, len(self), size=batch_size)
        return (self.states[idx], self.actions[idx], self.rewards[idx],
                self.next_states[idx])


class SacAgent:
    """Actor, twin critics, their targets, and per-network Adam state."""

    def __init__(self, config: SacConfig, rng: np.random.Generator):
        c = config
        self.config = c
        hidden = [c.hidden, c.hidden]
        self.actor = Mlp([c.state_dim, *hidden, 2 * c.action_dim], rng)
        self.critic1 = Mlp([c.state_dim + c.action_dim, *hidden, 1], rng)
        self.critic2 = Mlp([c.state_dim + c.action_dim, *hidden, 1], rng)
        self.target1 = Mlp(self.critic1.sizes, rng)
        self.target2 = Mlp(self.critic2.sizes, rng)
        self.target1.copy_from(self.critic1)
        self.target2.copy_from(self.critic2)
        self.opt_actor = Adam(self.actor.params(), c.lr, c.beta1, c.beta2, c.adam_eps)
        self.opt_critic1 = Adam(self.critic1.params(), c.lr, c.beta1, c.beta2, c.adam_eps)
        self.opt_critic2 = Adam(self.critic2.params(), c.lr, c.beta1, c.beta2, c.adam_eps)


def build_state(
    cv_rmse_now: float,
    cv_rmse_initial: float,
    t: int,
    horizon: int,
    labeled_targets: np.ndarray,
    labeled_features: np.ndarray,
) -> np.ndarray:
    """5-feature learning-context summary computed from the labeled set only.

    The CV RMSE is divided by the run's initial CV RMSE so the scale is
    comparable across datasets; the nearest-neighbor distance excludes self.
    """
    if cv_rmse_initial <= 0:
        raise ValueError("initial CV RMSE must be positive")
    labeled_targets = np.asarray(labeled_targets, dtype=float)
    labeled_features = np.asarray(labeled_features, dtype=float)
    if labeled_targets.shape[0] < 2:
        raise ValueError("need at least 2 labeled points")
    dist = pairwise_distances(labeled_features, labeled_features)
    np.fill_diagonal(dist, np.inf)
    return np.array([
        cv_rmse_now / cv_rmse_initial,
        t / horizon,
        labeled_targets.mean(),
        labeled_targets.std(),
        dist.min(axis=1).mean(),
    ])


def _actor_heads(agent: SacAgent, states: np.ndarray):
    """Forward the actor: returns (mu, clipped log-std, clip mask, cache)."""
    out, cache = agent.actor.forward(states)
    mu = out[:, 0]
    raw = out[:, 1]
    c = agent.config
    log_std = np.clip(raw, c.log_std_min, c.log_std_max)
    pass_through = (raw > c.log_std_min) & (raw < c.log_std_max)
    return mu, log_std, pass_through, cache


def _squash(mu, sigma, eps):
    """z, tanh(z), action in [0,1], and log-prob of the scaled action."""
    z = mu + sigma * eps
    u = np.tanh(z)
    a = 0.5 * (u + 1.0)
    log_prob = (
        -0.5 * eps ** 2 - np.log(sigma) - 0.5 * _LOG_2PI
        - np.log(1.0 - u ** 2 + _TANH_EPS) + math.log(2.0)
    )
    return z, u, a, log_prob


def sample_action(
    agent: SacAgent,
    state: np.ndarray,
    rng: np.random.Generator | None = None,
    deterministic: bool = False,
) -> tuple[float, float]:
    """Draw an action in [0, 1] and its log-density under the policy.

    Stochastic sampling squashes mu + sigma * z (z standard normal) through
    tanh and rescales; deterministic mode squashes mu itself.
    """
    state = np.asarray(state, dtype=float)
    mu, log_std, _, _ = _actor_heads(agent, state[None, :])
    sigma = np.exp(log_std)
    if deterministic:
        eps = np.zeros(1)
    else:
        if rng is None:
            raise ValueError("stochastic sampling needs a generator")
        eps = rng.standard_normal(1)
    _, _, a, log_prob = _squash(mu, sigma, eps)
    return float(a[0]), float(log_prob[0])


def critic_loss_and_grads(critic: Mlp, states, actions, targets):
    """Mean squared TD error and its parameter gradients."""
    x = np.hstack([states, actions[:, None]])
    q, cache = critic.forward(x)
    diff = q[:, 0] - targets
    loss = float(diff @ diff) / len(diff)
    grads, _ = critic.backward(cache, (2.0 / len(diff)) * diff[:, None])
    return loss, grads


def actor_loss_and_grads(agent: SacAgent, states, eps):
    """Policy loss mean(alpha*logp - min Q) and actor parameter gradients.

    ``eps`` is the fixed standard-normal noise vector (reparametrization),
    so the loss is a deterministic, finite-differencable function of the
    actor parameters.
    """
    c = agent.config
    n = states.shape[0]
    mu, log_std, pass_through, cache = _actor_heads(agent, states)
    sigma = np.exp(log_std)
    z, u, a, log_prob = _squash(mu, sigma, eps)

    x = np.hstack([states, a[:, None]])
    q1, cache1 = agent.critic1.forward(x)
    q2, cache2 = agent.critic2.forward(x)
    q1 = q1[:, 0]
    q2 = q2[:, 0]
    take1 = q1 <= q2
    q_min = np.where(take1, q1, q2)
    loss = float(np.mean(c.alpha_ent * log_prob - q_min))

    # dL/da flows through whichever critic realized the min, via its input
    # gradient's action coordinate.  Critic parameters are not updated here.
    g_q = np.where(take1, -1.0 / n, 0.0)
    _, gin1 = agent.critic1.backward(cache1, g_q[:, None])
    g_q = np.where(take1, 0.0, -1.0 / n)
    _, gin2 = agent.critic2.backward(cache2, g_q[:, None])
    g_a = gin1[:, -1] + gin2[:, -1]

    g_logp = np.full(n, c.alpha_ent / n)
    one_minus_u2 = 1.0 - u ** 2
    # log_prob depends on z only through the squashing correction term.
    g_z = g_a * one_minus_u2 * 0.5 + g_logp * (2.0 * u * one_minus_u2) / (one_minus_u2 + _TANH_EPS)
    g_mu = g_z
    g_log_std = (g_z * sigma * eps - g_logp) * pass_through

    grad_out = np.stack([g_mu, g_log_std], axis=1)
    grads, _ = agent.actor.backward(cache, grad_out)
    return loss, grads


def sac_update(agent: SacAgent, buffer: ReplayBuffer, rng: np.random.Generator) -> dict:
    """One gradient step on both critics and the actor, then a soft target update.

    A call with fewer buffered transitions than the batch size is a
    recorded no-op.  Transitions are never treated as terminal: the whole
    run is one episode, so the bootstrap always uses the stored next state.
    """
    c = agent.config
    if len(buffer) < c.batch_size:
        return {"updated": False}
    states, actions, rewards, next_states = buffer.sample(c.batch_size, rng)

    # Target values under the current policy at the next states.
    mu2, log_std2, _, _ = _actor_heads(agent, next_states)
    eps2 = rng.standard_normal(c.batch_size)
    _, _, a2, log_prob2 = _squash(mu2, np.exp(log_std2), eps2)
    x2 = np.hstack([next_states, a2[:, None]])
    q1t, _ = agent.target1.forward(x2)
    q2t, _ = agent.target2.forward(x2)
    soft_value = np.minimum(q1t[:, 0], q2t[:, 0]) - c.alpha_ent * log_prob2
    targets = rewards + c.gamma * soft_value

    loss1, grads1 = critic_loss_and_grads(agent.critic1, states, actions, targets)
    agent.opt_critic1.step(agent.critic1.params(), grads1)
    loss2, grads2 = critic_loss_and_grads(agent.critic2, states, actions, targets)
    agent.opt_critic2.step(agent.critic2.params(), grads2)

    eps_a = rng.standard_normal(c.batch_size)
    actor_loss, actor_grads = actor_loss_and_grads(agent, states, eps_a)
    agent.opt_actor.step(agent.actor.params(), actor_grads)

    for target, critic in ((agent.target1, agent.critic1), (agent.target2, agent.critic2)):
        for tp, cp in zip(target.params(), critic.params()):
            tp *= 1.0 - c.tau
            tp += c.tau * cp

    return {
        "updated": True,
        "critic1_loss": loss1,
        "critic2_loss": loss2,
        "actor_loss": actor_loss,
    }

