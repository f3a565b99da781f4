"""Soft actor-critic controller for the continuous selection weight.

Everything here is plain numpy: two-hidden-layer MLPs on flat parameter
vectors with hand-written reverse-mode gradients, Adam, a FIFO replay
buffer, twin critics stacked as one two-member net with a soft-updated
target, and a tanh-squashed Gaussian policy rescaled onto [0, 1].  The
gradients are exact for the affine+ReLU stack and are checked against
central finite differences in the test suite; that check is the
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

from .geometry import pairwise_distances  # noqa: F401  a site that bench/tracing.py wraps

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
    updates_per_step: int = 1  # gradient steps per stored transition


def param_count(sizes: list[int]) -> int:
    """Weights and biases of one member of an ``Mlp`` with these layer sizes."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


class Mlp:
    """Fully connected net, ReLU on hidden layers, linear output.

    ``members`` independent copies of the net (2 for the twin critics) are
    stacked on a leading axis and share one flat parameter vector ``flat``,
    member by member, each in the layer order W, b.  ``weights[i]`` is a
    (members, fan_in, fan_out) view into it and ``biases[i]`` a
    (members, fan_out) view.  ``forward`` maps (n, in) inputs to
    (members, n, out) outputs; ``backward`` consumes its cache and returns
    the parameter gradient in ``flat``'s layout plus the input gradient,
    either of which it can skip.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator, members: int = 1):
        self.sizes = list(sizes)
        self.members = members
        self.flat = np.empty(members * param_count(sizes))
        self.weights, self.biases = self.views(self.flat)
        for m in range(members):
            for w, b in zip(self.weights, self.biases):
                bound = 1.0 / math.sqrt(w.shape[1])
                w[m] = rng.uniform(-bound, bound, size=w.shape[1:])
                b[m] = rng.uniform(-bound, bound, size=b.shape[1:])

    def views(self, vector: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views into a vector laid out like ``flat``."""
        rows = vector.reshape(self.members, -1)
        weights, biases, start = [], [], 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            stop = start + fan_in * fan_out
            weights.append(rows[:, start:stop].reshape(self.members, fan_in, fan_out))
            biases.append(rows[:, stop:stop + fan_out])
            start = stop + fan_out
        return weights, biases

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        if x.ndim != 2 or x.shape[1] != self.sizes[0]:
            raise ValueError(f"expected (n, {self.sizes[0]}) inputs, got shape {x.shape}")
        cache = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b[:, None, :]
            h = z if i == last else np.maximum(z, 0.0)
            cache.append(h)
        return h, cache

    def backward(
        self, cache: list[np.ndarray], grad_out: np.ndarray, params: bool = True,
        inputs: bool = True,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Gradients of sum(grad_out * output); grad_out is (members, n, out).

        ``params=False`` skips the parameter gradient and ``inputs=False``
        the input gradient, which then come back as None; the other one is
        the same bits either way.
        """
        if len(cache) != len(self.weights) + 1:
            raise ValueError("stale or mismatched forward cache")
        grad = None
        if params:
            grad = np.empty_like(self.flat)
            grad_w, grad_b = self.views(grad)
        g = grad_out
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            if i != last:
                g = g * (cache[i + 1] > 0.0)  # ReLU mask from stored activations
            if params:
                grad_w[i][...] = cache[i].swapaxes(-1, -2) @ g
                grad_b[i][...] = g.sum(axis=-2)
            if i or inputs:
                g = g @ self.weights[i].swapaxes(-1, -2)
        return grad, g if inputs else None


class Adam:
    """Adam on one flat parameter vector, updated in place through two
    scratch vectors of its size."""

    def __init__(self, params: np.ndarray, lr: float, beta1: float,
                 beta2: float, eps: float):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.scratch = np.empty_like(params), np.empty_like(params)

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, and params -=
        lr (m / c1) / (sqrt(v / c2) + eps) with the bias corrections c1, c2:
        the same operations, in the same order, as those expressions."""
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        a, b = self.scratch
        self.m *= self.beta1
        self.m += np.multiply(grad, 1.0 - self.beta1, out=a)
        self.v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=a)
        a *= grad
        self.v += a
        np.divide(self.m, correct1, out=a)
        a *= self.lr
        np.divide(self.v, correct2, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a


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

    def push(self, state: np.ndarray, action: float, reward: float,
             next_state: np.ndarray) -> None:
        i = self.insertions % self.capacity
        self.states[i] = state
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.insertions += 1

    def sample(self, batch_size: int, rng: np.random.Generator):
        idx = rng.integers(0, len(self), size=batch_size)
        return (self.states[idx], self.actions[idx], self.rewards[idx],
                self.next_states[idx])


def net_sizes(c: SacConfig) -> tuple[list[int], list[int]]:
    """Layer sizes of the actor and of each twin-critic member."""
    hidden = [c.hidden, c.hidden]
    return [c.state_dim, *hidden, 2 * c.action_dim], [c.state_dim + c.action_dim, *hidden, 1]


def state_bytes(config: SacConfig, transitions: int) -> int:
    """Bytes of a SAC controller's arrays once ``transitions`` have been
    pushed: the actor, its two Adam moments and two Adam scratch vectors,
    the twin critic, its target, its two Adam moments and two scratch
    vectors, and the replay rows written so far (the buffer's unwritten
    rows are zero pages that are never touched)."""
    actor, critic = net_sizes(config)
    rows = min(transitions, config.buffer_capacity)
    return 8 * (5 * param_count(actor) + 6 * 2 * param_count(critic)
                + rows * (2 * config.state_dim + 2))


class SacAgent:
    """Actor, two-member twin critic, its target, and one Adam per trained net."""

    def __init__(self, config: SacConfig, rng: np.random.Generator):
        c = config
        self.config = c
        actor, critic = net_sizes(c)
        self.actor = Mlp(actor, rng)
        self.critic = Mlp(critic, rng, members=2)
        # The target's own initial draws are discarded: they only hold the
        # "sac" stream's position.  It starts as a copy of the critic.
        self.target = Mlp(self.critic.sizes, rng, members=2)
        self.target.flat[...] = self.critic.flat
        self.opt_actor = Adam(self.actor.flat, c.lr, c.beta1, c.beta2, c.adam_eps)
        self.opt_critic = Adam(self.critic.flat, c.lr, c.beta1, c.beta2, c.adam_eps)


def build_state(cv_rmse_now: float, cv_rmse_initial: float, t: int, horizon: int,
                targets: np.ndarray, labeled_nn: np.ndarray) -> np.ndarray:
    """5-feature learning-context summary computed from the labeled set only.

    The CV RMSE is divided by the run's initial CV RMSE so the scale is
    comparable across datasets; ``targets`` are the labeled targets, and
    ``labeled_nn`` the labeled points' nearest-neighbor distances, which
    exclude self: the running ``DistanceBlock.labeled_nn`` of the pair's row.
    """
    if cv_rmse_initial <= 0:
        raise ValueError("initial CV RMSE must be positive")
    if len(targets) < 2:
        raise ValueError("need at least 2 labeled points")
    return np.array([
        cv_rmse_now / cv_rmse_initial,
        t / horizon,
        targets.mean(),
        targets.std(),
        labeled_nn.mean(),
    ])


def _actor_heads(agent: SacAgent, states: np.ndarray):
    """Forward the actor: returns (mu, clipped log-std, clip mask, cache)."""
    out, cache = agent.actor.forward(states)
    mu = out[0, :, 0]
    raw = out[0, :, 1]
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
    """Each member's mean squared TD error, and the gradient of their sum.

    The members' parameters are disjoint, so each member's block of the
    flat gradient is the gradient of its own loss.
    """
    x = np.hstack([states, actions[:, None]])
    q, cache = critic.forward(x)
    diff = q[:, :, 0] - targets
    losses = tuple(float(d @ d) / len(d) for d in diff)
    grad, _ = critic.backward(cache, (2.0 / len(targets)) * diff[:, :, None], inputs=False)
    return losses, grad


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
    q, q_cache = agent.critic.forward(x)
    q1, q2 = q[:, :, 0]
    take1 = q1 <= q2
    q_min = np.where(take1, q1, q2)
    loss = float(np.mean(c.alpha_ent * log_prob - q_min))

    # dL/da flows through whichever critic realized the min, via its input
    # gradient's action coordinate.  Critic parameters are not updated here.
    g_q = np.where(np.stack([take1, ~take1]), -1.0 / n, 0.0)
    _, grad_in = agent.critic.backward(q_cache, g_q[:, :, None], params=False)
    g_a = grad_in[0, :, -1] + grad_in[1, :, -1]

    g_logp = np.full(n, c.alpha_ent / n)
    one_minus_u2 = 1.0 - u ** 2
    # log_prob depends on z only through the squashing correction term.
    g_z = g_a * one_minus_u2 * 0.5 + g_logp * (2.0 * u * one_minus_u2) / (one_minus_u2 + _TANH_EPS)
    g_mu = g_z
    g_log_std = (g_z * sigma * eps - g_logp) * pass_through

    grad_out = np.stack([g_mu, g_log_std], axis=1)
    grad, _ = agent.actor.backward(cache, grad_out[None], inputs=False)
    return loss, grad


def sac_update(agent: SacAgent, buffer: ReplayBuffer, rng: np.random.Generator) -> dict:
    """One gradient step on both critics and the actor, then a soft target update.

    A call with fewer buffered transitions than the batch size is a
    recorded no-op.  No stored transition is treated as terminal: the whole
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
    q_target, _ = agent.target.forward(np.hstack([next_states, a2[:, None]]))
    soft_value = q_target[:, :, 0].min(axis=0) - c.alpha_ent * log_prob2
    targets = rewards + c.gamma * soft_value

    critic_losses, critic_grad = critic_loss_and_grads(agent.critic, states, actions, targets)
    agent.opt_critic.step(agent.critic.flat, critic_grad)

    eps_a = rng.standard_normal(c.batch_size)
    actor_loss, actor_grad = actor_loss_and_grads(agent, states, eps_a)
    agent.opt_actor.step(agent.actor.flat, actor_grad)

    agent.target.flat *= 1.0 - c.tau
    agent.target.flat += c.tau * agent.critic.flat

    return {
        "updated": True,
        "critic_losses": critic_losses,
        "actor_loss": actor_loss,
    }
