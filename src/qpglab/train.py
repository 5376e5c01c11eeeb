"""REINFORCE training loop with Adam/AMSGrad ascent updates.

The gradient estimator is the vanilla policy-gradient form: the batch
average of ``sum_t grad ln pi(a_t | s_t) * G_t`` with discounted returns
``G_t`` and no baseline.  An update runs after every ``batch_size``
episodes, ten by default (:class:`Hyperparams`).

The data path of an update.  The batch's episodes share one parameter
set, bound once (:func:`qpglab.ansatz.bind`) for both the rollout and
the gradient, and run in lockstep
(:func:`collect_episodes`): each time step makes one circuit call over
the episodes still running and keeps one time-major block of their
rows, final amplitudes, actions and, for a softmax policy, the
reduction ``(reading, pi)`` that sampling computed.  An episode ends on
a terminal transition or after the environment's ``horizon`` steps.
One stable sort by episode turns the blocks into one episode-major
:class:`Batch`, and :func:`reinforce_gradient` makes one
:func:`qpglab.policy.trajectory_log_grads` call on it and the same
bound parameters, so no parameter set is bound twice and no step is
simulated or reduced twice.  Rewards stay Python floats:
each episode's returns come from them with no array, and its total is
their correctly rounded sum, ``math.fsum``.

Everything is a pure function of (config, seed).  The initial
parameters come from numpy's ``default_rng`` of child 0 of
``SeedSequence(seed)``.  Every other random number of a run is a
counter-based draw (:func:`uniforms`): the uniform of (episode, step,
kind) is one SplitMix64 output under the run's key (:func:`run_key`),
with one kind each for the start state, the action and the
environment's transition.  Episode ``e``'s steps therefore depend only
on (seed, e, parameters), not on the batch size or on the other
episodes, and reruns produce identical records.  Each action takes one
uniform.  :func:`train_run` returns the per-episode records and the
final parameters and policy; it builds nothing and writes no file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ansatz, policy as policy_mod
from .ansatz import ParamSet
from .policy import Policy


class Batch(NamedTuple):
    """A batch's steps, episode-major: rows of ``features`` (N, n),
    ``amps`` (N, 2**n) and ``actions`` (N,), episode ``e``'s
    ``len(rewards[e])`` steps after those of episodes ``0 .. e-1``.
    ``reduced`` is the rows' softmax ``(reading (N, 1), pi)`` that
    sampling computed (None for a Born policy); ``rewards`` are Python
    floats.
    """

    features: np.ndarray
    amps: np.ndarray
    actions: np.ndarray
    reduced: tuple | None
    rewards: list[list[float]]


@dataclass
class Hyperparams:
    """Learning rates, discount and episode budget for one training run."""

    alpha_theta: float = 0.1
    alpha_lambda: float = 0.1
    alpha_w: float = 0.1
    gamma: float = 0.99
    batch_size: int = 10
    episodes: int = 1000
    theta_init: str = "uniform"
    theta_scale: float = 0.1
    lambda_init: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        rates = (self.alpha_theta, self.alpha_lambda, self.alpha_w)
        if not all(0 < rate < math.inf for rate in rates):
            raise ValueError("learning rates must be finite and positive")
        if not 0 <= self.theta_scale < math.inf:
            raise ValueError("theta_scale must be finite and >= 0")
        if not math.isfinite(self.lambda_init):
            raise ValueError("lambda_init must be finite")
        if self.theta_init not in ("uniform", "normal"):
            raise ValueError(f"theta_init must be 'uniform' or 'normal', got {self.theta_init!r}")
        if self.batch_size < 1 or self.episodes < 1:
            raise ValueError("batch_size and episodes must be >= 1")


def discounted_returns(rewards: list, gamma: float) -> list[float]:
    """Backward recursion G_t = r_t + gamma * G_{t+1}, on Python floats."""
    if not rewards:
        raise ValueError("empty reward sequence")
    returns = accumulate(reversed(rewards), lambda acc, r: r + gamma * acc, initial=0.0)
    return list(returns)[:0:-1]


# Draw kinds: the start state's uniforms, each action's and each
# environment transition's.
RESET, ACTION, TRANSITION = 0, 1, 2
_KINDS = np.arange(3, dtype=np.uint64)
# Steps whose draws of every kind the runner hashes in one call, so a
# batch holds at most batch x block x 3 of them at any horizon.
_DRAW_BLOCK = 64
# SplitMix64's increment and its finaliser's multipliers.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def run_key(seed: int) -> np.ndarray:
    """The key (1,) uint64 of a run's draws: the first word that numpy's
    ``SeedSequence(seed, spawn_key=(1,))`` generates."""
    return np.random.SeedSequence(seed, spawn_key=(1,)).generate_state(1, np.uint64)


def uniforms(key: np.ndarray, episodes: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """The draws (len(episodes), len(steps), 3) of each kind, uniform in [0, 1).

    Entry (i, j, k) is SplitMix64 output number c for ``key``, with the
    counter c = (episodes[i] * 2**30 + steps[j]) * 4 + k: the finaliser
    of key + (c + 1) * gamma mod 2**64, whose top 53 bits times 2**-53
    give the uniform.  ``episodes`` and ``steps`` are 1-D uint64 arrays
    of indices below 2**32 and 2**30, so distinct triples take distinct
    counters.  Every product is on arrays, which wrap mod 2**64; numpy
    scalars would warn on overflow instead.
    """
    z = np.add.outer(episodes << 32, np.add.outer(steps << 2, _KINDS))
    z += 1
    z *= _GAMMA
    z += key
    z ^= z >> 30
    z *= _MIX1
    z ^= z >> 27
    z *= _MIX2
    z ^= z >> 31
    z >>= 11
    return z * 2.0**-53


def collect_episodes(
    env, encoder, policy: Policy, bound: ansatz.BoundParams, key: np.ndarray, episodes
) -> Batch:
    """Run episodes ``episodes`` of the run keyed ``key`` in lockstep.

    ``bound`` is the batch's parameter set as :func:`qpglab.ansatz.bind`
    binds it to the policy's model.  Each time step makes
    one ``encoder.encode`` call and one
    :func:`qpglab.policy.sample_action` call over the episodes still
    running, then one ``env.step`` per episode, and keeps one block of
    the live episodes' ids, rows, final amplitudes, actions and any
    softmax reduction; one stable sort of the ids orders the blocks'
    rows episode-major.  Episode ``e`` starts from its ``RESET`` draws
    at steps 0-3, and its step ``t`` takes the ``ACTION`` and
    ``TRANSITION`` draws at ``t`` (:func:`uniforms`), so its steps equal
    the ones it gives when collected alone.  One call hashes every kind
    of a block of steps over all of the batch's episodes.  Episodes are
    truncated after ``env.horizon`` steps.  An empty ``episodes``, an
    index of 2**32 or more and a horizon above 2**30 steps are refused:
    their counters would not fit one word.
    """
    episodes = np.asarray(episodes, dtype=np.uint64)
    if not len(episodes):
        raise ValueError("need at least one episode")
    if episodes.max() >= 1 << 32:
        raise ValueError(f"episode indices lie below 2**32, got {episodes.max()}")
    if env.horizon > 1 << 30:
        raise ValueError(f"a horizon has at most 2**30 steps, got {env.horizon}")
    # The first block holds the reset's 4 steps, even past the horizon.
    first = np.arange(max(4, min(_DRAW_BLOCK, env.horizon)), dtype=np.uint64)
    draws = uniforms(key, episodes, first)
    states = [env.reset(u) for u in draws[:, :4, RESET]]
    rewards = [[] for _ in states]
    blocks = []
    live = list(range(len(states)))
    for t in range(env.horizon):
        if not live:
            break
        j = t % _DRAW_BLOCK
        if t and not j:
            steps = np.arange(t, min(t + _DRAW_BLOCK, env.horizon), dtype=np.uint64)
            draws = uniforms(key, episodes, steps)
        rows = encoder.encode([states[e] for e in live])
        step_draws = draws[live, j]
        chosen, *drawn = policy_mod.sample_action(policy, rows, bound, step_draws[:, ACTION])
        blocks.append((live, rows, chosen, *drawn))
        running = []
        for e, action, u in zip(live, chosen.tolist(), step_draws[:, TRANSITION].tolist()):
            states[e], reward, terminal = env.step(states[e], action, u)
            rewards[e].append(reward)
            if not terminal:
                running.append(e)
        live = running
    ids, rows, chosen, finals, reductions = zip(*blocks)
    order = np.argsort(np.concatenate(ids), kind="stable")

    def gather(fields):
        return np.concatenate(fields)[order]

    reduced = None if reductions[0] is None else tuple(map(gather, zip(*reductions)))
    return Batch(gather(rows), gather(finals), gather(chosen), reduced, rewards)


def reinforce_gradient(
    batch: Batch, policy: Policy, bound: ansatz.BoundParams, gamma: float
) -> np.ndarray:
    """Ascent-direction gradient of the REINFORCE objective over a batch,
    from one gradient call on the rollout's bound parameters, amplitudes
    and reduction.
    """
    returns = [g for rewards in batch.rewards for g in discounted_returns(rewards, gamma)]
    grads = policy_mod.trajectory_log_grads(
        policy, batch.features, batch.actions, bound, batch.amps, batch.reduced
    )
    return np.array(returns) @ grads / len(batch.rewards)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam moment accumulators with the AMSGrad running maximum."""

    def __init__(self, dim: int):
        self.step = 0
        self.m, self.v, self.v_max = np.zeros(dim), np.zeros(dim), np.zeros(dim)


def adam_amsgrad_step(
    state: AdamState, flat: np.ndarray, gradient: np.ndarray, rates: np.ndarray
) -> np.ndarray:
    """One ascent step; ``rates`` holds the per-coordinate learning rate."""
    if flat.shape != gradient.shape or flat.shape != rates.shape:
        raise ValueError("parameter, gradient and rate shapes must match")
    state.step += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * gradient
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * gradient**2
    np.maximum(state.v_max, state.v, out=state.v_max)
    m_hat = state.m / (1.0 - ADAM_BETA1**state.step)
    v_hat = state.v_max / (1.0 - ADAM_BETA2**state.step)
    return flat + rates * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def rate_vector(policy: Policy, hyper: Hyperparams) -> np.ndarray:
    rates = np.full(policy_mod.num_trainables(policy), hyper.alpha_w)
    params, _ = policy_mod.split_flat(policy, rates)
    params.theta[:] = hyper.alpha_theta
    params.lam[:] = hyper.alpha_lambda
    return rates


@dataclass(slots=True)
class EpisodeRecord:
    episode: int
    reward: float
    avg20: float


class TrainResult(NamedTuple):
    records: list[EpisodeRecord]
    params: ParamSet
    policy: Policy


def train_run(
    env,
    encoder,
    policy: Policy,
    hyper: Hyperparams,
    seed: int,
) -> TrainResult:
    """Train a policy with REINFORCE; returns the per-episode log.

    An update runs after every ``batch_size`` episodes.  When
    ``episodes`` is not a multiple of ``batch_size``, the trailing
    partial batch is collected and logged but never used for an update,
    so the returned parameters are those of the last full batch.  A run
    has at most 2**32 episodes, refused before any is run, and a horizon
    of at most 2**30 steps (:func:`collect_episodes`).
    """
    if hyper.episodes > 1 << 32:
        raise ValueError("a run has at most 2**32 episodes: an index is one 32-bit word")
    key = run_key(seed)
    params = ansatz.init_params(
        policy.model,
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))),
        theta_init=hyper.theta_init,
        theta_scale=hyper.theta_scale,
        lam_init=hyper.lambda_init,
    )
    opt = AdamState(policy_mod.num_trainables(policy))
    rates = rate_vector(policy, hyper)

    totals: list[float] = []
    for start in range(0, hyper.episodes, hyper.batch_size):
        episodes = np.arange(start, min(start + hyper.batch_size, hyper.episodes), dtype=np.uint64)
        bound = ansatz.bind(policy.model, params)
        batch = collect_episodes(env, encoder, policy, bound, key, episodes)
        if len(episodes) == hyper.batch_size:
            grad = reinforce_gradient(batch, policy, bound, hyper.gamma)
            flat = policy_mod.flat_trainables(policy, params)
            flat = adam_amsgrad_step(opt, flat, grad, rates)
            params, policy = policy_mod.apply_flat(policy, flat)
        totals.extend(map(math.fsum, batch.rewards))
    records = [
        EpisodeRecord(episode, reward, avg)
        for episode, (reward, avg) in enumerate(zip(totals, _trailing_means(totals, 20)))
    ]
    return TrainResult(records, params, policy)


def _trailing_means(values, window: int) -> list[float]:
    """Mean of each value with the up to ``window - 1`` values before it.

    The first ``window - 1`` are prefix means; the rest are one
    reduction over the sliding windows, which equals ``np.mean`` of each
    window alone bit for bit.
    """
    values = np.asarray(values, dtype=float)
    head = [float(np.mean(values[: k + 1])) for k in range(min(window - 1, len(values)))]
    if len(values) < window:
        return head
    return head + sliding_window_view(values, window).mean(axis=1).tolist()
