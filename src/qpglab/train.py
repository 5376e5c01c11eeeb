"""REINFORCE training loop with Adam/AMSGrad ascent updates.

The gradient estimator is the vanilla policy-gradient form: average
over batch trajectories of ``sum_t grad ln pi(a_t | s_t) * G_t`` with
discounted returns ``G_t`` and no baseline.  Updates are synchronous at
batch boundaries (one trajectory per update by default for the
paper-style per-episode runs; larger batches are a config choice).

The episodes of one batch share one parameter set, so they are
stepped in lockstep (:func:`collect_episodes`): the set is bound once
per batch (:func:`qpglab.ansatz.bind`), which runs the feature-free
first circuit layer once per batch, and each time step makes one
circuit call over the episodes still running.  An episode ends on
a terminal transition or after the environment's ``horizon`` steps.
The update differentiates the final amplitudes that the rollout drew
its actions from, so each step is simulated once.

Everything is a pure function of (config, seed), through independent
streams (:func:`run_streams`): one generator draws the initial
parameters, and episode ``e`` draws its start state, its actions and
any environment randomness from its own child stream ``e``.  Episode
``e``'s trajectory therefore depends only on (seed, e, parameters),
not on the batch size or on which other episodes run beside it, and
reruns produce identical records.  Each action takes one ``random()``
draw: a Born policy measures one bitstring per step.
:func:`train_run` returns the per-episode records and the final
parameters and policy; it builds nothing and writes no file, since
``qpglab.config`` builds the run's objects once and ``qpglab.cli``
writes its outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import ansatz, policy as policy_mod
from .ansatz import ParamSet
from .policy import Policy


@dataclass
class Trajectory:
    """One episode in step order: encoded features, the circuit's final
    amplitudes at each step, chosen actions and rewards.
    """

    features: np.ndarray  # (T, n)
    amps: np.ndarray  # (T, 2**n)
    actions: np.ndarray  # (T,)
    rewards: np.ndarray  # (T,)

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def total_reward(self) -> float:
        return float(self.rewards.sum())


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
        if self.batch_size < 1 or self.episodes < 1:
            raise ValueError("batch_size and episodes must be >= 1")


def discounted_returns(rewards, gamma: float) -> np.ndarray:
    """Backward recursion G_t = r_t + gamma * G_{t+1}."""
    rewards = np.asarray(rewards, dtype=float)
    if rewards.size == 0:
        raise ValueError("empty reward sequence")
    returns = np.empty_like(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        returns[t] = acc
    return returns


def run_streams(seed: int) -> tuple[np.random.Generator, np.random.SeedSequence]:
    """The parameter-initialisation generator and the episode stream of a run.

    Both are children of ``SeedSequence(seed)``.  Episode ``e`` draws
    from child ``e`` of the episode stream; ``spawn`` numbers children
    consecutively over successive calls, so spawning them batch by
    batch gives the same streams as spawning them all at once.
    """
    init, episodes = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(init), episodes


def collect_episodes(env, encoder, policy: Policy, params: ParamSet, rngs) -> list[Trajectory]:
    """Run one episode per generator in lockstep, episode ``e`` on ``rngs[e]``.

    ``params`` are bound once (:func:`qpglab.ansatz.bind`), so the
    feature-free first layer runs once per batch.  Each time step makes
    one ``encoder.encode`` call and one
    :func:`qpglab.policy.sample_action` call over the episodes still
    running, then one ``env.step`` per episode; each trajectory keeps the
    final amplitudes of its steps for the gradient.
    Every draw of episode ``e`` comes from ``rngs[e]`` in the order a
    lone run of it would make, so its trajectory equals the one it
    gives when collected alone.  Episodes are truncated after
    ``env.horizon`` steps.
    """
    states = [env.reset(rng) for rng in rngs]
    features, amps, actions, rewards = ([[] for _ in rngs] for _ in range(4))
    live = list(range(len(rngs)))
    bound = ansatz.bind(policy.model, params)
    for _ in range(env.horizon):
        if not live:
            break
        rows = encoder.encode([states[e] for e in live])
        chosen, finals = policy_mod.sample_action(policy, rows, bound, [rngs[e] for e in live])
        running = []
        for e, row, final, action in zip(live, rows, finals, chosen.tolist()):
            states[e], reward, terminal = env.step(states[e], action, rngs[e])
            features[e].append(row)
            amps[e].append(final)
            actions[e].append(action)
            rewards[e].append(reward)
            if not terminal:
                running.append(e)
        live = running
    return [
        Trajectory(np.array(f), np.array(p), np.array(a, dtype=np.int64), np.array(r))
        for f, p, a, r in zip(features, amps, actions, rewards)
    ]


def reinforce_gradient(
    batch: list[Trajectory], policy: Policy, params: ParamSet, gamma: float
) -> np.ndarray:
    """Ascent-direction gradient of the REINFORCE objective over a batch.

    The steps of all trajectories go through one gradient call, which
    starts from the amplitudes the rollout computed, so no step is
    simulated twice.
    """
    if not batch:
        raise ValueError("empty batch")
    returns = np.concatenate([discounted_returns(traj.rewards, gamma) for traj in batch])
    grads = policy_mod.trajectory_log_grads(
        policy,
        np.concatenate([traj.features for traj in batch]),
        np.concatenate([traj.actions for traj in batch]),
        params,
        np.concatenate([traj.amps for traj in batch]),
    )
    return returns @ grads / len(batch)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moment accumulators with the AMSGrad running maximum."""

    dim: int
    step: int = 0
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    v_max: np.ndarray = field(init=False)

    def __post_init__(self):
        self.m = np.zeros(self.dim)
        self.v = np.zeros(self.dim)
        self.v_max = np.zeros(self.dim)


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
    n_theta, n_lam = ansatz.param_counts(policy.model)
    rates = np.full(policy_mod.num_trainables(policy), hyper.alpha_w)
    rates[:n_theta] = hyper.alpha_theta
    rates[n_theta : n_theta + n_lam] = hyper.alpha_lambda
    return rates


@dataclass(slots=True)
class EpisodeRecord:
    episode: int
    reward: float
    avg20: float


@dataclass
class TrainResult:
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
    so the returned parameters are those of the last full batch.
    """
    init_rng, episode_stream = run_streams(seed)
    params = ansatz.init_params(
        policy.model,
        init_rng,
        theta_init=hyper.theta_init,
        theta_scale=hyper.theta_scale,
        lam_init=hyper.lambda_init,
    )
    opt = AdamState(policy_mod.num_trainables(policy))
    rates = rate_vector(policy, hyper)

    totals: list[float] = []
    for start in range(0, hyper.episodes, hyper.batch_size):
        size = min(hyper.batch_size, hyper.episodes - start)
        rngs = [np.random.default_rng(child) for child in episode_stream.spawn(size)]
        batch = collect_episodes(env, encoder, policy, params, rngs)
        if size == hyper.batch_size:
            grad = reinforce_gradient(batch, policy, params, hyper.gamma)
            flat = policy_mod.flat_trainables(policy, params)
            flat = adam_amsgrad_step(opt, flat, grad, rates)
            params, policy = policy_mod.apply_flat(policy, flat)
        totals.extend(traj.total_reward for traj in batch)
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
