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

Everything is a pure function of (config, seed), through independent
streams (:func:`run_streams`): one generator draws the initial
parameters, and episode ``e`` draws its start state, its actions and
any environment randomness from its own generator ``e``, the one
numpy's ``SeedSequence(seed).spawn`` tree gives.  Episode ``e``'s steps
therefore depend only on (seed, e, parameters), not on the batch size
or on the other episodes, and reruns produce identical records.  Each
action takes one ``random()`` draw.  :func:`train_run` returns the
per-episode records and the final parameters and policy; it builds
nothing and writes no file.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, islice
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


# numpy's SeedSequence hash (after O'Neill's seed_seq_fe): the hash
# constants of mixing entropy into the pool (A) and of generating state
# from it (B), and the mix's multipliers.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Episodes whose seed words one vectorised pass computes.
_STREAM_CHUNK = 1024


def _hash_consts(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """Hash constants ``first .. first + count - 1``, init * mult**k mod 2**32."""
    consts = [init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in range(first, first + count)]
    return np.array(consts, dtype=np.uint32)


# generate_state's 8 hashes, each pool word twice.
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0, 9)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 ``value``, column k under hash
    constant k; ``consts`` holds one more, each column's successor.
    """
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _seed_words(stream: np.random.SeedSequence, last: np.ndarray) -> np.ndarray:
    """PCG64 seed words (len(last), 4), uint64, of the children of
    ``stream`` with the key words ``last`` (uint32): each child's
    ``generate_state(4, np.uint64)``.

    A child's entropy is ``stream``'s words, the 32-bit words of its int
    entropy padded to the pool size of 4 and then its one-word key
    words, and last its own key word.  Mixing in L >= 4 words takes 4 L
    hashes (4 fill the pool, 12 cross-mix it, 4 per further word), so
    the last word takes hashes 4 L .. 4 L + 3, one per pool word.  The
    state hashes the pool twice over.
    """
    words = max(4, -(-int(stream.entropy).bit_length() // 32)) + len(stream.spawn_key)
    hashed = _hashmix(last[:, None], _hash_consts(_INIT_A, _MULT_A, 4 * words, 5))
    pool = _MIX_L * stream.pool - _MIX_R * hashed
    pool ^= pool >> 16
    state = _hashmix(np.concatenate([pool, pool], axis=1), _STATE_CONSTS)
    # Pairs of words read little-endian, as generate_state reads them.
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@lru_cache(maxsize=None)
def _seed_words_type() -> type:
    """The seed sequence that hands PCG64 the 4 uint64 words it seeds from.

    Built on first use: its base class lives in numpy.random, whose
    import every ``import qpglab`` would otherwise pay.
    """

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds the 4 uint64 words that seed a PCG64 only")
            return self.words

    return SeedWords


def run_streams(seed: int, episodes: int) -> tuple[np.random.Generator, Iterator]:
    """The parameter-initialisation generator and the episode generators of a run.

    They are numpy's ``default_rng`` of children 0 and 1 of
    ``SeedSequence(seed)``, and episode ``e`` draws from ``default_rng``
    of child ``e`` of child 1; the iterator yields episodes 0 ..
    ``episodes - 1`` in order.  Their states are computed from the seed
    sequence's hash with no SeedSequence object per episode: the pool of
    child 1 is mixed once per run, and the rest on uint32 arrays once per
    chunk of episodes.  A key word is 32 bits, so a run has at most
    2**32 episodes.
    """
    if episodes > 1 << 32:
        raise ValueError("a run has at most 2**32 episodes: an index is one 32-bit word")
    init = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    return init, _episode_generators(np.random.SeedSequence(seed, spawn_key=(1,)), episodes)


def _episode_generators(stream, episodes: int) -> Iterator[np.random.Generator]:
    seed_words = _seed_words_type()
    for start in range(0, episodes, _STREAM_CHUNK):
        last = np.arange(start, min(start + _STREAM_CHUNK, episodes), dtype=np.uint32)
        for words in _seed_words(stream, last):
            yield np.random.Generator(np.random.PCG64(seed_words(words)))


def collect_episodes(env, encoder, policy: Policy, bound: ansatz.BoundParams, rngs) -> Batch:
    """Run one episode per generator in lockstep, episode ``e`` on ``rngs[e]``.

    ``bound`` is the batch's parameter set as :func:`qpglab.ansatz.bind`
    binds it to the policy's model.  Each time step makes
    one ``encoder.encode`` call and one
    :func:`qpglab.policy.sample_action` call over the episodes still
    running, then one ``env.step`` per episode, and keeps one block of
    the live episodes' ids, rows, final amplitudes, actions and any
    softmax reduction; one stable sort of the ids orders the blocks'
    rows episode-major.  Every draw of episode ``e`` comes from
    ``rngs[e]`` in the order a lone run of it would make, so its steps
    equal the ones it gives when collected alone.  Episodes are
    truncated after ``env.horizon`` steps.  An empty ``rngs`` is refused.
    """
    if not len(rngs):
        raise ValueError("need at least one episode generator")
    states = [env.reset(rng) for rng in rngs]
    rewards = [[] for _ in rngs]
    blocks = []
    live = list(range(len(rngs)))
    for _ in range(env.horizon):
        if not live:
            break
        rows = encoder.encode([states[e] for e in live])
        chosen, *drawn = policy_mod.sample_action(policy, rows, bound, [rngs[e] for e in live])
        blocks.append((live, rows, chosen, *drawn))
        running = []
        for e, action in zip(live, chosen.tolist()):
            states[e], reward, terminal = env.step(states[e], action, rngs[e])
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
    so the returned parameters are those of the last full batch.
    """
    init_rng, episode_rngs = run_streams(seed, hyper.episodes)
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
        rngs = list(islice(episode_rngs, size))
        bound = ansatz.bind(policy.model, params)
        batch = collect_episodes(env, encoder, policy, bound, rngs)
        if size == hyper.batch_size:
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
