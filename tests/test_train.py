import math
from fractions import Fraction

import numpy as np
import pytest

from qpglab import analysis, ansatz, decode, envs, policy, train
from oracles import (
    collect_alone,
    draw,
    draw_key,
    exact_policy_gradient,
    splitmix64,
    train_run as train_alone,
)


def _bandit(kind="born"):
    env = envs.ContextualBandits(8, 4, envs.optimal_map("blocks", 8, 4), "acc01")
    model = ansatz.ModelConfig(3, 2)
    if kind == "born":
        pol = policy.MeasurementPolicy(model, decode.RecursiveParity(3, 4))
    else:
        pol = policy.SoftmaxObservablePolicy(model, np.array([0.3, -0.2, 0.5, 0.1]))
    return env, envs.BinaryEncoder(3), pol


def _cartpole():
    model = ansatz.ModelConfig(4, 2)
    pol = policy.MeasurementPolicy(model, decode.RecursiveParity(4, 2))
    return envs.CartPole("v0"), envs.cartpole_encoder(), pol


def _slippery_lake():
    model = ansatz.ModelConfig(4, 1)
    pol = policy.MeasurementPolicy(model, decode.RecursiveParity(4, 4))
    return envs.FrozenLake(horizon=30, slippery=True), envs.BinaryEncoder(4), pol


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("alpha_theta", float("nan"), "learning rates must be finite and positive"),
        ("alpha_lambda", float("inf"), "learning rates must be finite and positive"),
        ("alpha_w", 0.0, "learning rates must be finite and positive"),
        ("theta_scale", -0.1, "theta_scale must be finite and >= 0"),
        ("theta_scale", float("nan"), "theta_scale must be finite and >= 0"),
        ("lambda_init", float("nan"), "lambda_init must be finite"),
        ("lambda_init", float("-inf"), "lambda_init must be finite"),
        ("theta_init", "bogus", "theta_init must be 'uniform' or 'normal'"),
    ],
    ids=[
        "alpha-theta-nan",
        "alpha-lambda-inf",
        "alpha-w-zero",
        "scale-negative",
        "scale-nan",
        "lambda-init-nan",
        "lambda-init-inf",
        "theta-init-unknown",
    ],
)
def test_hyperparams_reject_non_finite_and_out_of_range_values(key, value, message):
    with pytest.raises(ValueError, match=message):
        train.Hyperparams(**{key: value})


TASKS = {
    "cartpole_born": _cartpole,
    "bandit_born": lambda: _bandit("born"),
    "bandit_softmax": lambda: _bandit("softmax"),
    "slippery_lake_born": _slippery_lake,
}


def _lake(kind):
    """Slippery 4x4 lake with non-integer rewards, so totals round."""
    rewards = envs.FrozenLakeRewards(-0.1, -1.3, 2.7)
    model = ansatz.ModelConfig(4, 1)
    if kind == "born":
        pol = policy.MeasurementPolicy(model, decode.RecursiveParity(4, 4))
    else:
        pol = policy.SoftmaxObservablePolicy(model, np.array([0.4, -0.3, 0.2, 0.6]), beta=2.0)
    lake = envs.FrozenLake(rewards=rewards, horizon=30, slippery=True)
    return lake, envs.BinaryEncoder(4), pol


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("kind", ["born", "softmax"])
def test_flat_batches_train_as_per_episode_arrays(kind, seed):
    # Batch 7 with a ragged tail of 3; the oracle collects each episode
    # alone, sums its rewards exactly and rounds once, takes its returns
    # alone and forms each update's gradient episode-major.
    env, encoder, pol = _lake(kind)
    hyper = train.Hyperparams(batch_size=7, episodes=31, alpha_theta=0.05, alpha_lambda=0.05)
    got = train.train_run(env, encoder, pol, hyper, seed)
    expected = train_alone(env, encoder, pol, hyper, seed)
    assert got.records == expected.records
    assert got.params.flat().tobytes() == expected.params.flat().tobytes()
    if kind == "softmax":
        assert got.policy.weights.tobytes() == expected.policy.weights.tobytes()


def test_reward_totals_are_fsum_and_keep_numpy_bits_on_integer_rewards():
    # Integer-valued rewards (CartPole, bandits, the default lake) sum
    # exactly, so the totals keep np.sum's bits; others round once.
    rng = np.random.default_rng(4)
    for length in [1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 257, 1000, 4099]:
        steps = rng.choice([-0.1, -1.3, 2.7], size=length).tolist()
        assert math.fsum(steps) == float(sum(map(Fraction, steps)))
        whole = rng.integers(-3, 4, size=length).astype(float)
        assert np.float64(math.fsum(whole.tolist())).tobytes() == whole.sum().tobytes()


def test_softmax_update_reduces_each_rollout_step_once(monkeypatch):
    # Sampling reduces each time step's rows; the gradient reuses them.
    env, encoder, pol = _lake("softmax")
    params = ansatz.init_params(pol.model, np.random.default_rng(1))
    reduce = policy._reduce
    reduced_rows = []
    monkeypatch.setattr(
        policy, "_reduce", lambda pol, amps: reduced_rows.append(len(amps)) or reduce(pol, amps)
    )
    bound = ansatz.bind(pol.model, params)
    batch = train.collect_episodes(env, encoder, pol, bound, train.run_key(2), range(7))
    lengths = [len(rewards) for rewards in batch.rewards]
    assert reduced_rows == [sum(n > t for n in lengths) for t in range(max(lengths))]
    reduced_rows.clear()
    train.reinforce_gradient(batch, pol, bound, 0.99)
    assert reduced_rows == []


def _exact_gradient_bandit(kind):
    """An 8-state, 4-action ``acc01`` bandit on the ``mod`` map, at n = 3,
    d = 2, with every trainable drawn uniformly from [-pi, pi) by
    ``default_rng(0)``, as ``sample_fims`` draws its sets."""
    env = envs.ContextualBandits(8, 4, envs.optimal_map("mod", 8, 4), "acc01")
    model = ansatz.ModelConfig(3, 2)
    if kind == "born":
        pol = policy.MeasurementPolicy(model, decode.RecursiveParity(3, 4))
    else:
        pol = policy.SoftmaxObservablePolicy(model, np.zeros(4), beta=1.3)
    flat = np.random.default_rng(0).uniform(-np.pi, np.pi, policy.num_trainables(pol))
    params, pol = policy.apply_flat(pol, flat)
    return env, envs.BinaryEncoder(3), pol, params


@pytest.mark.parametrize("kind", ["born", "softmax"])
def test_exact_policy_gradient_matches_finite_differences_of_exact_accuracy(kind):
    # Under acc01 rewards the expected reward is the exact accuracy.
    env, encoder, pol, params = _exact_gradient_bandit(kind)
    flat = policy.flat_trainables(pol, params)
    h = 1e-5
    fd = np.empty_like(flat)
    for j in range(len(flat)):
        values = []
        for step in (h, -h):
            shifted = flat.copy()
            shifted[j] += step
            params_j, pol_j = policy.apply_flat(pol, shifted)
            values.append(analysis.exact_accuracy(env, encoder, pol_j, params_j))
        fd[j] = (values[0] - values[1]) / (2 * h)
    exact = exact_policy_gradient(env, encoder, pol, params)
    assert np.abs(exact).max() > 1e-2
    assert np.abs(exact - fd).max() < 1e-8


@pytest.mark.parametrize("kind", ["born", "softmax"])
def test_mean_reinforce_gradient_is_the_exact_gradient_on_a_bandit(kind):
    """At gamma = 1 a bandit's REINFORCE estimate is unbiased for the exact gradient.

    K = 300 batches of 50 episodes (0.3 s per policy, a few percent of
    the tier-1 suite), from the draws of seed 0, and the
    parameters of :func:`_exact_gradient_bandit`; both were fixed before
    the first run.  Each live coordinate's z-score, the mean's distance
    from the exact gradient over its standard error, is near standard
    normal at this K; |z| < 4.5 has a false-alarm rate below 1e-4 per
    coordinate.  The n layer-0 Rz angles move no probability, so both
    sides are rounding noise there, far below 1e-14.
    """
    env, encoder, pol, params = _exact_gradient_bandit(kind)
    bound = ansatz.bind(pol.model, params)
    batches, size = 300, 50
    key = train.run_key(0)
    estimates = np.array(
        [
            train.reinforce_gradient(
                train.collect_episodes(env, encoder, pol, bound, key, range(start, start + size)),
                pol,
                bound,
                1.0,
            )
            for start in range(0, batches * size, size)
        ]
    )
    exact = exact_policy_gradient(env, encoder, pol, params)
    dead = np.arange(0, 2 * pol.model.n_qubits, 2)
    live = np.setdiff1d(np.arange(len(exact)), dead)
    error = estimates.mean(axis=0) - exact
    stderr = estimates.std(axis=0, ddof=1) / np.sqrt(batches)
    assert np.abs(error[live] / stderr[live]).max() < 4.5
    assert np.abs(estimates[:, dead]).max() < 1e-14
    assert np.abs(exact[dead]).max() < 1e-14


def test_discounted_returns_hand_worked():
    # G2 = 2, G1 = 0 + 0.5 * 2 = 1, G0 = 1 + 0.5 * 1 = 1.5.
    assert list(train.discounted_returns([1.0, 0.0, 2.0], 0.5)) == [1.5, 1.0, 2.0]
    assert list(train.discounted_returns([1.0, 1.0, 1.0], 1.0)) == [3.0, 2.0, 1.0]
    assert list(train.discounted_returns([4.0, 3.0], 0.0)) == [4.0, 3.0]
    with pytest.raises(ValueError):
        train.discounted_returns([], 0.9)


def test_amsgrad_step_against_hand_computed_moments():
    state = train.AdamState(2)
    flat = np.array([1.0, -2.0])
    rates = np.array([0.1, 0.2])
    g1 = np.array([0.5, -1.0])
    out = train.adam_amsgrad_step(state, flat, g1, rates)
    # m = 0.1 g, v = 0.001 g^2; bias correction gives m_hat = g, v_hat = g^2.
    assert state.step == 1
    assert np.allclose(state.m, [0.05, -0.1], rtol=1e-15, atol=0)
    assert np.allclose(state.v, [0.00025, 0.001], rtol=1e-15, atol=0)
    assert (state.v_max == state.v).all()
    assert np.allclose(out, flat + rates * g1 / (np.abs(g1) + 1e-8), rtol=1e-14, atol=0)

    # A zero gradient shrinks v, but AMSGrad keeps the running maximum.
    v1 = state.v.copy()
    out2 = train.adam_amsgrad_step(state, out, np.zeros(2), rates)
    assert np.allclose(state.m, 0.9 * np.array([0.05, -0.1]), rtol=1e-15, atol=0)
    assert np.allclose(state.v, 0.999 * v1, rtol=1e-15, atol=0)
    assert (state.v_max == v1).all()
    m_hat = state.m / (1 - 0.9**2)
    v_hat = v1 / (1 - 0.999**2)
    assert np.allclose(out2, out + rates * m_hat / (np.sqrt(v_hat) + 1e-8), rtol=1e-14, atol=0)


def test_amsgrad_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        train.adam_amsgrad_step(train.AdamState(2), np.zeros(2), np.zeros(3), np.zeros(2))


def test_train_run_is_identical_on_rerun():
    env, encoder, pol = _bandit("softmax")
    hyper = train.Hyperparams(episodes=30, batch_size=5)
    first = train.train_run(env, encoder, pol, hyper, seed=4)
    second = train.train_run(env, encoder, pol, hyper, seed=4)
    assert first.records == second.records
    assert (first.params.flat() == second.params.flat()).all()
    assert (first.policy.weights == second.policy.weights).all()


def _per_trajectory_sum(batch, pol, bound, gamma):
    """Oracle: the REINFORCE gradient one episode at a time."""
    total = np.zeros(policy.num_trainables(pol))
    start = 0
    for rewards in batch.rewards:
        steps = slice(start, start + len(rewards))
        start = steps.stop
        grads = policy.trajectory_log_grads(
            pol, batch.features[steps], batch.actions[steps], bound, batch.amps[steps]
        )
        total += np.array(train.discounted_returns(rewards, gamma)) @ grads
    return total / len(batch.rewards)


@pytest.mark.parametrize("task", ["cartpole_born", "bandit_softmax"])
def test_batched_reinforce_gradient_equals_per_trajectory_sum(task):
    env, encoder, pol = _cartpole() if task == "cartpole_born" else _bandit("softmax")
    bound = ansatz.bind(pol.model, ansatz.init_params(pol.model, np.random.default_rng(9)))
    batch = train.collect_episodes(env, encoder, pol, bound, train.run_key(9), range(4))
    batched = train.reinforce_gradient(batch, pol, bound, 0.99)
    oracle = _per_trajectory_sum(batch, pol, bound, 0.99)
    assert np.abs(batched - oracle).max() < 1e-12


def test_reinforce_gradient_makes_one_gradient_call(monkeypatch):
    env, encoder, pol = _cartpole()
    bound = ansatz.bind(pol.model, ansatz.init_params(pol.model, np.random.default_rng(2)))
    batch = train.collect_episodes(env, encoder, pol, bound, train.run_key(2), range(3))
    calls = []
    grads = policy.trajectory_log_grads
    monkeypatch.setattr(
        policy, "trajectory_log_grads", lambda *args: calls.append(len(args[2])) or grads(*args)
    )
    train.reinforce_gradient(batch, pol, bound, 0.99)
    assert calls == [sum(map(len, batch.rewards))] == [len(batch.actions)]


@pytest.mark.parametrize("task", ["cartpole_born", "bandit_softmax"])
def test_collect_episodes_encodes_once_per_time_step(task):
    # One encode call per lockstep time step, over the live episodes.
    env, encoder, pol = TASKS[task]()
    bound = ansatz.bind(pol.model, ansatz.init_params(pol.model, np.random.default_rng(6)))
    live_counts = []

    class CountingEncoder:
        def encode(self, states):
            live_counts.append(len(states))
            return encoder.encode(states)

    batch = train.collect_episodes(env, CountingEncoder(), pol, bound, train.run_key(3), range(6))
    lengths = [len(rewards) for rewards in batch.rewards]
    assert len(live_counts) == max(lengths)
    assert live_counts == [sum(length > t for length in lengths) for t in range(max(lengths))]


def test_collect_episodes_refuses_an_empty_generator_list():
    # No episode would leave no block to gather; the refusal comes first,
    # before any encode, circuit call or step.
    env, encoder, pol = _cartpole()
    bound = ansatz.bind(pol.model, ansatz.init_params(pol.model, np.random.default_rng(7)))
    with pytest.raises(ValueError, match="need at least one episode"):
        train.collect_episodes(env, None, pol, bound, train.run_key(0), [])


def test_trailing_partial_batch_is_logged_but_not_used(monkeypatch):
    env, encoder, pol = _bandit("born")
    updates = []
    step = train.adam_amsgrad_step
    monkeypatch.setattr(
        train, "adam_amsgrad_step", lambda *args: updates.append(1) or step(*args)
    )
    full = train.train_run(env, encoder, pol, train.Hyperparams(episodes=6, batch_size=3), 7)
    assert len(updates) == 2
    ragged = train.train_run(env, encoder, pol, train.Hyperparams(episodes=8, batch_size=3), 7)
    assert len(updates) == 4  # episodes 7 and 8 trigger no update
    assert len(ragged.records) == 8
    assert ragged.records[:6] == full.records
    assert (ragged.params.flat() == full.params.flat()).all()


def _same_arrays(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _same_trajectories(got, expected):
    """Two batches hold the same steps, bit for bit, and the same rewards."""
    for field in ("features", "amps", "actions"):
        _same_arrays(getattr(got, field), getattr(expected, field))
    assert (got.reduced is None) == (expected.reduced is None)
    for x, y in zip(got.reduced or (), expected.reduced or ()):
        _same_arrays(x, y)
    assert got.rewards == expected.rewards
    assert all(type(reward) is float for rewards in got.rewards for reward in rewards)


@pytest.mark.parametrize("size", [1, 3, 10])
@pytest.mark.parametrize("task", TASKS)
def test_lockstep_episodes_equal_one_at_a_time(task, size):
    env, encoder, pol = TASKS[task]()
    params = ansatz.init_params(pol.model, np.random.default_rng(size))
    bound = ansatz.bind(pol.model, params)
    lockstep = train.collect_episodes(env, encoder, pol, bound, train.run_key(5), range(size))
    alone = collect_alone(env, encoder, pol, params, draw_key(5), range(size))
    _same_trajectories(lockstep, alone)
    states = ansatz.run_bound(bound, lockstep.features)
    _same_arrays(lockstep.amps, states)
    if size == 10 and not task.startswith("bandit"):
        # Episodes end at different steps.
        assert len({len(rewards) for rewards in lockstep.rewards}) > 1


@pytest.mark.parametrize("size,episodes", [(1, 3), (3, 7), (10, 23)])
@pytest.mark.parametrize("task", ["cartpole_born", "slippery_lake_born", "bandit_softmax"])
def test_train_run_batches_equal_one_at_a_time(monkeypatch, task, size, episodes):
    env, encoder, pol = TASKS[task]()
    # Each batch gets the run's key and its own run of episode indices.
    lockstep = train.collect_episodes
    handed = []

    def checked(env, encoder, pol, bound, key, indices):
        batch = lockstep(env, encoder, pol, bound, key, indices)
        params = ansatz.ParamSet(bound.theta.ravel(), bound.lam.ravel())
        handed.append(indices.tolist())
        assert int(key[0]) == draw_key(11)
        alone = collect_alone(env, encoder, pol, params, draw_key(11), handed[-1])
        _same_trajectories(batch, alone)
        return batch

    monkeypatch.setattr(train, "collect_episodes", checked)
    hyper = train.Hyperparams(batch_size=size, episodes=episodes)
    result = train.train_run(env, encoder, pol, hyper, seed=11)
    starts = range(0, episodes, size)
    assert handed == [list(range(s, min(s + size, episodes))) for s in starts]
    assert [rec.episode for rec in result.records] == list(range(episodes))


@pytest.mark.parametrize("task", ["cartpole_born", "bandit_softmax"])
def test_each_batch_binds_its_parameters_once(monkeypatch, task):
    # train_run binds each batch's parameters once, the trailing partial
    # batch included, and hands that one bound stack to every step of
    # the rollout and to the gradient; neither binds again.
    env, encoder, pol = TASKS[task]()
    bind, collect, gradient = ansatz.bind, train.collect_episodes, train.reinforce_gradient
    bound, collected, differentiated = [], [], []
    monkeypatch.setattr(ansatz, "bind", lambda *args: bound.append(bind(*args)) or bound[-1])

    def collected_with(env, encoder, pol, bound, key, episodes):
        collected.append(bound)
        return collect(env, encoder, pol, bound, key, episodes)

    def differentiated_with(batch, pol, bound, gamma):
        differentiated.append(bound)
        return gradient(batch, pol, bound, gamma)

    monkeypatch.setattr(train, "collect_episodes", collected_with)
    monkeypatch.setattr(train, "reinforce_gradient", differentiated_with)
    train.train_run(env, encoder, pol, train.Hyperparams(batch_size=4, episodes=10), seed=3)
    assert len(bound) == 3
    assert all(got is want for got, want in zip(collected, bound, strict=True))
    assert all(got is want for got, want in zip(differentiated, bound[:2], strict=True))


# Seeds of one and of several 32-bit words; 2**130 + 1 has more words
# than SeedSequence's pool.
KEY_SEEDS = [0, 11, 2**32 - 1, 2**32, 2**64 + 7, 2**130 + 1]
# The first and last episode indices and steps a counter holds.
EDGE_EPISODES = [0, 1, 2**32 - 2, 2**32 - 1]
EDGE_STEPS = [0, 1, 63, 64, 2**30 - 2, 2**30 - 1]
KINDS = (train.RESET, train.ACTION, train.TRANSITION)


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_draws_equal_the_scalar_splitmix64_bit_for_bit(seed):
    # One array call against one Python-int hash per entry, at the edges
    # of the layout and at every kind.
    key = train.run_key(seed)
    assert key.dtype == np.uint64 and key.shape == (1,)
    assert int(key[0]) == draw_key(seed)
    episodes = np.array(EDGE_EPISODES, dtype=np.uint64)
    steps = np.array(EDGE_STEPS, dtype=np.uint64)
    got = train.uniforms(key, episodes, steps)
    expected = [
        [[draw(int(key[0]), e, t, kind) for kind in KINDS] for t in EDGE_STEPS]
        for e in EDGE_EPISODES
    ]
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(expected).tobytes()


def test_draws_are_splitmix64_outputs_in_order():
    # SplitMix64 seeded with 0 starts 0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4,
    # 0x06c45d188009454f (Vigna's reference code); under key 0, counters
    # 0, 1, 2 are (episode 0, step 0) of the three kinds.
    published = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    assert [splitmix64(0, index) for index in range(3)] == published
    zero = np.zeros(1, dtype=np.uint64)
    got = train.uniforms(zero, zero, zero)[0, 0]
    assert got.tolist() == [(word >> 11) * 2.0**-53 for word in published]
    assert KINDS == (0, 1, 2)
    # Episode e, step t and kind k is counter (e * 2**30 + t) * 4 + k.
    assert draw(5, 3, 7, train.ACTION) == (splitmix64(5, (3 * 2**30 + 7) * 4 + 1) >> 11) * 2.0**-53


def test_draw_layout_is_injective_at_its_edges_and_refuses_more():
    # Distinct (episode, step, kind) take distinct counters below 2**64;
    # SplitMix64 is a bijection of its counter, so their draws differ too.
    triples = [(e, t, k) for e in EDGE_EPISODES for t in EDGE_STEPS for k in KINDS]
    counters = {(e * 2**30 + t) * 4 + k for e, t, k in triples}
    assert len(counters) == len(triples) and max(counters) == 2**64 - 2
    key = train.run_key(0)
    episodes = np.array(EDGE_EPISODES, dtype=np.uint64)
    steps = np.array(EDGE_STEPS, dtype=np.uint64)
    values = train.uniforms(key, episodes, steps).ravel()
    assert len(set(values.tolist())) == len(triples)
    env, encoder, pol = _bandit("softmax")
    with pytest.raises(ValueError, match="at most 2\\*\\*32 episodes"):
        train.train_run(env, encoder, pol, train.Hyperparams(episodes=2**32 + 1), 0)
    lake = envs.FrozenLake(horizon=2**30 + 1)
    with pytest.raises(ValueError, match="a horizon has at most 2\\*\\*30 steps, got 1073741825"):
        train.train_run(lake, envs.BinaryEncoder(4), _slippery_lake()[2], train.Hyperparams(), 0)
    # A lone batch is refused too, before any draw or step.
    bound = ansatz.bind(pol.model, ansatz.init_params(pol.model, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="episode indices lie below 2\\*\\*32, got 4294967296"):
        train.collect_episodes(env, encoder, pol, bound, train.run_key(0), [0, 2**32])


def test_draws_are_uniform_and_uncorrelated():
    """2**20 draws of the action kind: episodes and steps 0-1023 under
    the key of seed 0, both fixed before the first run.

    Chi-square over 64 equal bins, 63 degrees of freedom: the bound
    131.4 is its 1 - 1e-6 quantile (scipy.stats.chi2.isf(1e-6, 63)).
    Lag-1 correlations, each over about 2**20 pairs, have a standard
    error of 2**-10 under independence; |r| < 5 * 2**-10 is a two-sided
    false-alarm rate below 1e-6.  Adjacent episodes are counters 2**32
    apart, adjacent steps 4 apart and the action and transition kinds of
    one step 1 apart.
    """
    key = train.run_key(0)
    index = np.arange(1024, dtype=np.uint64)
    # Blocks of 128 episodes keep the hash's temporaries small.
    draws = [train.uniforms(key, index[i : i + 128], index) for i in range(0, 1024, 128)]
    u = np.concatenate([block[..., train.ACTION] for block in draws])
    moves = np.concatenate([block[..., train.TRANSITION] for block in draws])
    counts = np.bincount((u * 64).astype(np.int64).ravel(), minlength=64)
    expected = u.size / 64
    assert ((counts - expected) ** 2 / expected).sum() < 131.4
    pairs = [(u[:-1], u[1:]), (u[:, :-1], u[:, 1:]), (u, moves)]
    for x, y in pairs:
        assert abs(np.corrcoef(x.ravel(), y.ravel())[0, 1]) < 5 * 2**-10


def test_lockstep_draws_cross_step_blocks():
    # On an open 5x5 slippery lake, episodes run past the 64-step blocks
    # of hashed draws, and end at different steps.
    grid = ["SFFFF", "FFFFF", "FFFFF", "FFFFF", "FFFFG"]
    lake = envs.FrozenLake(grid, horizon=150, slippery=True)
    pol = policy.MeasurementPolicy(ansatz.ModelConfig(5, 1), decode.RecursiveParity(5, 4))
    params = ansatz.init_params(pol.model, np.random.default_rng(12))
    bound = ansatz.bind(pol.model, params)
    encoder = envs.BinaryEncoder(5)
    lockstep = train.collect_episodes(lake, encoder, pol, bound, train.run_key(12), range(6))
    _same_trajectories(lockstep, collect_alone(lake, encoder, pol, params, draw_key(12), range(6)))
    lengths = [len(rewards) for rewards in lockstep.rewards]
    assert max(lengths) > 2 * train._DRAW_BLOCK and len(set(lengths)) > 1


def test_first_batch_does_not_depend_on_batch_size():
    # Episodes 0-2 run under the initial parameters in both runs.
    env, encoder, pol = _cartpole()
    runs = [
        train.train_run(env, encoder, pol, train.Hyperparams(batch_size=b, episodes=3), seed=8)
        for b in (3, 10)
    ]
    assert runs[0].records == runs[1].records


def _fixed_actions(monkeypatch, choose):
    """Replace the policy's draws by ``choose(feature_row)``."""

    def sample_action(pol, feats, bound, draws):
        actions = np.array([choose(row) for row in feats], dtype=np.int64)
        return actions, ansatz.run_bound(bound, feats), None

    monkeypatch.setattr(policy, "sample_action", sample_action)


def test_runner_truncates_frozenlake_at_the_horizon(monkeypatch):
    _fixed_actions(monkeypatch, lambda row: 3)  # "up" keeps the start cell
    _, encoder, pol = _slippery_lake()
    lake = envs.FrozenLake(horizon=3)
    bound = ansatz.bind(pol.model, ansatz.init_params(pol.model, np.random.default_rng(0)))
    batch = train.collect_episodes(lake, encoder, pol, bound, train.run_key(0), range(2))
    assert batch.rewards == [[-1.0, -1.0, -1.0]] * 2
    assert batch.actions.tolist() == [3] * 6


def test_runner_truncates_cartpole_at_the_horizon(monkeypatch):
    # A balancing push never fails, so every episode runs to the horizon;
    # a straight push ends the same batch early.
    _, encoder, pol = _cartpole()
    bound = ansatz.bind(pol.model, ansatz.init_params(pol.model, np.random.default_rng(0)))
    for version, horizon in (("v0", 200), ("v1", 500)):
        _fixed_actions(monkeypatch, lambda row: int(row[2] + 0.5 * row[3] > 0))
        batch = train.collect_episodes(
            envs.CartPole(version), encoder, pol, bound, train.run_key(1), range(3)
        )
        assert [math.fsum(rewards) for rewards in batch.rewards] == [float(horizon)] * 3
    _fixed_actions(monkeypatch, lambda row: 1)
    batch = train.collect_episodes(
        envs.CartPole(), encoder, pol, bound, train.run_key(1), range(3)
    )
    assert all(len(rewards) < 200 for rewards in batch.rewards)


@pytest.mark.parametrize("length", [1, 19, 20, 21, 300])
def test_trailing_means_equal_per_episode_means_bit_for_bit(length):
    rng = np.random.default_rng(length)
    for scale in (0.37, 10.0):
        rewards = np.round(rng.uniform(-1, 1, length), 2) * scale
        expected = [float(np.mean(rewards[max(0, k - 19) : k + 1])) for k in range(length)]
        got = train._trailing_means(rewards.tolist(), 20)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
