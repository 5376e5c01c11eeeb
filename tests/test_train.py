import numpy as np
import pytest

from qpglab import ansatz, decode, envs, policy, train
from oracles import collect_episode, episode_rngs


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


TASKS = {
    "cartpole_born": _cartpole,
    "bandit_born": lambda: _bandit("born"),
    "bandit_softmax": lambda: _bandit("softmax"),
    "slippery_lake_born": _slippery_lake,
}


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


def test_train_run_and_its_csv_are_byte_identical_on_rerun(tmp_path):
    env, encoder, pol = _bandit("softmax")
    hyper = train.Hyperparams(episodes=30, batch_size=5)
    first = train.train_run(env, encoder, pol, hyper, seed=4)
    second = train.train_run(env, encoder, pol, hyper, seed=4)
    assert first.records == second.records
    assert (first.params.flat() == second.params.flat()).all()
    assert (first.policy.weights == second.policy.weights).all()
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, result in zip(paths, (first, second)):
        train.write_learning_curve(path, result.records, ["seed = 4"])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _per_trajectory_sum(batch, pol, params, gamma):
    """Oracle: the REINFORCE gradient one trajectory at a time."""
    total = np.zeros(policy.num_trainables(pol))
    for traj in batch:
        grads = policy.trajectory_log_grads(pol, traj.features, traj.actions, params, traj.amps)
        total += train.discounted_returns(traj.rewards, gamma) @ grads
    return total / len(batch)


@pytest.mark.parametrize("task", ["cartpole_born", "bandit_softmax"])
def test_batched_reinforce_gradient_equals_per_trajectory_sum(task):
    env, encoder, pol = _cartpole() if task == "cartpole_born" else _bandit("softmax")
    params = ansatz.init_params(pol.model, np.random.default_rng(9))
    batch = train.collect_episodes(env, encoder, pol, params, episode_rngs(9, 4))
    batched = train.reinforce_gradient(batch, pol, params, 0.99)
    oracle = _per_trajectory_sum(batch, pol, params, 0.99)
    assert np.abs(batched - oracle).max() < 1e-12


def test_reinforce_gradient_makes_one_gradient_call(monkeypatch):
    env, encoder, pol = _cartpole()
    params = ansatz.init_params(pol.model, np.random.default_rng(2))
    batch = train.collect_episodes(env, encoder, pol, params, episode_rngs(2, 3))
    calls = []
    grads = policy.trajectory_log_grads
    monkeypatch.setattr(
        policy, "trajectory_log_grads", lambda *args: calls.append(len(args[2])) or grads(*args)
    )
    train.reinforce_gradient(batch, pol, params, 0.99)
    assert calls == [sum(len(traj) for traj in batch)]


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


def _same_trajectories(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for field in ("features", "amps", "actions", "rewards"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("size", [1, 3, 10])
@pytest.mark.parametrize("task", TASKS)
def test_lockstep_episodes_equal_one_at_a_time(task, size):
    env, encoder, pol = TASKS[task]()
    params = ansatz.init_params(pol.model, np.random.default_rng(size))
    lockstep = train.collect_episodes(env, encoder, pol, params, episode_rngs(5, size))
    alone = [collect_episode(env, encoder, pol, params, rng) for rng in episode_rngs(5, size)]
    _same_trajectories(lockstep, alone)
    for traj in lockstep:
        states = ansatz.run_states(pol.model, params, traj.features)
        assert traj.amps.shape == states.shape and traj.amps.tobytes() == states.tobytes()
    if size == 10 and not task.startswith("bandit"):
        assert len({len(traj) for traj in lockstep}) > 1  # episodes end at different steps


@pytest.mark.parametrize("size,episodes", [(1, 3), (3, 7), (10, 23)])
@pytest.mark.parametrize("task", ["cartpole_born", "slippery_lake_born", "bandit_softmax"])
def test_train_run_batches_equal_one_at_a_time(monkeypatch, task, size, episodes):
    env, encoder, pol = TASKS[task]()
    lockstep = train.collect_episodes
    sizes = []

    def checked(env, encoder, pol, params, rngs):
        copies = [np.random.default_rng() for _ in rngs]
        for copy, rng in zip(copies, rngs):
            copy.bit_generator.state = rng.bit_generator.state
        batch = lockstep(env, encoder, pol, params, rngs)
        _same_trajectories(batch, [collect_episode(env, encoder, pol, params, c) for c in copies])
        sizes.append(len(rngs))
        return batch

    monkeypatch.setattr(train, "collect_episodes", checked)
    hyper = train.Hyperparams(batch_size=size, episodes=episodes)
    result = train.train_run(env, encoder, pol, hyper, seed=11)
    tail = episodes % size
    assert sizes == [size] * (episodes // size) + ([tail] if tail else [])
    assert [rec.episode for rec in result.records] == list(range(episodes))


def test_run_streams_are_separate_children_of_the_seed():
    init, episodes = train.run_streams(4)
    first, second = np.random.SeedSequence(4).spawn(2)
    assert init.random(3).tolist() == np.random.default_rng(first).random(3).tolist()
    assert (episodes.entropy, episodes.spawn_key) == (4, second.spawn_key) == (4, (1,))


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

    def sample_action(pol, feats, params, rngs):
        actions = np.array([choose(row) for row in feats], dtype=np.int64)
        return actions, ansatz.run_states(pol.model, params, feats)

    monkeypatch.setattr(policy, "sample_action", sample_action)


def test_runner_truncates_frozenlake_at_the_horizon(monkeypatch):
    _fixed_actions(monkeypatch, lambda row: 3)  # "up" keeps the start cell
    _, encoder, pol = _slippery_lake()
    lake = envs.FrozenLake(horizon=3)
    params = ansatz.init_params(pol.model, np.random.default_rng(0))
    batch = train.collect_episodes(lake, encoder, pol, params, episode_rngs(0, 2))
    for traj in batch:
        assert traj.rewards.tolist() == [-1.0, -1.0, -1.0]
        assert traj.actions.tolist() == [3, 3, 3]


def test_runner_truncates_cartpole_at_the_horizon(monkeypatch):
    # A balancing push never fails, so every episode runs to the horizon;
    # a straight push ends the same batch early.
    _, encoder, pol = _cartpole()
    params = ansatz.init_params(pol.model, np.random.default_rng(0))
    for version, horizon in (("v0", 200), ("v1", 500)):
        _fixed_actions(monkeypatch, lambda row: int(row[2] + 0.5 * row[3] > 0))
        batch = train.collect_episodes(
            envs.CartPole(version), encoder, pol, params, episode_rngs(1, 3)
        )
        assert [traj.total_reward for traj in batch] == [float(horizon)] * 3
    _fixed_actions(monkeypatch, lambda row: 1)
    batch = train.collect_episodes(envs.CartPole(), encoder, pol, params, episode_rngs(1, 3))
    assert all(len(traj) < 200 for traj in batch)


@pytest.mark.parametrize("length", [1, 19, 20, 21, 300])
def test_trailing_means_equal_per_episode_means_bit_for_bit(length):
    rng = np.random.default_rng(length)
    for scale in (0.37, 10.0):
        rewards = np.round(rng.uniform(-1, 1, length), 2) * scale
        expected = [float(np.mean(rewards[max(0, k - 19) : k + 1])) for k in range(length)]
        got = train._trailing_means(rewards.tolist(), 20)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
