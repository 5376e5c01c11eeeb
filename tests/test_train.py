import numpy as np
import pytest

from qpglab import ansatz, decode, envs, policy, train


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
        grads = policy.trajectory_log_grads(pol, traj.features, traj.actions, params)
        total += train.discounted_returns(traj.rewards, gamma) @ grads
    return total / len(batch)


@pytest.mark.parametrize("task", ["cartpole_born", "bandit_softmax"])
def test_batched_reinforce_gradient_equals_per_trajectory_sum(task):
    env, encoder, pol = _cartpole() if task == "cartpole_born" else _bandit("softmax")
    rng = np.random.default_rng(9)
    params = ansatz.init_params(pol.model, rng)
    batch = [train.collect_episode(env, encoder, pol, params, rng) for _ in range(4)]
    batched = train.reinforce_gradient(batch, pol, params, 0.99)
    oracle = _per_trajectory_sum(batch, pol, params, 0.99)
    assert np.abs(batched - oracle).max() < 1e-12


def test_reinforce_gradient_makes_one_gradient_call(monkeypatch):
    env, encoder, pol = _cartpole()
    rng = np.random.default_rng(2)
    params = ansatz.init_params(pol.model, rng)
    batch = [train.collect_episode(env, encoder, pol, params, rng) for _ in range(3)]
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
