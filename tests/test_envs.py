import numpy as np
import pytest

from qpglab import envs


def test_optimal_map_kinds():
    assert list(envs.optimal_map("blocks", 8, 4)) == [0, 0, 1, 1, 2, 2, 3, 3]
    assert list(envs.optimal_map("mod", 6, 3)) == [0, 1, 2, 0, 1, 2]
    assert list(envs.optimal_map("bit:1", 8, 2)) == [0, 0, 1, 1, 0, 0, 1, 1]
    assert list(envs.optimal_map("list:1,0,1", 3, 2)) == [1, 0, 1]
    with pytest.raises(ValueError):
        envs.optimal_map("list:0,1", 3, 2)
    with pytest.raises(ValueError):
        envs.optimal_map("bit:0", 8, 4)


@pytest.mark.parametrize("kind", ["bit:3", "bit:7", "bit:-1", "bit:x", "bit:1.5"])
def test_bit_map_needs_a_bit_of_the_state_index(kind):
    # At 8 states only bits 0-2 vary; any other bit would give a constant map.
    with pytest.raises(ValueError, match=f"'{kind}' needs a bit index j with 0 <= j < 3"):
        envs.optimal_map(kind, 8, 2)
    assert list(envs.optimal_map("bit:2", 8, 2)) == [0, 0, 0, 0, 1, 1, 1, 1]


def _bandit(num_states=8, num_actions=2, scheme="pm1", map_kind="bit:1"):
    mapping = envs.optimal_map(map_kind, num_states, num_actions)
    return envs.ContextualBandits(num_states, num_actions, mapping, scheme)


def test_bandit_episode_shape():
    env = _bandit()
    state = env.reset(np.random.default_rng(0).random(4))
    assert 0 <= state < 8
    next_state, reward, terminal = env.step(state, 0)
    assert terminal and next_state == state
    assert reward in (-1.0, 1.0)


def test_bandit_uniform_random_policy_expectations():
    # Analytic: uniform actions hit the optimum with probability 1/M,
    # so pm1 gives (2-M)/M and acc01 gives 1/M.
    rng = np.random.default_rng(1)
    env8 = _bandit(8, 8, "pm1", "mod")
    total = 0.0
    episodes = 40_000
    for _ in range(episodes):
        state = env8.reset(rng.random(4))
        _, r, _ = env8.step(state, int(rng.integers(8)))
        total += r
    assert abs(total / episodes - (2 - 8) / 8) < 0.02

    env4 = _bandit(8, 4, "acc01", "blocks")
    total = 0.0
    for _ in range(episodes):
        state = env4.reset(rng.random(4))
        _, r, _ = env4.step(state, int(rng.integers(4)))
        total += r
    assert abs(total / episodes - 0.25) < 0.01


def test_bandit_optimal_policy_expectation():
    env = _bandit(8, 4, "acc01", "blocks")
    rng = np.random.default_rng(2)
    for _ in range(200):
        state = env.reset(rng.random(4))
        _, reward, _ = env.step(state, int(env.optimal[state]))
        assert reward == 1.0


def test_bandit_uniformity_check():
    assert _bandit(8, 4, map_kind="blocks").is_uniform()
    assert not _bandit(8, 2, map_kind="list:0,0,0,0,0,0,0,1").is_uniform()


def test_bandit_rejects_bad_maps_and_actions():
    with pytest.raises(ValueError):
        envs.ContextualBandits(4, 2, [0, 1, 2, 0])
    with pytest.raises(ValueError):
        envs.ContextualBandits(4, 2, [0, 1, 1])
    env = _bandit()
    state = env.reset(np.random.default_rng(0).random(4))
    with pytest.raises(ValueError):
        env.step(state, 5)


def _bfs_shortest_path(lake):
    # Independent oracle: breadth-first search over non-hole cells.
    from collections import deque

    goal = "".join(lake.grid).index("G")
    frontier = deque([(lake.start, 0)])
    seen = {lake.start}
    while frontier:
        pos, dist = frontier.popleft()
        if pos == goal:
            return dist
        r, c = divmod(pos, lake.cols)
        for dr, dc in ((0, -1), (1, 0), (0, 1), (-1, 0)):
            nr, nc = r + dr, c + dc
            if not (0 <= nr < lake.rows and 0 <= nc < lake.cols):
                continue
            nxt = nr * lake.cols + nc
            if nxt in seen or lake.cell(nxt) == "H":
                continue
            seen.add(nxt)
            frontier.append((nxt, dist + 1))
    return None


# The largest uniform below 1.
TOP = np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("num_states", [1, 3, 8, 2**20])
def test_bandit_reset_maps_the_unit_interval_onto_every_state(num_states):
    # floor(S u) is 0 at u = 0 and S - 1, never S, just below u = 1.
    env = envs.ContextualBandits(num_states, 1, np.zeros(num_states, dtype=np.int64))
    assert env.reset(np.array([0.0, TOP, TOP, TOP])) == 0
    assert env.reset(np.array([TOP, 0.0, 0.0, 0.0])) == num_states - 1


def test_slippery_lake_turns_by_thirds_of_the_unit_interval():
    # From cell (2, 2), "down" lands on 14; a -1 turn goes left to 9, and
    # a +1 turn right into the hole at 11.
    lake = envs.FrozenLake(slippery=True)
    assert lake.step(10, 1, 0.0)[0] == 14
    assert lake.step(10, 1, 0.5)[0] == 9
    assert lake.step(10, 1, TOP)[:2] == (11, lake.rewards.hole)
    assert envs.FrozenLake().step(10, 1, TOP)[0] == 14  # not slippery: u unread


def test_cartpole_reset_spans_the_start_interval():
    env = envs.CartPole()
    assert (env.reset(np.zeros(4)) == -0.05).all()
    top = env.reset(np.full(4, TOP))
    assert ((0.05 - 1e-16 < top) & (top < 0.05)).all()
    # Each component reads its own uniform.
    assert env.reset(np.array([0.0, 0.5, TOP, 0.25])).tolist() == [-0.05, 0.0, top[2], -0.025]


def test_frozenlake_shortest_path_is_six_moves():
    assert _bfs_shortest_path(envs.FrozenLake()) == 6


def test_frozenlake_wall_clamp():
    lake = envs.FrozenLake()
    start = lake.reset()
    pos, _, _ = lake.step(start, 0)  # step left from the corner
    assert pos == lake.start
    pos, _, _ = lake.step(pos, 3)  # step up from the corner
    assert pos == lake.start


def test_frozenlake_rewards_and_termination():
    lake = envs.FrozenLake(rewards=envs.FrozenLakeRewards(-1.0, -50.0, 25.0))
    pos = lake.reset()
    pos, r, terminal = lake.step(pos, 2)  # onto frozen cell
    assert (r, terminal) == (-1.0, False)
    _, r, terminal = lake.step(pos, 1)  # (1,1) is a hole
    assert (r, terminal) == (-50.0, True)

    pos = lake.reset()
    total = 0.0
    # Down, down, right, right, down, right reaches the goal in 6 moves.
    for action in (1, 1, 2, 2, 1, 2):
        pos, r, terminal = lake.step(pos, action)
        total += r
    assert terminal
    assert total == -5.0 + 25.0


def test_frozenlake_counts_no_steps():
    # Truncation at the horizon is the runner's job (tests/test_train.py).
    lake = envs.FrozenLake(horizon=3)
    pos = lake.reset()
    flags = []
    for _ in range(5):
        pos, _, terminal = lake.step(pos, 3)
        flags.append(terminal)
    assert flags == [False] * 5
    with pytest.raises(ValueError):
        envs.FrozenLake(horizon=0)


def test_frozenlake_map_file(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("SF\nFG\n")
    lake = envs.FrozenLake.from_file(path)
    assert lake.rows == lake.cols == 2
    with pytest.raises(ValueError):
        envs.FrozenLake(("SF", "FF"))  # no goal
    with pytest.raises(ValueError):
        envs.FrozenLake(("SX", "FG"))  # bad cell


def test_cartpole_mirror_symmetry():
    env = envs.CartPole()
    start = np.array([0.01, -0.02, 0.03, 0.04])
    s_a, s_b = start.copy(), -start
    for action in (1, 0, 0, 1):
        s_a, _, _ = env.step(s_a, action)
        s_b, _, _ = env.step(s_b, 1 - action)
        assert np.abs(s_a + s_b).max() < 1e-15
    assert (start == [0.01, -0.02, 0.03, 0.04]).all()  # inputs are not written


def test_cartpole_counts_no_steps():
    # A balancing push keeps the pole up past the horizon; truncation is
    # the runner's job (tests/test_train.py).
    env = envs.CartPole("v0")
    state = np.zeros(4)
    for _ in range(2 * env.horizon):
        state, reward, terminal = env.step(state, int(state[2] + 0.5 * state[3] > 0))
        assert (reward, terminal) == (1.0, False)


def test_cartpole_random_baseline():
    rng = np.random.default_rng(0)
    env = envs.CartPole("v0")
    totals = []
    for _ in range(1000):
        state = env.reset(rng.random(4))
        total, terminal = 0.0, False
        while not terminal and total < env.horizon:
            state, r, terminal = env.step(state, int(rng.integers(2)))
            total += r
        totals.append(total)
    assert 20.0 < np.mean(totals) < 27.0


def test_cartpole_deterministic_given_seed():
    def rollout(seed):
        rng = np.random.default_rng(seed)
        env = envs.CartPole("v1")
        s = env.reset(rng.random(4))
        states = []
        for _ in range(50):
            s, _, terminal = env.step(s, int(rng.integers(2)))
            states.append(s)
            if terminal:
                break
        return np.array(states)

    assert (rollout(7) == rollout(7)).all()


def test_cartpole_v1_horizon():
    assert envs.CartPole("v1").horizon == 500


def test_binary_encoder_msb_first():
    enc = envs.BinaryEncoder(3)
    assert np.allclose(enc.encode(5), [np.pi, 0.0, np.pi])
    assert np.allclose(enc.encode(1), [0.0, 0.0, np.pi])
    assert np.allclose(enc.encode(0), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        enc.encode(8)


def test_continuous_encoder_clips_below_one():
    enc = envs.ContinuousEncoder((2.0, 4.0))
    out = enc.encode([2.0, -4.0])
    assert out[0] == np.nextafter(1.0, 0.0)
    assert out[1] == -1.0
    assert enc.encode([1.0, 2.0])[0] == 0.5
    with pytest.raises(ValueError):
        enc.encode([1.0])


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_binary_encoder_batch_equals_states_alone():
    enc = envs.BinaryEncoder(4)
    states = np.array([5, 0, 15, 8, 5, 3])
    batch = enc.encode(states)
    assert _same_bits(batch, np.stack([enc.encode(int(s)) for s in states]))
    assert enc.encode(states[:0]).shape == (0, 4)


def test_continuous_encoder_batch_equals_states_alone():
    enc = envs.cartpole_encoder()
    states = np.random.default_rng(4).normal(0.0, 2.0, (7, 4))
    states[2, 1] = 0.0
    states[3, 0] = 10.0  # saturates
    batch = enc.encode(states)
    assert _same_bits(batch, np.stack([enc.encode(s) for s in states]))
    assert _same_bits(enc.encode(list(states)), batch)


@pytest.mark.parametrize("position", [0, 3, 5])
@pytest.mark.parametrize("bad", [16, -1])
def test_binary_encoder_names_an_out_of_range_state_in_a_batch(position, bad):
    states = [1, 2, 3, 4, 5, 6]
    states[position] = bad
    with pytest.raises(ValueError, match=rf"^state {bad} does not fit in 4 bits$"):
        envs.BinaryEncoder(4).encode(states)


def test_encoders_reject_a_wrong_trailing_dimension():
    with pytest.raises(ValueError, match=r"expected \(4,\) or \(L, 4\)"):
        envs.cartpole_encoder().encode(np.zeros((3, 5)))
    with pytest.raises(ValueError, match=r"expected \(4,\) or \(L, 4\)"):
        envs.cartpole_encoder().encode(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match=r"expected \(\) or \(L,\)"):
        envs.BinaryEncoder(3).encode(np.zeros((2, 3), dtype=int))


def test_zero_state_composes_to_point_mass():
    from qpglab import ansatz, decode, policy
    from qpglab.ansatz import ModelConfig, ParamSet

    enc = envs.BinaryEncoder(3)
    config = ModelConfig(3, 1)
    n_theta, n_lam = ansatz.param_counts(config)
    params = ParamSet(np.zeros(n_theta), np.zeros(n_lam))
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2))
    probs = policy.batch_action_probs(pol, enc.encode(0)[None, :], params)[0]
    assert probs[0] == pytest.approx(1.0, abs=1e-14)
