"""Slow one-at-a-time references for the batched paths of ``qpglab``."""

import numpy as np

from qpglab import ansatz, policy, train


def sample_index(probs, rng) -> int:
    """Inverse-CDF draw of one index with one ``rng.random()`` call."""
    cdf = np.cumsum(probs)
    return int(min(np.searchsorted(cdf, rng.random(), side="right"), len(probs) - 1))


def collect_episode(env, encoder, pol, params, rng) -> train.Trajectory:
    """One episode alone: a single-row circuit call and one draw per step."""
    state = env.reset(rng)
    features, actions, rewards = [], [], []
    for _ in range(env.horizon):
        feats = encoder.encode(state)
        reading, probs = policy._reduce(pol, ansatz.run_states(pol.model, params, feats[None, :]))
        if isinstance(pol, policy.MeasurementPolicy):
            action = int(pol.postfn.action_table()[sample_index(reading[0], rng)])
        else:
            action = sample_index(probs[0], rng)
        state, reward, terminal = env.step(state, action, rng)
        features.append(feats)
        actions.append(action)
        rewards.append(reward)
        if terminal:
            break
    return train.Trajectory(
        np.array(features), np.array(actions, dtype=np.int64), np.array(rewards)
    )


def episode_rngs(seed: int, count: int) -> list:
    """Generators of episodes 0 .. count-1 of a run seeded with ``seed``."""
    _, stream = train.run_streams(seed)
    return [np.random.default_rng(child) for child in stream.spawn(count)]
