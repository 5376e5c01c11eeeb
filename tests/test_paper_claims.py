"""The paper's bandit claim as an executable gate.

On a uniform 8-state, 4-action bandit, a Born policy with the global
(recursive-parity) decoding learns every state, while the softmax
policy with one shared observable cannot beat its accuracy bound.
"""

import numpy as np
import pytest

from qpglab import analysis, ansatz, decode, envs, policy, train

SEEDS = (0, 1, 2)
HYPER = train.Hyperparams(
    alpha_theta=0.05, alpha_lambda=0.05, alpha_w=0.05, batch_size=10, episodes=1500
)


def _final_accuracy(pol, seed):
    env = envs.ContextualBandits(8, 4, envs.optimal_map("blocks", 8, 4), "acc01")
    encoder = envs.BinaryEncoder(3)
    result = train.train_run(env, encoder, pol, HYPER, seed)
    return analysis.exact_accuracy(env, encoder, result.policy, result.params)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
def test_born_global_decoding_learns_uniform_bandit(seed):
    pol = policy.MeasurementPolicy(ansatz.ModelConfig(3, 2), decode.RecursiveParity(3, 4))
    assert _final_accuracy(pol, seed) >= 0.99


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_policy_stays_within_accuracy_bound(seed):
    pol = policy.SoftmaxObservablePolicy(ansatz.ModelConfig(3, 2), np.zeros(4))
    assert _final_accuracy(pol, seed) <= float(analysis.accuracy_bound(4)) + 0.02
