import re
import tracemalloc

import numpy as np
import pytest

from qpglab import ansatz, decode, policy, qsim
from qpglab.ansatz import ModelConfig, ParamSet
from oracles import (
    log_prob_grad,
    parity_via_ancilla,
    running_class_sums,
    sample_index,
    shift_rule_grads,
    state_action_probs,
    z_mask_expectation,
)


def _instance(n=3, d=2, seed=0, zero_feature=None):
    rng = np.random.default_rng(seed)
    config = ModelConfig(n, d)
    params = ansatz.init_params(config, rng)
    params.lam[:] = rng.normal(1.0, 0.4, size=params.lam.shape)
    features = rng.uniform(-1, 1, n)
    if zero_feature is not None:
        features[zero_feature] = 0.0
    return config, params, features, rng


def dense_z(n, qubits):
    """Independent oracle: the Z-mask observable as a dense matrix."""
    out = np.array([[1.0]])
    for q in reversed(range(n)):
        factor = np.diag([1.0, -1.0]) if q in qubits else np.eye(2)
        out = np.kron(out, factor)
    return out


@pytest.mark.parametrize(
    "z_qubits,message",
    [
        ((0, 0), "entry 0 repeated"),
        ((2, 1, 2), "entry 2 repeated"),
        ((0, 3), "entry 3 out of range"),
        ((), "must name at least one qubit"),
    ],
    ids=["pair", "among-others", "range", "empty"],
)
def test_softmax_z_qubits_are_distinct_qubits_in_range(z_qubits, message):
    # A repeated qubit would cancel out of the Z mask, not square Z; an
    # empty mask is the identity, which reads 1 on every state.
    with pytest.raises(ValueError, match=f"z_qubits {message}"):
        policy.SoftmaxObservablePolicy(ModelConfig(3, 1), np.zeros(2), z_qubits=z_qubits)


@pytest.mark.parametrize(
    "weights,beta,message",
    [
        ([0.5, np.nan], 1.0, "weights must be finite"),
        ([np.inf, 0.5], 1.0, "weights must be finite"),
        ([0.5, -0.3], np.nan, "beta must be finite"),
        ([0.5, -0.3], np.inf, "beta must be finite"),
        ([0.5, -0.3], -np.inf, "beta must be finite"),
    ],
    ids=["nan-weight", "inf-weight", "nan-beta", "inf-beta", "minus-inf-beta"],
)
def test_softmax_refuses_non_finite_weights_and_beta(weights, beta, message):
    # A non-finite logit would make every action distribution NaN.
    with pytest.raises(ValueError, match=message):
        policy.SoftmaxObservablePolicy(ModelConfig(3, 1), np.array(weights), beta=beta)


def test_apply_flat_refuses_a_non_finite_weight_step():
    config = ModelConfig(3, 1)
    pol = policy.SoftmaxObservablePolicy(config, np.array([0.5, -0.3]))
    flat = policy.flat_trainables(pol, ansatz.init_params(config, np.random.default_rng(0)))
    flat[-1] = np.nan
    with pytest.raises(ValueError, match="weights must be finite"):
        policy.apply_flat(pol, flat)


def test_split_flat_reads_the_flat_layout_of_one_set_or_a_stack():
    # (theta, lam[, weights]) in that order; a stack splits row by row,
    # as views, and apply_flat rebuilds from a copy.
    config = ModelConfig(3, 2)
    n_theta, n_lam = ansatz.param_counts(config)
    for pol in (
        policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2)),
        policy.SoftmaxObservablePolicy(config, np.array([0.5, -0.3, 0.1])),
    ):
        flats = np.random.default_rng(3).uniform(-1, 1, (4, policy.num_trainables(pol)))
        stack, weights = policy.split_flat(pol, flats)
        assert (stack.theta == flats[:, :n_theta]).all()
        assert (stack.lam == flats[:, n_theta : n_theta + n_lam]).all()
        assert np.shares_memory(stack.theta, flats) and np.shares_memory(stack.lam, flats)
        params, alone = policy.split_flat(pol, flats[1])
        assert (params.flat() == flats[1, : n_theta + n_lam]).all()
        rebuilt, pol_rebuilt = policy.apply_flat(pol, flats[1])
        assert (policy.flat_trainables(pol_rebuilt, rebuilt) == flats[1]).all()
        assert not np.shares_memory(rebuilt.theta, flats)
        if isinstance(pol, policy.MeasurementPolicy):
            assert weights is None and alone is None
        else:
            assert (weights == flats[:, n_theta + n_lam :]).all()
            assert (alone == flats[1, n_theta + n_lam :]).all()
            assert not np.shares_memory(pol_rebuilt.weights, flats)


def test_all_zero_parameters_give_point_mass():
    config = ModelConfig(3, 1)
    n_theta, n_lam = ansatz.param_counts(config)
    params = ParamSet(np.zeros(n_theta), np.zeros(n_lam))
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2))
    probs = state_action_probs(pol, np.zeros(3), params)
    assert probs[0] == pytest.approx(1.0, abs=1e-14)


def test_action_probs_is_distribution():
    config, params, features, _ = _instance()
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 4))
    probs = state_action_probs(pol, features, params)
    assert probs.shape == (4,)
    assert (probs >= 0).all()
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_parity_policy_matches_dense_observable():
    config, params, features, _ = _instance(seed=4)
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2))
    probs = state_action_probs(pol, features, params)
    state = ansatz.run_bound(ansatz.bind(config, params), features[None, :])[0]
    expv = np.real(np.conj(state) @ (dense_z(3, {0, 1, 2}) @ state))
    for a in (0, 1):
        assert probs[a] == pytest.approx(((-1) ** a * expv + 1) / 2, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_observable_equivalences(seed):
    config, params, features, _ = _instance(n=4, d=1, seed=seed)
    state = ansatz.run_bound(ansatz.bind(config, params), features[None, :])[0]

    cases = [
        (decode.MostSignificantBit(4), {3}),
        (decode.PrefixParity(4, 2), {3, 2}),
        (decode.PrefixParity(4, 3), {3, 2, 1}),
        (decode.RecursiveParity(4, 2), {3, 2, 1, 0}),
    ]
    for fn, qubits in cases:
        probs = state_action_probs(
            policy.MeasurementPolicy(config, fn), features, params
        )
        expv = np.real(np.conj(state) @ (dense_z(4, qubits) @ state))
        for a in (0, 1):
            assert probs[a] == pytest.approx(((-1) ** a * expv + 1) / 2, abs=1e-12)

    mask_expv = z_mask_expectation(state, range(4))
    assert parity_via_ancilla(state) == pytest.approx(mask_expv, abs=1e-12)


def test_single_measurement_sampling_matches_distribution():
    config, params, features, rng = _instance(seed=2)
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2))
    exact = state_action_probs(pol, features, params)
    trials = 20_000
    bound = ansatz.bind(config, params)
    draws = policy.sample_action(pol, np.tile(features, (trials, 1)), bound, rng.random(trials))[0]
    freq = np.mean(draws == 1)
    sigma = np.sqrt(exact[1] * (1 - exact[1]) / trials)
    assert abs(freq - exact[1]) < 3.5 * sigma + 1e-4


def test_sample_action_deterministic_given_seed():
    config, params, features, _ = _instance(seed=5)
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2))
    bound = ansatz.bind(config, params)
    u = np.random.default_rng(11).random(1)
    first = [policy.sample_action(pol, features[None, :], bound, u)[0][0] for _ in range(3)]
    second = [policy.sample_action(pol, features[None, :], bound, u)[0][0] for _ in range(3)]
    assert first == second


def _finite_difference_log_grad(pol, features, action, params, h=1e-5):
    flat0 = policy.flat_trainables(pol, params)
    fd = np.zeros_like(flat0)
    for j in range(len(flat0)):
        up, down = flat0.copy(), flat0.copy()
        up[j] += h
        down[j] -= h
        p_up, pol_up = policy.apply_flat(pol, up)
        p_dn, pol_dn = policy.apply_flat(pol, down)
        fd[j] = (
            np.log(state_action_probs(pol_up, features, p_up)[action])
            - np.log(state_action_probs(pol_dn, features, p_dn)[action])
        ) / (2 * h)
    return fd


@pytest.mark.parametrize("seed", range(4))
def test_measurement_log_grad_matches_finite_differences(seed):
    config, params, features, _ = _instance(seed=seed)
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2))
    grad = log_prob_grad(pol, features, 1, params)
    fd = _finite_difference_log_grad(pol, features, 1, params)
    assert np.abs(grad - fd).max() < 1e-5


def test_lambda_components_vanish_for_zero_features():
    config, params, features, _ = _instance(seed=3, zero_feature=1)
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2))
    grad = log_prob_grad(pol, features, 0, params)
    n_theta, _ = ansatz.param_counts(config)
    n = config.n_qubits
    # features[1] drives qubit n-1-1 = 1; its lam entries are 2*1, 2*1+1
    # within each encoding block of 2n entries.
    for block in range(config.depth):
        for offset in (2, 3):
            assert grad[n_theta + block * 2 * n + offset] == 0.0


def test_probability_weighted_grads_sum_to_zero():
    config, params, features, _ = _instance(seed=8)
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 4))
    probs = state_action_probs(pol, features, params)
    acc = np.zeros(policy.num_trainables(pol))
    for action in range(4):
        acc += probs[action] * log_prob_grad(pol, features, action, params)
    assert np.abs(acc).max() < 1e-8


def test_born_log_grad_divides_by_tiny_probabilities_exactly():
    # Ry(theta) on |0> at theta = 2e-7 gives p_1 = sin(theta/2)**2 = 1e-14,
    # and d ln p_1 / d theta = cot(theta/2) = 1e7: no floor on p bends it.
    config = ModelConfig(1, 1)
    params = ParamSet(*(np.zeros(k) for k in ansatz.param_counts(config)))
    params.theta[1] = 2e-7
    pol = policy.MeasurementPolicy(config, decode.MostSignificantBit(1))
    assert state_action_probs(pol, np.zeros(1), params)[1] == pytest.approx(1e-14, rel=1e-9)
    grad = log_prob_grad(pol, np.zeros(1), 1, params)
    assert grad[1] == pytest.approx(1.0 / np.tan(1e-7), rel=1e-9)


def test_zero_probability_action_raises():
    config = ModelConfig(2, 1)
    n_theta, n_lam = ansatz.param_counts(config)
    params = ParamSet(np.zeros(n_theta), np.zeros(n_lam))
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(2, 2))
    with pytest.raises(policy.ZeroProbabilityError):
        log_prob_grad(pol, np.zeros(2), 1, params)


def test_softmax_uniform_cases():
    config, params, features, _ = _instance(seed=1)
    equal_weights = policy.SoftmaxObservablePolicy(config, np.full(4, 0.7))
    assert np.allclose(
        state_action_probs(equal_weights, features, params), 0.25, atol=1e-12
    )
    zero_beta = policy.SoftmaxObservablePolicy(
        config, np.array([0.4, -1.0, 0.2, 0.9]), beta=0.0
    )
    assert np.allclose(
        state_action_probs(zero_beta, features, params), 0.25, atol=1e-12
    )


def test_softmax_logits_on_zero_state():
    config = ModelConfig(3, 1)
    n_theta, n_lam = ansatz.param_counts(config)
    params = ParamSet(np.zeros(n_theta), np.zeros(n_lam))
    weights = np.array([0.3, -0.5])
    pol = policy.SoftmaxObservablePolicy(config, weights, beta=2.0)
    probs = state_action_probs(pol, np.zeros(3), params)
    # All masked bits are 0 on |0...0>, so <O> = +1 and logits are beta*w.
    logits = 2.0 * weights
    expected = np.exp(logits) / np.exp(logits).sum()
    assert np.allclose(probs, expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_softmax_log_grad_matches_finite_differences(seed):
    config, params, features, _ = _instance(seed=seed)
    pol = policy.SoftmaxObservablePolicy(
        config, np.array([0.5, -0.3, 0.1, 0.8]), beta=1.3
    )
    grad = log_prob_grad(pol, features, 2, params)
    fd = _finite_difference_log_grad(pol, features, 2, params)
    assert np.abs(grad - fd).max() < 1e-5


def test_softmax_weight_grads_sum_to_zero_over_actions():
    config, params, features, _ = _instance(seed=7)
    pol = policy.SoftmaxObservablePolicy(config, np.array([0.5, -0.3, 0.1, 0.8]))
    n_circuit = sum(ansatz.param_counts(config))
    for action in range(4):
        grad = log_prob_grad(pol, features, action, params)
        assert abs(grad[n_circuit:].sum()) < 1e-12


def test_softmax_equal_weights_kill_circuit_gradient():
    config, params, features, _ = _instance(seed=7)
    pol = policy.SoftmaxObservablePolicy(config, np.full(4, 0.2))
    grad = log_prob_grad(pol, features, 1, params)
    n_circuit = sum(ansatz.param_counts(config))
    assert np.abs(grad[:n_circuit]).max() < 1e-12


def test_trajectory_grads_match_single_step_calls():
    config, params, _, rng = _instance(seed=12)
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2))
    feats = rng.uniform(-1, 1, (5, 3))
    actions = rng.integers(0, 2, 5)
    bound = ansatz.bind(config, params)
    amps = ansatz.run_bound(bound, feats)
    stacked = policy.trajectory_log_grads(pol, feats, actions, bound, amps)
    for t in range(5):
        single = log_prob_grad(pol, feats[t], int(actions[t]), params)
        assert np.abs(stacked[t] - single).max() < 1e-14


@pytest.mark.parametrize("kind", ["born", "softmax"])
def test_stacked_sets_reduce_and_differentiate_as_each_set_alone(kind):
    # Three parameter sets, a softmax policy's action weights among them,
    # read through a row-to-set index in set order with sets of 5, 1 and
    # 9 rows: the reduction and the gradients equal each set's own calls
    # bit for bit.
    config = ModelConfig(4, 2, "cx")
    if kind == "born":
        pol = policy.MeasurementPolicy(config, decode.RecursiveParity(4, 4))
    else:
        pol = policy.SoftmaxObservablePolicy(config, np.zeros(4), beta=1.5, z_qubits=(0, 3))
    rng = np.random.default_rng(31)
    flats = rng.uniform(-np.pi, np.pi, (3, policy.num_trainables(pol)))
    stack, weights = policy.split_flat(pol, flats)
    sets = np.repeat(np.arange(3), [5, 1, 9])
    feats = rng.uniform(-1, 1, (len(sets), 4))
    actions = rng.integers(0, 4, len(sets))
    bound = ansatz.bind(config, stack)
    amps = ansatz.run_bound(bound, feats, sets=sets)
    reduced = policy._reduce(pol, amps, sets=sets, weights=weights)
    grads = policy.trajectory_log_grads(
        pol, feats, actions, bound, amps, reduced, sets=sets, weights=weights
    )
    for index, flat in enumerate(flats):
        rows = np.flatnonzero(sets == index)
        params, pol_alone = policy.apply_flat(pol, flat)
        bound_alone = ansatz.bind(config, params)
        alone = ansatz.run_bound(bound_alone, feats[rows])
        expected = policy._reduce(pol_alone, alone)
        for got, want in zip(reduced, expected, strict=True):
            assert got[rows].tobytes() == want.tobytes()
        single = policy.trajectory_log_grads(
            pol_alone, feats[rows], actions[rows], bound_alone, alone
        )
        assert grads[rows].tobytes() == single.tobytes()
    # Reduced here from the same index, the gradients are the same.
    again = policy.trajectory_log_grads(
        pol, feats, actions, bound, amps, sets=sets, weights=weights
    )
    assert again.tobytes() == grads.tobytes()
    if kind == "softmax":
        with pytest.raises(ValueError, match=r"need \(sets, 4\) action weights, got \(3, 3\)"):
            policy._reduce(pol, amps, sets=sets, weights=weights[:, :3])
    # No rows at all: an empty gradient, as from one set.
    none = np.zeros(0, int)
    empty = ansatz.run_bound(bound, feats[:0], sets=none)
    got = policy.trajectory_log_grads(
        pol, feats[:0], actions[:0], bound, empty, sets=none, weights=weights
    )
    assert got.shape == (0, policy.num_trainables(pol))


def _shift_rule_log_grads(pol, feats, actions, params):
    """Oracle: circuit part of the log-policy gradients by parameter shift."""
    if isinstance(pol, policy.SoftmaxObservablePolicy):
        weights = np.tile(policy._z_signs(pol.model.n_qubits, pol.z_qubits), (len(actions), 1))
    else:
        weights = (pol.postfn.table == actions[:, None]).astype(float)
    d_expval = shift_rule_grads(pol.model, params, feats, weights)
    pis = np.array([state_action_probs(pol, f, params) for f in feats])
    if isinstance(pol, policy.MeasurementPolicy):
        return d_expval / pis[np.arange(len(actions)), actions][:, None]
    bracket = pol.weights[actions] - pis @ pol.weights
    return pol.beta * bracket[:, None] * d_expval


@pytest.mark.parametrize("kind", ["measurement", "softmax"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_trajectory_grads_match_shift_rule(entangler, n, kind):
    rng = np.random.default_rng(n)
    config = ModelConfig(n, 2, entangler)
    params = ansatz.init_params(config, rng)
    params.lam[:] = rng.normal(1.0, 0.4, size=params.lam.shape)
    if kind == "measurement":
        pol = policy.MeasurementPolicy(config, decode.MostSignificantBit(n))
    else:
        pol = policy.SoftmaxObservablePolicy(config, np.array([0.5, -0.3, 0.1]), beta=1.3)
    feats = rng.uniform(-1, 1, (4, n))
    feats[2, n - 1] = 0.0
    actions = rng.integers(0, pol.num_actions, 4)
    bound = ansatz.bind(config, params)
    amps = ansatz.run_bound(bound, feats)
    grads = policy.trajectory_log_grads(pol, feats, actions, bound, amps)
    n_circuit = sum(ansatz.param_counts(config))
    oracle = _shift_rule_log_grads(pol, feats, actions, params)
    assert np.abs(grads[:, :n_circuit] - oracle).max() < 1e-10


def test_batch_action_probs_rows_equal_single_state_calls():
    config, params, _, rng = _instance(n=4, d=3, seed=13)
    feats = rng.normal(0, 0.5, (50, 4))
    for pol in (
        policy.MeasurementPolicy(config, decode.RecursiveParity(4, 4)),
        policy.SoftmaxObservablePolicy(config, np.array([0.5, -0.3, 0.1, 0.8]), beta=1.3),
    ):
        batch = policy.batch_action_probs(pol, feats, params)
        single = np.array([state_action_probs(pol, f, params) for f in feats])
        assert (batch == single).all()
        assert policy.batch_action_probs(pol, feats[:0], params).shape == (0, 4)


def _random_amps(n, steps, rng):
    amps = rng.normal(size=(steps, 1 << n)) + 1j * rng.normal(size=(steps, 1 << n))
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


@pytest.mark.parametrize("n", range(1, 13))
def test_reduce_sums_each_class_in_basis_order_and_each_row_alone(n):
    # Recorded outputs depend on the Born class sums' order: one term at a
    # time, lowest basis index first.  Each row equals the row reduced alone.
    rng = np.random.default_rng(n)
    config = ModelConfig(n, 1)
    pols = [
        policy.MeasurementPolicy(config, decode.PostProcessing(n, m, rng.integers(m, size=1 << n)))
        for m in (2, 4, 8)
    ]
    pols += [
        policy.SoftmaxObservablePolicy(config, np.array([0.5, -0.3, 0.8]), beta=1.3),
        policy.SoftmaxObservablePolicy(config, np.array([0.5, -0.3]), z_qubits=range(0, n, 2)),
    ]
    for steps in (1, 3, 50, 257):
        amps = _random_amps(n, steps, rng)
        for pol in pols:
            reading, probs = policy._reduce(pol, amps)
            if isinstance(pol, policy.MeasurementPolicy):
                assert reading.tobytes() == running_class_sums(pol, amps).tobytes()
                assert probs is reading
            else:
                want = [z_mask_expectation(row, pol.z_qubits) for row in amps]
                assert reading.shape == (steps, 1)
                np.testing.assert_allclose(reading[:, 0], want, rtol=0, atol=1e-13)
            for t in range(steps):
                alone = policy._reduce(pol, amps[t : t + 1])
                assert alone[0].tobytes() == reading[t : t + 1].tobytes()
                assert alone[1].tobytes() == probs[t : t + 1].tobytes()


def test_born_reduce_and_gradient_memory_does_not_grow_with_the_action_count():
    # M may reach 2**n: a dense (2**n, M) readout, or a (T, 2**n, M)
    # product, would take M times the Born probabilities' bytes.
    n, steps = 10, 8
    config = ModelConfig(n, 1)
    params = ParamSet(*(np.full(k, 0.3) for k in ansatz.param_counts(config)))
    feats = np.random.default_rng(0).uniform(-1, 1, size=(steps, n))
    bound = ansatz.bind(config, params)
    amps = ansatz.run_bound(bound, feats)
    peaks = {}
    for m in (2, 1 << n):
        table = np.arange(1 << n) % m
        tracemalloc.start()
        pol = policy.MeasurementPolicy(config, decode.PostProcessing(n, m, table))
        reduced = policy._reduce(pol, amps)
        actions = np.argmax(reduced[1], axis=1)
        policy.trajectory_log_grads(pol, feats, actions, bound, amps, reduced)
        peaks[m] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # The (T, M) distributions themselves take one (T, 2**n) block at M = 2**n.
    assert peaks[1 << n] <= peaks[2] + 2 * amps.real.nbytes, peaks


def _composite_table(fn, config):
    """The decoding read through the last entangler layer: the map that the
    policy applies to the state before that layer.  A CZ layer only signs
    amplitudes; a CX layer moves the amplitude of index ``inverse[y]`` to ``y``."""
    if config.entangler == "cz":
        return fn.table
    return fn.table[ansatz._cx_layer_perms(config.n_qubits)[1]]


@pytest.mark.parametrize("entangler", ["cz", "cx"])
@pytest.mark.parametrize(
    "make",
    [
        lambda n: decode.PrefixParity(n, 2),
        lambda n: decode.RecursiveParity(n, 4),
        lambda n: decode.PostProcessing(n, 3, np.random.default_rng(n).integers(3, size=1 << n)),
    ],
    ids=["prefix-parity", "recursive-parity", "random-table"],
)
@pytest.mark.parametrize("n", [3, 4])
def test_composite_table_of_the_state_before_the_last_entangler_gives_the_policy(
    entangler, make, n
):
    config = ModelConfig(n, 2, entangler)
    params = ansatz.init_params(config, np.random.default_rng(31))
    feats = np.random.default_rng(32).uniform(-1, 1, (6, n))
    fn = make(n)
    after = ansatz.run_bound(ansatz.bind(config, params), feats)
    before = np.empty_like(after)
    ansatz._apply_entangler(after, config, before, inverse=True)
    composite = decode.PostProcessing(n, fn.num_actions, _composite_table(fn, config))
    sums = policy._reduce(policy.MeasurementPolicy(config, composite), before)[1]
    probs = policy.batch_action_probs(policy.MeasurementPolicy(config, fn), feats, params)
    if entangler == "cz":
        assert (sums == probs).all()
    else:
        # The class sums run over the basis states in another order.
        assert np.abs(sums - probs).max() <= 1e-15


def test_cx_composite_of_prefix_parity_has_lower_globality():
    # Under CX the last layer turns PrefixParity(4, q) into a decoding that
    # reads fewer wires: full parity becomes a function of one wire.
    config = ModelConfig(4, 1, "cx")
    values = [
        decode.globality(
            decode.PostProcessing(4, 2, _composite_table(decode.PrefixParity(4, q), config))
        ).value
        for q in range(1, 5)
    ]
    assert values == [2, 2, 2, 1]


def test_batch_action_probs_checks_norm_per_row(monkeypatch):
    config, params, _, rng = _instance(seed=14)
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2))
    run_bound = ansatz.run_bound

    def drifted(*args):
        amps = run_bound(*args)
        amps[1] *= 1.001
        return amps

    monkeypatch.setattr(ansatz, "run_bound", drifted)
    with pytest.raises(qsim.NormDriftError):
        policy.batch_action_probs(pol, rng.uniform(-1, 1, (3, 3)), params)


def test_born_sampling_is_one_measurement_in_every_eval_mode():
    config, params, _, rng = _instance(n=4, d=2, seed=15)
    feats = rng.uniform(-1, 1, (40, 4))
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(4, 4))
    uniforms = np.random.default_rng(21).random(len(feats))
    bound = ansatz.bind(config, params)
    draws = policy.sample_action(pol, feats, bound, uniforms)[0].tolist()
    # Each row's uniform measures one bitstring, which is decoded.
    born = qsim.probabilities(ansatz.run_bound(ansatz.bind(config, params), feats))
    table = pol.postfn.table
    assert draws == [int(table[sample_index(p, u)]) for p, u in zip(born, uniforms)]
    assert len(set(draws)) > 1


@pytest.mark.parametrize("kind", ["born", "softmax"])
def test_sample_action_rows_match_one_row_draws(kind):
    config, params, _, rng = _instance(n=3, d=2, seed=16)
    if kind == "born":
        pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 4))
    else:
        pol = policy.SoftmaxObservablePolicy(config, np.array([2.0, -1.5, 0.5, 3.0]), beta=2.0)
    feats = rng.uniform(-np.pi, np.pi, (25, 3))
    uniforms = np.random.default_rng(26).random(25)
    bound = ansatz.bind(config, params)
    batched, amps, reduced = policy.sample_action(pol, feats, bound, uniforms)
    assert amps.tobytes() == ansatz.run_bound(bound, feats).tobytes()
    # The softmax reduction comes back for the gradient; a Born draw has none.
    if kind == "born":
        assert reduced is None
    else:
        for got, want in zip(reduced, policy._reduce(pol, amps)):
            assert got.tobytes() == want.tobytes()
    expected = []
    for u, f in zip(uniforms, feats):
        final = ansatz.run_bound(bound, f[None, :])
        if kind == "born":
            born = qsim.probabilities(final)[0]
            expected.append(int(pol.postfn.table[sample_index(born, u)]))
        else:
            expected.append(sample_index(policy._reduce(pol, final)[1][0], u))
    assert batched.tolist() == expected
    assert len(set(expected)) > 1
    with pytest.raises(ValueError, match="need one draw per row: 24 for 25 rows"):
        policy.sample_action(pol, feats, bound, uniforms[:24])


def test_sample_action_refuses_parameters_bound_to_another_model():
    config, params, features, rng = _instance(seed=18)
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2))
    other = ModelConfig(3, 2, "cx")
    with pytest.raises(ValueError, match="parameters bound to"):
        policy.sample_action(pol, features[None, :], ansatz.bind(other, params), rng.random(1))


def test_trajectory_log_grads_refuse_parameters_bound_to_another_model():
    # Same n and d, another entangler: the sweep would run on the bound
    # circuit and differentiate it silently, so it is refused before,
    # with sample_action's message.
    config, params, features, rng = _instance(seed=19)
    other = ModelConfig(3, 2, "cx")
    feats = features[None, :]
    bound = ansatz.bind(other, params)
    amps = ansatz.run_bound(bound, feats)
    message = f"parameters bound to {other}, policy model is {config}"
    for pol in (
        policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2)),
        policy.SoftmaxObservablePolicy(config, np.array([0.5, -0.3])),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            policy.trajectory_log_grads(pol, feats, np.array([1]), bound, amps)
        with pytest.raises(ValueError, match=re.escape(message)):
            policy.sample_action(pol, feats, bound, rng.random(1))


def test_born_sample_action_draws_from_born_probabilities_without_reduce(monkeypatch):
    # A Born policy measures a bitstring, so it needs no action distribution.
    config, params, _, rng = _instance(n=3, d=2, seed=17)
    pol = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 4))
    feats = rng.uniform(-np.pi, np.pi, (6, 3))
    bound = ansatz.bind(config, params)
    uniforms = rng.random(6)
    expected = policy.sample_action(pol, feats, bound, uniforms)[0]

    def refuse(*args):
        raise AssertionError("a Born sample_action called _reduce")

    monkeypatch.setattr(policy, "_reduce", refuse)
    drawn, _, reduced = policy.sample_action(pol, feats, bound, uniforms)
    assert drawn.tolist() == expected.tolist()
    assert reduced is None


def test_row_sampling_matches_searchsorted_at_cdf_edges():
    # Draws that land exactly on a CDF value, rows with zero entries and
    # a row whose CDF ends below 1 (the last index is the fallback).
    probs = np.array([[0.25, 0.25, 0.0, 0.5], [0.0, 0.5, 0.5, 0.0], [0.1, 0.2, 0.3, 0.3]])
    for u in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.999999):
        got = policy._sample_rows(probs, np.full(3, u)).tolist()
        assert got == [sample_index(p, u) for p in probs]
