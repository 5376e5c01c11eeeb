import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpglab import ansatz, decode, policy, qsim
from qpglab.ansatz import ModelConfig, ParamSet
from oracles import apply_cx, apply_cz, apply_ry, apply_rz


def _ket0(n):
    """|0...0> on ``n`` qubits as plain amplitudes."""
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    return amps


def _zero_angle_circuit(n, entangler="cz"):
    """(config, params) of a depth-1 circuit whose every angle is zero."""
    config = ModelConfig(n, 1, entangler)
    n_theta, n_lam = ansatz.param_counts(config)
    return config, ParamSet(np.zeros(n_theta), np.zeros(n_lam))


def _circuit_start(n):
    # Every rotation at angle zero is the identity and CZ fixes |0...0>,
    # so the output is the state the circuit starts from.
    config, params = _zero_angle_circuit(n)
    return ansatz.run_bound(ansatz.bind(config, params), np.zeros((1, n)))[0]


def test_zero_state_two_qubits():
    assert np.allclose(_circuit_start(2), [1, 0, 0, 0])


def test_zero_state_one_qubit():
    assert np.allclose(_circuit_start(1), [1, 0])


def test_zero_state_norm():
    assert np.sum(np.abs(_circuit_start(4)) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_zero_state_rejects_bad_counts():
    with pytest.raises(ValueError):
        ModelConfig(0)
    with pytest.raises(ValueError):
        ModelConfig(qsim.MAX_QUBITS + 1)


def test_ry_half_turn_flips_zero():
    state = apply_ry(_ket0(1), 0, np.pi)
    assert abs(state[0]) < 1e-12
    assert state[1] == pytest.approx(1.0, abs=1e-12)


def test_ry_zero_is_identity():
    rng = np.random.default_rng(0)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = apply_ry(amps.copy(), 1, 0.0)
    assert np.allclose(state, amps, atol=1e-15)


def test_ry_quarter_turn_matrix_entries():
    state = apply_ry(_ket0(1), 0, np.pi / 2)
    assert state[0] == pytest.approx(np.cos(np.pi / 4), abs=1e-15)
    assert state[1] == pytest.approx(np.sin(np.pi / 4), abs=1e-15)


def test_rz_on_zero_is_global_phase():
    state = apply_rz(_ket0(1), 0, 1.234)
    assert abs(state[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_cz_negates_both_ones():
    state = _ket0(2)
    apply_ry(state, 0, np.pi)
    apply_ry(state, 1, np.pi)  # now |11>
    apply_cz(state, 0, 1)
    assert state[3] == pytest.approx(-1.0, abs=1e-12)


def test_cx_flips_target_when_control_set():
    state = _ket0(2)
    apply_ry(state, 1, np.pi)  # |10>, index 2
    apply_cx(state, control=1, target=0)
    assert abs(state[3]) == pytest.approx(1.0, abs=1e-12)


def test_two_qubit_gates_reject_bad_indices():
    state = _ket0(2)
    with pytest.raises(ValueError):
        apply_cz(state, 0, 0)
    with pytest.raises(ValueError):
        apply_cx(state, 0, 2)
    with pytest.raises(ValueError):
        apply_ry(state, 5, 0.3)


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return amps


def test_probabilities_zero_state():
    assert np.allclose(qsim.probabilities(_ket0(2)), [1, 0, 0, 0])


def test_probabilities_after_quarter_turn():
    state = apply_ry(_ket0(2), 0, np.pi / 2)
    assert np.allclose(qsim.probabilities(state), [0.5, 0.5, 0, 0], atol=1e-15)


def test_probabilities_sum_to_one_and_nonnegative():
    state = _random_state(3, 1)
    probs = qsim.probabilities(state)
    assert (probs >= 0).all()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_norm_preserved_under_random_gates(seed, n):
    rng = np.random.default_rng(seed)
    state = _ket0(n)
    for _ in range(60):
        kind = rng.integers(4)
        q = int(rng.integers(n))
        if kind == 0:
            apply_ry(state, q, rng.uniform(-np.pi, np.pi))
        elif kind == 1:
            apply_rz(state, q, rng.uniform(-np.pi, np.pi))
        elif n > 1:
            q2 = int((q + 1 + rng.integers(n - 1)) % n)
            if kind == 2:
                apply_cz(state, q, q2)
            else:
                apply_cx(state, q, q2)
    assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12


def test_norm_preserved_over_ten_thousand_gates():
    rng = np.random.default_rng(42)
    state = _ket0(5)
    for _ in range(10_000):
        q = int(rng.integers(5))
        if rng.integers(2):
            apply_ry(state, q, rng.uniform(-np.pi, np.pi))
        else:
            apply_rz(state, q, rng.uniform(-np.pi, np.pi))
    assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12


def test_rotations_invert_and_entanglers_self_invert():
    state = _random_state(3, 7)
    reference = state.copy()
    apply_ry(state, 1, 0.83)
    apply_ry(state, 1, -0.83)
    assert np.abs(state - reference).max() < 1e-12
    apply_rz(state, 2, -1.4)
    apply_rz(state, 2, 1.4)
    assert np.abs(state - reference).max() < 1e-12
    apply_cz(state, 0, 2)
    apply_cz(state, 0, 2)
    assert np.abs(state - reference).max() < 1e-12
    apply_cx(state, 1, 0)
    apply_cx(state, 1, 0)
    assert np.abs(state - reference).max() < 1e-12


def _draws(probs, shots, rng):
    """``shots`` row draws from one distribution, all from ``rng``."""
    return policy._sample_rows(np.broadcast_to(probs, (shots, len(probs))), rng.random(shots))


def test_bit_convention_most_significant_bit_is_top_qubit():
    n = 4
    probs = qsim.probabilities(apply_ry(_ket0(n), n - 1, np.pi))
    assert format(int(np.argmax(probs)), f"0{n}b") == "1000"
    rng = np.random.default_rng(0)
    samples = _draws(probs, 5, rng)
    assert all(format(s, f"0{n}b") == "1000" for s in samples)


def test_sampling_deterministic_state():
    rng = np.random.default_rng(0)
    samples = _draws(qsim.probabilities(_ket0(3)), 10, rng)
    assert all(format(s, "03b") == "000" for s in samples)


def test_sampling_zero_shots_rejected():
    probs = qsim.probabilities(_ket0(1))[None, :]
    with pytest.raises(ValueError, match="one draw per row"):
        policy._sample_rows(probs, np.empty(0))


def test_sampling_matches_binomial_interval():
    # Uniform one-qubit superposition: frequency of 1 within 0.5 +- 0.005
    # (the 3-sigma band for 1e5 shots).
    probs = qsim.probabilities(apply_ry(_ket0(1), 0, np.pi / 2))
    rng = np.random.default_rng(123)
    samples = _draws(probs, 100_000, rng)
    freq = np.mean(samples == 1)
    assert abs(freq - 0.5) < 0.005


def test_sampling_reproducible_with_seed():
    # Ry(1.1) on qubit 0 and nothing else; the identity table makes each
    # action the measured basis index.
    config, params = _zero_angle_circuit(2)
    params.theta[1] = 1.1
    pol = policy.MeasurementPolicy(config, decode.PostProcessing(2, 4, range(4)))
    feats = np.zeros((1000, 2))
    bound = ansatz.bind(config, params)
    first = policy.sample_action(pol, feats, bound, [np.random.default_rng(9)] * 1000)[0]
    second = policy.sample_action(pol, feats, bound, [np.random.default_rng(9)] * 1000)[0]
    assert (first == second).all()


def test_sampling_chi_square_consistency():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(5)
    state = _ket0(3)
    for q in range(3):
        apply_ry(state, q, 0.4 + 0.3 * q)
    probs = qsim.probabilities(state)
    samples = _draws(probs, 100_000, rng)
    counts = np.bincount(samples, minlength=8)
    _, p_value = scipy_stats.chisquare(counts, probs * 100_000)
    assert p_value > 0.001


def test_norm_drift_raises():
    state = _ket0(2)
    state *= 1.1
    with pytest.raises(qsim.NormDriftError):
        qsim.probabilities(state)


def test_batched_probabilities_check_every_row_alone():
    amps = np.array([_random_state(3, seed) for seed in range(5)])
    batch = qsim.probabilities(amps)
    for row, single in zip(batch, amps):
        assert row.tobytes() == qsim.probabilities(single).tobytes()
    assert qsim.probabilities(amps[:0]).shape == (0, 8)
    amps[3] *= 1.001
    with pytest.raises(qsim.NormDriftError, match="at row 3"):
        qsim.probabilities(amps)
    for row in (0, 1, 2, 4):
        assert qsim.probabilities(amps[row]).tobytes() == batch[row].tobytes()
    amps[1, 0] = np.nan
    with pytest.raises(qsim.NormDriftError, match="off by nan at row 1"):
        qsim.probabilities(amps)
