import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpglab import qsim


def test_zero_state_two_qubits():
    state = qsim.zero_state(2)
    assert np.allclose(state.amps, [1, 0, 0, 0])


def test_zero_state_one_qubit():
    assert np.allclose(qsim.zero_state(1).amps, [1, 0])


def test_zero_state_norm():
    assert qsim.zero_state(4).norm_squared() == pytest.approx(1.0, abs=1e-12)


def test_zero_state_rejects_bad_counts():
    with pytest.raises(ValueError):
        qsim.zero_state(0)
    with pytest.raises(ValueError):
        qsim.zero_state(qsim.MAX_QUBITS + 1)


def test_ry_half_turn_flips_zero():
    state = qsim.apply_ry(qsim.zero_state(1), 0, np.pi)
    assert abs(state.amps[0]) < 1e-12
    assert state.amps[1] == pytest.approx(1.0, abs=1e-12)


def test_ry_zero_is_identity():
    rng = np.random.default_rng(0)
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    state = qsim.Statevector(2, amps.copy())
    qsim.apply_ry(state, 1, 0.0)
    assert np.allclose(state.amps, amps, atol=1e-15)


def test_ry_quarter_turn_matrix_entries():
    state = qsim.apply_ry(qsim.zero_state(1), 0, np.pi / 2)
    assert state.amps[0] == pytest.approx(np.cos(np.pi / 4), abs=1e-15)
    assert state.amps[1] == pytest.approx(np.sin(np.pi / 4), abs=1e-15)


def test_rz_on_zero_is_global_phase():
    state = qsim.apply_rz(qsim.zero_state(1), 0, 1.234)
    assert abs(state.amps[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_cz_negates_both_ones():
    state = qsim.zero_state(2)
    qsim.apply_ry(state, 0, np.pi)
    qsim.apply_ry(state, 1, np.pi)  # now |11>
    qsim.apply_cz(state, 0, 1)
    assert state.amps[3] == pytest.approx(-1.0, abs=1e-12)


def test_cx_flips_target_when_control_set():
    state = qsim.zero_state(2)
    qsim.apply_ry(state, 1, np.pi)  # |10>, index 2
    qsim.apply_cx(state, control=1, target=0)
    assert abs(state.amps[3]) == pytest.approx(1.0, abs=1e-12)


def test_two_qubit_gates_reject_bad_indices():
    state = qsim.zero_state(2)
    with pytest.raises(ValueError):
        qsim.apply_cz(state, 0, 0)
    with pytest.raises(ValueError):
        qsim.apply_cx(state, 0, 2)
    with pytest.raises(ValueError):
        qsim.apply_ry(state, 5, 0.3)


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return qsim.Statevector(n, amps)


def test_probabilities_zero_state():
    assert np.allclose(qsim.probabilities(qsim.zero_state(2).amps), [1, 0, 0, 0])


def test_probabilities_after_quarter_turn():
    state = qsim.apply_ry(qsim.zero_state(2), 0, np.pi / 2)
    assert np.allclose(qsim.probabilities(state.amps), [0.5, 0.5, 0, 0], atol=1e-15)


def test_probabilities_sum_to_one_and_nonnegative():
    state = _random_state(3, 1)
    probs = qsim.probabilities(state.amps)
    assert (probs >= 0).all()
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_norm_preserved_under_random_gates(seed, n):
    rng = np.random.default_rng(seed)
    state = qsim.zero_state(n)
    for _ in range(60):
        kind = rng.integers(4)
        q = int(rng.integers(n))
        if kind == 0:
            qsim.apply_ry(state, q, rng.uniform(-np.pi, np.pi))
        elif kind == 1:
            qsim.apply_rz(state, q, rng.uniform(-np.pi, np.pi))
        elif n > 1:
            q2 = int((q + 1 + rng.integers(n - 1)) % n)
            if kind == 2:
                qsim.apply_cz(state, q, q2)
            else:
                qsim.apply_cx(state, q, q2)
    assert abs(state.norm_squared() - 1.0) < 1e-12


def test_norm_preserved_over_ten_thousand_gates():
    rng = np.random.default_rng(42)
    state = qsim.zero_state(5)
    for _ in range(10_000):
        q = int(rng.integers(5))
        if rng.integers(2):
            qsim.apply_ry(state, q, rng.uniform(-np.pi, np.pi))
        else:
            qsim.apply_rz(state, q, rng.uniform(-np.pi, np.pi))
    assert abs(state.norm_squared() - 1.0) < 1e-12


def test_rotations_invert_and_entanglers_self_invert():
    state = _random_state(3, 7)
    reference = state.amps.copy()
    qsim.apply_ry(state, 1, 0.83)
    qsim.apply_ry(state, 1, -0.83)
    assert np.abs(state.amps - reference).max() < 1e-12
    qsim.apply_rz(state, 2, -1.4)
    qsim.apply_rz(state, 2, 1.4)
    assert np.abs(state.amps - reference).max() < 1e-12
    qsim.apply_cz(state, 0, 2)
    qsim.apply_cz(state, 0, 2)
    assert np.abs(state.amps - reference).max() < 1e-12
    qsim.apply_cx(state, 1, 0)
    qsim.apply_cx(state, 1, 0)
    assert np.abs(state.amps - reference).max() < 1e-12


def test_bit_convention_most_significant_bit_is_top_qubit():
    n = 4
    state = qsim.apply_ry(qsim.zero_state(n), n - 1, np.pi)
    rng = np.random.default_rng(0)
    samples = qsim.sample_bitstrings(state, 5, rng)
    assert all(qsim.bitstring(s, n) == "1000" for s in samples)


def test_sampling_deterministic_state():
    rng = np.random.default_rng(0)
    samples = qsim.sample_bitstrings(qsim.zero_state(3), 10, rng)
    assert all(qsim.bitstring(s, 3) == "000" for s in samples)


def test_sampling_zero_shots_rejected():
    with pytest.raises(ValueError):
        qsim.sample_bitstrings(qsim.zero_state(1), 0, np.random.default_rng(0))


def test_sampling_matches_binomial_interval():
    # Uniform one-qubit superposition: frequency of 1 within 0.5 +- 0.005
    # (the 3-sigma band for 1e5 shots).
    state = qsim.apply_ry(qsim.zero_state(1), 0, np.pi / 2)
    rng = np.random.default_rng(123)
    samples = qsim.sample_bitstrings(state, 100_000, rng)
    freq = np.mean(samples == 1)
    assert abs(freq - 0.5) < 0.005


def test_sampling_reproducible_with_seed():
    state = qsim.apply_ry(qsim.zero_state(2), 0, 1.1)
    first = qsim.sample_bitstrings(state, 1000, np.random.default_rng(9))
    second = qsim.sample_bitstrings(state, 1000, np.random.default_rng(9))
    assert (first == second).all()


def test_sampling_chi_square_consistency():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(5)
    state = qsim.zero_state(3)
    for q in range(3):
        qsim.apply_ry(state, q, 0.4 + 0.3 * q)
    probs = qsim.probabilities(state.amps)
    samples = qsim.sample_bitstrings(state, 100_000, rng)
    counts = np.bincount(samples, minlength=8)
    _, p_value = scipy_stats.chisquare(counts, probs * 100_000)
    assert p_value > 0.001


def test_norm_drift_raises():
    state = qsim.zero_state(2)
    state.amps *= 1.1
    with pytest.raises(qsim.NormDriftError):
        qsim.probabilities(state.amps)


def test_batched_probabilities_check_every_row_alone():
    amps = np.array([_random_state(3, seed).amps for seed in range(5)])
    batch = qsim.probabilities(amps)
    for row, single in zip(batch, amps):
        assert row.tobytes() == qsim.probabilities(single).tobytes()
    amps[3] *= 1.001
    with pytest.raises(qsim.NormDriftError, match="at row 3"):
        qsim.probabilities(amps)
    for row in (0, 1, 2, 4):
        assert qsim.probabilities(amps[row]).tobytes() == batch[row].tobytes()
    amps[1, 0] = np.nan
    with pytest.raises(qsim.NormDriftError, match="off by nan at row 1"):
        qsim.probabilities(amps)
