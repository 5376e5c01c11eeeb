"""Slow one-at-a-time references for the batched paths of ``qpglab``."""

import numpy as np

from qpglab import ansatz, policy, qsim, train


def sample_index(probs, rng) -> int:
    """Inverse-CDF draw of one index with one ``rng.random()`` call."""
    cdf = np.cumsum(probs)
    return int(min(np.searchsorted(cdf, rng.random(), side="right"), len(probs) - 1))


def collect_episode(env, encoder, pol, params, rng) -> train.Trajectory:
    """One episode alone: a single-row circuit call and one draw per step."""
    state = env.reset(rng)
    features, amps, actions, rewards = [], [], [], []
    for _ in range(env.horizon):
        feats = encoder.encode(state)
        final = ansatz.run_states(pol.model, params, feats[None, :])
        reading, probs = policy._reduce(pol, final)
        if isinstance(pol, policy.MeasurementPolicy):
            action = int(pol.postfn.action_table()[sample_index(reading[0], rng)])
        else:
            action = sample_index(probs[0], rng)
        state, reward, terminal = env.step(state, action, rng)
        features.append(feats)
        amps.append(final[0])
        actions.append(action)
        rewards.append(reward)
        if terminal:
            break
    return train.Trajectory(
        np.array(features), np.array(amps), np.array(actions, dtype=np.int64), np.array(rewards)
    )


def episode_rngs(seed: int, count: int) -> list:
    """Generators of episodes 0 .. count-1 of a run seeded with ``seed``."""
    _, stream = train.run_streams(seed)
    return [np.random.default_rng(child) for child in stream.spawn(count)]


def log_prob_grad(pol, features, action: int, params) -> np.ndarray:
    """Gradient of ln pi(action | features) for one state alone."""
    feats = np.asarray(features, dtype=float)[None, :]
    amps = ansatz.run_states(pol.model, params, feats)
    return policy.trajectory_log_grads(pol, feats, np.array([action]), params, amps)[0]


def z_mask_expectation(state: qsim.Statevector, qubits) -> float:
    """<Z-on-qubits (identity elsewhere)> of a prepared state."""
    probs = qsim.probabilities(state.amps)
    return float(probs @ policy._z_signs(state.n_qubits, tuple(sorted(qubits))))


def parity_via_ancilla(state: qsim.Statevector) -> float:
    """All-qubit parity read off an ancilla instead of a global mask.

    Appends an ancilla in |0>, applies a CX from each original qubit
    onto it, and returns P(ancilla=0) - P(ancilla=1); equals the
    all-qubit Z-mask expectation of the original state.
    """
    n = state.n_qubits
    ext = np.zeros(1 << (n + 1), dtype=np.complex128)
    ext[: 1 << n] = state.amps
    extended = qsim.Statevector(n + 1, ext)
    for q in range(n):
        qsim.apply_cx(extended, control=q, target=n)
    probs = qsim.probabilities(extended.amps)
    return float(probs[: 1 << n].sum() - probs[1 << n :].sum())


def per_qubit_adjoint_grads(config, params, features, weights, amps) -> np.ndarray:
    """The adjoint sweep reading each derivative at its own rotation.

    Qubit by qubit, the later Pauli factor of a fused rotation is read
    just before that rotation is undone and the earlier factor just
    after, each as its own sum over half-views.
    """
    n = config.n_qubits
    features = np.asarray(features, dtype=float)
    undo = ansatz._gate_table(config, *ansatz._param_rows(params, len(amps)), features).conj()
    pair = np.empty((2,) + amps.shape, dtype=np.complex128)
    pair[0] = amps
    np.multiply(amps, weights, out=pair[1])
    halves = [qsim.half_views(pair, n, q) for q in range(n)]
    angle_grads = np.empty((2,) + undo.shape[:2] + (len(amps),))
    for block in range(len(undo) - 1, -1, -1):
        if block % 2 == 0:
            ansatz._apply_entangler(pair, config, inverse=True)
        later, earlier = (1, 0) if block % 2 == 0 else (0, 1)
        for q in reversed(range(n)):
            a0, a1 = halves[q]
            c00, c01, c10, c11 = undo[block, q]
            angle_grads[later, block, q] = _pauli_grad(later, a0, a1)
            qsim.apply_1q_halves(a0, a1, c00, c10, c01, c11)
            angle_grads[earlier, block, q] = _pauli_grad(earlier, a0, a1)
    return ansatz._flat_grads(angle_grads, features)


def _pauli_grad(pauli: int, a0, a1) -> np.ndarray:
    """Im<lam|P|psi> per row, for P = Z (``pauli`` 0) or Y (``pauli`` 1)."""
    (psi0, lam0), (psi1, lam1) = a0, a1
    if pauli == 0:  # Im<lam0|psi0> - Im<lam1|psi1>
        terms = lam0.real * psi0.imag - lam0.imag * psi0.real
        terms -= lam1.real * psi1.imag - lam1.imag * psi1.real
    else:  # Re<lam1|psi0> - Re<lam0|psi1>
        terms = lam1.real * psi0.real + lam1.imag * psi0.imag
        terms -= lam0.real * psi1.real + lam0.imag * psi1.imag
    return terms.sum(axis=(-2, -1))
