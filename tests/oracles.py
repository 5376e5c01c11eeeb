"""Slow one-at-a-time references for the batched paths of ``qpglab``."""

from itertools import combinations

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
        apply_cx(extended, control=q, target=n)
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


# ---------------------------------------------------------------------------
# Gates one at a time on a Statevector


def _check_qubit(n: int, qubit: int) -> None:
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")


def _check_pair(n: int, q1: int, q2: int) -> None:
    _check_qubit(n, q1)
    _check_qubit(n, q2)
    if q1 == q2:
        raise ValueError(f"two-qubit gate needs distinct qubits, got {q1} twice")


def apply_1q(amps: np.ndarray, n: int, qubit: int, u00, u01, u10, u11) -> None:
    """Apply ``[[u00, u01], [u10, u11]]`` to ``qubit`` of amplitudes (..., 2**n) in place.

    Per-row entries are shaped by :func:`batch_coeff`.
    """
    qsim.apply_1q_halves(*qsim.half_views(amps, n, qubit), u00, u01, u10, u11)


def batch_coeff(values) -> np.ndarray:
    """Per-row gate entries with the two trailing axes the kernels broadcast over."""
    return np.asarray(values)[..., None, None]


def apply_ry(state: qsim.Statevector, qubit: int, angle: float) -> qsim.Statevector:
    """Rotate ``qubit`` about Y by ``angle`` (in place)."""
    _check_qubit(state.n_qubits, qubit)
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    apply_1q(state.amps, state.n_qubits, qubit, c, -s, s, c)
    return state


def apply_rz(state: qsim.Statevector, qubit: int, angle: float) -> qsim.Statevector:
    """Rotate ``qubit`` about Z by ``angle`` (in place)."""
    _check_qubit(state.n_qubits, qubit)
    a0, a1 = qsim.half_views(state.amps, state.n_qubits, qubit)
    a0 *= np.exp(-0.5j * angle)
    a1 *= np.exp(0.5j * angle)
    return state


def _both_one_indices(n: int, q1: int, q2: int) -> np.ndarray:
    mask = (1 << q1) | (1 << q2)
    return np.nonzero((np.arange(1 << n) & mask) == mask)[0]


def _cx_swap_indices(n: int, control: int, target: int) -> tuple:
    basis = np.arange(1 << n)
    src = np.nonzero(((basis >> control) & 1 == 1) & ((basis >> target) & 1 == 0))[0]
    return src, src | (1 << target)


def apply_cz(state: qsim.Statevector, q1: int, q2: int) -> qsim.Statevector:
    """Controlled-Z on qubits ``q1, q2`` (symmetric, in place)."""
    _check_pair(state.n_qubits, q1, q2)
    state.amps[_both_one_indices(state.n_qubits, q1, q2)] *= -1.0
    return state


def apply_cx(state: qsim.Statevector, control: int, target: int) -> qsim.Statevector:
    """Controlled-X with the given control and target (in place)."""
    _check_pair(state.n_qubits, control, target)
    cx_swap(state.amps, state.n_qubits, control, target)
    return state


def cx_swap(amps: np.ndarray, n: int, control: int, target: int) -> None:
    """One CX on amplitudes (..., 2**n), in place, by swapping index pairs."""
    src, dst = _cx_swap_indices(n, control, target)
    tmp = amps[..., src].copy()
    amps[..., src] = amps[..., dst]
    amps[..., dst] = tmp


def cx_layer_pairwise(amps: np.ndarray, n: int, inverse: bool = False) -> None:
    """The CX entangler layer one pair at a time, in place.

    Each CX is its own inverse, so the layer's inverse is the reversed order.
    """
    pairs = ansatz.entangler_pairs(n)
    for i, j in reversed(pairs) if inverse else pairs:
        cx_swap(amps, n, i, j)


# ---------------------------------------------------------------------------
# Parameter-shift rule and the circuit's gate census


def gate_counts(config) -> dict:
    """Rotation and entangler gate totals for auditing the layout."""
    n, d = config.n_qubits, config.depth
    pairs = n * (n - 1) // 2
    return {
        "rotations": 2 * n * (d + 1) + 2 * n * d,
        "entanglers": (d + 1) * pairs,
    }


def shift_rows(
    config,
    params,
    features: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All parameter-shift variants of one parameter set, as batch rows.

    Returns ``(thetas, lams, coeffs, owner)`` where row ``r`` evaluates
    with coefficient ``coeffs[r]`` into the derivative of flat
    parameter ``owner[r]``.  Scale entries whose feature is exactly
    zero contribute no rows (their derivative is identically zero).
    """
    features = np.asarray(features, dtype=float)
    ansatz._validate(config, params, features)
    n_theta, n_lam = ansatz.param_counts(config)
    n = config.n_qubits
    rows_theta = []
    rows_lam = []
    coeffs = []
    owner = []
    for j in range(n_theta):
        for sign in (1.0, -1.0):
            t = params.theta.copy()
            t[j] += sign * np.pi / 2.0
            rows_theta.append(t)
            rows_lam.append(params.lam)
            coeffs.append(sign * 0.5)
            owner.append(j)
    for j in range(n_lam):
        s = features[n - 1 - (j % (2 * n)) // 2]
        if s == 0.0:
            continue
        for sign in (1.0, -1.0):
            lam = params.lam.copy()
            lam[j] += sign * np.pi / (2.0 * s)
            rows_theta.append(params.theta)
            rows_lam.append(lam)
            coeffs.append(sign * s / 2.0)
            owner.append(n_theta + j)
    thetas = np.array(rows_theta) if rows_theta else np.empty((0, n_theta))
    lams = np.array(rows_lam) if rows_lam else np.empty((0, n_lam))
    return thetas, lams, np.array(coeffs), np.array(owner, dtype=np.int64)


# ---------------------------------------------------------------------------
# Balanced partitionings one at a time


def enumerate_balanced_masks(big_n: int, num_actions: int):
    """Yield class-mask lists for every balanced partitioning once.

    The reference enumeration in the canonical order of
    :func:`qpglab.decode._balanced_tables`: one big-int mask per class,
    built one partitioning at a time.  Tests check the fast enumeration
    against it through :func:`actions_from_masks`.
    """
    size = big_n // num_actions

    def rec(remaining: tuple, acc: list):
        if not remaining:
            yield list(acc)
            return
        leader, rest = remaining[0], remaining[1:]
        for combo in combinations(rest, size - 1):
            mask = 1 << leader
            for b in combo:
                mask |= 1 << b
            chosen = set(combo)
            acc.append(mask)
            yield from rec(tuple(b for b in rest if b not in chosen), acc)
            acc.pop()

    yield from rec(tuple(range(big_n)), [])


def actions_from_masks(big_n: int, class_masks: list[int]) -> list[int]:
    """The action table of one partitioning given as class masks."""
    actions = [0] * big_n
    for a, mask in enumerate(class_masks):
        while mask:
            low = mask & -mask
            actions[low.bit_length() - 1] = a
            mask ^= low
    return actions


