"""Slow one-at-a-time references for the batched paths of ``qpglab``."""

from fractions import Fraction
from itertools import combinations

import numpy as np

from qpglab import ansatz, decode, policy, qsim, train


def sample_index(probs, rng) -> int:
    """Inverse-CDF draw of one index with one ``rng.random()`` call."""
    cdf = np.cumsum(probs)
    return int(min(np.searchsorted(cdf, rng.random(), side="right"), len(probs) - 1))


def collect_episode(env, encoder, pol, params, rng) -> tuple:
    """One episode alone: a single-row circuit call and one draw per step.

    Returns per-step arrays ``(features, amps, actions, reduced)`` and
    the rewards list; ``reduced`` is the softmax ``(reading, pi)`` of
    each row alone, or None for a Born policy.
    """
    state = env.reset(rng)
    features, amps, actions, readings, pis, rewards = [], [], [], [], [], []
    for _ in range(env.horizon):
        feats = encoder.encode(state)
        final = ansatz.run_bound(ansatz.bind(pol.model, params), feats[None, :])
        reading, probs = policy._reduce(pol, final)
        if isinstance(pol, policy.MeasurementPolicy):
            born = qsim.probabilities(final)[0]
            action = int(pol.postfn.table[sample_index(born, rng)])
        else:
            action = sample_index(probs[0], rng)
        state, reward, terminal = env.step(state, action, rng)
        features.append(feats)
        amps.append(final[0])
        actions.append(action)
        readings.append(reading[0])
        pis.append(probs[0])
        rewards.append(reward)
        if terminal:
            break
    reduced = None
    if isinstance(pol, policy.SoftmaxObservablePolicy):
        reduced = (np.array(readings), np.array(pis))
    steps = (np.array(features), np.array(amps), np.array(actions, dtype=np.int64), reduced)
    return steps, rewards


def collect_alone(env, encoder, pol, params, rngs) -> train.Batch:
    """The episodes of ``rngs``, each collected alone, stacked episode-major."""
    episodes = [collect_episode(env, encoder, pol, params, rng) for rng in rngs]
    features, amps, actions, reduced = zip(*(steps for steps, _ in episodes))
    reduced = None if reduced[0] is None else tuple(map(np.concatenate, zip(*reduced)))
    return train.Batch(
        np.concatenate(features),
        np.concatenate(amps),
        np.concatenate(actions),
        reduced,
        [rewards for _, rewards in episodes],
    )


def episode_rngs(seed: int, count: int) -> list:
    """Generators of episodes 0 .. count-1 of a run seeded with ``seed``:
    ``default_rng`` of the children of child 1 of ``SeedSequence(seed)``.
    """
    _, stream = np.random.SeedSequence(seed).spawn(2)
    return [np.random.default_rng(child) for child in stream.spawn(count)]


def init_rng(seed: int) -> np.random.Generator:
    """Parameter-initialisation generator of a run seeded with ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


def train_run(env, encoder, pol, hyper, seed) -> train.TrainResult:
    """``train.train_run`` one episode at a time, from per-episode arrays.

    Each episode is collected alone (:func:`collect_episode`), its total
    is the exact sum of its rewards rounded once and its returns come from
    ``discounted_returns`` alone; an update stacks the episodes'
    arrays episode-major into one gradient call, which reduces the
    amplitudes itself.
    """
    params = ansatz.init_params(
        pol.model,
        init_rng(seed),
        theta_init=hyper.theta_init,
        theta_scale=hyper.theta_scale,
        lam_init=hyper.lambda_init,
    )
    opt = train.AdamState(policy.num_trainables(pol))
    rates = train.rate_vector(pol, hyper)
    rngs = episode_rngs(seed, hyper.episodes)
    totals = []
    for start in range(0, hyper.episodes, hyper.batch_size):
        batch = collect_alone(env, encoder, pol, params, rngs[start : start + hyper.batch_size])
        if len(batch.rewards) == hyper.batch_size:
            returns = np.concatenate(
                [np.array(train.discounted_returns(r, hyper.gamma)) for r in batch.rewards]
            )
            bound = ansatz.bind(pol.model, params)
            grads = policy.trajectory_log_grads(
                pol, batch.features, batch.actions, bound, batch.amps
            )
            flat = train.adam_amsgrad_step(
                opt, policy.flat_trainables(pol, params), returns @ grads / len(batch.rewards), rates
            )
            params, pol = policy.apply_flat(pol, flat)
        totals += [float(sum(map(Fraction, rewards))) for rewards in batch.rewards]
    means = train._trailing_means(totals, 20)
    records = [train.EpisodeRecord(e, *pair) for e, pair in enumerate(zip(totals, means))]
    return train.TrainResult(records, params, pol)


def start_register(config, params) -> np.ndarray:
    """The register (2**n,) after V_0 and its entangler: layer 0 run on
    |0...0> as one row of the forward pass, gate table and contractions.
    """
    n, d = config.n_qubits, config.depth
    half = params.theta.reshape(d + 1, n, 2, 1).transpose(2, 0, 1, 3)[[0, 1, 1]]
    half *= 0.5
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    return ansatz._run_pass(config, state, half[:, :1])[0]


def running_class_sums(pol, amps) -> np.ndarray:
    """A Born policy's action distributions (T, M), each class summed in basis order.

    Column a is the last running sum of the Born probabilities masked to
    class a: adding a masked-out 0.0 changes no bit, so each sum takes its
    class's terms one at a time, lowest basis index first.
    """
    born = qsim.probabilities(amps)
    table = pol.postfn.table
    sums = [np.cumsum(np.where(table == a, born, 0.0), axis=1)[:, -1] for a in range(pol.num_actions)]
    return np.stack(sums, axis=1)


def exact_policy_gradient(env, encoder, pol, params) -> np.ndarray:
    """Exact gradient (P,) of a bandit's expected reward, in the flat layout.

    J = mean over states s of sum_a r(s, a) pi(a|s).  One circuit call and
    one ``adjoint_grads`` call over the S states.  A Born policy's pi(a|s)
    is the expectation of the class mask ``table == a``, so state s takes
    the weight row ``r_s @ R.T = r(s, table)``.  A softmax policy's Z-mask
    reading x_s enters through d pi_a / d x = beta pi_a (w_a - pi @ w), so
    state s takes the sign row times sum_a r(s, a) of that, and the weight
    block is d pi_a / d w_b = beta x pi_a (delta_ab - pi_b) summed against
    r(s, a).
    """
    states = np.arange(env.num_states)
    feats = encoder.encode(states)
    bound = ansatz.bind(pol.model, params)
    amps = ansatz.run_bound(bound, feats)
    reading, pi = policy._reduce(pol, amps)
    rewards = np.array([[env.step(s, a)[1] for a in range(env.num_actions)] for s in states])
    if isinstance(pol, policy.MeasurementPolicy):
        weights = rewards[:, pol.postfn.table]
        block = np.empty((len(states), 0))
    else:
        gain = rewards * pi
        coeff = pol.beta * (gain @ pol.weights - gain.sum(axis=1) * (pi @ pol.weights))
        weights = coeff[:, None] * policy._z_signs(pol.model.n_qubits, pol.z_qubits)
        block = pol.beta * reading * (gain - gain.sum(axis=1, keepdims=True) * pi)
    grads = ansatz.adjoint_grads(bound, feats, weights, amps)
    return np.hstack([grads, block]).mean(axis=0)


def state_action_probs(pol, features, params) -> np.ndarray:
    """Action distribution (M,) of one state alone."""
    return policy.batch_action_probs(pol, np.asarray(features, dtype=float)[None, :], params)[0]


def log_prob_grad(pol, features, action: int, params) -> np.ndarray:
    """Gradient of ln pi(action | features) for one state alone."""
    feats = np.asarray(features, dtype=float)[None, :]
    bound = ansatz.bind(pol.model, params)
    amps = ansatz.run_bound(bound, feats)
    return policy.trajectory_log_grads(pol, feats, np.array([action]), bound, amps)[0]


def exact_fim(pol, features, params) -> np.ndarray:
    """Exact FIM (P, P) of ``T`` states at one parameter set, not normalised.

    F = (1/T) sum_s sum_a p_a(s) g_a(s) g_a(s)^T with g_a = grad ln p_a,
    the expectation over actions that sampling one action per state
    estimates: one forward pass, then one ``trajectory_log_grads`` call
    per action over the shared amplitudes.
    """
    feats = np.asarray(features, dtype=float)
    bound = ansatz.bind(pol.model, params)
    amps = ansatz.run_bound(bound, feats)
    probs = policy._reduce(pol, amps)[1]
    fim = 0.0
    for action in range(pol.num_actions):
        taken = np.full(len(feats), action)
        grads = policy.trajectory_log_grads(pol, feats, taken, bound, amps)
        fim = fim + (probs[:, action, None] * grads).T @ grads
    return fim / len(feats)


def sample_fims_per_state(pol, sampler, num_param_sets: int, num_states: int, rng) -> np.ndarray:
    """Normalised FIM block (sets, P, P) of ``analysis.sample_fims``, state by state.

    Each state is drawn by its own ``sampler(rng, 1)`` call and run by
    its own ``run_bound`` call, and each action draw takes its own
    ``rng.random()``.
    """
    dim = policy.num_trainables(pol)
    feats = np.vstack([sampler(rng, 1) for _ in range(num_states)])
    per_set = np.empty((num_param_sets, dim, dim))
    for matrix in per_set:
        params_j, policy_j = policy.apply_flat(pol, rng.uniform(-np.pi, np.pi, size=dim))
        bound = ansatz.bind(policy_j.model, params_j)
        amps = np.vstack([ansatz.run_bound(bound, f[None, :]) for f in feats])
        reduced = policy._reduce(policy_j, amps)
        actions = np.array([sample_index(p, rng) for p in reduced[1]])
        grads = policy.trajectory_log_grads(policy_j, feats, actions, bound, amps, reduced)
        fim = grads.T @ grads / num_states
        np.add(fim, fim.T, out=matrix)
        matrix /= 2.0
    per_set *= dim / np.mean(np.trace(per_set, axis1=1, axis2=2))
    return per_set


def sample_fims_per_set(pol, sampler, num_param_sets: int, num_states: int, rng) -> np.ndarray:
    """Unnormalised FIM block (sets, P, P) of ``analysis.sample_fims``, set by set.

    Each set is bound alone, runs all states in one ``run_bound`` call,
    reduces them once, draws its actions with one ``rng.random`` call
    and takes one ``trajectory_log_grads`` call.
    """
    dim = policy.num_trainables(pol)
    feats = sampler(rng, num_states)
    per_set = np.empty((num_param_sets, dim, dim))
    for matrix in per_set:
        params_j, policy_j = policy.apply_flat(pol, rng.uniform(-np.pi, np.pi, size=dim))
        bound = ansatz.bind(policy_j.model, params_j)
        amps = ansatz.run_bound(bound, feats)
        reduced = policy._reduce(policy_j, amps)
        actions = policy._sample_rows(reduced[1], rng.random(num_states))
        grads = policy.trajectory_log_grads(policy_j, feats, actions, bound, amps, reduced)
        fim = grads.T @ grads / num_states
        np.add(fim, fim.T, out=matrix)
        matrix /= 2.0
    return per_set


def _num_qubits(amps: np.ndarray) -> int:
    """Qubit count of amplitudes (..., 2**n)."""
    return amps.shape[-1].bit_length() - 1


def z_mask_expectation(amps: np.ndarray, qubits) -> float:
    """<Z-on-qubits (identity elsewhere)> of one state's amplitudes."""
    probs = qsim.probabilities(amps)
    return float(probs @ policy._z_signs(_num_qubits(amps), tuple(sorted(qubits))))


def parity_via_ancilla(amps: np.ndarray) -> float:
    """All-qubit parity read off an ancilla instead of a global mask.

    Appends an ancilla in |0>, applies a CX from each original qubit
    onto it, and returns P(ancilla=0) - P(ancilla=1); equals the
    all-qubit Z-mask expectation of the original state.
    """
    n = _num_qubits(amps)
    extended = np.zeros(1 << (n + 1), dtype=np.complex128)
    extended[: 1 << n] = amps
    for q in range(n):
        apply_cx(extended, control=q, target=n)
    probs = qsim.probabilities(extended)
    return float(probs[: 1 << n].sum() - probs[1 << n :].sum())


# ---------------------------------------------------------------------------
# The per-qubit gate kernel on half-views of a register


def _paired_view(amps: np.ndarray, n: int, qubit: int) -> np.ndarray:
    # Groups amplitudes into (outer, bit-of-qubit, inner) blocks; a view,
    # so in-place writes hit the original array.
    outer = 1 << (n - 1 - qubit)
    inner = 1 << qubit
    return amps.reshape(amps.shape[:-1] + (outer, 2, inner))


def half_views(amps: np.ndarray, n: int, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Views ``(a0, a1)`` of the amplitudes (..., 2**n) whose ``qubit`` bit is 0 and 1.

    Each has shape ``(..., 2**(n-1-qubit), 2**qubit)``; writes through
    them hit ``amps``.
    """
    view = _paired_view(amps, n, qubit)
    return view[..., 0, :], view[..., 1, :]


def apply_1q_halves(a0: np.ndarray, a1: np.ndarray, u00, u01, u10, u11) -> None:
    """Apply the gate ``[[u00, u01], [u10, u11]]`` in place to half-views.

    ``a0, a1`` come from :func:`half_views`.  The entries may be scalars
    or arrays broadcastable against the leading batch dims with two
    trailing length-1 axes appended.
    """
    new0 = u00 * a0
    new0 += u01 * a1
    # a1 is updated while a0 still holds its original values.  Its
    # product is not formed in place: numpy's in-place complex multiply
    # rounds a single element differently from longer runs, so a
    # one-row call at n = 1 would differ from the same row in a batch.
    a1[...] = u11 * a1
    a1 += u10 * a0
    a0[...] = new0


def param_rows(params, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """One parameter set as ``steps`` rows of (thetas, lams), as the forward oracles read them."""
    return np.tile(params.theta, (steps, 1)), np.tile(params.lam, (steps, 1))


def per_rotation_gate_table(config, thetas, lams, features) -> np.ndarray:
    """The 2x2 entries of every rotation block, before any fusing.

    Returns shape (2d+1, n, 4, B, 1, 1): rotation blocks in circuit
    order V_0, E_1, V_1, ..., E_d, V_d, then qubit, then the entries
    (u00, u01, u10, u11) per row.  A variational rotation is
    Ry(theta') @ Rz(theta), an encoding one Rz(lam' s) @ Ry(lam s).
    """
    n, d = config.n_qubits, config.depth
    batch = thetas.shape[0]
    # (z angle, y angle) of each rotation, blocks in circuit order.
    angles = np.empty((2, 2 * d + 1, n, batch))
    angles[:, 0::2] = thetas.reshape(batch, d + 1, n, 2).transpose(3, 1, 2, 0)
    encoded = lams.reshape(batch, d, n, 2) * features[:, None, ::-1, None]
    angles[:, 1::2] = encoded.transpose(3, 1, 2, 0)[::-1]
    angle_z, angle_y = angles
    c = np.cos(angle_y / 2.0)
    s = np.sin(angle_y / 2.0)
    pm = np.exp(-0.5j * angle_z)
    pp = np.exp(0.5j * angle_z)
    table = np.empty((2 * d + 1, n, 4, batch), dtype=np.complex128)
    np.multiply(c, pm, out=table[:, :, 0])
    np.multiply(c, pp, out=table[:, :, 3])
    # Rz's e^{+i z/2} sits in column 1 of Ry @ Rz (variational, even
    # blocks) but in row 1 of Rz @ Ry (encoding, odd blocks).
    var, enc = slice(0, None, 2), slice(1, None, 2)
    np.multiply(-s[var], pp[var], out=table[var, :, 1])
    np.multiply(s[var], pm[var], out=table[var, :, 2])
    np.multiply(-s[enc], pm[enc], out=table[enc, :, 1])
    np.multiply(s[enc], pp[enc], out=table[enc, :, 2])
    return table[..., None, None]


def per_qubit_adjoint_grads(config, params, features, weights, amps) -> np.ndarray:
    """The adjoint sweep reading each derivative at its own rotation.

    Qubit by qubit, the later Pauli factor of a fused rotation is read
    just before that rotation is undone and the earlier factor just
    after, each as its own sum over half-views.
    """
    n = config.n_qubits
    features = np.asarray(features, dtype=float)
    rows = param_rows(params, len(amps))
    undo = per_rotation_gate_table(config, *rows, features).conj()
    pair = np.empty((2,) + amps.shape, dtype=np.complex128)
    pair[0] = amps
    np.multiply(amps, weights, out=pair[1])
    halves = [half_views(pair, n, q) for q in range(n)]
    angle_grads = np.empty((2,) + undo.shape[:2] + (len(amps),))
    for block in range(len(undo) - 1, -1, -1):
        if block % 2 == 0:
            ansatz._apply_entangler(pair, config, inverse=True)
        later, earlier = (1, 0) if block % 2 == 0 else (0, 1)
        for q in reversed(range(n)):
            a0, a1 = halves[q]
            c00, c01, c10, c11 = undo[block, q]
            angle_grads[later, block, q] = _pauli_grad(later, a0, a1)
            apply_1q_halves(a0, a1, c00, c10, c01, c11)
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
# Gates one at a time on one state's amplitudes (2**n,)


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
    apply_1q_halves(*half_views(amps, n, qubit), u00, u01, u10, u11)


def batch_coeff(values) -> np.ndarray:
    """Per-row gate entries with the two trailing axes the kernels broadcast over."""
    return np.asarray(values)[..., None, None]


def apply_ry(amps: np.ndarray, qubit: int, angle: float) -> np.ndarray:
    """Rotate ``qubit`` about Y by ``angle`` (in place)."""
    n = _num_qubits(amps)
    _check_qubit(n, qubit)
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    apply_1q(amps, n, qubit, c, -s, s, c)
    return amps


def apply_rz(amps: np.ndarray, qubit: int, angle: float) -> np.ndarray:
    """Rotate ``qubit`` about Z by ``angle`` (in place)."""
    n = _num_qubits(amps)
    _check_qubit(n, qubit)
    a0, a1 = half_views(amps, n, qubit)
    a0 *= np.exp(-0.5j * angle)
    a1 *= np.exp(0.5j * angle)
    return amps


def _both_one_indices(n: int, q1: int, q2: int) -> np.ndarray:
    mask = (1 << q1) | (1 << q2)
    return np.nonzero((np.arange(1 << n) & mask) == mask)[0]


def _cx_swap_indices(n: int, control: int, target: int) -> tuple:
    basis = np.arange(1 << n)
    src = np.nonzero(((basis >> control) & 1 == 1) & ((basis >> target) & 1 == 0))[0]
    return src, src | (1 << target)


def apply_cz(amps: np.ndarray, q1: int, q2: int) -> np.ndarray:
    """Controlled-Z on qubits ``q1, q2`` (symmetric, in place)."""
    n = _num_qubits(amps)
    _check_pair(n, q1, q2)
    amps[_both_one_indices(n, q1, q2)] *= -1.0
    return amps


def apply_cx(amps: np.ndarray, control: int, target: int) -> np.ndarray:
    """Controlled-X with the given control and target (in place)."""
    n = _num_qubits(amps)
    _check_pair(n, control, target)
    cx_swap(amps, n, control, target)
    return amps


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
    ansatz._validate_params(config, params)
    ansatz._validate_features(config, features)
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


def sampled_table(big_n: int, num_actions: int, rng) -> np.ndarray:
    """One uniform balanced table from one ``rng.permutation(N)`` call.

    The reference draw of :func:`qpglab.decode._sampled_tables`: the
    a-th block of N/M strings of the permutation is class a.
    """
    return np.argsort(rng.permutation(big_n)) // (big_n // num_actions)


# ---------------------------------------------------------------------------
# Decodings as explicit classes


def recursive_partition_sets(n_qubits: int, num_actions: int) -> dict:
    """Materialise the recursive parity-split classes directly.

    Independent of the closed form in :class:`qpglab.decode.RecursiveParity`:
    the base case splits all strings by total parity, and each recursion
    level splits a class by the parity of bits m..n-1, relabelling the
    parent class as a_m ... a_2 (a_1 xor a_0).  Returns
    ``{action: set of basis indices}``.
    """
    if num_actions == 2:
        strings = range(1 << n_qubits)
        return {p: {b for b in strings if b.bit_count() & 1 == p} for p in (0, 1)}
    parent = recursive_partition_sets(n_qubits, num_actions // 2)
    m = num_actions.bit_length() - 2
    sets = {}
    for a in range(num_actions):
        a0 = a & 1
        a1 = (a >> 1) & 1
        parent_label = ((a >> 2) << 1) | (a1 ^ a0)
        sets[a] = {b for b in parent[parent_label] if (b >> m).bit_count() & 1 == a0}
    return sets


def partition_sets(fn) -> dict:
    """Explicit ``{action: sorted list of basis indices}`` classes."""
    table = fn.table
    return {a: np.nonzero(table == a)[0].tolist() for a in range(fn.num_actions)}


def table_from_sets(n_qubits: int, sets: dict) -> decode.PostProcessing:
    """An explicit table from ``{action: iterable of basis indices}`` classes."""
    table = np.full(1 << n_qubits, -1, dtype=np.int64)
    for action, members in sets.items():
        for b in members:
            if table[b] != -1:
                raise ValueError(f"basis index {b} assigned to two actions")
            table[b] = action
    if (table < 0).any():
        raise ValueError(f"basis index {np.argmax(table < 0)} not assigned to any action")
    return decode.PostProcessing(n_qubits, max(sets) + 1, table)


def subcube_extracted_information(tables: np.ndarray, n: int) -> np.ndarray:
    """``decode._extracted_information`` with tables outermost, top bit first.

    The same two passes over the subcubes of {0,1,*}**n, on a (B, 2**n)
    layout: each step splits the most significant unexpanded bit and
    concatenates its * block, so the contiguous runs are 2**(n-axis-1)
    entries and shortest in the largest steps.
    """
    batch = len(tables)
    value = tables.astype(np.min_scalar_type(-int(tables.max()) - 1))
    stars = np.zeros(1, dtype=np.int8)
    for axis in range(n):
        # Axes 0..axis-1 already range over {0,1,*}; give this one its *.
        value = value.reshape(batch, 3**axis, 2, -1)
        v0, v1 = value[:, :, 0], value[:, :, 1]
        star = np.where(v0 == v1, v0, -1)[:, :, None]
        value = np.concatenate([value, star], axis=2)
        stars = (stars[:, None] + np.array([0, 0, 1], dtype=np.int8)).ravel()
    score = np.where(value.reshape(batch, -1) >= 0, stars, np.int8(-1))
    for axis in range(n):
        # Each string may free this position or keep it.
        score = score.reshape(batch, 2**axis, 3, -1)
        score = np.maximum(score[:, :, :2], score[:, :, 2:])
    return n - score.reshape(batch, -1).astype(np.int64)


def extracted_information(fn, b: int) -> int:
    """Extracted information of the outcome with basis index ``b``."""
    ei = decode._extracted_information(fn.table[None, :], fn.n_qubits)
    return int(ei[0, b])


def save_table(path, fn) -> None:
    """Write ``fn`` in the ``bits,action`` table format that ``decode.load_table`` reads."""
    with open(path, "w") as fh:
        for b, action in enumerate(fn.table.tolist()):
            fh.write(f"{b:0{fn.n_qubits}b},{action}\n")


def load_checkpoint(path, pol):
    """Rebuild ``(params, policy)`` from a ``qpglab train`` checkpoint.

    ``pol`` supplies what a checkpoint does not hold: a Born policy's
    decoding, or a softmax policy's beta and Z mask.  The header must
    name its model, and for a softmax policy its kind and weight count.
    """
    with open(path) as fh:
        head, *values = fh.read().splitlines()
    model = pol.model
    expected = f"n={model.n_qubits} d={model.depth} entangler={model.entangler}"
    if isinstance(pol, policy.SoftmaxObservablePolicy):
        expected += f" kind=softmax weights={pol.num_actions}"
    if head != expected:
        raise ValueError(f"checkpoint header {head!r} does not match {expected!r}")
    flat = np.array([float(v) for v in values])
    expected = policy.num_trainables(pol)
    if len(flat) != expected:
        raise ValueError(f"checkpoint holds {len(flat)} values, expected {expected}")
    return policy.apply_flat(pol, flat)
