"""Slow one-at-a-time references for the batched paths of ``qpglab``.

Each circuit kernel has one bitwise oracle, which states the kernel's
arithmetic and must equal it in every bit, and one independent
reference, which must agree with it within a tolerance that
``tests/test_ansatz.py`` states and measures:

* the forward pass (``ansatz.bind`` and ``ansatz.run_bound``): the
  oracle :func:`per_pair_forward`; the reference
  :func:`gate_by_gate_forward`, the circuit one public gate at a time;
* the adjoint sweep (``ansatz.adjoint_grads``): the oracle
  :func:`per_layer_adjoint_grads`, with :func:`per_layer_phase_tables`;
  the reference :func:`shift_rule_grads`, the parameter-shift rule run
  on the gate-by-gate forward.

Output bytes depend on the machine's SIMD and BLAS kernels, so the last
bit is guarded only by the bitwise oracles, which run on the same
machine as the code they check.  A change to a kernel that keeps its
bits is compared against its parent commit in a scratch checkout.  A
copy of the parent's kernel is checked in here only when a recorded
mutant passes every other test; a change that moves bits on purpose
updates the bitwise oracle with it and says why.
"""

from fractions import Fraction
from functools import lru_cache
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
# The forward pass: ``ansatz.bind`` and ``ansatz.run_bound``


def per_pair_forward(config, theta, lam, features, layers=None) -> np.ndarray:
    """Amplitudes (T, 2**n) of the feature rows (T, n), one pair factor at a time.

    ``theta`` and ``lam`` are one flat set for every row, or one set per
    row, (T, |theta|) and (T, |lam|).  Each layer applies the factor
    np.kron(U_{q+1}, U_q) to each qubit pair (q, q+1) with q even, lowest
    first, and at odd n the top qubit's own gate, then the entangler.
    Only the first ``layers`` layers run (all d+1 by default): one layer
    gives the register that ``ansatz.bind`` keeps per set.

    This is ``ansatz.run_bound``'s arithmetic, stated row by row: each
    gate entry is one product of the cos and sin of its half angles, and
    each contraction sums over the factor's columns in order from +0,
    each complex product formed unfused.  Every step is elementwise over
    the rows, so each amplitude must equal the kernel's bit for bit,
    signed zeros included.  The rows run along the last axis and the
    contractions keep real and imaginary parts apart, so each step is
    one pass over contiguous memory.
    """
    n, d = config.n_qubits, config.depth
    features = np.asarray(features, dtype=float)
    rows = len(features)
    thetas = np.broadcast_to(theta, (rows, np.shape(theta)[-1]))
    lams = np.broadcast_to(lam, (rows, np.shape(lam)[-1]))
    state = np.zeros((1 << n, rows), dtype=np.complex128)
    state[0] = 1.0
    for layer in range(d + 1 if layers is None else layers):
        gates = [_fused_gates(n, thetas, lams, features, layer, q) for q in range(n)]
        re, im = state.real.copy(), state.imag.copy()
        for low in range(0, n, 2):
            if low + 1 < n:
                high = gates[low + 1][:, None, :, None]
                factor = (high * gates[low][None, :, None, :]).reshape(4, 4, rows)
            else:
                factor = gates[low]
            shape = (-1, len(factor), 1 << low, rows)
            re, im = _contract(factor, re.reshape(shape), im.reshape(shape))
        state = np.empty((1 << n, rows), dtype=np.complex128)
        state.real, state.imag = re.reshape(state.shape), im.reshape(state.shape)
        entangler_layer(state.T, config)
    return np.ascontiguousarray(state.T)


def _fused_gates(n: int, thetas, lams, features, layer: int, q: int) -> np.ndarray:
    """The fused gates (2, 2, T) of qubit ``q`` in ``layer``, one per row.

    Ry(a) @ Rz(b) @ Ry(c), with b the Rz angle and a, c the outer and inner
    Ry angles (c = 0 in layer 0), from its closed form in the half angles
    b/2 and (a +- c)/2:

        u00 = cos(b/2) cos((a+c)/2) - i sin(b/2) cos((a-c)/2) = conj(u11)
        u01 = -cos(b/2) sin((a+c)/2) - i sin(b/2) sin((a-c)/2) = -conj(u10)
    """
    half_b = 0.5 * thetas[:, 2 * n * layer + 2 * q]
    half_a = 0.5 * thetas[:, 2 * n * layer + 2 * q + 1]
    half_sum = half_diff = half_a
    if layer > 0:
        s_q = features[:, n - 1 - q]
        enc = 2 * n * (layer - 1) + 2 * q
        half_b = half_b + 0.5 * (lams[:, enc + 1] * s_q)
        half_c = 0.5 * (lams[:, enc] * s_q)
        half_sum, half_diff = half_a + half_c, half_a - half_c
    cos_b, sin_b = np.cos(half_b), np.sin(half_b)
    gates = np.empty((2, 2, len(thetas)), dtype=np.complex128)
    u00, u01 = gates[0, 0], gates[0, 1]
    u00.real = cos_b * np.cos(half_sum)
    u00.imag = -(sin_b * np.cos(half_diff))
    u01.real = -(cos_b * np.sin(half_sum))
    u01.imag = -(sin_b * np.sin(half_diff))
    gates[1, 0] = -np.conj(u01)
    gates[1, 1] = np.conj(u00)
    return gates


def _contract(factor, re, im) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``factor`` (w, w, T) applied to axis 1 of the real and
    imaginary parts ``re, im`` (outer, w, inner, T) of its amplitudes.

    The sum over the factor's columns runs in order from +0, each
    complex product formed as (ar br - ai bi) + i (ar bi + ai br).
    """
    fr, fi = factor.real.copy(), factor.imag.copy()
    out_re = out_im = 0.0
    for j in range(len(factor)):
        ar, ai = fr[None, :, j, None], fi[None, :, j, None]
        br, bi = re[:, j : j + 1], im[:, j : j + 1]
        out_re = out_re + (ar * br - ai * bi)
        out_im = out_im + (ar * bi + ai * br)
    return out_re, out_im


def gate_by_gate_forward(config, theta, lam, features) -> np.ndarray:
    """Amplitudes (T, 2**n) of the feature rows (T, n), one public gate at a time.

    The circuit as the ``ansatz`` docstring lays it out, with no fused
    gate and no pair factor: per layer l, Rz then Ry on each qubit, the
    entangler one pair at a time, then before layer l+1 the encoding Ry
    then Rz on each qubit.  ``theta`` and ``lam`` are one flat set for
    every row or one set per row, as :func:`per_pair_forward` takes them.
    """
    n, d = config.n_qubits, config.depth
    features = np.asarray(features, dtype=float)
    theta, lam = np.asarray(theta), np.asarray(lam)
    state = np.zeros((len(features), 1 << n), dtype=np.complex128)
    state[:, 0] = 1.0
    for layer in range(d + 1):
        base = 2 * n * layer
        for q in range(n):
            apply_rz(state, q, theta[..., base + 2 * q])
            apply_ry(state, q, theta[..., base + 2 * q + 1])
        for i, j in ansatz.entangler_pairs(n):
            if config.entangler == "cz":
                apply_cz(state, i, j)
            else:
                apply_cx(state, i, j)
        if layer < d:
            for q in range(n):
                s_q = features[:, n - 1 - q]
                apply_ry(state, q, lam[..., base + 2 * q] * s_q)
                apply_rz(state, q, lam[..., base + 2 * q + 1] * s_q)
    return state


# ---------------------------------------------------------------------------
# The adjoint sweep: ``ansatz.adjoint_grads``


def per_layer_adjoint_grads(bound, features, weights, amps, sets=None) -> np.ndarray:
    """:func:`qpglab.ansatz.adjoint_grads` with every table built per layer.

    Each set's block of rows is swept by :func:`per_layer_sweep`, which
    allocates every temporary afresh and builds each layer's phase table
    from that layer's angles alone, with one cos and one sin over all
    ``2**n`` basis indices.
    """
    config = bound.config
    features = np.asarray(features, dtype=float)
    weights = np.asarray(weights)
    grads = np.empty((len(features), sum(ansatz.param_counts(config))))
    for index, rows in ansatz._row_sets(len(bound.start), sets, len(features)):
        rows_weights = weights[rows] if weights.ndim == 2 else weights
        grads[rows] = per_layer_sweep(
            config, bound.theta[index], bound.lam[index], features[rows], rows_weights, amps[rows]
        )
    return grads


def per_layer_sweep(config, var, lam, features, weights, amps) -> np.ndarray:
    """The backward sweep of one parameter set, its theta ``var`` (d+1, n, 2)
    and its lam (d, n, 2), one layer's tables at a time."""
    d = config.depth
    enc, rz_sums = _sweep_angles(var, lam, features)
    pair = np.empty((2,) + amps.shape, dtype=np.complex128)
    pair[0] = amps
    np.multiply(amps, weights, out=pair[1])
    angle_grads = np.empty((2, 2 * d + 1, config.n_qubits, len(features)))
    for layer in range(d, -1, -1):
        entangler_layer(pair, config, inverse=True)
        pair = _undo_ry_layer(pair, _undo_phases(var[layer, :, 1]), angle_grads[1, 2 * layer])
        _z_reads(pair, angle_grads[0, 2 * layer])
        if layer == 0:
            break
        pair *= _undo_phases(rz_sums[layer - 1])
        phases = _undo_phases(enc[layer - 1, ..., 0])
        pair = _undo_ry_layer(pair, phases, angle_grads[1, 2 * layer - 1])
    angle_grads[0, 1::2] = angle_grads[0, 2::2]
    grads = np.empty((len(amps), sum(ansatz.param_counts(config))))
    return ansatz._flat_grads(angle_grads, features, grads)


def per_layer_phase_tables(config, var, lam, features) -> list:
    """The undo phases of every layer, each built from its angles alone,
    in the order the sweep makes them: the variational Ry layers' one
    row each, stacked (d+1, 2**n), then per layer from the last down,
    its summed Rz table (T, 2**n) and its encoding Ry table."""
    d = config.depth
    enc, rz_sums = _sweep_angles(var, lam, features)
    tables = [np.stack([_undo_phases(var[layer, :, 1]) for layer in range(d + 1)])]
    for layer in range(d - 1, -1, -1):
        tables += [_undo_phases(rz_sums[layer]), _undo_phases(enc[layer, ..., 0])]
    return tables


def _sweep_angles(var, lam, features) -> tuple[np.ndarray, np.ndarray]:
    """The encoded angles (d, T, n, (y, z)) and the summed Rz angles (d, T, n)."""
    enc = np.empty((len(lam), len(features), lam.shape[1], 2))
    np.multiply(lam[:, None], features[:, ::-1, None], out=enc)
    rz_sums = np.empty(enc.shape[:-1])
    np.add(var[1:, None, :, 0], enc[..., 1], out=rz_sums)
    return enc, rz_sums


def _z_reads(pair, out) -> None:
    psi, lam = pair
    im = lam.real * psi.imag
    im -= lam.imag * psi.real
    np.matmul(ansatz._z_sign_table(out.shape[0]), im.T, out=out)


def _undo_phases(angles) -> np.ndarray:
    half = angles @ ansatz._z_sign_table(angles.shape[-1])
    half *= 0.5
    phases = np.empty(half.shape, dtype=np.complex128)
    np.cos(half, out=phases.real)
    np.sin(half, out=phases.imag)
    return phases


def _undo_ry_layer(pair, phases, out) -> np.ndarray:
    n = out.shape[0]
    pair = _change_basis(pair, n, back=False)
    _z_reads(pair, out)
    pair *= phases
    return _change_basis(pair, n, back=True)


def _change_basis(amps, n: int, back: bool) -> np.ndarray:
    out = amps.reshape(-1, 1 << n)
    for low in range(0, n, ansatz._BASIS_GROUP):
        width = min(ansatz._BASIS_GROUP, n - low)
        factor = ansatz._basis_factor(width, back)
        if low == 0:
            out = out.reshape(-1, 1 << width) @ factor.T
        else:
            out = factor @ out.reshape(-1, 1 << width, 1 << low)
    return out.reshape(amps.shape)


def shift_rule_grads(config, params, features, weights) -> np.ndarray:
    """d<psi_t|diag(w_t)|psi_t>/d(theta, lam) of each feature row t by the
    parameter-shift rule (Schuld et al., arXiv:1811.11184), (T, |theta| + |lam|).

    The shifted circuits of every row (:func:`shift_rows`) run through
    :func:`gate_by_gate_forward` as one batch.  ``weights`` is (T, 2**n)
    or one (2**n,) row for all; a stack (K, T, 2**n) of them reuses the
    circuits and gives one gradient per weighting, (K, T, |theta| + |lam|).
    """
    features = np.asarray(features, dtype=float)
    rows = (len(features), 1 << config.n_qubits)
    weights = np.broadcast_to(weights, np.shape(weights)[:-2] + rows)
    shifts = [shift_rows(config, params, feats) for feats in features]
    thetas, lams, coeffs, owner = map(np.concatenate, zip(*shifts))
    row = np.repeat(np.arange(len(features)), [len(shift[2]) for shift in shifts])
    amps = gate_by_gate_forward(config, thetas, lams, features[row])
    expectations = (np.abs(amps) ** 2 * weights[..., row, :]).sum(axis=-1)
    grads = np.zeros(weights.shape[:-1] + (sum(ansatz.param_counts(config)),))
    np.add.at(grads, (..., row, owner), coeffs * expectations)
    return grads


# ---------------------------------------------------------------------------
# Gates one at a time on amplitudes (..., 2**n)


def _check_qubit(n: int, qubit: int) -> None:
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")


def _check_pair(n: int, q1: int, q2: int) -> None:
    _check_qubit(n, q1)
    _check_qubit(n, q2)
    if q1 == q2:
        raise ValueError(f"two-qubit gate needs distinct qubits, got {q1} twice")


def _halves(amps: np.ndarray, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Views ``(a0, a1)`` of the amplitudes (..., 2**n) whose ``qubit`` bit
    is 0 and 1, each (..., 2**(n-1-qubit), 2**qubit); writes through them
    hit ``amps``."""
    view = amps.reshape(amps.shape[:-1] + (-1, 2, 1 << qubit))
    return view[..., 0, :], view[..., 1, :]


def apply_ry(amps: np.ndarray, qubit: int, angle) -> np.ndarray:
    """Rotate ``qubit`` about Y by ``angle`` (in place): one angle for
    amplitudes (..., 2**n), or one per row of amplitudes (T, 2**n)."""
    _check_qubit(_num_qubits(amps), qubit)
    half = np.asarray(angle)[..., None, None] / 2.0
    c, s = np.cos(half), np.sin(half)
    a0, a1 = _halves(amps, qubit)
    new0 = c * a0 - s * a1
    a1 *= c
    a1 += s * a0
    a0[...] = new0
    return amps


def apply_rz(amps: np.ndarray, qubit: int, angle) -> np.ndarray:
    """Rotate ``qubit`` about Z by ``angle`` (in place), one angle or one per row."""
    _check_qubit(_num_qubits(amps), qubit)
    angle = np.asarray(angle)[..., None, None]
    a0, a1 = _halves(amps, qubit)
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
    amps[..., _both_one_indices(n, q1, q2)] *= -1.0
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


def cz_layer_signs(n: int) -> np.ndarray:
    """The CZ layer's diagonal (2**n,), complex: (-1)^(k choose 2) at an
    index with k set bits, the sign of its k (k - 1) / 2 pairs."""
    ones = np.array([bin(x).count("1") for x in range(1 << n)])
    return np.where(ones * (ones - 1) // 2 % 2 == 1, -1.0, 1.0).astype(np.complex128)


def entangler_layer(amps: np.ndarray, config, inverse: bool = False) -> None:
    """The entangler layer, or its inverse, on amplitudes (..., 2**n), in place.

    A CZ layer multiplies once by its complex signs, as the package
    does, so signed zeros agree.  A CX layer gathers through the index
    permutation that :func:`cx_layer_pairwise` makes of the basis
    indices.  One qubit has no entangler.
    """
    n = config.n_qubits
    if n == 1:
        return
    table = _entangler_table(n, config.entangler, inverse)
    if config.entangler == "cz":
        amps *= table
    else:
        amps[...] = amps[..., table]


@lru_cache(maxsize=None)
def _entangler_table(n: int, entangler: str, inverse: bool) -> np.ndarray:
    # The sweep oracle applies a layer per call at every depth, so each
    # table is built once and kept read-only.
    if entangler == "cz":
        table = cz_layer_signs(n)
    else:
        table = np.arange(1 << n)
        cx_layer_pairwise(table, n, inverse)
    table.setflags(write=False)
    return table


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
