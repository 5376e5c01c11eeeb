import re

import numpy as np
import pytest

from qpglab import ansatz, decode, policy, qsim
from qpglab.ansatz import ModelConfig, ParamSet
from qpglab.envs import BinaryEncoder
from oracles import (
    apply_1q,
    apply_cx,
    apply_cz,
    apply_ry,
    apply_rz,
    batch_coeff,
    cx_layer_pairwise,
    gate_counts,
    param_rows,
    per_layer_adjoint_grads,
    per_layer_phase_tables,
    per_qubit_adjoint_grads,
    row_major_run_bound,
    shift_rows,
    start_register,
)

# Published model sizes: ((n, d), |theta| + |lam|).
PUBLISHED_SIZES = [
    ((4, 1), 24),
    ((6, 1), 36),
    ((6, 2), 60),
    ((8, 1), 48),
    ((8, 2), 80),
    ((8, 3), 112),
    ((10, 1), 60),
    ((10, 2), 100),
    ((10, 3), 140),
    ((10, 4), 180),
]


@pytest.mark.parametrize("shape,total", PUBLISHED_SIZES)
def test_param_counts_match_published_sizes(shape, total):
    n, d = shape
    n_theta, n_lam = ansatz.param_counts(ModelConfig(n, d))
    assert n_theta == 2 * n * (d + 1)
    assert n_lam == 2 * n * d
    assert n_theta + n_lam == total


def test_param_count_examples():
    assert ansatz.param_counts(ModelConfig(4, 1)) == (16, 8)
    assert ansatz.param_counts(ModelConfig(6, 2)) == (36, 24)
    assert ansatz.param_counts(ModelConfig(10, 4)) == (100, 80)


def _state(config, params, features):
    """Final amplitudes (2**n,) of one feature row."""
    features = np.asarray(features, dtype=float)[None, :]
    return ansatz.run_bound(ansatz.bind(config, params), features)[0]


def _random_params(config, seed, lam_spread=0.4):
    rng = np.random.default_rng(seed)
    params = ansatz.init_params(config, rng)
    params.lam[:] = rng.normal(1.0, lam_spread, size=params.lam.shape)
    return params, rng


def test_all_zero_parameters_give_zero_state():
    config = ModelConfig(3, 2)
    n_theta, n_lam = ansatz.param_counts(config)
    params = ParamSet(np.zeros(n_theta), np.zeros(n_lam))
    state = _state(config, params, [0.3, -0.7, 0.2])
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.allclose(state, expected, atol=0)


def test_single_qubit_skips_entangler():
    config = ModelConfig(1, 1)
    n_theta, n_lam = ansatz.param_counts(config)
    theta = np.zeros(n_theta)
    theta[1] = 0.9  # Ry angle of the first block
    params = ParamSet(theta, np.zeros(n_lam))
    state = _state(config, params, [0.0])
    assert abs(state[0]) == pytest.approx(np.cos(0.45), abs=1e-12)
    assert abs(state[1]) == pytest.approx(np.sin(0.45), abs=1e-12)


def _gatewise_reference(config, params, features):
    """Independent circuit construction, one public gate at a time."""
    n, d = config.n_qubits, config.depth
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    for layer in range(d + 1):
        base = 2 * n * layer
        for q in range(n):
            apply_rz(state, q, params.theta[base + 2 * q])
            apply_ry(state, q, params.theta[base + 2 * q + 1])
        for i, j in ansatz.entangler_pairs(n):
            if config.entangler == "cz":
                apply_cz(state, i, j)
            else:
                apply_cx(state, i, j)
        if layer < d:
            enc = 2 * n * layer
            for q in range(n):
                s = features[n - 1 - q]
                apply_ry(state, q, params.lam[enc + 2 * q] * s)
                apply_rz(state, q, params.lam[enc + 2 * q + 1] * s)
    return state


@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_run_states_matches_gatewise_construction(entangler):
    config = ModelConfig(3, 2, entangler)
    params, rng = _random_params(config, 11)
    features = rng.uniform(-1, 1, 3)
    fast = _state(config, params, features)
    slow = _gatewise_reference(config, params, features)
    assert np.abs(fast - slow).max() < 1e-12


def test_run_states_deterministic():
    config = ModelConfig(4, 1)
    params, rng = _random_params(config, 3)
    features = rng.uniform(-1, 1, 4)
    first = _state(config, params, features)
    second = _state(config, params, features)
    assert (first == second).all()
    assert np.sum(np.abs(first) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_run_states_rejects_dimension_mismatch():
    config = ModelConfig(3, 1)
    params, _ = _random_params(config, 0)
    with pytest.raises(ValueError):
        _state(config, params, [0.1, 0.2])
    with pytest.raises(ValueError):
        _state(ModelConfig(3, 2), params, [0.1, 0.2, 0.3])


def _rows_of(config, params, features, param_index):
    """(thetas, lams, coeffs) of the shift rows owned by one flat index."""
    thetas, lams, coeffs, owner = shift_rows(config, params, features)
    mine = owner == param_index
    return thetas[mine], lams[mine], coeffs[mine]


def test_shift_rows_variational_terms():
    config = ModelConfig(2, 1)
    params, rng = _random_params(config, 5)
    features = rng.uniform(-1, 1, 2)
    thetas, lams, coeffs = _rows_of(config, params, features, param_index=3)
    assert list(coeffs) == [0.5, -0.5]
    assert thetas[0, 3] == pytest.approx(params.theta[3] + np.pi / 2)
    assert thetas[1, 3] == pytest.approx(params.theta[3] - np.pi / 2)
    others = np.arange(len(params.theta)) != 3
    assert (thetas[:, others] == params.theta[others]).all()
    assert (lams == params.lam).all()


def test_shift_rows_zero_feature_contributes_no_rows():
    config = ModelConfig(2, 1)
    params, _ = _random_params(config, 6)
    features = np.array([0.5, 0.0])
    n_theta, _ = ansatz.param_counts(config)
    _, _, _, owner = shift_rows(config, params, features)
    # lam indices 0, 1 belong to qubit 0, which reads features[1] = 0;
    # indices 2, 3 to qubit 1, reading features[0] = 0.5.
    assert not np.isin([n_theta + 0, n_theta + 1], owner).any()
    _, lams, coeffs = _rows_of(config, params, features, param_index=n_theta + 2)
    assert list(coeffs) == [0.25, -0.25]
    assert lams[0, 2] == pytest.approx(params.lam[2] + np.pi / (2 * 0.5))
    assert len(owner) == 2 * n_theta + 4


def test_shift_rows_rejects_mismatched_shapes():
    config = ModelConfig(2, 1)
    params, _ = _random_params(config, 6)
    with pytest.raises(ValueError):
        shift_rows(config, params, np.zeros(3))
    with pytest.raises(ValueError):
        shift_rows(ModelConfig(2, 2), params, np.zeros(2))


def _probability_vector(config, params, features):
    return qsim.probabilities(_state(config, params, features))


def test_shift_rule_matches_finite_differences_everywhere():
    # Every basis-state probability, every parameter, n=3 d=2.
    config = ModelConfig(3, 2)
    params, rng = _random_params(config, 21)
    features = rng.uniform(-1, 1, 3)
    n_theta, n_lam = ansatz.param_counts(config)
    h = 1e-5
    thetas, lams, coeffs, owner = shift_rows(config, params, features)
    for idx in range(n_theta + n_lam):
        shifted = sum(
            coeffs[r] * _probability_vector(config, ParamSet(thetas[r], lams[r]), features)
            for r in np.nonzero(owner == idx)[0]
        )
        up = ParamSet(params.theta.copy(), params.lam.copy())
        down = ParamSet(params.theta.copy(), params.lam.copy())
        if idx < n_theta:
            up.theta[idx] += h
            down.theta[idx] -= h
        else:
            up.lam[idx - n_theta] += h
            down.lam[idx - n_theta] -= h
        fd = (
            _probability_vector(config, up, features)
            - _probability_vector(config, down, features)
        ) / (2 * h)
        assert np.abs(shifted - fd).max() < 1e-5


def shift_rule_expval_grads(config, params, features, weights):
    """Oracle: d<diag(w_t)>/dparam per row by the parameter-shift rule."""
    out = np.zeros((len(features), sum(ansatz.param_counts(config))))
    for t, f in enumerate(features):
        thetas, lams, coeffs, owner = shift_rows(config, params, f)
        amps = _per_rotation_run_batch(
            config, thetas, lams, np.broadcast_to(f, (len(coeffs), len(f)))
        )
        np.add.at(out[t], owner, coeffs * ((np.abs(amps) ** 2) @ weights[t]))
    return out


@pytest.mark.parametrize("depth", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_adjoint_grads_match_shift_rule(entangler, n, depth):
    config = ModelConfig(n, depth, entangler)
    params, rng = _random_params(config, 100 * n + depth)
    features = rng.uniform(-1, 1, (4, n))
    features[1, 0] = 0.0
    weights = rng.normal(size=(4, 1 << n))
    bound = ansatz.bind(config, params)
    amps = ansatz.run_bound(bound, features)
    grads = ansatz.adjoint_grads(bound, features, weights, amps)
    oracle = shift_rule_expval_grads(config, params, features, weights)
    assert np.abs(grads - oracle).max() < 1e-10
    # features[1, 0] drives qubit n-1, whose scale entries are 2(n-1), 2(n-1)+1.
    n_theta, _ = ansatz.param_counts(config)
    for block in range(depth):
        for offset in (2 * (n - 1), 2 * (n - 1) + 1):
            assert grads[1, n_theta + 2 * n * block + offset] == 0.0


def test_adjoint_grads_broadcast_one_weight_row():
    config = ModelConfig(3, 2, "cx")
    params, rng = _random_params(config, 7)
    features = rng.uniform(-1, 1, (5, 3))
    weights = rng.normal(size=8)
    bound = ansatz.bind(config, params)
    amps = ansatz.run_bound(bound, features)
    shared = ansatz.adjoint_grads(bound, features, weights, amps)
    tiled = ansatz.adjoint_grads(bound, features, np.tile(weights, (5, 1)), amps)
    assert (shared == tiled).all()
    empty = ansatz.adjoint_grads(bound, features[:0], weights, amps[:0])
    assert empty.shape == (0, sum(ansatz.param_counts(config)))
    # Any other shape is refused, alone as in a stack of sets.
    message = r"weights must have shape \(5, 8\) or \(8,\), got \(1, 8\)"
    with pytest.raises(ValueError, match=message):
        ansatz.adjoint_grads(bound, features, weights[None], amps)


# The layer-wide sweep changes basis and sums each derivative in
# another order than the per-qubit half-view sums.  The largest
# difference measured on this test's cases was 1.27e-14 (1.4e-14 over
# n 1-8, d 1/2/3/5, cz and cx, T = 57), and the bound leaves a factor
# of five above it.
PER_QUBIT_READOUT_TOL = 6.5e-14


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_adjoint_grads_match_per_qubit_readout(entangler, n, depth):
    config = ModelConfig(n, depth, entangler)
    params, rng = _random_params(config, 500 + 10 * n + depth)
    features = rng.uniform(-2, 2, (57, n))
    bound = ansatz.bind(config, params)
    amps = ansatz.run_bound(bound, features)
    for weights in (rng.normal(size=(57, 1 << n)), 1.0 - 2.0 * (rng.random(1 << n) < 0.5)):
        grads = ansatz.adjoint_grads(bound, features, weights, amps)
        oracle = per_qubit_adjoint_grads(config, params, features, weights, amps)
        assert np.abs(grads - oracle).max() <= PER_QUBIT_READOUT_TOL


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("extra", [1, 3])
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_adjoint_grads_on_grouped_basis_change(entangler, extra, depth):
    # Past _BASIS_GROUP qubits the Y-basis change runs group by group.
    n = ansatz._BASIS_GROUP + extra
    config = ModelConfig(n, depth, entangler)
    params, rng = _random_params(config, 700 + 10 * n + depth)
    features = rng.uniform(-2, 2, (3, n))
    features[1, 0] = 0.0
    weights = rng.normal(size=(3, 1 << n))
    bound = ansatz.bind(config, params)
    amps = ansatz.run_bound(bound, features)
    grads = ansatz.adjoint_grads(bound, features, weights, amps)
    assert np.abs(grads - shift_rule_expval_grads(config, params, features, weights)).max() < 1e-10
    oracle = per_qubit_adjoint_grads(config, params, features, weights, amps)
    assert np.abs(grads - oracle).max() <= PER_QUBIT_READOUT_TOL
    n_theta, _ = ansatz.param_counts(config)
    for block in range(depth):
        for offset in (2 * (n - 1), 2 * (n - 1) + 1):
            assert grads[1, n_theta + 2 * n * block + offset] == 0.0


def test_adjoint_grads_build_no_gate_table(monkeypatch):
    config = ModelConfig(3, 2, "cx")
    params, rng = _random_params(config, 12)
    features = rng.uniform(-1, 1, (4, 3))
    weights = rng.normal(size=(4, 8))
    bound = ansatz.bind(config, params)
    amps = ansatz.run_bound(bound, features)
    expected = ansatz.adjoint_grads(bound, features, weights, amps)

    def refuse(*args):
        raise AssertionError("adjoint_grads built a gate table")

    monkeypatch.setattr(ansatz, "_gate_table", refuse)
    grads = ansatz.adjoint_grads(bound, features, weights, amps)
    assert grads.tobytes() == expected.tobytes()


@pytest.mark.parametrize("depth", [1, 2, 3, 5])
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_sweep_bit_identical_to_per_layer_oracle(monkeypatch, entangler, n, depth):
    # The sweep makes its phase tables with cos and sin over the low
    # half of the basis indices only, the variational Ry tables in one
    # batched pass, and keeps its buffers between calls; the per-layer
    # sweep builds each table alone over all indices and allocates
    # afresh.  Gradients must agree in every bit, signed zeros included.  BinaryEncoder's 0/pi features under negative scale
    # factors make encoded angles of -0.0 and -pi, so half-angle sums of
    # either zero occur; a third of the angles are 0, -0.0 or +-pi.
    config = ModelConfig(n, depth, entangler)
    rng = np.random.default_rng(1000 + 10 * n + depth)
    encoder = BinaryEncoder(n)
    n_theta, n_lam = ansatz.param_counts(config)

    def draw_sets(count):
        theta = rng.uniform(-np.pi, np.pi, (count, n_theta))
        special = rng.random(theta.shape) < 1 / 3
        theta[special] = rng.choice([0.0, -0.0, np.pi, -np.pi], special.sum())
        lam = -rng.choice([0.5, 1.0, 1.0, 2.0], (count, n_lam))
        return ParamSet(theta, lam)

    def check(bound, features, sets):
        amps = ansatz.run_bound(bound, features, sets=sets)
        actions = rng.integers(0, 2, (len(features), 1))
        born = (rng.integers(0, 2, 1 << n) == actions).astype(float)
        for weights in (born, rng.normal(size=1 << n)):
            grads = ansatz.adjoint_grads(bound, features, weights, amps, sets=sets)
            expected = per_layer_adjoint_grads(bound, features, weights, amps, sets)
            assert np.array_equal(grads.view(np.uint64), expected.view(np.uint64))

    phase_table = ansatz._phase_table
    made = []

    def recorded(half, phases, lows, zeros):
        phase_table(half, phases, lows, zeros)
        made.append(phases.copy())

    for rows in (0, 1, 3, 10, 100):
        features = encoder.encode(rng.integers(0, 1 << n, rows))
        stack = draw_sets(1)
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ansatz, "_phase_table", recorded)
            check(ansatz.bind(config, ParamSet(stack.theta[0], stack.lam[0])), features, None)
        # Every phase table the sweep made, bit for bit: a signed zero of
        # a table seldom reaches a gradient.
        var, lam = stack.theta[0].reshape(-1, n, 2), stack.lam[0].reshape(-1, n, 2)
        expected = np.vstack(per_layer_phase_tables(config, var, lam, features) * 2)
        assert np.array_equal(np.vstack(made).view(np.uint64), expected.view(np.uint64))
        sizes = [rows, rows // 2, 1]
        features = encoder.encode(rng.integers(0, 1 << n, sum(sizes)))
        check(ansatz.bind(config, draw_sets(3)), features, np.repeat(np.arange(3), sizes))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cx_layer_permutation_matches_pairwise_swaps(n):
    rng = np.random.default_rng(n)
    amps = rng.normal(size=(3, 1 << n)) + 1j * rng.normal(size=(3, 1 << n))
    config = ModelConfig(n, 1, "cx")
    for inverse in (False, True):
        fast = amps.copy()
        ansatz._apply_entangler(fast, config, inverse=inverse)
        slow = amps.copy()
        cx_layer_pairwise(slow, n, inverse=inverse)
        assert _same_bits(fast, slow)
    ansatz._apply_entangler(fast, config)
    assert _same_bits(fast, amps)


def test_adjoint_grads_reject_amplitudes_of_another_shape():
    config = ModelConfig(3, 1)
    params, rng = _random_params(config, 9)
    features = rng.uniform(-1, 1, (4, 3))
    bound = ansatz.bind(config, params)
    amps = ansatz.run_bound(bound, features)
    with pytest.raises(ValueError, match="amps must have shape"):
        ansatz.adjoint_grads(bound, features, np.ones(8), amps[:3])


def test_encoding_linear_in_scale_factors():
    # Doubling both scale entries of one qubit equals doubling its feature.
    config = ModelConfig(3, 1)
    params, rng = _random_params(config, 8)
    features = rng.uniform(-1, 1, 3)
    doubled_params = ParamSet(params.theta.copy(), params.lam.copy())
    qubit = 1
    doubled_params.lam[2 * qubit] *= 2.0
    doubled_params.lam[2 * qubit + 1] *= 2.0
    doubled_features = features.copy()
    doubled_features[config.n_qubits - 1 - qubit] *= 2.0
    left = _state(config, doubled_params, features)
    right = _state(config, params, doubled_features)
    assert np.abs(left - right).max() < 1e-12


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (4, 3), (5, 1)])
def test_gate_count_audit(n, d):
    counts = gate_counts(ModelConfig(n, d))
    assert counts["rotations"] == 2 * n * (d + 1) + 2 * n * d
    assert counts["entanglers"] == (d + 1) * n * (n - 1) // 2


def test_init_params_conventions():
    config = ModelConfig(3, 1)
    rng = np.random.default_rng(0)
    params = ansatz.init_params(config, rng)
    assert (params.theta >= -np.pi).all() and (params.theta < np.pi).all()
    assert (params.lam == 1.0).all()
    normal = ansatz.init_params(config, rng, theta_init="normal", theta_scale=0.1)
    assert np.abs(normal.theta).max() < 1.0  # loose sanity for sigma=0.1


def _per_rotation_run_batch(config, thetas, lams, features):
    """Oracle: the unfused forward pass, one rotation at a time, 2d+1 blocks."""
    n, d = config.n_qubits, config.depth
    amps = np.zeros((thetas.shape[0], 1 << n), dtype=np.complex128)
    amps[:, 0] = 1.0

    def rotate(qubit, angle_y, angle_z, z_first):
        c = np.cos(angle_y / 2.0)
        s = np.sin(angle_y / 2.0)
        pm = np.exp(-0.5j * angle_z)
        pp = np.exp(0.5j * angle_z)
        if z_first:  # Ry(angle_y) @ Rz(angle_z)
            apply_1q(amps, n, qubit, c * pm, -s * pp, s * pm, c * pp)
        else:  # Rz(angle_z) @ Ry(angle_y)
            apply_1q(amps, n, qubit, c * pm, -s * pm, s * pp, c * pp)

    for layer in range(d + 1):
        base = 2 * n * layer
        for q in range(n):
            rotate(
                q,
                batch_coeff(thetas[:, base + 2 * q + 1]),
                batch_coeff(thetas[:, base + 2 * q]),
                z_first=True,
            )
        ansatz._apply_entangler(amps, config)
        if layer < d:
            for q in range(n):
                s_q = features[:, n - 1 - q]
                rotate(
                    q,
                    batch_coeff(lams[:, base + 2 * q] * s_q),
                    batch_coeff(lams[:, base + 2 * q + 1] * s_q),
                    z_first=False,
                )
    return amps


def _complex(re, im):
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    return out


def _fused_gate(config, thetas, lams, features, layer, q):
    """The 2x2 fused gate of one row on qubit ``q`` in ``layer``.

    The gate is Ry(a) @ Rz(b) @ Ry(c), from its closed form in the half
    angles b/2 and (a +- c)/2.
    """
    n = config.n_qubits
    half_b = 0.5 * thetas[2 * n * layer + 2 * q]
    half_a = 0.5 * thetas[2 * n * layer + 2 * q + 1]
    half_sum = half_diff = half_a
    if layer > 0:
        s_q = features[n - 1 - q]
        enc = 2 * n * (layer - 1) + 2 * q
        half_b = half_b + 0.5 * (lams[enc + 1] * s_q)
        half_c = 0.5 * (lams[enc] * s_q)
        half_sum, half_diff = half_a + half_c, half_a - half_c
    cos_b, sin_b = np.cos(half_b), np.sin(half_b)
    u00 = complex(cos_b * np.cos(half_sum), -(sin_b * np.cos(half_diff)))
    u01 = complex(-(cos_b * np.sin(half_sum)), -(sin_b * np.sin(half_diff)))
    return np.array([[u00, u01], [-u01.conjugate(), u00.conjugate()]])


def _contract(factor, view):
    """``factor`` applied to the middle axis of ``view`` (outer, w, inner).

    The sum over the factor's columns runs in order from zero, each
    complex product formed as (ar br - ai bi) + i (ar bi + ai br).
    """
    re, im = np.zeros(view.shape), np.zeros(view.shape)
    for j in range(len(factor)):
        f, v = factor[:, j, None], view[:, j : j + 1]
        re = re + (f.real * v.real - f.imag * v.imag)
        im = im + (f.real * v.imag + f.imag * v.real)
    return _complex(re, im)


def _per_pair_run_batch(config, thetas, lams, features):
    """Oracle: the forward pass one row at a time, one pair factor at a time.

    Each layer applies np.kron(U_{q+1}, U_q) to qubits (q, q+1) for even
    q, and at odd n the top qubit's own gate, then the entangler.
    """
    n, d = config.n_qubits, config.depth
    amps = np.empty((len(thetas), 1 << n), dtype=np.complex128)
    for row in range(len(thetas)):
        state = np.zeros(1 << n, dtype=np.complex128)
        state[0] = 1.0
        for layer in range(d + 1):
            gates = [
                _fused_gate(config, thetas[row], lams[row], features[row], layer, q)
                for q in range(n)
            ]
            for low in range(0, n, 2):
                factor = np.kron(gates[low + 1], gates[low]) if low + 1 < n else gates[low]
                state = _contract(factor, state.reshape(-1, len(factor), 1 << low)).ravel()
            ansatz._apply_entangler(state, config)
        amps[row] = state
    return amps


def _same_bits(a, b):
    # Stricter than ==, which equates 0.0 with -0.0.
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# Fusing E_l into V_l and contracting pair factors rounds the forward
# pass differently from the per-rotation oracle.  The largest amplitude
# difference measured over this file's forward cases was 6.2e-16
# (7.8e-16 over n 1-8, d 1/2/3/5, cz and cx, 1 or 7 rows), and the
# bound leaves a factor of almost four above it.
FORWARD_ORACLE_TOL = 3e-15


def _random_rows(config, rng, steps):
    """Per-row (thetas, lams, features), with one feature exactly zero."""
    n_theta, n_lam = ansatz.param_counts(config)
    thetas = rng.uniform(-np.pi, np.pi, (steps, n_theta))
    lams = rng.normal(1.0, 0.5, (steps, n_lam))
    features = rng.uniform(-2, 2, (steps, config.n_qubits))
    features[0, -1] = 0.0
    return thetas, lams, features


@pytest.mark.parametrize("steps", [1, 7])
@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_forward_bit_identical_to_per_gate_oracle(entangler, n, depth, steps):
    config = ModelConfig(n, depth, entangler)
    params, rng = _random_params(config, 1000 * n + 10 * depth + steps)
    features = _random_rows(config, rng, steps)[2]
    states = ansatz.run_bound(ansatz.bind(config, params), features)
    assert states.flags.c_contiguous
    shared = (*param_rows(params, steps), features)
    assert _same_bits(states, _per_pair_run_batch(config, *shared))
    assert np.abs(states - _per_rotation_run_batch(config, *shared)).max() <= FORWARD_ORACLE_TOL


@pytest.mark.parametrize("steps", [1, 7, 2 * 512 + 3])
@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_bound_forward_bit_identical_to_per_gate_oracle(entangler, n, depth, steps):
    config = ModelConfig(n, depth, entangler)
    params, rng = _random_params(config, 2000 * n + 10 * depth + steps)
    features = _random_rows(config, rng, steps)[2]
    amps = ansatz.run_bound(ansatz.bind(config, params), features)
    rows = (*param_rows(params, steps), features)
    assert amps.flags.c_contiguous
    assert np.abs(amps - _per_rotation_run_batch(config, *rows)).max() <= FORWARD_ORACLE_TOL
    # The per-pair oracle evolves each row alone, so a sample of rows is
    # as strict as all of them: the first seven, both sides of every
    # multiple of 512, and the last.
    edges = [p + i for p in range(512, steps, 512) for i in (-1, 0)]
    sample = np.unique([*range(min(steps, 7)), *edges, steps - 1])
    oracle = _per_pair_run_batch(config, *(r[sample] for r in rows))
    assert _same_bits(amps[sample], oracle)


def test_one_bound_set_gives_the_same_rows_at_every_call_size():
    config = ModelConfig(4, 5, "cx")
    params, rng = _random_params(config, 5)
    bound = ansatz.bind(config, params)
    features = rng.uniform(-2, 2, (2 * 512 + 3, 4))
    whole = ansatz.run_bound(bound, features)
    for size in (1, 5, 7, 512 + 1):
        parts = [ansatz.run_bound(bound, features[i : i + size]) for i in range(0, 40, size)]
        assert _same_bits(np.vstack(parts)[:40], whole[:40])
    assert _same_bits(ansatz.run_bound(bound, features[::-1])[::-1], whole)
    for array in (bound.theta_half, bound.lam_terms, bound.start):
        assert not array.flags.writeable


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_bound_rows_do_not_depend_on_grouping(entangler, n, depth):
    # The lockstep rollouts of train.collect_episodes rest on this.
    config = ModelConfig(n, depth, entangler)
    params, rng = _random_params(config, 90 + 10 * n + depth)
    bound = ansatz.bind(config, params)
    count = 2 * 512 + 3
    features = _random_rows(config, rng, count)[2]
    whole = ansatz.run_bound(bound, features)
    for size in (7, 1):
        parts = [ansatz.run_bound(bound, features[i : i + size]) for i in range(0, count, size)]
        assert _same_bits(np.vstack(parts), whole)
    assert _same_bits(ansatz.run_bound(bound, features[::-1])[::-1], whole)
    assert ansatz.run_bound(bound, features[:0]).shape == (0, 1 << n)


@pytest.mark.parametrize("depth", [1, 2, 5])
@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_run_bound_bit_identical_to_row_major_forward(entangler, n, depth):
    # The registers keep the rows innermost, and each contraction reads
    # the factors as the gate table lays them out.  einsum forms every
    # complex product unfused and sums over j in order from +0, whichever
    # axis is innermost, so each amplitude equals the row-major forward's
    # bit for bit, signed zeros included.  Exact zeros in the features
    # and angles make exact zeros in the gates.
    config = ModelConfig(n, depth, entangler)
    rng = np.random.default_rng(300 * n + depth + (entangler == "cx"))
    n_theta, n_lam = ansatz.param_counts(config)
    for rows in (1, 2, 7, 200):
        for num_sets in (1, 3):
            theta = rng.uniform(-np.pi, np.pi, (num_sets, n_theta))
            theta[rng.random(theta.shape) < 0.1] = 0.0
            lam = rng.normal(1.0, 0.5, (num_sets, n_lam))
            features = rng.uniform(-2, 2, (num_sets * rows, n))
            features[rng.random(features.shape) < 0.2] = 0.0
            features[0, -1] = 0.0
            if num_sets == 1:
                params, sets = ParamSet(theta[0], lam[0]), None
            else:
                params, sets = ParamSet(theta, lam), np.repeat(np.arange(num_sets), rows)
            amps = ansatz.run_bound(ansatz.bind(config, params), features, sets=sets)
            assert amps.flags.c_contiguous
            assert _same_bits(amps, row_major_run_bound(config, params, features, sets))


@pytest.mark.parametrize("num_sets", [1, 2])
@pytest.mark.parametrize("n,rows", [(1, 1), (1, 5), (2, 1), (3, 7), (4, 200)])
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_results_never_share_memory_with_the_workspace(entangler, n, rows, num_sets):
    # run_bound hands back a copy of the register it ends in, and bind
    # its start registers.  At n = 1 with one row the transposed (1, 2)
    # register is already C-contiguous, so np.ascontiguousarray would
    # hand back the workspace itself, for the next call to overwrite.
    config = ModelConfig(n, 2, entangler)
    rng = np.random.default_rng(40 + 10 * n + rows)
    n_theta, n_lam = ansatz.param_counts(config)
    stack = ParamSet(
        rng.uniform(-np.pi, np.pi, (num_sets, n_theta)), rng.normal(1.0, 0.5, (num_sets, n_lam))
    )
    sets = np.repeat(np.arange(num_sets), rows)
    features = rng.uniform(-2, 2, (len(sets), n))
    bound = ansatz.bind(config, stack)
    first = ansatz.run_bound(bound, features, sets=sets)
    kept, start = first.copy(), bound.start.copy()
    again = ansatz.bind(config, ParamSet(stack.theta[::-1].copy(), stack.lam[::-1].copy()))
    second = ansatz.run_bound(again, features[::-1], sets=sets)
    buffers = [buffer for work in ansatz._WORKSPACES.values() for buffer in work.buffers]
    for array in (first, second, bound.start, again.start):
        assert not any(np.shares_memory(array, buffer) for buffer in buffers)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(bound.start, again.start)
    assert _same_bits(first, kept) and _same_bits(bound.start, start)


def test_warm_wide_call_allocates_little_beyond_its_result():
    # A warm 200-row call at the FIM benchmark's shape (n = 4, d = 3)
    # writes every table and register into its kept workspace.  Measured
    # under tracemalloc on numpy 2.4.6, its peak above the memory traced
    # before it is 201.5 KB: the 50 KB result, and the iterator buffers
    # numpy allocates inside the gate table's broadcast products (the
    # row-major forward peaked at 1,053 KB).  The bound is the result
    # plus two complex buffers of np.getbufsize() elements, what one
    # buffered product of two broadcast complex operands may take, plus
    # 16 KB for small objects: 329 KB at numpy's default buffer size.
    import tracemalloc

    config = ModelConfig(4, 3, "cz")
    bound = ansatz.bind(config, _random_params(config, 77)[0])
    features = np.random.default_rng(78).normal(0.0, 0.5, (200, 4))
    ansatz.run_bound(bound, features)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        amps = ansatz.run_bound(bound, features)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= amps.nbytes + 2 * np.getbufsize() * 16 + (16 << 10)


def test_workspaces_stay_within_their_byte_bound(monkeypatch):
    # A new shape evicts the oldest kept workspaces until all fit, and
    # a workspace larger than the bound serves its call without being kept.
    monkeypatch.setattr(ansatz, "_WORKSPACES", {})
    config = ModelConfig(3, 2)
    bound = ansatz.bind(config, _random_params(config, 79)[0])
    small = ansatz._Workspace((3, 2, 3, 10)).nbytes
    monkeypatch.setattr(ansatz, "_WORKSPACE_BYTES", 3 * small)
    features = np.random.default_rng(80).uniform(-1, 1, (40, 3))
    expected = [ansatz.run_bound(bound, features[:rows]) for rows in (10, 9, 8, 40)]
    for rows in (10, 9, 8, 40, 7):
        amps = ansatz.run_bound(bound, features[:rows])
        if rows != 7:
            assert _same_bits(amps, expected.pop(0))
        kept = sum(work.nbytes for work in ansatz._WORKSPACES.values())
        assert kept <= ansatz._WORKSPACE_BYTES
    assert (3, 2, 3, 40) not in ansatz._WORKSPACES
    assert list(ansatz._WORKSPACES) == [(3, 2, 3, 9), (3, 2, 3, 8), (3, 2, 3, 7)]


def _sweep_case(config, rows, seed, num_sets=1):
    """A bound stack, its (features, weights, amps) and row-to-set index."""
    rng = np.random.default_rng(seed)
    n_theta, n_lam = ansatz.param_counts(config)
    stack = ParamSet(
        rng.uniform(-np.pi, np.pi, (num_sets, n_theta)), rng.normal(1.0, 0.5, (num_sets, n_lam))
    )
    sets = np.repeat(np.arange(num_sets), rows)
    features = rng.uniform(-2, 2, (len(sets), config.n_qubits))
    weights = rng.normal(size=(len(sets), 1 << config.n_qubits))
    bound = ansatz.bind(config, stack)
    return bound, features, weights, ansatz.run_bound(bound, features, sets=sets), sets


@pytest.mark.parametrize("n,depth,rows", [(4, 3, 10), (3, 5, 7), (1, 2, 1)])
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_sweep_bit_identical_whatever_its_tables_per_pass(monkeypatch, entangler, n, depth, rows):
    # The sweep makes its per-row phase tables as many at a time as
    # _SWEEP_TABLE_ENTRIES holds; a pass may start and end within a
    # layer.  Every count, from one table a pass to all 2 d in one,
    # gives the per-layer oracle's gradients in every bit.
    config = ModelConfig(n, depth, entangler)
    bound, features, weights, amps, sets = _sweep_case(config, rows, 70 + n, num_sets=2)
    expected = per_layer_adjoint_grads(bound, features, weights, amps, sets)
    for per_pass in range(1, 2 * depth + 1):
        monkeypatch.setattr(ansatz, "_SWEEP_TABLE_ENTRIES", per_pass * rows << n)
        monkeypatch.setattr(ansatz, "_WORKSPACES", {})
        assert ansatz._tables_per_pass(depth, rows, 1 << n) == per_pass
        grads = ansatz.adjoint_grads(bound, features, weights, amps, sets=sets)
        assert _same_bits(grads, expected)


@pytest.mark.parametrize("depth", [1, 2, 3, 5])
@pytest.mark.parametrize("n", range(1, 9))
def test_sweep_workspace_holds_every_smaller_row_count(monkeypatch, n, depth):
    # A kept sweep workspace serves every sweep of fewer rows, whose
    # passes may make more tables at once than its own would; its views
    # of every such row count fit its buffers.
    monkeypatch.setattr(ansatz, "_SWEEP_TABLE_ENTRIES", 1 << 10)
    for rows in (1, 2, 3, 7, 40, 129, 300):
        work = ansatz._SweepWorkspace(n, depth, rows)
        for fewer in range(rows + 1):
            passes = work.arrays(fewer)[2]
            per_pass = ansatz._tables_per_pass(depth, fewer, 1 << n)
            assert len(passes) == -(-2 * depth // per_pass)
            made = [table.shape for *_, tables in passes for table in tables]
            assert made == [(depth + 1, 1 << n)] + [(fewer, 1 << n)] * (2 * depth)


@pytest.mark.parametrize("n,depth,rows", [(4, 5, 230), (4, 3, 100)])
def test_warm_sweep_allocates_little_beyond_its_result(n, depth, rows):
    # A warm sweep at the CartPole (n = 4, d = 5) and FIM (n = 4, d = 3)
    # benchmark shapes writes every per-row array into its kept
    # workspace.  What it still allocates are the iterator buffers numpy
    # takes inside broadcast products, at most two complex buffers of
    # np.getbufsize() elements, and small objects.  The buffer size is
    # cut to 1024 elements so that a table of the sweep's own would
    # show: measured under tracemalloc on numpy 2.4.6, the peak above
    # the memory traced before the call is the result plus 34.8 KB at
    # both shapes, and was the result plus 849 and 261 KB when the sweep
    # allocated its temporaries per call.
    import tracemalloc

    bound, features, weights, amps, _ = _sweep_case(ModelConfig(n, depth, "cz"), rows, 81)
    size = np.setbufsize(1024)
    try:
        ansatz.adjoint_grads(bound, features, weights, amps)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grads = ansatz.adjoint_grads(bound, features, weights, amps)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    finally:
        np.setbufsize(size)
    assert peak <= grads.nbytes + 2 * 1024 * 16 + (16 << 10)


def test_forward_and_sweep_workspaces_share_one_byte_bound(monkeypatch):
    # The sweep's workspace is kept per (n, d), beside the forward's per
    # shape, under the one byte bound: it grows to the most rows a sweep
    # has had, evicting the oldest kept workspaces, and one larger than
    # the bound serves its call without being kept.
    monkeypatch.setattr(ansatz, "_WORKSPACES", {})
    config = ModelConfig(3, 2)
    bound, features, weights, amps, _ = _sweep_case(config, 40, 82)
    forward = ansatz._Workspace((3, 2, 3, 10)).nbytes
    sweep = ansatz._SweepWorkspace(3, 2, 10).nbytes
    monkeypatch.setattr(ansatz, "_WORKSPACE_BYTES", 2 * forward + sweep)
    monkeypatch.setattr(ansatz, "_WORKSPACES", {})
    key = ("sweep", 3, 2)
    calls = [("sweep", 10), ("forward", 10), ("forward", 9), ("sweep", 8), ("sweep", 12)]
    for stage, rows in calls + [("sweep", 40)]:
        if stage == "forward":
            assert _same_bits(ansatz.run_bound(bound, features[:rows]), amps[:rows])
        else:
            args = (bound, features[:rows], weights[:rows], amps[:rows])
            grads = ansatz.adjoint_grads(*args)
            assert _same_bits(grads, per_layer_adjoint_grads(*args))
        kept = sum(work.nbytes for work in ansatz._WORKSPACES.values())
        assert kept <= ansatz._WORKSPACE_BYTES
        if (stage, rows) == ("sweep", 8):
            # Fewer rows than it holds: the sweep's workspace is reused.
            assert list(ansatz._WORKSPACES) == [key, (3, 2, 3, 10), (3, 2, 3, 9)]
            assert ansatz._WORKSPACES[key].rows == 10
    # At 12 rows the sweep's workspace was remade, evicting the forward's
    # oldest; at 40 it would not fit, so the call made it and let it go.
    assert list(ansatz._WORKSPACES) == [(3, 2, 3, 9)]


@pytest.mark.parametrize("num_sets", [1, 2])
@pytest.mark.parametrize("n,rows", [(1, 1), (2, 3), (5, 7)])
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_sweep_results_never_share_memory_with_the_workspace(entangler, n, rows, num_sets):
    # adjoint_grads hands back an array of its own; a second call, which
    # rewrites every buffer of the kept sweep workspace, leaves the
    # first call's gradients as they were.
    config = ModelConfig(n, 2, entangler)
    first_case = _sweep_case(config, rows, 90 + n, num_sets)
    bound, features, weights, amps, sets = first_case
    first = ansatz.adjoint_grads(bound, features, weights, amps, sets=sets)
    kept = first.copy()
    bound, features, weights, amps, sets = _sweep_case(config, rows, 95 + n, num_sets)
    second = ansatz.adjoint_grads(bound, features, weights, amps, sets=sets)
    buffers = [buffer for work in ansatz._WORKSPACES.values() for buffer in work.buffers]
    for array in (first, second):
        assert not any(np.shares_memory(array, buffer) for buffer in buffers)
    assert not np.shares_memory(first, second)
    assert _same_bits(first, kept)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_bind_start_register_bit_identical_to_one_row_layer_zero(entangler, n):
    # bind runs the register after V_0 as one row per set; it must equal
    # layer 0 run as one row of the row-major forward bit for bit, signed
    # zeros included, at every angle scale and at angles that give
    # exact zeros (0, -0.0) and the cos(pi/2) rounding (+-pi).
    # A stack of sets binds each set's register as that set alone.
    config = ModelConfig(n, 2, entangler)
    params, rng = _random_params(config, 700 + n)
    thetas = []
    for scale in (1.0, 10.0, 1e-3):
        for trial in range(6):
            theta = rng.uniform(-np.pi, np.pi, params.theta.shape) * scale
            if trial:
                special = rng.random(theta.shape) < 0.5
                theta[special] = rng.choice([0.0, -0.0, np.pi, -np.pi], special.sum())
            angles = ParamSet(theta, params.lam)
            expected = start_register(config, angles)
            assert _same_bits(ansatz.bind(config, angles).start, expected[None])
            thetas.append(theta)
    zeros = ParamSet(np.zeros_like(params.theta), params.lam)
    assert _same_bits(ansatz.bind(config, zeros).start[0], start_register(config, zeros))
    stack = ParamSet(np.array(thetas), np.tile(params.lam, (len(thetas), 1)))
    starts = ansatz.bind(config, stack).start
    for theta, start in zip(thetas, starts, strict=True):
        assert _same_bits(start, start_register(config, ParamSet(theta, params.lam)))


def test_bind_checks_parameters_and_run_bound_checks_features():
    config = ModelConfig(3, 2)
    params, rng = _random_params(config, 6)
    with pytest.raises(ValueError, match="theta must have 18 entries"):
        ansatz.bind(config, ParamSet(params.theta[:-1], params.lam))
    with pytest.raises(ValueError, match="lam must have 12 entries"):
        ansatz.bind(config, ParamSet(params.theta, params.lam[:-1]))
    bound = ansatz.bind(config, params)
    with pytest.raises(ValueError, match="features must have length 3"):
        ansatz.run_bound(bound, rng.uniform(-1, 1, (2, 4)))


def test_forward_and_sweep_take_only_feature_rows():
    # A lone (n,) vector once ran as n rows, row r encoding feature
    # f[n-1-r] on every qubit, and a (1, T, n) stack failed inside a
    # numpy broadcast.  Both calls refuse anything but (T, n) rows.
    config = ModelConfig(3, 2)
    params, rng = _random_params(config, 9)
    bound = ansatz.bind(config, params)
    rows = rng.uniform(-1, 1, (2, 3))
    amps = ansatz.run_bound(bound, rows)
    for features in (rows[0], list(rows[0]), rows[None], 0.5):
        shape = re.escape(str(np.shape(features)))
        message = rf"features must be \(rows, 3\) feature rows, got shape {shape}"
        with pytest.raises(ValueError, match=message):
            ansatz.run_bound(bound, features)
        with pytest.raises(ValueError, match=message):
            ansatz.adjoint_grads(bound, features, np.ones(8), amps)


# Rows per set of a stack: first sets of 1, 3, 8, 2 and 5 rows, then
# stacks with sets that have no rows, which make no block.  At n = 5,
# where BLAS rounded a row of a product by its place in the call, every
# stack also runs with 1 and with 3 rows in every set.
STACK_ROWS = {
    1: [[1], [0]],
    2: [[1, 3], [0, 3]],
    4: [[2, 0, 3, 0], [0, 0, 0, 4]],
    5: [[1, 3, 8, 2, 5], [0, 3, 0, 2, 0]],
}


@pytest.mark.parametrize("num_sets", [1, 2, 4, 5])
@pytest.mark.parametrize("n,depth", [(1, 2), (2, 1), (3, 2), (5, 1), (6, 3), (8, 2)])
@pytest.mark.parametrize("entangler", ["cz", "cx"])
def test_stacked_sets_equal_per_set_calls_bit_for_bit(entangler, n, depth, num_sets):
    # Rows read their set through a row-to-set index in set order: a set
    # of one row runs numpy's matrix-vector path alone, and BLAS rounds a
    # row of a product by its place in the call, so both depend on the
    # sweep grouping each set.
    config = ModelConfig(n, depth, entangler)
    rng = np.random.default_rng(100 * n + 10 * depth + num_sets)
    n_theta, n_lam = ansatz.param_counts(config)
    stack = ParamSet(
        rng.uniform(-np.pi, np.pi, (num_sets, n_theta)), rng.normal(1.0, 0.5, (num_sets, n_lam))
    )
    bound = ansatz.bind(config, stack)
    uniform = [[1] * num_sets, [3] * num_sets] if n == 5 else []
    for sizes in STACK_ROWS[num_sets] + uniform:
        sets = np.repeat(np.arange(num_sets), sizes)
        features = rng.uniform(-2, 2, (len(sets), n))
        features[:1, -1] = 0.0
        amps = ansatz.run_bound(bound, features, sets=sets)
        for weights in (rng.normal(size=(len(sets), 1 << n)), rng.normal(size=1 << n)):
            grads = ansatz.adjoint_grads(bound, features, weights, amps, sets=sets)
            for index in range(num_sets):
                rows = np.flatnonzero(sets == index)
                alone = ParamSet(stack.theta[index].copy(), stack.lam[index].copy())
                bound_alone = ansatz.bind(config, alone)
                amps_alone = ansatz.run_bound(bound_alone, features[rows])
                assert _same_bits(amps[rows], amps_alone)
                rows_weights = weights[rows] if weights.ndim == 2 else weights
                expected = ansatz.adjoint_grads(
                    bound_alone, features[rows], rows_weights, amps_alone
                )
                assert _same_bits(grads[rows], expected)
    for array in (bound.theta_half, bound.lam_terms, bound.start):
        assert not array.flags.writeable


def test_stacked_sets_need_a_valid_row_to_set_index():
    config = ModelConfig(3, 2)
    rng = np.random.default_rng(8)
    n_theta, n_lam = ansatz.param_counts(config)
    stack = ParamSet(rng.uniform(-1, 1, (2, n_theta)), rng.uniform(-1, 1, (2, n_lam)))
    bound = ansatz.bind(config, stack)
    features = rng.uniform(-1, 1, (3, 3))
    with pytest.raises(ValueError, match="lam must have 12 entries"):
        ansatz.bind(config, ParamSet(stack.theta, stack.lam[:1]))
    with pytest.raises(ValueError, match="theta must have 18 entries"):
        ansatz.bind(config, ParamSet(stack.theta[:0], stack.lam[:0]))
    with pytest.raises(ValueError, match="a stack of 2 sets needs a row-to-set index"):
        ansatz.run_bound(bound, features)
    # The policy layer reads the same index: a softmax reduction per set
    # of action weights, and the gradients of both policy kinds.
    amps = ansatz.run_bound(bound, features, sets=np.array([0, 0, 1]))
    softmax = policy.SoftmaxObservablePolicy(config, np.zeros(2))
    born = policy.MeasurementPolicy(config, decode.RecursiveParity(3, 2))
    actions, weights = np.array([0, 1, 1]), np.zeros((2, 2))
    for sets, message in [
        ([0, 1], r"one integer set index per row: \(2,\) for 3 rows"),
        ([0.0, 1.0, 1.0], "one integer set index per row"),
        ([0, 2, 1], r"set indices must lie in \[0, 2\)"),
        ([0, -1, 1], r"set indices must lie in \[0, 2\)"),
        ([0, 1, 0], "set indices must not decrease: each set's rows are one block"),
    ]:
        with pytest.raises(ValueError, match=message):
            ansatz.run_bound(bound, features, sets=np.array(sets))
        with pytest.raises(ValueError, match=message):
            ansatz.adjoint_grads(bound, features, np.ones(8), amps, sets=np.array(sets))
        with pytest.raises(ValueError, match=message):
            policy._reduce(softmax, amps, sets=np.array(sets), weights=weights)
        for pol, kw in [(softmax, {"weights": weights}), (born, {})]:
            with pytest.raises(ValueError, match=message):
                policy.trajectory_log_grads(
                    pol, features, actions, bound, amps, sets=np.array(sets), **kw
                )
    # Unsigned indices are compared, not differenced, so a decrease shows.
    with pytest.raises(ValueError, match="set indices must not decrease"):
        ansatz.run_bound(bound, features, sets=np.array([0, 1, 0], dtype=np.uint8))
    # Per-set action weights of another shape: the same refusal whether
    # the gradient reduces the rows or is handed their reduction.
    sets = np.array([0, 0, 1])
    reduced = policy._reduce(softmax, amps, sets=sets, weights=weights)
    for handed in (None, reduced):
        with pytest.raises(ValueError, match=r"need \(sets, 2\) action weights, got \(2, 3\)"):
            policy.trajectory_log_grads(
                softmax, features, actions, bound, amps, handed, sets=sets, weights=np.zeros((2, 3))
            )


@pytest.mark.parametrize("n,depth", [(1, 1), (3, 2), (4, 5)])
def test_forward_applies_one_gate_per_qubit_and_layer(monkeypatch, n, depth):
    # Each layer's fused gates act as one contraction per qubit pair,
    # plus one for the top qubit at odd n.  Binding runs layer 0 as one
    # row per set, and a bound call of any size runs layers 1..d, once.
    config = ModelConfig(n, depth)
    calls = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args, **kw: (calls.append(1), einsum(*args, **kw))[1])
    rng = np.random.default_rng(3)
    per_layer = (n + 1) // 2
    params = _random_params(config, 3)[0]
    calls.clear()
    bound = ansatz.bind(config, params)
    assert len(calls) == per_layer
    for count in (1, 2 * 512 + 3):
        features = _random_rows(config, rng, count)[2]
        calls.clear()
        ansatz.run_bound(bound, features)
        assert len(calls) == depth * per_layer


@pytest.mark.parametrize("n,depth", [(1, 1), (3, 2), (4, 5)])
def test_gate_table_takes_cos_and_sin_once_per_row_pass(monkeypatch, n, depth):
    # The half angles of every layer, qubit and row are stacked, and a
    # call of any size runs as one pass, with one gate table, so each
    # call makes one cos and one sin call.
    config = ModelConfig(n, depth)
    rng = np.random.default_rng(4)
    calls = []

    def counted(name):
        ufunc = getattr(np, name)
        return lambda *args, **kw: (calls.append(name), ufunc(*args, **kw))[1]

    for name in ("cos", "sin"):
        monkeypatch.setattr(np, name, counted(name))
    params = _random_params(config, 4)[0]
    calls.clear()
    bound = ansatz.bind(config, params)
    assert sorted(calls) == ["cos", "sin"]
    tables = []
    gate_table = ansatz._gate_table
    monkeypatch.setattr(ansatz, "_gate_table", lambda half: tables.append(1) or gate_table(half))
    for count in (1, 7, 2 * 512 + 3):
        features = _random_rows(config, rng, count)[2]
        calls.clear()
        tables.clear()
        ansatz.run_bound(bound, features)
        assert sorted(calls) == ["cos", "sin"]
        assert len(tables) == 1
