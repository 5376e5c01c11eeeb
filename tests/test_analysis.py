from fractions import Fraction

import numpy as np
import pytest

from qpglab import analysis, ansatz, config, decode, envs, policy, qsim
from oracles import (
    exact_fim,
    sample_fims_per_set,
    sample_fims_per_state,
    sample_index,
    state_action_probs,
)


def _policies():
    model = ansatz.ModelConfig(3, 2)
    return [
        policy.MeasurementPolicy(model, decode.RecursiveParity(3, 4)),
        policy.SoftmaxObservablePolicy(model, np.zeros(4)),
    ]


def _per_state_actions(pol, sampler, num_param_sets, num_states, seed):
    """Oracle: the draws of sample_fims with one single-state call per state."""
    rng = np.random.default_rng(seed)
    dim = policy.num_trainables(pol)
    states = [sampler(rng, 1)[0] for _ in range(num_states)]
    drawn = []
    for _ in range(num_param_sets):
        params_j, policy_j = policy.apply_flat(pol, rng.uniform(-np.pi, np.pi, size=dim))
        probs = [state_action_probs(policy_j, s, params_j) for s in states]
        drawn.append([sample_index(p, rng) for p in probs])
    return drawn


@pytest.mark.parametrize("pol", _policies(), ids=["born", "softmax"])
def test_sample_fims_draws_the_per_state_actions(monkeypatch, pol):
    sampler = analysis.normal_state_sampler(3, 0.5)
    seen = []
    grads = policy.trajectory_log_grads

    def checked(pol, feats, actions, bound, amps, reduced, *, sets, weights):
        states = ansatz.run_bound(bound, feats, sets=sets)
        assert amps.tobytes() == states.tobytes()
        # The reduction the draws came from is handed to the gradient.
        again = policy._reduce(pol, amps, sets=sets, weights=weights)
        for got, want in zip(reduced, again, strict=True):
            assert got.tobytes() == want.tobytes()
        seen.extend(list(actions[sets == j]) for j in range(sets[-1] + 1))
        return grads(pol, feats, actions, bound, amps, reduced, sets=sets, weights=weights)

    monkeypatch.setattr(policy, "trajectory_log_grads", checked)
    analysis.sample_fims(pol, sampler, 4, 30, np.random.default_rng(17))
    assert seen == _per_state_actions(pol, sampler, 4, 30, 17)


@pytest.mark.parametrize("pol", _policies(), ids=["born", "softmax"])
def test_sample_fims_reduces_each_parameter_set_once(monkeypatch, pol):
    # The draws' reduction is handed to the gradient, not recomputed;
    # the four sets of 30 states fit one chunk.
    reduce = policy._reduce
    reduced_rows = []

    def counted(pol, amps, **kw):
        reduced_rows.append(len(amps))
        return reduce(pol, amps, **kw)

    monkeypatch.setattr(policy, "_reduce", counted)
    analysis.sample_fims(pol, analysis.normal_state_sampler(3), 4, 30, np.random.default_rng(2))
    assert reduced_rows == [4 * 30]


def test_sample_fims_binds_each_parameter_set_once(monkeypatch):
    # A budget of 3 sets x 6 states x 2**3 amplitudes splits 7 sets into
    # chunks of 3, 3 and 1; each chunk is one bind of its stack of sets,
    # one circuit call and one adjoint sweep over all its rows, both of
    # which read the chunk's bound stack.
    calls, handed = [], []

    def counted(name, fn, rows):
        def call(*args, **kw):
            calls.append((name, rows(args)))
            result = fn(*args, **kw)
            handed.append(result if name == "bind" else args[0])
            return result

        return call

    sampler = analysis.normal_state_sampler(3)
    per_chunk = [("bind", 3), ("run_bound", 18), ("adjoint_grads", 18)]
    for pol in _policies():
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "FIM_CHUNK_AMPLITUDES", 3 * 6 * 8 + 7)
            for name, rows in [
                ("bind", lambda args: len(np.atleast_2d(args[1].theta))),
                ("run_bound", lambda args: len(args[1])),
                ("adjoint_grads", lambda args: len(args[1])),
            ]:
                patch.setattr(ansatz, name, counted(name, getattr(ansatz, name), rows))
            calls.clear()
            handed.clear()
            fims = analysis.sample_fims(pol, sampler, 7, 6, np.random.default_rng(5))
        assert calls == per_chunk * 2 + [("bind", 1), ("run_bound", 6), ("adjoint_grads", 6)]
        for bound, *readers in zip(handed[0::3], handed[1::3], handed[2::3], strict=True):
            assert all(reader is bound for reader in readers)
        expected = sample_fims_per_set(pol, sampler, 7, 6, np.random.default_rng(5))
        assert fims.raw_traces.tobytes() == np.trace(expected, axis1=1, axis2=2).tobytes()


def test_fim_chunks_hold_as_many_sets_as_the_amplitude_budget_allows():
    # rows x 2**n <= 2**16: the benchmark's 2 x 100 rows at n = 4 are one
    # call, as are 40 sets of the default 100 states; from n = 10, one set.
    assert analysis.FIM_CHUNK_AMPLITUDES == 1 << 16
    assert analysis.FIM_CHUNK_AMPLITUDES // (100 << 4) == 40
    assert analysis.FIM_CHUNK_AMPLITUDES // (100 << 10) == 0


@pytest.mark.parametrize("budget", [None, 1, 2 * 9 * 16])
@pytest.mark.parametrize("sets,states", [(1, 1), (5, 1), (5, 9), (3, 30)])
@pytest.mark.parametrize("kind", ["born", "softmax"])
def test_sample_fims_equal_the_per_set_oracle(monkeypatch, kind, sets, states, budget):
    # Stacked chunks give every matrix, its raw trace and the generator's
    # state bit for bit as one set at a time, whatever the chunk size:
    # the default, one set per chunk, and two sets of nine states.
    if budget is not None:
        monkeypatch.setattr(analysis, "FIM_CHUNK_AMPLITUDES", budget)
    pol = _oracle_policy(kind, 4)
    sampler = analysis.normal_state_sampler(4, 0.5)
    seed = 1000 + 10 * sets + states
    rng, alone = np.random.default_rng(seed), np.random.default_rng(seed)
    fims = analysis.sample_fims(pol, sampler, sets, states, rng)
    raw = sample_fims_per_set(pol, sampler, sets, states, alone)
    traces = np.trace(raw, axis1=1, axis2=2)
    assert fims.raw_traces.tobytes() == traces.tobytes()
    raw *= fims.dim / float(np.mean(traces))
    assert fims.per_set.tobytes() == raw.tobytes()
    assert rng.random() == alone.random()


@pytest.mark.parametrize("chunk", [1, 2])
def test_norm_drift_in_a_stacked_call_names_the_set_and_state(monkeypatch, chunk):
    # Set 3's state 2 drifts; the flat row index differs by chunk size.
    run_bound = ansatz.run_bound

    def drifted(bound, feats, *, sets):
        amps = run_bound(bound, feats, sets=sets)
        rows = np.flatnonzero(sets == 3 - first[0])
        if len(rows):
            amps[rows[2]] *= 1.001
        first[0] += len(bound.start)
        return amps

    first = [0]
    monkeypatch.setattr(analysis, "FIM_CHUNK_AMPLITUDES", chunk * 5 * 8)
    monkeypatch.setattr(ansatz, "run_bound", drifted)
    sampler = analysis.normal_state_sampler(3)
    message = r"off by 2\.00\de-03 at parameter set 3, state 2$"
    with pytest.raises(qsim.NormDriftError, match=message):
        analysis.sample_fims(_policies()[0], sampler, 5, 5, np.random.default_rng(0))


@pytest.mark.parametrize("pol", _policies(), ids=["born", "softmax"])
def test_sampled_fims_are_psd_and_trace_normalised(pol):
    sampler = analysis.uniform_angle_state_sampler(3)
    fims = analysis.sample_fims(pol, sampler, 5, 20, np.random.default_rng(3))
    for m in fims.per_set:
        assert np.abs(m - m.T).max() == 0.0
        assert np.linalg.eigvalsh(m).min() >= -analysis.PSD_TOLERANCE
    mean_trace = np.mean([np.trace(m) for m in fims.per_set])
    assert mean_trace == pytest.approx(fims.dim, rel=1e-12)


@pytest.mark.parametrize("kind", ["born", "softmax"])
@pytest.mark.parametrize("n", [3, 4])
def test_sampled_fims_and_their_aggregate_are_symmetric_bit_for_bit(n, kind):
    # spectrum_stats and effective_dimension read these matrices as they
    # are, without symmetrising them again.
    model = ansatz.ModelConfig(n, 2)
    if kind == "born":
        pol = policy.MeasurementPolicy(model, decode.RecursiveParity(n, 4))
    else:
        pol = policy.SoftmaxObservablePolicy(model, np.zeros(4))
    sampler = analysis.normal_state_sampler(n, 0.5)
    fims = analysis.sample_fims(pol, sampler, 4, 15, np.random.default_rng(10 * n + 1))
    for m in [*fims.per_set, fims.aggregate]:
        assert (m == m.T).all()
    eigs = analysis.spectrum_stats(fims.aggregate).eigenvalues
    assert (np.diff(eigs) >= 0).all()


@pytest.mark.parametrize("pol", _policies(), ids=["born", "softmax"])
def test_sampled_fims_at_fixed_states_and_parameters_average_to_the_exact_fim(pol):
    # Every set binds one fixed parameter vector and sees the same six
    # states, so the sets differ only in their action draws.
    rng = np.random.default_rng(21)
    dim = policy.num_trainables(pol)
    flat = rng.uniform(-np.pi, np.pi, size=dim)
    feats = rng.normal(0.0, 0.5, size=(6, 3))

    class FixedParameters:
        """Every parameter draw gives ``flat``; action draws come from ``rng``."""

        def uniform(self, low, high, size):
            return flat.copy()

        def random(self, size):
            return rng.random(size)

    sets = 800
    fims = analysis.sample_fims(
        pol, lambda _rng, count: feats[:count], sets, len(feats), FixedParameters()
    )
    params, pol_fixed = policy.apply_flat(pol, flat)
    exact = exact_fim(pol_fixed, feats, params)
    exact *= dim / np.trace(exact)
    # Residuals of the sets against the exact matrix at each set's own
    # trace; their mean is the aggregate's error, since the mean trace is
    # dim, so their spread gives its standard error, normalisation included.
    traces = np.trace(fims.per_set, axis1=1, axis2=2)
    resid = fims.per_set - exact * (traces / dim)[:, None, None]
    stderr = np.sqrt((resid.var(axis=0, ddof=1) / sets).sum())
    # Measured over 85 seeded runs of 200 to 1,000 sets, this ratio was at
    # most 1.9 (median 0.8-1.0).  An oracle that drops the p_a weights read
    # 2.1-23 at 800 sets.
    assert np.linalg.norm(fims.aggregate - exact) <= 3.0 * stderr


def _ignored_wires(table: np.ndarray, n: int) -> int:
    """Wires w with table[i] == table[i ^ (1 << w)] for every i."""
    idx = np.arange(1 << n)
    return sum(bool((table == table[idx ^ (1 << w)]).all()) for w in range(n))


NULL_SPACE_DECODINGS = {
    "msb": decode.MostSignificantBit(4),
    "prefix2": decode.PrefixParity(4, 2),
    "prefix3": decode.PrefixParity(4, 3),
    "prefix4": decode.PrefixParity(4, 4),
    "recursive2": decode.RecursiveParity(4, 2),
    "recursive4": decode.RecursiveParity(4, 4),
    "balanced": decode.PostProcessing(
        4, 4, np.random.default_rng(0).permutation(np.repeat(np.arange(4), 4))
    ),
}


@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("name", list(NULL_SPACE_DECODINGS))
def test_exact_fim_null_space_is_the_dead_angles_and_ignored_wires(name, depth):
    # With cz, the n layer-0 Rz angles act on |0> as a phase only, and the
    # last fused gate of a wire that the table ignores has 4 angles that
    # change no action probability.  At depth 1 the null space is larger
    # still: msb gave 18-19 zeros and prefix2 13, against 16 and 12.
    fn = NULL_SPACE_DECODINGS[name]
    pol = policy.MeasurementPolicy(ansatz.ModelConfig(4, depth), fn)
    dim = policy.num_trainables(pol)
    expected = 4 + 4 * _ignored_wires(fn.table, 4)
    for seed in range(3):
        rng = np.random.default_rng(100 * depth + seed)
        feats = rng.normal(0.0, 0.5, size=(100, 4))
        params, _ = policy.apply_flat(pol, rng.uniform(-np.pi, np.pi, size=dim))
        eigs = np.linalg.eigvalsh(exact_fim(pol, feats, params))
        # Measured: null eigenvalues at most 1.3e-16, the others at least 1.1e-6.
        assert (eigs <= 1e-12).sum() == expected


def test_spectrum_is_ascending_with_round_off_negatives_at_zero():
    rng = np.random.default_rng(8)
    q = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    m = q @ np.diag([2.0, -5e-11, 0.3, -1e-12, 1.1]) @ q.T
    stats = analysis.spectrum_stats((m + m.T) / 2)
    assert (np.diff(stats.eigenvalues) >= 0).all()
    assert stats.eigenvalues[:2].tolist() == [0.0, 0.0]
    assert stats.eigenvalues[2:] == pytest.approx([0.3, 1.1, 2.0], rel=1e-12)
    assert stats.near_zero_fraction == 0.4
    with pytest.raises(ValueError, match="matrix indefinite"):
        analysis.spectrum_stats(-m)


def test_fim_samples_keep_each_matrix_once():
    pol = _policies()[0]
    fims = analysis.sample_fims(
        pol, analysis.uniform_angle_state_sampler(3), 3, 10, np.random.default_rng(4)
    )
    dim = fims.dim
    assert fims.per_set.shape == (3, dim, dim)
    # Only the packed upper triangles are kept, and one raw trace per set.
    assert list(vars(fims)) == ["upper", "raw_traces"]
    assert fims.upper.nbytes == 3 * dim * (dim + 1) // 2 * 8
    assert fims.raw_traces.shape == (3,)
    assert fims.aggregate.tobytes() == fims.per_set.mean(axis=0).tobytes()


@pytest.mark.parametrize("dim", [1, 2, 5, 30])
def test_fim_samples_pack_and_rebuild_symmetric_blocks_exactly(dim):
    rng = np.random.default_rng(dim)
    # From 8 sets on, a mean over the packed rows rounds differently.
    a = rng.normal(size=(9, dim, dim))
    block = a + a.transpose(0, 2, 1)
    block[0, 0, 0] = -0.0
    fims = analysis.FimSamples(block)
    assert fims.dim == dim
    assert fims.upper.shape == (9, dim * (dim + 1) // 2)
    assert fims.upper.nbytes == 9 * dim * (dim + 1) // 2 * 8
    assert fims.per_set.tobytes() == block.tobytes()
    assert fims.aggregate.tobytes() == block.mean(axis=0).tobytes()


def test_fim_samples_refuse_a_block_not_symmetric_bit_for_bit():
    block = np.stack([np.eye(3), np.eye(3)])
    block[1, 0, 2] = 1e-300
    with pytest.raises(ValueError, match="not symmetric bit for bit"):
        analysis.FimSamples(block)
    # A signed zero against an unsigned one differs in its bits.
    block[1, 0, 2] = -0.0
    with pytest.raises(ValueError, match="not symmetric bit for bit"):
        analysis.FimSamples(block)
    with pytest.raises(ValueError, match=r"need a \(sets, P, P\) block"):
        analysis.FimSamples(np.eye(3))


def _oracle_policy(kind, n):
    model = ansatz.ModelConfig(n, 2)
    if kind == "born":
        return policy.MeasurementPolicy(model, decode.RecursiveParity(n, 4))
    return policy.SoftmaxObservablePolicy(model, np.zeros(4))


@pytest.mark.parametrize("sets,states", [(1, 1), (3, 7), (2, 30)])
@pytest.mark.parametrize("kind", ["born", "softmax"])
@pytest.mark.parametrize("n", [3, 4])
def test_sample_fims_equal_one_circuit_call_and_draw_per_state(n, kind, sets, states):
    pol = _oracle_policy(kind, n)
    sampler = analysis.normal_state_sampler(n, 0.5)
    seed = 100 * n + 10 * sets + states
    rng, alone = np.random.default_rng(seed), np.random.default_rng(seed)
    fims = analysis.sample_fims(pol, sampler, sets, states, rng)
    expected = sample_fims_per_state(pol, sampler, sets, states, alone)
    assert fims.per_set.tobytes() == expected.tobytes()
    # Both consumed the generator alike.
    assert rng.random() == alone.random()


@pytest.mark.parametrize(
    "sampler", [analysis.normal_state_sampler(3, 0.7), analysis.uniform_angle_state_sampler(3)]
)
def test_state_samplers_draw_count_rows_as_count_single_draws(sampler):
    for seed in (0, 3, 2**32):
        rng, alone = np.random.default_rng(seed), np.random.default_rng(seed)
        block = sampler(rng, 9)
        assert block.shape == (9, 3)
        assert block.tobytes() == np.vstack([sampler(alone, 1) for _ in range(9)]).tobytes()
        assert rng.random() == alone.random()


@pytest.mark.parametrize("argument", ["num_param_sets", "num_states"])
def test_sample_fims_refuses_empty_inputs(argument):
    counts = {"num_param_sets": 2, "num_states": 3, argument: 0}
    with pytest.raises(ValueError, match=f"{argument} must be at least 1, got 0"):
        analysis.sample_fims(
            _policies()[0], analysis.normal_state_sampler(3), rng=np.random.default_rng(0), **counts
        )


def test_sample_fims_refuses_a_zero_or_nan_trace(monkeypatch):
    pol = _policies()[0]
    for value in (0.0, np.nan):
        grads = lambda pol, feats, *args, value=value, **kw: np.full(
            (len(feats), policy.num_trainables(pol)), value
        )
        monkeypatch.setattr(policy, "trajectory_log_grads", grads)
        with pytest.raises(ValueError, match="singular normalisation"):
            analysis.sample_fims(pol, analysis.normal_state_sampler(3), 2, 4, np.random.default_rng(0))


def test_accuracy_bound_values():
    assert analysis.accuracy_bound(2) == 1
    assert analysis.accuracy_bound(4) == Fraction(3, 4)
    with pytest.raises(ValueError):
        analysis.accuracy_bound(3)


@pytest.mark.parametrize("pol", _policies(), ids=["born", "softmax"])
def test_exact_accuracy_equals_per_state_sum(pol):
    env = envs.ContextualBandits(8, 4, envs.optimal_map("mod", 8, 4), "acc01")
    encoder = envs.BinaryEncoder(3)
    flat = np.random.default_rng(5).uniform(-np.pi, np.pi, size=policy.num_trainables(pol))
    params, pol = policy.apply_flat(pol, flat)
    total = 0.0
    for state in range(8):
        total += state_action_probs(pol, encoder.encode(state), params)[env.optimal[state]]
    accuracy = analysis.exact_accuracy(env, encoder, pol, params)
    assert accuracy == total / 8
    # A Python float, as documented, not a numpy scalar.
    assert type(accuracy) is float


def test_effective_dimension_matches_the_determinant_formula():
    rng = np.random.default_rng(2)
    per_set = []
    for _ in range(4):
        a = rng.normal(size=(5, 3))
        per_set.append(a @ a.T / 3)
    fims = analysis.FimSamples(np.array(per_set))
    report = analysis.effective_dimension(fims, [5000, 10**6])
    for size, value in zip(report.data_sizes, report.values):
        kappa = size / (2 * np.pi * np.log(size))
        dets = [np.linalg.det(np.eye(5) + kappa * m) for m in per_set]
        assert value == pytest.approx(2 * np.log(np.mean(np.sqrt(dets))) / np.log(kappa), rel=1e-10)
    assert report.normalized == pytest.approx([v / 5 for v in report.values], rel=1e-15)


@pytest.mark.parametrize("budget,calls", [(None, 1), (2 * 3 * 25, 2), (1, 4)])
def test_effective_dimension_factors_data_sizes_in_chunks_bit_for_bit(monkeypatch, budget, calls):
    # One stacked Cholesky per chunk of data sizes: all four sizes of 3
    # sets at P = 5 in one call, two a call, or one.  Every value is the
    # same bit for bit.
    a = np.random.default_rng(11).normal(size=(3, 5, 5))
    fims = analysis.FimSamples(a @ a.transpose(0, 2, 1) / 5)
    sizes = config.AnalysisBlock().data_sizes
    expected = analysis.effective_dimension(fims, sizes)
    cholesky, factored = np.linalg.cholesky, []
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: factored.append(len(m)) or cholesky(m))
    if budget is not None:
        monkeypatch.setattr(analysis, "CHOLESKY_CHUNK_ENTRIES", budget)
    report = analysis.effective_dimension(fims, sizes)
    assert len(factored) == calls
    assert report.values == expected.values and report.normalized == expected.normalized


def test_effective_dimension_entries_are_python_floats():
    a = np.random.default_rng(3).normal(size=(4, 4))
    fims = analysis.FimSamples(np.array([a @ a.T / 4, np.eye(4)]))
    report = analysis.effective_dimension(fims, [100, 1000])
    # Python floats, as the field annotations say, not numpy scalars.
    assert all(type(v) is float for v in report.values + report.normalized)


@pytest.mark.parametrize("seed", range(5))
def test_effective_dimension_is_below_dim_and_grows_with_data(seed):
    # Each eigenvalue lam adds ln(1 + kappa lam) / ln(kappa) per set.  That
    # term is below 1 and grows with kappa when lam <= 0.1 and kappa >= e**2;
    # the log-mean-exp over sets then grows too.  Sampled FIMs have larger
    # eigenvalues (trace = dim), and their value can dip as data grows.
    rng = np.random.default_rng(seed)
    per_set = []
    for _ in range(4):
        a = rng.normal(size=(6, rng.integers(1, 7)))
        m = a @ a.T
        per_set.append(0.1 * m / np.linalg.eigvalsh(m).max())
    fims = analysis.FimSamples(np.array(per_set))
    sizes = config.AnalysisBlock().data_sizes + (10**9, 10**15)
    values = analysis.effective_dimension(fims, sizes).values
    assert all(0 < v <= fims.dim for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))

