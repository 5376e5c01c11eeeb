"""Information-geometric diagnostics and the softmax accuracy bound.

The empirical Fisher information matrix is the sample average of outer
products of log-policy gradients over (state, action) draws; the state
distribution is parameter-independent in every sampler offered here,
so its term drops out of the gradient.  The effective dimension is a
data-size-dependent capacity measure built from trace-normalised FIMs,
evaluated by Monte Carlo over parameter samples with log-domain
determinants.

Sampling protocol helpers mirror the two conventions used in the
experiments: states with components from N(0, 0.5) (mimicking the
cart-pole state prior) or uniform from [-pi, pi) (environment
agnostic), combined with parameter sets drawn uniformly from
[-pi, pi).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import ansatz, envs, policy as policy_mod, qsim
from .policy import Policy

PSD_TOLERANCE = 1e-10
NEAR_ZERO_THRESHOLD = 1e-7
SPECTRUM_BUCKETS = ((0.0, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0), (2.0, 2.5), (2.5, 3.0), (3.0, math.inf))


def normal_state_sampler(dim: int, sigma: float = 0.5):
    """``count`` feature vectors (count, dim) with i.i.d. N(0, sigma) components."""

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.normal(0.0, sigma, size=(count, dim))

    return sample


def uniform_angle_state_sampler(dim: int):
    """``count`` feature vectors (count, dim) with i.i.d. components uniform on [-pi, pi)."""

    def sample(rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(-np.pi, np.pi, size=(count, dim))

    return sample


@lru_cache(maxsize=None)
def _upper_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(dim)``, built once per dimension: every packing
    and rebuild of a :class:`FimSamples` block reads them."""
    rows, cols = np.triu_indices(dim)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


class FimSamples:
    """FIM estimates over sampled parameter sets, trace-normalised.

    Built from the (sets, P, P) block of one normalised matrix per
    parameter sample, each of which must be symmetric bit for bit; the
    constructor refuses any other block.  It keeps only their upper
    triangles, row by row, in one (sets, P(P+1)/2) block :attr:`upper`,
    half the memory of the full block.  :attr:`per_set` rebuilds the full
    block exactly, :attr:`dim` is the trainable count P, and
    :attr:`aggregate` is the mean of the rebuilt block over its sets, so
    it is symmetric bit for bit too (a mean of the packed rows rounds
    differently).  The normalisation constant makes the Monte Carlo mean
    of the trace equal P exactly.  :attr:`raw_traces` (sets,) are the
    traces before that normalisation, the scale it divides out; a block
    given without them is taken as its own raw block.
    """

    def __init__(self, per_set: np.ndarray, raw_traces=None):
        per_set = np.asarray(per_set, dtype=float)
        if per_set.ndim != 3 or per_set.shape[1] != per_set.shape[2]:
            raise ValueError(f"need a (sets, P, P) block, got shape {per_set.shape}")
        bits = per_set.view(np.uint64)
        if not (bits == bits.transpose(0, 2, 1)).all():
            raise ValueError("FIM block is not symmetric bit for bit")
        rows, cols = _upper_indices(per_set.shape[1])
        self.upper = per_set[:, rows, cols]
        if raw_traces is None:
            raw_traces = np.trace(per_set, axis1=1, axis2=2)
        self.raw_traces = np.asarray(raw_traces, dtype=float)
        if self.raw_traces.shape != (len(per_set),):
            raise ValueError(f"need one raw trace per set, got shape {self.raw_traces.shape}")

    @property
    def dim(self) -> int:
        return (math.isqrt(8 * self.upper.shape[1] + 1) - 1) // 2

    @property
    def per_set(self) -> np.ndarray:
        rows, cols = _upper_indices(self.dim)
        full = np.empty((len(self.upper), self.dim, self.dim))
        full[:, rows, cols] = self.upper
        full[:, cols, rows] = self.upper
        return full

    @property
    def aggregate(self) -> np.ndarray:
        return self.per_set.mean(axis=0)


# Amplitudes one stacked circuit call of :func:`sample_fims` may hold: a
# chunk takes as many parameter sets as fit, rows x 2**n <= this, and at
# least one.  At n = 4 and 100 states that is 40 sets a call; from 100
# states at n >= 10, one.
FIM_CHUNK_AMPLITUDES = 1 << 16


def sample_fims(
    policy: Policy,
    state_sampler,
    num_param_sets: int,
    num_states: int,
    rng: np.random.Generator,
) -> FimSamples:
    """FIM estimates at ``num_param_sets`` random parameter sets.

    Each set is a trainable vector (angles, scales, any action weights)
    drawn uniformly from [-pi, pi).  One batch of ``num_states`` states,
    drawn by one ``state_sampler(rng, num_states)`` call, is shared
    across all sets.  Each set then takes one ``rng.random(num_states)``
    call, right after its own parameter draw, which draws one action per
    state from the policy's exact distribution at that set, in state
    order; the exact log-gradient outer products of those final
    amplitudes are averaged.

    The sets run in chunks of as many as fit :data:`FIM_CHUNK_AMPLITUDES`.
    A chunk is bound once as a stack of sets (:func:`qpglab.ansatz.bind`)
    and takes one circuit call and one reduction over all its sets' rows,
    each row reading its set through a row-to-set index, and one adjoint
    sweep per set over its rows.  Every row is bit-identical to the state
    run alone under its set, and each set's gradients to the call on that
    set alone, so the result equals one circuit call and one draw per
    state, and the generator is consumed exactly as by one set at a time.
    """
    if num_param_sets < 1:
        raise ValueError(f"num_param_sets must be at least 1, got {num_param_sets}")
    if num_states < 1:
        raise ValueError(f"num_states must be at least 1, got {num_states}")
    dim = policy_mod.num_trainables(policy)
    feats = state_sampler(rng, num_states)
    chunk = max(1, FIM_CHUNK_AMPLITUDES // (num_states << policy.model.n_qubits))
    # One block for every matrix, normalised in place.
    per_set = np.empty((num_param_sets, dim, dim))
    for first in range(0, num_param_sets, chunk):
        count = min(chunk, num_param_sets - first)
        flats = np.empty((count, dim))
        draws = np.empty((count, num_states))
        for flat, draw in zip(flats, draws):
            flat[:] = rng.uniform(-np.pi, np.pi, size=dim)
            draw[:] = rng.random(num_states)
        params, weights = policy_mod.split_flat(policy, flats)
        sets = np.repeat(np.arange(count), num_states)
        rows = np.tile(feats, (count, 1))
        bound = ansatz.bind(policy.model, params)
        amps = ansatz.run_bound(bound, rows, sets=sets)
        try:
            reduced = policy_mod._reduce(policy, amps, sets=sets, weights=weights)
        except qsim.NormDriftError as error:
            j, state = divmod(error.row, num_states)
            raise qsim.NormDriftError(
                f"state norm squared off by {error.drift:.3e} at parameter set {first + j}, "
                f"state {state}"
            ) from None
        actions = policy_mod._sample_rows(reduced[1], draws.ravel())
        grads = policy_mod.trajectory_log_grads(
            policy, rows, actions, bound, amps, reduced, sets=sets, weights=weights
        )
        for j, matrix in enumerate(per_set[first : first + count]):
            block = grads[j * num_states : (j + 1) * num_states]
            fim = block.T @ block / num_states
            np.add(fim, fim.T, out=matrix)
            matrix /= 2.0
    raw_traces = np.trace(per_set, axis1=1, axis2=2)
    mean_trace = float(np.mean(raw_traces))
    # NaN fails this test too.
    if not mean_trace > 0.0:
        raise ValueError(f"singular normalisation: average FIM trace is {mean_trace!r}")
    per_set *= dim / mean_trace
    return FimSamples(per_set, raw_traces)


# NamedTuples, not dataclasses: their classes are built in a fraction of
# the time, which every import pays.
class SpectrumStats(NamedTuple):
    """Eigenvalue summary of one (normalised) FIM."""

    eigenvalues: np.ndarray
    near_zero_fraction: float
    buckets: list  # (low, high, count)


def spectrum_stats(matrix: np.ndarray, near_zero: float = NEAR_ZERO_THRESHOLD) -> SpectrumStats:
    """Eigendecompose a symmetric FIM and bucket its spectrum.

    ``matrix`` must be symmetric, as :func:`sample_fims` returns it;
    only its lower triangle is read.  The eigenvalues come back in
    ascending order, with those in [-PSD_TOLERANCE, 0) set to zero.
    """
    if not np.isfinite(matrix).all():
        raise ValueError("FIM contains non-finite entries")
    eigs = np.linalg.eigvalsh(matrix)
    if eigs[0] < -PSD_TOLERANCE:
        raise ValueError(f"matrix indefinite: min eigenvalue {eigs[0]:.3e}")
    eigs = np.where(eigs < 0.0, 0.0, eigs)
    frac = float(np.mean(eigs < near_zero))
    buckets = [
        (low, high, int(np.sum((eigs >= low) & (eigs < high))))
        for low, high in SPECTRUM_BUCKETS
    ]
    return SpectrumStats(eigs, frac, buckets)


class EffDimReport(NamedTuple):
    """Effective dimension per data size, raw and divided by the FIM dimension."""

    data_sizes: list
    values: list
    normalized: list


# Matrix entries one stacked Cholesky of :func:`effective_dimension` may
# hold: a chunk takes as many data sizes as fit, sizes x sets x P**2 <=
# this, and at least one.  The benchmark's 4 sizes x 2 sets at P = 56 are
# one call; 100 sets at P = 88 take one size a call.
CHOLESKY_CHUNK_ENTRIES = 1 << 16


def effective_dimension(fims: FimSamples, data_sizes) -> EffDimReport:
    """Capacity measure from normalised FIM samples at several data sizes.

    For data size n with kappa = n / (2 pi ln n), computes
    ``2 * ln(mean_j sqrt(det(I + kappa F_j))) / ln(kappa)`` with the
    determinants evaluated in the log domain (Cholesky) and combined by
    log-sum-exp.  Requires kappa > 1 so the denominator is positive.
    The data sizes are factored in chunks of as many as fit
    :data:`CHOLESKY_CHUNK_ENTRIES`, each chunk's sets in one stacked
    Cholesky.
    """
    per_set = fims.per_set
    dim = fims.dim
    kappas = [data_size_kappa(n) for n in data_sizes]
    chunk = max(1, CHOLESKY_CHUNK_ENTRIES // per_set.size)
    # One Cholesky factor per data size and set; 0.5 * logdet is the sum
    # of the logs of its diagonal.
    half_logdets = []
    for first in range(0, len(kappas), chunk):
        stack = np.multiply.outer(kappas[first : first + chunk], per_set)
        stack += np.eye(dim)
        chol = np.linalg.cholesky(stack)
        half_logdets.extend(np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1))
    values: list[float] = []
    normalized: list[float] = []
    for kappa, logs in zip(kappas, half_logdets):
        peak = logs.max()
        log_mean = peak + math.log(np.mean(np.exp(logs - peak)))
        ed = 2.0 * log_mean / math.log(kappa)
        values.append(float(ed))
        normalized.append(float(ed) / dim)
    return EffDimReport(list(data_sizes), values, normalized)


def data_size_kappa(n) -> float:
    """kappa = n / (2 pi ln n) of a data size; raises unless kappa > 1."""
    if n <= math.e:
        raise ValueError(f"data size {n} must exceed e")
    kappa = n / (2.0 * math.pi * math.log(n))
    if kappa <= 1.0:
        raise ValueError(f"data size {n} gives kappa <= 1")
    return kappa


# ---------------------------------------------------------------------------
# Accuracy bound for the weighted-softmax policy family


def accuracy_bound(num_actions: int) -> Fraction:
    """Upper bound (2/M) * sum_{k=1..M/2} 1/k on uniform-task accuracy.

    Holds for any softmax policy whose logits are per-action weights
    times one shared bounded observable.  Even action counts only; the
    odd case needs the adapted counting noted in the derivation and is
    not provided here.
    """
    if num_actions < 2:
        raise ValueError("need at least two actions")
    if num_actions % 2:
        raise ValueError(
            "bound implemented for even action counts; the odd case requires "
            "adapting the weight-ordering count"
        )
    total = sum(Fraction(1, k) for k in range(1, num_actions // 2 + 1))
    return Fraction(2, num_actions) * total


# How far a trained softmax policy's exact accuracy may exceed
# :func:`accuracy_bound` before ``qpglab train`` reports a violation.
BOUND_SLACK = 0.02


def exact_accuracy(env, encoder, policy: Policy, params) -> float:
    """Share of optimal decisions on a bandit task, from exact probabilities."""
    feats = encoder.encode(np.arange(env.num_states))
    probs = policy_mod.batch_action_probs(policy, feats, params)
    total = 0.0
    for state in range(env.num_states):
        total += probs[state, env.optimal[state]]
    return float(total / env.num_states)


def check_bound_task(env, policy: Policy) -> Fraction | None:
    """The :func:`accuracy_bound` of a task it covers, else ``None``.

    It covers a softmax policy on a uniform bandit task (equal-size
    optimal preimages) with an even action count; ``qpglab train``
    writes a bound report for exactly these tasks.
    """
    if (
        isinstance(policy, policy_mod.SoftmaxObservablePolicy)
        and isinstance(env, envs.ContextualBandits)
        and env.is_uniform()
        and env.num_actions % 2 == 0
    ):
        return accuracy_bound(env.num_actions)
    return None
