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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ansatz, envs, policy as policy_mod
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
    of the trace equal P exactly.
    """

    def __init__(self, per_set: np.ndarray):
        per_set = np.asarray(per_set, dtype=float)
        if per_set.ndim != 3 or per_set.shape[1] != per_set.shape[2]:
            raise ValueError(f"need a (sets, P, P) block, got shape {per_set.shape}")
        bits = per_set.view(np.uint64)
        if not (bits == bits.transpose(0, 2, 1)).all():
            raise ValueError("FIM block is not symmetric bit for bit")
        rows, cols = np.triu_indices(per_set.shape[1])
        self.upper = per_set[:, rows, cols]

    @property
    def dim(self) -> int:
        return (math.isqrt(8 * self.upper.shape[1] + 1) - 1) // 2

    @property
    def per_set(self) -> np.ndarray:
        rows, cols = np.triu_indices(self.dim)
        full = np.empty((len(self.upper), self.dim, self.dim))
        full[:, rows, cols] = self.upper
        full[:, cols, rows] = self.upper
        return full

    @property
    def aggregate(self) -> np.ndarray:
        return self.per_set.mean(axis=0)


def sample_fims(
    policy: Policy,
    state_sampler,
    num_param_sets: int,
    num_states: int,
    rng: np.random.Generator,
) -> FimSamples:
    """FIM estimates at ``num_param_sets`` random parameter sets.

    Each set is a trainable vector (angles, scales, any action weights)
    drawn uniformly from [-pi, pi), and is bound once.  One batch of
    ``num_states`` states, drawn by one ``state_sampler(rng, num_states)``
    call, is shared across all sets.  Each set takes one circuit call
    over all the states and one ``rng.random(num_states)`` call, which
    draws one action per state from the policy's exact distribution, in
    state order; the exact log-gradient outer products of those final
    amplitudes are averaged.  Every row is bit-identical to the state
    run alone, so the result equals one circuit call and one draw per
    state.
    """
    if num_param_sets < 1:
        raise ValueError(f"num_param_sets must be at least 1, got {num_param_sets}")
    if num_states < 1:
        raise ValueError(f"num_states must be at least 1, got {num_states}")
    dim = policy_mod.num_trainables(policy)
    feats = state_sampler(rng, num_states)
    # One block for every matrix, normalised in place.
    per_set = np.empty((num_param_sets, dim, dim))
    for matrix in per_set:
        flat = rng.uniform(-np.pi, np.pi, size=dim)
        params_j, policy_j = policy_mod.apply_flat(policy, flat)
        amps = ansatz.run_bound(ansatz.bind(policy_j.model, params_j), feats)
        reduced = policy_mod._reduce(policy_j, amps)
        actions = policy_mod._sample_rows(reduced[1], rng.random(num_states))
        grads = policy_mod.trajectory_log_grads(policy_j, feats, actions, params_j, amps, reduced)
        fim = grads.T @ grads / num_states
        np.add(fim, fim.T, out=matrix)
        matrix /= 2.0
    mean_trace = float(np.mean(np.trace(per_set, axis1=1, axis2=2)))
    # NaN fails this test too.
    if not mean_trace > 0.0:
        raise ValueError(f"singular normalisation: average FIM trace is {mean_trace!r}")
    per_set *= dim / mean_trace
    return FimSamples(per_set)


@dataclass
class SpectrumStats:
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


@dataclass
class EffDimReport:
    """Effective dimension per data size, raw and divided by the FIM dimension."""

    data_sizes: list
    values: list
    normalized: list


def effective_dimension(fims: FimSamples, data_sizes) -> EffDimReport:
    """Capacity measure from normalised FIM samples at several data sizes.

    For data size n with kappa = n / (2 pi ln n), computes
    ``2 * ln(mean_j sqrt(det(I + kappa F_j))) / ln(kappa)`` with the
    determinants evaluated in the log domain (Cholesky) and combined by
    log-sum-exp.  Requires kappa > 1 so the denominator is positive.
    """
    per_set = fims.per_set
    dim = fims.dim
    eye = np.eye(dim)
    values: list[float] = []
    normalized: list[float] = []
    for n in data_sizes:
        kappa = data_size_kappa(n)
        # One stacked Cholesky factor per set; 0.5 * logdet is the sum of
        # the logs of its diagonal.
        chol = np.linalg.cholesky(eye + kappa * per_set)
        half_logdets = np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
        peak = half_logdets.max()
        log_mean = peak + math.log(np.mean(np.exp(half_logdets - peak)))
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
