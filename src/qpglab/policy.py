"""Policies over circuit measurement outcomes and their exact gradients.

Two families are implemented:

* :class:`MeasurementPolicy` -- action probabilities are sums of
  basis-state probabilities over the classes of a post-processing
  function; a single computational-basis measurement samples an action.
* :class:`SoftmaxObservablePolicy` -- a softmax over ``beta * w_a *
  <O>`` with a single shared Pauli-Z-mask observable and per-action
  weights.

One row-by-row reduction turns final amplitudes into action
distributions for :func:`batch_action_probs`, :func:`sample_action`
and both gradient paths.

Log-policy gradients are exact: the taken action's projector (Born
policy) or the Z-mask observable (softmax policy) is differentiated by
the adjoint sweep of :func:`qpglab.ansatz.adjoint_grads`, one backward
pass for a whole trajectory that starts from the final amplitudes
:func:`sample_action` already computed and undoes one rotation layer
per phase multiply, and the softmax factors are applied in closed
form.  The ``exact`` evaluation mode is the default everywhere;
``shots`` mode estimates :func:`action_probs` from sampled bitstrings.
Acting is one measured bitstring in either mode, so equal seeds draw
equal actions whatever the shot count, and gradients always come from
exact expectations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import ansatz, qsim
from .ansatz import ModelConfig, ParamSet
from .decode import PostProcessing

PROB_CLAMP = 1e-12


class ZeroProbabilityError(ValueError):
    """A recorded action has probability zero under the current policy."""


@dataclass(frozen=True)
class Exact:
    """Evaluate action probabilities from the full statevector."""


@dataclass(frozen=True)
class Shots:
    """Estimate action probabilities from ``count`` sampled bitstrings."""

    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("shot count must be >= 1")


@dataclass(eq=False)
class MeasurementPolicy:
    """Policy induced by decoding a computational-basis measurement."""

    model: ModelConfig
    postfn: PostProcessing
    eval_mode: Exact | Shots = Exact()

    def __post_init__(self):
        if self.postfn.n_qubits != self.model.n_qubits:
            raise ValueError(
                f"post-processing acts on {self.postfn.n_qubits} qubits, "
                f"model has {self.model.n_qubits}"
            )

    @property
    def num_actions(self) -> int:
        return self.postfn.num_actions


@dataclass(eq=False)
class SoftmaxObservablePolicy:
    """Softmax policy over a weighted shared Z-mask expectation."""

    model: ModelConfig
    weights: np.ndarray
    beta: float = 1.0
    z_qubits: tuple | None = None  # None means Z on every qubit

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 1 or len(self.weights) < 2:
            raise ValueError("need one weight per action, at least two actions")
        if self.z_qubits is None:
            self.z_qubits = tuple(range(self.model.n_qubits))
        self.z_qubits = tuple(sorted(self.z_qubits))
        for q in self.z_qubits:
            if not 0 <= q < self.model.n_qubits:
                raise ValueError(f"z qubit {q} out of range")

    @property
    def num_actions(self) -> int:
        return len(self.weights)


Policy = MeasurementPolicy | SoftmaxObservablePolicy


@lru_cache(maxsize=None)
def _z_signs(n: int, qubits: tuple) -> np.ndarray:
    """(-1)**(parity of masked bits) for every basis index."""
    mask = np.uint64(sum(1 << q for q in qubits))
    ones = np.bitwise_count(np.arange(1 << n, dtype=np.uint64) & mask)
    signs = np.where(ones & 1 == 1, -1.0, 1.0)
    signs.setflags(write=False)
    return signs


def _member_matrix(postfn: PostProcessing) -> np.ndarray:
    """(2**n, M) indicator matrix of class membership, cached per instance."""
    cached = getattr(postfn, "_member_matrix", None)
    if cached is None:
        table = postfn.action_table()
        cached = (table[:, None] == np.arange(postfn.num_actions)[None, :]).astype(float)
        cached.setflags(write=False)
        postfn._member_matrix = cached
    return cached


# ---------------------------------------------------------------------------
# Action distributions and sampling


def _reduce(policy: Policy, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reading and action distributions (T, M) of final amplitudes (T, 2**n).

    The reading is the Born probabilities (T, 2**n) of a Born policy or
    the Z-mask values (T,) of a softmax policy.  Rows never mix.
    """
    born = qsim.probabilities(amps)
    if isinstance(policy, SoftmaxObservablePolicy):
        obs = (born * _z_signs(policy.model.n_qubits, policy.z_qubits)).sum(axis=1)
        logits = policy.beta * policy.weights * obs[:, None]
        pi = np.exp(logits - logits.max(axis=1, keepdims=True))
        return obs, pi / pi.sum(axis=1, keepdims=True)
    # Row t's classes are bins t*M .. t*M + M-1, summed in basis order.
    steps, m = len(born), policy.num_actions
    bins = policy.postfn.action_table() + m * np.arange(steps)[:, None]
    probs = np.bincount(bins.ravel(), weights=born.ravel(), minlength=steps * m)
    return born, probs.reshape(steps, m)


def action_probs(policy: Policy, features, params: ParamSet, rng=None) -> np.ndarray:
    """Distribution over actions for one state (exact or shot-estimated)."""
    features = np.asarray(features, dtype=float)
    if isinstance(policy, MeasurementPolicy) and isinstance(policy.eval_mode, Shots):
        if rng is None:
            raise ValueError("shots mode needs an rng")
        state = ansatz.prepare_state(policy.model, params, features)
        samples = qsim.sample_bitstrings(state, policy.eval_mode.count, rng)
        table = policy.postfn.action_table()
        counts = np.bincount(table[samples], minlength=policy.num_actions)
        return counts / policy.eval_mode.count
    return batch_action_probs(policy, features[None, :], params)[0]


def batch_action_probs(policy: Policy, features_rows, params: ParamSet) -> np.ndarray:
    """Exact action distributions (T, M) of ``T`` states from one circuit call.

    Row ``t`` is bit-identical to the same state evaluated alone.
    """
    return _reduce(policy, ansatz.run_states(policy.model, params, features_rows))[1]


def sample_action(
    policy: Policy, features_rows, params: ParamSet, rngs
) -> tuple[np.ndarray, np.ndarray]:
    """One action per feature row, row ``t`` drawn with ``rngs[t]``.

    Returns ``(actions, amps)``: the actions (T,) and the final
    amplitudes (T, 2**n) they were drawn from, which
    :func:`trajectory_log_grads` takes back.  All rows go through one
    circuit call, and each row takes one ``random()`` draw from its
    generator, in row order, so a row's action does not depend on the
    other rows.  A Born policy measures one bitstring and decodes it, in
    either evaluation mode.
    """
    amps = ansatz.run_states(policy.model, params, features_rows)
    reading, probs = _reduce(policy, amps)
    if isinstance(policy, MeasurementPolicy):
        return policy.postfn.action_table()[_sample_rows(reading, rngs)], amps
    return _sample_rows(probs, rngs), amps


def _sample_rows(probs: np.ndarray, rngs) -> np.ndarray:
    """Inverse-CDF index of each row of ``probs`` (T, K) at one ``rngs[t].random()``."""
    if len(rngs) != len(probs):
        raise ValueError(f"need one generator per row: {len(rngs)} for {len(probs)} rows")
    draws = np.array([rng.random() for rng in rngs])
    # Entries of a row's CDF at or below its draw: searchsorted(side="right").
    below = (np.cumsum(probs, axis=1) <= draws[:, None]).sum(axis=1)
    return np.minimum(below, probs.shape[1] - 1)


# ---------------------------------------------------------------------------
# Log-policy gradients (flat layout: theta block, lam block[, weight block])


def num_trainables(policy: Policy) -> int:
    base = ansatz.total_params(policy.model)
    if isinstance(policy, SoftmaxObservablePolicy):
        return base + policy.num_actions
    return base


def flat_trainables(policy: Policy, params: ParamSet) -> np.ndarray:
    if isinstance(policy, SoftmaxObservablePolicy):
        return np.concatenate([params.theta, params.lam, policy.weights])
    return params.flat()


def apply_flat(policy: Policy, flat: np.ndarray) -> tuple[ParamSet, Policy]:
    """Rebuild (params, policy) from a flat trainable vector."""
    n_theta, n_lam = ansatz.param_counts(policy.model)
    params = ParamSet(flat[:n_theta].copy(), flat[n_theta : n_theta + n_lam].copy())
    if isinstance(policy, SoftmaxObservablePolicy):
        weights = flat[n_theta + n_lam :].copy()
        return params, replace(policy, weights=weights)
    return params, policy


def trajectory_log_grads(
    policy: Policy,
    features_seq: np.ndarray,
    actions: np.ndarray,
    params: ParamSet,
    amps: np.ndarray,
) -> np.ndarray:
    """Log-policy gradients for every (state, action) step of a trajectory.

    ``amps`` are the steps' final amplitudes (T, 2**n), as
    :func:`sample_action` returns them; no step is simulated again.
    One adjoint sweep over all steps together; returns shape
    (T, num_trainables).  The steps need not come from one episode.
    """
    features_seq = np.asarray(features_seq, dtype=float)
    actions = np.asarray(actions, dtype=np.int64)
    if isinstance(policy, SoftmaxObservablePolicy):
        return _softmax_traj_grads(policy, features_seq, actions, params, amps)
    return _measurement_traj_grads(policy, features_seq, actions, params, amps)


def _measurement_traj_grads(policy, features_seq, actions, params, amps):
    # d ln p_a = d<Pi_a> / p_a, with Pi_a the taken action's projector.
    member = _member_matrix(policy.postfn)
    grads = ansatz.adjoint_grads(policy.model, params, features_seq, member[:, actions].T, amps)
    p_taken = _reduce(policy, amps)[1][np.arange(len(actions)), actions]
    if (p_taken == 0.0).any():
        bad = int(np.nonzero(p_taken == 0.0)[0][0])
        raise ZeroProbabilityError(
            f"action {actions[bad]} has zero probability at step {bad}"
        )
    return grads / np.maximum(p_taken, PROB_CLAMP)[:, None]


def _softmax_traj_grads(policy, features_seq, actions, params, amps):
    signs = _z_signs(policy.model.n_qubits, policy.z_qubits)
    grad_obs = ansatz.adjoint_grads(policy.model, params, features_seq, signs, amps)
    obs, pi = _reduce(policy, amps)
    steps = np.arange(len(actions))
    bracket = policy.weights[actions] - pi @ policy.weights
    indicator = np.zeros_like(pi)
    indicator[steps, actions] = 1.0
    return np.hstack(
        [
            policy.beta * bracket[:, None] * grad_obs,
            policy.beta * obs[:, None] * (indicator - pi),
        ]
    )
