"""Policies over circuit measurement outcomes and their exact gradients.

Two families are implemented:

* :class:`MeasurementPolicy` -- action probabilities are sums of
  basis-state probabilities over the classes of a post-processing
  function; a single computational-basis measurement samples an action.
* :class:`SoftmaxObservablePolicy` -- a softmax over ``beta * w_a *
  <O>`` with a single shared Pauli-Z-mask observable and per-action
  weights.

Readout.  Each policy reads the final state through a diagonal
readout R (2**n, K), held in index form, never dense (M may reach
2**n): a Born policy's decoding table stands for the one-hot rows
``eye(M)[table]`` (K = M), a softmax policy's Z-mask signs for one
column (K = 1).  :func:`_reduce` gives the reading (T, K), the
expectations of R's columns, as ``np.bincount`` class sums in basis
order (memory O(T 2**n) at any M) or as the sum of ``born * signs``;
the link then gives pi: identity, or softmax of ``beta * w * reading``.

Data path.  :func:`sample_action` takes its parameter set bound
(:func:`qpglab.ansatz.bind`), once for all of a rollout's calls, and
returns each row's action, final amplitudes and, for a softmax policy,
the row's reduction ``(reading, pi)`` (:func:`_reduce`), which it drew
from.  A Born policy draws a basis index from the Born probabilities
and decodes it, with no action distribution.  :func:`trajectory_log_grads`
takes the same bound parameters, the amplitudes and any reduction back,
so each set is bound once and each row simulated once and reduced once:
by the softmax draw, or else by the gradient.  Both refuse parameters
bound to another model.

Log-policy gradients are exact: the adjoint sweep
(:func:`qpglab.ansatz.adjoint_grads`), one per parameter set over its
rows, from their final amplitudes differentiates, for step ``t``, the
readout column its action reads: the mask ``table == a_t``, or the one
sign row.  Only the chain-rule factor is per family: 1 / p_taken, or
``beta * (w_a - pi @ w)`` and the weight block.  A Born policy acts by
measuring one bitstring and decoding it, as on hardware; its
probabilities and gradients are exact expectations of the simulated
state, never shot estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import ansatz, qsim
from .ansatz import ModelConfig, ParamSet
from .decode import PostProcessing


class ZeroProbabilityError(ValueError):
    """A recorded action has probability zero under the current policy."""


@dataclass(eq=False)
class MeasurementPolicy:
    """Policy induced by decoding a computational-basis measurement."""

    model: ModelConfig
    postfn: PostProcessing

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
        # A non-finite logit makes every action distribution NaN.
        if not np.isfinite(self.weights).all():
            raise ValueError(f"weights must be finite, got {self.weights}")
        if not np.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        if self.z_qubits is None:
            self.z_qubits = tuple(range(self.model.n_qubits))
        self.z_qubits = tuple(sorted(self.z_qubits))
        # An empty mask is the identity: every reading 1, no gradient.
        if not self.z_qubits:
            raise ValueError("z_qubits must name at least one qubit")
        for i, q in enumerate(self.z_qubits):
            if not 0 <= q < self.model.n_qubits:
                raise ValueError(f"z_qubits entry {q} out of range")
            if q in self.z_qubits[:i]:
                raise ValueError(f"z_qubits entry {q} repeated")

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


# ---------------------------------------------------------------------------
# Action distributions and sampling


def _reduce(
    policy: Policy, amps: np.ndarray, *, sets=None, weights=None
) -> tuple[np.ndarray, np.ndarray]:
    """Reading (T, K) and action distributions (T, M) of final amplitudes (T, 2**n).

    The reading is each row's expectation of the readout columns; a
    Born policy's is its action distribution.  Rows never mix.  For a
    softmax policy, ``weights`` (R, M) holds the action weights of R
    parameter sets and ``sets`` the (T,) row-to-set index, as
    :func:`qpglab.ansatz.run_bound` takes it; None is
    ``policy.weights``, a stack of one.  Each set's block of rows takes
    its logits from that set's weights, as the call on it alone would.
    """
    born = qsim.probabilities(amps)
    if isinstance(policy, SoftmaxObservablePolicy):
        signs = _z_signs(policy.model.n_qubits, policy.z_qubits)
        reading = (born * signs).sum(axis=1, keepdims=True)
        weights, blocks = _set_weights(policy, weights, sets, len(amps))
        logits = np.empty((len(amps), policy.num_actions))
        for index, rows in blocks:
            np.multiply(policy.beta * weights[index], reading[rows], out=logits[rows])
        pi = np.exp(logits - logits.max(axis=1, keepdims=True))
        return reading, pi / pi.sum(axis=1, keepdims=True)
    # Row t's classes are bins t*M .. t*M + M-1, summed in basis order.
    steps, m = len(born), policy.num_actions
    bins = policy.postfn.table + m * np.arange(steps)[:, None]
    probs = np.bincount(bins.ravel(), weights=born.ravel(), minlength=steps * m).reshape(steps, m)
    return probs, probs


def _set_weights(policy: SoftmaxObservablePolicy, weights, sets, steps: int):
    """The per-set action weights (R, M), checked, and the ``(set, rows)``
    blocks of the ``steps`` rows in their stack
    (:func:`qpglab.ansatz._row_sets`); None is ``policy.weights``, a
    stack of one."""
    if weights is None:
        weights = policy.weights[None]
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != policy.num_actions:
        raise ValueError(f"need (sets, {policy.num_actions}) action weights, got {weights.shape}")
    return weights, ansatz._row_sets(len(weights), sets, steps)


def batch_action_probs(policy: Policy, features_rows, params: ParamSet) -> np.ndarray:
    """Exact action distributions (T, M) of ``T`` states from one circuit call.

    Row ``t`` is bit-identical to the same state evaluated alone.
    """
    amps = ansatz.run_bound(ansatz.bind(policy.model, params), features_rows)
    return _reduce(policy, amps)[1]


def sample_action(
    policy: Policy, features_rows, bound: ansatz.BoundParams, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple | None]:
    """One action per feature row, row ``t`` drawn at the uniform ``draws[t]``.

    ``bound`` is the parameter set as :func:`qpglab.ansatz.bind` binds it
    to the policy's model, once for any number of calls.  Returns
    ``(actions, amps, reduced)``: the actions (T,), the final amplitudes
    (T, 2**n) they were drawn from and, for a softmax policy, their
    :func:`_reduce` result (None for a Born policy), which
    :func:`trajectory_log_grads` takes back.  All rows go through one
    circuit call, and each row's draw is the inverse CDF of its own
    distribution at its own uniform in [0, 1), so a row's action does
    not depend on the other rows.  A Born policy measures one bitstring
    and decodes it.
    """
    _check_bound(policy, bound)
    amps = ansatz.run_bound(bound, features_rows)
    if isinstance(policy, MeasurementPolicy):
        outcomes = _sample_rows(qsim.probabilities(amps), draws)
        return policy.postfn.table[outcomes], amps, None
    reduced = _reduce(policy, amps)
    return _sample_rows(reduced[1], draws), amps, reduced


def _check_bound(policy: Policy, bound: ansatz.BoundParams) -> None:
    if bound.config != policy.model:
        raise ValueError(f"parameters bound to {bound.config}, policy model is {policy.model}")


def _sample_rows(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF index of each row of ``probs`` (T, K) at its uniform draw ``draws[t]``."""
    if len(draws) != len(probs):
        raise ValueError(f"need one draw per row: {len(draws)} for {len(probs)} rows")
    # Entries of a row's CDF at or below its draw, searchsorted(side="right"),
    # capped at the last index: a CDF never decreases, so counting all
    # but its last entry caps the count.  np.add.accumulate is np.cumsum
    # without its Python wrapper.
    return (np.add.accumulate(probs, axis=1)[:, :-1] <= draws[:, None]).sum(axis=1)


# ---------------------------------------------------------------------------
# Log-policy gradients (flat layout: theta block, lam block[, weight block])


def num_trainables(policy: Policy) -> int:
    base = sum(ansatz.param_counts(policy.model))
    if isinstance(policy, SoftmaxObservablePolicy):
        return base + policy.num_actions
    return base


def flat_trainables(policy: Policy, params: ParamSet) -> np.ndarray:
    if isinstance(policy, SoftmaxObservablePolicy):
        return np.concatenate([params.theta, params.lam, policy.weights])
    return params.flat()


def split_flat(policy: Policy, flat: np.ndarray) -> tuple[ParamSet, np.ndarray | None]:
    """Views of the (theta, lam) and, for a softmax policy, the action
    weights (None for a Born policy) in a flat trainable vector (P,) or
    a stack of them (R, P)."""
    n_theta, n_lam = ansatz.param_counts(policy.model)
    params = ParamSet(flat[..., :n_theta], flat[..., n_theta : n_theta + n_lam])
    if isinstance(policy, SoftmaxObservablePolicy):
        return params, flat[..., n_theta + n_lam :]
    return params, None


def apply_flat(policy: Policy, flat: np.ndarray) -> tuple[ParamSet, Policy]:
    """Rebuild (params, policy) from a copy of a flat trainable vector."""
    params, weights = split_flat(policy, flat.copy())
    if weights is None:
        return params, policy
    return params, replace(policy, weights=weights)


def trajectory_log_grads(
    policy: Policy,
    features: np.ndarray,
    actions: np.ndarray,
    bound: ansatz.BoundParams,
    amps: np.ndarray,
    reduced: tuple | None = None,
    *,
    sets=None,
    weights=None,
) -> np.ndarray:
    """Log-policy gradients for every (state, action) step of a trajectory.

    ``bound`` is the parameters as :func:`qpglab.ansatz.bind` bound them
    for the steps' forward pass, ``amps`` the steps' final amplitudes
    (T, 2**n) and ``reduced`` their :func:`_reduce` result, as
    :func:`sample_action` returns them, so no step is simulated or
    reduced again; None reduces them here.  One adjoint sweep per
    parameter set over its steps; returns shape (T, num_trainables).
    The steps need not come from one episode.  ``bound`` may be a stack
    of R sets, with ``sets`` the (T,) row-to-set index, non-decreasing,
    and, for a softmax policy, ``weights`` each set's action weights
    (R, M), as :func:`_reduce` takes them; row ``t``'s gradient is then
    that of its set, bit-identical to the call on its set's rows alone.
    """
    _check_bound(policy, bound)
    actions = np.asarray(actions, dtype=np.int64)
    if reduced is None:
        reduced = _reduce(policy, amps, sets=sets, weights=weights)
    reading, pi = reduced
    softmax = isinstance(policy, SoftmaxObservablePolicy)
    if softmax:
        weights, blocks = _set_weights(policy, weights, sets, len(actions))
        observable = _z_signs(policy.model.n_qubits, policy.z_qubits)
    else:
        observable = (policy.postfn.table == actions[:, None]).astype(float)
    grads = ansatz.adjoint_grads(bound, features, observable, amps, sets=sets)
    steps = np.arange(len(actions))
    if not softmax:
        # d ln p_a = d<Pi_a> / p_a, with Pi_a the taken action's projector.
        p_taken = pi[steps, actions]
        if (p_taken == 0.0).any():
            bad = int(np.nonzero(p_taken == 0.0)[0][0])
            raise ZeroProbabilityError(f"action {actions[bad]} has zero probability at step {bad}")
        grads /= p_taken[:, None]
        return grads
    # pi @ w rounds a row by its place in the product, so each set's
    # block of rows takes its own product, as in the call on that set alone.
    bracket = np.empty(len(actions))
    for index, rows in blocks:
        bracket[rows] = weights[index][actions[rows]] - pi[rows] @ weights[index]
    indicator = np.zeros_like(pi)
    indicator[steps, actions] = 1.0
    weight_block = policy.beta * reading * (indicator - pi)
    return np.hstack([policy.beta * bracket[:, None] * grads, weight_block])
