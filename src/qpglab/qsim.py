"""Statevector conventions, the norm guard and Born probabilities.

Conventions
-----------
A state is a plain complex128 array of ``2**n`` amplitudes, and a batch
of states one array of shape ``(..., 2**n)``.  Basis index ``i``
corresponds to the bitstring ``b_{n-1} ... b_1 b_0`` (most significant
bit first), where bit ``b_q`` belongs to qubit ``q``.  Qubit ``n-1`` is
the uppermost wire of circuit diagrams.  A measurement draws basis
index ``i`` with probability ``|c_i|^2`` (:func:`probabilities`); the
policies draw it and decode it into an action.

Gate matrices (half-angle convention)::

    Ry(a) = [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]]
    Rz(a) = diag(exp(-i a/2), exp(+i a/2))
    CZ    : negates amplitudes where both qubit bits are 1
    CX    : flips the target bit where the control bit is 1

States are never renormalised behind the caller's back: a norm drift
beyond ``NORM_DRIFT_LIMIT`` raises :class:`NormDriftError`, because at
the circuit depths used here drift of that size indicates a bug rather
than accumulated rounding; :func:`probabilities` checks each row.

The gates themselves are applied in :mod:`qpglab.ansatz`, whose
forward pass and adjoint sweep evolve a batch of states, one row per
circuit row, a whole layer at a time.
"""

from __future__ import annotations

import numpy as np

MAX_QUBITS = 20
NORM_DRIFT_LIMIT = 1e-9


class NormDriftError(RuntimeError):
    """State norm drifted further than rounding can explain.

    :func:`probabilities` sets ``drift``, the offending row's
    ``|norm**2 - 1|``, and ``row``, its index in the flat batch of rows.
    """

    drift: float
    row: int


def probabilities(amps: np.ndarray) -> np.ndarray:
    """Measurement probabilities ``|c_i|^2`` of amplitudes (..., 2**n).

    Row ``r`` of a batch equals the call on that row alone, bit for bit;
    a batch of zero rows gives zero rows.
    Raises :class:`NormDriftError` if any row sums to further than
    ``NORM_DRIFT_LIMIT`` from 1 or is not finite.
    """
    probs = np.abs(amps) ** 2
    drift = np.abs(probs.sum(axis=-1) - 1.0).ravel()
    if drift.size and not drift.max() <= NORM_DRIFT_LIMIT:  # NaN amplitudes fail too
        row = int(np.argmax(drift))
        error = NormDriftError(f"state norm squared off by {drift[row]:.3e} at row {row}")
        error.drift, error.row = float(drift[row]), row
        raise error
    return probs
