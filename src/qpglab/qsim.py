"""Dense statevector kernels for small qubit registers.

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

The gate kernel :func:`apply_1q_halves` acts on amplitude arrays of
shape ``(..., 2**n)``, so a batch of independent states (the rows of
one circuit call) evolves in one vectorised pass, with gate entries
given per row.  A batch runs the same elementwise operations in the
same order as a single state, so results do not depend on how work is
grouped.  The circuit's forward pass applies one gate per qubit per
layer to the same register, so it builds each qubit's
:func:`half_views` once and reuses them in every layer.
"""

from __future__ import annotations

import numpy as np

MAX_QUBITS = 20
NORM_DRIFT_LIMIT = 1e-9


class NormDriftError(RuntimeError):
    """State norm drifted further than rounding can explain."""


def _paired_view(amps: np.ndarray, n: int, qubit: int) -> np.ndarray:
    # Groups amplitudes into (outer, bit-of-qubit, inner) blocks; a view,
    # so in-place writes hit the original array.
    outer = 1 << (n - 1 - qubit)
    inner = 1 << qubit
    return amps.reshape(amps.shape[:-1] + (outer, 2, inner))


def half_views(amps: np.ndarray, n: int, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Views ``(a0, a1)`` of the amplitudes whose ``qubit`` bit is 0 and 1.

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


def probabilities(amps: np.ndarray) -> np.ndarray:
    """Measurement probabilities ``|c_i|^2`` of amplitudes (..., 2**n).

    Row ``r`` of a batch equals the call on that row alone, bit for bit.
    Raises :class:`NormDriftError` if any row sums to further than
    ``NORM_DRIFT_LIMIT`` from 1 or is not finite.
    """
    probs = np.abs(amps) ** 2
    drift = np.abs(probs.sum(axis=-1) - 1.0).ravel()
    row = int(np.argmax(drift))
    if not drift[row] <= NORM_DRIFT_LIMIT:  # NaN amplitudes fail too
        raise NormDriftError(f"state norm squared off by {drift[row]:.3e} at row {row}")
    return probs
