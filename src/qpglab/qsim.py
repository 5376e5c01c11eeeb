"""Dense statevector simulation for small qubit registers.

Conventions
-----------
Basis index ``i`` corresponds to the bitstring ``b_{n-1} ... b_1 b_0``
(most significant bit first), where bit ``b_q`` belongs to qubit ``q``.
Qubit ``n-1`` is the uppermost wire of circuit diagrams.  Amplitudes
live in one contiguous complex128 array of length ``2**n`` indexed by
``i``.

Gate matrices (half-angle convention)::

    Ry(a) = [[cos(a/2), -sin(a/2)], [sin(a/2), cos(a/2)]]
    Rz(a) = diag(exp(-i a/2), exp(+i a/2))
    CZ    : negates amplitudes where both qubit bits are 1
    CX    : flips the target bit where the control bit is 1

States are never renormalised behind the caller's back: a norm drift
beyond ``NORM_DRIFT_LIMIT`` raises :class:`NormDriftError`, because at
the circuit depths used here drift of that size indicates a bug rather
than accumulated rounding; :func:`probabilities` checks each row.

All gate kernels accept amplitude arrays of shape ``(..., 2**n)``, so
a batch of independent states (the rows of one circuit call, or a state
stacked with its observable-weighted copy in the adjoint sweep) evolves
in one vectorised pass, with gate entries given per row.  A batch runs
the same elementwise operations in the same order as a single state,
so results do not depend on how work is grouped.  A caller that applies
many gates to one register builds its :func:`half_views` once and calls
:func:`apply_1q_halves`; :func:`apply_1q` does both per gate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MAX_QUBITS = 20
NORM_DRIFT_LIMIT = 1e-9


class NormDriftError(RuntimeError):
    """State norm drifted further than rounding can explain."""


class Statevector:
    """An ``n``-qubit pure state as 2**n complex amplitudes."""

    __slots__ = ("n_qubits", "amps")

    def __init__(self, n_qubits: int, amps: np.ndarray):
        if amps.shape != (1 << n_qubits,):
            raise ValueError(
                f"expected {1 << n_qubits} amplitudes for {n_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        self.n_qubits = n_qubits
        self.amps = amps

    def copy(self) -> "Statevector":
        return Statevector(self.n_qubits, self.amps.copy())

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))


def zero_state(n_qubits: int) -> Statevector:
    """The computational all-zeros state on ``n_qubits`` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(n_qubits, amps)


def _check_qubit(n: int, qubit: int) -> None:
    if not 0 <= qubit < n:
        raise ValueError(f"qubit index {qubit} out of range for {n} qubits")


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

    ``a0, a1`` come from :func:`half_views`; the entries broadcast as in
    :func:`apply_1q`.
    """
    new0 = u00 * a0
    new0 += u01 * a1
    # a1 is updated in place while a0 still holds its original values.
    a1 *= u11
    a1 += u10 * a0
    a0[...] = new0


def apply_1q(amps: np.ndarray, n: int, qubit: int, u00, u01, u10, u11) -> None:
    """Apply a generic single-qubit gate in place.

    ``amps`` has shape ``(..., 2**n)``.  The matrix entries may be
    scalars or arrays broadcastable against the leading batch dims with
    two trailing length-1 axes appended (see :func:`batch_coeff`).
    """
    apply_1q_halves(*half_views(amps, n, qubit), u00, u01, u10, u11)


def batch_coeff(values: np.ndarray) -> np.ndarray:
    """Shape per-batch gate coefficients for broadcasting inside kernels."""
    return np.asarray(values)[..., None, None]


def apply_ry(state: Statevector, qubit: int, angle: float) -> Statevector:
    """Rotate ``qubit`` about Y by ``angle`` (in place)."""
    _check_qubit(state.n_qubits, qubit)
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    apply_1q(state.amps, state.n_qubits, qubit, c, -s, s, c)
    return state


def apply_rz(state: Statevector, qubit: int, angle: float) -> Statevector:
    """Rotate ``qubit`` about Z by ``angle`` (in place)."""
    _check_qubit(state.n_qubits, qubit)
    view = _paired_view(state.amps, state.n_qubits, qubit)
    view[..., 0, :] *= np.exp(-0.5j * angle)
    view[..., 1, :] *= np.exp(0.5j * angle)
    return state


@lru_cache(maxsize=None)
def _both_one_indices(n: int, q1: int, q2: int) -> np.ndarray:
    mask = (1 << q1) | (1 << q2)
    idx = np.nonzero((np.arange(1 << n) & mask) == mask)[0]
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=None)
def _cx_swap_indices(n: int, control: int, target: int) -> tuple:
    basis = np.arange(1 << n)
    src = np.nonzero(
        ((basis >> control) & 1 == 1) & ((basis >> target) & 1 == 0)
    )[0]
    dst = src | (1 << target)
    src.setflags(write=False)
    dst.setflags(write=False)
    return src, dst


def _check_pair(n: int, q1: int, q2: int) -> None:
    _check_qubit(n, q1)
    _check_qubit(n, q2)
    if q1 == q2:
        raise ValueError(f"two-qubit gate needs distinct qubits, got {q1} twice")


def apply_cz(state: Statevector, q1: int, q2: int) -> Statevector:
    """Controlled-Z on qubits ``q1, q2`` (symmetric, in place)."""
    _check_pair(state.n_qubits, q1, q2)
    idx = _both_one_indices(state.n_qubits, q1, q2)
    state.amps[idx] *= -1.0
    return state


def apply_cx(state: Statevector, control: int, target: int) -> Statevector:
    """Controlled-X with the given control and target (in place)."""
    _check_pair(state.n_qubits, control, target)
    src, dst = _cx_swap_indices(state.n_qubits, control, target)
    tmp = state.amps[src].copy()
    state.amps[src] = state.amps[dst]
    state.amps[dst] = tmp
    return state


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


def sample_bitstrings(state: Statevector, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``shots`` i.i.d. basis indices from the state's distribution.

    Returns an int64 array of basis indices; each index encodes the
    measured bitstring ``b_{n-1} ... b_0`` per the module convention.
    Deterministic for a given generator state.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = probabilities(state.amps)
    cdf = np.cumsum(probs)
    draws = rng.random(shots)
    idx = np.searchsorted(cdf, draws, side="right")
    return np.minimum(idx, state.dim - 1).astype(np.int64)


def bitstring(index: int, n_qubits: int) -> str:
    """Render a basis index as the bitstring ``b_{n-1} ... b_0``."""
    return format(index, f"0{n_qubits}b")
