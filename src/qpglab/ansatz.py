"""Hardware-efficient data re-uploading circuit and its parameter map.

Circuit layout for ``n`` qubits and depth ``d``::

    V_0  E_1  V_1  E_2 ... E_d  V_d      (measured in the computational basis)

Each variational block ``V_l`` applies per qubit an Rz(theta) followed
by an Ry(theta) and is itself followed by the all-to-all entangler, so
there are ``d+1`` variational blocks and ``d+1`` entangler layers.
Each encoding block ``E_l`` applies per qubit an Ry(lam * s) followed
by an Rz(lam' * s), where ``s`` is the feature routed to that qubit
and ``lam, lam'`` are that layer's trainable scale factors.  Feature
vectors are listed in wire order, top wire first: ``features[i]``
drives qubit ``n - 1 - i``, so the first feature sits on the qubit
that contributes the most significant measured bit.

Parameter layout (flat arrays):

* ``theta`` has ``2 n (d+1)`` entries: block-major, then qubit, then
  (Rz angle, Ry angle).
* ``lam`` has ``2 n d`` entries: encoding-block-major, then qubit, then
  (Ry scale, Rz scale).

Entangler pairs ``(i, j)`` with ``i < j`` are applied in lexicographic
order; for CX the control is ``i`` and the target ``j``.  A CZ layer is
diagonal, so it is applied as one precomputed sign vector; a CX layer
permutes basis states, so it is applied as one precomputed index
permutation.

:func:`run_batch` is the one forward implementation (``run_states``,
``prepare_state`` and the policies all call it).  It evolves B rows at
once, in passes of up to 512 rows: one vectorised pass computes the
fused 2x2 entries of every rotation of every row of the pass, then the
gate loop applies them in circuit order to half-views of the register
built once per pass.  Each entry is the same elementwise cos/sin/exp product
whatever the batch, so row ``r`` is bit-identical to the same row
evaluated alone.

Gradients of diagonal expectations come from :func:`adjoint_grads`
(adjoint differentiation, Jones & Gacon, arXiv:2009.02823): starting
from final amplitudes the caller already holds, one backward sweep
carries the state and the observable-weighted state back through the
circuit a whole rotation layer at a time.  Each Rz layer is one phase
multiply; each Ry layer is one phase multiply in the eigenbasis of Y,
reached by a change of basis shared by all qubits.  Every derivative
of a layer is one product with a table of Z signs.  A scale factor
feeding feature ``s`` enters only through the angle ``lam * s``, so its
derivative is ``s`` times the angle's; for ``s`` exactly zero it is
zero.  The parameter-shift rule (Schuld et al., arXiv:1811.11184), the
rule hardware runs, gives the same derivatives at two circuits per
parameter; it is the tests' oracle for the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qsim

ENTANGLERS = ("cz", "cx")


@dataclass(frozen=True)
class ModelConfig:
    """Shape of the circuit: qubit count, re-uploading depth, entangler."""

    n_qubits: int
    depth: int = 1
    entangler: str = "cz"

    def __post_init__(self):
        if not 1 <= self.n_qubits <= qsim.MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {qsim.MAX_QUBITS}]")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.entangler not in ENTANGLERS:
            raise ValueError(f"entangler must be one of {ENTANGLERS}")


@dataclass(eq=False)
class ParamSet:
    """Trainable circuit parameters: rotation angles and scale factors."""

    theta: np.ndarray
    lam: np.ndarray

    def copy(self) -> "ParamSet":
        return ParamSet(self.theta.copy(), self.lam.copy())

    def flat(self) -> np.ndarray:
        return np.concatenate([self.theta, self.lam])


def param_counts(config: ModelConfig) -> tuple[int, int]:
    """Number of (rotation, scale) parameters for a model shape."""
    n, d = config.n_qubits, config.depth
    return 2 * n * (d + 1), 2 * n * d


def total_params(config: ModelConfig) -> int:
    n_theta, n_lam = param_counts(config)
    return n_theta + n_lam


def init_params(
    config: ModelConfig,
    rng: np.random.Generator,
    theta_init: str = "uniform",
    theta_scale: float = 0.1,
    lam_init: float = 1.0,
) -> ParamSet:
    """Draw initial parameters.

    ``theta_init`` is ``"uniform"`` for angles uniform over [-pi, pi)
    or ``"normal"`` for N(0, theta_scale); scale factors start at the
    constant ``lam_init``.
    """
    n_theta, n_lam = param_counts(config)
    if theta_init == "uniform":
        theta = rng.uniform(-np.pi, np.pi, size=n_theta)
    elif theta_init == "normal":
        theta = rng.normal(0.0, theta_scale, size=n_theta)
    else:
        raise ValueError(f"unknown theta_init {theta_init!r}")
    lam = np.full(n_lam, float(lam_init))
    return ParamSet(theta, lam)


def _validate(config: ModelConfig, params: ParamSet, features: np.ndarray) -> None:
    n_theta, n_lam = param_counts(config)
    if params.theta.shape != (n_theta,):
        raise ValueError(f"theta must have {n_theta} entries, got {params.theta.shape}")
    if params.lam.shape != (n_lam,):
        raise ValueError(f"lam must have {n_lam} entries, got {params.lam.shape}")
    if features.shape[-1] != config.n_qubits:
        raise ValueError(
            f"features must have length {config.n_qubits}, got {features.shape[-1]}"
        )


@lru_cache(maxsize=None)
def _cz_layer_signs(n: int) -> np.ndarray:
    # Product of all pairwise CZ diagonals: (-1)^(k choose 2) for an
    # index with k set bits.
    ones = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    signs = np.where((ones * (ones - 1) // 2) % 2 == 1, -1.0, 1.0)
    signs.setflags(write=False)
    return signs


def entangler_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@lru_cache(maxsize=None)
def _cx_layer_perms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index permutations of the CX layer and of its inverse.

    ``amps[..., perm]`` applies the layer.  A CX sends amplitude ``x`` to
    the index with the target bit flipped when the control bit is set,
    so the layer reads ``x`` through every pair's flip, the last gate's
    first.
    """
    perm = np.arange(1 << n)
    for i, j in reversed(entangler_pairs(n)):
        perm ^= ((perm >> i) & 1) << j
    inverse = np.argsort(perm)
    perm.setflags(write=False)
    inverse.setflags(write=False)
    return perm, inverse


def _apply_entangler(amps: np.ndarray, config: ModelConfig, inverse: bool = False) -> None:
    n = config.n_qubits
    if n == 1:
        return
    if config.entangler == "cz":
        amps *= _cz_layer_signs(n)
        return
    amps[...] = amps[..., _cx_layer_perms(n)[inverse]]


# Rows per gate-table pass of run_batch.  The table takes 64 bytes per
# rotation and row, more than the register at small n; passes of this
# many rows keep it in cache and bound its memory on large batches.
_ROWS_PER_PASS = 512


def _gate_table(
    config: ModelConfig,
    thetas: np.ndarray,
    lams: np.ndarray,
    features: np.ndarray,
) -> np.ndarray:
    """Fused 2x2 entries of every rotation of one :func:`run_batch` call.

    Returns shape (2d+1, n, 4, B, 1, 1): rotation blocks in circuit
    order V_0, E_1, V_1, ..., E_d, V_d, then qubit, then the entries
    (u00, u01, u10, u11) per row, shaped for :func:`qsim.apply_1q_halves`.
    A variational rotation is Ry(theta') @ Rz(theta), an encoding one
    Rz(lam' s) @ Ry(lam s).
    """
    n, d = config.n_qubits, config.depth
    batch = thetas.shape[0]
    # (z angle, y angle) of each rotation, blocks in circuit order, rows
    # last so that every gate's entries are contiguous.
    angles = np.empty((2, 2 * d + 1, n, batch))
    angles[:, 0::2] = thetas.reshape(batch, d + 1, n, 2).transpose(3, 1, 2, 0)
    encoded = lams.reshape(batch, d, n, 2) * features[:, None, ::-1, None]
    angles[:, 1::2] = encoded.transpose(3, 1, 2, 0)[::-1]
    angle_z, angle_y = angles
    c = np.cos(angle_y / 2.0)
    s = np.sin(angle_y / 2.0)
    pm = np.exp(-0.5j * angle_z)
    pp = np.exp(0.5j * angle_z)
    table = np.empty((2 * d + 1, n, 4, batch), dtype=np.complex128)
    np.multiply(c, pm, out=table[:, :, 0])
    np.multiply(c, pp, out=table[:, :, 3])
    # Rz's e^{+i z/2} sits in column 1 of Ry @ Rz (variational, even
    # blocks) but in row 1 of Rz @ Ry (encoding, odd blocks).
    var, enc = slice(0, None, 2), slice(1, None, 2)
    np.multiply(-s[var], pp[var], out=table[var, :, 1])
    np.multiply(s[var], pm[var], out=table[var, :, 2])
    np.multiply(-s[enc], pm[enc], out=table[enc, :, 1])
    np.multiply(s[enc], pp[enc], out=table[enc, :, 2])
    return table[..., None, None]


def _flat_grads(angle_grads: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_gate_table`'s angle layout: d/d(angle) as
    (z, y, block, qubit, row) to flat (theta, lam) derivatives (B, P).
    """
    batch = angle_grads.shape[-1]
    d_theta = angle_grads[:, 0::2].transpose(3, 1, 2, 0)
    d_lam = angle_grads[::-1, 1::2].transpose(3, 1, 2, 0) * features[:, None, ::-1, None]
    return np.hstack([d_theta.reshape(batch, -1), d_lam.reshape(batch, -1)])


def run_batch(
    config: ModelConfig,
    thetas: np.ndarray,
    lams: np.ndarray,
    features: np.ndarray,
) -> np.ndarray:
    """Evolve a batch of parameter/feature rows through the circuit.

    ``thetas`` is (B, |theta|), ``lams`` is (B, |lam|), ``features`` is
    (B, n).  Returns the final amplitudes, shape (B, 2**n).  Row ``r``
    equals the state prepared from row ``r``'s parameters alone.
    """
    n = config.n_qubits
    amps = np.zeros((thetas.shape[0], 1 << n), dtype=np.complex128)
    amps[:, 0] = 1.0
    for start in range(0, len(amps), _ROWS_PER_PASS):
        rows = slice(start, start + _ROWS_PER_PASS)
        part = amps[rows]
        halves = [qsim.half_views(part, n, q) for q in range(n)]
        for block, gates in enumerate(_gate_table(config, thetas[rows], lams[rows], features[rows])):
            for (a0, a1), entries in zip(halves, gates):
                qsim.apply_1q_halves(a0, a1, *entries)
            if block % 2 == 0:
                _apply_entangler(part, config)
    return amps


def _param_rows(params: ParamSet, steps: int) -> tuple[np.ndarray, np.ndarray]:
    # One parameter set as ``steps`` batch rows, without copying.
    return (
        np.broadcast_to(params.theta, (steps, params.theta.size)),
        np.broadcast_to(params.lam, (steps, params.lam.size)),
    )


def run_states(config: ModelConfig, params: ParamSet, features) -> np.ndarray:
    """Final amplitudes (T, 2**n) of one parameter set at ``T`` feature rows.

    Row ``t`` equals ``prepare_state(config, params, features[t]).amps``
    bit for bit.
    """
    features = np.asarray(features, dtype=float)
    _validate(config, params, features)
    return run_batch(config, *_param_rows(params, len(features)), features)


def prepare_state(config: ModelConfig, params: ParamSet, features) -> qsim.Statevector:
    """Prepare the circuit's output state for one parameter set."""
    features = np.asarray(features, dtype=float)
    amps = run_states(config, params, features[None, :])
    return qsim.Statevector(config.n_qubits, amps[0])


def adjoint_grads(
    config: ModelConfig,
    params: ParamSet,
    features,
    weights,
    amps: np.ndarray,
) -> np.ndarray:
    """Gradients of diagonal expectations by one backward sweep.

    Row ``t`` runs feature row ``features[t]`` (shape (T, n)) under the
    shared ``params`` and measures the real diagonal observable
    ``diag(weights[t])``; ``weights`` is (T, 2**n) or one (2**n,) row for
    all.  ``amps`` are the rows' final amplitudes (T, 2**n), as
    :func:`run_states` gives them; the sweep starts from them and runs
    no forward pass.  Returns ``d<psi_t|diag(w_t)|psi_t>/d(theta, lam)``
    of shape (T, |theta| + |lam|) in the flat layout.

    Each rotation exp(-i phi P / 2) contributes Im<lam|P|psi>, where
    ``psi`` is the state and ``lam = diag(w) psi`` the weighted state,
    both carried back to that rotation.  The sweep undoes whole layers
    of rotations, one axis at a time.  Rotations on different qubits
    commute, a Pauli commutes with its own rotation, and a diagonal
    undo applied to both ``psi`` and ``lam`` leaves Im(conj(lam) psi)
    unchanged, so every derivative of a layer is read in one product
    of Im(conj(lam) psi) with the (n, 2**n) table of Z signs.

    * An Rz layer is diagonal: its undo is one phase multiply
      exp(+i/2 angles @ Z signs).  A variational Rz layer and the
      encoding Rz layer just before it share their reading and are
      undone by one multiply with their summed angles.
    * An Ry layer is diagonal in the eigenbasis of Y.  With
      A = [[1, 1], [i, -i]] / sqrt(2) on every qubit, Y_q = A Z_q A^dag
      for every q at once and Ry(a) = A Rz(a) A^dag, so the pair is
      mapped by A^dag (:func:`_change_basis`), read and undone there as
      an Rz layer, and mapped back.
    """
    n, d = config.n_qubits, config.depth
    features = np.asarray(features, dtype=float)
    _validate(config, params, features)
    if amps.shape != (len(features), 1 << n):
        raise ValueError(
            f"amps must have shape {(len(features), 1 << n)}, got {amps.shape}"
        )
    z_signs = _z_sign_table(n)
    # (block, qubit, (z, y)) angles of the variational blocks, and
    # (block, row, qubit, (y, z)) angles of the encoding blocks.
    var = params.theta.reshape(d + 1, n, 2)
    enc = params.lam.reshape(d, 1, n, 2) * features[:, ::-1, None]
    pair = np.empty((2,) + amps.shape, dtype=np.complex128)
    pair[0] = amps
    np.multiply(amps, weights, out=pair[1])
    # d/d(angle) as (z, y, block, qubit, row), the layout _flat_grads reads.
    angle_grads = np.empty((2, 2 * d + 1, n, len(amps)))
    for layer in range(d, -1, -1):
        _apply_entangler(pair, config, inverse=True)
        pair, angle_grads[1, 2 * layer] = _undo_ry_layer(pair, var[layer, :, 1], z_signs)
        angle_grads[0, 2 * layer] = _z_reads(pair, z_signs)
        if layer == 0:
            break
        angle_grads[0, 2 * layer - 1] = angle_grads[0, 2 * layer]
        pair *= _undo_phases(var[layer, :, 0] + enc[layer - 1, ..., 1], z_signs)
        pair, angle_grads[1, 2 * layer - 1] = _undo_ry_layer(pair, enc[layer - 1, ..., 0], z_signs)
    return _flat_grads(angle_grads, features)


@lru_cache(maxsize=None)
def _z_sign_table(n: int) -> np.ndarray:
    """(n, 2**n): row q is +1 where bit q of the basis index is 0, else -1."""
    bits = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1
    signs = 1.0 - 2.0 * bits
    signs.setflags(write=False)
    return signs


def _z_reads(pair: np.ndarray, z_signs: np.ndarray) -> np.ndarray:
    """Im<lam|Z_q|psi> for every qubit q, shape (n, T), of the stacked ``(psi, lam)``."""
    psi, lam = pair
    im = lam.real * psi.imag
    im -= lam.imag * psi.real
    return z_signs @ im.T


def _undo_phases(angles: np.ndarray, z_signs: np.ndarray) -> np.ndarray:
    """Diagonal exp(+i/2 angles @ Z signs) that undoes an Rz layer with
    ``angles`` (..., n) per qubit.
    """
    half = angles @ (0.5 * z_signs)
    phases = np.empty(half.shape, dtype=np.complex128)
    np.cos(half, out=phases.real)
    np.sin(half, out=phases.imag)
    return phases


def _undo_ry_layer(pair, angles, z_signs) -> tuple[np.ndarray, np.ndarray]:
    """Undo an Ry layer with ``angles`` (..., n) on the stacked ``(psi, lam)``.

    Returns the undone pair, a new array, and the layer's derivatives
    (n, T).  Both come from the Y eigenbasis, where the layer is an Rz
    layer.
    """
    n = z_signs.shape[0]
    pair = _change_basis(pair, n, back=False)
    grads = _z_reads(pair, z_signs)
    pair *= _undo_phases(angles, z_signs)
    return _change_basis(pair, n, back=True), grads


# Qubits per dense factor of the Y-eigenbasis change.  A factor on g
# qubits is a 2**g x 2**g matrix and costs 2**g products per amplitude,
# so the change runs in groups of at most this many qubits; below it,
# one matrix product covers the whole register.
_BASIS_GROUP = 4


@lru_cache(maxsize=None)
def _basis_factor(qubits: int, back: bool) -> np.ndarray:
    """A^dag (or A, when ``back``) on ``qubits`` qubits, A = [[1, 1], [i, -i]] / sqrt(2)."""
    a = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / np.sqrt(2.0)
    factor = np.ones((1, 1), dtype=np.complex128)
    for _ in range(qubits):
        factor = np.kron(factor, a if back else a.conj().T)
    factor.setflags(write=False)
    return factor


def _change_basis(amps: np.ndarray, n: int, back: bool) -> np.ndarray:
    """``amps`` (..., 2**n) mapped to the Y eigenbasis of every qubit, or back.

    Applies A^dag (or A) qubit group by qubit group, lowest group first;
    returns a new array.
    """
    out = amps.reshape(-1, 1 << n)
    for low in range(0, n, _BASIS_GROUP):
        width = min(_BASIS_GROUP, n - low)
        factor = _basis_factor(width, back)
        if low == 0:
            out = out.reshape(-1, 1 << width) @ factor.T
        else:
            out = factor @ out.reshape(-1, 1 << width, 1 << low)
    return out.reshape(amps.shape)


def save_params(path, config: ModelConfig, params: ParamSet) -> None:
    """Checkpoint parameters as text: header line, then one value per line.

    The header carries ``n=<n> d=<d> entangler=<e>``; theta values come
    first, then lam values, in flat-layout order, with full round-trip
    precision.
    """
    lines = [f"n={config.n_qubits} d={config.depth} entangler={config.entangler}"]
    lines.extend(repr(float(v)) for v in params.theta)
    lines.extend(repr(float(v)) for v in params.lam)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_params(path) -> tuple[ModelConfig, ParamSet]:
    """Load a checkpoint written by :func:`save_params`."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty checkpoint file {path}")
    fields = dict(item.split("=", 1) for item in lines[0].split())
    config = ModelConfig(
        n_qubits=int(fields["n"]),
        depth=int(fields["d"]),
        entangler=fields["entangler"],
    )
    n_theta, n_lam = param_counts(config)
    values = [float(v) for v in lines[1:]]
    if len(values) != n_theta + n_lam:
        raise ValueError(
            f"checkpoint holds {len(values)} values, expected {n_theta + n_lam}"
        )
    flat = np.array(values)
    return config, ParamSet(flat[:n_theta], flat[n_theta:])
