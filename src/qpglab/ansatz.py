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

The forward pass evaluates parameter sets at many feature rows:
:func:`bind` prepares a stack of R sets once (one set is a stack of
one) and :func:`run_bound` evolves feature rows under it, each row
under the set that a row-to-set index names; the index never
decreases, so each set's rows are one contiguous block.  Each block's
tables are filled from its set as one set's are, by the same broadcast,
so a row is bit-identical to the same row run under its set alone,
however the sets are stacked.  On each wire no entangler separates an
encoding block E_l from the variational block V_l after it, so the
forward pass applies the two as one gate, V_l E_l = Ry(theta')
Rz(theta + lam' s) Ry(lam s), with the two Rz angles summed; layer 0
is V_0 alone.  Gates on different qubits commute, so each layer's
gates on qubits (q, q+1), q even, act as one 4x4 factor U_{q+1} (x)
U_q, and an odd top qubit keeps its 2x2 gate.  A forward pass is thus
d+1 layers of ceil(n/2) factors, each layer followed by the entangler.
V_0 acts on |0...0> and reads no feature, so the register after it and
its entangler is the same for every row of one parameter set.
:func:`bind` runs layer 0 once, as one row per set of the same forward
pass, together with the theta half angles and the scale-factor terms
of layers 1..d, and :func:`run_bound` starts every row from its set's
register and runs layers 1..d over all the rows at once.
One vectorised call computes the factors of every layer of every row,
with one cos and one sin call over all their half angles.  Rows are the
innermost axis from the half angles through the registers: factors are
(4, 4, row) and (2, 2, row), registers (2**n, row).  Each factor is one
batched contraction, and a call returns a C-contiguous (row, 2**n) copy
of the final register.  The contractions call ``c_einsum``, numpy's C
einsum, which ``np.einsum(..., optimize=False)`` returns through, so
the sums are np.einsum's bit for bit, without its Python dispatch.
Every table and register of a call is written into one workspace kept
per forward shape (:class:`_Workspace`), so a warm call allocates
little beyond its result and faults no pages.  Each factor entry is the
same elementwise cos/sin and product, and each contraction the same
per-row sum in the same order, whatever the batch, so row ``r`` is
bit-identical to the same row evaluated alone.

Gradients of diagonal expectations come from :func:`adjoint_grads`
(adjoint differentiation, Jones & Gacon, arXiv:2009.02823): starting
from final amplitudes the caller already holds, one backward sweep
carries the state and the observable-weighted state back through the
circuit a whole rotation layer at a time.  It reads the parameters the
forward pass bound, the same :class:`BoundParams` and row-to-set index,
and sweeps each set's rows alone, so each set's gradients are the call
on that set alone.  Each Rz layer is one phase multiply; each Ry layer
is one phase multiply in the eigenbasis of Y, reached by a change of
basis shared by all qubits.  Every derivative of a layer is one product
with a table of Z signs.  A scale factor feeding feature ``s`` enters
only through the angle ``lam * s``, so its derivative is ``s`` times
the angle's; for ``s`` exactly zero it is zero.  The parameter-shift
rule (Schuld et al., arXiv:1811.11184), the rule hardware runs, gives
the same derivatives at two circuits per parameter; it is the tests'
oracle for the sweep.  The sweep's phase tables come from few passes,
each one product per table, the product its layer alone would take,
then one halving and one cos and one sin call.  A pass makes as many
of the 2d per-row tables as :data:`_SWEEP_TABLE_ENTRIES` allows, so
their memory is bounded, and the first pass the variational Ry tables
too.  A basis index and its
complement 2**n - 1 - x have negated half angles, so cos and sin run
over the low half of the indices and the high half is its conjugate.
Every per-row array of a sweep is written into one workspace kept per
(n, d) (:class:`_SweepWorkspace`), beside the forward's and under the
same byte bound, so a warm sweep allocates little beyond its result.

One buffer rule holds for every step that moves amplitudes: it reads
one of two buffers of one shape and writes the other.  The forward's
contractions and entangler layers alternate between its two registers,
and the sweep's inverse entangler layers and the groups of its change
of basis between the (psi, lam) pair and its partner; only the
diagonal phase multiplies work in place.  One qubit has no entangler,
so at n = 1 both skip it.

This module reads and writes no file: ``qpglab.config`` builds an
experiment's model once, when its config is loaded, and ``qpglab.cli``
writes every output file, checkpoints included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy._core.multiarray import c_einsum

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

    def flat(self) -> np.ndarray:
        return np.concatenate([self.theta, self.lam])


def param_counts(config: ModelConfig) -> tuple[int, int]:
    """Number of (rotation, scale) parameters for a model shape."""
    n, d = config.n_qubits, config.depth
    return 2 * n * (d + 1), 2 * n * d


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


def _validate_params(config: ModelConfig, params: ParamSet) -> int:
    """Check one parameter set, or a stack (R, ...) of them; return R (1 for one set)."""
    n_theta, n_lam = param_counts(config)
    theta, lam = params.theta, params.lam
    if theta.ndim not in (1, 2) or theta.shape[-1] != n_theta or not theta.size:
        raise ValueError(f"theta must have {n_theta} entries, got {theta.shape}")
    if lam.shape != theta.shape[:-1] + (n_lam,):
        raise ValueError(f"lam must have {n_lam} entries, got {lam.shape}")
    return len(theta) if theta.ndim == 2 else 1


def _row_sets(num_sets: int, sets, rows: int) -> list[tuple[int, slice]]:
    """The ``(set, rows)`` blocks of ``rows`` rows in a stack of ``num_sets`` sets.

    ``sets`` is the (rows,) row-to-set index, non-decreasing, or None
    for a single set.  Returns one pair per set that has rows, in row
    order, ``rows`` the slice of that set's block; None is the one
    block ``(0, slice(None))``, every row.
    """
    if sets is None:
        if num_sets != 1:
            raise ValueError(f"a stack of {num_sets} sets needs a row-to-set index")
        return [(0, slice(None))]
    sets = np.asarray(sets)
    if sets.shape != (rows,) or sets.dtype.kind not in "iu":
        raise ValueError(f"need one integer set index per row: {sets.shape} for {rows} rows")
    if not rows:
        return []
    # Each run of equal indices is a block, and every index that occurs
    # heads one, so the heads alone are checked.  Unsigned indices are
    # compared, never differenced, which would wrap.
    starts = [0, *(np.flatnonzero(sets[1:] != sets[:-1]) + 1).tolist()]
    heads = sets[starts]
    if not (heads.min() >= 0 and heads.max() < num_sets):
        raise ValueError(f"set indices must lie in [0, {num_sets})")
    if (heads[1:] < heads[:-1]).any():
        raise ValueError("set indices must not decrease: each set's rows are one block")
    return list(zip(heads.tolist(), map(slice, starts, [*starts[1:], rows])))


def _validate_features(config: ModelConfig, features: np.ndarray) -> None:
    if features.shape[-1] != config.n_qubits:
        raise ValueError(
            f"features must have length {config.n_qubits}, got {features.shape[-1]}"
        )


def _feature_rows(config: ModelConfig, features) -> np.ndarray:
    """``features`` as a float (T, n) array of feature rows, the one shape
    :func:`run_bound` and :func:`adjoint_grads` take."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(
            f"features must be (rows, {config.n_qubits}) feature rows, got shape {features.shape}"
        )
    _validate_features(config, features)
    return features


@lru_cache(maxsize=None)
def _cz_layer_signs(n: int, ndim: int, axis: int) -> np.ndarray:
    """The CZ layer's diagonal, shaped to multiply ``ndim``-axis
    amplitudes along their amplitude axis ``axis``."""
    # Product of all pairwise CZ diagonals: (-1)^(k choose 2) for an
    # index with k set bits.
    ones = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    # Complex, so that multiplying amplitudes needs no cast: numpy casts a
    # real sign s to s + 0j, so the products are the same.
    signs = np.where((ones * (ones - 1) // 2) % 2 == 1, -1.0, 1.0).astype(np.complex128)
    signs = signs.reshape(signs.shape + (1,) * (ndim - 1 - axis % ndim))
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
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(1 << n)
    perm.setflags(write=False)
    inverse.setflags(write=False)
    return perm, inverse


def _apply_entangler(
    amps: np.ndarray, config: ModelConfig, out: np.ndarray, inverse=False, axis=-1
) -> None:
    """The entangler layer, or its inverse, of ``amps`` along its amplitude
    axis ``axis``, written into ``out``, another buffer of its shape.

    A CZ layer multiplies by its signs; a CX layer gathers the permuted
    amplitudes.
    """
    n = config.n_qubits
    if config.entangler == "cz":
        np.multiply(amps, _cz_layer_signs(n, amps.ndim, axis), out=out)
    else:
        amps.take(_cx_layer_perms(n)[inverse], axis=axis, out=out, mode="clip")


# The gate entries u00, u01, u10 and u11: the f of each (cos, sin, sin,
# cos) and the signs of its (re, im).
_ENTRY_TERMS = np.array([0, 1, 1, 0])
_ENTRY_SIGNS = np.array([[1.0, -1.0], [-1.0, -1.0], [1.0, -1.0], [1.0, 1.0]])[..., None, None, None]

# Bytes that the kept forward and sweep workspaces may hold together,
# per process.
_WORKSPACE_BYTES = 1 << 25
_WORKSPACES: dict = {}


class _Workspace:
    """Every buffer of a forward pass of one shape, and its views, made once.

    The shape is the half angles' (term, layer, qubit, row).  Each array
    has the rows innermost: ``half``, ``trig`` (cos, sin), ``products``,
    ``terms`` (the products each gate entry reads), ``gates`` (layer,
    qubit, i, j, row), ``pairs`` (the Kronecker products of the qubit
    pairs) and the two ``registers`` (2**n, row) that the contractions
    and entanglers read and write in turn.  ``plan`` is a pass's plan:
    per layer, each factor's (factor, read, write) views in the order a
    pass applies them, then the register the entangler reads and the one
    it writes; and the register that ends the pass.  :func:`_workspace`
    keeps workspaces per process, together with the sweep's
    (:class:`_SweepWorkspace`), at most :data:`_WORKSPACE_BYTES` (32 MiB)
    of them together; one larger serves its call alone.  Neither kind is
    thread-safe: two threads running the same shape at once would share
    buffers (``qpglab train --jobs`` runs processes).
    """

    def __init__(self, shape: tuple):
        _, layers, n, batch = shape
        self.half = np.empty(shape)
        self.trig = np.empty((2,) + shape)
        self.products = np.empty((2, 2) + shape[1:])
        self.terms = np.empty((4, 2) + shape[1:])
        gates = np.empty((layers, n, 2, 2, batch), dtype=np.complex128)
        # The gates' (entry, re/im, layer, qubit, row) view.
        entries = gates.view(np.float64).reshape(layers, n, 4, batch, 2)
        self.entries = entries.transpose(2, 4, 0, 1, 3)
        # Kronecker products of the pairs, axes (i1, i0, j1, j0) of the
        # entries high[i1, j1] * low[i0, j0].
        low, high = gates[:, 0 : n - 1 : 2], gates[:, 1::2]
        self.kron = (high[:, :, :, None, :, None], low[:, :, None, :, None, :])
        self.pairs = np.empty((layers, n // 2, 2, 2, 2, 2, batch), dtype=np.complex128)
        factors = list(self.pairs.reshape(layers * (n // 2), 4, 4, batch))
        if n % 2:
            # The top qubit's gate closes each layer.
            for layer, top in enumerate(gates[:, n - 1]):
                factors.insert(layer * (n + 1) // 2 + n // 2, top)
        registers = np.empty((2, 1 << n, batch), dtype=np.complex128)
        self.registers = tuple(registers)
        views = []
        for low in range(0, n, 2):
            width = min(4, 1 << (n - low))
            shape = (2, (1 << n) // (width << low), width, 1 << low, batch)
            views.append(tuple(registers.reshape(shape)))
        live, steps = 0, []
        for first in range(0, len(factors), len(views)):
            contractions = []
            for view, factor in zip(views, factors[first : first + len(views)]):
                contractions.append((factor, view[live], view[1 - live]))
                live = 1 - live
            steps.append((contractions, registers[live], registers[1 - live]))
            # At n = 1 there is no entangler.
            live ^= n > 1
        self.plan = (steps, registers[live])
        self.buffers = (self.half, self.trig, self.products, self.terms, gates, self.pairs)
        self.buffers += (registers,)
        self.nbytes = sum(buffer.nbytes for buffer in self.buffers)


# Entries (rows x 2**n) of per-row phase tables that one table pass of
# the sweep makes: a pass makes as many of a sweep's 2 d tables (T,
# 2**n) as fit, and at least one.  Few passes save the per-call cost of
# small sweeps (one table a pass cost 4.4% of FIM sampling at n = 4,
# d = 3); the bound keeps a large sweep's tables from growing as
# 2 d T 2**n.  At about 33 bytes an entry (the sums, the phases and
# their scratch), a pass of more than one table holds at most 2.2 MB.
_SWEEP_TABLE_ENTRIES = 1 << 16


def _tables_per_pass(d: int, rows: int, size: int) -> int:
    """Per-row phase tables of a sweep of ``rows`` rows made in one pass."""
    return min(2 * d, max(1, _SWEEP_TABLE_ENTRIES // max(rows * size, 1)))


class _SweepWorkspace:
    """Every per-row buffer of a backward sweep of an (n, d) circuit, made once.

    Holds flat buffers for up to ``rows`` rows; :meth:`arrays` views
    their heads as C-contiguous arrays for a sweep of T <= ``rows``
    rows, the layout a new array of that shape would have:

    * ``pairs`` (2, 2, T, 2**n): the (psi, lam) pair and its partner,
      the two buffers that each step moving amplitudes reads and writes
      in turn;
    * the phase tables: the angle sums, the undo phases and the scratch
      of their low and high halves (:func:`_phase_table`), each with d+1
      rows for the variational Ry layers, one row each, then T rows for
      each per-row table that one table pass makes
      (:func:`_tables_per_pass`), handed out as ``var_sums`` (d+1, 1,
      2**n), the variational rows of the sums, and ``passes``, the plan
      of the table passes (:func:`_table_passes`);
    * ``enc`` (d, T, n, 2) and ``rz_sums`` (d, T, n): the encoded angles
      and the summed Rz angles;
    * ``reads`` (2, T, 2**n), the scratch of the reads, and
      ``angle_grads`` (z/y, block, qubit, T).

    A pass of ``m`` tables has ``m T`` rows: at most ``2 d T``, and
    beyond one table's T rows at most ``_SWEEP_TABLE_ENTRIES / 2**n``,
    so the buffers for ``rows`` rows hold those of every T <= ``rows``.
    """

    def __init__(self, n: int, d: int, rows: int):
        self.n, self.d, self.rows = n, d, rows
        table_rows = min(2 * d * rows, max(rows, _SWEEP_TABLE_ENTRIES >> n))
        self.buffers = tuple(
            np.empty(math.prod(shape), dtype) for shape, dtype in self._layout(rows, table_rows)
        )
        self.nbytes = sum(buffer.nbytes for buffer in self.buffers)
        self._last = (None, [])

    def _layout(self, rows: int, table_rows: int) -> tuple:
        n, d, size = self.n, self.d, 1 << self.n
        tables = d + 1 + table_rows
        return (
            ((2, 2, rows, size), np.complex128),
            ((tables, size), np.float64),
            ((tables, size), np.complex128),
            ((tables, size // 2), np.complex128),
            ((tables, size // 2), np.bool_),
            ((d, rows, n, 2), np.float64),
            ((d, rows, n), np.float64),
            ((2, rows, size), np.float64),
            ((2, 2 * d + 1, n, rows), np.float64),
        )

    def arrays(self, rows: int) -> list:
        """``pairs, var_sums, passes, enc, rz_sums, reads, angle_grads``
        for ``rows`` rows; the views of the last row count are kept."""
        if self._last[0] != rows:
            d, size = self.d, 1 << self.n
            per_pass = _tables_per_pass(d, rows, size)
            pairs, *tables, enc, rz_sums, reads, angle_grads = [
                buffer[: math.prod(shape)].reshape(shape)
                for buffer, (shape, _) in zip(self.buffers, self._layout(rows, per_pass * rows))
            ]
            var_sums = tables[0][: d + 1].reshape(d + 1, 1, size)
            passes = _table_passes(rz_sums, enc, tables, per_pass)
            views = [pairs, var_sums, passes, enc, rz_sums, reads, angle_grads]
            self._last = (rows, views)
        return self._last[1]


def _keep(key, work):
    """Keep ``work`` under ``key``, in place of what it held there.

    The oldest kept workspaces are evicted until all fit
    :data:`_WORKSPACE_BYTES`; one that never fits is not kept.
    """
    _WORKSPACES.pop(key, None)
    if work.nbytes <= _WORKSPACE_BYTES:
        kept = sum(other.nbytes for other in _WORKSPACES.values())
        while kept + work.nbytes > _WORKSPACE_BYTES:
            kept -= _WORKSPACES.pop(next(iter(_WORKSPACES))).nbytes
        _WORKSPACES[key] = work
    return work


def _workspace(shape: tuple) -> _Workspace:
    """The kept workspace of a half-angle shape, made on first use."""
    work = _WORKSPACES.get(shape)
    return _keep(shape, _Workspace(shape)) if work is None else work


def _sweep_workspace(n: int, d: int, rows: int) -> _SweepWorkspace:
    """The kept sweep workspace of an (n, d) circuit, remade when a
    sweep has more rows than it holds, to hold that many."""
    key = ("sweep", n, d)
    work = _WORKSPACES.get(key)
    if work is None or work.rows < rows:
        work = _keep(key, _SweepWorkspace(n, d, rows))
    return work


def _gate_table(work: _Workspace) -> None:
    """Per-row factors of a forward pass, written into ``work``.

    Reads the gates' half angles (b/2, (a+c)/2, (a-c)/2) from
    ``work.half``, (term, layer, qubit, row), and writes every table into
    the workspace.  Per layer: the factor U_{q+1} (x) U_q, shape (4, 4,
    row), of each qubit pair (q, q+1) with q even, lowest first, then at
    odd n the top qubit's gate U_{n-1}, shape (2, 2, row); ``work.plan``
    reads them in that order, as views laid out as built, rows innermost.
    A factor's row and column index the pair's bits as 2 b_{q+1} + b_q.
    U_q is the fused gate of qubit q: layer 0 is Ry(theta') @ Rz(theta);
    layer l >= 1 is Ry(theta') @ Rz(theta + lam' s) @ Ry(lam s), the
    encoding block E_l fused into the variational block V_l that follows
    it.  With b the Rz angle and a, c the outer and inner Ry angles
    (c = 0 in layer 0), the gate is in SU(2):

        u00 = cos(b/2) cos((a+c)/2) - i sin(b/2) cos((a-c)/2) = conj(u11)
        u01 = -cos(b/2) sin((a+c)/2) - i sin(b/2) sin((a-c)/2) = -conj(u10)
    """
    # One cos and one sin call cover all three terms.
    trig = work.trig
    np.cos(work.half, out=trig[0])
    np.sin(work.half, out=trig[1])
    # Each entry's (re, im) is +-(f((a+c)/2) cos(b/2), f((a-c)/2) sin(b/2)),
    # with f = cos for u00 and u11 and f = sin for u01 and u10, written
    # straight into the gates' entry view.  ``take`` with mode="raise"
    # would buffer its output; the terms are in range.  The method skips
    # np.take's Python wrapper, as in :func:`_apply_entangler`.
    np.multiply(trig[:, 1:], trig[:, 0], out=work.products)
    work.products.take(_ENTRY_TERMS, axis=0, out=work.terms, mode="clip")
    np.multiply(work.terms, _ENTRY_SIGNS, out=work.entries)
    np.multiply(*work.kron, out=work.pairs)


def _flat_grads(angle_grads: np.ndarray, features: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inverse of the backward sweep's angle layout: d/d(angle) as
    (z, y, block, qubit, row), rotation blocks in circuit order V_0,
    E_1, V_1, ..., E_d, V_d, to flat (theta, lam) derivatives, written
    into ``out`` (B, P) and returned.
    """
    # Sizes are explicit because reshape cannot infer -1 with no rows.
    _, blocks, n, batch = angle_grads.shape
    n_theta = (blocks + 1) * n
    # Splitting the unit-stride column axis of a row block is a view.
    d_theta = out[:, :n_theta].reshape(batch, (blocks + 1) // 2, n, 2)
    d_lam = out[:, n_theta:].reshape(batch, (blocks - 1) // 2, n, 2)
    np.copyto(d_theta, angle_grads[:, 0::2].transpose(3, 1, 2, 0))
    np.multiply(
        angle_grads[::-1, 1::2].transpose(3, 1, 2, 0), features[:, None, ::-1, None], out=d_lam
    )
    return out


# A NamedTuple, not a dataclass: it is as immutable, and its class is
# built in a fraction of the time, which every import pays.
class BoundParams(NamedTuple):
    """A stack of R parameter sets bound to a circuit shape by :func:`bind`.

    ``theta_half`` holds the theta half angles of layers 1..d and
    ``lam_terms`` the scale factors read as the encoded terms, the third
    negated, both as (set, term, layer, qubit, 1), one table per set
    that broadcasts over its rows; ``start`` each set's register (R, 2**n)
    after V_0 and its entangler, the same for every feature row of that
    set.  ``theta`` (R, d+1, n, 2) and ``lam``
    (R, d, n, 2) are read-only views of the parameters as given, which
    :func:`adjoint_grads` reads.
    """

    config: ModelConfig
    theta_half: np.ndarray
    lam_terms: np.ndarray
    start: np.ndarray
    theta: np.ndarray
    lam: np.ndarray


def bind(config: ModelConfig, params: ParamSet) -> BoundParams:
    """Validate ``params`` and evaluate their feature-free part once.

    ``params`` is one set, with flat ``theta`` and ``lam``, or a stack of
    R sets, with ``theta`` (R, |theta|) and ``lam`` (R, |lam|); one set
    binds as a stack of one.  V_0 acts on |0...0> with no feature, so
    each set's register after it is run here, by
    :func:`_start_register`, and :func:`run_bound` runs layers 1..d only.
    """
    n, d = config.n_qubits, config.depth
    sets = _validate_params(config, params)
    theta = params.theta.reshape(sets, d + 1, n, 2)
    lam = params.lam.reshape(sets, d, n, 2)
    half = theta.transpose(3, 1, 2, 0)[[0, 1, 1]]
    half *= 0.5
    start = _start_register(config, half[:, :1])
    lam_terms = lam.transpose(0, 3, 1, 2)[:, [1, 0, 0], ..., None]
    np.negative(lam_terms[:, 2], out=lam_terms[:, 2])
    theta_half = half[:, 1:].transpose(3, 0, 1, 2)[..., None]
    for array in (theta_half, lam_terms, start, theta, lam):
        array.setflags(write=False)
    return BoundParams(config, theta_half, lam_terms, start, theta, lam)


def _start_register(config: ModelConfig, half: np.ndarray) -> np.ndarray:
    """Each set's register (R, 2**n) after V_0 and its entangler.

    ``half`` holds layer 0's half angles as (term, 1, qubit, set).  Layer
    0 runs through :func:`_run_pass` from |0...0>, one row per set, so a
    set's register is layer 0 run as one row of the forward pass.
    """
    work = _workspace(half.shape)
    np.copyto(work.half, half)
    zero = work.registers[0]
    zero.fill(0.0)
    zero[0] = 1.0
    return _run_pass(config, work)


def run_bound(bound: BoundParams, features, *, sets=None) -> np.ndarray:
    """Final amplitudes (T, 2**n) of bound parameter sets at ``T`` feature rows.

    ``features`` is (T, n).  Row ``t`` runs under set ``sets[t]`` of the
    bound stack; ``sets`` is the (T,) row-to-set index, non-decreasing,
    so that each set's rows are one block, and may be None when one set
    is bound.  Each block's half angles and start registers are filled
    from its set as one set's are, and layers 1..d then run in one pass
    over all rows.  Row ``t`` equals the call on ``features[t:t+1]``
    under its set alone, bit for bit.  The result is a new C-contiguous
    array.
    """
    features = _feature_rows(bound.config, features)
    work = _workspace(bound.theta_half.shape[1:4] + (len(features),))
    # The encoded lam * s, halved, plus the theta half angles, as (term,
    # layer, qubit, row); a block's tables of its set broadcast over its
    # rows.  The third term's lam is negated, and (-x) * 0.5 is x * -0.5
    # exactly, so one halving scales the terms by 0.5, 0.5 and -0.5.
    blocks = _row_sets(len(bound.start), sets, len(features))
    half, start = work.half, work.registers[0]
    for index, rows in blocks:
        np.multiply(bound.lam_terms[index], features[rows].T[::-1], out=half[..., rows])
    half *= 0.5
    for index, rows in blocks:
        half[..., rows] += bound.theta_half[index]
        np.copyto(start[:, rows], bound.start[index, :, None])
    return _run_pass(bound.config, work)


def _run_pass(config: ModelConfig, work: _Workspace) -> np.ndarray:
    """Every row of ``work.registers[0]`` through the layers of ``work.half``.

    Both are filled by the caller: the registers (2**n, row) and the
    gates' half angles (term, layer, qubit, row), as :func:`_gate_table`
    reads them; each layer ends with the entangler.  All rows go through
    together: one gate table, then one contraction per factor, each
    reading one register and writing the other with the rows innermost.
    Returns the final amplitudes as a new (row, 2**n) array.
    """
    _gate_table(work)
    steps, last = work.plan
    for contractions, state, spare in steps:
        for factor, read, write in contractions:
            c_einsum("ijb,ojkb->oikb", factor, read, out=write)
        if config.n_qubits > 1:
            _apply_entangler(state, config, spare, axis=0)
    return last.T.copy()


def adjoint_grads(
    bound: BoundParams, features, weights, amps: np.ndarray, *, sets=None
) -> np.ndarray:
    """Gradients of diagonal expectations by one backward sweep per parameter set.

    Row ``t`` runs feature row ``features[t]`` (shape (T, n)) under set
    ``sets[t]`` of the bound stack and measures the real diagonal
    observable ``diag(weights[t])``; ``weights`` is (T, 2**n) or one
    (2**n,) row for all.  ``bound`` and ``sets`` are as
    :func:`run_bound` takes them: the stack :func:`bind` made and the
    (T,) row-to-set index, non-decreasing, or None for one set.
    ``amps`` are the rows' final amplitudes (T, 2**n), as
    :func:`run_bound` gives them; the sweep starts from them and runs no
    forward pass.  Returns ``d<psi_t|diag(w_t)|psi_t>/d(theta, lam)`` of
    row ``t``'s set, shape (T, |theta| + |lam|) in the flat layout.
    Each set's rows are swept alone, so row ``t`` is bit-identical to
    the call on its set's rows alone, in their order.

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
    config = bound.config
    features = _feature_rows(config, features)
    steps = len(features)
    if amps.shape != (steps, 1 << config.n_qubits):
        raise ValueError(f"amps must have shape {(steps, 1 << config.n_qubits)}, got {amps.shape}")
    weights = np.asarray(weights)
    if weights.shape not in (amps.shape, amps.shape[1:]):
        shapes = f"{amps.shape} or {amps.shape[1:]}"
        raise ValueError(f"weights must have shape {shapes}, got {weights.shape}")
    grads = np.empty((steps, sum(param_counts(config))))
    for index, rows in _row_sets(len(bound.start), sets, steps):
        # One (2**n,) row of weights serves every row as it is.
        rows_weights = weights[rows] if weights.ndim == 2 else weights
        _sweep(
            config,
            bound.theta[index],
            bound.lam[index],
            features[rows],
            rows_weights,
            amps[rows],
            grads[rows],
        )
    return grads


def _sweep(config, var, lam, features, weights, amps, out) -> None:
    """:func:`adjoint_grads` of one parameter set, its theta ``var``
    (d+1, n, 2) and its lam (d, n, 2), at every row of ``features``,
    written into ``out`` (T, |theta| + |lam|).

    Every per-row array is a view of the kept :class:`_SweepWorkspace`
    of the circuit shape, so a warm sweep allocates none of its own.
    """
    n, d = config.n_qubits, config.depth
    steps = len(amps)
    work = _sweep_workspace(n, d, steps)
    pairs, var_sums, passes, enc, rz_sums, reads, angle_grads = work.arrays(steps)
    # (block, row, qubit, (y, z)) angles of the encoding blocks; an
    # encoding Rz layer is undone together with the variational Rz layer
    # after it, at their summed angles (block, row, qubit).  Both per-row
    # tables are C-ordered, as the phase products read them.
    np.multiply(lam[:, None], features[:, ::-1, None], out=enc)
    np.add(var[1:, None, :, 0], enc[..., 1], out=rz_sums)
    # The variational Ry angles go in as given views, one row for all,
    # each batch item the product one layer alone would take.
    signs = _z_sign_table(n)
    np.matmul(var[:, None, :, 1], signs, out=var_sums)
    phases = _phase_tables(passes, signs)
    var_phases = next(phases)
    # The pair (psi, lam) and its partner, the spare buffer that the
    # inverse entangler writes; then the two swap roles.
    pair, partner = pairs
    pair[0] = amps
    np.multiply(amps, weights, out=pair[1])
    for layer in range(d, -1, -1):
        if n > 1:
            _apply_entangler(pair, config, partner, inverse=True)
            pair, partner = partner, pair
        _undo_ry_layer(pair, partner, var_phases[layer], reads, angle_grads[1, 2 * layer])
        _z_reads(pair, reads, angle_grads[0, 2 * layer])
        if layer == 0:
            break
        # An encoding Rz layer shares its reading with the variational one.
        angle_grads[0, 2 * layer - 1] = angle_grads[0, 2 * layer]
        pair *= next(phases)
        _undo_ry_layer(pair, partner, next(phases), reads, angle_grads[1, 2 * layer - 1])
    _flat_grads(angle_grads, features, out)


@lru_cache(maxsize=None)
def _z_sign_table(n: int) -> np.ndarray:
    """(n, 2**n): row q is +1 where bit q of the basis index is 0, else -1."""
    bits = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1
    signs = 1.0 - 2.0 * bits
    signs.setflags(write=False)
    return signs


def _z_reads(pair: np.ndarray, reads: np.ndarray, out: np.ndarray) -> None:
    """Im<lam|Z_q|psi> for every qubit q of the stacked ``(psi, lam)``, into ``out`` (n, T).

    ``reads`` is a (2, T, 2**n) scratch buffer.
    """
    psi, lam = pair
    im, scratch = reads
    np.multiply(lam.real, psi.imag, out=im)
    np.multiply(lam.imag, psi.real, out=scratch)
    im -= scratch
    np.matmul(_z_sign_table(out.shape[0]), im.T, out=out)


def _phase_table(half: np.ndarray, phases: np.ndarray, lows: np.ndarray, zeros: np.ndarray) -> None:
    """Undo phases exp(+i/2 angles @ Z signs) of angle sums, into ``phases``.

    ``half`` (rows, 2**n) holds the sums ``angles @ Z signs`` and is
    halved in place (halving is exact); ``lows`` (complex) and ``zeros``
    (bool) are scratch arrays of its low and high half's shape.  The
    complement 2**n - 1 - x of a basis index x flips every Z sign, so
    every term of its sum is x's negated and the sum is too: cos and sin
    run over the low half of the indices only, and the high half is the
    low half's conjugate, mirrored.  A zero is the exception, since a
    sum that cancels is +0 at both ends; where a high half angle is
    zero, its sine is that zero, sign included.  The low half goes
    through ``lows``: numpy copies an input that may overlap its output,
    as a mirrored read of ``phases`` into itself would.
    """
    half *= 0.5
    low = half.shape[-1] // 2
    np.cos(half[:, :low], out=lows.real)
    np.sin(half[:, :low], out=lows.imag)
    np.copyto(phases[:, :low], lows)
    np.conjugate(lows[:, ::-1], out=phases[:, low:])
    np.equal(half[:, low:], 0.0, out=zeros)
    np.copyto(phases.imag[:, low:], half[:, low:], where=zeros)


def _table_passes(rz_sums: np.ndarray, enc: np.ndarray, tables: list, per_pass: int) -> list:
    """The plan of a sweep's table passes, as views of its workspace.

    The sweep takes its 2d per-row tables in the order k = 0, 1, ...:
    table k is made from ``rz_sums[d-1-k//2]``, the summed Rz angles
    (T, n), for even k and from ``enc[d-1-k//2, ..., 0]``, the encoded
    Ry angles, for odd k.  ``tables`` are the sums, phases and scratch
    buffers that :func:`_phase_table` takes, with d+1 rows for the
    variational tables and then ``per_pass`` blocks of T rows.  Each
    pass is ``(products, rows, made)``: the (angles, out) pair of each
    of its tables' products into the sums; the rows of ``tables`` that
    its :func:`_phase_table` call covers, the first pass's including the
    variational rows; and the phase tables it makes, in sweep order.
    """
    d, steps, n = rz_sums.shape
    size, low = 1 << n, 0
    sums, phases = tables[:2]
    passes = []
    for first in range(0, 2 * d, per_pass):
        count = min(per_pass, 2 * d - first)
        end = d + 1 + count * steps
        slots = sums[d + 1 : end].reshape(count, steps, size)
        angles = [
            enc[d - 1 - k // 2, ..., 0] if k % 2 else rz_sums[d - 1 - k // 2]
            for k in range(first, first + count)
        ]
        made = list(phases[d + 1 : end].reshape(count, steps, size))
        if first == 0:
            made.insert(0, phases[: d + 1])
        passes.append((list(zip(angles, slots)), tuple(table[low:end] for table in tables), made))
        low = d + 1
    return passes


def _phase_tables(passes: list, signs: np.ndarray):
    """The undo phases of a sweep, in the order it applies them: the
    variational Ry layers' (d+1, 2**n), one row each, whose sums the
    caller wrote, then the per-row tables (T, 2**n).

    Runs the passes of :func:`_table_passes`, each once the last pass's
    tables are taken: one product per table, then one
    :func:`_phase_table`.
    """
    for products, rows, made in passes:
        for angles, out in products:
            np.matmul(angles, signs, out=out)
        _phase_table(*rows)
        yield from made


def _undo_ry_layer(pair, partner, phases, reads, out) -> None:
    """Undo an Ry layer on the stacked ``(psi, lam)`` in ``pair``, given
    the undo phases of its angles (:func:`_phase_table`), (T, 2**n) or
    one row for all, and write the layer's derivatives (n, T) into
    ``out``.

    Both come from the Y eigenbasis, where the layer is an Rz layer.
    ``partner`` is the spare buffer of the pair's shape: the change of
    basis and its inverse take equally many steps between the two, so
    the undone pair ends in ``pair``.
    """
    changed, spare = _change_basis(pair, partner, back=False)
    _z_reads(changed, reads, out)
    changed *= phases
    _change_basis(changed, spare, back=True)


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


def _change_basis(amps: np.ndarray, spare: np.ndarray, back: bool) -> tuple:
    """``amps`` (..., 2**n) mapped to the Y eigenbasis of every qubit, or back.

    Applies A^dag (or A) qubit group by qubit group, lowest group first,
    each group's product written into the other of ``amps`` and
    ``spare``, two C-contiguous buffers of one shape.  Returns the
    buffer that holds the result and the other one.
    """
    n = amps.shape[-1].bit_length() - 1
    for low in range(0, n, _BASIS_GROUP):
        width = min(_BASIS_GROUP, n - low)
        factor = _basis_factor(width, back)
        if low == 0:
            np.matmul(amps.reshape(-1, 1 << width), factor.T, out=spare.reshape(-1, 1 << width))
        else:
            shape = (-1, 1 << width, 1 << low)
            np.matmul(factor, amps.reshape(shape), out=spare.reshape(shape))
        amps, spare = spare, amps
    return amps, spare
