"""Classical post-processing of measured bitstrings into actions.

A post-processing function maps every n-bit measurement outcome to one
of M actions; equivalently it partitions the 2**n basis strings into M
action classes.  This module provides the concrete families used in
the experiments, the extracted-information / globality measures that
rank them, the recursive construction that achieves maximal globality
(with its closed form), and enumeration/statistics over the space of
balanced partitionings.

Bitstrings are handled as basis indices per the :mod:`qpglab.qsim`
convention: index ``i`` is the string ``b_{n-1} ... b_0`` with bit
``b_q`` at significance ``2**q``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

# Largest qubit count for explicit classes, extracted information and
# histograms: the subcube pass holds 3**n entries per table.
_QUBIT_LIMIT = 16


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _check_qubits(n: int, what: str) -> None:
    if n > _QUBIT_LIMIT:
        raise ValueError(f"{what} is limited to {_QUBIT_LIMIT} qubits")


class PostProcessing:
    """Total map from n-bit measurement outcomes to actions.

    Each subclass defines its map once, in ``_build_table``, which
    returns the action of every basis index (``ExplicitTable`` stores
    that array directly).
    """

    n_qubits: int
    num_actions: int

    def action_table(self) -> np.ndarray:
        """Action of every basis index, cached; length 2**n."""
        cached = getattr(self, "_table", None)
        if cached is None:
            cached = self._build_table()
            cached.setflags(write=False)
            self._table = cached
        return cached


class MostSignificantBit(PostProcessing):
    """Two actions decided by the uppermost qubit alone (globality 1)."""

    def __init__(self, n_qubits: int):
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        self.n_qubits = n_qubits
        self.num_actions = 2

    def _build_table(self) -> np.ndarray:
        idx = np.arange(1 << self.n_qubits)
        return ((idx >> (self.n_qubits - 1)) & 1).astype(np.int64)


class PrefixParity(PostProcessing):
    """Two actions from the parity of the q most significant bits.

    Interpolates between the single-bit rule (q=1) and the full parity
    function (q=n); its globality equals q.
    """

    def __init__(self, n_qubits: int, q: int):
        if not 1 <= q <= n_qubits:
            raise ValueError(f"prefix length q={q} must be in [1, {n_qubits}]")
        self.n_qubits = n_qubits
        self.q = q
        self.num_actions = 2

    def _build_table(self) -> np.ndarray:
        idx = np.arange(1 << self.n_qubits, dtype=np.uint64)
        shifted = idx >> np.uint64(self.n_qubits - self.q)
        return (np.bitwise_count(shifted) & 1).astype(np.int64)


class RecursiveParity(PostProcessing):
    """Maximal-globality partitioning via recursive parity splits.

    For M = 2**(m+1) actions the class of a string is, in closed form,
    the number whose binary digits (most significant first) are
    b_0, b_1, ..., b_{m-1} followed by the parity of bits m..n-1.
    The equivalent recursive set construction is materialised by
    :func:`recursive_partition_sets`.
    """

    def __init__(self, n_qubits: int, num_actions: int):
        if num_actions < 2 or num_actions & (num_actions - 1):
            raise ValueError("num_actions must be a power of two >= 2")
        if num_actions > (1 << n_qubits):
            raise ValueError("num_actions cannot exceed 2**n_qubits")
        self.n_qubits = n_qubits
        self.num_actions = num_actions
        self._m = num_actions.bit_length() - 2  # log2(M) - 1

    def _build_table(self) -> np.ndarray:
        m = self._m
        idx = np.arange(1 << self.n_qubits, dtype=np.uint64)
        table = (np.bitwise_count(idx >> np.uint64(m)) & 1).astype(np.int64)
        for j in range(m):
            table |= ((idx >> np.uint64(j)) & 1).astype(np.int64) << (m - j)
        return table


class ExplicitTable(PostProcessing):
    """Post-processing given by an explicit index-to-action table."""

    def __init__(self, n_qubits: int, num_actions: int, table):
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (1 << n_qubits,):
            raise ValueError(
                f"table must assign all {1 << n_qubits} strings, got {table.shape}"
            )
        if table.min() < 0 or table.max() >= num_actions:
            raise ValueError("table actions must lie in [0, num_actions)")
        self.n_qubits = n_qubits
        self.num_actions = num_actions
        self._table = table.copy()
        self._table.setflags(write=False)

    @classmethod
    def from_sets(cls, n_qubits: int, sets: dict) -> "ExplicitTable":
        """Build from ``{action: iterable of basis indices}`` classes."""
        table = np.full(1 << n_qubits, -1, dtype=np.int64)
        for action, members in sets.items():
            for b in members:
                if table[b] != -1:
                    raise ValueError(f"basis index {b} assigned to two actions")
                table[b] = action
        if (table < 0).any():
            missing = int(np.nonzero(table < 0)[0][0])
            raise ValueError(f"basis index {missing} not assigned to any action")
        return cls(n_qubits, max(sets) + 1, table)


def _basis_index(fn: PostProcessing, bits) -> int:
    """Basis index of a measurement outcome given as an index or a string."""
    if isinstance(bits, str):
        return decode_bits_to_index(fn.n_qubits, bits)
    index = int(bits)
    if not 0 <= index < (1 << fn.n_qubits):
        raise ValueError(f"basis index {index} out of range for {fn.n_qubits} qubits")
    return index


def decode(fn: PostProcessing, bits) -> int:
    """Decode a measurement outcome (basis index or '0101'-style string)."""
    return int(fn.action_table()[_basis_index(fn, bits)])


def recursive_partition_sets(n_qubits: int, num_actions: int) -> dict:
    """Materialise the recursive parity-split classes directly.

    Independent of the closed form in :class:`RecursiveParity`: the
    base case splits all strings by total parity, and each recursion
    level splits a class by the parity of bits m..n-1, relabelling the
    parent class as a_m ... a_2 (a_1 xor a_0).  Returns
    ``{action: set of basis indices}``.
    """
    if num_actions < 2 or num_actions & (num_actions - 1):
        raise ValueError("num_actions must be a power of two >= 2")
    if num_actions > (1 << n_qubits):
        raise ValueError("num_actions cannot exceed 2**n_qubits")
    if num_actions == 2:
        strings = range(1 << n_qubits)
        return {
            0: {b for b in strings if _parity(b) == 0},
            1: {b for b in strings if _parity(b) == 1},
        }
    parent = recursive_partition_sets(n_qubits, num_actions // 2)
    m = num_actions.bit_length() - 2
    sets = {}
    for a in range(num_actions):
        a0 = a & 1
        a1 = (a >> 1) & 1
        parent_label = ((a >> 2) << 1) | (a1 ^ a0)
        sets[a] = {b for b in parent[parent_label] if _parity(b >> m) == a0}
    return sets


def partition_sets(fn: PostProcessing) -> dict:
    """Explicit ``{action: sorted list of basis indices}`` classes."""
    _check_qubits(fn.n_qubits, "explicit materialisation")
    table = fn.action_table()
    return {
        a: [int(b) for b in np.nonzero(table == a)[0]]
        for a in range(fn.num_actions)
    }


# ---------------------------------------------------------------------------
# Extracted information and globality


def _extracted_information(tables: np.ndarray, n: int) -> np.ndarray:
    """Extracted information of every string, for a batch of action tables.

    ``tables`` has shape (B, 2**n); so has the result.  EI(b) is the
    certificate complexity of the decoding at b: n minus the most free
    positions of a subcube that contains b and on which the action is
    constant.  One pass builds the action of every subcube of
    {0,1,*}**n (-1 where it is not constant), a second takes the best
    star count over the subcubes around each string.
    """
    batch = len(tables)
    # The narrowest signed type that holds every action and the -1 mark.
    value = tables.astype(np.min_scalar_type(-int(tables.max()) - 1))
    stars = np.zeros(1, dtype=np.int8)
    for axis in range(n):
        # Axes 0..axis-1 already range over {0,1,*}; give this one its *.
        value = value.reshape(batch, 3**axis, 2, -1)
        v0, v1 = value[:, :, 0], value[:, :, 1]
        star = np.where(v0 == v1, v0, -1)[:, :, None]
        value = np.concatenate([value, star], axis=2)
        stars = (stars[:, None] + np.array([0, 0, 1], dtype=np.int8)).ravel()
    score = np.where(value.reshape(batch, -1) >= 0, stars, np.int8(-1))
    del value
    for axis in range(n):
        # Each string may free this position or keep it.
        score = score.reshape(batch, 2**axis, 3, -1)
        score = np.maximum(score[:, :, :2], score[:, :, 2:])
    return n - score.reshape(batch, -1).astype(np.int64)


def extracted_information(fn: PostProcessing, bits) -> int:
    """Minimum number of bit positions that pin down the action of ``bits``.

    The smallest k such that some k positions of the string force every
    agreeing string into the same action class.
    """
    index = _basis_index(fn, bits)
    _check_qubits(fn.n_qubits, "extracted information")
    return int(_extracted_information(fn.action_table()[None, :], fn.n_qubits)[0, index])


def decode_bits_to_index(n_qubits: int, bits: str) -> int:
    if len(bits) != n_qubits or set(bits) - {"0", "1"}:
        raise ValueError(f"bitstring {bits!r} is not a {n_qubits}-bit binary string")
    return int(bits, 2)


@dataclass
class GlobalityReport:
    """Per-string extracted information and its exact average."""

    n_qubits: int
    num_actions: int
    ei: np.ndarray
    value: Fraction
    balanced: bool

    @property
    def value_float(self) -> float:
        return float(self.value)


def globality(fn: PostProcessing) -> GlobalityReport:
    """Average extracted information over all 2**n strings, exactly.

    The result is a rational with denominator 2**n.  It always lies at
    or below n; for balanced partitionings it also lies at or above
    log2(num_actions) (unbalanced tables can dip below that, so the
    lower bound is only asserted when class sizes are equal).
    """
    n = fn.n_qubits
    _check_qubits(n, "globality")
    table = fn.action_table()
    ei = _extracted_information(table[None, :], n)[0]
    value = Fraction(int(ei.sum()), 1 << n)
    sizes = np.bincount(table, minlength=fn.num_actions)
    balanced = bool((sizes == (1 << n) // fn.num_actions).all())
    if value > n:
        raise RuntimeError(f"globality {value} exceeds the qubit count {n}")
    if balanced and 2.0 ** float(value) < fn.num_actions - 1e-9:
        # G >= log2(M) holds for balanced partitionings; checked as 2**G >= M.
        raise RuntimeError(
            f"globality {value} fell below log2({fn.num_actions}) "
            "on a balanced partitioning"
        )
    return GlobalityReport(n, fn.num_actions, ei, value, balanced)


# ---------------------------------------------------------------------------
# Census of balanced partitionings


def count_balanced_partitionings(n_qubits: int, num_actions: int) -> int:
    """Exact count of equal-size partitionings, up to action relabelling.

    Computes N! / (M! * ((N/M)!)**M) for N = 2**n as an arbitrary
    precision integer.
    """
    big_n = 1 << n_qubits
    if num_actions < 2 or big_n % num_actions:
        raise ValueError("num_actions must be >= 2 and divide 2**n_qubits")
    size = big_n // num_actions
    return math.factorial(big_n) // (
        math.factorial(num_actions) * math.factorial(size) ** num_actions
    )


def _balanced_tables(big_n: int, num_actions: int, rows: int):
    """Yield the action table of every balanced partitioning once.

    Tables come as (k, big_n) arrays of at most ``rows`` rows, in
    canonical order: each class is led by the smallest string not yet
    assigned and takes the rest of its strings in lexicographic order of
    their combinations, which quotients out the M! action relabellings
    exactly as the counting formula does.
    """
    size = big_n // num_actions

    def expand(partial: np.ndarray, action: int):
        if action == num_actions:
            yield partial
            return
        # Unassigned strings of each row, ascending; every row has as many.
        free = np.nonzero(partial < 0)[1].reshape(len(partial), -1)
        # The leader (position 0) joins each (size-1)-subset of the rest.
        picks = np.array(
            [(0,) + c for c in combinations(range(1, free.shape[1]), size - 1)],
            dtype=np.intp,
        )
        total = len(partial) * len(picks)
        for start in range(0, total, rows):
            row, pick = np.divmod(np.arange(start, min(start + rows, total)), len(picks))
            tables = partial[row]
            tables[np.arange(len(row))[:, None], free[row[:, None], picks[pick]]] = action
            yield from expand(tables, action + 1)

    yield from expand(np.full((1, big_n), -1, dtype=np.min_scalar_type(-num_actions)), 0)


EXHAUSTIVE_LIMIT = 10**7
# Histograms score their tables in batches of about this many subcubes.
_CHUNK_ENTRIES = 1 << 22


def _sampled_tables(big_n: int, num_actions: int, samples: int, rng, rows: int):
    """Yield ``samples`` uniform balanced tables as arrays of at most ``rows``.

    One permutation per sample; its a-th block of N/M strings is class a.
    """
    size = big_n // num_actions
    for start in range(0, samples, rows):
        count = min(rows, samples - start)
        yield np.array([np.argsort(rng.permutation(big_n)) // size for _ in range(count)])


@dataclass
class HistogramResult:
    """Counts of globality values over balanced partitionings."""

    n_qubits: int
    num_actions: int
    mode: str
    total: int
    counts: dict  # Fraction -> int

    def sorted_items(self):
        return sorted(self.counts.items())


def globality_histogram(
    n_qubits: int,
    num_actions: int,
    mode: str = "exhaustive",
    samples: int = 100000,
    rng: np.random.Generator | None = None,
) -> HistogramResult:
    """Distribution of globality over balanced partitionings.

    ``mode="exhaustive"`` enumerates every partitioning (refused when
    the census exceeds ``EXHAUSTIVE_LIMIT``); ``mode="sampled"`` draws
    ``samples`` uniform balanced partitionings from ``rng``.
    """
    big_n = 1 << n_qubits
    if num_actions < 2 or big_n % num_actions:
        raise ValueError("num_actions must be >= 2 and divide 2**n_qubits")
    _check_qubits(n_qubits, "histograms")
    # Tables per extracted-information pass, which holds 3**n entries each.
    rows = max(1, _CHUNK_ENTRIES // 3**n_qubits)
    if mode == "exhaustive":
        census = count_balanced_partitionings(n_qubits, num_actions)
        if census > EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"{census} partitionings exceed the exhaustive limit "
                f"{EXHAUSTIVE_LIMIT}; use sampled mode"
            )
        chunks = _balanced_tables(big_n, num_actions, rows)
    elif mode == "sampled":
        if rng is None:
            raise ValueError("sampled mode needs an rng")
        chunks = _sampled_tables(big_n, num_actions, samples, rng, rows)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    sums: dict = {}
    total = 0
    for tables in chunks:
        values, freq = np.unique(
            _extracted_information(tables, n_qubits).sum(axis=1), return_counts=True
        )
        for ei_sum, count in zip(values.tolist(), freq.tolist()):
            sums[ei_sum] = sums.get(ei_sum, 0) + count
        total += len(tables)
    counts = {Fraction(ei_sum, big_n): count for ei_sum, count in sums.items()}
    return HistogramResult(n_qubits, num_actions, mode, total, counts)


# ---------------------------------------------------------------------------
# Table file format: one "bits,action" line per basis string


def save_table(path, fn: PostProcessing) -> None:
    lines = [
        f"{format(b, f'0{fn.n_qubits}b')},{action}"
        for b, action in enumerate(fn.action_table().tolist())
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_table(path, num_actions: int | None = None) -> ExplicitTable:
    """Read an explicit table from its text form, validating coverage."""
    entries = {}
    n_qubits = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                bits, action = line.split(",")
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'bits,action'") from None
            if n_qubits is None:
                n_qubits = len(bits)
            index = decode_bits_to_index(n_qubits, bits)
            if index in entries:
                raise ValueError(f"{path}:{lineno}: duplicate bitstring {bits}")
            entries[index] = int(action)
    if n_qubits is None:
        raise ValueError(f"{path}: empty table")
    if len(entries) != 1 << n_qubits:
        raise ValueError(
            f"{path}: table covers {len(entries)} of {1 << n_qubits} strings"
        )
    table = np.array([entries[i] for i in range(1 << n_qubits)], dtype=np.int64)
    if num_actions is None:
        num_actions = int(table.max()) + 1
    return ExplicitTable(n_qubits, num_actions, table)
