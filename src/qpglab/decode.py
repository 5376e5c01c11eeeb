"""Classical post-processing of measured bitstrings into actions.

A post-processing function maps every n-bit measurement outcome to one
of M actions; equivalently it partitions the 2**n basis strings into M
action classes.  A decoding is stored as exactly that map: its action
table, one action per basis index, built once when it is constructed.
:class:`PostProcessing` holds any such table (``load_table`` reads one
from a file); the families used in the experiments compute theirs in
closed form.  The module also provides the extracted-information /
globality measures that rank decodings, the recursive construction
that achieves maximal globality, and enumeration/statistics over the
space of balanced partitionings.

Bitstrings are handled as basis indices per the :mod:`qpglab.qsim`
convention: index ``i`` is the string ``b_{n-1} ... b_0`` with bit
``b_q`` at significance ``2**q``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

# Largest qubit count for explicit classes, extracted information and
# histograms: a kernel pass holds 3**n entries per table, strings outer.
QUBIT_LIMIT = 16
# Entries that a kernel step runs over at least, where n allows: a 64-byte line of int8.
_RUN_ENTRIES = 64


def _check_qubits(n: int, what: str) -> None:
    if n > QUBIT_LIMIT:
        raise ValueError(f"{what} is limited to {QUBIT_LIMIT} qubits")


class PostProcessing:
    """Total map from n-bit measurement outcomes to actions, as its table.

    ``table[i]`` is the action of basis index ``i``: a read-only int64
    array of length 2**n with every entry in [0, num_actions).  The
    constructor copies and checks the table; the families below only
    compute theirs in closed form.
    """

    def __init__(self, n_qubits: int, num_actions: int, table):
        table = np.array(table, dtype=np.int64)
        if table.shape != (1 << n_qubits,):
            raise ValueError(
                f"table must assign all {1 << n_qubits} strings, got {table.shape}"
            )
        if table.min() < 0 or table.max() >= num_actions:
            raise ValueError("table actions must lie in [0, num_actions)")
        table.setflags(write=False)
        self.n_qubits = n_qubits
        self.num_actions = num_actions
        self.table = table


class PrefixParity(PostProcessing):
    """Two actions from the parity of the q most significant bits.

    Interpolates between the single-bit rule (q=1) and the full parity
    function (q=n); its globality equals q.
    """

    def __init__(self, n_qubits: int, q: int):
        if not 1 <= q <= n_qubits:
            raise ValueError(f"prefix length q={q} must be in [1, {n_qubits}]")
        idx = np.arange(1 << n_qubits, dtype=np.uint64)
        super().__init__(n_qubits, 2, np.bitwise_count(idx >> np.uint64(n_qubits - q)) & 1)


class MostSignificantBit(PrefixParity):
    """Two actions decided by the uppermost qubit alone: the one-bit prefix parity."""

    def __init__(self, n_qubits: int):
        super().__init__(n_qubits, 1)


class RecursiveParity(PostProcessing):
    """Maximal-globality partitioning via recursive parity splits.

    For M = 2**(m+1) actions the class of a string is, in closed form,
    the number whose binary digits (most significant first) are
    b_0, b_1, ..., b_{m-1} followed by the parity of bits m..n-1.
    The test suite checks it against the equivalent recursive set
    construction, materialised class by class.
    """

    def __init__(self, n_qubits: int, num_actions: int):
        if num_actions < 2 or num_actions & (num_actions - 1):
            raise ValueError("num_actions must be a power of two >= 2")
        if num_actions > (1 << n_qubits):
            raise ValueError("num_actions cannot exceed 2**n_qubits")
        m = num_actions.bit_length() - 2  # log2(M) - 1
        idx = np.arange(1 << n_qubits, dtype=np.uint64)
        table = (np.bitwise_count(idx >> np.uint64(m)) & 1).astype(np.int64)
        for j in range(m):
            table |= ((idx >> np.uint64(j)) & 1).astype(np.int64) << (m - j)
        super().__init__(n_qubits, num_actions, table)


def decode(fn: PostProcessing, bits: str) -> int:
    """Action of a measurement outcome given as a '0101'-style string."""
    return int(fn.table[decode_bits_to_index(fn.n_qubits, bits)])


# ---------------------------------------------------------------------------
# Extracted information and globality


@lru_cache(maxsize=None)
def _star_counts(n: int) -> np.ndarray:
    """Free positions of every subcube of {0,1,*}**n, as read-only int8.

    Entry i counts the digits 2 (the * symbol) of the radix-3 index i.
    It depends on n alone, so it is built once per qubit count: 3**n
    bytes, about 43 MB at ``QUBIT_LIMIT``.
    """
    stars = np.zeros(1, dtype=np.int8)
    for _ in range(n):
        stars = (np.array([0, 0, 1], dtype=np.int8)[:, None] + stars).ravel()
    stars.setflags(write=False)
    return stars


def _extracted_information(tables: np.ndarray, n: int) -> np.ndarray:
    """Extracted information of every string, for a batch of action tables.

    ``tables`` is (B, 2**n); the result is (2**n, B) in the pass's narrow
    signed type.  EI(b), the certificate complexity at b, is n minus the
    most free positions of a subcube around b with one action.  One pass
    builds the action of every subcube of {0,1,*}**n (-1 where not
    constant), a second the best star count around each string.

    Both passes hold strings outer and tables inner, and the first half
    of each carries the m lowest bits inside its runs, m the fewest with
    2**m * B >= ``_RUN_ENTRIES`` (at most n; 0 for large B), so a step
    runs over at least 2**m * B contiguous entries.  The subcube pass
    expands bits m..n-1, transposes, and expands bits 0..m-1, each step
    writing one bit's (0, 1, *) block into a fresh array.  Its radix-3
    index has bits m-1..0 most significant, then n-1..m; star counts
    ignore digit order.  The second pass frees m-1..0, transposes back
    and frees n-1..m, leaving the strings in index order.
    """
    batch = len(tables)
    low = min(n, ((_RUN_ENTRIES - 1) // batch).bit_length())
    high = 3 ** (n - low)
    # The narrowest signed type that holds every action and the -1 mark.
    value = tables.T.astype(np.min_scalar_type(-int(tables.max()) - 1), order="C")
    # Each half of a pass starts with its transpose; the first half's is a view.
    for rows, bits, run in ((1, n - low, batch << low), (high, low, high * batch)):
        value = np.ascontiguousarray(value.reshape(rows, -1, batch).swapaxes(0, 1))
        for k in range(bits):
            pairs = value.reshape(-1, 2, 3**k * run)
            value = np.empty((len(pairs), 3, pairs.shape[2]), dtype=value.dtype)
            value[:, :2] = pairs
            # The * entry in place: -(v0 != v1) | v0 is v0 or -1 (all bits).
            star, v0 = value[:, 2], pairs[:, 0]
            np.not_equal(v0, pairs[:, 1], out=star, casting="unsafe")
            np.negative(star, out=star)
            star |= v0
    # The sign bit spread over the word: 0 where constant, -1 where not;
    # OR-ing the star count into it scores the constant subcubes.
    score = np.right_shift(value, 8 * value.itemsize - 1, out=value).reshape(-1, batch)
    score |= _star_counts(n)[:, None]
    for rows, trits in ((1, low), (1 << low, n - low)):
        score = np.ascontiguousarray(score.reshape(rows, -1, batch).swapaxes(0, 1))
        for axis in range(trits):
            # Each string may free this position or keep it.
            score = score.reshape(2**axis, 3, -1)
            score = np.maximum(score[:, :2], score[:, 2:])
    return np.subtract(n, score, out=score).reshape(-1, batch)


def decode_bits_to_index(n_qubits: int, bits: str) -> int:
    if len(bits) != n_qubits or set(bits) - {"0", "1"}:
        raise ValueError(f"bitstring {bits!r} is not a {n_qubits}-bit binary string")
    return int(bits, 2)


@dataclass
class GlobalityReport:
    """Per-string extracted information and its exact average."""

    ei: np.ndarray
    value: Fraction


def globality(fn: PostProcessing) -> GlobalityReport:
    """Average extracted information over all 2**n strings, exactly.

    The result is a rational with denominator 2**n.  It always lies at
    or below n; for balanced partitionings it also lies at or above
    log2(num_actions) (unbalanced tables can dip below that, so the
    lower bound is only asserted when class sizes are equal).
    """
    n = fn.n_qubits
    _check_qubits(n, "globality")
    ei = _extracted_information(fn.table[None, :], n)[:, 0]
    total = int(ei.sum())
    value = Fraction(total, 1 << n)
    if total > n << n:
        raise RuntimeError(f"globality {value} exceeds the qubit count {n}")
    # G >= log2(M) holds when classes are equal; their sizes are read only if 2**G < M.
    if 2.0 ** (total / (1 << n)) < fn.num_actions - 1e-9:
        sizes = np.bincount(fn.table, minlength=fn.num_actions)
        if (sizes == (1 << n) // fn.num_actions).all():
            raise RuntimeError(
                f"globality {value} fell below log2({fn.num_actions}) on a balanced partitioning"
            )
    return GlobalityReport(ei, value)


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
# Subcubes per histogram chunk: one kernel call, 3**n entries per table.
_CHUNK_ENTRIES = 1 << 22


def _sampled_tables(big_n: int, num_actions: int, samples: int, rng, rows: int):
    """Yield ``samples`` uniform balanced tables as arrays of at most ``rows``.

    One permutation per sample; its a-th block of N/M strings is class a.
    A chunk shuffles all its rows in one ``rng.permuted`` call, which
    draws row after row exactly as one ``rng.permutation(N)`` call per
    sample would, so the tables and the generator's state afterwards do
    not depend on the chunk size.
    """
    size = big_n // num_actions
    for start in range(0, samples, rows):
        count = min(rows, samples - start)
        perms = rng.permuted(np.tile(np.arange(big_n), (count, 1)), axis=1)
        yield np.argsort(perms, axis=1) // size


@dataclass
class HistogramResult:
    """Counts of globality values over balanced partitionings."""

    total: int
    counts: dict  # Fraction -> int


def check_histogram_request(n_qubits: int, num_actions: int, mode: str) -> None:
    """Raise ValueError unless :func:`globality_histogram` accepts the request.

    It needs at most ``QUBIT_LIMIT`` qubits, an action count that
    divides 2**n, and, in exhaustive mode, a census of at most
    ``EXHAUSTIVE_LIMIT`` partitionings.
    """
    _check_qubits(n_qubits, "histograms")
    if num_actions < 2 or (1 << n_qubits) % num_actions:
        raise ValueError("num_actions must be >= 2 and divide 2**n_qubits")
    if mode == "exhaustive":
        census = count_balanced_partitionings(n_qubits, num_actions)
        if census > EXHAUSTIVE_LIMIT:
            raise ValueError(
                f"{census} partitionings exceed the exhaustive limit "
                f"{EXHAUSTIVE_LIMIT}; use sampled mode"
            )
    elif mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")


def globality_histogram(
    n_qubits: int,
    num_actions: int,
    mode: str = "exhaustive",
    samples: int = 100000,
    rng: np.random.Generator | None = None,
) -> HistogramResult:
    """Distribution of globality over balanced partitionings.

    ``mode="exhaustive"`` enumerates every partitioning; ``mode="sampled"``
    draws ``samples`` uniform balanced partitionings from ``rng``.  The
    request must pass :func:`check_histogram_request`.
    """
    check_histogram_request(n_qubits, num_actions, mode)
    big_n = 1 << n_qubits
    # Tables per extracted-information pass, which holds 3**n entries each.
    rows = max(1, _CHUNK_ENTRIES // 3**n_qubits)
    if mode == "exhaustive":
        chunks = _balanced_tables(big_n, num_actions, rows)
    else:
        if rng is None:
            raise ValueError("sampled mode needs an rng")
        chunks = _sampled_tables(big_n, num_actions, samples, rng, rows)
    sums: dict = {}
    total = 0
    for tables in chunks:
        ei_sums = _extracted_information(tables, n_qubits).sum(axis=0, dtype=np.int64)
        values, freq = np.unique(ei_sums, return_counts=True)
        for ei_sum, count in zip(values.tolist(), freq.tolist()):
            sums[ei_sum] = sums.get(ei_sum, 0) + count
        total += len(tables)
    counts = {Fraction(ei_sum, big_n): count for ei_sum, count in sums.items()}
    return HistogramResult(total, counts)


# ---------------------------------------------------------------------------
# Table file format: one "bits,action" line per basis string


def load_table(path, num_actions: int) -> PostProcessing:
    """Read an explicit table from its text form, validating coverage;
    a malformed line's ``ValueError``, an action outside
    [0, num_actions) included, is led by ``path:lineno``."""
    entries = {}
    n_qubits = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}:"
            try:
                bits, action = line.split(",")
            except ValueError:
                raise ValueError(f"{where} expected 'bits,action'") from None
            if not bits:
                raise ValueError(f"{where} empty bitstring")
            if n_qubits is None:
                n_qubits = len(bits)
            try:
                index = decode_bits_to_index(n_qubits, bits)
            except ValueError as exc:
                raise ValueError(f"{where} {exc}") from None
            if index in entries:
                raise ValueError(f"{where} duplicate bitstring {bits}")
            try:
                entries[index] = int(action)
            except ValueError:
                raise ValueError(f"{where} action {action!r} is not an integer") from None
            if not 0 <= entries[index] < num_actions:
                raise ValueError(f"{where} action {entries[index]} is not in [0, {num_actions})")
    if n_qubits is None:
        raise ValueError(f"{path}: empty table")
    if len(entries) != 1 << n_qubits:
        raise ValueError(
            f"{path}: table covers {len(entries)} of {1 << n_qubits} strings"
        )
    return PostProcessing(n_qubits, num_actions, [entries[i] for i in range(1 << n_qubits)])
