from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpglab import decode
from oracles import actions_from_masks, enumerate_balanced_masks

# The worked 4-qubit, 4-action partitioning used throughout the docs,
# keyed by action, members as basis indices.
WORKED_SETS = {
    0: [0b0000, 0b0010, 0b0100, 0b0110],
    1: [0b0001, 0b0011, 0b0101, 0b0111],
    2: [0b1000, 0b1010, 0b1101, 0b1111],
    3: [0b1001, 0b1011, 0b1100, 0b1110],
}


@pytest.fixture
def worked_table():
    return decode.ExplicitTable.from_sets(4, WORKED_SETS)


def test_worked_table_decodes_0111(worked_table):
    assert decode.decode(worked_table, "0111") == 1


def test_worked_table_ei_0111(worked_table):
    assert decode.extracted_information(worked_table, "0111") == 2


def test_worked_table_ei_split_by_msb(worked_table):
    report = decode.globality(worked_table)
    assert set(report.ei[:8]) == {2}
    assert set(report.ei[8:]) == {3}


def test_worked_table_globality_is_five_halves(worked_table):
    report = decode.globality(worked_table)
    assert report.value == Fraction(5, 2)
    assert report.value_float == 2.5


def test_recursive_parity_closed_form_example():
    fn = decode.RecursiveParity(4, 8)
    assert decode.decode(fn, "1001") == 5


def test_recursive_parity_m2_is_full_parity():
    fn = decode.RecursiveParity(3, 2)
    sets = decode.partition_sets(fn)
    assert sets[0] == [0b000, 0b011, 0b101, 0b110]
    assert sets[1] == [0b001, 0b010, 0b100, 0b111]


def test_recursive_parity_m4_action_zero():
    sets = decode.partition_sets(decode.RecursiveParity(4, 4))
    assert sets[0] == [0b0000, 0b0110, 0b1010, 0b1100]


def test_recursive_parity_m8_action_five():
    sets = decode.partition_sets(decode.RecursiveParity(4, 8))
    assert sets[5] == [0b0101, 0b1001]


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("m", [2, 4, 8])
def test_closed_form_agrees_with_recursion(n, m):
    if m > (1 << n):
        pytest.skip("more actions than strings")
    fn = decode.RecursiveParity(n, m)
    recursive = decode.recursive_partition_sets(n, m)
    for action, members in recursive.items():
        for b in members:
            assert decode.decode(fn, b) == action
    assert sum(len(v) for v in recursive.values()) == 1 << n


@given(st.integers(2, 7), st.sampled_from([2, 4, 8]))
@settings(max_examples=25, deadline=None)
def test_partition_laws(n, m):
    if m > (1 << n):
        return
    sets = decode.partition_sets(decode.RecursiveParity(n, m))
    seen = set()
    for members in sets.values():
        assert len(members) == (1 << n) // m
        assert not seen & set(members)
        seen.update(members)
    assert seen == set(range(1 << n))


def test_msb_local_everything():
    fn = decode.MostSignificantBit(4)
    assert decode.decode(fn, "1000") == 1
    assert decode.decode(fn, "0111") == 0
    report = decode.globality(fn)
    assert (report.ei == 1).all()
    assert report.value == 1


def test_full_parity_needs_all_bits():
    fn = decode.RecursiveParity(5, 2)
    report = decode.globality(fn)
    assert (report.ei == 5).all()


def test_prefix_parity_decode_and_empty_prefix_case():
    fn = decode.PrefixParity(4, 2)
    # parity of the two most significant bits
    assert decode.decode(fn, "1100") == 0
    assert decode.decode(fn, "1000") == 1
    assert decode.decode(decode.PrefixParity(3, 3), "000") == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_prefix_parity_globality_equals_prefix_length(n):
    for q in range(1, n + 1):
        assert decode.globality(decode.PrefixParity(n, q)).value == q


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (4, 2), (4, 4), (5, 2), (6, 4)])
def test_recursive_parity_globality_is_qubit_count(n, m):
    assert decode.globality(decode.RecursiveParity(n, m)).value == n


def test_globality_bounds_hold():
    for fn in (
        decode.MostSignificantBit(5),
        decode.PrefixParity(5, 3),
        decode.RecursiveParity(5, 4),
        decode.ExplicitTable.from_sets(4, WORKED_SETS),
    ):
        report = decode.globality(fn)
        assert report.value <= fn.n_qubits
        assert 2.0 ** float(report.value) >= fn.num_actions - 1e-9


def test_special_partitioning_scores_three_and_a_half():
    # The explicit 4-qubit split used as the G=3.5 configuration.
    fn = decode.ExplicitTable.from_sets(
        4,
        {
            0: [1, 3, 5, 6, 9, 10, 12, 15],
            1: [0, 2, 4, 7, 8, 11, 13, 14],
        },
    )
    assert decode.globality(fn).value == Fraction(7, 2)


def test_count_balanced_partitionings_values():
    assert decode.count_balanced_partitionings(4, 2) == 6435
    assert decode.count_balanced_partitionings(2, 2) == 3
    census = decode.count_balanced_partitionings(6, 4)
    assert 2.7e34 < census < 2.9e34


def test_count_matches_enumeration_for_tiny_cases():
    for n, m in [(2, 2), (3, 2), (2, 4)]:
        total = sum(1 for _ in enumerate_balanced_masks(1 << n, m))
        assert total == decode.count_balanced_partitionings(n, m)


@pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (3, 2), (2, 4), (3, 4), (4, 2), (3, 8)])
def test_table_enumeration_matches_the_mask_reference(n, m):
    reference = [
        actions_from_masks(1 << n, masks)
        for masks in enumerate_balanced_masks(1 << n, m)
    ]
    for rows in (1, 7, 1 << 20):
        chunks = list(decode._balanced_tables(1 << n, m, rows))
        assert all(1 <= len(chunk) <= rows for chunk in chunks)
        assert np.concatenate(chunks).tolist() == reference


def test_exhaustive_histogram_n2():
    hist = decode.globality_histogram(2, 2, mode="exhaustive")
    assert hist.total == 3
    # Brute-force: two single-bit splits (G=1) and the parity split (G=2).
    assert hist.counts == {Fraction(1): 2, Fraction(2): 1}


def test_exhaustive_histogram_n4_census():
    hist = decode.globality_histogram(4, 2, mode="exhaustive")
    assert hist.total == 6435
    assert hist.counts[Fraction(4)] == 1
    assert hist.counts[Fraction(1)] == 4


def test_exhaustive_refused_when_infeasible():
    with pytest.raises(ValueError):
        decode.globality_histogram(6, 4, mode="exhaustive")


def test_sampled_histogram_reproducible():
    first = decode.globality_histogram(
        4, 2, mode="sampled", samples=200, rng=np.random.default_rng(3)
    )
    second = decode.globality_histogram(
        4, 2, mode="sampled", samples=200, rng=np.random.default_rng(3)
    )
    assert first.counts == second.counts
    assert first.total == 200


def test_explicit_table_rejects_partial_and_overlapping():
    with pytest.raises(ValueError):
        decode.ExplicitTable.from_sets(2, {0: [0, 1], 1: [3]})
    with pytest.raises(ValueError):
        decode.ExplicitTable.from_sets(2, {0: [0, 1, 2], 1: [2, 3]})


def test_decode_validates_inputs(worked_table):
    with pytest.raises(ValueError):
        decode.decode(worked_table, "011")  # wrong length
    with pytest.raises(ValueError):
        decode.decode(worked_table, "01x1")
    with pytest.raises(ValueError):
        decode.decode(worked_table, 16)


def test_recursive_parity_validates_action_count():
    with pytest.raises(ValueError):
        decode.RecursiveParity(3, 3)
    with pytest.raises(ValueError):
        decode.RecursiveParity(2, 8)


def test_table_file_round_trip(tmp_path, worked_table):
    path = tmp_path / "table.txt"
    decode.save_table(path, worked_table)
    loaded = decode.load_table(path)
    assert (loaded.action_table() == worked_table.action_table()).all()
    assert loaded.num_actions == 4


def test_table_file_rejects_missing_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("00,0\n01,1\n10,0\n")
    with pytest.raises(ValueError):
        decode.load_table(path)


@given(st.integers(2, 6), st.integers(0, 63))
@settings(max_examples=60, deadline=None)
def test_ei_within_range(n, b):
    b %= 1 << n
    fn = decode.RecursiveParity(n, 2)
    ei = decode.extracted_information(fn, b)
    assert 0 <= ei <= n


def _brute_force_ei(table, n):
    """Oracle: for each string, the fewest positions whose values force its action."""
    strings = np.arange(1 << n)
    ei = []
    for b in range(1 << n):
        for k in range(n + 1):
            masks = (sum(1 << p for p in ps) for ps in combinations(range(n), k))
            if any((table[strings & mask == b & mask] == table[b]).all() for mask in masks):
                ei.append(k)
                break
    return np.array(ei)


def _families(n):
    fns = [decode.MostSignificantBit(n)] + [decode.PrefixParity(n, q) for q in range(1, n + 1)]
    return fns + [decode.RecursiveParity(n, m) for m in (2, 4, 8) if m <= 1 << n]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_globality_ei_matches_brute_force(data):
    n = data.draw(st.integers(1, 6))
    kind = data.draw(st.sampled_from(["family", "balanced", "random"]))
    if kind == "family":
        fn = data.draw(st.sampled_from(_families(n)))
    elif kind == "balanced":
        m = data.draw(st.sampled_from([1 << k for k in range(1, n + 1)]))
        perm = data.draw(st.permutations(range(1 << n)))
        fn = decode.ExplicitTable(n, m, np.argsort(perm) // ((1 << n) // m))
    else:
        m = data.draw(st.integers(2, 4))
        table = data.draw(st.lists(st.integers(0, m - 1), min_size=1 << n, max_size=1 << n))
        fn = decode.ExplicitTable(n, m, table)
    assert (decode.globality(fn).ei == _brute_force_ei(fn.action_table(), n)).all()
