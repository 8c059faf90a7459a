from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from glcrystals.base import (DynkinInterval, content, format_partition,
                             intervals, parse_partition, partition,
                             partitions_in_box, perm_compose, perm_identity,
                             schur_bruteforce, ssyt_fillings, theta_interval,
                             theta_on_nodes, transpose, weyl_dimension,
                             weyl_longest)


def all_partitions(max_size):
    for size in range(max_size + 1):
        yield from partitions_in_box(max_size, max_size, size)


# ---------------------------------------------------------------------------
# partitions

def test_partition_normalizes_trailing_zeros():
    assert partition((5, 3, 1, 0, 0)) == (5, 3, 1)
    assert partition(()) == ()
    assert partition((0, 0)) == ()


def test_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        partition((1, 2))
    with pytest.raises(ValueError):
        partition((2, -1))


def test_transpose_examples():
    assert transpose((5, 3, 1)) == (3, 2, 2, 1, 1)
    assert transpose(()) == ()
    assert transpose((2, 2)) == (2, 2)


def test_transpose_involution_small():
    for lam in all_partitions(8):
        assert transpose(transpose(lam)) == lam


@given(st.lists(st.integers(min_value=0, max_value=12), max_size=8))
def test_transpose_involution_hypothesis(parts):
    lam = partition(sorted(parts, reverse=True))
    assert transpose(transpose(lam)) == lam


def test_parse_and_format():
    assert parse_partition("5,3,1") == (5, 3, 1)
    assert parse_partition("") == ()
    assert format_partition((5, 3, 1, 0)) == "5,3,1"


# ---------------------------------------------------------------------------
# intervals and the diagram involution

def test_theta_full_interval():
    for n in range(2, 7):
        full = DynkinInterval(1, n, n)
        for i in range(1, n):
            assert theta_on_nodes(full.nodes, i) == n - i


def test_theta_examples():
    assert theta_on_nodes(DynkinInterval(2, 4, 4).nodes, 2) == 3
    j = DynkinInterval(3, 7, 8)
    assert theta_on_nodes(j.nodes, 3) == 6  # endpoint swap


def test_theta_involution_and_membership():
    for rank in range(2, 9):
        for j in intervals(rank):
            for i in j.nodes:
                assert theta_on_nodes(j.nodes, theta_on_nodes(j.nodes, i)) == i
                assert theta_on_nodes(j.nodes, i) in j.nodes


def test_theta_interval_nested():
    outer = DynkinInterval(1, 4, 4)
    assert theta_interval(outer, DynkinInterval(1, 2, 4)) == DynkinInterval(3, 4, 4)
    with pytest.raises(ValueError):
        theta_interval(DynkinInterval(1, 2, 4), DynkinInterval(2, 4, 4))


def test_weyl_longest_examples():
    assert weyl_longest(DynkinInterval(1, 3, 3)) == (3, 2, 1)
    assert weyl_longest(DynkinInterval(1, 2, 3)) == (2, 1, 3)
    assert weyl_longest(DynkinInterval(2, 4, 4)) == (1, 4, 3, 2)


def test_weyl_longest_order_two_and_block():
    for rank in range(2, 9):
        for j in intervals(rank):
            w = weyl_longest(j)
            assert perm_compose(w, w) == perm_identity(rank)
            for i in range(j.q - j.p + 1):
                assert w[j.p + i - 1] == j.q - i


def perm_apply_weight(perm, w):
    """Oracle for permuted weights: position i is sent to position perm[i]."""
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[perm[i] - 1] = v
    return tuple(out)


def test_perm_apply_weight():
    w = weyl_longest(DynkinInterval(2, 4, 4))
    assert perm_apply_weight(w, (9, 1, 2, 3)) == (9, 3, 2, 1)


# ---------------------------------------------------------------------------
# brute-force Schur oracle

def test_schur_single_box():
    assert schur_bruteforce((1,), 2) == Counter({(1, 0): 1, (0, 1): 1})


def test_schur_row_of_two():
    # fillings 11, 12, 22
    assert schur_bruteforce((2, 0), 2) == Counter(
        {(2, 0): 1, (1, 1): 1, (0, 2): 1})


def test_schur_adjoint_shape():
    counts = schur_bruteforce((2, 1, 0), 3)
    assert sum(counts.values()) == 8
    assert counts[(1, 1, 1)] == 2


def test_schur_too_many_rows():
    assert schur_bruteforce((1, 1, 1), 2) == Counter()


def test_schur_symmetry():
    # symmetric under permuting weight coordinates
    for size in range(7):
        for lam in partitions_in_box(4, size, size):
            for rank in range(max(1, len(lam)), 5):
                counts = schur_bruteforce(lam, rank)
                for w, c in counts.items():
                    for sigma in permutations(range(rank)):
                        permuted = tuple(w[sigma[i]] for i in range(rank))
                        assert counts[permuted] == c


def test_branching_oracle_and_weyl_formula_match_the_fillings():
    # the oracle counts patterns, not fillings: it must give the contents
    # of the fillings on every shape of at most 6 boxes, including shapes
    # longer than the rank and rank 0, and Weyl's formula their number
    for lam in all_partitions(6):
        for rank in range(6):
            fillings = list(ssyt_fillings(lam, rank))
            assert schur_bruteforce(lam, rank) == Counter(
                content(rows, rank) for rows in fillings), (lam, rank)
            assert weyl_dimension(lam, rank) == len(fillings), (lam, rank)


def test_weyl_formula_of_a_staircase():
    # 2^(n choose 2) patterns of rank n with top row (n-1, ..., 1, 0)
    for n in range(1, 9):
        assert weyl_dimension(range(n - 1, 0, -1), n) == 2 ** (n * (n - 1) // 2)


def test_fillings_are_semistandard():
    for rows in ssyt_fillings((3, 2), 3):
        for row in rows:
            assert all(a <= b for a, b in zip(row, row[1:]))
        for upper, lower in zip(rows, rows[1:]):
            assert all(a < b for a, b in zip(upper, lower))
