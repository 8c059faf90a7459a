import json
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from glcrystals import gt
from glcrystals.base import content
from glcrystals.cactus import inner_act, word
from glcrystals.core import schuetzenberger, verify_local_involution
from glcrystals.gt import (PatternCrystal, beta, bk_move, bk_q,
                           check_cgp_homomorphism, from_json, gt_pattern,
                           gt_to_tableau, pattern_crystal, patterns_with_top,
                           pretty, rank_of, tableau_to_gt, to_json)
from glcrystals.tableaux import ssyt
from test_core import xi_images
from test_tableaux import small_shapes

X = gt_pattern([(5, 3, 3, 1), (4, 3, 1), (4, 2), (3,)])
T_X = ssyt([(1, 1, 1, 2, 4), (2, 2, 3), (3, 4, 4), (4,)], 4)


def test_pattern_validation():
    with pytest.raises(ValueError):
        gt_pattern([(1, 2), (1,)])          # top row not a partition
    with pytest.raises(ValueError):
        gt_pattern([(3, 1), (0,)])          # interlacing broken
    with pytest.raises(ValueError):
        gt_pattern([(2, 1), (1, 1), (1,)])  # bad row lengths
    with pytest.raises(ValueError):
        gt_pattern([(2, -1), (0,)])


def test_beta_golden():
    # row sums of the display are 3, 6, 8, 12
    sums = [sum(X[rank_of(X) - j]) for j in range(1, 5)]
    assert sums == [3, 6, 8, 12]
    assert beta(X) == (3, 3, 2, 4)


def test_beta_zero_and_constant():
    zero = gt_pattern([(0, 0), (0,)])
    assert beta(zero) == (0, 0)
    const = gt_pattern([(2, 2, 2), (2, 2), (2,)])
    assert beta(const) == (2, 2, 2)


def test_bijection_golden():
    assert gt_to_tableau(X) == T_X
    assert tableau_to_gt(T_X, 4) == X


def test_bijection_single_row():
    assert gt_to_tableau(gt_pattern([(4,)])) == ssyt([[1, 1, 1, 1]], 1)


def test_bijection_round_trip_exhaustive():
    assert len(list(patterns_with_top((2, 1, 0), 3))) == 8
    for rank in (2, 3, 4):
        for lam in small_shapes(rank, 6):
            for x in patterns_with_top(lam, rank):
                assert tableau_to_gt(gt_to_tableau(x), rank) == x


def test_beta_is_tableau_content():
    for rank in (2, 3, 4):
        for lam in small_shapes(rank, 6):
            for x in patterns_with_top(lam, rank):
                assert beta(x) == content(gt_to_tableau(x), rank)


def test_bk_move_golden_chain():
    step1 = bk_move(X, 1)
    assert step1 == X
    step2 = bk_move(step1, 2)
    assert step2 == gt_pattern([(5, 3, 3, 1), (4, 3, 1), (3, 2), (3,)])
    step3 = bk_move(step2, 1)
    assert step3 == gt_pattern([(5, 3, 3, 1), (4, 3, 1), (3, 2), (2,)])


def test_bk_move_involution_and_invariants():
    for rank in (2, 3, 4):
        for lam in small_shapes(rank, 6):
            for x in patterns_with_top(lam, rank):
                for j in range(1, rank):
                    moved = bk_move(x, j)
                    gt_pattern(moved)  # stays a valid pattern
                    assert moved[0] == x[0]
                    assert bk_move(moved, j) == x


def test_bk_move_swaps_content():
    for x in patterns_with_top((2, 1, 0), 3):
        for j in (1, 2):
            expect = list(beta(x))
            expect[j - 1], expect[j] = expect[j], expect[j - 1]
            assert beta(bk_move(x, j)) == tuple(expect)


def test_bk_q_definition():
    for x in patterns_with_top((3, 1, 0), 3):
        assert bk_q(x, 1) == bk_move(x, 1)
    assert bk_q(X, 2) == gt_pattern([(5, 3, 3, 1), (4, 3, 1), (3, 2), (2,)])


def test_bk_q_involution():
    for x in patterns_with_top((2, 1, 1, 0), 4):
        for i in (1, 2, 3):
            assert bk_q(bk_q(x, i), i) == x


def test_bk_q_touches_only_small_entries():
    for rank, lam in ((3, (2, 1, 0)), (4, (2, 1, 1, 0))):
        for x in patterns_with_top(lam, rank):
            t = gt_to_tableau(x)
            for i in range(2, rank + 1):
                moved = gt_to_tableau(bk_q(x, i - 1))
                for row_a, row_b in zip(t, moved):
                    for a, b in zip(row_a, row_b):
                        if a != b:
                            assert a <= i and b <= i


def test_cgp_homomorphism():
    assert check_cgp_homomorphism((2,), 2).ok
    assert check_cgp_homomorphism((2, 1, 0), 3).ok
    assert check_cgp_homomorphism((2, 1, 1, 0), 4).ok


def test_cgp_toggles_each_pattern_and_index_once_per_call(monkeypatch):
    real = gt.bk_q
    calls = Counter()

    def counting(x, i):
        calls[x, i] += 1
        return real(x, i)

    monkeypatch.setattr(gt, "bk_q", counting)
    # the memo dies with its call: a second call toggles everything again
    for lam, n in (((2, 1), 3), ((2, 1, 1), 4)):
        for _ in range(2):
            assert check_cgp_homomorphism(lam, n).ok
    assert calls and set(calls.values()) == {2}


def pattern_pool(lam, rank):
    return list(patterns_with_top(lam + (0,) * (rank - len(lam)), rank))


def test_pattern_local_involution_matches_transport():
    for rank in (2, 3, 4, 5):
        for lam in small_shapes(rank, 5 if rank < 5 else 3):
            rep = verify_local_involution(pattern_crystal(rank),
                                          pattern_pool(lam, rank))
            assert rep.ok, rep.witness
            assert rep.checked > 0


def test_pattern_local_involution_catches_a_seeded_fault(monkeypatch):
    # the conjugated route applied to the reflected interval: the full
    # interval is unchanged, s[1,2] and s[2,3] of rank 3 swap
    def reflected(self, x, nodes):
        flipped = tuple(self.rank - i for i in reversed(nodes))
        t = self._tab.interval_involution(gt_to_tableau(x), flipped)
        return tableau_to_gt(t, self.rank)

    pool = pattern_pool((2, 1), 3)
    assert verify_local_involution(pattern_crystal(3), pool).ok
    monkeypatch.setattr(PatternCrystal, "interval_involution", reflected)
    rep = verify_local_involution(pattern_crystal(3), pool)
    assert rep.status == "fail"
    assert rep.witness.startswith("s[1,2] local route disagrees")


def test_cold_pattern_word_builds_no_component():
    # s[1,5] on this pattern has a component of 1024 patterns; the local
    # route conjugates evacuation and must not walk it
    x = tableau_to_gt(ssyt([(1, 1, 2, 3), (2, 3, 4), (4, 5), (5,)], 5), 5)
    crystal = PatternCrystal(5)
    out = inner_act(word(5, (1, 5)), crystal, x)
    assert xi_images(crystal) == {}
    assert crystal._edges == {}
    assert out == schuetzenberger(PatternCrystal(5), x, (1, 2, 3, 4))


def test_rank_zero_has_the_single_empty_pattern():
    assert list(patterns_with_top((), 0)) == [()]
    with pytest.raises(ValueError, match="too long"):
        list(patterns_with_top((), -1))
    with pytest.raises(ValueError, match="too long"):
        list(patterns_with_top((1,), 0))


def test_index_range_errors():
    with pytest.raises(ValueError):
        bk_move(X, 4)
    with pytest.raises(ValueError):
        bk_q(X, 0)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_pattern_toggle_involution(seed):
    pool = list(patterns_with_top((3, 2, 1), 3))
    x = pool[seed % len(pool)]
    for j in (1, 2):
        assert bk_move(bk_move(x, j), j) == x


def test_json_round_trip():
    assert from_json(to_json(X)) == X
    payload = json.loads(to_json(X))
    assert payload == {"rank": 4, "rows": [[5, 3, 3, 1], [4, 3, 1], [4, 2], [3]]}
    with pytest.raises(ValueError):
        from_json({"rank": 3, "rows": [[5, 3, 3, 1], [4, 3, 1], [4, 2], [3]]})


def test_pretty_is_triangular():
    lines = pretty(X).splitlines()
    assert len(lines) == 4
    assert lines[0].strip().startswith("5")
