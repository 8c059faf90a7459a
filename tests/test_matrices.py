import json
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from glcrystals import matrices
from glcrystals.core import (check_crystal_axioms, is_morphism,
                             kashiwara_reflection)
from glcrystals.goldens import MATRIX_A, MATRIX_A_P, MATRIX_A_P_CE2
from glcrystals.gt import pattern_crystal, tableau_to_gt
from glcrystals.matrices import (Ce, Ceps, Cf, Cphi, Re, Reps, Rf, Rphi,
                                 bit_matrices, bit_matrix, col_eps_profile,
                                 col_phi_profile, col_structure, col_weight,
                                 col_word, dims, from_json,
                                 fundamental_crystal, matrix_col_crystal,
                                 matrix_from_col_word, matrix_row_crystal,
                                 row_eps_profile, row_phi_profile,
                                 row_structure, row_weight, to_json, to_text,
                                 verify_commutation,
                                 verify_dual_implementation)
from glcrystals.tableaux import apply_e, apply_f, signature, tableau_crystal
from glcrystals.tensor import tensor_crystal


def all_small_dims(max_cells):
    for n in range(1, max_cells + 1):
        for m in range(1, max_cells + 1):
            if n * m <= max_cells:
                yield n, m


def subsets(rank, weight):
    """All 0/1 vectors of length rank with `weight` ones."""
    for support in combinations(range(rank), weight):
        v = [0] * rank
        for pos in support:
            v[pos] = 1
        yield tuple(v)


# ---------------------------------------------------------------------------
# fundamental crystal

def test_fundamental_ops():
    crystal = fundamental_crystal(3)
    assert crystal.e(1, (0, 1, 0)) == (1, 0, 0)
    assert crystal.e(1, (1, 1, 0)) is None
    assert crystal.f(2, (0, 1, 0)) == (0, 0, 1)
    assert crystal.eps(1, (0, 1, 0)) == 1 and crystal.phi(1, (0, 1, 0)) == 0


def test_every_model_rejects_out_of_range_nodes():
    # a node outside 1..rank-1 raises; it must not wrap around the rows or
    # positions and return an element of another size
    M = ((1, 0), (0, 1), (1, 1))
    vec = fundamental_crystal(3)
    cases = ((matrix_row_crystal(3, 2), M), (matrix_col_crystal(3, 2), M),
             (vec, (1, 0, 1)), (tableau_crystal(3), ((1, 2),)),
             (pattern_crystal(3), tableau_to_gt(((1, 2),), 3)),
             (tensor_crystal(vec, vec), ((1, 0, 1), (0, 1, 0))))
    probes = 0
    for crystal, b in cases:
        for i in (-1, 0, crystal.rank, crystal.rank + 1):
            for op in (crystal.e, crystal.f, crystal.eps, crystal.phi,
                       lambda i, b: kashiwara_reflection(crystal, b, i)):
                probes += 1
                with pytest.raises(ValueError, match="out of range"):
                    op(i, b)
    for op, i in ((Re, 0), (Rf, 2), (Reps, -1), (Rphi, 3),
                  (Ce, 0), (Cf, 3), (Ceps, -1), (Cphi, 4)):
        probes += 1
        with pytest.raises(ValueError, match=f"node {i} out of range"):
            op(M, i)
    # the bare tableau operators know no rank, so they check the lower bound
    for op in (signature, apply_e, apply_f):
        for i in (-1, 0):
            probes += 1
            with pytest.raises(ValueError, match=f"node {i} out of range"):
                op(((1,),), i)
    assert probes == 6 * 4 * 5 + 8 + 3 * 2


def test_fundamental_axioms_all_subsets():
    crystal = fundamental_crystal(5)
    elements = [v for w in range(6) for v in subsets(5, w)]
    assert len(elements) == 32
    rep = check_crystal_axioms(crystal, elements)
    assert rep.ok, rep.witness


# ---------------------------------------------------------------------------
# words

def test_word_goldens():
    M = bit_matrix([[1, 0], [0, 1]])
    assert row_structure(M)[1] == ((1, 0), (0, 1))
    assert col_structure(M)[1] == ((0, 1), (1, 0))
    assert row_structure(MATRIX_A)[1] == (
        (1, 1, 1, 0, 0), (0, 0, 1, 1, 0), (1, 1, 1, 0, 1))


def test_word_round_trips():
    for M in bit_matrices(2, 3, 2):
        assert row_structure(M)[1] == M
        assert matrix_from_col_word(col_structure(M)[1]) == M
    assert len(list(bit_matrices(2, 3, 2))) == 15


# ---------------------------------------------------------------------------
# operators

def test_ce_golden():
    assert Ce(MATRIX_A_P, 2) == MATRIX_A_P_CE2


def test_re_null_when_no_pattern():
    M = bit_matrix([[1, 0], [1, 0]])
    assert Re(M, 1) is None and Reps(M, 1) == 0


def test_weights():
    assert row_weight(MATRIX_A) == (2, 2, 3, 1, 1)
    assert col_weight(MATRIX_A) == (3, 2, 4)


def test_kernels_match_their_comprehension_oracles():
    # index-comprehension and profile-list oracles for the zip/map and
    # one-scan kernels, on every matrix with nm <= 10 and every node; the
    # sweep runs from an emptied row-pair table and again from the full one
    def row_weight_oracle(M):
        n, m = dims(M)
        return tuple(sum(M[r][c] for r in range(n)) for c in range(m))

    def col_word_oracle(M):
        n, m = dims(M)
        return tuple(tuple(M[r][c] for r in range(n))
                     for c in range(m - 1, -1, -1))

    def from_col_word_oracle(word):
        m, n = len(word), len(word[0])
        return tuple(tuple(word[m - 1 - c][r] for c in range(m))
                     for r in range(n))

    table = matrices._col_pair
    table.cache_clear()
    entries = []
    for _ in ("emptied", "full"):
        cases = 0
        for n, m in all_small_dims(10):
            for N in range(n * m + 1):
                for M in bit_matrices(n, m, N):
                    cases += 1
                    assert row_weight(M) == row_weight_oracle(M)
                    assert col_weight(M) == tuple(sum(row) for row in M)
                    word = col_word(M)
                    assert word == col_word_oracle(M)
                    assert matrix_from_col_word(word) == from_col_word_oracle(word) == M
                    for i in range(1, m):
                        assert Reps(M, i) == max(0, max(row_eps_profile(M, i)))
                        assert Rphi(M, i) == max(0, max(row_phi_profile(M, i)))
                    for j in range(1, n):
                        assert Ceps(M, j) == max(0, max(col_eps_profile(M, j)))
                        assert Cphi(M, j) == max(0, max(col_phi_profile(M, j)))
        assert cases == sum(2 ** (n * m) for n, m in all_small_dims(10))
        entries.append(table.cache_info().currsize)
    # the second pass reads every pair off the table the first one filled
    assert entries[0] == entries[1] > 0


def test_profile_goldens():
    # by hand from the running sums at node i: a row's eps term is [it
    # holds (0,1)] plus, over the rows above, the ones in column i+1 minus
    # those in column i; its phi term [it holds (1,0)] plus, over the rows
    # below, the ones in column i minus those in column i+1.  Columns
    # likewise on rows (j, j+1): eps sums right of the column, phi left.
    M = MATRIX_A  # rows 11100 / 00110 / 11101
    assert row_eps_profile(M, 3) == [0, -1, -1]
    assert row_phi_profile(M, 3) == [2, 1, 1]
    assert col_eps_profile(M, 1) == [0, 1, 1, 1, 0]
    assert col_phi_profile(M, 1) == [1, 2, 2, 2, 1]


@pytest.mark.parametrize("profile", [row_eps_profile, row_phi_profile,
                                     col_eps_profile, col_phi_profile])
def test_profiles_refuse_nodes_outside_the_diagram(profile):
    M = MATRIX_A  # 3 x 5: the row side has rank 5, the column side rank 3
    rank = 5 if profile in (row_eps_profile, row_phi_profile) else 3
    for node in (0, rank):
        with pytest.raises(ValueError, match=f"node {node} out of range"):
            profile(M, node)


def moved(M, cells):
    """M with each (row, column, value) of `cells` written in."""
    out = [list(row) for row in M]
    for r, c, v in cells:
        out[r][c] = v
    return tuple(tuple(row) for row in out)


def test_operators_act_at_the_profile_argmax():
    # Re: topmost row at the maximum; Rf: bottom-most; Ce: the column
    # closest to m; Cf: the column closest to 1
    cases = 0
    for n, m in all_small_dims(9):
        for N in range(n * m + 1):
            for M in bit_matrices(n, m, N):
                for i in range(1, m):
                    cases += 2
                    prof = row_eps_profile(M, i)
                    k = prof.index(max(prof))
                    assert Re(M, i) == (None if prof[k] <= 0 else
                                        moved(M, ((k, i - 1, 1), (k, i, 0))))
                    prof = row_phi_profile(M, i)
                    k = len(prof) - 1 - prof[::-1].index(max(prof))
                    assert Rf(M, i) == (None if prof[k] <= 0 else
                                        moved(M, ((k, i - 1, 0), (k, i, 1))))
                for j in range(1, n):
                    cases += 2
                    prof = col_eps_profile(M, j)
                    k = len(prof) - 1 - prof[::-1].index(max(prof))
                    assert Ce(M, j) == (None if prof[k] <= 0 else
                                        moved(M, ((j - 1, k, 1), (j, k, 0))))
                    prof = col_phi_profile(M, j)
                    k = prof.index(max(prof))
                    assert Cf(M, j) == (None if prof[k] <= 0 else
                                        moved(M, ((j - 1, k, 0), (j, k, 1))))
    assert cases > 10 ** 4


def test_rows_shared_by_two_matrices_cost_one_scan():
    # node 1 reads rows 1 and 2 only: the second matrix is read off the
    # entry the first one left, and all four C kernels share it
    first = ((1, 0, 1), (0, 1, 1), (0, 0, 1))
    second = ((1, 0, 1), (0, 1, 1), (1, 1, 0))
    table = matrices._col_pair
    table.cache_clear()
    for M in (first, second):
        assert (Ceps(M, 1), Cphi(M, 1)) == (1, 1)
        assert Ce(M, 1) == moved(M, ((0, 1, 1), (1, 1, 0)))
        assert Cf(M, 1) == moved(M, ((0, 0, 0), (1, 0, 1)))
    info = table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 7, 1)


def test_commutation_fills_one_entry_per_row_pair_read(monkeypatch):
    table = matrices._col_pair
    read = set()

    def recording(top, bot):
        read.add((top, bot))
        return table(top, bot)

    table.cache_clear()
    monkeypatch.setattr(matrices, "_col_pair", recording)
    assert verify_commutation(3, 3, 4).ok
    assert read == {(M[j - 1], M[j]) for M in bit_matrices(3, 3, 4)
                    for j in (1, 2)}
    assert table.cache_info().currsize == len(read) <= 4 ** 3


def test_operators_raise_on_an_unmovable_maximum():
    # entries outside 0/1 put the profile maximum where no one can move;
    # the check is a raise, so it holds under python -O too
    for op, M in ((Re, ((0, 2),)), (Rf, ((2, 0),)),
                  (Ce, ((0,), (2,))), (Cf, ((2,), (0,)))):
        with pytest.raises(ValueError, match="no movable one"):
            op(M, 1)


# tensor-rule oracles of the four operators, one call at a time

def Re_tensor(M, i):
    crystal, word = row_structure(M)
    out = crystal.e(i, word)
    return None if out is None else tuple(out)


def Rf_tensor(M, i):
    crystal, word = row_structure(M)
    out = crystal.f(i, word)
    return None if out is None else tuple(out)


def Ce_tensor(M, j):
    crystal, word = col_structure(M)
    out = crystal.e(j, word)
    return None if out is None else matrix_from_col_word(out)


def Cf_tensor(M, j):
    crystal, word = col_structure(M)
    out = crystal.f(j, word)
    return None if out is None else matrix_from_col_word(out)


def test_dual_implementation_84():
    count = 0
    for M in bit_matrices(3, 3, 3):
        count += 1
        for i in (1, 2):
            assert Re(M, i) == Re_tensor(M, i)
            assert Rf(M, i) == Rf_tensor(M, i)
            assert Ce(M, i) == Ce_tensor(M, i)
            assert Cf(M, i) == Cf_tensor(M, i)
    assert count == 84


def test_dual_implementation_reports():
    for n, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for N in range(n * m + 1):
            rep = verify_dual_implementation(n, m, N)
            assert rep.ok, rep.witness


def test_commutation_small():
    rep = verify_commutation(2, 2, 2)
    assert rep.ok and rep.instance == {"n": 2, "m": 2, "N": 2}
    rep = verify_commutation(3, 3, 4)
    assert rep.ok
    assert len(list(bit_matrices(3, 3, 4))) == 126


# Seeded faults: each stands in for one operator of the module and is
# caught by both operator verifiers on the 3 x 3 matrices with four ones.
# The (checked, witness) pairs are pinned: computing a matrix's own values
# once must not change which check fails first, nor the count before it.

def _ce_leftmost(M, j):
    """Ce with its tie-break flipped: of the columns at the maximum of
    `col_eps_profile` holding (0, 1), the one closest to 1."""
    prof = col_eps_profile(M, j)
    best = max(prof)
    if best <= 0:
        return None
    k = min(k for k, v in enumerate(prof)
            if v == best and (M[j - 1][k], M[j][k]) == (0, 1))
    return moved(M, ((j - 1, k, 1), (j, k, 0)))


def _rf_topmost(M, i):
    """Rf acting in the topmost row at the maximum of `row_phi_profile`."""
    prof = row_phi_profile(M, i)
    best = max(prof)
    if best <= 0:
        return None
    k = min(k for k, v in enumerate(prof)
            if v == best and (M[k][i - 1], M[k][i]) == (1, 0))
    return moved(M, ((k, i - 1, 0), (k, i, 1)))


def _reps_bottom_up(M, i):
    """Reps read on the rows in the wrong order."""
    return max(0, max(row_eps_profile(M[::-1], i)))


def _cphi_mirrored(M, j):
    """Cphi read on the columns in the wrong order."""
    return max(0, max(col_phi_profile(tuple(row[::-1] for row in M), j)))


def _re_across_rows(M, i):
    """Re that puts the raised one in column i of the next row down
    (cyclically), so it moves a one across rows and the row sums change."""
    out = Re(M, i)
    if out is None:
        return None
    k = next(r for r, (old, new) in enumerate(zip(M, out)) if old != new)
    below = (k + 1) % len(M)
    return moved(out, ((k, i - 1, 0), (below, i - 1, 1))) \
        if M[below][i - 1] == 0 else out


def _cf_across_columns(M, j):
    """Cf that puts the lowered one in row j + 1 of the next column
    (cyclically), so it moves a one across columns and the column sums
    change."""
    out = Cf(M, j)
    if out is None:
        return None
    c = next(c for c in range(len(M[0])) if M[j][c] != out[j][c])
    right = (c + 1) % len(M[0])
    return moved(out, ((j, c, 0), (j, right, 1))) \
        if M[j][right] == 0 else out


SEEDED_FAULTS = (
    ("Ce", _ce_leftmost, (275, "Rf/Ce fail at (1,1) at 100101100"),
     (407, "Ce_2 differs at 100010101")),
    ("Rf", _rf_topmost, (30, "Rf/Cf fail at (2,1) at 111000010"),
     (132, "Rf_2 differs at 110001010")),
    ("Reps", _reps_bottom_up, (2, "C op at 1 moved R eps/phi at 2 at 111100000"),
     (64, "R eps/phi at 2 differ at 110101000")),
    ("Cphi", _cphi_mirrored, (37, "R op at 2 moved C eps/phi at 1 at 110110000"),
     (64, "C eps/phi at 1 differ at 110101000")),
    ("Re", _re_across_rows,
     (6, "R op at 1 moved the column-structure weight at 111010000"),
     (9, "Re_1 differs at 111010000")),
    ("Cf", _cf_across_columns,
     (3, "C op at 2 moved the row-structure weight at 111100000"),
     (8, "Cf_2 differs at 111100000")),
)


@pytest.mark.parametrize("name, fault, commutation, dual", SEEDED_FAULTS,
                         ids=[case[0] for case in SEEDED_FAULTS])
def test_operator_verifiers_fail_on_seeded_faults(monkeypatch, name, fault,
                                                  commutation, dual):
    assert verify_commutation(3, 3, 4).ok and verify_dual_implementation(3, 3, 4).ok
    monkeypatch.setattr(matrices, name, fault)
    for verify, expected in ((verify_commutation, commutation),
                             (verify_dual_implementation, dual)):
        rep = verify(3, 3, 4)
        assert rep.status == "fail"
        assert (rep.checked, rep.witness) == expected


@pytest.mark.parametrize("name, n, m, expected", [
    ("Reps", 1, 3, (12, "R eps/phi at 2 differ at 001")),
    ("Cphi", 3, 1, (8, "C eps/phi at 2 differ at 010")),
])
def test_dual_eps_phi_fault_counts_up_to_the_last_operator_check(
        monkeypatch, name, n, m, expected):
    # one side has no node, so each matrix has four operator checks, all on
    # the other side; the eps/phi comparisons are not counted, and a
    # failing one reports the count at its matrix's last operator check
    real = getattr(matrices, name)
    monkeypatch.setattr(matrices, name, lambda M, i: 0 if i == 2 else real(M, i))
    rep = verify_dual_implementation(n, m, 1)
    assert (rep.status, rep.checked, rep.witness) == ("fail", *expected)


def test_commutation_computes_each_operator_once_per_matrix_and_node(
        monkeypatch):
    calls = Counter()

    def counting(name, real):
        def op(M, k):
            calls[name, M, k] += 1
            return real(M, k)
        return op

    for name in ("Re", "Rf", "Ce", "Cf"):
        monkeypatch.setattr(matrices, name,
                            counting(name, getattr(matrices, name)))
    # the memo dies with its call: a second call computes everything again
    for _ in range(2):
        assert verify_commutation(3, 3, 4).ok
    assert {name for name, _, _ in calls} == {"Re", "Rf", "Ce", "Cf"}
    assert set(calls.values()) == {2}


def test_operator_verifier_totals_are_pinned():
    # (commutation, dual-implementation) checked totals over every N
    expected = {(1, 1): (0, 0), (1, 2): (2, 8), (1, 3): (8, 32),
                (1, 4): (24, 96), (1, 5): (64, 256), (1, 6): (160, 640),
                (2, 1): (2, 8), (2, 2): (32, 64), (2, 3): (234, 384),
                (3, 1): (8, 32), (3, 2): (234, 384), (4, 1): (24, 96),
                (5, 1): (64, 256), (6, 1): (160, 640)}
    totals = {}
    for n, m in all_small_dims(6):
        reports = [(verify_commutation(n, m, N), verify_dual_implementation(n, m, N))
                   for N in range(n * m + 1)]
        assert all(a.ok and b.ok for a, b in reports)
        totals[n, m] = (sum(a.checked for a, _ in reports),
                        sum(b.checked for _, b in reports))
    assert totals == expected


def _column_ops_without_reversal(M, j, direction):
    """Column operators with the columns read left to right instead of the
    reversed order; exists only as a negative control."""
    n, m = dims(M)
    crystal = tensor_crystal(*[fundamental_crystal(n)] * m)
    word = tuple(tuple(M[r][c] for r in range(n)) for c in range(m))
    out = crystal.e(j, word) if direction == "e" else crystal.f(j, word)
    if out is None:
        return None
    return tuple(tuple(out[c][r] for c in range(m)) for r in range(n))


def test_unreversed_column_reading_breaks_golden():
    assert _column_ops_without_reversal(MATRIX_A_P, 2, "e") != MATRIX_A_P_CE2


def test_unreversed_column_reading_breaks_commutation():
    witnesses = 0
    for N in range(10):
        for M in bit_matrices(3, 3, N):
            for i in (1, 2):
                for j in (1, 2):
                    a = Re(M, i)
                    b = _column_ops_without_reversal(M, j, "e")
                    if a is None or b is None:
                        continue
                    if _column_ops_without_reversal(a, j, "e") != Re(b, i):
                        witnesses += 1
    assert witnesses > 0


def test_counts():
    for n, m in all_small_dims(12):
        for N in range(n * m + 1):
            assert len(list(bit_matrices(n, m, N))) == comb(n * m, N)


def test_axioms_both_structures_full_range():
    for n, m in all_small_dims(12):
        elements = [M for N in range(n * m + 1) for M in bit_matrices(n, m, N)]
        rep = check_crystal_axioms(matrix_row_crystal(n, m), elements)
        assert rep.ok, (n, m, rep.witness)
        rep = check_crystal_axioms(matrix_col_crystal(n, m), elements)
        assert rep.ok, (n, m, rep.witness)


def test_every_operator_is_a_morphism_of_the_other_structure():
    for n, m in all_small_dims(9):
        elements = [M for N in range(n * m + 1) for M in bit_matrices(n, m, N)]
        col = matrix_col_crystal(n, m)
        row = matrix_row_crystal(n, m)
        for i in range(1, m):
            assert is_morphism(lambda M, i=i: Re(M, i), col, col, elements).ok
            assert is_morphism(lambda M, i=i: Rf(M, i), col, col, elements).ok
        for j in range(1, n):
            assert is_morphism(lambda M, j=j: Ce(M, j), row, row, elements).ok
            assert is_morphism(lambda M, j=j: Cf(M, j), row, row, elements).ok


def test_eps_phi_match_models():
    for M in bit_matrices(2, 3, 3):
        row = matrix_row_crystal(2, 3)
        col = matrix_col_crystal(2, 3)
        for i in (1, 2):
            assert row.eps(i, M) == Reps(M, i) and row.phi(i, M) == Rphi(M, i)
        assert col.eps(1, M) == Ceps(M, 1) and col.phi(1, M) == Cphi(M, 1)


def test_validation():
    with pytest.raises(ValueError):
        bit_matrix([[0, 2]])
    with pytest.raises(ValueError):
        bit_matrix([[0, 1], [0]])
    with pytest.raises(ValueError):
        bit_matrix([[0, 1]], n=2)


def test_serialization():
    payload = json.loads(to_json(MATRIX_A))
    assert payload["n"] == 3 and payload["m"] == 5
    assert from_json(payload) == MATRIX_A
    text = to_text(MATRIX_A)
    assert text.splitlines()[0] == "11100"
