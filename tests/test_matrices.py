import json
from math import comb

import pytest

from glcrystals.core import check_crystal_axioms, is_morphism
from glcrystals.goldens import MATRIX_A, MATRIX_A_P, MATRIX_A_P_CE2
from glcrystals.matrices import (Ce, Ce_tensor, Ceps, Cf, Cf_tensor, Cphi, Re,
                                 Re_tensor, Reps, Rf, Rf_tensor, Rphi,
                                 bit_matrices, bit_matrix, check_budget,
                                 col_eps_profile, col_phi_profile,
                                 col_structure, col_weight, dims, from_json,
                                 from_text, fundamental_crystal,
                                 matrix_col_crystal, matrix_from_col_word,
                                 matrix_from_row_word, matrix_row_crystal,
                                 row_eps_profile, row_phi_profile,
                                 row_structure, row_weight, subsets, to_json,
                                 to_text, verify_commutation,
                                 verify_dual_implementation)
from glcrystals.tensor import tensor_crystal


def all_small_dims(max_cells):
    for n in range(1, max_cells + 1):
        for m in range(1, max_cells + 1):
            if n * m <= max_cells:
                yield n, m


# ---------------------------------------------------------------------------
# fundamental crystal

def test_fundamental_ops():
    crystal = fundamental_crystal(3)
    assert crystal.e(1, (0, 1, 0)) == (1, 0, 0)
    assert crystal.e(1, (1, 1, 0)) is None
    assert crystal.f(2, (0, 1, 0)) == (0, 0, 1)
    assert crystal.eps(1, (0, 1, 0)) == 1 and crystal.phi(1, (0, 1, 0)) == 0


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
        assert matrix_from_row_word(row_structure(M)[1]) == M
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


def test_operators_raise_on_an_unmovable_maximum():
    # entries outside 0/1 put the profile maximum where no one can move;
    # the check is a raise, so it holds under python -O too
    for op, M in ((Re, ((0, 2),)), (Rf, ((2, 0),)),
                  (Ce, ((0,), (2,))), (Cf, ((2,), (0,)))):
        with pytest.raises(ValueError, match="no movable one"):
            op(M, 1)


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


def test_budget_guard():
    with pytest.raises(ValueError):
        check_budget(4, 4, 8, budget=100)
    check_budget(4, 4, 8, budget=100, force=True)
    with pytest.raises(ValueError):
        verify_commutation(4, 4, 8, budget=100)


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
    assert from_text(text) == MATRIX_A
