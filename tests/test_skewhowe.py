import random

import pytest

from glcrystals import matrices, skewhowe
from glcrystals.base import transpose
from glcrystals.cactus import outer_act, word
from glcrystals.core import is_morphism
from glcrystals.goldens import (LAMBDA_A, MATRIX_A, MATRIX_A_P, MATRIX_A_Q,
                                TABLEAU_P, TABLEAU_Q)
from glcrystals.matrices import (Cphi, Reps, bit_matrices, bit_matrix, dims,
                                 matrix_col_crystal, matrix_from_col_word,
                                 matrix_from_row_word, matrix_row_crystal,
                                 col_structure, row_structure)
from glcrystals.skewhowe import (cf_max, doubly_extreme_shape, duality_inv,
                                 duality_iso, outer_on_cols, outer_on_rows,
                                 phi_inv, phi_map, psi_inv, psi_map, re_max,
                                 rotate90, verify_agreement, verify_corollary,
                                 verify_counting)
from glcrystals.tableaux import evacuate, shape_of, ssyt


def all_small_dims(max_cells):
    for n in range(1, max_cells + 1):
        for m in range(1, max_cells + 1):
            if n * m <= max_cells:
                yield n, m


# ---------------------------------------------------------------------------
# extremal forms

def test_re_max_golden():
    assert re_max(MATRIX_A) == MATRIX_A_P


def test_cf_max_golden():
    assert cf_max(MATRIX_A) == MATRIX_A_Q


def test_extremal_fixed_points():
    assert re_max(MATRIX_A_P) == MATRIX_A_P
    assert cf_max(MATRIX_A_Q) == MATRIX_A_Q


def test_extremal_maps_commute():
    for n, m in all_small_dims(9):
        for N in range(n * m + 1):
            for M in bit_matrices(n, m, N):
                assert cf_max(re_max(M)) == re_max(cf_max(M))


def test_extremal_maps_are_path_independent():
    # greedy raising lands on the component's unique extreme element, so
    # the scan order cannot matter
    from glcrystals.core import component
    for n, m in ((2, 3), (3, 3)):
        row = matrix_row_crystal(n, m)
        col = matrix_col_crystal(n, m)
        for N in range(n * m + 1):
            for M in bit_matrices(n, m, N):
                assert re_max(M) == component(row, M, row.nodes()).highest
                assert cf_max(M) == component(col, M, col.nodes()).lowest


def test_doubly_extreme_shapes():
    assert doubly_extreme_shape(bit_matrix([[1, 1], [0, 0]])) == (2,)
    corner = cf_max(re_max(MATRIX_A))
    assert doubly_extreme_shape(corner) == LAMBDA_A
    assert [sum(row) for row in reversed(corner)] == [5, 3, 1]
    assert doubly_extreme_shape(bit_matrix([[1, 1], [1, 1]])) == (2, 2)
    with pytest.raises(ValueError):
        doubly_extreme_shape(MATRIX_A)


# ---------------------------------------------------------------------------
# tableau readings

def test_phi_golden():
    assert phi_map(MATRIX_A_P) == TABLEAU_P


def test_psi_golden():
    assert psi_map(MATRIX_A_Q) == TABLEAU_Q


def test_phi_inverse_exhaustive():
    for N in range(10):
        for M in bit_matrices(3, 3, N):
            if all(Reps(M, i) == 0 for i in (1, 2)):
                assert phi_inv(phi_map(M), 3, 3) == M


def test_psi_inverse_golden():
    assert psi_inv(TABLEAU_Q, 5, 3) == MATRIX_A_Q
    assert phi_inv(TABLEAU_P, 3, 5) == MATRIX_A_P


def test_phi_requires_highest():
    with pytest.raises(ValueError):
        phi_map(MATRIX_A)
    with pytest.raises(ValueError):
        psi_map(MATRIX_A)


# The shape-chain build the readings used before they read the tableau
# columns directly; kept here as their oracle.

def _conjugate_lengths(cols):
    """Row lengths of the diagram whose column lengths are `cols`."""
    if any(a < b for a, b in zip(cols, cols[1:])):
        raise ValueError(f"column lengths {cols} not weakly decreasing")
    depth = cols[0] if cols else 0
    return tuple(sum(1 for c in cols if c > r) for r in range(depth))


def _fill_chain(shapes):
    """Tableau with entry i on the boxes added at step i of a nested chain."""
    rows, prev = [], ()
    for i, shape in enumerate(shapes, start=1):
        for r, width in enumerate(shape):
            before = prev[r] if r < len(prev) else 0
            if width < before:
                raise ValueError("chain of shapes is not nested")
            if width > before:
                if r >= len(rows):
                    rows.append([])
                rows[r].extend([i] * (width - before))
        prev = shape
    return tuple(tuple(r) for r in rows)


def chain_phi(P):
    """Step i adds the columns counted by the i-th prefix row sum."""
    n, m = dims(P)
    acc, shapes = [0] * m, []
    for r in range(n):
        acc = [a + v for a, v in zip(acc, P[r])]
        shapes.append(_conjugate_lengths(acc))
    return ssyt(_fill_chain(shapes), n)


def chain_psi(Q):
    """Step i adds the rows counted by the i-th prefix of bottom-up column
    sums."""
    n, m = dims(Q)
    acc, shapes = [0] * n, []
    for c in range(m):
        acc = [a + Q[n - 1 - k][c] for k, a in enumerate(acc)]
        shapes.append(_conjugate_lengths(acc))
    return ssyt(_fill_chain(shapes), m)


def test_column_readings_match_the_chain_build():
    highest = lowest = 0
    for n, m in all_small_dims(10):
        for N in range(n * m + 1):
            for M in bit_matrices(n, m, N):
                if all(Reps(M, i) == 0 for i in range(1, m)):
                    highest += 1
                    assert phi_map(M) == chain_phi(M), M
                if all(Cphi(M, j) == 0 for j in range(1, n)):
                    lowest += 1
                    assert psi_map(M) == chain_psi(M), M
    assert highest > 1000 and lowest > 1000


def test_phi_is_column_structure_morphism():
    # the R-highest subset is closed under the C operators, so the reading
    # map is total on its domain
    from glcrystals.tableaux import tableau_crystal
    for n, m in all_small_dims(9):
        col = matrix_col_crystal(n, m)
        tab = tableau_crystal(n)
        for N in range(n * m + 1):
            highest = [M for M in bit_matrices(n, m, N)
                       if all(Reps(M, i) == 0 for i in range(1, m))]
            rep = is_morphism(phi_map, col, tab, highest)
            assert rep.ok, (n, m, N, rep.witness)


def test_psi_is_row_structure_morphism():
    from glcrystals.matrices import Cphi
    from glcrystals.tableaux import tableau_crystal
    for n, m in all_small_dims(9):
        row = matrix_row_crystal(n, m)
        tab = tableau_crystal(m)
        for N in range(n * m + 1):
            lowest = [M for M in bit_matrices(n, m, N)
                      if all(Cphi(M, j) == 0 for j in range(1, n))]
            rep = is_morphism(psi_map, row, tab, lowest)
            assert rep.ok, (n, m, N, rep.witness)


# ---------------------------------------------------------------------------
# the packaged isomorphism

def test_duality_golden_round_trip():
    pair = duality_iso(MATRIX_A)
    assert (pair.p_matrix, pair.q_matrix) == (MATRIX_A_P, MATRIX_A_Q)
    assert (pair.t_p, pair.t_q) == (TABLEAU_P, TABLEAU_Q)
    assert pair.lam == LAMBDA_A
    assert duality_inv(pair) == MATRIX_A


def test_duality_empty():
    M = bit_matrix([[0, 0], [0, 0]])
    pair = duality_iso(M)
    assert pair.lam == () and pair.t_p == () and pair.t_q == ()
    assert duality_inv(pair) == M


def test_duality_bijective_on_15():
    seen = {}
    for M in bit_matrices(2, 3, 2):
        pair = duality_iso(M)
        key = (pair.t_p, pair.t_q)
        assert key not in seen
        seen[key] = M
        assert shape_of(pair.t_q) == transpose(pair.lam)
        assert duality_inv(pair) == M
    assert len(seen) == 15
    assert verify_counting(2, 3, 2).ok


def test_transpose_shape_relation():
    for n, m in all_small_dims(12):
        for N in range(n * m + 1):
            for M in bit_matrices(n, m, N):
                pair = duality_iso(M)
                assert shape_of(pair.t_q) == transpose(shape_of(pair.t_p))


def test_counting_identity_small():
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            for N in range(n * m + 1):
                assert verify_counting(n, m, N).ok


# ---------------------------------------------------------------------------
# rotation

def test_rotate90_single_one():
    assert rotate90(bit_matrix([[1, 0], [0, 0]])) == ((0, 0), (1, 0))
    assert rotate90(bit_matrix([[1, 1, 0], [0, 0, 1]])) == (
        (0, 1), (1, 0), (1, 0))


def test_rotate90_index_identity():
    M = MATRIX_A  # 3 x 5
    R = rotate90(M)
    rows, cols = 3, 5
    for k in range(1, cols + 1):
        for j in range(1, rows + 1):
            assert R[k - 1][j - 1] == M[j - 1][cols - k]


# ---------------------------------------------------------------------------
# agreement and its rotated form

def test_agreement_small_exhaustive():
    for n, m in ((2, 2), (3, 3)):
        for N in range(n * m + 1):
            rep = verify_agreement(n, m, N)
            assert rep.ok, rep.witness


def test_corollary_small_exhaustive():
    for N in range(7):
        rep = verify_corollary(2, 3, N)
        assert rep.ok, rep.witness


# ---------------------------------------------------------------------------
# outer actions through the block's duality pair

def first_outer_mismatch(max_cells):
    """First (matrix, side, word) on which outer_on_rows/cols disagree with
    the generic outer action on the row (column) word, or raise; None when
    they agree everywhere."""
    sides = ((outer_on_rows, row_structure, matrix_from_row_word, 0),
             (outer_on_cols, col_structure, matrix_from_col_word, 1))
    for n, m in all_small_dims(max_cells):
        for N in range(n * m + 1):
            for M in bit_matrices(n, m, N):
                for act, structure, back, axis in sides:
                    k = (n, m)[axis]
                    for p in range(1, k):
                        for q in range(p + 1, k + 1):
                            w = word(k, (p, q))
                            expect = back(outer_act(w, *structure(M))[1])
                            try:
                                got = act(M, w)
                            except ValueError:
                                got = None
                            if got != expect:
                                return M, act.__name__, str(w)
    return None


def test_local_outer_route_matches_block_transport():
    cases = 0
    sides = ((outer_on_rows, skewhowe._outer_rows,
              skewhowe._row_xi_by_transport, 0),
             (outer_on_cols, skewhowe._outer_cols,
              skewhowe._col_xi_by_transport, 1))
    for n, m in all_small_dims(8):
        for N in range(n * m + 1):
            for M in bit_matrices(n, m, N):
                for act, splice, transport, axis in sides:
                    k = (n, m)[axis]
                    for p in range(1, k):
                        for q in range(p + 1, k + 1):
                            w = word(k, (p, q))
                            cases += 1
                            assert act(M, w) == splice(M, w, transport), (M, p, q)
    assert cases == 26648


def test_cold_outer_actions_walk_no_component(monkeypatch):
    # the full generator on a 6 x 6 block: transport would walk a component
    # of thousands of matrices; the duality route walks none
    rng = random.Random(6)
    ones = set(rng.sample(range(36), 18))
    M = tuple(tuple(int(6 * r + c in ones) for c in range(6)) for r in range(6))
    models = []

    def fresh(cls):
        def factory(n, m):
            models.append(cls(n, m))
            return models[-1]
        return factory

    monkeypatch.setattr(skewhowe, "matrix_row_crystal",
                        fresh(matrices.MatrixRowCrystal))
    monkeypatch.setattr(skewhowe, "matrix_col_crystal",
                        fresh(matrices.MatrixColCrystal))
    full = word(6, (1, 6))
    rows, cols = outer_on_rows(M, full), outer_on_cols(M, full)
    assert {type(x) for x in models} == {matrices.MatrixRowCrystal,
                                         matrices.MatrixColCrystal}
    for model in models:
        assert model._xi_cache == {} and model._component_cache == {}
        assert model._edges == {}
    assert outer_on_rows(rows, full) == M and outer_on_cols(cols, full) == M
    monkeypatch.undo()
    for p, q in ((1, 2), (2, 4), (5, 6)):
        w = word(6, (p, q))
        assert outer_on_rows(M, w) == skewhowe._outer_rows(
            M, w, skewhowe._row_xi_by_transport)
        assert outer_on_cols(M, w) == skewhowe._outer_cols(
            M, w, skewhowe._col_xi_by_transport)


def test_verifiers_keep_block_transport(monkeypatch):
    # with the local block involution replaced by the identity, the sweeps
    # still pass because they transport, and only a comparison of the
    # public outer actions with an independent route notices
    assert first_outer_mismatch(6) is None
    monkeypatch.setattr(skewhowe, "_row_xi_by_duality", lambda B: B)
    monkeypatch.setattr(skewhowe, "_col_xi_by_duality", lambda B: B)
    for N in range(10):
        assert verify_agreement(3, 3, N).ok
    for N in range(7):
        assert verify_corollary(2, 3, N).ok
    assert first_outer_mismatch(6) is not None


def _splice_without_half_turn(M, w, block_xi):
    for g in w.generators:
        M = M[:g.p - 1] + block_xi(M[g.p - 1:g.q]) + M[g.q:]
    return M


@pytest.mark.parametrize("name, fault", [
    ("evacuate", lambda rows, r: evacuate(rows, r - 1)),
    ("_outer_rows", _splice_without_half_turn),
], ids=["evacuation-one-short", "block-not-half-turned"])
def test_outer_route_catches_seeded_faults(monkeypatch, name, fault):
    monkeypatch.setattr(skewhowe, name, fault)
    assert first_outer_mismatch(6) is not None


def test_budget_guard_on_verifiers():
    with pytest.raises(ValueError):
        verify_agreement(4, 4, 8, budget=10)
