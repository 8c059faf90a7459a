import random
import sys
from bisect import bisect_right
from collections import Counter
from dataclasses import replace

import pytest

from glcrystals import core, matrices, skewhowe
from glcrystals.base import transpose
from glcrystals.cactus import outer_act, word
from glcrystals.core import is_morphism, schuetzenberger
from glcrystals.goldens import (LAMBDA_A, MATRIX_A, MATRIX_A_P, MATRIX_A_Q,
                                TABLEAU_P, TABLEAU_Q)
from glcrystals.matrices import (Cphi, Reps, bit_matrices, bit_matrix,
                                 col_word, dims, matrix_col_crystal,
                                 matrix_from_col_word, matrix_row_crystal,
                                 col_structure, row_structure)
from glcrystals.skewhowe import (DualityPair, cf_max, doubly_extreme_shape,
                                 duality_inv, duality_iso, inner_on_cols,
                                 outer_on_cols, outer_on_rows, phi_inv,
                                 phi_map, psi_inv, psi_map, re_max,
                                 verify_agreement, verify_corollary,
                                 verify_counting)
from glcrystals.tableaux import evacuate, shape_of, ssyt
from test_matrices import all_small_dims, moved


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


def test_readings_inverse_reject_entries_outside_the_rank():
    # an entry 0 must not wrap to the last row or column, and an entry
    # above the rank must not surface as an IndexError
    for inverse in (phi_inv, psi_inv):
        for v in (0, 4):
            with pytest.raises(ValueError, match=f"entry {v} out of range"):
                inverse(((v,),), 3, 2)


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


def _bump(rows, r, c, delta):
    """rows with the entry at (r, c), 0-based, moved by delta."""
    row = list(rows[r])
    row[c] += delta
    return rows[:r] + (tuple(row),) + rows[r + 1:]


def test_duality_inverse_refuses_every_altered_field():
    pair = duality_iso(MATRIX_A)
    altered = [  # P and Q each with their (1,1) entry flipped
        replace(pair, p_matrix=moved(pair.p_matrix, [(0, 0, 0)])),
        replace(pair, q_matrix=moved(pair.q_matrix, [(0, 0, 1)])),
        # the last row (3,) of T_P becomes (2,): not semistandard
        replace(pair, t_p=_bump(pair.t_p, 2, 0, -1)),
        # the (1,3) entry 3 of T_Q becomes 4: still semistandard
        replace(pair, t_q=ssyt(_bump(pair.t_q, 0, 2, 1), 5)),
        replace(pair, lam=(9,)),
        replace(pair, t_p=_bump(pair.t_p, 0, 0, -1)),  # entry 0
        replace(pair, t_p=_bump(pair.t_p, 2, 0, 1)),   # entry n + 1
        replace(pair, t_q=_bump(pair.t_q, 0, 0, -1)),  # entry 0
        replace(pair, t_q=_bump(pair.t_q, 4, 0, 1)),   # entry m + 1
    ]
    for bad in altered:
        with pytest.raises(ValueError):
            duality_inv(bad)


def test_transpose_shape_relation():
    for n, m in all_small_dims(12):
        for N in range(n * m + 1):
            for M in bit_matrices(n, m, N):
                pair = duality_iso(M)
                assert shape_of(pair.t_q) == transpose(shape_of(pair.t_p))


# ---------------------------------------------------------------------------
# dual RSK insertion against the crystal route

def kernel_cases():
    """Every matrix with nm <= 10, then 500 seeded random ones up to 8 x 8."""
    for n, m in all_small_dims(10):
        for N in range(n * m + 1):
            yield from bit_matrices(n, m, N)
    rng = random.Random(10)
    for _ in range(500):
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        yield tuple(tuple(rng.randint(0, 1) for _ in range(m))
                    for _ in range(n))


def first_kernel_mismatch():
    """First matrix on which duality_iso differs from the crystal route
    (raise with R, lower with C, read with phi and psi), its T_Q is not of
    the transpose shape of lambda, the insertion or the packaged map does
    not invert, or raises; None when every case agrees."""
    for M in kernel_cases():
        n, m = dims(M)
        P, Q = re_max(M), cf_max(M)
        t_p = phi_map(P)
        expect = DualityPair(P, Q, t_p, psi_map(Q), shape_of(t_p))
        try:
            pair = duality_iso(M)
            if pair != expect or shape_of(pair.t_q) != transpose(pair.lam) or \
                    skewhowe._uninsert(*skewhowe._insert(M), n, m) != M or \
                    duality_inv(pair) != M:
                return M
        except ValueError:
            return M
    return None


def test_insertion_matches_the_crystal_route():
    assert sum(1 for _ in kernel_cases()) == 7306 + 500
    assert first_kernel_mismatch() is None


def _remove_leftmost_first(boxes, reverse):
    return sorted(boxes, key=lambda box: (-box[0], box[1]))


@pytest.mark.parametrize("name, fault", [
    ("bisect_left", bisect_right),
    ("sorted", _remove_leftmost_first),
], ids=["bump-leftmost-greater", "remove-leftmost-first"])
def test_insertion_check_catches_seeded_faults(monkeypatch, name, fault):
    # `sorted` is a builtin, so the fault shadows it in the module namespace
    monkeypatch.setattr(skewhowe, name, fault, raising=False)
    assert first_kernel_mismatch() is not None


def test_uninsert_rejects_what_insertion_cannot_give():
    with pytest.raises(ValueError, match="not a corner"):
        skewhowe._uninsert([[1], [2]], [[2], [1]], 2, 2)
    with pytest.raises(ValueError, match="reverse-bump"):
        skewhowe._uninsert([[2], [1]], [[1], [2]], 2, 2)


def test_counting_identity_small():
    for n in (2, 3, 4):
        for m in (2, 3, 4):
            for N in range(n * m + 1):
                assert verify_counting(n, m, N).ok


# ---------------------------------------------------------------------------
# rotation

def test_rotate90_single_one():
    assert col_word(bit_matrix([[1, 0], [0, 0]])) == ((0, 0), (1, 0))
    assert col_word(bit_matrix([[1, 1, 0], [0, 0, 1]])) == (
        (0, 1), (1, 0), (1, 0))


def test_rotate90_index_identity():
    M = MATRIX_A  # 3 x 5
    R = col_word(M)
    rows, cols = 3, 5
    for k in range(1, cols + 1):
        for j in range(1, rows + 1):
            assert R[k - 1][j - 1] == M[j - 1][cols - k]


def test_rotate90_is_the_column_word_and_matches_the_index_oracle():
    # the counterclockwise quarter turn as an index comprehension, checked
    # on every matrix with nm <= 10
    def rotate90_oracle(M):
        rows, cols = dims(M)
        return tuple(tuple(M[j][cols - 1 - r] for j in range(rows))
                     for r in range(cols))

    cases = 0
    for n, m in all_small_dims(10):
        for N in range(n * m + 1):
            for M in bit_matrices(n, m, N):
                cases += 1
                assert col_word(M) == rotate90_oracle(M)
    assert cases == 7306


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
    sides = ((outer_on_rows, row_structure, tuple, 0),
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


def row_turn(M, p, q, block_xi):
    """Generator s[p,q] of the row word as one block step."""
    return skewhowe._turn_rows(M, p - 1, q, block_xi)


def col_turn(M, p, q, block_xi):
    """Generator s[p,q] of the reversed column word as one block step in
    column coordinates: turn columns m-q..m-p (0-based) by half a turn and
    apply `block_xi`, the full involution of that block's column
    structure."""
    m = len(M[0])
    lo, hi = m - q, m - p + 1
    block = block_xi(tuple([row[lo:hi][::-1] for row in reversed(M)]))
    return tuple([row[:lo] + new + row[hi:] for row, new in zip(M, block)])


def col_transport(B):
    """Full involution of the column structure of B, by transport."""
    col = matrix_col_crystal(*dims(B))
    return schuetzenberger(col, B, col.nodes())


def test_outer_actions_reject_a_word_of_the_wrong_rank():
    # MATRIX_A is 3 x 5: the row word has 3 factors, the column word 5
    with pytest.raises(ValueError, match=r"^word rank 5 != number of "
                                         r"tensor factors 3$"):
        outer_on_rows(MATRIX_A, word(5, (1, 2)))
    with pytest.raises(ValueError, match=r"^word rank 3 != number of "
                                         r"tensor factors 5$"):
        outer_on_cols(MATRIX_A, word(3, (1, 2)))


def test_local_outer_route_matches_block_transport():
    cases = 0
    sides = ((outer_on_rows, row_turn, skewhowe._row_xi_by_transport, 0),
             (outer_on_cols, col_turn, col_transport, 1))
    for n, m in all_small_dims(8):
        for N in range(n * m + 1):
            for M in bit_matrices(n, m, N):
                for act, splice, transport, axis in sides:
                    k = (n, m)[axis]
                    for p in range(1, k):
                        for q in range(p + 1, k + 1):
                            cases += 1
                            assert act(M, word(k, (p, q))) == \
                                splice(M, p, q, transport), (M, p, q)
    assert cases == 26648


def count_calls(monkeypatch, names):
    """Wrap each (module, name) wherever a glcrystals module binds it;
    returns the call counter."""
    calls = Counter()
    for module, name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("glcrystals") and \
                    vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_cold_outer_actions_walk_no_component(monkeypatch):
    # the full generator on a 6 x 6 block: transport would walk a component
    # of thousands of matrices; dual RSK builds no model and applies no
    # operator, and neither does the duality map nor its inverse
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
    calls = count_calls(monkeypatch, [
        (matrices, "Re"), (matrices, "Rf"), (matrices, "Ce"),
        (matrices, "Cf"), (core, "to_highest_path"),
        (core, "to_lowest_path"), (core, "schuetzenberger")])
    full = word(6, (1, 6))
    rows, cols = outer_on_rows(M, full), outer_on_cols(M, full)
    for B in (M, rows, cols):
        assert duality_inv(duality_iso(B)) == B
    assert models == [] and calls == Counter()
    assert outer_on_rows(rows, full) == M and outer_on_cols(cols, full) == M
    # the inner action still transports, so the counters see it
    inner_on_cols(M, word(6, (1, 2)))
    assert calls["schuetzenberger"] == 1 and calls["Ce"] > 0
    monkeypatch.undo()
    for p, q in ((1, 2), (2, 4), (5, 6)):
        w = word(6, (p, q))
        assert outer_on_rows(M, w) == row_turn(
            M, p, q, skewhowe._row_xi_by_transport)
        assert outer_on_cols(M, w) == col_turn(M, p, q, col_transport)


def test_verifiers_keep_block_transport(monkeypatch):
    # with the local block involution replaced by the identity, the sweeps
    # still pass because they transport, and only a comparison of the
    # public outer actions with an independent route notices
    assert first_outer_mismatch(6) is None
    monkeypatch.setattr(skewhowe, "_row_xi_by_duality", lambda B: B)
    for N in range(10):
        assert verify_agreement(3, 3, N).ok
    for N in range(7):
        assert verify_corollary(2, 3, N).ok
    assert first_outer_mismatch(6) is not None


def _splice_without_half_turn(M, lo, hi, block_xi):
    return M[:lo] + block_xi(M[lo:hi]) + M[hi:]


@pytest.mark.parametrize("name, fault", [
    ("evacuate", lambda rows, r: evacuate(rows, r - 1)),
    ("_turn_rows", _splice_without_half_turn),
    ("col_word", lambda M: tuple(zip(*M))),
], ids=["evacuation-one-short", "block-not-half-turned",
        "columns-not-reversed"])
def test_outer_route_catches_seeded_faults(monkeypatch, name, fault):
    monkeypatch.setattr(skewhowe, name, fault)
    assert first_outer_mismatch(6) is not None
