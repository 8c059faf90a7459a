"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The checked totals are pinned, so a sweep that drops or
double-counts a check fails.
"""

import time

from glcrystals.cactus import verify_cactus_relations, verify_reduced_braid
from glcrystals.core import kashiwara_reflection, verify_involution_properties
from glcrystals.goldens import GOLDENS, MATRIX_A_Q, TABLEAU_Q
from glcrystals.gt import beta, bk_move, patterns_with_top
from glcrystals.matrices import (bit_matrices, fundamental_crystal,
                                 matrix_col_crystal, matrix_row_crystal)
from glcrystals.skewhowe import psi_map
from glcrystals.suites import SUITES, tableau_shapes
from glcrystals.tableaux import enumerate_b_lambda, tableau_crystal
from glcrystals.tensor import tensor_crystal
from test_matrices import all_small_dims, subsets


def _timed(fn, repeats=5):
    fn()  # warm caches; the bound is on the steady-state operation
    best = min(_elapsed(fn) for _ in range(repeats))
    return best


def _elapsed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _run_goldens(*names):
    """Run the named rows of the golden table; each must pass."""
    rows = dict(GOLDENS)
    for name in names:
        rep = rows[name]()
        assert rep.ok, (name, rep.witness)


def _run_suites(*names):
    """Run every row of the named registry suites; the summed checks.  No
    row may pass vacuously."""
    checked = 0
    for name in names:
        for label, _, thunk in SUITES[name]():
            rep = thunk()
            assert rep.ok, (label, rep.witness)
            assert rep.checked > 0, label
            checked += rep.checked
    return checked


def test_c01_gt_golden():
    def golden():
        _run_goldens("gt-bijection", "gt-q2-chain", "gt-inner-match")

    best = _timed(golden)
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    print(f"ACCEPTANCE 01 gt golden: PASS ({best * 1e6:.0f} us)")


def test_c02_skew_howe_golden():
    def golden():
        # phi_map(P) == T_P is a fact of morphism-square (c03); no golden
        # holds psi_map(Q) == T_Q
        _run_goldens("skew-howe-pair")
        assert psi_map(MATRIX_A_Q) == TABLEAU_Q

    best = _timed(golden)
    assert best < 1e-3, f"took {best * 1e3:.3f} ms"
    print(f"ACCEPTANCE 02 skew-howe golden: PASS ({best * 1e6:.0f} us)")


def test_c03_morphism_golden():
    _run_goldens("morphism-square")
    print("ACCEPTANCE 03 morphism golden: PASS")


def test_c04_theorem_goldens():
    _run_goldens("cactus-agreement")
    print("ACCEPTANCE 04 theorem goldens: PASS")


def test_c05_agreement_exhaustive():
    start = time.perf_counter()
    checked = _run_suites("agree")
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"sweep took {elapsed:.1f} s"
    assert checked == 576012
    print(f"ACCEPTANCE 05 agreement exhaustive: PASS "
          f"({checked} checks, {elapsed:.1f} s)")


def test_c06_corollary_exhaustive():
    checked = _run_suites("corollary")
    assert checked == 1420736
    print(f"ACCEPTANCE 06 corollary exhaustive: PASS ({checked} checks)")


def test_c07_commuting_structures():
    checked = _run_suites("commute", "dual")
    assert checked == 798424
    print(f"ACCEPTANCE 07 commuting structures: PASS ({checked} checks)")


def test_c08_cactus_relations():
    checked = 0
    for rank, shape in tableau_shapes():
        rep = verify_cactus_relations(tableau_crystal(rank),
                                      enumerate_b_lambda(shape, rank))
        assert rep.ok, (rank, shape, rep.witness)
        checked += rep.checked
    for n, m in all_small_dims(9):
        elements = [M for N in range(n * m + 1)
                    for M in bit_matrices(n, m, N)]
        for crystal in (matrix_col_crystal(n, m), matrix_row_crystal(n, m)):
            rep = verify_cactus_relations(crystal, elements)
            assert rep.ok, (n, m, rep.witness)
            checked += rep.checked
    assert checked == 875154
    print(f"ACCEPTANCE 08 cactus relations: PASS ({checked} checks)")


def test_c09_braid_and_weight_reflections():
    checked = 0
    instances = [(tableau_crystal(rank), enumerate_b_lambda(shape, rank))
                 for rank, shape in tableau_shapes()]
    for n, m in all_small_dims(9):
        elements = [M for N in range(n * m + 1)
                    for M in bit_matrices(n, m, N)]
        instances.append((matrix_col_crystal(n, m), elements))
        instances.append((matrix_row_crystal(n, m), elements))
    for crystal, elements in instances:
        rep = verify_reduced_braid(crystal, elements)
        assert rep.ok, rep.witness
        checked += rep.checked
        for b in elements:
            wt = crystal.weight(b)
            for i in range(1, crystal.rank):
                flipped = crystal.weight(kashiwara_reflection(crystal, b, i))
                expect = list(wt)
                expect[i - 1], expect[i] = expect[i], expect[i - 1]
                assert flipped == tuple(expect)
                checked += 1
    assert checked == 95844
    print(f"ACCEPTANCE 09 braid and reflections: PASS ({checked} checks)")


def test_c10_pattern_toggles():
    checked = 0
    for rank, shape in tableau_shapes():
        for x in patterns_with_top(shape, rank):
            for j in range(1, rank):
                moved = bk_move(x, j)
                assert bk_move(moved, j) == x
                expect = list(beta(x))
                expect[j - 1], expect[j] = expect[j], expect[j - 1]
                assert beta(moved) == tuple(expect)
                checked += 2
    checked += _run_suites("bk")
    assert checked == 13975
    print(f"ACCEPTANCE 10 pattern toggles: PASS ({checked} checks)")


def test_c11_oracle_equivalence():
    checked = _run_suites("oracle", "counting")
    assert checked == 1400
    print(f"ACCEPTANCE 11 oracle equivalence: PASS ({checked} checks)")


def _shipped_instances():
    yield "tableau r2 (3,1)", tableau_crystal(2), enumerate_b_lambda((3, 1), 2)
    yield "tableau r3 (2,1)", tableau_crystal(3), enumerate_b_lambda((2, 1), 3)
    yield "tableau r3 (3,2,1)", tableau_crystal(3), enumerate_b_lambda((3, 2, 1), 3)
    yield "tableau r4 (2,1,1)", tableau_crystal(4), enumerate_b_lambda((2, 1, 1), 4)
    yield ("fundamental r5", fundamental_crystal(5),
           [v for k in range(6) for v in subsets(5, k)])
    pair = tensor_crystal(fundamental_crystal(3), fundamental_crystal(3))
    from itertools import product
    vectors3 = [v for k in range(4) for v in subsets(3, k)]
    yield "tensor 3x3", pair, [tuple(t) for t in product(vectors3, repeat=2)]
    for n, m in all_small_dims(8):
        elements = [M for N in range(n * m + 1)
                    for M in bit_matrices(n, m, N)]
        yield f"matrix cols {n}x{m}", matrix_col_crystal(n, m), elements
        yield f"matrix rows {n}x{m}", matrix_row_crystal(n, m), elements


def test_c12_involution_properties():
    checked = 0
    for name, crystal, elements in _shipped_instances():
        assert len(elements) <= 500, name
        rep = verify_involution_properties(crystal, elements)
        assert rep.ok, (name, rep.witness)
        checked += rep.checked
    assert checked == 27301
    print(f"ACCEPTANCE 12 involution properties: PASS ({checked} checks)")
