"""Frozen worked-example data and the named golden checks built from it.

Each golden is a zero-argument callable returning a Report; the CLI exposes
them under `verify goldens` and the test suite runs them directly.
"""

from .base import DynkinInterval, transpose
from .cactus import CactusWord, inner_act
from .core import Report, schuetzenberger
from .gt import bk_move, bk_q, gt_pattern, gt_to_tableau, tableau_to_gt
from .matrices import Ce, bit_matrix, fundamental_crystal
from .skewhowe import (cf_max, duality_inv, duality_iso, inner_on_cols,
                       inner_on_rows, outer_on_cols, outer_on_rows, phi_map,
                       re_max)
from .tableaux import apply_e, ssyt, tableau_crystal

# rank-4 pattern and its tableau
PATTERN_A = gt_pattern([(5, 3, 3, 1), (4, 3, 1), (4, 2), (3,)])
TABLEAU_A = ssyt([(1, 1, 1, 2, 4), (2, 2, 3), (3, 4, 4), (4,)], 4)
PATTERN_A_Q2 = gt_pattern([(5, 3, 3, 1), (4, 3, 1), (3, 2), (2,)])
TABLEAU_A_S12 = ssyt([(1, 1, 2, 3, 4), (2, 2, 3), (3, 4, 4), (4,)], 4)

# rank-3 restriction of the tableau above and its partial involution
TABLEAU_A_LE3 = ssyt([(1, 1, 1, 2), (2, 2, 3), (3,)], 3)
TABLEAU_A_LE3_XI = ssyt([(1, 1, 2, 3), (2, 2, 3), (3,)], 3)

# the 3 x 5 duality example
MATRIX_A = bit_matrix([(1, 1, 1, 0, 0), (0, 0, 1, 1, 0), (1, 1, 1, 0, 1)])
MATRIX_A_P = bit_matrix([(1, 1, 1, 0, 0), (1, 0, 0, 1, 0), (1, 1, 1, 0, 1)])
MATRIX_A_Q = bit_matrix([(0, 0, 1, 0, 0), (1, 1, 1, 0, 0), (1, 1, 1, 1, 1)])
TABLEAU_P = ssyt([(1, 1, 1, 2, 3), (2, 3, 3), (3,)], 3)
TABLEAU_Q = ssyt([(1, 1, 3), (2, 2), (3, 3), (4,), (5,)], 5)
LAMBDA_A = (5, 3, 1)

# the raising square on the duality example
MATRIX_A_P_CE2 = bit_matrix([(1, 1, 1, 0, 0), (1, 1, 0, 1, 0), (1, 0, 1, 0, 1)])
TABLEAU_P_CE2 = ssyt([(1, 1, 1, 2, 3), (2, 2, 3), (3,)], 3)

# inner = outer on the duality example
MATRIX_A_S12 = bit_matrix([(1, 0, 1, 0, 0), (0, 1, 1, 1, 0), (1, 1, 1, 0, 1)])


def _report(name: str, failures: list[str], checked: int) -> Report:
    if failures:
        return Report(name, {}, checked, "fail", "; ".join(failures))
    return Report(name, {}, checked, "pass")


def golden_gt_bijection() -> Report:
    bad = []
    if gt_to_tableau(PATTERN_A) != TABLEAU_A:
        bad.append("pattern does not map to the recorded tableau")
    if tableau_to_gt(TABLEAU_A, 4) != PATTERN_A:
        bad.append("tableau does not map back to the pattern")
    return _report("gt-bijection", bad, 2)


def golden_gt_q2_chain() -> Report:
    bad = []
    step1 = bk_move(PATTERN_A, 1)
    if step1 != PATTERN_A:
        bad.append("first toggle should fix the pattern")
    step2 = bk_move(step1, 2)
    if step2 != gt_pattern([(5, 3, 3, 1), (4, 3, 1), (3, 2), (3,)]):
        bad.append("second toggle wrong")
    step3 = bk_move(step2, 1)
    if step3 != PATTERN_A_Q2:
        bad.append("third toggle wrong")
    if bk_q(PATTERN_A, 2) != PATTERN_A_Q2:
        bad.append("composite q_2 disagrees with the chain")
    return _report("gt-q2-chain", bad, 4)


def golden_gt_inner_match() -> Report:
    bad = []
    model = tableau_crystal(4)
    word = CactusWord(4, (DynkinInterval(1, 3, 4),))
    acted = inner_act(word, model, TABLEAU_A)
    if acted != TABLEAU_A_S12:
        bad.append("inner generator on the tableau is wrong")
    if gt_to_tableau(bk_q(PATTERN_A, 2)) != acted:
        bad.append("q_2 on the pattern does not match the inner action")
    sub = schuetzenberger(tableau_crystal(3), TABLEAU_A_LE3, (1, 2))
    if sub != TABLEAU_A_LE3_XI:
        bad.append("partial involution on the rank-3 restriction is wrong")
    return _report("gt-inner-match", bad, 3)


def golden_skew_howe_pair() -> Report:
    bad = []
    if re_max(MATRIX_A) != MATRIX_A_P:
        bad.append("raising to the R-highest matrix is wrong")
    if cf_max(MATRIX_A) != MATRIX_A_Q:
        bad.append("lowering to the C-lowest matrix is wrong")
    pair = duality_iso(MATRIX_A)
    if pair.t_p != TABLEAU_P:
        bad.append("first tableau is wrong")
    if pair.t_q != TABLEAU_Q:
        bad.append("second tableau is wrong")
    if pair.lam != LAMBDA_A or transpose(pair.lam) != (3, 2, 2, 1, 1):
        bad.append("shapes are wrong")
    if duality_inv(pair) != MATRIX_A:
        bad.append("inverse does not return the matrix")
    return _report("skew-howe-pair", bad, 6)


def golden_morphism_square() -> Report:
    bad = []
    stepped = Ce(MATRIX_A_P, 2)
    if stepped != MATRIX_A_P_CE2:
        bad.append("raising the matrix is wrong")
    if apply_e(TABLEAU_P, 2) != TABLEAU_P_CE2:
        bad.append("raising the tableau is wrong")
    if phi_map(MATRIX_A_P) != TABLEAU_P:
        bad.append("tableau of the matrix is wrong")
    if stepped is None or phi_map(stepped) != TABLEAU_P_CE2:
        bad.append("square does not commute")
    return _report("morphism-square", bad, 4)


def golden_agreement() -> Report:
    bad = []
    w = CactusWord(3, (DynkinInterval(1, 2, 3),))
    if outer_on_rows(MATRIX_A, w) != MATRIX_A_S12:
        bad.append("outer action on rows is wrong")
    if inner_on_cols(MATRIX_A, w) != MATRIX_A_S12:
        bad.append("inner action through the column structure is wrong")
    w_cols = CactusWord(5, (DynkinInterval(1, 2, 5),))
    w_rows = CactusWord(5, (DynkinInterval(4, 5, 5),))
    if outer_on_cols(MATRIX_A, w_cols) != MATRIX_A:
        bad.append("outer action on columns should fix the matrix")
    if inner_on_rows(MATRIX_A, w_rows) != MATRIX_A:
        bad.append("inner action through the row structure should fix the matrix")
    return _report("cactus-agreement", bad, 4)


def golden_fundamental_reversal() -> Report:
    model = fundamental_crystal(5)
    v = (1, 1, 0, 0, 0)
    out = schuetzenberger(model, v, (1, 2, 3, 4))
    bad = [] if out == (0, 0, 0, 1, 1) else ["full involution is not reversal"]
    return _report("fundamental-reversal", bad, 1)


GOLDENS = [
    ("gt-bijection", golden_gt_bijection),
    ("gt-q2-chain", golden_gt_q2_chain),
    ("gt-inner-match", golden_gt_inner_match),
    ("skew-howe-pair", golden_skew_howe_pair),
    ("morphism-square", golden_morphism_square),
    ("cactus-agreement", golden_agreement),
    ("fundamental-reversal", golden_fundamental_reversal),
]

