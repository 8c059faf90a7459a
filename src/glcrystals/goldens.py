"""The paper's worked examples: frozen data and one table of golden facts.

A fact is (failure message, zero-argument predicate).  `verify goldens` and
the acceptance tests c01-c04 run the rows of `GOLDENS`.  The predicates
read the library names of this module at call time, so a fault patched
here shows.
"""

from functools import partial

from .base import transpose
from .cactus import inner_act, word
from .core import Report, schuetzenberger
from .gt import bk_move, bk_q, gt_pattern, gt_to_tableau, tableau_to_gt
from .matrices import Ce, bit_matrix, fundamental_crystal
from .skewhowe import (cf_max, duality_inv, duality_iso, inner_on_cols,
                       inner_on_rows, outer_on_cols, outer_on_rows, phi_map,
                       re_max)
from .tableaux import apply_e, ssyt, tableau_crystal

# rank-4 pattern and its tableau; q_2 = t_1 t_2 t_1, and t_1 fixes it
PATTERN_A = gt_pattern([(5, 3, 3, 1), (4, 3, 1), (4, 2), (3,)])
TABLEAU_A = ssyt([(1, 1, 1, 2, 4), (2, 2, 3), (3, 4, 4), (4,)], 4)
PATTERN_A_T2 = gt_pattern([(5, 3, 3, 1), (4, 3, 1), (3, 2), (3,)])
PATTERN_A_Q2 = gt_pattern([(5, 3, 3, 1), (4, 3, 1), (3, 2), (2,)])
TABLEAU_A_S12 = ssyt([(1, 1, 2, 3, 4), (2, 2, 3), (3, 4, 4), (4,)], 4)
S13_RANK4 = word(4, (1, 3))  # s[1,3] of gl_4
# its rank-3 restriction and the partial involution of that
TABLEAU_A_LE3 = ssyt([(1, 1, 1, 2), (2, 2, 3), (3,)], 3)
TABLEAU_A_LE3_XI = ssyt([(1, 1, 2, 3), (2, 2, 3), (3,)], 3)

# the 3 x 5 duality example, its raising square at node 2 and its s[1,2]
MATRIX_A = bit_matrix([(1, 1, 1, 0, 0), (0, 0, 1, 1, 0), (1, 1, 1, 0, 1)])
MATRIX_A_P = bit_matrix([(1, 1, 1, 0, 0), (1, 0, 0, 1, 0), (1, 1, 1, 0, 1)])
MATRIX_A_Q = bit_matrix([(0, 0, 1, 0, 0), (1, 1, 1, 0, 0), (1, 1, 1, 1, 1)])
TABLEAU_P = ssyt([(1, 1, 1, 2, 3), (2, 3, 3), (3,)], 3)
TABLEAU_Q = ssyt([(1, 1, 3), (2, 2), (3, 3), (4,), (5,)], 5)
LAMBDA_A = (5, 3, 1)
MATRIX_A_P_CE2 = bit_matrix([(1, 1, 1, 0, 0), (1, 1, 0, 1, 0), (1, 0, 1, 0, 1)])
TABLEAU_P_CE2 = ssyt([(1, 1, 1, 2, 3), (2, 2, 3), (3,)], 3)
MATRIX_A_S12 = bit_matrix([(1, 0, 1, 0, 0), (0, 1, 1, 1, 0), (1, 1, 1, 0, 1)])
S12_RANK3 = word(3, (1, 2))
S12_RANK5 = word(5, (1, 2))
S45_RANK5 = word(5, (4, 5))

FACTS = {
    "gt-bijection": (
        ("pattern does not map to the recorded tableau",
         lambda: gt_to_tableau(PATTERN_A) == TABLEAU_A),
        ("tableau does not map back to the pattern",
         lambda: tableau_to_gt(TABLEAU_A, 4) == PATTERN_A)),
    "gt-q2-chain": (
        ("first toggle should fix the pattern",
         lambda: bk_move(PATTERN_A, 1) == PATTERN_A),
        ("second toggle wrong",
         lambda: bk_move(PATTERN_A, 2) == PATTERN_A_T2),
        ("third toggle wrong",
         lambda: bk_move(PATTERN_A_T2, 1) == PATTERN_A_Q2),
        ("composite q_2 disagrees with the chain",
         lambda: bk_q(PATTERN_A, 2) == PATTERN_A_Q2)),
    "gt-inner-match": (
        ("inner generator on the tableau is wrong",
         lambda: inner_act(S13_RANK4, tableau_crystal(4), TABLEAU_A)
         == TABLEAU_A_S12),
        ("q_2 on the pattern does not match the inner action",
         lambda: gt_to_tableau(bk_q(PATTERN_A, 2))
         == inner_act(S13_RANK4, tableau_crystal(4), TABLEAU_A)),
        ("partial involution on the rank-3 restriction is wrong",
         lambda: schuetzenberger(tableau_crystal(3), TABLEAU_A_LE3, (1, 2))
         == TABLEAU_A_LE3_XI)),
    "skew-howe-pair": (
        ("raising to the R-highest matrix is wrong",
         lambda: re_max(MATRIX_A) == MATRIX_A_P),
        ("lowering to the C-lowest matrix is wrong",
         lambda: cf_max(MATRIX_A) == MATRIX_A_Q),
        ("first tableau is wrong",
         lambda: duality_iso(MATRIX_A).t_p == TABLEAU_P),
        ("second tableau is wrong",
         lambda: duality_iso(MATRIX_A).t_q == TABLEAU_Q),
        ("shapes are wrong",
         lambda: duality_iso(MATRIX_A).lam == LAMBDA_A
         == transpose((3, 2, 2, 1, 1))),
        ("inverse does not return the matrix",
         lambda: duality_inv(duality_iso(MATRIX_A)) == MATRIX_A)),
    "morphism-square": (
        ("raising the matrix is wrong",
         lambda: Ce(MATRIX_A_P, 2) == MATRIX_A_P_CE2),
        ("raising the tableau is wrong",
         lambda: apply_e(TABLEAU_P, 2) == TABLEAU_P_CE2),
        ("tableau of the matrix is wrong",
         lambda: phi_map(MATRIX_A_P) == TABLEAU_P),
        ("square does not commute",
         lambda: Ce(MATRIX_A_P, 2) is not None
         and phi_map(Ce(MATRIX_A_P, 2)) == TABLEAU_P_CE2)),
    "cactus-agreement": (
        ("outer action on rows is wrong",
         lambda: outer_on_rows(MATRIX_A, S12_RANK3) == MATRIX_A_S12),
        ("inner action through the column structure is wrong",
         lambda: inner_on_cols(MATRIX_A, S12_RANK3) == MATRIX_A_S12),
        ("outer action on columns should fix the matrix",
         lambda: outer_on_cols(MATRIX_A, S12_RANK5) == MATRIX_A),
        ("inner action through the row structure should fix the matrix",
         lambda: inner_on_rows(MATRIX_A, S45_RANK5) == MATRIX_A)),
    "fundamental-reversal": (
        ("full involution is not reversal",
         lambda: schuetzenberger(fundamental_crystal(5), (1, 1, 0, 0, 0),
                                 (1, 2, 3, 4)) == (0, 0, 0, 1, 1)),),
}


def run_golden(name: str, facts) -> Report:
    """Check `facts` in order: `checked` is their number, and the messages
    of the ones that do not hold, joined by "; ", are the witness."""
    bad = [message for message, holds in facts if not holds()]
    return Report(name, {}, len(facts), "fail" if bad else "pass",
                  "; ".join(bad) if bad else None)


GOLDENS = [(name, partial(run_golden, name, facts))
           for name, facts in FACTS.items()]
