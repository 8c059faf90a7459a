"""The duality isomorphism between the matrix crystal and pairs of tableaux
of transpose shapes, and the verifiers for the agreement of the outer and
inner cactus actions.

The forward map is Knuth's dual RSK correspondence: inserting the columns
of the ones row by row gives the rank-n tableau T_P (the recording rows)
and the rank-m tableau T_Q (the transpose of the insertion rows).  T_P is
the reading of the matrix's rank-m highest weight form P column by column
(the rows holding a one in each column of P), and T_Q the reading of its
rank-n lowest weight form Q row by row, bottom-up (the columns holding a
one in each row of Q); `re_max`/`cf_max` with `phi_map`/`psi_map` compute
the same pair along crystal paths and stay as its oracle.  The inverse map
is reverse insertion.  The outer action on the row word loops over the
generators of a word, and each generator half-turns a block of rows and
applies the block's full involution: evacuate T_Q and invert the
insertion.  The column word is the row word of the quarter turn, so the
outer action on it is the row action on the quarter turn.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb

from .base import (DynkinInterval, Partition, intervals, partition,
                   partitions_in_box, ssyt_fillings, transpose)
from .cactus import CactusWord, inner_act
from .core import Report, schuetzenberger, to_highest_path, to_lowest_path
from .matrices import (Ce, Ceps, Cf, Cphi, Matrix, Re, Reps, Rf, _flat,
                       bit_matrices, col_word, dims, matrix_col_crystal,
                       matrix_from_col_word, matrix_row_crystal)
from .tableaux import Rows, evacuate, ssyt


# ---------------------------------------------------------------------------
# extremal forms

def re_max(M: Matrix) -> Matrix:
    """Raise with the R operators, smallest index first, to the unique
    highest-weight matrix of the component."""
    row = matrix_row_crystal(*dims(M))
    return to_highest_path(row, M, row.nodes())[0]


def cf_max(M: Matrix) -> Matrix:
    """Lower with the C operators, smallest index first, to the unique
    lowest-weight matrix of the component."""
    col = matrix_col_crystal(*dims(M))
    return to_lowest_path(col, M, col.nodes())[0]


def doubly_extreme_shape(L: Matrix) -> Partition:
    """Shape of a matrix that is R-highest and C-extremal.

    C-highest matrices carry their ones as a partition justified into the
    upper-left corner (shape read off top-down row sums); C-lowest matrices
    as one justified into the lower-left corner (read bottom-up).  Anything
    else violates the precondition and raises.
    """
    n, m = dims(L)
    if any(Reps(L, i) != 0 for i in range(1, m)):
        raise ValueError("matrix is not R-highest")
    if all(Ceps(L, j) == 0 for j in range(1, n)):
        ordered = list(L)
    elif all(Cphi(L, j) == 0 for j in range(1, n)):
        ordered = list(reversed(L))
    else:
        raise ValueError("matrix is neither C-highest nor C-lowest")
    sums = [sum(row) for row in ordered]
    for width, row in zip(sums, ordered):
        if row != tuple([1] * width + [0] * (m - width)):
            raise ValueError("ones are not left-justified")
    try:
        return partition(sums)
    except ValueError:
        raise ValueError("ones do not fill a corner-justified shape") from None


# ---------------------------------------------------------------------------
# tableau readings of the extremal matrices

def _from_columns(cols: list[list[int]]) -> Rows:
    """Tableau rows of the columns listed left to right, each top-down."""
    depth = max(map(len, cols), default=0)
    return tuple([tuple([col[r] for col in cols if len(col) > r])
                  for r in range(depth)])


def phi_map(P: Matrix) -> Rows:
    """R-highest matrix to a rank-n tableau: column c of the tableau holds
    the rows with a one in column c of P."""
    n, m = dims(P)
    if any(Reps(P, i) != 0 for i in range(1, m)):
        raise ValueError("phi needs an R-highest matrix")
    cols = [[r + 1 for r in range(n) if P[r][c]] for c in range(m)]
    return ssyt(_from_columns(cols), n)


def psi_map(Q: Matrix) -> Rows:
    """C-lowest matrix to a rank-m tableau: column k of the tableau holds
    the columns with a one in row n-k of Q."""
    n, m = dims(Q)
    if any(Cphi(Q, j) != 0 for j in range(1, n)):
        raise ValueError("psi needs a C-lowest matrix")
    cols = [[c + 1 for c in range(m) if row[c]] for row in reversed(Q)]
    return ssyt(_from_columns(cols), m)


def phi_inv(T: Rows, rank: int, m: int) -> Matrix:
    """Rebuild the R-highest matrix: an entry k in tableau column j puts a
    one at row k, column j."""
    out = [[0] * m for _ in range(rank)]
    for row in T:
        for c, v in enumerate(row):
            if c >= m:
                raise ValueError("tableau wider than the matrix")
            if not 1 <= v <= rank:
                raise ValueError(f"entry {v} out of range 1..{rank}")
            out[v - 1][c] = 1
    return tuple(tuple(r) for r in out)


def psi_inv(T: Rows, rank: int, n: int) -> Matrix:
    """Rebuild the C-lowest matrix: an entry l in tableau column j puts a
    one at row n+1-j, column l."""
    out = [[0] * rank for _ in range(n)]
    for row in T:
        for c, v in enumerate(row):
            if c >= n:
                raise ValueError("tableau wider than the matrix is tall")
            if not 1 <= v <= rank:
                raise ValueError(f"entry {v} out of range 1..{rank}")
            out[n - 1 - c][v - 1] = 1
    return tuple(tuple(r) for r in out)


# ---------------------------------------------------------------------------
# dual RSK insertion

def _insert(M: Matrix) -> tuple[list[list[int]], list[list[int]]]:
    """Dual RSK insertion of the ones of M: (insertion rows, recording rows).

    The rows of M are read top-down and, within a row, the columns holding
    a one left to right.  Each column c is inserted into the insertion
    rows, bumping the leftmost entry >= the inserted value in each row, and
    the matrix row is written into the recording rows at the new box.  The
    recording rows are T_P and the insertion rows the columns of T_Q; both
    gain their boxes in the same branch, so T_Q has the transpose shape of
    T_P.
    """
    ins: list[list[int]] = []
    rec: list[list[int]] = []
    for r, row in enumerate(M, start=1):
        for c, bit in enumerate(row, start=1):
            if not bit:
                continue
            x = c
            for i, line in enumerate(ins):
                j = bisect_left(line, x)
                if j == len(line):
                    line.append(x)
                    rec[i].append(r)
                    break
                line[j], x = x, line[j]
            else:
                ins.append([x])
                rec.append([r])
    return ins, rec


def _uninsert(ins, rec, n: int, m: int) -> Matrix:
    """Inverse of `_insert`: the n x m matrix whose insertion gives `ins`
    and `rec`.

    The boxes are removed in decreasing (label, column) order, so the
    largest row label goes first and, within a label, the rightmost box.
    Each removed entry reverse-bumps upward, swapping in each row above
    with the rightmost entry <= it; the value leaving the top row is the
    column of a one in the label's row.  A box that is not a corner when
    its turn comes, or a row with no entry small enough, raises ValueError.
    """
    ins = [list(line) for line in ins]
    out = [[0] * m for _ in range(n)]
    boxes = sorted(((label, j, i) for i, line in enumerate(rec)
                    for j, label in enumerate(line)), reverse=True)
    for label, j, i in boxes:
        line = ins[i]
        if len(line) != j + 1 or (i + 1 < len(ins) and len(ins[i + 1]) > j):
            raise ValueError(f"box ({i + 1},{j + 1}) is not a corner")
        y = line.pop()
        if not line:
            ins.pop()
        for above in range(i - 1, -1, -1):
            line = ins[above]
            k = bisect_right(line, y) - 1
            if k < 0:
                raise ValueError(f"no entry <= {y} to reverse-bump")
            line[k], y = y, line[k]
        out[label - 1][y - 1] = 1
    return tuple(tuple(row) for row in out)


# ---------------------------------------------------------------------------
# the packaged isomorphism

@dataclass(frozen=True)
class DualityPair:
    p_matrix: Matrix
    q_matrix: Matrix
    t_p: Rows
    t_q: Rows
    lam: Partition


def duality_iso(M: Matrix) -> DualityPair:
    """The duality pair of M by dual RSK insertion; P and Q are rebuilt
    from the tableaux, and lambda is the shape of the recording rows."""
    n, m = dims(M)
    ins, rec = _insert(M)
    t_p = tuple(map(tuple, rec))
    t_q = _from_columns(ins)
    return DualityPair(phi_inv(t_p, n, m), psi_inv(t_q, m, n), t_p, t_q,
                       tuple(map(len, rec)))


def duality_inv(pair: DualityPair) -> Matrix:
    """Inverse of the packaged map by reverse dual RSK: `_uninsert` the
    boxes of T_P from the columns of T_Q, then check that the result maps
    back to the whole pair.  Tableaux with entries outside 1..n and 1..m,
    and any pair that is not the duality pair of a matrix, raise
    ValueError."""
    n, m = dims(pair.p_matrix)
    M = _uninsert(_from_columns(ssyt(pair.t_q, m)), ssyt(pair.t_p, n), n, m)
    if duality_iso(M) != pair:
        raise ValueError("the pair is not the duality pair of its inverse")
    return M


# ---------------------------------------------------------------------------
# outer actions on matrices

# The row word is a tensor power of the fundamental crystal of 0/1 vectors,
# whose full involution is reversal: the weight of a 0/1 vector determines
# it.  So the block step of the generic outer action in `cactus` (flip the
# factor block, apply xi to each factor) is a half turn of the rows the
# block spans, and the block tensor crystal is that sub-matrix's own row
# structure.  The reversed column word of M is the row word of its quarter
# turn `col_word(M)`, so the column side is the row side of the quarter
# turn and `_turn_rows` is the one block step of both.
#
# The full involution of a block's row structure is computed through its
# duality pair: the R operators act on T_Q and fix T_P, so the involution
# evacuates T_Q and keeps T_P.  The pair comes from dual RSK insertion and
# goes back by its inverse, so a cold block costs one insertion, one
# evacuation and one reverse insertion, and walks no crystal path or
# component.  The inner actions keep edge transport, which keeps the
# agreement of the two actions a check of two independent routes, and
# `verify_agreement`/`verify_corollary` pass transport for the block step,
# where the memo serves their sweeps.

def _turn_rows(M: Matrix, lo: int, hi: int, block_xi) -> Matrix:
    """One block step on the row word: turn rows lo..hi-1 (0-based) by half
    a turn and apply `block_xi`, the full involution of the row structure
    of that block."""
    block = tuple([row[::-1] for row in reversed(M[lo:hi])])
    return M[:lo] + block_xi(block) + M[hi:]


def _row_xi_by_transport(B: Matrix) -> Matrix:
    """Full involution of the row structure of B, by memoized transport."""
    row = matrix_row_crystal(len(B), len(B[0]))
    return schuetzenberger(row, B, row.nodes())


def _row_xi_by_duality(B: Matrix) -> Matrix:
    """Full involution of the row structure: evacuate the rank-m tableau
    T_Q of B's duality pair, keep T_P, and invert the insertion."""
    a, m = dims(B)
    ins, rec = _insert(B)
    evacuated = evacuate(_from_columns(ins), m)
    return _uninsert(_from_columns(evacuated), rec, a, m)


def outer_on_rows(M: Matrix, w: CactusWord) -> Matrix:
    """Outer action on the row word (rank = number of rows).

    Each generator s[p,q] turns rows p..q by half a turn and applies the
    full involution of the row structure of that sub-matrix, computed as
    the evacuation of its T_Q between dual RSK insertion and its
    inverse."""
    n = len(M)
    if w.rank != n:
        raise ValueError(f"word rank {w.rank} != number of tensor factors {n}")
    for g in w.generators:
        M = _turn_rows(M, g.p - 1, g.q, _row_xi_by_duality)
    return M


def outer_on_cols(M: Matrix, w: CactusWord) -> Matrix:
    """Outer action on the reversed column word (rank = number of columns):
    the outer action on the row word of the quarter turn, whose rows p..q
    are the matrix columns m-q..m-p (0-based)."""
    return matrix_from_col_word(outer_on_rows(col_word(M), w))


def inner_on_rows(M: Matrix, w: CactusWord) -> Matrix:
    """Inner action through the rank-m structure."""
    n, m = dims(M)
    return inner_act(w, matrix_row_crystal(n, m), M)


def inner_on_cols(M: Matrix, w: CactusWord) -> Matrix:
    """Inner action through the rank-n structure."""
    n, m = dims(M)
    return inner_act(w, matrix_col_crystal(n, m), M)


# ---------------------------------------------------------------------------
# verifiers
#
# The verifiers call `schuetzenberger` on models built once per call, and
# the block step with the transport seams, which they look up at call time.

def verify_agreement(n: int, m: int, N: int) -> Report:
    """For every matrix and every rank-n generator, the outer action on the
    row word equals the inner action through the rank-n structure."""
    instance = {"n": n, "m": m, "N": N}
    col_model = matrix_col_crystal(n, m)
    gens = [(g, g.p - 1, g.q, g.nodes) for g in intervals(n)]
    checked = 0
    for M in bit_matrices(n, m, N):
        for g, lo, hi, nodes in gens:
            checked += 1
            outer = _turn_rows(M, lo, hi, _row_xi_by_transport)
            if outer != schuetzenberger(col_model, M, nodes):
                return Report("agreement", instance, checked, "fail",
                              f"{g} outer != inner at {_flat(M)}")
    return Report("agreement", instance, checked, "pass")


def verify_corollary(n: int, m: int, N: int) -> Report:
    """Quarter-turn transport of the agreement: rotation intertwines the
    C operators with the R operators and the inner actions, and for every
    rank-m generator s[p,q] the outer action on the column word at the
    reflected interval equals the inner action through the rank-m structure.
    """
    instance = {"n": n, "m": m, "N": N}
    # m x n matrices with the C operators, their n x m quarter turns and
    # the n x m matrices of the outer side with the R operators
    col_model = matrix_col_crystal(m, n)
    row_model = matrix_row_crystal(n, m)
    steps = [(i, cop, rop, tag) for i in range(1, m)
             for cop, rop, tag in ((Ce, Re, "Ce/Re"), (Cf, Rf, "Cf/Rf"))]
    # the reflected interval s[m+1-q, m+1-p] of the column word spans the
    # columns p-1..q-1 of N, which are the rows m-q..m-p of its quarter turn
    gens = [(g, g.nodes, DynkinInterval(m + 1 - g.q, m + 1 - g.p, m),
             m - g.q, m + 1 - g.p) for g in intervals(m)]
    checked = 0
    for M in bit_matrices(m, n, N):
        R = col_word(M)
        for i, cop, rop, tag in steps:
            checked += 1
            lhs = cop(M, i)
            rhs = rop(R, i)
            if (lhs is None) != (rhs is None) or \
                    (lhs is not None and col_word(lhs) != rhs):
                return Report("corollary", instance, checked, "fail",
                              f"rotation does not intertwine {tag} at {i}, "
                              f"{_flat(M)}")
        for g, nodes, _, _, _ in gens:
            checked += 1
            if col_word(schuetzenberger(col_model, M, nodes)) != \
                    schuetzenberger(row_model, R, nodes):
                return Report("corollary", instance, checked, "fail",
                              f"rotation does not intertwine inner {g} at {_flat(M)}")
    for N_mat in bit_matrices(n, m, N):
        W = col_word(N_mat)
        for g, nodes, reflected, lo, hi in gens:
            checked += 1
            outer = matrix_from_col_word(
                _turn_rows(W, lo, hi, _row_xi_by_transport))
            if outer != schuetzenberger(row_model, N_mat, nodes):
                return Report("corollary", instance, checked, "fail",
                              f"{reflected} outer on columns != "
                              f"inner {g} at {_flat(N_mat)}")
    return Report("corollary", instance, checked, "pass")


def verify_counting(n: int, m: int, N: int) -> Report:
    """Sum over shapes in the n x m box with N boxes of (number of rank-n
    tableaux) times (number of rank-m tableaux of the transpose shape)
    equals the number of matrices."""
    instance = {"n": n, "m": m, "N": N}
    total = 0
    for lam in partitions_in_box(n, m, N):
        count_n = sum(1 for _ in ssyt_fillings(lam, n))
        count_m = sum(1 for _ in ssyt_fillings(transpose(lam), m))
        total += count_n * count_m
    expect = comb(n * m, N)
    if total != expect:
        return Report("counting", instance, 1, "fail",
                      f"sum over shapes gives {total}, expected {expect}")
    return Report("counting", instance, 1, "pass")
