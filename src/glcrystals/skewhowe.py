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
is reverse insertion.  The column word is the row word of the quarter
turn, so each column-side reading is the row-side reading of the turn:
`cf_max`, `psi_map` and `psi_inv` are `re_max`, `phi_map` and `phi_inv`
on `matrix_from_col_word(M)`, turned back by `col_word`.  The outer action
on the row word loops over the generators of a word, and each generator
half-turns a block of rows and applies the block's full involution: turn
the block a quarter, evacuate T_P and invert the insertion.  The outer
action on the column word is the row action on the quarter turn.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache
from math import comb

from .base import (DynkinInterval, Partition, intervals, partitions_in_box,
                   ssyt_fillings, transpose)
from .cactus import CactusWord, inner_act
from .core import Report, schuetzenberger, to_highest_path
from .matrices import (Ce, Ceps, Cf, Cphi, Matrix, Re, Reps, Rf, _flat,
                       bit_matrices, col_word, dims, matrix_col_crystal,
                       matrix_from_col_word, matrix_instance,
                       matrix_row_crystal)
from .tableaux import Rows, evacuate, shape_of, ssyt


# ---------------------------------------------------------------------------
# extremal forms

def re_max(M: Matrix) -> Matrix:
    """Raise with the R operators, smallest index first, to the unique
    highest-weight matrix of the component."""
    row = matrix_row_crystal(*dims(M))
    return to_highest_path(row, M, row.nodes())[0]


def cf_max(M: Matrix) -> Matrix:
    """Lower with the C operators to the unique lowest-weight matrix of the
    component: the R-highest matrix of the quarter turn, turned back."""
    return col_word(re_max(matrix_from_col_word(M)))


def doubly_extreme_shape(L: Matrix) -> Partition:
    """Shape of a matrix that is R-highest and C-extremal: the shape of its
    `phi_map` tableau.  A matrix that is neither C-highest nor C-lowest, or
    not R-highest, raises."""
    n = len(L)
    if not (all(Ceps(L, j) == 0 for j in range(1, n)) or
            all(Cphi(L, j) == 0 for j in range(1, n))):
        raise ValueError("matrix is neither C-highest nor C-lowest")
    return shape_of(phi_map(L))


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
    """C-lowest matrix to a rank-m tableau: `phi_map` of the quarter turn,
    whose R-highest condition is Q's C-lowest one.  Column k of the tableau
    holds the columns with a one in row n-k of Q."""
    return phi_map(matrix_from_col_word(Q))


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
    """Rebuild the C-lowest matrix: the quarter turn of `phi_inv`, so an
    entry l in tableau column j puts a one at row n+1-j, column l."""
    return col_word(phi_inv(T, rank, n))


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
# The full involution of a block's row structure is computed on the
# block's quarter turn X = `matrix_from_col_word(B)`, whose column
# structure it is, through X's duality pair: the C operators act on T_P and
# fix T_Q, so the involution evacuates T_P, which insertion returns in row
# form, and keeps T_Q.  The pair comes from dual RSK insertion and goes
# back by its inverse, so a cold block costs two turns, one insertion, one
# evacuation and one reverse insertion, and walks no crystal path or
# component.  The inner actions keep edge transport, which keeps the
# agreement of the two actions a check of two independent routes, and
# `verify_agreement`/`verify_corollary` pass transport for the block step,
# where the memo serves their sweeps.  They apply the step to a
# generator's block alone, as `_turn_rows(B, 0, k, ...)` on its k rows.

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
    """Full involution of the row structure of B: the column structure of
    the quarter turn X, computed by evacuating the rank-n tableau T_P of X's
    duality pair, keeping T_Q, and inverting the insertion."""
    X = matrix_from_col_word(B)
    n, m = dims(X)
    ins, rec = _insert(X)
    return col_word(_uninsert(ins, evacuate(rec, n), n, m))


def outer_on_rows(M: Matrix, w: CactusWord) -> Matrix:
    """Outer action on the row word (rank = number of rows).

    Each generator s[p,q] turns rows p..q by half a turn and applies the
    full involution of the row structure of that sub-matrix, computed as
    the evacuation of T_P of its quarter turn between dual RSK insertion
    and its inverse."""
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
# A generator s[p,q] and the nodes p..q-1 read and move only the block of
# rows (or columns) p..q: the outer side by its definition, and the inner
# side because the operator at node j reads and moves rows j, j+1 only.
# So the component of M under p..q-1 is the block's component in the
# block's own model, with the rest of M fixed, and its involution is the
# full involution of that model spliced back.  The agreement and corollary
# verifiers therefore compare the two sides on the block alone, through
# `schuetzenberger` on block models that the `lru_cache` factories share
# across n, m, N and p: a sweep walks each block component once, not once
# per copy of it in a larger matrix.  Both sides are functions of the
# block, whose shape fixes k and the block model, so each call compares
# each distinct block once, through a `functools.cache` made inside the
# call and keyed on the block alone; the cache is freed when the call
# returns.  `checked` still counts every (matrix, generator) pair, and the
# first failing pair is the first that meets a failing block, so the
# report is the one the plain loop gives.  The corollary's rotation steps
# test the C and R kernels on whole matrices and stay one check per
# matrix, unmemoized.  The verifiers look the factories and the block
# step's transport seam up at call time, and their witnesses print the
# whole matrix.

def _blocks(rank: int, block_model) -> list:
    """(s[p,q], lo, hi, model, nodes) for each rank-`rank` generator: the
    block it reads and moves is rows (or columns) lo..hi-1 = p-1..q-1
    (0-based), `model = block_model(k)` is the model of a block of
    k = q-p+1 of them and `nodes` = 1..k-1 its full node set."""
    out = []
    for g in intervals(rank):
        k = g.q - g.p + 1
        out.append((g, g.p - 1, g.q, block_model(k), tuple(range(1, k))))
    return out


def verify_agreement(n: int, m: int, N: int) -> Report:
    """For every matrix and every rank-n generator, the outer action on the
    row word equals the inner action through the rank-n structure, both
    read off the generator's block of rows.  Each distinct block is
    compared once per call; `checked` counts every (matrix, generator)
    pair.

    With n = 1 there is no generator, and an instance with matrices passes
    with checked=0 (`verify` leaves it out).
    Raising there waits for a change to the benchmark, whose sweeps call
    the (n, m, N) verifiers on such instances and count an exception as a
    failed operation.
    """
    instance = matrix_instance(n, m, N)
    gens = _blocks(n, lambda k: matrix_col_crystal(k, m))
    models = {hi - lo: (model, nodes) for _, lo, hi, model, nodes in gens}

    @cache
    def agrees(B):
        model, nodes = models[len(B)]
        return _turn_rows(B, 0, len(B), _row_xi_by_transport) == \
            schuetzenberger(model, B, nodes)

    checked = 0
    for M in bit_matrices(n, m, N):
        for g, lo, hi, _, _ in gens:
            checked += 1
            if not agrees(M[lo:hi]):
                return Report("agreement", instance, checked, "fail",
                              f"{g} outer != inner at {_flat(M)}")
    return Report("agreement", instance, checked, "pass")


def verify_corollary(n: int, m: int, N: int) -> Report:
    """Quarter-turn transport of the agreement: rotation intertwines the
    C operators with the R operators and the inner actions, and for every
    rank-m generator s[p,q] the outer action on the column word at the
    reflected interval equals the inner action through the rank-m structure.
    The involutions act on the generator's block alone: rows p..q of an
    m x n matrix in the C model of those q-p+1 rows, and columns p..q of
    an n x m matrix in the R model of those q-p+1 columns.  Each distinct
    block is compared once per call for each of the two; `checked` counts
    every (matrix, generator) pair, and the rotation steps of the C and R
    operators are checked on every whole matrix.

    With m = 1 there is no node or generator, and an instance with matrices
    passes with checked=0 (`verify` leaves it out).
    Raising there waits for a change to the benchmark, whose sweeps call
    the (n, m, N) verifiers on such instances and count an exception as a
    failed operation.
    """
    instance = matrix_instance(n, m, N)
    # rows lo..hi-1 of an m x n matrix M with the C operators are the
    # columns lo..hi-1 of its quarter turn R with the R operators
    c_blocks = _blocks(m, lambda k: matrix_col_crystal(k, n))
    r_blocks = _blocks(m, lambda k: matrix_row_crystal(n, k))
    models = {hi - lo: (c_model, r_model, nodes)
              for (_, lo, hi, c_model, nodes), (_, _, _, r_model, _) in
              zip(c_blocks, r_blocks)}
    steps = [(i, cop, rop, tag) for i in range(1, m)
             for cop, rop, tag in ((Ce, Re, "Ce/Re"), (Cf, Rf, "Cf/Rf"))]

    # B = M[lo:hi] fixes columns lo..hi-1 of R, which are col_word(B)
    @cache
    def turn_intertwines(B):
        c_model, r_model, nodes = models[len(B)]
        return col_word(schuetzenberger(c_model, B, nodes)) == \
            schuetzenberger(r_model, col_word(B), nodes)

    # B is a block of columns of an n x m matrix
    @cache
    def col_agrees(B):
        _, r_model, nodes = models[len(B[0])]
        turned = col_word(B)
        return matrix_from_col_word(
            _turn_rows(turned, 0, len(turned), _row_xi_by_transport)) == \
            schuetzenberger(r_model, B, nodes)

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
        for g, lo, hi, _, _ in c_blocks:
            checked += 1
            if not turn_intertwines(M[lo:hi]):
                return Report("corollary", instance, checked, "fail",
                              f"rotation does not intertwine inner {g} at {_flat(M)}")
    # the reflected interval s[m+1-q, m+1-p] of the column word turns the
    # rows m-q..m-p of the quarter turn, which are the quarter turn of the
    # block of columns p-1..q-1
    for N_mat in bit_matrices(n, m, N):
        for g, lo, hi, _, _ in r_blocks:
            checked += 1
            if not col_agrees(tuple([row[lo:hi] for row in N_mat])):
                reflected = DynkinInterval(m + 1 - g.q, m + 1 - g.p, m)
                return Report("corollary", instance, checked, "fail",
                              f"{reflected} outer on columns != "
                              f"inner {g} at {_flat(N_mat)}")
    return Report("corollary", instance, checked, "pass")


def verify_counting(n: int, m: int, N: int) -> Report:
    """Sum over shapes in the n x m box with N boxes of (number of rank-n
    tableaux) times (number of rank-m tableaux of the transpose shape)
    equals the number of matrices.  It makes this one check on every
    instance, so unlike the other (n, m, N) verifiers it never passes with
    checked=0."""
    instance = matrix_instance(n, m, N)
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
