"""The duality isomorphism between the matrix crystal and pairs of tableaux
of transpose shapes, and the verifiers for the agreement of the outer and
inner cactus actions.

The forward map raises a matrix to its rank-m highest weight form P and
lowers it to its rank-n lowest weight form Q, then reads P into a rank-n
tableau through prefix row sums and Q into a rank-m tableau through
bottom-up prefix column sums.
"""

from dataclasses import dataclass
from math import comb

from .base import (DynkinInterval, Partition, partition, partitions_in_box,
                   ssyt_fillings, transpose)
from .cactus import CactusWord, inner_act
from .core import Report, schuetzenberger, to_highest_path, to_lowest_path
from .matrices import (Ce, Ceps, Cf, Cphi, Matrix, Re, Reps, Rf, bit_matrices,
                       check_budget, dims, matrix_col_crystal,
                       matrix_row_crystal)
from .tableaux import Rows, shape_of, ssyt


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

def _conjugate_lengths(cols: list[int]) -> tuple[int, ...]:
    """Row lengths of the diagram whose column lengths are `cols`."""
    if any(a < b for a, b in zip(cols, cols[1:])):
        raise ValueError(f"column lengths {cols} not weakly decreasing")
    depth = cols[0] if cols else 0
    return tuple(sum(1 for c in cols if c > r) for r in range(depth))


def _fill_chain(shapes: list[tuple[int, ...]]) -> Rows:
    """Tableau with entry i on the boxes added at step i of a nested chain."""
    rows: list[list[int]] = []
    prev: tuple[int, ...] = ()
    for i, shape in enumerate(shapes, start=1):
        for r, width in enumerate(shape):
            before = prev[r] if r < len(prev) else 0
            if width < before:
                raise ValueError("chain of shapes is not nested")
            if width == before:
                continue
            if r >= len(rows):
                rows.append([])
            rows[r].extend([i] * (width - before))
        prev = shape
    return tuple(tuple(r) for r in rows)


def phi_map(P: Matrix) -> Rows:
    """R-highest matrix to a rank-n tableau: step i adds the columns counted
    by the i-th prefix row sum."""
    n, m = dims(P)
    if any(Reps(P, i) != 0 for i in range(1, m)):
        raise ValueError("phi needs an R-highest matrix")
    shapes = []
    acc = [0] * m
    for r in range(n):
        acc = [a + v for a, v in zip(acc, P[r])]
        shapes.append(_conjugate_lengths(acc))
    return ssyt(_fill_chain(shapes), n)


def psi_map(Q: Matrix) -> Rows:
    """C-lowest matrix to a rank-m tableau: step i adds the rows counted by
    the i-th prefix of bottom-up column sums."""
    n, m = dims(Q)
    if any(Cphi(Q, j) != 0 for j in range(1, n)):
        raise ValueError("psi needs a C-lowest matrix")
    shapes = []
    acc = [0] * n
    for c in range(m):
        acc = [a + Q[n - 1 - k][c] for k, a in enumerate(acc)]
        shapes.append(_conjugate_lengths(acc))
    return ssyt(_fill_chain(shapes), m)


def phi_inv(T: Rows, rank: int, m: int) -> Matrix:
    """Rebuild the R-highest matrix: an entry k in tableau column j puts a
    one at row k, column j."""
    out = [[0] * m for _ in range(rank)]
    for row in T:
        for c, v in enumerate(row):
            if c >= m:
                raise ValueError("tableau wider than the matrix")
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
            out[n - 1 - c][v - 1] = 1
    return tuple(tuple(r) for r in out)


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
    pmat = re_max(M)
    qmat = cf_max(M)
    t_p = phi_map(pmat)
    t_q = psi_map(qmat)
    lam = shape_of(t_p)
    if shape_of(t_q) != transpose(lam):
        raise ValueError("tableau shapes fail to be transpose")
    return DualityPair(pmat, qmat, t_p, t_q, lam)


def duality_inv(pair: DualityPair) -> Matrix:
    """Inverse of the packaged map.

    Lower P to the doubly extreme matrix recording the applied C indices,
    raise Q to the same matrix recording the applied R indices, then undo
    the recorded R path on P and the recorded C path on Q.  The two
    reconstructions are compared, and a mismatch raises ValueError.
    """
    if shape_of(pair.t_p) != transpose(shape_of(pair.t_q)):
        raise ValueError("tableau shapes fail to be transpose")
    pmat, qmat = pair.p_matrix, pair.q_matrix
    col = matrix_col_crystal(*dims(pmat))
    row = matrix_row_crystal(*dims(qmat))
    corner_from_p, c_path = to_lowest_path(col, pmat, col.nodes())
    corner_from_q, r_path = to_highest_path(row, qmat, row.nodes())
    if corner_from_p != corner_from_q:
        raise ValueError("P and Q do not meet at a common extreme matrix")
    M = pmat
    for i in reversed(r_path):
        M = Rf(M, i)
        if M is None:
            raise ValueError("R path cannot be replayed from P")
    M2 = qmat
    for j in reversed(c_path):
        M2 = Ce(M2, j)
        if M2 is None:
            raise ValueError("C path cannot be replayed from Q")
    if M != M2:
        raise ValueError("the two reconstructions disagree")
    return M


# ---------------------------------------------------------------------------
# outer actions on matrices

# The row word is a tensor power of the fundamental crystal of 0/1 vectors,
# whose full involution is reversal: the weight of a 0/1 vector determines
# it.  So the block step of the generic outer action in `cactus` (flip the
# factor block, apply xi to each factor) is a half turn of the sub-matrix
# the block spans, and the block tensor crystal is that sub-matrix's own
# row (or column) structure, where the closed-form operators act.

def outer_on_rows(M: Matrix, w: CactusWord) -> Matrix:
    """Outer action on the row word (rank = number of rows).

    Each generator s[p,q] turns rows p..q by half a turn and applies the
    full involution of the row structure of that sub-matrix (Re/Rf)."""
    n, m = dims(M)
    if w.rank != n:
        raise ValueError(f"word rank {w.rank} != number of tensor factors {n}")
    nodes = tuple(range(1, m))
    for g in w.generators:
        p, q = g.p, g.q
        block = tuple(row[::-1] for row in reversed(M[p - 1:q]))
        block = schuetzenberger(matrix_row_crystal(q - p + 1, m), block, nodes)
        M = M[:p - 1] + block + M[q:]
    return M


def outer_on_cols(M: Matrix, w: CactusWord) -> Matrix:
    """Outer action on the reversed column word (rank = number of columns).

    Word positions p..q are the matrix columns m-q..m-p (0-based); each
    generator turns those columns by half a turn and applies the full
    involution of the column structure of that sub-matrix (Ce/Cf)."""
    n, m = dims(M)
    if w.rank != m:
        raise ValueError(f"word rank {w.rank} != number of tensor factors {m}")
    nodes = tuple(range(1, n))
    for g in w.generators:
        lo, hi = m - g.q, m - g.p + 1
        block = tuple(row[lo:hi][::-1] for row in reversed(M))
        block = schuetzenberger(matrix_col_crystal(n, hi - lo), block, nodes)
        M = tuple(row[:lo] + new + row[hi:] for row, new in zip(M, block))
    return M


def inner_on_rows(M: Matrix, w: CactusWord) -> Matrix:
    """Inner action through the rank-m structure."""
    n, m = dims(M)
    return inner_act(w, matrix_row_crystal(n, m), M)


def inner_on_cols(M: Matrix, w: CactusWord) -> Matrix:
    """Inner action through the rank-n structure."""
    n, m = dims(M)
    return inner_act(w, matrix_col_crystal(n, m), M)


def rotate90(M: Matrix) -> Matrix:
    """Counterclockwise quarter turn: entry (j, c) lands at (r, j) where the
    output row r counts from the last input column."""
    rows, cols = dims(M)
    return tuple(tuple(M[j][cols - 1 - r] for j in range(rows))
                 for r in range(cols))


# ---------------------------------------------------------------------------
# verifiers

def verify_agreement(n: int, m: int, N: int, budget: int = 10 ** 6,
                     force: bool = False) -> Report:
    """For every matrix and every rank-n generator, the outer action on the
    row word equals the inner action through the rank-n structure."""
    check_budget(n, m, N, budget, force)
    instance = {"n": n, "m": m, "N": N}
    col_model = matrix_col_crystal(n, m)
    gens = [(p, q, CactusWord(n, (DynkinInterval(p, q, n),)), tuple(range(p, q)))
            for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    checked = 0
    for M in bit_matrices(n, m, N):
        for p, q, w, nodes in gens:
            checked += 1
            outer = outer_on_rows(M, w)
            inner = schuetzenberger(col_model, M, nodes)
            if outer != inner:
                flat = "".join(str(v) for row in M for v in row)
                return Report("agreement", instance, checked, "fail",
                              f"s[{p},{q}] outer != inner at {flat}")
    return Report("agreement", instance, checked, "pass")


def verify_corollary(n: int, m: int, N: int, budget: int = 10 ** 6,
                     force: bool = False) -> Report:
    """Quarter-turn transport of the agreement: rotation intertwines the
    C operators with the R operators and the inner actions, and for every
    rank-m generator s[p,q] the outer action on the column word at the
    reflected interval equals the inner action through the rank-m structure.
    """
    check_budget(n, m, N, budget, force)
    instance = {"n": n, "m": m, "N": N}
    checked = 0
    gens_m = [(p, q,
               CactusWord(m, (DynkinInterval(p, q, m),)),
               CactusWord(m, (DynkinInterval(m + 1 - q, m + 1 - p, m),)))
              for p in range(1, m + 1) for q in range(p + 1, m + 1)]
    for M in bit_matrices(m, n, N):
        R = rotate90(M)
        for i in range(1, m):
            for cop, rop, tag in ((Ce, Re, "Ce/Re"), (Cf, Rf, "Cf/Rf")):
                checked += 1
                lhs = cop(M, i)
                rhs = rop(R, i)
                if (lhs is None) != (rhs is None) or \
                        (lhs is not None and rotate90(lhs) != rhs):
                    flat = "".join(str(v) for row in M for v in row)
                    return Report("corollary", instance, checked, "fail",
                                  f"rotation does not intertwine {tag} at {i}, {flat}")
        for p, q, w, _ in gens_m:
            checked += 1
            if rotate90(inner_on_cols(M, w)) != inner_on_rows(R, w):
                flat = "".join(str(v) for row in M for v in row)
                return Report("corollary", instance, checked, "fail",
                              f"rotation does not intertwine inner s[{p},{q}] at {flat}")
    for N_mat in bit_matrices(n, m, N):
        for p, q, inner_w, outer_w in gens_m:
            checked += 1
            if outer_on_cols(N_mat, outer_w) != inner_on_rows(N_mat, inner_w):
                flat = "".join(str(v) for row in N_mat for v in row)
                return Report("corollary", instance, checked, "fail",
                              f"s[{m + 1 - q},{m + 1 - p}] outer on columns != "
                              f"inner s[{p},{q}] at {flat}")
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
