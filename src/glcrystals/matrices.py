"""0/1 matrices with a fixed number of ones, carrying two commuting crystal
structures: reading the n rows as a tensor word gives a rank-m structure
(the R operators), reading the m columns right-to-left gives a rank-n
structure (the C operators).

Each operator family is implemented twice on purpose: once through the
generic tensor rule on the row word (`row_structure`; `col_structure` is
the row structure of the quarter turn `col_word`), and once through closed
running-sum formulas that read each profile maximum in one scan.  The two
are kept permanently as mutual oracles; verify_dual_implementation
compares them exhaustively.  A C operator at node j reads only rows j and
j+1: `_col_pair` scans each such pair once and keeps what the four C
kernels read, in a table of at most 4^m keys that is never invalidated.
The per-position `*_profile` lists the kernels are checked against are the
tensor rule's, `TensorCrystal.profiles` of the row word and, for the
columns, of the quarter turn read back in column order.
"""

import json
from functools import cache, lru_cache
from itertools import combinations

from .base import Weight, field, int_field, int_rows
from .core import Crystal, Report, run_checks
from .tensor import TensorCrystal, tensor_crystal

Matrix = tuple[tuple[int, ...], ...]


def bit_matrix(rows, n: int | None = None, m: int | None = None) -> Matrix:
    """Validate and freeze a 0/1 matrix."""
    out = int_rows(rows)
    if not out or not out[0]:
        raise ValueError("matrix needs at least one row and column")
    if any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged rows")
    if any(v not in (0, 1) for row in out for v in row):
        raise ValueError("entries must be 0 or 1")
    if n is not None and len(out) != n:
        raise ValueError(f"expected {n} rows, got {len(out)}")
    if m is not None and len(out[0]) != m:
        raise ValueError(f"expected {m} columns, got {len(out[0])}")
    return out


def dims(M: Matrix) -> tuple[int, int]:
    if not M or not M[0]:
        raise ValueError("empty matrix: a matrix needs at least one row "
                         "and one column")
    return len(M), len(M[0])


def bit_matrices(n: int, m: int, N: int):
    """All n x m 0/1 matrices with exactly N ones, in a fixed order."""
    for support in combinations(range(n * m), N):
        flat = [0] * (n * m)
        for pos in support:
            flat[pos] = 1
        yield tuple(tuple(flat[r * m:(r + 1) * m]) for r in range(n))


def matrix_instance(n: int, m: int, N: int) -> dict:
    """The instance of an (n, m, N) verifier, the n x m matrices with N
    ones.  Raises ValueError unless n, m >= 1 and 0 <= N <= n*m, so that no
    such instance passes by enumerating nothing."""
    if n < 1 or m < 1 or not 0 <= N <= n * m:
        raise ValueError(f"no {n} x {m} matrices with {N} ones: need "
                         f"n, m >= 1 and 0 <= N <= n*m")
    return {"n": n, "m": m, "N": N}


def row_weight(M: Matrix) -> Weight:
    """Column sums: the weight for the rank-m (row word) structure."""
    return tuple(map(sum, zip(*M)))


def col_weight(M: Matrix) -> Weight:
    """Row sums: the weight for the rank-n (column word) structure."""
    return tuple(map(sum, M))


def _flat(M: Matrix) -> str:
    return "".join(str(v) for row in M for v in row)


def _node_error(i: int, rank: int) -> ValueError:
    return ValueError(f"node {i} out of range for rank {rank}")


# ---------------------------------------------------------------------------
# the fundamental crystal of 0/1 vectors

class FundamentalCrystal(Crystal):
    """0/1 vectors of length rank; e_i turns (0,1) at positions (i, i+1)
    into (1,0), f_i the reverse."""

    def weight(self, v) -> Weight:
        return v

    def e(self, i, v):
        if not 0 < i < self.rank:
            raise _node_error(i, self.rank)
        if v[i - 1] == 0 and v[i] == 1:
            return v[:i - 1] + (1, 0) + v[i + 1:]
        return None

    def f(self, i, v):
        if not 0 < i < self.rank:
            raise _node_error(i, self.rank)
        if v[i - 1] == 1 and v[i] == 0:
            return v[:i - 1] + (0, 1) + v[i + 1:]
        return None

    def eps(self, i, v):
        if not 0 < i < self.rank:
            raise _node_error(i, self.rank)
        return 1 if (v[i - 1], v[i]) == (0, 1) else 0

    def phi(self, i, v):
        if not 0 < i < self.rank:
            raise _node_error(i, self.rank)
        return 1 if (v[i - 1], v[i]) == (1, 0) else 0

    def canon(self, v) -> str:
        return "".join(str(b) for b in v)


@lru_cache(maxsize=None)
def fundamental_crystal(rank: int) -> FundamentalCrystal:
    return FundamentalCrystal(rank)


# ---------------------------------------------------------------------------
# row/column tensor words

def col_word(M: Matrix) -> tuple:
    """Columns as 0/1 vectors of length n, in the order m, m-1, ..., 1.

    The reversed reading order is load-bearing: it is what makes the
    column structure's tie-breaking come out as "closest to m"."""
    return tuple(zip(*M))[::-1]


def matrix_from_col_word(word) -> Matrix:
    return tuple(zip(*word[::-1]))


def row_structure(M: Matrix) -> tuple[TensorCrystal, tuple]:
    n, m = dims(M)
    return tensor_crystal(*([fundamental_crystal(m)] * n)), M


def col_structure(M: Matrix) -> tuple[TensorCrystal, tuple]:
    """The row structure of the quarter turn `col_word(M)`."""
    return row_structure(col_word(M))


def row_eps_profile(M: Matrix, i: int) -> list[int]:
    """The tensor rule's eps profile of the row word at node i, by row."""
    return row_structure(M)[0].profiles(i, M)[0]


def row_phi_profile(M: Matrix, i: int) -> list[int]:
    return row_structure(M)[0].profiles(i, M)[1]


def col_eps_profile(M: Matrix, j: int) -> list[int]:
    """The row profile of the quarter turn, read back in column order 1..m."""
    return row_eps_profile(col_word(M), j)[::-1]


def col_phi_profile(M: Matrix, j: int) -> list[int]:
    return row_phi_profile(col_word(M), j)[::-1]


# ---------------------------------------------------------------------------
# closed-formula operators

def _swap_in_row(M: Matrix, r: int, c: int, new_pair) -> Matrix:
    row = M[r]
    row = row[:c] + new_pair + row[c + 2:]
    return M[:r] + (row,) + M[r + 1:]


def _swap_in_col(M: Matrix, r: int, c: int, new_pair) -> Matrix:
    top = M[r][:c] + (new_pair[0],) + M[r][c + 1:]
    bot = M[r + 1][:c] + (new_pair[1],) + M[r + 1][c + 1:]
    return M[:r] + (top, bot) + M[r + 2:]


def _broken(op: str, index: int, M: Matrix, where: str):
    return ValueError(f"{op}_{index} found no movable one at its profile "
                      f"maximum ({where}) in {_flat(M)}")


def Re(M: Matrix, i: int):
    """Raising in the rank-m structure: act in the topmost row achieving
    the positive maximum of `row_eps_profile`, moving its one from column
    i+1 to i.  One top-down scan keeps the running sum and the argmax."""
    if not 0 < i < len(M[0]):
        raise _node_error(i, len(M[0]))
    best, at, acc = 0, -1, 0
    for k, row in enumerate(M):
        a, b = row[i - 1], row[i]
        value = acc + (b > a)
        if value > best:
            best, at = value, k
        acc += b - a
    if at < 0:
        return None
    if (M[at][i - 1], M[at][i]) != (0, 1):
        raise _broken("Re", i, M, f"row {at + 1}")
    return _swap_in_row(M, at, i - 1, (1, 0))


def Rf(M: Matrix, i: int):
    """Lowering in the rank-m structure: bottom-most row at the maximum of
    `row_phi_profile`, found by one bottom-up scan."""
    if not 0 < i < len(M[0]):
        raise _node_error(i, len(M[0]))
    best, at, acc = 0, -1, 0
    for k in range(len(M) - 1, -1, -1):
        a, b = M[k][i - 1], M[k][i]
        value = acc + (a > b)
        if value > best:
            best, at = value, k
        acc += a - b
    if at < 0:
        return None
    if (M[at][i - 1], M[at][i]) != (1, 0):
        raise _broken("Rf", i, M, f"row {at + 1}")
    return _swap_in_row(M, at, i - 1, (0, 1))


@cache
def _col_pair(top: tuple, bot: tuple) -> tuple:
    """What the C kernels read off rows (top, bot): eps, phi, the columns
    `Ce` and `Cf` act at (-1 for none), and the pair after each move (None
    where that column holds no movable one).  A right-to-left scan keeps
    the running sum of `col_eps_profile` and its argmax closest to m, a
    left-to-right one that of `col_phi_profile`, closest to 1."""
    eps, e_at, acc = 0, -1, 0
    for k in range(len(top) - 1, -1, -1):
        a, b = top[k], bot[k]
        value = acc + (b > a)
        if value > eps:
            eps, e_at = value, k
        acc += b - a
    phi, f_at, acc = 0, -1, 0
    for k in range(len(top)):
        a, b = top[k], bot[k]
        value = acc + (a > b)
        if value > phi:
            phi, f_at = value, k
        acc += a - b
    up = down = None
    if e_at >= 0 and (top[e_at], bot[e_at]) == (0, 1):
        up = _swap_in_col((top, bot), 0, e_at, (1, 0))
    if f_at >= 0 and (top[f_at], bot[f_at]) == (1, 0):
        down = _swap_in_col((top, bot), 0, f_at, (0, 1))
    return eps, phi, e_at, f_at, up, down


def Ce(M: Matrix, j: int):
    """Raising in the rank-n structure: act in the column closest to m
    achieving the positive maximum of `col_eps_profile`, moving its one
    from row j+1 to j.  Rows j, j+1 after the move come from `_col_pair`."""
    if not 0 < j < len(M):
        raise _node_error(j, len(M))
    _, _, at, _, pair, _ = _col_pair(M[j - 1], M[j])
    if at < 0:
        return None
    if pair is None:
        raise _broken("Ce", j, M, f"column {at + 1}")
    return M[:j - 1] + pair + M[j + 1:]


def Cf(M: Matrix, j: int):
    """Lowering in the rank-n structure: column closest to 1 at the maximum
    of `col_phi_profile`, moved as `_col_pair` stores it."""
    if not 0 < j < len(M):
        raise _node_error(j, len(M))
    _, _, _, at, _, pair = _col_pair(M[j - 1], M[j])
    if at < 0:
        return None
    if pair is None:
        raise _broken("Cf", j, M, f"column {at + 1}")
    return M[:j - 1] + pair + M[j + 1:]


def Reps(M: Matrix, i: int) -> int:
    """The maximum of `row_eps_profile` floored at zero, read in the
    running-sum scan of `Re`."""
    if not 0 < i < len(M[0]):
        raise _node_error(i, len(M[0]))
    best = acc = 0
    for row in M:
        a, b = row[i - 1], row[i]
        value = acc + (b > a)
        if value > best:
            best = value
        acc += b - a
    return best


def Rphi(M: Matrix, i: int) -> int:
    """The maximum of `row_phi_profile` floored at zero, as `Rf` scans."""
    if not 0 < i < len(M[0]):
        raise _node_error(i, len(M[0]))
    best = acc = 0
    for row in reversed(M):
        a, b = row[i - 1], row[i]
        value = acc + (a > b)
        if value > best:
            best = value
        acc += a - b
    return best


def Ceps(M: Matrix, j: int) -> int:
    """The maximum of `col_eps_profile` floored at zero (`_col_pair`)."""
    if not 0 < j < len(M):
        raise _node_error(j, len(M))
    return _col_pair(M[j - 1], M[j])[0]


def Cphi(M: Matrix, j: int) -> int:
    """The maximum of `col_phi_profile` floored at zero (`_col_pair`)."""
    if not 0 < j < len(M):
        raise _node_error(j, len(M))
    return _col_pair(M[j - 1], M[j])[1]


# ---------------------------------------------------------------------------
# crystal models

class MatrixRowCrystal(Crystal):
    """The rank-m structure on n x m matrices (row word)."""

    def __init__(self, n: int, m: int):
        super().__init__(m)

    def weight(self, M):
        return row_weight(M)

    def e(self, i, M):
        return Re(M, i)

    def f(self, i, M):
        return Rf(M, i)

    def eps(self, i, M):
        return Reps(M, i)

    def phi(self, i, M):
        return Rphi(M, i)

    def canon(self, M) -> str:
        return _flat(M)


class MatrixColCrystal(Crystal):
    """The rank-n structure on n x m matrices (reversed column word)."""

    def __init__(self, n: int, m: int):
        super().__init__(n)

    def weight(self, M):
        return col_weight(M)

    def e(self, j, M):
        return Ce(M, j)

    def f(self, j, M):
        return Cf(M, j)

    def eps(self, j, M):
        return Ceps(M, j)

    def phi(self, j, M):
        return Cphi(M, j)

    def canon(self, M) -> str:
        return _flat(M)


@lru_cache(maxsize=None)
def matrix_row_crystal(n: int, m: int) -> MatrixRowCrystal:
    return MatrixRowCrystal(n, m)


@lru_cache(maxsize=None)
def matrix_col_crystal(n: int, m: int) -> MatrixColCrystal:
    return MatrixColCrystal(n, m)


# ---------------------------------------------------------------------------
# verifiers

def verify_commutation(n: int, m: int, N: int) -> Report:
    """Exhaustively check that the two structures commute: each R operator
    preserves the C weight and all C eps/phi values and commutes with each
    C operator wherever both sides are defined, and symmetrically.

    A matrix's weights, eps/phi vectors and operator results are computed
    once per call through a `functools.cache` made inside the call, the
    first time a check reads them, and shared with every check that reads
    them, including the checks of the matrices whose operator target it is.
    The cache is freed when the call returns.

    With N = 0 or N = nm no operator moves, and the instance passes with
    checked=0 (`verify` leaves it out).
    """
    r_nodes, c_nodes = range(1, m), range(1, n)

    @cache
    def values(M):
        # filled on first read, not from bit_matrices: a broken operator may
        # leave the instance's matrix set, and its target is still checked
        return ([(Re(M, i), Rf(M, i)) for i in r_nodes],
                [(Ce(M, j), Cf(M, j)) for j in c_nodes],
                row_weight(M), col_weight(M),
                [(Reps(M, i), Rphi(M, i)) for i in r_nodes],
                [(Ceps(M, j), Cphi(M, j)) for j in c_nodes])

    def witnesses():
        for M in bit_matrices(n, m, N):
            r_moves, c_moves, r_weight, c_weight, r_vals, c_vals = values(M)
            for i, moves in zip(r_nodes, r_moves):
                for target in moves:
                    if target is None:
                        continue
                    _, _, _, t_weight, _, t_vals = values(target)
                    if t_weight != c_weight:
                        yield (f"R op at {i} moved the column-structure "
                               f"weight at {_flat(M)}")
                    for j, ours, theirs in zip(c_nodes, c_vals, t_vals):
                        if theirs != ours:
                            yield f"R op at {i} moved C eps/phi at {j} at {_flat(M)}"
                    yield None
            for j, moves in zip(c_nodes, c_moves):
                for target in moves:
                    if target is None:
                        continue
                    _, _, t_weight, _, t_vals, _ = values(target)
                    if t_weight != r_weight:
                        yield (f"C op at {j} moved the row-structure weight "
                               f"at {_flat(M)}")
                    for i, ours, theirs in zip(r_nodes, r_vals, t_vals):
                        if theirs != ours:
                            yield f"C op at {j} moved R eps/phi at {i} at {_flat(M)}"
                    yield None
            # the C move c at node j of a must equal the R move r at node i
            # of b, where move 0 raises and move 1 lowers
            for i, (r_up, r_dn) in zip(r_nodes, r_moves):
                for j, (c_up, c_dn) in zip(c_nodes, c_moves):
                    for a, b, r, c, tag in ((r_up, c_up, 0, 0, "Re/Ce"),
                                            (r_up, c_dn, 0, 1, "Re/Cf"),
                                            (r_dn, c_up, 1, 0, "Rf/Ce"),
                                            (r_dn, c_dn, 1, 1, "Rf/Cf")):
                        if a is not None and b is not None:
                            yield (None if values(a)[1][j - 1][c] ==
                                   values(b)[0][i - 1][r] else
                                   f"{tag} fail at ({i},{j}) at {_flat(M)}")

    return run_checks("commutation", matrix_instance(n, m, N), witnesses())


def verify_dual_implementation(n: int, m: int, N: int) -> Report:
    """Closed formulas against the tensor rule, every operator and index,
    every matrix, one check per (matrix, operator, index).  The tensor
    structures are built once per matrix.  A matrix's eps/phi comparisons
    are not counted apart: they are further conditions of its last
    operator check.

    With n = m = 1 there is no node on either side, and the instance passes
    with checked=0 (`verify` leaves it out).
    """
    def witnesses():
        for M in bit_matrices(n, m, N):
            rc, rw = row_structure(M)
            cc, cw = col_structure(M)
            ops = [(i, word, back, closed, op, tag)
                   for nodes, word, back, pairs in (
                       (range(1, m), rw, tuple,
                        ((Re, rc.e, "Re"), (Rf, rc.f, "Rf"))),
                       (range(1, n), cw, matrix_from_col_word,
                        ((Ce, cc.e, "Ce"), (Cf, cc.f, "Cf"))))
                   for i in nodes for closed, op, tag in pairs]
            for k, (i, word, back, closed, op, tag) in enumerate(ops, 1):
                out = op(i, word)
                if closed(M, i) != (None if out is None else back(out)):
                    yield f"{tag}_{i} differs at {_flat(M)}"
                if k == len(ops):
                    for r in range(1, m):
                        if Reps(M, r) != rc.eps(r, rw) or Rphi(M, r) != rc.phi(r, rw):
                            yield f"R eps/phi at {r} differ at {_flat(M)}"
                    for j in range(1, n):
                        if Ceps(M, j) != cc.eps(j, cw) or Cphi(M, j) != cc.phi(j, cw):
                            yield f"C eps/phi at {j} differ at {_flat(M)}"
                yield None

    return run_checks("dual-implementation", matrix_instance(n, m, N),
                      witnesses())


# ---------------------------------------------------------------------------
# serialization

def to_json(M: Matrix) -> str:
    n, m = dims(M)
    return json.dumps({"n": n, "m": m, "rows": [list(r) for r in M]})


def from_json(obj) -> Matrix:
    if isinstance(obj, str):
        obj = json.loads(obj)
    n, m = (int_field(obj, k) if k in obj else None for k in ("n", "m"))
    return bit_matrix(field(obj, "rows"), n=n, m=m)


def to_text(M: Matrix) -> str:
    return "\n".join("".join(str(v) for v in row) for row in M)
