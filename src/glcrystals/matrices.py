"""0/1 matrices with a fixed number of ones, carrying two commuting crystal
structures: reading the n rows as a tensor word gives a rank-m structure
(the R operators), reading the m columns right-to-left gives a rank-n
structure (the C operators).

Each operator family is implemented twice on purpose: once through the
generic tensor rule on the row/column word, and once through closed
per-position formulas.  The two implementations are kept permanently as
mutual oracles; verify_dual_implementation compares them exhaustively.
"""

import json
from functools import lru_cache
from itertools import combinations
from math import comb

from .base import Weight
from .core import Crystal, Report
from .tensor import TensorCrystal, tensor_crystal

Matrix = tuple[tuple[int, ...], ...]


def bit_matrix(rows, n: int | None = None, m: int | None = None) -> Matrix:
    """Validate and freeze a 0/1 matrix."""
    out = tuple(tuple(int(v) for v in row) for row in rows)
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
    return len(M), len(M[0])


def ones(M: Matrix) -> int:
    return sum(sum(row) for row in M)


def bit_matrices(n: int, m: int, N: int):
    """All n x m 0/1 matrices with exactly N ones, in a fixed order."""
    for support in combinations(range(n * m), N):
        flat = [0] * (n * m)
        for pos in support:
            flat[pos] = 1
        yield tuple(tuple(flat[r * m:(r + 1) * m]) for r in range(n))


def row_weight(M: Matrix) -> Weight:
    """Column sums: the weight for the rank-m (row word) structure."""
    n, m = dims(M)
    return tuple(sum(M[r][c] for r in range(n)) for c in range(m))


def col_weight(M: Matrix) -> Weight:
    """Row sums: the weight for the rank-n (column word) structure."""
    return tuple(sum(row) for row in M)


# ---------------------------------------------------------------------------
# the fundamental crystal of 0/1 vectors

class FundamentalCrystal(Crystal):
    """0/1 vectors of length rank; e_i turns (0,1) at positions (i, i+1)
    into (1,0), f_i the reverse."""

    def weight(self, v) -> Weight:
        return v

    def e(self, i, v):
        if v[i - 1] == 0 and v[i] == 1:
            return v[:i - 1] + (1, 0) + v[i + 1:]
        return None

    def f(self, i, v):
        if v[i - 1] == 1 and v[i] == 0:
            return v[:i - 1] + (0, 1) + v[i + 1:]
        return None

    def eps(self, i, v):
        return 1 if (v[i - 1], v[i]) == (0, 1) else 0

    def phi(self, i, v):
        return 1 if (v[i - 1], v[i]) == (1, 0) else 0

    def canon(self, v) -> str:
        return "".join(str(b) for b in v)


@lru_cache(maxsize=None)
def fundamental_crystal(rank: int) -> FundamentalCrystal:
    return FundamentalCrystal(rank)


def subsets(rank: int, weight: int):
    """All 0/1 vectors of length rank with `weight` ones."""
    for support in combinations(range(rank), weight):
        v = [0] * rank
        for pos in support:
            v[pos] = 1
        yield tuple(v)


# ---------------------------------------------------------------------------
# row/column tensor words

def row_word(M: Matrix) -> tuple:
    """Rows top to bottom, each a 0/1 vector of length m."""
    return M


def col_word(M: Matrix) -> tuple:
    """Columns as 0/1 vectors of length n, in the order m, m-1, ..., 1.

    The reversed reading order is load-bearing: it is what makes the
    column structure's tie-breaking come out as "closest to m"."""
    n, m = dims(M)
    return tuple(tuple(M[r][c] for r in range(n)) for c in range(m - 1, -1, -1))


def matrix_from_row_word(word) -> Matrix:
    return tuple(word)


def matrix_from_col_word(word) -> Matrix:
    m = len(word)
    n = len(word[0])
    return tuple(tuple(word[m - 1 - c][r] for c in range(m)) for r in range(n))


def row_structure(M: Matrix) -> tuple[TensorCrystal, tuple]:
    n, m = dims(M)
    return tensor_crystal(*([fundamental_crystal(m)] * n)), row_word(M)


def col_structure(M: Matrix) -> tuple[TensorCrystal, tuple]:
    n, m = dims(M)
    return tensor_crystal(*([fundamental_crystal(n)] * m)), col_word(M)


# ---------------------------------------------------------------------------
# closed-formula operators

def row_eps_profile(M: Matrix, i: int) -> list[int]:
    """Per-row raising counts for columns (i, i+1): the row k term is
    [row k holds (0,1)] plus the count of (.,1) minus (.,0) pairs above."""
    prof = []
    acc = 0
    for row in M:
        delta = 1 if (row[i - 1], row[i]) == (0, 1) else 0
        prof.append(delta + acc)
        acc += row[i] - row[i - 1]
    return prof


def row_phi_profile(M: Matrix, i: int) -> list[int]:
    prof = []
    acc = 0
    for row in reversed(M):
        delta = 1 if (row[i - 1], row[i]) == (1, 0) else 0
        prof.append(delta + acc)
        acc += row[i - 1] - row[i]
    prof.reverse()
    return prof


def col_eps_profile(M: Matrix, j: int) -> list[int]:
    """Per-column raising counts for rows (j, j+1), indexed by column
    1..m: the column k term is [column k holds (0,1) downward] plus the
    count difference over the columns right of k."""
    top, bot = M[j - 1], M[j]
    prof = []
    acc = 0
    for k in range(len(top) - 1, -1, -1):
        delta = 1 if (top[k], bot[k]) == (0, 1) else 0
        prof.append(delta + acc)
        acc += bot[k] - top[k]
    prof.reverse()
    return prof


def col_phi_profile(M: Matrix, j: int) -> list[int]:
    top, bot = M[j - 1], M[j]
    prof = []
    acc = 0
    for k in range(len(top)):
        delta = 1 if (top[k], bot[k]) == (1, 0) else 0
        prof.append(delta + acc)
        acc += top[k] - bot[k]
    return prof


def _swap_in_row(M: Matrix, r: int, c: int, new_pair) -> Matrix:
    row = M[r]
    row = row[:c] + new_pair + row[c + 2:]
    return M[:r] + (row,) + M[r + 1:]


def _swap_in_col(M: Matrix, r: int, c: int, new_pair) -> Matrix:
    top = M[r][:c] + (new_pair[0],) + M[r][c + 1:]
    bot = M[r + 1][:c] + (new_pair[1],) + M[r + 1][c + 1:]
    return M[:r] + (top, bot) + M[r + 2:]


def _broken(op: str, index: int, M: Matrix, where: str):
    flat = "".join(str(v) for row in M for v in row)
    return ValueError(f"{op}_{index} found no movable one at its profile "
                      f"maximum ({where}) in {flat}")


def Re(M: Matrix, i: int):
    """Raising in the rank-m structure: act in the topmost row achieving
    the positive maximum of `row_eps_profile`, moving its one from column
    i+1 to i.  One top-down scan keeps the running sum and the argmax."""
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


def Ce(M: Matrix, j: int):
    """Raising in the rank-n structure: act in the column closest to m
    achieving the positive maximum of `col_eps_profile`, moving its one
    from row j+1 to j.  One right-to-left scan keeps the running sum and
    the argmax."""
    top, bot = M[j - 1], M[j]
    best, at, acc = 0, -1, 0
    for k in range(len(top) - 1, -1, -1):
        a, b = top[k], bot[k]
        value = acc + (b > a)
        if value > best:
            best, at = value, k
        acc += b - a
    if at < 0:
        return None
    if (top[at], bot[at]) != (0, 1):
        raise _broken("Ce", j, M, f"column {at + 1}")
    return _swap_in_col(M, j - 1, at, (1, 0))


def Cf(M: Matrix, j: int):
    """Lowering in the rank-n structure: column closest to 1 at the maximum
    of `col_phi_profile`, found by one left-to-right scan."""
    top, bot = M[j - 1], M[j]
    best, at, acc = 0, -1, 0
    for k in range(len(top)):
        a, b = top[k], bot[k]
        value = acc + (a > b)
        if value > best:
            best, at = value, k
        acc += a - b
    if at < 0:
        return None
    if (top[at], bot[at]) != (1, 0):
        raise _broken("Cf", j, M, f"column {at + 1}")
    return _swap_in_col(M, j - 1, at, (0, 1))


def Reps(M: Matrix, i: int) -> int:
    return max(0, max(row_eps_profile(M, i)))


def Rphi(M: Matrix, i: int) -> int:
    return max(0, max(row_phi_profile(M, i)))


def Ceps(M: Matrix, j: int) -> int:
    return max(0, max(col_eps_profile(M, j)))


def Cphi(M: Matrix, j: int) -> int:
    return max(0, max(col_phi_profile(M, j)))


# ---------------------------------------------------------------------------
# tensor-rule twins of the four operators

def Re_tensor(M: Matrix, i: int):
    crystal, word = row_structure(M)
    out = crystal.e(i, word)
    return None if out is None else matrix_from_row_word(out)


def Rf_tensor(M: Matrix, i: int):
    crystal, word = row_structure(M)
    out = crystal.f(i, word)
    return None if out is None else matrix_from_row_word(out)


def Ce_tensor(M: Matrix, j: int):
    crystal, word = col_structure(M)
    out = crystal.e(j, word)
    return None if out is None else matrix_from_col_word(out)


def Cf_tensor(M: Matrix, j: int):
    crystal, word = col_structure(M)
    out = crystal.f(j, word)
    return None if out is None else matrix_from_col_word(out)


# ---------------------------------------------------------------------------
# crystal models

class MatrixRowCrystal(Crystal):
    """The rank-m structure on n x m matrices (row word)."""

    def __init__(self, n: int, m: int):
        super().__init__(m)
        self.n, self.m = n, m

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
        return "".join(str(v) for row in M for v in row)


class MatrixColCrystal(Crystal):
    """The rank-n structure on n x m matrices (reversed column word)."""

    def __init__(self, n: int, m: int):
        super().__init__(n)
        self.n, self.m = n, m

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
        return "".join(str(v) for row in M for v in row)


@lru_cache(maxsize=None)
def matrix_row_crystal(n: int, m: int) -> MatrixRowCrystal:
    return MatrixRowCrystal(n, m)


@lru_cache(maxsize=None)
def matrix_col_crystal(n: int, m: int) -> MatrixColCrystal:
    return MatrixColCrystal(n, m)


# ---------------------------------------------------------------------------
# verifiers

def check_budget(n: int, m: int, N: int, budget: int = 10 ** 6,
                 force: bool = False) -> None:
    size = comb(n * m, N)
    if size > budget and not force:
        raise ValueError(
            f"instance ({n},{m},{N}) enumerates {size} matrices, over the "
            f"budget {budget}; pass force=True to run anyway")


def verify_commutation(n: int, m: int, N: int, budget: int = 10 ** 6,
                       force: bool = False) -> Report:
    """Exhaustively check that the two structures commute: each R operator
    preserves the C weight and all C eps/phi values and commutes with each
    C operator wherever both sides are defined, and symmetrically.
    """
    check_budget(n, m, N, budget, force)
    instance = {"n": n, "m": m, "N": N}
    checked = 0

    def bad(msg, M):
        flat = "".join(str(v) for row in M for v in row)
        return Report("commutation", instance, checked, "fail", f"{msg} at {flat}")

    for M in bit_matrices(n, m, N):
        for i in range(1, m):
            up = Re(M, i)
            dn = Rf(M, i)
            for target in (up, dn):
                if target is None:
                    continue
                checked += 1
                if col_weight(target) != col_weight(M):
                    return bad(f"R op at {i} moved the column-structure weight", M)
                for j in range(1, n):
                    if Ceps(target, j) != Ceps(M, j) or Cphi(target, j) != Cphi(M, j):
                        return bad(f"R op at {i} moved C eps/phi at {j}", M)
        for j in range(1, n):
            up = Ce(M, j)
            dn = Cf(M, j)
            for target in (up, dn):
                if target is None:
                    continue
                checked += 1
                if row_weight(target) != row_weight(M):
                    return bad(f"C op at {j} moved the row-structure weight", M)
                for i in range(1, m):
                    if Reps(target, i) != Reps(M, i) or Rphi(target, i) != Rphi(M, i):
                        return bad(f"C op at {j} moved R eps/phi at {i}", M)
        for i in range(1, m):
            for j in range(1, n):
                for rop, cop, tag in ((Re, Ce, "Re/Ce"), (Re, Cf, "Re/Cf"),
                                      (Rf, Ce, "Rf/Ce"), (Rf, Cf, "Rf/Cf")):
                    a = rop(M, i)
                    b = cop(M, j)
                    if a is None or b is None:
                        continue
                    checked += 1
                    if cop(a, j) != rop(b, i):
                        return bad(f"{tag} fail at ({i},{j})", M)
    return Report("commutation", instance, checked, "pass")


def verify_dual_implementation(n: int, m: int, N: int, budget: int = 10 ** 6,
                               force: bool = False) -> Report:
    """Closed formulas against the tensor rule, every operator and index,
    every matrix."""
    check_budget(n, m, N, budget, force)
    instance = {"n": n, "m": m, "N": N}
    checked = 0
    pairs_row = ((Re, Re_tensor, "Re"), (Rf, Rf_tensor, "Rf"))
    pairs_col = ((Ce, Ce_tensor, "Ce"), (Cf, Cf_tensor, "Cf"))
    for M in bit_matrices(n, m, N):
        flat = "".join(str(v) for row in M for v in row)
        for i in range(1, m):
            for closed, twin, tag in pairs_row:
                checked += 1
                if closed(M, i) != twin(M, i):
                    return Report("dual-implementation", instance, checked,
                                  "fail", f"{tag}_{i} differs at {flat}")
        for j in range(1, n):
            for closed, twin, tag in pairs_col:
                checked += 1
                if closed(M, j) != twin(M, j):
                    return Report("dual-implementation", instance, checked,
                                  "fail", f"{tag}_{j} differs at {flat}")
        rc, rw = row_structure(M)
        cc, cw = col_structure(M)
        for i in range(1, m):
            if Reps(M, i) != rc.eps(i, rw) or Rphi(M, i) != rc.phi(i, rw):
                return Report("dual-implementation", instance, checked, "fail",
                              f"R eps/phi at {i} differ at {flat}")
        for j in range(1, n):
            if Ceps(M, j) != cc.eps(j, cw) or Cphi(M, j) != cc.phi(j, cw):
                return Report("dual-implementation", instance, checked, "fail",
                              f"C eps/phi at {j} differ at {flat}")
    return Report("dual-implementation", instance, checked, "pass")


# ---------------------------------------------------------------------------
# serialization

def to_json(M: Matrix) -> str:
    n, m = dims(M)
    return json.dumps({"n": n, "m": m, "rows": [list(r) for r in M]})


def from_json(obj) -> Matrix:
    if isinstance(obj, str):
        obj = json.loads(obj)
    return bit_matrix(obj["rows"], n=obj.get("n"), m=obj.get("m"))


def to_text(M: Matrix) -> str:
    return "\n".join("".join(str(v) for v in row) for row in M)
