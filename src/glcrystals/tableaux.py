"""Semistandard Young tableaux with signature-rule Kashiwara operators.

A tableau is a tuple of row tuples with entries in 1..n; rows weakly
increase, columns strictly increase.  The rank n lives on the model, so the
same rows value can be read in any TableauCrystal(n) with n at least the
largest entry.
"""

import json
from bisect import bisect_left, bisect_right
from functools import lru_cache

from .base import (Partition, Weight, content, field, int_field, int_rows,
                   partition, ssyt_fillings)
from .core import Crystal, component

Rows = tuple[tuple[int, ...], ...]

# column marks of `signature`: the column holds i, i+1, or both
_MINUS, _PLUS = 1, 2


def ssyt(rows, rank: int | None = None) -> Rows:
    """Validate and freeze a semistandard tableau."""
    rows = int_rows(rows)
    shape_of(rows)  # validates weakly decreasing row lengths
    for r, row in enumerate(rows):
        if not row:
            raise ValueError("empty tableau row")
        for c, v in enumerate(row):
            if v < 1 or (rank is not None and v > rank):
                raise ValueError(f"entry {v} out of range at ({r + 1},{c + 1})")
            if c > 0 and row[c - 1] > v:
                raise ValueError(f"row {r + 1} not weakly increasing")
            if r > 0 and c < len(rows[r - 1]) and rows[r - 1][c] >= v:
                raise ValueError(f"column {c + 1} not strictly increasing")
    return rows


def shape_of(rows: Rows) -> Partition:
    return partition(len(row) for row in rows)


def signature(rows: Rows, i: int):
    """Column signature of rows for node i.

    Scanning columns left to right, a column holding i+1 contributes "+"
    and one holding i contributes "-", the "+" written first when both
    occur; adjacent "+-" pairs cancel until none remain.  Returns
    (eps, phi, e_col, f_col) where eps counts surviving "+", phi surviving
    "-", e_col is the 0-based column of the leftmost surviving "+" and
    f_col that of the rightmost surviving "-" (None when absent).

    Rows weakly increase, so in each row the i's fill one run of columns
    and the i+1's the next run; row r holds only entries >= r+1, so only
    the first i+1 rows can hold either.  A column holding both reads "+-"
    and cancels at once.
    """
    marks = [0] * len(rows[0]) if rows else []
    for row in rows[:i + 1]:
        lo = bisect_left(row, i)
        mid = bisect_left(row, i + 1, lo)
        hi = bisect_left(row, i + 2, mid)
        for c in range(lo, mid):
            marks[c] |= _MINUS
        for c in range(mid, hi):
            marks[c] |= _PLUS
    pluses: list[int] = []  # columns of the "+" not yet cancelled
    phi = 0
    f_col = None
    for c, mark in enumerate(marks):
        if mark == _PLUS:
            pluses.append(c)
        elif mark == _MINUS:
            if pluses:
                pluses.pop()
            else:
                phi += 1
                f_col = c
    return len(pluses), phi, (pluses[0] if pluses else None), f_col


def _replace(rows: Rows, col: int, old: int, new: int) -> Rows:
    for r, row in enumerate(rows):
        if col < len(row) and row[col] == old:
            changed = row[:col] + (new,) + row[col + 1:]
            return rows[:r] + (changed,) + rows[r + 1:]
    raise ValueError(f"no entry {old} in column {col + 1}")


def apply_e(rows: Rows, i: int) -> Rows | None:
    """Turn the i+1 of the leftmost unpaired "+" into an i, or None."""
    _, _, e_col, _ = signature(rows, i)
    if e_col is None:
        return None
    return _replace(rows, e_col, i + 1, i)


def apply_f(rows: Rows, i: int) -> Rows | None:
    """Turn the i of the rightmost unpaired "-" into an i+1, or None."""
    _, _, _, f_col = signature(rows, i)
    if f_col is None:
        return None
    return _replace(rows, f_col, i, i + 1)


def evacuate(rows: Rows, r: int) -> Rows:
    """Schutzenberger evacuation of the sub-tableau of entries at most r;
    larger entries stay in place.

    The entries at most r fill a straight shape.  Until it is empty: remove
    its (1,1) entry a, slide the hole out by jeu de taquin (the smaller of
    the entries right and below moves in, the one below on a tie, which
    keeps columns strict), shrink the shape by the outer corner the hole
    reaches and write r+1-a there.  The written boxes are the evacuated
    tableau.
    """
    grid = [list(row) for row in rows]
    # lengths[i] = boxes of row i still in the shrinking straight shape
    lengths = [bisect_right(row, r) for row in rows]
    depth = len(lengths)
    while lengths and lengths[0]:
        a = grid[0][0]
        i = j = 0
        while True:
            right = grid[i][j + 1] if j + 1 < lengths[i] else None
            below = (grid[i + 1][j]
                     if i + 1 < depth and j < lengths[i + 1] else None)
            if below is not None and (right is None or below <= right):
                grid[i][j] = below
                i += 1
            elif right is not None:
                grid[i][j] = right
                j += 1
            else:
                break
        lengths[i] -= 1
        grid[i][j] = r + 1 - a
    return tuple(tuple(row) for row in grid)


def highest_tableau(shape) -> Rows:
    """Row r filled with the entry r."""
    return tuple(tuple([r + 1] * w) for r, w in enumerate(partition(shape)))


class TableauCrystal(Crystal):
    """Tableaux with entries in 1..rank under the signature-rule operators."""

    def weight(self, b: Rows) -> Weight:
        return content(b, self.rank)

    def _check(self, i):
        if not 1 <= i <= self.rank - 1:
            raise ValueError(f"node {i} out of range for rank {self.rank}")

    def e(self, i, b):
        self._check(i)
        return apply_e(b, i)

    def f(self, i, b):
        self._check(i)
        return apply_f(b, i)

    def eps(self, i, b):
        self._check(i)
        return signature(b, i)[0]

    def phi(self, i, b):
        self._check(i)
        return signature(b, i)[1]

    def interval_involution(self, b, nodes):
        """Local route: s[1,q] is the evacuation of the entries at most q,
        and s[p,q] = s[1,q] s[1,q-p+1] s[1,q]."""
        nodes = tuple(nodes)
        if not nodes:
            return b
        p, q = nodes[0], nodes[-1] + 1
        if nodes != tuple(range(p, q)):
            raise ValueError(f"nodes {nodes} do not form one interval")
        self._check(p)
        self._check(q - 1)
        if p == 1:
            return evacuate(b, q)
        return evacuate(evacuate(evacuate(b, q), q - p + 1), q)

    def canon(self, b) -> str:
        return "/".join(",".join(str(v) for v in row) for row in b)


@lru_cache(maxsize=None)
def tableau_crystal(rank: int) -> TableauCrystal:
    return TableauCrystal(rank)


def enumerate_b_lambda(shape, rank: int, cross_check: bool = False) -> list[Rows]:
    """The semistandard tableaux of `shape` with entries in 1..rank, by
    backtracking over fillings, sorted by canonical string.

    With cross_check=True, check that they form one connected crystal: the
    component of the highest tableau, walked in a model of its own so that
    no edge record outlives the check, must be exactly this set (the walk
    itself raises unless it has one highest and one lowest element).
    """
    shape = partition(shape)
    if len(shape) > rank:
        raise ValueError(f"shape {shape} needs more than {rank} rows")
    model = TableauCrystal(rank)
    fillings = sorted(ssyt_fillings(shape, rank), key=model.canon)
    if cross_check and shape:
        closure = component(model, highest_tableau(shape), model.nodes()).elements
        if closure != set(fillings):
            raise AssertionError(
                f"operator closure has {len(closure)} tableaux, backtracking "
                f"{len(fillings)}, for shape {shape} rank {rank}")
    return fillings


# ---------------------------------------------------------------------------
# serialization

def to_json(rows: Rows, rank: int) -> str:
    return json.dumps({"rank": rank, "rows": [list(r) for r in rows]})


def from_json(obj) -> tuple[Rows, int]:
    if isinstance(obj, str):
        obj = json.loads(obj)
    rank = int_field(obj, "rank")
    return ssyt(field(obj, "rows"), rank), rank


def pretty(rows: Rows) -> str:
    """One row per line, entries padded to equal width."""
    if not rows:
        return "(empty)"
    width = max(len(str(v)) for row in rows for v in row)
    return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in rows)
