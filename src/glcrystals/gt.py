"""Gelfand-Tsetlin patterns, their tableau bijection, and the
Berenstein-Kirillov moves.

A pattern of rank n is stored top row first: rows[0] has length n and
rows[k] has length n-k, every row weakly decreasing and interlacing the row
above.  Row j (of length j, counted from the bottom) is rows[n-j].
"""

import json
from bisect import bisect_right
from functools import cache, lru_cache

from .base import (Weight, field, int_field, int_rows, interlacing_rows,
                   intervals, partition)
from .core import Crystal, Report, run_checks, schuetzenberger
from .tableaux import Rows, ssyt, tableau_crystal

Pattern = tuple[tuple[int, ...], ...]


def gt_pattern(rows) -> Pattern:
    """Validate and freeze a triangular interlacing array."""
    rows = int_rows(rows)
    n = len(rows)
    for k, row in enumerate(rows):
        if len(row) != n - k:
            raise ValueError(f"row {k} has length {len(row)}, wanted {n - k}")
        if any(v < 0 for v in row):
            raise ValueError("negative entry")
    for k in range(n - 1):
        upper, lower = rows[k], rows[k + 1]
        for i, v in enumerate(lower):
            if not upper[i] >= v >= upper[i + 1]:
                raise ValueError(
                    f"interlacing fails at row {k + 1}, entry {i + 1}")
    return rows


def rank_of(x: Pattern) -> int:
    return len(x)


def row_bottom_up(x: Pattern, j: int) -> tuple[int, ...]:
    """The length-j row (j = 1 is the single bottom entry)."""
    return x[rank_of(x) - j]


def beta(x: Pattern) -> Weight:
    """Consecutive row-sum differences, bottom row first."""
    n = rank_of(x)
    sums = [sum(row_bottom_up(x, j)) for j in range(1, n + 1)]
    return tuple(s - p for s, p in zip(sums, [0] + sums[:-1]))


def gt_to_tableau(x: Pattern) -> Rows:
    """Tableau whose entries at most j fill the shape given by row j."""
    n = rank_of(x)
    out: list[list[int]] = []
    prev = ()
    for j in range(1, n + 1):
        shape = row_bottom_up(x, j)
        for r, width in enumerate(shape):
            if width == 0:
                break
            if r >= len(out):
                out.append([])
            before = prev[r] if r < len(prev) else 0
            out[r].extend([j] * (width - before))
        prev = shape
    return ssyt(out, n)


def tableau_to_gt(rows: Rows, rank: int) -> Pattern:
    """Inverse bijection: row j records the shape of the entries at most j.
    Rows weakly increase, so those entries are a prefix of each row."""
    out = []
    for j in range(rank, 0, -1):
        shape = [bisect_right(row, j) for row in rows[:j]]
        out.append(tuple(shape) + (0,) * (j - len(shape)))
    return gt_pattern(out)


def bk_move(x: Pattern, j: int) -> Pattern:
    """Elementary toggle of row j: every entry becomes
    min(larger neighbours) + max(smaller neighbours) - entry, where
    neighbours live in the rows directly above and below and missing ones
    are simply left out of the min/max.
    """
    n = rank_of(x)
    if not 1 <= j <= n - 1:
        raise ValueError(f"move index {j} out of range for rank {n}")
    row = row_bottom_up(x, j)
    above = row_bottom_up(x, j + 1)
    below = row_bottom_up(x, j - 1) if j >= 2 else ()
    new = []
    for i in range(1, j + 1):
        uppers = [above[i - 1]]
        if i >= 2:
            uppers.append(below[i - 2])
        lowers = [above[i]]
        if i <= j - 1:
            lowers.append(below[i - 1])
        new.append(min(uppers) + max(lowers) - row[i - 1])
    k = n - j
    return x[:k] + (tuple(new),) + x[k + 1:]


def bk_q(x: Pattern, i: int) -> Pattern:
    """Composite toggle t_1, then t_2 t_1, ..., ending t_i ... t_1,
    applied in that order."""
    n = rank_of(x)
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range for rank {n}")
    for block in range(1, i + 1):
        for j in range(block, 0, -1):
            x = bk_move(x, j)
    return x


def patterns_with_top(lam, n: int):
    """All patterns of rank n whose top row is lam (padded with zeros)."""
    lam = partition(lam)
    if len(lam) > n:
        raise ValueError(f"top row {lam} too long for rank {n}")
    top = lam + (0,) * (n - len(lam))

    def rec(upper):
        if len(upper) == 1:
            yield (upper,)
            return
        for lower in interlacing_rows(upper):
            for rest in rec(lower):
                yield (upper,) + rest

    if n == 0:
        yield ()
        return
    yield from rec(top)


class PatternCrystal(Crystal):
    """Patterns with operators conjugated through the tableau bijection."""

    def __init__(self, rank: int):
        super().__init__(rank)
        self._tab = tableau_crystal(rank)

    def weight(self, x) -> Weight:
        return beta(x)

    def _lift(self, out):
        return None if out is None else tableau_to_gt(out, self.rank)

    def e(self, i, x):
        return self._lift(self._tab.e(i, gt_to_tableau(x)))

    def f(self, i, x):
        return self._lift(self._tab.f(i, gt_to_tableau(x)))

    def interval_involution(self, x, nodes):
        """Local route: the tableau model's evacuation, conjugated through
        the tableau bijection."""
        t = self._tab.interval_involution(gt_to_tableau(x), nodes)
        return tableau_to_gt(t, self.rank)

    def canon(self, x) -> str:
        return "/".join(",".join(str(v) for v in row) for row in x)


@lru_cache(maxsize=None)
def pattern_crystal(rank: int) -> PatternCrystal:
    return PatternCrystal(rank)


def check_cgp_homomorphism(lam, n: int) -> Report:
    """Pointwise check, on all patterns with top row lam, that the interval
    generator for nodes {i, ..., j-1} acts (through the tableau bijection)
    exactly as the composite q_{j-1} q_{j-i} q_{j-1} of pattern toggles.

    The generator is computed by edge transport, not by the tableau model's
    evacuation, so the toggles are checked against an independent route.
    Each (pattern, index) toggle is computed once per call through a
    `functools.cache` made inside the call; the cache is freed when the
    call returns, so a replaced `bk_q` takes effect on the next one.
    """
    lam = partition(lam)
    instance = {"lam": list(lam), "n": n}
    model = tableau_crystal(n)
    pool = [(x, gt_to_tableau(x)) for x in patterns_with_top(lam, n)]
    toggle = cache(bk_q)
    return run_checks(
        "cgp-homomorphism", instance,
        (None if tableau_to_gt(schuetzenberger(model, t, g.nodes), n) ==
         toggle(toggle(toggle(x, g.q - 1), g.q - g.p), g.q - 1) else
         f"{g} disagrees with q{g.q - 1} q{g.q - g.p} q{g.q - 1} at {x}"
         for g in intervals(n) for x, t in pool))


# ---------------------------------------------------------------------------
# serialization

def to_json(x: Pattern) -> str:
    return json.dumps({"rank": rank_of(x), "rows": [list(r) for r in x]})


def from_json(obj) -> Pattern:
    if isinstance(obj, str):
        obj = json.loads(obj)
    x = gt_pattern(field(obj, "rows"))
    if "rank" in obj and int_field(obj, "rank") != rank_of(x):
        raise ValueError("rank field disagrees with row count")
    return x


def pretty(x: Pattern) -> str:
    """Centered triangular display, top row first."""
    if not x:
        return "(empty)"
    width = max(len(str(v)) for row in x for v in row)
    lines = []
    for k, row in enumerate(x):
        pad = " " * ((width + 1) * k // 2)
        lines.append(pad + " ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines)
