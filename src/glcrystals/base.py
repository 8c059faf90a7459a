"""Shared exact combinatorics: strict integer rows and fields for input,
partitions, integer weight vectors, type-A Dynkin intervals with their
diagram involution, block-reversal permutations, semistandard fillings,
Gelfand-Tsetlin patterns by interlacing, Weyl's dimension formula and a
brute-force Schur oracle.

Node indices are 1-based throughout: the Dynkin diagram of gl_k has nodes
{1, ..., k-1} and the interval written (p, q) covers nodes {p, ..., q-1}.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import product

Partition = tuple[int, ...]
Weight = tuple[int, ...]
Permutation = tuple[int, ...]  # one-line notation, 1-based values


# ---------------------------------------------------------------------------
# input

def int_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Freeze a list of integer lists.  Entries must be ints, not bools:
    `int()` would read 1.9 as 1 and the row "01" as (0, 1) without a word."""
    if not isinstance(rows, (list, tuple)):
        raise ValueError(f"expected a list of rows, got {rows!r}")
    for row in rows:
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"expected a row of integers, got {row!r}")
        for v in row:
            if type(v) is not int:
                raise ValueError(f"entry {v!r} is not an integer")
    return tuple(map(tuple, rows))


def field(obj: dict, name: str):
    """The field `name` of a JSON input object; a missing field is bad input
    named as such, not a bare KeyError."""
    try:
        return obj[name]
    except KeyError:
        raise ValueError(f"input has no {name!r} field") from None


def int_field(obj: dict, name: str) -> int:
    """An integer field of a JSON input object.  Like the entries of
    `int_rows`, the value must be an int, not a bool: `int()` would read
    2.9 as 2 and fail on null with a TypeError."""
    value = field(obj, name)
    if type(value) is not int:
        raise ValueError(f"field {name!r} is not an integer: {value!r}")
    return value


# ---------------------------------------------------------------------------
# partitions

def partition(parts) -> Partition:
    """Normalize to a weakly decreasing tuple of ints with no trailing zeros."""
    out = tuple(int(p) for p in parts)
    for a, b in zip(out, out[1:]):
        if a < b:
            raise ValueError(f"parts not weakly decreasing: {out}")
    if out and out[-1] < 0:
        raise ValueError(f"negative part: {out}")
    while out and out[-1] == 0:
        out = out[:-1]
    return out


def transpose(lam) -> Partition:
    """Conjugate partition (column lengths of the Young diagram)."""
    lam = partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0]))


def partitions_in_box(rows: int, cols: int, size: int):
    """All partitions of `size` fitting in a rows x cols box."""
    def rec(remaining, max_part, max_len):
        if remaining == 0:
            yield ()
            return
        if max_len == 0:
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in rec(remaining - first, first, max_len - 1):
                yield (first,) + rest
    yield from rec(size, cols, rows)


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated part list such as "5,3,1" (empty string = ())."""
    text = text.strip()
    if not text:
        return ()
    return partition(int(tok) for tok in text.split(","))


def format_partition(lam) -> str:
    return ",".join(str(p) for p in partition(lam))


# ---------------------------------------------------------------------------
# weights

def pairing(weight: Weight, i: int) -> int:
    """<weight, coroot of node i> = weight[i] - weight[i+1], 1-based i."""
    return weight[i - 1] - weight[i]


def add_root(weight: Weight, i: int, sign: int) -> Weight:
    """weight + sign * (simple root of node i)."""
    out = list(weight)
    out[i - 1] += sign
    out[i] -= sign
    return tuple(out)


def format_weight(w: Weight) -> str:
    return "[" + ",".join(str(x) for x in w) + "]"


# ---------------------------------------------------------------------------
# Dynkin intervals and the longest-element involution

@dataclass(frozen=True)
class DynkinInterval:
    """Connected type-A subdiagram: nodes {p, ..., q-1} inside rank `rank`."""
    p: int
    q: int
    rank: int

    def __post_init__(self):
        if not (1 <= self.p < self.q <= self.rank):
            raise ValueError(f"need 1 <= p < q <= rank, got {self}")

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(range(self.p, self.q))

    def __str__(self):
        return f"s[{self.p},{self.q}]"


def intervals(rank: int):
    """All connected subdiagram intervals of gl_rank."""
    return [DynkinInterval(p, q, rank)
            for p in range(1, rank) for q in range(p + 1, rank + 1)]


def theta_on_nodes(nodes: tuple[int, ...], i: int) -> int:
    """Diagram involution of the nodes p..q-1 of s[p,q]: i maps to p+q-1-i."""
    return nodes[0] + nodes[-1] - i


def theta_interval(outer: DynkinInterval, inner: DynkinInterval) -> DynkinInterval:
    """Image of a nested interval under the outer interval's involution."""
    if not (outer.p <= inner.p and inner.q <= outer.q):
        raise ValueError(f"{inner} not nested in {outer}")
    s = outer.p + outer.q
    return DynkinInterval(s - inner.q, s - inner.p, outer.rank)


def weyl_longest(interval: DynkinInterval) -> Permutation:
    """Longest element of the interval's Weyl group: reverses positions p..q."""
    p, q = interval.p, interval.q
    return tuple(p + q - i if p <= i <= q else i
                 for i in range(1, interval.rank + 1))


def perm_identity(k: int) -> Permutation:
    return tuple(range(1, k + 1))


def perm_compose(after: Permutation, before: Permutation) -> Permutation:
    """Composite permutation applying `before` first."""
    return tuple(after[b - 1] for b in before)


# ---------------------------------------------------------------------------
# semistandard fillings, Gelfand-Tsetlin patterns and the Schur oracle
# (no crystal code involved)

def ssyt_fillings(shape, rank: int):
    """Yield every semistandard filling of `shape` with entries in 1..rank,
    as a tuple of row tuples, by direct backtracking.
    """
    shape = partition(shape)
    if len(shape) > rank:
        return
    if not shape:
        yield ()
        return
    rows = [[0] * r for r in shape]
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]

    def rec(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in rows)
            return
        r, c = cells[k]
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0 and c < shape[r - 1]:
            lo = max(lo, rows[r - 1][c] + 1)
        for v in range(lo, rank + 1):
            rows[r][c] = v
            yield from rec(k + 1)
        rows[r][c] = 0

    yield from rec(0)


def content(rows, rank: int) -> Weight:
    """Occurrence counts of 1..rank in a filling."""
    counts = [0] * rank
    for row in rows:
        for v in row:
            counts[v - 1] += 1
    return tuple(counts)


def interlacing_rows(upper):
    """Every row one shorter than `upper` that interlaces it, as tuples:
    upper[i] >= lower[i] >= upper[i + 1].  Interlacing alone keeps a row
    weakly decreasing."""
    return product(*[range(upper[i + 1], upper[i] + 1)
                     for i in range(len(upper) - 1)])


def schur_bruteforce(shape, rank: int) -> Counter:
    """Weight multiset of the semistandard tableaux of `shape` in 1..rank,
    by the branching rule: the Gelfand-Tsetlin patterns with top row
    `shape`, one weight each, its entry j the sum of the length-j row less
    that of the row below.  The weights below each row are counted once
    per call, however many rows above interlace it.  Empty when the shape
    has more than `rank` rows.

    Independent oracle for crystal characters: it reads neither tableau
    fillings nor their `content`, and never touches crystal operators.
    """
    shape = partition(shape)
    if len(shape) > rank:
        return Counter()
    if rank == 0:
        return Counter({(): 1})

    @cache
    def below(row) -> Counter:
        # weights of the patterns whose top row is `row`
        if len(row) == 1:
            return Counter({row: 1})
        out = Counter()
        size = sum(row)
        for lower in interlacing_rows(row):
            step = size - sum(lower)
            for w, c in below(lower).items():
                out[w + (step,)] += c
        return out

    return below(shape + (0,) * (rank - len(shape)))


def weyl_dimension(shape, rank: int) -> int:
    """Number of semistandard tableaux of `shape` in 1..rank (and of
    patterns with top row `shape`), by Weyl's dimension formula: the
    product over i < j of (l_i - l_j + j - i) / (j - i), l the shape padded
    to `rank` parts.  0 when the shape has more than `rank` rows."""
    shape = partition(shape)
    if len(shape) > rank:
        return 0
    lam = shape + (0,) * (rank - len(shape))
    num = den = 1
    for i in range(rank):
        for j in range(i + 1, rank):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den
