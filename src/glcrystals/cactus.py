"""Cactus words and their two actions.

A word of rank k is a sequence of interval generators s[p,q]; the inner
action applies, generator by generator, the Schutzenberger involution of the
restriction to nodes {p, ..., q-1}; the outer action on a tensor product
flips the factor block p..q, applies the full involution to each factor, and
then the full involution of the block tensor crystal.  Generators act left
to right in word order.

Words are never normalized; equality of words is only ever observed through
their actions.
"""

import re
from dataclasses import dataclass
from functools import cache

from .base import (DynkinInterval, Permutation, intervals, perm_compose,
                   perm_identity, theta_interval, weyl_longest)
from .core import (Crystal, Report, kashiwara_reflection, schuetzenberger)
from .tensor import TensorCrystal, tensor_crystal


@dataclass(frozen=True)
class CactusWord:
    rank: int
    generators: tuple[DynkinInterval, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.rank != self.rank:
                raise ValueError(f"generator {g} has rank {g.rank}, word has {self.rank}")

    def __str__(self):
        return " ".join(str(g) for g in self.generators)


def word(rank: int, *pq_pairs) -> CactusWord:
    return CactusWord(rank, tuple(DynkinInterval(p, q, rank) for p, q in pq_pairs))


_GEN = re.compile(r"s\[(\d+),(\d+)\]")


def parse_word(text: str, rank: int) -> CactusWord:
    """Parse generator syntax like "s[1,3] s[2,4]" (whitespace separated)."""
    gens = []
    rest = text.strip()
    while rest:
        match = _GEN.match(rest)
        if not match:
            raise ValueError(f"cannot parse cactus word at: {rest!r}")
        gens.append(DynkinInterval(int(match.group(1)), int(match.group(2)), rank))
        rest = rest[match.end():].lstrip()
    return CactusWord(rank, tuple(gens))


def inner_act(w: CactusWord, crystal: Crystal, b):
    """Apply each generator as the partial Schutzenberger involution, by the
    model's `interval_involution` (evacuation on tableaux and on patterns,
    edge transport otherwise)."""
    if w.rank != crystal.rank:
        raise ValueError(f"word rank {w.rank} != crystal rank {crystal.rank}")
    for g in w.generators:
        b = crystal.interval_involution(b, g.nodes)
    return b


def xi_full(crystal: Crystal, b):
    """Full Schutzenberger involution (all nodes; identity for rank 1)."""
    return schuetzenberger(crystal, b, crystal.nodes())


def outer_act(w: CactusWord, crystal: TensorCrystal, t):
    """Act on a tensor element; the factor models permute along, so the
    result is a (crystal, element) pair.

    Each generator s[p,q] replaces the factor block b_p .. b_q by the full
    involution, in the reversed block tensor crystal, of
    (xi(b_q), ..., xi(b_p)).
    """
    if w.rank != len(crystal.factors):
        raise ValueError(
            f"word rank {w.rank} != number of tensor factors {len(crystal.factors)}")
    for g in w.generators:
        p, q = g.p, g.q
        block_models = crystal.factors[p - 1:q][::-1]
        block = tuple(xi_full(model, x)
                      for model, x in zip(block_models, t[p - 1:q][::-1]))
        block_crystal = tensor_crystal(*block_models)
        block = xi_full(block_crystal, block)
        t = t[:p - 1] + block + t[q:]
        crystal = tensor_crystal(*(crystal.factors[:p - 1] + block_models
                                   + crystal.factors[q:]))
    return crystal, t


def weyl_image(w: CactusWord) -> Permutation:
    """Image under the surjection sending each generator to the block
    reversal of positions p..q; generators compose left to right."""
    acc = perm_identity(w.rank)
    for g in w.generators:
        acc = perm_compose(weyl_longest(g), acc)
    return acc


# ---------------------------------------------------------------------------
# relation verifiers

def _act_word(node_sets, crystal, b):
    """Act by edge transport on purpose, not through `inner_act`: the
    relations are then checked on an involution computed independently of
    any local formula the model overrides `interval_involution` with."""
    for nodes in node_sets:
        b = schuetzenberger(crystal, b, nodes)
    return b


def verify_cactus_relations(crystal: Crystal, elements) -> Report:
    """Pointwise defining relations on an element set: every generator is an
    involution; for nested intervals the outer generator twists the inner
    one by its diagram involution; generators of disconnected intervals
    commute.
    """
    instance = {"rank": crystal.rank, "size": len(elements)}
    gens = intervals(crystal.rank)
    squares = [(g, (g.nodes, g.nodes)) for g in gens]
    # (left word, right word, witness prefix) of every relation between two
    # generators, in the order g, h of the nested loops over `gens`
    pairs = []
    for g in gens:
        for h in gens:
            if g.p <= h.p and h.q <= g.q and (g.p, g.q) != (h.p, h.q):
                pairs.append(((g.nodes, h.nodes),
                              (theta_interval(g, h).nodes, g.nodes),
                              f"nested relation {g},{h} fails at "))
            elif g.q < h.p or h.q < g.p:
                pairs.append(((g.nodes, h.nodes), (h.nodes, g.nodes),
                              f"disjoint generators {g},{h} do not commute at "))
    checked = 0
    for b in elements:
        for g, square in squares:
            checked += 1
            if _act_word(square, crystal, b) != b:
                return Report("cactus-relations", instance, checked, "fail",
                              f"{g} not an involution at {crystal.canon(b)}")
        for lhs, rhs, witness in pairs:
            checked += 1
            if _act_word(lhs, crystal, b) != _act_word(rhs, crystal, b):
                return Report("cactus-relations", instance, checked, "fail",
                              witness + crystal.canon(b))
    return Report("cactus-relations", instance, checked, "pass")


def verify_reduced_braid(crystal: Crystal, elements) -> Report:
    """Pointwise braid relations for the single-node reflections: squares
    vanish, adjacent nodes satisfy the order-3 relation, distant nodes
    commute.

    Each (node, element) pair is reflected once per call through a
    `functools.cache` made inside the call, the first time a check reads
    it; the cache is freed when the call returns."""
    instance = {"rank": crystal.rank, "size": len(elements)}
    k = crystal.rank
    checked = 0

    @cache
    def refl(i, b):
        return kashiwara_reflection(crystal, b, i)

    for b in elements:
        for i in range(1, k):
            checked += 1
            if refl(i, refl(i, b)) != b:
                return Report("braid", instance, checked, "fail",
                              f"s_{i} squared != id at {crystal.canon(b)}")
        for i in range(1, k - 1):
            checked += 1
            x = b
            for _ in range(3):
                x = refl(i + 1, refl(i, x))
            if x != b:
                return Report("braid", instance, checked, "fail",
                              f"(s_{i} s_{i + 1})^3 != id at {crystal.canon(b)}")
        for i in range(1, k):
            for j in range(i + 2, k):
                checked += 1
                if refl(j, refl(i, b)) != refl(i, refl(j, b)):
                    return Report("braid", instance, checked, "fail",
                                  f"s_{i}, s_{j} do not commute at {crystal.canon(b)}")
    return Report("braid", instance, checked, "pass")
