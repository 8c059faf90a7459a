"""Tensor products of crystals of a common rank.

An element is a plain tuple of factor elements; the factor models are held
by the TensorCrystal.  Factors may be of different kinds (tableaux, 0/1
vectors, nested tensors) as long as all share one rank.
"""

import json
from functools import lru_cache

from .base import Weight, field, int_field, int_rows, pairing
from .core import Crystal


class TensorCrystal(Crystal):
    """Multi-factor tensor crystal over factor models of one rank."""

    def __init__(self, factors: tuple[Crystal, ...]):
        if not factors:
            raise ValueError("need at least one factor")
        rank = factors[0].rank
        if any(c.rank != rank for c in factors):
            raise ValueError("factors must share a rank")
        super().__init__(rank)
        self.factors = factors

    def weight(self, t) -> Weight:
        total = [0] * self.rank
        for model, b in zip(self.factors, t):
            for k, v in enumerate(model.weight(b)):
                total[k] += v
        return tuple(total)

    def profiles(self, i: int, t):
        """Both per-position profiles.  Position k of the eps profile
        carries eps_i of its factor, discounted by the coroot pairing of the
        weight to its left; position k of the phi profile carries phi_i of
        its factor, boosted by the coroot pairing of the weight to its
        right.  The overall eps/phi are their maxima floored at zero; e acts
        at the smallest position achieving the eps maximum, f at the
        largest achieving the phi maximum.  The operators read the same
        values in one scan each, without the lists.
        """
        eps_prof = []
        left = 0
        for model, b in zip(self.factors, t):
            eps_prof.append(model.eps(i, b) - left)
            left += pairing(model.weight(b), i)
        phi_prof = []
        right = 0
        for model, b in zip(reversed(self.factors), reversed(t)):
            phi_prof.append(model.phi(i, b) + right)
            right += pairing(model.weight(b), i)
        phi_prof.reverse()
        return eps_prof, phi_prof

    def _eps_max(self, i: int, t) -> tuple[int, int]:
        """(eps maximum floored at zero, its smallest position or -1), in
        one left-to-right scan."""
        best, at, left, k = 0, -1, 0, 0
        for model, b in zip(self.factors, t):
            value = model.eps(i, b) - left
            if value > best:
                best, at = value, k
            w = model.weight(b)
            left += w[i - 1] - w[i]      # pairing(w, i), inlined
            k += 1
        return best, at

    def _phi_max(self, i: int, t) -> tuple[int, int]:
        """(phi maximum floored at zero, its largest position or -1), in
        one right-to-left scan."""
        best, at, right, k = 0, -1, 0, len(t)
        for model, b in zip(reversed(self.factors), reversed(t)):
            k -= 1
            value = model.phi(i, b) + right
            if value > best:
                best, at = value, k
            w = model.weight(b)
            right += w[i - 1] - w[i]     # pairing(w, i), inlined
        return best, at

    def eps(self, i, t):
        return self._eps_max(i, t)[0]

    def phi(self, i, t):
        return self._phi_max(i, t)[0]

    def e(self, i, t):
        s = self._eps_max(i, t)[1]
        if s < 0:
            return None
        x = self.factors[s].e(i, t[s])
        if x is None:
            raise ValueError(f"broken factor: e_{i} vanished at the eps maximum")
        return t[:s] + (x,) + t[s + 1:]

    def f(self, i, t):
        s = self._phi_max(i, t)[1]
        if s < 0:
            return None
        x = self.factors[s].f(i, t[s])
        if x is None:
            raise ValueError(f"broken factor: f_{i} vanished at the phi maximum")
        return t[:s] + (x,) + t[s + 1:]

    def canon(self, t) -> str:
        return "[" + "|".join(model.canon(b)
                              for model, b in zip(self.factors, t)) + "]"


@lru_cache(maxsize=None)
def tensor_crystal(*factors: Crystal) -> TensorCrystal:
    """One shared instance per factor sequence.  No verifier sweep
    transports an involution on a tensor crystal: the sharing serves
    `matrices.row_structure`, which every matrix profile reads, and
    `cactus.outer_act`, whose block involutions keep their edge records in
    the shared block model between calls."""
    return TensorCrystal(tuple(factors))


def element_to_json(crystal: Crystal, b) -> dict:
    """Model-tagged JSON for a (possibly nested tensor) element."""
    from .matrices import FundamentalCrystal
    from .tableaux import TableauCrystal
    if isinstance(crystal, TensorCrystal):
        return {"model": "tensor",
                "factors": [element_to_json(m, x)
                            for m, x in zip(crystal.factors, b)]}
    if isinstance(crystal, TableauCrystal):
        return {"model": "tableau", "rank": crystal.rank,
                "rows": [list(r) for r in b]}
    if isinstance(crystal, FundamentalCrystal):
        return {"model": "fundamental", "rank": crystal.rank, "bits": list(b)}
    raise ValueError(f"no JSON form for {type(crystal).__name__}")


def element_from_json(obj) -> tuple[Crystal, object]:
    """Rebuild (model, element) from the tagged JSON form."""
    from .matrices import fundamental_crystal
    from .tableaux import ssyt, tableau_crystal
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a model-tagged object, got {obj!r}")
    tag = field(obj, "model")
    if tag == "tensor":
        factors = field(obj, "factors")
        if not isinstance(factors, list):
            raise ValueError(f"tensor factors must be a list, got {factors!r}")
        pairs = [element_from_json(f) for f in factors]
        crystal = tensor_crystal(*(m for m, _ in pairs))
        return crystal, tuple(x for _, x in pairs)
    if tag == "tableau":
        rank = int_field(obj, "rank")
        return tableau_crystal(rank), ssyt(field(obj, "rows"), rank)
    if tag == "fundamental":
        rank = int_field(obj, "rank")
        bits = int_rows([field(obj, "bits")])[0]
        if len(bits) != rank or any(v not in (0, 1) for v in bits):
            raise ValueError(f"bad 0/1 vector {bits} for rank {rank}")
        return fundamental_crystal(rank), bits
    raise ValueError(f"unknown model tag {tag!r}")
