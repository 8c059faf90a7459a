"""Tensor products of crystals of a common rank.

An element is a plain tuple of factor elements; the factor models are held
by the TensorCrystal.  Factors may be of different kinds (tableaux, 0/1
vectors, nested tensors) as long as all share one rank.
"""

import json
from functools import lru_cache

from .base import Weight, pairing
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

    def _eps_profile(self, i: int, t) -> list[int]:
        """Per-position raising counts: position k carries eps_i of its
        factor, discounted by the coroot pairing of the weight to its
        left."""
        prof = []
        left = 0
        for model, b in zip(self.factors, t):
            prof.append(model.eps(i, b) - left)
            left += pairing(model.weight(b), i)
        return prof

    def _phi_profile(self, i: int, t) -> list[int]:
        """Per-position lowering counts: position k carries phi_i of its
        factor, boosted by the coroot pairing of the weight to its right."""
        prof = []
        right = 0
        for model, b in zip(reversed(self.factors), reversed(t)):
            prof.append(model.phi(i, b) + right)
            right += pairing(model.weight(b), i)
        prof.reverse()
        return prof

    def profiles(self, i: int, t):
        """Both profiles.  The overall eps/phi are their maxima floored at
        zero; e acts at the smallest position achieving the eps maximum, f
        at the largest achieving the phi maximum.  Each operator builds
        only the side it reads.
        """
        return self._eps_profile(i, t), self._phi_profile(i, t)

    def eps(self, i, t):
        return max(0, max(self._eps_profile(i, t)))

    def phi(self, i, t):
        return max(0, max(self._phi_profile(i, t)))

    def e(self, i, t):
        prof = self._eps_profile(i, t)
        best = max(prof)
        if best <= 0:
            return None
        s = prof.index(best)
        x = self.factors[s].e(i, t[s])
        if x is None:
            raise ValueError(f"broken factor: e_{i} vanished at the eps maximum")
        return t[:s] + (x,) + t[s + 1:]

    def f(self, i, t):
        prof = self._phi_profile(i, t)
        best = max(prof)
        if best <= 0:
            return None
        s = len(prof) - 1 - prof[::-1].index(best)
        x = self.factors[s].f(i, t[s])
        if x is None:
            raise ValueError(f"broken factor: f_{i} vanished at the phi maximum")
        return t[:s] + (x,) + t[s + 1:]

    def canon(self, t) -> str:
        return "[" + "|".join(model.canon(b)
                              for model, b in zip(self.factors, t)) + "]"


@lru_cache(maxsize=None)
def tensor_crystal(*factors: Crystal) -> TensorCrystal:
    """Shared instance per factor sequence, so involution caches accumulate
    across sweeps."""
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
    tag = obj["model"]
    if tag == "tensor":
        pairs = [element_from_json(f) for f in obj["factors"]]
        crystal = tensor_crystal(*(m for m, _ in pairs))
        return crystal, tuple(x for _, x in pairs)
    if tag == "tableau":
        rank = int(obj["rank"])
        return tableau_crystal(rank), ssyt(obj["rows"], rank)
    if tag == "fundamental":
        rank = int(obj["rank"])
        bits = tuple(int(v) for v in obj["bits"])
        if len(bits) != rank or any(v not in (0, 1) for v in bits):
            raise ValueError(f"bad 0/1 vector {bits} for rank {rank}")
        return fundamental_crystal(rank), bits
    raise ValueError(f"unknown model tag {tag!r}")
