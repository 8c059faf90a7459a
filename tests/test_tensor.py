import json
from itertools import product

import pytest

from glcrystals.base import pairing
from glcrystals.core import character, check_crystal_axioms, component
from glcrystals.matrices import (FundamentalCrystal, bit_matrices,
                                 col_structure, fundamental_crystal,
                                 row_structure)
from glcrystals.tableaux import enumerate_b_lambda, highest_tableau, tableau_crystal
from glcrystals.tensor import (element_from_json, element_to_json,
                               tensor_crystal)
from test_matrices import subsets


def fundamentals(rank, weights):
    crystal = tensor_crystal(*[fundamental_crystal(rank) for _ in weights])
    pools = [list(subsets(rank, w)) for w in weights]
    return crystal, [tuple(t) for t in product(*pools)]


def all_vectors(rank, count):
    crystal = tensor_crystal(*[fundamental_crystal(rank)] * count)
    pool = [tuple(bits) for bits in product((0, 1), repeat=rank)]
    return crystal, [tuple(t) for t in product(pool, repeat=count)]


def test_ranks_must_match():
    with pytest.raises(ValueError):
        tensor_crystal(fundamental_crystal(2), fundamental_crystal(3))


def test_single_factor_profiles():
    crystal = tensor_crystal(fundamental_crystal(3))
    inner = fundamental_crystal(3)
    for v in subsets(3, 1):
        eps_prof, phi_prof = crystal.profiles(1, (v,))
        assert eps_prof == [inner.eps(1, v)]
        assert phi_prof == [inner.phi(1, v)]


def test_two_factor_profile_golden():
    crystal = tensor_crystal(fundamental_crystal(2), fundamental_crystal(2))
    b = (1, 0)
    eps_prof, phi_prof = crystal.profiles(1, (b, b))
    assert eps_prof == [0, -1]
    assert phi_prof == [2, 1]
    assert crystal.eps(1, (b, b)) == 0
    assert crystal.phi(1, (b, b)) == 2


def _agrees_with_both_profiles(crystal, i, t):
    eps_prof, phi_prof = crystal.profiles(i, t)
    models = crystal.factors
    assert crystal.eps(i, t) == max(0, max(eps_prof))
    assert crystal.phi(i, t) == max(0, max(phi_prof))
    up = down = None
    if max(eps_prof) > 0:
        s = eps_prof.index(max(eps_prof))
        up = t[:s] + (models[s].e(i, t[s]),) + t[s + 1:]
    if max(phi_prof) > 0:
        s = len(t) - 1 - phi_prof[::-1].index(max(phi_prof))
        down = t[:s] + (models[s].f(i, t[s]),) + t[s + 1:]
    assert crystal.e(i, t) == up
    assert crystal.f(i, t) == down


def test_operators_agree_with_both_profiles():
    # each operator finds its maximum in one scan, and must read it where
    # the two-sided profiles put it: mixed tableau and 0/1-vector factors,
    # then the row and column structures of every matrix with nm <= 8
    tab, vec = tableau_crystal(3), fundamental_crystal(3)
    pools = {tab: enumerate_b_lambda((2, 1), 3),
             vec: [v for w in range(4) for v in subsets(3, w)]}
    for models in ((tab, vec), (vec, tab, vec), (tab, tab)):
        crystal = tensor_crystal(*models)
        for t in product(*(pools[model] for model in models)):
            for i in (1, 2):
                _agrees_with_both_profiles(crystal, i, t)
    shapes = [(n, m) for n in range(1, 9) for m in range(1, 8 // n + 1)]
    cases = 0
    for n, m in shapes:
        for N in range(n * m + 1):
            for M in bit_matrices(n, m, N):
                for crystal, word in (row_structure(M), col_structure(M)):
                    for i in crystal.nodes():
                        cases += 1
                        _agrees_with_both_profiles(crystal, i, word)
    assert cases == sum(2 ** (n * m) * (n + m - 2) for n, m in shapes) == 8616


def test_lowering_acts_on_first_factor_here():
    # phi profile (2, 1): the largest position at the maximum is the first
    crystal = tensor_crystal(fundamental_crystal(2), fundamental_crystal(2))
    assert crystal.f(1, ((1, 0), (1, 0))) == ((0, 1), (1, 0))


def test_raising_kills_highest_factors():
    crystal, _ = fundamentals(3, (2, 1))
    top = ((1, 1, 0), (1, 0, 0))
    for i in (1, 2):
        assert crystal.e(i, top) is None


def binary_rule(A, B, a, b, i, direction):
    """Two-factor rule stated directly, as an independent oracle."""
    if direction == "e":
        if A.phi(i, a) >= B.eps(i, b):
            up = A.e(i, a)
            return None if up is None else (up, b)
        up = B.e(i, b)
        return None if up is None else (a, up)
    if A.phi(i, a) > B.eps(i, b):
        down = A.f(i, a)
        return None if down is None else (down, b)
    down = B.f(i, b)
    return None if down is None else (a, down)


def test_two_factor_rule_matches_binary_rule():
    left = tableau_crystal(3)
    right = tableau_crystal(3)
    crystal = tensor_crystal(left, right)
    for a in enumerate_b_lambda((1,), 3):
        for b in enumerate_b_lambda((2, 0), 3):
            for i in (1, 2):
                assert crystal.e(i, (a, b)) == binary_rule(left, right, a, b, i, "e")
                assert crystal.f(i, (a, b)) == binary_rule(left, right, a, b, i, "f")
                assert crystal.eps(i, (a, b)) == max(
                    left.eps(i, a),
                    right.eps(i, b) - pairing(left.weight(a), i))
                assert crystal.phi(i, (a, b)) == max(
                    right.phi(i, b),
                    left.phi(i, a) + pairing(right.weight(b), i))


def test_associativity_via_rebracketing():
    flat, elements = all_vectors(2, 3)
    single = fundamental_crystal(2)
    pair = tensor_crystal(single, single)
    left_nested = tensor_crystal(pair, single)
    right_nested = tensor_crystal(single, pair)

    def to_left(t):
        return ((t[0], t[1]), t[2])

    def to_right(t):
        return (t[0], (t[1], t[2]))

    for t in elements:
        for i in (1,):
            expect = flat.f(i, t)
            left_out = left_nested.f(i, to_left(t))
            right_out = right_nested.f(i, to_right(t))
            if expect is None:
                assert left_out is None and right_out is None
            else:
                assert left_out == to_left(expect)
                assert right_out == to_right(expect)
            expect = flat.e(i, t)
            left_out = left_nested.e(i, to_left(t))
            right_out = right_nested.e(i, to_right(t))
            if expect is None:
                assert left_out is None and right_out is None
            else:
                assert left_out == to_left(expect)
                assert right_out == to_right(expect)


def test_axioms_on_fundamental_tensors():
    for rank, count in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (9, 1)):
        crystal, elements = all_vectors(rank, count)
        rep = check_crystal_axioms(crystal, elements)
        assert rep.ok, rep.witness


def test_character_multiplicativity():
    crystal, elements = fundamentals(2, (1, 1))
    char = character(crystal, elements)
    assert char[(2, 0)] == 1 and char[(1, 1)] == 2 and char[(0, 2)] == 1


def colored_graphs_match(c1, hi1, c2, hi2, nodes):
    """Transport a vertex bijection from the highest elements along
    lowering edges; verify weights and edge structure agree."""
    match = {hi1: hi2}
    stack = [hi1]
    while stack:
        x = stack.pop()
        y = match[x]
        if c1.weight(x) != c2.weight(y):
            return False
        for i in nodes:
            fx, fy = c1.f(i, x), c2.f(i, y)
            if (fx is None) != (fy is None):
                return False
            if fx is not None:
                if fx in match:
                    if match[fx] != fy:
                        return False
                else:
                    match[fx] = fy
                    stack.append(fx)
    return True


def test_highest_tensor_component_is_sum_shape():
    from glcrystals.base import partitions_in_box
    crystal3 = tableau_crystal(3)
    small = [lam for size in range(1, 5)
             for lam in partitions_in_box(3, size, size)]
    shapes = [(lam, mu) for lam in small for mu in small
              if sum(lam) + sum(mu) <= 5]
    for lam, mu in shapes:
        pair = tensor_crystal(crystal3, crystal3)
        seed = (highest_tableau(lam), highest_tableau(mu))
        comp = component(pair, seed, (1, 2))
        assert comp.highest == seed
        total = tuple(a + b for a, b in zip(
            crystal3.weight(seed[0]), crystal3.weight(seed[1])))
        target = tuple(x for x in total if x) or ()
        reference = component(
            crystal3, highest_tableau(target), (1, 2))
        assert len(comp.elements) == len(reference.elements)
        assert colored_graphs_match(pair, comp.highest,
                                    crystal3, reference.highest, (1, 2))


def test_json_round_trip_tagged():
    crystal, elements = fundamentals(3, (2, 1))
    payload = element_to_json(crystal, elements[0])
    assert payload["model"] == "tensor"
    rebuilt_crystal, rebuilt = element_from_json(json.dumps(payload))
    assert rebuilt == elements[0]
    assert rebuilt_crystal is crystal


def test_broken_factor_raises_at_the_maximum():
    # a factor whose eps/phi promise a move its e/f do not make
    class Stuck(FundamentalCrystal):
        def e(self, i, v):
            return None

        def f(self, i, v):
            return None

    crystal = tensor_crystal(Stuck(2), Stuck(2))
    with pytest.raises(ValueError, match="broken factor: e_1"):
        crystal.e(1, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="broken factor: f_1"):
        crystal.f(1, ((1, 0), (1, 0)))
