import json

import pytest
from hypothesis import given, strategies as st

from glcrystals import tableaux
from glcrystals.base import partitions_in_box, schur_bruteforce, ssyt_fillings
from glcrystals.cactus import inner_act, verify_cactus_relations, word
from glcrystals.core import (Crystal, character, check_crystal_axioms,
                             schuetzenberger, verify_involution_properties,
                             verify_local_involution)
from glcrystals.gt import check_cgp_homomorphism
from glcrystals.matrices import fundamental_crystal
from glcrystals.tableaux import (TableauCrystal, apply_e, apply_f, column_bits,
                                 enumerate_b_lambda, evacuate, from_json,
                                 highest_tableau, pretty, signature, ssyt,
                                 tableau_crystal, to_json, weight_of)
from glcrystals.tensor import tensor_crystal

T_P = ssyt([(1, 1, 1, 2, 3), (2, 3, 3), (3,)], 3)


def small_shapes(rank, max_boxes):
    for size in range(max_boxes + 1):
        yield from partitions_in_box(rank, size, size)


def local_involution(shape, rank):
    return verify_local_involution(tableau_crystal(rank),
                                   enumerate_b_lambda(shape, rank))


def test_ssyt_validation():
    with pytest.raises(ValueError):
        ssyt([[2, 1]], 3)         # row decreasing
    with pytest.raises(ValueError):
        ssyt([[1, 1], [1]], 3)    # column not strict
    with pytest.raises(ValueError):
        ssyt([[1], [2, 2]], 3)    # row lengths increase
    with pytest.raises(ValueError):
        ssyt([[1, 4]], 3)         # entry above rank


def test_signature_golden():
    eps, phi, e_col, f_col = signature(T_P, 2)
    assert eps == 2 and e_col == 1  # leftmost unpaired "+" sits in column 2


def test_signature_highest_weight():
    for shape in ((3, 1), (2, 2), (4, 2, 1)):
        top = highest_tableau(shape)
        for i in (1, 2, 3):
            assert signature(top, i)[0] == 0


def column_scan_signature(rows, i):
    """Oracle: the plain column scan, testing every row of every column
    for i and i+1 and bracketing on a stack."""
    stack = []
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        has_plus = any(c < len(row) and row[c] == i + 1 for row in rows)
        has_minus = any(c < len(row) and row[c] == i for row in rows)
        if has_plus:
            stack.append(("+", c))
        if has_minus:
            if stack and stack[-1][0] == "+":
                stack.pop()
            else:
                stack.append(("-", c))
    pluses = [c for s, c in stack if s == "+"]
    minuses = [c for s, c in stack if s == "-"]
    return (len(pluses), len(minuses),
            pluses[0] if pluses else None,
            minuses[-1] if minuses else None)


def test_signature_matches_column_scan_oracle():
    cases = 0
    for rank in (2, 3, 4, 5):
        for shape in small_shapes(rank, 7):
            for b in ssyt_fillings(shape, rank):
                for i in range(1, rank):
                    cases += 1
                    assert signature(b, i) == column_scan_signature(b, i), (b, i)
    assert cases > 10 ** 4


def test_eps_matches_iteration():
    crystal = tableau_crystal(3)
    for b in enumerate_b_lambda((2, 1), 3):
        for i in (1, 2):
            assert crystal.eps(i, b) == Crystal.eps(crystal, i, b)
            assert crystal.phi(i, b) == Crystal.phi(crystal, i, b)


def test_apply_e_golden():
    assert apply_e(T_P, 2) == ssyt([(1, 1, 1, 2, 3), (2, 2, 3), (3,)], 3)


def test_apply_e_at_highest_is_none():
    assert apply_e(ssyt([[1, 1], [2]], 3), 1) is None


def test_lower_then_raise_round_trip():
    crystal = tableau_crystal(3)
    for b in enumerate_b_lambda((2, 1, 0), 3):
        for i in (1, 2):
            down = apply_f(b, i)
            if down is not None:
                assert apply_e(down, i) == b
            up = apply_e(b, i)
            if up is not None:
                assert apply_f(up, i) == b


def test_enumerate_sizes():
    assert len(enumerate_b_lambda((1,), 2)) == 2
    eight = enumerate_b_lambda((2, 1, 0), 3, cross_check=True)
    assert len(eight) == 8
    assert sum(schur_bruteforce((2, 1, 0), 3).values()) == 8
    big = enumerate_b_lambda((5, 3, 1), 3, cross_check=True)
    assert len(big) == sum(1 for _ in ssyt_fillings((5, 3, 1), 3))


def test_enumerate_needs_enough_rows():
    with pytest.raises(ValueError):
        enumerate_b_lambda((1, 1, 1), 2)


def test_weight_examples():
    assert weight_of(ssyt([[1, 1], [2]], 2), 2) == (2, 1)
    # content of the rank-4 display of shape (5,3,3,1)
    t = ssyt([(1, 1, 1, 2, 4), (2, 2, 3), (3, 4, 4), (4,)], 4)
    assert weight_of(t, 4) == (3, 3, 2, 4)


def test_weight_reversed_by_involution():
    crystal = tableau_crystal(3)
    for b in enumerate_b_lambda((2, 1), 3):
        flipped = schuetzenberger(crystal, b, (1, 2))
        assert crystal.weight(flipped) == tuple(reversed(crystal.weight(b)))


def test_axioms_across_shapes():
    for rank in (2, 3, 4):
        crystal = tableau_crystal(rank)
        for shape in small_shapes(rank, 6):
            rep = check_crystal_axioms(crystal, enumerate_b_lambda(shape, rank))
            assert rep.ok, rep.witness


def test_character_matches_oracle_across_shapes():
    for rank in (2, 3, 4):
        crystal = tableau_crystal(rank)
        for shape in small_shapes(rank, 6):
            elements = enumerate_b_lambda(shape, rank)
            assert character(crystal, elements) == schur_bruteforce(shape, rank)


def test_signature_agrees_with_column_reading():
    # a tableau read as the tensor of its columns, rightmost first, must
    # produce the same operator results as the signature rule
    for rank in (2, 3):
        crystal = tableau_crystal(rank)
        for shape in small_shapes(rank, 6):
            if not shape:
                continue
            word_model = None
            for b in enumerate_b_lambda(shape, rank):
                cols = column_bits(b, rank)[::-1]
                if word_model is None:
                    word_model = tensor_crystal(
                        *[fundamental_crystal(rank)] * len(cols))
                for i in range(1, rank):
                    assert crystal.eps(i, b) == word_model.eps(i, cols)
                    assert crystal.phi(i, b) == word_model.phi(i, cols)
                    stepped = crystal.e(i, b)
                    word_stepped = word_model.e(i, cols)
                    if stepped is None:
                        assert word_stepped is None
                    else:
                        assert column_bits(stepped, rank)[::-1] == word_stepped
                    stepped = crystal.f(i, b)
                    word_stepped = word_model.f(i, cols)
                    if stepped is None:
                        assert word_stepped is None
                    else:
                        assert column_bits(stepped, rank)[::-1] == word_stepped


@given(st.integers(min_value=0, max_value=7))
def test_operators_preserve_validity(index):
    pool = enumerate_b_lambda((2, 1, 0), 3)
    b = pool[index % len(pool)]
    for i in (1, 2):
        for out in (apply_e(b, i), apply_f(b, i)):
            if out is not None:
                ssyt(out, 3)  # raises if not semistandard


def test_json_round_trip():
    rows, rank = from_json(to_json(T_P, 3))
    assert rows == T_P and rank == 3
    assert json.loads(to_json(T_P, 3))["rank"] == 3


def test_pretty_layout():
    text = pretty(ssyt([[1, 1, 2], [2, 3]], 3))
    assert text.splitlines() == ["1 1 2", "2 3"]


# ---------------------------------------------------------------------------
# evacuation: the local route of the inner cactus action

def test_evacuate_golden():
    # entries at most 3 evacuate among themselves; the 4 stays put
    t = ssyt([(1, 1, 2), (2, 3), (4,)], 4)
    assert evacuate(t, 3) == ((1, 2, 3), (2, 3), (4,))
    assert evacuate(t, 3) == schuetzenberger(tableau_crystal(4), t, (1, 2))
    assert evacuate(evacuate(t, 3), 3) == t
    assert evacuate((), 3) == ()


def test_local_involution_matches_transport_exhaustively():
    cases = [(rank, shape) for rank in (2, 3, 4, 5) for shape in small_shapes(rank, 6)]
    cases += [(6, shape) for shape in small_shapes(6, 4)]
    for rank, shape in cases:
        rep = local_involution(shape, rank)
        assert rep.ok, rep.witness
        assert rep.checked > 0


def test_local_involution_needs_intervals():
    with pytest.raises(ValueError):
        verify_local_involution(tableau_crystal(1), [((1,),)])


def test_interval_involution_takes_one_interval_in_range():
    crystal = tableau_crystal(4)
    t = ssyt([(1, 2, 2), (3, 4)], 4)
    assert crystal.interval_involution(t, ()) == t
    for nodes in ((3, 4), (0, 1), (1, 3)):
        with pytest.raises(ValueError):
            crystal.interval_involution(t, nodes)


def _broken_evacuate(prefer_right=False, complement=True):
    """`evacuate` with one seeded fault: ties slide from the right, or the
    vacated corner gets a instead of r+1-a."""
    def evacuate(rows, r):
        grid = [list(row) for row in rows]
        lengths = [sum(1 for v in row if v <= r) for row in rows]
        while lengths and lengths[0]:
            a = grid[0][0]
            i = j = 0
            while True:
                right = grid[i][j + 1] if j + 1 < lengths[i] else None
                below = (grid[i + 1][j]
                         if i + 1 < len(lengths) and j < lengths[i + 1] else None)
                take_below = below is not None and (
                    right is None or below < right or (below == right and not prefer_right))
                if take_below:
                    grid[i][j] = below
                    i += 1
                elif right is not None:
                    grid[i][j] = right
                    j += 1
                else:
                    break
            lengths[i] -= 1
            grid[i][j] = r + 1 - a if complement else a
        return tuple(tuple(row) for row in grid)
    return evacuate


@pytest.mark.parametrize("fault, shape", [
    ({"prefer_right": True}, (2, 1)),
    ({"complement": False}, (1,)),
])
def test_local_involution_catches_seeded_faults(monkeypatch, fault, shape):
    assert local_involution(shape, 2).ok
    monkeypatch.setattr(tableaux, "evacuate", _broken_evacuate(**fault))
    assert local_involution(shape, 2).status == "fail"


def test_verifiers_keep_transport(monkeypatch):
    # with the local route replaced by the identity, only the verifier that
    # compares it with transport notices
    monkeypatch.setattr(TableauCrystal, "interval_involution",
                        lambda self, b, nodes: b)
    crystal = tableau_crystal(3)
    elements = enumerate_b_lambda((2, 1), 3)
    assert inner_act(word(3, (1, 3)), crystal, elements[0]) == elements[0]
    assert verify_cactus_relations(crystal, elements).ok
    assert verify_involution_properties(crystal, elements).ok
    assert check_cgp_homomorphism((2, 1), 3).ok
    assert local_involution((2, 1), 3).status == "fail"


def test_cold_tableau_word_builds_no_component():
    # s[1,5] on shape (4,3,2,1) has a component of 1024 tableaux; the local
    # route must not fall back to walking it
    crystal = TableauCrystal(5)
    t = ssyt([(1, 1, 2, 3), (2, 3, 4), (4, 5), (5,)], 5)
    out = inner_act(word(5, (1, 5)), crystal, t)
    assert crystal._xi_cache == {}
    assert crystal._component_cache == {}
    assert crystal._edges == {}
    assert out == schuetzenberger(TableauCrystal(5), t, (1, 2, 3, 4))
