from collections import Counter
from functools import partial

import pytest

from glcrystals import cactus
from glcrystals.base import DynkinInterval, perm_compose, perm_identity
from glcrystals.cactus import (CactusWord, inner_act, outer_act, parse_word,
                               verify_cactus_relations, verify_reduced_braid,
                               weyl_image, word, xi_full)
from glcrystals.core import is_morphism, schuetzenberger
from glcrystals.goldens import MATRIX_A, MATRIX_A_S12
from glcrystals.matrices import (Ce, Cf, bit_matrices, bit_matrix,
                                 col_structure, fundamental_crystal,
                                 matrix_col_crystal, matrix_from_col_word,
                                 matrix_row_crystal, row_structure)
from glcrystals.skewhowe import (inner_on_cols, inner_on_rows, outer_on_cols,
                                 outer_on_rows)
from glcrystals.tableaux import enumerate_b_lambda, tableau_crystal
from glcrystals.tensor import tensor_crystal
from test_base import perm_apply_weight
from test_matrices import all_small_dims


def all_matrices(n, m):
    return [M for N in range(n * m + 1) for M in bit_matrices(n, m, N)]


# ---------------------------------------------------------------------------
# words

def test_parse_word():
    w = parse_word("s[1,3] s[2,4]", 4)
    assert w.generators == (DynkinInterval(1, 3, 4), DynkinInterval(2, 4, 4))
    assert str(w) == "s[1,3] s[2,4]"
    assert parse_word("", 4).generators == ()
    with pytest.raises(ValueError):
        parse_word("s[1,5]", 4)
    with pytest.raises(ValueError):
        parse_word("t[1,2]", 4)


def test_word_rank_checked():
    with pytest.raises(ValueError):
        CactusWord(3, (DynkinInterval(1, 2, 4),))
    with pytest.raises(ValueError):
        inner_act(word(4, (1, 2)), tableau_crystal(3), None)


# ---------------------------------------------------------------------------
# inner action

def test_inner_two_chain():
    crystal = fundamental_crystal(2)
    assert inner_act(word(2, (1, 2)), crystal, (1, 0)) == (0, 1)


def test_inner_matrix_goldens():
    assert inner_on_cols(MATRIX_A, word(3, (1, 2))) == MATRIX_A_S12
    assert inner_on_rows(MATRIX_A, word(5, (4, 5))) == MATRIX_A


def test_inner_generator_is_involution():
    crystal = tableau_crystal(3)
    elements = enumerate_b_lambda((2, 1), 3)
    for p, q in ((1, 2), (2, 3), (1, 3)):
        w = word(3, (p, q))
        for b in elements:
            assert inner_act(w, crystal, inner_act(w, crystal, b)) == b


def test_inner_weight_matches_weyl_image():
    crystal = tableau_crystal(4)
    for b in enumerate_b_lambda((2, 1, 1), 4):
        for p in range(1, 4):
            for q in range(p + 1, 5):
                w = word(4, (p, q))
                acted = inner_act(w, crystal, b)
                assert crystal.weight(acted) == perm_apply_weight(
                    weyl_image(w), crystal.weight(b))


# ---------------------------------------------------------------------------
# outer action

def test_outer_row_golden_with_intermediates():
    flipped = bit_matrix([(0, 0, 1, 1, 0), (1, 1, 1, 0, 0), (1, 1, 1, 0, 1)])
    factor_flipped = bit_matrix([(0, 1, 1, 0, 0), (0, 0, 1, 1, 1), (1, 1, 1, 0, 1)])
    assert tuple(flipped) == (MATRIX_A[1], MATRIX_A[0], MATRIX_A[2])
    assert factor_flipped[0] == flipped[0][::-1]
    assert factor_flipped[1] == flipped[1][::-1]
    block_crystal = tensor_crystal(fundamental_crystal(5), fundamental_crystal(5))
    block = xi_full(block_crystal, (factor_flipped[0], factor_flipped[1]))
    assert block == (MATRIX_A_S12[0], MATRIX_A_S12[1])
    assert outer_on_rows(MATRIX_A, word(3, (1, 2))) == MATRIX_A_S12


def test_outer_column_golden_with_intermediates():
    w = word(5, (1, 2))
    # word positions 1, 2 hold the last and second-to-last columns
    flipped = bit_matrix([(1, 1, 1, 0, 0), (0, 0, 1, 0, 1), (1, 1, 1, 1, 0)])
    factor_flipped = bit_matrix([(1, 1, 1, 1, 0), (0, 0, 1, 0, 1), (1, 1, 1, 0, 0)])
    block_crystal = tensor_crystal(fundamental_crystal(3), fundamental_crystal(3))
    block = xi_full(block_crystal, (
        tuple(factor_flipped[r][4] for r in range(3)),
        tuple(factor_flipped[r][3] for r in range(3))))
    assert block == (tuple(MATRIX_A[r][4] for r in range(3)),
                     tuple(MATRIX_A[r][3] for r in range(3)))
    assert outer_on_cols(MATRIX_A, w) == MATRIX_A


def test_outer_two_box_tensor():
    crystal = tensor_crystal(fundamental_crystal(2), fundamental_crystal(2))
    top = ((1, 0), (1, 0))
    out_crystal, out = outer_act(word(2, (1, 2)), crystal, top)
    # the weight-(1,1)... no: factor involutions send each (1,0) to (0,1),
    # the block involution then raises the flipped pair back to the top
    assert out == top
    assert out_crystal is crystal
    mid = ((1, 0), (0, 1))
    _, out = outer_act(word(2, (1, 2)), crystal, mid)
    assert crystal.weight(out) == (1, 1)
    _, back = outer_act(word(2, (1, 2)), crystal, out)
    assert back == mid


def test_outer_generator_is_involution_on_matrices():
    for n, m in ((2, 3), (3, 2), (3, 3)):
        for M in all_matrices(n, m):
            for p in range(1, n):
                for q in range(p + 1, n + 1):
                    w = word(n, (p, q))
                    assert outer_on_rows(outer_on_rows(M, w), w) == M


def test_matrix_outer_actions_match_the_generic_tensor_route():
    # outer_on_rows/cols act on the block through Re/Rf (Ce/Cf); the
    # generic outer_act on the row (column) word is their oracle
    sides = ((outer_on_rows, row_structure, tuple, 0),
             (outer_on_cols, col_structure, matrix_from_col_word, 1))
    for n, m in all_small_dims(8):
        matrices = all_matrices(n, m)
        for act, structure, back, axis in sides:
            k = (n, m)[axis]
            gens = [(p, q) for p in range(1, k) for q in range(p + 1, k + 1)]
            words = [word(k, g) for g in gens]
            if gens:
                words.append(word(k, gens[-1], gens[0], gens[len(gens) // 2]))
            for M in matrices:
                for w in words:
                    expect = back(outer_act(w, *structure(M))[1])
                    assert act(M, w) == expect, (M, str(w))
            for rank in {k - 1, k + 1} - {0, 1}:
                wrong = word(rank, (1, 2))
                with pytest.raises(ValueError) as generic:
                    outer_act(wrong, *structure(matrices[0]))
                with pytest.raises(ValueError) as direct:
                    act(matrices[0], wrong)
                assert str(direct.value) == str(generic.value)


def test_outer_rank_mismatch():
    crystal = tensor_crystal(fundamental_crystal(2), fundamental_crystal(2))
    with pytest.raises(ValueError):
        outer_act(word(3, (1, 2)), crystal, ((1, 0), (1, 0)))


def test_outer_with_mixed_factor_kinds():
    # a tableau factor, a 0/1-vector factor, and a nested tensor factor of
    # one shared rank; generators must stay involutive and permute models
    tab = tableau_crystal(2)
    fund = fundamental_crystal(2)
    nested = tensor_crystal(fund, fund)
    crystal = tensor_crystal(tab, fund, nested)
    pool = []
    for t in enumerate_b_lambda((2, 1), 2):
        for v in ((1, 0), (0, 1), (1, 1)):
            for u in (((1, 0), (0, 1)), ((0, 1), (0, 1))):
                pool.append((t, v, u))
    for p, q in ((1, 2), (2, 3), (1, 3)):
        w = word(3, (p, q))
        for b in pool:
            mid_crystal, mid = outer_act(w, crystal, b)
            if (p, q) == (1, 2):
                assert mid_crystal.factors == (fund, tab, nested)
            back_crystal, back = outer_act(w, mid_crystal, mid)
            assert back == b and back_crystal is crystal
            # factor involutions reverse each weight, the block involution
            # reverses their sum back: the tensor weight is preserved
            assert mid_crystal.weight(mid) == crystal.weight(b)


def test_word_followed_by_reverse_is_identity():
    # every generator is an involution, so the reversed word inverts both
    # the action and the permutation image
    from itertools import product
    crystal = tableau_crystal(3)
    elements = enumerate_b_lambda((2, 1), 3)
    gens = [(1, 2), (2, 3), (1, 3)]
    for picks in product(gens, repeat=3):
        w = word(3, *picks)
        w_rev = word(3, *reversed(picks))
        for b in elements[:4]:
            assert inner_act(w_rev, crystal, inner_act(w, crystal, b)) == b
        assert perm_compose(weyl_image(w_rev), weyl_image(w)) == \
            perm_identity(3)


# ---------------------------------------------------------------------------
# the surjection onto permutations

def test_weyl_image_full_reversal():
    assert weyl_image(word(4, (1, 4))) == (4, 3, 2, 1)


def test_weyl_image_word_product():
    w = word(3, (1, 2), (1, 3), (1, 2))
    by_hand = perm_identity(3)
    for g in w.generators:
        from glcrystals.base import weyl_longest
        by_hand = perm_compose(weyl_longest(g), by_hand)
    assert weyl_image(w) == by_hand


def test_weyl_image_generator_identity():
    for rank in range(2, 7):
        for p in range(1, rank):
            for q in range(p + 1, rank + 1):
                lhs = weyl_image(word(rank, (p, q)))
                rhs = weyl_image(word(rank, (1, q), (1, q + 1 - p), (1, q)))
                assert lhs == rhs


def test_generator_reduction_identity_pointwise():
    # s[p,q] = s[1,q] s[1,q+1-p] s[1,q] as actions, not just as permutations
    col = matrix_col_crystal(3, 3)
    tab = tableau_crystal(4)
    instances = [(col, all_matrices(3, 3)),
                 (tab, enumerate_b_lambda((2, 1, 1), 4))]
    for crystal, elements in instances:
        k = crystal.rank
        for p in range(1, k):
            for q in range(p + 1, k + 1):
                direct = word(k, (p, q))
                reduced = word(k, (1, q), (1, q + 1 - p), (1, q))
                for b in elements:
                    assert inner_act(direct, crystal, b) == \
                        inner_act(reduced, crystal, b)


# ---------------------------------------------------------------------------
# relation verifiers

def test_relations_on_tableaux():
    rep = verify_cactus_relations(tableau_crystal(3),
                                  enumerate_b_lambda((2, 1, 0), 3))
    assert rep.ok, rep.witness
    rep = verify_cactus_relations(tableau_crystal(4),
                                  enumerate_b_lambda((2, 1, 1, 0), 4))
    assert rep.ok, rep.witness


def test_relations_rank_two():
    rep = verify_cactus_relations(tableau_crystal(2),
                                  enumerate_b_lambda((2,), 2))
    assert rep.ok and rep.checked == 3  # only the involution, per element


def test_nested_relation_reads_theta_at_call_time(monkeypatch):
    # with the diagram involution replaced by the identity, the nested
    # relation becomes plain commutation, which fails at the first nested
    # pair s[1,3] > s[1,2]; the relation list is built on each call
    monkeypatch.setattr(cactus, "theta_interval", lambda g, h: h)
    rep = verify_cactus_relations(tableau_crystal(3),
                                  enumerate_b_lambda((2, 1), 3))
    assert (rep.checked, rep.witness) == (
        4, "nested relation s[1,3],s[1,2] fails at 1,1/2")
    rep = verify_cactus_relations(matrix_col_crystal(4, 2), all_matrices(4, 2))
    assert (rep.checked, rep.witness) == (
        25, "nested relation s[1,3],s[1,2] fails at 10000000")


def test_braid_small():
    rep = verify_reduced_braid(tableau_crystal(2), enumerate_b_lambda((2,), 2))
    assert rep.ok
    rep = verify_reduced_braid(tableau_crystal(3),
                               enumerate_b_lambda((2, 1, 0), 3))
    assert rep.ok, rep.witness
    rep = verify_reduced_braid(matrix_row_crystal(3, 3),
                               list(bit_matrices(3, 3, 3)))
    assert rep.ok, rep.witness


def _braid_pools():
    return {"tableau": (tableau_crystal(4), enumerate_b_lambda((2, 1), 4)),
            "matrix": (matrix_row_crystal(2, 4), all_matrices(2, 4))}


@pytest.mark.parametrize("pool", ["tableau", "matrix"])
def test_braid_reflects_each_node_and_element_once(monkeypatch, pool):
    crystal, elements = _braid_pools()[pool]
    real = cactus.kashiwara_reflection
    calls = Counter()

    def counting(crystal, b, i):
        calls[i, b] += 1
        return real(crystal, b, i)

    monkeypatch.setattr(cactus, "kashiwara_reflection", counting)
    # the memo dies with its call: a second call reflects everything again
    for _ in range(2):
        assert verify_reduced_braid(crystal, elements).ok
    assert calls and set(calls.values()) == {2}


def _string_end_at_1(real, crystal, b, i):
    """Node 1 lowers to the end of its string: squares break."""
    if i != 1:
        return real(crystal, b, i)
    while (c := crystal.f(1, b)) is not None:
        b = c
    return b


def _identity_at_2(real, crystal, b, i):
    """Node 2 reflects nothing: squares hold, the order-3 relation breaks."""
    return b if i == 2 else real(crystal, b, i)


def _node_3_as_2(real, crystal, b, i):
    """Node 3 reflects at node 2: squares and the order-3 relations hold on
    rank 4, the distant pair (1, 3) does not commute."""
    return real(crystal, b, 2 if i == 3 else i)


# fault -> pool -> (checked, witness) of the first failure
BRAID_FAULTS = {
    "squares": (_string_end_at_1, {
        "tableau": (1, "s_1 squared != id at 1,1/2"),
        "matrix": (7, "s_1 squared != id at 10000000")}),
    "order-3": (_identity_at_2, {
        "tableau": (4, "(s_1 s_2)^3 != id at 1,1/2"),
        "matrix": (10, "(s_1 s_2)^3 != id at 10000000")}),
    "distant": (_node_3_as_2, {
        "tableau": (6, "s_1, s_3 do not commute at 1,1/2"),
        "matrix": (12, "s_1, s_3 do not commute at 10000000")}),
}


@pytest.mark.parametrize("fault", sorted(BRAID_FAULTS))
@pytest.mark.parametrize("pool", ["tableau", "matrix"])
def test_braid_fails_on_seeded_faults(monkeypatch, fault, pool):
    crystal, elements = _braid_pools()[pool]
    wrap, expected = BRAID_FAULTS[fault]
    monkeypatch.setattr(cactus, "kashiwara_reflection",
                        partial(wrap, cactus.kashiwara_reflection))
    rep = verify_reduced_braid(crystal, elements)
    assert rep.status == "fail"
    assert (rep.checked, rep.witness) == expected[pool]


# ---------------------------------------------------------------------------
# interaction of the involution with the other matrix structure

def test_row_involution_is_column_morphism():
    for n, m in all_small_dims(9):
        row = matrix_row_crystal(n, m)
        col = matrix_col_crystal(n, m)
        elements = all_matrices(n, m)
        for k in range(2, m + 1):
            nodes = tuple(range(1, k))
            rep = is_morphism(
                lambda M, nodes=nodes: schuetzenberger(row, M, nodes),
                col, col, elements)
            assert rep.ok, (n, m, k, rep.witness)


def test_outer_twists_column_operators():
    # the whole-row-block involution turns a column raising at i into a
    # column lowering at k - i
    for n, m in all_small_dims(9):
        for k in range(2, n + 1):
            w = word(n, (1, k))
            for M in all_matrices(n, m):
                acted = outer_on_rows(M, w)
                for i in range(1, k):
                    up = Ce(M, i)
                    if up is not None:
                        assert outer_on_rows(up, w) == Cf(acted, k - i)
                    down = Cf(M, i)
                    if down is not None:
                        assert outer_on_rows(down, w) == Ce(acted, k - i)
