from collections import Counter
from itertools import product

import pytest

from glcrystals.base import intervals, schur_bruteforce
from glcrystals.cactus import verify_cactus_relations, xi_full
from glcrystals.core import (Crystal, character, check_crystal_axioms,
                             component, components, export_graph, is_morphism,
                             kashiwara_reflection, schuetzenberger,
                             schuetzenberger_by_path, to_highest_path,
                             to_lowest_path, verify_involution_properties)
from glcrystals.matrices import (MatrixColCrystal, Re, bit_matrices,
                                 fundamental_crystal, matrix_col_crystal,
                                 matrix_row_crystal, subsets)
from glcrystals.tableaux import (TableauCrystal, enumerate_b_lambda, ssyt,
                                 tableau_crystal)
from glcrystals.tensor import tensor_crystal


def tensor_of_fundamentals(rank, weights):
    crystal = tensor_crystal(*[fundamental_crystal(rank) for _ in weights])
    pools = [list(subsets(rank, w)) for w in weights]
    return crystal, [tuple(t) for t in product(*pools)]


# ---------------------------------------------------------------------------
# components

def test_single_column_component():
    crystal = tableau_crystal(2)
    elements = enumerate_b_lambda((1,), 2)
    comps = components(crystal, elements, (1,))
    assert len(comps) == 1 and len(comps[0].elements) == 2


def test_tensor_square_components():
    crystal, elements = tensor_of_fundamentals(2, (1, 1))
    comps = components(crystal, elements, (1,))
    assert sorted(len(c.elements) for c in comps) == [1, 3]


def test_matrix_row_components():
    crystal = matrix_row_crystal(2, 2)
    elements = list(bit_matrices(2, 2, 2))
    comps = components(crystal, elements, (1,))
    assert sum(len(c.elements) for c in comps) == 6
    assert sorted(len(c.elements) for c in comps) == [1, 1, 1, 3]
    assert sorted(crystal.weight(c.highest) for c in comps) == [
        (1, 1), (1, 1), (1, 1), (2, 0)]


def test_components_requires_closed_set():
    crystal = tableau_crystal(2)
    full = enumerate_b_lambda((2,), 2)
    with pytest.raises(ValueError):
        components(crystal, full[:1], (1,))


class _TwoHeaded(Crystal):
    """Broken on purpose: one lowering edge but no matching raising edge,
    leaving the component with two highest-weight elements."""

    def __init__(self):
        super().__init__(2)

    def weight(self, b):
        return (1 - b, b)

    def e(self, i, b):
        return None

    def f(self, i, b):
        return 1 if b == 0 else None


class _TwoFooted(Crystal):
    """Broken on purpose: one raising edge but no matching lowering edge,
    leaving the component with two lowest-weight elements."""

    def __init__(self):
        super().__init__(2)

    def weight(self, b):
        return (1 - b, b)

    def e(self, i, b):
        return 0 if b == 1 else None

    def f(self, i, b):
        return None


def test_component_flags_broken_model():
    with pytest.raises(ValueError, match="highest"):
        component(_TwoHeaded(), 0, (1,))
    with pytest.raises(ValueError, match="highest"):
        schuetzenberger(_TwoHeaded(), 0, (1,))
    with pytest.raises(ValueError, match="1 highest / 2 lowest"):
        component(_TwoFooted(), 1, (1,))
    broken = _TwoFooted()
    with pytest.raises(ValueError, match="1 highest / 2 lowest"):
        schuetzenberger(broken, 1, (1,))
    # no table is made for a failed walk; the edge records it filled are
    # operator results, true whatever the walk concluded, so they may stay
    assert broken._xi_cache == {}


# ---------------------------------------------------------------------------
# paths

def test_to_highest_path_trivial():
    crystal = tableau_crystal(2)
    top = ssyt([[1, 1]], 2)
    assert to_highest_path(crystal, top, (1,)) == (top, ())


def test_to_highest_path_one_step():
    crystal = tableau_crystal(2)
    hi, path = to_highest_path(crystal, ssyt([[1, 2]], 2), (1,))
    assert hi == ssyt([[1, 1]], 2)
    assert path == (1,)


def test_path_reconstruction_contract():
    crystal = tableau_crystal(3)
    for b in enumerate_b_lambda((2, 1, 0), 3):
        for to_end, back in ((to_highest_path, crystal.f),
                             (to_lowest_path, crystal.e)):
            x, path = to_end(crystal, b, (1, 2))
            for i in reversed(path):
                x = back(i, x)
            assert x == b


class _CountingTableaux(TableauCrystal):
    """Tableau model that counts its operator calls and the distinct
    (element, node, direction) triples they were asked for."""

    def __init__(self, rank):
        super().__init__(rank)
        self.calls = 0
        self.triples = set()

    def e(self, i, b):
        self.calls += 1
        self.triples.add((b, i, "e"))
        return super().e(i, b)

    def f(self, i, b):
        self.calls += 1
        self.triples.add((b, i, "f"))
        return super().f(i, b)


def test_component_shares_the_involution_memo():
    crystal = _CountingTableaux(3)  # fresh model, empty memo
    b = ssyt([[1, 2], [3]], 3)
    schuetzenberger(crystal, b, (1, 2))
    walked = crystal.calls
    comp = component(crystal, b, (1, 2))
    assert len(comp.elements) == 8
    for x in comp.elements:
        assert component(crystal, x, (1, 2)) is comp
    assert crystal.calls == walked  # served from the memo, no second walk


def test_memo_hits_call_no_operator_and_add_no_table():
    crystal = _CountingTableaux(3)  # fresh model, empty memo
    nodes = (1, 2)
    schuetzenberger(crystal, ssyt([[1, 2], [3]], 3), nodes)
    walked = crystal.calls

    def tables():
        snapshot = {name: {key: set(table) for key, table in cache.items()}
                    for name, cache in (("xi", crystal._xi_cache),
                                        ("component", crystal._component_cache))}
        snapshot["edges"] = {x: tuple(map(id, record))
                             for x, record in crystal._edges.items()}
        return snapshot

    before = tables()
    assert before["xi"].keys() == before["component"].keys() == {nodes}
    for x in before["xi"][nodes]:
        schuetzenberger(crystal, x, nodes)
        component(crystal, x, nodes)
    assert crystal.calls == walked
    assert tables() == before


def test_every_interval_walk_shares_one_operator_call_per_triple():
    crystal = _CountingTableaux(4)  # fresh model, empty memo
    elements = enumerate_b_lambda((2, 1), 4)
    assert len(component(crystal, elements[0], (1, 2, 3)).elements) == 20
    for nodes in [g.nodes for g in intervals(4)]:
        for b in elements:
            schuetzenberger(crystal, b, nodes)
    assert crystal.calls == len(crystal.triples)
    assert len(crystal.triples) == 20 * 3 * 2


class _CountingChain(Crystal):
    """The string 0 -> 1 -> ... -> n of rank 2 on int elements, whose
    involution is x -> n - x; counts operator calls and triples."""

    def __init__(self, n):
        super().__init__(2)
        self.n = n
        self.calls = 0
        self.triples = set()

    def weight(self, x):
        return (self.n - x, x)

    def e(self, i, x):
        self.calls += 1
        self.triples.add((x, i, "e"))
        return x - 1 if x > 0 else None

    def f(self, i, x):
        self.calls += 1
        self.triples.add((x, i, "f"))
        return x + 1 if x < self.n else None


def test_int_elements_share_one_operator_call_per_triple():
    # 0 is an element here, so an edge slot that read 0 as "not filled yet"
    # would call the operators again
    crystal = _CountingChain(4)
    assert component(crystal, 2, (1,)).elements == frozenset(range(5))
    for x in range(5):
        assert schuetzenberger(crystal, x, (1,)) == 4 - x
    assert crystal.calls == len(crystal.triples) == 5 * 2


def test_memos_keep_one_object_per_element_value():
    crystal = MatrixColCrystal(3, 2)  # fresh model, empty memo
    elements = [M for ones in range(7) for M in bit_matrices(3, 2, ones)]
    assert verify_cactus_relations(crystal, elements).ok
    kept = []
    for table in crystal._xi_cache.values():
        kept += list(table) + list(table.values())
    for table in crystal._component_cache.values():
        for x, comp in table.items():
            kept += [x, comp.highest, comp.lowest, *comp.elements]
    assert len(crystal._xi_cache) == 3 and len(kept) > 1000
    canonical = {}
    for x in kept:
        assert canonical.setdefault(x, x) is x, x


# ---------------------------------------------------------------------------
# the involution

def test_xi_fundamental_is_reversal():
    crystal = fundamental_crystal(5)
    assert schuetzenberger(crystal, (1, 1, 0, 0, 0), (1, 2, 3, 4)) == (0, 0, 0, 1, 1)
    # the weight of a 0/1 vector determines it, so the full involution,
    # which reverses the weight, reverses the vector; the matrix outer
    # actions rely on this
    for rank in range(1, 8):
        crystal = fundamental_crystal(rank)
        for ones in range(rank + 1):
            for v in subsets(rank, ones):
                assert xi_full(crystal, v) == v[::-1]


def test_xi_swaps_extremes():
    crystal = tableau_crystal(3)
    for shape in ((2, 1), (3,), (2, 2)):
        elements = enumerate_b_lambda(shape, 3)
        comp = component(crystal, elements[0], (1, 2))
        assert schuetzenberger(crystal, comp.highest, (1, 2)) == comp.lowest
        assert schuetzenberger(crystal, comp.lowest, (1, 2)) == comp.highest


def test_xi_partial_tableau_golden():
    crystal = tableau_crystal(3)
    start = ssyt([(1, 1, 1, 2), (2, 2, 3), (3,)], 3)
    out = schuetzenberger(crystal, start, (1, 2))
    assert out == ssyt([(1, 1, 2, 3), (2, 2, 3), (3,)], 3)


def test_xi_empty_interval_is_identity():
    crystal = tableau_crystal(3)
    b = ssyt([[1, 2]], 3)
    assert schuetzenberger(crystal, b, ()) == b


def test_xi_path_variants_agree():
    crystal = tableau_crystal(3)
    for b in enumerate_b_lambda((2, 1, 0), 3):
        via_table = schuetzenberger(crystal, b, (1, 2))
        assert schuetzenberger_by_path(crystal, b, (1, 2), "smallest") == via_table
        assert schuetzenberger_by_path(crystal, b, (1, 2), "largest") == via_table


def test_involution_properties_report():
    crystal = tableau_crystal(3)
    rep = verify_involution_properties(crystal, enumerate_b_lambda((2, 1), 3))
    assert rep.ok, rep.witness


# ---------------------------------------------------------------------------
# reflections

def test_reflection_fixes_balanced_weight():
    crystal = tableau_crystal(2)
    b = ssyt([[1, 2]], 2)  # weight (1, 1)
    assert kashiwara_reflection(crystal, b, 1) == b


def test_reflection_row_of_ones():
    crystal = tableau_crystal(2)
    assert kashiwara_reflection(crystal, ssyt([[1, 1]], 2), 1) == ssyt([[2, 2]], 2)


def test_reflection_matches_single_node_xi():
    crystal = tableau_crystal(3)
    for b in enumerate_b_lambda((2, 1, 0), 3):
        for i in (1, 2):
            assert kashiwara_reflection(crystal, b, i) == \
                schuetzenberger(crystal, b, (i,))


# ---------------------------------------------------------------------------
# axioms

def test_axioms_pass_small_tableau():
    rep = check_crystal_axioms(tableau_crystal(2), enumerate_b_lambda((1,), 2))
    assert rep.ok


class _Corrupted(Crystal):
    """Wraps a model and redirects one lowering edge onto the element itself."""

    def __init__(self, inner, bad_element):
        super().__init__(inner.rank)
        self.inner = inner
        self.bad = bad_element

    def weight(self, b):
        return self.inner.weight(b)

    def e(self, i, b):
        return self.inner.e(i, b)

    def f(self, i, b):
        if i == 1 and b == self.bad:
            return b
        return self.inner.f(i, b)


def test_axioms_catch_corruption():
    elements = enumerate_b_lambda((2,), 2)
    broken = _Corrupted(tableau_crystal(2), elements[0])
    rep = check_crystal_axioms(broken, elements)
    assert not rep.ok and rep.witness


def test_axioms_matrix_structures_84():
    elements = list(bit_matrices(3, 3, 3))
    assert len(elements) == 84
    assert check_crystal_axioms(matrix_row_crystal(3, 3), elements).ok
    assert check_crystal_axioms(matrix_col_crystal(3, 3), elements).ok


# ---------------------------------------------------------------------------
# characters

def test_character_single_column():
    crystal = tableau_crystal(2)
    char = character(crystal, enumerate_b_lambda((1,), 2))
    assert char == Counter({(1, 0): 1, (0, 1): 1})


def test_character_matches_oracle():
    crystal = tableau_crystal(2)
    char = character(crystal, enumerate_b_lambda((2, 0), 2))
    assert char == schur_bruteforce((2, 0), 2)


def test_character_of_tensor_is_convolution():
    crystal, elements = tensor_of_fundamentals(2, (1, 1))
    char = character(crystal, elements)
    single = character(fundamental_crystal(2), [(1, 0), (0, 1)])
    convo = Counter()
    for w1, c1 in single.items():
        for w2, c2 in single.items():
            convo[tuple(a + b for a, b in zip(w1, w2))] += c1 * c2
    assert char == convo


# ---------------------------------------------------------------------------
# morphisms

def test_identity_is_morphism():
    crystal = tableau_crystal(3)
    elements = enumerate_b_lambda((2, 1), 3)
    assert is_morphism(lambda b: b, crystal, crystal, elements).ok


def test_row_operator_is_column_morphism():
    crystal = matrix_col_crystal(2, 2)
    elements = list(bit_matrices(2, 2, 2))
    rep = is_morphism(lambda M: Re(M, 1), crystal, crystal, elements)
    assert rep.ok, rep.witness


def test_weight_breaking_map_fails():
    crystal = tableau_crystal(2)
    elements = enumerate_b_lambda((2,), 2)
    target = elements[0]
    rep = is_morphism(lambda b: target, crystal, crystal, elements)
    assert not rep.ok


# ---------------------------------------------------------------------------
# DOT export

def test_export_two_chain():
    crystal = tableau_crystal(2)
    dot = export_graph(crystal, enumerate_b_lambda((1,), 2))
    assert dot.count("->") == 1
    assert "[color=1]" in dot
    assert dot.count("wt=") == 2


def test_export_adjoint_shape():
    crystal = tableau_crystal(3)
    dot = export_graph(crystal, enumerate_b_lambda((2, 1, 0), 3))
    assert dot.count("wt=") == 8
    assert dot.count("[color=1]") == 4
    assert dot.count("[color=2]") == 4


def test_export_deterministic_and_components():
    crystal = matrix_row_crystal(2, 2)
    elements = list(bit_matrices(2, 2, 2))
    dot = export_graph(crystal, elements)
    assert dot == export_graph(crystal, list(reversed(elements)))
    assert dot.count("wt=") == 6
