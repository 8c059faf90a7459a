import re
from collections import Counter
from itertools import chain

import pytest

from glcrystals import core, gt, skewhowe
from glcrystals.base import intervals, schur_bruteforce
from glcrystals.cactus import (verify_cactus_relations, verify_reduced_braid,
                              xi_full)
from glcrystals.core import (Crystal, character, check_crystal_axioms,
                             component, components, export_graph, is_morphism,
                             kashiwara_reflection, run_checks,
                             schuetzenberger, schuetzenberger_by_path,
                             to_highest_path, verify_involution_properties)
from glcrystals.matrices import (MatrixColCrystal, MatrixRowCrystal, Re,
                                 bit_matrices, fundamental_crystal,
                                 matrix_col_crystal, matrix_row_crystal)
from glcrystals.tableaux import (TableauCrystal, enumerate_b_lambda, ssyt,
                                 tableau_crystal)
from test_matrices import subsets
from test_tensor import fundamentals


def xi_images(crystal):
    """nodes -> {element: image} over the filled image slots of the model's
    edge records, for every interval with at least one filled slot."""
    out = {}
    for nodes, slot in crystal._xi_slot.items():
        table = {x: rec[slot][0] for x, rec in crystal._edges.items()
                 if rec[slot] is not core._UNFILLED}
        if table:
            out[nodes] = table
    return out


# ---------------------------------------------------------------------------
# components

def test_single_column_component():
    crystal = tableau_crystal(2)
    elements = enumerate_b_lambda((1,), 2)
    comps = components(crystal, elements, (1,))
    assert len(comps) == 1 and len(comps[0].elements) == 2


def test_tensor_square_components():
    crystal, elements = fundamentals(2, (1, 1))
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
    # a failed walk writes no image slot; the edge records it filled are
    # operator results, true whatever the walk concluded, so they may stay
    assert xi_images(broken) == {}


class _OneString(Crystal):
    """Broken on purpose: rank 3 with the node-1 string 0 -> 1 -> 2 and no
    node-2 edges, so on (1, 2) the walk finds one highest (0) and one
    lowest (2) element, but f_1(0) = 1 must map to e_2(2), which is None."""

    def __init__(self):
        super().__init__(3)

    def weight(self, x):
        return (2 - x, x, 0)

    def e(self, i, x):
        return x - 1 if i == 1 and x > 0 else None

    def f(self, i, x):
        return x + 1 if i == 1 and x < 2 else None


def test_broken_transport_resets_the_slots_it_wrote():
    crystal = _OneString()
    slot = crystal._xi_slot[(1, 2)]
    for _ in range(2):
        with pytest.raises(ValueError, match="involution transport broke"):
            schuetzenberger(crystal, 1, (1, 2))
        assert sorted(crystal._edges) == [0, 1, 2]
        assert all(rec[slot] is core._UNFILLED
                   for rec in crystal._edges.values())
    # the node-1 string alone is a whole component, and transports
    assert [schuetzenberger(crystal, x, (1,)) for x in range(3)] == [2, 1, 0]
    with pytest.raises(ValueError, match="involution transport broke"):
        schuetzenberger(crystal, 2, (1, 2))


class _OneWayLoop(Crystal):
    """Broken on purpose: e and f are not inverse.  From 0 or 1 the walk
    sees the string 0 -> 1; from 2 it also sees 2 and 3, which reach the
    string by e_1(2) = 1 but which no edge of 0 or 1 leads to."""

    def __init__(self):
        super().__init__(2)

    def weight(self, x):
        return (1 - x, x)

    def e(self, i, x):
        return {1: 0, 2: 1, 3: 2}.get(x)

    def f(self, i, x):
        return {0: 1, 2: 3, 3: 2}.get(x)


def test_partial_transport_resets_the_slots_it_wrote():
    crystal = _OneWayLoop()
    slot = crystal._xi_slot[(1,)]
    # from 2 the walk finds 0 highest and 1 lowest, but transport from 0
    # never reaches 2 or 3
    with pytest.raises(ValueError, match="missed part of a component"):
        schuetzenberger(crystal, 2, (1,))
    assert all(rec[slot] is core._UNFILLED for rec in crystal._edges.values())
    # from 0 the walk sees only the string, which transports; its slots stay
    # when the call from 2 fails again
    assert [schuetzenberger(crystal, x, (1,)) for x in (0, 1)] == [1, 0]
    with pytest.raises(ValueError, match="missed part of a component"):
        schuetzenberger(crystal, 2, (1,))
    assert [crystal._edges[x][slot] is core._UNFILLED
            for x in range(4)] == [False, False, True, True]


class _RaisedOnlyElement(Crystal):
    """Broken on purpose: e and f are not inverse.  The walk from any
    element finds one highest (0) and one lowest (2), but 3 is entered
    only by e_1(1) = 3, so no lowering edge from 0 reaches it."""

    def __init__(self):
        super().__init__(2)

    def weight(self, x):
        return (2 - x, x)

    def e(self, i, x):
        return {1: 3, 2: 1, 3: 0}.get(x)

    def f(self, i, x):
        return {0: 1, 1: 2, 3: 1}.get(x)


def test_element_reached_only_by_raising_fails_the_transport():
    # propagating along e edges too would fill 3 and return the map
    # [2, 1, 3, 2], which is not an involution
    crystal = _RaisedOnlyElement()
    slot = crystal._xi_slot[(1,)]
    for x in range(4):
        with pytest.raises(ValueError, match="missed part of a component"):
            schuetzenberger(crystal, x, (1,))
        assert all(rec[slot] is core._UNFILLED
                   for rec in crystal._edges.values())


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
        x, path = to_highest_path(crystal, b, (1, 2))
        for i in reversed(path):
            x = crystal.f(i, x)
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
        assert component(crystal, x, (1, 2)) == comp
    # every walk re-reads the edge records the transport filled
    assert crystal.calls == walked


def test_memo_hits_call_no_operator_and_add_no_table():
    crystal = _CountingTableaux(3)  # fresh model, empty memo
    nodes = (1, 2)
    schuetzenberger(crystal, ssyt([[1, 2], [3]], 3), nodes)
    walked = crystal.calls
    # a component call re-reads the edge records the transport filled
    component(crystal, ssyt([[1, 2], [3]], 3), nodes)
    assert crystal.calls == walked

    def tables():
        return {"xi": {key: set(table)
                       for key, table in xi_images(crystal).items()},
                "edges": {x: tuple(map(id, record))
                          for x, record in crystal._edges.items()}}

    before = tables()
    assert before["xi"].keys() == {nodes}
    for x in before["xi"][nodes]:
        schuetzenberger(crystal, x, nodes)
        component(crystal, x, nodes)
    assert crystal.calls == walked
    assert tables() == before


def test_walks_refuse_nodes_outside_the_diagram():
    # node j's edges sit at record slots 2j - 1 / 2j, so a node outside
    # 1..rank-1 would read another node's slot, or the element itself
    crystal = _CountingTableaux(3)
    b = ssyt([[1, 2], [3]], 3)
    schuetzenberger(crystal, b, (1, 2))  # fills every slot of the component
    for nodes in ((0,), (-1,), (0, 1), (2, 3)):
        with pytest.raises(ValueError, match="out of range"):
            component(crystal, b, nodes)
        with pytest.raises(ValueError, match="out of range"):
            schuetzenberger(crystal, b, nodes)


def test_transport_refuses_node_sets_that_are_not_one_interval():
    # transport twists node j to p + q - 1 - j, which is the interval's
    # involution only on (p, ..., q-1); no image slot is written for another
    # set
    b = ssyt([[1, 1], [2]], 4)
    M = ((1, 0), (0, 1), (1, 1), (0, 0))
    for crystal, x in ((TableauCrystal(4), b), (MatrixColCrystal(4, 2), M),
                       (gt.PatternCrystal(4), gt.tableau_to_gt(b, 4))):
        for nodes in ((1, 3), (2, 1), (1, 1)):
            for route in (schuetzenberger, schuetzenberger_by_path,
                          type(crystal).interval_involution):
                with pytest.raises(ValueError, match="do not form one interval"):
                    route(crystal, x, nodes)
        assert xi_images(crystal) == {}
        assert schuetzenberger(crystal, x, ()) == x
        assert crystal.interval_involution(x, ()) == x


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
    for g in intervals(3):
        for M in elements:
            comp = component(crystal, M, g.nodes)
            kept += [comp.highest, comp.lowest, *comp.elements]
    images = xi_images(crystal)
    for table in images.values():
        kept += list(table) + list(table.values())
    for x, record in crystal._edges.items():
        kept += [x, *(y[0] for y in record[1:]
                      if y is not None and y is not core._UNFILLED)]
    assert len(images) == 3 and len(kept) > 1000
    canonical = {}
    for x in kept:
        assert canonical.setdefault(x, x) is x, x


def _no_component(*args):
    raise AssertionError("a Component was built")


def test_relation_sweep_builds_no_component(monkeypatch):
    monkeypatch.setattr(core, "Component", _no_component)
    crystal = MatrixColCrystal(3, 2)  # fresh model, empty memo
    elements = [M for ones in range(7) for M in bit_matrices(3, 2, ones)]
    assert len(elements) == 64
    assert verify_cactus_relations(crystal, elements).ok
    images = xi_images(crystal)
    assert sorted(images) == [(1,), (1, 2), (2,)]
    assert all(len(table) == 64 for table in images.values())
    assert len(crystal._edges) == 64


def test_involution_verifier_leaves_only_the_edge_records():
    # the path route takes its lowest element from the image slots, so no
    # memo appears beside the edge records; the interval -> slot map is
    # fixed when the model is built
    crystal = MatrixColCrystal(3, 2)  # fresh model, empty memo
    slots = dict(crystal._xi_slot)
    assert slots == {(1,): 5, (1, 2): 6, (2,): 7}
    elements = [M for ones in range(7) for M in bit_matrices(3, 2, ones)]
    assert verify_involution_properties(crystal, elements).ok
    memos = {name for name, value in vars(crystal).items()
             if isinstance(value, (dict, list, set))}
    assert memos == {"_edges", "_xi_slot"}
    assert crystal._xi_slot == slots
    assert len(xi_images(crystal)) == 3 and len(crystal._edges) == 64
    assert all(len(record) == 8 for record in crystal._edges.values())


def test_transport_verifiers_build_no_component(monkeypatch):
    # fresh factories, so the models these verifiers build start empty
    models = []

    def fresh(cls):
        def build(*args):
            models.append(cls(*args))
            return models[-1]
        return build

    monkeypatch.setattr(skewhowe, "matrix_row_crystal",
                        fresh(MatrixRowCrystal))
    monkeypatch.setattr(skewhowe, "matrix_col_crystal",
                        fresh(MatrixColCrystal))
    monkeypatch.setattr(gt, "tableau_crystal", fresh(TableauCrystal))
    monkeypatch.setattr(core, "Component", _no_component)
    assert skewhowe.verify_agreement(3, 2, 3).ok
    assert skewhowe.verify_corollary(3, 2, 3).ok
    assert gt.check_cgp_homomorphism((2, 1), 3).ok
    assert models and any(xi_images(model) for model in models)


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


def test_path_variant_rejects_an_unknown_order():
    crystal = tableau_crystal(3)
    b = ssyt([[1, 2]], 3)
    for nodes in ((1, 2), ()):
        with pytest.raises(ValueError, match="unknown path order 'biggest'"):
            schuetzenberger_by_path(crystal, b, nodes, "biggest")


def test_involution_properties_report():
    crystal = tableau_crystal(3)
    rep = verify_involution_properties(crystal, enumerate_b_lambda((2, 1), 3))
    assert rep.ok, rep.witness


# the string of shape (2,) in rank 2, highest first, and the one tableau of
# shape (1, 1), which shares the weight of its middle
_A, _M, _C, _S = ((1, 1),), ((1, 2),), ((2, 2),), ((1,), (2,))
_TAB2 = tableau_crystal(2)


@pytest.mark.parametrize("table, b, witness", [
    ({_A: _C, _C: _M, _M: _A}, _A, "not an involution on (1,)"),
    ({_A: _A}, _A, "weight not block-reversed on (1,)"),
    # swapping the images of the two tableaux of weight (1, 1) keeps an
    # involution that reverses weights, but breaks the twist on both sides
    ({_A: _C, _C: _A, _M: _S, _S: _M}, _A, "e_1 twist fails on (1,)"),
    ({_A: _C, _C: _A, _M: _S, _S: _M}, _C, "f_1 twist fails on (1,)"),
])
def test_involution_verifier_reports_each_seeded_map(monkeypatch, table, b,
                                                     witness):
    monkeypatch.setattr(core, "schuetzenberger",
                        lambda crystal, x, nodes: table[x])
    rep = verify_involution_properties(tableau_crystal(2), [b])
    assert rep.status == "fail" and rep.witness.startswith(witness)


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


class _ShortStrings(Crystal):
    """Broken on purpose: rank 2 with elements their own weights, where f_1
    acts only at (3, 0) and e_1 only at (0, 3), so both reflections need
    three steps and get one.  The operators unpack their argument, so a
    None passed back in raises TypeError."""

    def __init__(self):
        super().__init__(2)

    def weight(self, x):
        return x

    def e(self, i, x):
        a, b = x
        return (a + 1, b - 1) if b == 3 else None

    def f(self, i, x):
        a, b = x
        return (a - 1, b + 1) if a == 3 else None


def test_reflection_raises_at_the_first_missing_step():
    crystal = _ShortStrings()
    for b in ((3, 0), (0, 3)):
        with pytest.raises(ValueError, match=re.escape(
                f"reflection fell off the crystal at {b!r}")):
            kashiwara_reflection(crystal, b, 1)
    # the braid verifier passes the ValueError on, which verify reports as
    # a failure with its text as the witness
    with pytest.raises(ValueError, match="reflection fell off"):
        verify_reduced_braid(crystal, [(3, 0), (0, 3)])


# ---------------------------------------------------------------------------
# the reporting rule

def test_run_checks_counts_the_failing_item():
    rep = run_checks("rule", {}, iter([None, None, "third", None]))
    assert (rep.status, rep.checked, rep.witness) == ("fail", 3, "third")


def test_run_checks_never_resumes_past_a_witness():
    def items():
        yield None
        yield "second"
        raise AssertionError("resumed after the witness")

    rep = run_checks("rule", {}, items())
    assert (rep.status, rep.checked, rep.witness) == ("fail", 2, "second")


def test_run_checks_passes_an_empty_iterator_with_nothing_checked():
    rep = run_checks("rule", {}, iter(()))
    assert (rep.status, rep.checked, rep.witness) == ("pass", 0, None)


def test_run_checks_counts_across_chained_streams_and_starts_none_after():
    def never_started():
        raise AssertionError("a stream after the witness was started")
        yield

    streams = (iter([None, None]), iter([None, None, "third", None]),
               never_started())
    rep = run_checks("rule", {}, chain.from_iterable(streams))
    assert (rep.status, rep.checked, rep.witness) == ("fail", 5, "third")


def test_run_checks_passes_the_name_and_instance_through():
    instance = {"n": 2, "m": 3, "N": 1}
    for items in ([None, None], [None, "bad"]):
        rep = run_checks("agreement", instance, items)
        assert rep.name == "agreement" and rep.instance is instance
        assert rep.checked == 2


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


class _Seeded(Crystal):
    """Rank-2 tableaux with the methods named in `faults` replaced by
    seeded faults."""

    def __init__(self, **faults):
        super().__init__(2)
        for name in ("weight", "e", "f", "eps", "phi", "canon"):
            setattr(self, name, faults.get(name, getattr(_TAB2, name)))


@pytest.mark.parametrize("faults, b, witness", [
    ({"weight": lambda x: (1, 1)}, _A, "f_1 weight step wrong"),
    ({"e": lambda i, x: _A if x == _C else _TAB2.e(i, x)}, _C,
     "f_1 e_1 != id"),
    ({"weight": lambda x: (1, 1)}, _C, "e_1 weight step wrong"),
    ({"eps": lambda i, x: 0}, _M, "eps/phi formula disagrees"),
    ({"weight": {_A: (3, 0), _M: (2, 1), _C: (1, 2)}.get}, _A,
     "phi - eps != <wt, coroot>"),
])
def test_axioms_report_each_seeded_fault(faults, b, witness):
    rep = check_crystal_axioms(_Seeded(**faults), [b])
    assert rep.status == "fail" and rep.witness.startswith(witness)


# each branch fails after the checks of the elements before it pass, so
# `checked` counts them; (1, 2) is the one tableau of shape (1, 1)
@pytest.mark.parametrize("faults, elements, expected", [
    ({"e": lambda i, x: _S if x == _M else _TAB2.e(i, x)}, [_S, _C, _A],
     (3, "e_1 f_1 != id at 1,1")),
    ({"weight": lambda x: (1, 1)}, [_S, _A],
     (2, "f_1 weight step wrong at 1,1")),
    ({"e": lambda i, x: _A if x == _C else _TAB2.e(i, x)}, [_S, _A, _C],
     (3, "f_1 e_1 != id at 2,2")),
    ({"weight": lambda x: (1, 1)}, [_S, _C],
     (2, "e_1 weight step wrong at 2,2")),
    ({"eps": lambda i, x: 0}, [_S, _A, _M],
     (3, "eps/phi formula disagrees with iteration at 1,2, node 1")),
    ({"weight": {_A: (3, 0), _M: (2, 1), _C: (1, 2), _S: (1, 1)}.get},
     [_S, _A], (2, "phi - eps != <wt, coroot> at 1,1, node 1")),
], ids=["e f", "f weight", "f e", "e weight", "eps/phi", "pairing"])
def test_axioms_count_the_checks_before_each_seeded_fault(faults, elements,
                                                          expected):
    rep = check_crystal_axioms(_Seeded(**faults), elements)
    assert (rep.status, rep.checked, rep.witness) == ("fail", *expected)


class _Eps2Zero(TableauCrystal):
    """Tableaux whose eps at node 2 always reads 0."""

    def eps(self, i, b):
        return 0 if i == 2 else super().eps(i, b)


def test_axioms_count_one_check_per_element_and_node():
    # (1,) and (2,) pass at both nodes; (3,) passes node 1 and fails node 2
    rep = check_crystal_axioms(_Eps2Zero(3), enumerate_b_lambda((1,), 3))
    assert (rep.status, rep.checked, rep.witness) == (
        "fail", 6, "eps/phi formula disagrees with iteration at 3, node 2")


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
    crystal, elements = fundamentals(2, (1, 1))
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


def test_constant_map_fails_to_intertwine_f_at_its_fixed_point():
    # the constant map sends the first element to itself, so weight and
    # eps/phi hold there and f_1 is the first check to fail; the weight
    # branch is covered by test_morphism_verifier_reports_each_seeded_map
    crystal = tableau_crystal(2)
    elements = enumerate_b_lambda((2,), 2)
    target = elements[0]
    rep = is_morphism(lambda b: target, crystal, crystal, elements)
    assert (rep.status, rep.checked, rep.witness) == (
        "fail", 1, "f_1 not intertwined at 1,1")


@pytest.mark.parametrize("table, b, witness", [
    ({_A: _C}, _A, "weight not preserved"),
    ({_M: _S}, _M, "eps/phi not preserved"),
    ({_C: _C, _M: _S}, _C, "e_1 not intertwined"),
])
def test_morphism_verifier_reports_each_seeded_map(table, b, witness):
    crystal = tableau_crystal(2)
    rep = is_morphism(table.get, crystal, crystal, [b])
    assert rep.status == "fail" and rep.witness.startswith(witness)


# (1, 2) maps to itself and passes first; an element the map sends to None
# is not a check, so (2, 2) adds nothing in the f_1 case
@pytest.mark.parametrize("table, elements, expected", [
    ({_S: _S, _A: _C}, [_S, _A], (2, "weight not preserved at 1,1")),
    ({_S: _S, _M: _S}, [_S, _M], (2, "eps/phi not preserved at 1,2, node 1")),
    ({_S: _S, _A: _A, _M: _S}, [_S, _C, _A],
     (2, "f_1 not intertwined at 1,1")),
    ({_S: _S, _C: _C, _M: _S}, [_S, _C], (2, "e_1 not intertwined at 2,2")),
], ids=["weight", "eps/phi", "f", "e"])
def test_morphism_counts_the_checks_before_each_seeded_map(table, elements,
                                                           expected):
    crystal = tableau_crystal(2)
    rep = is_morphism(table.get, crystal, crystal, elements)
    assert (rep.status, rep.checked, rep.witness) == ("fail", *expected)


def test_morphism_endpoints_must_share_a_rank():
    with pytest.raises(ValueError, match="must share a rank"):
        is_morphism(lambda b: b, tableau_crystal(2), tableau_crystal(3), [])


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
