"""The instance registry: the `verify all` table is pinned, and every suite
without a seeded fault elsewhere is shown able to fail."""

import hashlib
from collections import Counter
from functools import partial
from math import comb

import pytest

from glcrystals import (base, cactus, core, goldens, gt, skewhowe, suites,
                        tableaux)
from glcrystals.base import pairing
from glcrystals.matrices import bit_matrices, matrix_col_crystal
from glcrystals.suites import SUITES, suite_rows


def test_verify_all_instance_table_is_pinned():
    # count and sha256 of the ordered (label, cost) table of `verify all`:
    # a changed instance, label, cost or order shows here
    rows = suite_rows()
    table = "\n".join(f"{label}\t{cost}" for label, cost, _ in rows)
    assert len(rows) == 1812
    assert sum(cost <= 500 for _, cost, _ in rows) == 1711
    assert hashlib.sha256(table.encode()).hexdigest() == (
        "9192ac16c0e52f8b237e4a55a9d3c81259607732199764b5a4d313e77a11a6e1")


def _identity_block(B):
    return B


def _non_involutive_xi(crystal, b, nodes):
    """Lowers once at the first node instead of the involution."""
    return crystal.f(nodes[0], b) or b


def _reflection_one_step_short(crystal, b, i):
    d = pairing(crystal.weight(b), i)
    step = crystal.f if d >= 0 else crystal.e
    for _ in range(abs(d) - 1):
        b = step(i, b)
    return b


def _path_transport_is_identity(crystal, b, nodes, order="smallest"):
    return b


# suite -> (row label, module, attribute, fault)
FAULTS = {
    "agree": ("agree n=2 m=2 N=1", skewhowe, "_row_xi_by_transport",
              _identity_block),
    "corollary": ("corollary n=2 m=2 N=1", skewhowe, "_row_xi_by_transport",
                  _identity_block),
    "relations tableau": ("cactus+braid rank=2 shape=1", cactus,
                          "schuetzenberger", _non_involutive_xi),
    "relations matrix": ("cactus+braid matrix n=2 m=2 N=2", cactus,
                         "kashiwara_reflection", _reflection_one_step_short),
    "bk": ("bk rank=2 shape=1", gt, "bk_q", lambda x, i: x),
    "oracle": ("oracle rank=2 shape=1", suites, "schur_bruteforce",
               lambda shape, rank: Counter()),
    "counting": ("counting n=2 m=2 N=1", skewhowe, "comb",
                 lambda a, b: comb(a, b) + 1),
    "xi matrix": ("xi matrix n=1 m=2 N=1", core, "schuetzenberger_by_path",
                  _path_transport_is_identity),
    "xi tableau": ("xi tableau rank=3 shape=2,1", core,
                   "schuetzenberger_by_path", _path_transport_is_identity),
}


def test_in_order_sums_checked_over_the_checks_it_ran():
    def check(checked, status):
        return lambda crystal, elements: core.Report("c", {}, checked, status)

    rep = suites.in_order([(check(2, "pass"), None), (check(3, "fail"), None),
                           (check(5, "pass"), None)], [], {"n": 1})
    assert (rep.checked, rep.status, rep.instance) == (5, "fail", {"n": 1})
    rep = suites.in_order([(check(2, "pass"), None), (check(0, "pass"), None)],
                          [], {"n": 1})
    assert (rep.checked, rep.status) == (2, "pass")


def _row(suite, label):
    thunks = {row_label: thunk for row_label, _, thunk in SUITES[suite]()}
    return thunks[label]


@pytest.mark.parametrize("suite", sorted(FAULTS))
def test_suite_fails_on_a_seeded_fault(monkeypatch, suite):
    label, module, attribute, fault = FAULTS[suite]
    thunk = _row(suite, label)
    assert thunk().ok
    monkeypatch.setattr(module, attribute, fault)
    rep = thunk()
    assert rep.status == "fail" and rep.witness
    monkeypatch.undo()
    # the fault leaves nothing behind: every suite's row passes again
    for other, (other_label, *_) in FAULTS.items():
        assert _row(other, other_label)().ok, other


def test_oracle_failure_reports_the_instance_and_count_of_a_pass(monkeypatch):
    thunk = _row("oracle", "oracle rank=3 shape=2,1")
    instance = {"rank": 3, "shape": "2,1"}
    rep = thunk()
    assert (rep.status, rep.instance, rep.checked) == ("pass", instance, 8)
    _, module, attribute, fault = FAULTS["oracle"]
    monkeypatch.setattr(module, attribute, fault)
    rep = thunk()
    assert (rep.status, rep.instance, rep.checked, rep.witness) == (
        "fail", instance, 8, "character differs from brute force at 2,1")


def _content_reads_the_rank_as_one(rows, rank):
    counts = [0] * rank
    for row in rows:
        for v in row:
            counts[(1 if v == rank else v) - 1] += 1
    return tuple(counts)


def test_oracle_fails_when_content_is_broken_at_its_source(monkeypatch):
    # the Schur oracle counts patterns by the branching rule, so a content
    # fault shared by every reader of `content` reaches the crystal side
    # only; rows of the empty shape, with no entry at all, still pass
    monkeypatch.setattr(base, "content", _content_reads_the_rank_as_one)
    monkeypatch.setattr(tableaux, "content", _content_reads_the_rank_as_one)
    reports = [thunk() for _, _, thunk in SUITES["oracle"]()]
    passed = [rep.instance["shape"] for rep in reports if rep.ok]
    assert (len(reports), passed) == (66, ["", "", ""])

# verifier call -> (module, attribute, fault(real, *args), first failure);
# each fault acts as the identity past the first interval only, so the
# checked count and witness pin the order in which the verifier walks the
# intervals
INTERVAL_ORDER = {
    "agreement": (lambda: skewhowe.verify_agreement(4, 2, 3), skewhowe,
                  "_row_xi_by_transport",
                  lambda real, B: B if len(B) >= 3 else real(B),
                  (2, "s[1,3] outer != inner at 11100000")),
    "corollary": (lambda: skewhowe.verify_corollary(2, 3, 3), skewhowe,
                  "_row_xi_by_transport",
                  lambda real, B: B if len(B) >= 3 else real(B),
                  (142, "s[1,3] outer on columns != inner s[1,3] at 111000")),
    "corollary rank 4": (
        lambda: skewhowe.verify_corollary(2, 4, 3), skewhowe,
        "_row_xi_by_transport",
        lambda real, B: B if len(B) >= 3 else real(B),
        (674, "s[2,4] outer on columns != inner s[1,3] at 11100000")),
    "cgp": (lambda: gt.check_cgp_homomorphism((2, 1), 3), gt, "bk_q",
            lambda real, x, i: x if i >= 2 else real(x, i),
            (9, "s[1,3] disagrees with q2 q2 q2 at ((2, 1, 0), (1, 0), (0,))")),
    "involution": (
        lambda: core.verify_involution_properties(
            matrix_col_crystal(3, 2), list(bit_matrices(3, 2, 3))),
        core, "schuetzenberger_by_path",
        lambda real, crystal, b, nodes, order="smallest":
            b if len(nodes) >= 2 else real(crystal, b, nodes, order),
        (21, "path transport disagrees on (1, 2) at 111000")),
    "involution rank 4": (
        lambda: core.verify_involution_properties(
            matrix_col_crystal(4, 2), list(bit_matrices(4, 2, 3))),
        core, "schuetzenberger_by_path",
        lambda real, crystal, b, nodes, order="smallest":
            b if len(nodes) >= 2 else real(crystal, b, nodes, order),
        (57, "path transport disagrees on (1, 2) at 11100000")),
}


@pytest.mark.parametrize("name", sorted(INTERVAL_ORDER))
def test_verifiers_walk_intervals_in_order(monkeypatch, name):
    verify, module, attribute, fault, first_failure = INTERVAL_ORDER[name]
    monkeypatch.setattr(module, attribute,
                        partial(fault, getattr(module, attribute)))
    rep = verify()
    assert (rep.checked, rep.witness) == first_failure


# golden -> (library name on glcrystals.goldens, fault, witness); the
# predicates read those names at call time, so only the facts that call the
# patched name fail
GOLDEN_FAULTS = {
    "gt-bijection": ("gt_to_tableau", lambda x: (),
                     "pattern does not map to the recorded tableau"),
    "gt-q2-chain": ("bk_move", lambda x, j: x,
                    "second toggle wrong; third toggle wrong"),
    "gt-inner-match": ("inner_act", lambda w, crystal, b: b,
                       "inner generator on the tableau is wrong; q_2 on the "
                       "pattern does not match the inner action"),
    "skew-howe-pair": ("re_max", lambda M: M,
                       "raising to the R-highest matrix is wrong"),
    "morphism-square": ("Ce", lambda M, j: M,
                        "raising the matrix is wrong; square does not commute"),
    "cactus-agreement": ("outer_on_rows", lambda M, w: M,
                         "outer action on rows is wrong"),
    "fundamental-reversal": ("schuetzenberger", lambda crystal, b, nodes: b,
                             "full involution is not reversal"),
}


@pytest.mark.parametrize("name", list(GOLDEN_FAULTS))
def test_golden_fails_on_a_seeded_fault(monkeypatch, name):
    run = dict(goldens.GOLDENS)[name]
    attribute, fault, witness = GOLDEN_FAULTS[name]
    monkeypatch.setattr(goldens, attribute, fault)
    rep = run()
    assert (rep.status, rep.witness) == ("fail", witness)
    monkeypatch.undo()
    assert run().ok
