"""The three workloads and their correctness gates.

A sweep is a fixed list of verifier calls (instances), run in a fixed group
order; the seed only shuffles the instances inside each group and the
element lists they check, so every seed checks the same totals.  act-cold
is a seeded stream of single-element library calls.

Library functions are always looked up on their module at call time, so a
tracer installed after the inputs are built sees every call.
"""

import random
from dataclasses import dataclass
from math import comb, prod

from glcrystals import base, cactus, core, gt, matrices, skewhowe, tableaux

# Instance-set sizes.  "full" is what the benchmark runs; "small" is the
# smallest size, used by the self-test.
SIZES = {
    "full": {
        "agreement_cells": 10, "corollary_cells": 8,
        "relations_boxes": 5, "relations_cells": 6,
        "cgp_boxes": 5, "involution_boxes": 4, "involution_cells": 6,
        "operator_cells": 10, "axiom_cells": 9,
        "braid_boxes": 5, "braid_cells": 8,
        "oracle_rank": 5, "oracle_boxes": 6, "counting_side": 4,
        "requests": 1000,
    },
    "small": {
        "agreement_cells": 4, "corollary_cells": 4,
        "relations_boxes": 3, "relations_cells": 4,
        "cgp_boxes": 3, "involution_boxes": 3, "involution_cells": 4,
        "operator_cells": 4, "axiom_cells": 4,
        "braid_boxes": 3, "braid_cells": 4,
        "oracle_rank": 3, "oracle_boxes": 3, "counting_side": 2,
        "requests": 40,
    },
}

WORKLOADS = ("sweep-transport", "sweep-operators", "act-cold")

# Verifier names, as they appear in `verify.<name>.*` metrics.
VERIFIERS = ("agreement", "corollary", "cactus_relations", "cgp_homomorphism",
             "involution_properties", "commutation", "dual_implementation",
             "crystal_axioms", "reduced_braid", "kashiwara_reflection",
             "schur_oracle", "counting")

TABLEAU_RANKS = (2, 3, 4)


@dataclass(frozen=True)
class Instance:
    verifier: str
    call: object    # () -> (checked, ok, witness)


def pass_rng(seed: int, index: int) -> random.Random:
    """The generator for pass (or session) `index` of a run seeded `seed`."""
    return random.Random(seed * 1_000_003 + index)


# ---------------------------------------------------------------------------
# instance sets

def _dims(max_cells: int):
    return [(n, m) for n in range(1, max_cells + 1)
            for m in range(1, max_cells + 1) if n * m <= max_cells]


def _shapes(rank: int, max_boxes: int):
    for size in range(max_boxes + 1):
        yield from base.partitions_in_box(rank, size, size)


def _report(rep):
    return rep.checked, rep.ok, rep.witness


def _matrix_call(verifier, module, fn_name, n, m, N):
    return Instance(verifier,
                    lambda: _report(getattr(module, fn_name)(n, m, N)))


def _element_call(verifier, module, fn_name, crystal, elements):
    return Instance(verifier,
                    lambda: _report(getattr(module, fn_name)(crystal, elements)))


def _tableau_pools(rng, max_boxes):
    for rank in TABLEAU_RANKS:
        for shape in _shapes(rank, max_boxes):
            elements = tableaux.enumerate_b_lambda(shape, rank)
            rng.shuffle(elements)
            yield tableaux.tableau_crystal(rank), elements


def _matrix_pools(rng, max_cells):
    for n, m in _dims(max_cells):
        elements = [M for N in range(n * m + 1)
                    for M in matrices.bit_matrices(n, m, N)]
        rng.shuffle(elements)
        yield matrices.matrix_col_crystal(n, m), elements
        yield matrices.matrix_row_crystal(n, m), elements


def _matrix_group(rng, verifier, module, fn_name, max_cells):
    group = [_matrix_call(verifier, module, fn_name, n, m, N)
             for n, m in _dims(max_cells) for N in range(n * m + 1)]
    rng.shuffle(group)
    return group


def _element_group(rng, verifier, module, fn_name, pools):
    group = [_element_call(verifier, module, fn_name, crystal, elements)
             for crystal, elements in pools]
    rng.shuffle(group)
    return group


def _reflection_call(crystal, elements):
    """Each Kashiwara reflection swaps the two weight coordinates of its
    node."""
    def call():
        checked = 0
        for b in elements:
            wt = crystal.weight(b)
            for i in range(1, crystal.rank):
                flipped = crystal.weight(core.kashiwara_reflection(crystal, b, i))
                expect = list(wt)
                expect[i - 1], expect[i] = expect[i], expect[i - 1]
                checked += 1
                if flipped != tuple(expect):
                    return checked, False, f"s_{i} weight at {crystal.canon(b)}"
        return checked, True, None
    return Instance("kashiwara_reflection", call)


def _oracle_call(shape, rank):
    """Operator closure of the highest tableau against direct backtracking,
    and its character against the brute-force Schur oracle."""
    def call():
        elements = tableaux.enumerate_b_lambda(shape, rank, cross_check=True)
        ok = (core.character(tableaux.tableau_crystal(rank), elements)
              == base.schur_bruteforce(shape, rank))
        return len(elements), ok, None if ok else f"character of {shape}"
    return Instance("schur_oracle", call)


def sweep_transport(seed: int, index: int, size: str) -> list[Instance]:
    s = SIZES[size]
    rng = pass_rng(seed, index)
    instances = _matrix_group(rng, "agreement", skewhowe, "verify_agreement",
                              s["agreement_cells"])
    instances += _matrix_group(rng, "corollary", skewhowe, "verify_corollary",
                               s["corollary_cells"])
    pools = (list(_tableau_pools(rng, s["relations_boxes"]))
             + list(_matrix_pools(rng, s["relations_cells"])))
    instances += _element_group(rng, "cactus_relations", cactus,
                                "verify_cactus_relations", pools)
    cgp = [Instance("cgp_homomorphism",
                    lambda shape=shape, rank=rank:
                    _report(gt.check_cgp_homomorphism(shape, rank)))
           for rank in TABLEAU_RANKS for shape in _shapes(rank, s["cgp_boxes"])]
    rng.shuffle(cgp)
    instances += cgp
    pools = (list(_tableau_pools(rng, s["involution_boxes"]))
             + list(_matrix_pools(rng, s["involution_cells"])))
    instances += _element_group(rng, "involution_properties", core,
                                "verify_involution_properties", pools)
    return instances


def sweep_operators(seed: int, index: int, size: str) -> list[Instance]:
    s = SIZES[size]
    rng = pass_rng(seed, index)
    instances = _matrix_group(rng, "commutation", matrices,
                              "verify_commutation", s["operator_cells"])
    instances += _matrix_group(rng, "dual_implementation", matrices,
                               "verify_dual_implementation", s["operator_cells"])
    instances += _element_group(rng, "crystal_axioms", core,
                                "check_crystal_axioms",
                                list(_matrix_pools(rng, s["axiom_cells"])))
    pools = (list(_tableau_pools(rng, s["braid_boxes"]))
             + list(_matrix_pools(rng, s["braid_cells"])))
    instances += _element_group(rng, "reduced_braid", cactus,
                                "verify_reduced_braid", pools)
    reflections = [_reflection_call(crystal, elements)
                   for crystal, elements in pools]
    rng.shuffle(reflections)
    instances += reflections
    oracle = [_oracle_call(shape, rank)
              for rank in range(2, s["oracle_rank"] + 1)
              for shape in _shapes(rank, s["oracle_boxes"])]
    rng.shuffle(oracle)
    instances += oracle
    side = s["counting_side"]
    counting = [Instance("counting",
                         lambda n=n, m=m, N=N:
                         _report(skewhowe.verify_counting(n, m, N)))
                for n in range(1, side + 1) for m in range(1, side + 1)
                for N in range(n * m + 1)]
    rng.shuffle(counting)
    return instances + counting


def closed_form_totals(workload: str, size: str) -> dict[str, int]:
    """`checked` totals of the workload's verifiers whose count has a closed
    form."""
    s = SIZES[size]
    if workload == "sweep-operators":
        side = s["counting_side"]
        return {"counting": sum(n * m + 1 for n in range(1, side + 1)
                                for m in range(1, side + 1))}
    agreement = sum(comb(n * m, N) * n * (n - 1) // 2
                    for n, m in _dims(s["agreement_cells"])
                    for N in range(n * m + 1))
    # patterns with top row lam: the Weyl dimension formula of gl_rank
    cgp = 0
    for rank in TABLEAU_RANKS:
        for shape in _shapes(rank, s["cgp_boxes"]):
            lam = shape + (0,) * (rank - len(shape))
            pool = prod(lam[i] - lam[j] + j - i
                        for i in range(rank) for j in range(i + 1, rank))
            pool //= prod(j - i for i in range(rank) for j in range(i + 1, rank))
            cgp += pool * rank * (rank - 1) // 2
    return {"agreement": agreement, "cgp_homomorphism": cgp}


# ---------------------------------------------------------------------------
# act-cold: a stream of single-element library calls

TABLEAU_MAX_PART = 3
TABLEAU_MAX_BOXES = 8
STREAM_RANKS = (5, 6)
# every shape has more cells than any sweep matrix
MATRIX_SHAPES = ((3, 5), (5, 3), (4, 4), (3, 6), (6, 3), (4, 5), (5, 4))
DUALITY_SHAPES = MATRIX_SHAPES + ((5, 6), (6, 5), (4, 7))
# request mix per block of five: two tableau words, one of each other kind
KIND_BLOCK = ("tableau_word", "tableau_word", "inner_on_cols",
              "outer_on_rows", "duality")


@dataclass(frozen=True)
class Request:
    kind: str
    args: tuple


def _stream_shapes(rank: int):
    return [lam for size in range(1, TABLEAU_MAX_BOXES + 1)
            for lam in base.partitions_in_box(rank, TABLEAU_MAX_PART, size)]


def _random_pattern(rng, top):
    rows = [tuple(top)]
    while len(rows[-1]) > 1:
        up = rows[-1]
        rows.append(tuple(rng.randint(up[i + 1], up[i])
                          for i in range(len(up) - 1)))
    return gt.gt_pattern(rows)


def _random_interval(rng, rank):
    p = rng.randint(1, rank - 1)
    return base.DynkinInterval(p, rng.randint(p + 1, rank), rank)


def _random_matrix(rng, n, m):
    ones = set(rng.sample(range(n * m), rng.randint(1, n * m - 1)))
    return tuple(tuple(int(r * m + c in ones) for c in range(m))
                 for r in range(n))


def act_cold(seed: int, index: int, size: str) -> list[Request]:
    """Session `index` of a run: a fixed request mix, each request drawn
    from the session's generator.  Shapes are cycled, not drawn, so every
    session sees each shape about equally often."""
    rng = pass_rng(seed, index)
    count = SIZES[size]["requests"]
    kinds = [KIND_BLOCK[k % len(KIND_BLOCK)] for k in range(count)]
    rng.shuffle(kinds)
    shapes = [(rank, lam) for rank in STREAM_RANKS for lam in _stream_shapes(rank)]
    rng.shuffle(shapes)
    cursor = {"tableau_word": 0, "inner_on_cols": 0, "outer_on_rows": 0,
              "duality": 0}
    stream = []
    for kind in kinds:
        k = cursor[kind]
        cursor[kind] += 1
        if kind == "tableau_word":
            rank, lam = shapes[k % len(shapes)]
            pattern = _random_pattern(rng, lam + (0,) * (rank - len(lam)))
            word = cactus.CactusWord(rank, tuple(
                _random_interval(rng, rank) for _ in range(rng.randint(1, 3))))
            args = (rank, pattern, gt.gt_to_tableau(pattern), word)
        elif kind == "duality":
            n, m = DUALITY_SHAPES[k % len(DUALITY_SHAPES)]
            args = (_random_matrix(rng, n, m),)
        else:
            n, m = MATRIX_SHAPES[k % len(MATRIX_SHAPES)]
            M = _random_matrix(rng, n, m)
            args = (M, cactus.CactusWord(n, (_random_interval(rng, n),)))
        stream.append(Request(kind, args))
    return stream


def serve(request: Request):
    """Answer one request through the library, as a caller would."""
    kind, args = request.kind, request.args
    if kind == "tableau_word":
        rank, _, tableau, word = args
        return cactus.inner_act(word, tableaux.tableau_crystal(rank), tableau)
    if kind == "inner_on_cols":
        return skewhowe.inner_on_cols(*args)
    if kind == "outer_on_rows":
        return skewhowe.outer_on_rows(*args)
    return skewhowe.duality_inv(skewhowe.duality_iso(args[0]))


def check_response(request: Request, response) -> bool:
    """Recompute the answer by an independent route."""
    kind, args = request.kind, request.args
    if kind == "tableau_word":
        # s[i,j] acts on patterns as the toggle composite q_{j-1} q_{j-i} q_{j-1}
        rank, x, _, word = args
        for g in word.generators:
            for q in (g.q - 1, g.q - g.p, g.q - 1):
                x = gt.bk_q(x, q)
        return gt.tableau_to_gt(response, rank) == x
    if kind == "inner_on_cols":
        # the agreement theorem: the outer action on the row word
        return skewhowe.outer_on_rows(*args) == response
    if kind == "outer_on_rows":
        return skewhowe.inner_on_cols(*args) == response
    return response == args[0]
