"""The instance registry of `verify all`, the explicit `verify` targets and
the acceptance tests.  A row is `(label, cost, thunk)`: `verify` alone
checks the enumeration size `cost` against a budget; `thunk` gives a Report.
A row with several checks on one element set chains their witness streams
into one `core.run_checks`, the only place `checked` is counted.  `SUITES`
maps each suite to its row builder, in `verify all` order.
"""

from functools import partial
from itertools import chain
from math import comb

from .base import (format_partition, partitions_in_box, schur_bruteforce,
                   weyl_dimension)
from .cactus import (braid_witnesses, relation_witnesses,
                     verify_cactus_relations, verify_reduced_braid)
from .core import (Report, axiom_witnesses, character, check_crystal_axioms,
                   involution_witnesses, run_checks,
                   verify_involution_properties)
from .goldens import GOLDENS
from .gt import check_cgp_homomorphism
from .matrices import (bit_matrices, matrix_col_crystal, matrix_row_crystal,
                       verify_commutation, verify_dual_implementation)
from .skewhowe import verify_agreement, verify_corollary, verify_counting
from .tableaux import enumerate_b_lambda, tableau_crystal

MATRIX_VERIFIERS = {"agree": verify_agreement, "corollary": verify_corollary,
                    "commute": verify_commutation,
                    "dual": verify_dual_implementation,
                    "counting": verify_counting}
MODEL_VERIFIERS = {"cactus": verify_cactus_relations,
                   "braid": verify_reduced_braid,
                   "xi": verify_involution_properties,
                   "axioms": check_crystal_axioms}


def matrix_sizes(max_cells: int) -> list[tuple[int, int, int]]:
    """(n, m, N) with n * m <= max_cells, in lexicographic order."""
    return [(n, m, N) for n in range(1, max_cells + 1)
            for m in range(1, max_cells // n + 1) for N in range(n * m + 1)]


def tableau_shapes() -> list:
    """(rank, shape) for ranks 2..4 and shapes of at most 6 boxes."""
    return [(rank, shape) for rank in (2, 3, 4) for size in range(7)
            for shape in partitions_in_box(rank, size, size)]


def chained(streams, source, *key) -> Report:
    """One `run_checks` over the witness streams of `streams` on the
    elements `source(*key)` of one row, one stream after another: each
    (witnesses, model) pair streams witnesses(model(*key), elements).  The
    chain is lazy, so no stream starts after a witness, and `checked`
    counts the items read across the streams."""
    elements = list(source(*key))
    return run_checks("chained", {"size": len(elements)},
                      chain.from_iterable(witnesses(model(*key), elements)
                                          for witnesses, model in streams))


def _row_crystal(n: int, m: int, N: int):
    return matrix_row_crystal(n, m)


def _column_crystal(n: int, m: int, N: int):
    return matrix_col_crystal(n, m)


def _tableau_crystal(shape, rank: int):
    return tableau_crystal(rank)


def _oracle(shape, rank: int) -> Report:
    """The character of B(shape) against the brute-force Schur polynomial;
    pass or fail, the report counts every tableau it compared."""
    elements = enumerate_b_lambda(shape, rank, cross_check=True)
    instance = {"rank": rank, "shape": format_partition(shape)}
    if character(tableau_crystal(rank), elements) != schur_bruteforce(shape, rank):
        return Report("oracle", instance, len(elements), "fail",
                      f"character differs from brute force at "
                      f"{instance['shape']}")
    return Report("oracle", instance, len(elements), "pass")


def _has_a_node(n: int, m: int, N: int) -> bool:
    return n * m >= 2


# label -> whether the instance (n, m, N) has anything to check; the rows
# of an instance that has not are left out.  agree acts with the rank-n
# generators and corollary with the rank-m ones, commute needs an operator
# that moves, and the others a node on one side; counting always counts.
CHECKS_SOMETHING = {"agree": lambda n, m, N: n >= 2,
                    "corollary": lambda n, m, N: m >= 2,
                    "commute": lambda n, m, N: 0 < N < n * m,
                    "dual": _has_a_node, "axioms": _has_a_node,
                    "cactus+braid matrix": _has_a_node,
                    "xi matrix": _has_a_node,
                    "counting": lambda n, m, N: True}


def _matrix_rows(label: str, check, sizes) -> list:
    keep = CHECKS_SOMETHING[label]
    return [(f"{label} n={n} m={m} N={N}", comb(n * m, N),
             partial(check, n, m, N)) for n, m, N in sizes if keep(n, m, N)]


def _shape_rows(label: str, check, cost, shapes) -> list:
    """Rows of `check(shape, rank)`, costing `cost(shape, rank)`."""
    return [(f"{label} rank={rank} shape={format_partition(shape)}",
             cost(shape, rank), partial(check, shape, rank))
            for rank, shape in shapes]


AXIOMS = ((axiom_witnesses, _row_crystal), (axiom_witnesses, _column_crystal))
RELATIONS = ((relation_witnesses, _column_crystal),
             (relation_witnesses, _row_crystal),
             (braid_witnesses, _row_crystal),
             (braid_witnesses, _column_crystal))
XI = ((involution_witnesses, _column_crystal),
      (involution_witnesses, _row_crystal))
TABLEAU_RELATIONS = ((relation_witnesses, _tableau_crystal),
                     (braid_witnesses, _tableau_crystal))
TABLEAU_XI = ((involution_witnesses, _tableau_crystal),)

SUITES = {
    "goldens": lambda: [(f"golden {name}", 0, check) for name, check in GOLDENS],
    **{name: partial(_matrix_rows, name, MATRIX_VERIFIERS[name],
                     matrix_sizes(12))
       for name in ("agree", "corollary", "commute", "dual")},
    "axioms": partial(_matrix_rows, "axioms",
                      partial(chained, AXIOMS, bit_matrices), matrix_sizes(12)),
    "relations tableau": partial(
        _shape_rows, "cactus+braid",
        partial(chained, TABLEAU_RELATIONS, enumerate_b_lambda),
        weyl_dimension, tableau_shapes()),
    "relations matrix": partial(_matrix_rows, "cactus+braid matrix",
                                partial(chained, RELATIONS, bit_matrices),
                                matrix_sizes(9)),
    "bk": partial(_shape_rows, "bk", check_cgp_homomorphism,
                  weyl_dimension, tableau_shapes()),
    "oracle": partial(_shape_rows, "oracle", _oracle, lambda shape, rank: 1,
                      tableau_shapes()),
    "counting": partial(_matrix_rows, "counting", verify_counting,
                        [s for s in matrix_sizes(16)  # n and m in 2..4
                         if 2 <= s[0] <= 4 and 2 <= s[1] <= 4]),
    "xi matrix": partial(_matrix_rows, "xi matrix",
                         partial(chained, XI, bit_matrices), matrix_sizes(8)),
    "xi tableau": partial(
        _shape_rows, "xi tableau",
        partial(chained, TABLEAU_XI, enumerate_b_lambda),
        weyl_dimension,
        ((3, (2, 1)), (3, (3, 1)), (4, (2, 1, 1)), (4, (3, 2)))),
}


def suite_rows() -> list:
    """Every row of `verify all`, suite after suite."""
    return [row for build in SUITES.values() for row in build()]


def target_rows(target: str, n: int, m: int, N: int | None) -> list:
    """Rows of `verify <target> --n --m [--N]`: that N, else every N, less
    the instances with nothing to check, as in `verify all`."""
    ns = [N] if N is not None else range(n * m + 1)
    return _matrix_rows(target, MATRIX_VERIFIERS[target],
                        [(n, m, k) for k in ns])


def bk_rows(shape, rank: int, spelling: str) -> list:
    """The row of `verify bk`, labelled with the caller's shape spelling and
    costing its pattern count, as in `verify all`."""
    return [(f"bk rank={rank} shape={spelling}", weyl_dimension(shape, rank),
             partial(check_cgp_homomorphism, shape, rank))]


def model_rows(target: str, model: str, crystal, size: int, elements) -> list:
    """The row of `verify <target>` on a selected crystal, costing the
    `size` of its selection; `elements` is that selection, or None when
    the row is over budget and will be refused."""
    return [(f"{target} {model}", size,
             partial(MODEL_VERIFIERS[target], crystal, elements))]
