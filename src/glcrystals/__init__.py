"""Exact combinatorics engine for gl_k crystals.

Models: semistandard tableaux, Gelfand-Tsetlin patterns, tensor products,
and 0/1-matrix crystals.  Generic machinery: Schutzenberger involutions,
Kashiwara reflections, cactus word actions, and the skew duality between
matrix crystals and pairs of tableaux of transpose shapes, with exhaustive
desk-scale verifiers for all of it.
"""

from .base import (DynkinInterval, Partition, Weight, intervals, partition,
                   schur_bruteforce, transpose, weyl_longest)
from .cactus import (CactusWord, inner_act, outer_act, parse_word,
                     verify_cactus_relations, verify_reduced_braid, weyl_image,
                     word, xi_full)
from .core import (Component, Crystal, Report, character, check_crystal_axioms,
                   component, components, export_graph, is_morphism,
                   kashiwara_reflection, schuetzenberger,
                   schuetzenberger_by_path, to_highest_path,
                   verify_involution_properties, verify_local_involution)
from .gt import (PatternCrystal, beta, bk_move, bk_q, check_cgp_homomorphism,
                 gt_pattern, gt_to_tableau, pattern_crystal, patterns_with_top,
                 tableau_to_gt)
from .matrices import (Ce, Ceps, Cf, Cphi, Re, Reps, Rf, Rphi, bit_matrices,
                       bit_matrix, col_structure, fundamental_crystal,
                       matrix_col_crystal, matrix_row_crystal, row_structure,
                       verify_commutation, verify_dual_implementation)
from .skewhowe import (DualityPair, cf_max, doubly_extreme_shape, duality_inv,
                       duality_iso, phi_inv, phi_map, psi_inv, psi_map, re_max,
                       verify_agreement, verify_corollary, verify_counting)
from .tableaux import (TableauCrystal, apply_e, apply_f, enumerate_b_lambda,
                       evacuate, highest_tableau, signature, ssyt,
                       tableau_crystal)
from .tensor import TensorCrystal, tensor_crystal

__all__ = [name for name in dir() if not name.startswith("_")]
