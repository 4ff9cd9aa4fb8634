"""Exact construction and verification of quadratic 2-step nilpotent Lie
algebras: double extensions, dual (T*-type) extensions, skew matrix
families, and trivectors, all over the rationals."""

from .algebra import (AlgebraType, LieAlgebra, abelian, from_bracket_table,
                      heisenberg)
from .alternating import AltCoeffs, format_coeffs, parse_coeffs
from .catalog import (CATALOG, CatalogEntry, catalog, catalog_counts,
                      lambda_trivector)
from .convert import (RoadsReport, all_roads, coeffs_to_family,
                      count_parameters, family_to_coeffs)
from .doubleext import (ExtensionChain, build_chain, centre_formula_1d,
                        chain_dcoeffs, chain_display_permutation,
                        chain_reduced_check, chain_to_algebra,
                        chain_to_coeffs, derivation_defect,
                        derivation_space, double_extend, double_extend_1d,
                        fold_chain, inner_preimage, skew_defect,
                        two_step_criterion)
from .errors import QuadlieError, ValidationError
from .forms import (QuadraticStructure, hyperbolic_form, invariance_defect,
                    is_isometry, is_lagrangian, lagrangian_complement,
                    orthogonal_complement, permute_quadratic)
from .linalg import (Fraction, Mat, Subspace, kernel, rank, rref, scalar,
                     solve, inverse)
from .quadfam import (QuadraticFamily, algebra_from_family, f_matrix,
                      is_nondegenerate_family, validate_family)
from .randgen import (SplitMix64, random_coeffs, random_invertible,
                      random_matrix, random_skew_derivation)
from .trivector import (Trivector, algebra_from_trivector, contract, gl_act,
                        isometry_from_gl, trivector_kernel, trivector_rank)
from .tstar import (CocycleCoeffs, GeneralCocycle, cocycle_defect,
                    cyclic_defect, decompose_as_tstar, find_lagrangian_ideal,
                    is_cyclic, is_two_cocycle, radical, reduced_criteria,
                    tstar_extend, value_span)

__version__ = "0.1.0"
