"""Exact-arithmetic engine for superelliptic orthogonal polynomial families.

Constructs the recursion-generated families, builds their fourth-order
operators, and certifies the algebraic claims (residual vanishing, indicial
degree restrictions, kernel uniqueness, initial-condition classification,
Gegenbauer reductions, Favard orthogonality) with no approximation anywhere.
"""

from .errors import FitError, ParameterError, SuperpolyError, TruncationError
from .poly import CPoly
from .linalg import nullspace, solve_exact
from .families import Family, canonical_j0, generate
from .ode import (OdeOperator, align_index, build_operator, delta_correction, indicial,
                  indicial_factors, is_resonant, polynomial_kernel,
                  printed_indicial_factors, residual_scan, scalar_coefficients, scan_cell)
from .fitting import FitResult, fit_ode, in_span, operator_vector
from .series import (certify_exponent_mapping, first_order_residual, pde_reduced,
                     pde_residual)
from .classify import (classification_report, gegenbauer, gegenbauer_ode_residual,
                       seed_kind, superposition_fit, verify_gegenbauer_reduction)
from .orth import (FavardData, closed_form_AB, favard, gram_check,
                   identify_ultraspherical, orthogonality_report)

__version__ = "0.1.0"
