"""Exact-arithmetic engine for superelliptic orthogonal polynomial families.

Constructs the recursion-generated families, builds their fourth-order
operators, and certifies the algebraic claims (residual vanishing, indicial
degree restrictions, kernel uniqueness, initial-condition classification,
Gegenbauer reductions, Favard orthogonality) with no approximation anywhere.

Importing the package executes none of its modules.  Each one below is put
in sys.modules and bound here through importlib's LazyLoader, and its code
runs when one of its attributes is first read.  The package's public names
are served by __getattr__ (PEP 562) from the module that defines them, so
`from superpoly import generate` executes `families` and what it imports,
and a CLI process executes only the layers its command reaches.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# each module, and the public names the package serves from it
_EXPORTS = {
    "errors": ("FitError", "ParameterError", "SuperpolyError", "TruncationError"),
    "poly": ("CPoly",),
    "linalg": ("nullspace", "solve_exact"),
    "families": ("Family", "canonical_j0", "generate"),
    "ode": ("OdeOperator", "align_index", "build_operator", "delta_correction", "indicial",
            "indicial_factors", "is_resonant", "polynomial_kernel",
            "printed_indicial_factors", "residual_scan", "scalar_coefficients", "scan_cell"),
    "fitting": ("FitResult", "fit_ode", "in_span", "operator_vector"),
    "series": ("certify_exponent_mapping", "first_order_residual", "pde_reduced",
               "pde_residual"),
    "classify": ("classification_report", "gegenbauer", "gegenbauer_ode_residual",
                 "seed_kind", "superposition_fit", "verify_gegenbauer_reduction"),
    "orth": ("FavardData", "closed_form_AB", "favard", "gram_check",
             "identify_ultraspherical", "orthogonality_report"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

for _name in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)  # marks it lazy; its code runs on first read
del _name, _spec, _module


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted([*globals(), *_HOME])
