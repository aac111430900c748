"""Exact-arithmetic engine for superelliptic orthogonal polynomial families.

Constructs the recursion-generated families, builds their fourth-order
operators, and certifies the algebraic claims (residual vanishing, indicial
degree restrictions, kernel uniqueness, initial-condition classification,
Gegenbauer reductions, Favard orthogonality) with no approximation anywhere.

Importing the package executes none of its modules.  Each one in LAYERS is
put in sys.modules and bound here through importlib's LazyLoader, and its
code runs when one of its attributes is first read, so a CLI process
executes only the layers its command reaches.  A name is read from the
module that defines it (`from superpoly.families import generate`).
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# each module after the modules it imports
LAYERS = ("errors", "poly", "linalg", "families", "ode", "fitting", "series", "classify", "orth")

for _name in LAYERS:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader = LazyLoader(_spec.loader)
    _module = module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)  # marks it lazy; its code runs on first read
del _name, _spec, _module
