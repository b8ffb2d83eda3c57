"""Exact workbench for subspace nests, operator bimodules, and abstract chains.

Everything is computed over the rationals with fractions.Fraction, so results
are exact: equal subspaces compare equal, and no tolerance appears anywhere.
"""

from .chaincalc import *
from .documents import *
from .errors import *
from .nest import *
from .opspace import *
from .ratlin import *

__version__ = "0.1.0"

# each module lists its public names in its own __all__; importing a
# submodule binds its name here
__all__ = (
    chaincalc.__all__
    + documents.__all__
    + errors.__all__
    + nest.__all__
    + opspace.__all__
    + ratlin.__all__
)
