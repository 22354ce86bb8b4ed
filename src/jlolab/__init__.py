"""Numerical laboratory for finite-dimensional graded spectral triples.

Builds heat-kernel cochains of triples, the boundary and shuffle operations
on entire cyclic chains, and idempotent index pairings, then verifies the
multiplicativity identities tying them together to floating-point accuracy.

Each module's `__all__` declares its public names; the package re-exports
them all.
"""

from . import chains, jlo, linalg, randomgen, shuffles, spectral, suites
from .chains import *
from .jlo import *
from .linalg import *
from .randomgen import *
from .shuffles import *
from .spectral import *
from .suites import *

__version__ = "0.1.0"

__all__ = []
__all__ += chains.__all__
__all__ += jlo.__all__
__all__ += linalg.__all__
__all__ += randomgen.__all__
__all__ += shuffles.__all__
__all__ += spectral.__all__
__all__ += suites.__all__
