"""hhverify: numerical verification of Hermite-Hadamard-type inequality
chains for harmonic and symmetrized-harmonic convex functions.

The package re-exports every layer's ``__all__``; :mod:`hhverify.cli` is
imported on its own."""

__version__ = "0.1.0"

from .fnspec import *
from .hmean import *
from .quad import *
from .convexity import *
from .ineq import *
from .corpus import *

__all__ = [name for name in dir() if not name.startswith("_")]
