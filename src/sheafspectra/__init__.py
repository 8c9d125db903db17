"""Exact-arithmetic workbench for spectra of rank-2 sheaves on P^3.

Everything runs over the integers.  The package splits into five layers
over a shared exception module:

* :mod:`sheafspectra.invariants` -- Chern classes, Euler characteristics,
  and total Chern series arithmetic.
* :mod:`sheafspectra.spectrum` -- admissibility rules for spectra and the
  exhaustive enumerator.
* :mod:`sheafspectra.cohomology` -- twist-indexed cohomology tables, the
  spectrum <-> table translation in both directions, and the one writer
  of printed JSON and markdown.
* :mod:`sheafspectra.sheafcalc` -- symbolic building blocks, short exact
  sequence splicing, monads, and quotient recipes.
* :mod:`sheafspectra.workbench` -- moduli component catalogs, verification
  reports, and realizability comparisons.
* :mod:`sheafspectra.errors` -- the exception hierarchy.

Each module lists its public names in its own ``__all__``; the package
root re-exports exactly those names.
"""

from . import cohomology, errors, invariants, sheafcalc, spectrum, workbench
from .cohomology import *
from .errors import *
from .invariants import *
from .sheafcalc import *
from .spectrum import *
from .workbench import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *invariants.__all__,
    *spectrum.__all__,
    *cohomology.__all__,
    *sheafcalc.__all__,
    *workbench.__all__,
]
