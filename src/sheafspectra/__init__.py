"""Exact-arithmetic workbench for spectra of rank-2 sheaves on P^3.

Everything runs over the integers.  The package splits into five layers
over a shared exception module:

* :mod:`sheafspectra.invariants` -- Chern classes, Euler characteristics,
  splitting types and the invariants of a kernel onto points.
* :mod:`sheafspectra.spectrum` -- admissibility rules for spectra, the
  exhaustive enumerator, and the one writer of printed JSON and markdown.
* :mod:`sheafspectra.cohomology` -- twist-indexed cohomology tables and the
  spectrum <-> table translation in both directions.
* :mod:`sheafspectra.sheafcalc` -- symbolic building blocks, short exact
  sequence splicing, monads, and quotient recipes.
* :mod:`sheafspectra.workbench` -- moduli component catalogs, verification
  reports, and realizability comparisons.
* :mod:`sheafspectra.errors` -- the exception hierarchy.

Each module lists its public names in its own ``__all__``; the package
root re-exports exactly those names, on first access.  Importing the
root loads no layer; the first read of a public name, or of ``__all__``,
imports every layer and binds all their names here.  Reading a layer or
``cli`` through the root (``from sheafspectra import spectrum``) imports
that module and what it imports, nothing more.
"""

__version__ = "0.1.0"

_LAYERS = ("errors", "invariants", "spectrum", "cohomology", "sheafcalc", "workbench")


def __getattr__(name):
    # PEP 562: called only for names not bound in this module yet
    from importlib import import_module

    if name in _LAYERS or name == "cli":  # binds the module here as it imports it
        return import_module(f"{__name__}.{name}")
    scope = globals()
    if "__all__" not in scope:
        layers = [import_module(f"{__name__}.{layer}") for layer in _LAYERS]
        scope.update((key, getattr(m, key)) for m in layers for key in m.__all__)
        scope["__all__"] = [key for m in layers for key in m.__all__]
        if name in scope:
            return scope[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
