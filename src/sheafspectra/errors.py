"""Exception hierarchy shared by all modules.

Two broad families matter to callers (and to the CLI exit codes):

* malformed or inadmissible input: bad Chern classes, bad spectra, bad
  catalog files, ill-formed symbols;
* verification and constraint failures: tables that cannot come from any
  spectrum, ranges too short to decide, infeasible exact sequences, and
  catalog entries whose recomputation disagrees with the stored data.
"""

__all__ = [
    "SheafSpectraError",
    "NotNormalizedError",
    "ParityError",
    "DegenerateClassError",
    "InadmissibleSpectrumError",
    "RankMismatchError",
    "IntegralityError",
    "AmbiguousCurveModuleError",
    "CatalogError",
    "RangeInsufficientError",
    "InconsistentTableError",
    "SequenceInfeasibleError",
    "VerificationError",
    "VERIFICATION_ERRORS",
]


class SheafSpectraError(Exception):
    """Base class for every error raised by this package."""


# --- malformed / inadmissible input -------------------------------------

class NotNormalizedError(SheafSpectraError):
    """First Chern class outside the normalized range {-1, 0}."""


class ParityError(SheafSpectraError):
    """Chern classes violating the integrality parity law."""


class DegenerateClassError(SheafSpectraError):
    """c2 <= 0 where a spectrum of positive length is required."""


class InadmissibleSpectrumError(SheafSpectraError):
    """Spectrum incompatible with its Chern classes (wrong length, negative
    s, or a recipe's answer breaking the chain-down rule or the s bound)."""


class RankMismatchError(SheafSpectraError):
    """Monad or recipe whose rank is not the target."""


class IntegralityError(SheafSpectraError):
    """An Euler characteristic came out as a non-integer (raised only by
    euler_characteristic, and unreachable once the parity law holds)."""


class AmbiguousCurveModuleError(SheafSpectraError):
    """Curve module asked for a twist where chi = 0 and the generic
    flag is off, so h0/h1 are not determined by the data given."""


class CatalogError(SheafSpectraError):
    """Catalog document violating the schema or a descriptor invariant."""


# --- verification / constraint failures ---------------------------------

class RangeInsufficientError(SheafSpectraError):
    """The table does not witness the stabilization needed to pin the
    spectrum; extending the twist range may fix it."""


class InconsistentTableError(SheafSpectraError):
    """The table cannot be the cohomology table of any spectrum (wrong
    monotonicity, failed regeneration, or chi mismatch)."""


class SequenceInfeasibleError(SheafSpectraError):
    """A short exact sequence forcing a negative dimension somewhere."""


class VerificationError(SheafSpectraError):
    """Recomputation disagrees with stored catalog data."""


VERIFICATION_ERRORS = (
    RangeInsufficientError,
    InconsistentTableError,
    SequenceInfeasibleError,
    VerificationError,
)
