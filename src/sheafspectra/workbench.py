"""Moduli-component catalog, reports, shared-spectrum pairs, gap analysis.

The bundled catalog records the known irreducible components of the two
desk-scale moduli spaces (classes (-1,2,0) and (0,3,0)): name, family,
family parameters, dimension, generic spectrum, and, where the
construction is expressible with the recipe grammar, a recipe that
component_report re-executes to confirm the stored spectrum.  Closed
dimension and Chern-class formulas for the X and T families are
enforced at load time, as is the c3 identity between spectrum and s;
the other families have no closed forms and take no params.

realizability_gap diffs the exhaustive spectrum enumeration against the
catalog (which candidates have no known component) and against the
documented candidate list (which enumerated candidates are diagnostics
of the unbounded chain-up default rather than documented possibilities).
check_slope_examples reruns the slope-semistable kernel examples whose
s-invariant breaks the zero-dimensional bound.

_descriptor_from_json alone reads and checks a record, and turns its
recipe into the construction node that reports evaluate; any failure
there is a CatalogError naming the component, and a catalog remembers
each recipe component_report has matched.  Reports print through
the cohomology layer's writer (report_json and its markdown builder).
"""

from __future__ import annotations

import itertools
import json
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .cohomology import _markdown, _spectrum_str
from .errors import CatalogError, SheafSpectraError, VerificationError
from .invariants import ChernClasses, _Checked, _exact, kernel_invariants
from .sheafcalc import _derivation, symbol_from_json
from .spectrum import (
    UNBOUNDED,
    ChainUpParam,
    SpectrumWithS,
    c3_from_spectrum,
    enumerate_spectra,
    s_upper_bound,
)

__all__ = [
    "FAMILIES",
    "DOCUMENTED_CANDIDATES",
    "ComponentDescriptor",
    "Catalog",
    "catalog_load",
    "component_dimension",
    "component_report",
    "report_markdown",
    "rao_pairs",
    "realizability_gap",
    "check_slope_examples",
    "slope_examples_markdown",
]

FAMILIES = ("reflexive-extension", "X", "T", "monad", "quotient-sequence")

# candidate spectra documented for each moduli class, in enumeration order;
# enumerated candidates outside these lists are artifacts of the unbounded
# chain-up default and are reported as diagnostics
DOCUMENTED_CANDIDATES = {
    (-1, 2, 0): ((-2, -1), (-1, -1), (-1, 0)),
    (0, 3, 0): (
        (-3, -2, -1),
        (-2, -2, -1),
        (-2, -1, -1),
        (-2, -1, 0),
        (-1, -1, 0),
        (-1, -1, 1),
        (-1, -1, 2),
        (-1, 0, 0),
        (-1, 0, 1),
        (0, 0, 0),
    ),
}


def _family_invariants(family: str, params: Mapping, e: int) -> tuple:
    # closed-form dimension and (e, c2, c3) of an X- or T-family component,
    # read from params that must be JSON integers
    if family == "X":
        n, m, r, s = (_exact(params[k]) for k in ("n", "m", "r", "s"))
        ordinary = r >= 2 and 0 <= s <= 2 * r + 2 + e - m
        if not (ordinary or (r, s, n, m) == (1, 0, 1, 1)):
            raise ValueError(
                f"X-family parameters out of range: n={n} m={m} r={r} s={s} e={e}"
            )
        return 8 * n + 4 * s + 2 * r + 2 + e, (e, n + 1, m + 2 + e - 2 * r - 2 * s)
    if family == "T":
        n, m, s = (_exact(params[k]) for k in ("n", "m", "s"))
        if n < 1 or s < 0 or m - 2 * s < 0:
            raise ValueError(
                f"T-family parameters out of range: n={n} m={m} s={s}"
            )
        return 8 * n - 3 + 2 * e + 4 * s, (e, n, m - 2 * s)
    raise ValueError(f"no closed-form dimension for family {family!r}")


def component_dimension(family: str, params: Mapping, e: int) -> int:
    """Closed-form dimension of an X- or T-family component."""
    return _family_invariants(family, params, e)[0]


class ComponentDescriptor(NamedTuple):
    """One catalog row: a known irreducible component of a moduli space."""

    moduli: ChernClasses
    name: str
    family: str
    dimension: int
    spectrum: SpectrumWithS
    params: Mapping | None = None
    construction: object = None  # a construction node, as symbol_from_json reads it


class Catalog(_Checked, NamedTuple("Catalog", [("components", tuple)])):
    # no __slots__: the instance dict holds the keys of the verified records

    def __new__(cls, components=()):
        self = tuple.__new__(cls, (tuple(components),))
        self._verified = set()  # (moduli, name) of each record whose recipe matched
        seen = set()
        for desc in self.components:
            key = (desc.moduli.as_tuple(), desc.name)
            if key in seen:
                raise CatalogError(
                    f"duplicate component {desc.name!r} for moduli "
                    f"{desc.moduli.as_tuple()}"
                )
            seen.add(key)
        return self

    def moduli_classes(self) -> list:
        return sorted({d.moduli.as_tuple() for d in self.components})

    def for_moduli(self, cc: ChernClasses) -> tuple:
        return tuple(d for d in self.components if d.moduli == cc)


def _descriptor_from_json(record: Mapping) -> ComponentDescriptor:
    # the one reader of a catalog record: any failure names the component
    if not isinstance(record, Mapping):
        raise CatalogError(f"component record must be an object, got {record!r}")
    name = record.get("name")
    if not isinstance(name, str) or not name:
        raise CatalogError(f"component without a usable name: {record!r}")
    try:
        family, dimension = record["family"], record["dimension"]
        params = record.get("params")
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if type(dimension) is not int or dimension < 0:
            raise ValueError(f"bad dimension {dimension!r}")
        moduli = ChernClasses(*record["moduli"])
        spectrum = SpectrumWithS(tuple(record["spectrum"]), record["s"])
        c3 = c3_from_spectrum(moduli.e, moduli.c2, spectrum)  # validates both
        if c3 != moduli.c3:
            raise ValueError(f"spectrum and s give c3 = {c3}, moduli say {moduli.c3}")
        if family in ("X", "T"):
            if params is None:
                raise ValueError(f"family {family} requires params")
            dim, classes = _family_invariants(family, params, moduli.e)
            if dim != dimension:
                raise ValueError(f"closed-form dimension {dim} != stored {dimension}")
            if classes != moduli.as_tuple():
                raise ValueError(
                    f"closed-form moduli {classes} != stored {moduli.as_tuple()}"
                )
        elif params is not None:
            raise ValueError(f"family {family} takes no params, got {params!r}")
        construction = record.get("construction")
        level = "data" if construction is None else "derived"
        if record.get("level", level) != level:  # the level follows the recipe
            raise ValueError(f"level {record['level']!r}, but a record with"
                             f"{'out' if construction is None else ''} a construction"
                             f" is {level!r}")
        if construction is not None:
            construction = symbol_from_json(construction)
    except Exception as exc:
        raise CatalogError(f"component {name!r}: {exc}") from exc
    return ComponentDescriptor(moduli, name, family, dimension, spectrum, params, construction)


def catalog_load(source=None) -> Catalog:
    """Load and validate a catalog.

    source may be None (the bundled asset), a str naming a JSON file
    (always a path, never JSON text), a parsed document with a
    "components" list, or a bare list of component records.
    """
    if source is None or isinstance(source, str):
        if source is None:
            path = resources.files("sheafspectra").joinpath("data/catalog.json")
        else:
            path = Path(source)
        try:
            source = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise CatalogError(f"catalog is not valid JSON: {exc}") from exc
    if isinstance(source, Mapping):
        records = source.get("components")
        if not isinstance(records, Sequence):
            raise CatalogError('catalog document needs a "components" list')
    elif isinstance(source, Sequence):
        records = source
    else:
        raise CatalogError(f"cannot load a catalog from {type(source).__name__}")
    return Catalog(_descriptor_from_json(r) for r in records)


def component_report(catalog: Catalog, moduli: ChernClasses) -> dict:
    """Rows (name, dimension, spectrum, s, level, verified) for one moduli class.

    Components carrying a construction recipe are re-derived through the
    splice pipeline once per catalog, a failure on every report; it names
    the component, and a class or spectrum mismatch is a VerificationError.
    Such a row is "derived" and verified; a row without a recipe is "data".
    """
    rows = []
    for desc in sorted(
        catalog.for_moduli(moduli), key=lambda d: (d.dimension, d.name)
    ):
        key = (desc.moduli, desc.name)
        if desc.construction is not None and key not in catalog._verified:
            try:
                cc, recomputed = _derivation(desc.construction)
            except SheafSpectraError as exc:  # same class, so the exit code holds
                raise type(exc)(f"component {desc.name!r}: {exc}") from exc
            if (cc, recomputed) != (desc.moduli, desc.spectrum):
                raise VerificationError(
                    f"component {desc.name!r}: construction gives {cc.as_tuple()}, "
                    f"{recomputed}; catalog stores {desc.moduli.as_tuple()}, {desc.spectrum}"
                )
            catalog._verified.add(key)
        rows.append(
            {
                "name": desc.name,
                "dimension": desc.dimension,
                "spectrum": list(desc.spectrum.values),
                "s": desc.spectrum.s,
                "level": "data" if desc.construction is None else "derived",
                "verified": desc.construction is not None,
            }
        )
    return {"moduli": list(moduli.as_tuple()), "components": rows}


def report_markdown(report: Mapping) -> str:
    rows = (
        (r["name"], r["dimension"], _spectrum_str(r["spectrum"]), r["s"], r["level"],
         "yes" if r["verified"] else "-")
        for r in report["components"]
    )
    header = ("Component", "Dimension", "Spectrum", "s", "Level", "Verified")
    return _markdown(header, rows)


def rao_pairs(catalog: Catalog, moduli: ChernClasses) -> list:
    """Unordered pairs of distinct components sharing spectrum values.

    s is deliberately not compared; it is reported with the component
    rows instead.  Output is sorted by name, so it does not depend on
    catalog order.
    """
    components = sorted(catalog.for_moduli(moduli), key=lambda d: d.name)
    return [
        (a.name, b.name)
        for a, b in itertools.combinations(components, 2)
        if a.spectrum.values == b.spectrum.values
    ]


def realizability_gap(
    catalog: Catalog, cc: ChernClasses, p: ChainUpParam = UNBOUNDED
) -> tuple[list, list]:
    """Diff the spectrum enumeration against the catalog.

    Returns (missing, extra_candidates): enumerated spectrum values with
    no catalog component, and enumerated values absent from the
    documented candidate list.  A catalog spectrum missing from the
    enumeration means the enumerator or the catalog is wrong.
    """
    # enumerate_spectra emits each nondecreasing tuple once
    enumerated = [sw.values for sw in enumerate_spectra(cc, p)]
    realized = {d.spectrum.values for d in catalog.for_moduli(cc)}
    stray = realized.difference(enumerated)
    if stray:
        raise VerificationError(
            f"catalog spectra {sorted(stray)} missing from the enumeration "
            f"for {cc.as_tuple()}"
        )
    documented = set(DOCUMENTED_CANDIDATES.get(cc.as_tuple(), enumerated))
    missing = [v for v in enumerated if v not in realized]
    extra = [v for v in enumerated if v not in documented]
    return missing, extra


# slope-semistable kernel examples: ambient Chern classes, point count
_SLOPE_EXAMPLES = (
    ("kernel of a (0,3,12) reflexive sheaf onto 6 points", ChernClasses(0, 3, 12), 6),
    ("kernel of a (0,3,10) plane-quartic extension onto 5 points", ChernClasses(0, 3, 10), 5),
    ("kernel of a (-1,2,4) reflexive sheaf onto 2 points", ChernClasses(-1, 2, 4), 2),
)


def check_slope_examples() -> dict:
    """Re-derive the kernel examples that overshoot the 0-dimensional bound.

    Each kernel's spectrum is pinned down by matching its s-invariant
    against the exhaustive enumeration for its Chern classes; a case
    whose s exceeds the zero-dimensional bound cannot be Gieseker
    semistable.
    """
    cases = []
    for label, ambient, n_points in _SLOPE_EXAMPLES:
        cc, s = kernel_invariants(ambient, n_points)
        matches = [sw for sw in enumerate_spectra(cc) if sw.s == s]
        if len(matches) != 1:
            raise VerificationError(
                f"{label}: s = {s} matches {len(matches)} enumerated spectra, "
                "cannot pin one down"
            )
        bound = s_upper_bound(cc.e, cc.c2, "zero_dimensional")
        flagged = s > bound
        cases.append(
            {
                "label": label,
                "ambient": list(ambient.as_tuple()),
                "points": n_points,
                "kernel": list(cc.as_tuple()),
                "s": s,
                "spectrum": list(matches[0].values),
                "zero_dimensional_bound": bound,
                "flagged": flagged,
                "verdict": "not Gieseker-semistable" if flagged else "within bound",
            }
        )
    return {"cases": cases}


def slope_examples_markdown(report: Mapping) -> str:
    rows = (
        (c["label"], _spectrum_str(c["kernel"]), c["s"], _spectrum_str(c["spectrum"]),
         c["zero_dimensional_bound"], c["verdict"])
        for c in report["cases"]
    )
    return _markdown(("Case", "Kernel", "s", "Spectrum", "Bound", "Verdict"), rows)
