"""Moduli component catalogs: verification reports and comparisons."""

from sheafspectra import (
    ChernClasses,
    catalog_load,
    check_slope_examples,
    component_report,
    rao_pairs,
    realizability_gap,
    report_markdown,
    slope_examples_markdown,
)

catalog = catalog_load()
print("bundled catalog:", len(catalog.components), "components over",
      len({d.moduli for d in catalog.components}), "moduli spaces")

# Every derived component's recipe was re-run and checked against its
# recorded spectrum while the catalog was loaded; reports only format.
cc = ChernClasses(-1, 2, 0)
report = component_report(catalog, cc)
print()
print(report_markdown(report))

cc = ChernClasses(0, 3, 0)
report = component_report(catalog, cc)
print()
print(report_markdown(report))

# Distinct components sharing a spectrum.
print()
print("shared spectra on (0,3,0):", rao_pairs(catalog, cc))

# Enumerated-but-unrealized spectra, and enumerated values beyond the
# documented candidate list.
missing, extras = realizability_gap(catalog, cc)
print("unrealized:", missing)
print("beyond the documented list:", extras)

# Kernels of surjections onto points: two slope-semistable examples
# whose s-invariant exceeds the zero-dimensional bound, so neither can
# be Gieseker semistable, plus an in-bound control case.
print()
print(slope_examples_markdown(check_slope_examples()))
