"""Acceptance suite.

One test per shipped guarantee, each ending in a single printed
``[ACCEPTANCE n] ... PASS`` line (visible under ``pytest -s`` or in the
captured output of a failing run).  All values asserted here are frozen
literals, deliberately not imported from the library, so that a
regression in the code cannot silently rewrite the expectations.
"""

import json
import random
import time

from sheafspectra import (
    ChernClasses,
    MonadShape,
    SpectrumWithS,
    c3_from_spectrum,
    catalog_load,
    check_slope_examples,
    construction_spectrum,
    enumerate_spectra,
    euler_characteristic,
    rao_pairs,
    realizability_gap,
    s_upper_bound,
    spectrum_from_table,
    splitting_type_from_e,
    table_from_spectrum,
)
from sheafspectra.cli import main
from sheafspectra.cohomology import CohomologyTable


def _ok(n, label):
    print(f"[ACCEPTANCE {n}] {label}: PASS")


def sum_via_chi(cc: ChernClasses, s: int) -> int:
    """sum(k_i) from the Euler characteristic instead of c3, the independent route.

    m (a2 - 1) - chi(E(-a2 - 1)) - s, with a2 = 0 for the generic splitting
    type (e, 0); agreement with the c3 identity checks the sign conventions.
    """
    return -cc.c2 - euler_characteristic(cc, -1) - s


# Published cohomology values, (h1, h2) keyed by twist, for the four
# components of the e = -1, c2 = 2, c3 = 0 moduli space.
EXTENSION_TABLE = {-1: (1, 0), -2: (0, 1), -3: (0, 3), -4: (0, 5)}
COKERNEL_QUOTIENT_TABLE = dict(EXTENSION_TABLE)
ONE_POINT_TABLE = {-1: (1, 0), -2: (1, 2), -3: (1, 4), -4: (1, 6)}
TWO_POINT_TABLE = {-1: (2, 1), -2: (2, 3), -3: (2, 5), -4: (2, 7)}

DOCUMENTED_TEN = {
    (0, 0, 0), (-1, 0, 1), (-1, -1, 2), (-1, 0, 0), (-1, -1, 1),
    (-1, -1, 0), (-2, -1, 0), (-2, -1, -1), (-2, -2, -1), (-3, -2, -1),
}
DERIVED_EXTRAS = {(-1, -1, -1), (-2, -1, 1), (-2, -1, 2), (-2, -1, 3)}


def _published_table(entries):
    rows = {t: (None, h1, h2, None) for t, (h1, h2) in entries.items()}
    return CohomologyTable(-4, -1, rows)


def _by_name(catalog, cc, name):
    for comp in catalog.for_moduli(cc):
        if comp.name == name:
            return comp
    raise AssertionError(f"{name} not in catalog for {cc.as_tuple()}")


def test_acceptance_1_exhaustive_enumeration_via_cli(capsys):
    code = main(["enumerate", "--e", "-1", "--c2", "2", "--c3", "0",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    got = {(tuple(row["values"]), row["s"]) for row in payload["spectra"]}
    assert got == {((-1, 0), 0), ((-1, -1), 1), ((-2, -1), 2)}
    _ok(1, "enumeration for (-1,2,0) is exactly the three admitted spectra")


def test_acceptance_2_table_reproduction():
    st = splitting_type_from_e(-1)
    for sw, published in [
        (SpectrumWithS((-1, 0), 0), EXTENSION_TABLE),
        (SpectrumWithS((-1, -1), 1), ONE_POINT_TABLE),
        (SpectrumWithS((-2, -1), 2), TWO_POINT_TABLE),
    ]:
        table = table_from_spectrum(sw, st, (-4, -1))
        for t, (h1, h2) in published.items():
            assert (table.row(t)[1], table.row(t)[2]) == (h1, h2)

    catalog = catalog_load()
    cc = ChernClasses(-1, 2, 0)
    for name, published in [
        ("C(2)", EXTENSION_TABLE),
        ("X(-1,1,1,1,0)", COKERNEL_QUOTIENT_TABLE),
    ]:
        recipe = _by_name(catalog, cc, name).construction
        recipe_cc, sw = construction_spectrum(recipe)
        assert recipe_cc == cc
        table = table_from_spectrum(sw, st, (-4, -1))
        for t, (h1, h2) in published.items():
            assert (table.row(t)[1], table.row(t)[2]) == (h1, h2)
    _ok(2, "closed form and construction pipelines reproduce all four tables")


def test_acceptance_3_inversion_of_published_tables():
    st = splitting_type_from_e(-1)
    expected = [
        (EXTENSION_TABLE, ((-1, 0), 0)),
        (COKERNEL_QUOTIENT_TABLE, ((-1, 0), 0)),
        (ONE_POINT_TABLE, ((-1, -1), 1)),
        (TWO_POINT_TABLE, ((-2, -1), 2)),
    ]
    for entries, (values, s) in expected:
        sw = spectrum_from_table(_published_table(entries), st)
        assert sw == SpectrumWithS(values, s)
    _ok(3, "published h1/h2 windows invert to the stated spectra")


def test_acceptance_4_monad_spectra_and_chern():
    catalog = catalog_load()
    cc = ChernClasses(0, 3, 0)
    expected = {"Instanton": (0, 0, 0), "Ein": (-1, 0, 1)}
    for name, values in expected.items():
        recipe = _by_name(catalog, cc, name).construction
        shape = MonadShape(recipe.a, recipe.b, recipe.c)
        assert shape.chern() == cc
        assert construction_spectrum(recipe) == (cc, SpectrumWithS(values, 0))
    _ok(4, "instanton and Ein monads give (0,0,0) and (-1,0,1) on class (0,3,0)")


def test_acceptance_5_containment_and_rao_pairs():
    catalog = catalog_load()
    cc = ChernClasses(0, 3, 0)
    enumerated = {sw.values for sw in enumerate_spectra(cc)}
    assert DOCUMENTED_TEN <= enumerated
    assert enumerated - DOCUMENTED_TEN == DERIVED_EXTRAS
    _missing, extras = realizability_gap(catalog, cc)
    assert set(extras) == DERIVED_EXTRAS
    assert ("C", "Instanton") in rao_pairs(catalog, cc)
    assert rao_pairs(catalog, ChernClasses(-1, 2, 0)) == [
        ("C(2)", "X(-1,1,1,1,0)")
    ]
    _ok(5, "documented spectra contained, extras identified, shared spectra paired")


def test_acceptance_6_bounds():
    assert s_upper_bound(0, 3, "general") == 6
    assert s_upper_bound(0, 3, "zero_dimensional") == 4
    assert s_upper_bound(-1, 2, "general") == 5
    assert s_upper_bound(-1, 2, "zero_dimensional") == 2
    for c2 in range(1, 20):
        for e in (-1, 0):
            assert (s_upper_bound(e, c2, "zero_dimensional")
                    <= s_upper_bound(e, c2, "general"))
    realized = max(sw.s for sw in enumerate_spectra(ChernClasses(-1, 2, 0)))
    assert realized == 2 < 5
    _ok(6, "s bounds match and the general bound is not attained on (-1,2,0)")


def test_acceptance_7_slope_counterexamples():
    rows = {case["s"]: case for case in check_slope_examples()["cases"]}
    assert rows[6]["spectrum"] == [-3, -2, -1] and rows[6]["flagged"]
    assert rows[5]["spectrum"] == [-2, -2, -1] and rows[5]["flagged"]
    assert not rows[2]["flagged"]
    _ok(7, "both slope-only examples exceed the zero-dimensional bound")


def test_acceptance_8_identity_web():
    start = time.perf_counter()
    rng = random.Random(20260815)
    cases = 10_000
    for _ in range(cases):
        e = rng.choice((-1, 0))
        m = rng.randint(1, 15)
        depth = rng.randint(1, m)
        values = sorted(
            list(range(-depth, 0))
            + [rng.randint(-depth, 2) for _ in range(m - depth)]
        )
        values = tuple(values)
        s = rng.randint(0, 12)
        sw = SpectrumWithS(values, s)

        # c3 identity against the independent Euler-characteristic route
        c3 = (-2 * sum(values) - m - 2 * s) if e == -1 else (-2 * sum(values) - 2 * s)
        cc = ChernClasses(e, m, c3)
        assert c3_from_spectrum(e, m, sw) == c3
        assert sum_via_chi(cc, s) == sum(values)

        # chi integrality and the parity law
        t = rng.randint(-8, 8)
        assert isinstance(euler_characteristic(cc, t), int)
        if e == -1:
            assert (cc.c2 + cc.c3) % 2 == 0
        else:
            assert cc.c3 % 2 == 0

        # table round trip and h1 stabilization at depth
        st = splitting_type_from_e(e)
        lo = min(-m - 6, -max(values) - 3)
        hi = max(2, -min(values) - 1)
        table = table_from_spectrum(sw, st, (lo, hi))
        assert spectrum_from_table(table, st) == sw
        for t in range(lo, -max(values) - 2 + 1):
            assert table.row(t)[1] == s
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"identity web took {elapsed:.1f}s"
    _ok(8, f"{cases} random classes pass every identity in {elapsed:.1f}s")


def test_acceptance_9_catalog_invariants():
    catalog = catalog_load()
    small = sorted(c.dimension for c in catalog.for_moduli(ChernClasses(-1, 2, 0)))
    assert small == [11, 11, 15, 19]
    big = sorted(c.dimension for c in catalog.for_moduli(ChernClasses(0, 3, 0)))
    assert big == [21, 21, 21, 22, 24, 25, 26, 29, 33, 37]
    _ok(9, "bundled catalog loads with all closed-form dimension checks")
