"""Tests for table generation, inversion, and consistency checking.

The three printed reference tables (spectra (-1,0) s=0, (-1,-1) s=1,
(-2,-1) s=2, all with splitting type (-1,0)) are frozen here with their
h1/h2 entries for twists -1..-4 and exercised in both directions.
"""

import json
import re
from importlib import resources
from itertools import accumulate
from typing import NamedTuple
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from sheafspectra import cohomology
from sheafspectra.errors import InconsistentTableError, RangeInsufficientError
from sheafspectra.cohomology import (
    CohomologyTable,
    ValidityWindows,
    chi_consistency,
    spectrum_from_table,
    table_from_spectrum,
)
from sheafspectra.invariants import ChernClasses, SplittingType
from sheafspectra.sheafcalc import construction_spectrum, symbol_from_json
from sheafspectra.spectrum import SpectrumWithS, c3_from_spectrum
from test_sheafcalc import outcome

ST_MINUS = SplittingType(-1, 0)
ST_ZERO = SplittingType(0, 0)

# (h1, h2) for twists -1, -2, -3, -4, keyed by (spectrum, s)
PRINTED = {
    ((-1, 0), 0): {-1: (1, 0), -2: (0, 1), -3: (0, 3), -4: (0, 5)},
    ((-1, -1), 1): {-1: (1, 0), -2: (1, 2), -3: (1, 4), -4: (1, 6)},
    ((-2, -1), 2): {-1: (2, 1), -2: (2, 3), -3: (2, 5), -4: (2, 7)},
}


def printed_table(key) -> CohomologyTable:
    rows = {t: (None, h1, None if h2 is None else h2, None)
            for t, (h1, h2) in PRINTED[key].items()}
    return CohomologyTable(-4, -1, rows)


def p1_cohomology(d: int) -> tuple[int, int]:
    """(h0, h1) of O(d) on the projective line; the windows' oracle."""
    return (max(0, d + 1), max(0, -d - 1))


def test_p1_cohomology():
    assert p1_cohomology(3) == (4, 0)
    assert p1_cohomology(-1) == (0, 0)
    assert p1_cohomology(-3) == (0, 2)
    for d in range(-8, 9):
        h0, h1 = p1_cohomology(d)
        assert h0 - h1 == d + 1


def test_validity_windows():
    win = ValidityWindows.from_splitting_type(ST_MINUS)
    assert win.h1_max == -1 and win.h2_min == -4
    win0 = ValidityWindows.from_splitting_type(ST_ZERO)
    assert win0.h1_max == -1 and win0.h2_min == -3


@pytest.mark.parametrize("key", sorted(PRINTED))
def test_table_from_spectrum_matches_printed(key):
    values, s = key
    table = table_from_spectrum(SpectrumWithS(values, s), ST_MINUS, (-4, -1))
    for t, (h1, h2) in PRINTED[key].items():
        assert table.row(t)[1] == h1, (key, t)
        assert table.row(t)[2] == h2, (key, t)


def test_table_from_spectrum_spot_values():
    t2 = table_from_spectrum(SpectrumWithS((-1, 0), 0), ST_MINUS, (-4, -1))
    assert t2.row(-3)[2] == 3
    t4 = table_from_spectrum(SpectrumWithS((-1, -1), 1), ST_MINUS, (-4, -1))
    assert t4.row(-4)[2] == 6 and t4.row(-4)[1] == 1
    t5 = table_from_spectrum(SpectrumWithS((-2, -1), 2), ST_MINUS, (-4, -1))
    assert t5.row(-1)[1] == 2 and t5.row(-1)[2] == 1
    inst = table_from_spectrum(SpectrumWithS((0, 0, 0), 0), ST_ZERO, (-4, -1))
    assert inst.row(-1)[1] == 3


def test_vanishing_windows_and_unknowns():
    table = table_from_spectrum(SpectrumWithS((-1, 0), 0), ST_MINUS, (-6, 2))
    # stability: h0 = 0 up to t = -1, unknown after
    assert table.row(-1)[0] == 0 and table.row(0)[0] is None
    # duality window for e = -1: h3 = 0 from t = -2 on, unknown below
    assert table.row(-2)[3] == 0 and table.row(-3)[3] is None
    # h1 formula stops above t = -1, h2 formula below t = -4
    assert table.row(0)[1] is None and table.row(-5)[2] is None


@pytest.mark.parametrize(
    "rng,text",
    [((0, -1), "empty twist range [0, -1]"), ((True, 2), "bad twist range [True, 2]"),
     ((0.0, 1), "bad twist range [0.0, 1]"), ((0, 1.0), "bad twist range [0, 1.0]")],
)
def test_a_bad_range_is_refused_before_any_window_is_built(rng, text):
    # the same ValueError as CohomologyTable and splice_ses, not range()'s TypeError
    with pytest.raises(ValueError) as err:
        table_from_spectrum(SpectrumWithS((-1, 0), 0), ST_MINUS, rng)
    assert str(err.value) == text


@pytest.mark.parametrize(
    "key,expected",
    [
        (((-1, 0), 0), SpectrumWithS((-1, 0), 0)),
        (((-1, -1), 1), SpectrumWithS((-1, -1), 1)),
        (((-2, -1), 2), SpectrumWithS((-2, -1), 2)),
    ],
)
def test_inversion_of_printed_tables(key, expected):
    assert spectrum_from_table(printed_table(key), ST_MINUS) == expected


def test_inversion_needs_window_top():
    rows = {t: (None, h1, h2, None) for t, (h1, h2) in PRINTED[((-1, 0), 0)].items()}
    del rows[-1]
    with pytest.raises(RangeInsufficientError):
        spectrum_from_table(CohomologyTable(-4, -2, rows), ST_MINUS)


def test_inversion_needs_stabilization_witness():
    # h1 known at the window top only: no consecutive pair to difference
    table = CohomologyTable(-4, -1, {
        -1: (None, 2, 1, None),
        -2: (None, None, 3, None),
        -3: (None, None, 5, None),
        -4: (None, None, 7, None),
    })
    # and over (-1, 2) the table has no twist below the window top
    shallow = table_from_spectrum(SpectrumWithS((-1, 0), 0), ST_MINUS, (-1, 2))
    text = "single h1 value cannot witness stabilization; extend the range down"
    for short in (table, shallow):
        with pytest.raises(RangeInsufficientError, match=f"^{re.escape(text)}$"):
            spectrum_from_table(short, ST_MINUS)


def test_inversion_rejects_decreasing_h1():
    table = CohomologyTable(-4, -1, {
        -1: (None, 1, 0, None),
        -2: (None, 2, 2, None),
        -3: (None, 1, 4, None),
        -4: (None, 1, 6, None),
    })
    with pytest.raises(InconsistentTableError, match="^h1 falls from t=-2 to t=-1$"):
        spectrum_from_table(table, ST_MINUS)


def test_inversion_rejects_growing_h2():
    table = CohomologyTable(-4, -1, {
        -1: (None, 1, 3, None),
        -2: (None, 1, 2, None),
        -3: (None, 1, 4, None),
        -4: (None, 1, 6, None),
    })
    with pytest.raises(InconsistentTableError, match="^h2 rises from t=-2 to t=-1$"):
        spectrum_from_table(table, ST_MINUS)


def columns_table(h1, h2) -> CohomologyTable:
    # h1 and h2 listed for twists -4, -3, -2, -1
    return CohomologyTable(-4, -1, {
        t: (None, a, b, None) for t, a, b in zip(range(-4, 0), h1, h2)
    })


def test_inversion_rejects_non_convex_h1():
    # h1 differences 2, 1, 2 drop at t = -2, so h1 bends down at t = -3;
    # that is an inconsistency, reported before the missing stabilization
    with pytest.raises(InconsistentTableError, match="^h1 is not convex at t=-3$"):
        spectrum_from_table(columns_table((0, 2, 3, 5), (5, 3, 1, 0)), ST_MINUS)


def test_inversion_rejects_non_convex_h2():
    # h2 differences -1, -4, -2 drop at t = -2, so h2 bends down at t = -3;
    # that is an inconsistency, reported before the unplaceable deep bucket
    # (r = 2, w = 2)
    with pytest.raises(InconsistentTableError, match="^h2 is not convex at t=-3$"):
        spectrum_from_table(columns_table((1, 1, 1, 1), (9, 8, 4, 2)), ST_MINUS)


def test_inversion_needs_settled_h1():
    # convex and rising everywhere: no twist witnesses h1 = s
    with pytest.raises(RangeInsufficientError, match="never stabilizes"):
        spectrum_from_table(columns_table((1, 2, 4, 7), (5, 3, 1, 0)), ST_MINUS)


@pytest.mark.parametrize("t", [-2, -1])
def test_inversion_needs_h2_at_the_window_bottom(t):
    rows = {u: (None, h1, h2, None) for u, (h1, h2) in PRINTED[((-1, 0), 0)].items()}
    rows[t] = (None, rows[t][1], None, None)
    with pytest.raises(RangeInsufficientError, match="h2 must be known"):
        spectrum_from_table(CohomologyTable(-4, -1, rows), ST_MINUS)


def test_inversion_rejects_residual_h2_without_deep_values():
    # h2 stops falling at t = -1 (r = 0) but is still 1 there (w != 0)
    with pytest.raises(InconsistentTableError, match="claims no deeper values"):
        spectrum_from_table(columns_table((0, 0, 0, 1), (3, 2, 1, 1)), ST_MINUS)


def test_inversion_rejects_empty_spectrum():
    with pytest.raises(InconsistentTableError, match="empty spectrum"):
        spectrum_from_table(columns_table((2, 2, 2, 2), (0, 0, 0, 0)), ST_MINUS)


def test_inversion_cross_check_catches_mixed_columns():
    # h1 column of spectrum (-1,0), h2 column of (-2,-1): each side alone
    # decodes fine, but the assembled (-2,-1,0) regenerates h2(-4) = 9,
    # and the final comparison must object to the printed 7
    table = CohomologyTable(-4, -1, {
        -1: (None, 1, 1, None),
        -2: (None, 0, 3, None),
        -3: (None, 0, 5, None),
        -4: (None, 0, 7, None),
    })
    text = "recovered spectrum (-2, -1, 0), s=0 regenerates h2(t=-4) = 9, table says 7"
    with pytest.raises(InconsistentTableError, match=f"^{re.escape(text)}$"):
        spectrum_from_table(table, ST_MINUS)


def test_deep_bucket_is_not_guessed():
    # two different spectra produce identical tables on [-10, 2]; the
    # inverter must refuse rather than pick one
    a = SpectrumWithS((-7, -6, -5, -5), 3)
    b = SpectrumWithS((-6, -6, -6, -5), 3)
    ta = table_from_spectrum(a, ST_ZERO, (-10, 2))
    tb = table_from_spectrum(b, ST_ZERO, (-10, 2))
    for t in range(-10, 3):
        for i in (1, 2):
            assert ta.row(t)[i] == tb.row(t)[i]
    text = ("4 spectrum values at or below t-dual -4 cannot be placed from "
            "residual h2 weight 7; extend the range up")
    with pytest.raises(RangeInsufficientError, match=f"^{re.escape(text)}$"):
        spectrum_from_table(ta, ST_ZERO)
    # a range adapted to the spectrum depth resolves both
    wide_a = table_from_spectrum(a, ST_ZERO, (-10, 6))
    assert spectrum_from_table(wide_a, ST_ZERO) == a
    wide_b = table_from_spectrum(b, ST_ZERO, (-10, 6))
    assert spectrum_from_table(wide_b, ST_ZERO) == b


def test_chi_consistency_frozen():
    cc = ChernClasses(-1, 2, 0)
    assert chi_consistency(printed_table(((-1, 0), 0)), cc) == []
    assert chi_consistency(printed_table(((-1, -1), 1)), cc) == []
    assert chi_consistency(printed_table(((-2, -1), 2)), cc) == []
    bad = chi_consistency(printed_table(((-1, 0), 0)), ChernClasses(-1, 2, 2))
    assert bad != []


def test_constructor_checks_chi_on_full_rows():
    with pytest.raises(InconsistentTableError):
        CohomologyTable(-1, -1, {-1: (0, 1, 1, 0)}, ChernClasses(-1, 2, 0))
    # the correct alternating sum passes: chi(E(-1)) = -1
    CohomologyTable(-1, -1, {-1: (0, 1, 0, 0)}, ChernClasses(-1, 2, 0))


def test_constructor_rejects_bad_rows():
    with pytest.raises(ValueError):
        CohomologyTable(-2, -1, {-1: (0, -1, 0, 0)})
    with pytest.raises(ValueError):
        CohomologyTable(-2, -1, {-1: (0, 0, 0)})
    with pytest.raises(ValueError):
        CohomologyTable(-2, -1, {5: (0, 0, 0, 0)})
    with pytest.raises(ValueError):
        CohomologyTable(3, 1, {})


@pytest.mark.parametrize("bad", [1.7, 1.0, "0", True])
def test_constructor_rejects_non_int_entries(bad):
    with pytest.raises(ValueError):
        CohomologyTable(0, 0, {0: (bad, 0, 0, 0)})
    with pytest.raises(ValueError):
        CohomologyTable(bad, 2, {})


@pytest.mark.parametrize("key", [True, 1.0, "1"])
def test_constructor_rejects_non_int_row_keys(key):
    # True and 1.0 hash like twist 1 and "1" cannot be compared with a twist
    with pytest.raises(ValueError) as err:
        CohomologyTable(0, 2, {key: (0, 0, 0, 0)})
    assert str(err.value) == f"row key {key!r} is not an int twist"


def test_constructor_refuses_a_class_that_is_not_chern_classes():
    # refused by name, whether or not a fully known row would consult it
    for rows in ({-1: (0, 1, 0, 0)}, {}):
        with pytest.raises(TypeError, match=r"expected ChernClasses, got \(-1, 2, 0\)"):
            CohomologyTable(-2, -1, rows, (-1, 2, 0))
    table = CohomologyTable(-2, -1, {}, ChernClasses(-1, 2, 0))
    with pytest.raises(TypeError, match="expected ChernClasses"):
        table._replace(cc=(-1, 2, 0))
    assert table._replace(cc=None).cc is None


@pytest.mark.parametrize("call,text", [
    (lambda table: table.row(-2.0), "twist must be an int, got -2.0"),
    (lambda table: table.row(True), "twist must be an int, got True"),
    (lambda table: chi_consistency(table, (-1, 2, 0)), "expected ChernClasses, got (-1, 2, 0)"),
    (lambda table: chi_consistency("x", table.cc), "expected CohomologyTable, got 'x'"),
    (lambda table: table_from_spectrum(SpectrumWithS((-1, 0), 0), (-1, 0), (-4, -1)),
     "expected SplittingType, got (-1, 0)"),
    (lambda table: table_from_spectrum(((-1, 0), 0), ST_MINUS, (-4, -1)),
     "expected SpectrumWithS, got ((-1, 0), 0)"),
    (lambda table: spectrum_from_table(table, (-1, 0)), "expected SplittingType, got (-1, 0)"),
    (lambda table: spectrum_from_table("x", ST_MINUS), "expected CohomologyTable, got 'x'"),
], ids=["row-float", "row-bool", "chi-consistency-tuple", "chi-consistency-str",
        "generate-splitting-tuple", "generate-spectrum-tuple", "invert-splitting-tuple",
        "invert-str"])
def test_wrong_types_are_refused_at_entry(call, text):
    # row(-2.0) read row -2 and row(True) twist 1, keys the constructor refuses;
    # the others gave a bare AttributeError
    table = table_from_spectrum(SpectrumWithS((-1, 0), 0), ST_MINUS, (-4, 1))
    with pytest.raises(TypeError) as info:
        call(table)
    assert str(info.value) == text


@pytest.mark.parametrize("rows", [[(0, 1, 0, 0)], [(-1, (0, 1, 0, 0))], "rows"])
def test_constructor_refuses_rows_that_are_not_a_mapping(rows):
    with pytest.raises(TypeError, match="rows must map twists to rows"):
        CohomologyTable(-1, -1, rows)


def test_json_round_trip():
    table = table_from_spectrum(SpectrumWithS((-2, -1), 2), ST_MINUS, (-5, 1))
    again = CohomologyTable.from_json(table.to_json())
    assert again == table
    assert again.cc == table.cc
    with pytest.raises(ValueError):
        CohomologyTable.from_json("{\"rows\": {}}")


@pytest.mark.parametrize("bad", [1.7, 1.0, "0", True])
@pytest.mark.parametrize("where", ["row", "range"])
def test_from_json_refuses_coercion(bad, where):
    doc = {"range": [-1, 0], "rows": {"-1": [0, 1, 0, 0], "0": [0, 0, 0, 0]}}
    if where == "row":
        doc["rows"]["-1"][1] = bad
    else:
        doc["range"][0] = bad
    with pytest.raises(ValueError):
        CohomologyTable.from_json_dict(doc)


def test_from_json_refuses_mixed_row():
    doc = {"range": [0, 0], "rows": {"0": [1.7, "0", True, 0]}}
    with pytest.raises(ValueError):
        CohomologyTable.from_json_dict(doc)


def test_markdown_layout():
    table = table_from_spectrum(SpectrumWithS((-1, 0), 0), ST_MINUS, (-2, 0))
    md = table.to_markdown()
    lines = md.splitlines()
    assert lines[0].startswith("| t |")
    assert lines[2].startswith("| 0 |")
    assert lines[3].startswith("| -1 |")
    assert lines[4].startswith("| -2 |")
    assert "|  |" in lines[2]  # unknown rendered blank, not zero
    assert lines[3] == "| -1 | 0 | 1 | 0 | 0 |"


@st.composite
def chain_valid_spectrum(draw):
    # spectra respecting the descending chain rule: a (possibly empty)
    # solid run [-depth, -1], repeats within it, then nonnegative values
    e = draw(st.sampled_from([-1, 0]))
    depth = draw(st.integers(0, 6))
    repeats = draw(st.lists(st.integers(-depth, -1), max_size=3)) if depth else []
    nonneg = draw(st.lists(st.integers(0, 6), max_size=3))
    values = tuple(sorted(list(range(-depth, 0)) + repeats + nonneg))
    if not values:
        values = (0,)
    s = draw(st.integers(0, 12))
    return e, SpectrumWithS(values, s)


@settings(deadline=None, max_examples=200)
@given(chain_valid_spectrum())
def test_round_trip_with_adaptive_range(data):
    e, sw = data
    st_ = SplittingType(-1, 0) if e == -1 else SplittingType(0, 0)
    m = len(sw.values)
    lo = min(-m - 6, -max(sw.values) - 3)
    hi = max(2, -min(sw.values) - 1)
    table = table_from_spectrum(sw, st_, (lo, hi))
    assert spectrum_from_table(table, st_) == sw
    assert chi_consistency(table, table.cc) == []


@settings(deadline=None, max_examples=200)
@given(chain_valid_spectrum())
def test_generated_table_properties(data):
    e, sw = data
    st_ = SplittingType(-1, 0) if e == -1 else SplittingType(0, 0)
    m = len(sw.values)
    k_top = max(sw.values)
    lo = min(-m - 6, -k_top - 4)
    table = table_from_spectrum(sw, st_, (lo, 2))
    win = ValidityWindows.from_splitting_type(st_)
    # h1 stabilizes exactly to s once every projective-line term dies
    for t in range(lo, min(-k_top - 2, win.h1_max) + 1):
        assert table.row(t)[1] == sw.s
    # h2 nonincreasing with backward differences in [0, m]
    prev = None
    for t in range(win.h2_min, 3):
        h2 = table.row(t)[2]
        if prev is not None:
            assert 0 <= prev - h2 <= m
        prev = h2


@st.composite
def edited_table(draw):
    # a generated table with some h1/h2 entries masked or nudged by 1 or 2
    e = draw(st.sampled_from([-1, 0]))
    st_ = SplittingType(-1, 0) if e == -1 else SplittingType(0, 0)
    values = tuple(sorted(draw(st.lists(st.integers(-6, 4), min_size=1, max_size=5))))
    s = draw(st.integers(0, 6))
    lo = draw(st.integers(-14, -2))
    hi = draw(st.integers(-2, 5))
    rows = dict(table_from_spectrum(SpectrumWithS(values, s), st_, (lo, hi)).rows)
    edits = draw(st.lists(
        st.tuples(st.integers(lo, hi), st.sampled_from([1, 2]),
                  st.sampled_from([None, -2, -1, 1, 2])),
        max_size=4,
    ))
    for t, i, edit in edits:
        row = list(rows[t])
        if row[i] is not None:
            row[i] = None if edit is None else max(0, row[i] + edit)
        rows[t] = tuple(row)
    return st_, CohomologyTable(lo, hi, rows)


@settings(deadline=None, max_examples=300)
@given(edited_table())
def test_inversion_regenerates_every_known_entry(data):
    st_, table = data
    try:
        sw = spectrum_from_table(table, st_)
    except (RangeInsufficientError, InconsistentTableError):
        return
    regen = table_from_spectrum(sw, st_, (table.lo, table.hi))
    for t in range(table.lo, table.hi + 1):
        for i in (1, 2):
            if table.row(t)[i] is not None:
                assert regen.row(t)[i] == table.row(t)[i], (t, i)


@pytest.mark.parametrize("cc,agrees", [((-1, 2, 0), True), ((-1, 2, 2), False),
                                       ((-1, 2, -4), False)])
def test_inversion_checks_attached_classes(cc, agrees):
    # the h1/h2 rows of (-1,0), s=0 with h0/h3 unknown, so no row is
    # fully known and only the inverter can compare the classes
    full = table_from_spectrum(SpectrumWithS((-1, 0), 0), ST_MINUS, (-8, 0))
    rows = {t: (None, h1, h2, None) for t, (_, h1, h2, _) in full.rows.items()}
    table = CohomologyTable(-8, 0, rows, ChernClasses(*cc))
    if agrees:
        assert spectrum_from_table(table, ST_MINUS) == SpectrumWithS((-1, 0), 0)
    else:
        with pytest.raises(InconsistentTableError, match="classes"):
            spectrum_from_table(table, ST_MINUS)


@pytest.mark.parametrize("rows", [[], 5, "rows", None])
def test_from_json_refuses_non_object_rows(rows):
    with pytest.raises(ValueError):
        CohomologyTable.from_json_dict({"range": [0, 1], "rows": rows})


def _reference_table(sw, st_, rng) -> CohomologyTable:
    # the generator before prefix sums: one O_P1 term per (twist, value)
    e = st_.a1 + st_.a2
    m = len(sw.values)
    cc = ChernClasses(e, m, c3_from_spectrum(e, m, sw))
    lo, hi = rng
    win = ValidityWindows.from_splitting_type(st_)
    rows = {}
    for t in range(lo, hi + 1):
        h0 = 0 if t <= -1 else None
        h3 = 0 if t >= -3 - e else None
        h1 = None
        if t <= win.h1_max:
            h1 = sw.s + sum(p1_cohomology(k + t + 1)[0] for k in sw.values)
        h2 = None
        if t >= win.h2_min:
            h2 = sum(p1_cohomology(k + t + 1)[1] for k in sw.values)
        rows[t] = (h0, h1, h2, h3)
    return CohomologyTable(lo, hi, rows, cc)


@st.composite
def spectrum_and_range(draw):
    # any nondecreasing spectrum with m <= 24, and a range below the h2
    # window (t <= -5), across both windows, above the h1 window (t >= 0),
    # or of one twist anywhere
    e = draw(st.sampled_from([-1, 0]))
    m = draw(st.integers(1, 24))
    values = tuple(sorted(draw(st.lists(st.integers(-30, 30), min_size=m, max_size=m))))
    s = draw(st.integers(0, 12))
    where = draw(st.sampled_from(["below", "across", "above", "one"]))
    if where == "below":
        hi = draw(st.integers(-45, -5))
        lo = draw(st.integers(hi - 40, hi))
    elif where == "across":
        lo, hi = draw(st.integers(-45, -5)), draw(st.integers(0, 40))
    elif where == "one":
        lo = hi = draw(st.integers(-45, 40))
    else:
        lo = draw(st.integers(0, 40))
        hi = draw(st.integers(lo, lo + 40))
    st_ = SplittingType(-1, 0) if e == -1 else SplittingType(0, 0)
    return st_, SpectrumWithS(values, s), (lo, hi)


@settings(deadline=None, max_examples=300)
@given(spectrum_and_range())
def test_generator_matches_per_value_reference(data):
    st_, sw, rng = data
    table = table_from_spectrum(sw, st_, rng)
    ref = _reference_table(sw, st_, rng)
    assert (table.lo, table.hi, table.cc) == (ref.lo, ref.hi, ref.cc)
    for t in range(ref.lo, ref.hi + 1):
        assert table.rows[t] == ref.rows[t], t
    # the generator skips the validating walk; the walk would have passed
    assert table == CohomologyTable(table.lo, table.hi, table.rows, table.cc)


def test_inversion_checks_h1_beyond_the_decoded_run():
    # h1(-6) unknown cuts the decoded h1 run to [-5, -1], so the changed
    # h1(-8) is caught only by the recomputed window
    rows = dict(table_from_spectrum(SpectrumWithS((-1, 0), 0), ST_MINUS, (-8, 2)).rows)
    rows[-6] = (0, None, None, None)
    rows[-8] = (0, 2, None, None)
    with pytest.raises(InconsistentTableError, match=r"regenerates h1\(t=-8\) = 0, table says 2"):
        spectrum_from_table(CohomologyTable(-8, 2, rows), ST_MINUS)


def test_inversion_checks_h2_beyond_the_decoded_run():
    # h2(0) unknown cuts the decoded h2 run at t = -1, so the changed
    # h2(2) is caught only by the recomputed window
    rows = dict(table_from_spectrum(SpectrumWithS((-1, 0), 0), ST_MINUS, (-8, 2)).rows)
    rows[0] = (None, None, None, 0)
    rows[2] = (None, None, 3, 0)
    with pytest.raises(InconsistentTableError, match=r"regenerates h2\(t=2\) = 0, table says 3"):
        spectrum_from_table(CohomologyTable(-8, 2, rows), ST_MINUS)


@pytest.mark.parametrize("key", ["1_0", " -1 ", "+1", "01"])
def test_from_json_refuses_non_canonical_row_keys(key):
    doc = {"range": [-2, 10], "rows": {key: [0, 1, 0, 0]}}
    with pytest.raises(ValueError, match=r"malformed table JSON: row key"):
        CohomologyTable.from_json_dict(doc)


@pytest.mark.parametrize("stray, first", [
    ({"CC": [-1, 2, 0]}, "CC"),
    ({"note": "", "Rows": {}}, "Rows"),
])
def test_from_json_refuses_a_stray_top_level_field(stray, first):
    # a misspelt "cc" would otherwise load the table with no class and no chi check
    doc = {"range": [-4, -1], "rows": {"-1": [0, 1, 0, 0]}, **stray}
    with pytest.raises(ValueError) as err:
        CohomologyTable.from_json_dict(doc)
    assert str(err.value) == f"malformed table JSON: unknown field {first!r}"


def test_from_json_refuses_a_row_that_is_not_a_list():
    with pytest.raises(ValueError, match=r"^malformed table JSON: "):
        CohomologyTable.from_json_dict({"range": [0, 0], "rows": {"0": 5}})


@pytest.mark.parametrize("row", [
    {0: 9, 1: 9, 2: 9, 3: 9}, {3, 1, 0, 2}, frozenset(), "0000", 5, None, iter([0, 0, 0, 0]),
], ids=["mapping", "set", "frozenset", "str", "int", "none", "iterator"])
def test_a_row_that_is_not_a_list_or_tuple_is_refused_at_both_entry_points(row):
    # a mapping or a set used to be read as its keys, in their iteration order
    text = f"row at t=0 must be a list or tuple of 4 entries, got {row!r}"
    with pytest.raises(ValueError) as err:
        CohomologyTable(0, 0, {0: row})
    assert str(err.value) == text
    with pytest.raises(ValueError) as err:
        CohomologyTable.from_json_dict({"range": [0, 0], "rows": {"0": row}})
    assert str(err.value) == f"malformed table JSON: {text}"


def test_a_named_tuple_row_counts_as_a_tuple():
    Row = NamedTuple("Row", [("h0", int), ("h1", int), ("h2", int), ("h3", int)])
    table = CohomologyTable(-1, -1, {-1: Row(0, 1, 0, 0)}, ChernClasses(-1, 2, 0))
    assert table.rows[-1] == (0, 1, 0, 0) and type(table.rows[-1]) is tuple
    assert CohomologyTable.from_json_dict({"range": [0, 0], "rows": {"0": (0, 0, 0, 0)}}).rows == {
        0: (0, 0, 0, 0)}


@pytest.mark.parametrize("order", [("0", "01"), ("01", "0")])
def test_from_json_names_the_non_canonical_key_beside_a_canonical_one(order):
    rows = dict(zip(order, ([0, 0, 0, 0], [0, 0, 0, 0])))
    with pytest.raises(ValueError) as err:
        CohomologyTable.from_json_dict({"range": [0, 1], "rows": rows})
    assert str(err.value) == "malformed table JSON: row key '01' is not a decimal twist"


def test_generated_and_derived_tables_still_check_chi(monkeypatch):
    # the library's own tables skip the entry walk but not the chi cross-check
    recipe = json.loads(
        resources.files("sheafspectra").joinpath("data/catalog.json").read_text()
    )["components"][0]["construction"]
    node = symbol_from_json(recipe)
    construction_spectrum(node)
    table_from_spectrum(SpectrumWithS((-1, 0), 0), ST_MINUS, (-4, -1))
    chi = cohomology.euler_characteristic
    monkeypatch.setattr(cohomology, "euler_characteristic", lambda cc, t: chi(cc, t) + 1)
    with pytest.raises(InconsistentTableError, match="class demands"):
        table_from_spectrum(SpectrumWithS((-1, 0), 0), ST_MINUS, (-4, -1))
    with pytest.raises(InconsistentTableError, match="class demands"):
        construction_spectrum(node)


def test_regeneration_names_the_lowest_mismatching_entry():
    # h1(-1) raised adds the value 0 to the recovered spectrum; h2(-4)
    # raised is then the first entry its windows disagree with
    rows = dict(table_from_spectrum(SpectrumWithS((-2, -1), 2), ST_MINUS, (-8, 2)).rows)
    h0, h1, h2, h3 = rows[-1]
    rows[-1] = (h0, h1 + 1, h2, h3)
    h0, h1, h2, h3 = rows[-4]
    rows[-4] = (h0, h1, h2 + 1, h3)
    with pytest.raises(InconsistentTableError) as err:
        spectrum_from_table(CohomologyTable(-8, 2, rows), ST_MINUS)
    assert str(err.value) == (
        "recovered spectrum (-2, -1, 0), s=2 regenerates h2(t=-4) = 9, table says 8"
    )


def test_regeneration_names_h1_before_h2_at_one_twist():
    # unknown entries at t = -3 cut both decoded runs to [-2, -1], so the
    # wrong h1(-4) and h2(-4) (want 1 and 6) are seen only on regeneration
    rows = {-4: (0, 5, 9, None), -3: (0, None, None, None), -2: (0, 1, 2, None),
            -1: (0, 1, 0, None), 0: (None, None, 0, None), 1: (None, None, 0, None)}
    with pytest.raises(InconsistentTableError) as err:
        spectrum_from_table(CohomologyTable(-4, 1, rows), ST_MINUS)
    assert str(err.value) == (
        "recovered spectrum (-1, -1), s=1 regenerates h1(t=-4) = 1, table says 5"
    )
    rows[-4] = (0, 1, 6, None)
    recovered = spectrum_from_table(CohomologyTable(-4, 1, rows), ST_MINUS)
    assert recovered == SpectrumWithS((-1, -1), 1)


def _reference_run(table, i, need, floor, ceil):
    """_run twist by twist, one dict lookup per entry: the oracle for its list reads.

    Extends the known run around need one twist at a time, then checks
    the differences in order, the sign before convexity at each k.
    """
    for t in need:
        if not table.lo <= t <= table.hi or table.rows[t][i] is None:
            raise RangeInsufficientError(
                f"h{i} must be known at t={', '.join(map(str, need))} "
                "to count the spectrum"
            )
    u, v = min(need), max(need)
    floor, ceil, rows = max(floor, table.lo), min(ceil, table.hi), table.rows
    while u > floor and rows[u - 1][i] is not None:
        u -= 1
    while v < ceil and rows[v + 1][i] is not None:
        v += 1
    h = [rows[t][i] for t in range(u, v + 1)]
    d = [b - a for a, b in zip(h, h[1:])]
    for k, x in enumerate(d):
        if (x if i == 1 else -x) < 0:
            raise InconsistentTableError(
                f"h{i} {'falls' if i == 1 else 'rises'} from t={u + k} to t={u + k + 1}"
            )
        if k and x < d[k - 1]:
            raise InconsistentTableError(f"h{i} is not convex at t={u + k}")
    return u, d


@st.composite
def column_and_run(draw):
    # an h1 column (rising, convex) or an h2 column (its mirror) over
    # [lo, hi], with holes and entries moved by 1 or 2, which make falls,
    # rises and breaks in convexity; need is one twist or two adjacent ones,
    # possibly outside the table, and [floor, ceil] holds need
    i = draw(st.sampled_from([1, 2]))
    lo = draw(st.integers(-10, 2))
    hi = draw(st.integers(lo, lo + 12))
    steps = sorted(draw(st.lists(st.integers(0, 3), min_size=hi - lo, max_size=hi - lo)))
    h = list(accumulate(steps, initial=draw(st.integers(0, 4))))
    h = h if i == 1 else h[::-1]
    for j, edit in draw(st.lists(st.tuples(st.integers(0, hi - lo),
                                           st.sampled_from([None, -2, -1, 1, 2])), max_size=3)):
        h[j] = None if edit is None or h[j] is None else max(0, h[j] + edit)
    rows = {t: (None, x, None, None) if i == 1 else (None, None, x, None)
            for t, x in zip(range(lo, hi + 1), h)}
    first = draw(st.integers(lo, hi) | st.integers(lo - 2, hi + 1))
    need = (first,) if draw(st.booleans()) else (first, first + 1)
    floor = first - draw(st.integers(0, hi - lo + 3))
    ceil = need[-1] + draw(st.integers(0, hi - lo + 3))
    return CohomologyTable(lo, hi, rows), i, need, floor, ceil


@settings(deadline=None, max_examples=300)
@given(column_and_run())
def test_run_matches_the_twist_by_twist_oracle(case):
    table, i, need, floor, ceil = case
    got = outcome(lambda: cohomology._run(*case))
    want = outcome(_reference_run, *case)
    assert got[:2] == want
    if type(want[0]) is int:  # a run: the column read is the table's over [floor, ceil]
        span = range(max(floor, table.lo), min(ceil, table.hi) + 1)
        assert got[2] == [table.rows[t][i] for t in span]


def _reference_regeneration_check(table, st_, result):
    """The per-entry scan spectrum_from_table ran on every table: the oracle.

    Every known entry of both windows against the windows regenerated
    from result; the lowest wrong one is named, h1 before h2 at one twist.
    """
    win = ValidityWindows.from_splitting_type(st_)
    starts = (table.lo, max(table.lo, win.h2_min))
    mismatches = [(t, i, want, table.rows[t][i])
                  for i, column, start in zip((1, 2), cohomology._columns(
                      result, win, table.lo, table.hi), starts)
                  for t, want in enumerate(column, start)
                  if table.rows[t][i] not in (None, want)]
    if mismatches:
        t, i, want, have = min(mismatches)
        raise InconsistentTableError(
            f"recovered spectrum {result.values}, s={result.s} regenerates "
            f"h{i}(t={t}) = {want}, table says {have}"
        )
    return result


@settings(deadline=None, max_examples=300)
@given(edited_table(), st.lists(st.tuples(st.integers(0, 19), st.sampled_from([1, 2])),
                                max_size=3))
def test_regeneration_check_matches_the_per_entry_oracle(data, holes):
    # holes cut the decoded runs, so edits beyond them reach the check; the
    # recovered spectrum is the one the check regenerates from, and from
    # there the inverter's answer is the check's, whole columns or not
    st_, table = data
    rows = dict(table.rows)
    for j, i in holes:
        t = table.lo + j % (table.hi - table.lo + 1)
        rows[t] = rows[t][:i] + (None,) + rows[t][i + 1:]
    table = CohomologyTable(table.lo, table.hi, rows)
    recovered, columns = [], cohomology._columns
    spy = lambda sw, *args: recovered.append(sw) or columns(sw, *args)
    with patch.object(cohomology, "_columns", spy):
        got = outcome(spectrum_from_table, table, st_)
    if recovered:
        assert got == outcome(_reference_regeneration_check, table, st_, recovered[0])


@settings(deadline=None, max_examples=200)
@given(spectrum_and_range(), st.data())
def test_the_generator_hands_over_exactly_its_fully_known_twists(case, data):
    st_, sw, rng = case
    handed, table = [], cohomology._table
    spy = lambda *args: handed.append(args) or table(*args)
    with patch.object(cohomology, "_table", spy):
        table_from_spectrum(sw, st_, rng)
    (lo, hi, rows, cc, full), = handed
    assert list(full) == [t for t, row in rows.items() if None not in row]
    if full:
        # a wrong chi inside the interval is still refused, with the usual text
        t = data.draw(st.sampled_from(full))
        h0, h1, h2, h3 = rows[t]
        chi, want = h0 - h1 - 1 + h2 - h3, cohomology.euler_characteristic(cc, t)
        with pytest.raises(InconsistentTableError) as err:
            table(lo, hi, {**rows, t: (h0, h1 + 1, h2, h3)}, cc, full)
        assert str(err.value) == f"row t={t} has chi {chi}, class demands {want}"


@settings(deadline=None, max_examples=200)
@given(spectrum_and_range(), st.sampled_from(["shuffled", "descending"]), st.data())
def test_the_constructor_hands_over_exactly_its_fully_known_twists(case, order, data):
    # outside rows, with holes and in any order: the one validating walk finds
    # the fully known twists and hands them to _table in ascending order
    st_, sw, (lo, hi) = case
    generated = table_from_spectrum(sw, st_, (lo, hi))
    cc, rows = generated.cc, {t: list(row) for t, row in generated.rows.items()}
    for t, i in data.draw(st.lists(st.tuples(st.integers(lo, hi), st.integers(0, 3)), max_size=4)):
        rows[t][i] = None
    twists = data.draw(st.permutations(list(rows))) if order == "shuffled" else list(rows)[::-1]
    rows = {t: rows[t] for t in twists}
    full = sorted(t for t, row in rows.items() if None not in row)

    def build(rows):
        document = {"range": [lo, hi], "rows": {str(t): row for t, row in rows.items()},
                    "cc": list(cc)}
        return [lambda: CohomologyTable(lo, hi, rows, cc),
                lambda: CohomologyTable.from_json_dict(document)]

    handed, table = [], cohomology._table
    spy = lambda *args: handed.append(args) or table(*args)
    with patch.object(cohomology, "_table", spy):
        for make in build(rows):
            make()
    ascending = list(range(lo, hi + 1))
    assert [(list(args[2]), list(args[4])) for args in handed] == [(ascending, full)] * 2
    if full:
        # a wrong chi on some fully known rows names the lowest of them, with the usual text
        wrong = data.draw(st.lists(st.sampled_from(full), min_size=1, unique=True))
        rows = {t: [h0, h1 + 1, h2, h3] if t in wrong else [h0, h1, h2, h3]
                for t, (h0, h1, h2, h3) in rows.items()}
        h0, h1, h2, h3 = rows[min(wrong)]
        chi, want = h0 - h1 + h2 - h3, cohomology.euler_characteristic(cc, min(wrong))
        for make in build(rows):
            with pytest.raises(InconsistentTableError) as err:
                make()
            assert str(err.value) == f"row t={min(wrong)} has chi {chi}, class demands {want}"


# --------------------------------------------------------- the JSON reader's texts

def _document() -> dict:
    # a valid document with a class: rows t = -6..2 in ascending order, the
    # middle one t = -2, and t = -3, -2, -1 fully known
    table = table_from_spectrum(SpectrumWithS((-1, 0, 1), 0), ST_ZERO, (-6, 2))
    return json.loads(table.to_json())


def _rekey(doc: dict, index: int, key: str) -> dict:
    # a copy of the document with the key of its row at index replaced
    rows = list(doc["rows"].items())
    rows[index] = (key, rows[index][1])
    return {**doc, "rows": dict(rows)}


def _set_entry(doc: dict, t: int, value) -> dict:
    doc["rows"][str(t)][1] = value
    return doc


def _shorten(doc: dict, t: int) -> dict:
    del doc["rows"][str(t)][-1]
    return doc


def _without(doc: dict, field: str) -> dict:
    return {key: value for key, value in doc.items() if key != field}


def _single_faults():
    for where, index, t in (("first", 0, -6), ("middle", 4, -2), ("last", 8, 2)):
        yield f"key-x-{where}", lambda d, i=index: _rekey(d, i, "x")
        yield f"key-zero-padded-{where}", lambda d, i=index, t=t: _rekey(
            d, i, f"-0{-t}" if t < 0 else f"0{t}")
        yield f"key-outside-{where}", lambda d, i=index, t=t: _rekey(
            d, i, str(t - 9 if t < 0 else t + 9))
        yield f"short-row-{where}", lambda d, t=t: _shorten(d, t)
        for name, bad in (("float", 1.5), ("bool", True), ("str", "0"), ("negative", -1)):
            yield f"entry-{name}-{where}", lambda d, t=t, bad=bad: _set_entry(d, t, bad)
    for where, t in (("first", -3), ("middle", -2), ("last", -1)):
        yield f"wrong-chi-{where}", lambda d, t=t: _set_entry(d, t, d["rows"][str(t)][1] + 1)
    yield "range-missing", lambda d: _without(d, "range")
    yield "range-three-ends", lambda d: {**d, "range": [-6, 2, 3]}
    yield "range-float", lambda d: {**d, "range": [-6.0, 2]}
    yield "range-bool", lambda d: {**d, "range": [-6, True]}
    yield "range-empty", lambda d: {**d, "range": [2, -6]}
    yield "cc-parity", lambda d: {**d, "cc": [0, 3, 1]}
    yield "cc-e-1", lambda d: {**d, "cc": [1, 3, 0]}
    yield "cc-short", lambda d: {**d, "cc": [0, 3]}
    yield "cc-string", lambda d: {**d, "cc": "x"}
    yield "stray-field", lambda d: {**d, "CC": [0, 3, 0]}
    yield "rows-missing", lambda d: _without(d, "rows")
    yield "rows-array", lambda d: {**d, "rows": []}


# recorded before the reader became one walk: each single-fault document's error
READER_TEXTS = {
    'key-x-first': "ValueError: malformed table JSON: invalid literal for int() with base 10: 'x'",
    'key-zero-padded-first': "ValueError: malformed table JSON: row key '-06' is not a decimal twist",
    'key-outside-first': 'ValueError: row at t=-15 outside range [-6, 2]',
    'short-row-first': 'ValueError: row at t=-6 must have 4 entries, got (0, 0, None)',
    'entry-float-first': 'ValueError: bad entry 1.5 at t=-6',
    'entry-bool-first': 'ValueError: bad entry True at t=-6',
    'entry-str-first': "ValueError: bad entry '0' at t=-6",
    'entry-negative-first': 'ValueError: bad entry -1 at t=-6',
    'key-x-middle': "ValueError: malformed table JSON: invalid literal for int() with base 10: 'x'",
    'key-zero-padded-middle': "ValueError: malformed table JSON: row key '-02' is not a decimal twist",
    'key-outside-middle': 'ValueError: row at t=-11 outside range [-6, 2]',
    'short-row-middle': 'ValueError: row at t=-2 must have 4 entries, got (0, 1, 1)',
    'entry-float-middle': 'ValueError: bad entry 1.5 at t=-2',
    'entry-bool-middle': 'ValueError: bad entry True at t=-2',
    'entry-str-middle': "ValueError: bad entry '0' at t=-2",
    'entry-negative-middle': 'ValueError: bad entry -1 at t=-2',
    'key-x-last': "ValueError: malformed table JSON: invalid literal for int() with base 10: 'x'",
    'key-zero-padded-last': "ValueError: malformed table JSON: row key '02' is not a decimal twist",
    'key-outside-last': 'ValueError: row at t=11 outside range [-6, 2]',
    'short-row-last': 'ValueError: row at t=2 must have 4 entries, got (None, None, 0)',
    'entry-float-last': 'ValueError: bad entry 1.5 at t=2',
    'entry-bool-last': 'ValueError: bad entry True at t=2',
    'entry-str-last': "ValueError: bad entry '0' at t=2",
    'entry-negative-last': 'ValueError: bad entry -1 at t=2',
    'wrong-chi-first': 'InconsistentTableError: row t=-3 has chi 2, class demands 3',
    'wrong-chi-middle': 'InconsistentTableError: row t=-2 has chi -1, class demands 0',
    'wrong-chi-last': 'InconsistentTableError: row t=-1 has chi -4, class demands -3',
    'range-missing': "ValueError: malformed table JSON: 'range'",
    'range-three-ends': 'ValueError: malformed table JSON: too many values to unpack (expected 2)',
    'range-float': 'ValueError: bad twist range [-6.0, 2]',
    'range-bool': 'ValueError: bad twist range [-6, True]',
    'range-empty': 'ValueError: empty twist range [2, -6]',
    # declared: a class fault now gets the prefix too, and cc must be an array
    'cc-parity': 'ValueError: malformed table JSON: c3 must be even when e = 0, got c3 = 1',
    'cc-e-1': 'ValueError: malformed table JSON: first Chern class must be -1 or 0 after '
              'normalization, got 1',
    'cc-short': "ValueError: malformed table JSON: ChernClasses.__new__() missing 1 required "
                "positional argument: 'c3'",
    'cc-string': "ValueError: malformed table JSON: cc must be a list or tuple, got 'x'",
    'stray-field': "ValueError: malformed table JSON: unknown field 'CC'",
    'rows-missing': "ValueError: malformed table JSON: 'rows'",
    'rows-array': "ValueError: malformed table JSON: 'list' object has no attribute 'items'",
}


@pytest.mark.parametrize("fault", list(_single_faults()), ids=lambda fault: fault[0])
def test_the_json_reader_names_each_single_fault_with_its_text(fault):
    name, mutate = fault
    doc = mutate(_document())
    for read in (CohomologyTable.from_json_dict,
                 lambda doc: CohomologyTable.from_json(json.dumps(doc))):
        with pytest.raises(Exception) as err:
            read(doc)
        assert f"{type(err.value).__name__}: {err.value}" == READER_TEXTS[name]


@pytest.mark.parametrize("field, value", [
    ("range", {-4: 0, -1: 0}), ("range", {-4, -1}), ("cc", {-1: 0, 2: 0, 0: 0}), ("cc", {-1, 2, 0}),
], ids=["range-mapping", "range-set", "cc-mapping", "cc-set"])
def test_the_json_reader_refuses_a_mapping_or_a_set_where_an_array_belongs(field, value):
    # unpacked, each would give its keys: the range [-4, -1] or the class (-1, 2, 0)
    doc = {"range": [-4, -1], "rows": {}, field: value}
    with pytest.raises(ValueError) as err:
        CohomologyTable.from_json_dict(doc)
    assert str(err.value) == f"malformed table JSON: {field} must be a list or tuple, got {value!r}"
    arrays = {"range": (-4, -1), "cc": (-1, 2, 0)}  # a tuple passes, as a list does
    assert CohomologyTable.from_json_dict({**doc, field: arrays[field]}).lo == -4


@pytest.mark.parametrize("t", [-5, 0])
def test_a_row_outside_the_range_is_refused(t):
    with pytest.raises(RangeInsufficientError) as err:
        CohomologyTable(-4, -1).row(t)
    assert str(err.value) == f"table covers [-4, -1], has no row at t={t}"


@pytest.mark.parametrize("rows, text", [
    # an entry fault before a key fault: the first faulty row in document order
    ({"-6": [0, 1.5, None, None], "x": [0, 0, None, None]}, "bad entry 1.5 at t=-6"),
    ({"-6": [0, 0, None], "-05": [0, 0, None, None]},
     "row at t=-6 must have 4 entries, got (0, 0, None)"),
    ({"9": [0, 0, 0, 0], "x": [0, 0, None, None]}, "row at t=9 outside range [-6, 2]"),
    # a key fault before an entry fault, as before
    ({"x": [0, 0, None, None], "-5": [0, -1, None, None]},
     "malformed table JSON: invalid literal for int() with base 10: 'x'"),
    ({"-06": [0, 0, None, None], "-5": [0, 0, None]},
     "malformed table JSON: row key '-06' is not a decimal twist"),
])
def test_the_json_reader_names_the_first_faulty_row_in_document_order(rows, text):
    # before the one walk, every key fault in the document came before every entry fault
    with pytest.raises(ValueError) as err:
        CohomologyTable.from_json_dict({"range": [-6, 2], "rows": rows})
    assert str(err.value) == text


@pytest.mark.parametrize("fields, text", [
    ({"CC": [0, 3, 0]}, "malformed table JSON: unknown field 'CC'"),
    ({"cc": [0, 3]}, "malformed table JSON: ChernClasses.__new__() missing 1 required "
                     "positional argument: 'c3'"),
    ({"range": [2, -6]}, "empty twist range [2, -6]"),
    ({"range": [-6, 2.0]}, "bad twist range [-6, 2.0]"),
])
@pytest.mark.parametrize("row", [("x", [0, 0, None, None]), ("-06", [0, 0, None, None]),
                                 ("-6", 5), ("-6", [0, 1.5, None, None])],
                         ids=["key", "padded-key", "not-an-array", "entry"])
def test_a_document_fault_is_named_before_any_row_fault(fields, text, row):
    # before the one walk, a key fault or a row that is not an array came before
    # a bad class, a stray field or a bad range
    doc = {"range": [-6, 2], "rows": dict([row]), **fields}
    with pytest.raises(ValueError) as err:
        CohomologyTable.from_json_dict(doc)
    assert str(err.value) == text
