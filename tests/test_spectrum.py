"""Tests for spectrum identities, chain rules, bounds, and enumeration."""

import pytest
from hypothesis import given, settings, strategies as st

from sheafspectra.errors import DegenerateClassError, InadmissibleSpectrumError
from sheafspectra.invariants import ChernClasses, SplittingType
from sheafspectra.spectrum import (
    UNBOUNDED,
    ChainUpParam,
    SpectrumWithS,
    c3_from_spectrum,
    enumerate_spectra,
    s_from_spectrum,
    s_upper_bound,
    sum_via_chi,
    validate_chain_down,
    validate_chain_up,
    validate_spectrum,
)

ST_MINUS = SplittingType(-1, 0)
ST_ZERO = SplittingType(0, 0)


def test_validate_spectrum():
    assert validate_spectrum([-2, -1, 0]) == (-2, -1, 0)
    with pytest.raises(InadmissibleSpectrumError):
        validate_spectrum([])
    with pytest.raises(InadmissibleSpectrumError):
        validate_spectrum([0, -1])


def test_c3_from_spectrum_frozen():
    assert c3_from_spectrum(-1, 2, SpectrumWithS((-1, -1), 1)) == 0
    assert c3_from_spectrum(0, 3, SpectrumWithS((-3, -2, -1), 6)) == 0
    assert c3_from_spectrum(0, 3, SpectrumWithS((0, 0, 0), 0)) == 0
    with pytest.raises(InadmissibleSpectrumError):
        c3_from_spectrum(-1, 3, SpectrumWithS((-1, -1), 1))


def test_s_from_spectrum_frozen():
    assert s_from_spectrum(ChernClasses(-1, 2, 0), (-2, -1)) == 2
    assert s_from_spectrum(ChernClasses(0, 3, 0), (-1, 0, 1)) == 0
    with pytest.raises(InadmissibleSpectrumError):
        s_from_spectrum(ChernClasses(0, 3, 0), (1, 1, 1))  # s would be -3


def test_sum_via_chi_frozen():
    assert sum_via_chi(ChernClasses(-1, 2, 0), 0) == -1
    assert sum_via_chi(ChernClasses(0, 3, 0), 6) == -6
    assert sum_via_chi(ChernClasses(0, 1, 0), 0) == 0


def test_chain_down():
    assert validate_chain_down((-2, -1), ST_MINUS) == []
    assert validate_chain_down((-2, -2), ST_MINUS) == [(-2, -1)]
    assert validate_chain_down((0, 0, 0), ST_ZERO) == []
    # e = 0 triggers already at -1; e = -1 does not
    assert validate_chain_down((-2, 0), ST_ZERO) == [(-2, -1)]
    assert validate_chain_down((-1, 0), ST_MINUS) == []


def test_chain_up():
    assert validate_chain_up((-1, -1, 2), ST_ZERO, ChainUpParam(1)) == []
    assert validate_chain_up((-1, -1, 2), ST_ZERO, ChainUpParam(0)) == [(2, 1)]
    assert validate_chain_up((-1, 0, 1), ST_ZERO, ChainUpParam(0)) == []
    assert validate_chain_up((-1, -1, 2), ST_ZERO, UNBOUNDED) == []
    with pytest.raises(ValueError):
        ChainUpParam(-1)


def test_s_upper_bound_frozen():
    assert s_upper_bound(0, 3, "general") == 6
    assert s_upper_bound(0, 3, "zero_dimensional") == 4
    assert s_upper_bound(-1, 2, "zero_dimensional") == 2
    assert s_upper_bound(-1, 2, "general") == 5
    assert s_upper_bound(-1, 3, "zero_dimensional") == 4  # odd c2 branch
    with pytest.raises(DegenerateClassError):
        s_upper_bound(0, 0, "general")
    with pytest.raises(ValueError):
        s_upper_bound(0, 3, "sharp")


def test_bound_dominance():
    for e in (-1, 0):
        for c2 in range(1, 20):
            assert s_upper_bound(e, c2, "zero_dimensional") <= s_upper_bound(
                e, c2, "general"
            )


def test_enumerate_c2_2_exact():
    out = enumerate_spectra(ChernClasses(-1, 2, 0))
    assert out == [
        SpectrumWithS((-2, -1), 2),
        SpectrumWithS((-1, -1), 1),
        SpectrumWithS((-1, 0), 0),
    ]


# the paper-documented 10 realized/admitted spectra for (0,3,0) and the
# 4 extra candidates the constraints alone cannot exclude
DOCUMENTED_10 = {
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
}
EXTRA_4 = {(-1, -1, -1), (-2, -1, 1), (-2, -1, 2), (-2, -1, 3)}


def test_enumerate_c2_3_superset():
    out = enumerate_spectra(ChernClasses(0, 3, 0))
    values = {sw.values for sw in out}
    assert len(out) == 14
    assert DOCUMENTED_10 <= values
    assert values - DOCUMENTED_10 == EXTRA_4


def test_enumerate_c2_1():
    out = enumerate_spectra(ChernClasses(0, 1, 0))
    assert out == [SpectrumWithS((-1,), 1), SpectrumWithS((0,), 0)]


def test_enumerate_chain_up_thresholds():
    cc = ChernClasses(0, 3, 0)
    assert len(enumerate_spectra(cc, ChainUpParam(0))) == 11
    assert len(enumerate_spectra(cc, ChainUpParam(1))) == 14
    assert len(enumerate_spectra(cc, UNBOUNDED)) == 14


def test_realized_max_below_general_bound():
    out = enumerate_spectra(ChernClasses(-1, 2, 0))
    assert max(sw.s for sw in out) == 2 < s_upper_bound(-1, 2, "general")


def test_enumerate_degenerate():
    with pytest.raises(DegenerateClassError):
        enumerate_spectra(ChernClasses(0, 0, 0))


@st.composite
def random_spectrum_with_s(draw):
    e = draw(st.sampled_from([-1, 0]))
    m = draw(st.integers(1, 15))
    steps = draw(st.lists(st.integers(0, 2), min_size=m - 1, max_size=m - 1))
    k1 = draw(st.integers(-8, 4))
    values = [k1]
    for d in steps:
        values.append(values[-1] + d)
    s = draw(st.integers(0, 20))
    return e, m, tuple(values), s


@given(random_spectrum_with_s())
def test_identity_web(data):
    e, m, values, s = data
    c3 = c3_from_spectrum(e, m, SpectrumWithS(values, s))
    cc = ChernClasses(e, m, c3)  # parity holds automatically
    assert s_from_spectrum(cc, values) == s
    assert sum_via_chi(cc, s) == sum(values)


@settings(deadline=None)
@given(
    e=st.sampled_from([-1, 0]),
    c2=st.integers(1, 4),
    half=st.integers(-3, 3),
)
def test_enumeration_soundness(e, c2, half):
    c3 = 2 * half + (c2 % 2 if e == -1 else 0)
    cc = ChernClasses(e, c2, c3)
    out = enumerate_spectra(cc)
    st_ = SplittingType(-1, 0) if e == -1 else SplittingType(0, 0)
    seen = set()
    for sw in out:
        assert sw not in seen
        seen.add(sw)
        assert 0 <= sw.s <= s_upper_bound(e, c2, "general")
        assert validate_chain_down(sw.values, st_) == []
        assert c3_from_spectrum(e, c2, sw) == c3


@settings(deadline=None)
@given(
    e=st.sampled_from([-1, 0]),
    c2=st.integers(1, 4),
    half=st.integers(-3, 3),
    lo=st.integers(0, 3),
    hivals=st.integers(0, 3),
)
def test_enumeration_monotone_in_threshold(e, c2, half, lo, hivals):
    c3 = 2 * half + (c2 % 2 if e == -1 else 0)
    cc = ChernClasses(e, c2, c3)
    tight = set(enumerate_spectra(cc, ChainUpParam(lo)))
    loose = set(enumerate_spectra(cc, ChainUpParam(lo + hivals)))
    unbounded = set(enumerate_spectra(cc, UNBOUNDED))
    assert tight <= loose <= unbounded
