"""Tests for spectrum identities, chain rules, bounds, and enumeration."""

import functools
import sys

import pytest
from hypothesis import given, settings, strategies as st

from sheafspectra.cohomology import table_from_spectrum
from sheafspectra.errors import (
    DegenerateClassError,
    InadmissibleSpectrumError,
    NotNormalizedError,
)
from sheafspectra.invariants import (
    ChernClasses,
    SplittingType,
    kernel_invariants,
    splitting_type_from_e,
)
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


def test_validate_spectrum_refuses_non_ints():
    with pytest.raises(InadmissibleSpectrumError):
        validate_spectrum(["-1", 0.5, True])
    with pytest.raises(InadmissibleSpectrumError):
        table_from_spectrum(SpectrumWithS(("-1", 0.9), 0), ST_MINUS, (-4, -1))


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


# every entry point that takes e alone decides it the same way
BAD_E = {
    "ChernClasses": lambda e: ChernClasses(e, 2, 0),
    "splitting_type_from_e": splitting_type_from_e,
    "c3_from_spectrum": lambda e: c3_from_spectrum(e, 2, SpectrumWithS((-1, 0), 0)),
    "s_upper_bound": lambda e: s_upper_bound(e, 2),
}


@pytest.mark.parametrize("e", [1, -2])
@pytest.mark.parametrize("entry", BAD_E)
def test_bad_e_is_one_error(entry, e):
    with pytest.raises(NotNormalizedError):
        BAD_E[entry](e)


@pytest.mark.parametrize("e", [False, -1.0])
@pytest.mark.parametrize("entry", BAD_E)
def test_e_is_a_strict_int(entry, e):
    with pytest.raises(TypeError):
        BAD_E[entry](e)


@pytest.mark.parametrize("call,text", [
    (lambda: kernel_invariants(ChernClasses(0, 3, 12), True), "expected int, got True"),
    (lambda: s_upper_bound(0, 2.0), "expected int, got 2.0"),
], ids=["kernel_invariants", "s_upper_bound"])
def test_counts_are_strict_ints(call, text):
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == text


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


def test_enumerate_skips_to_the_sum_window_at_once():
    # sum(k_i) = 10^12 - s: entries below the window are never visited one by one
    out = enumerate_spectra(ChernClasses(0, 1, -2 * 10**12))
    assert out == [SpectrumWithS((10**12 - 1,), 1), SpectrumWithS((10**12,), 0)]


@pytest.mark.parametrize("e,c3", [(0, 420), (-1, 400)])
def test_enumerate_walks_no_prefix_that_cannot_climb(e, c3):
    # the one spectrum is (-20, ..., -1) at s = 0; a prefix whose forced climb
    # to -1 overshoots the sum is cut at once (7,341 walk calls without that)
    calls = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "walk":
            calls.append(None)

    sys.setprofile(count)
    try:
        out = enumerate_spectra(ChernClasses(e, 20, c3))
    finally:
        sys.setprofile(None)
    assert out == [SpectrumWithS(tuple(range(-20, 0)), 0)]
    assert len(calls) <= 21


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


# ------------------------------------------------------------- walk vs filter


def _sum_window(e, m, c3):
    """Bounds of sum(k_i): the c3 identities at the general bound on s
    and at s = 0."""
    sum_max = -(m + c3) // 2 if e == -1 else -c3 // 2
    bound = (m * m + 3 * m) // 2 if e == -1 else (m * m + m) // 2
    return sum_max - bound, sum_max


def _reference_enumerate(cc, p=UNBOUNDED):
    """Every nondecreasing tuple in the sum window, filtered at the leaves.

    The enumerator before the chain-down rule moved into its walk: the
    same sum-window depth-first search, both chain rules checked on
    finished tuples, and a final sort.
    """
    m = cc.c2
    st_ = SplittingType(-1, 0) if cc.e == -1 else SplittingType(0, 0)
    sum_min, sum_max = _sum_window(cc.e, m, cc.c3)
    lo, hi = -m, sum_max + m * (m - 1)
    results, prefix = [], []

    def walk(total):
        depth = len(prefix)
        if depth == m:
            values = tuple(prefix)
            if (
                sum_min <= total <= sum_max
                and not validate_chain_down(values, st_)
                and not validate_chain_up(values, st_, p)
            ):
                results.append(SpectrumWithS(values, sum_max - total))
            return
        remaining = m - depth
        for v in range(prefix[-1] if prefix else lo, hi + 1):
            if total + v * remaining > sum_max:
                break
            if total + v + (remaining - 1) * hi < sum_min:
                continue
            prefix.append(v)
            walk(total + v)
            prefix.pop()

    walk(0)
    results.sort(key=lambda sw: (sw.values, sw.s))
    return results


def _c3_window(e, m):
    """c3 of the classes from one parity step above the chain (-m, ..., -1)
    at s = 0 down to that chain at the general bound on s."""
    top = m * (m + 1) if e == 0 else m * m
    bound = s_upper_bound(e, m, "general")
    return [top + 2] + [top - 2 * j for j in range(bound + 1)]


@pytest.mark.parametrize("c2", range(1, 6))
@pytest.mark.parametrize("e", [-1, 0])
def test_walk_matches_leaf_filter(e, c2):
    for c3 in _c3_window(e, c2):
        cc = ChernClasses(e, c2, c3)
        for p in (UNBOUNDED, ChainUpParam(0), ChainUpParam(1), ChainUpParam(3)):
            out = enumerate_spectra(cc, p)
            assert out == _reference_enumerate(cc, p), (cc, p)
            assert all(a.values < b.values for a, b in zip(out, out[1:]))


# ------------------------------------------------------------- counting oracle
#
# The number of spectra of a class from the closed forms alone: the sum
# window above, and the descending chain rule, by which a smallest entry
# k <= a1 - 1 forces every integer of [k, -1].


@functools.cache
def _tuples(n, low, total):
    """Nondecreasing n-tuples with entries >= low summing to total."""
    if n == 0:
        return int(total == 0)
    if n * low > total:
        return 0
    return _tuples(n - 1, low, total - low) + _tuples(n, low + 1, total)


@functools.cache
def _chains(n, low, total):
    """Nondecreasing n-tuples summing to total that start at low <= -1
    and contain every integer of [low, -1]."""
    if n == 0:
        return 0
    if low == -1:
        return _tuples(n - 1, -1, total + 1)
    # after the first entry the rest starts at low again or at low + 1
    return _chains(n - 1, low, total - low) + _chains(n - 1, low + 1, total - low)


def _count_spectra(e, m, c3):
    a1 = -1 if e == -1 else 0
    sum_min, sum_max = _sum_window(e, m, c3)
    return sum(
        _tuples(m, a1, total) + sum(_chains(m, low, total) for low in range(-m, a1))
        for total in range(sum_min, sum_max + 1)
    )


@pytest.mark.parametrize("c2", range(1, 8))
@pytest.mark.parametrize("e", [-1, 0])
def test_enumeration_matches_counting_oracle(e, c2):
    for c3 in _c3_window(e, c2):
        assert len(enumerate_spectra(ChernClasses(e, c2, c3))) == _count_spectra(
            e, c2, c3
        ), (e, c2, c3)


@pytest.mark.parametrize(
    "e,c2,count", [(0, 7, 1483), (-1, 8, 2765), (0, 8, 4978), (0, 9, 16857)]
)
def test_pinned_counts(e, c2, count):
    assert _count_spectra(e, c2, 0) == count
    assert len(enumerate_spectra(ChernClasses(e, c2, 0))) == count


@pytest.mark.parametrize("s", [True, 0.5, -1])
def test_s_must_be_a_nonnegative_int(s):
    # one check in c3_from_spectrum serves table_from_spectrum too
    sw = SpectrumWithS((-1, 0), s)
    with pytest.raises(InadmissibleSpectrumError):
        c3_from_spectrum(-1, 2, sw)
    with pytest.raises(InadmissibleSpectrumError):
        table_from_spectrum(sw, ST_MINUS, (-4, -1))
