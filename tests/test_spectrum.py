"""Tests for spectrum identities, chain rules, bounds, and enumeration."""

import functools
import gc
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from sheafspectra import spectrum
from sheafspectra.cohomology import table_from_spectrum
from sheafspectra.errors import (
    DegenerateClassError,
    InadmissibleSpectrumError,
    NotNormalizedError,
)
from sheafspectra.invariants import (
    ChernClasses,
    SplittingType,
    _exact,
    euler_characteristic,
    kernel_invariants,
    splitting_type_from_e,
)
from sheafspectra.spectrum import (
    UNBOUNDED,
    ChainUpParam,
    SpectrumWithS,
    c3_from_spectrum,
    enumerate_spectra,
    s_upper_bound,
    validate_spectrum,
)
from test_sheafcalc import ListSet, outcome

ST_MINUS = SplittingType(-1, 0)
ST_ZERO = SplittingType(0, 0)


def sum_via_chi(cc: ChernClasses, s: int) -> int:
    """sum(k_i) from the Euler characteristic instead of c3, the independent route.

    m (a2 - 1) - chi(E(-a2 - 1)) - s, with a2 = 0 for the generic splitting
    type (e, 0); agreement with the c3 identity checks the sign conventions.
    """
    return -cc.c2 - euler_characteristic(cc, -1) - s


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


@pytest.mark.parametrize("values", [{-1: 0, 0: 0}, {-1, 0}, frozenset({-1}),
                                    types.MappingProxyType({-1: 0, 0: 0}), ListSet([-1, 0])],
                         ids=["mapping", "set", "frozenset", "mapping-proxy", "abc-set"])
def test_a_spectrum_is_not_read_off_a_mapping_or_a_set(values):
    # read as its keys, {-1: 0, 0: 0} was the spectrum (-1, 0): c3_from_spectrum gave 0
    for call in (lambda: validate_spectrum(values),
                 lambda: c3_from_spectrum(-1, 2, SpectrumWithS(values, 0))):
        with pytest.raises(InadmissibleSpectrumError) as err:
            call()
        assert str(err.value) == f"spectrum must be a sequence, got {values!r}"
    # a generator still is, as for tuple()
    assert validate_spectrum(v for v in (-1, 0)) == (-1, 0)


def _reference_validate_spectrum(values) -> tuple:
    """validate_spectrum entry by entry: the oracle for its whole-tuple checks."""
    spec = tuple(values)
    if any(type(v) is not int for v in spec):
        raise InadmissibleSpectrumError(f"spectrum {spec!r} has a non-int value")
    if not spec:
        raise InadmissibleSpectrumError("spectrum must have at least one entry")
    if any(spec[i] > spec[i + 1] for i in range(len(spec) - 1)):
        raise InadmissibleSpectrumError(f"spectrum {spec} is not nondecreasing")
    return spec


@settings(deadline=None, max_examples=200)
@given(st.lists(st.one_of(
    st.integers(-4, 4), st.integers(-4, 4), st.booleans(),
    st.floats(-4, 4, allow_nan=False), st.sampled_from(["-1", "0"]),
), max_size=6), st.booleans())
def test_validate_spectrum_matches_the_entry_by_entry_oracle(values, ordered):
    # bool, float or str entries, empty input and entries out of order, in any mix
    if ordered and all(type(v) is int for v in values):
        values.sort()
    assert outcome(validate_spectrum, values) == outcome(_reference_validate_spectrum, values)


def test_c3_from_spectrum_frozen():
    assert c3_from_spectrum(-1, 2, SpectrumWithS((-1, -1), 1)) == 0
    assert c3_from_spectrum(0, 3, SpectrumWithS((-3, -2, -1), 6)) == 0
    assert c3_from_spectrum(0, 3, SpectrumWithS((0, 0, 0), 0)) == 0
    with pytest.raises(InadmissibleSpectrumError):
        c3_from_spectrum(-1, 3, SpectrumWithS((-1, -1), 1))


def test_s_is_determined_by_class_and_spectrum():
    # the enumerator reads s off the c3 identity and drops a tuple that needs s < 0
    s_of = lambda cc: {sw.values: sw.s for sw in enumerate_spectra(cc)}
    assert s_of(ChernClasses(-1, 2, 0))[(-2, -1)] == 2
    assert s_of(ChernClasses(0, 3, 0))[(-1, 0, 1)] == 0
    assert (1, 1, 1) not in s_of(ChernClasses(0, 3, 0))  # s would be -3
    assert c3_from_spectrum(0, 3, SpectrumWithS((1, 1, 1), 0)) == -6


def test_sum_via_chi_frozen():
    assert sum_via_chi(ChernClasses(-1, 2, 0), 0) == -1
    assert sum_via_chi(ChernClasses(0, 3, 0), 6) == -6
    assert sum_via_chi(ChernClasses(0, 1, 0), 0) == 0


def validate_chain_down(values, st):
    """Descending chain rule violations.

    Any entry k <= a1 - 1 forces every integer of [k, -1] to appear.
    Returns (trigger, missing) pairs; the spectrum is admissible on this
    rule iff the list is empty.  The reference for the cap that
    enumerate_spectra puts on each step of its walk, and for the
    admissibility gate, which reads the rule off the least entry.
    """
    present = set(validate_spectrum(values))
    triggers = sorted(k for k in present if k <= st.a1 - 1)
    return [(k, kp) for k in triggers for kp in range(k, 0) if kp not in present]


def gate(cc, sw):
    """The admissibility gate's verdict: None, or its error class and text."""
    return outcome(spectrum._check_admissible, cc, sw)


def gate_at_s0(e, values):
    # the gate on values at s = 0, in the class the c3 identity gives them
    sw = SpectrumWithS(values, 0)
    return gate(ChernClasses(e, len(values), c3_from_spectrum(e, len(values), sw)), sw)


def test_chain_down():
    breaks = lambda values: (InadmissibleSpectrumError, f"spectrum {values}, s=0 breaks "
                             "the chain-down rule or the bound on s")
    assert gate_at_s0(-1, (-2, -1)) is None
    assert gate_at_s0(-1, (-2, -2)) == breaks((-2, -2))
    assert gate_at_s0(0, (0, 0, 0)) is None
    # e = 0 triggers already at -1; e = -1 does not
    assert gate_at_s0(0, (-2, 0)) == breaks((-2, 0))
    assert gate_at_s0(-1, (-1, 0)) is None


def test_the_gate_checks_the_c3_identity_first():
    # the class decides before the rules: the count, then c3, then chain-down
    sw = SpectrumWithS((-2, -2), 9)
    assert gate(ChernClasses(-1, 3, 1), sw) == (
        InadmissibleSpectrumError, "spectrum has 2 entries, expected m = c2 = 3")
    assert gate(ChernClasses(-1, 2, 0), sw) == (
        InadmissibleSpectrumError, "spectrum and s give c3 = -12, moduli say 0")
    assert gate(ChernClasses(-1, 2, -12), sw) == (
        InadmissibleSpectrumError,
        "spectrum (-2, -2), s=9 breaks the chain-down rule or the bound on s")


def validate_chain_up(values, st, p=UNBOUNDED):
    """Ascending chain rule violations under threshold p.

    For every k > a2 + 1 occurring with multiplicity-weighted count
    #{i : k_i >= k} >= s_eh + 1, every integer of [a2 + 1, k] must
    appear.  With p unbounded the rule never triggers.  The reference
    for the cap that enumerate_spectra puts on each step of its walk.
    """
    _exact(p, ChainUpParam)
    spec = validate_spectrum(values)
    if p.s_eh is None:
        return []
    present = set(spec)
    triggers = sorted(
        k for k in present if k > st.a2 + 1 and sum(v >= k for v in spec) > p.s_eh
    )
    return [
        (k, kp) for k in triggers for kp in range(st.a2 + 1, k + 1) if kp not in present
    ]


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
    cc = ChernClasses(0, 1, -2 * 10**12)
    out = enumerate_spectra(cc)
    assert out == [SpectrumWithS((10**12 - 1,), 1), SpectrumWithS((10**12,), 0)]
    assert enumerate_spectra(cc, ChainUpParam(1)) == out
    # at s_eh = 0 the chain-up cap holds the one entry to 1, below the window
    assert enumerate_spectra(cc, ChainUpParam(0)) == []


def _enumerate_walk_heads(cc, p=UNBOUNDED):
    """enumerate_spectra(cc, p) and the entries fixed on entry to each walk frame."""
    heads = []

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "walk":
            heads.append(len(frame.f_locals["head"]))

    sys.setprofile(record)
    try:
        out = enumerate_spectra(cc, p)
    finally:
        sys.setprofile(None)
    return out, heads


def _enumerate_counting_walks(cc, p=UNBOUNDED):
    """enumerate_spectra(cc, p) and the number of walk frames it opened."""
    out, heads = _enumerate_walk_heads(cc, p)
    return out, len(heads)


@pytest.mark.parametrize("e,c3", [(0, 420), (-1, 400)])
def test_enumerate_walks_no_prefix_that_cannot_climb(e, c3):
    # the one spectrum is (-20, ..., -1) at s = 0; a prefix whose forced climb
    # to -1 overshoots the sum is cut at once (7,341 walk calls without that)
    out, frames = _enumerate_counting_walks(ChernClasses(e, 20, c3))
    assert out == [SpectrumWithS(tuple(range(-20, 0)), 0)]
    assert frames <= 19  # one per entry but the last two, which are emitted in one frame


def test_enumerate_takes_one_frame_per_inner_node():
    # the last two entries are emitted in one frame (20,045 frames with one
    # per leaf, 3,188 with one per node that has one entry left)
    out, frames = _enumerate_counting_walks(ChernClasses(0, 9, 0))
    assert len(out) == 16857
    assert frames <= 1012


@pytest.mark.xfail(strict=True, reason=(
    "FOUND in CHANGES.md: the recursive walk closes over itself (walk -> its cell -> walk) "
    "and holds emit, so a dropped result lives until the cyclic collector runs"))
def test_a_dropped_enumeration_leaves_no_tracked_objects():
    cc = ChernClasses(0, 6, 0)
    enumerate_spectra(cc)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        enumerate_spectra(cc)  # the result is dropped as soon as it is made
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert after == before


@pytest.mark.parametrize("s_eh,count", [(0, 1434), (1, 8173), (3, 16714)])
def test_the_chain_up_cap_opens_no_more_frames(s_eh, count):
    # the cap only cuts the walk; frames whose prefix cannot reach the sum
    # window under it stay open and yield nothing
    out, frames = _enumerate_counting_walks(ChernClasses(0, 9, 0), ChainUpParam(s_eh))
    assert len(out) == count
    assert frames <= 1012


def test_a_walk_past_the_recursion_limit_names_c2_and_its_depth():
    # (-m, ..., -1) at s = 0 is the one spectrum: flat input, one walk frame per
    # entry but the last
    m = sys.getrecursionlimit()
    with pytest.raises(ValueError, match=f"enumerating c2 = {m} needs a walk {m} entries deep"):
        enumerate_spectra(ChernClasses(0, m, m * (m + 1)))


@pytest.mark.parametrize("call,text", [
    (lambda: enumerate_spectra(ChernClasses(0, 3, 0), None), "expected ChainUpParam, got None"),
    (lambda: enumerate_spectra(ChernClasses(0, 3, 0), 2), "expected ChainUpParam, got 2"),
    (lambda: enumerate_spectra((0, 3, 0)), "expected ChernClasses, got (0, 3, 0)"),
    (lambda: enumerate_spectra(ChernClasses(0, 3, 0), (1,)), "expected ChainUpParam, got (1,)"),
    (lambda: kernel_invariants((0, 3, 12), 6), "expected ChernClasses, got (0, 3, 12)"),
    (lambda: c3_from_spectrum(-1, 2, ((-1, 0), 0)), "expected SpectrumWithS, got ((-1, 0), 0)"),
], ids=["param-None", "param-int", "class-tuple", "param-tuple", "kernel-class-tuple",
        "c3-spectrum-tuple"])
def test_wrong_types_are_refused_at_entry(call, text):
    # each gave a bare AttributeError, a wrong param only after walking the whole class
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == text


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
    assert c3 == (-2 * sum(values) - m - 2 * s if e == -1 else -2 * sum(values) - 2 * s)
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

    The enumerator before either chain rule moved into its walk: the
    same sum-window depth-first search, both chain rules checked on
    finished tuples, and a final sort.
    """
    st_ = SplittingType(-1, 0) if cc.e == -1 else SplittingType(0, 0)
    return [sw for sw in _reference_chain_down(cc) if not validate_chain_up(sw.values, st_, p)]


@functools.cache
def _reference_chain_down(cc):
    # the search and the chain-down check, once per class for every threshold;
    # the admissibility gate must decide every candidate as the filter does
    m = cc.c2
    st_ = SplittingType(-1, 0) if cc.e == -1 else SplittingType(0, 0)
    sum_min, sum_max = _sum_window(cc.e, m, cc.c3)
    lo, hi = -m, sum_max + m * (m - 1)
    results, prefix = [], []

    def walk(total):
        depth = len(prefix)
        if depth == m:
            values = tuple(prefix)
            sw = SpectrumWithS(values, sum_max - total)  # s read off the c3 identity
            kept = sum_min <= total <= sum_max and not validate_chain_down(values, st_)
            assert (gate(cc, sw) is None) == kept, (cc, sw, gate(cc, sw))
            if kept:
                results.append(sw)
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
    # and one class at sum(k_i) = 2 c2 + 1 at s = 0, where the first entry can pass 1
    for c3 in _c3_window(e, c2) + [-4 * c2 - 2 + e * c2]:
        cc = ChernClasses(e, c2, c3)
        for p in (UNBOUNDED, *map(ChainUpParam, range(c2 + 2))):
            out = enumerate_spectra(cc, p)
            assert out == _reference_enumerate(cc, p), (cc, p)
            assert all(a.values < b.values for a, b in zip(out, out[1:]))


@settings(deadline=None)
@given(e=st.sampled_from([-1, 0]), c2=st.integers(6, 7), data=st.data())
def test_the_chain_up_cap_matches_the_oracle_filter(e, c2, data):
    # past the reach of the leaf-filter reference: the unbounded walk, filtered
    cc = ChernClasses(e, c2, data.draw(st.sampled_from(_c3_window(e, c2))))
    p = ChainUpParam(data.draw(st.integers(0, c2 + 1)))
    st_ = splitting_type_from_e(e)
    want = [sw for sw in enumerate_spectra(cc) if not validate_chain_up(sw.values, st_, p)]
    out = enumerate_spectra(cc, p)
    kinds = lambda spectra: [(type(sw), type(sw.values)) for sw in spectra]
    assert out == want and kinds(out) == kinds(want)


def test_enumerate_opens_no_frame_with_one_entry_left():
    # the last two entries come from one frame, and c2 = 1 opens no frame at all
    classes = [ChernClasses(0, 9, 0)] + [
        ChernClasses(e, c2, c3) for e in (-1, 0) for c2 in range(2, 6) for c3 in _c3_window(e, c2)
    ]
    for cc in classes:
        heads = _enumerate_walk_heads(cc)[1]
        assert heads and all(cc.c2 - fixed >= 2 for fixed in heads), cc
    for e in (-1, 0):
        for c3 in _c3_window(e, 1):
            assert _enumerate_walk_heads(ChernClasses(e, 1, c3))[1] == []


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
        cc = ChernClasses(e, c2, c3)
        out = enumerate_spectra(cc)
        assert len(out) == _count_spectra(e, c2, c3), (e, c2, c3)
        # leaves are built with tuple.__new__: each must still be a plain SpectrumWithS
        for sw in out + enumerate_spectra(cc, ChainUpParam(1)):
            assert type(sw) is SpectrumWithS and type(sw.values) is tuple, (cc, sw)
            assert sw == SpectrumWithS(sw.values, sw.s), (cc, sw)


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


@pytest.mark.parametrize("report", [
    {"b": [1, None, -2], "a": {"z": 1.5, "y": "é"}, "c": True},
    table_from_spectrum(SpectrumWithS((-2, -1), 2), SplittingType(-1, 0), (-5, 1)).to_json_dict(),
    [], {}, "text", 0,
])
def test_report_json_renders_as_json_dumps_did(report):
    import json

    assert spectrum.report_json(report) == json.dumps(report, sort_keys=True,
                                                      separators=(",", ":"))


def test_report_json_builds_its_encoder_once_and_refuses_a_cycle(monkeypatch):
    import json

    built, encoder = [], json.JSONEncoder
    monkeypatch.setattr(spectrum, "_encode", None)
    monkeypatch.setattr(json, "JSONEncoder", lambda **kw: built.append(kw) or encoder(**kw))
    cyclic = {"a": []}
    cyclic["a"].append(cyclic)
    with pytest.raises(ValueError, match="Circular reference detected"):
        spectrum.report_json(cyclic)
    assert spectrum.report_json({"b": 1, "a": [2]}) == '{"a":[2],"b":1}'
    assert built == [{"sort_keys": True, "separators": (",", ":")}]
