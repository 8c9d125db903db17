"""Tests for the closed-form invariants.

The Euler characteristic formulas are checked against an independent
oracle: chi of an explicit line-bundle resolution computed term by term
with the binomial cubic.  The Chern classes of the same resolutions come
from a second oracle kept here, the total Chern series truncated after
t^3, which the library's chi reader (sheafcalc) is checked against.
"""

from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from sheafspectra.errors import (
    NotNormalizedError,
    ParityError,
    RankMismatchError,
)
from sheafspectra.invariants import (
    ChernClasses,
    euler_characteristic,
    kernel_invariants,
    splitting_type_from_e,
)

# Resolutions 0 -> sum O(b_j) -> sum O(a_i) -> E -> 0 used as oracles.
# Each entry: (positive degrees, negative degrees, expected (e, c2, c3)).
RESOLUTION_ORACLES = [
    ([-1, -1, -1], [-2], (-1, 1, 1)),
    ([-1, 0, 0, 1], [-2, 2], (0, 3, 0)),
    ([0, 0], [], (0, 0, 0)),
    ([-1, 0], [], (-1, 0, 0)),
    ([-2, 0, 1], [-1], (0, -2, -2)),
    ([0] * 8, [-1] * 3 + [1] * 3, (0, 3, 0)),  # the Instanton monad's degrees
]


def line_bundle_chi(a: int, t: int) -> int:
    """chi(O(a+t)) on P^3: the binomial coefficient C(a+t+3, 3) read as a cubic."""
    d = a + t
    return (d + 1) * (d + 2) * (d + 3) // 6


def chern_from_resolution(positive_terms, negative_terms) -> ChernClasses:
    """Chern classes of the virtual rank-2 sum (+)O(a_i) - (+)O(b_j).

    The truncated power series prod(1 + a_i t) / prod(1 + b_j t): it needs
    nothing but multiplicativity of total Chern classes on exact sequences.
    """
    pos, neg = list(positive_terms), list(negative_terms)
    if len(pos) - len(neg) != 2:
        raise RankMismatchError(f"resolution has rank {len(pos) - len(neg)}, expected 2")
    c1 = c2 = c3 = 0
    # (1, c1, c2, c3) times 1 + a t, or times 1/(1 + b t) = 1 - b t + b^2 t^2 - b^3 t^3,
    # truncated after t^3: the constant term stays 1 and every coefficient an int
    for f1, f2, f3 in [(a, 0, 0) for a in pos] + [(-b, b * b, -b * b * b) for b in neg]:
        c1, c2, c3 = c1 + f1, c2 + c1 * f1 + f2, c3 + c2 * f1 + c1 * f2 + f3
    return ChernClasses(c1, c2, c3)


def chi_from_resolution(pos, neg, t):
    return sum(line_bundle_chi(a, t) for a in pos) - sum(
        line_bundle_chi(b, t) for b in neg
    )


@pytest.mark.parametrize("pos,neg,expected", RESOLUTION_ORACLES)
def test_chern_from_resolution_frozen(pos, neg, expected):
    cc = chern_from_resolution(pos, neg)
    assert cc.as_tuple() == expected


@pytest.mark.parametrize("pos,neg,expected", RESOLUTION_ORACLES)
def test_chi_matches_resolution_oracle(pos, neg, expected):
    cc = chern_from_resolution(pos, neg)
    for t in range(-10, 11):
        assert euler_characteristic(cc, t) == chi_from_resolution(pos, neg, t)


def test_line_bundle_chi_values():
    # cubic with zeros at d = -1, -2, -3
    assert line_bundle_chi(0, 0) == 1
    assert line_bundle_chi(0, 1) == 4
    assert line_bundle_chi(2, 0) == 10
    assert line_bundle_chi(0, -1) == 0
    assert line_bundle_chi(0, -2) == 0
    assert line_bundle_chi(0, -3) == 0
    assert line_bundle_chi(0, -4) == -1
    assert line_bundle_chi(-3, -2) == -4


def test_chi_frozen_values():
    # chi(E) for the null correlation bundle class and a c2 = 2 class
    assert euler_characteristic(ChernClasses(0, 1, 0), 0) == 0
    assert euler_characteristic(ChernClasses(-1, 2, 0), 0) == -2
    assert euler_characteristic(ChernClasses(-1, 2, 0), -1) == -1
    assert euler_characteristic(ChernClasses(0, 3, 0), 0) == -4
    assert euler_characteristic(ChernClasses(0, 3, 0), -1) == -3
    assert type(euler_characteristic(ChernClasses(-1, 2, 0), -3)) is int
    assert type(euler_characteristic(ChernClasses(0, 3, 2), 4)) is int


@pytest.mark.parametrize("t", [2.0, True, "1"])
def test_chi_refuses_a_twist_that_is_not_an_int(t):
    # a float twist gave the float 8.0, and True was read as the twist 1
    with pytest.raises(TypeError, match=f"twist must be an int, got {t!r}"):
        euler_characteristic(ChernClasses(0, 3, 0), t)


def test_parity_rejected():
    with pytest.raises(ParityError):
        ChernClasses(0, 2, 1)
    with pytest.raises(ParityError):
        ChernClasses(-1, 2, 1)
    # admissible neighbours construct fine
    ChernClasses(0, 2, 2)
    ChernClasses(-1, 2, 2)
    ChernClasses(-1, 3, 1)


def test_not_normalized_rejected():
    with pytest.raises(NotNormalizedError):
        ChernClasses(1, 2, 0)
    with pytest.raises(NotNormalizedError):
        ChernClasses(-2, 2, 0)


def test_splitting_type():
    assert splitting_type_from_e(ChernClasses(-1, 2, 0).e) == (-1, 0)
    assert splitting_type_from_e(ChernClasses(0, 3, 0).e) == (0, 0)


@pytest.mark.parametrize("args", [(0, 2.0, 0), (0.0, 2, 0), (False, 2, 0)])
def test_non_int_classes_rejected(args):
    with pytest.raises(TypeError):
        ChernClasses(*args)


@pytest.mark.parametrize("bad", [True, 3.0, "3"])
@pytest.mark.parametrize("fields", [
    fields for r in (1, 2, 3) for fields in combinations(("e", "c2", "c3"), r)
])
def test_chern_classes_name_the_first_non_int_field(fields, bad):
    args = [bad if name in fields else value for name, value in zip(("e", "c2", "c3"), (0, 3, 0))]
    with pytest.raises(TypeError) as err:
        ChernClasses(*args)
    assert str(err.value) == f"{fields[0]} must be an int, got {bad!r}"


def test_restriction_chi_counts_spectrum_length():
    # chi of the plane restriction, chi(E(t)) - chi(E(t-1)), at the first
    # interesting twist t = -a2-1 is -c2, the spectrum length
    for e, c2, c3 in [(-1, 2, 0), (0, 3, 0), (-1, 5, 3), (0, 4, -2)]:
        cc = ChernClasses(e, c2, c3)
        a2 = splitting_type_from_e(cc.e).a2
        plane = euler_characteristic(cc, -a2 - 1) - euler_characteristic(cc, -a2 - 2)
        assert plane == -c2


def test_rank_mismatch():
    with pytest.raises(RankMismatchError):
        chern_from_resolution([0, 0, 0], [])
    with pytest.raises(RankMismatchError):
        chern_from_resolution([0], [-1, -1])


def test_kernel_invariants():
    f = ChernClasses(0, 3, 12)
    cc, s = kernel_invariants(f, 6)
    assert cc.as_tuple() == (0, 3, 0)
    assert s == 6
    cc2, s2 = kernel_invariants(ChernClasses(-1, 2, 8), 2)
    assert cc2.as_tuple() == (-1, 2, 4)
    assert s2 == 2
    with pytest.raises(ValueError):
        kernel_invariants(f, -1)


@st.composite
def rank_two_resolutions(draw):
    neg = draw(st.lists(st.integers(-4, 4), max_size=4))
    pos = draw(st.lists(st.integers(-4, 4), min_size=len(neg) + 1, max_size=len(neg) + 1))
    e = draw(st.sampled_from([-1, 0]))
    # the last positive degree fixes c1 = e
    return pos + [e - sum(pos) + sum(neg)], neg, e


@given(rank_two_resolutions())
def test_chern_classes_give_the_resolution_chi(resolution):
    pos, neg, e = resolution
    cc = chern_from_resolution(pos, neg)
    assert cc.e == e
    for t in range(-6, 7):
        assert euler_characteristic(cc, t) == chi_from_resolution(pos, neg, t)


@given(
    e=st.sampled_from([-1, 0]),
    c2=st.integers(-20, 20),
    half=st.integers(-20, 20),
    t=st.integers(-20, 20),
)
def test_chi_always_integer(e, c2, half, t):
    c3 = 2 * half + (abs(c2) % 2 if e == -1 else 0)
    cc = ChernClasses(e, c2, c3)
    assert isinstance(euler_characteristic(cc, t), int)


@given(
    e=st.sampled_from([-1, 0]),
    c2=st.integers(1, 8),
    half=st.integers(-10, 10),
    n1=st.integers(0, 5),
    n2=st.integers(0, 5),
)
def test_kernel_invariants_compose(e, c2, half, n1, n2):
    c3 = 2 * half + (c2 % 2 if e == -1 else 0)
    f = ChernClasses(e, c2, c3)
    step1, _ = kernel_invariants(f, n1)
    step2, _ = kernel_invariants(step1, n2)
    once, _ = kernel_invariants(f, n1 + n2)
    assert step2 == once


@given(
    e=st.sampled_from([-1, 0]),
    c2=st.integers(1, 8),
    half=st.integers(-10, 10),
    n=st.integers(0, 6),
)
def test_kernel_shifts_only_c3(e, c2, half, n):
    c3 = 2 * half + (c2 % 2 if e == -1 else 0)
    f = ChernClasses(e, c2, c3)
    cc, s = kernel_invariants(f, n)
    assert (cc.e, cc.c2) == (f.e, f.c2)
    assert cc.c3 == f.c3 - 2 * n
    assert s == n
    # chi drops by exactly n at every twist
    for t in (-3, 0, 2):
        assert euler_characteristic(f, t) - euler_characteristic(cc, t) == n
