"""Spectrum constraints, s/c3 identities, bounds, and exhaustive enumeration.

A spectrum is a nondecreasing tuple of m = c2 integers attached to a
normalized semistable sheaf, together with a companion integer s >= 0
(the length of the zero-dimensional part of the double-dual quotient).
The identities tying (spectrum, s) to (e, c2, c3) are

    e = -1:  c3 = -2 sum(k_i) - c2 - 2 s
    e =  0:  c3 = -2 sum(k_i) - 2 s

which make s determined by the class and the spectrum.  The chain rules
constrain which tuples can occur at all.  enumerate_spectra walks every
candidate for given Chern classes; the chain-down rule bounds each step
of the walk, so its cost is roughly proportional to its output.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import DegenerateClassError, InadmissibleSpectrumError
from .invariants import (
    ChernClasses,
    SplittingType,
    _Checked,
    _exact,
    euler_characteristic,
    splitting_type_from_e,
)

__all__ = [
    "SpectrumWithS",
    "ChainUpParam",
    "UNBOUNDED",
    "validate_spectrum",
    "c3_from_spectrum",
    "s_from_spectrum",
    "sum_via_chi",
    "validate_chain_down",
    "validate_chain_up",
    "s_upper_bound",
    "enumerate_spectra",
]


class SpectrumWithS(NamedTuple):
    """A spectrum tuple together with its companion invariant s."""

    values: tuple[int, ...]
    s: int


class ChainUpParam(_Checked, NamedTuple("ChainUpParam", [("s_eh", int | None)])):
    """Threshold s_eh for the ascending chain rule.

    s_eh = None means "unbounded": the rule never triggers.  This is the
    sound default, since no single finite threshold reproduces every
    realized spectrum (see enumerate_spectra).
    """

    __slots__ = ()

    def __new__(cls, s_eh: int | None = None):
        if s_eh is not None and _exact(s_eh) < 0:
            raise ValueError(f"s_eh must be nonnegative or None, got {s_eh}")
        return tuple.__new__(cls, (s_eh,))


UNBOUNDED = ChainUpParam(None)


def validate_spectrum(values: Iterable[int]) -> tuple[int, ...]:
    """Normalize to a tuple; reject non-int, empty or decreasing input."""
    spec = tuple(values)
    if any(type(v) is not int for v in spec):
        raise InadmissibleSpectrumError(f"spectrum {spec!r} has a non-int value")
    if not spec:
        raise InadmissibleSpectrumError("spectrum must have at least one entry")
    if any(spec[i] > spec[i + 1] for i in range(len(spec) - 1)):
        raise InadmissibleSpectrumError(f"spectrum {spec} is not nondecreasing")
    return spec


def c3_from_spectrum(e: int, c2: int, sw: SpectrumWithS) -> int:
    """c3 determined by (spectrum, s) for first Chern class e."""
    spec = validate_spectrum(sw.values)
    if len(spec) != c2:
        raise InadmissibleSpectrumError(
            f"spectrum has {len(spec)} entries, expected m = c2 = {c2}"
        )
    if type(sw.s) is not int or sw.s < 0:
        raise InadmissibleSpectrumError(f"s must be a nonnegative int, got {sw.s!r}")
    splitting_type_from_e(e)  # NotNormalizedError unless e is -1 or 0
    return -2 * sum(spec) + e * c2 - 2 * sw.s


def _sum_max(cc: ChernClasses) -> int:
    # sum(k_i) at s = 0, from the c3 identities
    return (cc.e * cc.c2 - cc.c3) // 2


def s_from_spectrum(cc: ChernClasses, values: Iterable[int]) -> int:
    """The unique s making the c3 identity hold; rejects s < 0."""
    spec = validate_spectrum(values)
    if len(spec) != cc.c2:
        raise InadmissibleSpectrumError(
            f"spectrum has {len(spec)} entries, expected m = c2 = {cc.c2}"
        )
    s = _sum_max(cc) - sum(spec)
    if s < 0:
        raise InadmissibleSpectrumError(
            f"spectrum {spec} inadmissible for {cc.as_tuple()}: s = {s} < 0"
        )
    return s


def sum_via_chi(cc: ChernClasses, s: int) -> int:
    """sum(k_i) computed from the Euler characteristic instead of c3.

    Independent route: m (a2 - 1) - chi(E(-a2 - 1)) - s.  Agreement with
    the c3 identities is the basic consistency check of the sign
    conventions.
    """
    a2 = splitting_type_from_e(cc.e).a2
    return cc.c2 * (a2 - 1) - euler_characteristic(cc, -a2 - 1) - s


def validate_chain_down(
    values: Iterable[int], st: SplittingType
) -> list[tuple[int, int]]:
    """Descending chain rule violations.

    Any entry k <= a1 - 1 forces every integer of [k, -1] to appear.
    Returns (trigger, missing) pairs; the spectrum is admissible on this
    rule iff the list is empty.
    """
    present = set(validate_spectrum(values))
    triggers = sorted(k for k in present if k <= st.a1 - 1)
    return [(k, kp) for k in triggers for kp in range(k, 0) if kp not in present]


def validate_chain_up(
    values: Iterable[int],
    st: SplittingType,
    p: ChainUpParam = UNBOUNDED,
) -> list[tuple[int, int]]:
    """Ascending chain rule violations under threshold p.

    For every k > a2 + 1 occurring with multiplicity-weighted count
    #{i : k_i >= k} >= s_eh + 1, every integer of [a2 + 1, k] must
    appear.  With p unbounded the rule never triggers.
    """
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


def s_upper_bound(e: int, c2: int, regime: str = "general") -> int:
    """Closed-form upper bounds for s.

    regime "general" covers all semistable torsion-free sheaves;
    "zero_dimensional" assumes the double-dual quotient has dimension 0.
    """
    if _exact(c2) < 1:
        raise DegenerateClassError(f"bounds need c2 >= 1, got {c2}")
    splitting_type_from_e(e)  # NotNormalizedError unless e is -1 or 0
    if regime == "general":
        if e == 0:
            return (c2 * c2 + c2) // 2
        return (c2 * c2 + 3 * c2) // 2
    if regime == "zero_dimensional":
        if e == 0:
            return (c2 * c2 - c2 + 2) // 2
        return c2 * c2 // 2 if c2 % 2 == 0 else (c2 * c2 - 1) // 2
    raise ValueError(f"unknown regime {regime!r}")


def enumerate_spectra(
    cc: ChernClasses, p: ChainUpParam = UNBOUNDED
) -> list[SpectrumWithS]:
    """All spectrum candidates for the class cc, sorted lexicographically.

    A depth-first walk over nondecreasing m-tuples (m = c2), smallest
    value first, so tuples come out sorted.  The chain-down rule bounds
    each step: with a1 in {-1, 0} it fires exactly when an entry is below
    -1, and then an entry v < -1 is followed by v or v + 1 and needs
    -1 - v entries after it to reach -1.  The window 0 <= s <=
    s_upper_bound(general) on sum(k_i) bounds entries on both sides, so
    no entry below the window is visited, however large |c3|.  Every leaf
    survives (the chain-up rule, when s_eh is set, is checked at the
    leaf), so the cost is roughly proportional to the output.
    """
    m = cc.c2
    if m < 1:
        raise DegenerateClassError(f"enumeration needs c2 >= 1, got {cc.c2}")
    st = splitting_type_from_e(cc.e)
    sum_max = _sum_max(cc)
    sum_min = sum_max - s_upper_bound(cc.e, m, "general")
    hi = sum_max + m * (m - 1)

    results: list[SpectrumWithS] = []
    prefix: list[int] = []
    bounded = p.s_eh is not None  # read once, not at every leaf

    def walk(total: int, start: int, stop: int):
        depth = len(prefix)
        if depth == m:
            values = tuple(prefix)
            if not bounded or not validate_chain_up(values, st, p):
                results.append(SpectrumWithS(values, sum_max - total))
            return
        remaining = m - depth
        # below low even hi in every later slot misses sum_min, below -remaining
        # too few slots are left to climb to -1, above top even v in every slot
        # left passes sum_max (conditionals, not max(): this runs per inner node)
        low = sum_min - total - (remaining - 1) * hi
        low = low if low > start else start
        low = low if low > -remaining else -remaining
        top = (sum_max - total) // remaining
        for v in range(low, (top if top < stop else stop) + 1):
            # v < -1 must climb to -1, which adds v (v + 1) / 2 to the least sum;
            # that sum still grows with v, so the first v past sum_max ends the loop
            if v < -1 and total + v * remaining + v * (v + 1) // 2 > sum_max:
                break
            prefix.append(v)
            walk(total + v, v, v + 1 if v < -1 else hi)
            prefix.pop()

    walk(0, -m, hi)
    return results
