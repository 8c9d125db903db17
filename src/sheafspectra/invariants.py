"""Exact numerical invariants of normalized rank-2 sheaves on P^3.

Everything in this module is closed-form integer arithmetic: Euler
characteristics of twists, generic splitting types and the invariants
of a kernel onto points.  All arithmetic is on int; the one division,
chi's by 6, is done by divmod with an explicit check of the remainder
(IntegralityError).

The Euler characteristic of a normalized class (e, c2, c3) at twist t is

    e = -1:  chi(t) = (t+1)(t+2)(2t+3)/6 - c2 (t+2) + (c2+c3)/2
    e =  0:  chi(t) = (t+1)(t+2)(t+3)/3  - c2 (t+2) + c3/2

The parity law (c3 even when e = 0; c2+c3 even when e = -1) is exactly
the condition that makes both formulas integral for all t, so it is
enforced at construction time.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from types import GeneratorType
from typing import NamedTuple

from .errors import IntegralityError, NotNormalizedError, ParityError

__all__ = [
    "ChernClasses",
    "SplittingType",
    "euler_characteristic",
    "splitting_type_from_e",
    "kernel_invariants",
]


def _exact(value, kind: type = int):
    # no coercion: bool passes isinstance(int), and bool("false") is True
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _array(value, field: str):
    # a list or tuple only: tuple() and * would read a mapping's or a set's keys
    if type(value) is not list and not isinstance(value, tuple):
        raise ValueError(f"{field} must be a list or tuple, got {value!r}")
    return value


def _unkeyed(values, error: type, what: str):
    # tuple() would read a mapping's or a set's keys; the hot paths' kinds pass first
    if type(values) not in (tuple, list, GeneratorType) and isinstance(values, (Mapping, Set)):
        raise error(f"{what}, got {values!r}")
    return values


class _Checked:
    # for a NamedTuple that validates in __new__: NamedTuple's own _make, and
    # _replace through it, call tuple.__new__ and would skip the checks
    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ChernClasses(_Checked, NamedTuple("ChernClasses", [
    ("e", int), ("c2", int), ("c3", int),
])):
    """Normalized rank-2 numerical class (e, c2, c3).

    e is the first Chern class after normalization, so e in {-1, 0}.
    The parity law ties c2 and c3 together; classes violating it admit
    no integral Euler characteristic and no integer s-invariant, so the
    constructor rejects them.
    """

    __slots__ = ()

    def __new__(cls, e: int, c2: int, c3: int):
        if type(e) is not int or type(c2) is not int or type(c3) is not int:
            for name, value in zip(("e", "c2", "c3"), (e, c2, c3)):
                # bool is an int subclass and float would leak into chi
                if type(value) is not int:
                    raise TypeError(f"{name} must be an int, got {value!r}")
        if e not in (-1, 0):
            raise NotNormalizedError(
                f"first Chern class must be -1 or 0 after normalization, got {e}"
            )
        if e == 0 and c3 % 2 != 0:
            raise ParityError(f"c3 must be even when e = 0, got c3 = {c3}")
        if e == -1 and (c2 + c3) % 2 != 0:
            raise ParityError(
                f"c2 + c3 must be even when e = -1, got c2 = {c2}, c3 = {c3}"
            )
        return tuple.__new__(cls, (e, c2, c3))

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.e, self.c2, self.c3)


class SplittingType(_Checked, NamedTuple("SplittingType", [("a1", int), ("a2", int)])):
    """Degrees (a1, a2) of the restriction to a generic line.

    Only the generic type (e, 0) of a normalized semistable sheaf, e in
    {-1, 0}, is accepted: the spectrum formulas are stated for it alone.
    """

    __slots__ = ()

    def __new__(cls, a1: int, a2: int):
        if (_exact(a1), _exact(a2)) not in ((-1, 0), (0, 0)):
            raise ValueError(f"splitting type must be (-1, 0) or (0, 0), got ({a1}, {a2})")
        return tuple.__new__(cls, (a1, a2))


def euler_characteristic(cc: ChernClasses, t: int) -> int:
    """chi(E(t)) for the normalized class cc, as an exact integer."""
    if type(t) is not int:  # inline, not _exact: chi runs several times per table
        raise TypeError(f"twist must be an int, got {t!r}")
    # six times chi: both formulas over their common denominator
    if cc.e == -1:
        sixfold = (t + 1) * (t + 2) * (2 * t + 3) + 3 * (cc.c2 + cc.c3)
    else:
        sixfold = 2 * (t + 1) * (t + 2) * (t + 3) + 3 * cc.c3
    sixfold -= 6 * cc.c2 * (t + 2)
    value, rem = divmod(sixfold, 6)
    if rem:
        # unreachable once the parity law holds; kept as a hard check
        raise IntegralityError(f"chi({cc}, {t}) = {sixfold}/6 is not an integer")
    return value


_GENERIC = {e: SplittingType(e, 0) for e in (-1, 0)}


def splitting_type_from_e(e: int) -> SplittingType:
    """Generic splitting type of a normalized semistable sheaf with c1 = e."""
    if _exact(e) not in _GENERIC:
        raise NotNormalizedError(f"no semistable splitting type for e = {e}")
    return _GENERIC[e]


def kernel_invariants(
    f_chern: ChernClasses, n_points: int
) -> tuple[ChernClasses, int]:
    """Invariants of the kernel of a surjection onto n_points points.

    For E = ker(F ->> O_S) with S a set of n points away from the
    singularities of F, the total class of the quotient is 1 + 2n t^3,
    so only c3 moves: c3(E) = c3(F) - 2n, and the s-invariant of E is n.
    """
    _exact(f_chern, ChernClasses)
    if _exact(n_points) < 0:
        raise ValueError(f"point count must be nonnegative, got {n_points}")
    return ChernClasses(f_chern.e, f_chern.c2, f_chern.c3 - 2 * n_points), n_points
