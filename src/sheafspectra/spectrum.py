"""Spectrum constraints, s/c3 identities, bounds, and exhaustive enumeration.

A spectrum is a nondecreasing tuple of m = c2 integers attached to a
normalized semistable sheaf, together with a companion integer s >= 0
(the length of the zero-dimensional part of the double-dual quotient).
The identities tying (spectrum, s) to (e, c2, c3) are

    e = -1:  c3 = -2 sum(k_i) - c2 - 2 s
    e =  0:  c3 = -2 sum(k_i) - 2 s

which make s determined by the class and the spectrum.  The chain rules
(an entry k <= a1 - 1 forces all of [k, -1]; under a threshold s_eh,
k > a2 + 1 with #{i : k_i >= k} > s_eh forces all of [a2 + 1, k]) cap
each step of enumerate_spectra's walk, so its cost is about its output.
A spectrum from outside the walk (a catalog record's, a recipe's answer)
passes one gate, _check_admissible: the c3 identity of its class, the
chain-down rule and the general bound on s.

This is also the lowest layer that prints (the enumerate subcommand
prints spectra), so the one writer lives here: report_json renders every
JSON document and _markdown every markdown table the package prints,
tables, reports and CLI output alike.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, NamedTuple

from .errors import DegenerateClassError, InadmissibleSpectrumError
from .invariants import ChernClasses, _Checked, _exact, _unkeyed, splitting_type_from_e

__all__ = [
    "SpectrumWithS",
    "ChainUpParam",
    "UNBOUNDED",
    "validate_spectrum",
    "c3_from_spectrum",
    "s_upper_bound",
    "enumerate_spectra",
    "report_json",
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
    """Normalize to a tuple; reject a mapping or a set, non-int, empty or decreasing input."""
    spec = tuple(_unkeyed(values, InadmissibleSpectrumError, "spectrum must be a sequence"))
    if not {*map(type, spec)} <= {int}:
        raise InadmissibleSpectrumError(f"spectrum {spec!r} has a non-int value")
    if not spec:
        raise InadmissibleSpectrumError("spectrum must have at least one entry")
    if [*spec] != sorted(spec):
        raise InadmissibleSpectrumError(f"spectrum {spec} is not nondecreasing")
    return spec


def c3_from_spectrum(e: int, c2: int, sw: SpectrumWithS) -> int:
    """c3 determined by (spectrum, s) for first Chern class e."""
    spec = validate_spectrum(_exact(sw, SpectrumWithS).values)
    if len(spec) != c2:
        raise InadmissibleSpectrumError(
            f"spectrum has {len(spec)} entries, expected m = c2 = {c2}"
        )
    if type(sw.s) is not int or sw.s < 0:
        raise InadmissibleSpectrumError(f"s must be a nonnegative int, got {sw.s!r}")
    splitting_type_from_e(e)  # NotNormalizedError unless e is -1 or 0
    return -2 * sum(spec) + e * c2 - 2 * sw.s


def s_upper_bound(e: int, c2: int, regime: str = "general") -> int:
    """Closed-form upper bounds for s.

    regime "general" covers all semistable torsion-free sheaves;
    "zero_dimensional" assumes the double-dual quotient has dimension 0.
    There s is the quotient's length n, c3(E**) = c3(E) + 2n, and the
    stable reflexive hull E** obeys Hartshorne's bound c3(E**) <= c3max,
    c3max = c2^2 - c2 + 2 for e = 0 and c2^2 for e = -1 (Math. Ann. 254,
    1980), so s <= (c3max - c3(E)) // 2.  No c3 is taken: the value is
    c3max // 2, the bound at c3(E) = 0, and answers for that class only.
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
        return c2 * c2 // 2
    raise ValueError(f"unknown regime {regime!r}")


def _check_admissible(cc: ChernClasses, sw: SpectrumWithS) -> None:
    # the one gate for a spectrum from outside the walk, a catalog record's or a
    # recipe's answer: the c3 identity of its class, the chain-down rule, the bound on s
    c3 = c3_from_spectrum(cc.e, cc.c2, sw)  # validates the values, their count, s and e
    if c3 != cc.c3:
        raise InadmissibleSpectrumError(f"spectrum and s give c3 = {c3}, moduli say {cc.c3}")
    # a least entry k below a1 = e brings all of [k, -1], inside which lies every
    # other trigger's run; the values below 0 are then exactly -k distinct ones
    k = sw.values[0]
    if (k < cc.e and len({v for v in sw.values if v < 0}) != -k
            or sw.s > s_upper_bound(cc.e, cc.c2)):
        raise InadmissibleSpectrumError(
            f"spectrum {sw.values}, s={sw.s} breaks the chain-down rule or the bound on s"
        )


def enumerate_spectra(
    cc: ChernClasses, p: ChainUpParam = UNBOUNDED
) -> list[SpectrumWithS]:
    """All spectrum candidates for the class cc, sorted lexicographically.

    A depth-first walk over nondecreasing m-tuples (m = c2), smallest
    value first, so tuples come out sorted.  Both chain rules cap each
    step (a1 is -1 or 0, a2 = 0): an entry v < -1 is followed by v or
    v + 1 and needs -1 - v entries after it to reach -1; with s_eh set,
    among the first m - s_eh entries the first is at most 1 and the one
    after v at most max(v, 0) + 1.  The window 0 <= s <=
    s_upper_bound(general) on sum(k_i) bounds entries on both sides, so
    no entry below the window is visited, however large |c3|.  The last
    two entries come from one frame and every leaf survives, so the walk
    takes one frame per node with two or more entries left, and costs
    about its output.
    """
    _exact(cc, ChernClasses)
    _exact(p, ChainUpParam)
    m = cc.c2
    if m < 1:
        raise DegenerateClassError(f"enumeration needs c2 >= 1, got {cc.c2}")
    sum_max = (cc.e * m - cc.c3) // 2  # sum(k_i) at s = 0, from the c3 identities
    sum_min = sum_max - s_upper_bound(cc.e, m, "general")
    hi = sum_max + m * (m - 1)
    lim = m + 1 if p.s_eh is None else p.s_eh + 1  # s_eh + 1, and m + 1 when unset: no cap binds
    first = 1 if lim <= m else hi  # the first entry's cap
    results: list[SpectrumWithS] = []
    emit, new = results.append, tuple.__new__  # skips a NamedTuple __new__ that checks nothing

    def walk(head: tuple[int, ...], total: int, start: int, stop: int):
        remaining = m - len(head)  # >= 2: the last two entries come from one frame
        # chain-up caps the entry after v, 0-based at m - remaining + 1, if below m - s_eh
        above, flat = (0, 1) if remaining > lim else (hi, hi)
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
            if remaining > 2:
                walk(head + (v,), total + v, v, v + 1 if v < -1 or v > above else flat)
                continue
            # the leaves head + (v, w), in this frame: w >= -1 needs no climb, s = room - w
            room, w_low = sum_max - total - v, sum_min - total - v
            w_low = w_low if w_low > v else v
            w_top = v + 1 if v < -1 or v > above else flat
            for w in range(w_low if w_low > -1 else -1, (room if room < w_top else w_top) + 1):
                emit(new(SpectrumWithS, (head + (v, w), room - w)))

    if m == 1:  # one entry, a leaf of the top frame: v >= -1 and s = sum_max - v
        results += [new(SpectrumWithS, ((v,), sum_max - v))
                    for v in range(max(sum_min, -1), min(sum_max, first) + 1)]
    else:
        try:
            walk((), 0, -m, first)
        except RecursionError:  # one frame per entry but the last two: flat input, just long
            raise ValueError(
                f"enumerating c2 = {m} needs a walk {m} entries deep, past Python's recursion limit"
            ) from None
    return results


# ------------------------------------------------------------- writer

def report_json(report: Mapping) -> str:
    """Byte-deterministic JSON rendering of any report dict."""
    global _encode
    if _encode is None:  # built once, for the first document the process writes
        import json  # only a process that reads or writes a document loads it
        _encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    return _encode(report)


_encode = None


def _markdown(header, rows) -> str:
    # the one markdown table layout; None prints as an empty cell
    lines = [header, ["---"] * len(header), *rows]
    return "\n".join(
        "| " + " | ".join("" if c is None else str(c) for c in line) + " |"
        for line in lines
    )


def _spectrum_str(values) -> str:
    return "(" + ",".join(str(k) for k in values) + ")"
