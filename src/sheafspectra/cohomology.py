"""Cohomology-dimension tables and both directions of the spectrum link.

A CohomologyTable records, for every twist t in an integer range, the
four dimensions h0..h3, each a nonnegative integer or None (unknown).
table_from_spectrum fills the two formula windows

    h1(l) = s + sum_i h0(O_P1(k_i + l + 1))   for l <= -a2 - 1
    h2(l) = sum_i h1(O_P1(k_i + l + 1))       for l >= a1 - 3

from prefix sums of the sorted spectrum (only k >= -l-1 adds to h1 and
only k <= -l-3 to h2), each column only as long as its window, and
spectrum_from_table inverts them: each window's column is read once as
a list, its known run (the whole column when it has no None) into first
differences, whose own difference at twist l is the multiplicity of -l-1,
and s is h1 right after the leading zero differences of h1; each
regenerated window is compared with the column read, whole, and only one
that differs is scanned for its lowest wrong known entry.  Unknown
entries stay unknown, never conflated with zero.  A table read from
outside (JSON, the CLI, user code) is validated on one walk over its
rows, which parses JSON keys and collects the fully known rows; with a
class, every fully known row is chi-checked (each caller names them).
Tables print through the spectrum layer's writer.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from itertools import accumulate, islice
from operator import itemgetter, sub
from typing import NamedTuple

from .errors import InconsistentTableError, NotNormalizedError, ParityError, RangeInsufficientError
from .invariants import ChernClasses, SplittingType, _array, _Checked, _exact, euler_characteristic
from .spectrum import SpectrumWithS, _markdown, c3_from_spectrum, report_json

__all__ = [
    "CohomologyTable",
    "ValidityWindows",
    "table_from_spectrum",
    "spectrum_from_table",
    "chi_consistency",
]

Row = tuple  # (h0, h1, h2, h3), each int or None


class ValidityWindows(NamedTuple):
    """Twist windows on which the two spectrum formulas are asserted."""

    h1_max: int  # h1 formula valid for l <= h1_max
    h2_min: int  # h2 formula valid for l >= h2_min

    @classmethod
    def from_splitting_type(cls, st: SplittingType) -> "ValidityWindows":
        return cls(h1_max=-st.a2 - 1, h2_min=st.a1 - 3)


# the windows of the two admitted splitting types, built once
_WINDOWS = {st: ValidityWindows.from_splitting_type(st) for st in map(SplittingType, (-1, 0), (0, 0))}


def _table(lo: int, hi: int, rows: dict, cc, full) -> "CohomologyTable":
    # the one way a table is made, from rows mapping each twist of [lo, hi], ascending, to 4
    # entries, each an int >= 0 or None; with a class, the rows of full (ascending) are chi-checked
    if cc is not None:
        for t in full:
            h0, h1, h2, h3 = rows[t]
            chi, want = h0 - h1 + h2 - h3, euler_characteristic(cc, t)
            if chi != want:
                raise InconsistentTableError(f"row t={t} has chi {chi}, class demands {want}")
    return tuple.__new__(CohomologyTable, (lo, hi, rows, cc))


def _read(twists: range, pairs, cc, decimal: bool = False) -> "CohomologyTable":
    # the one validating walk of a table read from outside, over its (key, row) pairs
    # in the caller's order, JSON keys parsed on it; the fully known twists go to _table
    rows, full, lo, hi = dict.fromkeys(twists, (None,) * 4), [], twists.start, twists.stop - 1
    for key, row in pairs:
        if decimal:  # a JSON key, the canonical decimal of a twist
            try:
                if key != str(t := int(key)):
                    raise ValueError(f"row key {key!r} is not a decimal twist")
            except (TypeError, ValueError) as exc:
                raise ValueError(f"malformed table JSON: {exc}") from exc
        elif type(t := key) is not int:  # True and 1.0 would pass as twist 1, "1" would not compare
            raise ValueError(f"row key {t!r} is not an int twist")
        if not lo <= t <= hi:
            raise ValueError(f"row at t={t} outside range [{lo}, {hi}]")
        if type(row) is not tuple:  # refuse a mapping or a set: tuple() would read its keys
            if type(row) is not list and not isinstance(row, tuple):  # a NamedTuple passes
                raise ValueError(("malformed table JSON: " if decimal else "") + f"row at "
                                 f"t={t} must be a list or tuple of 4 entries, got {row!r}")
            row = tuple(row)
        if len(row) != 4:
            raise ValueError(f"row at t={t} must have 4 entries, got {row}")
        known = True
        for h in row:
            if h is None:
                known = False
            elif type(h) is not int or h < 0:
                raise ValueError(f"bad entry {h!r} at t={t}")
        if known:
            full.append(t)
        rows[t] = row
    return _table(lo, hi, rows, cc, sorted(full))


def _twists(lo: int, hi: int) -> range:
    if type(lo) is not int or type(hi) is not int:
        raise ValueError(f"bad twist range [{lo!r}, {hi!r}]")
    if lo > hi:
        raise ValueError(f"empty twist range [{lo}, {hi}]")
    return range(lo, hi + 1)


class CohomologyTable(_Checked, NamedTuple("CohomologyTable", [
    ("lo", int), ("hi", int), ("rows", dict), ("cc", ChernClasses | None),
])):
    """Partial or total table of h^i(E(t)) over a twist range.

    rows maps each twist of [lo, hi] to a 4-tuple; missing twists are
    normalized to all-unknown rows.  The range ends, every row key and
    every known entry must be a real int (not bool, float or str), and
    cc a ChernClasses or None.  With a class, every fully known row is
    checked against the Euler characteristic.
    """

    __slots__ = ()

    def __new__(cls, lo: int, hi: int, rows: Mapping = {}, cc=None):
        # rows is only read (the table keeps a normalized copy), so {} is safe
        twists = _twists(lo, hi)
        if not isinstance(rows, Mapping):
            raise TypeError(f"rows must map twists to rows, got {rows!r}")
        if cc is not None:
            _exact(cc, ChernClasses)
        return _read(twists, rows.items(), cc)

    def row(self, t: int) -> Row:
        if type(t) is not int:  # -2.0 and True would read rows -2 and 1; __new__ refuses such keys
            raise TypeError(f"twist must be an int, got {t!r}")
        if not self.lo <= t <= self.hi:
            raise RangeInsufficientError(
                f"table covers [{self.lo}, {self.hi}], has no row at t={t}"
            )
        return self.rows[t]

    def to_json_dict(self) -> dict:
        rows = {str(t): list(row) for t, row in self.rows.items()}
        out = {"range": [self.lo, self.hi], "rows": rows}
        if self.cc is not None:
            out["cc"] = list(self.cc.as_tuple())
        return out

    def to_json(self) -> str:
        return report_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "CohomologyTable":
        try:
            lo, hi = _array(data["range"], "range")
            pairs = data["rows"].items()
            cc = None if data.get("cc") is None else ChernClasses(*_array(data["cc"], "cc"))
            if stray := data.keys() - {"range", "rows", "cc"}:  # else a typo drops the class
                raise ValueError(f"unknown field {min(stray)!r}")
        except (AttributeError, KeyError, TypeError, ValueError,
                NotNormalizedError, ParityError) as exc:  # the class's own faults too
            raise ValueError(f"malformed table JSON: {exc}") from exc
        return _read(_twists(lo, hi), pairs, cc, decimal=True)

    @classmethod
    def from_json(cls, text: str) -> "CohomologyTable":
        import json

        return cls.from_json_dict(json.loads(text))

    def to_markdown(self) -> str:
        rows = ((t, *self.rows[t]) for t in range(self.hi, self.lo - 1, -1))
        return _markdown(("t", "h0", "h1", "h2", "h3"), rows)


def table_from_spectrum(
    sw: SpectrumWithS, st: SplittingType, rng: tuple[int, int]
) -> CohomologyTable:
    """Fill the h1/h2 formula windows over rng and the vanishing windows.

    The h1/h2 windows come from prefix sums of the sorted spectrum, in
    O(m + w log m) steps for the w twists of rng inside the windows.  The
    vanishing windows h0 = 0 (t <= -1) and h3 = 0 (t >= -3-e, e = a1+a2)
    rest on (semi)stability; everything else stays unknown.  The fully
    known rows are checked against the Euler characteristic of the class.
    """
    e, m = _exact(st, SplittingType).a1 + st.a2, len(_exact(sw, SpectrumWithS).values)
    cc = ChernClasses(e, m, c3_from_spectrum(e, m, sw))  # validates values and s
    lo, hi = rng
    twists = _twists(lo, hi)  # a bad range is a ValueError before any window is built
    win, n = _WINDOWS[st], len(twists)
    h1, h2 = _columns(sw, win, lo, hi)
    h0, h3 = [0] * min(n, max(0, -lo)), [0] * min(n, max(0, hi + 4 + e))
    pad = [None] * n  # h0 and h1 are known on a prefix of the range, h2 and h3 on a suffix
    rows = dict(zip(twists, zip(h0 + pad, h1 + pad, pad[len(h2):] + h2, pad[len(h3):] + h3)))
    full = range(max(lo, -3 - e, win.h2_min), min(hi, -1, win.h1_max) + 1)  # the known rows
    return _table(lo, hi, rows, cc, full)


def _columns(sw: SpectrumWithS, win: ValidityWindows, lo: int, hi: int):
    # h1 on [lo, min(hi, h1_max)] and h2 on [max(lo, h2_min), hi]: the
    # values k >= -t-1 add t+2+k to h1 and those k <= -t-3 add -t-2-k to h2,
    # so h1 = s for t < -1 - max k and h2 = 0 for t > -3 - min k
    ks, s, pre = sw.values, sw.s, [0, *accumulate(sw.values)]  # validated nondecreasing
    end, start = min(hi, win.h1_max), max(lo, win.h2_min)
    deep, cut = max(lo, min(end + 1, -1 - ks[-1])), min(hi, -3 - ks[0])
    h1 = [s + (t + 2) * (len(ks) - up) + pre[-1] - pre[up]
          for t in range(deep, end + 1) for up in [bisect_left(ks, -t - 1)]]
    h2 = [-(t + 2) * down - pre[down]
          for t in range(start, cut + 1) for down in [bisect_right(ks, -t - 3)]]
    return [s] * (deep - lo) + h1, h2 + [0] * (hi - max(cut, start - 1))


def _run(table: CohomologyTable, i: int, need: tuple, floor: int, ceil: int):
    # the h_i column over [floor, ceil], read once as a list, and its maximal
    # known run around every twist of need, as its first twist u and its
    # differences d[j] = h_i(u+j+1) - h_i(u+j): h1 never falls, h2 never
    # rises, and on both columns d never decreases, so the sign is that of
    # d's first (h1) or last (h2) entry; only a run that fails these checks
    # is scanned entry by entry, to name its first fault
    for t in need:
        if not table.lo <= t <= table.hi or table.rows[t][i] is None:
            raise RangeInsufficientError(
                f"h{i} must be known at t={', '.join(map(str, need))} "
                "to count the spectrum"
            )
    floor, ceil = max(floor, table.lo), min(ceil, table.hi)
    rows = islice(table.rows.values(), floor - table.lo, ceil - table.lo + 1)
    column = [*map(itemgetter(i), rows)]
    start, h = 0, column  # a column with no None is its own run
    if None in column:
        a, b = min(need) - floor, max(need) - floor  # the run holds column[a:b+1]; None ends it
        start = a + 1 - (column[a::-1] + [None]).index(None)
        h = column[start:b + (column[b:] + [None]).index(None)]
    d, u = [*map(sub, h[1:], h)], floor + start
    if d and ((d[0] if i == 1 else -d[-1]) < 0 or d != sorted(d)):
        for k, x in enumerate(d):
            if (x if i == 1 else -x) < 0:
                raise InconsistentTableError(
                    f"h{i} {'falls' if i == 1 else 'rises'} from t={u + k} to t={u + k + 1}"
                )
            if k and x < d[k - 1]:
                raise InconsistentTableError(f"h{i} is not convex at t={u + k}")
    return u, d, column


def spectrum_from_table(table: CohomologyTable, st: SplittingType) -> SpectrumWithS:
    """Recover (spectrum, s) from a table, or fail loudly.

    Each window's known run is read once into its first differences
    d(l) = h_i(l) - h_i(l-1); d(l) - d(l-1) is the multiplicity of -l-1.
    h1 rises convexly, so its zero differences come first: at least one
    must witness stabilization, and s is h1 right after them.  The h1
    side counts the values above a2 - 1; the h2 side counts everything
    below, aggregating whatever lies at or below the deepest visible
    twist into a bucket that must be pinned by one of four closed rules.
    No extrapolation: anything unwitnessed raises a range error, and any
    column running in a forbidden direction raises an inconsistency
    error.  The result is verified against its recomputed windows, entry
    by known in-window entry, and against the Chern classes when the
    table carries them.
    """
    _exact(table, CohomologyTable)
    win, a2 = _WINDOWS[_exact(st, SplittingType)], st.a2

    # --- h1 side: s and the values >= a2; d1 never decreases, so its zeros lead
    p, d1, h1 = _run(table, 1, (win.h1_max,), table.lo, win.h1_max)
    if not d1:
        raise RangeInsufficientError(
            "single h1 value cannot witness stabilization; extend the range down"
        )
    z = d1.count(0)
    if not z:
        raise RangeInsufficientError(
            "h1 never stabilizes inside the table; extend the range down"
        )
    s = table.rows[p + z][1]

    # --- h2 side: the values <= a2 - 1, the deepest ones in a bucket
    u, d2, h2 = _run(table, 2, (-a2 - 2, -a2 - 1), win.h2_min, table.hi)
    values = []
    for lo, d, first in ((p, d1, z), (u, d2, -a2 - u - 1)):
        for j in range(first, len(d)):  # d[j] - d[j-1] values equal -l-1, l = lo+j+1
            values += [-lo - j - 2] * (d[j] - d[j - 1])
    v = u + len(d2)
    x_min, r, w = -v - 2, -d2[-1], table.rows[v][2]
    if r == 0:
        if w != 0:
            raise InconsistentTableError(
                f"h2(t={v}) = {w} but the difference count claims no deeper values"
            )
    elif w == 0:
        values.extend([x_min] * r)
    elif r == 1:
        values.append(x_min - w)
    elif w == 1:
        values.extend([x_min - 1] + [x_min] * (r - 1))
    else:
        raise RangeInsufficientError(
            f"{r} spectrum values at or below t-dual {x_min} cannot be placed "
            f"from residual h2 weight {w}; extend the range up"
        )

    if not values:
        raise InconsistentTableError("table forces an empty spectrum")
    result = SpectrumWithS(tuple(sorted(values)), s)

    # --- verify: the classes, then every known entry of both windows
    e, m = st.a1 + st.a2, len(values)
    cc = ChernClasses(e, m, e * m - 2 * (sum(values) + s))  # the c3 identity; all ints
    if table.cc is not None and table.cc != cc:
        raise InconsistentTableError(
            f"recovered spectrum {result.values}, s={s} has classes "
            f"{cc.as_tuple()}, table says {table.cc.as_tuple()}"
        )
    columns = _columns(result, win, table.lo, table.hi)  # the spans _run read
    if columns != (h1, h2):  # a hole or a wrong entry; scan for the lowest wrong one
        starts = (table.lo, max(table.lo, win.h2_min))
        mismatches = [(t, i, want, table.rows[t][i])
                      for i, column, start in zip((1, 2), columns, starts)
                      for t, want in enumerate(column, start)
                      if table.rows[t][i] not in (None, want)]
        if mismatches:
            t, i, want, have = min(mismatches)  # the lowest twist, h1 before h2 on a tie
            raise InconsistentTableError(
                f"recovered spectrum {result.values}, s={s} regenerates "
                f"h{i}(t={t}) = {want}, table says {have}"
            )
    return result


def chi_consistency(
    table: CohomologyTable, cc: ChernClasses
) -> list[tuple[int, int, int]]:
    """Violations of -h1 + h2 = chi on the conservative window.

    On -3-e <= t <= -1 both h0 and h3 are forced to vanish under
    stability, so the alternating sum collapses; unknown h0/h3 entries
    are treated as those forced zeros, unknown h1/h2 make the twist
    unverifiable and are skipped.  Returns (t, got, want) triples.
    """
    _exact(cc, ChernClasses)
    _exact(table, CohomologyTable)
    out = []
    for t in range(max(table.lo, -3 - cc.e), min(table.hi, -1) + 1):
        h0, h1, h2, h3 = table.rows[t]  # t is inside the table: the range is clamped
        if h1 is None or h2 is None:
            continue
        got = (h0 or 0) - h1 + h2 - (h3 or 0)
        want = euler_characteristic(cc, t)
        if got != want:
            out.append((t, got, want))
    return out
