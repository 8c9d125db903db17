"""Output checks that never call the code under test.

Every closed form here is re-derived from the paper's identities, not
imported from ``sheafspectra``: the c3/s identities, the general s bound,
the descending chain rule, the Euler characteristic, and the two
spectrum formula windows of a cohomology table.  The spectrum count is
an independent dynamic programme over partitions, so the enumerator's
output length is checked against a route that shares none of its code.
Outputs with no closed form are compared with digests recorded at the
seed commit (``digests.json``, written by ``record_digests.py``).
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

# spectrum counts pinned by the paper and the acceptance suite
PINNED_COUNTS = {(-1, 2, 0): 3, (0, 3, 0): 14, (0, 5, 0): 137, (0, 6, 0): 447}

DIGESTS_PATH = Path(__file__).with_name("digests.json")


class CheckFailed(Exception):
    """An output disagrees with its oracle."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ------------------------------------------------------------ closed forms

def s_bound(e: int, m: int) -> int:
    """General upper bound for s on a class with c2 = m."""
    return (m * m + m) // 2 if e == 0 else (m * m + 3 * m) // 2


def sum_at_s0(e: int, c2: int, c3: int) -> int:
    """sum(k_i) of a spectrum with s = 0, from the c3 identity."""
    return -(c2 + c3) // 2 if e == -1 else -c3 // 2


def c3_of(e: int, values, s: int) -> int:
    total = sum(values)
    return -2 * total - len(values) - 2 * s if e == -1 else -2 * total - 2 * s


def top_c3(e: int, m: int) -> int:
    """Largest c3 with a spectrum: the chain (-m, ..., -1) at s = 0."""
    return m * (m + 1) if e == 0 else m * m


def c3_window(e: int, m: int) -> list[int]:
    """c3 values of the enumerate workload for (e, m), top first.

    The first entry lies one parity step above top_c3 and has no
    spectra; the rest step down from top_c3 once per unit of s, from
    s = 0 to the general bound.
    """
    top = top_c3(e, m)
    return [top + 2] + [top - 2 * j for j in range(s_bound(e, m) + 1)]


def chi(e: int, c2: int, c3: int, t: int) -> int:
    """Euler characteristic of the twist E(t), in integer arithmetic."""
    if e == -1:
        return (t + 1) * (t + 2) * (2 * t + 3) // 6 - c2 * (t + 2) + (c2 + c3) // 2
    return (t + 1) * (t + 2) * (t + 3) // 3 - c2 * (t + 2) + c3 // 2


def chain_down_ok(e: int, values) -> bool:
    """Any value k <= a1 - 1 forces every integer of [k, -1] to appear."""
    a1 = -1 if e == -1 else 0
    low = min(values)
    return low > a1 - 1 or set(range(low, 0)) <= set(values)


def window_rows(e: int, values, s: int, lo: int, hi: int) -> dict:
    """(h0, h1, h2, h3) of a stable spectrum table on [lo, hi].

    h1(l) = s + sum h0(O_P1(k+l+1)) for l <= -a2-1, h2(l) = sum
    h1(O_P1(k+l+1)) for l >= a1-3; h0 vanishes for l <= -1 and h3 for
    l >= -3-e; every other entry is unknown (None).
    """
    a1, a2 = (-1, 0) if e == -1 else (0, 0)
    rows = {}
    for t in range(lo, hi + 1):
        h1 = s + sum(max(0, k + t + 2) for k in values) if t <= -a2 - 1 else None
        h2 = sum(max(0, -k - t - 2) for k in values) if t >= a1 - 3 else None
        rows[t] = (0 if t <= -1 else None, h1, h2, 0 if t >= -3 - e else None)
    return rows


# ------------------------------------------------------------ spectrum count

@lru_cache(maxsize=None)
def _partitions(n: int, parts: int) -> int:
    # partitions of n into at most `parts` parts
    if n == 0:
        return 1
    if n < 0 or parts == 0:
        return 0
    return _partitions(n, parts - 1) + _partitions(n - parts, parts)


def _multisets(size: int, low: int, sum_lo: int, sum_hi: int) -> int:
    # multisets of `size` integers >= low with sum in [sum_lo, sum_hi]
    base = size * low
    return sum(
        _partitions(n, size) for n in range(max(0, sum_lo - base), sum_hi - base + 1)
    )


@lru_cache(maxsize=None)
def count_spectra(e: int, m: int, c3: int) -> int:
    """Number of admissible (spectrum, s) pairs of the class (e, m, c3).

    Counts nondecreasing m-tuples whose sum lies in the window that
    0 <= s <= s_bound allows and that obey the descending chain rule:
    either every value is >= a1, or the minimum k <= a1 - 1 brings the
    whole run k..-1 with it and the other m + k values are >= k.
    """
    a1 = -1 if e == -1 else 0
    top = sum_at_s0(e, m, c3)
    bottom = top - s_bound(e, m)
    total = _multisets(m, a1, bottom, top)
    for k in range(-m, a1):
        forced = -k * (-k + 1) // 2  # |k + (k+1) + ... + (-1)|
        total += _multisets(m + k, k, bottom + forced, top + forced)
    return total


# ------------------------------------------------------------ per-output checks

def check_enumeration(cls: tuple, found) -> None:
    """Every (spectrum, s) of ``found`` is admissible and none is missing."""
    e, m, c3 = cls
    previous = None
    for sw in found:
        values, s = tuple(sw.values), sw.s
        require(len(values) == m, f"{cls}: {values} has {len(values)} entries")
        require(all(a <= b for a, b in zip(values, values[1:])),
                f"{cls}: {values} is not nondecreasing")
        require(c3_of(e, values, s) == c3, f"{cls}: {values}, s={s} breaks the c3 identity")
        require(0 <= s <= s_bound(e, m), f"{cls}: s={s} outside [0, {s_bound(e, m)}]")
        require(chain_down_ok(e, values), f"{cls}: {values} breaks the chain-down rule")
        require(previous is None or (values, s) > previous, f"{cls}: output not strictly sorted")
        previous = (values, s)
    want = count_spectra(e, m, c3)
    require(len(found) == want, f"{cls}: {len(found)} spectra, counting oracle says {want}")
    if cls in PINNED_COUNTS:
        require(len(found) == PINNED_COUNTS[cls], f"{cls}: pinned count is {PINNED_COUNTS[cls]}")


def check_roundtrip(draw: tuple, table, recovered, violations) -> None:
    """The recovered pair equals the drawn one and chi holds on the table."""
    e, values, s, lo, hi = draw
    m = len(values)
    c3 = c3_of(e, values, s)
    require((tuple(recovered.values), recovered.s) == (values, s),
            f"drew {values}, s={s}; recovered {recovered}")
    require(not violations, f"chi_consistency reports {violations}")
    require(table.cc is not None and table.cc.as_tuple() == (e, m, c3),
            f"table carries {table.cc}, drawn class is {(e, m, c3)}")
    for t in range(max(lo, -3 - e), min(hi, -1) + 1):
        h0, h1, h2, h3 = table.row(t)
        require(h0 - h1 + h2 - h3 == chi(e, m, c3, t), f"chi fails at t={t}")


def check_chi_rows(cls: tuple, rows: dict) -> None:
    """Fully known rows satisfy h0 - h1 + h2 - h3 = chi of the class.

    The check applied to a construction that fails at the seed and has
    no recorded digest once a later change makes it succeed.
    """
    e, c2, c3 = cls
    for t, row in rows.items():
        if all(h is not None for h in row):
            h0, h1, h2, h3 = row
            require(h0 - h1 + h2 - h3 == chi(e, c2, c3, t),
                    f"{cls}: row t={t} {row} breaks chi")


def check_report(report: dict, records: list, cls: tuple) -> None:
    """component_report rows match the catalog's stored components."""
    want = sorted(
        (r for r in records if tuple(r["moduli"]) == cls),
        key=lambda r: (r["dimension"], r["name"]),
    )
    require(report["moduli"] == list(cls), f"report for {report['moduli']}, asked {cls}")
    got = report["components"]
    require(len(got) == len(want), f"{cls}: {len(got)} rows, catalog has {len(want)}")
    for row, rec in zip(got, want):
        expect = {
            "name": rec["name"],
            "dimension": rec["dimension"],
            "spectrum": rec["spectrum"],
            "s": rec["s"],
            "level": rec.get("level", "derived"),
            "verified": rec.get("construction") is not None,
        }
        require(row == expect, f"{cls}: row {row} != catalog {expect}")


# ------------------------------------------------------------ digests

def table_doc(table) -> dict:
    """Canonical form of a cohomology table through its public API."""
    return {
        "range": [table.lo, table.hi],
        "rows": [list(table.row(t)) for t in range(table.lo, table.hi + 1)],
        "cc": None if table.cc is None else list(table.cc.as_tuple()),
    }


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@lru_cache(maxsize=1)
def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def check_digest(key: str, value) -> None:
    digests = load_digests()
    require(key in digests, f"no digest recorded for {key}")
    got = digest(value)
    require(got == digests[key], f"{key}: digest {got}, recorded {digests[key]}")
