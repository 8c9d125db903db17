"""A seeded corpus of the table path, pinned by one digest per layer.

The generator below draws spectra from enumerate_spectra (e in {-1, 0},
c2 <= 6) and ranges with lo in [-14, -1] and hi <= 5, then deep cases
whose hi sits 0-3 twists below -2 - min(values), so that the inverter's
bucket holds one value or more and a step edit moves its weight; it
generates each table and edits its rows: holes, entries moved by +-1 or
+-2, non-int entries, stray row keys and top-level fields, shuffled key
order.  No
input holds more than one fault, so which of several faults a reader
names first never decides a case.  Each case is one line, its input and
then its result or its error class and text, on five layers:

    generate   table_from_spectrum
    json       to_json of a generated table and from_json of an edited document
    construct  CohomologyTable(...) on edited rows
    invert     spectrum_from_table on each edited table that constructs
    chi        chi_consistency of that table against its class

tests/table_corpus.json holds, per layer, the sha256 of all its lines
and an 8-hex fingerprint per line, so a mismatch names the first case
that differs.  Re-record only for a declared change of an output or
error text, and name every changed case in CHANGES.md; before it
writes, the command prints per layer how many case fingerprints changed
and the first few of their indices:

    PYTHONPATH=src python tests/test_table_corpus.py
"""

import json
import random
from pathlib import Path

import pytest

from sheafspectra.cohomology import (
    CohomologyTable,
    chi_consistency,
    spectrum_from_table,
    table_from_spectrum,
)
from sheafspectra.invariants import ChernClasses, splitting_type_from_e
from sheafspectra.spectrum import enumerate_spectra
from corpus_digests import check, record

DIGESTS = Path(__file__).resolve().parent / "table_corpus.json"
LAYERS = ("generate", "json", "construct", "invert", "chi")
SEED, CASES, DEEP = "table-corpus:1", 1000, 300
EDITS = ("none", "hole", "step", "non-int", "outside-key", "stray-field")


def _outcome(call, *args) -> str:
    try:
        result = call(*args)
    except Exception as exc:  # every error is part of the record
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, CohomologyTable):
        return f"table {result.lo} {result.hi} {sorted(result.rows.items())} {result.cc}"
    return repr(result)


def _pool() -> list:
    # (e, spectrum) for every class with 1 <= c2 <= 6 and c3 of the right
    # parity in [-6, c2 * c2]
    pool = []
    for e in (-1, 0):
        for c2 in range(1, 7):
            for c3 in range(-6, c2 * c2 + 1):
                if (c3 - e * c2) % 2 == 0:
                    pool += [(e, sw) for sw in enumerate_spectra(ChernClasses(e, c2, c3))]
    return pool


def _edit(rnd: random.Random, table: CohomologyTable, deep: bool):
    # the table's rows as lists with holes, then at most one edit that may
    # fault, a step of a deep case at h2(hi) where that is known, so that
    # the bucket's weight moves; returns (edit, rows, stray top-level fields)
    rows = {t: list(row) for t, row in table.rows.items()}
    known = [(t, i) for t, row in rows.items() for i, h in enumerate(row) if h is not None]
    for t, i in rnd.sample(known, min(len(known), rnd.choice((0, 0, 1, 2)))):
        rows[t][i] = None
    known = [(t, i) for t, row in rows.items() for i, h in enumerate(row) if h is not None]
    edit, stray = rnd.choice(EDITS), {}
    if edit == "hole" or (edit in ("step", "non-int") and not known):
        edit = "hole"
    elif edit == "step":
        t, i = (table.hi, 2) if deep and rows[table.hi][2] is not None else rnd.choice(known)
        rows[t][i] += rnd.choice((-2, -1, 1, 2))
    elif edit == "non-int":
        t, i = rnd.choice(known)
        rows[t][i] = rnd.choice((1.5, float(rows[t][i]), True, str(rows[t][i]), [0]))
    elif edit == "outside-key":
        t = rnd.choice((table.lo - rnd.randint(1, 3), table.hi + rnd.randint(1, 3)))
        rows[t] = [0, 0, 0, 0]
    elif edit == "stray-field":
        stray = {rnd.choice(("CC", "Rows", "note")): [0]}
    if rnd.random() < 0.5:
        order = list(rows)
        rnd.shuffle(order)
        rows = {t: rows[t] for t in order}
    return edit, rows, stray


def corpus() -> dict:
    """The lines of every layer, in the order they were drawn."""
    rnd, pool = random.Random(SEED), _pool()
    # spectra whose bucket can sit below hi >= -1, the top of the h1 window
    deep = [(e, sw) for e, sw in pool if sw.values[0] <= -2]
    lines = {layer: [] for layer in LAYERS}
    for case in range(CASES + DEEP):
        if case < CASES:
            e, sw = rnd.choice(pool)
            lo = rnd.randint(-14, -1)
            hi = rnd.randint(lo - 1 if case % 40 == 0 else lo, 5)  # an empty range now and then
        else:  # hi j = 0..3 twists below -2 - min(values): the bucket holds the values <= min + j
            e, sw = rnd.choice(deep)
            hi = -2 - sw.values[0] - rnd.randint(0, min(3, -1 - sw.values[0]))
            lo = rnd.randint(-14, max(-14, -4 - sw.values[-1]))  # mostly low enough for h1
        st = splitting_type_from_e(e)
        line = f"{case} e={e} {sw} [{lo}, {hi}]"
        lines["generate"].append(f"{line} -> {_outcome(table_from_spectrum, sw, st, (lo, hi))}")
        try:
            table = table_from_spectrum(sw, st, (lo, hi))
        except ValueError:
            continue
        text = table.to_json()
        again = _outcome(CohomologyTable.from_json, text)
        lines["json"].append(f"{line} to_json {text} -> {again}")
        edit, rows, stray = _edit(rnd, table, case >= CASES)
        cc = table.cc if rnd.random() < 0.75 else None
        doc = {"range": [lo, hi], "rows": {str(t): row for t, row in rows.items()}, **stray}
        if cc is not None:
            doc["cc"] = list(cc)
        text = json.dumps(doc)
        lines["json"].append(f"{line} {edit} {text} -> {_outcome(CohomologyTable.from_json, text)}")
        got = _outcome(CohomologyTable, lo, hi, {t: tuple(row) for t, row in rows.items()}, cc)
        lines["construct"].append(f"{line} {edit} {rows} {cc} -> {got}")
        try:
            edited = CohomologyTable(lo, hi, rows, cc)
        except Exception:
            continue
        lines["invert"].append(f"{line} {edit} -> {_outcome(spectrum_from_table, edited, st)}")
        lines["chi"].append(f"{line} {edit} -> {_outcome(chi_consistency, edited, table.cc)}")
    return lines


@pytest.fixture(scope="module")
def drawn() -> dict:
    return corpus()


@pytest.mark.parametrize("layer", LAYERS)
def test_every_table_path_case_keeps_its_recorded_outcome(drawn, layer):
    check(DIGESTS, layer, drawn[layer])


if __name__ == "__main__":
    record(DIGESTS, corpus())
