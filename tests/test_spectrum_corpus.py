"""A corpus of the enumerator, pinned by one fingerprint per (class, s_eh) case.

The cases are every class of the test window for c2 = 1..7 and both e
(from one parity step above the chain (-c2, ..., -1) at s = 0 down to
that chain at the general bound on s), each unbounded and at every s_eh
in 0..c2+1; then (0,8,0), (0,9,0), (-1,8,0), (-1,3,-9), (0,1,-2000),
(0,2,-3000) and (0,20,420), each unbounded and at s_eh = 0..3; then
three refusals: c2 = 0, a class that breaks the parity law and a
non-int s_eh.  Each case is one line: its class and s_eh, then the
error class and text, or the number of spectra, the types of each
spectrum and of its values, the first and the last spectrum, and the
hash of the whole list.  The hash of a tuple of ints takes no seed, so
on a 64-bit CPython it is the same in every process; it costs far less
than a printed list of 540,999 spectra.

tests/spectrum_corpus.json holds the sha256 of all the lines and an
8-hex fingerprint per line, so a mismatch names the first case that
differs.  Re-record only for a declared change of the enumerator's
output or error text, and name every changed case in CHANGES.md; before
it writes, the command prints how many case fingerprints changed and
the first few of their indices:

    PYTHONPATH=src python tests/test_spectrum_corpus.py
"""

from pathlib import Path

from sheafspectra.invariants import ChernClasses
from sheafspectra.spectrum import ChainUpParam, enumerate_spectra, s_upper_bound
from corpus_digests import changes, check, digests, record

DIGESTS = Path(__file__).resolve().parent / "spectrum_corpus.json"
EXTRA = [(0, 8, 0), (0, 9, 0), (-1, 8, 0), (-1, 3, -9), (0, 1, -2000), (0, 2, -3000),
         (0, 20, 420)]
REFUSED = [((0, 0, 0), None), ((0, 3, 1), None), ((0, 3, 0), 1.0)]


def cases() -> list:
    """(class, s_eh) of every case, in order."""
    out = []
    for e in (-1, 0):
        for m in range(1, 8):
            top = m * (m + 1) if e == 0 else m * m
            window = [top + 2] + [top - 2 * j for j in range(s_upper_bound(e, m, "general") + 1)]
            out += [((e, m, c3), s_eh) for c3 in window for s_eh in (None, *range(m + 2))]
    out += [(cc, s_eh) for cc in EXTRA for s_eh in (None, 0, 1, 2, 3)]
    return out + REFUSED


def _outcome(cc: tuple, s_eh) -> str:
    try:
        out = enumerate_spectra(ChernClasses(*cc), ChainUpParam(s_eh))
    except Exception as exc:  # every error is part of the record
        return f"{type(exc).__name__}: {exc}"
    if not out:
        return "0 spectra"
    kinds = sorted({type(sw).__name__ for sw in out} | {type(sw.values).__name__ for sw in out})
    return (f"{len(out)} {' '.join(kinds)} {tuple(out[0])} .. {tuple(out[-1])} "
            f"{hash(tuple(out)) & (1 << 64) - 1:016x}")


def corpus() -> dict:
    return {"enumerate": [f"{i} {cc} s_eh={s_eh} -> {_outcome(cc, s_eh)}"
                          for i, (cc, s_eh) in enumerate(cases())]}


def test_every_enumerator_case_keeps_its_recorded_outcome():
    check(DIGESTS, "enumerate", corpus()["enumerate"])


def test_a_re_record_names_the_changed_cases():
    old = digests({"a": [str(i) for i in range(9)], "b": ["x"]})
    new = digests({"a": ["0", "-1", "2", "-3", "-4", "-5", "-6", "-7", "8", "9"], "b": ["x"]})
    assert changes(old, new) == [
        "a: 6 of 10 case fingerprints changed, first 1, 3, 4, 5, 6, ...; 10 cases, 9 recorded",
        "b: 0 of 1 case fingerprints changed"]


if __name__ == "__main__":
    record(DIGESTS, corpus())
