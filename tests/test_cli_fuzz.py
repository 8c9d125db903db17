"""Hypothesis fuzz of the JSON documents the command line reads.

Recipe trees over every node kind feed `splice --spec`, and table
documents feed `invert-table`.  Any key may be missing and any value may
be null or of the wrong type.  Whatever the document, main returns 0, 1
or 2 without raising, and every nonzero exit prints an error line.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from sheafspectra.cli import main
from sheafspectra.cohomology import table_from_spectrum
from sheafspectra.invariants import splitting_type_from_e
from sheafspectra.spectrum import SpectrumWithS

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(-5, 5),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=1),
)
SMALL = st.integers(-4, 4)
SLOTS = ("left", "middle", "right")


@st.composite
def mangled(draw, strategy):
    """A document from strategy with some keys dropped or given junk values."""
    doc = dict(draw(strategy))
    for key in sorted(doc):
        roll = draw(st.integers(0, 24))  # Hypothesis favours 0: keep it clean
        if roll == 24:
            del doc[key]
        elif roll == 23:
            doc[key] = draw(JUNK)
    return doc


def node(kind, **fields):
    return mangled(st.fixed_dictionaries({"kind": st.just(kind), **fields}))


ENTRY = st.integers(0, 39).flatmap(
    lambda roll: JUNK if roll == 39 else st.none() if roll > 32 else st.integers(0, 12)
)
ROW = st.integers(0, 19).flatmap(
    lambda roll: JUNK if roll == 19 else st.lists(ENTRY, min_size=4, max_size=4)
)


@st.composite
def table_docs(draw):
    lo = draw(st.integers(-9, 1))
    hi = lo + draw(st.integers(0, 9))
    if draw(st.booleans()):
        # a formula table, so that some documents invert
        e = draw(st.sampled_from([-1, 0]))
        values = sorted(draw(st.lists(st.integers(-3, 1), min_size=1, max_size=3)))
        sw = SpectrumWithS(tuple(values), draw(st.integers(0, 2)))
        doc = table_from_spectrum(sw, splitting_type_from_e(e), (lo, hi)).to_json_dict()
        for t in draw(st.lists(st.integers(lo, hi), max_size=2)):
            doc["rows"][str(t)] = draw(ROW)
    else:
        rows = draw(st.dictionaries(st.integers(lo, hi).map(str), ROW, max_size=hi - lo + 1))
        doc = {"range": [lo, hi], "rows": rows}
        cc = st.one_of(st.tuples(st.sampled_from([-1, 0]), st.integers(0, 4),
                                 st.integers(-6, 6)).map(list), JUNK)
        if draw(st.booleans()):
            doc["cc"] = draw(cc)
    return draw(mangled(st.just(doc)))


VALID_LEAVES = st.one_of(
    node("line", a=SMALL),
    node("points", n=st.integers(-1, 3)),
    node("rational_curve", d=st.integers(0, 3), b=SMALL),
    node("curve", genus=st.integers(0, 2), slope=st.integers(0, 4), offset=SMALL,
         generic=st.booleans()),
    st.tuples(st.integers(0, 2), st.integers(0, 2)).flatmap(
        lambda ranks: node("monad", a=st.lists(SMALL, min_size=ranks[0], max_size=ranks[0]),
                           b=st.lists(SMALL, min_size=sum(ranks) + 2, max_size=sum(ranks) + 3),
                           c=st.lists(SMALL, min_size=ranks[1], max_size=ranks[1]))
    ),
)
# one leaf in ten is an unknown kind or not an object at all
LEAVES = st.integers(0, 9).flatmap(
    lambda roll: st.one_of(node("mystery"), JUNK) if roll == 9 else VALID_LEAVES
)


def composites(children):
    quotient = st.one_of(node("points", n=st.integers(0, 2)),
                         node("rational_curve", d=st.integers(1, 2), b=SMALL), children)
    return st.one_of(
        node("sum", terms=st.lists(children, max_size=3)),
        node("ideal", curve=children),
        node("twist", of=children, n=SMALL),
        st.sampled_from(SLOTS).flatmap(lambda unknown: node(
            "ses", unknown=st.just(unknown),
            **{slot: children for slot in SLOTS if slot != unknown})),
        node("quotient", ambient=children, quotient=quotient),
    )


RECIPES = st.recursive(LEAVES, composites, max_leaves=6)
RANGES = st.sampled_from(["-3:0", "-8:0", "-2:1", "-1:-1"])


def run_on(document, *argv):
    """Run main on argv with the document written to the file FILE."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path if arg == "FILE" else arg for arg in argv])
    assert code in (0, 1, 2)
    if code:
        assert "error:" in err.getvalue()
    else:
        assert out.getvalue()
    return code


@given(RECIPES, RANGES)
@settings(deadline=None, max_examples=300)
def test_splice_spec_never_raises(recipe, rng):
    run_on(recipe, "splice", "--spec", "FILE", f"--range={rng}")


@given(table_docs(), st.sampled_from([None, "-1", "0", "1"]))
@settings(deadline=None, max_examples=300)
def test_invert_table_never_raises(doc, e):
    run_on(doc, "invert-table", "FILE", *([] if e is None else [f"--e={e}"]))
