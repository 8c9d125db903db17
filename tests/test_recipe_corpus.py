"""A seeded corpus of the recipe path, pinned by one digest per layer.

The generator below draws JSON recipes: line bundles, sums, points,
rational and genus-1 curves (generic or not), ideals, twists, an ses
with each unknown slot, monads (unnormalized ones too) and quotients,
nested up to three deep, the bundled catalog's recipes among them.  A
quarter of the inputs hold one fault: an unknown kind, a stray field,
or a float or bool where an int belongs.  No input holds more than one
fault, so which of several faults the reader names first never decides
a case.  Each case is one line, its input and then its result or its
error class and text, on five layers:

    parse    symbol_from_json
    splice   splice_ses of each node that parses, over lo in [-9, -1], hi <= 3
    bounds   splice_bounds of each ses node, over the same range
    derive   construction_spectrum of each node that parses
    chern    MonadShape.chern of each monad in the node, nested ones too

tests/recipe_corpus.json holds, per layer, the sha256 of all its lines
and an 8-hex fingerprint per line, so a mismatch names the first case
that differs.  Re-record only for a declared change of an output or
error text, and name every changed case in CHANGES.md; before it
writes, the command prints per layer how many case fingerprints changed
and the first few of their indices:

    PYTHONPATH=src python tests/test_recipe_corpus.py
"""

import json
import random
from importlib import resources
from pathlib import Path

import pytest

from sheafspectra.cohomology import CohomologyTable
from sheafspectra.sheafcalc import (
    MonadShape,
    ShortExactSequenceSpec,
    construction_spectrum,
    splice_bounds,
    splice_ses,
    symbol_from_json,
)
from corpus_digests import check, record

DIGESTS = Path(__file__).resolve().parent / "recipe_corpus.json"
LAYERS = ("parse", "splice", "bounds", "derive", "chern")
SEED, CASES = "recipe-corpus:1", 2000
FAULTS = ("unknown-kind", "stray-field", "non-int")
# the integer fields of each kind; a monad's degrees are its lists' entries
INT_FIELDS = {"line": ("a",), "points": ("n",), "rational_curve": ("d", "b"),
              "curve": ("genus", "slope", "offset"), "twist": ("n",)}


def _outcome(call, *args) -> str:
    try:
        result = call(*args)
    except Exception as exc:  # every error is part of the record
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, CohomologyTable):
        return f"table {result.lo} {result.hi} {sorted(result.rows.items())} {result.cc}"
    if isinstance(result, dict):
        return repr(sorted(result.items()))
    return repr(result)


def _catalog() -> list:
    text = resources.files("sheafspectra").joinpath("data/catalog.json").read_text()
    return [r["construction"] for r in json.loads(text)["components"]
            if r.get("construction") is not None]


def _line(rnd) -> dict:
    return {"kind": "line", "a": rnd.randint(-4, 3)}


def _curve(rnd, genus0: bool = False) -> dict:
    if genus0 or rnd.random() < 0.5:
        return {"kind": "rational_curve", "d": rnd.randint(1, 4), "b": rnd.randint(-3, 3)}
    node = {"kind": "curve", "genus": rnd.choice((0, 1, 1, 1)), "slope": rnd.randint(1, 4),
            "offset": rnd.randint(-6, 6)}
    if rnd.random() < 0.7:
        node["generic"] = rnd.random() < 0.3
    return node


def _leaf(rnd) -> dict:
    pick = rnd.random()
    if pick < 0.45:
        return _line(rnd)
    if pick < 0.6:
        return {"kind": "points", "n": rnd.randint(0, 3)}
    return _curve(rnd)


def _monad(rnd) -> dict:
    # rank 2, with degrees that are normalized now and then by chance
    a = [rnd.randint(-3, 1) for _ in range(rnd.randint(0, 3))]
    c = [rnd.randint(-1, 3) for _ in range(rnd.randint(0, 3))]
    b = [rnd.randint(-2, 2) for _ in range(len(a) + len(c) + 2)]
    return {"kind": "monad", "a": a, "b": b, "c": c}


def _quotient_of(rnd) -> dict:
    terms = [{"kind": "points", "n": rnd.randint(1, 3)}] if rnd.random() < 0.6 else []
    if not terms or rnd.random() < 0.4:
        terms.append(_curve(rnd, genus0=rnd.random() < 0.9))
    return terms[0] if len(terms) == 1 else {"kind": "sum", "terms": terms}


def _node(rnd, depth: int) -> dict:
    # any node, at most depth levels above its leaves
    if depth == 0 or rnd.random() < 0.25:
        return _leaf(rnd)
    kind = rnd.choice(("sum", "ideal", "twist", "ses", "ses", "monad", "quotient"))
    if kind == "sum":
        return {"kind": "sum", "terms": [_node(rnd, depth - 1) for _ in range(rnd.randint(0, 3))]}
    if kind == "ideal":
        return {"kind": "ideal", "curve": _curve(rnd) if rnd.random() < 0.8 else _node(rnd, 1)}
    if kind == "twist":
        return {"kind": "twist", "n": rnd.randint(-3, 3), "of": _node(rnd, depth - 1)}
    if kind == "ses":
        unknown = rnd.choice(("left", "middle", "right"))
        node = {"kind": "ses", "unknown": unknown}
        for slot in ("left", "middle", "right"):
            if slot != unknown:
                node[slot] = _node(rnd, depth - 1)
        return node
    if kind == "monad":
        return _monad(rnd)
    return {"kind": "quotient", "ambient": _node(rnd, depth - 1), "quotient": _quotient_of(rnd)}


def _rank_two(rnd) -> dict:
    # the shapes of the catalog's recipes, whose unknown slots are rank 2
    pick = rnd.random()
    if pick < 0.25:  # an extension of an ideal of curves by a line bundle
        curves = [_curve(rnd) for _ in range(rnd.randint(1, 2))]
        curve = curves[0] if len(curves) == 1 else {"kind": "sum", "terms": curves}
        node = {"kind": "ses", "unknown": "middle", "left": _line(rnd),
                "right": {"kind": "ideal", "curve": curve}}
    elif pick < 0.45:  # a kernel of two line bundles onto a curve module
        node = {"kind": "ses", "unknown": "left",
                "middle": {"kind": "sum", "terms": [_line(rnd), _line(rnd)]},
                "right": {"kind": "twist", "n": rnd.randint(0, 2), "of": _curve(rnd)}}
    elif pick < 0.6:  # a cokernel of a line bundle into three
        node = {"kind": "ses", "unknown": "right", "left": _line(rnd),
                "middle": {"kind": "sum", "terms": [_line(rnd) for _ in range(3)]}}
    else:
        node = _monad(rnd)
    if rnd.random() < 0.3:
        node = {"kind": "quotient", "ambient": node, "quotient": _quotient_of(rnd)}
    if rnd.random() < 0.3:
        node = {"kind": "twist", "n": rnd.randint(-2, 2), "of": node}
    return node


def _dicts(node) -> list:
    # every node of a recipe, parents first
    out = [node]
    for key, value in node.items():
        if key == "terms":
            for term in value:
                out += _dicts(term)
        elif isinstance(value, dict):
            out += _dicts(value)
    return out


def _fault(rnd, recipe: dict) -> str:
    # one fault at one node of the recipe, which is edited in place
    nodes, fault = _dicts(recipe), rnd.choice(FAULTS)
    target = rnd.choice(nodes)
    if fault == "non-int":
        ints = [(n, k) for n in nodes for k in INT_FIELDS.get(n["kind"], ())]
        ints += [(n[k], i) for n in nodes if n["kind"] == "monad" for k in "abc"
                 for i in range(len(n[k]))]
        if not ints:
            fault = "stray-field"
        else:
            holder, key = rnd.choice(ints)
            holder[key] = rnd.choice((float(holder[key]), holder[key] + 0.5, True, False))
    if fault == "unknown-kind":
        target["kind"] = rnd.choice(("table", "Line", "bundle", "monads"))
    elif fault == "stray-field":
        target[rnd.choice(("note", "degree", "Kind", "generic" if target["kind"] != "curve"
                           else "twist"))] = 0
    return fault


def _monads(node) -> list:
    # every MonadShape in a parsed node, in depth-first order
    if isinstance(node, MonadShape):
        return [node]
    if isinstance(node, tuple):
        return [m for part in node for m in _monads(part)]
    return []


def corpus() -> dict:
    """The lines of every layer, in the order they were drawn."""
    rnd, catalog = random.Random(SEED), _catalog()
    lines = {layer: [] for layer in LAYERS}
    for case in range(CASES):
        pick = rnd.random()
        if pick < 0.1:
            recipe = json.loads(json.dumps(rnd.choice(catalog)))
        elif pick < 0.5:
            recipe = _rank_two(rnd)
        else:
            recipe = _node(rnd, rnd.randint(1, 3))
        fault = _fault(rnd, recipe) if rnd.random() < 0.25 else "none"
        lo = rnd.randint(-9, -1)
        hi = rnd.randint(lo - 1 if case % 40 == 0 else lo, 3)  # an empty range now and then
        line = f"{case} {fault} {json.dumps(recipe)}"
        lines["parse"].append(f"{line} -> {_outcome(symbol_from_json, recipe)}")
        try:
            node = symbol_from_json(recipe)
        except Exception:
            continue
        lines["splice"].append(f"{line} [{lo}, {hi}] -> {_outcome(splice_ses, node, (lo, hi))}")
        if isinstance(node, ShortExactSequenceSpec):
            got = _outcome(splice_bounds, node, (lo, hi))
            lines["bounds"].append(f"{line} [{lo}, {hi}] -> {got}")
        lines["derive"].append(f"{line} -> {_outcome(construction_spectrum, node)}")
        for monad in _monads(node):
            lines["chern"].append(f"{case} {monad} -> {_outcome(monad.chern)}")
    return lines


@pytest.fixture(scope="module")
def drawn() -> dict:
    return corpus()


@pytest.mark.parametrize("layer", LAYERS)
def test_every_recipe_path_case_keeps_its_recorded_outcome(drawn, layer):
    check(DIGESTS, layer, drawn[layer])


if __name__ == "__main__":
    record(DIGESTS, corpus())
