"""Tests for building blocks, sequence splicing, monads and recipes."""

import collections.abc
import json
import sys
import types
from importlib import resources
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sheafspectra import sheafcalc
from sheafspectra.cohomology import CohomologyTable
from sheafspectra.errors import (
    AmbiguousCurveModuleError,
    CatalogError,
    InadmissibleSpectrumError,
    InconsistentTableError,
    NotNormalizedError,
    RankMismatchError,
    SequenceInfeasibleError,
    SheafSpectraError,
)
from sheafspectra.invariants import (
    ChernClasses,
    euler_characteristic,
)
from sheafspectra.sheafcalc import (
    CurveModule,
    DirectSum,
    LineBundle,
    MonadShape,
    PointSheaf,
    ShortExactSequenceSpec,
    Twist,
    construction_spectrum,
    recipe_table,
    splice_bounds,
    splice_ses,
    symbol_from_json,
)
from sheafspectra.sheafcalc import _class_from_chi
from sheafspectra.spectrum import SpectrumWithS, c3_from_spectrum
from test_invariants import chern_from_resolution

# construction recipes for the derived components, shared across tests
TWO_CONICS = {
    "kind": "sum",
    "terms": [{"kind": "rational_curve", "d": 2, "b": 0}] * 2,
}
EXTENSION_OVER_TWO_CONICS = {
    "kind": "ses",
    "unknown": "middle",
    "left": {"kind": "line", "a": -2},
    "right": {"kind": "twist", "n": 1, "of": {"kind": "ideal", "curve": TWO_CONICS}},
}
LINE_QUOTIENT_OF_COKERNEL = {
    "kind": "quotient",
    "ambient": {
        "kind": "ses",
        "unknown": "right",
        "left": {"kind": "line", "a": -2},
        "middle": {"kind": "sum", "terms": [{"kind": "line", "a": -1}] * 3},
    },
    "quotient": {"kind": "rational_curve", "d": 1, "b": 1},
}
POINT_QUOTIENT_OF_CONIC_EXTENSION = {
    "kind": "quotient",
    "ambient": {
        "kind": "ses",
        "unknown": "middle",
        "left": {"kind": "line", "a": -1},
        "right": {"kind": "ideal", "curve": {"kind": "rational_curve", "d": 2, "b": 0}},
    },
    "quotient": {"kind": "points", "n": 2},
}
INSTANTON_MONAD = {"kind": "monad", "a": [-1, -1, -1], "b": [0] * 8, "c": [1, 1, 1]}
EIN_MONAD = {"kind": "monad", "a": [-2], "b": [-1, 0, 0, 1], "c": [2]}
PLANE_CUBIC_SECTIONS = {
    "kind": "ses",
    "unknown": "left",
    "middle": {"kind": "sum", "terms": [{"kind": "line", "a": 0}] * 2},
    "right": {
        "kind": "twist",
        "n": 2,
        "of": {"kind": "curve", "genus": 1, "slope": 3, "offset": 0, "generic": True},
    },
}

# the recipes above as construction nodes, parsed once
TWO_CONICS_NODE = symbol_from_json(TWO_CONICS)
EXTENSION_NODE = symbol_from_json(EXTENSION_OVER_TWO_CONICS)
LINE_QUOTIENT_NODE = symbol_from_json(LINE_QUOTIENT_OF_COKERNEL)
POINT_QUOTIENT_NODE = symbol_from_json(POINT_QUOTIENT_OF_CONIC_EXTENSION)
INSTANTON_NODE = symbol_from_json(INSTANTON_MONAD)
EIN_NODE = symbol_from_json(EIN_MONAD)
CUBIC_NODE = symbol_from_json(PLANE_CUBIC_SECTIONS)


def line_bundle_chi(a: int, t: int) -> int:
    """chi(O(a+t)) on P^3, the binomial cubic C(a+t+3, 3)."""
    d = a + t
    return (d + 1) * (d + 2) * (d + 3) // 6


def rows_class(rows):
    """The class the pipeline reads off rows by twist: their chi at t = -3..0."""
    return _class_from_chi([h0 - h1 + h2 - h3 for h0, h1, h2, h3 in map(rows.get, range(-3, 1))])


def series_class(shape):
    """A monad's class from the Chern-series oracle: (+)O(b) - (+)O(a) - (+)O(c)."""
    return chern_from_resolution(shape.b, shape.a + shape.c)


def rational_curve(d, b):
    """The node a `rational_curve` recipe reads into: O(d t + b) on a degree-d P^1."""
    return symbol_from_json({"kind": "rational_curve", "d": d, "b": b})


def ideal(curve):
    return symbol_from_json({"kind": "ideal", "curve": curve})

# the ambient of T(-1,2,2,1): the kernel of O(-1) + O onto O(2t + 1) on a conic
EXTENSION_OVER_ONE_CONIC = {
    "kind": "ses",
    "unknown": "left",
    "middle": {"kind": "sum", "terms": [{"kind": "line", "a": -1}, {"kind": "line", "a": 0}]},
    "right": {"kind": "rational_curve", "d": 2, "b": 1},
}
ONE_CONIC_NODE = symbol_from_json(EXTENSION_OVER_ONE_CONIC)

# total cohomology of the rank-2 sheaf behind the point-quotient pipeline
# with one point removed, copied row by row from an independent source
EXTENSION_OVER_ONE_CONIC_ROWS = {
    0: (0, 1, 0, 0),
    -1: (0, 0, 0, 0),
    -2: (0, 0, 2, 0),
    -3: (0, 0, 4, 1),
    -4: (0, 0, 6, 5),
    -5: (0, 0, 8, 14),
    -6: (0, 0, 10, 30),
    -7: (0, 0, 12, 55),
    -8: (0, 0, 14, 91),
}


def symbols():
    lines = st.integers(-4, 3).map(LineBundle)
    return st.one_of(
        lines,
        st.lists(lines, min_size=1, max_size=4).map(DirectSum),
        st.integers(0, 5).map(PointSheaf),
        st.tuples(st.integers(1, 3), st.integers(-3, 3)).map(
            lambda p: rational_curve(*p)
        ),
    )


# ------------------------------------------------------------- blocks


def test_line_on_a_line_has_one_section_at_minus_one():
    table = splice_ses(rational_curve(1, 1), (-1, -1))
    assert table.row(-1) == (1, 0, 0, 0)


def test_two_conics_at_t_one():
    table = splice_ses(TWO_CONICS_NODE, (1, 1))
    assert table.row(1) == (6, 0, 0, 0)


def test_point_sheaf_rows_are_constant():
    table = splice_ses(PointSheaf(2), (-5, 2))
    assert all(table.row(t) == (2, 0, 0, 0) for t in range(-5, 3))


def test_line_bundle_rows_are_one_sided():
    table = splice_ses(LineBundle(-2), (-6, 4))
    for t in range(-6, 5):
        h0, h1, h2, h3 = table.row(t)
        assert h1 == h2 == 0
        assert h0 == 0 or h3 == 0
        assert h0 - h3 == line_bundle_chi(-2, t)


def test_generic_curve_module_in_special_strip():
    # degree 0 on a genus-1 curve: chi = 0, generic means no sections
    table = splice_ses(CurveModule(1, 3, 0, generic=True), (0, 0))
    assert table.row(0) == (0, 0, 0, 0)


def test_special_strip_requires_generic_flag():
    with pytest.raises(AmbiguousCurveModuleError):
        splice_ses(CurveModule(1, 3, 0, generic=False), (0, 0))


def test_twist_shifts_rows():
    plain = splice_ses(rational_curve(2, 1), (-4, 4))
    shifted = splice_ses(Twist(rational_curve(2, 1), 3), (-4, 1))
    assert all(shifted.row(t) == plain.row(t + 3) for t in range(-4, 2))


def test_ideal_of_conic_sections():
    table = splice_ses(ideal({"kind": "rational_curve", "d": 2, "b": 0}), (0, 2))
    assert table.row(0)[0] == 0
    assert table.row(2)[0] == 5  # quadrics through a conic


def p1_cohomology(d: int) -> tuple[int, int]:
    """(h0, h1) of O(d) on the projective line."""
    return (max(0, d + 1), max(0, -d - 1))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_rational_curve_rows_are_line_bundle_rows_on_p1(d):
    # O(d t + b) on P^1, for the genus-0 curve module the recipe reads into
    for b in range(-4, 4):
        assert rational_curve(d, b) == CurveModule(0, d, b + 1)
        table = splice_ses(rational_curve(d, b), (-8, 4))
        assert all(table.row(t) == p1_cohomology(d * t + b) + (0, 0)
                   for t in range(-8, 5))


def test_ideal_reads_as_the_kernel_of_o_onto_the_curve():
    conic = {"kind": "rational_curve", "d": 2, "b": 0}
    assert ideal(conic) == ShortExactSequenceSpec(middle=LineBundle(0),
                                                  right=CurveModule(0, 2, 1))


# ------------------------------------------------------------- splicing


def test_cokernel_of_twisted_trivial_bundle():
    # 0 -> O(-2) -> 3 O(-1) -> F -> 0 has h1(F(t)) = 0 everywhere
    spec = ShortExactSequenceSpec(
        left=LineBundle(-2), middle=DirectSum([LineBundle(-1)] * 3)
    )
    table = splice_ses(spec, (-6, 2))
    assert all(table.row(t)[1] == 0 for t in range(-6, 3))
    assert table.row(-2) == (0, 0, 1, 0)


def test_infeasible_surjection_is_refused():
    # O cannot be a quotient of O(-1): sections do not lift
    spec = ShortExactSequenceSpec(left=LineBundle(0), middle=LineBundle(-1))
    with pytest.raises(SequenceInfeasibleError):
        splice_ses(spec, (0, 0))


def test_infeasible_subsheaf_is_refused():
    # h3 of the right column cannot exceed h3 of the middle
    spec = ShortExactSequenceSpec(middle=LineBundle(0), right=LineBundle(-5))
    with pytest.raises(SequenceInfeasibleError):
        splice_ses(spec, (0, 0))


def test_spec_needs_exactly_one_unknown():
    with pytest.raises(ValueError):
        ShortExactSequenceSpec(left=LineBundle(0))
    with pytest.raises(ValueError):
        ShortExactSequenceSpec(
            left=LineBundle(0), middle=LineBundle(0), right=LineBundle(0)
        )


@given(symbols(), symbols(), st.sampled_from(["left", "middle", "right"]))
@settings(deadline=None)
def test_euler_characteristic_is_additive(first, second, unknown):
    rng = (-5, 2)
    if unknown == "left":
        spec = ShortExactSequenceSpec(middle=first, right=second)
    elif unknown == "middle":
        spec = ShortExactSequenceSpec(left=first, right=second)
    else:
        spec = ShortExactSequenceSpec(left=first, middle=second)
    try:
        solved = splice_ses(spec, rng)
    except SequenceInfeasibleError:
        return
    tables = {
        "left": solved if unknown == "left" else splice_ses(spec.left, rng),
        "middle": solved if unknown == "middle" else splice_ses(spec.middle, rng),
        "right": solved if unknown == "right" else splice_ses(spec.right, rng),
    }
    for t in range(rng[0], rng[1] + 1):
        chi = {
            name: sum(h * (-1) ** i for i, h in enumerate(tab.row(t)))
            for name, tab in tables.items()
        }
        assert chi["middle"] == chi["left"] + chi["right"]


def chase_rows(seq):
    """Every unknown row of an exact 0 -> seq[0] -> ... -> seq[11] -> 0.

    Brute force over every rank choice: the rank of each map out of an
    unknown entry (None) runs over [0, dim of its target]; the rank out
    of a known entry is forced by exactness; the last map must have
    rank 0.  This is the reference for the per-rank loop splice_bounds
    no longer runs.
    """
    rows = set()

    def walk(j, r_in, dims):
        if j == len(seq):
            if r_in == 0:
                rows.add(tuple(dims))
        elif seq[j] is None:
            target = seq[j + 1] if j + 1 < len(seq) else 0
            for r_out in range(target + 1):
                walk(j + 1, r_out, dims + [r_in + r_out])
        elif seq[j] >= r_in:
            walk(j + 1, seq[j] - r_in, dims)

    walk(0, 0, [])
    return rows


@given(symbols(), symbols(), st.sampled_from(["left", "middle", "right"]))
@settings(deadline=None, max_examples=40)
def test_policy_rows_lie_inside_bounds(first, second, unknown):
    # exactly: the low end is the policy row, the high end the brute-force max
    rng = (-3, 1)
    names = ("left", "middle", "right")
    slots = dict(zip([name for name in names if name != unknown], (first, second)))
    spec = ShortExactSequenceSpec(**slots)
    columns = {name: splice_ses(sym, rng) for name, sym in slots.items()}
    chased = {}
    for t in range(rng[0], rng[1] + 1):
        rows = {name: columns[name].row(t) if name in columns else (None,) * 4
                for name in names}
        chased[t] = chase_rows([rows[name][i] for i in range(4) for name in names])
    if not all(chased.values()):
        with pytest.raises(SequenceInfeasibleError):
            splice_ses(spec, rng)
        with pytest.raises(SequenceInfeasibleError):
            splice_bounds(spec, rng)
        return
    solved = splice_ses(spec, rng)
    bounds = splice_bounds(spec, rng)
    for t, rows in chased.items():
        policy_row = solved.row(t)
        assert policy_row == tuple(min(column) for column in zip(*rows))
        brute_max = tuple(max(column) for column in zip(*rows))
        assert bounds[t] == tuple(zip(policy_row, brute_max))


def test_extension_bounds_leave_deep_entries_free():
    bounds = splice_bounds(EXTENSION_NODE, (-3, -1))
    assert bounds[-1] == ((0, 0), (1, 1), (0, 0), (0, 0))
    assert bounds[-3][2] == (2, 6)  # h2 depends on a free connecting rank


# ------------------------------------------------------------- monads


def test_monad_rank_guard():
    with pytest.raises(RankMismatchError):
        MonadShape([-1], [0, 0], [1])


def test_instanton_monad_classes_and_rows():
    shape = MonadShape([-1, -1, -1], [0] * 8, [1, 1, 1])
    assert shape.chern() == ChernClasses(0, 3, 0)
    table = splice_ses(shape, (-4, 0))
    assert table.row(0) == (0, 4, 0, 0)
    assert table.row(-1) == (0, 3, 0, 0)
    assert table.row(-3) == (0, 0, 3, 0)
    assert table.cc == ChernClasses(0, 3, 0)


def test_ein_monad_classes():
    shape = MonadShape([-2], [-1, 0, 0, 1], [2])
    assert shape.chern() == ChernClasses(0, 3, 0)
    assert splice_ses(shape, (-1, -1)).row(-1) == (0, 3, 0, 0)


def test_degenerate_monad_is_a_direct_sum():
    shape = MonadShape([], [0, -1], [])
    table = splice_ses(shape, (-2, 1))
    direct = splice_ses(DirectSum([LineBundle(0), LineBundle(-1)]), (-2, 1))
    assert all(table.row(t) == direct.row(t) for t in range(-2, 2))


@st.composite
def rank_two_monads(draw):
    # every rank-2 monad with degrees in [-4, 4], normalized or not
    a = draw(st.lists(st.integers(-4, 4), max_size=3))
    c = draw(st.lists(st.integers(-4, 4), max_size=3))
    n = len(a) + len(c) + 2
    return MonadShape(a, draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)), c)


@given(rank_two_monads())
@settings(max_examples=300, deadline=None)
def test_a_monads_class_is_the_series_class_or_its_normalizing_twist(shape):
    c1 = sum(shape.b) - sum(shape.a) - sum(shape.c)  # the series' first coefficient
    if c1 in (-1, 0):
        assert shape.chern() == series_class(shape)
    else:
        with pytest.raises(NotNormalizedError) as err:
            shape.chern()
        assert str(err.value) == (f"recipe has first Chern class {c1}; "
                                  f"twist it by {-((c1 + 1) // 2)} to normalize it")


@pytest.mark.parametrize("field", "abc")
@pytest.mark.parametrize("value", [{-2: 0}, {-1, 0}, frozenset({1}), range(2), iter([0])],
                         ids=["mapping", "set", "frozenset", "range", "iterator"])
def test_a_monad_constructor_refuses_a_non_array_degree_list(field, value):
    # read as its keys, {-2: 0} was the list [-2], and a set came in hash order
    lists = {"a": [-2], "b": [-1, 0, 0, 1], "c": [2], field: value}
    with pytest.raises(ValueError) as err:
        MonadShape(**lists)
    assert str(err.value) == f"monad field {field!r} must be a list or tuple, got {value!r}"


class ListSet(collections.abc.Set):
    # a set that is neither a builtin set nor a frozenset, kept as a list
    def __init__(self, items):
        self.items = list(items)

    def __contains__(self, item):
        return item in self.items

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


@pytest.mark.parametrize("terms", [{LineBundle(0): 1, LineBundle(1): 2},
                                   {LineBundle(0), LineBundle(1)}, frozenset({LineBundle(0)}),
                                   types.MappingProxyType({LineBundle(0): 1, LineBundle(1): 2}),
                                   ListSet([LineBundle(0), LineBundle(1)])],
                         ids=["mapping", "set", "frozenset", "mapping-proxy", "abc-set"])
def test_a_direct_sum_refuses_a_mapping_or_a_set(terms):
    # read as its keys, a mapping summed its keys and a set came in hash order
    with pytest.raises(TypeError) as err:
        DirectSum(terms)
    assert str(err.value) == f"sum terms must be a sequence or an iterator, got {terms!r}"
    # a generator is an iterator, as the benchmark and symbol_from_json build sums
    assert DirectSum(LineBundle(a) for a in (0, 1)) == DirectSum([LineBundle(0), LineBundle(1)])


def grouped_lines(degrees, twists):
    # _lines before the fold: each distinct degree's column, scaled by its
    # count, then merged into the others by zip
    out = None
    for d in dict.fromkeys(degrees):
        n = degrees.count(d)
        rows = [(c, 0, 0, 0) if c >= 0 else (0, 0, 0, -c)
                for x in range(d + twists.start, d + twists.stop)
                for c in [n * (x + 1) * (x + 2) * (x + 3) // 6]]
        if out is not None:
            rows = [(h0 + g0, 0, 0, h3 + g3) for (h0, _, _, h3), (g0, _, _, g3) in zip(out, rows)]
        out = rows
    return [(0, 0, 0, 0)] * len(twists) if out is None else out


@given(st.lists(st.integers(-3, 3), max_size=9) | st.lists(st.integers(-12, 12), max_size=6),
       st.integers(-12, 4), st.integers(-1, 10), st.booleans())
@settings(max_examples=300, deadline=None)
def test_lines_fold_matches_the_per_degree_grouping(degrees, lo, width, as_tuple):
    # empty, repeated and mixed-sign degree lists; monads pass tuples, sums lists
    degrees = tuple(degrees) if as_tuple else degrees
    twists = range(lo, lo + width)
    assert sheafcalc._lines(degrees, twists) == grouped_lines(degrees, twists)


# ------------------------------------------------------------- quotients


def test_point_quotient_of_one_conic_kernel():
    ambient = splice_ses(ONE_CONIC_NODE, (-8, 0))
    assert ambient.rows == EXTENSION_OVER_ONE_CONIC_ROWS
    assert rows_class(ambient.rows) == ChernClasses(-1, 2, 2)
    raw = splice_ses(ShortExactSequenceSpec(middle=ONE_CONIC_NODE, right=PointSheaf(1)),
                     (-8, 0))
    assert raw.row(-1) == (0, 1, 0, 0)
    assert raw.row(-2) == (0, 1, 2, 0)
    assert raw.row(-3) == (0, 1, 4, 1)
    assert raw.row(-4) == (0, 1, 6, 5)


# ------------------------------------------------------------- pipeline

PIPELINES = [
    (EXTENSION_NODE, -1, (-1, 0), 0),
    (LINE_QUOTIENT_NODE, -1, (-1, 0), 0),
    (POINT_QUOTIENT_NODE, -1, (-2, -1), 2),
    (INSTANTON_NODE, 0, (0, 0, 0), 0),
    (EIN_NODE, 0, (-1, 0, 1), 0),
    (CUBIC_NODE, 0, (0, 0, 0), 0),
]


@pytest.mark.parametrize("node,e,values,s", PIPELINES)
def test_construction_spectra(node, e, values, s):
    # the class and the spectrum are all a printed-window table is made from
    sw = SpectrumWithS(values, s)
    cc = ChernClasses(e, len(values), c3_from_spectrum(e, len(values), sw))
    assert construction_spectrum(node) == (cc, sw)


def test_one_conic_kernel_pipeline_recovers_double_point_spectrum():
    node = {"kind": "quotient", "ambient": EXTENSION_OVER_ONE_CONIC,
            "quotient": {"kind": "points", "n": 1}}
    assert construction_spectrum(symbol_from_json(node)) == (
        ChernClasses(-1, 2, 0), SpectrumWithS((-1, -1), 1)
    )


def test_plane_cubic_sequence_rows():
    table = recipe_table(PLANE_CUBIC_SECTIONS, (-8, 0))
    assert table.row(-1)[1] == 3
    assert all(table.row(t)[1] == 0 for t in range(-8, -1))


def test_pipeline_chi_agreement():
    # raw policy tables satisfy the rank-2 Euler characteristic everywhere
    table = recipe_table(EXTENSION_OVER_TWO_CONICS, (-8, 0))
    cc = ChernClasses(-1, 2, 0)
    for t in range(-8, 1):
        chi = sum(h * (-1) ** i for i, h in enumerate(table.row(t)))
        assert chi == euler_characteristic(cc, t)


def test_construction_pipeline_takes_nodes_not_json():
    # a recipe's JSON form is read by symbol_from_json and recipe_table only
    with pytest.raises(TypeError, match="not a sheaf symbol"):
        construction_spectrum(EXTENSION_OVER_TWO_CONICS)


def outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def test_value_equal_nodes_of_different_kinds_derive_apart():
    # LineBundle(1) == PointSheaf(1) as tuples, so these two compare equal
    onto_line = ShortExactSequenceSpec(middle=EXTENSION_NODE, right=LineBundle(1))
    onto_point = ShortExactSequenceSpec(middle=EXTENSION_NODE, right=PointSheaf(1))
    assert onto_line == onto_point
    assert outcome(construction_spectrum, onto_line) == (
        RankMismatchError, "recipe has rank 1, expected 2"
    )
    assert outcome(construction_spectrum, onto_point) == (
        ChernClasses(-1, 2, -2), SpectrumWithS((-1, 0), 1)
    )


def test_a_deep_twist_chain_raises_recursion_error():
    # the evaluator recurses once per nesting level
    node = LineBundle(0)
    for _ in range(200_000):
        node = Twist(node, 0)
    with pytest.raises(RecursionError):
        construction_spectrum(node)


@pytest.mark.parametrize(
    "node",
    [INSTANTON_NODE, LineBundle(0)],
    ids=["monad", "line"],
)
def test_splice_bounds_takes_only_a_sequence(node):
    with pytest.raises(TypeError, match="needs a ShortExactSequenceSpec"):
        splice_bounds(node, (-1, 0))


# O + O has no surjection onto a curve module of negative degree; the rows
# still invert, to (-2,-2,-2) with s = 0, which misses -1 under chain-down
KERNEL_ONTO_NEGATIVE_CUBIC = {
    "kind": "ses",
    "unknown": "left",
    "middle": {"kind": "sum", "terms": [{"kind": "line", "a": 0}] * 2},
    "right": {"kind": "rational_curve", "d": 3, "b": -1},
}


# recipes of rank 0, 1 and 3, with their ranks
WRONG_RANKS = [
    (symbol_from_json({"kind": "points", "n": 5}), 0),
    (symbol_from_json({"kind": "line", "a": 0}), 1),
    (DirectSum([LineBundle(0)] * 3), 3),
    (ShortExactSequenceSpec(middle=DirectSum([LineBundle(0)] * 4), right=LineBundle(2)), 3),
]


@pytest.mark.parametrize(
    "node,error,text",
    [
        (symbol_from_json(KERNEL_ONTO_NEGATIVE_CUBIC), InadmissibleSpectrumError,
         r"\(-2, -2, -2\), s=0"),
        # six points off C(2) give s = 6, one above the general bound for c2 = 2
        (symbol_from_json({"kind": "quotient", "ambient": EXTENSION_OVER_TWO_CONICS,
                           "quotient": {"kind": "points", "n": 6}}),
         InadmissibleSpectrumError, "s=6"),
        # a recipe of any other rank is refused by its rank, twisted or not
        *[(node, RankMismatchError, f"^recipe has rank {rank}, expected 2$")
          for base, rank in WRONG_RANKS for node in (base, Twist(base, 1))],
    ],
    ids=["negative-cubic-kernel", "six-points",
         *[f"{name}{twist}" for name in ("points", "line", "three-lines", "kernel-onto-O(2)")
           for twist in ("", "-twisted")]],
)
def test_pipeline_refuses_what_no_rank_2_class_explains(node, error, text):
    with pytest.raises(error, match=text):
        construction_spectrum(node)


def shifted_ein(k):
    # Ein's monad with every degree raised by k, spliced on its own
    return MonadShape(*([d + k for d in EIN_MONAD[x]] for x in "abc"))


@pytest.mark.parametrize("k,twist", [(1, -1), (-1, 1), (2, -2)])
@pytest.mark.parametrize("ein,derive", [
    (lambda k: Twist(EIN_NODE, k), construction_spectrum),
    (shifted_ein, construction_spectrum),
    # spliced on its own, a monad's class comes from its line bundles
    (shifted_ein, lambda node: splice_ses(node, (-8, 0))),
], ids=["twist", "monad", "spliced-monad"])
def test_an_unnormalized_recipe_is_told_its_normalizing_twist(ein, derive, k, twist):
    # Ein has c1 = 0, so Ein(k) has c1 = 2k
    with pytest.raises(NotNormalizedError) as err:
        derive(ein(k))
    assert str(err.value) == (
        f"recipe has first Chern class {2 * k}; twist it by {twist} to normalize it"
    )
    normalized = Twist(ein(k), twist)
    assert construction_spectrum(normalized) == (
        ChernClasses(0, 3, 0), SpectrumWithS((-1, 0, 1), 0)
    )


def bundled_records():
    text = resources.files("sheafspectra").joinpath("data/catalog.json").read_text()
    records = json.loads(text)["components"]
    return [r for r in records if r.get("construction") is not None]


def bundled_recipes():
    return [pytest.param(symbol_from_json(r["construction"]), r["moduli"], id=r["name"])
            for r in bundled_records()]


@pytest.mark.parametrize("node,moduli", bundled_recipes())
def test_recipe_class_is_the_records_moduli(node, moduli):
    assert construction_spectrum(node)[0] == ChernClasses(*moduli)


@pytest.mark.parametrize("record", bundled_records(), ids=lambda r: r["name"])
def test_bundled_recipe_rows_have_the_records_chi_up_to_twist_two(record):
    # (-8, 2) holds every range the benchmark splices a recipe over
    try:
        table = recipe_table(record["construction"], (-8, 2))
    except SequenceInfeasibleError:
        # the one known failure: the policy finds no Instanton row at t >= 1
        assert record["name"] == "Instanton"
        recipe_table(record["construction"], (-8, 0))
        return
    cc = ChernClasses(*record["moduli"])
    for t, (h0, h1, h2, h3) in table.rows.items():
        assert h0 - h1 + h2 - h3 == euler_characteristic(cc, t), t


@pytest.mark.parametrize("node", [INSTANTON_NODE, EIN_NODE], ids=["Instanton", "Ein"])
def test_fitted_class_of_a_monad_is_its_series_class(node):
    shape = MonadShape(*node)
    assert construction_spectrum(node)[0] == shape.chern() == series_class(shape)
    assert series_class(shape) == ChernClasses(0, 3, 0)


@st.composite
def normalised_monads(draw):
    # the last degree of b makes c1 = e, so the series class is normalised
    a = draw(st.lists(st.integers(-3, 0), max_size=2))
    c = draw(st.lists(st.integers(0, 3), max_size=2))
    b = draw(st.lists(st.integers(-2, 2), min_size=len(a) + len(c) + 1,
                      max_size=len(a) + len(c) + 1))
    e = draw(st.sampled_from([-1, 0]))
    return MonadShape(a, b + [e + sum(a) + sum(c) - sum(b)], c)


@given(normalised_monads(), st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_fitted_class_matches_the_series_oracle(shape, k):
    # every degree raised by k moves c1 by 2k; the twist by -k undoes it
    shifted = Twist(MonadShape(*([d + k for d in x] for x in shape)), -k)
    assert shape.chern() == series_class(shape)
    try:
        table = splice_ses(shape, (-3, -1))
    except SequenceInfeasibleError:
        assume(False)  # only monads that evaluate
    assert splice_ses(shifted, (-3, -1)).rows == table.rows
    # where the rows reach t = 0, the class the pipeline reads off them is the series class
    wide = outcome(splice_ses, shape, (-3, 0))
    if isinstance(wide, CohomologyTable):
        assert rows_class(wide.rows) == series_class(shape)
    derived = outcome(construction_spectrum, shape)
    assert derived[0] == series_class(shape) or derived[0] not in (
        NotNormalizedError, RankMismatchError)


# ------------------------------------------------------------- recipes


def test_symbol_round_trip():
    sym = symbol_from_json(TWO_CONICS)
    assert sym == DirectSum([CurveModule(0, 2, 1)] * 2)


ELLIPTIC = {"kind": "curve", "genus": 1, "slope": 3, "offset": 0}


@pytest.mark.parametrize(
    "node",
    [
        dict(ELLIPTIC, generic="false"),
        dict(ELLIPTIC, generic=0),
        dict(ELLIPTIC, genus=1.0),
        {"kind": "line", "a": 1.7},
        {"kind": "line", "a": True},
        {"kind": "line", "a": "1"},
        {"kind": "points", "n": 2.0},
        {"kind": "rational_curve", "d": 2, "b": False},
        {"kind": "rational_curve", "d": 2, "b": True},
        {"kind": "rational_curve", "d": 2, "b": 0.5},
        {"kind": "rational_curve", "d": 2, "b": "0"},
        {"kind": "rational_curve", "d": 2.0, "b": 0},
        {"kind": "twist", "n": "2", "of": {"kind": "line", "a": 0}},
    ],
)
def test_symbol_json_refuses_coercion(node):
    with pytest.raises(CatalogError):
        symbol_from_json(node)


@pytest.mark.parametrize("field, value", [("a", {-2: 0}), ("b", {-1, 0, 1})],
                         ids=["a-mapping", "b-set"])
def test_a_monad_degree_list_must_be_an_array(field, value):
    # read as its keys, {-2: 0} was the list [-2], and a set came in hash order
    node = {**EIN_MONAD, field: value}
    with pytest.raises(CatalogError) as err:
        symbol_from_json(node)
    assert str(err.value) == (f"malformed symbol node {node!r}: monad field {field!r} "
                              f"must be a list or tuple, got {value!r}")
    # a tuple is an array, as a list is
    assert symbol_from_json({**EIN_MONAD, field: tuple(EIN_MONAD[field])}) == EIN_NODE


def test_non_generic_curve_recipe_is_refused():
    # degree 0 on a genus-1 curve at t = -2 lies in the special strip
    node = {
        "kind": "ses",
        "unknown": "left",
        "middle": {"kind": "sum", "terms": [{"kind": "line", "a": 0}] * 2},
        "right": {"kind": "twist", "n": 2, "of": dict(ELLIPTIC, generic=False)},
    }
    with pytest.raises(AmbiguousCurveModuleError):
        recipe_table(node, (-8, 0))
    node["right"]["of"]["generic"] = True
    assert recipe_table(node, (-8, 0)).row(-1) == (0, 3, 0, 0)


@pytest.mark.parametrize(
    "node",
    [
        {"kind": "mystery"},
        {"kind": "line"},
        {"kind": "monad", "a": [], "b": [0]},
        {"kind": "ses", "left": {"kind": "line", "a": 0}},
        {"kind": "ses", "unknown": "left", "left": {"kind": "line", "a": 0},
         "middle": {"kind": "line", "a": 0}, "right": {"kind": "line", "a": 0}},
        {"kind": "table", "table": {"lo": 0}},
        {"kind": "quotient", "ambient": {"kind": "line", "a": 0},
         "quotient": {"kind": "curve", "genus": 1, "slope": 3, "offset": 0}},
        {"kind": "ses", "unknown": "middle", "left": {"kind": "line", "a": -2},
         "right": {"kind": "rational_curve", "d": -3, "b": 0}},
        {"kind": "ideal", "curve": {"kind": "rational_curve", "d": 0, "b": 1}},
        {"kind": "twist", "n": 1, "of": dict(ELLIPTIC, slope=0)},
        {"kind": "quotient", "ambient": {"kind": "line", "a": 0},
         "quotient": {"kind": "sum", "terms": [{"kind": "rational_curve", "d": 1, "b": 0},
                                               {"kind": "rational_curve", "d": 1, "b": 1}]}},
        dict(ELLIPTIC, genus=-1),
    ],
)
def test_malformed_recipes_raise_catalog_error(node):
    with pytest.raises(CatalogError):
        recipe_table(node, (-2, 0))


@pytest.mark.parametrize(
    "make",
    [lambda: CurveModule(1, 0, 0), lambda: CurveModule(0, -2, 1)],
)
def test_curve_degree_must_be_positive(make):
    with pytest.raises(ValueError, match="curve degree must be positive"):
        make()


@pytest.mark.parametrize("d", [0, -3])
def test_rational_curve_degree_must_be_positive(d):
    with pytest.raises(CatalogError, match="curve degree must be positive") as err:
        rational_curve(d, 0)
    assert "slope" not in str(err.value)  # a rational curve has no slope field


@pytest.mark.parametrize("degree", [True, 1.5])
def test_monad_degrees_must_be_ints(degree):
    node = {"kind": "monad", "a": [degree], "b": [0, 0, 0, 0], "c": [1]}
    with pytest.raises(CatalogError):
        recipe_table(node, (-4, 0))


@pytest.mark.parametrize(
    "node",
    [
        {"kind": "ses", "unknown": "middle", "left": 5, "right": {"kind": "line", "a": 0}},
        {"kind": "quotient", "ambient": {"kind": "line", "a": 0}},
    ],
)
def test_malformed_slots_raise_catalog_error(node):
    with pytest.raises(CatalogError):
        recipe_table(node, (-2, 0))


@pytest.mark.parametrize(
    "node,field",
    [({"kind": "line", "a": 0, "zeta": 1, "alpha": 2, "kind_": 3}, "alpha"),
     ({"kind": "points", "n": 1, "n ": 1}, "n "),
     ({"kind": "twist", "n": 1, "of": {"kind": "line", "a": 0}, "on": 0, "Of": 0}, "Of")],
)
def test_the_first_stray_field_in_sorted_order_is_named(node, field):
    with pytest.raises(CatalogError) as err:
        symbol_from_json(node)
    assert str(err.value) == f"unknown field {field!r} in a {node['kind']!r} node"


# ------------------------------------------------------------- one grammar


@pytest.mark.parametrize(
    "node,kind",
    [
        (EXTENSION_OVER_TWO_CONICS, ShortExactSequenceSpec),
        (LINE_QUOTIENT_OF_COKERNEL, ShortExactSequenceSpec),
        (EIN_MONAD, MonadShape),
        ({"kind": "ideal", "curve": EIN_MONAD}, ShortExactSequenceSpec),
        ({"kind": "rational_curve", "d": 1, "b": 0}, CurveModule),
    ],
)
def test_symbol_from_json_reads_every_kind(node, kind):
    assert isinstance(symbol_from_json(node), kind)


def test_quotient_is_a_sequence_onto_the_quotient():
    sym = symbol_from_json(LINE_QUOTIENT_OF_COKERNEL)
    assert sym.unknown == "left" and sym.right == CurveModule(0, 1, 2)
    assert sym.middle == symbol_from_json(LINE_QUOTIENT_OF_COKERNEL["ambient"])


def test_genus_0_curve_is_a_quotient_support():
    # the same sheaf as the line module O(t + 1), written as a `curve`
    as_curve = dict(LINE_QUOTIENT_OF_COKERNEL,
                    quotient={"kind": "curve", "genus": 0, "slope": 1, "offset": 2})
    assert symbol_from_json(as_curve) == LINE_QUOTIENT_NODE


class Frozen(NamedTuple):
    """Test-only leaf whose rows are those of a table computed beforehand."""

    table: CohomologyTable


# position -> (template, shift): the template reads its node at t + shift
TEMPLATES = {
    "ses_right": (lambda x: ShortExactSequenceSpec(left=LineBundle(-2), right=x), 0),
    "ses_left": (lambda x: ShortExactSequenceSpec(left=x,
                                                  middle=DirectSum([LineBundle(2)] * 4)), 0),
    "ambient": (lambda x: ShortExactSequenceSpec(middle=x, right=PointSheaf(1)), 0),
    "terms": (lambda x: DirectSum([x, LineBundle(-1)]), 0),
    "curve": (lambda x: ShortExactSequenceSpec(middle=LineBundle(0), right=x), 0),
    "of": (lambda x: Twist(x, 2), 2),
}
INNER = {"monad": EIN_NODE, "ses": EXTENSION_NODE, "quotient": LINE_QUOTIENT_NODE,
         "cubic": CUBIC_NODE}


@pytest.mark.parametrize("position", TEMPLATES)
@pytest.mark.parametrize("inner", INNER)
def test_any_kind_nests_anywhere(monkeypatch, position, inner):
    # a nested node reads exactly like a leaf holding its own rows
    import sheafspectra.sheafcalc as sheafcalc

    rows = sheafcalc._rows
    monkeypatch.setattr(sheafcalc, "_rows", lambda node, twists: (
        [node.table.row(t) for t in twists] if isinstance(node, Frozen)
        else rows(node, twists)))
    template, shift = TEMPLATES[position]
    inner = INNER[inner]
    rng = (-6, 0)
    frozen = Frozen(splice_ses(inner, (rng[0] + shift, rng[1] + shift)))
    assert outcome(splice_ses, template(inner), rng) == outcome(splice_ses, template(frozen), rng)


def test_a_top_level_monad_table_checks_its_rows_against_its_class(monkeypatch):
    monkeypatch.setattr(MonadShape, "chern", lambda self: ChernClasses(0, 5, 0))
    with pytest.raises(InconsistentTableError):
        recipe_table(EIN_MONAD, (-3, 0))


# Ein's degrees each raised by 1, so c1 = 2, twisted back by -1
SHIFTED_EIN = {"kind": "twist", "n": -1,
               "of": {"kind": "monad", "a": [-1], "b": [0, 1, 1, 2], "c": [3]}}


def test_a_monad_of_any_class_nests():
    def ses(left):
        return {"kind": "ses", "unknown": "right", "left": left,
                "middle": {"kind": "sum", "terms": [{"kind": "line", "a": 2}] * 4}}

    for shifted, ein in [(SHIFTED_EIN, EIN_MONAD), (ses(SHIFTED_EIN), ses(EIN_MONAD))]:
        assert recipe_table(shifted, (-8, 0)).rows == recipe_table(ein, (-8, 0)).rows
    assert construction_spectrum(symbol_from_json(SHIFTED_EIN)) == (
        ChernClasses(0, 3, 0), SpectrumWithS((-1, 0, 1), 0))


def test_sequences_are_built_once_per_node(monkeypatch):
    built, new = [], ShortExactSequenceSpec.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ShortExactSequenceSpec, "__new__", staticmethod(counting_new))
    splice_ses(MonadShape(*(INSTANTON_MONAD[k] for k in "abc")), (-8, 0))
    assert len(built) == 0  # a monad is solved from its degree lists, building no node
    built.clear()
    recipe_table(EXTENSION_OVER_TWO_CONICS, (-8, 0))
    assert len(built) == 2  # the extension and the ideal


def test_lowest_failing_twist_raises():
    # the instanton middle fails at t=1, the non-generic cubic at t=-2
    node = {
        "kind": "ses",
        "unknown": "left",
        "middle": INSTANTON_MONAD,
        "right": {"kind": "twist", "n": 2, "of": dict(ELLIPTIC, generic=False)},
    }
    with pytest.raises(AmbiguousCurveModuleError):
        recipe_table(node, (-3, 1))
    with pytest.raises(SequenceInfeasibleError, match=r"h0 of the left column \(3\)"):
        recipe_table(node, (-1, 1))


# genus-1 degree t is special at t = 0; genus-2 degree t + 4 from t = -4 to -2
FAILS_AT_ZERO, FAILS_AT_MINUS_FOUR = CurveModule(1, 1, 0, False), CurveModule(2, 1, 3, False)


@pytest.mark.parametrize("node", [
    DirectSum((FAILS_AT_ZERO, FAILS_AT_MINUS_FOUR)),
    DirectSum((FAILS_AT_MINUS_FOUR, FAILS_AT_ZERO)),
    ShortExactSequenceSpec(middle=FAILS_AT_ZERO, right=FAILS_AT_MINUS_FOUR),
    ShortExactSequenceSpec(middle=FAILS_AT_MINUS_FOUR, right=FAILS_AT_ZERO),
], ids=["sum", "sum-swapped", "ses", "ses-swapped"])
def test_the_lowest_failing_twist_raises_whatever_the_order_of_the_faults(node):
    # the walk meets the fault at t = 0 first in half of these
    with pytest.raises(AmbiguousCurveModuleError) as err:
        splice_ses(node, (-6, 0))
    assert str(err.value) == ("degree 0 lies in the special strip of a genus-2 curve "
                              "and the module is not declared generic")


def test_a_recursion_error_is_not_walked_again(monkeypatch, capsys, tmp_path):
    import sheafspectra.sheafcalc as sheafcalc
    from sheafspectra.cli import main

    evaluate, columns = sheafcalc._evaluate, []
    monkeypatch.setattr(sheafcalc, "_evaluate", lambda column, rng: evaluate(
        lambda twists: columns.append(twists) or column(twists), rng))
    # a fault is walked again one twist at a time, up to the lowest failing one
    with pytest.raises(AmbiguousCurveModuleError):
        splice_ses(FAILS_AT_MINUS_FOUR, (-6, 0))
    assert columns == [range(-6, 1), range(-6, -5), range(-5, -4), range(-4, -3)]
    deep = LineBundle(0)
    for _ in range(2 * sys.getrecursionlimit()):
        deep = Twist(deep, 0)
    columns.clear()
    with pytest.raises(RecursionError):
        splice_ses(deep, (-6, 0))
    assert columns == [range(-6, 1)]
    # the CLI still names it, when the recipe it reads evaluates that deep
    monkeypatch.setattr(sheafcalc, "symbol_from_json", lambda node: deep)
    (tmp_path / "recipe.json").write_text('{"kind": "line", "a": 0}')
    columns.clear()
    assert main(["splice", "--spec", str(tmp_path / "recipe.json")]) == 1
    assert capsys.readouterr().err == "error: input is nested too deeply\n"
    assert len(columns) == 1


# ------------------------------------------------------------- column evaluation


def test_each_node_is_evaluated_once_per_range(monkeypatch):
    import sheafspectra.sheafcalc as sheafcalc

    rows, calls = sheafcalc._rows, []
    monkeypatch.setattr(sheafcalc, "_rows",
                        lambda node, twists: calls.append(node) or rows(node, twists))
    record, = [r for r in bundled_records() if r["name"] == "T(-1,2,4,2)"]
    node = symbol_from_json(record["construction"])
    visits = []
    for rng in [(-8, 0), (-8, 2)]:
        calls.clear()
        splice_ses(node, rng)
        visits.append(len(calls))
    # the quotient, its ambient, O(-1), the ideal, O, the conic and the points
    assert visits == [7, 7]


@pytest.mark.parametrize("monad", [INSTANTON_MONAD, EIN_MONAD])
def test_a_monad_is_evaluated_in_one_visit_per_range(monkeypatch, monad):
    import sheafspectra.sheafcalc as sheafcalc

    rows, calls = sheafcalc._rows, []
    monkeypatch.setattr(sheafcalc, "_rows",
                        lambda node, twists: calls.append(node) or rows(node, twists))
    node = symbol_from_json(monad)
    visits = []
    for rng in [(-8, 0), (-3, 0)]:
        calls.clear()
        splice_ses(node, rng)
        visits.append(len(calls))
    assert visits == [1, 1]  # its three line-bundle sums are columns, not nodes


def test_splice_bounds_evaluates_each_known_slot_once_per_range(monkeypatch):
    import sheafspectra.sheafcalc as sheafcalc

    rows, calls = sheafcalc._rows, []
    monkeypatch.setattr(sheafcalc, "_rows",
                        lambda node, twists: calls.append(node) or rows(node, twists))
    visits = []
    for rng in [(-8, 0), (-8, 2)]:
        calls.clear()
        splice_bounds(EXTENSION_NODE, rng)
        visits.append(len(calls))
    # O(-2); the twist, the ideal, O, the sum and its two conics: once for both ends
    assert visits == [7, 7]


# each fails first at a twist inside the range, where the lower twists are feasible
LATE_FAILURES = [
    # h3 of O(t - 1) exceeds h3 of 3 O(t) from t = -4 up
    (ShortExactSequenceSpec(middle=DirectSum([LineBundle(0)] * 3), right=LineBundle(-1)),
     (-8, 0), -4),
    # h0 of O(t + 1) exceeds h0 of 3 O(t) from t = -1 up
    (ShortExactSequenceSpec(left=LineBundle(1), middle=DirectSum([LineBundle(0)] * 3)),
     (-4, 1), -1),
]


@pytest.mark.parametrize("splice", [splice_ses, splice_bounds])
@pytest.mark.parametrize("spec,rng,first", LATE_FAILURES)
def test_a_slot_raises_the_per_twist_message_of_its_first_failure(splice, spec, rng, first):
    for t in range(rng[0], first):
        _solve(*_blocks(spec, t))
    with pytest.raises(SequenceInfeasibleError) as want:
        _solve(*_blocks(spec, first))
    with pytest.raises(SequenceInfeasibleError) as err:
        splice(spec, rng)
    assert str(err.value) == str(want.value)
    assert splice(spec, (rng[0], first - 1))


INFEASIBLE = ShortExactSequenceSpec(left=LineBundle(0), middle=LineBundle(-1))


@pytest.mark.parametrize("splice", [splice_ses, splice_bounds])
@pytest.mark.parametrize(
    "rng,text",
    [((0, -1), "empty twist range [0, -1]"), ((True, 2), "bad twist range [True, 2]"),
     ((0.0, 1), "bad twist range [0.0, 1]"), ((0, 1.0), "bad twist range [0, 1.0]")],
)
def test_a_bad_range_is_refused_before_anything_is_evaluated(splice, rng, text):
    # INFEASIBLE fails at every twist >= 0, so an evaluated node would raise first
    with pytest.raises(ValueError) as err:
        splice(INFEASIBLE, rng)
    assert str(err.value) == text


# The per-twist evaluator that columns replaced, kept as the reference: it
# walks the whole node once per twist, lowest twist first, so the error
# raised is the one a depth-first walk of the lowest failing twist meets first.

def _row(node, t: int) -> tuple:
    """Row (h0, h1, h2, h3) of any construction node at twist t."""
    if isinstance(node, LineBundle):
        chi = line_bundle_chi(node.a, t)
        d = node.a + t
        return (chi if d >= 0 else 0, 0, 0, -chi if d <= -4 else 0)
    if isinstance(node, DirectSum):
        rows = [_row(term, t) for term in node.terms]
        return tuple(map(sum, zip((0, 0, 0, 0), *rows)))  # an empty sum is zero
    if isinstance(node, ShortExactSequenceSpec):
        return _solve(*_blocks(node, t))
    if isinstance(node, PointSheaf):
        return (node.n, 0, 0, 0)
    if isinstance(node, CurveModule):
        chi = node.slope * t + node.offset
        deg = chi + node.genus - 1
        if 0 <= deg <= 2 * node.genus - 2 and not node.generic:
            raise AmbiguousCurveModuleError(
                f"degree {deg} lies in the special strip of a genus-{node.genus} "
                "curve and the module is not declared generic"
            )
        return (max(chi, 0), max(-chi, 0), 0, 0)
    if isinstance(node, MonadShape):
        return _row(monad_sequence(node), t)
    if isinstance(node, Twist):
        return _row(node.of, t + node.n)
    raise TypeError(f"not a sheaf symbol: {node!r}")


def monad_sequence(monad) -> ShortExactSequenceSpec:
    """0 -> sum O(a) -> K -> E -> 0, with 0 -> K -> sum O(b) -> sum O(c) -> 0."""
    bundle = lambda degrees: DirectSum(LineBundle(d) for d in degrees)
    kernel = ShortExactSequenceSpec(middle=bundle(monad.b), right=bundle(monad.c))
    return ShortExactSequenceSpec(left=bundle(monad.a), middle=kernel)


# the known rows (a, b), in slot order, as the block entries (p, q)
_BLOCKS = {
    "left": lambda m, r: ((0,) + m, (0,) + r),
    "middle": lambda l, r: ((0,) + r, l + (0,)),
    "right": lambda l, m: (l + (0,), m + (0,)),
}


def _solve(p: tuple, q: tuple, ranks=None) -> tuple:
    """Unknown column between the blocks p_k -> q_k; free ranks default maximal."""
    if p[0] > q[0]:
        raise SequenceInfeasibleError(
            f"h0 of the left column ({p[0]}) exceeds h0 of the middle ({q[0]})"
        )
    if q[4] > p[4]:
        raise SequenceInfeasibleError(
            f"h3 of the right column ({q[4]}) exceeds h3 of the middle ({p[4]})"
        )
    if ranks is None:
        ranks = [a if a < b else b for a, b in zip(p[1:4], q[1:4])]
    x = (p[0], *ranks, q[4])
    return tuple([a - b + c - d for a, b, c, d in zip(q, x, p[1:], x[1:])])


def _blocks(spec, t: int) -> tuple:
    a, b = [_row(slot, t) for slot in spec if slot is not None]
    return _BLOCKS[spec.unknown](a, b)


def reference_bounds(spec, rng):
    out = {}
    for t in range(rng[0], rng[1] + 1):
        p, q = _blocks(spec, t)
        out[t] = tuple(zip(_solve(p, q), _solve(p, q, (0, 0, 0))))
    return out


def per_twist_rows(node, twists):
    # the whole node walked once per twist; splice_ses and construction_spectrum
    # call the evaluator on their node only, so patched in they read as before
    return [_row(node, t) for t in twists]


@st.composite
def monads(draw):
    # b has up to 8 entries, as many as the instanton's
    a = draw(st.lists(st.integers(-3, 0), max_size=3))
    c = draw(st.lists(st.integers(0, 3), max_size=3))
    n = len(a) + len(c) + 2
    return MonadShape(a, draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)), c)


def sums(nodes):
    # up to 8 terms: up to 3 nodes of any kind shuffled among line bundles of
    # three degrees, so that degrees repeat and line bundles mix with other terms
    lines = st.integers(-1, 1).map(LineBundle)
    return st.lists(nodes, max_size=3).flatmap(
        lambda others: st.lists(lines, max_size=8 - len(others)).flatmap(
            lambda more: st.permutations(others + more))).map(DirectSum)


def sequence(slots):
    first, second, unknown = slots
    known = [name for name in ("left", "middle", "right") if name != unknown]
    return ShortExactSequenceSpec(**dict(zip(known, (first, second))))


# every kind of node, nested; curves of genus 1 and 2 that are not generic
# fail inside their special strip, many sequences (monads among them) are
# infeasible, and a monad of any class evaluates
NODES = st.recursive(
    st.one_of(
        st.integers(-4, 3).map(LineBundle),
        st.integers(0, 3).map(PointSheaf),
        st.builds(CurveModule, st.integers(0, 2), st.integers(1, 3),
                  st.integers(-4, 4), st.booleans()),
        monads(),
    ),
    lambda nodes: st.one_of(
        sums(nodes),
        st.builds(Twist, nodes, st.integers(-3, 3)),
        st.tuples(nodes, nodes, st.sampled_from(["left", "middle", "right"])).map(sequence),
    ),
    max_leaves=6,
)


@given(NODES, st.integers(-9, 3), st.integers(0, 6))
@settings(deadline=None, max_examples=300)
def test_columns_match_the_per_twist_reference(node, lo, length):
    import sheafspectra.sheafcalc as sheafcalc

    rng = (lo, lo + length)
    columns = [outcome(splice_ses, node, rng), outcome(construction_spectrum, node)]
    with mock.patch.object(sheafcalc, "_rows", per_twist_rows):
        assert columns == [outcome(splice_ses, node, rng), outcome(construction_spectrum, node)]
    if isinstance(node, ShortExactSequenceSpec):
        assert outcome(splice_bounds, node, rng) == outcome(reference_bounds, node, rng)


def structural_rank(node) -> int:
    """Rank of a node from its shape alone, without evaluating it."""
    if isinstance(node, LineBundle):
        return 1
    if isinstance(node, (PointSheaf, CurveModule)):
        return 0
    if isinstance(node, DirectSum):
        return sum(map(structural_rank, node.terms))
    if isinstance(node, MonadShape):
        return 2
    if isinstance(node, Twist):
        return structural_rank(node.of)
    first, second = [structural_rank(slot) for slot in node if slot is not None]
    return {"left": first - second, "middle": first + second, "right": second - first}[
        node.unknown]


@given(NODES, st.integers(-9, 0), st.integers(3, 6))
@settings(deadline=None, max_examples=300)
def test_chi_of_every_node_is_a_cubic_led_by_its_rank(node, lo, length):
    # the class reader's premise: every four consecutive chi values have the
    # rank as their third difference, whatever ranks the policy chose
    import sheafspectra.sheafcalc as sheafcalc

    rows = []
    for t in range(lo, lo + length + 1):  # the twists below the first failing one
        try:
            rows += sheafcalc._rows(node, range(t, t + 1))
        except SheafSpectraError:
            break
    assume(len(rows) >= 4)
    chi = [h0 - h1 + h2 - h3 for h0, h1, h2, h3 in rows]
    ranks = {w - 3 * z + 3 * y - x for x, y, z, w in zip(chi, chi[1:], chi[2:], chi[3:])}
    assert ranks == {structural_rank(node)}


# up to 6 twists' rows of small entries for the two known slots
KNOWN_PAIRS = st.lists(st.tuples(*[st.tuples(*[st.integers(0, 6)] * 4)] * 2), max_size=6)


@given(st.sampled_from(["left", "middle", "right"]), st.booleans(), KNOWN_PAIRS)
@settings(deadline=None, max_examples=300)
def test_the_solver_matches_the_per_twist_reference_on_any_rows(slot, maximal, pairs):
    # rows no node reaches: the reference walks the twists and raises at the
    # first infeasible one
    import sheafspectra.sheafcalc as sheafcalc

    def reference():
        return [_solve(*_BLOCKS[slot](u, v), None if maximal else (0, 0, 0)) for u, v in pairs]

    known = [[u for u, _ in pairs], [v for _, v in pairs]]
    assert outcome(sheafcalc._solve, slot, known, maximal) == outcome(reference)


def _chi_checked(make):
    # the twists whose rows _table chi-checks on each call make causes, and
    # those the rows themselves show fully known (what it checked when it scanned)
    calls, table = [], sheafcalc._table
    spy = lambda *args: calls.append(args) or table(*args)
    with mock.patch.object(sheafcalc, "_table", spy):
        outcome(make)
    return [(list(full), [t for t, row in rows.items() if None not in row])
            for lo, hi, rows, cc, full in calls if cc is not None]


@pytest.mark.parametrize("node,moduli", bundled_recipes())
def test_a_derived_recipe_chi_checks_exactly_its_fully_known_rows(node, moduli):
    (named, known), = _chi_checked(lambda: construction_spectrum(node))
    assert named == known


@given(normalised_monads(), st.sampled_from([(-8, 0), (-3, -1), (-5, 3)]))
@settings(max_examples=60, deadline=None)
def test_a_spliced_monad_chi_checks_every_row(shape, rng):
    for named, known in _chi_checked(lambda: splice_ses(shape, rng)):
        assert named == known == list(range(rng[0], rng[1] + 1))
