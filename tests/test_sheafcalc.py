"""Tests for building blocks, sequence splicing, monads and recipes."""

import json
from importlib import resources
from typing import NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sheafspectra.cohomology import CohomologyTable, table_from_spectrum
from sheafspectra.errors import (
    AmbiguousCurveModuleError,
    CatalogError,
    InadmissibleSpectrumError,
    InconsistentTableError,
    NotNormalizedError,
    RankMismatchError,
    SequenceInfeasibleError,
)
from sheafspectra.invariants import (
    ChernClasses,
    euler_characteristic,
    line_bundle_chi,
    splitting_type_from_e,
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
    construction_table,
    recipe_table,
    splice_bounds,
    splice_ses,
    symbol_from_json,
)
from sheafspectra.sheafcalc import _class_from_rows, _derivation
from sheafspectra.spectrum import SpectrumWithS

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
    assert table.entry(0, 0) == 0
    assert table.entry(2, 0) == 5  # quadrics through a conic


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
    assert all(table.entry(t, 1) == 0 for t in range(-6, 3))
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


# ------------------------------------------------------------- quotients


def test_point_quotient_of_one_conic_kernel():
    ambient = splice_ses(ONE_CONIC_NODE, (-8, 0))
    assert ambient.rows == EXTENSION_OVER_ONE_CONIC_ROWS
    assert _class_from_rows(ambient.rows) == ChernClasses(-1, 2, 2)
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
    assert construction_spectrum(node) == SpectrumWithS(values, s)


@pytest.mark.parametrize("node,e,values,s", PIPELINES)
def test_construction_tables_match_formula_tables(node, e, values, s):
    want = table_from_spectrum(
        SpectrumWithS(values, s), splitting_type_from_e(e), (-4, -1)
    )
    got = construction_table(node)
    assert got.rows == want.rows and got.cc == want.cc


def test_one_conic_kernel_pipeline_recovers_double_point_spectrum():
    node = {"kind": "quotient", "ambient": EXTENSION_OVER_ONE_CONIC,
            "quotient": {"kind": "points", "n": 1}}
    assert construction_spectrum(symbol_from_json(node)) == SpectrumWithS((-1, -1), 1)


def test_plane_cubic_sequence_rows():
    table = recipe_table(PLANE_CUBIC_SECTIONS, (-8, 0))
    assert table.entry(-1, 1) == 3
    assert all(table.entry(t, 1) == 0 for t in range(-8, -1))


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
    with pytest.raises(TypeError, match="not a sheaf symbol"):
        construction_table(EXTENSION_OVER_TWO_CONICS)


def _derived(node):
    try:
        return _derivation(node)
    except Exception as exc:  # the class and message are what is compared
        return type(exc), str(exc)


def test_value_equal_nodes_of_different_kinds_derive_apart():
    # LineBundle(1) == PointSheaf(1) as tuples, so these two compare equal
    onto_line = ShortExactSequenceSpec(middle=EXTENSION_NODE, right=LineBundle(1))
    onto_point = ShortExactSequenceSpec(middle=EXTENSION_NODE, right=PointSheaf(1))
    assert onto_line == onto_point
    assert _derived(onto_line) == (
        NotNormalizedError, "recipe has first Chern class -2; twist it by 1 to normalize it"
    )
    assert _derived(onto_point) == (ChernClasses(-1, 2, -2), SpectrumWithS((-1, 0), 1))


def test_a_deep_twist_chain_raises_recursion_error():
    # _row recurses once per twist
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


@pytest.mark.parametrize(
    "node,error,text",
    [
        (symbol_from_json(KERNEL_ONTO_NEGATIVE_CUBIC), InadmissibleSpectrumError,
         r"\(-2, -2, -2\), s=0"),
        # six points off C(2) give s = 6, one above the general bound for c2 = 2
        (symbol_from_json({"kind": "quotient", "ambient": EXTENSION_OVER_TWO_CONICS,
                           "quotient": {"kind": "points", "n": 6}}),
         InadmissibleSpectrumError, "s=6"),
        # O fits (0, 0, 0) at t = -3..-1, but rank 1 shows at t = 0
        (symbol_from_json({"kind": "line", "a": 0}), InconsistentTableError,
         "t=0 has chi 1, class demands 2"),
    ],
    ids=["negative-cubic-kernel", "six-points", "line"],
)
def test_pipeline_refuses_what_no_rank_2_class_explains(node, error, text):
    with pytest.raises(error, match=text):
        construction_spectrum(node)
    with pytest.raises(error, match=text):
        construction_table(node)


@pytest.mark.parametrize("k,twist", [(1, -1), (-1, 1), (2, -2)])
def test_an_unnormalized_recipe_is_told_its_normalizing_twist(k, twist):
    # Ein has c1 = 0, so Twist(ein, k) has c1 = 2k
    with pytest.raises(NotNormalizedError) as err:
        construction_spectrum(Twist(EIN_NODE, k))
    assert str(err.value) == (
        f"recipe has first Chern class {2 * k}; twist it by {twist} to normalize it"
    )
    normalized = Twist(Twist(EIN_NODE, k), twist)
    assert construction_spectrum(normalized) == SpectrumWithS((-1, 0, 1), 0)


def bundled_records():
    text = resources.files("sheafspectra").joinpath("data/catalog.json").read_text()
    records = json.loads(text)["components"]
    return [r for r in records if r.get("construction") is not None]


def bundled_recipes():
    return [pytest.param(symbol_from_json(r["construction"]), r["moduli"], id=r["name"])
            for r in bundled_records()]


@pytest.mark.parametrize("node,moduli", bundled_recipes())
def test_recipe_class_is_the_records_moduli(node, moduli):
    assert _derivation(node)[0] == ChernClasses(*moduli)


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
    assert _derivation(node)[0] == shape.chern() == ChernClasses(0, 3, 0)


@st.composite
def normalised_monads(draw):
    # the last degree of b makes c1 = e, so the series class is normalised
    a = draw(st.lists(st.integers(-3, 0), max_size=2))
    c = draw(st.lists(st.integers(0, 3), max_size=2))
    b = draw(st.lists(st.integers(-2, 2), min_size=len(a) + len(c) + 1,
                      max_size=len(a) + len(c) + 1))
    e = draw(st.sampled_from([-1, 0]))
    return MonadShape(a, b + [e + sum(a) + sum(c) - sum(b)], c)


@given(normalised_monads())
@settings(max_examples=60, deadline=None)
def test_fitted_class_matches_the_series_oracle(shape):
    try:
        table = splice_ses(shape, (-3, -1))
    except SequenceInfeasibleError:
        assume(False)  # only monads that evaluate
    assert _class_from_rows(table.rows) == shape.chern()


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


def _outcome(node, rng):
    try:
        table = splice_ses(node, rng)
    except Exception as exc:  # the class is what is compared
        return type(exc)
    return (table.lo, table.hi, table.rows, table.cc)


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

    row = sheafcalc._row
    monkeypatch.setattr(sheafcalc, "_row", lambda node, t: (
        node.table.row(t) if isinstance(node, Frozen) else row(node, t)))
    template, shift = TEMPLATES[position]
    inner = INNER[inner]
    rng = (-6, 0)
    frozen = Frozen(splice_ses(inner, (rng[0] + shift, rng[1] + shift)))
    assert _outcome(template(inner), rng) == _outcome(template(frozen), rng)


def test_nested_monad_rows_are_chi_checked(monkeypatch):
    import sheafspectra.sheafcalc as sheafcalc

    monkeypatch.setattr(sheafcalc, "chern_from_resolution",
                        lambda pos, neg: ChernClasses(0, 5, 0))
    node = {"kind": "ses", "unknown": "right", "left": EIN_MONAD,
            "middle": {"kind": "sum", "terms": [{"kind": "line", "a": 2}] * 4}}
    with pytest.raises(InconsistentTableError, match="t=-3"):
        recipe_table(node, (-3, 0))
    with pytest.raises(InconsistentTableError):
        recipe_table(EIN_MONAD, (-3, 0))


def test_sequences_are_built_once_per_node(monkeypatch):
    built, new = [], ShortExactSequenceSpec.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(ShortExactSequenceSpec, "__new__", staticmethod(counting_new))
    splice_ses(MonadShape(*(INSTANTON_MONAD[k] for k in "abc")), (-8, 0))
    assert len(built) == 2  # the kernel and the cokernel, not one per twist
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
