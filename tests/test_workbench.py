"""Tests for the component catalog, reports, pairs, gaps and examples."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafspectra import report_json, workbench
from sheafspectra.errors import (
    CatalogError,
    InadmissibleSpectrumError,
    ParityError,
    SequenceInfeasibleError,
    VerificationError,
)
from sheafspectra.invariants import ChernClasses
from sheafspectra.sheafcalc import symbol_from_json
from sheafspectra.spectrum import ChainUpParam, enumerate_spectra
from sheafspectra.workbench import (
    DOCUMENTED_CANDIDATES,
    Catalog,
    catalog_load,
    check_slope_examples,
    component_report,
    rao_pairs,
    realizability_gap,
    report_markdown,
    slope_examples_markdown,
)
from sheafspectra.workbench import _family_invariants

M2 = ChernClasses(-1, 2, 0)
M3 = ChernClasses(0, 3, 0)


def bundled_records():
    import importlib.resources as resources

    text = resources.files("sheafspectra").joinpath("data/catalog.json").read_text()
    return json.loads(text)["components"]


# ------------------------------------------------------------- loading


def test_bundled_catalog_shape():
    catalog = catalog_load()
    assert len(catalog.components) == 14
    assert sorted({d.moduli.as_tuple() for d in catalog.components}) == [(-1, 2, 0), (0, 3, 0)]
    assert len(catalog.for_moduli(M2)) == 4
    assert len(catalog.for_moduli(M3)) == 10


def test_empty_catalog():
    assert catalog_load([]).components == ()
    assert catalog_load({"components": []}).components == ()


@pytest.mark.parametrize("source, text", [
    ({}, 'catalog document needs a "components" list'),
    ({"components": 5}, 'catalog document needs a "components" list'),
    (5, "cannot load a catalog from int"),
    ([5], "component record must be an object, got 5"),
    ([{"name": ""}], "component without a usable name: {'name': ''}"),
    ([{"name": 5}], "component without a usable name: {'name': 5}"),
], ids=["no-components", "components-int", "int", "record-int", "name-empty", "name-int"])
def test_a_catalog_that_is_not_a_list_of_named_records_is_refused(source, text):
    with pytest.raises(CatalogError) as err:
        catalog_load(source)
    assert str(err.value) == text


def test_catalog_from_file(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"components": bundled_records()[:4]}))
    assert len(catalog_load(str(path)).components) == 4


def test_catalog_rejects_broken_json(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text("{not json")
    with pytest.raises(CatalogError):
        catalog_load(str(path))


def test_catalog_string_is_always_a_path(tmp_path, monkeypatch):
    # a file name starting with "[" or "{" is still a file name
    path = tmp_path / "[v2] catalog.json"
    path.write_text(json.dumps(bundled_records()))
    monkeypatch.chdir(tmp_path)
    assert len(catalog_load("[v2] catalog.json").components) == 14
    with pytest.raises(FileNotFoundError):
        catalog_load("[]")  # JSON text is read as a file name


@pytest.mark.parametrize("index,level", [(0, "derived"), (7, "data")])
def test_level_follows_the_construction(index, level):
    # C(2) has a recipe and X(0,2,2,2,0) none; the row's level needs no JSON key
    record = bundled_records()[index]
    record.pop("level")
    catalog = catalog_load([record])
    (row,) = component_report(catalog, catalog.components[0].moduli)["components"]
    assert (row["level"], row["verified"]) == (level, level == "derived")


@pytest.mark.parametrize(
    "index,mutation",
    [(1, m) for m in (  # the X component, fully closed-form
        {"dimension": 12},
        {"s": 1},
        {"spectrum": [-1, -1]},
        {"family": "Y"},
        {"params": None},
        {"moduli": [-1, 2, 2]},
        {"level": "guessed"},
        {"spectrum": [0, -1]},
        {"s": -1},
        {"spectrum": []},
        {"moduli": [-1, 0, 0]},
    )] + [
        (0, {"level": "data"}),  # C(2) has a recipe
        (7, {"level": "derived"}),  # X(0,2,2,2,0) has none
        (0, {"dimension": 10}),  # below C(2)'s expected dimension 11
    ],
)
def test_tampered_records_fail_named(index, mutation):
    record = dict(bundled_records()[index])
    record.update(mutation)
    with pytest.raises(CatalogError) as err:
        catalog_load([record])
    assert record["name"] in str(err.value)


def test_a_misspelt_field_is_refused_named():
    # read as a record without a recipe, C(2) would be reported unverified
    record = bundled_records()[0]
    record["constructon"] = record.pop("construction")
    del record["level"]
    with pytest.raises(CatalogError) as err:
        catalog_load([record])
    assert str(err.value) == "component 'C(2)': unknown field 'constructon'"


@pytest.mark.parametrize(
    "moduli,spectrum,s",
    [
        ([-1, 2, 0], [-2, 0], 1),  # -2 without -1 breaks the chain-down rule
        ([0, 1, -4], [0], 2),  # s above the general bound 1 for c2 = 1
        ([0, 1, 2], [-3], 2),  # both
        # a deep entry is refused off the count of its negative values: the pair
        # list of the retired validate_chain_down walked all of [k, -1]
        ([0, 1, 2 * 10**9], [-10**9], 0),
    ],
)
def test_an_inadmissible_spectrum_is_refused_at_load(moduli, spectrum, s):
    record = dict(moduli=moduli, name="N", family="monad", dimension=1,
                  spectrum=spectrum, s=s)
    with pytest.raises(CatalogError) as err:
        catalog_load([record])
    assert str(err.value) == (
        f"component 'N': spectrum {tuple(spectrum)}, s={s} "
        "breaks the chain-down rule or the bound on s"
    )


@pytest.mark.parametrize("field, value", [
    ("moduli", {-1: 0, 2: 0, 0: 0}), ("spectrum", {-1: 0, 0: 0}), ("spectrum", {-1, 0}),
], ids=["moduli-mapping", "spectrum-mapping", "spectrum-set"])
def test_a_record_refuses_a_mapping_or_a_set_where_an_array_belongs(field, value):
    # read as its keys, a mapping gave the class (-1, 2, 0) and the spectrum (-1, 0): C(2)
    record = {**bundled_records()[0], field: value}
    with pytest.raises(CatalogError) as err:
        catalog_load([record])
    assert str(err.value) == f"component 'C(2)': {field} must be a list or tuple, got {value!r}"


def test_a_t_record_whose_params_move_its_class_is_refused():
    # m enters c3 = m - 2s but not the dimension 8n - 3 + 2e + 4s
    record = bundled_record("T(-1,2,2,1)")
    record["params"] = {**record["params"], "m": 4}
    with pytest.raises(CatalogError) as err:
        catalog_load([record])
    assert str(err.value) == (
        "component 'T(-1,2,2,1)': closed-form moduli (-1, 2, 2) != stored (-1, 2, 0)")


def test_duplicate_names_rejected():
    record = bundled_records()[0]
    with pytest.raises(CatalogError):
        catalog_load([record, record])


@pytest.mark.parametrize(
    "index,mutation",
    [
        (0, {"s": 0.9}),
        (0, {"moduli": [-1.0, 2, 0]}),
        (0, {"spectrum": ["-1", 0]}),
        (0, {"dimension": True}),
        (1, {"params": {"n": 1.0, "m": 1, "r": 1, "s": 0}}),  # the X component
    ],
)
def test_record_fields_are_not_coerced(index, mutation):
    record = dict(bundled_records()[index])
    record.update(mutation)
    with pytest.raises(CatalogError) as err:
        catalog_load([record])
    assert record["name"] in str(err.value)


def family_record(family):
    return next(r for r in bundled_records() if r["family"] == family)


@pytest.mark.parametrize("family", ["reflexive-extension", "monad", "quotient-sequence"])
def test_params_are_refused_where_no_closed_form_reads_them(family):
    record = dict(family_record(family), params={"junk": "x"})
    with pytest.raises(CatalogError, match="takes no params") as err:
        catalog_load([record])
    assert record["name"] in str(err.value)
    record.pop("params")
    assert catalog_load([record]).components[0].params is None


def records_with_recipe(name, construction):
    records = bundled_records()
    for record in records:
        if record["name"] == name:
            record["construction"] = construction
    return records


@pytest.mark.parametrize("construction", [{"kind": "bogus"}, [1, 2]], ids=["bogus", "list"])
def test_broken_recipe_fails_at_load_named(construction):
    # checked when the catalog is read, not first when a report runs it
    with pytest.raises(CatalogError) as err:
        catalog_load(records_with_recipe("C(2)", construction))
    assert str(err.value).startswith("component 'C(2)': ")


# ----------------------------------------------------- closed dimensions


def bundled_record(name):
    return next(r for r in bundled_records() if r["name"] == name)


@pytest.mark.parametrize(
    "name,want",
    [("X(-1,1,1,1,0)", 11), ("X(0,2,4,2,1)", 26), ("T(-1,2,4,2)", 19), ("T(0,3,8,4)", 37)],
)
def test_closed_form_dimension(name, want):
    record = bundled_record(name)
    assert catalog_load([record]).components[0].dimension == want
    record["dimension"] = want + 1
    with pytest.raises(CatalogError, match=f"closed-form dimension {want} != stored {want + 1}"):
        catalog_load([record])


def expected_dimension(cc):
    # 1 - chi(E, E) = ext1 - ext2 for a stable E, by Riemann-Roch
    return 8 * cc.c2 - 2 * cc.e ** 2 - 3


@pytest.mark.parametrize("record", bundled_records(), ids=lambda r: r["name"])
def test_every_bundled_record_loads_at_or_above_its_expected_dimension(record):
    want = expected_dimension(ChernClasses(*record["moduli"]))
    assert catalog_load([record]).components[0].dimension >= want
    with pytest.raises(CatalogError) as err:
        catalog_load([dict(record, dimension=want - 1)])
    assert str(err.value) == (
        f"component {record['name']!r}: dimension {want - 1} below the expected dimension {want}"
    )


def test_closed_forms_exceed_the_expected_dimension_by_their_excess():
    # 4s for T and 4s + 2r - 3 + e + 2e^2 for X, never negative where the
    # class passes ChernClasses; the e = 0 special X tuple (r,s,n,m) = (1,0,1,1)
    # would be -1, but its class (0,2,1) breaks parity
    cases = [("X", dict(n=n, m=m, r=r, s=s), e, 4 * s + 2 * r - 3 + e + 2 * e * e)
             for e, n, m, r, s in itertools.product((-1, 0), range(5), range(9),
                                                     range(1, 5), range(10))]
    cases += [("T", dict(n=n, m=m, s=s), e, 4 * s)
              for e, n, m, s in itertools.product((-1, 0), range(5), range(9), range(5))]
    checked = {"X": 0, "T": 0}
    for family, params, e, excess in cases:
        try:
            dim, classes = _family_invariants(family, params, e)
            cc = ChernClasses(*classes)
        except (ValueError, ParityError):
            continue
        assert dim - expected_dimension(cc) == excess >= 0, (family, params, e)
        checked[family] += 1
    assert checked == {"X": 660, "T": 110}


@pytest.mark.parametrize(
    "name,params",
    [
        ("X(0,2,2,2,0)", {"n": 2, "m": 2, "r": 1, "s": 0}),  # r=1 needs n=m=1
        ("X(0,2,2,2,0)", {"n": 2, "m": 2, "r": 2, "s": 5}),  # s above 2r+2+e-m
        ("T(0,3,2,1)", {"n": 3, "m": 2, "s": 2}),  # c3 would go negative
    ],
)
def test_closed_form_parameter_range_errors(name, params):
    with pytest.raises(CatalogError, match="parameters out of range") as err:
        catalog_load([dict(bundled_record(name), params=params)])
    assert name in str(err.value)


@pytest.mark.parametrize("name,key,value", [("T(0,3,2,1)", "r", 7), ("X(0,2,2,2,0)", "t", 1)])
def test_a_param_no_closed_form_reads_is_refused(name, key, value):
    # T reads n, m, s and X reads n, m, r, s; any other key is a misspelling
    record = bundled_record(name)
    stray = dict(record, params={**record["params"], key: value})
    with pytest.raises(CatalogError) as err:
        catalog_load([stray])
    assert str(err.value) == f"component {name!r}: unknown {name[0]}-family param {key!r}"
    assert catalog_load([record]).components[0].params == record["params"]


# ------------------------------------------------------------- reports


def test_report_rows_sorted_and_verified():
    report = component_report(catalog_load(), M2)
    assert [r["name"] for r in report["components"]] == [
        "C(2)",
        "X(-1,1,1,1,0)",
        "T(-1,2,2,1)",
        "T(-1,2,4,2)",
    ]
    assert [r["dimension"] for r in report["components"]] == [11, 11, 15, 19]
    assert all(r["verified"] for r in report["components"])


def test_report_matches_published_rows():
    report = component_report(catalog_load(), M3)
    rows = {r["name"]: r for r in report["components"]}
    assert len(rows) == 10
    assert rows["Instanton"]["spectrum"] == [0, 0, 0]
    assert rows["Ein"]["spectrum"] == [-1, 0, 1]
    assert rows["T(0,3,8,4)"]["dimension"] == 37
    verified = {name for name, r in rows.items() if r["verified"]}
    assert verified == {"Instanton", "Ein", "C"}


def test_report_empty_class():
    report = component_report(catalog_load(), ChernClasses(0, 1, 0))
    assert report["components"] == []


def test_report_json_is_deterministic():
    report = component_report(catalog_load(), M3)
    text = report_json(report)
    assert text == report_json(json.loads(text))
    assert text == report_json(component_report(catalog_load(), M3))


def test_report_markdown_layout():
    text = report_markdown(component_report(catalog_load(), M2))
    lines = text.splitlines()
    assert lines[0] == "| Component | Dimension | Spectrum | s | Level | Verified |"
    assert "| C(2) | 11 | (-1,0) | 0 | derived | yes |" in lines


INSTANTON_MISMATCH = (
    "component 'Instanton': construction gives (0, 3, 0), (0, 0, 0), s=0; "
    "catalog stores (0, 3, 0), (-1, 0, 1), s=0"
)


def test_catalog_load_refuses_a_record_its_recipe_contradicts():
    records = bundled_records()
    for record in records:
        if record["name"] == "Instanton":
            record["spectrum"] = [-1, 0, 1]  # c3 identity still holds
    with pytest.raises(VerificationError) as err:
        catalog_load(records)
    assert str(err.value) == INSTANTON_MISMATCH


def test_report_catches_a_recipe_of_another_class():
    # T(-1,2,2,1) with its recipe, claimed for (0,2,2); the stored (-1,-1),
    # s = 1 passes the c3 identity there too, so only the recipe's class can tell
    records = bundled_records()
    record = dict(next(r for r in records if r["name"] == "T(-1,2,2,1)"))
    record.update(name="relabelled", moduli=[0, 2, 2], family="quotient-sequence")
    del record["params"]
    with pytest.raises(VerificationError) as err:
        catalog_load(records + [record])
    assert str(err.value).startswith("component 'relabelled': construction gives (-1, 2, 0)")


def wrong_instanton():
    # Instanton's recipe gives (0, 0, 0); the stored (-1, 0, 1) keeps the c3 identity
    return [d._replace(spectrum=d.spectrum._replace(values=(-1, 0, 1)))
            if d.name == "Instanton" else d for d in catalog_load().components]


def test_a_catalog_built_from_descriptors_is_verified():
    with pytest.raises(VerificationError) as err:
        Catalog(wrong_instanton())
    assert str(err.value) == INSTANTON_MISMATCH


def test_replace_verifies_the_new_components():
    good = catalog_load()
    with pytest.raises(VerificationError) as err:
        good._replace(components=wrong_instanton())
    assert str(err.value) == INSTANTON_MISMATCH


def test_a_catalog_has_no_instance_dict():
    assert not hasattr(catalog_load(), "__dict__")


def test_descriptor_keeps_the_node_read_from_its_recipe():
    records = bundled_records()
    descs = catalog_load(records).components
    assert sum(d.construction is not None for d in descs) == 7
    for record, desc in zip(records, descs):
        recipe = record.get("construction")
        assert desc.construction == (None if recipe is None else symbol_from_json(recipe))


def test_reports_parse_no_recipe(monkeypatch):
    import sheafspectra.sheafcalc as sheafcalc

    catalog = catalog_load()

    def refuse(node):
        raise AssertionError(f"recipe parsed again: {node!r}")

    monkeypatch.setattr(sheafcalc, "symbol_from_json", refuse)
    verified = {r["name"] for cc in (M2, M3)
                for r in component_report(catalog, cc)["components"] if r["verified"]}
    assert verified == {"C(2)", "X(-1,1,1,1,0)", "T(-1,2,2,1)", "T(-1,2,4,2)",
                        "Instanton", "Ein", "C"}


# parses, but at t = -8 O(-5) has more h3 than O, so there is no O ->> O(-5)
INFEASIBLE_RECIPE = {"kind": "ses", "unknown": "left", "middle": {"kind": "line", "a": 0},
                     "right": {"kind": "line", "a": -5}}


def test_recipe_failure_names_the_component():
    records = records_with_recipe("C(2)", INFEASIBLE_RECIPE)
    for _ in range(2):  # an error is not memoised, so the second load fails alike
        with pytest.raises(SequenceInfeasibleError) as err:  # class kept for the exit code
            catalog_load(records)
        assert str(err.value) == (
            "component 'C(2)': h3 of the right column (220) exceeds h3 of the middle (35)"
        )


# O + O has no surjection onto a curve module of negative degree; the rows
# still invert, to (-2,-2,-2) with s = 0, which misses -1 under chain-down
KERNEL_ONTO_NEGATIVE_CUBIC = {
    "kind": "ses",
    "unknown": "left",
    "middle": {"kind": "sum", "terms": [{"kind": "line", "a": 0}] * 2},
    "right": {"kind": "rational_curve", "d": 3, "b": -1},
}


def count_derivations(monkeypatch) -> list:
    # a catalog imports construction_spectrum from sheafcalc as it derives
    import sheafspectra.sheafcalc as sheafcalc

    derive, calls = sheafcalc.construction_spectrum, []
    monkeypatch.setattr(sheafcalc, "construction_spectrum",
                        lambda node: calls.append(node) or derive(node))
    return calls


def test_every_load_derives_a_failing_recipe_again(monkeypatch):
    records = records_with_recipe("C(2)", KERNEL_ONTO_NEGATIVE_CUBIC)
    calls = count_derivations(monkeypatch)
    for _ in range(2):
        with pytest.raises(InadmissibleSpectrumError) as err:
            catalog_load(records)
        assert str(err.value) == (
            "component 'C(2)': spectrum (-2, -2, -2), s=0 "
            "breaks the chain-down rule or the bound on s"
        )
    assert len(calls) == 2  # a failure is not remembered


def test_each_catalog_derives_its_recipes_once(monkeypatch):
    calls = count_derivations(monkeypatch)
    first = catalog_load()
    assert len(calls) == 7  # every recipe, in catalog order, while loading
    second = catalog_load()
    nodes = [d.construction for catalog in (first, second) for d in catalog.components
             if d.construction is not None]
    assert len(nodes) == 14
    assert list(map(id, calls)) == list(map(id, nodes))
    for catalog in (first, second, first, second):
        for cc in (M2, M3):
            component_report(catalog, cc)
    assert len(calls) == 14  # the 8 reports derive nothing


def count_rows(monkeypatch) -> list:
    import sheafspectra.sheafcalc as sheafcalc

    rows, calls = sheafcalc._rows, []
    monkeypatch.setattr(sheafcalc, "_rows",
                        lambda node, twists: calls.append(twists) or rows(node, twists))
    return calls


def test_a_report_evaluates_nothing(monkeypatch):
    catalog = catalog_load()
    calls = count_rows(monkeypatch)
    first = [component_report(catalog, cc) for cc in (M2, M3)]
    assert [component_report(catalog, cc) for cc in (M2, M3)] == first
    assert calls == []
    # a reloaded catalog holds fresh nodes, which its load derives again
    reloaded = catalog_load()
    assert calls
    del calls[:]
    assert [component_report(reloaded, cc) for cc in (M2, M3)] == first
    assert calls == []


# ------------------------------------------------------------- rao pairs


def test_rao_pairs_fixed_classes():
    catalog = catalog_load()
    assert rao_pairs(catalog, M2) == [("C(2)", "X(-1,1,1,1,0)")]
    assert rao_pairs(catalog, M3) == [
        ("C", "Instanton"),
        ("Ein", "X(0,2,2,2,0)"),
    ]


def test_rao_pairs_invariant_under_reordering():
    records = bundled_records()
    straight = rao_pairs(catalog_load(records), M3)
    reversed_ = rao_pairs(catalog_load(records[::-1]), M3)
    assert straight == reversed_


def test_rao_pairs_single_component():
    catalog = catalog_load([bundled_records()[0]])
    assert rao_pairs(catalog, M2) == []


@given(st.permutations(range(14)))
@settings(max_examples=20, deadline=None)
def test_rao_pairs_order_free(order):
    records = bundled_records()
    catalog = catalog_load([records[i] for i in order])
    for moduli in (M2, M3):
        pairs = rao_pairs(catalog, moduli)
        assert pairs == sorted(pairs)
        assert all(a < b for a, b in pairs)


# ------------------------------------------------------------- gaps


def test_gap_is_closed_for_two_conics_class():
    assert realizability_gap(catalog_load(), M2) == ([], [])


def test_gap_for_triple_class():
    missing, extra = realizability_gap(catalog_load(), M3)
    assert set(extra) == {(-1, -1, -1), (-2, -1, 1), (-2, -1, 2), (-2, -1, 3)}
    assert {(-2, -2, -1), (-3, -2, -1)}.issubset(missing)
    assert len(missing) == 6


def test_documented_candidates_are_all_enumerated():
    for key, documented in DOCUMENTED_CANDIDATES.items():
        enumerated = {sw.values for sw in enumerate_spectra(ChernClasses(*key))}
        assert set(documented).issubset(enumerated)


def test_gap_soundness():
    catalog = catalog_load()
    for moduli in (M2, M3):
        missing, _ = realizability_gap(catalog, moduli)
        realized = {d.spectrum.values for d in catalog.for_moduli(moduli)}
        assert not realized.intersection(missing)


def test_gap_hard_failure_on_alien_spectrum():
    # (-3,-2) satisfies the c3 identity with s=4 but breaks the chain
    # rule, so it cannot appear in the enumeration: the loader refuses it
    alien = {
        "moduli": [-1, 2, 0],
        "name": "ghost",
        "family": "monad",
        "params": None,
        "dimension": 1,
        "spectrum": [-3, -2],
        "s": 4,
        "construction": None,
    }
    with pytest.raises(CatalogError, match=r"component 'ghost': spectrum \(-3, -2\), s=4"):
        catalog_load([alien])


def test_gap_fails_when_the_threshold_excludes_a_recorded_spectrum():
    # s_eh = 0 drops X(0,2,4,3,0)'s (-1,-1,2): its entry 2 needs a 1 beside it
    with pytest.raises(VerificationError, match=r"\[\(-1, -1, 2\)\] missing"):
        realizability_gap(catalog_load(), M3, ChainUpParam(0))


# ------------------------------------------------------------- examples


def test_slope_examples_report():
    report = check_slope_examples()
    rows = {(case["s"]): case for case in report["cases"]}
    assert rows[6]["spectrum"] == [-3, -2, -1]
    assert rows[6]["flagged"] and rows[6]["zero_dimensional_bound"] == 4
    assert rows[5]["spectrum"] == [-2, -2, -1]
    assert rows[5]["flagged"]
    assert rows[2]["spectrum"] == [-2, -1]
    assert not rows[2]["flagged"] and rows[2]["zero_dimensional_bound"] == 2
    assert rows[6]["kernel"] == [0, 3, 0] and rows[2]["kernel"] == [-1, 2, 0]


def test_slope_examples_enumerate_each_kernel_class_once(monkeypatch):
    # (0,3,12) onto 6 points and (0,3,10) onto 5 points share the kernel (0,3,0)
    enumerated = []
    spy = lambda cc: enumerated.append(cc) or enumerate_spectra(cc)
    monkeypatch.setattr(workbench, "enumerate_spectra", spy)
    check_slope_examples()
    assert enumerated == [M3, M2]


def test_slope_examples_markdown():
    text = slope_examples_markdown(check_slope_examples())
    assert "not Gieseker-semistable" in text
    assert "within bound" in text
