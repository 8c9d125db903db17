"""Tests for the component catalog, reports, pairs, gaps and examples."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheafspectra import report_json
from sheafspectra.errors import (
    CatalogError,
    InadmissibleSpectrumError,
    SequenceInfeasibleError,
    VerificationError,
)
from sheafspectra.invariants import ChernClasses
from sheafspectra.sheafcalc import symbol_from_json
from sheafspectra.spectrum import enumerate_spectra
from sheafspectra.workbench import (
    DOCUMENTED_CANDIDATES,
    Catalog,
    catalog_load,
    check_slope_examples,
    component_dimension,
    component_report,
    rao_pairs,
    realizability_gap,
    report_markdown,
    slope_examples_markdown,
)

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
    assert catalog.moduli_classes() == [(-1, 2, 0), (0, 3, 0)]
    assert len(catalog.for_moduli(M2)) == 4
    assert len(catalog.for_moduli(M3)) == 10


def test_empty_catalog():
    assert catalog_load([]).components == ()
    assert catalog_load({"components": []}).components == ()


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
    ],
)
def test_tampered_records_fail_named(index, mutation):
    record = dict(bundled_records()[index])
    record.update(mutation)
    with pytest.raises(CatalogError) as err:
        catalog_load([record])
    assert record["name"] in str(err.value)


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


@pytest.mark.parametrize(
    "family,params,e,want",
    [
        ("X", {"n": 1, "m": 1, "r": 1, "s": 0}, -1, 11),
        ("X", {"n": 2, "m": 4, "r": 2, "s": 1}, 0, 26),
        ("T", {"n": 2, "m": 4, "s": 2}, -1, 19),
        ("T", {"n": 3, "m": 8, "s": 4}, 0, 37),
    ],
)
def test_component_dimension(family, params, e, want):
    assert component_dimension(family, params, e) == want


@pytest.mark.parametrize(
    "family,params,e",
    [
        ("X", {"n": 2, "m": 2, "r": 1, "s": 0}, 0),  # r=1 needs n=m=1
        ("X", {"n": 2, "m": 2, "r": 2, "s": 5}, 0),  # s above 2r+2+e-m
        ("T", {"n": 3, "m": 2, "s": 2}, 0),  # c3 would go negative
        ("monad", None, 0),
    ],
)
def test_component_dimension_range_errors(family, params, e):
    with pytest.raises(ValueError):
        component_dimension(family, params, e)


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


def test_report_catches_wrong_stored_spectrum():
    records = bundled_records()
    for record in records:
        if record["name"] == "Instanton":
            record["spectrum"] = [-1, 0, 1]  # c3 identity still holds
    with pytest.raises(VerificationError) as err:
        component_report(catalog_load(records), M3)
    assert "Instanton" in str(err.value)


def test_report_catches_a_recipe_of_another_class():
    # T(-1,2,2,1) with its recipe, claimed for (0,2,2); the stored (-1,-1),
    # s = 1 passes the c3 identity there too, so only the recipe's class can tell
    records = bundled_records()
    record = dict(next(r for r in records if r["name"] == "T(-1,2,2,1)"))
    record.update(name="relabelled", moduli=[0, 2, 2], family="quotient-sequence")
    del record["params"]
    catalog = catalog_load(records + [record])
    with pytest.raises(VerificationError) as err:
        component_report(catalog, ChernClasses(0, 2, 2))
    assert str(err.value).startswith("component 'relabelled': construction gives (-1, 2, 0)")
    assert all(r["verified"] for r in component_report(catalog, M2)["components"])


def test_descriptor_keeps_the_node_read_from_its_recipe():
    records = bundled_records()
    descs = catalog_load(records).components
    assert sum(d.construction is not None for d in descs) == 7
    for record, desc in zip(records, descs):
        recipe = record.get("construction")
        assert desc.construction == (None if recipe is None else symbol_from_json(recipe))


def test_reports_parse_no_recipe(monkeypatch):
    import sheafspectra.sheafcalc as sheafcalc
    import sheafspectra.workbench as workbench

    catalog = catalog_load()

    def refuse(node):
        raise AssertionError(f"recipe parsed again: {node!r}")

    monkeypatch.setattr(sheafcalc, "symbol_from_json", refuse)
    monkeypatch.setattr(workbench, "symbol_from_json", refuse)
    verified = {r["name"] for cc in (M2, M3)
                for r in component_report(catalog, cc)["components"] if r["verified"]}
    assert verified == {"C(2)", "X(-1,1,1,1,0)", "T(-1,2,2,1)", "T(-1,2,4,2)",
                        "Instanton", "Ein", "C"}


# parses, but at t = -8 O(-5) has more h3 than O, so there is no O ->> O(-5)
INFEASIBLE_RECIPE = {"kind": "ses", "unknown": "left", "middle": {"kind": "line", "a": 0},
                     "right": {"kind": "line", "a": -5}}


def test_recipe_failure_names_the_component():
    catalog = catalog_load(records_with_recipe("C(2)", INFEASIBLE_RECIPE))
    for _ in range(2):  # an error is not memoised, so the second call fails alike
        with pytest.raises(SequenceInfeasibleError) as err:  # class kept for the exit code
            component_report(catalog, M2)
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
    import sheafspectra.workbench as workbench

    derive, calls = workbench._derivation, []
    monkeypatch.setattr(workbench, "_derivation", lambda node: calls.append(node) or derive(node))
    return calls


def test_a_failing_recipe_is_derived_again_on_every_report(monkeypatch):
    catalog = catalog_load(records_with_recipe("C(2)", KERNEL_ONTO_NEGATIVE_CUBIC))
    calls = count_derivations(monkeypatch)
    for _ in range(2):
        with pytest.raises(InadmissibleSpectrumError) as err:
            component_report(catalog, M2)
        assert str(err.value) == (
            "component 'C(2)': spectrum (-2, -2, -2), s=0 "
            "breaks the chain-down rule or the bound on s"
        )
    assert len(calls) == 2  # a failure is not remembered


def test_each_catalog_derives_its_recipes_once(monkeypatch):
    first, second = catalog_load(), catalog_load()
    calls = count_derivations(monkeypatch)
    for catalog in (first, second, first, second):
        for cc in (M2, M3):
            component_report(catalog, cc)
    nodes = [d.construction for catalog in (first, second) for d in catalog.components
             if d.construction is not None]
    assert len(nodes) == 14
    assert sorted(map(id, calls)) == sorted(map(id, nodes))


def count_rows(monkeypatch) -> list:
    import sheafspectra.sheafcalc as sheafcalc

    row, calls = sheafcalc._row, []
    monkeypatch.setattr(sheafcalc, "_row", lambda node, t: calls.append(t) or row(node, t))
    return calls


def test_a_second_report_evaluates_nothing(monkeypatch):
    catalog = catalog_load()
    first = [component_report(catalog, cc) for cc in (M2, M3)]
    calls = count_rows(monkeypatch)
    assert [component_report(catalog, cc) for cc in (M2, M3)] == first
    assert calls == []
    # a reloaded catalog holds fresh nodes, which are derived again
    assert [component_report(catalog_load(), cc) for cc in (M2, M3)] == first
    assert calls


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
    # rule, so it cannot appear in the enumeration
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
    catalog = catalog_load([alien])
    with pytest.raises(VerificationError):
        realizability_gap(catalog, M2)


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


def test_slope_examples_markdown():
    text = slope_examples_markdown(check_slope_examples())
    assert "not Gieseker-semistable" in text
    assert "within bound" in text
