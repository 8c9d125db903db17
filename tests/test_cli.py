"""End-to-end tests of the command line, run in process."""

import json
from importlib import resources

import pytest

from sheafspectra import SpectrumWithS, splitting_type_from_e, table_from_spectrum
from sheafspectra.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------- chi


def test_chi_value(capsys):
    code, out, _ = run(capsys, "chi", "--e", "-1", "--c2", "2", "--c3", "0", "--twist", "-1")
    assert code == 0 and out.strip() == "-1"


def test_chi_default_twist(capsys):
    code, out, _ = run(capsys, "chi", "--e", "0", "--c2", "0", "--c3", "0")
    assert code == 0 and out.strip() == "2"


def test_chi_parity_violation_is_malformed(capsys):
    code, _, err = run(capsys, "chi", "--e", "0", "--c2", "2", "--c3", "1")
    assert code == 1 and "error" in err


# ------------------------------------------------------------- enumerate


def test_enumerate_two_conics_class(capsys):
    code, out, _ = run(capsys, "enumerate", "--e", "-1", "--c2", "2", "--c3", "0",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["spectra"] == [
        {"values": [-2, -1], "s": 2},
        {"values": [-1, -1], "s": 1},
        {"values": [-1, 0], "s": 0},
    ]


@pytest.mark.parametrize("seh,count", [("0", 11), ("1", 14), ("unbounded", 14)])
def test_enumerate_seh_thresholds(capsys, seh, count):
    code, out, _ = run(capsys, "enumerate", "--e", "0", "--c2", "3", "--c3", "0",
                       "--seh", seh, "--format", "json")
    assert code == 0 and len(json.loads(out)["spectra"]) == count


def test_enumerate_c2_8(capsys):
    code, out, _ = run(capsys, "enumerate", "--e", "0", "--c2", "8", "--c3", "0",
                       "--format", "json")
    assert code == 0 and len(json.loads(out)["spectra"]) == 4978


def test_enumerate_markdown_layout(capsys):
    code, out, _ = run(capsys, "enumerate", "--e", "-1", "--c2", "2", "--c3", "0")
    assert code == 0
    assert out.splitlines()[0] == "| Spectrum | s |"
    assert "| (-1,0) | 0 |" in out


# ------------------------------------------------------------- table


def test_table_markdown(capsys):
    code, out, _ = run(capsys, "table", "--spectrum=-1,0", "--s", "0",
                       "--e", "-1", "--range=-4:-1")
    assert code == 0
    assert "| -2 | 0 | 0 | 1 | 0 |" in out


def test_table_round_trip_through_files(capsys, tmp_path):
    code, out, _ = run(capsys, "table", "--spectrum=-2,-1", "--s", "2",
                       "--e", "-1", "--range=-8:0", "--format", "json")
    assert code == 0
    path = tmp_path / "table.json"
    path.write_text(out)
    code, out, _ = run(capsys, "invert-table", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"values": [-2, -1], "s": 2}


def test_invert_table_uses_attached_classes(capsys, tmp_path):
    code, out, _ = run(capsys, "table", "--spectrum=0,0,0", "--s", "0",
                       "--e", "0", "--range=-8:0", "--format", "json")
    path = tmp_path / "t.json"
    path.write_text(out)
    code, out, _ = run(capsys, "invert-table", str(path))
    assert code == 0 and "spectrum (0,0,0) with s=0" in out


def test_invert_table_missing_file(capsys):
    code, _, err = run(capsys, "invert-table", "/no/such/file.json")
    assert code == 1 and "error" in err


def test_invert_table_garbage_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, _ = run(capsys, "invert-table", str(path))
    assert code == 1


@pytest.mark.parametrize("row", [[1.7, "0", True, 0], [0, 1.0, 0, 0], [0, True, 0, 0]])
def test_invert_table_refuses_non_int_entries(capsys, tmp_path, row):
    table = {"range": [-1, 0], "rows": {"-1": row, "0": [0, 0, 0, 0]}, "cc": [-1, 2, 0]}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    code, out, err = run(capsys, "invert-table", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("key,canonical", [("1_0", "10"), (" -1 ", "-1"), ("+1", "1"),
                                           ("01", "1")])
def test_invert_table_refuses_non_canonical_row_keys(capsys, tmp_path, key, canonical):
    doc = table_from_spectrum(SpectrumWithS((-1, 0), 0), splitting_type_from_e(-1),
                              (-8, 10)).to_json_dict()
    path = tmp_path / "t.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "invert-table", str(path))[0] == 0
    doc["rows"][key] = doc["rows"].pop(canonical)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "invert-table", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: malformed table JSON: row key") and "Traceback" not in err


def test_invert_table_needs_e(capsys, tmp_path):
    table = {"range": [-4, -1], "rows": {str(t): [0, 0, 0, 0] for t in range(-4, 0)}}
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    code, _, err = run(capsys, "invert-table", str(path))
    assert code == 1 and "--e" in err


def test_invert_table_insufficient_range(capsys, tmp_path):
    code, out, _ = run(capsys, "table", "--spectrum=-1,0", "--s", "0",
                       "--e", "-1", "--range=-1:-1", "--format", "json")
    assert code == 0
    path = tmp_path / "t.json"
    path.write_text(out)
    code, _, _ = run(capsys, "invert-table", str(path))
    assert code == 2


# ------------------------------------------------------------- splice


def test_splice_sequence_table(capsys, tmp_path):
    node = {
        "kind": "ses",
        "unknown": "left",
        "middle": {"kind": "sum", "terms": [{"kind": "line", "a": 0}] * 2},
        "right": {
            "kind": "twist",
            "n": 2,
            "of": {"kind": "curve", "genus": 1, "slope": 3, "offset": 0,
                   "generic": True},
        },
    }
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(node))
    code, out, _ = run(capsys, "splice", "--spec", str(path))
    assert code == 0
    assert "| -1 | 0 | 3 | 0 | 0 |" in out


def test_splice_infeasible(capsys, tmp_path):
    node = {"kind": "ses", "unknown": "right",
            "left": {"kind": "line", "a": 0}, "middle": {"kind": "line", "a": -1}}
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(node))
    code, _, _ = run(capsys, "splice", "--spec", str(path), "--range=0:0")
    assert code == 2


@pytest.mark.parametrize(
    "node",
    [
        {"kind": "ses", "unknown": "middle", "left": 5, "right": {"kind": "line", "a": 0}},
        {"kind": "quotient", "ambient": {"kind": "line", "a": 0}},
        {"kind": "monad", "a": [True], "b": [0, 0, 0, 0], "c": [1]},
        {"kind": "ses", "unknown": "middle", "left": {"kind": "line", "a": -2},
         "right": {"kind": "rational_curve", "d": -3, "b": 0}},
    ],
)
def test_splice_malformed_recipe_is_an_error_line(capsys, tmp_path, node):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(node))
    code, out, err = run(capsys, "splice", "--spec", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_splice_unknown_kind(capsys, tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"kind": "mystery"}))
    code, _, _ = run(capsys, "splice", "--spec", str(path))
    assert code == 1


def test_splice_deeply_nested_recipe_is_an_error_line(capsys, tmp_path):
    # built as text: json.dump itself overflows at this depth
    depth = 1200
    text = '{"kind": "twist", "n": 1, "of": ' * depth + '{"kind": "line", "a": 0}' + "}" * depth
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, "splice", "--spec", str(path))
    assert (code, out, err) == (1, "", "error: input is nested too deeply\n")


# ------------------------------------------------------------- reports


def test_report_markdown(capsys):
    code, out, _ = run(capsys, "report", "--moduli=-1,2,0")
    assert code == 0
    assert "| C(2) | 11 | (-1,0) | 0 | derived | yes |" in out


def test_report_json_deterministic(capsys):
    code, first, _ = run(capsys, "report", "--moduli=0,3,0", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "report", "--moduli=0,3,0", "--format", "json")
    assert first == second


def test_report_tampered_catalog(capsys, tmp_path):
    import importlib.resources as resources

    doc = json.loads(
        resources.files("sheafspectra").joinpath("data/catalog.json").read_text()
    )
    for record in doc["components"]:
        if record["name"] == "Ein":
            record["spectrum"] = [0, 0, 0]
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "report", "--moduli=0,3,0", "--catalog", str(path))
    assert code == 2 and "Ein" in err


def test_report_catalog_name_looking_like_json(capsys, tmp_path, monkeypatch):
    import importlib.resources as resources

    text = resources.files("sheafspectra").joinpath("data/catalog.json").read_text()
    (tmp_path / "[v2] catalog.json").write_text(text)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "report", "--moduli=-1,2,0", "--catalog", "[v2] catalog.json")
    assert (code, err) == (0, "")
    assert "| C(2) | 11 | (-1,0) | 0 | derived | yes |" in out


@pytest.mark.parametrize("construction", [{"kind": "bogus"}, [1, 2]], ids=["bogus", "list"])
@pytest.mark.parametrize("command", ["report", "rao-pairs", "gap"])
def test_broken_recipe_is_an_error_line_naming_the_component(
    capsys, tmp_path, command, construction
):
    doc = json.loads(
        resources.files("sheafspectra").joinpath("data/catalog.json").read_text()
    )
    for record in doc["components"]:
        if record["name"] == "C(2)":
            record["construction"] = construction
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, "--moduli=-1,2,0", "--catalog", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1, err  # one error line, no traceback
    assert err.startswith("error: component 'C(2)': ")


@pytest.mark.parametrize(
    "name,moduli,construction,message",
    [
        ("T(-1,2,2,1)", "0,2,2", None,
         "error: component 'relabelled': construction gives (-1, 2, 0), "),
        ("C(2)", "-1,2,0", {"kind": "ses", "unknown": "left", "middle": {"kind": "line", "a": 0},
                            "right": {"kind": "line", "a": -5}},
         "error: component 'C(2)': h3 of the right column (220) exceeds h3 of the middle (35)"),
    ],
    ids=["relabelled-class", "infeasible-recipe"],
)
def test_report_recipe_failure_names_the_component(capsys, tmp_path, name, moduli,
                                                    construction, message):
    doc = json.loads(
        resources.files("sheafspectra").joinpath("data/catalog.json").read_text()
    )
    record = next(r for r in doc["components"] if r["name"] == name)
    if construction is None:  # a copy of the record claimed for another class
        record = dict(record, name="relabelled", moduli=[0, 2, 2],
                      family="quotient-sequence", params=None)
        doc["components"].append(record)
    else:
        record["construction"] = construction
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "report", f"--moduli={moduli}", "--catalog", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(message), err


def test_rao_pairs_both_classes(capsys):
    code, out, _ = run(capsys, "rao-pairs", "--moduli=-1,2,0")
    assert code == 0 and "C(2) & X(-1,1,1,1,0)" in out
    code, out, _ = run(capsys, "rao-pairs", "--moduli=0,3,0", "--format", "json")
    assert json.loads(out)["pairs"] == [["C", "Instanton"], ["Ein", "X(0,2,2,2,0)"]]


def test_gap_json(capsys):
    code, out, _ = run(capsys, "gap", "--moduli=0,3,0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [-3, -2, -1] in payload["missing"]
    assert len(payload["missing"]) == 6
    assert len(payload["extra_candidates"]) == 4
    code, out, _ = run(capsys, "gap", "--moduli=-1,2,0", "--format", "json")
    assert json.loads(out)["missing"] == []


CATALOG_HELP = ("E,C2,C3, e.g. --moduli=-1,2,0", "catalog JSON file")
SEH_HELP = ("chain-up threshold, an integer or 'unbounded'",)


@pytest.mark.parametrize("command,texts", [
    ("report", CATALOG_HELP),
    ("rao-pairs", CATALOG_HELP),
    ("gap", CATALOG_HELP + SEH_HELP),
    ("enumerate", SEH_HELP),
])
def test_shared_options_have_one_help_text(capsys, monkeypatch, command, texts):
    monkeypatch.setenv("COLUMNS", "200")  # no wrapping inside a help text
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert all(text in out for text in texts), out


def test_check_examples(capsys):
    code, out, _ = run(capsys, "check-examples", "--format", "json")
    assert code == 0
    cases = json.loads(out)["cases"]
    assert [c["s"] for c in cases if c["flagged"]] == [6, 5]


# ------------------------------------------------------------- plumbing


def test_unknown_command(capsys):
    assert run(capsys, "bogus")[0] == 1


def test_no_command(capsys):
    assert run(capsys)[0] == 1


def test_bad_moduli_shape(capsys):
    assert run(capsys, "report", "--moduli=1,2")[0] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("chi", "--e", "0", "--c2", "1_0", "--c3", "0"),
        ("chi", "--e", "0", "--c2", "2", "--c3", " 0"),
        ("chi", "--e", "0", "--c2", "2", "--c3", "0", "--twist=+1"),
        ("chi", "--e", "-0", "--c2", "2", "--c3", "0"),
        ("enumerate", "--e", "0", "--c2", "3", "--c3", "0", "--seh", "01"),
        ("table", "--spectrum=-1,+0", "--s", "0", "--e", "-1"),
        ("table", "--spectrum=-1,0", "--s", "0", "--e", "-1", "--range= -4:-0_1"),
        ("report", "--moduli=-1,2,0_0"),
    ],
)
def test_integer_flags_must_be_canonical(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "error: argument" in err and "Traceback" not in err


@pytest.mark.parametrize("moduli", ["0,2,1", "1,2,0", "-1,2,1"])
def test_inadmissible_moduli_is_an_error_line(capsys, moduli):
    code, out, err = run(capsys, "report", f"--moduli={moduli}")
    assert code == 1 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("report", "--moduli=-1,2"),
         "report: error: argument --moduli: moduli must be E,C2,C3 with three "
         "entries, got '-1,2'"),
        (("table", "--spectrum=-1,0", "--s", "0", "--e", "-1", "--range", "3"),
         "table: error: argument --range: range must be LO:HI, got '3'"),
        (("enumerate", "--e", "0", "--c2", "3", "--c3", "0", "--seh=-1"),
         "enumerate: error: argument --seh: s_eh must be nonnegative or None, got -1"),
        (("gap", "--moduli=-1,2,0", "--seh=-2"),
         "gap: error: argument --seh: s_eh must be nonnegative or None, got -2"),
    ],
    ids=["moduli", "range", "seh", "gap-seh"],
)
def test_converter_errors_print_their_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert message in err and "invalid _" not in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_version_prints_the_package_version(capsys):
    assert run(capsys, "--version") == (0, "sheafspectra 0.1.0\n", "")


@pytest.mark.parametrize("values,table_e,flag_e", [("-1,0", "-1", "0"), ("0,0", "0", "-1")])
def test_invert_table_refuses_a_contradicting_e(capsys, tmp_path, values, table_e, flag_e):
    # a flag that contradicts the file is malformed input, refused before inverting
    code, out, _ = run(capsys, "table", f"--spectrum={values}", "--s", "0",
                       "--e", table_e, "--range=-8:0", "--format", "json")
    path = tmp_path / "t.json"
    path.write_text(out)
    code, out, err = run(capsys, "invert-table", str(path), "--e", flag_e)
    assert code == 1 and out == ""
    assert err == f"error: --e {flag_e} contradicts e = {table_e} of the table's classes\n"
    code, out, _ = run(capsys, "invert-table", str(path), "--e", table_e)
    assert code == 0 and out == f"spectrum ({values}) with s=0\n"


def test_table_rows_must_be_an_object(capsys, tmp_path):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"range": [0, 1], "rows": []}))
    code, out, err = run(capsys, "invert-table", str(path), "--e", "-1")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err

