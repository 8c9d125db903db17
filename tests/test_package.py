"""The package root re-exports exactly the public names of its layers, on
first access, each public object under one name; the names the benchmark
calls and the names in the README's Library table exist; importing the
root loads no layer; and each subcommand loads only the layers it uses,
with neither `dataclasses` nor `inspect`, and builds only its own
subparser; the recipe kinds the README lists are exactly the kinds
symbol_from_json reads; and every public name has a caller in code."""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sheafspectra
from sheafspectra.cli import main

SRC = str(Path(sheafspectra.__file__).resolve().parents[1])
BENCH = Path(__file__).resolve().parents[1] / "bench"

LAYERS = ("errors", "invariants", "spectrum", "cohomology", "sheafcalc", "workbench")


def test_root_all_is_the_union_of_the_layers():
    union = []
    for layer in LAYERS:
        union += importlib.import_module(f"sheafspectra.{layer}").__all__
    assert len(set(union)) == len(union)  # no name is exported twice
    assert sorted(sheafspectra.__all__) == sorted(union)


def test_every_exported_name_resolves_to_its_layer():
    for layer in LAYERS:
        module = importlib.import_module(f"sheafspectra.{layer}")
        for name in module.__all__:
            assert getattr(sheafspectra, name) is getattr(module, name), name


def test_no_public_object_has_two_names():
    for layer in LAYERS:
        module = importlib.import_module(f"sheafspectra.{layer}")
        names = {}
        for name in module.__all__:
            names.setdefault(id(getattr(module, name)), []).append(name)
        assert [group for group in names.values() if len(group) > 1] == [], layer


def test_every_exported_name_is_used_in_code():
    # a reference is a loaded Name or Attribute (not a docstring or a comment) in
    # src outside the name's own definition, in demos/ or in bench/
    package = Path(sheafspectra.__file__).parent
    statements = []  # (file, name the statement defines, names it loads)
    for path in [*package.glob("*.py"), *(BENCH.parent / "demos").glob("*.py"),
                 *BENCH.glob("*.py")]:
        for stmt in ast.parse(path.read_text()).body:
            loads = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                     if isinstance(n, (ast.Name, ast.Attribute))
                     and isinstance(n.ctx, ast.Load)}
            statements.append((path, getattr(stmt, "name", None), loads))
    unused = []
    for layer in LAYERS:
        home = package / f"{layer}.py"
        for name in importlib.import_module(f"sheafspectra.{layer}").__all__:
            if not any(
                name in loads for path, defined, loads in statements
                if (path, defined) != (home, name)
            ):
                unused.append(f"{layer}.{name}")
    assert unused == []


def test_names_the_benchmark_calls_exist():
    # read as text: the benchmark's modules are not imported by the tests
    called = set()
    for script in ("workloads.py", "run.py"):
        called |= set(re.findall(r"\blib\.(\w+)", (BENCH / script).read_text()))
    assert "splice_ses" in called
    assert [name for name in sorted(called) if not hasattr(sheafspectra, name)] == []


def test_names_in_the_readme_library_table_exist():
    # the Contents column of each "| `sheafspectra.<layer>` | ... |" row
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `sheafspectra\.\w+` \| (.*) \|$", readme, re.M)
    named = [name for row in rows for name in re.findall(r"`(\w+)`", row)]
    assert len(rows) == len(LAYERS) and "splice_ses" in named
    assert [name for name in named if not hasattr(sheafspectra, name)] == []


def test_star_import_binds_exactly_all():
    scope = {}
    exec("from sheafspectra import *", scope)
    del scope["__builtins__"]
    assert sorted(scope) == sorted(sheafspectra.__all__)


def test_unknown_name_raises_attribute_error():
    assert not hasattr(sheafspectra, "monad_table")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sheafspectra.no_such_name


def test_version_is_the_project_version():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', text, re.M)[1] == sheafspectra.__version__


def _run(code):
    # the last line of a fresh interpreter's stdout
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()[-1]


def test_first_public_name_binds_every_layer_name():
    # bench/spans.py rebinds the root's names through vars(), so all must be there
    names = _run("import sheafspectra as s; s.ChernClasses; print(*vars(s))").split()
    for layer in LAYERS:
        missing = set(importlib.import_module(f"sheafspectra.{layer}").__all__) - set(names)
        assert not missing, (layer, sorted(missing))


def _modules_after(code, argv=None):
    if argv is not None:
        code += f"; from sheafspectra.cli import main; assert main({argv!r}) == 0"
    return set(_run(f"import sys; {code}; print(*sorted(sys.modules))").split())


def test_root_import_loads_no_layer():
    assert [m for m in _modules_after("import sheafspectra") if "sheafspectra." in m] == []


def test_a_layer_read_through_the_root_loads_only_what_it_imports():
    # the import system's hasattr must not load every layer on the way
    loaded = _modules_after("from sheafspectra import spectrum")
    assert {m for m in loaded if m.startswith("sheafspectra")} == {
        "sheafspectra", "sheafspectra.errors", "sheafspectra.invariants",
        "sheafspectra.spectrum"}


CLI_LAYERS = {"cli", "errors", "invariants"}
SPECTRUM_LAYERS = CLI_LAYERS | {"spectrum"}
SLOPE_LAYERS = SPECTRUM_LAYERS | {"workbench"}
TABLE_LAYERS = SPECTRUM_LAYERS | {"cohomology"}
ALL_LAYERS = TABLE_LAYERS | {"sheafcalc", "workbench"}
CLASS_ARGS = ["--e", "-1", "--c2", "2", "--c3", "0"]
TABLE_ARGS = ["--spectrum=-1,0", "--s", "0", "--e", "-1"]
JSON_ARGS = ["--format", "json"]


# every subcommand, in both formats where the format changes what loads:
# the layers under sheafspectra it loads, and whether it loads json
@pytest.mark.parametrize("argv, layers, loads_json", [
    pytest.param(["--version"], CLI_LAYERS, False, id="version"),
    pytest.param(["chi", *CLASS_ARGS], CLI_LAYERS, False, id="chi"),
    pytest.param(["enumerate", *CLASS_ARGS], SPECTRUM_LAYERS, False, id="enumerate-md"),
    pytest.param(["enumerate", *CLASS_ARGS, *JSON_ARGS], SPECTRUM_LAYERS, True,
                 id="enumerate-json"),
    pytest.param(["table", *TABLE_ARGS], TABLE_LAYERS, False, id="table-md"),
    pytest.param(["table", *TABLE_ARGS, *JSON_ARGS], TABLE_LAYERS, True, id="table-json"),
    pytest.param(["invert-table", "TMP/table.json"], TABLE_LAYERS, True, id="invert-table"),
    pytest.param(["splice", "--spec", "TMP/recipe.json"], TABLE_LAYERS | {"sheafcalc"}, True,
                 id="splice"),
    pytest.param(["report", "--moduli=-1,2,0"], ALL_LAYERS, True, id="report"),
    pytest.param(["rao-pairs", "--moduli=0,3,0"], ALL_LAYERS, True, id="rao-pairs"),
    pytest.param(["gap", "--moduli=-1,2,0"], ALL_LAYERS, True, id="gap"),
    pytest.param(["check-examples"], SLOPE_LAYERS, False, id="check-examples-md"),
    pytest.param(["check-examples", *JSON_ARGS], SLOPE_LAYERS, True, id="check-examples-json"),
])
def test_each_subcommand_loads_only_the_layers_it_runs(argv, layers, loads_json, tmp_path):
    table = sheafspectra.table_from_spectrum(sheafspectra.SpectrumWithS((-1, 0), 0),
                                             sheafspectra.splitting_type_from_e(-1), (-8, 0))
    (tmp_path / "table.json").write_text(table.to_json())
    (tmp_path / "recipe.json").write_text('{"kind": "line", "a": 0}')
    loaded = _modules_after("pass", [arg.replace("TMP", str(tmp_path)) for arg in argv])
    assert {m.split(".")[1] for m in loaded if m.startswith("sheafspectra.")} == layers
    assert ("json" in loaded) == loads_json


SUBCOMMANDS = ["chi", "enumerate", "table", "invert-table", "splice", "report", "rao-pairs",
               "gap", "check-examples"]


def _subparsers_built(monkeypatch, argv):
    built, add_parser = [], argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    main(argv)
    return built


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_a_subcommand_process_builds_only_its_own_subparser(command, monkeypatch, capsys):
    assert _subparsers_built(monkeypatch, [command, "--help"]) == [command]
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["sheafspectra", command, "--help"])
    assert _subparsers_built(monkeypatch, None) == [command]


@pytest.mark.parametrize("argv", [["--help"], ["--version"], [], ["bogus"]], ids=repr)
def test_root_help_version_and_usage_errors_build_every_subparser(argv, monkeypatch, capsys):
    assert _subparsers_built(monkeypatch, argv) == SUBCOMMANDS


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    # both cost milliseconds on every CLI process; records are NamedTuples
    added = _modules_after("import sheafspectra.cli") - _modules_after("pass")
    assert "sheafspectra.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


# one minimal node per recipe kind, each evaluable over (-2, 0)
LINE = {"kind": "line", "a": 0}
CONIC = {"kind": "rational_curve", "d": 2, "b": 0}
MINIMAL_RECIPES = {
    "line": LINE,
    "sum": {"kind": "sum", "terms": [LINE, LINE]},
    "points": {"kind": "points", "n": 1},
    "rational_curve": CONIC,
    "curve": {"kind": "curve", "genus": 0, "slope": 2, "offset": 1},
    "ideal": {"kind": "ideal", "curve": CONIC},
    "twist": {"kind": "twist", "of": LINE, "n": 1},
    "ses": {"kind": "ses", "unknown": "right", "left": {"kind": "line", "a": -1},
            "middle": LINE},
    "monad": {"kind": "monad", "a": [-1], "b": [0, 0, 0, 0], "c": [1]},
    "quotient": {"kind": "quotient", "ambient": LINE, "quotient": {"kind": "points", "n": 1}},
}
COUNTS = {"nine": 9, "ten": 10, "eleven": 11, "twelve": 12, "thirteen": 13}


def _readme_kinds():
    # the sentence "... one grammar with <count> kinds: `line` (`a`), ... ."
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    count, listing = re.search(r"with (\w+)\s+kinds:(.*?)\.\s", readme, re.S).groups()
    return COUNTS[count], re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", listing))


def test_readme_recipe_kinds_match_the_reader():
    count, kinds = _readme_kinds()
    assert count == len(kinds) == len(set(kinds))
    assert sorted(kinds) == sorted(MINIMAL_RECIPES)
    for kind in kinds:
        table = sheafspectra.recipe_table(MINIMAL_RECIPES[kind], (-2, 0))
        assert (table.lo, table.hi) == (-2, 0), kind


@pytest.mark.parametrize("kind", ["point", "rational-curve", "Line", "kernel", "table"])
def test_a_kind_the_readme_does_not_list_is_refused(kind):
    assert kind not in _readme_kinds()[1]
    with pytest.raises(sheafspectra.CatalogError, match="unknown symbol kind"):
        sheafspectra.symbol_from_json({"kind": kind})


@pytest.mark.parametrize("kind", MINIMAL_RECIPES)
def test_a_field_the_kind_does_not_have_is_refused(kind):
    # a misspelt "generic" must not leave a curve module generic by default
    node = dict(MINIMAL_RECIPES[kind], generik=False)
    with pytest.raises(sheafspectra.CatalogError,
                       match=f"unknown field 'generik' in a '{kind}' node"):
        sheafspectra.recipe_table(node, (-2, 0))
