"""The package root re-exports exactly the public names of its layers, each
public object under one name; the names the benchmark calls exist; and
importing the command line loads neither `dataclasses` nor `inspect`."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import sheafspectra

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


def test_names_the_benchmark_calls_exist():
    # read as text: the benchmark's modules are not imported by the tests
    called = set()
    for script in ("workloads.py", "run.py"):
        called |= set(re.findall(r"\blib\.(\w+)", (BENCH / script).read_text()))
    assert "splice_ses" in called
    assert [name for name in sorted(called) if not hasattr(sheafspectra, name)] == []


def _modules_after(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    script = f"import sys; {code}; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    return set(out.split())


def test_cli_import_adds_neither_dataclasses_nor_inspect():
    # both cost milliseconds on every CLI process; records are NamedTuples
    added = _modules_after("import sheafspectra.cli") - _modules_after("pass")
    assert "sheafspectra.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
