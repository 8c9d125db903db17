"""The package root re-exports exactly the public names of its layers, and
importing the command line loads neither `dataclasses` nor `inspect`."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import sheafspectra

SRC = str(Path(sheafspectra.__file__).resolve().parents[1])

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
