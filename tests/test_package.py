"""The package root re-exports exactly the public names of its layers."""

import importlib

import sheafspectra

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
