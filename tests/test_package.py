"""The package namespace re-exports exactly the public names of its layers."""

import importlib
import inspect

import etakit

LAYERS = ("qseries", "spaces", "halfint", "classify", "numeric")


def test_namespace_is_the_union_of_the_layers_all():
    # a name deleted from a layer must leave both its __all__ and the package
    union = set()
    for layer in LAYERS:
        module = importlib.import_module(f"etakit.{layer}")
        assert len(set(module.__all__)) == len(module.__all__), layer
        for name in module.__all__:
            assert getattr(etakit, name) is getattr(module, name), f"{layer}.{name}"
        union |= set(module.__all__)
    exported = {
        name for name, value in vars(etakit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == union
