"""The package namespace re-exports exactly the public names of its layers."""

import ast
import importlib
import inspect
import pathlib

import etakit

from conftest import MEMOIZED, MODULE_CACHES

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


def _module_level_caches():
    """(module, name) of every cache in src/etakit: a module-level dict, list
    or set, a module-level name some function rebinds with global, and a
    function memoized with lru_cache or cache."""
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "etakit"
    found = set()
    for path in sorted(package.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                    isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "list", "set")
                )
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if mutable and isinstance(target, ast.Name) and not target.id.startswith("__"):
                        found.add((module, target.id))
            if isinstance(node, ast.FunctionDef):
                for decorator in node.decorator_list:
                    name = ast.unparse(decorator.func if isinstance(decorator, ast.Call) else decorator)
                    if name.split(".")[-1] in ("lru_cache", "cache"):
                        found.add((module, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.update((module, name) for name in node.names)
    return found


def test_the_cold_cache_fixture_empties_every_module_level_cache(cold_caches):
    # a cache added to src/etakit must be added to conftest.cold_caches too,
    # or a test that asks for cold caches reads a warm one
    emptied = {(module.__name__.split(".")[-1], name) for module, name in MODULE_CACHES}
    emptied |= {(function.__module__.split(".")[-1], function.__name__) for function in MEMOIZED}
    assert _module_level_caches() == emptied
    for module, name in MODULE_CACHES:
        assert len(getattr(module, name)) == 0, name
    for function in MEMOIZED:
        assert function.cache_info().currsize == 0, function.__name__
