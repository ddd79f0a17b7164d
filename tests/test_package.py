"""The names the package promises: `treehopf.__all__`.

`__all__` lists every public name `treehopf/__init__.py` imports from its
submodules, each once.  Every listed name resolves, and `from treehopf
import *` binds exactly those names, so no submodule name leaks through.
Each layer module writes its own `__all__` once, as one list, and every
name in it is defined in that module.
"""

import ast
import importlib
import os

import pytest

import treehopf

_INIT = os.path.join(os.path.dirname(treehopf.__file__), "__init__.py")


def _imports() -> list[tuple[str, str]]:
    """(submodule, name) for every public name `__init__` imports, in order."""
    with open(_INIT, encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    return [(node.module, a.asname or a.name) for node in body if isinstance(node, ast.ImportFrom)
            for a in node.names if not (a.asname or a.name).startswith("_")]


def test_all_lists_every_imported_public_name_once():
    names = [name for _, name in _imports()]
    assert len(names) > 50
    assert len(set(treehopf.__all__)) == len(treehopf.__all__)
    assert treehopf.__all__ == names


def test_every_name_in_all_resolves_to_its_submodule_object():
    for module, name in _imports():
        owner = importlib.import_module(f"treehopf.{module}")
        assert getattr(treehopf, name) is getattr(owner, name), name


LAYERS = ("trees", "hopf", "growth", "linalg", "series", "butcher", "frame", "verify")


@pytest.mark.parametrize("layer", LAYERS)
def test_each_layer_writes_one_all_of_names_it_defines(layer):
    module = importlib.import_module(f"treehopf.{layer}")
    with open(module.__file__, encoding="utf-8") as fh:
        source = fh.read()
    assert source.count("__all__") == 1         # one list: no `+=`, no `.append`
    defined = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if name not in defined] == []


def test_star_import_binds_exactly_all():
    ns: dict = {}
    exec("from treehopf import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(treehopf.__all__)
    for sub in LAYERS:
        assert sub not in ns
        assert hasattr(treehopf, sub)
