"""The names the package promises, `treehopf.__all__`, and what importing it loads.

`__all__` lists every public name `treehopf/__init__.py` imports from
`trees` and `hopf`, then every name of its lazy table, each once.  Every
listed name resolves to its layer's object, and `from treehopf import *`
binds exactly those names, so no submodule name leaks through.  Each
layer module writes its own `__all__` once, as one list, and every name
in it is defined in that module.

`import treehopf` and `import treehopf.cli` load only `trees` and `hopf`;
a subcommand loads the other layers it uses, as the README's table lists
them.  Those checks run in a fresh interpreter, where no earlier test has
imported the layers.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import treehopf

_INIT = os.path.join(os.path.dirname(treehopf.__file__), "__init__.py")
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

LAYERS = ("trees", "hopf", "growth", "linalg", "series", "butcher", "frame", "verify")
LAZY_LAYERS = LAYERS[2:]
# Never loaded by the package or the core subcommands: the lazy layers, and
# `random`, which only the verification suites use.
COLD = {f"treehopf.{layer}" for layer in LAZY_LAYERS} | {"random"}


def _imports() -> list[tuple[str, str]]:
    """(layer, name) for every public name `__init__` imports from a layer, in order."""
    with open(_INIT, encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    return [(node.module, a.asname or a.name) for node in body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names if not (a.asname or a.name).startswith("_")]


def _python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on the checkout's source."""
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


# Reports, on its last line of stderr, the modules loaded beyond those present
# at start-up by importing a module, or with "-m" by running the package as
# `python -m treehopf ARGV...` does.  `-X importtime` would not do: it misses
# the layers the package's __getattr__ loads through importlib.
_LOADS = """if True:
    import runpy, sys
    before = set(sys.modules)
    try:
        if sys.argv[1] == "-m":
            del sys.argv[1]
            runpy.run_module("treehopf", run_name="__main__", alter_sys=True)
        else:
            __import__(sys.argv[1])
    finally:
        print("loaded:", *sorted(set(sys.modules) - before), file=sys.stderr)
"""


def _loads(*args: str) -> tuple[set[str], str]:
    """(modules loaded beyond the interpreter's start-up, stdout) of a fresh run.

    `-S` keeps `site` and the start-up hooks of installed packages out of the
    baseline, so a module that one of them happens to load (`random`, say)
    still counts.
    """
    proc = _python("-S", "-c", _LOADS, *args)
    loaded = proc.stderr.splitlines()[-1].split()
    assert loaded[0] == "loaded:", proc.stderr
    return set(loaded[1:]), proc.stdout


def _owners() -> dict[str, str]:
    """name -> layer for every name of `__all__`: the eager imports, then the lazy table."""
    return {**{name: layer for layer, name in _imports()}, **treehopf._LAZY}


def test_all_lists_every_imported_public_name_once():
    eager = _imports()
    assert {layer for layer, _ in eager} == {"trees", "hopf"}
    assert set(treehopf._LAZY.values()) <= set(treehopf._LAZY_LAYERS)
    assert treehopf._LAZY_LAYERS == LAZY_LAYERS
    names = [name for _, name in eager] + list(treehopf._LAZY)
    assert len(names) > 50
    assert len(set(treehopf.__all__)) == len(treehopf.__all__)
    assert treehopf.__all__ == names


def test_every_name_in_all_resolves_to_its_submodule_object():
    for name, layer in _owners().items():
        owner = importlib.import_module(f"treehopf.{layer}")
        assert getattr(treehopf, name) is getattr(owner, name), name
        assert vars(treehopf)[name] is getattr(owner, name), name     # kept after first use


def test_every_name_resolves_to_its_submodule_object_in_a_fresh_interpreter():
    # Each name is looked up on the package before its layer is imported by
    # name, so the lazy ones go through the package's __getattr__.
    code = """if True:
        import json, sys, treehopf
        owners = json.loads(sys.argv[1])
        assert not set(sys.modules) & {"treehopf." + layer for layer in owners.values()
                                       if layer not in ("trees", "hopf")}
        got = {name: getattr(treehopf, name) for name in treehopf.__all__}
        print(json.dumps([name for name, layer in owners.items()
                          if got[name] is not getattr(sys.modules["treehopf." + layer], name)]))
    """
    owners = _owners()
    assert list(owners) == treehopf.__all__
    assert json.loads(_python("-c", code, json.dumps(owners)).stdout) == []


def test_every_layer_resolves_on_the_package_after_a_bare_import():
    # In this order no layer is imported by the ones accessed before it, so
    # each lazy one is first imported by the attribute access itself.
    code = """if True:
        import sys, treehopf
        for layer in sys.argv[1:]:
            name = "treehopf." + layer
            lazy = layer not in ("trees", "hopf")
            assert (name in sys.modules) is not lazy, layer
            assert getattr(treehopf, layer) is sys.modules[name], layer
            assert vars(treehopf)[layer] is sys.modules[name], layer
        print("ok")
    """
    order = ("trees", "hopf", "linalg", "series", "growth", "butcher", "frame", "verify")
    assert sorted(order) == sorted(LAYERS)
    assert _python("-c", code, *order).stdout == "ok\n"


def test_dir_lists_all_and_unknown_names_raise_attribute_error():
    listed = dir(treehopf)
    assert listed == sorted(listed)
    assert set(treehopf.__all__) | set(LAYERS) <= set(listed)
    for name in ("no_such_name", "Span", "_conv", "SCHEMA_VERSION", "random"):
        with pytest.raises(AttributeError, match=f"module 'treehopf' has no attribute '{name}'"):
            getattr(treehopf, name)
        assert not hasattr(treehopf, name)


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


@pytest.mark.parametrize("module", ["treehopf", "treehopf.cli"])
def test_importing_the_package_loads_no_lazy_layer(module):
    added, _ = _loads(module)
    assert {module, "treehopf.trees", "treehopf.hopf"} <= added
    assert added & COLD == set()


def test_a_core_request_loads_no_lazy_layer_and_prints_the_same_bytes():
    added, out = _loads("-m", "--json", "coproduct", "[[][]]")
    assert "treehopf.cli" in added
    assert added & COLD == set()
    assert out == (
        '{"schema": 1, "tensor": [{"coeff": "1", "left": "[[][]]", "right": "1"}, '
        '{"coeff": "1", "left": "1", "right": "[[][]]"}, '
        '{"coeff": "2", "left": "[]", "right": "[[]]"}, '
        '{"coeff": "1", "left": "[]*[]", "right": "[]"}]}\n')


# The README's table of the layers each subcommand loads beyond `trees` and
# `hopf`, row by row, with one request of each subcommand; FIELD stands for
# a field file.
README_ROWS = [
    ({"trees": ["--vertices", "3"], "coproduct": ["[[]]"], "antipode": ["[[]]"],
      "multiply": ["[]", "[[]]"], "grow": ["--by", "[]", "[[]]"], "delta-k": ["3"]}, set()),
    ({"decompose": ["[[][]]"], "subalgebra": ["--gens", "fan:2", "--max-degree", "3"]},
     {"growth", "linalg"}),
    ({"butcher": ["--field", "FIELD", "--tree", "[[]]"]}, {"series", "butcher"}),
    ({"cm gamma": ["--psi", "x + x^2", "--Gamma", "x", "--tree", "[[]]"]},
     {"frame", "series", "butcher", "growth", "linalg"}),
    ({"verify": ["--suite", "hopf", "--max-degree", "1"]}, set(LAZY_LAYERS) | {"random"}),
]
SUBCOMMANDS = [(name, args, layers) for row, layers in README_ROWS for name, args in row.items()]


@pytest.mark.parametrize("name, args, layers", SUBCOMMANDS,
                         ids=[name.replace(" ", "-") for name, _, _ in SUBCOMMANDS])
def test_a_subcommand_loads_the_layers_of_its_readme_row(tmp_path, name, args, layers):
    field = tmp_path / "field.txt"
    field.write_text("f1 = x2 + 1/2 x1^2\nf2 = -x1 + x1 x2 - 1/3 x2^2\n")
    argv = [*name.split(), *(str(field) if arg == "FIELD" else arg for arg in args)]
    added, out = _loads("-m", *argv)
    assert {"treehopf.cli", "treehopf.trees", "treehopf.hopf"} <= added
    assert {module.removeprefix("treehopf.") for module in added & COLD} == layers
    assert out
