"""The names that `bench/tracing.py` wraps must stay where it looks for them.

The tracer looks each name up by `getattr` on its module and rebinds every
module-level reference to it, so a renamed function fails a traced run, and
a call that bypasses the module-level name is silently not counted.
"""

import pytest

from treehopf import growth, linalg
from treehopf.growth import closure_check, fan_graph, generate_subalgebra

TRACED = [(growth, "_component_in_span"), (linalg, "independent_rows"), (linalg, "rref"),
          (linalg, "solve_consistent")]


@pytest.mark.parametrize("module, name", TRACED, ids=[name for _, name in TRACED])
def test_traced_name_exists(module, name):
    assert callable(getattr(module, name))


def counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_generate_subalgebra_reaches_independent_rows_through_growth(monkeypatch):
    calls = counting(monkeypatch, growth, "independent_rows")
    basis = generate_subalgebra({fan_graph(1), fan_graph(2)}, 4)
    assert len(calls) == basis.max_degree
    assert sum(len(rows) for rows, in calls) >= sum(map(len, basis.by_degree.values()))


def test_closure_check_reaches_component_in_span_through_growth(monkeypatch):
    basis = generate_subalgebra({fan_graph(1), fan_graph(2)}, 4)
    calls = counting(monkeypatch, growth, "_component_in_span")
    assert closure_check(basis)
    assert calls
