"""The names that `bench/tracing.py` wraps must stay where it looks for them.

The tracer looks each name up by `getattr` on its module and rebinds every
module-level reference to it, so a renamed function fails a traced run, and
a call that bypasses the module-level name is silently not counted.  The
names are read from the tracer's own tables, so a rename, or a subclass
that overrides a traced method, fails here and not only in a traced run.
"""

import os
import sys
from functools import reduce
from importlib import import_module

import pytest

from treehopf import butcher, frame, growth
from treehopf.butcher import check_growth_derivative
from treehopf.frame import FormalDiffeo, FrameFunction, Monomial, _gamma_forest, gamma_t
from treehopf.growth import closure_check, fan_graph, generate_subalgebra
from treehopf.series import MultiSeries
from treehopf.hopf import delta_k
from treehopf.trees import LEAF, Forest, parse_tree
from treehopf.verify import random_quadratic_field

sys.path.append(os.path.join(os.path.dirname(__file__), "..", "bench"))
import tracing  # noqa: E402  (bench/tracing.py imports only the standard library)

TRACED = [(module, name) for module, name, *_ in tracing.SPANS + tracing.COUNTERS]


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


@pytest.mark.parametrize("module, name", TRACED, ids=[name for _, name in TRACED])
def test_traced_name_exists(module, name):
    mod = import_module(f"treehopf.{module}")
    assert callable(reduce(getattr, name.split("."), mod))
    # "Class.method" names a method, which the tracer patches on the class:
    # a subclass that overrides it would run unwrapped
    if "." in name:
        cls_name, method = name.split(".")
        cls = getattr(mod, cls_name)
        assert [sub for sub in subclasses(cls) if method in vars(sub)] == [], name


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


def test_gamma_forest_reaches_gamma_t_and_gamma_t_reaches_phi_frame_op_through_frame(monkeypatch):
    psi = FormalDiffeo(MultiSeries(1, {(1,): 1, (2,): 1}, 6))     # fresh: nothing kept on it
    gamma = MultiSeries(1, {(1,): 1}, 6)
    ladder, cherry = parse_tree("[[]]"), parse_tree("[[][]]")
    gammas = counting(monkeypatch, frame, "gamma_t")
    phis = counting(monkeypatch, frame, "phi_frame_op")
    forest = Forest((ladder, cherry))
    _gamma_forest(forest, psi, gamma)
    assert [t for t, _, _ in gammas] == list(forest.trees)
    assert [t for t, *_ in phis] == list(forest.trees)
    # once kept on psi, gamma_t is still called by name but computes nothing
    assert gamma_t(ladder, psi, gamma) is gamma_t(ladder, psi, gamma)
    assert len(phis) == 2


def test_growth_derivative_reaches_check_generalized_growth_through_butcher(monkeypatch):
    calls = counting(monkeypatch, butcher, "check_generalized_growth")
    field = random_quadratic_field(2, 0)
    ladder = parse_tree("[[]]")
    assert check_growth_derivative(ladder, field)
    assert calls == [(LEAF, ladder, field)]


def test_cm_sides_reach_X_t_apply_and_delta_t_apply_through_frame(monkeypatch):
    # every X_t and delta_t that the sides functions of verify_cm compute must
    # run inside a call of the module-level name, the one the tracer wraps
    gamma = MultiSeries(1, {(1,): 1}, 6)
    f = FrameFunction({0: MultiSeries(1, {(1,): 1}, 6), 1: MultiSeries(1, {(0,): 2}, 6)})
    psi = FormalDiffeo(MultiSeries(1, {(1,): 1, (2,): 1}, 6))
    eta = FormalDiffeo(MultiSeries(1, {(1,): 1, (3,): 1}, 6))
    a, b = lambda: Monomial(f, psi), lambda: Monomial(f, eta)    # fresh: nothing kept
    ladder = parse_tree("[[]]")
    active, applied = [], []

    def entering(name):
        fn = getattr(frame, name)

        def wrapper(*args):
            active.append(name)
            try:
                return fn(*args)
            finally:
                active.pop()
        monkeypatch.setattr(frame, name, wrapper)

    def applying(name, through):
        fn = getattr(frame, name)

        def wrapper(*args):
            applied.append((through, through in active))
            return fn(*args)
        monkeypatch.setattr(frame, name, wrapper)

    for name, through in (("_X_apply", "X_t_apply"), ("_delta_apply", "delta_t_apply")):
        entering(through)
        applying(name, through)
    frame.commutator_sides(LEAF, ladder, a(), gamma)
    frame.delta_chain_sides(1, a(), gamma)
    frame.delta_from_commutators(ladder, a(), gamma)
    frame.X_coproduct_sides(ladder, a(), b(), gamma)
    frame.delta_coproduct_sides(delta_k(2), a(), b(), gamma)
    assert {through for through, _ in applied} == {"X_t_apply", "delta_t_apply"}
    assert all(inside for _, inside in applied), applied
