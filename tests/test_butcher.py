import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest

from treehopf import (
    Forest,
    LEAF,
    LinComb,
    MultiSeries,
    ODEProblem,
    TruncationError,
    VectorField,
    b_plus,
    check_generalized_growth,
    check_growth_derivative,
    delta_k,
    elementary_differential,
    elementary_differential_lincomb,
    enumerate_trees,
    natural_growth,
    parse_tree,
    phi_at_origin,
    phi_forest_apply,
    phi_t_apply,
    series_solve,
)
from treehopf.verify import random_quadratic_field

from oracles import reference_growth_derivative

L2 = parse_tree("[[]]")
CHERRY = parse_tree("[[][]]")
PAPER_T = b_plus(Forest((LEAF, L2)))

FIELD = random_quadratic_field(2, 0)


def test_phi_of_vertex_is_field():
    vec = elementary_differential(LEAF, FIELD)
    assert all(a.eq_retained(b) for a, b in zip(vec, FIELD.components))


def test_phi_of_ladder_is_directional_derivative():
    vec = elementary_differential(L2, FIELD)
    for i in range(2):
        want = MultiSeries.zero(2)
        for j in range(2):
            want = want + FIELD.components[j] * FIELD.components[i].deriv(j)
        assert vec[i].eq_retained(want)


def test_phi_paper_four_vertex_example():
    # phi^k(t) = sum_{i,j,l} f^j f^l (d_l f^i) (d_i d_j f^k) for the
    # 4-vertex tree grafting a vertex and a 2-chain onto the root.
    vec = elementary_differential(PAPER_T, FIELD)
    f = FIELD.components
    for k in range(2):
        want = MultiSeries.zero(2)
        for i, j, l in itertools.product(range(2), repeat=3):
            want = want + f[j] * f[l] * f[i].deriv(l) * f[k].deriv(i).deriv(j)
        assert vec[k].eq_retained(want)


def test_scalar_linear_field_kills_branching():
    fx = VectorField([MultiSeries(1, {(1,): 1})])
    xjet = MultiSeries(1, {(1,): 1})
    for n in range(1, 6):
        for t in enumerate_trees(n):
            vec = elementary_differential(t, fx)[0]
            if t.max_fertility() <= 1:
                assert vec.eq_retained(xjet), t.serial
            else:
                assert vec.is_zero(), t.serial


def test_phi_linear_extension_matches_termwise():
    # each component folds from the zero at f.trunc, term by term in term order
    grown = natural_growth(L2, LinComb.of(CHERRY))
    for field in (FIELD, FIELD.with_trunc(4)):
        for x in (delta_k(3), grown, grown.scale(Fraction(1, 3)) - delta_k(2), LinComb.zero()):
            got = elementary_differential_lincomb(x, field)
            want = [MultiSeries.zero(2, field.trunc) for _ in range(2)]
            for forest, c in x.terms.items():
                vec = elementary_differential(forest.trees[0], field)
                want = [w + v.scale(c) for w, v in zip(want, vec)]
            assert [(str(a), a.trunc) for a in got] == [(str(b), b.trunc) for b in want], str(x)
    assert [a.trunc for a in elementary_differential_lincomb(LinComb.zero(), FIELD.with_trunc(4))] \
        == [4, 4]
    with pytest.raises(ValueError, match="^phi extends linearly over single trees only$"):
        elementary_differential_lincomb(delta_k(2) + LinComb.of(Forest((LEAF, L2))), FIELD)


def test_phi_t_identity_and_field_consistency():
    h = MultiSeries(2, {(1, 1): 1, (0, 2): Fraction(1, 3)})
    assert phi_t_apply(LEAF, FIELD, h).eq_retained(h)
    for n in range(1, 6):
        for t in enumerate_trees(n):
            got = phi_t_apply(t, FIELD, FIELD.components[0])
            assert got.eq_retained(elementary_differential(t, FIELD)[0]), t.serial


def test_phi_operator_composition():
    # phi_{N_t} o phi_{t'} = phi_{N_t(t')}
    h = MultiSeries(2, {(2, 0): 1, (0, 1): -1})
    trees = [t for n in range(1, 4) for t in enumerate_trees(n)]
    for t in trees:
        for u in trees:
            if t.vertex_count + u.vertex_count > 5:
                continue
            inner = phi_t_apply(u, FIELD, h)
            vec = elementary_differential(t, FIELD)
            lhs = MultiSeries.zero(2)
            for j in range(2):
                lhs = lhs + vec[j] * inner.deriv(j)
            grown = natural_growth(t, LinComb.of(u))
            rhs = MultiSeries.zero(2)
            for forest, c in grown.terms.items():
                rhs = rhs + phi_forest_apply(forest, FIELD, h).scale(c)
            assert lhs.eq_retained(rhs), (t.serial, u.serial)


def test_phi_multiplicative_over_forests():
    # the differential attached to a forest is the product of the trees'
    # differentials, and it agrees with separate per-tree evaluation
    rng = random.Random(5)
    trees = [t for n in range(1, 4) for t in enumerate_trees(n)]
    for _ in range(8):
        t1, t2 = rng.choice(trees), rng.choice(trees)
        v1 = elementary_differential(t1, FIELD)
        v2 = elementary_differential(t2, FIELD)
        combined = [a * b for a, b in zip(v1, v2)]
        v1_again = elementary_differential(t1, FIELD)
        assert all(a.eq_retained(b * c) for a, b, c in zip(combined, v1_again, v2))


def test_phi_forest_apply_is_canonical_order_composition():
    h = MultiSeries(2, {(1, 0): 1, (0, 2): Fraction(1, 2)})
    forest = Forest((L2, CHERRY))
    step = h
    for t in forest.trees:
        step = phi_t_apply(t, FIELD, step)
    assert phi_forest_apply(forest, FIELD, h).eq_retained(step)


def test_truncation_error_names_required_depth():
    shallow = VectorField([c.with_trunc(1) for c in FIELD.components])
    with pytest.raises(TruncationError) as err:
        elementary_differential(CHERRY, shallow)
    assert "order 2" in str(err.value)


def test_linear_phi_truncation_error_names_required_depth():
    # delta_3 holds [[][]], whose phi takes second derivatives of the field
    with pytest.raises(TruncationError,
                       match=r"^tree \[\[\]\[\]\] needs derivatives of order 2, field truncated at 1$"):
        phi_at_origin(delta_k(3), FIELD.with_trunc(1))


def test_taylor_bridge_seed0():
    sol = series_solve(ODEProblem(FIELD, 6))
    for k in range(1, 7):
        want = [c * factorial(k) for c in sol[k]]
        assert phi_at_origin(delta_k(k), FIELD) == want, k


def test_growth_derivative_lemma():
    assert check_growth_derivative(LEAF, FIELD)
    fsq = VectorField([MultiSeries(1, {(2,): 1})])
    assert check_growth_derivative(CHERRY, fsq)
    lhs = elementary_differential_lincomb(
        natural_growth(LEAF, LinComb.of(CHERRY)), fsq)
    assert not lhs[0].is_zero()
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert check_growth_derivative(t, FIELD), t.serial


# sha256 of the repr of the outcome list below.  First recorded before the
# growth lemma became the single-vertex case of the generalized one; re-recorded
# when phi's linear extension began to check the field's depth tree by tree,
# which turned each of the 96 "derivative exhausted the retained orders"
# outcomes into the message naming the tree and the order it needs.
GROWTH_OUTCOMES = "c0daa8d50660d2284acc523655bd3f71e67f24f969aa263c26b4782b75da0d97"


def test_growth_derivative_matches_the_flow_derivative_oracle():
    # on exact fields and on the same fields cut at orders 1-3: the same
    # result, or the same TruncationError text, as the flow-derivative formula
    def outcome(check, t, f):
        try:
            return check(t, f)
        except TruncationError as err:
            return str(err)

    trees = [t for n in range(1, 6) for t in enumerate_trees(n)]
    outcomes = []
    for seed in range(3):
        for trunc in (None, 1, 2, 3):
            for t in trees:
                got = outcome(check_growth_derivative, t,
                              random_quadratic_field(2, seed).with_trunc(trunc))
                want = outcome(reference_growth_derivative, t,
                               random_quadratic_field(2, seed).with_trunc(trunc))
                assert got == want, (seed, trunc, t.serial)
                outcomes.append(got)
    assert outcomes.count(True) == 108
    errors = [o for o in outcomes if o is not True]
    assert len(errors) == 96 and all(" needs derivatives of order " in e for e in errors)
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == GROWTH_OUTCOMES


def test_generalized_growth_lemma():
    assert check_generalized_growth(CHERRY, L2, FIELD)
    trees = [t for n in range(1, 6) for t in enumerate_trees(n)]
    for t in trees:
        for s in trees:
            if t.vertex_count + s.vertex_count <= 6:
                assert check_generalized_growth(t, s, FIELD), (t.serial, s.serial)


def test_phi_depth_bound_and_truncation_stability():
    # phi(t) needs f-derivatives only up to the maximal fertility, and a
    # deeper field truncation never changes the retained coefficients
    t = PAPER_T
    assert t.max_fertility() == 2
    shallow = VectorField([c.with_trunc(4) for c in FIELD.components])
    deep = VectorField([c.with_trunc(9) for c in FIELD.components])
    a = elementary_differential(t, shallow)
    b = elementary_differential(t, deep)
    for x, y in zip(a, b):
        assert x.eq_retained(y)
    exact = elementary_differential(t, FIELD)
    for x, y in zip(a, exact):
        assert x.eq_retained(y)


def test_phi_from_a_warm_field_equals_phi_from_a_fresh_one():
    # a field keeps every phi(t) it has computed; reading them back, in the
    # reverse order, must give what a new field computes from nothing
    trees = [t for n in range(1, 6) for t in enumerate_trees(n)]
    for trunc in (None, 6, 4):
        def make():
            return random_quadratic_field(2, 0).with_trunc(trunc)
        warm = make()
        for t in trees:
            elementary_differential(t, warm)
        for t in reversed(trees):
            got = elementary_differential(t, warm)
            want = elementary_differential(t, make())
            assert [c.terms for c in got] == [c.terms for c in want], (trunc, t.serial)
            assert [c.trunc for c in got] == [c.trunc for c in want], (trunc, t.serial)


def test_with_trunc_starts_its_own_phi_memo():
    deep = random_quadratic_field(2, 0).with_trunc(9)
    from_deep = elementary_differential(PAPER_T, deep)
    got = elementary_differential(PAPER_T, deep.with_trunc(4))
    want = elementary_differential(PAPER_T, random_quadratic_field(2, 0).with_trunc(4))
    assert [c.trunc for c in got] == [c.trunc for c in want] != [c.trunc for c in from_deep]
    assert [c.terms for c in got] == [c.terms for c in want]
    # the operator form reads the same memo and must see the same truncation
    h = MultiSeries(2, {(1, 1): 1, (2, 0): Fraction(1, 2)})
    shallow = deep.with_trunc(4)
    assert phi_t_apply(PAPER_T, shallow, h).trunc == \
        phi_t_apply(PAPER_T, random_quadratic_field(2, 0).with_trunc(4), h).trunc


def test_vector_field_refuses_assignment_and_deletion():
    f = random_quadratic_field(2, 0)
    for name in ("components", "_phi", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(f, name, ())
    for name in ("components", "_phi"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(f, name)
    assert len(f.components) == 2


# Runs the butcher and cm suites twice each in one process: first on empty
# memos, then warm.
_SUITES_TWICE = """
import json
from treehopf.verify import verify_butcher, verify_cm
for _ in range(2):
    print(json.dumps(verify_butcher(4)))
    print(json.dumps(verify_cm(3, order=6, trials=2)))
"""


def test_butcher_and_cm_suites_report_the_same_cold_and_warm():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SUITES_TWICE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    butcher_cold, cm_cold, butcher_warm, cm_warm = proc.stdout.splitlines()
    assert json.loads(butcher_cold)["ok"] and json.loads(butcher_cold)["checks"] > 0
    assert json.loads(cm_cold)["checks"] > 0
    assert butcher_cold == butcher_warm
    assert cm_cold == cm_warm
