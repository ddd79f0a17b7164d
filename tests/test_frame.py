import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treehopf import (
    EMPTY_FOREST,
    FormalDiffeo,
    Forest,
    FrameFunction,
    LEAF,
    LinComb,
    Monomial,
    MultiSeries,
    TruncationError,
    X_t_apply,
    Y_apply,
    b_plus,
    check_X_coproduct,
    check_cocycle,
    check_commutators,
    check_coprodcontrib,
    check_delta_chain,
    check_delta_coproduct,
    check_delta_coproduct_lincomb,
    check_pushforward,
    delta_from_commutators,
    delta_k,
    delta_t_apply,
    enumerate_trees,
    gamma_bullet,
    gamma_t,
    lift_apply,
    monomial_product,
    natural_growth,
    parse_tree,
    phi_frame,
    phi_frame_op,
)
from treehopf.frame import (
    CommutatorReport,
    X_coproduct_sides,
    cocycle_sides,
    commutator_sides,
    coprodcontrib_rhs,
    delta_chain_sides,
    delta_coproduct_sides,
    first_mismatch,
    pushforward_rhs,
    random_diffeo,
    random_frame_function,
    random_xseries,
    transferred_side,
)

D = 8
L2 = parse_tree("[[]]")
CHERRY = parse_tree("[[][]]")
LADDER3 = parse_tree("[[[]]]")

GAMMA_X = MultiSeries(1, {(1,): 1}, D)
GAMMA_0 = MultiSeries.zero(1, D)


def xs(terms):
    return MultiSeries(1, terms, D)


def diffeo(terms):
    return FormalDiffeo(xs(terms))


PSI = diffeo({(1,): 1, (2,): 1})
ETA = diffeo({(1,): 1, (3,): 1})


def rand_instance(seed):
    rng = random.Random(seed)
    psi = random_diffeo(rng, D)
    eta = random_diffeo(rng, D)
    f = random_frame_function(rng, D)
    g = random_frame_function(rng, D)
    return psi, eta, Monomial(f, psi), Monomial(g, eta)


def test_frame_function_arithmetic():
    a = FrameFunction({1: xs({(0,): 1}), 2: xs({(1,): 2})})
    b = FrameFunction({1: xs({(0,): -1})})
    assert (a + b).y_degrees() == {2}
    assert (a * b).coeffs[2].coeff(0) == -1
    assert a.dz().coeffs[2].coeff(1) == 4     # y d/dy doubles the y^2 term
    assert a.dx().y_degrees() == {2}
    assert a.homogeneous_y_degree() is None
    assert FrameFunction.y_times(xs({(0,): 1})).homogeneous_y_degree() == 1


def test_frame_function_sums_repeated_powers_and_drops_cancelled_sums():
    g, h = xs({(0,): 1}), xs({(1,): 2})
    f = FrameFunction([(3, g), (1, h), (3, -g), (2, g - g), (1, h), (0, g)])
    assert list(f.coeffs) == [1, 0]
    assert f.coeffs[1] == h.scale(2) and f.coeffs[0] == g
    assert FrameFunction([(1, h), (1, -h), (1, h)]).coeffs == {1: h}


def test_lift_examples():
    h = FrameFunction({1: xs({(1,): 1})})     # x y
    ident = FormalDiffeo.identity(D)
    assert lift_apply(ident, h).eq_retained(h)
    two_x = FormalDiffeo(xs({(1,): 2}))
    lifted = lift_apply(two_x, h)             # (2x)(2y) = 4 x y
    assert lifted.coeffs[1].coeff(1) == 4


def test_lift_respects_composition():
    rng = random.Random(17)
    for _ in range(5):
        psi = random_diffeo(rng, D)
        eta = random_diffeo(rng, D)
        h = random_frame_function(rng, D)
        lhs = lift_apply(eta.compose(psi), h)
        rhs = lift_apply(psi, lift_apply(eta, h))
        assert lhs.eq_retained(rhs)


def test_monomial_product_unit_and_associativity():
    rng = random.Random(23)
    unit = Monomial(FrameFunction.constant(1, D), FormalDiffeo.identity(D))
    ms = [Monomial(random_frame_function(rng, D), random_diffeo(rng, D)) for _ in range(3)]
    assert monomial_product(ms[0], unit).eq_retained(ms[0])
    assert monomial_product(unit, ms[0]).eq_retained(ms[0])
    lhs = monomial_product(monomial_product(ms[0], ms[1]), ms[2])
    rhs = monomial_product(ms[0], monomial_product(ms[1], ms[2]))
    assert lhs.eq_retained(rhs)


def test_conjugation_moves_the_evaluation_point():
    # U*_psi f U*_{psi^{-1}} = f o lift(psi)
    f = random_frame_function(random.Random(4), D)
    psi = PSI
    left = Monomial(FrameFunction.constant(1, D), psi)
    mid = Monomial(f, FormalDiffeo.identity(D))
    right = Monomial(FrameFunction.constant(1, D), psi.inverse())
    conj = monomial_product(monomial_product(left, mid), right)
    assert conj.psi.is_identity()
    assert conj.f.eq_retained(lift_apply(psi, f))


def test_gamma_bullet_special_cases():
    assert gamma_bullet(FormalDiffeo.identity(D), GAMMA_X).is_zero()
    flat = gamma_bullet(PSI, GAMMA_0)
    dpsi = PSI.d()
    want = FrameFunction.y_times(dpsi.deriv(0) * dpsi.reciprocal())
    assert flat.eq_retained(want)


def test_gamma_cocycle():
    rng = random.Random(31)
    for _ in range(5):
        psi = random_diffeo(rng, D)
        eta = random_diffeo(rng, D)
        gamma = random_xseries(rng, D)
        assert check_cocycle(psi, eta, gamma)


COEFFS = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def cocycle_instances(draw):
    """(psi, eta, Gamma), each at its own truncation order."""
    def jet(min_degree):
        trunc = draw(st.integers(2, 6))
        coeffs = draw(st.lists(COEFFS, min_size=trunc + 1 - min_degree,
                               max_size=trunc + 1 - min_degree))
        return trunc, {(k,): c for k, c in enumerate(coeffs, min_degree)}

    def diffeo_jet():
        trunc, terms = jet(2)
        terms[(1,)] = draw(st.fractions(min_value=Fraction(1, 3), max_value=2, max_denominator=3))
        return FormalDiffeo(MultiSeries(1, terms, trunc))

    trunc, terms = jet(0)
    return diffeo_jet(), diffeo_jet(), MultiSeries(1, terms, trunc)


@given(cocycle_instances())
@settings(max_examples=40)
def test_gamma_cocycle_on_random_jets(instance):
    # the left side reads gamma_bullet on the freshly composed eta o psi
    assert check_cocycle(*instance)


def test_gamma_cocycle_when_a_vertex_symbol_vanishes_through_its_order():
    # eta o psi = x/9 is known through x^2 only, so its vertex symbol is
    # zero through x^0 and its frame function forgets that order; the
    # right side, y 18x, must not be compared at x^1
    psi = FormalDiffeo(MultiSeries(1, {(1,): Fraction(1, 3), (3,): 1}, 3))
    eta = FormalDiffeo(MultiSeries(1, {(1,): Fraction(1, 3)}, 2))
    for gamma in (MultiSeries.zero(1, 2), MultiSeries.zero(1)):
        lhs, rhs = cocycle_sides(psi, eta, gamma)
        assert lhs.is_zero() and rhs.is_zero()
        assert check_cocycle(psi, eta, gamma)
    assert (gamma_bullet(psi, MultiSeries.zero(1)) + FrameFunction.zero()).trunc == 1
    # a wrong right side is still caught at the orders both sides know
    lhs, rhs = cocycle_sides(psi, psi, GAMMA_X)
    assert first_mismatch(lhs, rhs) is None
    assert first_mismatch(lhs, rhs + FrameFunction.y_times(MultiSeries.constant(1, 1, 8))) \
        is not None


def test_gamma_t_base_cases():
    gb = gamma_bullet(PSI, GAMMA_X)
    assert gamma_t(LEAF, PSI, GAMMA_X).eq_retained(gb)
    ident = FormalDiffeo.identity(D)
    for n in range(1, 4):
        for t in enumerate_trees(n):
            assert gamma_t(t, ident, GAMMA_X).is_zero()


def test_gamma_ladder_against_direct_expansion():
    # independent oracle: gamma_{ladder} = phi^x(.) d_x gamma + phi^z(.) d_z gamma
    psi = diffeo({(1,): 1, (2,): 1})
    gb = gamma_bullet(psi, GAMMA_X)
    fx = FrameFunction.y_times(MultiSeries.constant(1, 1, D))
    fz = FrameFunction.y_times(-GAMMA_X)
    want = fx * gb.dx() + fz * gb.dz()
    assert gamma_t(L2, psi, GAMMA_X).eq_retained(want)


def test_phi_frame_homogeneity_and_degeneration():
    for n in range(1, 5):
        for t in enumerate_trees(n):
            px, pz = phi_frame(t, GAMMA_X, D)
            assert px.homogeneous_y_degree() == n
            assert pz.homogeneous_y_degree() == n
            if n >= 2:
                qx, qz = phi_frame(t, GAMMA_0, D)
                assert qx.is_zero() and qz.is_zero()


def test_X_and_Y_actions():
    psi = PSI
    m = Monomial(FrameFunction({0: xs({(1,): 1})}), psi)   # f = x
    flat = X_t_apply(LEAF, Monomial(m.f, psi), GAMMA_0)
    assert flat.f.eq_retained(FrameFunction.y_times(MultiSeries.constant(1, 1, D)))
    g = FrameFunction({3: xs({(2,): 1})})
    assert Y_apply(Monomial(g, psi)).f.eq_retained(g.scale(3))
    # X_t(y) reduces to phi^z(t) y: the x-derivative of y vanishes
    ymon = Monomial(FrameFunction.y_times(MultiSeries.constant(1, 1, D)), psi)
    got = X_t_apply(L2, ymon, GAMMA_X)
    want = phi_frame(L2, GAMMA_X, D)[1] * ymon.f
    assert got.f.eq_retained(want)
    # hand value: phi^z(2-ladder) = y^2 (Gamma^2 - Gamma') for Gamma = x
    pz = phi_frame(L2, GAMMA_X, D)[1]
    assert pz.eq_retained(FrameFunction.y_times(xs({(2,): 1, (0,): -1}), power=2))


def test_X_t_is_phi_of_the_grafted_tree():
    # X_t = phi^j(t) d_j is the one-child contraction, i.e. phi_{B+(t)}
    rng = random.Random(5)
    for n in range(1, 4):
        for t in enumerate_trees(n):
            m = Monomial(random_frame_function(rng, D), random_diffeo(rng, D))
            got = X_t_apply(t, m, GAMMA_X).f
            want = phi_frame_op(b_plus(Forest((t,))), GAMMA_X, m.f, D)
            assert str(got) == str(want) and got.trunc == want.trunc


def test_frame_function_deriv_is_dx_and_dz():
    rng = random.Random(6)
    for _ in range(4):
        h = random_frame_function(rng, D)
        assert str(h.deriv(0)) == str(h.dx()) and h.deriv(0).trunc == h.dx().trunc
        assert str(h.deriv(1)) == str(h.dz()) and h.deriv(1).trunc == h.dz().trunc


def test_gamma_t_cache_honours_truncation_orders():
    short = FormalDiffeo(MultiSeries(1, {(1,): 1, (2,): 1}, 4))   # PSI at order 4
    assert gamma_t(L2, short, GAMMA_X).trunc == 1
    got = gamma_t(L2, PSI, GAMMA_X)
    assert gamma_t(L2, PSI, GAMMA_X) is got
    # fresh equal-valued psi and Gamma hold no memo
    psi, gamma = FormalDiffeo(xs(PSI.series.terms)), xs(GAMMA_X.terms)
    want = phi_frame_op(L2, gamma, gamma_bullet(psi, gamma), D)
    assert got.trunc == want.trunc == 5
    assert grid(got) == grid(want)


def test_phi_memo_honours_curvature_truncation():
    short = MultiSeries(1, {(1,): 1}, 4)   # GAMMA_X at order 4
    assert [h.trunc for h in phi_frame(CHERRY, short, D)] == [4, 3]
    got = phi_frame(CHERRY, GAMMA_X, D)
    assert phi_frame(CHERRY, GAMMA_X, D) is got
    want = phi_frame(CHERRY, xs(GAMMA_X.terms), D)     # a fresh, equal Gamma
    assert [h.trunc for h in got] == [h.trunc for h in want] == [8, 7]
    assert [grid(h) for h in got] == [grid(h) for h in want]
    assert [h.trunc for h in phi_frame(CHERRY, short, D)] == [4, 3]


def test_delta_t_examples():
    psi = PSI
    m = Monomial(random_frame_function(random.Random(2), D), psi)
    ident_m = Monomial(m.f, FormalDiffeo.identity(D))
    assert delta_t_apply(LEAF, ident_m, GAMMA_0).f.is_zero()
    got = delta_t_apply(CHERRY, m, GAMMA_X)
    assert got.f.eq_retained(gamma_t(CHERRY, psi, GAMMA_X) * m.f)
    # forests act by products of symbols
    forest = Forest((L2, LEAF))
    got = delta_t_apply(forest, m, GAMMA_X)
    want = gamma_t(L2, psi, GAMMA_X) * gamma_t(LEAF, psi, GAMMA_X) * m.f
    assert got.f.eq_retained(want)


def test_delta_operators_commute():
    psi, eta, a, b = rand_instance(41)
    lhs = delta_t_apply(L2, delta_t_apply(CHERRY, a, GAMMA_X), GAMMA_X)
    rhs = delta_t_apply(CHERRY, delta_t_apply(L2, a, GAMMA_X), GAMMA_X)
    assert lhs.f.eq_retained(rhs.f)


def test_delta_coproduct_small_trees():
    for seed in range(3):
        _, _, a, b = rand_instance(seed)
        assert check_delta_coproduct(LEAF, a, b, GAMMA_X)
        assert check_delta_coproduct(L2, a, b, GAMMA_X)


def test_delta_coproduct_fails_tree_by_tree_from_three_vertices():
    # the cut-sum coproduct is not satisfied by single trees beyond two
    # vertices; only the delta_k combinations close (see next test)
    _, _, a, b = rand_instance(7)
    assert not check_delta_coproduct(CHERRY, a, b, GAMMA_X)
    assert not check_delta_coproduct(LADDER3, a, b, GAMMA_X)


def test_delta_coproduct_closes_on_delta_k_combinations():
    for seed in range(3):
        _, _, a, b = rand_instance(seed)
        for k in range(1, 5):
            assert check_delta_coproduct_lincomb(delta_k(k), a, b, GAMMA_X), k
        prod = delta_k(2) * delta_k(2)
        assert check_delta_coproduct_lincomb(prod, a, b, GAMMA_X)


def test_X_coproduct_vertex_only():
    _, _, a, b = rand_instance(11)
    assert check_X_coproduct(LEAF, a, b, GAMMA_X)
    assert not check_X_coproduct(L2, a, b, GAMMA_X)


def test_commutator_table():
    trees = [t for n in range(1, 4) for t in enumerate_trees(n)]
    for seed in range(3):
        _, _, m, _ = rand_instance(seed + 50)
        for t in trees:
            for u in trees:
                if t.vertex_count + u.vertex_count > 5:
                    continue
                rep = check_commutators(t, u, m, GAMMA_X)
                assert rep.ok, (t.serial, u.serial, rep.failing(), rep.mismatches)


def test_commutator_report_on_failure():
    _, _, m, _ = rand_instance(3)
    rep = check_commutators(L2, CHERRY, m, GAMMA_X)
    assert rep.ok and not rep.failing()
    a = FrameFunction.y_times(xs({(1,): 1}))
    b = FrameFunction.y_times(xs({(1,): 1, (2,): 1}))
    mm = first_mismatch(a, b)
    assert mm == (1, 2, Fraction(0), Fraction(1))


def test_delta_chain():
    for seed in range(3):
        _, _, m, _ = rand_instance(seed + 80)
        for k in (1, 2, 3):
            assert check_delta_chain(k, m, GAMMA_X), k


def test_delta_from_commutators_agrees():
    for seed in range(2):
        _, _, m, _ = rand_instance(seed + 90)
        for n in range(1, 5):
            for t in enumerate_trees(n):
                got = delta_from_commutators(t, m, GAMMA_X)
                want = delta_t_apply(t, m, GAMMA_X)
                assert got.f.eq_retained(want.f), t.serial


def test_pushforward_and_coprodcontrib_small():
    rng = random.Random(60)
    psi = random_diffeo(rng, D)
    h = random_frame_function(rng, D)
    assert check_pushforward(LEAF, psi, GAMMA_X, h)
    assert check_pushforward(L2, psi, GAMMA_X, h)
    assert check_coprodcontrib(LEAF, psi, GAMMA_X, h)
    assert check_coprodcontrib(L2, psi, GAMMA_X, h)
    assert not check_coprodcontrib(CHERRY, psi, GAMMA_X, h)
    assert not check_pushforward(LADDER3, psi, GAMMA_X, h)


def test_every_check_is_first_mismatch_over_its_sides():
    # on these seeds the trees with three or more vertices fail the
    # coproduct and transfer relations, so both outcomes are compared
    trees = [t for n in range(1, 5) for t in enumerate_trees(n)]
    outcomes = []

    def agree(ok, sides, t=LEAF):
        assert ok == (first_mismatch(*sides) is None)
        outcomes.append((ok, t.vertex_count))

    for seed in range(2):
        psi, eta, a, b = rand_instance(seed + 120)
        h = b.f
        agree(check_cocycle(psi, eta, GAMMA_X), cocycle_sides(psi, eta, GAMMA_X))
        for k in (1, 2, 3):
            agree(check_delta_chain(k, a, GAMMA_X), delta_chain_sides(k, a, GAMMA_X))
            agree(check_delta_coproduct_lincomb(delta_k(k), a, b, GAMMA_X),
                  delta_coproduct_sides(delta_k(k), a, b, GAMMA_X))
        for t in trees:
            agree(check_delta_coproduct(t, a, b, GAMMA_X),
                  delta_coproduct_sides(LinComb.of(t), a, b, GAMMA_X), t)
            agree(check_X_coproduct(t, a, b, GAMMA_X), X_coproduct_sides(t, a, b, GAMMA_X), t)
            # the shared left side of the two transferred-operator relations
            lhs = transferred_side(t, psi, GAMMA_X, h)
            want = phi_frame_op(t, GAMMA_X, lift_apply(psi, h), psi.trunc)
            assert (lhs._den, lhs._rows) == (want._den, want._rows), t.serial
            agree(check_coprodcontrib(t, psi, GAMMA_X, h),
                  (lhs, coprodcontrib_rhs(t, psi, GAMMA_X, h)), t)
            agree(check_pushforward(t, psi, GAMMA_X, h),
                  (lhs, pushforward_rhs(t, psi, GAMMA_X, h)), t)
    assert any(ok for ok, _ in outcomes)
    assert any(not ok and n >= 3 for ok, n in outcomes)


def test_commutator_report_reads_commutator_sides():
    trees = [t for n in range(1, 4) for t in enumerate_trees(n)]
    _, _, m, _ = rand_instance(53)
    for t in trees:
        for u in trees:
            if t.vertex_count + u.vertex_count > 5:
                continue
            sides = commutator_sides(t, u, m, GAMMA_X)
            rep = check_commutators(t, u, m, GAMMA_X)
            mismatches = [(r, first_mismatch(lhs, rhs)) for r, lhs, rhs in sides]
            assert list(rep.results.items()) == [(r, mm is None) for r, mm in mismatches]
            assert list(rep.mismatches.items()) == [(r, mm) for r, mm in mismatches if mm]
    # a failing relation keeps its place and its mismatch
    a = FrameFunction.y_times(xs({(1,): 1}))
    b = FrameFunction.y_times(xs({(1,): 1, (2,): 1}))
    rep = CommutatorReport([("differ", a, b), ("same", a, a)])
    assert list(rep.results.items()) == [("differ", False), ("same", True)]
    assert rep.mismatches == {"differ": (1, 2, Fraction(0), Fraction(1))}
    assert not rep and rep.failing() == ["differ"]


def test_classical_relations_survive_flat_curvature():
    for seed in range(3):
        _, _, m, _ = rand_instance(seed + 70)
        rep = check_commutators(LEAF, LEAF, m, GAMMA_0)
        assert rep.ok
        assert check_delta_chain(1, m, GAMMA_0)


def test_formal_diffeo_validation():
    with pytest.raises(ValueError):
        FormalDiffeo(xs({(0,): 1, (1,): 1}))
    with pytest.raises(ValueError):
        FormalDiffeo(xs({(1,): -1}))
    assert PSI.inverse().compose(PSI).is_identity()


def test_truncation_error_surfaces():
    short = FormalDiffeo(MultiSeries(1, {(1,): 1, (2,): 1}, 2))
    with pytest.raises(TruncationError):
        gamma_t(parse_tree("[[[][]]]"), short, MultiSeries(1, {(1,): 1}, 2))


def test_parse_frame_function():
    from treehopf import parse_frame_function

    h = parse_frame_function("y^2 x - y", trunc=D)
    want = FrameFunction({2: xs({(1,): 1}), 1: xs({(0,): -1})})
    assert h.eq_retained(want)
    assert parse_frame_function("1/3", trunc=D).eq_retained(
        FrameFunction.constant(Fraction(1, 3), D))


def test_forced_vertex_symbols_differ_by_flat_cocycle():
    from treehopf.frame import forced_vertex_symbols

    rng = random.Random(9)
    for _ in range(4):
        psi = random_diffeo(rng, D)
        full, curvature_only, flat = forced_vertex_symbols(psi, GAMMA_X)
        assert (curvature_only + flat).eq_retained(full)
        assert full.eq_retained(gamma_bullet(psi, GAMMA_X))
        # with nonlinear psi the two forced values genuinely differ
        if not flat.is_zero():
            assert not curvature_only.eq_retained(full)


def test_monomial_refuses_assignment_and_deletion():
    m = Monomial(FrameFunction.constant(1, D), PSI)
    for name in ("f", "psi", "_ops", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(m, name, None)
    for name in ("f", "psi", "_ops"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(m, name)
    assert m.psi is PSI


def test_X_and_delta_from_a_warm_monomial_equal_a_fresh_one():
    # a monomial keeps X_t(m) and delta_t(m) for trees and forests t; reading
    # them back, in the reverse order, must give what a new monomial computes
    rng = random.Random(11)
    f, psi = random_frame_function(rng, D), random_diffeo(rng, D)
    trees = [t for n in range(1, 5) for t in enumerate_trees(n)]
    forests = [EMPTY_FOREST] + [Forest((t,)) for t in trees]
    pairs = [Forest((LEAF, LEAF)), Forest((LEAF, L2)), Forest((CHERRY, LADDER3))]
    inputs = [(op, t) for t in trees + forests for op in (X_t_apply, delta_t_apply)]
    inputs += [(delta_t_apply, p) for p in pairs]
    warm = Monomial(f, psi)
    for op, t in inputs:
        op(t, warm, GAMMA_X)
    for op, t in reversed(inputs):
        got = op(t, warm, GAMMA_X)
        want = op(t, Monomial(f, psi), GAMMA_X)
        assert got.psi is want.psi is psi
        assert (str(got.f), got.f.trunc) == (str(want.f), want.f.trunc), (op, t.serial)
    # X extends over single trees only: a two-tree forest raises every time
    for m in (warm, warm, Monomial(f, psi)):
        for p in pairs:
            with pytest.raises(ValueError, match="single trees only"):
                X_t_apply(p, m, GAMMA_X)


def test_delta_and_X_over_a_combination_fold_term_by_term():
    # the linear extension adds c (term of F) left to right in term order,
    # from the zero frame function; delta multiplies the sum by m.f once
    from treehopf.frame import _gamma_forest

    rng = random.Random(5)
    m = Monomial(random_frame_function(rng, D), random_diffeo(rng, D))
    grown = natural_growth(L2, LinComb.of(CHERRY))
    with_unit = delta_k(2) + LinComb.unit().scale(Fraction(-2, 3))
    for x in (delta_k(3), grown, with_unit):
        total = FrameFunction.zero()
        for forest, c in x.terms.items():
            total = total + _gamma_forest(forest, m.psi, GAMMA_X).scale(c)
        got = delta_t_apply(x, m, GAMMA_X).f
        want = total * m.f
        assert (str(got), got.trunc) == (str(want), want.trunc), str(x)
    for x in (delta_k(3), grown, with_unit, grown + with_unit):
        want = FrameFunction.zero()
        for forest, c in x.terms.items():
            want = want + X_t_apply(forest, m, GAMMA_X).f.scale(c)
        got = X_t_apply(x, m, GAMMA_X).f
        assert (str(got), got.trunc) == (str(want), want.trunc), str(x)
    with pytest.raises(ValueError, match="^X extends linearly over single trees only$"):
        X_t_apply(grown + LinComb.of(Forest((LEAF, L2))), m, GAMMA_X)


def test_monomial_memo_keeps_curvature_truncation_orders_apart():
    # GAMMA_X and its order-4 truncation are equal as series, so a memo keyed
    # on the series alone would hand one's result to the other
    short = GAMMA_X.with_trunc(4)
    rng = random.Random(12)
    f, psi = random_frame_function(rng, D), random_diffeo(rng, D)
    m = Monomial(f, psi)
    for t in (LEAF, L2, CHERRY):
        for op in (X_t_apply, delta_t_apply):
            truncs = []
            for gamma in (GAMMA_X, short, GAMMA_X):
                got = op(t, m, gamma).f
                want = op(t, Monomial(f, psi), gamma).f
                assert (str(got), got.trunc) == (str(want), want.trunc), (op, t.serial)
                truncs.append(got.trunc)
            assert truncs[0] == truncs[2] != truncs[1]


def grid(f):
    return list(f._rows.items()), f._den


def test_frame_function_keeps_its_derivatives():
    rng = random.Random(13)
    f = random_frame_function(rng, D)
    fresh = FrameFunction(f.coeffs)
    assert f.deriv(0) is f.dx() is f.deriv(0) and f.deriv(1) is f.dz() is f.deriv(1)
    assert grid(f.dx()) == grid(fresh.dx()) and grid(f.dz()) == grid(fresh.dz())
    assert f.dx().dz() is f.dx().dz() and grid(f.dx().dz()) == grid(fresh.dz().dx())
    short = FrameFunction({0: MultiSeries.constant(1, 1, 0), 1: xs({(2,): 1})})
    for _ in range(2):                                  # an exhausted derivative keeps nothing
        with pytest.raises(TruncationError):
            short.dx()
    assert short._dx is None and short.dz() is short.dz()


def test_monomial_keeps_Y_and_phi_per_curvature_order():
    from treehopf import frame as fr

    short = GAMMA_X.with_trunc(5)
    rng = random.Random(14)
    f, psi = random_frame_function(rng, D), random_diffeo(rng, D)
    m = Monomial(f, psi)
    assert Y_apply(m) is Y_apply(m) and Y_apply(m).f is f.dz()
    for gamma in (GAMMA_X, short, GAMMA_X, short):
        for t, tp in ((LEAF, LEAF), (LEAF, L2), (L2, CHERRY)):
            got = check_commutators(t, tp, m, gamma)
            want = check_commutators(t, tp, Monomial(f, psi), gamma)
            assert got.results == want.results and got.mismatches == want.mismatches
        got, want = X_t_apply(L2, m, gamma).f, X_t_apply(L2, Monomial(f, psi), gamma).f
        assert grid(got) == grid(want)
    # X_t reads phi_{B+(t)}: one entry per tree and curvature order, B+(L2) included
    phis = [key for key in m._ops if isinstance(key, tuple) and key[0] is fr._phi_on]
    assert {(s, trunc) for _, s, _, trunc in phis if s == LADDER3} == {(LADDER3, 8), (LADDER3, 5)}
    assert len(phis) == len(set(phis)) and len({s for _, s, _, _ in phis}) * 2 == len(phis)
    assert sum(1 for key in m._ops if key is Y_apply) == 1
    assert grid(X_t_apply(L2, m, GAMMA_X).f) == grid(fr._phi_on(LADDER3, m, GAMMA_X))


def test_psi_keeps_its_vertex_symbol_per_curvature_order(monkeypatch):
    from treehopf import frame as fr

    short = GAMMA_X.with_trunc(5)
    psi = diffeo({(1,): 1, (2,): Fraction(1, 2), (3,): -1})
    got = [gamma_bullet(psi, g) for g in (GAMMA_X, short, GAMMA_X, short)]
    assert got[0] is got[2] and got[1] is got[3] and got[0] is not got[1]
    assert got[0].trunc == 6 and got[1].trunc == 5       # psi'' is cut at 6
    for g, out in zip((GAMMA_X, short), got):
        fresh = gamma_bullet(FormalDiffeo(psi.series), g)
        assert fresh is not out and grid(out) == grid(fresh)
    # gamma_t is kept on psi too: one phi_frame_op per tree and curvature order
    calls = []
    phi_frame_op = fr.phi_frame_op
    monkeypatch.setattr(fr, "phi_frame_op", lambda *args: calls.append(args) or phi_frame_op(*args))
    for g in (GAMMA_X, short, GAMMA_X, short):
        assert gamma_t(LEAF, psi, g) is gamma_bullet(psi, g)
        assert gamma_t(L2, psi, g) is gamma_t(L2, psi, g)
    assert [(t, g.trunc) for t, g, _, _ in calls] == [(LEAF, 8), (L2, 8), (LEAF, 5), (L2, 5)]


def test_no_result_depends_on_call_order_or_on_what_a_memo_holds():
    # gamma_t and delta_t are kept on psi and on the monomial, and phi_frame
    # on Gamma; each result must be what fresh equal-valued objects compute.
    # Gamma has degree 4, so it is equal, as a series, at orders D and 5.
    rng = random.Random(16)
    trees = [t for n in range(1, 5) for t in enumerate_trees(n)]
    f, psi, eta = random_frame_function(rng, D), random_diffeo(rng, D), random_diffeo(rng, D)
    gamma = random_xseries(rng, 4)

    def copy(s, trunc=None):
        return MultiSeries(1, s.terms, s.trunc if trunc is None else trunc)

    def objects(product_psi):
        # psi, eta o psi and Gamma at two truncation orders
        psis = (FormalDiffeo(copy(psi.series)), product_psi)
        return {"psi": [(p, Monomial(FrameFunction(f.coeffs), p)) for p in psis],
                "gamma": (copy(gamma, D), copy(gamma, 5))}

    def run(call, objs):
        op, t, i, j = call
        (p, m), g = objs["psi"][i], objs["gamma"][j]
        if op == "gamma_t":
            out = (gamma_t(t, p, g),)
        elif op == "phi_frame":                     # i picks the requested order
            out = phi_frame(t, g, (D, 6)[i])
        else:
            out = (delta_t_apply(t, m, g).f,)
        return [(h._rows, h._den, h.trunc) for h in out]

    product = monomial_product(Monomial(f, psi), Monomial(f, eta)).psi
    assert copy(gamma, D) == copy(gamma, 5)
    assert product.series.eq_retained(eta.series.compose1(psi.series))
    calls = [(op, t, i, j) for op in ("gamma_t", "phi_frame", "delta_t_apply")
             for t in trees for i in (0, 1) for j in (0, 1)]
    results = []
    for product_psi in (product, FormalDiffeo(copy(product.series))):
        objs, order = objects(product_psi), calls[:]
        rng.shuffle(order)
        results.append({call: run(call, objs) for call in order})
    fresh = {call: run(call, objects(FormalDiffeo(copy(product.series)))) for call in calls}
    assert results[0] == results[1] == fresh


def test_gamma_forest_needs_no_constant_factor():
    # every row of gamma_t is cut below psi.trunc, so the product by the
    # constant 1 at psi.trunc, which the empty forest still returns, would
    # change no row of a nonempty forest
    from treehopf.frame import _gamma_forest

    rng = random.Random(15)
    trees = [t for n in range(1, 5) for t in enumerate_trees(n)]
    for order in (3, 5, 8):
        psi = random_diffeo(rng, order)
        one = FrameFunction.constant(1, order)
        assert grid(_gamma_forest(EMPTY_FOREST, psi, GAMMA_X)) == grid(one)
        for gamma in (GAMMA_X, MultiSeries(1, GAMMA_X.terms), GAMMA_X.with_trunc(4)):
            gammas = {}
            for t in trees:
                try:
                    gammas[t] = g = gamma_t(t, psi, gamma)
                except TruncationError:
                    continue
                assert all(trunc is not None and trunc < order for trunc, _ in g._rows.values())
                assert _gamma_forest(Forest((t,)), psi, gamma) is g
                assert grid(one * g) == grid(g)
            for t, u in zip(gammas, list(gammas)[1:]):
                pair = Forest((t, u))
                want = one * gammas[pair.trees[0]] * gammas[pair.trees[1]]
                assert grid(_gamma_forest(pair, psi, gamma)) == grid(want)
