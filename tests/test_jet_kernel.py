"""The dense univariate jet kernel against the sparse Fraction oracles.

Products, compositions, reciprocals and reversions of one-variable
series must give the same terms and the same truncation order as the
term-by-term arithmetic in `oracles.py`, whatever power tables the
series already hold.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import series_compose1, series_mul, series_power, series_reciprocal, series_reversion
from treehopf import FormalDiffeo, FrameFunction, MultiSeries, TruncationError, lift_apply

ORDERS = (8, 16)


def s1(terms, trunc=None):
    return MultiSeries(1, terms, trunc)


def random_jet(rng, trunc, degree=None, min_degree=0):
    """Seeded series with negative, Fraction and zero coefficients.

    `degree` bounds the exponents (default: the truncation order); with
    `trunc=None` the result is an exact polynomial.
    """
    top = trunc if degree is None else degree
    terms = {}
    for k in range(min_degree, top + 1):
        if rng.random() < 0.25:
            continue
        terms[(k,)] = Fraction(rng.randint(-7, 7), rng.choice((1, 1, 2, 3, 5, 12)))
    return s1(terms, trunc)


def random_inner(rng, trunc, degree=None):
    """Seeded series with zero constant term and nonzero slope."""
    s = random_jet(rng, trunc, degree, min_degree=1)
    if not s.coeff(1):
        s = s + s1({(1,): Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 4)))}, trunc)
    return s


def random_diffeo(rng, trunc):
    """Seeded orientation-preserving jet fixing 0."""
    terms = dict(random_inner(rng, trunc).terms)
    terms[(1,)] = abs(terms[(1,)])
    return FormalDiffeo(s1(terms, trunc))


def same(got, want):
    assert got.terms == want.terms
    assert got.trunc == want.trunc
    assert all(isinstance(c, Fraction) for c in got.terms.values())


def operand_pairs(rng, order):
    """(outer, inner) pairs: truncated, exact, mixed truncations, zero, constant."""
    low = order // 2
    yield random_jet(rng, order), random_inner(rng, order)
    yield random_jet(rng, None, degree=4), random_inner(rng, None, degree=3)
    yield random_jet(rng, low), random_inner(rng, order)        # self.trunc < inner.trunc
    yield random_jet(rng, order), random_inner(rng, low)        # the reverse
    yield random_jet(rng, None, degree=order + 3), random_inner(rng, order)
    yield random_jet(rng, order), random_inner(rng, None, degree=3)
    yield s1({}, order), random_inner(rng, order)
    yield random_jet(rng, order), s1({}, order)
    yield s1({(0,): Fraction(-5, 3)}, order), random_inner(rng, low)
    yield s1({(0,): 4}), s1({})


@pytest.mark.parametrize("order", ORDERS)
def test_product_and_composition_match_oracles(order):
    rng = random.Random(order)
    for _ in range(12):
        for outer, inner in operand_pairs(rng, order):
            same(outer * inner, series_mul(outer, inner))
            same(inner * outer, series_mul(inner, outer))
            same(outer.compose1(inner), series_compose1(outer, inner))
            same(inner.compose1(inner), series_compose1(inner, inner))


@pytest.mark.parametrize("order", ORDERS)
def test_reciprocal_and_reversion_match_oracles(order):
    rng = random.Random(100 + order)
    for trunc in (1, 2, order // 2, order):
        for _ in range(8):
            unit = random_jet(rng, trunc)
            if not unit.eval0():
                c0 = Fraction(rng.choice((-2, 1, 3)), rng.choice((1, 7)))
                unit = unit + s1({(0,): c0}, trunc)
            same(unit.reciprocal(), series_reciprocal(unit))
            psi = random_inner(rng, trunc)
            same(psi.reversion(), series_reversion(psi))
    same(s1({(0,): Fraction(-2, 3)}).reciprocal(), series_reciprocal(s1({(0,): Fraction(-2, 3)})))
    same(s1({(1,): -4}).reversion(), series_reversion(s1({(1,): -4})))
    with pytest.raises(TruncationError):
        s1({(1,): 1, (2,): 1}).reversion()
    with pytest.raises(ValueError):
        s1({(2,): 1}, order).reversion()


def test_power_table_honours_each_truncation():
    """Equal inner terms at orders 8 and 16, in both orders of first use."""
    rng = random.Random(5)
    terms = random_inner(rng, 16).terms
    outer = random_jet(rng, 16)
    for first, second in ((8, 16), (16, 8)):
        results = {}
        for trunc in (first, second):
            inner = s1(terms, trunc)
            results[trunc] = outer.compose1(inner)
            same(results[trunc], series_compose1(outer, inner))
        assert results[8].trunc == 8 and results[16].trunc == 16
        assert results[8] != results[16]        # __eq__ ignores trunc, the terms differ

    # One inner series whose table is built by a deep outer series and
    # then read by a shallow one, and the reverse.
    for outer_orders in ((16, 8), (8, 16)):
        inner = s1(terms, 16)
        for o in outer_orders:
            outer_o = outer.with_trunc(o)
            same(outer_o.compose1(inner), series_compose1(outer_o, inner))

    # Every row of the table is the power it stands for, at the inner order.
    for trunc in (8, 16, None):
        inner = s1(terms, trunc) if trunc else s1({k: c for k, c in terms.items() if k[0] <= 3})
        power = MultiSeries.constant(1, 1, trunc)
        for k in range(17):
            same(series_power(inner, k), power)
            power = series_mul(power, inner)


def test_cold_and_warm_series_agree():
    rng = random.Random(11)
    outer_terms = random_jet(rng, 16).terms
    inner_terms = random_diffeo(rng, 16).series.terms
    h_terms = [random_jet(rng, 16).terms for _ in range(3)]

    def run(psi, outer):
        h = FrameFunction({k: s1(t, 16) for k, t in enumerate(h_terms)})
        return (outer.compose1(psi.series), outer * psi.series, psi.d() * psi.d(),
                psi.series.reversion(), psi.d().reciprocal(), lift_apply(psi, h))

    cold = run(FormalDiffeo(s1(inner_terms, 16)), s1(outer_terms, 16))
    psi, outer = FormalDiffeo(s1(inner_terms, 16)), s1(outer_terms, 16)
    for _ in range(2):
        warm = run(psi, outer)
    for a, b in zip(cold[:-1], warm[:-1]):
        same(a, b)
    assert cold[-1] == warm[-1] and cold[-1].trunc == warm[-1].trunc


def test_lift_matches_oracle_lift():
    """(g o psi) psi'^k on each y^k coefficient, from the sparse oracles."""
    rng = random.Random(3)
    for order in ORDERS:
        psi = random_diffeo(rng, order)
        h = FrameFunction({k: random_jet(rng, order) for k in range(4)})
        dpsi = psi.series.deriv(0)
        want = {}
        for k, g in h.coeffs.items():
            term = series_compose1(g, psi.series)
            power = MultiSeries.constant(1, 1, psi.trunc)
            for _ in range(k):
                power = series_mul(power, dpsi)
            want[k] = series_mul(term, power)
        got = lift_apply(psi, h)
        assert set(got.coeffs) == {k for k, g in want.items() if not g.is_zero()}
        for k, g in got.coeffs.items():
            same(g, want[k])


# -- group laws of formal diffeomorphisms --------------------------------------

COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=5)


def diffeos(order):
    """Series x*(slope + ...) with a nonzero slope, truncated at `order`."""
    slope = COEFF.filter(bool)
    rest = st.lists(COEFF, min_size=0, max_size=order - 1)
    return st.tuples(slope, rest).map(
        lambda sr: s1({(k + 1,): c for k, c in enumerate([sr[0]] + sr[1])}, order))


def table(psi, order):
    """The power table M(psi): row k holds the coefficients of psi^k."""
    return [[series_power(psi, k).coeff(i) for i in range(order + 1)] for k in range(order + 1)]


@pytest.mark.parametrize("order", ORDERS)
def test_diffeomorphism_group_laws(order):
    # No explain phase: it traces every line, and on a failing run it grew
    # past 1 GB before reporting.
    @given(diffeos(order), diffeos(order), diffeos(order))
    @settings(max_examples=8)
    def run(psi, eta, zeta):
        x = MultiSeries.variable(1, 0, order)
        same(psi.compose1(eta).compose1(zeta), psi.compose1(eta.compose1(zeta)))
        inv = psi.reversion()
        assert psi.compose1(inv).eq_retained(x)
        assert inv.compose1(psi).eq_retained(x)
        m_psi, m_eta, m_both = table(psi, order), table(eta, order), table(psi.compose1(eta), order)
        product = [[sum(row[i] * m_eta[i][j] for i in range(order + 1)) for j in range(order + 1)]
                   for row in m_psi]
        assert m_both == product

    run()
