from fractions import Fraction
from math import factorial

import pytest

from treehopf import (
    MultiSeries,
    ODEProblem,
    SeriesParseError,
    TruncationError,
    VectorField,
    parse_polynomial,
    parse_vector_field,
    series_solve,
)


def s1(terms, trunc=None):
    return MultiSeries(1, terms, trunc)


def test_arithmetic_basics():
    a = MultiSeries(2, {(1, 0): 1, (0, 1): Fraction(1, 2)})
    b = MultiSeries(2, {(1, 0): -1, (1, 1): 2})
    assert (a + b).terms == {(0, 1): Fraction(1, 2), (1, 1): Fraction(2)}
    assert (a - a).is_zero()
    prod = a * b
    assert prod.terms[(2, 0)] == -1
    assert prod.terms[(1, 2)] == 1
    assert a.scale(0).is_zero()


def test_truncation_propagates():
    a = s1({(1,): 1}, trunc=4)
    b = s1({(3,): 1}, trunc=None)
    assert (a * b).trunc == 4
    assert (a * b * b).is_zero()  # degree 7 > 4 dropped
    assert (a + b).trunc == 4
    assert a.deriv(0).trunc == 3


def test_deeper_truncation_never_changes_retained_coefficients():
    poly = {(0,): 1, (1,): Fraction(2, 3), (2,): -1, (3,): Fraction(1, 5)}
    shallow = s1(poly, trunc=4)
    deep = s1(poly, trunc=9)
    prod_a = (shallow * shallow).with_trunc(4)
    prod_b = (deep * deep).with_trunc(4)
    assert prod_a.eq_retained(prod_b)


def test_derivative_and_eval():
    a = s1({(3,): Fraction(1, 2)})
    assert a.deriv(0).terms == {(2,): Fraction(3, 2)}
    assert a.eval0() == 0
    assert s1({(0,): 7}).eval0() == 7
    with pytest.raises(TruncationError):
        s1({(1,): 1}, trunc=0).deriv(0)


def test_coeff_below_zero_and_past_the_jet_is_zero():
    for s in (s1({(0,): 1, (1,): 2}), s1({(0,): 3, (2,): Fraction(-1, 2)}, trunc=4)):
        assert [s.coeff(k) for k in (-3, -2, -1)] == [0, 0, 0]
        assert s.coeff(7) == 0
    assert s1({(0,): 1, (1,): 2}).coeff(1) == 2
    assert s1({(0,): 3, (2,): Fraction(-1, 2)}, trunc=4).coeff(2) == Fraction(-1, 2)


def test_compose_reciprocal_reversion():
    f = s1({(1,): 1, (2,): 1}, trunc=8)          # x + x^2
    g = s1({(1,): 2, (3,): -1}, trunc=8)         # 2x - x^3
    x = MultiSeries.variable(1, 0, 8)
    fg = f.compose1(g)
    gf = g.compose1(f)
    assert fg.coeff(1) == 2 and fg.coeff(2) == 4
    inv = f.reversion()
    assert f.compose1(inv).eq_retained(x)
    assert inv.compose1(f).eq_retained(x)
    rec = (s1({(0,): 1, (1,): 1}, trunc=8)).reciprocal()
    assert all(rec.coeff(k) == (-1) ** k for k in range(9))
    with pytest.raises(ValueError):
        g.compose1(s1({(0,): 1}, trunc=4))
    with pytest.raises(ValueError):
        s1({(1,): 1}).reciprocal()
    assert not fg.eq_retained(gf)


def test_parse_polynomial():
    p = parse_polynomial("x2 + 1/2 x1^2", ["x1", "x2"])
    assert p.terms == {(0, 1): 1, (2, 0): Fraction(1, 2)}
    q = parse_polynomial("1 + x - 3/2 x^3", ["x"])
    assert q.terms == {(0,): 1, (1,): 1, (3,): Fraction(-3, 2)}
    r = parse_polynomial("2 x1 x2 - x1*x2", ["x1", "x2"])
    assert r.terms == {(1, 1): 1}
    with pytest.raises(SeriesParseError):
        parse_polynomial("x3", ["x1", "x2"])
    with pytest.raises(SeriesParseError):
        parse_polynomial("x1 ^", ["x1"])
    with pytest.raises(SeriesParseError):
        parse_polynomial("", ["x1"])


def test_parse_vector_field():
    vf = parse_vector_field("f1 = x2 + 1/2 x1^2\nf2 = x1")
    assert vf.nvars == 2
    assert vf.components[0].terms == {(0, 1): 1, (2, 0): Fraction(1, 2)}
    with pytest.raises(SeriesParseError):
        parse_vector_field("g1 = x1")
    with pytest.raises(SeriesParseError):
        parse_vector_field("f1 = x1\nf3 = x2")


def test_series_solve_zero_field():
    f = VectorField([MultiSeries(2, {}), MultiSeries(2, {})])
    sol = series_solve(ODEProblem(f, 5))
    assert all(c == 0 for vec in sol for c in vec)


def test_series_solve_exponential():
    f = VectorField([s1({(0,): 1, (1,): 1})])   # dx/ds = 1 + x
    sol = series_solve(ODEProblem(f, 8))
    for k in range(1, 9):
        assert sol[k][0] == Fraction(1, factorial(k))


def test_series_solve_logistic_style():
    # dx/ds = x^2 + 1 from 0: tan(s) = s + s^3/3 + 2 s^5/15 + ...
    f = VectorField([s1({(0,): 1, (2,): 1})])
    sol = series_solve(ODEProblem(f, 7))
    got = [sol[k][0] for k in range(8)]
    assert got == [0, 1, 0, Fraction(1, 3), 0, Fraction(2, 15), 0, Fraction(17, 315)]


def test_series_solve_skips_monomials_above_the_order():
    # x(0) = 0, so x1^e is O(s^e): any e above the order gives the same
    # coefficients as order + 1, and a huge e must not build its powers
    order = 6
    for extra in ("", " + x1 x2"):
        got, want = (series_solve(ODEProblem(parse_vector_field(
            f"f1 = 1 + x1^{e}{extra}\nf2 = x1^3 + 1/2 x2"), order)) for e in (2000000, order + 1))
        assert got == want and any(got[order])
    # total degree counts: x1^3 x2^4 is O(s^7), x1^3 x2^3 is not
    f = parse_vector_field("f1 = 1 + x1^3 x2^3\nf2 = 1")
    g = parse_vector_field("f1 = 1 + x1^3 x2^4\nf2 = 1")
    s = series_solve(ODEProblem(f, 7))
    assert s[7][0] == Fraction(1, 7) and series_solve(ODEProblem(g, 7))[7][0] == 0


def test_ode_problem_validation():
    f = VectorField([s1({(1,): 1}, trunc=3)])
    with pytest.raises(ValueError):
        ODEProblem(f, 0)
    with pytest.raises(TruncationError):
        ODEProblem(f, 5)


def test_ring_laws_under_truncation():
    from hypothesis import given, settings, strategies as st

    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    expo = st.tuples(st.integers(0, 3), st.integers(0, 3))
    polys = st.dictionaries(expo, coeff, max_size=4).map(
        lambda d: MultiSeries(2, d, trunc=4))

    # No explain phase: it traces every line of a failing run.
    @given(polys, polys, polys)
    @settings(max_examples=40)
    def run(a, b, c):
        assert ((a + b) * c).eq_retained(a * c + b * c)
        assert (a * b).eq_retained(b * a)
        assert ((a * b) * c).eq_retained(a * (b * c))

    run()


def test_exact_composition_stays_exact():
    f = s1({(2,): 1})          # x^2, exact
    g = s1({(1,): 1, (2,): 1})  # x + x^2, exact
    fg = f.compose1(g)
    assert fg.trunc is None
    assert fg.terms == {(2,): 1, (3,): 2, (4,): 1}
    deep = fg * s1({(10,): 1})
    assert deep.terms == {(12,): 1, (13,): 2, (14,): 1}


def test_exact_reciprocal_and_reversion_edges():
    assert s1({(0,): Fraction(2)}).reciprocal().terms == {(0,): Fraction(1, 2)}
    assert s1({(1,): 2}).reversion().terms == {(1,): Fraction(1, 2)}
    with pytest.raises(TruncationError):
        s1({(0,): 1, (1,): 1}).reciprocal()
    with pytest.raises(TruncationError):
        s1({(1,): 1, (2,): 1}).reversion()
