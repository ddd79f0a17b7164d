"""Sums, scalings, derivatives, products and comparisons on int numerators.

Every MultiSeries computes on int numerators over one denominator.  Each
operation must give the terms and the truncation order of the dict-of-
Fractions arithmetic in `oracles.py`, in one, two and three variables,
and must store the least common denominator: the lcm of the denominators
of its reduced terms, never a multiple of it.  Scaling by 1 returns the
operand itself.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    series_add,
    series_deriv,
    series_eq_retained,
    series_mul,
    series_mul_sparse,
    series_scale,
)
from treehopf import FrameFunction, MultiSeries, TruncationError

NVARS = (1, 2, 3)
SCALARS = (0, 1, -1, 3, Fraction(-2, 3), Fraction(5, 12), Fraction(7, 2))


def random_series(rng, nvars, trunc, degree=None):
    """Seeded series with negative, Fraction and zero coefficients.

    `degree` bounds the total degree of the exponents (default: the
    truncation order, or 4 for an exact polynomial).
    """
    top = degree if degree is not None else (4 if trunc is None else trunc)
    terms = {}
    for _ in range(rng.randint(0, 12)):
        e = [0] * nvars
        for _ in range(rng.randint(0, top)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = Fraction(rng.randint(-7, 7), rng.choice((1, 1, 2, 3, 5, 12)))
    return MultiSeries(nvars, terms, trunc)


def working(s):
    """The same series held only in the working form, its terms not yet built."""
    out = s + MultiSeries.zero(s.nvars)
    assert out._terms is None
    return out


def assert_form(s):
    """The working form is the reduced one and agrees with the terms."""
    nums, den = s._jet()
    terms = s.terms
    assert all(isinstance(c, Fraction) and c for c in terms.values())
    assert den == lcm(*(c.denominator for c in terms.values()))
    if s.nvars == 1:
        if s.trunc is not None:
            assert len(nums) == s.trunc + 1
        else:
            assert not nums or nums[-1]
        assert {(k,): Fraction(v, den) for k, v in enumerate(nums) if v} == terms
    else:
        assert all(nums.values())
        assert {e: Fraction(v, den) for e, v in nums.items()} == terms


def same(got, want):
    assert got.nvars == want.nvars
    assert got.terms == want.terms
    assert got.trunc == want.trunc
    assert_form(got)


def operands(rng, nvars, order):
    """Pairs: truncated, exact, mixed truncations, zero, constant, cancelling."""
    low = order // 2
    a = random_series(rng, nvars, order)
    yield a, random_series(rng, nvars, order)
    yield random_series(rng, nvars, None), random_series(rng, nvars, None, degree=3)
    yield random_series(rng, nvars, low), random_series(rng, nvars, order)
    yield random_series(rng, nvars, order), random_series(rng, nvars, low)
    yield random_series(rng, nvars, None, degree=order + 2), random_series(rng, nvars, order)
    yield random_series(rng, nvars, order), random_series(rng, nvars, None, degree=2)
    yield MultiSeries.zero(nvars, order), random_series(rng, nvars, order)
    yield random_series(rng, nvars, None), MultiSeries.zero(nvars)
    yield MultiSeries.constant(nvars, Fraction(-5, 3), order), random_series(rng, nvars, low)
    yield MultiSeries.constant(nvars, 4), MultiSeries.constant(nvars, Fraction(1, 6), low)
    yield a, a.scale(-1)
    yield a, MultiSeries(nvars, a.terms, low).scale(-1)


@pytest.mark.parametrize("nvars", NVARS)
def test_sums_products_and_comparisons_match_oracles(nvars):
    rng = random.Random(nvars)
    for order in (3, 6):
        for _ in range(6):
            for a, b in operands(rng, nvars, order):
                for x, y in ((a, b), (b, a), (working(a), working(b))):
                    same(x + y, series_add(x, y))
                    same(x - y, series_add(x, series_scale(y, -1)))
                    same(x * y, series_mul_sparse(x, y))
                    if nvars == 1:
                        same(x * y, series_mul(x, y))
                    assert x.eq_retained(y) == series_eq_retained(x, y)
                    assert (x + y).is_zero() == (not series_add(x, y).terms)


@pytest.mark.parametrize("nvars", NVARS)
def test_scalings_negations_and_derivatives_match_oracles(nvars):
    rng = random.Random(10 + nvars)
    for order in (1, 3, 6):
        for _ in range(6):
            for a, b in operands(rng, nvars, order):
                for s in (a, b, working(a)):
                    same(-s, series_scale(s, -1))
                    for c in SCALARS:
                        same(s.scale(c), series_scale(s, c))
                    for i in range(nvars):
                        if s.trunc is not None and s.trunc < 1:
                            continue                # test_derivative_at_order_zero_raises
                        same(s.deriv(i), series_deriv(s, i))
                        if s.trunc is None or s.trunc >= 2:
                            same(s.deriv(i).deriv(i), series_deriv(series_deriv(s, i), i))


@pytest.mark.parametrize("nvars", NVARS)
def test_scaling_by_one_returns_the_operand(nvars):
    rng = random.Random(30 + nvars)
    for a, b in operands(rng, nvars, 4):
        for s in (a, b, working(a)):
            assert s.scale(1) is s and s.scale(Fraction(1)) is s
            for c in (-1, 0, Fraction(3, 2)):
                same(s.scale(c), series_scale(s, c))


@pytest.mark.parametrize("nvars", NVARS)
def test_retained_equality_and_truncation(nvars):
    rng = random.Random(20 + nvars)
    for _ in range(10):
        a = random_series(rng, nvars, 6)
        high = random_series(rng, nvars, 6)
        high = MultiSeries(nvars, {e: c for e, c in high.terms.items() if sum(e) > 3}, 6)
        for low in (a.with_trunc(3), working(a).with_trunc(3)):
            same(low, MultiSeries(nvars, a.terms, 3))
            assert low.eq_retained(a) and a.eq_retained(low)
            assert (a + high).eq_retained(low) and series_eq_retained(a + high, low)
        if not high.is_zero():
            assert not (a + high).eq_retained(a)
        assert a.with_trunc(6) is a and a.with_trunc(None) is a
        exact = MultiSeries(nvars, a.terms)
        same(exact.with_trunc(2), MultiSeries(nvars, a.terms, 2))


def test_cancelling_sums_are_zero_everywhere():
    rng = random.Random(7)
    for nvars in NVARS:
        for trunc in (None, 0, 4):
            a = random_series(rng, nvars, trunc)
            for d in (a - a, working(a) - a, a + a.scale(-1), (-a) + a, a.scale(0)):
                assert d.is_zero() and not d.terms and d.trunc == trunc
                same(d, MultiSeries.zero(nvars, trunc))
                assert d == MultiSeries.zero(nvars)
    g = MultiSeries(1, {(0,): Fraction(1, 3), (2,): -2}, 5)
    h = MultiSeries(1, {(1,): Fraction(3, 4)}, 5)
    f = FrameFunction({0: g - g, 1: h, 2: h})
    assert set(f.coeffs) == {1, 2}
    assert (f - f).is_zero() and not (f + (-f)).coeffs
    assert set((f + FrameFunction({2: -h})).coeffs) == {1}


def test_common_denominator_is_the_least_one():
    """A sum, product or scaling whose reduced terms need a smaller denominator."""
    s1 = lambda terms, trunc=None: MultiSeries(1, terms, trunc)
    a = s1({(0,): Fraction(1, 6), (1,): Fraction(1, 4)}, 4)
    b = s1({(0,): Fraction(1, 3), (2,): Fraction(1, 10)}, 4)
    for s in (a + b, a - b, a * b, a.scale(Fraction(4, 3)), a.scale(12), (a - a.scale(3)),
              a + s1({(1,): Fraction(-1, 4)}), s1({(2,): Fraction(1, 2)}).deriv(0),
              s1({(3,): Fraction(2, 3), (4,): Fraction(1, 4)}, 6).deriv(0)):
        assert_form(s)
    assert (a + s1({(1,): Fraction(-1, 4)}))._jet() == ([1, 0, 0, 0, 0], 6)
    assert s1({(2,): Fraction(1, 2)}).deriv(0)._jet() == ([0, 1], 1)
    m = MultiSeries(2, {(1, 0): Fraction(1, 6), (0, 1): Fraction(1, 4)})
    n = MultiSeries(2, {(1, 0): Fraction(5, 6), (0, 1): Fraction(-1, 4)})
    assert (m + n)._jet() == ({(1, 0): 1}, 1)
    assert (m * MultiSeries.constant(2, 12))._jet() == ({(1, 0): 2, (0, 1): 3}, 1)


def test_derivative_at_order_zero_raises():
    for nvars in NVARS:
        for terms in ({}, {(0,) * nvars: Fraction(2, 3)}):
            s = MultiSeries(nvars, terms, 0)
            for form in (s, working(s)):
                for i in range(nvars):
                    with pytest.raises(TruncationError):
                        form.deriv(i)
                    with pytest.raises(TruncationError):
                        series_deriv(form, i)


def test_terms_read_cold_or_warm_agree():
    """Reading terms before, between or after operations changes no result."""
    rng = random.Random(3)
    for nvars in NVARS:
        for trunc in (None, 5):
            parts = [random_series(rng, nvars, trunc) for _ in range(3)]

            def run(read):
                a, b, c = (working(p) for p in parts)
                if read:
                    for p in (a, b, c):
                        p.terms
                ab = a * b + c.scale(Fraction(-3, 2))
                if read:
                    ab.terms
                out = (ab - b).deriv(nvars - 1) * c
                return ab, out, -out

            for cold, warm in zip(run(False), run(True)):
                same(cold, warm)
                same(warm, cold)
                assert cold == warm and hash(cold) == hash(warm)


def test_terms_is_read_only_and_equality_ignores_the_form():
    rng = random.Random(5)
    for nvars in NVARS:
        a = random_series(rng, nvars, 4)
        with pytest.raises(AttributeError):
            a.terms = {}
        w = working(a)
        assert w == a and hash(w) == hash(a)
        longer = MultiSeries(nvars, a.terms, 9)
        assert longer == a and hash(longer) == hash(a)      # __eq__ ignores trunc
        assert a.eval0() == a.terms.get((0,) * nvars, 0) == w.eval0()
        assert a + MultiSeries.constant(nvars, 1) != a
    s = MultiSeries(1, {(0,): Fraction(2, 3), (3,): -1}, 6)
    assert [working(s).coeff(k) for k in range(8)] == [Fraction(2, 3), 0, 0, -1, 0, 0, 0, 0]


def test_cached_hash_equals_a_fresh_hash_and_ignores_trunc():
    rng = random.Random(9)
    for nvars in NVARS:
        for trunc in (None, 4):
            a, b = random_series(rng, nvars, trunc), random_series(rng, nvars, trunc)
            for s in (a, working(a) * b, (a - b).scale(Fraction(-3, 2))):
                h = hash(s)
                assert s._hash == h and hash(s) == h                 # kept, not rebuilt
                fresh = MultiSeries(nvars, dict(s.terms), trunc)
                assert fresh._hash is None and hash(fresh) == h
                longer = MultiSeries(nvars, s.terms, 9)              # __eq__ ignores trunc
                assert longer == s and hash(longer) == h
            assert (a + b)._hash is None and (-a)._hash is None       # results start empty


def test_gamma_cache_keys_keep_the_truncation_orders(monkeypatch):
    """Equal series that differ only in trunc hash alike, so the keys hold trunc."""
    from treehopf import FormalDiffeo, gamma_t, parse_tree
    from treehopf import frame as fr

    terms = {(1,): 1, (2,): Fraction(1, 2), (3,): -1}
    psi8, psi5 = FormalDiffeo(MultiSeries(1, terms, 8)), FormalDiffeo(MultiSeries(1, terms, 5))
    g8 = MultiSeries(1, {(1,): 1}, 8)
    g5 = MultiSeries(1, {(1,): 1}, 5)
    assert hash(psi8.series) == hash(psi5.series) and hash(g8) == hash(g5)
    t = parse_tree("[[]]")
    calls = []
    phi_frame_op = fr.phi_frame_op
    monkeypatch.setattr(fr, "phi_frame_op", lambda *args: calls.append(args) or phi_frame_op(*args))
    pairs = ((psi8, g8), (psi5, g8), (psi8, g5), (psi5, g5))
    got = [gamma_t(t, p, g) for p, g in pairs]
    assert [(trunc, g.trunc) for _, g, _, trunc in calls] == [(8, 8), (5, 8), (8, 5), (5, 5)]
    assert all(gamma_t(t, p, g) is out for (p, g), out in zip(pairs, got))
    assert len(calls) == 4                                  # each computed once
    assert [out.trunc for out in got] == [5, 2, 4, 2]
    for (p, g), out in zip(pairs, got):                     # fresh objects agree
        want = gamma_t(t, FormalDiffeo(MultiSeries(1, terms, p.trunc)),
                       MultiSeries(1, {(1,): 1}, g.trunc))
        assert (out._rows, out._den, out.trunc) == (want._rows, want._den, want.trunc)


COEFFS = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def jets(draw, trunc, min_degree):
    coeffs = draw(st.lists(COEFFS, min_size=trunc + 1 - min_degree, max_size=trunc + 1 - min_degree))
    return MultiSeries(1, {(k,): c for k, c in enumerate(coeffs, min_degree)}, trunc)


def power_matrix(s):
    """M(s): row k holds the coefficients of s^k up to s.trunc, read from the power table."""
    rows, d = s._power_rows(s.trunc)
    return [[Fraction(v, d ** k) for v in rows[k]] for k in range(s.trunc + 1)]


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(jets(n, 0), jets(n, 1))))
@settings(max_examples=40)
def test_power_tables_are_multiplicative_under_composition(pair):
    # (psi o eta)^k = sum_j [psi^k]_j eta^j, and eta^j starts at x^j
    psi, eta = pair
    got = power_matrix(psi.compose1(eta))
    a, b = power_matrix(psi), power_matrix(eta)
    n = psi.trunc + 1
    assert got == [[sum(a[k][j] * b[j][i] for j in range(n)) for i in range(n)] for k in range(n)]
