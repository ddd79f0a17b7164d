"""Frame functions on one int grid against the series-per-row oracle.

A FrameFunction keeps row k, the y^k coefficient, as int numerators with
its own truncation order, over one denominator for the whole function.
Each operation must give the coefficients, the truncation order of every
row and the row order of `SeriesFrameFunction` in `oracles.py`, and must
store the least common denominator: the lcm of the denominators of its
reduced coefficients.  A product convolves each pair of rows once, also
where several pairs gather in one row at different orders, and scaling by
1 returns the operand.  `first_mismatch` must find what the walk over
`coeffs` in `oracles.py` finds.  The coproduct sides of the frame model,
summed over the grouped coproduct, must agree with one monomial product
per coproduct term or cut.  A monomial keeps its product with each right
factor; that product, and the sides that read it, must have the grids of
the product built afresh.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    SeriesFrameFunction,
    X_coproduct_sides_per_term,
    delta_coproduct_sides_per_term,
    reference_first_mismatch,
    reference_monomial_product,
    series_lift_apply,
)
from treehopf import (
    FormalDiffeo,
    FrameFunction,
    LinComb,
    Monomial,
    MultiSeries,
    TruncationError,
    delta_k,
    enumerate_trees,
    lift_apply,
    monomial_product,
)
from treehopf.frame import (
    X_coproduct_sides,
    delta_coproduct_sides,
    first_mismatch,
    random_diffeo,
    random_frame_function,
)

SCALARS = (0, 1, -1, 3, Fraction(-2, 3), Fraction(5, 12), Fraction(7, 2))
TRUNCS = (None, 0, 1, 3, 6)


def s1(terms, trunc=None):
    return MultiSeries(1, terms, trunc)


def random_rows(rng, truncs=TRUNCS):
    """(y-power, series) pairs, each with its own truncation order; powers repeat."""
    rows = []
    for _ in range(rng.randint(0, 4)):
        trunc = rng.choice(truncs)
        top = 4 if trunc is None else trunc
        terms = {(rng.randint(0, top),): Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 12)))
                 for _ in range(rng.randint(0, 4))}
        rows.append((rng.randint(0, 3), s1(terms, trunc)))
    return rows


def both(rows):
    return FrameFunction(rows), SeriesFrameFunction(rows)


def assert_grid(f):
    """The grid is reduced, has no zero rows, and agrees with `coeffs`."""
    rows, den = f._rows, f._den
    coeffs = f.coeffs
    assert list(rows) == list(coeffs)
    assert den == lcm(*(c.denominator for g in coeffs.values() for c in g.terms.values()))
    for k, (trunc, nums) in rows.items():
        assert any(nums)
        if trunc is None:
            assert nums[-1]
        else:
            assert len(nums) == trunc + 1
        assert coeffs[k].trunc == trunc
        assert {(i,): Fraction(v, den) for i, v in enumerate(nums) if v} == coeffs[k].terms


def same(got, want):
    assert list(got.coeffs) == list(want.coeffs)        # the row order too
    for k, g in want.coeffs.items():
        assert got.coeffs[k].terms == g.terms
        assert got.coeffs[k].trunc == g.trunc
    assert got.trunc == want.trunc
    assert got.is_zero() == want.is_zero()
    assert_grid(got)


def operands(rng):
    """Pairs: mixed truncations, exact rows, order-0 rows, zero, cancelling."""
    a = random_rows(rng)
    yield a, random_rows(rng)
    yield random_rows(rng, (None,)), random_rows(rng, (None, 6))
    yield random_rows(rng, (6,)), random_rows(rng, (1, 3))
    yield random_rows(rng, (0, None)), random_rows(rng)
    yield [], random_rows(rng)
    yield random_rows(rng), []
    yield a, [(k, -g) for k, g in a]                               # cancels to zero
    yield a, [(k, -g.with_trunc(2)) for k, g in a]                 # cancels, lower orders
    yield a, [(k, -g) for k, g in a[:1]] + random_rows(rng, (3,))  # one row cancels


def test_constructor_sums_repeated_powers_and_drops_zero_rows():
    rng = random.Random(1)
    for _ in range(60):
        rows = random_rows(rng)
        same(*both(rows))
        same(*both(dict(rows)))
    g, h = s1({(0,): 1}, 6), s1({(1,): Fraction(2, 3)}, 4)
    f, want = both([(3, g), (1, h), (3, -g), (2, g - g), (1, h), (0, g)])
    same(f, want)
    assert list(f.coeffs) == [1, 0]
    with pytest.raises(ValueError):
        FrameFunction({-1: g})


def test_sums_and_products_match_the_oracle():
    rng = random.Random(2)
    for _ in range(40):
        for ra, rb in operands(rng):
            (a, oa), (b, ob) = both(ra), both(rb)
            for x, ox, y, oy in ((a, oa, b, ob), (b, ob, a, oa)):
                same(x + y, ox + oy)
                same(x - y, ox - oy)
                same(x * y, ox * oy)
                assert x.eq_retained(y) == ox.eq_retained(oy)
            same((a * b) * a - b, (oa * ob) * oa - ob)          # results of results


def test_zero_products_lower_the_order_of_their_row():
    """x^2 * x^3 at order 3 is zero, yet it cuts row 1 to order 3."""
    ra = [(0, s1({(2,): 1}, 6)), (1, s1({(1,): Fraction(1, 2)}))]
    rb = [(1, s1({(3,): 3}, 3)), (0, s1({(0,): 2}))]
    (a, oa), (b, ob) = both(ra), both(rb)
    same(a * b, oa * ob)
    assert (a * b).coeffs[1].trunc == 3
    low = FrameFunction([(1, s1({(1,): Fraction(-1, 2)}, 2))])
    assert list((a + low).coeffs) == [0]                 # the cancelled row is dropped


def test_exact_rows_drop_their_trailing_zeros():
    """(x + 1)(-(x + 1)) + x.x = -2x - 1: the x^2 terms cancel in row 1."""
    ra = [(0, s1({(0,): 1, (1,): 1})), (1, s1({(1,): 1}))]
    rb = [(0, s1({(1,): 1})), (1, s1({(0,): -1, (1,): -1}))]
    (a, oa), (b, ob) = both(ra), both(rb)
    for got, want in ((a * b, oa * ob), (a + b.dz(), oa + ob.dz())):
        same(got, want)
        assert all(nums[-1] for _, nums in got._rows.values())
    assert (a * b)._rows[1] == (None, [-1, -2])


# Rows a pair of factors gathers into row 1, first from rows (0, 1), then (1, 0).
GATHERED = {
    # exact then cut: the cut product lowers the exact row
    "exact, cut": ([(0, s1({(0,): 1, (1,): Fraction(1, 2)})), (1, s1({(1,): 3}, 2))],
                   [(1, s1({(0,): 2, (2,): -1})), (0, s1({(0,): Fraction(1, 3), (1,): 1}))]),
    # cut at 6, then at 2
    "cut 6, cut 2": ([(0, s1({(0,): 1, (3,): 2}, 6)), (1, s1({(0,): -1, (2,): 5}, 2))],
                     [(1, s1({(1,): Fraction(2, 3), (4,): 1})), (0, s1({(0,): 4, (1,): 1}))]),
    # a long exact product, then a shorter cut one
    "long exact, cut 3": ([(0, s1({(0,): 1, (6,): 1})), (1, s1({(1,): 1}, 3))],
                          [(1, s1({(2,): Fraction(-5, 2), (5,): 1})), (0, s1({(0,): 7}))]),
    # a short exact product, then a cut one longer than it
    "short exact, cut 6": ([(0, s1({(0,): 2})), (1, s1({(1,): 1, (4,): 3}, 6))],
                           [(1, s1({(1,): -1})), (0, s1({(0,): 1, (2,): Fraction(1, 12)}))]),
    # a short exact product, then a longer exact one
    "exact, longer exact": ([(0, s1({(0,): 1})), (1, s1({(1,): 1, (3,): 1}))],
                            [(1, s1({(0,): -3})), (0, s1({(0,): 1, (2,): 2}))]),
    # x^3 exactly, then x^2 * x cut at 2: the row is zero through order 2 and is dropped
    "vanishes at its order": ([(0, s1({(3,): 1})), (1, s1({(2,): 1}, 4))],
                              [(1, s1({(0,): 1})), (0, s1({(1,): 1}, 2))]),
    # x + 1, then -(x + 1): the row cancels exactly and is dropped
    "cancels": ([(0, s1({(0,): 1, (1,): 1})), (1, s1({(0,): 1}))],
                [(1, s1({(0,): 1})), (0, s1({(0,): -1, (1,): -1}))]),
}


@pytest.mark.parametrize("ra, rb", GATHERED.values(), ids=GATHERED)
def test_rows_gathering_several_pairs_match_the_oracle(ra, rb):
    (a, oa), (b, ob) = both(ra), both(rb)
    for x, ox, y, oy in ((a, oa, b, ob), (b, ob, a, oa)):
        same(x * y, ox * oy)
        same(x * y.scale(Fraction(-3, 2)), ox * oy.scale(Fraction(-3, 2)))


def test_gathered_rows_take_the_least_order_and_may_vanish():
    a, b = (FrameFunction(rows) for rows in GATHERED["cut 6, cut 2"])
    assert (a * b).coeffs[1].trunc == 2
    a, b = (FrameFunction(rows) for rows in GATHERED["long exact, cut 3"])
    assert (a * b)._rows[1][0] == 3 and len((a * b)._rows[1][1]) == 4
    a, b = (FrameFunction(rows) for rows in GATHERED["vanishes at its order"])
    assert list((a * b).coeffs) == [2]


def test_one_row_factors_match_the_oracle():
    rng = random.Random(11)
    for _ in range(60):
        k, g = rng.randint(0, 3), s1({(rng.randint(0, 4),): Fraction(rng.randint(-7, 7), 3),
                                      (0,): rng.randint(1, 5)}, rng.choice(TRUNCS))
        (one, o_one), (f, of) = both([(k, g)]), both(random_rows(rng))
        same(one * f, o_one * of)
        same(f * one, of * o_one)
        same(one * one, o_one * o_one)


def test_a_product_convolves_each_pair_of_rows_once(monkeypatch):
    from treehopf import frame

    calls = []
    conv = frame._conv
    monkeypatch.setattr(frame, "_conv", lambda *args: calls.append(1) or conv(*args))
    rng = random.Random(12)
    pairs = [(FrameFunction(ra), FrameFunction(rb)) for ra, rb in GATHERED.values()]
    pairs += [(FrameFunction(ra), FrameFunction(rb))
              for _ in range(20) for ra, rb in operands(rng)]
    for a, b in pairs:
        calls.clear()
        a * b
        assert len(calls) == len(a._rows) * len(b._rows)


def test_scalings_and_derivatives_match_the_oracle():
    rng = random.Random(3)
    for _ in range(40):
        for ra, rb in operands(rng):
            for rows in (ra, rb, ra + rb):
                f, of = both(rows)
                same(-f, -of)
                for c in SCALARS:
                    same(f.scale(c), of.scale(c))
                same(f.dz(), of.dz())
                same(f.dz().dz(), of.dz().dz())
                if f.trunc is not None and f.trunc < 1:
                    continue                 # test_derivative_at_order_zero_raises
                same(f.dx(), of.dx())
                if f.trunc is None or f.trunc >= 2:
                    same(f.dx().dz().dx(), of.dx().dz().dx())


def test_scaling_by_one_returns_the_operand():
    rng = random.Random(13)
    for _ in range(30):
        for ra, _ in operands(rng):
            f, of = both(ra)
            assert f.scale(1) is f and f.scale(Fraction(1)) is f
            for c in (-1, 0, Fraction(3, 2)):
                same(f.scale(c), of.scale(c))


def test_a_sum_with_unit_coefficients_has_the_grid_of_the_plain_sum():
    from treehopf.butcher import _linear_sum

    rng = random.Random(14)
    x = LinComb()
    for t in (t for n in range(1, 5) for t in enumerate_trees(n)):
        x = x + LinComb.of(t)
    assert set(x.terms.values()) == {1}
    for _ in range(20):
        values = {fo: FrameFunction(random_rows(rng)) for fo in x.terms}
        plain = FrameFunction.zero()
        for fo in x.terms:
            plain = plain + values[fo]
        got = _linear_sum(x, values.__getitem__, FrameFunction.zero())
        assert (got._rows, got._den) == (plain._rows, plain._den)


def test_cutting_every_row_matches_the_oracle():
    rng = random.Random(6)
    for _ in range(40):
        f = FrameFunction(random_rows(rng))
        for trunc in (None, 0, 1, 2, 5):
            want = SeriesFrameFunction([(k, g.with_trunc(trunc)) for k, g in f.coeffs.items()])
            same(f.with_trunc(trunc), want)
    f = FrameFunction([(1, s1({(2,): 3}, 4)), (2, s1({(0,): Fraction(1, 2)}))])
    assert list(f.with_trunc(1).coeffs) == [2]          # the row zero through x^1 is dropped
    assert f.with_trunc(None) is f
    g = FrameFunction([(1, s1({(2,): 3}, 4))])
    assert g.with_trunc(4) is g and g.with_trunc(6) is g


def test_derivative_at_order_zero_raises():
    for rows in ([(1, s1({(0,): Fraction(2, 3)}, 0))],
                 [(0, s1({(1,): 1})), (2, s1({(0,): 5}, 0))],
                 [(0, s1({(1,): 1}, 4)), (1, s1({(0,): -1}, 0))]):
        f, of = both(rows)
        with pytest.raises(TruncationError):
            f.dx()
        with pytest.raises(TruncationError):
            of.dx()
        same(f.dz(), of.dz())
    assert FrameFunction().dx().is_zero()


def test_retained_equality_matches_the_oracle():
    rng = random.Random(4)
    for _ in range(40):
        rows = random_rows(rng, (None, 3, 6))
        high = [(k, s1({(5,): 1}, 6)) for k, _ in rows[:1]]
        for other in (rows, [(k, g.with_trunc(3)) for k, g in rows], rows + high,
                      [(k, g.scale(2)) for k, g in rows], random_rows(rng)):
            (a, oa), (b, ob) = both(rows), both(other)
            assert a.eq_retained(b) == oa.eq_retained(ob)
            assert b.eq_retained(a) == ob.eq_retained(oa)


def comparison_pairs(rng):
    """Pairs of frame functions with rows exact or cut at 0..8, rows on one
    side only, y-degrees up to 12, equal pairs and pairs that differ only
    beyond the common order."""
    truncs = (None,) + tuple(range(9))
    ra = random_rows(rng, truncs)
    a = FrameFunction(ra)
    yield a, FrameFunction(random_rows(rng, truncs))
    yield a, a
    yield a, FrameFunction(ra)
    yield a, FrameFunction([(k, g.with_trunc(rng.randint(0, 8))) for k, g in ra])
    yield a, FrameFunction(ra + [(4, s1({(rng.randint(0, 3),): 1}, rng.choice(truncs)))])
    yield a, FrameFunction([(k + 9, g) for k, g in ra])     # a set of these keys is unsorted
    t = rng.randint(0, 6)
    yield (FrameFunction([(k, g.with_trunc(t)) for k, g in ra]),
           FrameFunction(ra + [(k, s1({(t + 1,): 1}, 8)) for k, _ in ra]))
    yield a, FrameFunction(ra + [(rng.randint(0, 3), s1({(rng.randint(0, 8),): Fraction(1, 3)},
                                                         rng.choice(truncs)))])


def test_first_mismatch_matches_the_series_walk():
    """One walk over the int grids gives what the walk over `coeffs` gives."""
    rng = random.Random(9)
    seen = {"equal": 0, "beyond": 0, "one side": 0, "differ": 0}
    for _ in range(600):
        for a, b in comparison_pairs(rng):
            for x, y in ((a, b), (b, a)):
                got = first_mismatch(x, y)          # before coeffs is read
                want = reference_first_mismatch(x, y)
                assert got == want
                assert x.eq_retained(y) == (want is None)
                if got is None:
                    same_grid = (x._rows, x._den) == (y._rows, y._den)
                    seen["equal" if same_grid else "beyond"] += 1
                else:
                    one_side = (got[0] in x._rows) != (got[0] in y._rows)
                    seen["one side" if one_side else "differ"] += 1
    assert min(seen.values()) >= 100, seen


def test_lift_matches_the_oracle_lift():
    rng = random.Random(5)
    exact = FormalDiffeo(s1({(1,): 2, (2,): -1}))
    for _ in range(30):
        psi = random_diffeo(rng, 8)
        for phi in (psi, FormalDiffeo(psi.series.with_trunc(3)), exact):
            for rows in (random_rows(rng), random_rows(rng, (None,)), []):
                h, oh = both(rows)
                same(lift_apply(phi, h), series_lift_apply(phi, oh))


def test_common_denominator_is_the_least_one():
    """Results whose reduced coefficients need a smaller denominator."""
    a = FrameFunction({0: s1({(0,): Fraction(1, 6)}, 4), 1: s1({(1,): Fraction(1, 4)}, 4)})
    b = FrameFunction({0: s1({(0,): Fraction(-1, 6)}, 4), 1: s1({(2,): Fraction(1, 10)}, 4)})
    half = FrameFunction({2: s1({(2,): Fraction(1, 2)})})
    for f in (a + b, a - b, a * b, a.scale(Fraction(4, 3)), a.scale(12), a.dz(), half.dx(),
              half.dz(), a + FrameFunction({1: s1({(1,): Fraction(-1, 4)})})):
        assert_grid(f)
    assert (a + b)._den == 20 and half.dx()._den == 1 and half.dz()._den == 1
    assert a.scale(12)._den == 1 and (a - a).is_zero() and (a - a)._den == 1


def test_coeffs_are_read_only_and_built_on_first_read():
    rng = random.Random(6)
    f = FrameFunction(random_rows(rng)) * FrameFunction(random_rows(rng))
    assert f._coeffs is None
    coeffs = f.coeffs
    assert f.coeffs is coeffs
    with pytest.raises(AttributeError):
        f.coeffs = {}


def test_coeffs_read_cold_or_warm_agree():
    """Reading coeffs before, between or after operations changes no result."""
    rng = random.Random(7)
    parts = [random_rows(rng, (None, 5, 8)) for _ in range(3)]
    psi = random_diffeo(rng, 8)

    def run(read):
        a, b, c = (FrameFunction(p) for p in parts)
        if read:
            for f in (a, b, c):
                f.coeffs
        ab = a * b + c.scale(Fraction(-3, 2))
        if read:
            ab.coeffs
        out = lift_apply(psi, (ab - b).dz() * c)
        return ab, out, -out

    for cold, warm in zip(run(False), run(True)):
        assert cold == warm and str(cold) == str(warm)
        assert [g.trunc for g in cold.coeffs.values()] == [g.trunc for g in warm.coeffs.values()]


ROW = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(TRUNCS),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=6), max_size=5),
)


def _rows(spec):
    return [(k, s1({(i,): c for i, c in enumerate(cs) if t is None or i <= t}, t))
            for k, t, cs in spec]


def test_random_grids_match_the_oracle():
    # No explain phase, as in the other property tests.
    @given(st.lists(ROW, max_size=4), st.lists(ROW, max_size=4), st.sampled_from(SCALARS))
    @settings(max_examples=40)
    def run(ra, rb, c):
        (a, oa), (b, ob) = both(_rows(ra)), both(_rows(rb))
        same(a * b + a.scale(c), oa * ob + oa.scale(c))
        same((a - b).dz() * b, (oa - ob).dz() * ob)
        assert a.eq_retained(b) == oa.eq_retained(ob)
        if a.trunc is None or a.trunc >= 1:
            same(a.dx(), oa.dx())

    run()


# -- the coproduct sides over the grouped coproduct ------------------------------

GAMMAS = (MultiSeries(1, {(1,): 1}, 8), MultiSeries(1, {(0,): Fraction(1, 2), (2,): -1}, 8))


def instances():
    for seed in range(3):
        rng = random.Random(seed)
        psi, eta = random_diffeo(rng, 8), random_diffeo(rng, 8)
        fa, fb = random_frame_function(rng, 8), random_frame_function(rng, 8)
        yield psi, eta, fa, fb


def agree(grouped, per_term):
    (lhs, rhs), (want_lhs, want_rhs) = grouped, per_term
    assert lhs.eq_retained(want_lhs)
    assert rhs.eq_retained(want_rhs)
    assert lhs.eq_retained(rhs) == want_lhs.eq_retained(want_rhs)
    assert first_mismatch(lhs, rhs) == first_mismatch(want_lhs, want_rhs)


@pytest.mark.parametrize("Gamma", GAMMAS, ids=("x", "1/2-x^2"))
def test_grouped_sides_match_one_product_per_term(Gamma):
    trees = [t for n in range(1, 6) for t in enumerate_trees(n)]
    for psi, eta, fa, fb in instances():
        # Fresh monomials per form, so that neither reads the other's memo.
        pair = lambda: (Monomial(fa, psi), Monomial(fb, eta))
        for t in trees:
            agree(delta_coproduct_sides(LinComb.of(t), *pair(), Gamma),
                  delta_coproduct_sides_per_term(LinComb.of(t), *pair(), Gamma))
            agree(X_coproduct_sides(t, *pair(), Gamma),
                  X_coproduct_sides_per_term(t, *pair(), Gamma))
        for k in range(1, 5):
            agree(delta_coproduct_sides(delta_k(k), *pair(), Gamma),
                  delta_coproduct_sides_per_term(delta_k(k), *pair(), Gamma))


# -- one monomial product per pair -----------------------------------------------

def grid(f):
    return f._rows, f._den


def psi_grid(psi):
    return psi.trunc, psi.series._jet()


@pytest.mark.parametrize("order", (6, 8))
def test_a_monomial_keeps_one_product_per_right_factor(order):
    for seed in range(4):
        rng = random.Random(seed)
        a = Monomial(random_frame_function(rng, order), random_diffeo(rng, order))
        b = Monomial(random_frame_function(rng, order), random_diffeo(rng, order))
        ab = monomial_product(a, b)
        assert monomial_product(a, b) is ab
        want = reference_monomial_product(a, b)
        assert grid(ab.f) == grid(want.f) and psi_grid(ab.psi) == psi_grid(want.psi)
        # the key is the right factor itself: an equal copy of b has a product of its own
        copy = Monomial(b.f, b.psi)
        assert monomial_product(a, copy) is not ab
        assert grid(monomial_product(a, copy).f) == grid(ab.f)
        assert monomial_product(b, a) is not ab


@pytest.mark.parametrize("Gamma", GAMMAS, ids=("x", "1/2-x^2"))
def test_sides_from_the_kept_product_match_the_reference_product(Gamma, monkeypatch):
    from treehopf import frame

    trees = [t for n in range(1, 5) for t in enumerate_trees(n)]
    relations = [(delta_coproduct_sides, LinComb.of(t)) for t in trees]
    relations += [(X_coproduct_sides, t) for t in trees]
    relations += [(delta_coproduct_sides, delta_k(k)) for k in range(1, 5)]
    for psi, eta, fa, fb in instances():
        # One warm pair for every relation, as the cm suite has per trial, and
        # a fresh pair per relation for the sides built on the reference product.
        a, b = Monomial(fa, psi), Monomial(fb, eta)
        got = [sides(x, a, b, Gamma) for sides, x in relations]
        ab = monomial_product(a, b)
        with monkeypatch.context() as patch:
            patch.setattr(frame, "monomial_product", reference_monomial_product)
            want = [sides(x, Monomial(fa, psi), Monomial(fb, eta), Gamma) for sides, x in relations]
        for (sides, x), g, w in zip(relations, got, want):
            assert [grid(h) for h in g] == [grid(h) for h in w], (sides.__name__, str(x))
        assert monomial_product(a, b) is ab


def test_the_cm_suite_composes_as_often_at_every_degree(monkeypatch):
    from treehopf import frame, verify

    calls = []
    compose = frame.FormalDiffeo.compose
    monkeypatch.setattr(frame.FormalDiffeo, "compose",
                        lambda psi, inner: calls.append(psi) or compose(psi, inner))
    counts = []
    for degree in (2, 3, 4):
        calls.clear()
        verify.verify_cm(degree, order=8, trials=4)
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2]
