"""Each univariate jet step written once, against the loops it replaced.

A cut of a frame function is the product with the constant 1 cut at the
order, with the 1 on the left; a negation of a frame function or a series
is the scaling by -1; the order rule of a derivative is `_deriv_trunc`.
Each must give the rows, every row's order and the denominator of the
loops frozen in `oracles.py`, and a cut must stay linear in the length of
a row.  The vertex symbol is the curvature part plus the flat part
psi''/psi', summed as series and only then multiplied by y; psi''/psi' is
kept on psi, and the symbols built from the two parts must have the grids
of the formulas written out at each use.  The one-variable steps of a
series refuse a series in several variables with a ValueError, which
`python -O` keeps.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from oracles import (
    Counted,
    reference_cocycle_sides,
    reference_forced_vertex_symbols,
    reference_frame_neg,
    reference_frame_with_trunc,
    reference_gamma_bullet,
    reference_series_neg,
    reference_transferred_base_field,
)
from treehopf import FormalDiffeo, FrameFunction, MultiSeries, TruncationError, gamma_bullet
from treehopf.frame import (
    _curvature_part,
    _flat_part,
    cocycle_sides,
    forced_vertex_symbols,
    random_diffeo,
    random_xseries,
    transferred_base_field,
)
from treehopf.series import _deriv_trunc

D = 8
TRUNCS = (None, 0, 1, 2, 3, 5, 8)


def s1(terms, trunc=None):
    return MultiSeries(1, terms, trunc)


def random_grid(rng):
    """A frame function whose rows have mixed orders, exact rows of any length among them."""
    rows = []
    for _ in range(rng.randint(0, 4)):
        trunc = rng.choice(TRUNCS)
        top = rng.randint(0, 9) if trunc is None else trunc
        low = rng.randint(0, top)               # a row may start high, so a cut can zero it
        terms = {(rng.randint(low, top),): Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 12)))
                 for _ in range(rng.randint(0, 4))}
        rows.append((rng.randint(0, 3), s1(terms, trunc)))
    return FrameFunction(rows)


def grid(f):
    """The rows in their order, each with its order and numerators, and the denominator."""
    return list(f._rows.items()), f._den


def series_grid(s):
    nums, den = s._jet()
    return s.nvars, s.trunc, nums, den, s.terms


def test_a_cut_matches_the_frozen_loop_on_random_grids():
    rng = random.Random(40)
    for _ in range(2000):
        f = random_grid(rng)
        for trunc in (None, 0, 1, 2, 4, 7, 12):
            got, want = f.with_trunc(trunc), reference_frame_with_trunc(f, trunc)
            assert grid(got) == grid(want)
            assert (got is f) == (want is f)


def test_a_cut_in_each_case_of_the_loop():
    high = s1({(4,): 3, (6,): Fraction(-1, 2)}, 8)          # zero through x^3
    short = s1({(0,): Fraction(2, 3), (2,): 5})              # exact, 3 entries
    low = s1({(1,): Fraction(1, 4)}, 2)                      # already below the cut
    f = FrameFunction([(2, high), (0, short), (1, low)])
    cut = f.with_trunc(3)
    assert grid(cut) == grid(reference_frame_with_trunc(f, 3))
    assert list(cut._rows) == [0, 1]                         # the vanished row is dropped
    assert cut._rows[0] == (3, [8, 0, 60, 0])                # the exact row is padded to 4
    assert cut._rows[1] == (2, [0, 3, 0])                    # the low row is kept as it was
    assert cut._den == 12
    assert FrameFunction([(2, high)]).with_trunc(3).is_zero()
    # nothing to cut: the operand itself
    for g in (f, FrameFunction([(1, low)]), FrameFunction.zero()):
        assert g.with_trunc(None) is g
    g = FrameFunction([(1, low), (2, high)])
    assert g.with_trunc(8) is g and g.with_trunc(20) is g
    # a row reduced by the cut can lower the denominator
    h = FrameFunction([(0, s1({(0,): 1, (3,): Fraction(1, 5)}))])
    assert grid(h.with_trunc(2)) == grid(reference_frame_with_trunc(h, 2)) \
        == ([(0, (2, [1, 0, 0]))], 1)


def test_a_cut_is_linear_in_the_row_length(monkeypatch):
    """One convolution of trunc + 1 products, for a dense row and for a long sparse
    exact row; the products are counted on the entries, whichever factor `_conv` walks."""
    from treehopf import frame

    work = []
    conv = frame._conv

    def counting(a, b, n, out=None):
        Counted.products = 0
        got = conv([Counted(v) for v in a], [Counted(v) for v in b], n, out)
        work.append(Counted.products)
        return got

    monkeypatch.setattr(frame, "_conv", counting)
    rng = random.Random(41)
    for trunc in (64, 128, 256, 512):
        terms = {(k,): Fraction(rng.randint(1, 9), rng.randint(1, 4)) for k in range(2 * trunc)}
        sparse = {(k,): Fraction(rng.randint(1, 9), rng.randint(1, 4)) for k in range(0, trunc, 2)}
        sparse[(3 * trunc,)] = Fraction(1)             # an exact row far past the cut
        for f in (FrameFunction([(1, s1(terms))]), FrameFunction([(1, s1(terms, 2 * trunc))]),
                  FrameFunction([(1, s1(sparse))])):
            work.clear()
            cut = f.with_trunc(trunc)
            assert work == [trunc + 1]          # one convolution, one pass over the row
            assert grid(cut) == grid(reference_frame_with_trunc(f, trunc))


def test_negations_match_the_frozen_bodies():
    rng = random.Random(42)
    for _ in range(2000):
        f = random_grid(rng)
        assert grid(-f) == grid(reference_frame_neg(f))
        assert grid(-(-f)) == grid(f)
    assert grid(-FrameFunction.zero()) == grid(reference_frame_neg(FrameFunction.zero()))
    for nvars in (1, 2, 3):
        for _ in range(300):
            trunc = rng.choice(TRUNCS)
            terms = {tuple(rng.randint(0, 4) for _ in range(nvars)):
                     Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 12)))
                     for _ in range(rng.randint(0, 5))}
            s = MultiSeries(nvars, terms, trunc)
            assert series_grid(-s) == series_grid(reference_series_neg(s))
        for trunc in (None, 0, 4):                           # -0, exact and truncated
            zero = MultiSeries.zero(nvars, trunc)
            assert series_grid(-zero) == series_grid(reference_series_neg(zero))
            assert (-zero).is_zero() and (-zero).trunc == trunc


def test_the_derivative_order_rule_is_one_step_for_series_and_frame_functions():
    assert [_deriv_trunc(t) for t in (None, 1, 2, 9)] == [None, 0, 1, 8]
    for t in (0, -1):
        with pytest.raises(TruncationError, match="derivative exhausted"):
            _deriv_trunc(t)
    messages = []
    for run in (lambda: s1({(0,): 1}, 0).deriv(0),
                lambda: MultiSeries(2, {(1, 0): 1}, 0).deriv(1),
                lambda: FrameFunction([(1, s1({(0,): 2}, 0))]).dx()):
        with pytest.raises(TruncationError) as err:
            run()
        messages.append(str(err.value))
    assert len(set(messages)) == 1
    for t in (1, 4, None):
        s = s1({(0,): 1, (1,): Fraction(2, 3), (3,): 5}, t)
        assert s.deriv(0).trunc == FrameFunction([(2, s)]).dx().trunc == _deriv_trunc(t)


def test_psi_keeps_its_flat_part(monkeypatch):
    calls = []
    reciprocal = MultiSeries.reciprocal
    monkeypatch.setattr(MultiSeries, "reciprocal", lambda s: calls.append(1) or reciprocal(s))
    psi = FormalDiffeo(s1({(1,): 1, (2,): Fraction(1, 2), (3,): -1}, D))
    flat = _flat_part(psi)
    assert _flat_part(psi) is flat
    assert len(calls) == 1
    gamma_bullet(psi, s1({(1,): 1}))
    transferred_base_field(psi, MultiSeries.zero(1, D))
    forced_vertex_symbols(psi, s1({(0,): 1}, D))
    assert len(calls) == 1                                   # every symbol read the kept one
    assert _flat_part(FormalDiffeo(psi.series)) is not flat  # kept per object, not per value


GAMMAS = (MultiSeries.zero(1), MultiSeries.zero(1, D), MultiSeries.zero(1, 3),
          s1({(1,): 1}), s1({(1,): 1}, 5), s1({(0,): 1}), s1({(0,): 1}, D))


def test_the_vertex_symbol_is_y_times_curvature_plus_flat():
    rng = random.Random(43)
    psis = [FormalDiffeo.identity(D), FormalDiffeo(s1({(1,): 2}, D))]
    psis += [random_diffeo(rng, D) for _ in range(6)]
    for psi in psis:
        for gamma in GAMMAS:
            got = gamma_bullet(psi, gamma)
            want = FrameFunction.y_times(_curvature_part(psi, gamma) + _flat_part(psi))
            assert grid(got) == grid(want) == grid(reference_gamma_bullet(psi, gamma))
            assert got.trunc == want.trunc
    # Gamma = 0 cut at 3 leaves a curvature part that is zero through x^3;
    # summed as series its order bounds the symbol, summed as frame
    # functions it would be dropped with its row
    psi = psis[-1]
    gamma = MultiSeries.zero(1, 3)
    assert _curvature_part(psi, gamma).is_zero() and _curvature_part(psi, gamma).trunc == 3
    assert gamma_bullet(psi, gamma).trunc == 3
    as_frames = FrameFunction.y_times(_curvature_part(psi, gamma)) \
        + FrameFunction.y_times(_flat_part(psi))
    assert as_frames.trunc == D - 2


def test_symbols_built_from_the_two_parts_keep_the_grids_written_out_at_each_use():
    rng = random.Random(44)
    instances = [(random_diffeo(rng, D), random_diffeo(rng, D), random_xseries(rng, D))
                 for _ in range(8)]
    instances += [(random_diffeo(rng, D), random_diffeo(rng, D), gamma) for gamma in GAMMAS]
    # eta o psi = x/9 is known through x^2 only, so its vertex symbol vanishes
    # through its order and the cut of the right side is what keeps it
    instances += [(FormalDiffeo(s1({(1,): Fraction(1, 3), (3,): 1}, 3)),
                   FormalDiffeo(s1({(1,): Fraction(1, 3)}, 2)), gamma)
                  for gamma in (MultiSeries.zero(1, 2), MultiSeries.zero(1), s1({(1,): 1}))]
    for psi, eta, gamma in instances:
        got = forced_vertex_symbols(psi, gamma)
        want = reference_forced_vertex_symbols(psi, gamma)
        assert [grid(f) for f in got] == [grid(f) for f in want]
        assert [grid(f) for f in cocycle_sides(psi, eta, gamma)] == \
            [grid(f) for f in reference_cocycle_sides(psi, eta, gamma)]
        assert [grid(f) for f in transferred_base_field(psi, gamma)] == \
            [grid(f) for f in reference_transferred_base_field(psi, gamma)]


MULTIVARIATE = MultiSeries(2, {(1, 0): 1, (0, 1): Fraction(1, 2)}, 4)


@pytest.mark.parametrize("step, message", [
    (lambda: MULTIVARIATE.coeff(1), "coeff needs a series in one variable"),
    (lambda: MULTIVARIATE.compose1(s1({(1,): 1})), "compose1 needs two series in one variable"),
    (lambda: s1({(1,): 1}).compose1(MULTIVARIATE), "compose1 needs two series in one variable"),
    (lambda: MULTIVARIATE.reciprocal(), "reciprocal needs a series in one variable"),
    (lambda: MULTIVARIATE.reversion(), "reversion needs a series in one variable"),
])
def test_one_variable_steps_refuse_several_variables(step, message):
    with pytest.raises(ValueError, match=message):
        step()


def test_one_variable_steps_refuse_several_variables_under_optimisation():
    code = (
        "from treehopf import MultiSeries\n"
        "s = MultiSeries(2, {(1, 0): 1}, 3)\n"
        "unit = MultiSeries(2, {(0, 0): 1, (1, 0): 1}, 3)\n"
        "x = MultiSeries(1, {(1,): 1}, 3)\n"
        "for step in (lambda: s.coeff(0), lambda: s.compose1(x), lambda: x.compose1(s),\n"
        "             lambda: unit.reciprocal(), lambda: s.reversion()):\n"
        "    try:\n"
        "        step()\n"
        "    except ValueError as e:\n"
        "        print(str(e).split()[0])\n"
    )
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["coeff", "compose1", "compose1", "reciprocal", "reversion"]
