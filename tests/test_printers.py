"""Differential test of the printers of signed sums against their frozen references.

`LinComb`, `Tensor2`, `MultiSeries` and `GrowthCombo` print through one
writer, `trees._signed_sum`, each from its own term texts.  Each must print
what its reference in `oracles.py` printed, byte for byte, on seeded
inputs: negative and fractional coefficients, series in one to three
variables with unit coefficients, truncated and exact, and growth
combinations with zero, negative and nested parts.
"""

import random
from fractions import Fraction

from oracles import reference_free_module_str, reference_growth_combo_str, reference_series_str
from treehopf import (LEAF, LinComb, MultiSeries, Tensor2, enumerate_forests, enumerate_trees,
                      parse_growth_expr, parse_polynomial)
from treehopf.growth import GrowthApply, GrowthCombo, GrowthLeaf

FORESTS = [f for d in range(5) for f in enumerate_forests(d)]
TREES = [t for n in range(1, 4) for t in enumerate_trees(n)]


def _coefficient(rng: random.Random) -> Fraction:
    """A nonzero rational: whole or not, a unit a quarter of the time, negative half the time."""
    c = Fraction(1) if rng.random() < 0.25 else Fraction(rng.randint(1, 9), rng.choice([1, 2, 3, 4]))
    return -c if rng.random() < 0.5 else c


def _series(rng: random.Random, trunc) -> MultiSeries:
    nvars = rng.randint(1, 3)
    terms = [([rng.randint(0, 4) for _ in range(nvars)], _coefficient(rng))
             for _ in range(rng.randint(0, 6))]
    if terms and rng.random() < 0.2:
        # A term that cancels, so some series print as the zero series.
        terms.append((terms[0][0], -terms[0][1]))
    return MultiSeries(nvars, terms, trunc)


def _growth(rng: random.Random, depth: int):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return GrowthLeaf()
    if r < 0.55:
        return GrowthApply(rng.choice(TREES), _growth(rng, depth - 1))
    parts = []
    for _ in range(rng.randint(0, 3)):
        coefficient = Fraction(0) if rng.random() < 0.2 else _coefficient(rng)
        parts.append((coefficient, _growth(rng, depth - 1)))
    return GrowthCombo(tuple(parts))


def _combos(e):
    """Every growth combination in e, outermost first."""
    if isinstance(e, GrowthApply):
        yield from _combos(e.sub)
    elif isinstance(e, GrowthCombo):
        yield e
        for _, sub in e.parts:
            yield from _combos(sub)


def test_lincombs_and_tensors_print_as_their_reference():
    rng = random.Random(0)
    for _ in range(400):
        x = LinComb([(rng.choice(FORESTS), _coefficient(rng)) for _ in range(rng.randint(0, 6))])
        y = Tensor2([((rng.choice(FORESTS), rng.choice(FORESTS)), _coefficient(rng))
                     for _ in range(rng.randint(0, 6))])
        assert str(x) == reference_free_module_str(x)
        assert str(y) == reference_free_module_str(y)
    assert str(LinComb.of(LEAF, Fraction(-3, 2)) + LinComb.unit()) == "1 1 - 3/2 []"
    assert str(Tensor2.of(LEAF, LEAF, -1)) == "- 1 ([] | [])"


def test_series_print_as_their_reference():
    rng = random.Random(1)
    for _ in range(1500):
        s = _series(rng, rng.choice([None, None, 0, 1, 3, 6]))
        assert str(s) == reference_series_str(s)
    assert str(MultiSeries.zero(2, 4)) == "0"
    assert str(MultiSeries(1, {(0,): -1, (1,): 1, (2,): Fraction(-1, 2)})) == "- 1 + x - 1/2 x^2"
    assert str(MultiSeries(2, {(1, 1): -1, (0, 2): 1}, 3)) == "x2^2 - x1 x2"


def test_exact_series_text_round_trip():
    rng = random.Random(2)
    for _ in range(600):
        s = _series(rng, None)
        names = ["x"] if s.nvars == 1 else [f"x{i + 1}" for i in range(s.nvars)]
        assert parse_polynomial(str(s), names) == s, str(s)


def test_growth_combinations_print_as_their_reference():
    rng = random.Random(3)
    for _ in range(1000):
        for combo in _combos(_growth(rng, 3)):
            assert str(combo) == reference_growth_combo_str(combo)
    # A zero coefficient is not positive: it prints after `- `.
    assert str(parse_growth_expr("0 . + .")) == "- 0 . + 1 ."
    assert str(parse_growth_expr("- 2 . + 0 N{[]}(.)")) == "- 2 . - 0 N{[]}(.)"
    assert str(GrowthCombo(())) == "0"
