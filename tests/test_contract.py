"""The grafting contraction against the frozen per-tuple contraction.

`butcher._contract` takes each partial derivative of the target once per
sorted index tuple and keeps the order of every product and sum.  It must
give exactly what `reference_contract` in `oracles.py` gives, which
differentiates afresh for every index tuple: the same grid (`_rows`, row
order included, and `_den`) for frame functions, the same `trunc` and
`terms` for series in one and two variables, and the same
`TruncationError` when a derivative exhausts the retained orders.  Both
sides build their own copies of every input, so neither reads the other's
derivatives.  The pushforward product formula and the cut expansion of the
transferred operator are held to their frozen per-tuple and per-cut forms
the same way.
"""

import random
from fractions import Fraction

from oracles import (reference_contract, reference_coprodcontrib_rhs, reference_phi_vec,
                     reference_pushforward_rhs)
from treehopf import FrameFunction, MultiSeries, TruncationError, enumerate_trees
from treehopf.butcher import _contract, _phi_vec
from treehopf.frame import (coprodcontrib_rhs, frame_field, pushforward_rhs, random_diffeo,
                            random_frame_function)

ORDERS = (None, 3, 5, 8)
TREES = [t for n in range(1, 7) for t in enumerate_trees(n)]


def jet_terms(rng, nvars, trunc, kind):
    """Exponent -> coefficient: `low` from degree 0, `high` only at the top degrees."""
    top = 4 if trunc is None else trunc
    lo = max(top - 1, 0) if kind == "high" else 0
    terms = {}
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(lo, top)
        cut = rng.randint(0, d) if nvars == 2 else d
        expo = (d,) if nvars == 1 else (cut, d - cut)
        terms[expo] = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3, 12)))
    return terms


def row_specs(rng, order):
    """(y-power, trunc, terms): exact, truncated and high-valuation rows."""
    specs = []
    for k in rng.sample(range(4), rng.randint(1, 3)):
        trunc = rng.choice((None, order, order) if order is None else (None, order, order, order - 2, 0))
        specs.append((k, trunc, jet_terms(rng, 1, trunc, rng.choice(("low", "low", "high")))))
    return specs


def frame_function(specs):
    return FrameFunction([(k, MultiSeries(1, terms, trunc)) for k, trunc, terms in specs])


def outcome(fn):
    try:
        return fn()
    except TruncationError as exc:
        return exc


def assert_same_error_or(got, want, same):
    if isinstance(want, TruncationError):
        assert type(got) is TruncationError and str(got) == str(want)
    else:
        assert not isinstance(got, TruncationError), got
        same(got, want)


def same_rows(got, want):
    assert got._rows == want._rows and got._den == want._den


def same_grid(got, want):
    assert list(got._rows) == list(want._rows)
    same_rows(got, want)


def same_series(got, want):
    assert got.trunc == want.trunc
    assert list(got.terms.items()) == list(want.terms.items())


def same_vec(same):
    def check(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same(g, w)
    return check


def test_frame_contractions_match_the_per_tuple_reference():
    rng = random.Random(14)
    raised = 0
    for order in ORDERS:
        gamma = jet_terms(rng, 1, order, "low")
        fields = [frame_field(MultiSeries(1, gamma, order), order) for _ in range(2)]
        memo = {}
        for t in TREES:
            got = outcome(lambda: _phi_vec(t, fields[0], memo))
            want = outcome(lambda: reference_phi_vec(t, fields[1]))
            assert_same_error_or(got, want, same_vec(same_grid))
            children = outcome(lambda: [reference_phi_vec(c, fields[1]) for c in t.children])
            if isinstance(children, TruncationError):
                raised += 1
                continue
            for _ in range(8):
                specs = row_specs(rng, order)
                h = frame_function(specs)
                want = outcome(lambda: reference_contract(children, frame_function(specs), 2))
                raised += isinstance(want, TruncationError)
                for _warm in range(2):                    # the second call reads kept derivatives
                    got = outcome(lambda: _contract(children, h, 2))
                    assert_same_error_or(got, want, same_grid)
    assert raised                                         # the error path is exercised


def test_series_contractions_match_the_per_tuple_reference():
    rng = random.Random(15)
    raised = 0
    for nvars in (1, 2):
        trees = [t for t in TREES if nvars == 1 or t.vertex_count <= 5]
        for order in ORDERS:
            comps = [MultiSeries(nvars, jet_terms(rng, nvars, order, "low"), order)
                     for _ in range(nvars)]
            field = tuple(comps)
            memo = {}
            for t in rng.sample(trees, 8):
                got = outcome(lambda: _phi_vec(t, field, memo))
                want = outcome(lambda: reference_phi_vec(t, field))
                assert_same_error_or(got, want, same_vec(same_series))
                children = outcome(lambda: [reference_phi_vec(c, field) for c in t.children])
                if isinstance(children, TruncationError):
                    raised += 1
                    continue
                for _ in range(3):
                    trunc = rng.choice((None, order))
                    h = MultiSeries(nvars, jet_terms(rng, nvars, trunc, rng.choice(("low", "high"))),
                                    trunc)
                    want = outcome(lambda: reference_contract(children, h, nvars))
                    raised += isinstance(want, TruncationError)
                    got = outcome(lambda: _contract(children, h, nvars))
                    assert_same_error_or(got, want, same_series)
    assert raised


def test_a_contraction_without_children_is_the_target():
    h = FrameFunction({1: MultiSeries(1, {(2,): 3}, 4)})
    assert _contract([], h, 2) is h is reference_contract([], h, 2)


def transfer_inputs(seed, order):
    """psi, Gamma and h for one transferred-operator instance, built from the seed."""
    rng = random.Random(seed)
    return (random_diffeo(rng, order), MultiSeries(1, {(1,): 1, (2,): Fraction(-1, 2)}, order),
            random_frame_function(rng, order))


def test_pushforward_rhs_matches_the_per_tuple_reference():
    # pushforward_rhs runs the contraction with the lift as its map on the
    # full-length partials; the reference lifts every index tuple's
    # derivative of h.  Each side gets its own psi, Gamma and h, rebuilt
    # from one seed, so neither reads what the other kept.  The fan with
    # four children takes a derivative tuple of length 4.
    trees = [t for n in range(1, 6) for t in enumerate_trees(n)]

    for order in (6, 8):
        for seed in (0, 1):
            mine, theirs = transfer_inputs(seed, order), transfer_inputs(seed, order)
            for t in trees:
                got = outcome(lambda: pushforward_rhs(t, *mine[:2], mine[2]))
                want = outcome(lambda: reference_pushforward_rhs(t, *theirs[:2], theirs[2]))
                assert_same_error_or(got, want, same_grid)


def test_coprodcontrib_rhs_matches_the_per_cut_reference():
    # coprodcontrib_rhs sums over the grouped terms c (P | R) of Delta(t),
    # lifting once per left leg and reading the Y-power off R's fertility;
    # the reference lifts once per admissible cut and counts the cut's root
    # edges.  Each side gets its own psi, Gamma and h, rebuilt from one
    # seed, so neither reads what the other kept.  A sum keeps its rows in
    # the order its terms first reach them, which the regrouping changes,
    # so the grids are compared as dicts.
    trees = [t for n in range(1, 6) for t in enumerate_trees(n)]

    for order in (6, 8):
        for seed in (0, 1):
            mine, theirs = transfer_inputs(seed, order), transfer_inputs(seed, order)
            for t in trees:
                got = outcome(lambda: coprodcontrib_rhs(t, *mine))
                want = outcome(lambda: reference_coprodcontrib_rhs(t, *theirs))
                assert_same_error_or(got, want, same_rows)
