import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from treehopf import (
    EMPTY_FOREST,
    Forest,
    LEAF,
    LinComb,
    RootedTree,
    Tensor2,
    antipode,
    b_plus,
    coproduct,
    counit,
    delta_k,
    enumerate_forests,
    enumerate_trees,
    grading_Y,
    multiply,
    natural_growth,
    nbrel_identity,
    ntcoprod_identity,
    parse_forest,
    parse_lincomb,
    parse_tree,
)
import treehopf.hopf as hopf_module
from oracles import (brute_force_coproduct, brute_force_coproduct_tree, brute_force_natural_growth,
                     brute_force_natural_growth_forest, forest_factorial, reference_lincomb_product,
                     reference_tensor_product, total_cut_antipode, tree_factorial)

L2 = parse_tree("[[]]")
CHERRY = parse_tree("[[][]]")
LADDER3 = parse_tree("[[[]]]")
PAPER_T = b_plus(Forest((LEAF, L2)))  # the 4-vertex example tree


def lincombs(max_degree=4):
    forests = [f for d in range(max_degree + 1) for f in enumerate_forests(d)]
    coeffs = st.integers(min_value=-3, max_value=3)
    entry = st.tuples(st.sampled_from(forests), coeffs)
    return st.lists(entry, max_size=4).map(
        lambda items: LinComb({}) + LinComb(items)
    )


def test_multiply_unit_and_examples():
    x = LinComb.of(CHERRY, Fraction(3, 2))
    assert multiply(LinComb.unit(), x) == x
    dot = LinComb.of(LEAF)
    assert multiply(dot, dot) == LinComb.of(Forest((LEAF, LEAF)))


# No explain phase: it traces every line of a failing run.
@given(lincombs(3), lincombs(3), lincombs(3))
@settings(max_examples=40)
def test_multiply_commutative_associative(a, b, c):
    assert multiply(a, b) == multiply(b, a)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_coproduct_displays():
    assert coproduct(LinComb.of(LEAF)) == (
        Tensor2.of(EMPTY_FOREST, Forest((LEAF,))) + Tensor2.of(Forest((LEAF,)), EMPTY_FOREST)
    )
    got = coproduct(LinComb.of(L2))
    want = (
        Tensor2.of(Forest((L2,)), EMPTY_FOREST)
        + Tensor2.of(EMPTY_FOREST, Forest((L2,)))
        + Tensor2.of(Forest((LEAF,)), Forest((LEAF,)))
    )
    assert got == want
    assert str(got) == "1 ([[]] | 1) + 1 (1 | [[]]) + 1 ([] | [])"


def test_coproduct_matches_brute_force_oracle():
    for d in range(0, 7):
        for f in enumerate_forests(d):
            assert coproduct(LinComb.of(f)) == brute_force_coproduct(f), f.serial


def test_coproduct_of_every_tree_matches_brute_force_oracle():
    for n in range(1, 10):
        for t in enumerate_trees(n):
            assert coproduct(t) == brute_force_coproduct_tree(t), t.serial


def test_coproduct_built_through_cold_trunks_matches_brute_force_oracle(monkeypatch):
    # From an empty memo, largest trees first: the trunk B+(F') of a tree
    # B+(F' c^m) is built inside its parent's own call, not read warm.
    memo = {}
    monkeypatch.setattr(hopf_module, "_coproduct_memo", memo)
    # At 10 vertices, the roots with three or more children in two or more
    # classes: a trunk that has a trunk of its own.
    bushy = [t for t in enumerate_trees(10) if t.fertility >= 3 and len(set(t.children)) >= 2]
    assert len(bushy) == 191
    cold_trunks = []
    for t in bushy + [t for n in range(9, 0, -1) for t in reversed(enumerate_trees(n))]:
        trunk = t.children and hopf_module._peel(t)[0]
        if trunk and trunk not in memo:
            cold_trunks.append(trunk)
        assert coproduct(t) == brute_force_coproduct_tree(t), t.serial
    # 170 distinct trunks were first built inside a parent's call, and each
    # was checked against the oracle when its own turn came.
    assert len(set(cold_trunks)) == len(cold_trunks) == 170


def test_coproduct_keeps_one_entry_per_subtree_and_trunk(monkeypatch):
    # A fan's root children are all alike, so its trunk is the leaf.
    memo = {}
    monkeypatch.setattr(hopf_module, "_coproduct_memo", memo)
    fan = b_plus(Forest((LEAF,) * 2000))
    assert len(coproduct(fan).terms) == 2002
    assert set(memo) == {fan, LEAF}
    # The root over ladders 1..8 keeps its 9 distinct subtrees and the 7
    # trunks B+(l8 ... lk), k = 2..8, one per peeled child; each ladder's
    # trunk is the leaf, l1.
    memo.clear()
    ladders = [LEAF]
    while len(ladders) < 8:
        ladders.append(b_plus(ladders[-1].forest))
    root = b_plus(Forest(ladders))
    # Each ladder lk keeps itself or loses one of its k edges: 9! + 1 cuts.
    assert sum(coproduct(root).terms.values()) == factorial(9) + 1
    trunks = {b_plus(Forest(ladders[k:])) for k in range(1, 8)}
    assert set(memo) == {root, *ladders} | trunks and len(memo) == 16


def test_counit():
    assert counit(LinComb.unit()) == 1
    assert counit(LinComb.of(LEAF)) == 0
    assert counit(LinComb.of(CHERRY, Fraction(5))) == 0


# No explain phase: it traces every line of a failing run.
@given(lincombs(4))
@settings(max_examples=30)
def test_counit_axiom(x):
    left = LinComb.zero()
    right = LinComb.zero()
    for (fl, fr), c in coproduct(x).terms.items():
        left = left + LinComb.of(fr, c * counit(LinComb.of(fl)))
        right = right + LinComb.of(fl, c * counit(LinComb.of(fr)))
    assert left == x
    assert right == x


def _coproduct_twice(x: LinComb, left: bool) -> dict:
    """(Delta (x) id) Delta(x) if left, else (id (x) Delta) Delta(x), as a triple-keyed dict."""
    out: dict = {}
    for (fl, fr), c in coproduct(x).terms.items():
        for (a, b), d in coproduct(fl if left else fr).terms.items():
            key = (a, b, fr) if left else (fl, a, b)
            out[key] = out.get(key, 0) + c * d
    return {k: v for k, v in out.items() if v}


def high_degree_lincombs():
    forests = list(enumerate_forests(7)) + list(enumerate_forests(8))
    entry = st.tuples(st.sampled_from(forests), st.sampled_from([1, -2, Fraction(1, 3)]))
    return st.lists(entry, min_size=1, max_size=2).map(LinComb)


@given(high_degree_lincombs())
@settings(max_examples=40)
def test_coassociativity_at_degree_7_and_8(x):
    assert _coproduct_twice(x, True) == _coproduct_twice(x, False)


@given(high_degree_lincombs())
@settings(max_examples=40)
def test_antipode_identity_at_degree_7_and_8(x):
    # m(S (x) id) Delta(x) = eps(x) 1 = m(id (x) S) Delta(x)
    target = LinComb.unit().scale(counit(x))
    d = coproduct(x)
    assert LinComb.linear(d, lambda p: antipode(p[0]) * LinComb.of(p[1])) == target
    assert LinComb.linear(d, lambda p: LinComb.of(p[0]) * antipode(p[1])) == target


def test_antipode_examples():
    assert antipode(LinComb.of(LEAF)) == LinComb.of(LEAF, -1)
    want = LinComb.of(Forest((LEAF, LEAF))) - LinComb.of(L2)
    assert antipode(LinComb.of(L2)) == want


def test_antipode_convolution_identity():
    for d in range(0, 7):
        for f in enumerate_forests(d):
            x = LinComb.of(f)
            target = LinComb.unit().scale(counit(x))
            for left_side in (True, False):
                acc = LinComb.zero()
                for (fl, fr), c in coproduct(x).terms.items():
                    l = antipode(LinComb.of(fl)) if left_side else LinComb.of(fl)
                    r = LinComb.of(fr) if left_side else antipode(LinComb.of(fr))
                    acc = acc + (l * r).scale(c)
                assert acc == target, (f.serial, left_side)


def test_grading():
    assert grading_Y(LinComb.unit()) == LinComb.zero()
    assert grading_Y(LinComb.of(LEAF)) == LinComb.of(LEAF)
    mixed = Forest((LEAF, L2))
    assert grading_Y(LinComb.of(mixed)) == LinComb.of(mixed, 3)


def test_natural_growth_single_attachment():
    assert natural_growth(LEAF, LinComb.of(LEAF)) == LinComb.of(L2)
    assert natural_growth(LEAF, LinComb.unit()) == LinComb.zero()


def test_natural_growth_paper_expansion():
    # growing the 4-vertex example tree by a single vertex: four summands
    got = natural_growth(LEAF, LinComb.of(PAPER_T))
    want = (
        LinComb.of(b_plus(Forest((LEAF, LADDER3))))
        + LinComb.of(b_plus(Forest((LEAF, CHERRY))))
        + LinComb.of(b_plus(Forest((L2, L2))))
        + LinComb.of(b_plus(Forest((LEAF, LEAF, L2))))
    )
    assert got == want


def test_generalized_growth_paper_expansion():
    # growing delta_2 by the 4-vertex example tree: two summands
    got = natural_growth(PAPER_T, LinComb.of(L2))
    want = LinComb.of(b_plus(Forest((LEAF, PAPER_T)))) + LinComb.of(
        b_plus(Forest((b_plus(Forest((PAPER_T,))),)))
    )
    assert got == want


def test_growth_is_derivation_on_products():
    t = L2
    u, v = LinComb.of(CHERRY), LinComb.of(LEAF)
    lhs = natural_growth(t, u * v)
    rhs = natural_growth(t, u) * v + u * natural_growth(t, v)
    assert lhs == rhs


# Every pair of trees (t, s) with |t| + |s| <= 8, and every (t, forest) with
# |t| <= 3 and |t| + deg <= 7.
GROWTH_PAIRS = [(t, s) for n in range(1, 8) for t in enumerate_trees(n)
                for m in range(1, 9 - n) for s in enumerate_trees(m)]
GROWTH_FORESTS = [(t, f) for n in range(1, 4) for t in enumerate_trees(n)
                  for d in range(0, 8 - n) for f in enumerate_forests(d)]


@pytest.mark.parametrize("fill", ["empty", "shuffled"])
def test_natural_growth_matches_brute_force_oracle(monkeypatch, fill):
    # Each run starts on an empty growth memo; "shuffled" first fills it by
    # growing every pair and forest in a seeded random order.
    monkeypatch.setattr(hopf_module, "_graft_memo", {})
    if fill == "shuffled":
        order = GROWTH_PAIRS + GROWTH_FORESTS
        random.Random(17).shuffle(order)
        for t, x in order:
            natural_growth(t, x)
        assert len(hopf_module._graft_memo) >= len(GROWTH_PAIRS)
    assert len(GROWTH_PAIRS) == 312
    for t, s in GROWTH_PAIRS:
        assert natural_growth(t, s) == brute_force_natural_growth(t, s), (t.serial, s.serial)
    for t, f in GROWTH_FORESTS:
        assert natural_growth(t, f) == brute_force_natural_growth_forest(t, f), (t.serial, f.serial)
    x = LinComb.of(PAPER_T, Fraction(2, 3)) + LinComb.of(Forest((L2, CHERRY)), -3) + LinComb.unit()
    want = (brute_force_natural_growth(LADDER3, PAPER_T).scale(Fraction(2, 3))
            + brute_force_natural_growth_forest(LADDER3, Forest((L2, CHERRY))).scale(-3))
    assert natural_growth(LADDER3, x) == want


def test_growth_memo_is_keyed_by_interned_trees_and_never_handed_out():
    for x in (PAPER_T, Forest((PAPER_T,)), LinComb.of(PAPER_T, 2), Forest((L2, CHERRY))):
        first = natural_growth(L2, x)
        want = str(first)
        first.terms[Forest((LEAF,))] = 99
        for f in list(first.terms)[:2]:
            first.terms[f] = -7
        second = natural_growth(L2, x)
        assert second is not first and second.terms is not first.terms
        assert str(second) == want, x
        second.terms.clear()
        assert str(natural_growth(L2, x)) == want, x
    for (t, s), grown in hopf_module._graft_memo.items():
        assert RootedTree(t.children) is t and RootedTree(s.children) is s
        assert grown == brute_force_natural_growth(t, s)


def test_antipode_and_coproduct_never_hand_out_a_memo():
    x = LinComb.of(PAPER_T, 2) + LinComb.of(Forest((L2, CHERRY)), Fraction(-1, 2))
    for arg in (PAPER_T, Forest((PAPER_T,)), Forest((L2, CHERRY, LEAF)), EMPTY_FOREST, x):
        for fn in (antipode, coproduct):
            first = fn(arg)
            want = str(first)
            first.terms.clear()
            assert str(fn(arg)) == want, (fn.__name__, arg)
    for t in (LEAF, L2, CHERRY, PAPER_T):
        assert hopf_module._antipode_memo[t.forest] == total_cut_antipode(t), t.serial


def test_clearing_a_forest_antipode_leaves_its_memo_and_the_trees_that_prune_it():
    f = Forest((L2, CHERRY, LEAF))
    want = LinComb.unit()
    for t in f.trees:
        want = LinComb._raw(reference_lincomb_product(want, total_cut_antipode(t)))
    antipode(f).terms.clear()
    assert hopf_module._antipode_memo[f] == want
    # Cutting the root edges above L2, CHERRY and LEAF prunes f.  Dropped from
    # the memo first, S(host) is rebuilt here and reads S(f).
    host = b_plus(Forest((L2, CHERRY, LEAF, LADDER3)))
    assert (f, b_plus(Forest((LADDER3,))).forest) in brute_force_coproduct_tree(host).terms
    hopf_module._antipode_memo.pop(host.forest, None)
    assert antipode(host) == total_cut_antipode(host)
    assert hopf_module._antipode_memo[f] == want == antipode(f)


def test_antipode_of_a_forest_is_the_product_over_its_trees():
    rng = random.Random(27)
    forests = [f for d in range(9) for f in enumerate_forests(d)]
    for f in rng.sample(forests, 60):
        want = LinComb.unit()
        for t in f.trees:
            want = LinComb._raw(reference_lincomb_product(want, total_cut_antipode(t)))
        assert antipode(f) == want, f.serial


_SMALL_FORESTS = [f for d in range(7) for f in enumerate_forests(d)]
_COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))


def _random_product_factors(rng):
    """Seeded random LinComb and Tensor2 factors of degree at most 6."""
    def pick(degree):
        return rng.choice([f for f in _SMALL_FORESTS if f.degree <= degree])

    def lincomb():
        return LinComb((pick(6), rng.choice(_COEFFS)) for _ in range(rng.randint(0, 5)))

    def tensor():
        terms = []
        for _ in range(rng.randint(0, 5)):
            left = pick(6)
            terms.append(((left, pick(6 - left.degree)), rng.choice(_COEFFS)))
        return Tensor2(terms)

    return [(lincomb(), lincomb()) for _ in range(40)] + [(tensor(), tensor()) for _ in range(40)]


def test_products_match_the_oracle_on_cold_and_warm_tables():
    cases = _random_product_factors(random.Random(31))
    wants = [reference_lincomb_product(a, b) if type(a) is LinComb else reference_tensor_product(a, b)
             for a, b in cases]
    for warm in (False, True):
        for (a, b), want in zip(cases, wants):
            left_factors = [f for key in a.terms for f in (key if type(a) is Tensor2 else (key,))]
            if not warm:
                # A table only caches interned products, so emptying it makes
                # this product build each forest again through Forest.__mul__.
                for f in left_factors:
                    f._products.clear()
            got = a * b
            assert got.terms == want, (warm, a, b)
            _exact_coeffs(got.terms.values())
            assert all(f._products for f in left_factors if b)


def test_delta_k_displays():
    assert delta_k(1) == LinComb.of(LEAF)
    assert delta_k(2) == LinComb.of(L2)
    assert delta_k(3) == LinComb.of(CHERRY) + LinComb.of(LADDER3)
    want4 = {
        "[[][][]]": 1, "[[[]][]]": 3, "[[[][]]]": 1, "[[[[]]]]": 1,
    }
    assert {f.serial: c for f, c in delta_k(4).terms.items()} == {
        k: Fraction(v) for k, v in want4.items()
    }
    assert str(delta_k(4)) == "1 [[][][]] + 3 [[[]][]] + 1 [[[][]]] + 1 [[[[]]]]"
    with pytest.raises(ValueError):
        delta_k(0)


def test_delta_k_coefficient_sums():
    for k in range(1, 7):
        assert sum(delta_k(k).terms.values(), Fraction(0)) == factorial(k - 1)


def test_growth_degree_and_term_count():
    rng = random.Random(3)
    trees = [t for n in range(1, 5) for t in enumerate_trees(n)]
    for _ in range(12):
        t, s = rng.choice(trees), rng.choice(trees)
        grown = natural_growth(t, LinComb.of(s))
        assert grown.degrees() == {t.vertex_count + s.vertex_count}
        assert sum(grown.terms.values(), Fraction(0)) == s.vertex_count


def test_ntcoprod_identity():
    assert ntcoprod_identity(LEAF, LEAF)
    assert ntcoprod_identity(CHERRY, L2)
    trees = [t for n in range(1, 6) for t in enumerate_trees(n)]
    for t in trees:
        for s in trees:
            if t.vertex_count + s.vertex_count <= 5:
                assert ntcoprod_identity(t, s), (t.serial, s.serial)


def test_nbrel_identity():
    assert natural_growth(LEAF, LinComb.of(LEAF)) == LinComb.of(b_plus(Forest((LEAF,))))
    assert nbrel_identity(LEAF, EMPTY_FOREST)
    assert nbrel_identity(LEAF, Forest((LEAF, LEAF)))
    trees = [t for n in range(1, 5) for t in enumerate_trees(n)]
    for t in trees:
        for d in range(0, 6 - t.vertex_count):
            for parts in enumerate_forests(d):
                assert nbrel_identity(t, parts), (t.serial, parts.serial)


def test_coproduct_is_algebra_map():
    rng = random.Random(11)
    forests = [f for d in range(1, 5) for f in enumerate_forests(d)]
    for _ in range(15):
        a, b = rng.choice(forests), rng.choice(forests)
        x, y = LinComb.of(a), LinComb.of(b)
        assert coproduct(x * y) == coproduct(x) * coproduct(y)


def test_coproduct_degree_preserving():
    for d in range(0, 7):
        for f in enumerate_forests(d):
            for (fl, fr) in coproduct(LinComb.of(f)).terms:
                assert fl.degree + fr.degree == d


def test_lincomb_text_round_trip():
    x = delta_k(4) - LinComb.of(L2, Fraction(7, 3)) + LinComb.unit()
    assert parse_lincomb(str(x)) == x
    assert parse_lincomb("1") == LinComb.unit()
    assert parse_lincomb("- 1 [[]]") == LinComb.of(L2, -1)
    assert parse_lincomb("3/2 []*[] + [[]]") == (
        LinComb.of(Forest((LEAF, LEAF)), Fraction(3, 2)) + LinComb.of(L2)
    )


def test_tensor_text_format():
    t = coproduct(LinComb.of(L2))
    assert str(t) == "1 ([[]] | 1) + 1 (1 | [[]]) + 1 ([] | [])"
    assert str(Tensor2.zero()) == "0"


def test_zero_round_trips():
    assert str(LinComb.zero()) == "0"
    assert parse_lincomb("0") == LinComb.zero()
    assert parse_lincomb(str(LinComb.unit().scale(2))) == LinComb.unit().scale(2)


def test_delta_k_coproducts_match_classical_forms():
    # Delta(delta_2) = delta_2 x 1 + 1 x delta_2 + delta_1 x delta_1
    # Delta(delta_3) = delta_3 x 1 + 1 x delta_3 + delta_2 x delta_1
    #                  + 3 delta_1 x delta_2 + delta_1^2 x delta_1
    def tensor(left: LinComb, right: LinComb, coeff=1) -> Tensor2:
        out = Tensor2.zero()
        for fl, cl in left.terms.items():
            for fr, cr in right.terms.items():
                out = out + Tensor2.of(fl, fr, coeff * cl * cr)
        return out

    one = LinComb.unit()
    d1, d2, d3 = delta_k(1), delta_k(2), delta_k(3)
    assert coproduct(d2) == tensor(d2, one) + tensor(one, d2) + tensor(d1, d1)
    want3 = (
        tensor(d3, one) + tensor(one, d3) + tensor(d2, d1)
        + tensor(d1, d2, 3) + tensor(d1 * d1, d1)
    )
    assert coproduct(d3) == want3


def _exact_coeffs(values):
    """Every coefficient is an int, or a Fraction that is not whole; never a float."""
    for c in values:
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def test_coefficients_are_int_first():
    trees = [t for n in range(1, 6) for t in enumerate_trees(n)]
    for t in trees:
        _exact_coeffs(coproduct(t).terms.values())
        _exact_coeffs(antipode(t).terms.values())
        _exact_coeffs(natural_growth(LEAF, LinComb.of(t)).terms.values())
        _exact_coeffs(natural_growth(t, LinComb.of(CHERRY)).terms.values())
    for k in range(1, 7):
        _exact_coeffs(delta_k(k).terms.values())
    for text in ("1/2 [] + 1/2 []", "3/2 []*[] + [[]]", "4/2 [[]] - 1", "2/3 [] * []",
                 "- 1/3 [[]] + 1/3 [[]] + 6/4 []"):
        _exact_coeffs(parse_lincomb(text).terms.values())
    assert parse_lincomb("1/2 [] + 1/2 []").terms == {Forest((LEAF,)): 1}
    half = LinComb.of(LEAF, Fraction(1, 2))
    _exact_coeffs((half.scale(2) + half * LinComb.of(L2, Fraction(2, 1))).terms.values())
    _exact_coeffs(coproduct(half.scale(Fraction(4, 3))).terms.values())
    _exact_coeffs(antipode(LinComb.of(CHERRY, 0.5)).terms.values())


def test_memoised_coproduct_and_antipode_keep_nonzero_int_coefficients():
    # The trunk loop adds coefficients of Delta with no `_norm` and no
    # cancellation test, and the antipode loop adds them in place and deletes
    # a key whose sum is 0: both rest on these coefficients being ints.
    trees = [t for n in range(1, 10) for t in enumerate_trees(n)]
    for t in trees:
        terms = hopf_module._coproduct_tree(t).terms
        assert all(type(c) is int and c > 0 for c in terms.values()), t.serial
        # t (x) 1 is the one term with right leg 1, and it is inserted first.
        top = (t.forest, EMPTY_FOREST)
        assert [k for k in terms if not k[1].trees] == [top] and next(iter(terms)) == top, t.serial
        antipode(t)
    for f, s in hopf_module._antipode_memo.items():
        assert all(type(c) is int and c for c in s.terms.values()), f.serial


def test_linear_drops_cancelled_terms():
    x = LinComb.of(L2) + LinComb.of(Forest((LEAF, LEAF)))
    # both forests map to the single vertex with opposite signs
    out = LinComb.linear(x, lambda f: LinComb.of(LEAF, 1 if f.trees[0] == L2 else -1))
    assert out == LinComb.zero() and not out.terms
    out = LinComb.linear(x, lambda f: LinComb.of(LEAF, Fraction(1, 2)) + LinComb.of(f))
    assert out.terms == {Forest((LEAF,)): 1, Forest((L2,)): 1, Forest((LEAF, LEAF)): 1}


def test_map_legs_drops_cancelled_terms():
    d = coproduct(L2)  # [[]] | 1  +  1 | [[]]  +  [] | []
    zero_right = d.map_legs(right_fn=lambda f: LinComb.zero())
    assert not zero_right.terms
    flip = d.map_legs(left_fn=lambda f: LinComb.of(EMPTY_FOREST, f.degree - 1),
                      right_fn=lambda f: LinComb.of(EMPTY_FOREST))
    # degrees 2, 0, 1 on the left give coefficients 1, -1, 0: everything cancels
    assert flip == Tensor2.zero() and not flip.terms
    halves = d.map_legs(left_fn=lambda f: LinComb.of(f, Fraction(1, 2)),
                        right_fn=lambda f: LinComb.of(f, 2))
    assert halves == d
    _exact_coeffs(halves.terms.values())


def test_antipode_matches_total_cut_oracle():
    for n in range(1, 9):
        for t in enumerate_trees(n):
            assert antipode(t) == total_cut_antipode(t), t.serial


# Bushy trees of 10 to 13 vertices, where S(t) recurses on pruned forests of
# several trees: the root of ladders 1..4, B+ of four cherries, and others.
_BUSHY = [
    b_plus(Forest(tuple(parse_tree("[" * k + "]" * k) for k in range(1, 5)))),
    b_plus(Forest((CHERRY,) * 4)),
    b_plus(Forest((LEAF,) * 9)),
    b_plus(Forest((CHERRY, CHERRY, PAPER_T))),
    b_plus(Forest((PAPER_T, PAPER_T, L2, LEAF))),
    b_plus(Forest((b_plus(Forest((CHERRY, CHERRY))), LADDER3, LEAF))),
    b_plus(Forest((L2, L2, CHERRY, LEAF, LEAF))),
]


def test_antipode_matches_total_cut_oracle_and_both_identities_on_bushy_trees():
    assert sorted(t.vertex_count for t in _BUSHY) == [10, 10, 11, 11, 12, 12, 13]
    for t in _BUSHY:
        assert antipode(t) == total_cut_antipode(t), t.serial
        d = coproduct(t)
        assert not LinComb.linear(d, lambda p: antipode(p[0]) * LinComb.of(p[1])), t.serial
        assert not LinComb.linear(d, lambda p: LinComb.of(p[0]) * antipode(p[1])), t.serial


def _orderings(f: Forest) -> int:
    """|F|! / F!: the orderings of F's vertices that put each parent before its children."""
    return factorial(f.degree) // forest_factorial(f)


def _flow_character_misses(x: RootedTree | Forest) -> list:
    """Where Delta(x) and S(x) break the flow characters e_s(t) = s^|t| / t!.

    The exact flows form a one-parameter group of characters of H_R, and
    S inverts characters: (e_s (x) e_u) Delta = e_{s+u} and e_s S = e_{-s}.
    A character is multiplicative, so on a forest T, e_s(T) = s^|T| / T!.
    Degree by degree in (s, u), the sum of c / (P! R!) over the terms
    c (P | R) of Delta(T) with |P| = k is C(|T|, k) / T! for every k, and
    the sum of c / F! over the terms c F of S(T) is (-1)^|T| / T!.  Times
    k! (|T| - k)!, and times |T|!, both are sums of ints: the orderings of
    P, R and F.  Returns each k whose sum differs, and "S" if the
    antipode's does.
    """
    forest = x.forest if isinstance(x, RootedTree) else x
    n = forest.degree
    want = _orderings(forest)
    by_k = dict.fromkeys(range(n + 1), 0)
    for (pruned, root_part), c in coproduct(x).terms.items():
        k = pruned.degree
        by_k[k] = by_k.get(k, 0) + c * _orderings(pruned) * _orderings(root_part)
    misses = [k for k, got in by_k.items() if got != want]
    s_sum = sum(c * _orderings(f) for f, c in antipode(x).terms.items())
    return misses + ["S"] * (s_sum != (-1) ** n * want)


def _ladder(n: int) -> RootedTree:
    t = LEAF
    for _ in range(n - 1):
        t = b_plus(t.forest)
    return t


# Roots of 11 to 14 vertices with a class of at least two equal children:
# m copies of a tree of 2 to 4 vertices, or two copies of [[[]][[]]], and
# leaves.  A sum over the cuts of one child class that miscounts or drops
# its multiplicities shows only on such trees.
_REPEATED = [RootedTree((s,) * m + (LEAF,) * (n - 1 - m * s.vertex_count))
             for n in range(11, 15) for k in range(2, 5) for s in enumerate_trees(k)
             for m in range(2, (n - 1) // k + 1)]
_REPEATED += [RootedTree((b_plus(Forest((L2, L2))),) * 2 + (LEAF,) * r) for r in range(4)]


def test_coproduct_and_antipode_respect_the_flow_characters():
    assert len(_REPEATED) == 66 and {t.vertex_count for t in _REPEATED} == {11, 12, 13, 14}
    large = [b_plus(Forest(tuple(_ladder(k) for k in range(1, 7)))), b_plus(Forest((LEAF,) * 300))]
    trees = [t for n in range(1, 11) for t in enumerate_trees(n)] + _REPEATED + large
    # Forests of several trees reach the multi-tree entries of the S memo,
    # and the powers c^m the chains of Tensor2 products behind Delta(c^m).
    forests = [f for d in range(2, 10) for f in enumerate_forests(d) if len(f.trees) > 1]
    powers = [Forest((c,) * m) for n in range(1, 5) for c in enumerate_trees(n) for m in range(2, 7)]
    assert len(forests) == 718 and len(powers) == 40
    for x in trees + forests + powers:
        assert _flow_character_misses(x) == [], x.serial


def _character(rng: random.Random, trees):
    """A seeded random rational character: a value per tree, multiplicative on forests."""
    values = {t: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) for t in trees}

    def on_forest(f: Forest) -> Fraction:
        out = Fraction(1)
        for t in f.trees:
            out *= values[t]
        return out

    return on_forest


def _convolution(a, b):
    """a * b = (a (x) b) Delta, on forests, kept per forest."""
    kept = {}

    def on_forest(f: Forest) -> Fraction:
        if f not in kept:
            kept[f] = sum(c * a(p) * b(r) for (p, r), c in coproduct(f).terms.items())
        return kept[f]

    return on_forest


def test_characters_form_the_butcher_group():
    # The characters of H_R form a group under a * b = (a (x) b) Delta, the
    # Butcher group (Connes and Kreimer 1998), with inverse a o S.  On every
    # tree with at most 8 vertices: (a * b) * c = a * (b * c), and
    # (a o S) * a = eps = a * (a o S).
    trees = [t for n in range(1, 9) for t in enumerate_trees(n)]
    rng = random.Random(3811)
    a, b, c = (_character(rng, trees) for _ in range(3))
    left, right = _convolution(_convolution(a, b), c), _convolution(a, _convolution(b, c))

    def a_of_s(f: Forest) -> Fraction:
        return sum(d * a(g) for g, d in antipode(f).terms.items())

    inverse_first, inverse_last = _convolution(a_of_s, a), _convolution(a, a_of_s)
    for t in trees:
        f = t.forest
        assert left(f) == right(f), t.serial
        assert inverse_first(f) == 0 == inverse_last(f), t.serial
    assert inverse_first(EMPTY_FOREST) == 1 == inverse_last(EMPTY_FOREST)


# Renders Delta and S of every tree with n <= 7, S of every forest of two or
# more trees with degree <= 7, then N_t(s) for every pair with
# |t| + |s| <= 7, in sorted order, after computing all of them in the order
# given by argv[1]: "sorted" (the forests before their trees), "forests-last"
# or a shuffle seed.
_RENDER_ALL = """
import random, sys
from treehopf import Forest, antipode, coproduct, enumerate_forests, enumerate_trees, natural_growth
trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
forests = [(f,) for d in range(2, 8) for f in enumerate_forests(d) if len(f.trees) > 1]
jobs = forests + [(t,) for t in trees]
jobs += [(t, s) for t in trees for s in trees if t.vertex_count + s.vertex_count <= 7]
order = list(jobs)
if sys.argv[1] == "forests-last":
    order = order[len(forests):] + order[:len(forests)]
elif sys.argv[1] != "sorted":
    random.Random(int(sys.argv[1])).shuffle(order)
got = {}
for job in order:
    if len(job) == 2:
        got[job] = natural_growth(*job)
    elif isinstance(job[0], Forest):
        got[job] = antipode(job[0])
    else:
        got[job] = (coproduct(job[0]), antipode(job[0]))
for job in jobs:
    if len(job) == 2:
        print(job[0].serial, job[1].serial, got[job])
    elif isinstance(job[0], Forest):
        print(job[0].serial, got[job])
    else:
        print(job[0].serial, got[job][0], "|", got[job][1])
"""


def test_results_do_not_depend_on_call_order_or_hash_seed():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    texts = []
    for order, hash_seed in (("sorted", "0"), ("sorted", "1"), ("forests-last", "0"), ("5", "0"),
                             ("5", "1")):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", _RENDER_ALL, order], capture_output=True,
                              text=True, env=env, timeout=120, check=True)
        texts.append(proc.stdout)
    # 114 forests of two or more trees, 85 trees, and 124 pairs (t, s) with
    # |t| + |s| <= 7
    assert texts[0].count("\n") == 1 + 2 + 5 + 11 + 28 + 67 + 1 + 1 + 2 + 4 + 9 + 20 + 48 + 124
    assert all(text == texts[0] for text in texts)


# Runs the hopf suite twice in one process: first on empty memos, then warm.
_HOPF_TWICE = """
import json
from treehopf.verify import verify_hopf
print(json.dumps(verify_hopf(6)))
print(json.dumps(verify_hopf(6)))
"""


def test_hopf_suite_reports_the_same_cold_and_warm():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _HOPF_TWICE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    cold, warm = proc.stdout.splitlines()
    assert json.loads(cold)["ok"] and json.loads(cold)["checks"] > 0
    assert cold == warm


# In a fresh interpreter, where no tree keeps its one-tree forest and no
# forest its B+ tree or a product, builds Delta of every tree with at most 8
# vertices and S of every tree with at most 7, the largest trees first, so
# the trunk loop meets new root parts B+(R R2) and falls back to both
# properties.  Prints the filled slots before the builds, how often
# `Forest.b_plus` ran, and each result's terms as JSON, in insertion order.
_COLD_SLOTS = """
import json
from treehopf import Forest, antipode, coproduct, enumerate_trees
from treehopf.trees import _FORESTS, _TREES
trees = [t for n in range(8, 0, -1) for t in enumerate_trees(n)]
filled = [t.serial for t in _TREES.values() if t._forest is not None or t._b_minus is not None]
filled += [f.serial for f in _FORESTS.values() if f._b_plus is not None or f._products]
print(json.dumps(filled))
fallbacks = []
b_plus = Forest.b_plus
Forest.b_plus = property(lambda f: fallbacks.append(f) or b_plus.fget(f))
got = [(t, coproduct(t), t.vertex_count <= 7 and antipode(t)) for t in trees]
print(len(fallbacks))
for t, d, s in got:
    print(json.dumps([t.serial, [[l.serial, r.serial, c] for (l, r), c in d.terms.items()],
                      s and [[f.serial, c] for f, c in s.terms.items()]]))
"""


def test_slot_reads_give_the_same_terms_and_order_from_empty_slots():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _COLD_SLOTS], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120, check=True)
    filled, fallbacks, *rows = proc.stdout.splitlines()
    assert json.loads(filled) == [] and int(fallbacks) > 0
    assert len(rows) == 200
    for row in rows:
        serial, cold_delta, cold_s = json.loads(row)
        t = parse_tree(serial)
        assert Tensor2({(parse_forest(l), parse_forest(r)): c for l, r, c in cold_delta}) \
            == brute_force_coproduct_tree(t), serial
        assert cold_delta == [[l.serial, r.serial, c] for (l, r), c in coproduct(t).terms.items()], \
            serial
        if t.vertex_count <= 7:
            assert LinComb({parse_forest(f): c for f, c in cold_s}) == total_cut_antipode(t), serial
            assert cold_s == [[f.serial, c] for f, c in antipode(t).terms.items()], serial


# Renders generate_subalgebra(fan:3, 6) and its closure report, either in a
# fresh process ("cold") or right after generate_subalgebra(fan:3, 7), the
# order of the subalgebra benchmark ("warm").
_SUBALGEBRA = """
import sys
from treehopf import closure_check, fan_graph, generate_subalgebra
gens = {fan_graph(i) for i in range(1, 4)}
if sys.argv[1] == "warm":
    generate_subalgebra(gens, 7)
basis = generate_subalgebra(gens, 6)
for d in sorted(basis.by_degree):
    print(d, " ; ".join(str(e) for e in basis.by_degree[d]))
print(repr(closure_check(basis)))
"""


def test_subalgebra_renders_the_same_cold_and_warm():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    texts = [subprocess.run([sys.executable, "-c", _SUBALGEBRA, when], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
                            check=True).stdout for when in ("cold", "warm")]
    assert texts[0].count("\n") == 7 and "ok=True" in texts[0]
    assert texts[0] == texts[1]


def _double_loop_tensor(a: LinComb, b: LinComb) -> Tensor2:
    out = Tensor2.zero()
    for fl, cl in a.terms.items():
        for fr, cr in b.terms.items():
            out = out + Tensor2.of(fl, fr, cl * cr)
    return out


def test_tensor_is_the_double_loop():
    a = (LinComb.of(LEAF, Fraction(2, 3)) + LinComb.of(L2, -3)
         + LinComb.of(EMPTY_FOREST, Fraction(1, 2)))
    b = LinComb.of(CHERRY, Fraction(3, 2)) + LinComb.of(Forest((LEAF, LEAF)), 4)
    got = Tensor2.tensor(a, b)
    assert got == _double_loop_tensor(a, b) and len(got.terms) == 6
    # 2/3 * 3/2 and 1/2 * 4 are whole: stored as int
    assert type(got.terms[Forest((LEAF,)), Forest((CHERRY,))]) is int
    assert type(got.terms[EMPTY_FOREST, Forest((LEAF, LEAF))]) is int
    _exact_coeffs(got.terms.values())
    assert Tensor2.tensor(a, LinComb.zero()) == Tensor2.zero()
    assert Tensor2.tensor(LinComb.unit(), LinComb.unit()) == Tensor2.of(EMPTY_FOREST, EMPTY_FOREST)


def test_equal_combinations_hash_equal_whatever_their_term_order():
    forests = [Forest((LEAF,)), Forest((L2,)), Forest((LEAF, CHERRY)), EMPTY_FOREST]
    coeffs = [Fraction(2, 3), -3, 1, Fraction(-1, 2)]
    pairs = list(zip(forests, coeffs))
    tensor_pairs = [((fl, fr), c) for (fl, c), fr in zip(pairs, reversed(forests))]
    for cls, items in ((LinComb, pairs), (Tensor2, tensor_pairs)):
        forward, backward = cls(dict(items)), cls(dict(reversed(items)))
        summed = cls.zero()
        for item in items[1::2] + items[::2]:
            summed = summed + cls([item])
        assert list(forward.terms) != list(backward.terms)
        assert forward == backward == summed
        assert hash(forward) == hash(backward) == hash(summed)
        assert len({forward, backward, summed}) == 1


@given(lincombs(3), lincombs(3), st.sampled_from([1, Fraction(1, 2), Fraction(-2, 3)]))
@settings(max_examples=30)
def test_tensor_matches_the_double_loop(a, b, c):
    a = a.scale(c)
    got = Tensor2.tensor(a, b)
    assert got == _double_loop_tensor(a, b)
    _exact_coeffs(got.terms.values())


@given(lincombs(4), st.sampled_from([1, Fraction(3, 2)]))
@settings(max_examples=30)
def test_linear_extension_is_the_sum_of_the_images(x, c):
    x = x.scale(c)
    want = Tensor2.zero()
    for f, d in x.terms.items():
        want = want + coproduct(f).scale(d)
    got = Tensor2.linear(x, coproduct)
    assert type(got) is Tensor2
    assert got == want == coproduct(x)
    _exact_coeffs(got.terms.values())


def test_the_two_modules_stay_apart():
    assert LinComb() != Tensor2() and Tensor2() != LinComb()
    assert type(LinComb.zero()) is LinComb and type(Tensor2.zero()) is Tensor2
    x, d = LinComb.of(L2), coproduct(L2)
    for y in (x, d):
        for z in (y + y, y - y, -y, y.scale(2), y * y):
            assert type(z) is type(y)
    assert repr(LinComb.of(L2, Fraction(-1, 2)) + LinComb.unit()) == "LinComb('1 1 - 1/2 [[]]')"
    assert repr(d) == "Tensor2('1 ([[]] | 1) + 1 (1 | [[]]) + 1 ([] | [])')"
    assert repr(Tensor2.of(LEAF, EMPTY_FOREST, Fraction(-3, 4))) == "Tensor2('- 3/4 ([] | 1)')"
    assert (repr(LinComb()), repr(Tensor2())) == ("LinComb('0')", "Tensor2('0')")


_OPS = {"__mul__": lambda y: y * y, "__add__": lambda y: y + y, "__str__": str}


def test_patching_one_class_leaves_the_other_untouched():
    # Per-layer tracing wraps these methods class by class; a wrapper put on
    # one class must neither replace nor see calls of the other's.
    x, d = LinComb.of(L2) + LinComb.unit(), coproduct(L2)
    for patched, other, own_elem, other_elem in ((LinComb, Tensor2, x, d),
                                                 (Tensor2, LinComb, d, x)):
        for name, op in _OPS.items():
            saved = patched.__dict__.get(name)
            orig = getattr(patched, name)
            calls = []

            def wrapper(*args, orig=orig, calls=calls):
                calls.append(args[0])
                return orig(*args)

            setattr(patched, name, wrapper)
            try:
                assert getattr(other, name) is not wrapper
                want = op(other_elem)
                assert not calls, (patched.__name__, name)
                assert op(own_elem) == orig(*((own_elem,) * (1 if name == "__str__" else 2)))
                assert calls == [own_elem], (patched.__name__, name)
                assert want == op(other_elem) and len(calls) == 1
            finally:
                if saved is None:
                    delattr(patched, name)
                else:
                    setattr(patched, name, saved)
            assert patched.__dict__.get(name) is saved
            assert getattr(patched, name) is orig
