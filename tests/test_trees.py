import copy
import functools
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from treehopf import (
    EMPTY_FOREST,
    Forest,
    LEAF,
    RootedTree,
    TreeParseError,
    admissible_cuts,
    b_minus,
    b_plus,
    canonicalize,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    parse_tree,
    tree_order,
)
from oracles import (
    all_trees_by_levels,
    brute_force_cut_pairs,
    canonical_level_sequences,
    tree_from_levels,
)

L2 = parse_tree("[[]]")
CHERRY = parse_tree("[[][]]")
LADDER3 = parse_tree("[[[]]]")


def ladder(n):
    t = LEAF
    for _ in range(n - 1):
        t = RootedTree((t,))
    return t


def fan(n):
    return RootedTree((LEAF,) * (n - 1))


def test_tree_order_examples():
    assert tree_order(LEAF, LEAF) == 0
    assert tree_order(LEAF, L2) == -1
    assert tree_order(L2, LEAF) == 1
    # strict deterministic order on equal sizes, agreeing with the order of
    # the canonical serializations (']' collates before '[')
    assert tree_order(CHERRY, LADDER3) == -1
    collate = str.maketrans({"[": "\x01", "]": "\x00"})
    assert CHERRY.serial.translate(collate) < LADDER3.serial.translate(collate)


def test_canonical_children_order():
    # larger subtrees come first; forced by the delta_4 display
    t = RootedTree((LEAF, L2))
    assert t.serial == "[[[]][]]"
    assert canonicalize(t) == t


def test_canonicalize_idempotent():
    t = parse_tree("[[[]][][[][]]]")
    assert canonicalize(t) == t
    assert canonicalize(canonicalize(t)) == t


def _shuffle(t: RootedTree, rng) -> list:
    kids = [_shuffle(c, rng) for c in t.children]
    rng.shuffle(kids)
    return kids


# No explain phase: it traces every line of a failing run.
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_canonicalize_invariant_under_shuffles(seed):
    rng = random.Random(seed)
    trees = enumerate_trees(7)
    t = trees[rng.randrange(len(trees))]
    assert canonicalize(_shuffle(t, rng)) == t


def test_enumerate_counts():
    counts = [len(enumerate_trees(n)) for n in range(1, 11)]
    assert counts == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    assert enumerate_trees(0) == ()


def test_enumerate_against_level_sequence_oracle():
    for n in range(1, 9):
        assert set(enumerate_trees(n)) == all_trees_by_levels(n)


def test_enumerate_against_canonical_level_sequences():
    # One canonical level sequence per rooted tree: 4,766 trees at n = 12.
    for n in range(1, 13):
        seqs = list(canonical_level_sequences(n))
        serials = {tree_from_levels(seq).serial for seq in seqs}
        assert len(serials) == len(seqs), n
        assert serials == {t.serial for t in enumerate_trees(n)}, n


def test_enumerate_sorted_no_duplicates():
    for n in range(1, 8):
        ts = enumerate_trees(n)
        assert len(set(ts)) == len(ts)
        assert all(t.vertex_count == n for t in ts)
        assert all(tree_order(a, b) == -1 for a, b in zip(ts, ts[1:]))


def test_delta3_delta4_membership():
    assert set(enumerate_trees(3)) == {CHERRY, LADDER3}
    assert set(enumerate_trees(4)) == {
        parse_tree("[[][][]]"), parse_tree("[[[]][]]"),
        parse_tree("[[[][]]]"), parse_tree("[[[[]]]]"),
    }


def test_b_plus_examples():
    assert b_plus(EMPTY_FOREST) == LEAF
    assert b_plus(Forest((LEAF, LEAF))) == CHERRY
    t1, t2 = LADDER3, CHERRY
    grafted = b_plus(Forest((t1, t2)))
    assert grafted.fertility == 2
    assert sorted(grafted.children) == sorted((t1, t2))
    assert grafted.vertex_count == 7


def test_b_minus_round_trip():
    assert b_minus(LEAF) == EMPTY_FOREST
    assert b_minus(CHERRY) == Forest((LEAF, LEAF))
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert b_plus(b_minus(t)) == t


def test_admissible_cuts_small():
    cuts = admissible_cuts(LEAF)
    assert [(c.kind, p.serial, r.serial) for c, p, r in cuts] == [
        ("empty", "1", "[]"), ("full", "[]", "1"),
    ]
    cuts = admissible_cuts(L2)
    kinds = [(c.kind, p.serial, r.serial) for c, p, r in cuts]
    assert ("proper", "[]", "[]") in kinds
    assert len(kinds) == 3


def test_admissible_cuts_against_subset_oracle():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            got = sorted((p.serial, r.serial) for _, p, r in admissible_cuts(t))
            want = sorted((p.serial, r.serial) for p, r in brute_force_cut_pairs(t))
            assert got == want, t.serial


def test_cut_counts_ladder_and_fan():
    for n in range(1, 8):
        assert len(admissible_cuts(ladder(n))) == n + 1
    for n in range(2, 8):
        assert len(admissible_cuts(fan(n))) == 2 + 2 ** (n - 1) - 1


def test_proper_cut_degree_additivity():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            for cut, pruned, root in admissible_cuts(t):
                assert pruned.degree + root.degree == t.vertex_count
                if cut.kind == "proper":
                    assert cut.edges and len(root.trees) == 1


def test_cut_edges_are_antichains():
    for t in enumerate_trees(6):
        for cut, _, _ in admissible_cuts(t):
            edges = sorted(cut.edges)
            for a in edges:
                for b in edges:
                    if a != b:
                        assert a != b[: len(a)]  # no edge below another


def test_parse_render_round_trip():
    for n in range(1, 7):
        for t in enumerate_trees(n):
            assert parse_tree(t.serial) == t
    f = parse_forest("[[]] * [] * [[][]]")
    assert parse_forest(f.serial) == f
    assert parse_forest("1") == EMPTY_FOREST


def test_parse_accepts_any_child_order():
    assert parse_tree("[[][[]]]") == parse_tree("[[[]][]]")


def test_parse_errors_carry_position():
    with pytest.raises(TreeParseError) as err:
        parse_tree("[[]")
    assert "position 3" in str(err.value)
    with pytest.raises(TreeParseError):
        parse_tree("[]]")
    with pytest.raises(TreeParseError):
        parse_forest("[] ** []")


def test_forest_degree_and_product():
    f = Forest((L2, LEAF))
    assert f.degree == 3
    assert (f * Forest((CHERRY,))).degree == 6
    assert enumerate_forests(3) == tuple(sorted(enumerate_forests(3), key=lambda x: x.sort_key()))
    assert [len(enumerate_forests(n)) for n in range(7)] == [1, 1, 2, 4, 9, 20, 48]


FORESTS_TO_6 = [f for d in range(7) for f in enumerate_forests(d)]


def test_forest_product_matches_sorted_concatenation():
    # The oracle sorts the joined trees itself (largest first) and never multiplies.
    key = functools.cmp_to_key(tree_order)
    for a, b in itertools.product(FORESTS_TO_6, repeat=2):
        trees = tuple(sorted(a.trees + b.trees, key=key, reverse=True))
        product = a * b
        assert product.trees == trees, (a.serial, b.serial)
        assert product is Forest(trees), (a.serial, b.serial)
        assert a * b is product


def test_forest_product_is_commutative_and_associative_on_instances():
    for a, b in itertools.product(FORESTS_TO_6, repeat=2):
        assert a * b is b * a, (a.serial, b.serial)
    small = [f for d in range(5) for f in enumerate_forests(d)]
    for a, b, c in itertools.product(small, repeat=3):
        assert (a * b) * c is a * (b * c), (a.serial, b.serial, c.serial)


def test_trees_are_interned():
    t = parse_tree("[[[]][][[][]]]")
    assert RootedTree(reversed(t.children)) is t
    assert RootedTree(children=list(t.children)) is t
    assert parse_tree("[[][[][]][[]]]") is t
    assert canonicalize([[], [[], []], [[]]]) is t
    rng = random.Random(5)
    for u in enumerate_trees(7):
        assert canonicalize(_shuffle(u, rng)) is u


def test_forests_are_interned():
    f = Forest((LEAF, CHERRY, L2))
    assert Forest((L2, LEAF, CHERRY)) is f
    assert Forest(trees=[CHERRY, L2, LEAF]) is f
    assert Forest((LEAF,)) * Forest((CHERRY, L2)) is f
    assert f * EMPTY_FOREST is f
    assert EMPTY_FOREST * f is f
    assert parse_forest("[] * [[]] * [[][]]") is f
    assert Forest() is EMPTY_FOREST


def test_copy_and_pickle_return_the_interned_instance():
    t = parse_tree("[[[]][][[][]]]")
    f = Forest((t, LEAF, t))
    for x in (LEAF, t, EMPTY_FOREST, f):
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x


def test_trees_and_forests_are_immutable():
    t = parse_tree("[[]]")
    f = Forest((t,))
    for obj, name in ((t, "children"), (t, "serial"), (t, "vertex_count"),
                      (f, "trees"), (f, "serial"), (f, "degree")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        t.extra = 1
    assert t.serial == "[[]]" and f.serial == "[[]]"


def test_hash_is_identity_and_order_follows_the_serial():
    # Hashing is object identity, sound because there is one instance per
    # shape; every order comes from the (size, collated serial) sort key.
    collate = str.maketrans({"[": "\x01", "]": "\x00"})
    for n in range(1, 6):
        for t in enumerate_trees(n):
            assert RootedTree(t.children) is t
            assert copy.copy(t) is t and pickle.loads(pickle.dumps(t)) is t
            assert hash(RootedTree(reversed(t.children))) == hash(t)
            assert t == t and t <= t and not t < t
        trees = enumerate_trees(n)
        assert [t.serial.translate(collate) for t in trees] == sorted(
            t.serial.translate(collate) for t in trees)
        assert all(a < b for a, b in zip(trees, trees[1:]))
    f = Forest((CHERRY, LEAF))
    assert Forest(f.trees) is f
    assert copy.copy(f) is f and pickle.loads(pickle.dumps(f)) is f
    assert hash(Forest((LEAF, CHERRY))) == hash(f)
    assert f.sort_key() == (4, f.serial.translate(collate))
    assert f.sort_key() is f.sort_key()
    assert LEAF != EMPTY_FOREST and Forest((LEAF,)) != LEAF
