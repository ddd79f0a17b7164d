import copy
import functools
import itertools
import os
import pickle
import random
import subprocess
import sys

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
import treehopf.trees as trees_module
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
    assert enumerate_forests(3) == tuple(sorted(enumerate_forests(3), key=trees_module._sort_key))
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


def test_post_init_runs_once_per_new_shape_when_patched_on_the_class(monkeypatch):
    # The benchmark's `built` counters wrap `__post_init__` on each class;
    # the one intern routine must run the wrapper once per new shape and
    # never on a lookup.  The shapes below are built by no other test: a root
    # over a 31-vertex ladder, a 29-vertex fan and a single vertex, and a root
    # over the ladder and the fan.
    children = (ladder(31), fan(29), LEAF)
    built = []

    def count(cls):
        post_init = cls.__post_init__

        def counted(self):
            built.append(cls)
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)

    count(RootedTree)
    count(Forest)
    tree = RootedTree(children)
    forest = Forest(children)
    assert built == [RootedTree, Forest]
    assert tree.children == forest.trees == children and tree.vertex_count == 62
    for order in ((LEAF, fan(29), ladder(31)), (fan(29), LEAF, ladder(31))):
        assert RootedTree(order) is tree and Forest(order) is forest
    assert forest.b_plus is tree and b_minus(tree) is forest and tree.forest.trees == (tree,)
    assert built == [RootedTree, Forest, Forest]    # only the one-tree forest is new
    # Building b_minus or b_plus fills the other's slot, so the round trip in
    # either direction builds no shape and looks none up in the intern tables.
    twig = RootedTree(children[:2])
    looked_up = []
    intern = trees_module._intern
    monkeypatch.setattr(trees_module, "_intern", lambda *args: looked_up.append(args) or intern(*args))
    assert b_plus(b_minus(twig)) is twig and twig.b_minus.trees == children[:2]
    # Only the first b_minus(twig) looks up, and builds, its forest.
    assert built == [RootedTree, Forest, Forest, RootedTree, Forest] and len(looked_up) == 1
    for _ in range(2):
        assert b_plus(b_minus(twig)) is twig and b_minus(b_plus(twig.b_minus)) is twig.b_minus
        assert b_minus(b_plus(forest)) is forest and b_plus(b_minus(tree)) is tree
    assert built == [RootedTree, Forest, Forest, RootedTree, Forest] and len(looked_up) == 1


def test_copy_and_pickle_return_the_interned_instance():
    t = parse_tree("[[[]][][[][]]]")
    f = Forest((t, LEAF, t))
    for x in (LEAF, t, EMPTY_FOREST, f):
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x
    # Still so once the kept maps are filled.
    assert f * t.forest is f * t.forest and f.b_plus is b_plus(f)
    for x in (t, t.forest, f, f * t.forest, f.b_plus, b_plus(f).forest):
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert pickle.loads(pickle.dumps(x)) is x


def test_each_tree_keeps_its_one_tree_forest():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert t.forest is Forest((t,)), t.serial
            assert t.forest.trees == (t,) and t.forest is t.forest
            assert t.forest.serial == t.serial and t.forest.degree == t.vertex_count


def test_max_fertility_counts_the_most_children_at_any_depth():
    for n in range(1, 8):
        for t in enumerate_trees(n):
            assert t.max_fertility() == _most_children_in_serial(t.serial), t.serial
    # Far deeper than the recursion limit: a fan of 4 under 5000 vertices of
    # ladder, so the widest vertex is at the bottom.
    t = fan(5)
    for _ in range(5000):
        t = RootedTree((t,))
    assert t.max_fertility() == 4
    assert RootedTree((t, LEAF)).max_fertility() == 4
    assert RootedTree((t, LEAF, LEAF, LEAF, LEAF)).max_fertility() == 5


def _most_children_in_serial(serial):
    """The most children of any vertex, counted on the brackets of a serialization."""
    counts, best = [], 0
    for ch in serial:
        if ch == "[":
            if counts:
                counts[-1] += 1
            counts.append(0)
        else:
            best = max(best, counts.pop())
    return best


def test_each_forest_keeps_its_b_plus_tree():
    for f in FORESTS_TO_6:
        grafted = b_plus(f)
        assert grafted is RootedTree(f.trees), f.serial
        assert b_plus(f) is grafted and f.b_plus is grafted
        assert grafted.children == f.trees and b_minus(grafted) is f
    assert b_plus(EMPTY_FOREST) is LEAF


def test_trees_and_forests_are_immutable():
    t = parse_tree("[[]]")
    f = Forest((t,))
    assert t.forest is f and f.b_plus is parse_tree("[[[]]]") and f * f is Forest((t, t))
    for obj, name in ((t, "children"), (t, "serial"), (t, "vertex_count"),
                      (t, "forest"), (t, "_forest"),
                      (f, "trees"), (f, "serial"), (f, "degree"),
                      (f, "b_plus"), (f, "_b_plus"), (f, "_products")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        t.extra = 1
    assert t.serial == "[[]]" and f.serial == "[[]]"
    assert t.forest is f and f.b_plus is parse_tree("[[[]]]") and f * f is Forest((t, t))


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
    assert trees_module._sort_key(f) == (4, f.serial.translate(collate))
    assert trees_module._sort_key(f) is trees_module._sort_key(f)
    assert LEAF != EMPTY_FOREST and Forest((LEAF,)) != LEAF


# Multiplies every pair of forests up to degree 4, in enumeration order or
# the reverse, then renders the coproduct and antipode of every tree with at
# most 7 vertices, computed in the same order, and prints them in
# enumeration order.
_PRODUCTS_IN_ORDER = """
import sys
from treehopf import Forest, antipode, coproduct, enumerate_forests, enumerate_trees
from treehopf.trees import _sort_key
forests = [f for n in range(5) for f in enumerate_forests(n)]
pairs = [(a, b) for a in forests for b in forests]
trees = [t for n in range(1, 8) for t in enumerate_trees(n)]
if sys.argv[1] == "reverse":
    pairs.reverse()
    trees.reverse()
for a, b in pairs:
    product = a * b
    assert product is Forest(a.trees + b.trees) and product is b * a, (a, b)
got = {t: (coproduct(t), antipode(t)) for t in trees}
for a, b in sorted(pairs, key=lambda p: (_sort_key(p[0]), _sort_key(p[1]))):
    print(a.serial, b.serial, (a * b).serial)
for t in sorted(trees):
    print(t.serial, got[t][0], "|", got[t][1])
"""


def test_products_first_built_in_reverse_give_the_same_forests_and_results():
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    texts = []
    for order, hash_seed in (("forward", "0"), ("reverse", "1")):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", _PRODUCTS_IN_ORDER, order],
                              capture_output=True, text=True, env=env, timeout=120, check=True)
        texts.append(proc.stdout)
    # 17 forests of degree at most 4, so 289 pairs, and 85 trees
    assert texts[0].count("\n") == 17 * 17 + 85
    assert texts[0] == texts[1]
