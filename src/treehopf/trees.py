"""Canonical non-planar rooted trees, forests, and admissible cuts.

A tree is stored with its children in canonical order, and every tree
shape and every forest is interned: building one from children (or
trees) in any order returns the single shared instance of that shape,
which lives as long as the process.  Trees are interned on their
canonical children tuple and forests on their canonical tree tuple, so
a lookup builds no string.  A product of two forests is looked up in a
table of interned products, keyed on the two factors and filled on
first use, so a repeated product neither concatenates nor sorts.
Equality and hashing are object identity, which is sound because no two
instances share a shape; hash order is therefore address order and
never reaches output.  Every order that does is the sort key (vertex
count, collated serial), computed once per shape with the
serialization.  The canonical order puts larger subtrees
first; on serializations this is the lexicographic order in which
``]`` sorts before ``[``, which makes the single-vertex tree the
smallest tree of each size class and lists bushy trees before ladders
(fan first, ladder last within a degree).

An admissible cut is a `Cut`, a frozen record.  The record bases here
(`_Record`, `_FrozenRecord`), which `growth` uses too, are `__slots__`
classes that compare, hash, print, copy and pickle as a plain or frozen
`dataclass` would, without importing `dataclasses` and, through it,
`inspect` on every start of the command line.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

__all__ = [
    "RootedTree",
    "Forest",
    "Cut",
    "TreeParseError",
    "LEAF",
    "EMPTY_FOREST",
    "tree_order",
    "canonicalize",
    "enumerate_trees",
    "enumerate_forests",
    "b_plus",
    "b_minus",
    "admissible_cuts",
    "parse_tree",
    "parse_forest",
]

# Version of every JSON document the command line and the verification
# suites emit.  It lives here, in the layer every module imports, so that a
# subcommand can stamp it without loading the layer that does the work.
SCHEMA_VERSION = 1

# Collation used everywhere a deterministic order on serializations is
# needed: identical to ASCII except that ']' compares below '['.
_COLLATE = str.maketrans({"[": "\x01", "]": "\x00"})


def _collate(serial: str) -> str:
    return serial.translate(_COLLATE)


class _ParseError(ValueError):
    """Malformed text; carries the text and the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos


class TreeParseError(_ParseError):
    """Raised on malformed tree, forest, linear-combination or growth text."""


class _Immutable:
    """Instances whose attributes are set once, by `object.__setattr__`, and never again."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


class _Record:
    """A small value class: what a plain `@dataclass` gives, without importing it.

    A subclass lists its fields, in order, as its `__slots__` and sets them
    in its own `__init__`, which takes them positionally in that order.
    Equality holds between instances of one class with equal fields, the
    repr is `Name(field=value, ...)`, and copies and pickles rebuild the
    instance through `__init__`.  A mutable record is unhashable.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return (type(self), self._fields())


class _FrozenRecord(_Immutable, _Record):
    """A `_Record` that is immutable and hashes as the tuple of its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())


class _Interned(_Immutable):
    """Immutability and printing of the interned trees and forests.

    Equality and hashing are inherited from `object`: one instance per shape.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.serial!r})"

    def __str__(self) -> str:
        return self.serial


# Intern tables: every tree by its sorted children, every forest by its sorted trees,
# and every product of two non-empty forests by its (left, right) factors.
_TREES: dict[tuple, "RootedTree"] = {}
_FORESTS: dict[tuple, "Forest"] = {}
_PRODUCTS: dict[tuple["Forest", "Forest"], "Forest"] = {}


class RootedTree(_Interned):
    """A non-planar rooted tree; children are kept in canonical order.

    There is one instance per shape: `RootedTree(children)` returns the
    interned tree whatever the order of `children`.
    """

    __slots__ = ("children", "vertex_count", "serial", "_key")

    def __new__(cls, children=()):
        kids = tuple(children)
        # Every key is a canonical tuple, so a hit needs no sort.
        self = _TREES.get(kids)
        if self is None:
            if len(kids) > 1:
                kids = tuple(sorted(kids, key=_sort_key, reverse=True))
                self = _TREES.get(kids)
            if self is None:
                self = object.__new__(cls)
                object.__setattr__(self, "children", kids)
                self.__post_init__()
                _TREES[kids] = self
        return self

    def __post_init__(self):
        kids = self.children
        object.__setattr__(self, "vertex_count", 1 + sum(c.vertex_count for c in kids))
        object.__setattr__(self, "serial", "[" + "".join([c.serial for c in kids]) + "]")
        object.__setattr__(self, "_key", (self.vertex_count, _collate(self.serial)))

    def __reduce__(self):
        return (RootedTree, (self.children,))

    @property
    def fertility(self) -> int:
        return len(self.children)

    def max_fertility(self) -> int:
        return max([self.fertility] + [c.max_fertility() for c in self.children])

    def __lt__(self, other: "RootedTree") -> bool:
        return self._key < other._key

    def __le__(self, other: "RootedTree") -> bool:
        return self._key <= other._key


# (vertex count, collated serial), cached on each tree.
_sort_key = attrgetter("_key")


class Forest(_Interned):
    """A commutative product (multiset) of rooted trees; may be empty.

    There is one instance per multiset of trees, whatever their order.
    """

    __slots__ = ("trees", "degree", "serial", "_key")

    def __new__(cls, trees=()):
        ts = tuple(trees)
        self = _FORESTS.get(ts)
        if self is None:
            if len(ts) > 1:
                ts = tuple(sorted(ts, key=_sort_key, reverse=True))
                self = _FORESTS.get(ts)
            if self is None:
                self = object.__new__(cls)
                object.__setattr__(self, "trees", ts)
                self.__post_init__()
                _FORESTS[ts] = self
        return self

    def __post_init__(self):
        ts = self.trees
        object.__setattr__(self, "degree", sum(t.vertex_count for t in ts))
        object.__setattr__(self, "serial", "*".join([t.serial for t in ts]) or "1")
        object.__setattr__(self, "_key", (self.degree, _collate(self.serial)))

    def __reduce__(self):
        return (Forest, (self.trees,))

    def is_empty(self) -> bool:
        return not self.trees

    def __mul__(self, other: "Forest") -> "Forest":
        if not other.trees:
            return self
        if not self.trees:
            return other
        # Both factors are interned, so the pair names the product for good.
        product = _PRODUCTS.get((self, other))
        if product is None:
            product = _PRODUCTS[self, other] = Forest(self.trees + other.trees)
        return product

    def sort_key(self):
        """(degree, collated serial), cached on the forest."""
        return self._key


LEAF = RootedTree()
EMPTY_FOREST = Forest()


def tree_order(a: RootedTree, b: RootedTree) -> int:
    """Total order on trees: -1, 0 or 1, by (vertex count, collated serial)."""
    ka, kb = _sort_key(a), _sort_key(b)
    return (ka > kb) - (ka < kb)


def canonicalize(children_lists) -> RootedTree:
    """Build the canonical tree from nested sequences of children.

    Accepts either a RootedTree (already canonical, so returned as is) or
    a nested list/tuple structure where each node is the sequence of its
    children.
    """
    if isinstance(children_lists, RootedTree):
        return children_lists
    return RootedTree(tuple(canonicalize(c) for c in children_lists))


def b_plus(f: Forest) -> RootedTree:
    """Graft every root of the forest onto one new root vertex."""
    return RootedTree(f.trees)


def b_minus(t: RootedTree) -> Forest:
    """Inverse of b_plus: the forest of root subtrees."""
    return Forest(t.children)


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> tuple[RootedTree, ...]:
    """All canonical rooted trees with exactly n vertices, sorted."""
    if n <= 0:
        return ()
    if n == 1:
        return (LEAF,)
    smaller: list[RootedTree] = []
    for k in range(1, n):
        smaller.extend(enumerate_trees(k))
    # Children multisets chosen non-increasing in the canonical order, so
    # each tree with n vertices is produced exactly once.
    smaller.sort(key=_sort_key, reverse=True)
    out = [b_plus(Forest(kids)) for kids in _multisets(smaller, 0, n - 1)]
    out.sort(key=_sort_key)
    return tuple(out)


def _multisets(pool: list[RootedTree], start: int, remaining: int):
    """Non-increasing tuples from pool[start:] with vertex counts summing to remaining."""
    if remaining == 0:
        yield ()
        return
    for i in range(start, len(pool)):
        t = pool[i]
        if t.vertex_count > remaining:
            continue
        for rest in _multisets(pool, i, remaining - t.vertex_count):
            yield (t,) + rest


@lru_cache(maxsize=None)
def enumerate_forests(n: int) -> tuple[Forest, ...]:
    """All canonical forests of total degree n, sorted by forest key."""
    if n < 0:
        return ()
    if n == 0:
        return (EMPTY_FOREST,)
    pool = []
    for k in range(1, n + 1):
        pool.extend(enumerate_trees(k))
    pool.sort(key=_sort_key, reverse=True)
    out = [Forest(ts) for ts in _multisets(pool, 0, n)]
    out.sort(key=lambda f: f.sort_key())
    return tuple(out)


class Cut(_FrozenRecord):
    """An admissible cut: a set of edges given by root-based child-index paths.

    The two trivial cuts carry no usable edge set; `kind` ('empty',
    'proper' or 'full') distinguishes them.  A frozen record: equal and
    hashed by (edges, kind).
    """

    __slots__ = ("edges", "kind")

    def __init__(self, edges: frozenset[tuple[int, ...]], kind: str):
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "kind", kind)


def admissible_cuts(t: RootedTree) -> list[tuple[Cut, Forest, Forest]]:
    """All admissible cuts of t as (cut, pruned forest, root part).

    The empty cut comes first, proper cuts follow in a deterministic
    recursive order, and the full cut is last.  For every proper cut the
    root part is the single tree containing the original root.
    """
    options = _cut_options(t, ())
    out: list[tuple[Cut, Forest, Forest]] = []
    out.append((Cut(frozenset(), "empty"), EMPTY_FOREST, Forest((t,))))
    for edges, pruned, kept in options:
        if edges:
            out.append((Cut(frozenset(edges), "proper"), Forest(tuple(pruned)), Forest((kept,))))
    out.append((Cut(frozenset(), "full"), Forest((t,)), EMPTY_FOREST))
    return out


def _cut_options(t: RootedTree, path: tuple[int, ...]):
    """Enumerate all edge subsets meeting each root-leaf path at most once.

    Yields (edges, pruned trees, surviving subtree rooted at t's root);
    includes the empty selection.
    """
    per_child = []
    for i, c in enumerate(t.children):
        edge = path + (i,)
        # Either keep the child (recursing into it) or cut the edge above
        # it, which prunes the whole subtree.
        choices = list(_cut_options(c, edge))
        choices.append((frozenset({edge}), (c,), None))
        per_child.append(choices)
    for combo in itertools.product(*per_child):
        edges: frozenset[tuple[int, ...]] = frozenset()
        pruned: tuple[RootedTree, ...] = ()
        kept_children: list[RootedTree] = []
        for sub_edges, sub_pruned, sub_kept in combo:
            edges |= sub_edges
            pruned += tuple(sub_pruned)
            if sub_kept is not None:
                kept_children.append(sub_kept)
        yield edges, pruned, RootedTree(tuple(kept_children))


def parse_tree(text: str) -> RootedTree:
    """Parse a tree in the bracket grammar; children may appear in any order."""
    tree, pos = _parse_tree_at(text, _skip_ws(text, 0))
    _expect_end(text, pos, "trailing input after tree")
    return tree


def parse_forest(text: str) -> Forest:
    """Parse a forest: `1` or trees joined by `*`."""
    forest, pos = _forest_at(text, _skip_ws(text, 0))
    _expect_end(text, pos, "trailing input after empty forest" if forest is EMPTY_FOREST
                else "trailing input after forest")
    return forest


# The scanner every text parser shares.  Each helper reads `text` at `pos` and
# returns what it read with the next position, or raises at the offending one.


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _expect(text: str, pos: int, char: str) -> int:
    if not text.startswith(char, pos):
        raise TreeParseError(f"expected {char!r}", text, pos)
    return pos + 1


def _expect_end(text: str, pos: int, message: str) -> None:
    """Only whitespace may follow pos; `message` names what came before."""
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise TreeParseError(message, text, pos)


def _sign_at(text: str, pos: int, required: bool = False) -> tuple[int, int]:
    """1 for `+`, -1 for `-`, and 1 for no sign unless one is `required` between terms."""
    if text.startswith(("+", "-"), pos):
        return (1 if text[pos] == "+" else -1), _skip_ws(text, pos + 1)
    if required:
        raise TreeParseError("expected '+' or '-'", text, pos)
    return 1, pos


def _digits_end(text: str, pos: int, slash: bool = False) -> int:
    while pos < len(text) and (text[pos].isdigit() or slash and text[pos] == "/"):
        pos += 1
    return pos


def _rational_at(text: str, pos: int, error: type[_ParseError], message: str):
    """A literal `p` or `p/q` as a Fraction, 1 if there is none; `error(message)` if malformed."""
    end = _digits_end(text, pos, slash=True)
    if end == pos:
        return Fraction(1), pos
    try:
        return Fraction(text[pos:end]), end
    except (ValueError, ZeroDivisionError):
        raise error(message, text, pos) from None


def _forest_at(text: str, pos: int) -> tuple[Forest, int]:
    """`1`, or trees joined by `*`; stops before trailing whitespace."""
    if text.startswith("1", pos):
        return EMPTY_FOREST, pos + 1
    trees = []
    while True:
        tree, pos = _parse_tree_at(text, pos)
        trees.append(tree)
        star = _skip_ws(text, pos)
        if not text.startswith("*", star):
            return Forest(tuple(trees)), pos
        pos = _skip_ws(text, star + 1)


def _parse_tree_at(text: str, pos: int) -> tuple[RootedTree, int]:
    pos = _skip_ws(text, _expect(text, pos, "["))
    children = []
    while text.startswith("[", pos):
        child, pos = _parse_tree_at(text, pos)
        children.append(child)
        pos = _skip_ws(text, pos)
    pos = _expect(text, pos, "]")
    return RootedTree(tuple(children)), pos
