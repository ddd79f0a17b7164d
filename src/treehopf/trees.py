"""Canonical non-planar rooted trees, forests, and admissible cuts.

A tree is stored with its children in canonical order, and every tree
shape and every forest is interned: building one from children (or
trees) in any order returns the single shared instance of that shape,
which lives as long as the process.  One routine, `_intern`, interns trees
on their canonical children tuple and forests on their canonical tree
tuple, so a lookup builds no string.  Each interned object also keeps the
structural maps the Hopf layer asks of it, each filled on first use: a
tree keeps its one-tree forest (`forest`) and the forest of its root
children (`b_minus`), and a forest keeps its B+ tree (`b_plus`) and its
own product table, keyed by the other factor, so
a repeated product neither concatenates nor sorts; the Hopf layer's
`__mul__` loops read the left factor's table directly, and the antipode
that of each one-tree root part, and call `*` only on a miss.  Filling
`b_minus` or `b_plus` fills the other's slot too, so a round trip between
a tree and its children forest interns once.
Equality and hashing are object identity, which is sound because no two
instances share a shape; hash order is therefore address order and
never reaches output.  Every order that does is the one sort key,
`_sort_key`, which reads (vertex count, collated serial), computed once
per shape with the serialization.  The canonical order puts larger subtrees
first; on serializations this is the lexicographic order in which
``]`` sorts before ``[``, which makes the single-vertex tree the
smallest tree of each size class and lists bushy trees before ladders
(fan first, ladder last within a degree).

An admissible cut is a `Cut`, a frozen record; `admissible_cuts`, their
public enumeration and the tests' brute-force oracle, has no caller in
the package, whose sums over cuts read the memoised coproduct.  The record
bases here (`_Record`, `_FrozenRecord`), which `growth` uses too, are
`__slots__` classes that compare, hash, print, copy and pickle as a plain
or frozen `dataclass` would, without importing `dataclasses` and, through it,
`inspect` on every start of the command line.  The scanner every text parser
shares is here, and `_signed_sum`, the writer of every printed signed sum.
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


# Intern tables: every tree by its sorted children, every forest by its sorted trees.
_TREES: dict[tuple, "RootedTree"] = {}
_FORESTS: dict[tuple, "Forest"] = {}


def _intern(cls, table: dict, field: str, items):
    """The one instance of cls whose `field` is the canonical tuple of items, from
    table: a canonical key hits with no sort, and a miss runs `__post_init__`."""
    items = tuple(items)
    self = table.get(items)
    if self is None:
        if len(items) > 1:
            items = tuple(sorted(items, key=_sort_key, reverse=True))
            self = table.get(items)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, field, items)
            self.__post_init__()
            table[items] = self
    return self


class RootedTree(_Interned):
    """A non-planar rooted tree; children are kept in canonical order.

    There is one instance per shape: `RootedTree(children)` returns the
    interned tree whatever the order of `children`.  The tree keeps its
    one-tree forest, `forest`, and the forest of its root children,
    `b_minus`, each built on first read.
    """

    __slots__ = ("children", "vertex_count", "serial", "_key", "_forest", "_b_minus")

    def __new__(cls, children=()):
        return _intern(cls, _TREES, "children", children)

    def __post_init__(self):
        kids = self.children
        object.__setattr__(self, "vertex_count", 1 + sum(c.vertex_count for c in kids))
        object.__setattr__(self, "serial", "[" + "".join([c.serial for c in kids]) + "]")
        object.__setattr__(self, "_key", (self.vertex_count, _collate(self.serial)))
        object.__setattr__(self, "_forest", None)
        object.__setattr__(self, "_b_minus", None)

    @property
    def forest(self) -> "Forest":
        """The forest whose one tree is this one."""
        forest = self._forest
        if forest is None:
            forest = Forest((self,))
            object.__setattr__(self, "_forest", forest)
        return forest

    @property
    def b_minus(self) -> "Forest":
        """The forest of this tree's root children; it keeps this tree as its `b_plus`."""
        forest = self._b_minus
        if forest is None:
            # The canonical children tuple is the canonical tree tuple.
            forest = Forest(self.children)
            object.__setattr__(self, "_b_minus", forest)
            object.__setattr__(forest, "_b_plus", self)
        return forest

    def __reduce__(self):
        return (RootedTree, (self.children,))

    @property
    def fertility(self) -> int:
        return len(self.children)

    def max_fertility(self) -> int:
        """The most children of any vertex, from an explicit stack, so depth costs no recursion."""
        best, stack = 0, [self]
        while stack:
            kids = stack.pop().children
            best = max(best, len(kids))
            stack.extend(kids)
        return best

    def __lt__(self, other: "RootedTree") -> bool:
        return self._key < other._key

    def __le__(self, other: "RootedTree") -> bool:
        return self._key <= other._key


# (vertex count, collated serial), cached on each tree and forest.
_sort_key = attrgetter("_key")


class Forest(_Interned):
    """A commutative product (multiset) of rooted trees; may be empty.

    There is one instance per multiset of trees, whatever their order.
    The forest keeps its B+ tree, `b_plus`, built on first read, and its
    own product table, `_products`, which maps each other factor to the
    product and is filled by `*`.  The `__mul__` loops of `LinComb` and
    `Tensor2` read the left factor's table directly, and the antipode that
    of the one-tree root part of each cut.
    """

    __slots__ = ("trees", "degree", "serial", "_key", "_products", "_b_plus")

    def __new__(cls, trees=()):
        return _intern(cls, _FORESTS, "trees", trees)

    def __post_init__(self):
        ts = self.trees
        object.__setattr__(self, "degree", sum(t.vertex_count for t in ts))
        object.__setattr__(self, "serial", "*".join([t.serial for t in ts]) or "1")
        object.__setattr__(self, "_key", (self.degree, _collate(self.serial)))
        object.__setattr__(self, "_products", {})
        object.__setattr__(self, "_b_plus", None)

    @property
    def b_plus(self) -> RootedTree:
        """The tree whose root children are these trees; it keeps this forest as its `b_minus`."""
        tree = self._b_plus
        if tree is None:
            # The canonical tree tuple is the canonical children tuple.
            tree = RootedTree(self.trees)
            object.__setattr__(self, "_b_plus", tree)
            object.__setattr__(tree, "_b_minus", self)
        return tree

    def __reduce__(self):
        return (Forest, (self.trees,))

    def is_empty(self) -> bool:
        return not self.trees

    def __mul__(self, other: "Forest") -> "Forest":
        # Both factors are interned, so the other factor names the product
        # for good.  A product with the empty forest interns to the other
        # factor.
        product = self._products.get(other)
        if product is None:
            product = self._products[other] = Forest(self.trees + other.trees)
        return product


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
    """Graft every root of the forest onto one new root vertex; kept on the forest."""
    return f.b_plus


def b_minus(t: RootedTree) -> Forest:
    """Inverse of b_plus: the forest of root subtrees; kept on the tree."""
    return t.b_minus


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
    # each tree with n vertices is produced exactly once.  No forest is
    # built: a caller that needs one gets it through `forest` or `b_minus`.
    smaller.sort(key=_sort_key, reverse=True)
    out = [RootedTree(kids) for kids in _multisets(smaller, 0, n - 1)]
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
    out.sort(key=_sort_key)
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
    out.append((Cut(frozenset(), "empty"), EMPTY_FOREST, t.forest))
    for edges, pruned, kept in options:
        if edges:
            out.append((Cut(frozenset(edges), "proper"), Forest(tuple(pruned)), kept.forest))
    out.append((Cut(frozenset(), "full"), t.forest, EMPTY_FOREST))
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


def _sign_at(text: str, pos: int) -> tuple[int, int]:
    """1 for `+`, -1 for `-`, and 1 for no sign."""
    if text.startswith(("+", "-"), pos):
        return (1 if text[pos] == "+" else -1), _skip_ws(text, pos + 1)
    return 1, pos


def _signed_sum(terms) -> str:
    """`a - b + c` from (coefficient, term text) pairs: `+ ` before a positive
    coefficient, `- ` before any other, no leading `+ `, and `0` for no pairs."""
    text = " ".join([f"+ {t}" if c > 0 else f"- {t}" for c, t in terms])
    return text[2:] if text.startswith("+") else text or "0"


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
