"""The Hopf algebra of rooted trees over exact rationals.

Elements are finite rational linear combinations of forests (LinComb) or
of forest pairs (Tensor2), two subclasses of one free module over a
hashable basis.  The free module holds the terms, the module operations,
equality, printing and the linear extension `linear(x, fn)` of a map from
basis elements; each subclass adds its basis product, its term order and
its term texts, for `trees._signed_sum`.  Coefficients are exact: an `int`
when whole and a `Fraction` otherwise.  The coproduct of a tree, the sum over its
admissible cuts, is built from the 1-cocycle identity
Delta(B+ F) = B+ F (x) 1 + (id (x) B+) Delta(F), smaller trees first,
with a per-shape memo.  A tree t = B+(F' c^m), whose last class of equal
root children is m copies of c, is built from its trunk T = B+(F'): the
proper terms c1 (P | B+ R) of the memoised Delta(T) are multiplied once
by Delta(c^m), each term to c1 c2 (P P2 | B+(R R2)), so Delta of t's
children forest is never built.  When every root child is alike (fans,
ladders) the trunk is the leaf, and the sum is Delta(c^m) with B+ on its
right legs.  On a forest the coproduct is the product over its trees,
`_over_trees`, which `frame` runs for gamma_F too.  The antipode reads the
grouped terms c (P | R) of that coproduct and recurses on the pruned part,
S(t) = -t - sum of c S(P) R over the proper cuts, the form Connes and
Kreimer give; S is kept once per interned forest, of one tree or of
several, where S(F) is the product over its trees, so the pruned forests
that many cuts share are multiplied out once.  Natural growth N_t grafts a
copy of t onto every vertex of its argument, with N_t(s) kept once per pair
(t, s) of interned trees.  The three memos are keyed by interned trees and
forests, which live as long as the process, so none needs a bound.  Delta,
S, N_t and the grading Y reach a tree, forest or combination through one
hand-out rule, `_handed_out`: a copy of a memoised element, never its
terms, which `frame` and `verify` read in place through `_coproduct`.
The structural maps live on the interned objects themselves (see
`trees`): the loops read a tree's one-tree forest `t.forest` and children
forest `t.b_minus`, a forest's B+ tree `f.b_plus`, and the product table
of the left factor in both `__mul__` loops, of both legs in the trunk
product, and of the one-tree root part R in the antipode, instead of
rebuilding any of them; the trunk loop reads the slots `_b_plus` and `_forest`
of each right leg B+(R R2), calling the property only while a slot is empty.
Delta and S have nonzero int coefficients, so neither loop calls `_norm`.
Terms are kept in dicts keyed by interned forests, which hash by
identity; every printed order is a sort, on `trees._sort_key` or on the serials.

On products of trees N_t acts as a derivation,
N_t(uv) = N_t(u) v + u N_t(v), which is the extension consistent with
grafting-at-every-vertex, with the coproduct formula for N_t, and with
N = d/ds on the Butcher side.
"""

from __future__ import annotations

from fractions import Fraction

from .trees import (
    EMPTY_FOREST,
    LEAF,
    Forest,
    RootedTree,
    TreeParseError,
    _forest_at,
    _rational_at,
    _sign_at,
    _signed_sum,
    _skip_ws,
    _sort_key,
    b_plus,
)

__all__ = [
    "LinComb",
    "Tensor2",
    "multiply",
    "coproduct",
    "counit",
    "antipode",
    "grading_Y",
    "natural_growth",
    "delta_k",
    "ntcoprod_identity",
    "nbrel_identity",
    "parse_lincomb",
]


def _norm(c):
    """An exact rational as an int when it is whole, as a Fraction otherwise."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _acc(out: dict, key, c) -> None:
    """Add c to out[key] in place, dropping the key when the sum cancels."""
    s = out.get(key, 0) + c
    if s:
        out[key] = s if type(s) is int else _norm(s)
    else:
        out.pop(key, None)


def _as_forest(x) -> Forest:
    if isinstance(x, RootedTree):
        return x.forest
    if isinstance(x, Forest):
        return x
    raise TypeError(f"expected tree or forest, got {type(x).__name__}")


class _FreeModule:
    """A finite rational linear combination over a hashable basis.

    Terms are one dict from basis element to nonzero coefficient.  The
    constructor accumulates (basis, coeff) pairs; `linear` extends a map
    from basis elements to elements of a free module linearly.  Equal
    elements have the same class and the same terms.  A subclass that is
    printed gives `_term_texts`: (coefficient, text with magnitude) pairs, in order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict = {}
        if terms:
            for b, coeff in (terms.items() if isinstance(terms, dict) else terms):
                _acc(clean, b, _norm(coeff))
        self.terms = clean

    @classmethod
    def _raw(cls, terms: dict):
        """Internal constructor: terms must already be normalized."""
        res = cls.__new__(cls)
        res.terms = terms
        return res

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def linear(cls, x, fn):
        """Sum of c * fn(b) over the terms c * b of x, as an element of cls."""
        out: dict = {}
        for b, c in x.terms.items():
            for g, d in fn(b).terms.items():
                _acc(out, g, c * d)
        return cls._raw(out)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for b, c in other.terms.items():
            _acc(out, b, c)
        return self._raw(out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _norm(c)
        return self._raw({b: _norm(c * v) for b, v in self.terms.items()} if c else {})

    def __str__(self) -> str:
        return _signed_sum(self._term_texts())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class LinComb(_FreeModule):
    """A finite rational linear combination of forests."""

    __slots__ = ()

    @staticmethod
    def unit() -> "LinComb":
        return LinComb._raw({EMPTY_FOREST: 1})

    @staticmethod
    def of(x, coeff=1) -> "LinComb":
        c = _norm(coeff)
        return LinComb._raw({_as_forest(x): c} if c else {})

    def __mul__(self, other: "LinComb") -> "LinComb":
        out: dict[Forest, int | Fraction] = {}
        for f1, c1 in self.terms.items():
            # The product table of f1, read here without a call per term.
            products = f1._products
            for f2, c2 in other.terms.items():
                _acc(out, products.get(f2) or f1 * f2, c1 * c2)
        return LinComb._raw(out)

    def degrees(self) -> set[int]:
        return {f.degree for f in self.terms}

    def homogeneous_degree(self) -> int | None:
        degs = self.degrees()
        return degs.pop() if len(degs) == 1 else None

    def sorted_terms(self) -> list[tuple[Forest, int | Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))

    def _term_texts(self) -> list[tuple[int | Fraction, str]]:
        return [(c, f"{abs(c)} {f.serial}") for f, c in self.sorted_terms()]


class Tensor2(_FreeModule):
    """A finite rational linear combination of forest (x) forest pairs."""

    __slots__ = ()

    @staticmethod
    def of(left, right, coeff=1) -> "Tensor2":
        c = _norm(coeff)
        return Tensor2._raw({(_as_forest(left), _as_forest(right)): c} if c else {})

    @staticmethod
    def tensor(a: LinComb, b: LinComb) -> "Tensor2":
        """The tensor product a (x) b."""
        return Tensor2._raw({(fl, fr): _norm(cl * cr)
                             for fl, cl in a.terms.items() for fr, cr in b.terms.items()})

    def __mul__(self, other: "Tensor2") -> "Tensor2":
        out: dict[tuple[Forest, Forest], int | Fraction] = {}
        for (l1, r1), c1 in self.terms.items():
            # The product tables of both legs of the left term, read without a
            # call per term.
            lp, rp = l1._products, r1._products
            for (l2, r2), c2 in other.terms.items():
                _acc(out, (lp.get(l2) or l1 * l2, rp.get(r2) or r1 * r2), c1 * c2)
        return Tensor2._raw(out)

    def map_legs(self, left_fn=None, right_fn=None) -> "Tensor2":
        """Apply Forest -> LinComb maps to the legs, bilinearly."""
        lf, rf = left_fn or LinComb.of, right_fn or LinComb.of
        return Tensor2.linear(self, lambda p: Tensor2.tensor(lf(p[0]), rf(p[1])))

    def sorted_terms(self) -> list[tuple[tuple[Forest, Forest], int | Fraction]]:
        # Plain-ASCII order on the right serialization puts the full-cut
        # leg `1` first; ties break on the left serialization.
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1].serial, kv[0][0].serial))

    def _term_texts(self) -> list[tuple[int | Fraction, str]]:
        return [(c, f"{abs(c)} ({fl.serial} | {fr.serial})") for (fl, fr), c in self.sorted_terms()]


def multiply(a: LinComb, b: LinComb) -> LinComb:
    """Product of H_rt: bilinear extension of disjoint union of forests."""
    return a * b


_coproduct_memo: dict[RootedTree, Tensor2] = {}


def _peel(t: RootedTree) -> tuple:
    """(T, c, m) with t = B+(F' c^m), c^m its last class of equal root children.

    T = B+(F') is the trunk of t, the leaf when every root child is alike;
    the leaf itself has none, and gives ().
    """
    kids = t.children
    if not kids:
        return ()
    c = kids[-1]
    k = len(kids) - 1
    while k and kids[k - 1] is c:
        k -= 1
    return RootedTree(kids[:k]), c, len(kids) - k


def _coproduct_tree(t: RootedTree) -> Tensor2:
    """Delta(t) from the 1-cocycle identity Delta(B+ F) = B+ F (x) 1 + (id (x) B+) Delta(F).

    For t = B+(F' c^m) with trunk T = B+(F'), (id (x) B+) Delta(F') is
    Delta(T) less its term T (x) 1, so Delta(t) is t (x) 1 plus the sum of
    c1 c2 (P P2 | B+(R R2)) over the proper terms c1 (P | B+ R) of the
    memoised Delta(T) and the terms c2 (P2 | R2) of Delta(c^m), which is
    built and dropped.  When every root child is alike, T is the leaf, whose
    one proper term is (1 | B+ 1).  Builds every not-yet-memoised trunk and
    child that t needs, smaller before larger, from an explicit stack, so
    the depth of t costs no recursion.
    """
    got = _coproduct_memo.get(t)
    if got is not None:
        return got
    todo = {t: _peel(t)}
    stack = [t]
    while stack:
        for s in todo[stack.pop()][:2]:
            if s not in todo and s not in _coproduct_memo:
                todo[s] = _peel(s)
                stack.append(s)
    # A trunk or child of s has fewer vertices than s, so it sorts first.
    for s in sorted(todo, key=_sort_key):
        out: dict[tuple[Forest, Forest], int] = {(s.forest, EMPTY_FOREST): 1}
        if s is LEAF:
            out[EMPTY_FOREST, s.forest] = 1
        else:
            trunk, c, m = todo[s]
            tail = _coproduct_forest(Forest((c,) * m)).terms.items()
            for (left, right), c1 in _coproduct_memo[trunk].terms.items():
                if not right.trees:
                    continue
                # The product tables of P and R and the slots of B+(R R2), read
                # without a call per term; an empty slot falls back to its property.
                # Coproduct coefficients are positive ints: no sum cancels or needs `_norm`.
                rest = right.trees[0].b_minus
                lp, rp = left._products, rest._products
                for (l2, r2), c2 in tail:
                    grown = rp.get(r2) or rest * r2
                    grown = grown._b_plus or grown.b_plus
                    key = lp.get(l2) or left * l2, grown._forest or grown.forest
                    out[key] = out.get(key, 0) + c1 * c2
        _coproduct_memo[s] = Tensor2._raw(out)
    return _coproduct_memo[t]


def _over_trees(f: Forest, fn, unit):
    """fn(t1) * fn(t2) * ... over the trees of f; fn's own for one tree, unit() for none."""
    trees = f.trees
    if not trees:
        return unit()
    out = fn(trees[0])
    for t in trees[1:]:
        out = out * fn(t)
    return out


def _coproduct_forest(f: Forest) -> Tensor2:
    """Delta(f); for a one-tree forest, the memo's own element."""
    return _over_trees(f, _coproduct_tree, lambda: Tensor2.of(EMPTY_FOREST, EMPTY_FOREST))


def _coproduct(x: LinComb | Forest | RootedTree) -> Tensor2:
    """Delta(x) to read and not to keep: of one tree, the memo's own element."""
    if isinstance(x, (RootedTree, Forest)):
        return _coproduct_forest(_as_forest(x))
    return Tensor2.linear(x, _coproduct_forest)


def _handed_out(cls, x: LinComb | Forest | RootedTree, fn):
    """fn extended to x as a fresh element of cls, never a memo's own terms.

    fn maps a forest to an element of cls, which may be a memo's; a tree or
    forest gets a copy of its terms, a combination `cls.linear`'s fresh dict.
    """
    if isinstance(x, (RootedTree, Forest)):
        return cls._raw(dict(fn(_as_forest(x)).terms))
    return cls.linear(x, fn)


def coproduct(x: LinComb | Forest | RootedTree) -> Tensor2:
    """Coproduct: sum of P_c (x) R_c over admissible cuts, multiplicative on forests."""
    return _handed_out(Tensor2, x, _coproduct_forest)


def counit(x: LinComb) -> int | Fraction:
    """Coefficient of the empty forest."""
    return x.terms.get(EMPTY_FOREST, 0)


_antipode_memo: dict[Forest, LinComb] = {}


def _antipode_tree(t: RootedTree) -> LinComb:
    """S(t) = -t - sum of c S(P) R over the proper-cut terms c (P | R) of Delta(t)."""
    out: dict[Forest, int] = {t.forest: -1}
    for (pruned, root_part), c in _coproduct_tree(t).terms.items():
        if not (pruned.trees and root_part.trees):
            continue
        # The product table of the one-tree root part, read without a call
        # per term.  Delta and S have nonzero int coefficients: a sum needs no
        # `_norm`, and one that cancels is deleted.
        products = root_part._products
        for f, d in _antipode_forest(pruned).terms.items():
            key = products.get(f) or root_part * f
            s = out.get(key, 0) - c * d
            if s:
                out[key] = s
            else:
                del out[key]
    return LinComb._raw(out)


def _antipode_forest(f: Forest) -> LinComb:
    """S(f), the memo's own element, kept once per interned forest."""
    cached = _antipode_memo.get(f)
    if cached is None:
        trees = f.trees
        cached = _antipode_memo[f] = (
            _antipode_tree(trees[0]) if len(trees) == 1
            else _over_trees(f, lambda t: _antipode_forest(t.forest), LinComb.unit))
    return cached


def antipode(x: LinComb | Forest | RootedTree) -> LinComb:
    """Antipode: S(t) = -t - sum over proper cuts of S(P_c(t)) R_c(t)."""
    return _handed_out(LinComb, x, _antipode_forest)


def grading_Y(x: LinComb | Forest | RootedTree) -> LinComb:
    """Grading operator: each forest scaled by its total vertex count."""
    return _handed_out(LinComb, x, lambda f: LinComb.of(f, f.degree))


_graft_memo: dict[tuple[RootedTree, RootedTree], LinComb] = {}


def _graft_everywhere(t: RootedTree, s: RootedTree) -> LinComb:
    """Sum of trees obtained by attaching t's root to each vertex of s, memoised per (t, s)."""
    cached = _graft_memo.get((t, s))
    if cached is not None:
        return cached
    out: dict[Forest, int | Fraction] = {RootedTree(s.children + (t,)).forest: 1}
    for i, child in enumerate(s.children):
        grown = _graft_everywhere(t, child)
        for f, c in grown.terms.items():
            new_kids = s.children[:i] + (f.trees[0],) + s.children[i + 1:]
            _acc(out, RootedTree(new_kids).forest, c)
    res = _graft_memo[t, s] = LinComb._raw(out)
    return res


def natural_growth(t: RootedTree, x: LinComb | Forest | RootedTree) -> LinComb:
    """Generalized natural growth N_t; a derivation on products of trees."""

    def on_forest(f: Forest) -> LinComb:
        if len(f.trees) == 1:
            return _graft_everywhere(t, f.trees[0])
        return LinComb((g * rest, c) for i, s in enumerate(f.trees)
                       for rest in (Forest(f.trees[:i] + f.trees[i + 1:]),)
                       for g, c in _graft_everywhere(t, s).terms.items())

    return _handed_out(LinComb, x, on_forest)


def delta_k(k: int) -> LinComb:
    """Connes-Moscovici generators: delta_1 = the single vertex, delta_{k+1} = N(delta_k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    out = LinComb.of(LEAF)
    for _ in range(k - 1):
        out = natural_growth(LEAF, out)
    return out


def _grow_or_grade(r: Forest):
    """N over a root part: N_{R_c} for a tree, the grading Y for the empty forest."""
    if r.is_empty():
        return grading_Y
    tree = r.trees[0]
    return lambda x: natural_growth(tree, x)


def ntcoprod_identity(t: RootedTree, s: RootedTree) -> bool:
    """Check the coproduct formula for N_t on s.

    Delta(N_t(s)) = (N_t (x) id) Delta(s)
                    + sum over the terms c (P | R) of Delta(t) of
                      c (P . (x) N_R) Delta(s),
    where the full cut, R = 1, contributes multiplication by t on the left
    leg and the grading operator on the right leg.
    """
    lhs = coproduct(natural_growth(t, LinComb.of(s)))
    ds = coproduct(LinComb.of(s))
    rhs = ds.map_legs(left_fn=lambda f: natural_growth(t, LinComb.of(f)))
    for (pruned, root_part), c in _coproduct_tree(t).terms.items():
        grow = _grow_or_grade(root_part)
        rhs = rhs + ds.map_legs(
            left_fn=lambda f, p=pruned, c=c: LinComb.of(p * f, c),
            right_fn=lambda f, g=grow: g(LinComb.of(f)),
        )
    return lhs == rhs


def nbrel_identity(t0: RootedTree, parts: Forest) -> bool:
    """Check N_{t0}(B_+(parts)) = B_+(t0 parts) + sum_i B_+(parts with part_i grown)."""
    host = b_plus(parts)
    lhs = natural_growth(t0, LinComb.of(host))
    rhs = LinComb.of(b_plus(Forest(parts.trees + (t0,))))
    for i, part in enumerate(parts.trees):
        rest = parts.trees[:i] + parts.trees[i + 1:]
        grown = natural_growth(t0, LinComb.of(part))
        rhs = rhs + LinComb.linear(grown * LinComb.of(Forest(rest)),
                                   lambda f: LinComb.of(b_plus(f)))
    return lhs == rhs


def parse_lincomb(text: str) -> LinComb:
    """Parse `c1 F1 + c2 F2 + ...`; coefficients are optional and default to 1."""
    pos = _skip_ws(text, 0)
    if pos == len(text):
        raise TreeParseError("empty expression", text, pos)
    if text.strip() == "0":
        return LinComb.zero()
    out: dict[Forest, int | Fraction] = {}
    sign, pos = _sign_at(text, pos)
    while True:
        coeff, end = _rational_at(text, pos, TreeParseError, "malformed rational coefficient")
        rest = _skip_ws(text, end)
        # A bare `1` at the end or before a sign is the empty forest.
        if text[pos:end] != "1" or rest < len(text) and text[rest] not in "+-":
            pos = rest
        forest, pos = _forest_at(text, pos)
        _acc(out, forest, sign * coeff)
        pos = _skip_ws(text, pos)
        if pos == len(text):
            return LinComb._raw(out)
        if not text.startswith(("+", "-"), pos):
            raise TreeParseError("expected '+' or '-'", text, pos)
        sign, pos = _sign_at(text, pos)
