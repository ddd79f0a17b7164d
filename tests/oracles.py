"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's recursions: trees come from level
sequences, cuts from raw subset filtering on explicit edge lists, and
the coproduct and the antipode are assembled directly from edge subsets,
and natural growth attaches its tree at each vertex path in turn.  The
tree factorial gives the closed-form flow characters that Δ and S must
respect at every size.  The
products of `LinComb` and `Tensor2` build each product forest from the
concatenated trees and sum in Fraction.  `in_span` (one `Span` over the
rows) and `series_power` (a row of a series' power table) are wrappers
that only the tests use, and `Counted` is an int that counts the products
it takes part in, to bound the cost of a kernel.
Span tests rerun a Fraction row reduction for every candidate row, and
the closure check re-solves span (x) span by it for every coproduct
component.  The univariate jet oracles multiply dicts of Fractions term
by term, compose by summing successive powers, and invert by repeated
composition.  The sparse oracles add, scale, differentiate, compare and
multiply series in any number of variables as dicts of Fractions, term
by term.  Frame functions keep one series per power of y, and are
compared by a walk over those series.  The monomial product is built
afresh on every call, and the coproduct sides of the frame model take one
such product per coproduct term or cut.  The cut of a frame function
and both negations are kept as the loops they were, and the vertex symbol
as its two parts written out at each use.  The grafting contraction
differentiates the target afresh for every index tuple, and the growth
lemma takes the flow derivative of phi(t) through it; the pushforward
product formula also differentiates and lifts its target, and builds every
branch operator, afresh for each index tuple in (0, 1)^m, and the cut
expansion of the transferred operator lifts once per admissible cut.  The text
parsers are kept as they were before they shared one scanner, the three
printers of signed sums as they were before they shared one writer, and the six
value classes of `trees` and `growth` as the dataclasses they were, each
name prefixed `Dataclass`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from treehopf import (LEAF, Forest, LinComb, MultiSeries, RootedTree, Tensor2, TruncationError,
                      coproduct, elementary_differential, elementary_differential_lincomb,
                      natural_growth)
from treehopf.growth import GrowthApply, GrowthCombo, GrowthLeaf
from treehopf.hopf import _acc
from treehopf.linalg import Span, solve_consistent
from treehopf.series import SeriesParseError, _min_trunc
from treehopf.trees import EMPTY_FOREST, TreeParseError, _sort_key


def level_sequences(n: int):
    """All level sequences of length n (every planar rooted tree shape)."""
    if n == 0:
        return
    seq = [1]

    def extend():
        if len(seq) == n:
            yield tuple(seq)
            return
        for nxt in range(2, seq[-1] + 2):
            seq.append(nxt)
            yield from extend()
            seq.pop()

    yield from extend()


def canonical_level_sequences(n: int):
    """One level sequence per rooted tree with n vertices (Beyer-Hedetniemi).

    Starts from the path 1, 2, ..., n and steps to the next canonical
    sequence in decreasing lexicographic order: p is the last position
    with level above 2, q the last position before p one level up (the
    parent of p), and from p on the sequence repeats the block from q.
    Ends at the star 1, 2, ..., 2.
    """
    if n == 0:
        return
    seq = list(range(1, n + 1))
    while True:
        yield tuple(seq)
        p = max((i for i in range(n) if seq[i] > 2), default=None)
        if p is None:
            return
        q = max(i for i in range(p) if seq[i] == seq[p] - 1)
        for i in range(p, n):
            seq[i] = seq[i - (p - q)]


def tree_from_levels(levels) -> RootedTree:
    """Parse a level sequence into a canonical tree."""
    stack: list[list] = [[]]
    for lvl in levels[1:]:
        while len(stack) >= lvl:
            kids = stack.pop()
            stack[-1].append(kids)
        stack.append([])
    while len(stack) > 1:
        kids = stack.pop()
        stack[-1].append(kids)

    def build(kids) -> RootedTree:
        return RootedTree(tuple(build(k) for k in kids))

    return build(stack[0])


def all_trees_by_levels(n: int) -> set[RootedTree]:
    """Distinct canonical trees with n vertices, via level sequences."""
    return {tree_from_levels(seq) for seq in level_sequences(n)}


def edge_list(t: RootedTree, path=()):
    """Edges as (path-to-parent, child-index) pairs, i.e. paths to children."""
    for i, c in enumerate(t.children):
        yield path + (i,)
        yield from edge_list(c, path + (i,))


def path_to_leaves(t: RootedTree, path=()):
    """Root-to-leaf paths as sequences of edge identifiers."""
    if not t.children:
        yield ()
    for i, c in enumerate(t.children):
        edge = path + (i,)
        for rest in path_to_leaves(c, edge):
            yield (edge,) + rest


def brute_force_proper_cuts(t: RootedTree):
    """Non-empty edge subsets meeting each root-leaf path at most once."""
    edges = list(edge_list(t))
    leaf_paths = list(path_to_leaves(t))
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            chosen = set(combo)
            if all(sum(1 for e in p if e in chosen) <= 1 for p in leaf_paths):
                yield chosen


def subtree_at(t: RootedTree, path) -> RootedTree:
    for i in path:
        t = t.children[i]
    return t


def remove_edges(t: RootedTree, cut: set, path=()) -> RootedTree:
    """The root component after deleting the cut edges."""
    kids = []
    for i, c in enumerate(t.children):
        edge = path + (i,)
        if edge in cut:
            continue
        kids.append(remove_edges(c, cut, edge))
    return RootedTree(tuple(kids))


def attach_at(s: RootedTree, path, t: RootedTree) -> RootedTree:
    """s with t's root attached as a new child of the vertex at path."""
    if not path:
        return RootedTree(s.children + (t,))
    i = path[0]
    return RootedTree(s.children[:i] + (attach_at(s.children[i], path[1:], t),)
                      + s.children[i + 1:])


def brute_force_natural_growth(t: RootedTree, s: RootedTree) -> LinComb:
    """N_t(s): one tree per vertex of s, the root and the end of every edge."""
    out = LinComb.zero()
    for path in [()] + list(edge_list(s)):
        out = out + LinComb.of(attach_at(s, path, t))
    return out


def brute_force_natural_growth_forest(t: RootedTree, f: Forest) -> LinComb:
    """N_t on a forest by the derivation rule: grow one tree, keep the others."""
    out = LinComb.zero()
    for i, s in enumerate(f.trees):
        rest = LinComb.of(Forest(f.trees[:i] + f.trees[i + 1:]))
        out = out + brute_force_natural_growth(t, s) * rest
    return out


def brute_force_cut_pairs(t: RootedTree):
    """(pruned forest, root part) for every admissible cut incl. trivial ones."""
    yield Forest(()), Forest((t,))          # empty cut
    for cut in brute_force_proper_cuts(t):
        pruned = tuple(subtree_at(t, path) for path in sorted(cut))
        yield Forest(pruned), Forest((remove_edges(t, cut),))
    yield Forest((t,)), Forest(())          # full cut


def brute_force_coproduct_tree(t: RootedTree) -> Tensor2:
    out = Tensor2.zero()
    for pruned, root in brute_force_cut_pairs(t):
        out = out + Tensor2.of(pruned, root)
    return out


def brute_force_coproduct(f: Forest) -> Tensor2:
    out = Tensor2.of(Forest(()), Forest(()))
    for t in f.trees:
        out = out * brute_force_coproduct_tree(t)
    return out


def total_cut_antipode(t: RootedTree) -> LinComb:
    """S(t) = sum over all edge subsets C of (-1)^(|C|+1) forest(t minus C).

    The non-recursive total-cut formula: deleting the edges of C splits t
    into the root component and one component below each deleted edge.
    """
    edges = list(edge_list(t))
    out = LinComb.zero()
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            cut = set(combo)
            parts = [remove_edges(t, cut)]
            parts += [remove_edges(subtree_at(t, e), cut, e) for e in combo]
            out = out + LinComb.of(Forest(tuple(parts)), (-1) ** (r + 1))
    return out


@functools.cache
def tree_factorial(t: RootedTree) -> int:
    """t! = |t| times the factorials of t's root children, so e_s(t) = s^|t| / t!
    is the character of the exact flow at time s (Butcher 1972)."""
    out = t.vertex_count
    for c in t.children:
        out *= tree_factorial(c)
    return out


@functools.cache
def forest_factorial(f: Forest) -> int:
    """F!, the product of the factorials of F's trees; 1 for the empty forest."""
    out = 1
    for t in f.trees:
        out *= tree_factorial(t)
    return out


def _fraction_sum(pairs) -> dict:
    """The nonzero sums of the (key, coefficient) pairs, accumulated in Fraction."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, Fraction(0)) + c
    return {key: c for key, c in out.items() if c}


def reference_lincomb_product(a: LinComb, b: LinComb) -> dict:
    """The terms of a * b, each product forest built from its concatenated trees."""
    return _fraction_sum((Forest(f1.trees + f2.trees), Fraction(c1) * c2)
                         for f1, c1 in a.terms.items() for f2, c2 in b.terms.items())


def reference_tensor_product(a: Tensor2, b: Tensor2) -> dict:
    """The terms of a * b, both legs built from their concatenated trees."""
    return _fraction_sum(((Forest(l1.trees + l2.trees), Forest(r1.trees + r2.trees)),
                          Fraction(c1) * c2)
                         for (l1, r1), c1 in a.terms.items() for (l2, r2), c2 in b.terms.items())


def in_span(rows, target) -> bool:
    """True iff target is a rational linear combination of the rows, by one `Span`."""
    span = Span()
    for row in rows:
        span.add(row)
    return span.contains(target)


def rref_independent_rows(rows):
    """Indices of a maximal independent subset, re-solving for every row."""
    kept = []
    kept_idx = []
    for i, row in enumerate(rows):
        if not rref_in_span(kept, row):
            kept.append(row)
            kept_idx.append(i)
    return kept_idx


def rref_in_span(rows, target):
    """True iff target is a rational combination, by one Fraction rref."""
    if not any(target):
        return True
    if not rows:
        return False
    return solve_consistent([list(col) for col in zip(*rows)], target) is not None


def reference_closure_check(basis):
    """Closure under the coproduct, re-solving span (x) span for every component."""
    from treehopf.growth import ClosureReport

    for d in range(1, basis.max_degree + 1):
        for elem in basis.degree_span(d):
            components = {}
            for (fl, fr), c in coproduct(elem).terms.items():
                components.setdefault((fl.degree, fr.degree), {})[(fl, fr)] = c
            for (dl, dr), comp in sorted(components.items()):
                left, right = basis.degree_span(dl), basis.degree_span(dr)
                if not _reference_component_in_span(comp, left, right):
                    worst = min(comp, key=lambda p: (_sort_key(p[0]), _sort_key(p[1])))
                    return ClosureReport(False, elem, (dl, dr), worst)
    return ClosureReport(True)


def _reference_component_in_span(component, left_basis, right_basis):
    if not left_basis or not right_basis:
        return not component
    products = [Tensor2.tensor(bl, br).terms
                for bl, br in itertools.product(left_basis, right_basis)]
    systems = (component, *products)
    index = {}
    for terms in systems:
        for pair in terms:
            index.setdefault(pair, len(index))
    vectors = []
    for terms in systems:
        v = [0] * len(index)
        for pair, c in terms.items():
            v[index[pair]] = c
        vectors.append(v)
    return rref_in_span(vectors[1:], vectors[0])


def series_power(s: MultiSeries, k: int) -> MultiSeries:
    """s^k of a one-variable series, read from its power table."""
    rows, d = s._power_rows(k)
    return MultiSeries._from_nums(1, rows[k], d ** k, s.trunc)


class Counted(int):
    """An int that counts the products it takes part in (a product is a plain int)."""

    products = 0

    def __mul__(self, other):
        Counted.products += 1
        return int.__mul__(self, other)

    __rmul__ = __mul__


# Univariate jets: the sparse Fraction arithmetic that MultiSeries ran
# before its dense kernel, with the products routed through `series_mul`.

def series_mul(self: MultiSeries, other: MultiSeries) -> MultiSeries:
    """Univariate product, term pair by term pair."""
    trunc = _min_trunc(self.trunc, other.trunc)
    out = {}
    for (i,), c1 in self.terms.items():
        for (j,), c2 in other.terms.items():
            k = i + j
            if trunc is not None and k > trunc:
                continue
            e = (k,)
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return MultiSeries._raw(1, out, trunc)


def series_compose1(self: MultiSeries, inner: MultiSeries) -> MultiSeries:
    """self(inner), summing c_k inner^k over successive powers."""
    assert self.nvars == 1 and inner.nvars == 1
    if inner.eval0() != 0:
        raise ValueError("composition requires zero constant term")
    trunc = _min_trunc(self.trunc, inner.trunc)
    out = MultiSeries.zero(1, trunc)
    power = MultiSeries.constant(1, 1, trunc)
    max_k = self.total_degree()
    for k in range(0, max_k + 1):
        c = self.coeff(k)
        if c:
            out = out + power.scale(c)
        if k < max_k:
            power = series_mul(power, inner)
    return out


def series_reciprocal(self: MultiSeries) -> MultiSeries:
    """Inverse of a unit series by the order-by-order recurrence."""
    assert self.nvars == 1
    c0 = self.eval0()
    if c0 == 0:
        raise ValueError("series has no reciprocal: zero constant term")
    trunc = self.trunc
    if trunc is None:
        if self.total_degree() == 0:
            return MultiSeries(1, {(0,): 1 / c0})
        raise TruncationError(
            "reciprocal of a non-constant polynomial is an infinite "
            "series; set a truncation order first"
        )
    inv = [Fraction(0)] * (trunc + 1)
    inv[0] = 1 / c0
    for k in range(1, trunc + 1):
        s = Fraction(0)
        for j in range(1, k + 1):
            s += self.coeff(j) * inv[k - j]
        inv[k] = -s / c0
    return MultiSeries(1, {(k,): v for k, v in enumerate(inv)}, self.trunc)


def series_reversion(self: MultiSeries) -> MultiSeries:
    """Compositional inverse by fixing one order per composition."""
    assert self.nvars == 1
    if self.eval0() != 0 or self.coeff(1) == 0:
        raise ValueError("reversion requires zero constant term and nonzero slope")
    trunc = self.trunc
    if trunc is None:
        if self.total_degree() <= 1:
            return MultiSeries(1, {(1,): 1 / self.coeff(1)})
        raise TruncationError(
            "reversion of a nonlinear polynomial is an infinite series; "
            "set a truncation order first"
        )
    # Solve self(g(x)) = x order by order.
    g = MultiSeries(1, {(1,): 1 / self.coeff(1)}, trunc)
    x = MultiSeries.variable(1, 0, trunc)
    for _ in range(trunc):
        err = series_compose1(self.with_trunc(trunc), g) - x
        if err.is_zero():
            break
        g = g - err.scale(1 / self.coeff(1))
    return g


# Series in any number of variables: the dict-of-Fractions arithmetic that
# MultiSeries ran before every series moved onto int numerators.

def series_add(self: MultiSeries, other: MultiSeries) -> MultiSeries:
    trunc = _min_trunc(self.trunc, other.trunc)
    out = dict(self.terms)
    for e, c in other.terms.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    if trunc is not None and (trunc != self.trunc or trunc != other.trunc):
        out = {e: c for e, c in out.items() if sum(e) <= trunc}
    return MultiSeries._raw(self.nvars, out, trunc)


def series_scale(self: MultiSeries, c) -> MultiSeries:
    c = Fraction(c)
    return MultiSeries._raw(
        self.nvars, {e: c * v for e, v in self.terms.items()} if c else {}, self.trunc)


def series_mul_sparse(self: MultiSeries, other: MultiSeries) -> MultiSeries:
    """Product in any number of variables, term pair by term pair."""
    trunc = _min_trunc(self.trunc, other.trunc)
    out: dict[tuple[int, ...], Fraction] = {}
    for e1, c1 in self.terms.items():
        for e2, c2 in other.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if trunc is not None and sum(e) > trunc:
                continue
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return MultiSeries._raw(self.nvars, out, trunc)


def series_deriv(self: MultiSeries, i: int) -> MultiSeries:
    out: dict[tuple[int, ...], Fraction] = {}
    for e, c in self.terms.items():
        if e[i]:
            de = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[de] = out.get(de, Fraction(0)) + c * e[i]
    trunc = None if self.trunc is None else max(self.trunc - 1, -1)
    if trunc is not None and trunc < 0:
        raise TruncationError("derivative exhausted the retained orders")
    return MultiSeries._raw(self.nvars, out, trunc)


def series_eq_retained(self: MultiSeries, other: MultiSeries) -> bool:
    """Equality up to the common truncation order."""
    trunc = _min_trunc(self.trunc, other.trunc)
    a = {e: c for e, c in self.terms.items() if trunc is None or sum(e) <= trunc}
    b = {e: c for e, c in other.terms.items() if trunc is None or sum(e) <= trunc}
    return a == b


# Frame functions: the dict y-power -> MultiSeries that FrameFunction was
# before it moved onto one int grid, and the lift of psi row by row from
# the sparse series oracles.

class SeriesFrameFunction:
    """Polynomial in y with univariate x-jet coefficients, one series per row."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean: dict[int, MultiSeries] = {}
        summed = []
        if coeffs:
            for k, g in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if k < 0:
                    raise ValueError("negative powers of y are not representable")
                if not g.is_zero():
                    if k in clean:
                        clean[k] = clean[k] + g
                        summed.append(k)
                    else:
                        clean[k] = g
        # Only a sum can have cancelled to zero.
        for k in summed:
            if k in clean and clean[k].is_zero():
                del clean[k]
        self.coeffs = clean

    @property
    def trunc(self) -> int | None:
        t = None
        for g in self.coeffs.values():
            gt = g.trunc
            if gt is not None:
                t = gt if t is None else min(t, gt)
        return t

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "SeriesFrameFunction") -> "SeriesFrameFunction":
        out = dict(self.coeffs)
        for k, g in other.coeffs.items():
            out[k] = out[k] + g if k in out else g
        return SeriesFrameFunction(out)

    def __neg__(self) -> "SeriesFrameFunction":
        return SeriesFrameFunction({k: -g for k, g in self.coeffs.items()})

    def __sub__(self, other: "SeriesFrameFunction") -> "SeriesFrameFunction":
        return self + (-other)

    def __mul__(self, other: "SeriesFrameFunction") -> "SeriesFrameFunction":
        out: dict[int, MultiSeries] = {}
        for k1, g1 in self.coeffs.items():
            for k2, g2 in other.coeffs.items():
                k = k1 + k2
                g = g1 * g2
                out[k] = out[k] + g if k in out else g
        return SeriesFrameFunction(out)

    def scale(self, c) -> "SeriesFrameFunction":
        c = Fraction(c)
        if not c:
            return SeriesFrameFunction()
        return SeriesFrameFunction({k: g.scale(c) for k, g in self.coeffs.items()})

    def dx(self) -> "SeriesFrameFunction":
        return SeriesFrameFunction({k: g.deriv(0) for k, g in self.coeffs.items()})

    def dz(self) -> "SeriesFrameFunction":
        return SeriesFrameFunction({k: g.scale(k) for k, g in self.coeffs.items() if k})

    def eq_retained(self, other: "SeriesFrameFunction") -> bool:
        trunc = None
        for t in (self.trunc, other.trunc):
            if t is not None:
                trunc = t if trunc is None else min(trunc, t)
        keys = set(self.coeffs) | set(other.coeffs)
        zero = MultiSeries.zero(1, trunc)
        for k in keys:
            a = self.coeffs.get(k, zero).with_trunc(trunc)
            b = other.coeffs.get(k, zero).with_trunc(trunc)
            if not a.eq_retained(b):
                return False
        return True


def series_lift_apply(psi, h: SeriesFrameFunction) -> SeriesFrameFunction:
    """(g o psi) psi'^k on each y^k coefficient g, from the sparse oracles."""
    dpsi = psi.series.deriv(0)
    out = {}
    for k, g in sorted(h.coeffs.items()):
        term = series_compose1(g, psi.series)
        for _ in range(k):
            term = series_mul(term, dpsi)
        out[k] = term
    return SeriesFrameFunction(out)


def reference_first_mismatch(a, b):
    """First differing retained jet coefficient, or None: (y_deg, x_order, got, want).

    The walk over `coeffs`, one MultiSeries per row, that the library used
    before `first_mismatch` read the int grid.
    """
    trunc = None
    for t in (a.trunc, b.trunc):
        if t is not None:
            trunc = t if trunc is None else min(trunc, t)
    keys = sorted(set(a.coeffs) | set(b.coeffs))
    for k in keys:
        ga = a.coeffs.get(k, MultiSeries.zero(1, trunc))
        gb = b.coeffs.get(k, MultiSeries.zero(1, trunc))
        orders = sorted({e[0] for e in ga.terms} | {e[0] for e in gb.terms})
        for o in orders:
            if trunc is not None and o > trunc:
                continue
            ca, cb = ga.coeff(o), gb.coeff(o)
            if ca != cb:
                return (k, o, ca, cb)
    return None


# The cut of a frame function and the two negations as they were before
# they became a product with 1 and a scaling by -1, kept verbatim (as
# functions of the operand, renamed), and the vertex symbol with its
# curvature part and its flat part psi''/psi' written out at each use, as
# `gamma_bullet`, `transferred_base_field`, `forced_vertex_symbols` and
# `cocycle_sides` wrote them before the two parts were written once.

def reference_frame_with_trunc(self, trunc):
    """Every row cut at order trunc; a row zero through it is dropped."""
    from treehopf.frame import FrameFunction, _row

    if trunc is None or all(t is not None and t <= trunc for t, _ in self._rows.values()):
        return self
    n = trunc + 1
    rows = {}
    for k, (t, nums) in self._rows.items():
        if t is None or t > trunc:
            t, nums = trunc, nums[:n] + [0] * (n - len(nums))
        row = _row(t, nums)
        if row:
            rows[k] = row
    return FrameFunction._reduced(rows, self._den)


def reference_frame_neg(self):
    from treehopf.frame import FrameFunction

    return FrameFunction._raw(
        {k: (t, [-v for v in nums]) for k, (t, nums) in self._rows.items()}, self._den)


def reference_series_neg(self):
    a, den = self._jet()
    a = [-v for v in a] if self.nvars == 1 else {e: -v for e, v in a.items()}
    return MultiSeries._raw(self.nvars, None, self.trunc, a, den)


def reference_gamma_bullet(psi, Gamma):
    """y (psi' Gamma(psi) - Gamma + psi''/psi'), built afresh on every call."""
    from treehopf.frame import FrameFunction

    dpsi = psi.d()
    g = dpsi * Gamma.compose1(psi.series) - Gamma.with_trunc(psi.trunc) \
        + dpsi.deriv(0) * dpsi.reciprocal()
    return FrameFunction.y_times(g)


def reference_forced_vertex_symbols(psi, Gamma):
    from treehopf.frame import FrameFunction

    dpsi = psi.d()
    curvature_only = FrameFunction.y_times(
        dpsi * Gamma.compose1(psi.series) - Gamma.with_trunc(psi.trunc))
    flat = FrameFunction.y_times(dpsi.deriv(0) * dpsi.reciprocal())
    return reference_gamma_bullet(psi, Gamma), curvature_only, flat


def reference_transferred_base_field(psi, Gamma):
    from treehopf.frame import FrameFunction

    dpsi = psi.d()
    log_slope = dpsi.deriv(0) * dpsi.reciprocal()
    return (
        FrameFunction.y_times(dpsi),
        FrameFunction.y_times(log_slope - Gamma.with_trunc(psi.trunc)),
    )


def reference_cocycle_sides(psi, eta, Gamma):
    """Both sides of the cocycle identity, the right side cut where psi'' and Gamma end."""
    from treehopf.frame import lift_apply

    comp = eta.compose(psi)
    lhs = reference_gamma_bullet(comp, Gamma)
    rhs = reference_gamma_bullet(psi, Gamma) + lift_apply(psi, reference_gamma_bullet(eta, Gamma))
    t = comp.trunc
    order = _min_trunc(None if t is None else t - 2, Gamma.trunc)
    return lhs, reference_frame_with_trunc(rhs, order)


# The monomial product built afresh on every call, as it was before a
# monomial kept its product with each right factor, and the coproduct sides
# of the frame model, one such product per coproduct term and per
# admissible cut.

def reference_monomial_product(a, b):
    """(f U*_psi)(g U*_eta) = f (g o lift(psi)) U*_{eta o psi}, a new monomial per call."""
    from treehopf.frame import Monomial, lift_apply

    return Monomial(a.f * lift_apply(a.psi, b.f), b.psi.compose(a.psi))


def delta_coproduct_sides_per_term(x, a, b, Gamma):
    from treehopf.frame import FrameFunction, delta_t_apply
    from treehopf.hopf import coproduct

    ab = reference_monomial_product(a, b)
    lhs = delta_t_apply(x, ab, Gamma).f
    rhs = FrameFunction.zero()
    for (fl, fr), c in coproduct(x).terms.items():
        da = delta_t_apply(fl, a, Gamma)
        db = delta_t_apply(fr, b, Gamma)
        rhs = rhs + reference_monomial_product(da, db).f.scale(c)
    return lhs, rhs


def X_coproduct_sides_per_term(t, a, b, Gamma):
    from treehopf.frame import X_t_apply, delta_t_apply
    from treehopf.trees import admissible_cuts

    ab = reference_monomial_product(a, b)
    lhs = X_t_apply(t, ab, Gamma).f
    rhs = reference_monomial_product(X_t_apply(t, a, Gamma), b).f
    for _cut, pruned, root in admissible_cuts(t):
        da = delta_t_apply(pruned, a, Gamma)
        xb = X_t_apply(root, b, Gamma)
        rhs = rhs + reference_monomial_product(da, xb).f
    return lhs, rhs


# The grafting contraction as it was before it took each partial derivative
# once per sorted index tuple, kept verbatim (renamed), and the elementary
# differentials built on it without a memo.

def reference_contract(children, target, n: int):
    """Sum over index tuples of (prod_j children[j][k_j]) d_{k_1..k_m} target."""
    m = len(children)
    acc = None
    for ks in itertools.product(range(n), repeat=m):
        term = target
        for k in ks:
            term = term.deriv(k)
        for j, k in enumerate(ks):
            term = term * children[j][k]
        acc = term if acc is None else acc + term
    return acc if acc is not None else target


def reference_phi_vec(t: RootedTree, field: tuple) -> tuple:
    """phi(t) for the field components, recomputed for every subtree."""
    if not t.children:
        return field
    children = [reference_phi_vec(c, field) for c in t.children]
    return tuple(reference_contract(children, comp, len(field)) for comp in field)


def reference_pushforward_rhs(t: RootedTree, psi, Gamma, h):
    """The product formula for phi_t(h o lift(psi)) over the transferred field,
    as it was before it ran through the grafting contraction (renamed), over the
    reference transferred field."""
    from treehopf.frame import FrameFunction, lift_apply, phi_frame_op

    star = reference_transferred_base_field(psi, Gamma)
    rhs = FrameFunction.zero()
    m = len(t.children)
    for ks in itertools.product((0, 1), repeat=m):
        term = h
        for k in ks:
            term = term.deriv(k)
        term = lift_apply(psi, term)
        for j, k in enumerate(ks):
            term = term * phi_frame_op(t.children[j], Gamma, star[k], psi.trunc)
        rhs = rhs + term
    return rhs


def reference_coprodcontrib_rhs(t: RootedTree, psi, Gamma, h):
    """The cut expansion of the transferred operator phi_t(h o lift(psi)),
    as it was before it summed over the grouped terms of Delta(t): one lift
    per admissible cut, k_c counted on the cut's root edges (renamed)."""
    from treehopf.frame import FrameFunction, _gamma_forest, lift_apply, phi_frame_op
    from treehopf.trees import admissible_cuts

    trunc = psi.trunc
    rhs = FrameFunction.zero()
    for cut, pruned, root in admissible_cuts(t):
        if cut.kind == "full":
            continue
        k_root = sum(1 for e in cut.edges if len(e) == 1)
        term = h
        for _ in range(k_root):
            term = term.dz()
        term = phi_frame_op(root.trees[0], Gamma, term, trunc)
        term = lift_apply(psi, term)
        rhs = rhs + _gamma_forest(pruned, psi, Gamma) * term
    return rhs


def reference_growth_derivative(t: RootedTree, f) -> bool:
    """phi(N(t)) against the flow derivative sum_j f^j d_j phi(t), as retained jets.

    The growth lemma as it was checked before it became the single-vertex
    case of `check_generalized_growth`: the flow derivative is applied to
    each component of `elementary_differential(t, f)`, which checks the
    field's depth for t, after the left side is built.
    """
    lhs = elementary_differential_lincomb(natural_growth(LEAF, LinComb.of(t)), f)
    rhs = [reference_contract([f.components], c, f.nvars) for c in elementary_differential(t, f)]
    return all(a.eq_retained(b) for a, b in zip(lhs, rhs))


# The five text parsers as they were before they shared one scanner, kept
# verbatim (renamed, with absolute imports) as the reference of the
# differential parser test.  They raise the library's own error classes.


def reference_parse_tree(text: str) -> RootedTree:
    """Parse a tree in the bracket grammar; children may appear in any order."""
    tree, pos = _reference_parse_tree_at(text, _reference_skip_ws(text, 0))
    pos = _reference_skip_ws(text, pos)
    if pos != len(text):
        raise TreeParseError("trailing input after tree", text, pos)
    return tree


def reference_parse_forest(text: str) -> Forest:
    """Parse a forest: `1` or trees joined by `*`."""
    pos = _reference_skip_ws(text, 0)
    if pos < len(text) and text[pos] == "1":
        pos = _reference_skip_ws(text, pos + 1)
        if pos != len(text):
            raise TreeParseError("trailing input after empty forest", text, pos)
        return EMPTY_FOREST
    trees = []
    while True:
        tree, pos = _reference_parse_tree_at(text, pos)
        trees.append(tree)
        pos = _reference_skip_ws(text, pos)
        if pos < len(text) and text[pos] == "*":
            pos = _reference_skip_ws(text, pos + 1)
            continue
        break
    if pos != len(text):
        raise TreeParseError("trailing input after forest", text, pos)
    return Forest(tuple(trees))


def _reference_skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _reference_parse_tree_at(text: str, pos: int) -> tuple[RootedTree, int]:
    if pos >= len(text) or text[pos] != "[":
        raise TreeParseError("expected '['", text, pos)
    pos = _reference_skip_ws(text, pos + 1)
    children = []
    while pos < len(text) and text[pos] == "[":
        child, pos = _reference_parse_tree_at(text, pos)
        children.append(child)
        pos = _reference_skip_ws(text, pos)
    if pos >= len(text) or text[pos] != "]":
        raise TreeParseError("expected ']'", text, pos)
    return RootedTree(tuple(children)), pos + 1


def reference_parse_lincomb(text: str) -> LinComb:
    """Parse `c1 F1 + c2 F2 + ...`; coefficients are optional and default to 1."""
    pos = _reference_skip_ws(text, 0)
    if pos == len(text):
        raise TreeParseError("empty expression", text, pos)
    if text.strip() == "0":
        return LinComb.zero()
    out: dict[Forest, int | Fraction] = {}
    sign = Fraction(1)
    first = True
    while pos < len(text):
        if not first or text[pos] in "+-":
            if pos >= len(text) or text[pos] not in "+-":
                raise TreeParseError("expected '+' or '-'", text, pos)
            sign = Fraction(1) if text[pos] == "+" else Fraction(-1)
            pos = _reference_skip_ws(text, pos + 1)
        first = False
        coeff, pos = _reference_parse_coeff(text, pos)
        forest, pos = _reference_parse_forest_at(text, pos)
        _acc(out, forest, sign * coeff)
        pos = _reference_skip_ws(text, pos)
    return LinComb._raw(out)


def _reference_parse_coeff(text: str, pos: int) -> tuple[Fraction, int]:
    start = pos
    while pos < len(text) and (text[pos].isdigit() or text[pos] == "/"):
        pos += 1
    if pos == start:
        return Fraction(1), pos
    token = text[start:pos]
    # A bare `1` may be the empty forest rather than a coefficient.
    rest = _reference_skip_ws(text, pos)
    if token == "1" and (rest == len(text) or text[rest] in "+-"):
        return Fraction(1), start
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise TreeParseError("malformed rational coefficient", text, start) from None
    return value, _reference_skip_ws(text, pos)


def _reference_parse_forest_at(text: str, pos: int) -> tuple[Forest, int]:
    if pos < len(text) and text[pos] == "1":
        return EMPTY_FOREST, pos + 1
    trees = []
    while True:
        tree, pos = _reference_parse_tree_at(text, pos)
        trees.append(tree)
        save = pos
        pos = _reference_skip_ws(text, pos)
        if pos < len(text) and text[pos] == "*":
            pos = _reference_skip_ws(text, pos + 1)
            continue
        pos = save
        break
    return Forest(tuple(trees)), pos


def reference_parse_growth_expr(text: str):
    """Parse the GrowthExpr text format; inverse of str() on expressions."""
    from treehopf.trees import TreeParseError

    def parse_atom(pos: int):
        pos = _reference_skip_ws(text, pos)
        if pos < len(text) and text[pos] == ".":
            return GrowthLeaf(), pos + 1
        if pos < len(text) and text[pos] == "(":
            sub, p = parse_sum(pos + 1)
            p = _reference_skip_ws(text, p)
            if p >= len(text) or text[p] != ")":
                raise TreeParseError("expected ')'", text, p)
            return sub, p + 1
        if text.startswith("N{", pos):
            tree, p = _reference_parse_tree_at(text, pos + 2)
            if p >= len(text) or text[p] != "}":
                raise TreeParseError("expected '}'", text, p)
            p = _reference_skip_ws(text, p + 1)
            if p >= len(text) or text[p] != "(":
                raise TreeParseError("expected '('", text, p)
            sub, p = parse_sum(p + 1)
            p = _reference_skip_ws(text, p)
            if p >= len(text) or text[p] != ")":
                raise TreeParseError("expected ')'", text, p)
            return GrowthApply(tree, sub), p + 1
        raise TreeParseError("expected '.' or 'N{'", text, pos)

    def parse_term(pos: int):
        pos = _reference_skip_ws(text, pos)
        start = pos
        while pos < len(text) and (text[pos].isdigit() or text[pos] == "/"):
            pos += 1
        coeff = Fraction(1)
        if pos > start:
            coeff = Fraction(text[start:pos])
        atom, pos = parse_atom(pos)
        return coeff, atom, pos

    def parse_sum(pos: int):
        parts = []
        sign = Fraction(1)
        pos = _reference_skip_ws(text, pos)
        if pos < len(text) and text[pos] == "-":
            sign = Fraction(-1)
            pos += 1
        while True:
            coeff, atom, pos = parse_term(pos)
            parts.append((sign * coeff, atom))
            pos = _reference_skip_ws(text, pos)
            if pos < len(text) and text[pos] in "+-":
                sign = Fraction(1) if text[pos] == "+" else Fraction(-1)
                pos += 1
                continue
            break
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1], pos
        return GrowthCombo(tuple(parts)), pos

    expr, pos = parse_sum(0)
    pos = _reference_skip_ws(text, pos)
    if pos != len(text):
        from treehopf.trees import TreeParseError as TPE

        raise TPE("trailing input after expression", text, pos)
    return expr


def reference_parse_polynomial(text: str, var_names: list[str], trunc: int | None = None) -> MultiSeries:
    """Parse a polynomial like `x2 + 1/2 x1^2 - 3 x1 x2` exactly."""
    n = len(var_names)
    pos = 0
    out = MultiSeries.zero(n, trunc)
    sign = Fraction(1)
    first = True

    def skip(p):
        while p < len(text) and text[p].isspace():
            p += 1
        return p

    pos = skip(pos)
    if pos == len(text):
        raise SeriesParseError("empty polynomial", text, pos)
    while pos < len(text):
        if not first or text[pos] in "+-":
            if text[pos] not in "+-":
                raise SeriesParseError("expected '+' or '-'", text, pos)
            sign = Fraction(1) if text[pos] == "+" else Fraction(-1)
            pos = skip(pos + 1)
        first = False
        coeff = Fraction(1)
        expo = [0] * n
        saw_factor = False
        while pos < len(text) and text[pos] not in "+-":
            if text[pos] == "*":
                pos = skip(pos + 1)
                continue
            if text[pos].isdigit():
                start = pos
                while pos < len(text) and (text[pos].isdigit() or text[pos] == "/"):
                    pos += 1
                try:
                    coeff *= Fraction(text[start:pos])
                except (ValueError, ZeroDivisionError):
                    raise SeriesParseError("malformed rational", text, start) from None
                saw_factor = True
            else:
                matched = None
                for i, name in sorted(enumerate(var_names), key=lambda kv: -len(kv[1])):
                    if text.startswith(name, pos):
                        matched = i
                        pos += len(name)
                        break
                if matched is None:
                    raise SeriesParseError("unknown symbol", text, pos)
                power = 1
                if pos < len(text) and text[pos] == "^":
                    pos += 1
                    start = pos
                    while pos < len(text) and text[pos].isdigit():
                        pos += 1
                    if pos == start:
                        raise SeriesParseError("expected exponent", text, pos)
                    power = int(text[start:pos])
                expo[matched] += power
                saw_factor = True
            pos = skip(pos)
        if not saw_factor:
            raise SeriesParseError("expected a term", text, pos)
        out = out + MultiSeries(n, {tuple(expo): sign * coeff}, trunc)
    return out


# The three printers of signed sums as they were before they shared one
# writer, kept verbatim (as functions of the printed element, renamed, with
# the free module's `_term_texts` and the two sorts inlined) as the reference
# of the differential printer test.


def reference_free_module_str(self) -> str:
    if not self.terms:
        return "0"
    # Every term gets its sign; a leading "+ " is then dropped.
    text = " ".join([f"- {-c} {t}" if c < 0 else f"+ {c} {t}" for c, t in _reference_term_texts(self)])
    return text[2:] if text[0] == "+" else text


def _reference_term_texts(self) -> list:
    if isinstance(self, Tensor2):
        return [(c, f"({fl.serial} | {fr.serial})") for (fl, fr), c in
                sorted(self.terms.items(), key=lambda kv: (kv[0][1].serial, kv[0][0].serial))]
    return [(c, f.serial) for f, c in sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))]


def reference_series_str(self) -> str:
    if not self.terms:
        return "0"
    names = ["x"] if self.nvars == 1 else [f"x{i+1}" for i in range(self.nvars)]
    bits = []
    for e, c in sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        factors = []
        for i, k in enumerate(e):
            if k == 1:
                factors.append(names[i])
            elif k > 1:
                factors.append(f"{names[i]}^{k}")
        mag = -c if c < 0 else c
        body = " ".join([str(mag)] + factors) if (mag != 1 or not factors) else " ".join(factors)
        if not bits:
            bits.append(body if c > 0 else f"- {body}")
        else:
            bits.append(("+ " if c > 0 else "- ") + body)
    return " ".join(bits)


def reference_growth_combo_str(self) -> str:
    bits = []
    for coeff, expr in self.parts:
        mag = -coeff if coeff < 0 else coeff
        body = f"({expr})" if isinstance(expr, GrowthCombo) else str(expr)
        piece = f"{mag} {body}"
        if not bits:
            bits.append(piece if coeff > 0 else f"- {piece}")
        else:
            bits.append(("+ " if coeff > 0 else "- ") + piece)
    return " ".join(bits) if bits else "0"


# The value classes as dataclasses.  Only the class names differ (and the
# `isinstance` test in `DataclassGrowthCombo.__str__`, which names its own class).


@dataclass(frozen=True)
class DataclassCut:
    edges: frozenset[tuple[int, ...]]
    kind: str


class DataclassGrowthExpr:
    __slots__ = ()


@dataclass(frozen=True)
class DataclassGrowthLeaf(DataclassGrowthExpr):
    __slots__ = ()

    def __str__(self) -> str:
        return "."


@dataclass(frozen=True)
class DataclassGrowthApply(DataclassGrowthExpr):
    tree: RootedTree
    sub: DataclassGrowthExpr

    def __str__(self) -> str:
        return f"N{{{self.tree.serial}}}({self.sub})"


@dataclass(frozen=True)
class DataclassGrowthCombo(DataclassGrowthExpr):
    parts: tuple[tuple[Fraction, DataclassGrowthExpr], ...]

    def __str__(self) -> str:
        bits = []
        for coeff, expr in self.parts:
            mag = -coeff if coeff < 0 else coeff
            body = f"({expr})" if isinstance(expr, DataclassGrowthCombo) else str(expr)
            piece = f"{mag} {body}"
            if not bits:
                bits.append(piece if coeff > 0 else f"- {piece}")
            else:
                bits.append(("+ " if coeff > 0 else "- ") + piece)
        return " ".join(bits) if bits else "0"


@dataclass
class DataclassGradedBasis:
    generators: tuple[RootedTree, ...]
    max_degree: int
    by_degree: dict[int, list[LinComb]]

    def degree_span(self, d: int) -> list[LinComb]:
        if d == 0:
            return [LinComb.unit()]
        return self.by_degree.get(d, [])


@dataclass
class DataclassClosureReport:
    ok: bool
    element: LinComb | None = None
    bidegree: tuple[int, int] | None = None
    term: tuple[Forest, Forest] | None = None

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "closed under the coproduct"
        return (
            f"coproduct escapes the span: element {self.element}, "
            f"bidegree {self.bidegree}, term ({self.term[0]} | {self.term[1]})"
        )
