"""Formal one-dimensional frame-bundle model.

Coordinates are (x, y) with y = e^z the fiber variable, so the grading
field is Y = y d/dy and d/dz is realized exactly as y d/dy; z itself is
never expanded.  Functions on the frame bundle are polynomials in y with
truncated x-jet coefficients, kept on one int grid: row k holds the
numerators of the y^k coefficient with its own truncation order, over one
denominator for the whole function, reduced by one content gcd per
result.  The dict of series `coeffs` is built from the grid on first
read.  The flow of interest is

    dx/ds = y,    dz/ds = -y Gamma(x),

and phi-operators over this two-coordinate system (indices {x, z})
reuse the grafting recursion of the Butcher module: the components are
FrameFunctions, whose deriv(0) and deriv(1) are d/dx and d/dz.

Diffeomorphisms are jets psi with psi(0) = 0, psi'(0) > 0; the lift to
the frame bundle sends (x, y) to (psi(x), y psi'(x)).  Each diffeomorphism
computes psi' once, and keeps the vertex symbol gamma_bullet(psi) and the
tree symbols gamma_t(psi) once per curvature; the lift reads the powers of
psi and of psi' from the power tables those series keep (see the series
module).
Crossed-product monomials f U*_psi multiply by

    (f U*_psi)(g U*_eta) = f (g o lift(psi)) U*_{eta o psi},

i.e. U*_psi U*_eta = U*_{eta o psi}, the contravariant convention; this
is the one under which the product is associative and the coproduct
theorems close (the paper writes both orders in adjacent displays).

A frame function is never mutated and keeps its derivatives dx and dz
once taken.  A monomial is immutable and keeps Y of itself, X_t and
delta_t for trees and forests t, and phi_s of its function for trees s,
keyed on the operator, the tree, Gamma and Gamma's truncation order, so a
relation that applies X_t to the same monomial again reads the first
result.  As operators X_t = phi_{B+(t)}, so X_t reads the same phi memo.
A curvature series Gamma keeps, per requested truncation order, the frame
field and the memo of its phi(t), which every phi-operator on Gamma reads.
The memos die with their objects; none is a process-wide cache.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm

from .butcher import _contract, _linear_sum, _phi_vec, _single_tree
from .growth import GrowthApply, GrowthExpr, GrowthLeaf, decompose
from .hopf import LinComb, coproduct, delta_k, natural_growth
from .series import MultiSeries, TruncationError, _compose, _conv, _min_trunc, parse_polynomial
from .trees import Forest, LEAF, RootedTree, _Immutable, admissible_cuts, b_plus

__all__ = [
    "FrameFunction",
    "FormalDiffeo",
    "CurvatureFn",
    "Monomial",
    "lift_apply",
    "monomial_product",
    "gamma_bullet",
    "gamma_t",
    "frame_field",
    "phi_frame",
    "phi_frame_op",
    "delta_t_apply",
    "X_t_apply",
    "Y_apply",
    "first_mismatch",
    "check_delta_coproduct",
    "check_delta_coproduct_lincomb",
    "delta_coproduct_sides",
    "check_X_coproduct",
    "X_coproduct_sides",
    "forced_vertex_symbols",
    "CommutatorReport",
    "commutator_sides",
    "check_commutators",
    "delta_chain_sides",
    "check_delta_chain",
    "delta_from_commutators",
    "cocycle_sides",
    "check_cocycle",
    "transferred_base_field",
    "transferred_side",
    "pushforward_rhs",
    "check_pushforward",
    "coprodcontrib_rhs",
    "check_coprodcontrib",
    "random_xseries",
    "random_diffeo",
    "random_frame_function",
    "parse_frame_function",
]


def _row(trunc: int | None, nums: list[int]):
    """The grid row (trunc, nums), or None if it is zero.

    An exact row loses its trailing zeros, popped from nums in place.
    """
    if trunc is None:
        while nums and not nums[-1]:
            nums.pop()
        return (None, nums) if nums else None
    return (trunc, nums) if any(nums) else None


class FrameFunction:
    """Polynomial in y with univariate x-jet coefficients, on one int grid.

    Row k holds the int numerators of the y^k coefficient and its own
    truncation order: trunc+1 numerators, or, for an exact row, up to its
    last nonzero one.  Every row shares the denominator `_den`, and the
    whole grid is reduced by its content gcd, so `_den` is the lcm of the
    denominators of the reduced coefficients.  Zero rows are not stored.
    `coeffs`, the dict y-power -> MultiSeries, is built on first read, and
    `dx` and `dz` on their first call; a frame function is never mutated.
    """

    __slots__ = ("_rows", "_den", "_coeffs", "_dx", "_dz")

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
        jets = {k: g._jet() for k, g in clean.items()}
        den = lcm(*(d for _, d in jets.values()))
        # Each row is reduced over its own denominator, so the grid over
        # their lcm is reduced too.
        self._rows = {k: (clean[k].trunc, nums if d == den else [v * (den // d) for v in nums])
                      for k, (nums, d) in jets.items()}
        self._den = den
        self._coeffs = self._dx = self._dz = None

    @classmethod
    def _raw(cls, rows: dict, den: int) -> "FrameFunction":
        """Internal constructor: nonzero rows over den, already reduced."""
        out = cls.__new__(cls)
        out._rows, out._den = rows, den
        out._coeffs = out._dx = out._dz = None
        return out

    @classmethod
    def _reduced(cls, rows: dict, den: int) -> "FrameFunction":
        """Nonzero rows of int numerators over den > 0, reduced by one content gcd."""
        g = den
        for _, nums in rows.values():
            if g == 1:
                break
            g = gcd(g, *nums)
        if g > 1:
            den //= g
            rows = {k: (t, [v // g for v in nums]) for k, (t, nums) in rows.items()}
        return cls._raw(rows, den)

    @property
    def coeffs(self) -> dict[int, MultiSeries]:
        """The y^k coefficients as a dict k -> MultiSeries, built on first read."""
        coeffs = self._coeffs
        if coeffs is None:
            den = self._den
            coeffs = self._coeffs = {k: MultiSeries._from_nums(1, nums, den, t)
                                     for k, (t, nums) in self._rows.items()}
        return coeffs

    @staticmethod
    def zero() -> "FrameFunction":
        return FrameFunction._raw({}, 1)

    @staticmethod
    def y_times(g: MultiSeries, power: int = 1) -> "FrameFunction":
        return FrameFunction({power: g})

    @staticmethod
    def constant(value, trunc=None) -> "FrameFunction":
        return FrameFunction({0: MultiSeries.constant(1, Fraction(value), trunc)})

    @property
    def trunc(self) -> int | None:
        t = None
        for rt, _ in self._rows.values():
            if rt is not None and (t is None or rt < t):
                t = rt
        return t

    def is_zero(self) -> bool:
        return not self._rows

    def __add__(self, other: "FrameFunction", sign: int = 1) -> "FrameFunction":
        """self + sign * other, over the lcm of the two denominators."""
        ra, rb = self._rows, other._rows
        if not rb:
            return self
        if not ra:
            return other if sign == 1 else -other
        da, db = self._den, other._den
        g = gcd(da, db)
        ma, mb, den = db // g, sign * (da // g), da // g * db
        rows = {}
        for k, (ta, a) in ra.items():
            row = rb.get(k)
            if row is None:
                rows[k] = (ta, a if ma == 1 else [v * ma for v in a])
                continue
            tb, b = row
            trunc = _min_trunc(ta, tb)
            n = None if trunc is None else trunc + 1
            row = _row(trunc, [x * ma + y * mb
                               for x, y in itertools.zip_longest(a[:n], b[:n], fillvalue=0)])
            if row:
                rows[k] = row
        for k, (tb, b) in rb.items():
            if k not in ra:
                rows[k] = (tb, [v * mb for v in b])
        return FrameFunction._reduced(rows, den)

    def __neg__(self) -> "FrameFunction":
        return FrameFunction._raw(
            {k: (t, [-v for v in nums]) for k, (t, nums) in self._rows.items()}, self._den)

    def __sub__(self, other: "FrameFunction") -> "FrameFunction":
        return self.__add__(other, -1)

    def __mul__(self, other: "FrameFunction") -> "FrameFunction":
        """Row k1+k2 gathers the products of rows k1 and k2, at the least of their orders."""
        cells: dict[int, list] = {}
        for k1, (t1, a) in self._rows.items():
            for k2, (t2, b) in other._rows.items():
                t = _min_trunc(t1, t2)
                cell = cells.get(k1 + k2)
                if cell is None:
                    cells[k1 + k2] = [t, (a, b)]
                else:
                    cell[0] = _min_trunc(cell[0], t)
                    cell.append((a, b))
        rows = {}
        for k, (t, *pairs) in cells.items():
            n = None if t is None else t + 1
            out = [0] * (n or max(len(a) + len(b) - 1 for a, b in pairs))
            for a, b in pairs:
                _conv(a, b, n, out)
            row = _row(t, out)
            if row:
                rows[k] = row
        return FrameFunction._reduced(rows, self._den * other._den)

    def scale(self, c) -> "FrameFunction":
        if not isinstance(c, int):
            c = Fraction(c)
        if not c:
            return FrameFunction.zero()
        p, q = c.numerator, c.denominator
        g = gcd(p, self._den)
        p //= g
        rows = {k: (t, [v * p for v in nums]) for k, (t, nums) in self._rows.items()}
        # p is prime to den // g, so only q can share a factor with the rows.
        if q == 1:
            return FrameFunction._raw(rows, self._den // g)
        return FrameFunction._reduced(rows, self._den // g * q)

    def dx(self) -> "FrameFunction":
        """Partial derivative in x (the base coordinate), computed once."""
        if self._dx is None:
            rows = {}
            for k, (t, a) in self._rows.items():
                if t is not None and t < 1:
                    raise TruncationError("derivative exhausted the retained orders")
                row = _row(None if t is None else t - 1, [i * a[i] for i in range(1, len(a))])
                if row:
                    rows[k] = row
            self._dx = FrameFunction._reduced(rows, self._den)
        return self._dx

    def dz(self) -> "FrameFunction":
        """The operator y d/dy, i.e. d/dz in the exponential fiber coordinate, computed once."""
        if self._dz is None:
            self._dz = FrameFunction._reduced(
                {k: (t, [k * v for v in nums]) for k, (t, nums) in self._rows.items() if k},
                self._den)
        return self._dz

    def deriv(self, axis: int) -> "FrameFunction":
        """The derivation along coordinate `axis` of (x, z): dx() for 0, dz() for 1."""
        return self.dx() if axis == 0 else self.dz()

    def y_degrees(self) -> set[int]:
        return set(self._rows)

    def homogeneous_y_degree(self) -> int | None:
        degs = self.y_degrees()
        return degs.pop() if len(degs) == 1 else None

    def eq_retained(self, other: "FrameFunction") -> bool:
        """Equality of all coefficients retained at the common truncation.

        Reads `first_mismatch`, which does the one walk over the two grids.
        """
        return first_mismatch(self, other) is None

    def __eq__(self, other) -> bool:
        return isinstance(other, FrameFunction) and self.coeffs == other.coeffs

    def __str__(self) -> str:
        if not self._rows:
            return "0"
        bits = []
        for k in sorted(self.coeffs):
            g = self.coeffs[k]
            yk = "" if k == 0 else ("y" if k == 1 else f"y^{k}")
            bits.append(f"({g}){' ' + yk if yk else ''}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"FrameFunction({str(self)!r})"


class FormalDiffeo:
    """An orientation-preserving formal diffeomorphism jet fixing 0.

    Keeps psi', and in `_ops`, per curvature, the symbols gamma_bullet(psi)
    and gamma_t(psi), each computed once (see `_kept`); the jet is never
    changed after construction.
    """

    __slots__ = ("series", "_d", "_ops")

    def __init__(self, series: MultiSeries):
        if series.nvars != 1:
            raise ValueError("a diffeomorphism jet is univariate")
        if series.eval0() != 0:
            raise ValueError("diffeomorphism must fix the expansion point")
        if series.coeff(1) <= 0:
            raise ValueError("diffeomorphism must be orientation preserving")
        self.series = series
        self._d = self._ops = None

    @staticmethod
    def identity(trunc: int | None = None) -> "FormalDiffeo":
        return FormalDiffeo(MultiSeries.variable(1, 0, trunc))

    @property
    def trunc(self) -> int | None:
        return self.series.trunc

    def d(self) -> MultiSeries:
        """psi', computed once, so the lift builds its power table once."""
        if self._d is None:
            self._d = self.series.deriv(0)
        return self._d

    def compose(self, inner: "FormalDiffeo") -> "FormalDiffeo":
        """(self o inner)(x) = self(inner(x))."""
        return FormalDiffeo(self.series.compose1(inner.series))

    def inverse(self) -> "FormalDiffeo":
        return FormalDiffeo(self.series.reversion())

    def is_identity(self) -> bool:
        return self.series.eq_retained(MultiSeries.variable(1, 0, self.trunc))

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalDiffeo) and self.series.eq_retained(other.series)

    def __str__(self) -> str:
        return str(self.series)

    def __repr__(self) -> str:
        return f"FormalDiffeo({str(self)!r})"


CurvatureFn = MultiSeries


def lift_apply(psi: FormalDiffeo, h: FrameFunction) -> FrameFunction:
    """Compose h with the lifted diffeomorphism (x, y) -> (psi(x), y psi'(x)).

    The y^k coefficient g becomes (g o psi) psi'^k; both factors come from
    power tables, of psi and of psi', kept on those series.  Each row comes
    out over its own power of the two table denominators, and the rows are
    brought over their lcm before the one reduction.
    """
    s, dpsi = psi.series, psi.d()
    lifted = {}
    for k in sorted(h._rows):
        t, g = h._rows[k]
        trunc = _min_trunc(t, s.trunc)
        out, den = _compose(g, s, trunc)
        if k:
            rows, d = dpsi._power_rows(k)
            trunc = _min_trunc(trunc, dpsi.trunc)
            out = _conv(out, rows[k], None if trunc is None else trunc + 1)
            den *= d ** k
        row = _row(trunc, out)
        if row:
            lifted[k] = row, den
    den = lcm(*(d for _, d in lifted.values()))
    rows = {k: (t, out if d == den else [v * (den // d) for v in out])
            for k, ((t, out), d) in lifted.items()}
    return FrameFunction._reduced(rows, h._den * den)


class Monomial(_Immutable):
    """A crossed-product element f U*_psi.

    Immutable once built.  `_ops` memoizes Y of this monomial, X_t and
    delta_t for trees and forests t, and phi_s(f) for single trees s (see
    `_kept`); it is made on first use and dies with the monomial.
    """

    __slots__ = ("f", "psi", "_ops")

    def __init__(self, f: FrameFunction, psi: FormalDiffeo):
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "_ops", None)

    def scale(self, c) -> "Monomial":
        return Monomial(self.f.scale(c), self.psi)

    def eq_retained(self, other: "Monomial") -> bool:
        return self.psi == other.psi and self.f.eq_retained(other.f)

    def __str__(self) -> str:
        return f"({self.f}) U*[{self.psi}]"

    def __repr__(self) -> str:
        return f"Monomial({str(self)!r})"


def monomial_product(a: Monomial, b: Monomial) -> Monomial:
    """(f U*_psi)(g U*_eta) = f (g o lift(psi)) U*_{eta o psi}."""
    return Monomial(a.f * lift_apply(a.psi, b.f), b.psi.compose(a.psi))


def _kept(obj, key, compute):
    """compute(), run once per object and kept in obj._ops under key.

    obj is a Monomial, a FormalDiffeo or a curvature MultiSeries, each
    never changed once built, so a kept result dies with its object.  Keys
    that depend on Gamma hold Gamma.trunc too, because series equality
    ignores truncation.
    """
    ops = obj._ops
    if ops is None:
        ops = {}
        object.__setattr__(obj, "_ops", ops)
    got = ops.get(key)
    if got is None:
        got = ops[key] = compute()
    return got


def _require_order(order: int) -> None:
    """Reject a truncation order below 2: the single-vertex symbol needs psi''."""
    if order < 2:
        raise ValueError(f"order must be >= 2 (the single-vertex symbol needs psi''), got {order}")


def gamma_bullet(psi: FormalDiffeo, Gamma: CurvatureFn) -> FrameFunction:
    """The single-vertex symbol, as a function of the source point:

    gamma(psi) = y ( psi'(x) Gamma(psi(x)) - Gamma(x) + psi''(x)/psi'(x) ).

    Kept on psi per (Gamma, Gamma.trunc), as psi' is (see `_kept`).
    """
    def compute():
        dpsi = psi.d()
        g = dpsi * Gamma.compose1(psi.series) - Gamma.with_trunc(psi.trunc) \
            + dpsi.deriv(0) * dpsi.reciprocal()
        return FrameFunction.y_times(g)
    return _kept(psi, (Gamma, Gamma.trunc), compute)


def frame_field(Gamma: CurvatureFn, trunc: int | None = None) -> tuple[FrameFunction, FrameFunction]:
    """Components (dx/ds, dz/ds) = (y, -y Gamma(x)) of the frame flow."""
    one = MultiSeries.constant(1, 1, trunc)
    return (
        FrameFunction.y_times(one),
        FrameFunction.y_times(-Gamma.with_trunc(trunc)),
    )


def _frame_phi(Gamma: CurvatureFn, trunc: int | None) -> tuple[tuple, dict]:
    """The frame field at trunc and its phi memo, kept on Gamma per trunc (see `_kept`).

    Gamma's own truncation order is fixed per object, so trunc is the key.
    """
    return _kept(Gamma, trunc, lambda: (frame_field(Gamma, trunc), {}))


def phi_frame(t: RootedTree, Gamma: CurvatureFn, trunc: int | None = None):
    """Elementary differentials (phi^x(t), phi^z(t)) of the frame flow."""
    field, memo = _frame_phi(Gamma, trunc)
    return _phi_vec(t, field, memo)


def phi_frame_op(t: RootedTree, Gamma: CurvatureFn, h: FrameFunction,
                 trunc: int | None = None) -> FrameFunction:
    """Apply the operator phi_t of the frame flow to h."""
    field, memo = _frame_phi(Gamma, trunc)
    return _contract([_phi_vec(c, field, memo) for c in t.children], h, 2)


def gamma_t(t: RootedTree, psi: FormalDiffeo, Gamma: CurvatureFn) -> FrameFunction:
    """The tree-indexed symbol phi_t applied to the single-vertex symbol.

    Kept on psi per (t, Gamma, Gamma.trunc) (see `_kept`); psi's own
    truncation order is fixed per object, so it is not in the key.
    """
    return _kept(psi, (t, Gamma, Gamma.trunc),
                 lambda: phi_frame_op(t, Gamma, gamma_bullet(psi, Gamma), psi.trunc))


def _gamma_forest(forest: Forest, psi: FormalDiffeo, Gamma: CurvatureFn) -> FrameFunction:
    """gamma_F(psi), the product of gamma_t(psi) over the trees t of F.

    psi' is cut at psi.trunc - 1, so every row of every gamma_t is cut at
    an order below psi.trunc (or psi is exact): only the empty forest
    needs the constant 1 at psi.trunc.
    """
    trees = forest.trees
    if not trees:
        return FrameFunction.constant(1, psi.trunc)
    out = gamma_t(trees[0], psi, Gamma)
    for t in trees[1:]:
        out = out * gamma_t(t, psi, Gamma)
    return out


def _phi_on(s: RootedTree, m: Monomial, Gamma: CurvatureFn) -> FrameFunction:
    """phi_s(m.f) for the frame field cut at m's order, kept on m."""
    trunc = m.f.trunc
    if trunc is None:
        trunc = m.psi.trunc
    return _kept(m, (_phi_on, s, Gamma, Gamma.trunc),
                 lambda: phi_frame_op(s, Gamma, m.f, trunc))


def _on_monomial(apply, x, m: Monomial, Gamma: CurvatureFn) -> Monomial:
    """apply(x, m, Gamma) for a combination x; for a tree or a forest x the
    result is kept on m (see `_kept`)."""
    if isinstance(x, (RootedTree, Forest)):
        return _kept(m, (apply, x, Gamma, Gamma.trunc), lambda: apply(LinComb.of(x), m, Gamma))
    return apply(x, m, Gamma)


def delta_t_apply(x, m: Monomial, Gamma: CurvatureFn) -> Monomial:
    """delta over a tree, forest, or linear combination; multiplication by gamma.

    Over a tree or a forest the result is kept on m (see `_kept`).
    """
    return _on_monomial(_delta_apply, x, m, Gamma)


def _delta_apply(x: LinComb, m: Monomial, Gamma: CurvatureFn) -> Monomial:
    gamma = lambda forest: _gamma_forest(forest, m.psi, Gamma)
    return Monomial(_linear_sum(x, gamma, FrameFunction.zero()) * m.f, m.psi)


def X_t_apply(x, m: Monomial, Gamma: CurvatureFn) -> Monomial:
    """The vector field X_t = phi^x(t) d_x + phi^z(t) d_z on a monomial.

    As an operator X_t is phi_{B+(t)}, so it reads the phi_s(m.f) kept on m.
    Extends linearly over combinations of single trees; the empty forest
    acts as the grading field Y.  Over a tree or a forest the result is kept
    on m (see `_kept`).
    """
    return _on_monomial(_X_apply, x, m, Gamma)


def _X_apply(x: LinComb, m: Monomial, Gamma: CurvatureFn) -> Monomial:
    def on_forest(forest: Forest) -> FrameFunction:
        if forest.is_empty():
            return Y_apply(m).f
        return _phi_on(RootedTree((_single_tree(forest, "X"),)), m, Gamma)    # B+(s)

    return Monomial(_linear_sum(x, on_forest, FrameFunction.zero()), m.psi)


def Y_apply(m: Monomial) -> Monomial:
    """The grading field Y = y d/dy, kept on m."""
    return _kept(m, Y_apply, lambda: Monomial(m.f.dz(), m.psi))


def first_mismatch(a: FrameFunction, b: FrameFunction):
    """The first retained jet coefficient where a and b differ, or None.

    This is the one walk that compares two frame functions, and so the one
    comparison of a relation's two sides: `eq_retained`, every `check_*`
    predicate, `CommutatorReport` and the cm suite read it.  Each row of
    the two int grids is cut at the common truncation order; y-degrees are
    visited in ascending order, and within each the x-orders, and a row
    present on one side only is compared against zeros.  The first
    difference comes back as (y_deg, x_order, got, want), got from a and
    want from b.
    """
    trunc = _min_trunc(a.trunc, b.trunc)
    n = None if trunc is None else trunc + 1
    ra, rb, da, db = a._rows, b._rows, a._den, b._den
    for k in sorted(ra.keys() | rb.keys()):
        x = ra[k][1][:n] if k in ra else ()
        y = rb[k][1][:n] if k in rb else ()
        for o, (p, q) in enumerate(itertools.zip_longest(x, y, fillvalue=0)):
            if p * db != q * da:
                return (k, o, Fraction(p, da), Fraction(q, db))
    return None


def check_delta_coproduct(t: RootedTree, a: Monomial, b: Monomial, Gamma: CurvatureFn) -> bool:
    """delta_t(ab) = sum over admissible cuts of delta_{P_c}(a) delta_{R_c}(b).

    delta over the empty forest acts as the identity.  Holds exactly for
    trees with at most two vertices and for every element of the
    delta_k-generated subalgebra; fails tree-by-tree from three vertices
    on (see check_delta_coproduct_lincomb for the statement that holds).
    """
    return first_mismatch(*delta_coproduct_sides(LinComb.of(t), a, b, Gamma)) is None


def _cut_sum(x: LinComb, psi: FormalDiffeo, right, Gamma: CurvatureFn,
             proper: bool = False) -> FrameFunction:
    """sum_P gamma_P(psi) L(sum_R c right(R)) over the terms c (P | R) of Delta(x).

    L is the lift of psi.  The terms are grouped by their left leg P, so
    each group is lifted once; `proper` leaves out the terms with P = 1.
    """
    groups: dict[Forest, FrameFunction] = {}
    for (fl, fr), c in coproduct(x).terms.items():
        if proper and fl.is_empty():
            continue
        term = right(fr).scale(c)
        groups[fl] = groups[fl] + term if fl in groups else term
    out = FrameFunction.zero()
    for fl, inner in groups.items():
        out = out + _gamma_forest(fl, psi, Gamma) * lift_apply(psi, inner)
    return out


def delta_coproduct_sides(x: LinComb, a: Monomial, b: Monomial,
                          Gamma: CurvatureFn) -> tuple[FrameFunction, FrameFunction]:
    """Both sides of the delta coproduct identity, as function parts.

    delta_P is multiplication by gamma_P and the lift L = lift(psi_a) is a
    ring homomorphism, so the right side, sum over c (P | R) of
    c (delta_P(a) delta_R(b)).f, is a.f L(b.f) sum_P gamma_P(psi_a)
    L(sum_R c gamma_R(psi_b)).
    """
    lhs = delta_t_apply(x, monomial_product(a, b), Gamma).f
    cuts = _cut_sum(x, a.psi, lambda fr: _gamma_forest(fr, b.psi, Gamma), Gamma)
    return lhs, a.f * lift_apply(a.psi, b.f) * cuts


def check_delta_coproduct_lincomb(x: LinComb, a: Monomial, b: Monomial,
                                  Gamma: CurvatureFn) -> bool:
    """The coproduct identity for delta over a linear combination of forests."""
    return first_mismatch(*delta_coproduct_sides(x, a, b, Gamma)) is None


def check_X_coproduct(t: RootedTree, a: Monomial, b: Monomial, Gamma: CurvatureFn) -> bool:
    """X_t(ab) = X_t(a) b + sum over cuts of delta_{P_c}(a) X_{R_c}(b).

    The empty cut contributes a X_t(b) and the full cut delta_t(a) Y(b).
    Holds exactly for the single vertex; for larger trees no assignment
    of multiplication-operator symbols can satisfy it (the x- and
    z-components of the transfer force incompatible values), so this
    returns False from two vertices on.
    """
    return first_mismatch(*X_coproduct_sides(t, a, b, Gamma)) is None


def X_coproduct_sides(t: RootedTree, a: Monomial, b: Monomial,
                      Gamma: CurvatureFn) -> tuple[FrameFunction, FrameFunction]:
    """Both sides of the X coproduct identity, as function parts.

    With L = lift(psi_a), the right side is X_t(a).f L(b.f), plus
    a.f L(X_t(b).f) from the empty cut, plus a.f sum_{P != 1} gamma_P(psi_a)
    L(sum_R c X_R(b).f) over the terms c (P | R) of Delta(t).
    """
    lhs = X_t_apply(t, monomial_product(a, b), Gamma).f
    cuts = _cut_sum(LinComb.of(t), a.psi, lambda fr: X_t_apply(fr, b, Gamma).f, Gamma,
                    proper=True)
    rhs = X_t_apply(t, a, Gamma).f * lift_apply(a.psi, b.f) \
        + a.f * (lift_apply(a.psi, X_t_apply(t, b, Gamma).f) + cuts)
    return lhs, rhs


class CommutatorReport:
    """Outcome of the commutator-table checks on one instance, from its
    (relation, lhs, rhs) triples: one `first_mismatch` walk per relation."""

    def __init__(self, sides):
        self.results: dict[str, bool] = {}
        self.mismatches: dict[str, tuple] = {}
        for relation, lhs, rhs in sides:
            mismatch = first_mismatch(lhs, rhs)
            self.results[relation] = mismatch is None
            if mismatch is not None:
                self.mismatches[relation] = mismatch

    @property
    def ok(self) -> bool:
        return all(self.results.values())

    def __bool__(self) -> bool:
        return self.ok

    def failing(self) -> list[str]:
        return [r for r, v in self.results.items() if not v]


def commutator_sides(t: RootedTree, tp: RootedTree, m: Monomial,
                     Gamma: CurvatureFn) -> list[tuple[str, FrameFunction, FrameFunction]]:
    """The commutation relations of Y, X_t and delta_t on m, as (relation, lhs, rhs)."""
    xt = lambda mm: X_t_apply(t, mm, Gamma)
    xtp = lambda mm: X_t_apply(tp, mm, Gamma)
    dt = lambda mm: delta_t_apply(t, mm, Gamma)
    dtp = lambda mm: delta_t_apply(tp, mm, Gamma)
    phi_m = lambda x: _linear_sum(x, lambda forest: _phi_on(_single_tree(forest, "phi"), m, Gamma),
                                  FrameFunction.zero())

    return [
        ("[Y, X_t] = |t| X_t",
         Y_apply(xt(m)).f - xt(Y_apply(m)).f, xt(m).f.scale(t.vertex_count)),
        ("[X_t, delta_t'] = delta_{N_t(t')}",
         xt(dtp(m)).f - dtp(xt(m)).f, delta_t_apply(natural_growth(t, LinComb.of(tp)), m, Gamma).f),
        ("[Y, delta_t] = |t| delta_t",
         Y_apply(dt(m)).f - dt(Y_apply(m)).f, dt(m).f.scale(t.vertex_count)),
        ("[X_t, X_t'] = phi_{N_t(B+(t'))} - phi_{N_t'(B+(t))}",
         xt(xtp(m)).f - xtp(xt(m)).f,
         phi_m(natural_growth(t, LinComb.of(b_plus(Forest((tp,))))))
         - phi_m(natural_growth(tp, LinComb.of(b_plus(Forest((t,))))))),
        ("[delta_t, delta_t'] = 0", dt(dtp(m)).f - dtp(dt(m)).f, FrameFunction.zero()),
    ]


def check_commutators(t: RootedTree, tp: RootedTree, m: Monomial,
                      Gamma: CurvatureFn) -> CommutatorReport:
    """Verify the commutation relations of Y, X_t and delta_t on m."""
    return CommutatorReport(commutator_sides(t, tp, m, Gamma))


def delta_chain_sides(k: int, m: Monomial,
                      Gamma: CurvatureFn) -> tuple[FrameFunction, FrameFunction]:
    """Both sides of [X, delta-of-delta_k] = delta-of-delta_{k+1} (the classical ladder)."""
    lhs = X_t_apply(LEAF, delta_t_apply(delta_k(k), m, Gamma), Gamma).f \
        - delta_t_apply(delta_k(k), X_t_apply(LEAF, m, Gamma), Gamma).f
    return lhs, delta_t_apply(delta_k(k + 1), m, Gamma).f


def check_delta_chain(k: int, m: Monomial, Gamma: CurvatureFn) -> bool:
    """[X, delta-of-delta_k] = delta-of-delta_{k+1} (the classical ladder)."""
    return first_mismatch(*delta_chain_sides(k, m, Gamma)) is None


def delta_from_commutators(t: RootedTree, m: Monomial, Gamma: CurvatureFn) -> Monomial:
    """Compute delta_t(m) using only delta of the single vertex and commutators.

    Reads t's growth expression from `growth.decompose` and evaluates it
    through [X_u, delta_s] = delta_{N_u(s)}: the leaf is delta of the
    single vertex, N_u(e) is X_u delta_e - delta_e X_u, and a combination
    is summed in the order of its parts.
    """
    def delta(e: GrowthExpr, mm: Monomial) -> Monomial:
        if isinstance(e, GrowthLeaf):
            return delta_t_apply(LEAF, mm, Gamma)
        if isinstance(e, GrowthApply):
            out = X_t_apply(e.tree, delta(e.sub, mm), Gamma).f \
                - delta(e.sub, X_t_apply(e.tree, mm, Gamma)).f
        else:
            out = FrameFunction.zero()
            for c, sub in e.parts:
                out = out + delta(sub, mm).f.scale(c)
        return Monomial(out, mm.psi)

    return delta(decompose(t), m)


def cocycle_sides(psi: FormalDiffeo, eta: FormalDiffeo,
                  Gamma: CurvatureFn) -> tuple[FrameFunction, FrameFunction]:
    """Both sides of gamma(eta o psi) = gamma(psi) + gamma(eta) o lift(psi)."""
    lhs = gamma_bullet(eta.compose(psi), Gamma)
    return lhs, gamma_bullet(psi, Gamma) + lift_apply(psi, gamma_bullet(eta, Gamma))


def check_cocycle(psi: FormalDiffeo, eta: FormalDiffeo, Gamma: CurvatureFn) -> bool:
    """gamma(eta o psi) = gamma(psi) + gamma(eta) o lift(psi)."""
    return first_mismatch(*cocycle_sides(psi, eta, Gamma)) is None


def transferred_base_field(psi: FormalDiffeo, Gamma: CurvatureFn):
    """The flow field seen through the lift: (y psi'(x), y (psi''/psi' - Gamma))."""
    dpsi = psi.d()
    log_slope = dpsi.deriv(0) * dpsi.reciprocal()
    return (
        FrameFunction.y_times(dpsi),
        FrameFunction.y_times(log_slope - Gamma.with_trunc(psi.trunc)),
    )


def transferred_side(t: RootedTree, psi: FormalDiffeo, Gamma: CurvatureFn,
                     h: FrameFunction) -> FrameFunction:
    """phi_t(h o lift(psi)), the left side of the pushforward and cut expansions."""
    return phi_frame_op(t, Gamma, lift_apply(psi, h), psi.trunc)


def pushforward_rhs(t: RootedTree, psi: FormalDiffeo, Gamma: CurvatureFn,
                    h: FrameFunction) -> FrameFunction:
    """The product formula for phi_t(h o lift(psi)) over the transferred field.

    Contracts each branch's phi-operator applied to the transferred base
    field into target derivatives of h.  Exact for trees with at most two
    vertices; the transfer of deeper branch functions picks up
    non-tensorial cross terms, so it fails from three vertices on.
    """
    star = transferred_base_field(psi, Gamma)
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


def check_pushforward(t: RootedTree, psi: FormalDiffeo, Gamma: CurvatureFn,
                      h: FrameFunction) -> bool:
    """phi_t(h o lift(psi)) against the product formula over the transferred field."""
    return first_mismatch(transferred_side(t, psi, Gamma, h),
                          pushforward_rhs(t, psi, Gamma, h)) is None


def coprodcontrib_rhs(t: RootedTree, psi: FormalDiffeo, Gamma: CurvatureFn,
                      h: FrameFunction) -> FrameFunction:
    """The cut expansion of the transferred operator phi_t(h o lift(psi)):

    the sum over non-full admissible cuts of gamma_{P_c}(psi)
    (phi_{R_c} Y^{k_c} h) o lift(psi), where k_c counts cut edges at the
    root (the empty-forest leg acting as Y).  Exact for trees with at most
    two vertices; fails from three vertices on.
    """
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


def check_coprodcontrib(t: RootedTree, psi: FormalDiffeo, Gamma: CurvatureFn,
                        h: FrameFunction) -> bool:
    """Cut expansion of the transferred operator phi_t."""
    return first_mismatch(transferred_side(t, psi, Gamma, h),
                          coprodcontrib_rhs(t, psi, Gamma, h)) is None


def random_xseries(rng, trunc: int, min_degree: int = 0,
                   require_nonzero: int | None = None) -> MultiSeries:
    """Random jet with coefficients from {-2..2} scaled by 1/1..1/3."""
    terms = {}
    for k in range(min_degree, trunc + 1):
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        if k == require_nonzero and c <= 0:
            c = Fraction(rng.randint(1, 2), rng.randint(1, 3))
        if c:
            terms[(k,)] = c
    return MultiSeries(1, terms, trunc)


def random_diffeo(rng, trunc: int) -> FormalDiffeo:
    """Random orientation-preserving jet fixing the origin."""
    s = random_xseries(rng, trunc, min_degree=1, require_nonzero=1)
    return FormalDiffeo(s)


def random_frame_function(rng, trunc: int, max_y_degree: int = 2) -> FrameFunction:
    coeffs = {}
    for k in range(max_y_degree + 1):
        g = random_xseries(rng, trunc)
        if not g.is_zero():
            coeffs[k] = g
    if not coeffs:
        coeffs[0] = MultiSeries.constant(1, 1, trunc)
    return FrameFunction(coeffs)


def forced_vertex_symbols(psi: FormalDiffeo, Gamma: CurvatureFn):
    """The two values the single-vertex symbol would have to take.

    The one-vertex product rule forces gamma_bullet; the d/dx-component
    of the transferred two-vertex ladder operator forces the curvature
    part alone, y (psi' Gamma(psi) - Gamma).  The difference is exactly
    the flat cocycle y psi''/psi', which is why the cut-sum coproduct of
    X_t cannot hold for both sizes at once.
    """
    dpsi = psi.d()
    curvature_only = FrameFunction.y_times(
        dpsi * Gamma.compose1(psi.series) - Gamma.with_trunc(psi.trunc))
    flat = FrameFunction.y_times(dpsi.deriv(0) * dpsi.reciprocal())
    return gamma_bullet(psi, Gamma), curvature_only, flat


def parse_frame_function(text: str, trunc: int | None = None) -> FrameFunction:
    """Parse a polynomial in x and y, e.g. `y^2 x - y`, into a FrameFunction."""
    two_var = parse_polynomial(text, ["x", "y"], None)
    coeffs: dict[int, dict] = {}
    for (ex, ey), c in two_var.terms.items():
        coeffs.setdefault(ey, {})[(ex,)] = c
    return FrameFunction(
        {k: MultiSeries(1, terms, trunc) for k, terms in coeffs.items()}
    )
