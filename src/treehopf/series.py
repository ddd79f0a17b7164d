"""Truncated multivariate power series with exact rational coefficients.

A series carries a truncation order `trunc` (total degree); `trunc=None`
marks an exact polynomial.  Arithmetic propagates the truncation: sums
and products keep the weaker truncation, a partial derivative lowers it
by one.  This makes "requesting deeper truncation never changes retained
coefficients" automatic.

Every series computes on int numerators over one common denominator,
reduced by their content gcd so that the denominator is the lcm of the
coefficient denominators: a dense list of trunc+1 numerators (degree+1
for an exact polynomial) in one variable, a dict exponent -> nonzero
numerator in several.  The public dict of Fractions, `terms`, is built
from it on first read; `sorted_terms`, by degree then exponent, is the one
order of the printed and JSON forms.  Each y^k row of a frame.FrameFunction
takes the same univariate jet steps from here: `_trim`, `_scaled_sum`,
`_content`, `_over_lcm` and the order rule of a derivative, `_deriv_trunc`.
A negation is the scaling by -1.  Composition g o psi is linear in g, with
matrix the power table [x^i] psi^k, which the inner series keeps once
built; the compositional inverse comes from Lagrange inversion,
[x^n] psi^-1 = (1/n) [x^(n-1)] (x/psi)^n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import add

from .trees import (_Immutable, _ParseError, _digits_end, _rational_at, _sign_at, _signed_sum,
                    _skip_ws)

__all__ = [
    "MultiSeries",
    "VectorField",
    "ODEProblem",
    "TruncationError",
    "SeriesParseError",
    "series_solve",
    "parse_polynomial",
    "parse_vector_field",
]


class TruncationError(ValueError):
    """A computation needs more retained orders than the input carries."""


class SeriesParseError(_ParseError):
    """Raised on malformed polynomial or vector-field text."""


def _min_trunc(a: int | None, b: int | None) -> int | None:
    """The lower of two truncation orders, None (exact) counting as infinite."""
    return b if a is None else a if b is None else min(a, b)


def _deriv_trunc(trunc: int | None) -> int | None:
    """A derivative's order: one below trunc; TruncationError if no order is left."""
    if trunc is not None and trunc < 1:
        raise TruncationError("derivative exhausted the retained orders")
    return None if trunc is None else trunc - 1


def _trim(nums: list) -> list:
    """An exact jet without its trailing zeros, cut by a slice, never a pop: another
    object may hold nums (`FrameFunction.coeffs` passes grid rows to `_from_nums`).
    The one divergence left (ROADMAP item 9): a frame row zero through its order
    is dropped, while a MultiSeries keeps a truncated zero."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    return nums if n == len(nums) else nums[:n]


def _scaled_sum(a: list, b: list, ma: int, mb: int, trunc: int | None) -> list:
    """ma a + mb b cut at trunc; a cut jet has trunc+1 entries, an exact one may be shorter."""
    n = max(len(a), len(b)) if trunc is None else trunc + 1
    return [x * ma + y * mb for x, y in zip_longest(a[:n], b[:n], fillvalue=0)]


def _content(den: int, rows) -> int:
    """gcd(den, every numerator of the rows (trunc, nums)); stops once it reaches 1."""
    for _, nums in rows:
        if den == 1:
            break
        den = gcd(den, *nums)
    return den


def _over_lcm(rows: dict) -> tuple[dict, int]:
    """Rows k -> (trunc, nums, d) over the lcm of their d: (k -> (trunc, nums), lcm)."""
    den = lcm(*(d for _, _, d in rows.values()))
    return {k: (t, nums if d == den else [v * (den // d) for v in nums])
            for k, (t, nums, d) in rows.items()}, den


def _conv(a: list, b: list, n: int | None, out: list | None = None) -> list:
    """Product of two dense jets (int or Fraction entries), cut to n entries (n=None: exact).

    Given `out` (at least n entries), the product is added into it.  The
    outer loop skips its zero entries and runs over the factor whose
    nonzero entries times the other's length is the smaller, so a product
    costs at most min(nz(a)*len(b), nz(b)*len(a)) multiplications: a jet
    with one nonzero entry times a jet of m entries costs at most m in
    either order.  The sums are exact, so the order of the factors never
    changes an entry.
    """
    if n is None:
        n = len(a) + len(b) - 1 if a and b else 0
    if out is None:
        out = [0] * n
    if (len(a) - a.count(0)) * len(b) > (len(b) - b.count(0)) * len(a):
        a, b = b, a
    for i in range(min(len(a), n)):
        ai = a[i]
        if ai:
            k = i
            for bj in b[:n - i]:
                out[k] += ai * bj
                k += 1
    return out


def _unit_inverse(p: list[int], n: int) -> list[int]:
    """q with 1/P = sum_k q[k] x^k / p[0]^(k+1) mod x^n, for an int jet P with p[0] != 0."""
    p0 = p[0]
    w = [p[j] * p0 ** (j - 1) for j in range(1, min(len(p), n))]
    q = [1]
    for k in range(1, n):
        q.append(-sum(w[j] * q[k - 1 - j] for j in range(min(k, len(w)))))
    return q


def _compose(g: list[int], inner: "MultiSeries", trunc: int | None) -> tuple[list[int], int]:
    """g o inner at trunc, for the numerators g of the outer series: (out, den).

    The composition is out over den times the outer series' own
    denominator.  Sums g_k inner^k over the rows of the power table that
    `inner` keeps; inner has zero constant term, so inner^k = O(x^k) and
    row k is read from index k on, past its k leading zeros.
    """
    top = len(g) if trunc is None else min(len(g), trunc + 1)
    if not top:
        return [0] * (0 if trunc is None else trunc + 1), 1
    rows, d = inner._power_rows(top - 1)
    width = max(map(len, rows[:top])) if trunc is None else trunc + 1
    out = [0] * width
    weight = 1                      # d^(top-1-k): row k is over d^k
    for k in range(top - 1, -1, -1):
        c = g[k] * weight
        if c:
            for i, v in enumerate(rows[k][k:width], k):
                if v:
                    out[i] += c * v
        weight *= d
    return out, weight // d


class MultiSeries:
    """Sparse exponent-map series in `nvars` variables."""

    # _nums, _den: the working form (see the module docstring), built from
    # _terms on first use, not in __init__: a parsed `x1^10000000000` stays one
    # term that `cli` refuses with exit 2, not 10^10 numerators that raise
    # MemoryError while parsing.  _terms is built from it on first read.
    # _powers: rows of the power table of a composition's inner series,
    # row k holding the numerators of self^k over _den^k.
    # _hash: the hash, computed on first use (a series is never mutated).
    # _ops: what the frame module keeps on a curvature series, made on first
    # use (see frame._kept).
    __slots__ = ("nvars", "trunc", "_terms", "_nums", "_den", "_powers", "_hash", "_ops")

    def __init__(self, nvars: int, terms=None, trunc: int | None = None):
        self.nvars = nvars
        self.trunc = trunc
        self._nums = self._powers = self._hash = self._ops = None
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for expo, coeff in (terms.items() if isinstance(terms, dict) else terms):
                expo = tuple(expo)
                if len(expo) != nvars:
                    raise ValueError(f"exponent {expo} has wrong arity for {nvars} variables")
                if trunc is not None and sum(expo) > trunc:
                    continue
                coeff = Fraction(coeff)
                if coeff:
                    s = clean.get(expo, 0) + coeff
                    if s:
                        clean[expo] = s
                    else:
                        clean.pop(expo, None)
        self._terms = clean

    @classmethod
    def _raw(cls, nvars: int, terms, trunc: int | None, nums=None, den: int = 1) -> "MultiSeries":
        """Internal constructor: normalized terms, or a reduced working form nums over den."""
        out = cls.__new__(cls)
        out.nvars, out.trunc, out._terms, out._nums, out._den = nvars, trunc, terms, nums, den
        out._powers = out._hash = out._ops = None
        return out

    @classmethod
    def _from_nums(cls, nvars: int, nums, den: int, trunc: int | None) -> "MultiSeries":
        """Series from int numerators over den > 0 in the layout of _nums, reduced."""
        if nvars == 1 and trunc is None:
            nums = _trim(nums)
        g = _content(den, ((trunc, nums if nvars == 1 else nums.values()),))
        if g > 1:
            den //= g
            nums = [v // g for v in nums] if nvars == 1 else {e: v // g for e, v in nums.items()}
        return cls._raw(nvars, None, trunc, nums, den)

    def _jet(self):
        """The working form: (numerators, common denominator)."""
        if self._nums is None:
            terms = self._terms
            den = lcm(*(c.denominator for c in terms.values()))
            if self.nvars != 1:
                nums = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
            else:
                top = self.trunc if self.trunc is not None else max((k for (k,) in terms), default=-1)
                nums = [0] * (top + 1)
                for (k,), c in terms.items():
                    nums[k] = c.numerator * (den // c.denominator)
            self._nums, self._den = nums, den
        return self._nums, self._den

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """The coefficients as a dict exponent -> Fraction, built on first read."""
        terms = self._terms
        if terms is None:
            nums, den = self._nums, self._den
            if self.nvars == 1:
                terms = {(k,): Fraction(v, den) for k, v in enumerate(nums) if v}
            else:
                terms = {e: Fraction(v, den) for e, v in nums.items()}
            self._terms = terms
        return terms

    def _power_rows(self, top: int) -> tuple[list[list[int]], int]:
        """Rows 0..top (at least) of the power table, and the denominator d of row 1."""
        a, d = self._jet()
        rows = self._powers
        if rows is None:
            rows = self._powers = [[1] + [0] * self.trunc if self.trunc is not None else [1]]
        n = None if self.trunc is None else self.trunc + 1
        while len(rows) <= top:
            rows.append(_conv(rows[-1], a, n))
        return rows, d

    @staticmethod
    def zero(nvars: int, trunc: int | None = None) -> "MultiSeries":
        return MultiSeries(nvars, {}, trunc)

    @staticmethod
    def constant(nvars: int, value, trunc: int | None = None) -> "MultiSeries":
        return MultiSeries(nvars, {(0,) * nvars: Fraction(value)}, trunc)

    @staticmethod
    def variable(nvars: int, i: int, trunc: int | None = None) -> "MultiSeries":
        expo = tuple(1 if j == i else 0 for j in range(nvars))
        return MultiSeries(nvars, {expo: Fraction(1)}, trunc)

    def with_trunc(self, trunc: int | None) -> "MultiSeries":
        if _min_trunc(self.trunc, trunc) == self.trunc:
            return self
        return self + MultiSeries.zero(self.nvars, trunc)

    def is_zero(self) -> bool:
        if self._nums is None:
            return not self._terms
        return not (any(self._nums) if self.nvars == 1 else self._nums)

    def __add__(self, other: "MultiSeries", sign: int = 1) -> "MultiSeries":
        """self + sign * other, over the lcm of the two denominators."""
        trunc = _min_trunc(self.trunc, other.trunc)
        a, da = self._jet()
        b, db = other._jet()
        g = gcd(da, db)
        ma, mb, den = db // g, sign * (da // g), da // g * db
        if self.nvars == 1:
            return MultiSeries._from_nums(1, _scaled_sum(a, b, ma, mb, trunc), den, trunc)
        out = {e: v * ma for e, v in a.items()}
        for e, v in b.items():
            out[e] = out.get(e, 0) + v * mb
        cut = trunc is not None and (trunc != self.trunc or trunc != other.trunc)
        out = {e: v for e, v in out.items() if v and not (cut and sum(e) > trunc)}
        return MultiSeries._from_nums(self.nvars, out, den, trunc)

    def __neg__(self) -> "MultiSeries":
        """-self: the scaling by -1."""
        return self.scale(-1)

    def __sub__(self, other: "MultiSeries") -> "MultiSeries":
        return self.__add__(other, -1)

    def scale(self, c) -> "MultiSeries":
        if c == 1:                  # a series is never mutated
            return self
        if not isinstance(c, int):
            c = Fraction(c)
        if not c:
            return MultiSeries.zero(self.nvars, self.trunc)
        a, den = self._jet()
        g = gcd(c.numerator, den)
        p = c.numerator // g
        a = [v * p for v in a] if self.nvars == 1 else {e: v * p for e, v in a.items()}
        return MultiSeries._from_nums(self.nvars, a, den // g * c.denominator, self.trunc)

    def __mul__(self, other: "MultiSeries") -> "MultiSeries":
        """The product at the weaker truncation.  In several variables every two
        terms are paired, with no degree sort, and the pairs past trunc are dropped."""
        trunc = _min_trunc(self.trunc, other.trunc)
        a, da = self._jet()
        b, db = other._jet()
        if self.nvars == 1:
            return MultiSeries._from_nums(
                1, _conv(a, b, None if trunc is None else trunc + 1), da * db, trunc)
        out: dict[tuple[int, ...], int] = {}
        bs = b.items()
        for e1, v1 in a.items():
            for e2, v2 in bs:
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + v1 * v2
        return MultiSeries._from_nums(
            self.nvars, {e: v for e, v in out.items() if v and (trunc is None or sum(e) <= trunc)},
            da * db, trunc)

    def deriv(self, i: int) -> "MultiSeries":
        """d/dx_i, one order lower (see `_deriv_trunc`)."""
        trunc = _deriv_trunc(self.trunc)
        a, den = self._jet()
        if self.nvars == 1:
            out = [k * a[k] for k in range(1, len(a))]
        else:
            out = {e[:i] + (e[i] - 1,) + e[i + 1:]: v * e[i] for e, v in a.items() if e[i]}
        return MultiSeries._from_nums(self.nvars, out, den, trunc)

    def eval0(self) -> Fraction:
        a, den = self._jet()
        v = (a[0] if a else 0) if self.nvars == 1 else a.get((0,) * self.nvars, 0)
        return Fraction(v, den)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def eq_retained(self, other: "MultiSeries") -> bool:
        """Equality up to the common truncation order."""
        return (self - other).is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiSeries)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return h

    # Univariate helpers (nvars == 1) used by the frame-bundle model.

    def coeff(self, k: int) -> Fraction:
        if self.nvars != 1:
            raise ValueError(f"coeff needs a series in one variable, not {self.nvars}")
        a, den = self._jet()
        return Fraction(a[k], den) if 0 <= k < len(a) else Fraction(0)

    def compose1(self, inner: "MultiSeries") -> "MultiSeries":
        """Substitute a one-variable series with zero constant term.

        Two exact polynomials compose to an exact polynomial; otherwise
        the weaker truncation is kept.  Sums g_k psi^k over the rows of
        the inner series' power table.
        """
        if self.nvars != 1 or inner.nvars != 1:
            raise ValueError("compose1 needs two series in one variable")
        if inner.eval0() != 0:
            raise ValueError("composition requires zero constant term")
        trunc = _min_trunc(self.trunc, inner.trunc)
        g, gden = self._jet()
        out, den = _compose(g, inner, trunc)
        return MultiSeries._from_nums(1, out, gden * den, trunc)

    def reciprocal(self) -> "MultiSeries":
        """Inverse of a one-variable unit series, to the retained order."""
        if self.nvars != 1:
            raise ValueError(f"reciprocal needs a series in one variable, not {self.nvars}")
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
        # 1/(p/den) = den q[k] / p0^(k+1); bring every entry over p0^(trunc+1).
        p, den = self._jet()
        p0 = p[0]
        q = _unit_inverse(p, trunc + 1)
        sign = 1 if p0 > 0 else -1
        nums = [sign * den * v * p0 ** (trunc - k) for k, v in enumerate(q)]
        return MultiSeries._from_nums(1, nums, sign * p0 ** (trunc + 1), trunc)

    def reversion(self) -> "MultiSeries":
        """Compositional inverse of a one-variable series with nonzero slope."""
        if self.nvars != 1:
            raise ValueError(f"reversion needs a series in one variable, not {self.nvars}")
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
        # Lagrange: [x^n] psi^-1 = (1/n) [x^(n-1)] (x/psi)^n.  With
        # psi = x P(x)/den and 1/P(x) = Q(x/a1)/a1 for an int jet Q, this is
        # den^n [y^(n-1)] Q^n / (n a1^(2n-1)).
        a, den = self._jet()
        a1 = a[1]
        q = _unit_inverse(a[1:], trunc)
        terms = {}
        power = [1] + [0] * (trunc - 1)
        for n in range(1, trunc + 1):
            power = _conv(power, q, trunc)
            if power[n - 1]:
                terms[(n,)] = Fraction(den ** n * power[n - 1], n * a1 ** (2 * n - 1))
        return MultiSeries._raw(1, terms, trunc)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """The terms by total degree, then exponent: the order every printed series uses."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self) -> str:
        names = ["x"] if self.nvars == 1 else [f"x{i+1}" for i in range(self.nvars)]
        bits = []
        for e, c in self.sorted_terms():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            mag = abs(c)
            bits.append((c, " ".join([str(mag)] + factors) if (mag != 1 or not factors)
                         else " ".join(factors)))
        return _signed_sum(bits)

    def __repr__(self) -> str:
        return f"MultiSeries({str(self)!r}, trunc={self.trunc})"


class VectorField(_Immutable):
    """An ODE right-hand side: one series per coordinate.

    Immutable once built.  `_phi` memoizes the elementary differentials of
    this field by tree (see the butcher module); it lives and dies with the
    field, so `with_trunc` starts an empty one.
    """

    __slots__ = ("components", "_phi")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("a vector field needs at least one component")
        n = components[0].nvars
        if len(components) != n:
            raise ValueError(f"{len(components)} components for {n} variables")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_phi", {})

    @property
    def nvars(self) -> int:
        return len(self.components)

    @property
    def trunc(self) -> int | None:
        t = None
        for c in self.components:
            t = _min_trunc(t, c.trunc)
        return t

    def with_trunc(self, trunc: int | None) -> "VectorField":
        return VectorField(tuple(c.with_trunc(trunc) for c in self.components))

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorField) and self.components == other.components


class ODEProblem:
    """Formal initial value problem at the jet origin."""

    __slots__ = ("field", "taylor_order")

    def __init__(self, field: VectorField, taylor_order: int):
        if taylor_order < 1:
            raise ValueError("taylor_order must be >= 1")
        if field.trunc is not None and taylor_order > field.trunc:
            raise TruncationError(
                f"taylor order {taylor_order} exceeds field truncation {field.trunc}"
            )
        self.field = field
        self.taylor_order = taylor_order


def series_solve(p: ODEProblem) -> list[list[Fraction]]:
    """Taylor coefficients of the formal flow through the origin.

    Returns coefficient vectors c_0 .. c_K with x^i(s) = sum_k c_k[i] s^k;
    the step is c_{k+1} = (s^k coefficient of f(x(s))) / (k+1).
    """
    coeffs: list[list[Fraction]] = [[Fraction(0)] * p.field.nvars]
    for k in range(p.taylor_order):
        coeffs.append([c / (k + 1) for c in _eval_field_on_jet(p.field, coeffs, k)])
    return coeffs


def _eval_field_on_jet(field: VectorField, coeffs: list[list[Fraction]], order: int) -> list[Fraction]:
    """The s^order coefficient of f(x(s)) for the partial jet x(s).

    x(0) = 0, so a monomial of total degree above `order` is O(s^(order+1))
    and contributes nothing: its powers are never built.
    """
    jets = list(zip(*coeffs))       # jets[i][k] = coeffs[k][i]
    out = []
    for comp in field.components:
        acc = Fraction(0)
        for expo, c in comp.terms.items():
            if sum(expo) > order:
                continue
            prod = [Fraction(1)] + [Fraction(0)] * order
            for i, e in enumerate(expo):
                for _ in range(e):
                    prod = _conv(prod, jets[i], order + 1)
            acc += c * prod[order]
        out.append(acc)
    return out


def parse_polynomial(text: str, var_names: list[str], trunc: int | None = None) -> MultiSeries:
    """Parse a polynomial like `x2 + 1/2 x1^2 - 3 x1 x2` exactly."""
    n = len(var_names)
    longest_first = sorted(enumerate(var_names), key=lambda kv: -len(kv[1]))
    terms = []
    pos = _skip_ws(text, 0)
    if pos == len(text):
        raise SeriesParseError("empty polynomial", text, pos)
    sign, pos = _sign_at(text, pos)
    while True:
        coeff = Fraction(1)
        expo = [0] * n
        saw_factor = False
        while pos < len(text) and text[pos] not in "+-":
            if text[pos] == "*":
                pos = _skip_ws(text, pos + 1)
                continue
            if text[pos].isdigit():
                value, pos = _rational_at(text, pos, SeriesParseError, "malformed rational")
                coeff *= value
            else:
                matched = next((i for i, name in longest_first if text.startswith(name, pos)), None)
                if matched is None:
                    raise SeriesParseError("unknown symbol", text, pos)
                pos += len(var_names[matched])
                power = 1
                if text.startswith("^", pos):
                    start, pos = pos + 1, _digits_end(text, pos + 1)
                    if pos == start:
                        raise SeriesParseError("expected exponent", text, pos)
                    try:
                        power = int(text[start:pos])
                    except ValueError:  # `str.isdigit` digits that are not decimal, like `²`
                        raise SeriesParseError("malformed exponent", text, start) from None
                expo[matched] += power
            saw_factor = True
            pos = _skip_ws(text, pos)
        if not saw_factor:
            raise SeriesParseError("expected a term", text, pos)
        terms.append((expo, sign * coeff))
        if pos == len(text):
            return MultiSeries(n, terms, trunc)
        sign, pos = _sign_at(text, pos)


def parse_vector_field(text: str, trunc: int | None = None) -> VectorField:
    """Parse lines `f1 = ...` .. `fn = ...` over variables x1..xn."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise SeriesParseError("empty vector field", text, 0)
    n = len(lines)
    names = [f"x{i+1}" for i in range(n)]
    comps: list[MultiSeries | None] = [None] * n
    for ln in lines:
        if "=" not in ln:
            raise SeriesParseError("expected `fi = polynomial`", ln, 0)
        lhs, rhs = ln.split("=", 1)
        lhs = lhs.strip()
        # `int` reads decimal digits only: `str.isdigit` would pass `f²` to it.
        if not (lhs.startswith("f") and lhs[1:].isdecimal()):
            raise SeriesParseError("component must be named f1..fn", ln, 0)
        idx = int(lhs[1:]) - 1
        if not 0 <= idx < n:
            raise SeriesParseError(f"component {lhs} out of range for {n} lines", ln, 0)
        comps[idx] = parse_polynomial(rhs.strip(), names, trunc)
    if any(c is None for c in comps):
        raise SeriesParseError("missing component definition", text, 0)
    return VectorField(tuple(comps))
