"""Exact linear algebra over the rationals.

`Span` is one incremental, fraction-free echelon over sparse rows (after
Bareiss 1968).  A row maps hashable column keys to rational entries; a
sequence is read as index -> entry.  Each row is scaled to integers by the
lcm of the denominators of its nonzero entries, reduced against the kept
rows in insertion order by v = a v - c r with cofactors divided by their
gcd, but only against those whose pivot key it holds, and kept, divided by
its content, when it does not vanish; its pivot is the first key that
survives.  `add` and `contains` cost integer operations in proportion to
the nonzeros they touch, so a caller that tests many rows against one span
echelons it once.  `independent_rows` is a one-shot wrapper over a fresh
`Span`.  `rref` and `solve_consistent` are the general dense Fraction
Gauss-Jordan elimination and solver.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = ["rref", "Span", "independent_rows", "solve_consistent"]


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a copy of `rows`, with pivot columns."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    n_cols = len(m[0])
    pivots: list[int] = []
    piv_r = 0
    for col in range(n_cols):
        sel = None
        for r in range(piv_r, len(m)):
            if m[r][col]:
                sel = r
                break
        if sel is None:
            continue
        m[piv_r], m[sel] = m[sel], m[piv_r]
        inv = Fraction(1, 1) / m[piv_r][col]
        m[piv_r] = [v * inv for v in m[piv_r]]
        for r in range(len(m)):
            if r != piv_r and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[piv_r])]
        pivots.append(col)
        piv_r += 1
        if piv_r == len(m):
            break
    return m, pivots


class Span:
    """The rational span of the rows added so far, as a sparse int echelon.

    A row is a mapping from hashable column keys to `int` or `Fraction`
    entries, or a sequence, read as index -> entry; keys a row leaves out
    are zero.  Each kept row is (pivot key, {key: int}), nonzero entries
    only, divided by its content.  Which rows are kept, and what the span
    contains, do not depend on the order of the keys.
    """

    __slots__ = ("_echelon",)

    def __init__(self):
        self._echelon: list[tuple[object, dict]] = []

    def _reduce(self, row) -> dict:
        """The nonzero entries of `row`, cleared of denominators and
        eliminated against every kept pivot."""
        nonzero = [(k, x) for k, x in (row.items() if hasattr(row, "items") else enumerate(row))
                   if x]
        # Pairwise lcm and gcd: star-args would build, and the tuple free
        # lists keep, one argument tuple per row.
        den = 1
        for _, x in nonzero:
            if type(x) is not int:
                den = lcm(den, x.denominator)
        v = {k: x.numerator * (den // x.denominator) for k, x in nonzero}
        get = v.get
        for p, r in self._echelon:
            c = get(p)
            if c:
                a = r[p]
                g = gcd(a, c)
                a //= g
                c //= g
                if a != 1:
                    for k in v:
                        v[k] *= a
                for k, y in r.items():
                    x = get(k, 0) - c * y
                    if x:
                        v[k] = x
                    else:
                        del v[k]
        return v

    def add(self, row) -> bool:
        """Keep `row` unless it already lies in the span; True if kept."""
        v = self._reduce(row)
        if not v:
            return False
        g = 0
        for y in v.values():
            g = gcd(g, y)
            if g == 1:
                break
        self._echelon.append((next(iter(v)), {k: y // g for k, y in v.items()}))
        return True

    def contains(self, row) -> bool:
        """True iff `row` is a rational linear combination of the kept rows."""
        return not self._reduce(row)


def independent_rows(rows) -> list[int]:
    """Indices of a maximal independent subset, scanning in order."""
    span = Span()
    return [i for i, row in enumerate(rows) if span.add(row)]


def solve_consistent(a: list[list[Fraction]], b: list[Fraction]):
    """Solve A x = b exactly; returns one solution or None if inconsistent."""
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    aug = [list(a[r]) + [b[r]] for r in range(n_rows)]
    reduced, pivots = rref(aug)
    if n_cols in pivots:
        return None
    x = [Fraction(0)] * n_cols
    for r, col in enumerate(pivots):
        x[col] = reduced[r][-1]
    return x
