"""Generation of trees by natural growth, fan graphs, and sub-Hopf algebras.

Growth expressions are frozen records (equal and hashed by their fields);
the graded basis and the closure report are mutable, unhashable records.
Both kinds are `__slots__` classes on the small record bases of `trees`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .hopf import LinComb, Tensor2, coproduct, natural_growth
from .linalg import Span, independent_rows
from .trees import (EMPTY_FOREST, LEAF, Forest, RootedTree, TreeParseError, _expect, _expect_end,
                    _FrozenRecord, _parse_tree_at, _rational_at, _Record, _sign_at, _signed_sum,
                    _skip_ws, _sort_key, b_plus)

__all__ = [
    "GrowthExpr",
    "GrowthLeaf",
    "GrowthApply",
    "GrowthCombo",
    "decompose",
    "eval_growth_expr",
    "fan_graph",
    "fan_coproduct",
    "fan_closed_form_report",
    "GradedBasis",
    "generate_subalgebra",
    "ClosureReport",
    "closure_check",
    "parse_growth_expr",
]


class GrowthExpr(_FrozenRecord):
    """Expression over the leaf, N_t applications, and rational combinations."""

    __slots__ = ()


class GrowthLeaf(GrowthExpr):
    """The single vertex."""

    __slots__ = ()

    def __str__(self) -> str:
        return "."


class GrowthApply(GrowthExpr):
    """N_tree applied to the expression `sub`."""

    __slots__ = ("tree", "sub")

    def __init__(self, tree: RootedTree, sub: GrowthExpr):
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "sub", sub)

    def __str__(self) -> str:
        return f"N{{{self.tree.serial}}}({self.sub})"


class GrowthCombo(GrowthExpr):
    """The rational combination sum of coeff * expr over `parts`."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[Fraction, GrowthExpr], ...]):
        object.__setattr__(self, "parts", parts)

    def __str__(self) -> str:
        # A zero coefficient is not positive, so it prints as `- 0`.
        return _signed_sum([(coeff, f"{abs(coeff)} ({expr})" if isinstance(expr, GrowthCombo)
                             else f"{abs(coeff)} {expr}") for coeff, expr in self.parts])


def eval_growth_expr(e: GrowthExpr) -> LinComb:
    """Evaluate: the leaf is the single vertex, N_t via natural growth."""
    if isinstance(e, GrowthLeaf):
        return LinComb.of(LEAF)
    if isinstance(e, GrowthApply):
        return natural_growth(e.tree, eval_growth_expr(e.sub))
    if isinstance(e, GrowthCombo):
        return LinComb((f, coeff * c) for coeff, sub in e.parts
                       for f, c in eval_growth_expr(sub).terms.items())
    raise TypeError(f"not a growth expression: {type(e).__name__}")


_decompose_memo: dict[RootedTree, GrowthExpr] = {}


def decompose(t: RootedTree) -> GrowthExpr:
    """Write t as iterated natural growth applied to the single vertex.

    Follows the induction on root fertility: with t = B_+(rest, t_m) for
    t_m the largest root child,

        t = N_{t_m}(B_+(rest)) - sum_i B_+(rest with rest_i grown by t_m),

    and each correction tree has smaller root fertility, so the recursion
    terminates.  Decompositions are not unique; this returns the proof's.
    """
    cached = _decompose_memo.get(t)
    if cached is not None:
        return cached
    if t == LEAF:
        return GrowthLeaf()
    t_m = t.children[0]  # canonical storage is largest-first
    rest = t.children[1:]
    base = RootedTree(rest)
    main = GrowthApply(t_m, decompose(base))
    parts: list[tuple[Fraction, GrowthExpr]] = [(Fraction(1), main)]
    for i, part in enumerate(rest):
        others = rest[:i] + rest[i + 1:]
        grown = natural_growth(t_m, LinComb.of(part))
        for forest, coeff in grown.sorted_terms():
            correction = b_plus(Forest(others) * forest)
            parts.append((-coeff, decompose(correction)))
    expr: GrowthExpr = main if len(parts) == 1 else GrowthCombo(tuple(parts))
    _decompose_memo[t] = expr
    return expr


def fan_graph(i: int) -> RootedTree:
    """The fan F_i: i vertices, i-1 leaves all attached to the root."""
    if i < 1:
        raise ValueError(f"fan index must be >= 1, got {i}")
    return b_plus(Forest((LEAF,) * (i - 1)))


def fan_coproduct(n: int) -> Tensor2:
    """Coproduct of the fan F_n, computed from the cut sum."""
    return coproduct(LinComb.of(fan_graph(n)))


def fan_closed_form_report(n: int) -> dict:
    """Compare Delta(F_n) with the binomial closed form.

    The closed form checked is
        Delta F_n = 1 (x) F_n + F_n (x) 1
                    + sum_{i=1}^{n-1} C(n-1, i) dot^i (x) F_{n-i},
    where dot^i is the forest of i single vertices.  The report records
    whether the right leg realizes F_{n-i} or F_{n-i-1}.
    """
    computed = fan_coproduct(n)

    def closed(sub: int) -> Tensor2 | None:
        out = Tensor2.of(EMPTY_FOREST, fan_graph(n).forest)
        out = out + Tensor2.of(fan_graph(n).forest, EMPTY_FOREST)
        for i in range(1, n):
            k = n - i if sub == 0 else n - i - 1
            if k < 1:
                return None
            dots = Forest((LEAF,) * i)
            out = out + Tensor2.of(dots, fan_graph(k).forest, comb(n - 1, i))
        return out

    with_n_minus_i = closed(0)
    with_paper = closed(1)
    binomials = {}
    for (left, right), coeff in computed.terms.items():
        if left.trees and all(t == LEAF for t in left.trees) and not right.is_empty():
            binomials[left.degree] = coeff
    return {
        "n": n,
        "computed": computed,
        "matches_f_n_minus_i": computed == with_n_minus_i,
        "matches_paper_f_n_minus_i_minus_1": with_paper is not None and computed == with_paper,
        "binomial_coefficients": binomials,
        "expected_binomials": {i: comb(n - 1, i) for i in range(1, n)},
    }


class GradedBasis(_Record):
    """Per-degree spanning bases of a growth subalgebra A_S."""

    __slots__ = ("generators", "max_degree", "by_degree")

    def __init__(self, generators: tuple[RootedTree, ...], max_degree: int,
                 by_degree: dict[int, list[LinComb]]):
        self.generators = generators
        self.max_degree = max_degree
        self.by_degree = by_degree

    def degree_span(self, d: int) -> list[LinComb]:
        if d == 0:
            return [LinComb.unit()]
        return self.by_degree.get(d, [])


def generate_subalgebra(S, max_degree: int) -> GradedBasis:
    """Spanning bases for A_S = Q[S][iterated N_t growths], degree by degree.

    Iterated growth words N_{t_n}(...(N_{t_1}(s))...) with s, t_i in S are
    enumerated breadth-first by degree, then closed under products, and
    each graded component is reduced to an independent basis by exact row
    reduction.
    """
    gens = tuple(sorted(set(S)))
    if not gens:
        raise ValueError("generating set must be non-empty")
    if max_degree < max(t.vertex_count for t in gens):
        raise ValueError("max_degree must cover the generating set")

    atoms: list[LinComb] = [LinComb.of(t) for t in gens]
    frontier = list(atoms)
    while frontier:
        new_frontier = []
        for elem in frontier:
            deg = elem.homogeneous_degree()
            for t in gens:
                if deg + t.vertex_count <= max_degree:
                    grown = natural_growth(t, elem)
                    if grown:
                        atoms.append(grown)
                        new_frontier.append(grown)
        frontier = new_frontier

    # Products of atoms, by multisets with bounded total degree.
    products: dict[int, list[LinComb]] = {d: [] for d in range(1, max_degree + 1)}
    degrees = [a.homogeneous_degree() for a in atoms]

    def extend(start: int, current: LinComb, degree: int):
        products[degree].append(current)
        for j in range(start, len(atoms)):
            d = degrees[j]
            if degree + d <= max_degree:
                extend(j, current * atoms[j], degree + d)

    for j, atom in enumerate(atoms):
        extend(j, atom, degrees[j])

    by_degree: dict[int, list[LinComb]] = {}
    for d in range(1, max_degree + 1):
        elems = products[d]
        by_degree[d] = [elems[i] for i in independent_rows([e.terms for e in elems])]
    return GradedBasis(generators=gens, max_degree=max_degree, by_degree=by_degree)


class ClosureReport(_Record):
    """Whether Delta maps a basis into span (x) span; else the first escaping term."""

    __slots__ = ("ok", "element", "bidegree", "term")

    def __init__(self, ok: bool, element: LinComb | None = None,
                 bidegree: tuple[int, int] | None = None,
                 term: tuple[Forest, Forest] | None = None):
        self.ok = ok
        self.element = element
        self.bidegree = bidegree
        self.term = term

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "closed under the coproduct"
        return (
            f"coproduct escapes the span: element {self.element}, "
            f"bidegree {self.bidegree}, term ({self.term[0]} | {self.term[1]})"
        )


def closure_check(basis: GradedBasis) -> ClosureReport:
    """Check every basis element's coproduct stays inside span (x) span.

    Delta(elem) is split into bidegree components (dl, dr), each tested
    against span(dl) (x) span(dr).  That span is echeloned once per
    bidegree, keyed by forest pairs, when a component first needs it, and
    every later component of the same bidegree is reduced against it;
    nothing outlives the call.
    """
    spans: dict[tuple[int, int], Span] = {}
    for d in range(1, basis.max_degree + 1):
        for elem in basis.degree_span(d):
            delta = coproduct(elem)
            components: dict[tuple[int, int], dict[tuple[Forest, Forest], Fraction]] = {}
            for (fl, fr), c in delta.terms.items():
                components.setdefault((fl.degree, fr.degree), {})[(fl, fr)] = c
            for bidegree, comp in sorted(components.items()):
                span = spans.get(bidegree)
                if span is None:
                    dl, dr = bidegree
                    span = spans[bidegree] = _tensor_span(basis.degree_span(dl),
                                                          basis.degree_span(dr))
                if not _component_in_span(comp, span):
                    worst = min(comp, key=lambda p: (_sort_key(p[0]), _sort_key(p[1])))
                    return ClosureReport(False, elem, bidegree, worst)
    return ClosureReport(True)


def _tensor_span(left_basis, right_basis) -> Span:
    """The echelon of the products bl (x) br, keyed by (left, right) forest pairs."""
    span = Span()
    for bl, br in itertools.product(left_basis, right_basis):
        span.add(Tensor2.tensor(bl, br).terms)
    return span


def _component_in_span(component, span: Span) -> bool:
    """True iff the component, keyed by forest pairs, lies in the tensor span."""
    # Coproduct coefficients are nonzero, so a pair that no product reaches
    # survives the reduction and the component escapes.
    return span.contains(component)


def parse_growth_expr(text: str):
    """Parse the GrowthExpr text format; inverse of str() on expressions."""

    def parse_atom(pos: int):
        pos = _skip_ws(text, pos)
        if text.startswith(".", pos):
            return GrowthLeaf(), pos + 1
        if text.startswith("(", pos):
            sub, p = parse_sum(pos + 1)
            return sub, _expect(text, _skip_ws(text, p), ")")
        if text.startswith("N{", pos):
            tree, p = _parse_tree_at(text, pos + 2)
            p = _expect(text, p, "}")
            sub, p = parse_sum(_expect(text, _skip_ws(text, p), "("))
            return GrowthApply(tree, sub), _expect(text, _skip_ws(text, p), ")")
        raise TreeParseError("expected '.' or 'N{'", text, pos)

    def parse_term(pos: int):
        coeff, pos = _rational_at(text, _skip_ws(text, pos), TreeParseError,
                                  "malformed rational coefficient")
        atom, pos = parse_atom(pos)
        return coeff, atom, pos

    def parse_sum(pos: int):
        parts = []
        pos = _skip_ws(text, pos)
        sign, pos = _sign_at(text, pos) if text.startswith("-", pos) else (1, pos)
        while True:
            coeff, atom, pos = parse_term(pos)
            parts.append((sign * coeff, atom))
            pos = _skip_ws(text, pos)
            if not text.startswith(("+", "-"), pos):
                break
            sign, pos = _sign_at(text, pos)
        if len(parts) == 1 and parts[0][0] == 1:
            return parts[0][1], pos
        return GrowthCombo(tuple(parts)), pos

    expr, pos = parse_sum(0)
    _expect_end(text, pos, "trailing input after expression")
    return expr
