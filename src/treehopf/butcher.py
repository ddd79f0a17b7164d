"""Butcher elementary differentials over exact jets.

For the system dx/ds = f(x), each rooted tree indexes a function of f
and its derivatives via the grafting recursion: the differential of
B_+(t_1..t_m) contracts the children's differentials into the m-th
derivative of f.  The operator version phi_t acts the same way on an
arbitrary function, with phi of the single vertex the identity.

The recursion (`_phi_vec`, `_contract`) is the one grafting recursion of
the package, on any components with `*`, `+` and `deriv(k)`: the flow
derivative sum_j v^j d_j h is its one-child contraction, `frame.phi_frame_op`
runs it on the frame flow, and `frame.pushforward_rhs` passes the lift as its
`partial` map.  The partial derivatives commute, so a contraction takes each
d_ks of its target, and the map of each full-length one, once per sorted
index tuple ks; it keeps the order of every product and sum, because a
truncated product that vanishes drops its row and its order with it.

A jet-valued map on forests (phi here; delta_t, X_t and phi_s in
`treehopf.frame`) extends over a linear combination through one function,
`_linear_sum`: it adds c fn(F) onto a given zero, left to right in term
order, so every such sum keeps one fold order and its zero's truncation
order; `_single_tree` refuses the forests a map defined on trees cannot
take.

Each phi(t) of a field is computed once: the recursion memoizes by tree
in the field's own `VectorField._phi`, which every function here reads,
and which dies with the field.  It is not a process-wide cache.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .hopf import LinComb, natural_growth
from .series import MultiSeries, TruncationError, VectorField
from .trees import LEAF, Forest, RootedTree

__all__ = [
    "elementary_differential",
    "elementary_differential_lincomb",
    "phi_t_apply",
    "phi_forest_apply",
    "phi_at_origin",
    "check_growth_derivative",
    "check_generalized_growth",
]


def _require_depth(t: RootedTree, f: VectorField):
    need = t.max_fertility()
    if f.trunc is not None and f.trunc < need:
        raise TruncationError(
            f"tree {t.serial} needs derivatives of order {need}, "
            f"field truncated at {f.trunc}"
        )


def elementary_differential(t: RootedTree, f: VectorField) -> tuple[MultiSeries, ...]:
    """The n-vector phi(t) for the field f."""
    _require_depth(t, f)
    return _phi_vec(t, f.components, f._phi)


def _phi_vec(t: RootedTree, field: tuple, memo) -> tuple:
    """phi(t) for the field components, memoized by tree in memo."""
    got = memo.get(t)
    if got is not None:
        return got
    if not t.children:
        out = field
    else:
        children = [_phi_vec(c, field, memo) for c in t.children]
        out = tuple(_contract(children, comp, len(field)) for comp in field)
    memo[t] = out
    return out


def _contract(children, target, n: int, partial=None):
    """Sum over index tuples of (prod_j children[j][k_j]) partial(d_{k_1..k_m} target).

    The partial derivatives commute, so d_ks target is taken once per sorted
    tuple ks, from the derivative of its prefix, and `partial` (None: the
    identity) once per sorted m-tuple; products and sum run in tuple order.
    """
    m = len(children)
    partials = {(): target}
    for r in range(1, m + 1):
        for ks in itertools.combinations_with_replacement(range(n), r):
            partials[ks] = partials[ks[:-1]].deriv(ks[-1])
    if partial is not None:
        for ks in itertools.combinations_with_replacement(range(n), m):
            partials[ks] = partial(partials[ks])
    acc = None
    for ks in itertools.product(range(n), repeat=m):
        term = partials[tuple(sorted(ks))]
        for j, k in enumerate(ks):
            term = term * children[j][k]
        acc = term if acc is None else acc + term
    return acc if acc is not None else target


def phi_t_apply(t: RootedTree, f: VectorField, h: MultiSeries) -> MultiSeries:
    """Apply the differential operator phi_t to h; phi of the vertex is h itself."""
    _require_depth(t, f)
    children = [_phi_vec(c, f.components, f._phi) for c in t.children]
    return _contract(children, h, f.nvars)


def phi_forest_apply(forest: Forest, f: VectorField, h: MultiSeries) -> MultiSeries:
    """Composition of phi_t over the trees of a forest, in canonical order."""
    out = h
    for t in forest.trees:
        out = phi_t_apply(t, f, out)
    return out


def _single_tree(forest: Forest, what: str) -> RootedTree:
    """The one tree of forest; what extends linearly over single trees only."""
    if len(forest.trees) != 1:
        raise ValueError(f"{what} extends linearly over single trees only")
    return forest.trees[0]


def _linear_sum(x: LinComb, fn, zero):
    """zero + sum of c fn(F) over the terms c F of x: the one linear extension
    of a jet-valued map, added left to right in term order."""
    out = zero
    for forest, c in x.terms.items():
        out = out + fn(forest).scale(c)
    return out


def elementary_differential_lincomb(x: LinComb, f: VectorField) -> tuple[MultiSeries, ...]:
    """Linear extension of phi to a combination of single trees, per component."""
    def phi(forest: Forest) -> tuple[MultiSeries, ...]:
        tree = _single_tree(forest, "phi")
        _require_depth(tree, f)
        return _phi_vec(tree, f.components, f._phi)

    zero = MultiSeries.zero(f.nvars, f.trunc)
    return tuple(_linear_sum(x, lambda forest, i=i: phi(forest)[i], zero) for i in range(f.nvars))


def phi_at_origin(x: LinComb, f: VectorField) -> list[Fraction]:
    """phi(x) evaluated at the jet origin."""
    return [c.eval0() for c in elementary_differential_lincomb(x, f)]


def check_growth_derivative(t: RootedTree, f: VectorField) -> bool:
    """phi(N(t)) equals the flow derivative sum_j f^j d_j phi(t), as retained jets.

    This is the generalized lemma at the single vertex, whose phi is f.
    """
    return check_generalized_growth(LEAF, t, f)


def check_generalized_growth(t: RootedTree, s: RootedTree, f: VectorField) -> bool:
    """phi(N_t(s)) equals phi^j(t) d_j phi(s), as retained jets."""
    lhs = elementary_differential_lincomb(natural_growth(t, LinComb.of(s)), f)
    phi_t = _phi_vec(t, f.components, f._phi)
    rhs = [_contract([phi_t], c, f.nvars) for c in _phi_vec(s, f.components, f._phi)]
    return all(a.eq_retained(b) for a, b in zip(lhs, rhs))
