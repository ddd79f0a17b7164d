"""Verification suites: machine checks of the algebraic identities.

Each suite returns a JSON-able report {suite, ok, results} where every
result row is {relation, instance, status, first_mismatch}.  All checks
are exact rational identities; there are no tolerances anywhere.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial

from . import butcher as bu
from . import frame as fr
from .frame import _require_order
from .growth import (
    closure_check,
    decompose,
    eval_growth_expr,
    fan_closed_form_report,
    fan_graph,
    generate_subalgebra,
)
from .hopf import (
    LinComb,
    Tensor2,
    _FreeModule,
    _coproduct,
    _over_trees,
    antipode,
    coproduct,
    counit,
    delta_k,
    natural_growth,
    nbrel_identity,
    ntcoprod_identity,
)
from .series import MultiSeries, ODEProblem, VectorField, _conv, series_solve
from .trees import (
    LEAF,
    SCHEMA_VERSION,
    Forest,
    RootedTree,
    b_plus,
    enumerate_forests,
    enumerate_trees,
)

__all__ = ["verify_hopf", "verify_growth", "verify_butcher", "verify_cm", "run_suites"]


class _Suite:
    def __init__(self, name: str):
        self.name = name
        self.results: list[dict] = []

    def check(self, relation: str, instance: str, ok: bool, mismatch=None):
        self.results.append({
            "relation": relation,
            "instance": instance,
            "status": "pass" if ok else "fail",
            "first_mismatch": None if ok else _json_safe(mismatch),
        })

    def sides(self, relation: str, instance: str, lhs: fr.FrameFunction, rhs: fr.FrameFunction):
        """Check that two frame functions agree at their common order.

        One `frame.first_mismatch` walk gives both the status and the
        mismatch that a failing result carries.
        """
        mismatch = fr.first_mismatch(lhs, rhs)
        self.check(relation, instance, mismatch is None, mismatch)

    def report(self) -> dict:
        return {
            "suite": self.name,
            "ok": all(r["status"] == "pass" for r in self.results),
            "checks": len(self.results),
            "results": self.results,
        }


def _json_safe(value):
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return str(value)


# -- Hopf suite ------------------------------------------------------------


def _tensor3(t2: Tensor2, leg: int) -> _FreeModule:
    """Delta applied to leg 0 or 1 of a Tensor2, keyed by forest triples.

    Reads the memoised Delta of each leg in place, without a copy.
    """
    return _FreeModule((pair[:leg] + split + pair[leg + 1:], c * d)
                       for pair, c in t2.terms.items()
                       for split, d in _coproduct(pair[leg]).terms.items())


def _convolve_antipode(x: LinComb, antipode_left: bool) -> LinComb:
    def on_pair(p):
        if antipode_left:
            return antipode(p[0]) * LinComb.of(p[1])
        return LinComb.of(p[0]) * antipode(p[1])

    return LinComb.linear(coproduct(x), on_pair)


def _require_degree(max_degree: int, least: int = 1, why: str = "") -> None:
    """Reject a degree bound below the least one a suite can run at."""
    if max_degree < least:
        raise ValueError(f"max_degree must be >= {least}{why}, got {max_degree}")


def _cm_trees(max_degree: int) -> tuple[list[RootedTree], int]:
    """The trees the cm suite checks, and the vertex bound on its commutator pairs."""
    trees = [t for n in range(1, min(4, max_degree) + 1) for t in enumerate_trees(n)]
    return trees, max(5, max_degree + 1)


def _cm_least_order(max_degree: int, trials: int) -> int:
    """The least order at which the cm suite keeps every x-derivative it takes.

    A jet truncated at order N survives N x-derivatives.  delta_s multiplies
    by gamma_s = phi_s(gamma(psi)): psi'' takes 2 and phi_s one per root
    child, so 2 + fertility(s).  X_t takes one of its target, and phi(t) up
    to max_fertility(t) of the frame field (y, -y x) cut at the target's
    order, but only two reach a row that is not zero (and dropped).  The
    suite applies X_t after delta_s over the terms of delta_1..delta_3 (X of
    the vertex) and over its commutator pairs, delta_s alone over delta_4
    and over N_t(s), nests at most |s| - 1 X's on delta of the vertex in
    delta_from_commutators, and differentiates the transferred field (psi''
    again) once per grandchild in the pushforward checks.  Without trials
    no psi-dependent jet is differentiated and the single-vertex bound 2
    holds.
    """
    if trials < 1:
        return 2

    def delta(x: LinComb) -> int:
        return max(2 + s.fertility for f in x.terms for s in f.trees)

    trees, pair_bound = _cm_trees(max_degree)
    need = max(delta(delta_k(k)) + 1 for k in (1, 2, 3))
    need = max(need, delta(delta_k(4)))
    for t in trees:
        need = max(need, 1 + t.vertex_count, 2 + t.max_fertility())
        for u in trees:
            if t.vertex_count + u.vertex_count <= pair_bound:
                need = max(need, delta(LinComb.of(u)) + min(2, max(1, t.max_fertility())),
                           delta(natural_growth(t, LinComb.of(u))))
    return need


def _require_cm_order(max_degree: int, order: int, trials: int) -> None:
    """Reject a negative trial count, an order below 2, then one below the
    cm suite's least order."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    _require_order(order)
    least = _cm_least_order(max_degree, trials)
    if order < least:
        raise ValueError(f"order must be >= {least} for the cm suite "
                         f"(its checks take {least} x-derivatives of one jet), got {order}")


def verify_hopf(max_degree: int = 5, seed: int = 0) -> dict:
    _require_degree(max_degree)
    s = _Suite("hopf")
    rng = random.Random(seed)
    forests = [f for d in range(max_degree + 1) for f in enumerate_forests(d)]

    for f in forests:
        x = LinComb.of(f)
        d = coproduct(x)
        s.check("coassociativity", f.serial, _tensor3(d, 0) == _tensor3(d, 1))
        left = LinComb.linear(d, lambda p: LinComb.of(p[1], counit(LinComb.of(p[0]))))
        right = LinComb.linear(d, lambda p: LinComb.of(p[0], counit(LinComb.of(p[1]))))
        s.check("counit law (eps x id)", f.serial, left == x)
        s.check("counit law (id x eps)", f.serial, right == x)
        target = LinComb.unit().scale(counit(x))
        s.check("antipode m(S x id)Delta = u eps", f.serial,
                _convolve_antipode(x, True) == target)
        s.check("antipode m(id x S)Delta = u eps", f.serial,
                _convolve_antipode(x, False) == target)
        ok_deg = all(fl.degree + fr.degree == f.degree for (fl, fr) in d.terms)
        s.check("coproduct preserves degree", f.serial, ok_deg)

    small = [f for f in forests if 1 <= f.degree <= min(4, max_degree)]
    for _ in range(10):
        fa, fb = rng.choice(small), rng.choice(small)
        lhs = coproduct(LinComb.of(fa) * LinComb.of(fb))
        rhs = coproduct(LinComb.of(fa)) * coproduct(LinComb.of(fb))
        s.check("coproduct is an algebra map", f"{fa.serial} , {fb.serial}", lhs == rhs)

    trees = [t for n in range(1, max_degree + 1) for t in enumerate_trees(n)]
    for t in trees:
        for u in trees:
            if t.vertex_count + u.vertex_count <= max_degree:
                s.check("N_t coproduct formula", f"t={t.serial} s={u.serial}",
                        ntcoprod_identity(t, u))
    for t in trees:
        for d in range(0, max_degree - t.vertex_count + 1):
            for parts in enumerate_forests(d):
                s.check("N against B+ relation",
                        f"t0={t.serial} parts={parts.serial}",
                        nbrel_identity(t, parts))

    expected = {
        1: {"[]": 1},
        2: {"[[]]": 1},
        3: {"[[][]]": 1, "[[[]]]": 1},
        4: {"[[][][]]": 1, "[[[]][]]": 3, "[[[][]]]": 1, "[[[[]]]]": 1},
    }
    for k, want in expected.items():
        got = {f.serial: c for f, c in delta_k(k).terms.items()}
        s.check("delta_k display", f"k={k}", got == {a: Fraction(b) for a, b in want.items()})
    for k in range(1, 6):
        total = sum(delta_k(k).terms.values(), Fraction(0))
        s.check("delta_k coefficient sum = (k-1)!", f"k={k}", total == factorial(k - 1))

    for n in range(1, max_degree + 1):
        for t in enumerate_trees(n):
            grown = natural_growth(t, LinComb.of(LEAF))
            count = sum(grown.terms.values(), Fraction(0))
            s.check("N_t term count = |V(s)|", f"t={t.serial} s=[]", count == 1)
    for t in enumerate_trees(2):
        for u in enumerate_trees(3):
            grown = natural_growth(t, LinComb.of(u))
            count = sum(grown.terms.values(), Fraction(0))
            degs = grown.degrees()
            s.check("N_t raises degree by |V(t)|", f"t={t.serial} s={u.serial}",
                    degs == {t.vertex_count + u.vertex_count} and count == u.vertex_count)
    return s.report()


# -- growth suite ----------------------------------------------------------


def verify_growth(max_degree: int = 5, seed: int = 0) -> dict:
    _require_degree(max_degree, 3, " for the growth suite (fan:3 and the cherry have 3 vertices)")
    s = _Suite("growth")
    for n in range(1, max_degree + 1):
        for t in enumerate_trees(n):
            ok = eval_growth_expr(decompose(t)) == LinComb.of(t)
            s.check("decompose round-trip", t.serial, ok)
    for k in range(1, min(5, max_degree) + 1):
        acc = LinComb.of(LEAF)
        for _ in range(k - 1):
            acc = natural_growth(LEAF, acc)
        s.check("iterated growth gives delta_k", f"k={k}", acc == delta_k(k))
    fans = [fan_closed_form_report(n) for n in range(1, 8)]
    for n, rep in enumerate(fans, 1):
        s.check("fan binomial coefficients", f"n={n}",
                all(rep["binomial_coefficients"].get(i, 0) == rep["expected_binomials"][i]
                    for i in rep["expected_binomials"]))
        s.check("fan subscript resolves to F_{n-i}", f"n={n}", rep["matches_f_n_minus_i"])
    s.check(
        "fan subscript report",
        "right leg realizes F_{n-i}, not F_{n-i-1}",
        all(rep["matches_f_n_minus_i"] and not rep["matches_paper_f_n_minus_i_minus_1"]
            for rep in fans[2:]),
    )
    for k in (1, 2, 3):
        gens = {fan_graph(i) for i in range(1, k + 1)}
        basis = generate_subalgebra(gens, max_degree)
        rep = closure_check(basis)
        s.check("sub-Hopf closure A_{S_k}", f"k={k} max_degree={max_degree}", bool(rep),
                None if rep else str(rep))
    cherry = b_plus(Forest((LEAF, LEAF)))
    rep = closure_check(generate_subalgebra({cherry}, max_degree))
    s.check("closure fails without the Hopf hypothesis", "S={cherry}", not rep.ok,
            None if not rep.ok else "unexpectedly closed")
    return s.report()


# -- butcher suite ---------------------------------------------------------


def random_quadratic_field(nvars: int, seed: int) -> VectorField:
    """Polynomial field with all monomials of total degree <= 2, seeded."""
    rng = random.Random(seed)
    comps = []
    exps = [e for e in itertools.product(range(3), repeat=nvars) if sum(e) <= 2]
    for _ in range(nvars):
        terms = {}
        for e in exps:
            c = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            if c:
                terms[e] = c
        comps.append(MultiSeries(nvars, terms))
    return VectorField(comps)


def verify_butcher(max_degree: int = 5, seed: int = 0) -> dict:
    _require_degree(max_degree)
    s = _Suite("butcher")
    f = random_quadratic_field(2, seed)

    sol = series_solve(ODEProblem(f, 6))
    for k in range(1, 7):
        want = [c * factorial(k) for c in sol[k]]
        got = bu.phi_at_origin(delta_k(k), f)
        s.check("Taylor bridge d^k x/ds^k = phi(delta_k)", f"k={k}", got == want,
                None if got == want else {"got": got, "want": want})

    trees = [t for n in range(1, 6) for t in enumerate_trees(n)]
    for t in trees:
        s.check("phi(N(t)) = d/ds phi(t)", t.serial, bu.check_growth_derivative(t, f))
    for t in trees:
        for u in trees:
            if t.vertex_count + u.vertex_count <= 6:
                s.check("phi(N_t(s)) = phi^j(t) d_j phi(s)",
                        f"t={t.serial} s={u.serial}",
                        bu.check_generalized_growth(t, u, f))

    rng = random.Random(seed + 1)
    small_trees = [t for n in range(1, 4) for t in enumerate_trees(n)]
    for _ in range(6):
        t1, t2 = rng.choice(small_trees), rng.choice(small_trees)
        lhs = [a * b for a, b in zip(bu.elementary_differential(t1, f),
                                     bu.elementary_differential(t2, f))]
        got = bu.phi_t_apply(t1, f, f.components[0])
        s.check("phi_t(f^i) = phi^i(t)", f"t={t1.serial}",
                got.eq_retained(bu.elementary_differential(t1, f)[0]))
        s.check("phi multiplicative over forests", f"{t1.serial} * {t2.serial}",
                all(l.eq_retained(r) for l, r in zip(
                    lhs,
                    _phi_forest_vector(Forest((t1, t2)), f))))

    h = MultiSeries(2, {(1, 1): Fraction(1), (2, 0): Fraction(1, 2)})
    for t in small_trees:
        for u in small_trees:
            if t.vertex_count + u.vertex_count > 5:
                continue
            # phi over the growth sum N_t(t'), extended linearly
            lhs = bu._linear_sum(natural_growth(t, LinComb.of(u)),
                                 lambda forest: bu.phi_forest_apply(forest, f, h),
                                 MultiSeries.zero(f.nvars, f.trunc))
            rhs = bu.phi_t_apply(u, f, h)
            rhs = bu.phi_t_apply(b_plus(t.forest), f, rhs)
            s.check("phi_{N_t} phi_{t'} = phi_{N_t(t')}",
                    f"t={t.serial} t'={u.serial}", lhs.eq_retained(rhs))

    # scalar field f(x) = x kills every tree with a vertex of fertility >= 2
    fx = VectorField([MultiSeries(1, {(1,): 1})])
    for n in range(1, 6):
        for t in enumerate_trees(n):
            vec = bu.elementary_differential(t, fx)[0]
            if t.max_fertility() <= 1:
                s.check("ladders survive f(x)=x", t.serial,
                        vec.eq_retained(MultiSeries(1, {(1,): 1})))
            else:
                s.check("branching trees vanish for f(x)=x", t.serial, vec.is_zero())

    fexp = VectorField([MultiSeries(1, {(0,): 1, (1,): 1})])
    sol = series_solve(ODEProblem(fexp, 8))
    s.check("flow of 1+x is e^s - 1", "k<=8",
            all(sol[k][0] == Fraction(1, factorial(k)) for k in range(1, 9)))
    fzero = VectorField([MultiSeries(2, {}), MultiSeries(2, {})])
    sol = series_solve(ODEProblem(fzero, 4))
    s.check("zero field has constant flow", "k<=4",
            all(c == 0 for vec in sol[1:] for c in vec))
    return s.report()


def _phi_forest_vector(forest: Forest, f: VectorField):
    return [_over_trees(forest, lambda t, i=i: bu.elementary_differential(t, f)[i],
                        lambda: MultiSeries.constant(f.nvars, 1, f.trunc)) for i in range(f.nvars)]


# -- cm suite ---------------------------------------------------------------


def verify_cm(max_degree: int = 4, seed: int = 0, order: int = 8, trials: int = 10) -> dict:
    _require_degree(max_degree)
    _require_cm_order(max_degree, order, trials)
    s = _Suite("cm")
    trees, pair_bound = _cm_trees(max_degree)
    gamma_x = MultiSeries(1, {(1,): 1}, order)

    instances = []
    rng = random.Random(seed)
    for i in range(trials):
        psi = fr.random_diffeo(rng, order)
        eta = fr.random_diffeo(rng, order)
        fa = fr.random_frame_function(rng, order)
        fb = fr.random_frame_function(rng, order)
        instances.append((i, psi, eta, fa, fb))

    for i, psi, eta, fa, fb in instances:
        s.sides("gamma cocycle", f"trial={i}", *fr.cocycle_sides(psi, eta, gamma_x))

    for i, psi, eta, fa, fb in instances:
        a = fr.Monomial(fa, psi)
        b = fr.Monomial(fb, eta)
        for t in trees:
            inst = f"trial={i} t={t.serial}"
            # Schema 1 records the two transfer families without a mismatch and
            # its bytes are pinned, so these stay bare checks until schema 2.
            lhs = fr.transferred_side(t, psi, gamma_x, fb)
            s.check("coprodcontrib cut expansion", inst,
                    fr.first_mismatch(lhs, fr.coprodcontrib_rhs(t, psi, gamma_x, fb)) is None)
            s.check("pushforward product formula", inst,
                    fr.first_mismatch(lhs, fr.pushforward_rhs(t, psi, gamma_x, fb)) is None)
            s.sides("Delta delta_t", inst, *fr.delta_coproduct_sides(LinComb.of(t), a, b, gamma_x))
            s.sides("Delta X_t", inst, *fr.X_coproduct_sides(t, a, b, gamma_x))
        for k in range(1, min(4, max_degree) + 1):
            s.sides("Delta delta over delta_k", f"trial={i} k={k}",
                    *fr.delta_coproduct_sides(delta_k(k), a, b, gamma_x))

    # structural explanation of the coproduct failures: the one-vertex rule
    # and the two-vertex transfer force symbols differing by the flat cocycle
    for i, psi, _eta, _fa, _fb in instances[:3]:
        full, curvature_only, flat = fr.forced_vertex_symbols(psi, gamma_x)
        s.sides("forced vertex symbols differ by the flat cocycle",
                f"trial={i}", curvature_only + flat, full)

    for i, psi, eta, fa, fb in instances:
        m = fr.Monomial(fa, psi)
        for t in trees:
            for u in trees:
                if t.vertex_count + u.vertex_count > pair_bound:
                    continue
                for relation, lhs, rhs in fr.commutator_sides(t, u, m, gamma_x):
                    s.sides(relation, f"trial={i} t={t.serial} t'={u.serial}", lhs, rhs)
        for k in (1, 2, 3):
            s.sides("[X, delta_k] = delta_{k+1}", f"trial={i} k={k}",
                    *fr.delta_chain_sides(k, m, gamma_x))
        for t in trees:
            got = fr.delta_from_commutators(t, m, gamma_x)
            want = fr.delta_t_apply(t, m, gamma_x)
            s.sides("delta from commutators", f"trial={i} t={t.serial}", got.f, want.f)

    # degeneration at Gamma = 0, plus simple Gamma = 1 spot case
    gamma0 = MultiSeries.zero(1, order)
    gamma1 = MultiSeries.constant(1, 1, order)
    for t in trees:
        if t.vertex_count >= 2:
            fx, fz = fr.phi_frame(t, gamma0, order)
            s.check("flat curvature kills phi(t), |t| >= 2", t.serial,
                    fx.is_zero() and fz.is_zero())
    for i, psi, eta, fa, fb in instances[:3]:
        m = fr.Monomial(fa, psi)
        for g in (gamma0, gamma1):
            tag = "Gamma=0" if g.is_zero() else "Gamma=1"
            rep = fr.check_commutators(LEAF, LEAF, m, g)
            s.check("classical relations persist", f"trial={i} {tag}", rep.ok,
                    rep.mismatches)
            s.sides("[X, delta_1] = delta_2 persists", f"trial={i} {tag}",
                    *fr.delta_chain_sides(1, m, g))

    for t in trees:
        fx, fz = fr.phi_frame(t, gamma_x, order)
        n = t.vertex_count
        ok = (fx.is_zero() or fx.homogeneous_y_degree() == n) and \
             (fz.is_zero() or fz.homogeneous_y_degree() == n)
        s.check("phi^i(t) is y-homogeneous of degree |t|", t.serial, ok)

    rng2 = random.Random(seed + 7)
    for i in range(3):
        ms = [fr.Monomial(fr.random_frame_function(rng2, order), fr.random_diffeo(rng2, order))
              for _ in range(3)]
        lhs = fr.monomial_product(fr.monomial_product(ms[0], ms[1]), ms[2])
        rhs = fr.monomial_product(ms[0], fr.monomial_product(ms[1], ms[2]))
        s.check("monomial product associativity", f"trial={i}", lhs.eq_retained(rhs))
        unit = fr.Monomial(fr.FrameFunction.constant(1, order), fr.FormalDiffeo.identity(order))
        s.check("monomial unit", f"trial={i}",
                fr.monomial_product(ms[0], unit).eq_retained(ms[0]))
        psi = fr.random_diffeo(rng2, order)
        inv = psi.inverse()
        prod = fr.monomial_product(fr.Monomial(ms[0].f, psi),
                                   fr.Monomial(fr.FrameFunction.constant(1, order), inv))
        s.check("U* psi then psi^{-1} lands at identity", f"trial={i}",
                prod.psi.is_identity())

    s.check("frame flow bridge", "Gamma=x, K=6", _frame_flow_bridge(gamma_x, order))
    return s.report()


def _frame_flow_bridge(gamma_x: MultiSeries, order: int) -> bool:
    """Cross-check frame differentials against the polynomial-field solver.

    In coordinates (x, u) with u = y - 1 the frame flow for Gamma(x) = x
    is polynomial: dx/ds = 1 + u, du/ds = -(1+u)^2 x.  Its exact Taylor
    solution must match the flow derivatives delta_k |-> phi(delta_k)
    evaluated at the frame origin (x, y) = (0, 1), with the fiber side
    re-exponentiated from the z-jet.  gamma_x is Gamma = x at `order`.
    """
    one_plus_u = MultiSeries(2, {(0, 0): 1, (0, 1): 1})
    f = VectorField([one_plus_u, -(one_plus_u * one_plus_u) * MultiSeries(2, {(1, 0): 1})])
    K = 6
    sol = series_solve(ODEProblem(f, K))
    # x-side and z-side jets from the tree expansion
    def phi(forest: Forest):
        return fr.phi_frame(bu._single_tree(forest, "phi"), gamma_x, order)

    x_jet = [Fraction(0)]
    z_jet = [Fraction(0)]
    for k in range(1, K + 1):
        fx, fz = (bu._linear_sum(delta_k(k), lambda forest, i=i: phi(forest)[i],
                                 fr.FrameFunction.zero()) for i in range(2))
        x_jet.append(_frame_origin(fx) / factorial(k))
        z_jet.append(_frame_origin(fz) / factorial(k))
    if any(x_jet[k] != sol[k][0] for k in range(K + 1)):
        return False
    y_jet = _exp_jet(z_jet, K)
    return all(y_jet[k] - (1 if k == 0 else 0) == sol[k][1] for k in range(K + 1))


def _frame_origin(h) -> Fraction:
    return sum((g.eval0() for g in h.coeffs.values()), Fraction(0))


def _exp_jet(jet: list[Fraction], K: int) -> list[Fraction]:
    out = [Fraction(1)] + [Fraction(0)] * K
    power = [Fraction(1)] + [Fraction(0)] * K
    for n in range(1, K + 1):
        power = _conv(power, jet, K + 1, [Fraction(0)] * (K + 1))
        for k in range(K + 1):
            out[k] += power[k] / factorial(n)
    return out


def run_suites(names, max_degree: int = 5, seed: int = 0, order: int = 8,
               trials: int = 10) -> dict:
    """Run the requested suites and assemble the versioned report."""
    available = {
        "hopf": lambda: verify_hopf(max_degree, seed),
        "growth": lambda: verify_growth(max_degree, seed),
        "butcher": lambda: verify_butcher(max_degree, seed),
        "cm": lambda: verify_cm(min(max_degree, 4), seed, order, trials),
    }
    if isinstance(names, str):
        names = [names]
    unknown = [n for n in names if n not in available and n != "all"]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}; known suites: {', '.join(available)}, all")
    if "all" in names:
        names = list(available)
    if "cm" in names:
        _require_cm_order(min(max_degree, 4), order, trials)
    reports = [available[n]() for n in names]
    return {
        "schema": SCHEMA_VERSION,
        "suites": reports,
        "ok": all(r["ok"] for r in reports),
    }
